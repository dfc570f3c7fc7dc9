"""Network topology descriptions, weight/dataset containers, and the
end-to-end inference runner that compares the crossbar execution against the
exact software model. The runner moves both chains through the layers in
lockstep and shares work by tensor identity: while the crossbar tensor is the
golden one (the same object), a layer runs once for both, and so does a
binarized layer whose crossbar readout is its exact sign
(`CrossbarBackend.reads_majority`). The next binarized layer's per-segment
popcounts are computed once too; the chains diverge at its decisions.

Conv activations are NHWC (batch, height, width, channels) from the images
to the first FC layer, which flattens them in the (c, h, w) order of its
weight columns. A conv layer is one GEMM per output row and fan-in span, and
no window is copied: the k input rows an output row reads, cast alone,
times block-Toeplitz weight rows (each window's kernel in its column block,
exact zeros elsewhere). A row's (images, window x output) GEMM output is
compared or decoded into that row of the layer's output before the next
row's GEMM overwrites it, so no block holds a whole conv GEMM output; an FC
layer is the one-row case.

Pooling has one rule: compare each window, then OR the bits of the pool's
windows (`_pool_band`) inside the weight layer before the pool, so no
full-size conv activation is allocated. Consecutive pools fold into one
(`_steps`): floor(floor(h / a) / b) = floor(h / ab), and OR is associative.
A conv's Toeplitz rows put its windows in column-phase order for a p x p
pool (`_toeplitz`): each output row's GEMM output then holds the pool's p
column phases as contiguous slices, and a pooled row is the OR of the bits
of the p slices of p consecutive output rows. Ragged rows and columns are
dropped at the pool; a binarized conv still senses them while a crossbar
chain counts its mismatch, which counts every unpooled bit. Only a pool on
the input images, which follows no weight layer, runs alone (`_pool_or`).

Both GEMMs are exact in float32, in any summation order:

* Binarized layers put two +-1 weight rows in one float32 lane,
  w_lo + B w_hi with B the smallest power of two above the span length m,
  against activations b - 1/2. Every partial sum is a multiple of 1/2 of
  magnitude at most m(1 + B)/2 < 2^23 for m <= 4095, so longer segments are
  summed from spans of at most 4095; the popcounts are exact while the
  fan-in is below 2^24 (`_segment_counts`).
* The non-binarized layer centres its uint8 pixels: (x - 128) w is at most
  128 * 128 = 2^14 in magnitude, so one GEMM covers 1024 fan-in columns
  (2^24 / 2^14), and the layer fires iff the centred dot is at least
  -128 sum w (`_pixel_dots`).

Every layer of a chunk except the final scores runs on row blocks of its
images (`_by_rows`): the usable cores (`os.sched_getaffinity`) over the
threads each BLAS call uses (`_blas_threads`, every core when nothing pins
them), and none below `_MIN_BLOCK_ROWS` images. With one BLAS thread a
block runs on each core; with a BLAS thread on every core one block runs.
The calling thread runs one block and a module-level pool, started at the
first call that needs it, runs the others; with one block no thread
starts. A layer's weight operands do not depend on the rows: the caller
makes them once, in its own open workspace frame (the pixel layer's float32
weights, the conv Toeplitz rows, and the packed +-1 lanes, which both
chains share), and every block reads them without writing. Each block
writes its rows of one preallocated output, and the caller joins every
block before its frame exits, even when its own block raises.

Every other large temporary of a layer (an output row's cast input rows
and GEMM output, the popcounts, the golden count sums and the cascade
accumulators) is a view into the workspace of the thread that runs the
block (`_Workspace`, one per thread, kept by the pool's workers across
calls), carved with stack discipline: a frame returns its carve on exit, so
nothing in it outlives the layer, and activations and the bits of
`_fc_bits_*` are ordinary arrays. A buffer is mapped on first use, grows
only when a larger live set arrives and is reused across segments, layers,
chunks and calls for the thread's lifetime; its size is the largest live
set of a block (plus the shared operands in a caller's), which `_CHUNK` and
the one-row-at-a-time conv GEMMs bound for any dataset size. A thread
writes only its own workspace and its own rows, so concurrent calls are
independent.

Topology grammar ("-" separated tokens):
    "5x5,6"     conv, 5x5 kernel, 6 output channels
    "2x2 Pool"  max pool (binary max = OR over the window)
    "FC(120)"   fully connected layer with 120 outputs
A leading FC token declares the input width instead of a weight layer (the
MLP rows list the 784-pixel input that way), which must be the input's
C x H x W; everywhere else FC(n) is a weight layer whose fan-in is inferred
from the previous layer.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import math
import os
import re
import struct
import threading
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import cascade as _cascade
from .crossbar import CrossbarConfig, ReferenceSet, segment_lengths
from .dataflow import ConvLayer

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

_WEIGHT_MAGIC = b"XBW1"
_WEIGHT_VERSION = 1


@dataclass(frozen=True)
class PoolLayer:
    size: int
    input_h: int
    input_w: int

    @property
    def out_h(self) -> int:
        return self.input_h // self.size

    @property
    def out_w(self) -> int:
        return self.input_w // self.size


@dataclass(frozen=True)
class FCLayer:
    in_features: int
    out_features: int
    binarized: bool = True

    @property
    def fan_in(self) -> int:
        return self.in_features

    @property
    def weight_shape(self) -> tuple:
        return (self.out_features, self.in_features)


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    input_channels: int
    input_h: int
    input_w: int
    layers: tuple = ()

    @property
    def weight_layers(self) -> tuple:
        return tuple(l for l in self.layers if not isinstance(l, PoolLayer))


class TopologyError(ValueError):
    pass


_CONV_RE = re.compile(r"^(\d+)x(\d+),(\d+)$")
_POOL_RE = re.compile(r"^(\d+)x(\d+)\s*Pool$", re.IGNORECASE)
_FC_RE = re.compile(r"^FC\((\d+)\)$", re.IGNORECASE)


def parse_topology(
    text: str,
    input_channels: int = 1,
    input_h: int = 28,
    input_w: int = 28,
    name: str | None = None,
) -> NetworkSpec:
    """Parse a topology line into a validated NetworkSpec.

    The first weight layer is non-binarized (it consumes raw pixel values);
    everything after it runs on binary weights and activations.
    """
    tokens = [t.strip() for t in text.split("-")]
    if not tokens or not any(tokens):
        raise TopologyError("empty topology")

    layers = []
    ch, h, w = input_channels, input_h, input_w
    flat = None  # feature width once the net switches to FC layers
    first_weight = True
    for pos, tok in enumerate(tokens):
        if m := _CONV_RE.match(tok):
            k1, k2, out_ch = (int(g) for g in m.groups())
            if k1 != k2:
                raise TopologyError(f"token {pos} {tok!r}: only square kernels supported")
            if flat is not None:
                raise TopologyError(f"token {pos} {tok!r}: conv after FC")
            try:
                layers.append(ConvLayer(ch, out_ch, h, w, k1, binarized=not first_weight))
            except ValueError as err:
                raise TopologyError(f"token {pos} {tok!r}: {err}") from None
            first_weight = False
            ch, h, w = out_ch, layers[-1].out_h, layers[-1].out_w
        elif m := _POOL_RE.match(tok):
            s1, s2 = (int(g) for g in m.groups())
            if s1 != s2:
                raise TopologyError(f"token {pos} {tok!r}: only square pooling supported")
            if flat is not None:
                raise TopologyError(f"token {pos} {tok!r}: pool after FC")
            if not 1 <= s1 <= min(h, w):
                raise TopologyError(f"token {pos} {tok!r}: pool size must be 1 to {min(h, w)} on a {h}x{w} input")
            layers.append(PoolLayer(s1, h, w))
            h, w = layers[-1].out_h, layers[-1].out_w
        elif m := _FC_RE.match(tok):
            n = int(m.group(1))
            if n < 1:
                raise TopologyError(f"token {pos} {tok!r}: FC needs a positive width")
            if flat is None:
                flat = ch * h * w
            if pos == 0:  # input-width declaration, not a weight layer
                if n != flat:
                    raise TopologyError(f"token 0 {tok!r}: declares {n} inputs; the {ch}x{h}x{w} input has {flat}")
                continue
            layers.append(FCLayer(flat, n, binarized=not first_weight))
            first_weight = False
            flat = n
        else:
            raise TopologyError(f"token {pos} {tok!r}: unrecognized layer")
    if not layers:
        raise TopologyError("topology has no weight layers")
    return NetworkSpec(name or text, input_channels, input_h, input_w, tuple(layers))


# Table 1 topologies, reachable by name from the CLI.
TOPOLOGIES = {
    "lenet-5": "5x5,6 - 2x2 Pool - 5x5,16 - 2x2 Pool - FC(120) - FC(84) - FC(10)",
    "cnn-1": "5x5,5 - 2x2 Pool - FC(720) - FC(70) - FC(10)",
    "cnn-2": "7x7,10 - 2x2 Pool - FC(1210) - FC(1210) - FC(10)",
    "mlp-s": "FC(784) - FC(500) - FC(250) - FC(10)",
    "mlp-m": "FC(784) - FC(1000) - FC(500) - FC(250) - FC(10)",
    "mlp-l": "FC(784) - FC(1500) - FC(1000) - FC(500) - FC(10)",
}


def named_network(name: str) -> NetworkSpec:
    key = name.lower()
    if key not in TOPOLOGIES:
        raise TopologyError(f"unknown network {name!r}; known: {', '.join(sorted(TOPOLOGIES))}")
    return parse_topology(TOPOLOGIES[key], name=key)


class WeightFormatError(ValueError):
    pass


@dataclass
class WeightContainer:
    """Per-layer weights: uint8 bit matrices for binarized layers, int8 for
    the quantized non-binarized ones. Serialized with a CRC32 trailer."""

    arrays: list = field(default_factory=list)

    @classmethod
    def random(cls, net: NetworkSpec, seed: int) -> "WeightContainer":
        rng = np.random.default_rng(seed)
        arrays = []
        for layer in net.weight_layers:
            shape = layer.weight_shape
            if layer.binarized:
                arrays.append(rng.integers(0, 2, size=shape, dtype=np.uint8))
            else:
                arrays.append(rng.integers(-127, 128, size=shape, dtype=np.int8))
        return cls(arrays)

    def validate(self, net: NetworkSpec) -> None:
        layers = net.weight_layers
        if len(self.arrays) != len(layers):
            raise WeightFormatError(f"{len(self.arrays)} weight arrays for {len(layers)} layers")
        for i, (arr, layer) in enumerate(zip(self.arrays, layers)):
            if tuple(arr.shape) != layer.weight_shape:
                raise WeightFormatError(
                    f"layer {i}: weight shape {tuple(arr.shape)} != expected {layer.weight_shape}"
                )
            want = np.uint8 if layer.binarized else np.int8
            if arr.dtype != want:
                raise WeightFormatError(f"layer {i}: dtype {arr.dtype} != {want}")

    def save(self, path) -> None:
        out = bytearray()
        out += _WEIGHT_MAGIC
        out += struct.pack("<HH", _WEIGHT_VERSION, len(self.arrays))
        for arr in self.arrays:
            binary = arr.dtype == np.uint8
            dims = arr.shape
            out += struct.pack("<BB", 1 if binary else 0, len(dims))
            out += struct.pack(f"<{len(dims)}I", *dims)
            payload = np.packbits(arr.ravel(), bitorder="little").tobytes() if binary else arr.tobytes()
            out += struct.pack("<I", len(payload))
            out += payload
        out += struct.pack("<I", zlib.crc32(bytes(out)))
        with open(path, "wb") as f:
            f.write(bytes(out))

    @classmethod
    def load(cls, path) -> "WeightContainer":
        """Read a file written by `save`. Raises WeightFormatError on a bad
        magic, checksum or version, a truncated layer header, a payload
        whose length does not match its dims (ceil(n / 8) bytes of bits, n
        int8 bytes), and bytes left after the last layer."""
        with open(path, "rb") as f:
            blob = f.read()
        if len(blob) < 12 or blob[:4] != _WEIGHT_MAGIC:
            raise WeightFormatError(f"bad magic {blob[:4]!r}")
        body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
        if zlib.crc32(body) != crc:
            raise WeightFormatError("checksum mismatch")
        version, count = struct.unpack_from("<HH", blob, 4)
        if version != _WEIGHT_VERSION:
            raise WeightFormatError(f"unsupported version {version}")
        off = 8

        def take(fmt: str, what: str) -> tuple:
            nonlocal off
            size = struct.calcsize(fmt)
            if off + size > len(body):
                raise WeightFormatError(f"{what} truncated at byte {off}")
            off += size
            return struct.unpack_from(fmt, body, off - size)

        arrays = []
        for i in range(count):
            binary, ndim = take("<BB", f"layer {i}: header")
            dims = take(f"<{ndim}I", f"layer {i}: dims")
            (plen,) = take("<I", f"layer {i}: payload length")
            n = int(np.prod(dims))
            want = -(-n // 8) if binary else n
            if plen != want:
                raise WeightFormatError(f"layer {i}: {plen}-byte payload for dims {dims}, expected {want} bytes")
            (payload,) = take(f"<{plen}s", f"layer {i}: payload")
            if binary:
                arr = np.unpackbits(np.frombuffer(payload, np.uint8), count=n, bitorder="little")
                arrays.append(arr.reshape(dims).astype(np.uint8))
            else:
                arrays.append(np.frombuffer(payload, np.int8).reshape(dims).copy())
        if off != len(body):
            raise WeightFormatError(f"{len(body) - off} trailing bytes after the last layer")
        return cls(arrays)


class IdxFormatError(ValueError):
    pass


def _read_idx_header(blob: bytes, path, magic: int, ndim: int) -> tuple:
    if len(blob) < 4 * (1 + ndim):
        raise IdxFormatError(f"{path}: truncated header ({len(blob)} bytes)")
    got = struct.unpack_from(">I", blob, 0)[0]
    if got != magic:
        raise IdxFormatError(f"{path}: magic 0x{got:08x} at byte 0, expected 0x{magic:08x}")
    return struct.unpack_from(f">{ndim}I", blob, 4)


def _idx_payload(path, magic: int, ndim: int) -> tuple[tuple, np.ndarray]:
    """(dims, uint8 payload) of an IDX file whose payload is exactly the
    bytes its header declares; IdxFormatError on a short or long file."""
    with open(path, "rb") as f:
        blob = f.read()
    dims = _read_idx_header(blob, path, magic, ndim)
    start = 4 * (1 + ndim)
    need = start + math.prod(dims)
    if len(blob) < need:
        raise IdxFormatError(f"{path}: payload ends at byte {len(blob)}, expected {need}")
    if len(blob) > need:
        raise IdxFormatError(f"{path}: {len(blob) - need} bytes past the declared payload, which ends at byte {need}")
    return dims, np.frombuffer(blob, np.uint8, offset=start)


def load_idx_images(path) -> np.ndarray:
    """MNIST-layout image file: big-endian header, then unsigned-byte pixels."""
    dims, data = _idx_payload(path, IDX_IMAGE_MAGIC, 3)
    return data.reshape(dims).copy()


def load_idx_labels(path) -> np.ndarray:
    _, labels = _idx_payload(path, IDX_LABEL_MAGIC, 1)
    labels = labels.copy()
    if labels.size and labels.max() > 9:
        raise IdxFormatError(f"{path}: label {labels.max()} outside [0, 9]")
    return labels


def load_dataset(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """The images and labels of a pair of IDX files, one label per image."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(f"{images.shape[0]} images vs {labels.shape[0]} labels: files do not pair")
    return images, labels


@dataclass(frozen=True)
class CrossbarBackend:
    """Routes every binarized layer through split columns + SA + cascade."""

    config: CrossbarConfig
    refs: ReferenceSet
    policy_kind: str = "F2"

    def policy(self) -> _cascade.CascadePolicy:
        return _cascade.CascadePolicy(self.policy_kind, self.refs)

    def validate(self, net: NetworkSpec) -> None:
        """Raise ValueError unless the policy kind is known and the reference
        layout fits every column segment the crossbar chain senses in `net`
        (the final layer's raw scores are not sensed). A layer that splits
        also needs a valid `CascadePolicy`: F1 and F2 need 3 or more
        references there; a layer that fits one segment reads the main
        reference alone."""
        _cascade.check_kind(self.policy_kind)
        for i, layer in enumerate(net.weight_layers[:-1]):
            if not layer.binarized:
                continue
            lengths = segment_lengths(layer.fan_in, self.config.rows)
            try:
                for m in lengths:
                    self.refs.for_segment(m)
                if len(lengths) > 1:
                    self.policy()
            except ValueError as err:
                split = "+".join(map(str, lengths))
                raise ValueError(f"layer {i} (fan-in {layer.fan_in} = {split}): {err}") from None

    def reads_majority(self, n: int) -> bool:
        """Whether sensing a binarized layer of fan-in `n` gives its exact
        sign (`_fc_bits_golden`): `n` fits one segment, whose main reference
        n // 2 is the golden threshold. Raises ValueError where sensing it
        would."""
        if len(segment_lengths(n, self.config.rows)) > 1:
            return False
        self.refs.for_segment(n)  # raises where the layout does not fit n
        return True


@dataclass(frozen=True)
class InferenceReport:
    backend: str
    samples: int
    accuracy: float
    golden_accuracy: float
    layer_mismatch: tuple  # (layer label, mismatch fraction) per activation layer

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "samples": self.samples,
            "accuracy": self.accuracy,
            "golden_accuracy": self.golden_accuracy,
            "layer_mismatch": [{"layer": n, "mismatch": m} for n, m in self.layer_mismatch],
        }


# float32 represents every integer of magnitude up to 2^24 exactly.
_FLOAT32_EXACT = 1 << 24

# The longest span of a packed +-1 GEMM: its lane base B is 4096 and every
# partial sum is a multiple of 1/2 of magnitude at most
# m(1 + B) / 2 = 4095 * 4097 / 2 < 2^23, which float32 holds exactly.
_LANE_SPAN = 4095


class _Workspace:
    """One thread's scratch buffer: every large float temporary of a layer
    is a view carved from it inside a frame, and a frame returns what was
    carved inside it on exit, so the carving is a stack. The buffer never
    shrinks. A carve past its end is a fresh array, and the next outermost
    frame regrows the buffer to the largest live set carved so far, so that
    after one call of a shape every later one carves from memory already
    mapped."""

    def __init__(self):
        self._buf = np.empty(0, np.uint8)
        self._top = 0
        self._depth = 0
        self._need = 0  # bytes of the largest live set carved so far

    @contextlib.contextmanager
    def frame(self):
        if self._depth == 0 and self._need > self._buf.size:
            self._buf = None  # free the old buffer before mapping the new one
            self._buf = np.empty(self._need, np.uint8)
        top = self._top
        self._depth += 1
        try:
            yield self
        finally:
            self._depth -= 1
            self._top = top

    def take(self, shape, dtype=np.float32) -> np.ndarray:
        """An uninitialised array of `shape` and `dtype`, valid until the
        innermost open frame exits."""
        if not self._depth:
            raise RuntimeError("workspace carve outside a frame")
        dtype = np.dtype(dtype)
        start = -(-self._top // 64) * 64
        self._top = start + math.prod(shape) * dtype.itemsize
        self._need = max(self._need, self._top)
        if self._top > self._buf.size:
            return np.empty(shape, dtype)
        return self._buf[start : self._top].view(dtype).reshape(shape)


_local = threading.local()


def _workspace() -> _Workspace:
    """The calling thread's workspace, made on first use."""
    if not hasattr(_local, "workspace"):
        _local.workspace = _Workspace()
    return _local.workspace


# Image rows below which a layer is not cut into more blocks. On a 2-core
# x86_64 VM with one BLAS thread, two blocks of 128 images made a crossbar
# call of 256 images 7% slower on mlp-l and 4% on lenet-5 than one block;
# two of 256 made a 512-image call 1.30x and 1.22x faster.
_MIN_BLOCK_ROWS = 256

_pool = None  # (pid, workers, executor) of the row-block workers, made on first use
_pool_lock = threading.Lock()


def _cores() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _blas_threads() -> int:
    """Threads one BLAS call may use, as OpenBLAS (numpy's BLAS) reads them
    from the environment when it loads: OPENBLAS_NUM_THREADS, else
    GOTO_NUM_THREADS, else OMP_NUM_THREADS, else one per usable core."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return _cores()


def _executor(workers: int) -> concurrent.futures.ThreadPoolExecutor:
    """The module's pool of row-block workers, with at least `workers`
    threads: made on first use, and made anew when a call needs more than
    it has. The pool it replaces is dropped, not shut down, as another
    thread may still submit to it; its idle threads end when it is
    collected. A process forked after the pool started holds a copy without
    its threads, so it makes its own."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid() or _pool[1] < workers:
            _pool = (os.getpid(), workers, concurrent.futures.ThreadPoolExecutor(workers, "xbarbnn-rows"))
        return _pool[2]


def _by_rows(block, n: int) -> None:
    """`block(lo, hi)` over the images 0..n in contiguous blocks, one per
    usable core that BLAS leaves free (cores // `_blas_threads`, so blocks
    times BLAS threads stay within the cores) and none below
    `_MIN_BLOCK_ROWS` images. The calling thread runs the first block and
    the pool the others; with one block no thread starts. Every submitted
    block has finished when this returns or raises, so a block may read
    operands carved in the caller's open frame. An error in the caller's
    block wins over the workers', else the first worker's is raised. A
    block must not call `_by_rows`: it would wait on the pool it runs in."""
    count = max(1, min(_cores() // _blas_threads(), n // _MIN_BLOCK_ROWS))
    if count == 1:
        block(0, n)
        return
    cuts = [n * b // count for b in range(count + 1)]
    pool = _executor(count - 1)
    futures = [pool.submit(block, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        block(cuts[0], cuts[1])
    finally:
        concurrent.futures.wait(futures)
    for f in futures:
        f.result()


def _out_rows(layer) -> int:
    """Output rows of a weight layer per image: a conv's, or one."""
    return layer.out_h if isinstance(layer, ConvLayer) else 1


def _rows_per_image(layer) -> int:
    """Rows of a weight layer's products per image: one, or one per window
    of a conv."""
    return layer.out_h * layer.out_w if isinstance(layer, ConvLayer) else 1


def _pooled(layer, pool: int) -> tuple[int, int]:
    """(rows, windows per row) of a weight layer's output after a `pool` x
    `pool` pool, ragged edges dropped: (1, 1) for an FC layer."""
    return (layer.out_h // pool, layer.out_w // pool) if isinstance(layer, ConvLayer) else (1, 1)


def _bands(layer, pool: int, ragged: bool) -> list:
    """The ranges of output rows that a row block of a weight layer runs at
    a time: every row without a pool; with one, the `pool` rows of each
    pooled row. With `ragged`, the last band also takes the rows past the
    last pooled one, which the pool drops."""
    rows = _out_rows(layer)
    if pool == 1:
        return [range(rows)]
    cuts = list(range(0, rows // pool * pool + 1, pool))
    if ragged and cuts[-1] < rows:
        cuts[-1:] = [rows] if len(cuts) > 1 else [0, rows]
    return [range(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]


def _pool_band(out: np.ndarray, band: np.ndarray, pool: int, width: int) -> None:
    """`out` (images, width) = the OR of the bits (their max) over the first
    `pool` rows of `band` (images, rows, windows x outputs) and the `pool`
    column phases that lead each row, `width` columns each (`_toeplitz`'s
    window order), for a `pool` of 2 or more, with no temporary."""
    parts = [band[:, i, j * width : (j + 1) * width] for i in range(pool) for j in range(pool)]
    np.maximum(parts[0], parts[1], out=out)
    for part in parts[2:]:
        np.maximum(out, part, out=out)


def _toeplitz(layer: ConvLayer, w: np.ndarray, out: np.ndarray, pool: int = 1) -> np.ndarray:
    """(O, C*k*k) kernel rows, (c, i, j) order -> `out`, the (ow * O,
    k * W * C) block-Toeplitz rows of a conv: row (a, o) holds kernel o at
    the input columns of the window q at position a (q .. q + k - 1) of the
    k input rows that an output row reads, with exact zeros elsewhere.
    The windows are in column-phase order for a following `pool` x `pool`
    pool (window order for 1): of the first P = (ow // pool) * pool
    windows, window q sits at position (q mod pool) * (ow // pool) +
    q div pool, so each phase's windows are one contiguous block, and the
    ragged windows past P keep their order after them."""
    k, c, o = layer.kernel, layer.in_channels, len(w)
    per_phase = layer.out_w // pool
    order = [g * pool + j for j in range(pool) for g in range(per_phase)]
    t = out.reshape(layer.out_w, o, k, layer.input_w, c)
    t[...] = 0
    kernels = w.reshape(o, c, k, k).transpose(0, 2, 3, 1)  # (o, i, j, c)
    for a, q in enumerate(order + list(range(len(order), layer.out_w))):
        t[a, :, :, q : q + k] = kernels
    return out


def _operands(w, spans, layer, dtype, pack=None, pool=1) -> list:
    """The (N, K) GEMM operand rows of each fan-in span (lo, hi) of `spans`
    for the weight rows `w` (O, fan-in) of a weight layer: the span's
    columns of `w` for an FC layer (N = O, K the span); for a conv (`layer`
    a ConvLayer), the block-Toeplitz rows of the span's kernel columns, zero
    elsewhere (N = (window, O), K = k * W * C), windows in `_toeplitz`'s
    order for a following `pool`. `pack(rows, lo, hi)` may replace a
    span's rows by others carved from the workspace. None of them depends
    on the input rows, so the caller carves them once in its open frame and
    every row block reads them."""
    if not isinstance(layer, ConvLayer):
        return [w[:, lo:hi] if pack is None else pack(w[:, lo:hi], lo, hi) for lo, hi in spans]
    ws = _workspace()
    part = ws.take(w.shape, dtype)
    shape = (layer.out_w * len(w), layer.kernel * layer.input_w * layer.in_channels)
    scratch = None if pack is None else ws.take(shape, dtype)  # packed away before the next span
    out = []
    for lo, hi in spans:
        part[...] = 0
        part[:, lo:hi] = w[:, lo:hi]
        rows = _toeplitz(layer, part, ws.take(shape, dtype) if scratch is None else scratch, pool)
        out.append(rows if pack is None else pack(rows, lo, hi))
    return out


def _gemms(x, operands, blocks, layer, shift, dtype, rows):
    """Generator of the `dtype` GEMMs of the activations `x` entering a
    weight layer, cast to x - `shift`, against the (N, K) operand rows
    (`_operands`) of each fan-in span of `blocks` (lists of spans, as
    `_blocks` gives them): for each list, each output row of the range
    `rows` and each span of the list, in that order, one (images, N)
    workspace view that the next overwrites.

    An FC layer flattens `x` per image, in the (c, h, w) order of its weight
    columns, and has one output row; each span casts its own columns. A conv
    (`layer` a ConvLayer, `x` NHWC) casts only the k input rows an output row
    reads, whole, as every span's block-Toeplitz rows cover all their
    columns, so N holds every (window, output) of that row. The zeros add
    exact zeros, so every partial sum of a span is a sum of at most its
    length of nonzero products, as in the FC product."""
    ws = _workspace()
    conv = isinstance(layer, ConvLayer)
    if conv:
        k = layer.kernel
        rows = [x[:, r : r + k].reshape(len(x), -1) for r in rows]
        width = k * math.prod(x.shape[2:])
    else:
        if x.ndim == 4:  # NHWC conv activations
            x = x.transpose(0, 3, 1, 2)
        rows = [x.reshape(len(x), -1)]
        width = max(hi - lo for spans in blocks for lo, hi in spans)
    xf_flat = ws.take((len(x) * width,), dtype)
    out = ws.take((len(x), len(operands[0])), dtype)
    operands = iter(operands)
    for spans in blocks:
        group = [(slice(None) if conv else slice(lo, hi), next(operands)) for lo, hi in spans]
        for row in rows:
            for columns, operand in group:
                part = row[:, columns]
                xf = xf_flat[: part.size].reshape(part.shape)
                np.copyto(xf, part)  # then shift in place: faster than a casting subtract
                xf -= shift
                np.matmul(xf, operand.T, out=out)
                yield out


def _blocks(lengths, width: int) -> list:
    """The (lo, hi) fan-in spans of each segment of `lengths` (which
    partition the fan-in in order), cut into spans of at most `width`."""
    bounds = np.cumsum((0,) + tuple(lengths))
    out = []
    for lo, n in zip(bounds[:-1], lengths):
        cuts = np.cumsum((lo,) + segment_lengths(n, width))
        out.append(list(zip(cuts[:-1].tolist(), cuts[1:].tolist())))
    return out


def _lanes(w_bits: np.ndarray, lengths: tuple[int, ...], layer=None, pool=1) -> list:
    """The packed +-1 GEMM operands of a binarized layer's weight bit rows
    `w_bits` (O, fan-in), one per fan-in span of the segments `lengths` cut
    at `_LANE_SPAN` (see `_segment_counts`), carved from the workspace in
    the caller's open frame, a conv's windows in `_toeplitz`'s order for a
    following `pool`. Of a span's N operand rows (`_operands`), row j
    and row H + j (H = ceil(N/2)) share lane j as (2b_j - 1) + B (2b_{H+j} - 1),
    B the smallest power of two above the span length; an odd N leaves row
    H - 1 alone in its lane."""
    ws = _workspace()
    conv = isinstance(layer, ConvLayer)
    if conv:  # +-1 kernels, so that the Toeplitz zeros stay zeros
        w = ws.take(w_bits.shape)
        np.multiply(w_bits, 2, out=w, dtype=np.float32)
        w -= 1
    else:
        w = w_bits

    def pack(rows, lo, hi):
        h, p = (len(rows) + 1) // 2, len(rows) // 2  # lanes; lanes that hold two rows
        base = 1 << (hi - lo).bit_length()
        lanes = ws.take((h, rows.shape[1]))
        np.multiply(rows[h:], base, out=lanes[:p], dtype=np.float32)
        np.add(lanes[:p], rows[:p], out=lanes[:p], dtype=np.float32)
        lanes[p:] = rows[p:h]
        if not conv:  # bits b -> 2b - 1
            lanes *= 2
            lanes[:p] -= 1 + base
            lanes[p:] -= 1
        return lanes

    spans = [span for spans in _blocks(lengths, _LANE_SPAN) for span in spans]
    return _operands(w, spans, layer, np.float32, pack, pool)


def _segment_counts(x: np.ndarray, w_bits: np.ndarray, lengths: tuple[int, ...], layer=None, lanes=None, rows=None):
    """Generator of the XNOR popcounts of the bits `x` entering a weight
    layer against its weight bit rows `w_bits` (O, fan-in), one (input
    rows, O) array per fan-in segment of `lengths`, in order, in the
    narrowest unsigned dtype that holds the longest segment: of a conv,
    only the output rows of the range `rows` (every row when None), each
    row's windows in the order of `lanes`. Each is a workspace view that
    the next segment overwrites: read it before drawing the next. The
    caller holds the workspace frame. `lanes` are the layer's packed
    operands for `lengths` (`_lanes`), which row blocks share; made here
    when None. Each output row's GEMMs (`_gemms`) are decoded into that row
    of the counts.

    The GEMM of a span of length m against the lanes, with the activations
    cast to b - 1/2, gives r = (d_j + B d_{H+j}) / 2 for the signed dots d,
    and q = r + m(1 + B)/2 = c_j + B c_{H+j} for the popcounts
    c = (m + d)/2 < B. Every partial sum is a multiple of 1/2 of magnitude
    at most m(1 + B)/2 < 2^23 for m <= 4095, so the GEMM is exact in any
    summation order; a longer segment is summed from spans of at most 4095.
    q / B = c_{H+j} + c_j / B is exact too (B is a power of two), so its
    integer part, which the cast to the unsigned dtype keeps, is c_{H+j},
    and B times the rest is c_j. The counts are exact while the fan-in is
    below 2^24."""
    ws = _workspace()
    blocks = _blocks(lengths, _LANE_SPAN)
    if lanes is None:
        lanes = _lanes(w_bits, lengths, layer)
    n = len(w_bits) * (layer.out_w if isinstance(layer, ConvLayer) else 1)  # operand rows
    h, p = (n + 1) // 2, n // 2
    dtype = np.min_scalar_type(max(lengths))
    rows = range(_out_rows(layer)) if rows is None else rows
    counts = ws.take((len(x), len(rows), n), dtype)
    extra = ws.take((len(x), n), dtype) if max(map(len, blocks)) > 1 else None
    gemms = _gemms(x, lanes, blocks, layer, 0.5, np.float32, rows)
    for spans in blocks:
        for r in range(counts.shape[1]):
            for i, (lo, hi) in enumerate(spans):
                q = next(gemms)
                base = 1 << (hi - lo).bit_length()
                q[:, :p] += (hi - lo) * (1 + base) / 2
                q[:, p:] += (hi - lo) / 2
                dst = extra if i else counts[:, r]
                pair, high = q[:, :p], dst[:, h:]
                pair *= 1 / base
                np.copyto(high, pair, casting="unsafe")  # truncates: c_{H+j}
                pair -= high
                pair *= base
                np.copyto(dst[:, :p], pair, casting="unsafe")
                np.copyto(dst[:, p:h], q[:, p:], casting="unsafe")
                if i:
                    counts[:, r] += extra
        yield counts.reshape(-1, len(w_bits))


def _signed_matmul(x: np.ndarray, w_bits: np.ndarray, layer=None) -> np.ndarray:
    """Exact signed dot products of bit matrices (bits b as 2b - 1), int64:
    2c - n from the popcounts c of `_segment_counts` over the whole fan-in n."""
    n = w_bits.shape[1]
    with _workspace().frame():
        (counts,) = _segment_counts(x, w_bits, (n,), layer)
        return 2 * counts.astype(np.int64) - n


def _pixel_operands(w: np.ndarray, layer=None, pool=1) -> tuple:
    """(spans, operand rows per span, threshold) of the non-binarized layer
    with int8 weight rows `w`, its weights cast to float32 once into the
    workspace in the caller's open frame (see `_pixel_dots`), a conv's
    windows in `_toeplitz`'s order for a following `pool`. The weight rows
    sum exactly in int32, as |sum w| <= 128 * fan-in < 2^31 below the 2^24
    fan-in that the engine assumes; the threshold is int64."""
    threshold = -128 * w.sum(axis=1, dtype=np.int32).astype(np.int64)
    spans = _blocks((w.shape[1],), max(1, _FLOAT32_EXACT // (128 * 128)))[0]
    weights = _workspace().take(w.shape)
    np.copyto(weights, w)
    if isinstance(layer, ConvLayer):  # one threshold per (window, output) column
        threshold = np.tile(threshold, layer.out_w)
    if len(spans) == 1:
        threshold = threshold.astype(np.float32)
    return spans, _operands(weights, spans, layer, np.float32, None, pool), threshold


def _pixel_dots(x: np.ndarray, layer, operands, rows=None):
    """Generator of the centred products of the uint8 pixels `x` entering
    the non-binarized layer with its weight rows, one (images, N) workspace
    view per output row of the range `rows` (every row when None) that the
    next overwrites, N every (window, output) of a conv's row: dot product
    = dots - threshold, with the spans, rows and per-column threshold of
    `operands` (`_pixel_operands`), which row blocks share. The layer fires
    where dots >= threshold.

    The pixels are centred: dots = sum (x - 128) w and threshold =
    -128 sum w. Each product is then at most 128 * 128 = 2^14 in magnitude,
    so over a block of 1024 fan-in columns every partial sum is an integer
    of magnitude at most 2^24, which float32 adds without rounding in any
    summation order: a fan-in of at most 1024 (every named network's) is
    one exact float32 GEMM, whose output is the dots; wider ones add their
    blocks in float64, exact below 2^53.
    """
    spans, operand_rows, _ = operands
    rows = range(_out_rows(layer)) if rows is None else rows
    gemms = _gemms(x, operand_rows, [spans], layer, 128.0, np.float32, rows)
    if len(spans) == 1:
        yield from gemms
        return
    dots = _workspace().take((len(x), len(operand_rows[0])), np.float64)
    for _ in rows:
        dots[...] = next(gemms)
        for _ in spans[1:]:
            dots += next(gemms)
        yield dots


def _pixel_bits(x: np.ndarray, w: np.ndarray, layer=None, pool=1) -> np.ndarray:
    """Activation bits of the non-binarized layer, uint8 (input rows, O):
    1 where the exact dot product is at least 0, OR-pooled over `pool` x
    `pool` windows of a conv's outputs when a pool follows it, ragged edges
    dropped: one row per (image, pooled cell). The weight operands are made
    once; each row block (`_by_rows`) runs the output rows that the pool
    keeps and compares each row's dots into that row of its images' bits,
    or with a pool the row's column phases into a band of `pool` rows,
    which `_pool_band` ORs into the pooled row."""
    rows, per_row = _pooled(layer, pool)
    width = per_row * len(w)  # columns of a pooled row: (window, output)
    bits = np.empty((len(x) * rows * per_row, len(w)), np.uint8)
    by_row = bits.view(np.bool_).reshape(len(x), rows, width)

    def block(lo, hi):
        with _workspace().frame() as ws:
            threshold = operands[2][: pool * width]
            band = ws.take((hi - lo, pool, pool * width), np.bool_) if pool > 1 else None
            for r, dots in enumerate(_pixel_dots(x[lo:hi], layer, operands, range(rows * pool))):
                out = by_row[lo:hi, r] if pool == 1 else band[:, r % pool]
                np.greater_equal(dots[:, : pool * width], threshold, out=out)
                if pool > 1 and r % pool == pool - 1:
                    _pool_band(by_row[lo:hi, r // pool], band, pool, width)

    with _workspace().frame():
        operands = _pixel_operands(w, layer, pool)
        _by_rows(block, len(x))
    return bits


def _fc_bits_golden(counts: np.ndarray, fan_in: int, out=None) -> np.ndarray:
    """Exact sign activation of a binary layer from its XNOR popcounts over
    the whole fan-in, of any dtype holding integers: 1 where they are a
    majority, above fan_in // 2, so a tie (signed dot 0) reads 0, as the SA
    does. Written into the uint8 `out` when given."""
    out = None if out is None else out.view(np.bool_)
    return np.greater(counts, fan_in // 2, out=out).view(np.uint8)


def _fc_bits_crossbar(counts, lengths: tuple[int, ...], backend: CrossbarBackend, out=None) -> np.ndarray:
    """Activation bits of a binary layer through the crossbar model, in the
    shape of its counts, from the XNOR popcounts of each segment of its
    fan-in split `lengths` on the backend's arrays (an iterable, drawn in
    order; see `_segment_counts`). One segment is sensed against its main
    reference; several pass through `cascade.decide_counts`, whose
    accumulators are carved from the workspace. Written into the uint8
    `out` when given."""
    out = None if out is None else out.view(np.bool_)
    with _workspace().frame() as ws:
        if len(lengths) == 1:
            bits = np.greater(next(iter(counts)), backend.refs.for_segment(lengths[0]).main, out=out)
        else:
            bits = _cascade.decide_counts(backend.policy_kind, counts, lengths, backend.refs, ws.take, out)
    return bits.view(np.uint8)


def _pool_or(x: np.ndarray, size: int) -> np.ndarray:
    """Max over non-overlapping size x size windows of NHWC (B, H, W, C),
    ragged edges dropped: the max of pixels, the OR of bits. It serves only
    a pool on the input images; every other pool runs inside the weight
    layer before it (`_steps`)."""
    b, h, w, c = x.shape
    oh, ow = h // size, w // size
    return x[:, : oh * size, : ow * size].reshape(b, oh, size, ow, size, c).max(axis=(2, 4))


def _activation(layer, bits: np.ndarray, batch: int, pool: int = 1) -> np.ndarray:
    """Activation tensor of a weight layer from its (input rows, outputs)
    bits: NHWC (B, oh, ow, O) for a conv, a plain reshape of its
    (image, window) rows, of its pooled cells with a `pool` after it."""
    if isinstance(layer, ConvLayer):
        bits = bits.reshape(batch, *_pooled(layer, pool), layer.out_channels)
    return np.ascontiguousarray(bits, dtype=np.uint8)


def _each(f, golden, crossbar):
    """`f` of both chains' tensors: once while they are the same object, and
    not of an absent (None) crossbar chain."""
    if crossbar is golden:
        out = f(golden)
        return out, out
    return f(golden), None if crossbar is None else f(crossbar)


def _binarized(layer, w, golden, crossbar, backend, pool=1):
    """Both chains' activations of a binarized layer that is not the last,
    OR-pooled over `pool` x `pool` windows of a conv's outputs when a pool
    follows it (ragged edges dropped), and the count of its unpooled
    activation bits in which the chains differ.

    On a shared input that the backend senses exactly
    (`CrossbarBackend.reads_majority`), the golden bits serve both chains.
    Otherwise the layer's lanes (`_lanes`) over the crossbar split, or over
    the whole fan-in for the golden backend, are packed once for both chains
    and every row block. A row block runs its output rows in bands
    (`_bands`): all of them, or with a pool the rows of one pooled row, and
    the ragged rows too while a crossbar chain counts its mismatch. Each
    distinct input's per-segment popcounts of a band are computed once:
    their sum over the segments gives the golden bits, and the crossbar
    chain senses them. While the chains share their input, that is one pass
    for both; otherwise the golden chain's pass ends before the crossbar
    chain's starts, so the workspace holds one chain's counts at a time.
    Without a pool, each chain writes its bits into its output; with one,
    into a band scratch whose bits `_pool_band` ORs into the pooled row."""
    shared = crossbar is golden and backend.reads_majority(layer.fan_in)
    if shared:
        crossbar = None
    n, o = layer.fan_in, len(w)
    lengths = segment_lengths(n, backend.config.rows) if crossbar is not None else (n,)
    rows, per_row = _pooled(layer, pool)
    golden_bits = np.empty((len(golden), rows, per_row * o), np.uint8)
    crossbar_bits = None if crossbar is None else np.empty_like(golden_bits)
    bands = _bands(layer, pool, crossbar is not None)
    windows = _rows_per_image(layer) // _out_rows(layer)  # per output row
    wrong = []  # per row block

    def sense(counts, out):  # the crossbar chain's bits, into `out`
        out = out.reshape(-1, o)
        np.copyto(out, _fc_bits_crossbar(counts, lengths, backend, out))  # a no-op when written in place

    def golden_pass(x, band, sensed):
        """The golden count sums of the band (images, rows, windows x O), and
        the crossbar chain's bits of the same counts into `sensed`."""
        ws = _workspace()
        # the golden count sums, in the narrowest unsigned type that holds n
        total = ws.take((len(x) * len(band) * windows, o), np.min_scalar_type(n)) if len(lengths) > 1 else None

        def summed(counts):  # each segment's counts, added into the golden total as they pass
            nonlocal total
            for i, c in enumerate(counts):
                if total is None:  # one segment: its counts are the total
                    total = c
                elif i:
                    np.add(total, c, out=total)
                else:
                    np.copyto(total, c)
                yield c

        counts = summed(_segment_counts(x, w, lengths, layer, lanes, band))
        if sensed is None:
            for _ in counts:
                pass
        else:
            sense(counts, sensed)
        return total.reshape(len(x), len(band), -1)

    def block(lo, hi):
        golden_out = golden_bits[lo:hi]
        crossbar_out = None if crossbar is None else crossbar_bits[lo:hi]
        differ = 0
        with _workspace().frame() as ws:
            for i, band in enumerate(bands):
                with ws.frame():
                    g, c = golden_out, crossbar_out  # without a pool, the band is every row of the output
                    if pool > 1:  # the band's unpooled bits
                        shape = (hi - lo, len(band), windows * o)
                        g, c = (None if out is None else ws.take(shape, np.uint8) for out in (g, c))
                    with ws.frame():
                        total = golden_pass(golden[lo:hi], band, c if crossbar is golden else None)
                        np.copyto(g, _fc_bits_golden(total, n, g))
                    if crossbar is not None and crossbar is not golden:
                        with ws.frame():
                            sense(_segment_counts(crossbar[lo:hi], w, lengths, layer, lanes, band), c)
                    if pool > 1 and i < rows:
                        _pool_band(golden_out[:, i], g, pool, per_row * o)
                        if c is not None:
                            _pool_band(crossbar_out[:, i], c, pool, per_row * o)
                    if c is not None:
                        differ += int(np.count_nonzero(np.not_equal(g, c, out=ws.take(g.shape, np.bool_))))
        wrong.append(differ)

    with _workspace().frame():
        lanes = _lanes(w, lengths, layer, pool)
        _by_rows(block, len(golden))
    golden_act = _activation(layer, golden_bits.reshape(-1, o), len(golden), pool)
    if shared:
        return golden_act, golden_act, 0
    crossbar_act = None if crossbar is None else _activation(layer, crossbar_bits.reshape(-1, o), len(golden), pool)
    return golden_act, crossbar_act, sum(wrong)


def _steps(layers) -> list:
    """(layer, pool) for each weight layer of `layers`, `pool` the product of
    the sizes of the pools that follow it (1 for none), which run inside
    it; pools on the input, which follow no weight layer, are one step
    (None, pool) of their own. A pool after an FC layer raises ValueError."""
    steps = []
    for layer in layers:
        if not isinstance(layer, PoolLayer):
            steps.append((layer, 1))
        elif not steps:
            steps.append((None, layer.size))
        elif isinstance(steps[-1][0], FCLayer):
            raise ValueError(f"a pool after an FC layer: {layer}")
        else:
            steps[-1] = (steps[-1][0], steps[-1][1] * layer.size)
    return steps


# Images per pass through the chains: bounds peak memory for any dataset size.
_CHUNK = 1024


def run_inference(
    net: NetworkSpec,
    weights: WeightContainer,
    images: np.ndarray,
    labels: np.ndarray,
    backend: CrossbarBackend | str = "golden",
) -> InferenceReport:
    """Classify a batch and report accuracy plus, for the crossbar backend,
    the per-layer fraction of activation bits that differ from the exact
    software chain.

    One pass over `net.layers` carries both chains' tensors in lockstep.
    While the chains agree the crossbar tensor is the golden one (the same
    object), and each layer runs once for both: a pool on the input, the
    non-binarized first layer, every binarized layer whose crossbar readout
    is its exact sign (`CrossbarBackend.reads_majority`), and the final
    scores. The next binarized layer's per-segment popcounts are computed
    once too; the crossbar chain senses them, their sum gives the golden
    bits, and the chains diverge there. Every other pool runs inside the
    weight layer before it, which ORs the bits of the pool's windows
    (`_steps`). A layer's mismatch counts its unpooled bits: a binarized
    layer counts them in its row blocks, and a layer whose two outputs are
    the same object counts 0 without a compare (the pixel layer, first of
    the weight layers, always does); the golden backend carries no
    crossbar tensor. The net must end in an FC layer (a conv scores each
    window, not each image). Images pass in chunks of `_CHUNK`; integer
    counts are summed over chunks and divided once, so the report does not
    depend on the chunk size. `images` are uint8, (N, H, W) single-channel
    or NHWC (N, H, W, C), at the net's input size: any other dtype or shape
    raises ValueError."""
    weights.validate(net)
    layers = net.weight_layers
    if not isinstance(layers[-1], FCLayer):
        raise ValueError(f"the net must end in an FC layer, not a {type(layers[-1]).__name__}")
    if len(images) != len(labels) or not len(labels):
        raise ValueError(f"{len(images)} images vs {len(labels)} labels: need one label per image, and an image")
    if images.ndim == 3:
        images = images[..., None]
    if images.shape[1:] != (net.input_h, net.input_w, net.input_channels):
        got = "x".join(map(str, images.shape[1:]))
        raise ValueError(f"images are {got} (HxWxC); the net takes {net.input_h}x{net.input_w}x{net.input_channels}")
    if images.dtype != np.uint8:
        raise ValueError(f"images are {images.dtype}; the pixel layer takes uint8")
    acts = len(layers) - layers[-1].binarized  # weight layers that threshold: all but raw scores
    golden_correct = correct = 0
    mismatched, total = [0] * acts, [0] * acts
    for lo in range(0, len(labels), _CHUNK):
        golden = images[lo : lo + _CHUNK]
        crossbar = None if backend == "golden" else golden
        i = 0  # weight layer index
        for layer, pool in _steps(net.layers):
            if layer is None:
                golden, crossbar = _each(lambda x: _pool_or(x, pool), golden, crossbar)
                continue
            w = weights.arrays[i].reshape(layer.weight_shape[0], -1)
            wrong = 0
            if not layer.binarized:
                golden, crossbar = _each(
                    lambda x: _activation(layer, _pixel_bits(x, w, layer, pool), len(x), pool), golden, crossbar
                )
            elif i < acts:
                golden, crossbar, wrong = _binarized(layer, w, golden, crossbar, backend, pool)
            else:  # raw class scores, no thresholding
                golden, crossbar = _each(lambda x: _signed_matmul(x, w, layer), golden, crossbar)
            if i < acts and crossbar is not None:
                mismatched[i] += wrong
                total[i] += len(golden) * _rows_per_image(layer) * len(w)
            i += 1
        chunk_labels = labels[lo : lo + _CHUNK]
        g, c = _each(lambda scores: int((scores.argmax(axis=1) == chunk_labels).sum()), golden, crossbar)
        golden_correct += g
        correct += c or 0
    n = len(labels)
    if backend == "golden":
        return InferenceReport("golden", n, golden_correct / n, golden_correct / n, ())
    layer_mismatch = tuple(
        (f"{i}:{type(layers[i]).__name__}", m / t) for i, (m, t) in enumerate(zip(mismatched, total))
    )
    kind = f"crossbar/{backend.policy_kind}"
    return InferenceReport(kind, n, correct / n, golden_correct / n, layer_mismatch)
