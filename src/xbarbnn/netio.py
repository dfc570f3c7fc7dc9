"""Network topology descriptions, weight/dataset containers, and the
end-to-end inference runner that compares the crossbar execution against the
exact software model. The runner moves both chains through the layers in
lockstep and shares work by tensor identity: while the crossbar tensor is the
golden one (the same object), a layer runs once for both. The first
binarized layer's per-segment popcounts are also computed once; the chains
diverge at its decisions.

Conv activations are NHWC (batch, height, width, channels) from the images
to the first FC layer, which flattens them in the (c, h, w) order of its
weight columns. A conv layer is one GEMM per output row and fan-in span, and
no window is copied: the k input rows an output row reads (a strided view
of the cast activations) times block-Toeplitz weight rows (each window's
kernel in its column block, exact zeros elsewhere).

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

Every large float temporary of a pixel or binarized layer (the cast
activations and weights, the GEMM outputs, the golden count sums and the
cascade accumulators) is a view into one workspace per thread
(`_Workspace`), carved with stack discipline: a layer's frame returns its
carve on exit, so nothing in it outlives the layer, and activations and the
bits of `_fc_bits_*` are ordinary arrays. The buffer is mapped on first use,
grows only when a larger live set arrives and is reused across segments,
layers, chunks and calls for the thread's lifetime; its size is the largest
layer's live set, which `_CHUNK` bounds for any dataset size. Threads never
share one, so concurrent calls are independent.

Topology grammar ("-" separated tokens):
    "5x5,6"     conv, 5x5 kernel, 6 output channels
    "2x2 Pool"  max pool (binary max = OR over the window)
    "FC(120)"   fully connected layer with 120 outputs
A leading FC token declares the input width instead of a weight layer (the
MLP rows list the 784-pixel input that way); everywhere else FC(n) is a
weight layer whose fan-in is inferred from the previous layer.
"""

from __future__ import annotations

import contextlib
import functools
import math
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
            layers.append(PoolLayer(s1, h, w))
            h, w = layers[-1].out_h, layers[-1].out_w
        elif m := _FC_RE.match(tok):
            n = int(m.group(1))
            if n < 1:
                raise TopologyError(f"token {pos} {tok!r}: FC needs a positive width")
            if pos == 0:
                flat = n  # input-width declaration, not a weight layer
                continue
            if flat is None:
                flat = ch * h * w
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


@dataclass(frozen=True)
class DatasetSource:
    images_path: str
    labels_path: str

    def load(self) -> tuple[np.ndarray, np.ndarray]:
        images = load_idx_images(self.images_path)
        labels = load_idx_labels(self.labels_path)
        if images.shape[0] != labels.shape[0]:
            raise IdxFormatError(
                f"{images.shape[0]} images vs {labels.shape[0]} labels: files do not pair"
            )
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


def _input_rows(x: np.ndarray, layer) -> int:
    """Rows of a weight layer's products: one per image, or per (image,
    window) of a conv."""
    return len(x) * (layer.out_h * layer.out_w if isinstance(layer, ConvLayer) else 1)


def _toeplitz(layer: ConvLayer, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(O, C*k*k) kernel rows, (c, i, j) order -> `out`, the (ow * O,
    k * W * C) block-Toeplitz rows of a conv: row (q, o) holds kernel o at
    the input columns of window q (q*s .. q*s + k - 1) of the k input rows
    that an output row reads, with exact zeros elsewhere."""
    k, s, c, o = layer.kernel, layer.stride, layer.in_channels, len(w)
    t = out.reshape(layer.out_w, o, k, layer.input_w, c)
    t[...] = 0
    kernels = w.reshape(o, c, k, k).transpose(0, 2, 3, 1)  # (o, i, j, c)
    for q in range(layer.out_w):
        t[q, :, :, q * s : q * s + k] = kernels
    return out


def _gemms(x, w, spans, layer, shift, dtype, pack=None):
    """Generator of one `dtype` GEMM per fan-in span (lo, hi) of `spans`:
    the activations `x` entering a weight layer, cast to x - `shift`, times
    its weight rows `w` (O, fan-in) restricted to the span. Each is an
    (M, N) workspace view that the next span overwrites. `pack(rows, lo,
    hi)` may replace the span's (N, K) operand rows by other rows before
    the GEMM.

    An FC layer flattens `x` per image, in the (c, h, w) order of its weight
    columns, and casts one span at a time: M is the images, N = O, K the
    span. A conv (`layer` a ConvLayer, `x` NHWC) casts `x` once and, for
    each output row, multiplies the k input rows that row reads (a strided
    view, nothing copied) by the block-Toeplitz rows of the span's kernel
    columns, zero elsewhere: M is (image, output row), N = (window, O),
    K = k * W * C, so an (M, N) array is the (image, window) rows of the
    layer, row-major per image. The zeros add exact zeros, so every partial
    sum of a span is a sum of at most its length of nonzero products, as in
    the FC product."""
    ws = _workspace()
    conv = isinstance(layer, ConvLayer)
    if conv:
        xf = ws.take(x.shape, dtype)
        np.subtract(x, shift, out=xf, dtype=dtype)
        k, s, oh = layer.kernel, layer.stride, layer.out_h
        part = ws.take(w.shape, dtype)
        toeplitz = ws.take((layer.out_w * len(w), k * layer.input_w * layer.in_channels), dtype)
    else:
        if x.ndim == 4:  # NHWC conv activations
            x = x.transpose(0, 3, 1, 2)
        x = x.reshape(len(x), -1)
        xf_flat = ws.take((len(x) * max(hi - lo for lo, hi in spans),), dtype)
    out = None
    for lo, hi in spans:
        if conv:
            part[...] = 0
            part[:, lo:hi] = w[:, lo:hi]
            operand = _toeplitz(layer, part, toeplitz)
        else:
            operand = w[:, lo:hi]
        if pack is not None:
            operand = pack(operand, lo, hi)
        if out is None:
            out = ws.take((len(x) * (oh if conv else 1), len(operand)), dtype)
        if conv:
            by_row = out.reshape(len(x), oh, -1)
            for r in range(oh):
                np.matmul(xf[:, r * s : r * s + k].reshape(len(x), -1), operand.T, out=by_row[:, r])
        else:
            xf = xf_flat[: len(x) * (hi - lo)].reshape(len(x), hi - lo)
            np.subtract(x[:, lo:hi], shift, out=xf, dtype=dtype)
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


def _segment_counts(x: np.ndarray, w_bits: np.ndarray, lengths: tuple[int, ...], layer=None):
    """Generator of the XNOR popcounts of the bits `x` entering a weight
    layer against its weight bit rows `w_bits` (O, fan-in), one float32
    (input rows, O) array per fan-in segment of `lengths`, in order. Each is
    a workspace view that the next segment overwrites: read it before
    drawing the next. The caller holds the workspace frame.

    Two GEMM operand rows share one float32 lane: of N rows (`_gemms`),
    row j and row H + j (H = ceil(N/2)) pack as (2b_j - 1) + B (2b_{H+j} - 1),
    with B the smallest power of two above the span length m, and the
    activations cast to b - 1/2. The GEMM then gives r = (d_j + B d_{H+j}) / 2
    for the signed dots d, and q = r + m(1 + B)/2 = c_j + B c_{H+j} for the
    popcounts c = (m + d)/2 < B: c_{H+j} = floor(q / B), c_j = q - B c_{H+j}.
    Every partial sum is a multiple of 1/2 of magnitude at most
    m(1 + B)/2 < 2^23 for m <= 4095, so the GEMM is exact in any summation
    order; a longer segment is summed from spans of at most 4095. An odd
    row count leaves row H - 1 alone in its lane. The counts are exact
    while the fan-in is below 2^24."""
    ws = _workspace()
    conv = isinstance(layer, ConvLayer)
    blocks = _blocks(lengths, _LANE_SPAN)
    if conv:  # +-1 kernels, so that the Toeplitz zeros stay zeros
        w = ws.take(w_bits.shape)
        np.multiply(w_bits, 2, out=w, dtype=np.float32)
        w -= 1
        n, width = len(w_bits) * layer.out_w, layer.kernel * layer.input_w * layer.in_channels
    else:
        w, n, width = w_bits, len(w_bits), max(hi - lo for spans in blocks for lo, hi in spans)
    h, p = (n + 1) // 2, n // 2  # lanes; lanes that hold two rows
    packed, offset = ws.take((h * width,)), ws.take((h,))
    counts = ws.take((_input_rows(x, layer) * len(w_bits) // n, n))
    extra = ws.take(counts.shape) if max(map(len, blocks)) > 1 else None

    def pack(rows, lo, hi):
        base = 1 << (hi - lo).bit_length()
        lanes = packed[: h * rows.shape[1]].reshape(h, -1)
        np.multiply(rows[h:], base, out=lanes[:p], dtype=np.float32)
        np.add(lanes[:p], rows[:p], out=lanes[:p], dtype=np.float32)
        lanes[p:] = rows[p:h]
        if not conv:  # bits b -> 2b - 1
            lanes *= 2
            lanes[:p] -= 1 + base
            lanes[p:] -= 1
        offset[:p] = (hi - lo) * (1 + base) / 2
        offset[p:] = (hi - lo) / 2
        return lanes

    gemms = _gemms(x, w, [span for spans in blocks for span in spans], layer, 0.5, np.float32, pack)
    for spans in blocks:
        for i, (lo, hi) in enumerate(spans):
            q = next(gemms)
            q += offset
            dst = counts if i == 0 else extra
            base = 1 << (hi - lo).bit_length()
            high, low = dst[:, h:], dst[:, :p]
            np.multiply(q[:, :p], 1 / base, out=high)
            np.floor(high, out=high)
            np.multiply(high, -base, out=low)
            low += q[:, :p]
            dst[:, p:h] = q[:, p:]
            if i:
                counts += extra
        yield counts.reshape(-1, len(w_bits))


def _segment_dots(x: np.ndarray, w_bits: np.ndarray, lengths: tuple[int, ...], layer=None) -> list[np.ndarray]:
    """Exact signed dot products of the bits `x` entering a weight layer
    with its weight rows `w_bits` (bits b as 2b - 1), one float32 (input
    rows, O) array per fan-in segment of `lengths`: 2c - m from the
    popcounts c of `_segment_counts`."""
    with _workspace().frame():
        return [2 * c - m for c, m in zip(_segment_counts(x, w_bits, lengths, layer), lengths)]


def _signed_matmul(x: np.ndarray, w_bits: np.ndarray, layer=None) -> np.ndarray:
    """Exact signed dot products of bit matrices (bits b as 2b - 1), int64."""
    (dot,) = _segment_dots(x, w_bits, (w_bits.shape[1],), layer)
    return dot.astype(np.int64)


def _pixel_dots(x: np.ndarray, w: np.ndarray, layer=None) -> tuple[np.ndarray, np.ndarray]:
    """Products of the pixels `x` entering a weight layer with its int8
    weight rows `w`, one row per input row (per image, or per (image,
    window) of a conv on NHWC pixels), as a workspace view `dots` and a
    per-column `threshold` with dot product = dots - threshold; the layer
    fires where dots >= threshold. The dots are the (M, N) GEMM outputs of
    `_gemms`: for a conv, N holds every (window, output) of an output row.

    uint8 pixels are centred: dots = sum (x - 128) w and threshold =
    -128 sum w. Each product is then at most 128 * 128 = 2^14 in magnitude,
    so over a block of 1024 fan-in columns every partial sum is an integer
    of magnitude at most 2^24, which float32 adds without rounding in any
    summation order: a fan-in of at most 1024 (every named network's) is
    one exact float32 GEMM; wider ones add their blocks in float64, exact
    below 2^53. Other image dtypes have no such bound: one float64 GEMM,
    threshold 0.
    """
    ws = _workspace()
    if x.dtype == np.uint8:
        dtype, shift, threshold = np.float32, 128.0, -128 * w.sum(axis=1, dtype=np.int64)
        spans = _blocks((w.shape[1],), max(1, _FLOAT32_EXACT // (128 * 128)))[0]
    else:
        dtype, shift, threshold = np.float64, 0.0, np.zeros(len(w))
        spans = [(0, w.shape[1])]
    weights = ws.take(w.shape, dtype)
    np.copyto(weights, w)
    if isinstance(layer, ConvLayer):  # one threshold per (window, output) column
        threshold = np.tile(threshold, layer.out_w)
    gemms = _gemms(x, weights, spans, layer, shift, dtype)
    first = next(gemms)
    if len(spans) == 1:
        return first, threshold.astype(dtype)
    dots = ws.take(first.shape, np.float64)
    dots[...] = first
    for part in gemms:
        dots += part
    return dots, threshold


def _pixel_bits(x: np.ndarray, w: np.ndarray, layer=None) -> np.ndarray:
    """Activation bits of the non-binarized layer, uint8 (input rows, O):
    1 where the exact dot product is at least 0."""
    with _workspace().frame():
        dots, threshold = _pixel_dots(x, w, layer)
        return np.greater_equal(dots, threshold).view(np.uint8).reshape(-1, len(w))


def _pixel_matmul(x: np.ndarray, w: np.ndarray, layer=None) -> np.ndarray:
    """Exact integer dot products of pixels with int8 weight rows, as an
    ordinary array: float32 while every sum of up to the fan-in products is
    exact in it (a uint8 pixel times an int8 weight is at most 255 * 128 in
    magnitude, so fan-ins up to 514), float64 beyond and for other image
    dtypes."""
    with _workspace().frame():
        dots, threshold = _pixel_dots(x, w, layer)
        exact32 = x.dtype == np.uint8 and 255 * 128 * w.shape[1] <= _FLOAT32_EXACT
        return np.subtract(dots, threshold, dtype=np.float32 if exact32 else np.float64).reshape(-1, len(w))


def _fc_bits_golden(counts: np.ndarray, fan_in: int, tie_high: bool) -> np.ndarray:
    """Exact sign activation of a binary layer from its XNOR popcounts over
    the whole fan-in: 1 where they are a majority (at least half with
    `tie_high`)."""
    return (counts >= fan_in / 2 if tie_high else counts > fan_in / 2).view(np.uint8)


def _fc_bits_crossbar(counts, lengths: tuple[int, ...], backend: CrossbarBackend) -> np.ndarray:
    """Activation bits of a binary layer through the crossbar model, in the
    shape of its counts, from the XNOR popcounts of each segment of its
    fan-in split `lengths` on the backend's arrays (an iterable, drawn in
    order; see `_segment_counts`). One segment is sensed against its main
    reference; several pass through `cascade.decide_counts`, whose
    accumulators are carved from the workspace."""
    with _workspace().frame() as ws:
        if len(lengths) == 1:
            bits = next(iter(counts)) > backend.refs.for_segment(lengths[0]).main
        else:
            bits = _cascade.decide_counts(backend.policy_kind, counts, lengths, backend.refs, ws.take)
    return bits.view(np.uint8)


def _pool_or(x: np.ndarray, size: int) -> np.ndarray:
    """Max over non-overlapping size x size windows of NHWC (B, H, W, C),
    ragged edges dropped: the OR of bits, the max of pixels. Taken over
    strided slices, first the rows, then the columns."""
    h, w = x.shape[1] - x.shape[1] % size, x.shape[2] - x.shape[2] % size
    rows = functools.reduce(np.maximum, [x[:, i:h:size] for i in range(size)])
    return functools.reduce(np.maximum, [rows[:, :, j:w:size] for j in range(size)])


def _activation(layer, bits: np.ndarray, batch: int) -> np.ndarray:
    """Activation tensor of a weight layer from its (input rows, outputs)
    bits: NHWC (B, oh, ow, O) for a conv, a plain reshape of its
    (image, window) rows."""
    if isinstance(layer, ConvLayer):
        bits = bits.reshape(batch, layer.out_h, layer.out_w, layer.out_channels)
    return np.ascontiguousarray(bits, dtype=np.uint8)


def _each(f, golden, crossbar):
    """`f` of both chains' tensors: once while they are the same object, and
    not of an absent (None) crossbar chain."""
    if crossbar is golden:
        out = f(golden)
        return out, out
    return f(golden), None if crossbar is None else f(crossbar)


def _binarized(layer, w, golden, crossbar, backend, tie_high):
    """Both chains' activations of a binarized layer that is not the last.
    While the chains share their input, each segment's popcounts are
    computed once: the crossbar chain senses them, and their sum over the
    segments gives the golden bits. Otherwise the golden chain's popcounts
    over the whole fan-in are computed and thresholded before the crossbar
    chain's segments, so the workspace holds one chain's counts at a time."""
    batch, n = len(golden), layer.fan_in
    lengths = segment_lengths(n, backend.config.rows) if crossbar is not None else (n,)
    with _workspace().frame() as ws:
        if crossbar is golden:
            total = ws.take((_input_rows(golden, layer), len(w)))

            def summed(counts):  # each segment's counts, added into the golden total as they pass
                for i, c in enumerate(counts):
                    if i:
                        np.add(total, c, out=total)
                    else:
                        total[...] = c
                    yield c

            crossbar_bits = _fc_bits_crossbar(summed(_segment_counts(golden, w, lengths, layer)), lengths, backend)
            golden_bits = _fc_bits_golden(total, n, tie_high)
        else:
            golden_bits = _fc_bits_golden(next(_segment_counts(golden, w, (n,), layer)), n, tie_high)
            if crossbar is None:
                return _activation(layer, golden_bits, batch), None
            crossbar_bits = _fc_bits_crossbar(_segment_counts(crossbar, w, lengths, layer), lengths, backend)
    return _activation(layer, golden_bits, batch), _activation(layer, crossbar_bits, batch)


# Images per pass through the chains: bounds peak memory for any dataset size.
_CHUNK = 1024


def run_inference(
    net: NetworkSpec,
    weights: WeightContainer,
    images: np.ndarray,
    labels: np.ndarray,
    backend: CrossbarBackend | str = "golden",
    tie_high: bool = False,
) -> InferenceReport:
    """Classify a batch and report accuracy plus, for the crossbar backend,
    the per-layer fraction of activation bits that differ from the exact
    software chain.

    One pass over `net.layers` carries both chains' tensors in lockstep.
    While the chains agree the crossbar tensor is the golden one (the same
    object), and each layer runs once for both: the non-binarized first
    layer, any pool after it, and the final scores of a net with no other
    binarized layer. The first binarized layer's per-segment popcounts are
    computed once too; the crossbar chain senses them, and their sum gives
    the golden bits. A layer whose two outputs are the same object counts 0
    mismatch without a compare; the golden backend carries no crossbar
    tensor. The net must end in an FC layer (a conv scores each window, not
    each image). Images pass in chunks of `_CHUNK`; integer counts are
    summed over chunks and divided once, so the report does not depend on
    the chunk size. `images` are (N, H, W) single-channel, or NHWC
    (N, H, W, C), at the net's input size: any other shape raises
    ValueError."""
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
    acts = len(layers) - layers[-1].binarized  # weight layers that threshold: all but raw scores
    golden_correct = correct = 0
    mismatched, total = [0] * acts, [0] * acts
    for lo in range(0, len(labels), _CHUNK):
        golden = images[lo : lo + _CHUNK]
        crossbar = None if backend == "golden" else golden
        i = 0  # weight layer index
        for layer in net.layers:
            if isinstance(layer, PoolLayer):
                golden, crossbar = _each(lambda x: _pool_or(x, layer.size), golden, crossbar)
                continue
            w = weights.arrays[i].reshape(layer.weight_shape[0], -1)
            if not layer.binarized:
                golden, crossbar = _each(lambda x: _activation(layer, _pixel_bits(x, w, layer), len(x)), golden, crossbar)
            elif i < acts:
                golden, crossbar = _binarized(layer, w, golden, crossbar, backend, tie_high)
            else:  # raw class scores, no thresholding
                golden, crossbar = _each(lambda x: _signed_matmul(x, w, layer), golden, crossbar)
            if i < acts and crossbar is not None:
                mismatched[i] += 0 if crossbar is golden else int((golden != crossbar).sum())
                total[i] += golden.size
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
