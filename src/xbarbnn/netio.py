"""Network topology descriptions, weight/dataset containers, and the
end-to-end inference runner that compares the crossbar execution against the
exact software model. The runner moves both chains through the layers in
lockstep and shares work by tensor identity: while the crossbar tensor is the
golden one (the same object), a layer runs once for both. The first
binarized layer's per-segment dots are also computed once; the chains
diverge at its decisions.

Conv activations are NHWC (batch, height, width, channels) from the images
to the first FC layer, which flattens them in the (c, h, w) order of its
weight columns. A conv layer is one GEMM per fan-in segment and no window
is copied: the band (one row per image and output row, holding the k input
rows that row's windows read) times a block-Toeplitz weight matrix (each
window's kernel in its column block, exact zeros elsewhere). Every partial
sum is a sum of at most fan-in nonzero integer products, so the GEMMs are
exact in float32 for +-1 layers up to a fan-in of 2^24, and for uint8 x int8
pixels over blocks of at most 514 fan-in columns (255 * 128 * 514 <= 2^24).

Topology grammar ("-" separated tokens):
    "5x5,6"     conv, 5x5 kernel, 6 output channels
    "2x2 Pool"  max pool (binary max = OR over the window)
    "FC(120)"   fully connected layer with 120 outputs
A leading FC token declares the input width instead of a weight layer (the
MLP rows list the 784-pixel input that way); everywhere else FC(n) is a
weight layer whose fan-in is inferred from the previous layer.
"""

from __future__ import annotations

import functools
import re
import struct
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


def load_idx_images(path) -> np.ndarray:
    """MNIST-layout image file: big-endian header, then unsigned-byte pixels."""
    with open(path, "rb") as f:
        blob = f.read()
    count, rows, cols = _read_idx_header(blob, path, IDX_IMAGE_MAGIC, 3)
    need = 16 + count * rows * cols
    if len(blob) < need:
        raise IdxFormatError(f"{path}: payload ends at byte {len(blob)}, expected {need}")
    data = np.frombuffer(blob, np.uint8, count=count * rows * cols, offset=16)
    return data.reshape(count, rows, cols).copy()


def load_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    (count,) = _read_idx_header(blob, path, IDX_LABEL_MAGIC, 1)
    need = 8 + count
    if len(blob) < need:
        raise IdxFormatError(f"{path}: payload ends at byte {len(blob)}, expected {need}")
    labels = np.frombuffer(blob, np.uint8, count=count, offset=8).copy()
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


def _band(x: np.ndarray, layer: ConvLayer, dtype) -> np.ndarray:
    """(B, H, W, C) activations -> the (B * oh, k * W * C) band of a conv:
    row (b, r) holds the k input rows that the windows of output row r read,
    at the layer's stride. Built as `dtype` with k row-slice copies."""
    k, s, oh = layer.kernel, layer.stride, layer.out_h
    band = np.empty((len(x), oh, k) + x.shape[2:], dtype)
    for i in range(k):
        band[:, :, i] = x[:, i : i + s * (oh - 1) + 1 : s]
    return band.reshape(len(x) * oh, -1)


def _toeplitz(layer: ConvLayer, w: np.ndarray) -> np.ndarray:
    """(O, C*k*k) kernel rows, (c, i, j) order -> the (k * W * C, ow * O)
    block-Toeplitz matrix of a conv: column block q holds every kernel at the
    band columns of window q (input columns q*s .. q*s + k - 1), with exact
    zeros elsewhere. The band times it is (B * oh, ow * O), which reshapes at
    no cost to one row per window and one column per output channel."""
    k, s, c, o = layer.kernel, layer.stride, layer.in_channels, layer.out_channels
    t = np.zeros((k, layer.input_w, c, layer.out_w, o), w.dtype)
    kernels = w.reshape(o, c, k, k).transpose(2, 3, 1, 0)  # (i, j, c, o)
    for q in range(layer.out_w):
        t[:, q * s : q * s + k, :, q] = kernels
    return t.reshape(-1, layer.out_w * o)


def _layer_dots(x, w, lengths, dtype, layer, signed):
    """Products of the activations `x` entering a weight layer with its
    weight rows `w` (O, fan-in), as `dtype`, one (input rows, O) array per
    segment of `lengths`, which partition the fan-in in order; yielded one
    at a time. `signed` reads both operands' bits b as 2b - 1.

    An FC layer flattens `x` per image, in the (c, h, w) order of its weight
    columns, and slices both operands per segment. A conv (`layer` a
    ConvLayer, `x` NHWC) multiplies its band by one block-Toeplitz matrix per
    segment, zero outside the segment; its input rows are the (image, window)
    rows, row-major per image. The zeros add exact zeros, so every partial
    sum of a segment is a sum of at most its length of nonzero products, as
    in the FC product."""
    if isinstance(layer, ConvLayer):
        a = _band(x, layer, dtype)
    else:
        if x.ndim == 4:  # NHWC conv activations
            x = x.transpose(0, 3, 1, 2)
        a = x.reshape(len(x), -1).astype(dtype)
    w = w.astype(dtype)
    if signed:
        for m in (a, w):  # in place: no float temporaries
            m *= 2
            m -= 1
    bounds = np.cumsum((0,) + tuple(lengths))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if isinstance(layer, ConvLayer):
            part = np.zeros_like(w)
            part[:, lo:hi] = w[:, lo:hi]
            yield (a @ _toeplitz(layer, part)).reshape(-1, layer.out_channels)
        else:
            yield a[:, lo:hi] @ w[:, lo:hi].T


def _pixel_matmul(x: np.ndarray, w: np.ndarray, layer=None) -> np.ndarray:
    """Exact integer dot products of the pixels `x` entering a weight layer
    with its int8 weight rows `w`, as floats, one row per input row (per
    image, or per (image, window) of a conv on NHWC pixels).

    A uint8 pixel times an int8 weight is at most 255 * 128 in magnitude
    (128, not 127, because `WeightContainer.load` accepts -128). Over a block
    of at most 2^24 // (255 * 128) = 514 fan-in columns every partial sum of
    a dot product is then an integer of magnitude at most 2^24, which float32
    adds without rounding in any summation order: each block is one exact
    float32 GEMM (the conv's Toeplitz zeros add nothing). The blocks are
    added in float64, exact below 2^53; a fan-in of one block (the first
    convs of lenet-5, cnn-1 and cnn-2) stays float32. Other image dtypes have
    no such bound and run in float64.
    """
    if x.dtype != np.uint8:
        return next(_layer_dots(x, w, (w.shape[1],), np.float64, layer, False))
    blocks = segment_lengths(w.shape[1], _FLOAT32_EXACT // (255 * 128))
    dots = _layer_dots(x, w, blocks, np.float32, layer, False)
    if len(blocks) == 1:
        return next(dots)
    out = next(dots).astype(np.float64)
    for dot in dots:
        out += dot
    return out


def _segment_dots(x: np.ndarray, w_bits: np.ndarray, lengths: tuple[int, ...], layer=None) -> list[np.ndarray]:
    """Exact signed dot products of the bits `x` entering a weight layer
    with its weight rows `w_bits` (bits b as 2b - 1), one (input rows, O)
    array per fan-in segment of `lengths` (see `_layer_dots`). Both operands
    become +-1 once. Partial sums are integers of magnitude at most the
    fan-in, so float32 is exact, and so is the sum of the segments, up to a
    fan-in of 2^24; float64 beyond."""
    dtype = np.float32 if w_bits.shape[1] <= _FLOAT32_EXACT else np.float64
    return list(_layer_dots(x, w_bits, lengths, dtype, layer, True))


def _signed_matmul(x: np.ndarray, w_bits: np.ndarray, layer=None) -> np.ndarray:
    """Exact signed dot products of bit matrices (bits b as 2b - 1), int64."""
    (dot,) = _segment_dots(x, w_bits, (w_bits.shape[1],), layer)
    return dot.astype(np.int64)


def _fc_bits_golden(dot: np.ndarray, tie_high: bool) -> np.ndarray:
    """Exact sign activation of a binary layer from its signed dots."""
    return (dot >= 0 if tie_high else dot > 0).astype(np.uint8)


def _fc_bits_crossbar(dots: list, lengths: tuple[int, ...], backend: CrossbarBackend) -> np.ndarray:
    """Activation bits of a binary layer through the crossbar model, in the
    shape of its dots, from the signed float dots of each segment of its
    fan-in split `lengths` on the backend's arrays. Each dot becomes its
    segment's XNOR popcount (m + dot) / 2 in place, so the dots are consumed;
    m + dot is even, so the halving is exact. One segment is sensed against
    its main reference; several pass through `cascade.decide_counts`."""
    for dot, m in zip(dots, lengths):
        dot += m
        dot *= 0.5
    if len(lengths) == 1:
        bits = dots[0] > backend.refs.for_segment(lengths[0]).main
    else:
        bits = _cascade.decide_counts(backend.policy_kind, dots, lengths, backend.refs)
    return bits.astype(np.uint8)


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
    The crossbar's per-segment dots are computed once: while the chains
    share their input, the golden bit is the sign of their sum, taken before
    `_fc_bits_crossbar` turns the dots into counts in place; otherwise
    the golden one-segment dot is computed and freed before them, so peak
    memory holds one chain's dots at a time."""
    batch = len(golden)
    if crossbar is golden:
        lengths = segment_lengths(layer.fan_in, backend.config.rows)
        dots = _segment_dots(golden, w, lengths, layer)
        golden_bits = _fc_bits_golden(sum(dots), tie_high)
    else:
        golden_bits = _fc_bits_golden(_segment_dots(golden, w, (layer.fan_in,), layer)[0], tie_high)
        if crossbar is None:
            return _activation(layer, golden_bits, batch), None
        lengths = segment_lengths(layer.fan_in, backend.config.rows)
        dots = _segment_dots(crossbar, w, lengths, layer)
    crossbar_bits = _fc_bits_crossbar(dots, lengths, backend)
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
    binarized layer. The first binarized layer's per-segment dots are
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
                golden, crossbar = _each(
                    lambda x: _activation(layer, _pixel_matmul(x, w, layer) >= 0, len(x)), golden, crossbar
                )
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
