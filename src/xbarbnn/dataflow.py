"""Conv geometry and the column-sliced convolution mapping.

`ConvLayer` is the one conv-geometry type: the topology parser, the
inference engine, this dataflow and the cost model all read it. In the
mapping, kernels live in crossbar columns, the input buffer holds the
operating window as per-column channel packs, and a slide replaces exactly
one pack instead of re-streaming the whole window.

A pack is one window column across all input channels (channel-major,
kernel_k rows each). Kernels never get reprogrammed while a layer runs; an
optional lookahead pack plus a second, shifted kernel column per output
evaluates two adjacent windows from a single array read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .crossbar import CrossbarConfig


@dataclass(frozen=True)
class ConvLayer:
    """Valid (unpadded) k x k convolution of a C x H x W input, whose
    windows advance one input row or column at a time, as the column-sliced
    mapping slides one pack per window. `binarized=False` marks the
    quantized layer that reads raw pixels."""

    in_channels: int
    out_channels: int
    input_h: int = 28
    input_w: int = 28
    kernel: int = 5
    binarized: bool = field(default=True, kw_only=True)

    def __post_init__(self):
        if self.kernel < 1 or min(self.in_channels, self.out_channels) < 1:
            raise ValueError("degenerate conv")
        if self.kernel > self.input_h or self.kernel > self.input_w:
            raise ValueError(f"kernel exceeds {self.input_h}x{self.input_w} input")

    @property
    def out_h(self) -> int:
        return self.input_h - self.kernel + 1

    @property
    def out_w(self) -> int:
        return self.input_w - self.kernel + 1

    @property
    def pack_bits(self) -> int:
        return self.in_channels * self.kernel

    @property
    def fan_in(self) -> int:
        return self.in_channels * self.kernel * self.kernel

    @property
    def weight_shape(self) -> tuple:
        return (self.out_channels, self.in_channels, self.kernel, self.kernel)


ConvShape = ConvLayer  # earlier name, kept for positional callers


@dataclass
class TransactionLog:
    """Bus words streamed during one layer traversal."""

    bus_width_bits: int = 32
    words_streamed: int = 0

    def stream(self, bits: int, bit_width: int = 1):
        self.words_streamed += -(-bits * bit_width // self.bus_width_bits)


@dataclass(frozen=True)
class KernelImage:
    """Programmed weight columns for one conv layer.

    columns[:, c] holds the bit pattern, active[:, c] masks the live cells;
    inert cells (logic 0 programming) never contribute to a bitline count.
    With `slots` window slots (2 under parallel_window, else 1), column
    j * slots + slot serves output channel j in that slot.
    """

    columns: np.ndarray = field(repr=False)
    active: np.ndarray = field(repr=False)


def layout_kernels(
    layer: ConvLayer,
    kernels: np.ndarray,
    cfg: CrossbarConfig,
    parallel_window: bool = False,
) -> KernelImage:
    """Program the column-sliced kernels: one column per output channel, two
    when a lookahead pack enables dual-window evaluation."""
    kernels = np.asarray(kernels, dtype=np.uint8)
    if kernels.shape != layer.weight_shape:
        raise ValueError(f"kernel tensor shape {kernels.shape} does not match layer")
    k, pack = layer.kernel, layer.pack_bits
    slots = 2 if parallel_window else 1
    rows_used = pack * (k + (1 if parallel_window else 0))
    cols_used = layer.out_channels * slots
    if rows_used > cfg.rows or cols_used > cfg.cols:
        raise ValueError(f"layer needs {rows_used}x{cols_used} cells on a {cfg.rows}x{cfg.cols} array")

    # kernel column c, channel-major: [ch0 rows, ch1 rows, ...]
    col_packs = [kernels[:, :, :, c].reshape(layer.out_channels, pack) for c in range(k)]
    sliced = np.concatenate(col_packs, axis=1)  # (j, k*pack)

    columns = np.zeros((rows_used, cols_used), dtype=np.uint8)
    active = np.zeros((rows_used, cols_used), dtype=bool)
    for slot in range(slots):  # slot 1 is shifted down by one pack
        rows = slice(slot * pack, (slot + k) * pack)
        columns[rows, slot::slots] = sliced.T
        active[rows, slot::slots] = True
    return KernelImage(columns, active)


class ConvWindowBuffer:
    """Ring of column packs mirroring the crossbar input buffer."""

    def __init__(self, layer: ConvLayer, parallel_window: bool = False, bit_width: int = 1):
        self.layer = layer
        self.parallel_window = parallel_window
        self.bit_width = bit_width
        self.slots = layer.kernel + (1 if parallel_window else 0)
        self.head = 0
        self._packs = [None] * self.slots
        self._next_col = 0  # input column the next streamed pack comes from
        self._window_row = None

    @property
    def capacity(self) -> int:
        return self.layer.pack_bits * self.slots

    def _pack_at(self, image: np.ndarray, col: int) -> np.ndarray:
        r = self._window_row
        k = self.layer.kernel
        return image[:, r : r + k, col].reshape(-1)

    def wrap_down(self, image: np.ndarray, window_row: int, log: TransactionLog) -> None:
        """Full refresh at the left edge of a new window row."""
        if window_row >= self.layer.out_h:
            raise ValueError("wrap below the last window row: layer complete")
        self._window_row = window_row
        self.head = 0
        for i in range(self.slots):
            self._packs[i] = self._pack_at(image, i)
        self._next_col = self.slots
        log.stream(self.capacity, self.bit_width)

    def slide_right(self, image: np.ndarray, log: TransactionLog, packs: int) -> None:
        """Advance the window: stream in the new right-most pack(s), dropping
        the same number of stale left-most ones."""
        if self._next_col + packs > self.layer.input_w:
            raise ValueError("slide past the right edge: wrap_down required")
        for _ in range(packs):
            self._packs[self.head] = self._pack_at(image, self._next_col)
            self.head = (self.head + 1) % self.slots
            self._next_col += 1
        log.stream(packs * self.layer.pack_bits, self.bit_width)

    def window_bits(self, slot: int = 0) -> np.ndarray:
        """Current operating window (slot 0) or the lookahead window (slot 1),
        flattened in column-pack order to face the programmed kernel column."""
        if slot and not self.parallel_window:
            raise ValueError("no lookahead window without parallel_window")
        k = self.layer.kernel
        out = [self._packs[(self.head + slot + i) % self.slots] for i in range(k)]
        if any(p is None for p in out):
            raise ValueError("buffer not filled; call wrap_down first")
        return np.concatenate(out)


def run_layer(
    input_bits: np.ndarray,
    kernels: np.ndarray,
    cfg: CrossbarConfig | None = None,
    parallel_window: bool = False,
    bit_width: int = 1,
    bus_width_bits: int = 32,
) -> tuple[np.ndarray, TransactionLog]:
    """Drive one conv layer through the buffer/crossbar mapping.

    Returns the signed XNOR-dot value per (output channel, window) and the
    transaction log of the traversal. Windows are evaluated two at a time
    when parallel_window is set, except for a dangling last window in a row.
    """
    input_bits = np.asarray(input_bits, dtype=np.uint8)
    ch, h, w = input_bits.shape
    layer = ConvLayer(ch, np.asarray(kernels).shape[0], h, w, np.asarray(kernels).shape[2])
    parallel_window = parallel_window and layer.out_w >= 2
    image = layout_kernels(layer, kernels, cfg or CrossbarConfig(), parallel_window)
    buf = ConvWindowBuffer(layer, parallel_window, bit_width)
    log = TransactionLog(bus_width_bits)

    n = layer.fan_in
    slots = 2 if parallel_window else 1
    # every column exposes exactly the n live kernel cells; row c is column c
    kcols = image.columns.T[image.active.T].reshape(-1, n)

    dots = np.zeros((layer.out_channels, layer.out_h, layer.out_w), dtype=np.int32)
    for row in range(layer.out_h):
        buf.wrap_down(input_bits, row, log)
        left = 0  # window position the buffer's head pack belongs to
        col = 0
        while col < layer.out_w:
            dual = parallel_window and col + 1 < layer.out_w
            # A dangling last window evaluates through the shifted column
            # (slot 1), so the final slide skips the lookahead pack.
            base = 1 if (parallel_window and not dual) else 0
            target = col - base
            if target > left:
                buf.slide_right(input_bits, log, target - left)
                left = target
            for slot in (base, base + 1) if dual else (base,):
                matches = (kcols[slot::slots] == buf.window_bits(slot)).sum(axis=1)
                dots[:, row, col + slot - base] = 2 * matches - n
            col += 2 if dual else 1
    return dots, log


def streamed_words_per_layer(
    layer: ConvLayer,
    bit_width: int = 1,
    bus_width_bits: int = 32,
    parallel_window: bool = False,
) -> int:
    """Bus words for a full layer traversal, with per-event word rounding: a
    full refresh per window row plus one pack per slide."""
    word = lambda bits: -(-bits * bit_width // bus_width_bits)
    pack = layer.pack_bits
    refresh = word(pack * (layer.kernel + (1 if parallel_window else 0)))
    if parallel_window:
        evals = -(-layer.out_w // 2)
        full_slides = evals - 1 - (1 if layer.out_w % 2 else 0)
        per_row = refresh + full_slides * word(2 * pack) + (word(pack) if layer.out_w % 2 else 0)
    else:
        per_row = refresh + (layer.out_w - 1) * word(pack)
    return layer.out_h * per_row
