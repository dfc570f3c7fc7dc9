"""Exhaustive consistency checks at small sizes: `xbarbnn verify` runs them
in order and tier-1 runs each as its own test (`tests/test_verify.py`).

Every check returns None when its guarantee holds. Otherwise it returns one
line that names its first failing case, for example
`split 8+8 x=1 refs 3: F2 fires where no count cell is a majority at counts (0, 5)`.

Each guarantee a docstring states, and the check in `CHECKS` that proves it:

* F1 sound and F2 complete (`cascade`): `cascade_guarantees`, over every
  count cell of every `CASCADE_SPLITS` split; the census agrees with a raw
  pair walk on false positives and false negatives apart, under every
  policy kind (`census`).
* AND fires iff every segment's count exceeds its main reference, OR iff
  any does (`cascade`): `and_or_definitions`, from those definitions over
  every count cell of every `CASCADE_SPLITS` split, so a wrong AND/OR bound
  table fails it.
* The pixel GEMM is exact (`netio._pixel_dots`, read by `pixel_matmul`):
  `pixel_gemm`, the exact dot where uncentred float32 products would stop
  being exact (514 columns) and at one and two centred blocks;
  `centred_gemm`, the layer's compare on dots of -1, 0 and +1 whose centred
  sums reach 2^24, at one centred block of 1024 columns and one past it.
* The packed +-1 lanes are exact (`netio._segment_counts`): `packed_lanes`,
  at spans of B - 1 and B and at 4095 and 4096, with all-match and
  all-mismatch lanes and a row left alone in its lane.
* The conv GEMM is exact (`netio._segment_counts` and `pixel_matmul` on a
  conv): `conv_gemm`, against an int64 dot per window (`window_dots`) on
  one, two and three segments, and a pixel conv of two centred blocks per
  output row, whose bits `netio._pixel_bits` must fire iff that dot >= 0.
* Every pool but one on the input runs inside the conv before it, and
  consecutive pools fold into one; the pooled bits equal `max_pool` over the
  unfused conv's, with the same mismatch count (`netio`): `conv_pool`, on
  the `POOL_CASES` shapes at pools 2 and 3 and on `FOLDED_CASES`, ragged
  edges included, pixel and binarized convs, golden and crossbar backends.
* The conv dataflow equals im2col (`dataflow.run_layer`): `dataflow_dots`,
  against the conv GEMM's signed dot, which `conv_gemm` ties to the windows.
* The closed-form bus words equal the transaction log
  (`dataflow.streamed_words_per_layer`): `bus_words`.
* A fan-in that fits one segment is sensed as its exact sign bit where
  `netio.CrossbarBackend.reads_majority` says so, and only there, so the
  inference chains may share that layer (`netio._binarized`):
  `fitting_layers`, over every count of every fan-in up to 512; a tie reads
  0 on both sides.

The other checks tie the batched paths to the scalar model: the xnor and
popcount identity, the two cascade evaluators on each other (`evaluators`),
and the batched inference chain against `crossbar.layer_forward` (`chain`).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import bincore, cascade, crossbar, dataflow, netio

NU_MAX = 10

# two equal even halves (the paper's case), odd halves, unequal two-way
# splits, and three- and four-way splits with short tails, as the greedy
# splitter builds them
CASCADE_SPLITS = (
    (8, 8), (12, 12), (16, 16), (5, 5), (7, 7), (16, 12),
    (8, 8, 8), (12, 12, 6), (6, 6, 6, 6), (8, 8, 8, 5),
)

# mlp-l's real splits: 1500 and 1000 over 512 rows
MLPL_SPLITS = ((512, 512, 476), (512, 488))

# (array rows, fan-in): one segment, an unequal two-way and a three-way split
CHAIN_SPLITS = ((8, 7), (8, 14), (8, 23), (16, 12), (16, 28), (16, 40))

# (channels, height, width, kernel, parallel_window): odd and even windows
# per row; parallel_window over an odd, an even and a single one per row
DATAFLOW_CASES = (
    (3, 9, 11, 3, False), (3, 9, 10, 3, False), (3, 9, 11, 3, True), (3, 9, 10, 3, True), (2, 5, 3, 3, True),
)

# (channels, height, width, kernel) of the engine's conv checks: H != W; a
# 1x1 kernel; kernels as tall as the input (oh = 1) and as large as it (one
# window); 4x5 and 2x1 outputs
CONV_CASES = (
    (1, 7, 9, 1), (3, 7, 9, 3), (3, 9, 7, 5), (3, 5, 8, 5), (1, 5, 5, 5),
    (3, 6, 7, 3), (1, 6, 5, 5),
)

# a pool runs inside the conv before it (`conv_pool`): at each size, every
# CONV_CASES output leaves ragged rows or columns, or pools none of them; the
# 6x6 output of the last case pools whole at both
POOL_CASES = CONV_CASES + ((2, 8, 8, 3),)
POOL_SIZES = (2, 3)

# (conv case, pools on its input, pools after it) of `conv_pool` whose pools
# fold (`netio._steps`): the 10x11 output of a 3x3 conv on 12x13 pools to
# 2x2 at 2 then 2 and to 1x1 at 3 then 2, ragged at both pools; 17x18 pixels
# pool to 8x9 (a ragged row) or 4x4 in one `netio._pool_or` before the conv
FOLDED_CASES = (
    ((2, 12, 13, 3), (), (2, 2)), ((2, 12, 13, 3), (), (3, 2)),
    ((3, 17, 18, 3), (2,), (2,)), ((3, 17, 18, 3), (2, 2), (2,)),
)

# array rows for the conv GEMM check: every DATAFLOW_CASES fan-in (27, 18)
# in one segment, in two unequal ones (16+11, 16+2) and in up to three
# (10+10+7, 10+8)
CONV_SPLIT_ROWS = (512, 16, 10)

# the last fan-in at which uncentred float32 products would be exact
# (255 * 128 * 514 <= 2^24) and one column past it; two centred blocks of
# 1024 columns, with one and five columns in the second
PIXEL_FAN_INS = (514, 515, 1028, 1029)

# one centred float32 GEMM (1024 columns of products up to 2^14), and one
# column past it
CENTRED_FAN_INS = (1024, 1025)

# packed +-1 lanes: spans of B - 1 and B for B = 512, and 4095 (the longest
# exact span, lane base 4096) and 4096 (two spans)
LANE_SPANS = (511, 512, 4095, 4096)


# --------------------------------------------------------------- oracles


def window_dots(x: np.ndarray, w: np.ndarray, layer) -> np.ndarray:
    """int64 reference for a conv on NHWC `x`: each window's values, in the
    (c, i, j) order of the weight rows `w`, dotted with them; one row per
    (image, window), row-major per image."""
    k = layer.kernel
    windows = [
        x[:, r : r + k, q : q + k].transpose(0, 3, 1, 2).reshape(len(x), -1)
        for r in range(layer.out_h)
        for q in range(layer.out_w)
    ]
    return (np.stack(windows, axis=1) @ w.T).reshape(-1, len(w))


def max_pool(x: np.ndarray, size: int) -> np.ndarray:
    """Reference max pool of NHWC `x` over non-overlapping size x size
    windows, ragged rows and columns dropped: a reshape-max, which on bits
    is their OR."""
    b, h, w, c = x.shape
    oh, ow = h // size, w // size
    return x[:, : oh * size, : ow * size].reshape(b, oh, size, ow, size, c).max(axis=(2, 4))


def pixel_matmul(x: np.ndarray, w: np.ndarray, layer=None) -> np.ndarray:
    """Exact integer products of the uint8 pixels `x` with int8 weight rows
    `w`, int64, one row per image or per (image, window) of a conv on NHWC
    pixels: each output row's dots from `netio._pixel_dots`, the path the
    pixel layer compares, less the layer's threshold."""
    with netio._workspace().frame():
        operands = netio._pixel_operands(w, layer)
        rows = [np.subtract(dots, operands[-1], dtype=np.float64) for dots in netio._pixel_dots(x, layer, operands)]
    return np.stack(rows, axis=1).astype(np.int64).reshape(-1, len(w))


def admissible(lengths, x: int, count: int) -> bool:
    """Whether `count` references at distance `x` fit every segment."""
    try:
        for n in lengths:
            crossbar.ReferenceSet(n, x, count)
    except ValueError:
        return False
    return True


def count_cells(lengths, margin: int) -> np.ndarray:
    """Every per-segment count tuple, each count from -margin to its
    segment length + margin: one row per cell."""
    return np.array(list(itertools.product(*(range(-margin, n + margin + 1) for n in lengths))))


def counts_near_references(lengths, x: int, count: int, size: int, rng) -> np.ndarray:
    """`size` random count tuples, each count uniform within 2x of its
    segment's lowest and highest references."""
    refs = crossbar.ReferenceSet(lengths[0], x, count)
    cols = []
    for n in lengths:
        levels = refs.for_segment(n).levels()
        cols.append(rng.integers(levels[0] - 2 * x, levels[-1] + 2 * x + 1, size))
    return np.stack(cols, axis=1)


def scalar_intervals(cells: np.ndarray, lengths, refs) -> np.ndarray:
    """The scalar `sa_read` interval of every count in the count cells (one
    row per tuple), each count clipped into 0..its segment length; `sa_read`
    runs once per level."""
    cols = []
    for s, n in enumerate(lengths):
        table = np.array([crossbar.sa_read(d, refs.for_segment(n)).interval_index for d in range(n + 1)])
        cols.append(table[np.clip(cells[:, s], 0, n)])
    return np.stack(cols, axis=1)


def raw_pair_loss(nu: int, kind: str, x: int = 0, count: int = 1) -> tuple[int, int]:
    """Oracle: (false positives, false negatives) of AND, OR, F1 or F2 on
    two equal halves, over every (A, B) pair walked as integers with numpy,
    segment counts taken bit by bit, the policy spelled out in place."""
    seg = nu // 2
    vals = np.arange(1 << nu, dtype=np.uint32)
    xnor = ~(vals[:, None] ^ vals[None, :]) & ((1 << nu) - 1)
    pop = np.array([bin(v).count("1") for v in range(1 << seg)], dtype=np.int32)
    d1 = pop[xnor & ((1 << seg) - 1)]
    d2 = pop[xnor >> seg]
    golden = 2 * (d1 + d2) > nu
    main = seg // 2
    levels = np.array([main + j * x for j in range(-(count // 2), count // 2 + 1)])
    t1, t2 = ((d[..., None] > levels).sum(axis=-1) for d in (d1, d2))  # references below each count
    if kind == "AND":
        out = (d1 > main) & (d2 > main)
    elif kind == "OR":
        out = (d1 > main) | (d2 > main)
    elif kind == "F1":  # the highest reference below each count; the bottom interval certifies nothing
        low = np.append(0, levels)
        out = (t1 >= 1) & (t2 >= 1) & (2 * (low[t1] + low[t2]) >= nu)
    elif kind == "F2":  # the lowest reference at or above each count; the half length in the top interval
        high = np.append(levels, seg)
        out = 2 * (high[t1] + high[t2]) > nu
    else:
        raise ValueError(kind)
    return int((out & ~golden).sum()), int((~out & golden).sum())


def _shapes(splits) -> str:
    return " ".join("+".join(map(str, lengths)) for lengths in splits)


def _layout(lengths, x: int, count: int) -> str:
    return f"split {_shapes([lengths])} x={x} refs {count}"


def _conv(case) -> str:
    """A conv case's name (`s1`: windows step one column), with parallel_window when it has one."""
    return "c{}h{}w{}k{}s1".format(*case[:4]) + "".join(f"pw{pw:d}" for pw in case[4:])


def _pool_case(case) -> str:
    shape, before, after = case
    return " - ".join([f"{p}x{p} pool" for p in before] + [_conv(shape)] + [f"{p}x{p} pool" for p in after])


def _where(cells: np.ndarray, mask: np.ndarray, what: str) -> str | None:
    """`what` at the first row of `cells` where `mask` holds; None if none."""
    return f"{what} at counts {tuple(cells[mask.argmax()].tolist())}" if mask.any() else None


def _first_diff(got, want) -> str | None:
    """None when `got` equals `want` in shape and values; otherwise the
    shapes, or the first index where the values differ and both values."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return f"shape {got.shape}, want {want.shape}"
    at = next(map(tuple, np.argwhere(got != want).tolist()), None)
    return None if at is None else f"{got[at]} at {at}, want {want[at]}"


def _first_failure(cases):
    """A check from `cases`, a generator of (case, failure) pairs whose
    failure is None where the case holds: it walks the cases in order and
    returns the first failing one as `case: failure`, or None."""
    @functools.wraps(cases)
    def check() -> str | None:
        return next((f"{case}: {why}" for case, why in cases() if why), None)
    return check


def _cascade_layouts():
    """(split, distance, reference count) for every admissible layout of 3
    and 5 references on every `CASCADE_SPLITS` split."""
    return [
        (lengths, x, count)
        for lengths in CASCADE_SPLITS
        for count in (3, 5)
        for x in range(1, min(lengths))
        if admissible(lengths, x, count)
    ]


# ---------------------------------------------------------------- checks


@_first_failure
def signed_dots():
    """2 * popcount(xnor) - n equals the signed dot on every pair of vectors
    of every size n up to `NU_MAX`; vector v holds bit i of the integer v."""
    for n in range(1, NU_MAX + 1):
        vals = np.arange(1 << n, dtype=np.uint32)
        bits = ((vals[:, None] >> np.arange(n)) & 1).astype(np.int8)
        signed = bits * 2 - 1
        pops = (bits[:, None, :] == bits[None, :, :]).sum(axis=2)
        yield f"n={n}", _first_diff(2 * pops - n, signed @ signed.T)


@_first_failure
def worked_example():
    a = bincore.BinaryTensor.from_bits([1, 0, 0, 1])
    b = bincore.BinaryTensor.from_bits([0, 1, 1, 1])
    got = bincore.xnor_popcount_dot(a, b)
    yield "xnor_popcount_dot(1001, 0111)", None if got == -2 else f"{got}, want -2"


@_first_failure
def fitting_layers():
    """A fan-in that fits one segment is sensed at its main reference alone
    (`netio._fc_bits_crossbar`), and reads the golden sign bit
    (`netio._fc_bits_golden`) at every count exactly where
    `CrossbarBackend.reads_majority` says so, on which `netio._binarized`
    gives both chains one tensor: every count 0..n of every fan-in n in
    2..512 on 512 rows, the tie n / 2 included; a fan-in one past the rows
    never shares."""
    backend = netio.CrossbarBackend(crossbar.CrossbarConfig(), crossbar.ReferenceSet(2))
    rows = backend.config.rows
    for n in range(2, rows + 1):
        counts = np.arange(n + 1)
        sensed = netio._fc_bits_crossbar([counts], (n,), backend)
        differ = np.flatnonzero(sensed != netio._fc_bits_golden(counts, n)).tolist()
        yield f"fan-in {n}", f"crossbar and golden bits differ at counts {differ}" if differ else None
        yield f"fan-in {n}", None if backend.reads_majority(n) else "does not read the majority"
    yield f"fan-in {rows + 1}", "reads the majority" if backend.reads_majority(rows + 1) else None


@_first_failure
def cascade_guarantees():
    """Walk every per-segment count cell of every admissible layout of every
    `CASCADE_SPLITS` split: F1 never fires on a non-majority, F2 fires on a
    readout tuple exactly when one of its count cells is a majority
    (complete, and no complete rule fires less); so F2 fires wherever F1
    does."""
    for lengths, x, count in _cascade_layouts():
        refs = crossbar.ReferenceSet(lengths[0], x, count)
        cells = count_cells(lengths, 0)
        intervals = scalar_intervals(cells, lengths, refs)
        golden = 2 * cells.sum(axis=1) > sum(lengths)
        f1 = cascade.decide_batch("F1", intervals, lengths, refs)
        f2 = cascade.decide_batch("F2", intervals, lengths, refs)
        key = np.ravel_multi_index(intervals.T, (count + 1,) * len(lengths))
        some_majority = np.zeros((count + 1) ** len(lengths), dtype=bool)
        np.logical_or.at(some_majority, key, golden)
        layout = _layout(lengths, x, count)
        yield layout, _where(cells, f1 & ~golden, "F1 fires on a non-majority")
        yield layout, _where(cells, ~f2 & some_majority[key], "F2 misses a readout with a majority count cell")
        yield layout, _where(cells, f2 & ~some_majority[key], "F2 fires where no count cell is a majority")


@_first_failure
def and_or_definitions():
    """Walk every per-segment count cell of every admissible layout of every
    `CASCADE_SPLITS` split, a margin outside 0..length included: AND fires
    iff every segment's count exceeds its main reference (half its length),
    OR iff any does, in both cascade evaluators."""
    for lengths, x, count in _cascade_layouts():
        refs = crossbar.ReferenceSet(lengths[0], x, count)
        cells = count_cells(lengths, 2)
        above = cells > np.array(lengths) // 2
        intervals = scalar_intervals(cells, lengths, refs)
        for kind, want in (("AND", above.all(axis=1)), ("OR", above.any(axis=1))):
            got = cascade.decide_counts(kind, cells.T, lengths, refs)
            yield _layout(lengths, x, count), _where(cells, got != want, f"decide_counts' {kind} is wrong")
            got = cascade.decide_batch(kind, intervals, lengths, refs)
            yield _layout(lengths, x, count), _where(cells, got != want, f"decide_batch's {kind} is wrong")


@_first_failure
def evaluators():
    """`cascade.decide_counts` on count cells, as int64 and as float32,
    against `cascade.decide_batch` on their scalar `sa_read` intervals, for
    every policy kind: every count cell (a margin outside 0..length
    included) of every cascade split, so every level of every segment
    length, and mlp-l's splits on random counts around the references."""
    rng = np.random.default_rng(4)
    mlpl = [(lengths, x, count) for lengths in MLPL_SPLITS for count in (3, 5) for x in (8, 16)]
    for lengths, x, count in _cascade_layouts() + mlpl:
        near = lengths in MLPL_SPLITS
        cells = counts_near_references(lengths, x, count, 100_000, rng) if near else count_cells(lengths, 2)
        refs = crossbar.ReferenceSet(lengths[0], x, count)
        intervals = scalar_intervals(cells, lengths, refs)
        for kind in cascade.POLICY_KINDS:
            want = cascade.decide_batch(kind, intervals, lengths, refs)
            for dtype in (np.int64, np.float32):
                got = cascade.decide_counts(kind, cells.T.astype(dtype), lengths, refs)
                what = f"{kind} on {np.dtype(dtype).name} counts: decide_counts differs from decide_batch"
                yield _layout(lengths, x, count), _where(cells, got != want, what)


@_first_failure
def pixel_gemm():
    for fan_in in PIXEL_FAN_INS:
        a = np.full((2, fan_in), 255, np.uint8)
        a[1, ::2] = 0
        w = np.full((3, fan_in), -128, np.int8)
        w[1] = 127
        w[2, 0] = 127  # an odd sum, past 2^24 at 1029: one float32 GEMM would round it
        yield f"fan-in {fan_in}", _first_diff(pixel_matmul(a, w), a.astype(np.int64) @ w.astype(np.int64).T)


@_first_failure
def centred_gemm():
    """Pixel rows whose exact dot is -1, 0 or +1 while the centred partial
    sums reach 2^24: x = 0 against w = -128 in every column but the first,
    where x = 1 meets w = d. `_pixel_bits` must fire iff d >= 0 and
    `pixel_matmul` must give d."""
    for fan_in in CENTRED_FAN_INS:
        a = np.zeros((1, fan_in), np.uint8)
        a[0, 0] = 1
        w = np.full((3, fan_in), -128, np.int8)
        w[:, 0] = (-1, 0, 1)
        yield f"fan-in {fan_in}, _pixel_bits", _first_diff(netio._pixel_bits(a, w), [[0, 1, 1]])
        yield f"fan-in {fan_in}, pixel_matmul", _first_diff(pixel_matmul(a, w), [[-1, 0, 1]])


@_first_failure
def packed_lanes():
    """The signed dots 2c - m from the popcounts c of each segment (length
    m) of `netio._segment_counts` against an int64 signed dot over one
    segment and over that segment plus a 7-column one. Seven weight rows,
    so three lanes hold two rows and one holds a single row: against all-ones
    activations the lanes pair all-match with all-match (the largest packed
    sum), all-mismatch with all-match, and a random row with all-match;
    all-zeros and random activation rows complete the cases."""
    rng = np.random.default_rng(5)
    for m in LANE_SPANS:
        n = m + 7
        ones, zeros = np.ones(n, np.uint8), np.zeros(n, np.uint8)
        r = rng.integers(0, 2, (2, n), dtype=np.uint8)
        a = np.stack([ones, zeros, r[0]])
        w = np.stack([ones, zeros, r[1], zeros, ones, ones, ones])  # lanes (0, 4), (1, 5), (2, 6); row 3 alone
        sa, sw = 2 * a.astype(np.int64) - 1, 2 * w.astype(np.int64) - 1
        for lengths in ((n,), (m, 7)):
            bounds = np.cumsum((0,) + lengths)
            with netio._workspace().frame():
                for c, lo, hi in zip(netio._segment_counts(a, w, lengths), bounds[:-1], bounds[1:]):
                    got, want = 2 * c.astype(np.int64) - (hi - lo), sa[:, lo:hi] @ sw[:, lo:hi].T
                    yield f"span {m}, segments {lengths}, columns {lo}:{hi}", _first_diff(got, want)


@_first_failure
def chain():
    """`netio._fc_bits_crossbar` on the segment popcounts of random bit
    matrices (48 inputs, 7 neurons: one lane holds a single row) against
    `crossbar.layer_forward` per (input row, neuron), on every split shape
    k in {1, 2, 3}, unequal tails included, under every policy kind."""
    rng = np.random.default_rng(1)
    for rows, fan_in in CHAIN_SPLITS:
        cfg = crossbar.CrossbarConfig(rows, rows)
        lengths = crossbar.segment_lengths(fan_in, rows)
        for kind, count, x in itertools.product(cascade.POLICY_KINDS, (3, 5), (1, 2)):
            if not admissible(lengths, x, count):
                continue
            refs = crossbar.ReferenceSet(lengths[0], x, count)
            a = rng.integers(0, 2, (48, fan_in), dtype=np.uint8)
            w = rng.integers(0, 2, (7, fan_in), dtype=np.uint8)
            backend = netio.CrossbarBackend(cfg, refs, kind)
            with netio._workspace().frame():
                got = netio._fc_bits_crossbar(netio._segment_counts(a, w, lengths), lengths, backend)
            policy = cascade.CascadePolicy(kind, refs)
            groups = [crossbar.map_weights(bincore.BinaryTensor.from_bits(row), cfg) for row in w]
            inputs = map(bincore.BinaryTensor.from_bits, a)
            want = [[crossbar.layer_forward(row, g, refs, policy) for g in groups] for row in inputs]
            yield (f"{rows} rows, {kind} {_layout(lengths, x, count)}, (input, neuron) bit",
                   f"dtype {got.dtype}, want uint8" if got.dtype != np.uint8 else _first_diff(got, want))


@_first_failure
def census():
    """`cascade.enumerate_loss` against `raw_pair_loss` on two equal halves
    of 4, 6, 8 and 10 bits (10: odd halves, where an F2 that sums interval
    midpoints misses true majorities); F1 and F2 where 3 references fit the
    halves."""
    for n, (kind, x, count) in itertools.product((4, 6, 8, 10), zip(cascade.POLICY_KINDS, (0, 0, 1, 1), (1, 1, 3, 3))):
        if not admissible((n // 2,), x, count):
            continue
        report = cascade.enumerate_loss(n, n // 2, cascade.CascadePolicy(kind, crossbar.ReferenceSet(n // 2, x, count)))
        got, want = (report.false_positives, report.false_negatives), raw_pair_loss(n, kind, x, count)
        why = f"census (false positives, false negatives) {got}, raw walk {want}"
        yield f"nu={n} {kind} x={x} refs {count}", None if got == want else why


@_first_failure
def conv_gemm():
    """Per segment on one, two and three segments, for bits and for pixels;
    1x1 pixel convs on either side of 514 channels; and a 5x5 pixel conv
    over 45 channels, fan-in 1125, whose output rows sum two centred float32
    blocks in float64. Five output channels, so that an odd count of windows
    per row leaves one Toeplitz row alone in its lane. On the 1125 conv,
    random pixels and, per window, dots of -1, 0 and +1 whose centred sum is
    odd and past 2^24 (channel 0 all 1, meeting weights (d, 0, ..., 0);
    every other channel 0 against -128), where one float32 GEMM would
    round; `netio._pixel_bits` must fire iff the dot >= 0."""
    rng = np.random.default_rng(3)
    for shape in dict.fromkeys(case[:4] for case in DATAFLOW_CASES):
        (ch, h, w, k), name = shape, _conv(shape)
        layer = dataflow.ConvLayer(ch, 5, h, w, k)
        x = rng.integers(0, 2, (2, h, w, ch), dtype=np.uint8)
        kernels = rng.integers(0, 2, (5, layer.fan_in), dtype=np.uint8)
        for rows in CONV_SPLIT_ROWS:
            lengths = crossbar.segment_lengths(layer.fan_in, rows)
            bounds = np.cumsum((0,) + lengths)
            with netio._workspace().frame():
                for c, lo, hi in zip(netio._segment_counts(x, kernels, lengths, layer), bounds[:-1], bounds[1:]):
                    part = np.zeros(kernels.shape, np.int64)
                    part[:, lo:hi] = 2 * kernels[:, lo:hi].astype(np.int64) - 1
                    got, want = 2 * c.astype(np.int64) - (hi - lo), window_dots(2 * x.astype(np.int64) - 1, part, layer)
                    yield f"{name} on {rows} rows, columns {lo}:{hi}", _first_diff(got, want)
        pixels = rng.integers(0, 256, (2, h, w, ch), dtype=np.uint8)
        w8 = rng.integers(-128, 128, (5, layer.fan_in), dtype=np.int8)
        want = window_dots(pixels.astype(np.int64), w8, layer)
        yield f"{name} pixels", _first_diff(pixel_matmul(pixels, w8, layer), want)
    for channels in (514, 515):
        layer = dataflow.ConvLayer(channels, 2, 3, 4, 1, binarized=False)
        pixels, w8 = np.full((2, 3, 4, channels), 255, np.uint8), np.full((2, channels), -128, np.int8)
        want = window_dots(pixels.astype(np.int64), w8, layer)
        yield f"1x1 pixel conv over {channels} channels", _first_diff(pixel_matmul(pixels, w8, layer), want)
    layer = dataflow.ConvLayer(45, 3, 6, 7, 5, binarized=False)
    edge = np.zeros((2, 6, 7, 45), np.uint8)
    edge[..., 0] = 1
    edge_w8 = np.full((3, layer.fan_in), -128, np.int8)
    edge_w8[:, :25] = 0  # channel 0's columns, in (c, i, j) order
    edge_w8[:, 0] = (-1, 0, 1)
    random = rng.integers(0, 256, edge.shape, dtype=np.uint8), rng.integers(-128, 128, edge_w8.shape, dtype=np.int8)
    for name, (pixels, w8) in (("random", random), ("edge", (edge, edge_w8))):
        want = window_dots(pixels.astype(np.int64), w8, layer)
        yield f"5x5 pixel conv, {name} pixels, dots", _first_diff(pixel_matmul(pixels, w8, layer), want)
        yield f"5x5 pixel conv, {name} pixels, bits", _first_diff(netio._pixel_bits(pixels, w8, layer), want >= 0)
    yield "5x5 pixel conv, edge dots as planted", _first_diff(want, np.tile([-1, 0, 1], (2 * 2 * 3, 1)))


@_first_failure
def conv_pool():
    """Every pool runs inside the conv before it (`netio._pixel_bits` and
    `netio._binarized` with `pool`), except pools on the input, which run
    alone in one `netio._pool_or`; pools after pools fold into one of their
    product (`netio._steps`). The pooled bits equal `max_pool` over the
    unfused layer's bits, pool after pool, and the mismatch count equals the
    unfused layer's, which equals the count of unpooled bits in which the
    chains differ. Every `POOL_CASES` shape at every `POOL_SIZES` size and
    every `FOLDED_CASES` case, ragged rows and columns included: the pixel
    conv, and, on a conv that follows no pool, a binarized conv over 4
    channels (so that every fan-in can be sensed) under the golden backend,
    on 512 rows (the shared exact readout, or one sensed segment) and on
    16 rows (fan-ins 4, 36 = 16+16+4 and 100 = 6x16+4), with the chains
    sharing their input or not."""
    rng = np.random.default_rng(6)
    refs = crossbar.ReferenceSet(16, 1, 3)
    backends = {
        "golden": "golden",
        "512 rows": netio.CrossbarBackend(crossbar.CrossbarConfig(), refs),
        "16 rows": netio.CrossbarBackend(crossbar.CrossbarConfig(16, 16), refs),
    }
    for case in [(shape, (), (size,)) for shape in POOL_CASES for size in POOL_SIZES] + list(FOLDED_CASES):
        (ch, h, w, k), before, after = case
        name, first, pool = _pool_case(case), math.prod(before), math.prod(after)
        layer = dataflow.ConvLayer(ch, 5, h // first, w // first, k, binarized=False)
        pools = [netio.PoolLayer(p, h, w) for p in before], [netio.PoolLayer(p, h, w) for p in after]
        steps, want = netio._steps([*pools[0], layer, *pools[1]]), [(None, first)] * bool(before) + [(layer, pool)]
        yield f"{name}, steps", None if steps == want else f"{steps}, want {want}"
        pixels = rng.integers(0, 256, (3, h, w, ch), dtype=np.uint8)
        w8 = rng.integers(-128, 128, (5, layer.fan_in), dtype=np.int8)
        x = functools.reduce(max_pool, before, pixels)
        unfused = netio._activation(layer, netio._pixel_bits(x, w8, layer), len(x))
        x = netio._pool_or(pixels, first) if before else pixels
        fused = netio._activation(layer, netio._pixel_bits(x, w8, layer, pool), len(x), pool)
        yield f"{name}, pixel conv", _first_diff(fused, functools.reduce(max_pool, after, unfused))
        if before:
            continue
        layer = dataflow.ConvLayer(4, 5, h, w, k)
        bits = rng.integers(0, 2, (3, h, w, 4), dtype=np.uint8)
        apart = bits ^ (rng.random(bits.shape) < 0.2)  # the crossbar chain's input, 20% of it flipped
        kernels = rng.integers(0, 2, (5, layer.fan_in), dtype=np.uint8)
        for (label, backend), inputs in itertools.product(backends.items(), ("shared", "apart")):
            if backend == "golden" and inputs == "apart":
                continue
            other = None if backend == "golden" else bits if inputs == "shared" else apart
            case = f"{name}, binarized conv, {label}, inputs {inputs}"
            golden, sensed, wrong = netio._binarized(layer, kernels, bits, other, backend)
            got = netio._binarized(layer, kernels, bits, other, backend, pool)
            yield f"{case}, golden bits", _first_diff(got[0], functools.reduce(max_pool, after, golden))
            if other is not None:
                yield f"{case}, crossbar bits", _first_diff(got[1], functools.reduce(max_pool, after, sensed))
                differ = int(np.count_nonzero(golden != sensed))
                yield f"{case}, unfused mismatch", None if wrong == differ else f"{wrong}, want {differ} differing bits"
            yield f"{case}, mismatch", None if got[2] == wrong else f"{got[2]}, want the unfused {wrong}"


@_first_failure
def dataflow_dots():
    """At bus widths 1/32 and bit widths 1/8, which must not change a dot."""
    rng = np.random.default_rng(2)
    for case in DATAFLOW_CASES:
        ch, h, w, k, pw = case
        layer = dataflow.ConvLayer(ch, 4, h, w, k)
        x = rng.integers(0, 2, (ch, h, w), dtype=np.uint8)
        kernels = rng.integers(0, 2, layer.weight_shape, dtype=np.uint8)
        want = netio._signed_matmul(x.transpose(1, 2, 0)[None], kernels.reshape(layer.out_channels, -1), layer)
        want = want.T.reshape(layer.out_channels, layer.out_h, layer.out_w)
        for bus, bits in itertools.product((1, 32), (1, 8)):
            got = dataflow.run_layer(x, kernels, None, pw, bits, bus)[0]
            yield f"{_conv(case)}, bus width {bus}, bit width {bits}", _first_diff(got, want)


@_first_failure
def bus_words():
    """`dataflow.run_layer` on random bits of every `DATAFLOW_CASES` shape
    at bit widths 1 and 8 logs the bus words `streamed_words_per_layer`
    gives, at bus widths 1 (the streamed bits) and 32."""
    rng = np.random.default_rng(2)
    for case, bit_width in itertools.product(DATAFLOW_CASES, (1, 8)):
        ch, h, w, k, pw = case
        layer = dataflow.ConvLayer(ch, 4, h, w, k)
        x = rng.integers(0, 2, (ch, h, w), dtype=np.uint8)
        kernels = rng.integers(0, 2, layer.weight_shape, dtype=np.uint8)
        for bus in (1, 32):
            logged = dataflow.run_layer(x, kernels, None, pw, bit_width, bus)[1].words_streamed
            closed = dataflow.streamed_words_per_layer(layer, bit_width, bus, pw)
            why = None if logged == closed else f"{logged} words logged, {closed} closed form"
            yield f"{_conv(case)}, bit width {bit_width}, bus width {bus}", why


CHECKS = (
    (f"xnor/popcount dot == signed dot, exhaustive nu<={NU_MAX}", signed_dots),
    ("worked 4-bit example products -2", worked_example),
    ("fitting layers match the majority rule", fitting_layers),
    (f"F1 sound / F2 complete over all count cells, splits {_shapes(CASCADE_SPLITS)}", cascade_guarantees),
    ("decide_counts == decide_batch on sa_read intervals, 3 and 5 references, int64 and float32 counts, "
     f"every count cell of the cascade splits, 10^5 tuples on {_shapes(MLPL_SPLITS)}", evaluators),
    (f"AND/OR fire iff every/any count exceeds its main reference, all count cells, splits {_shapes(CASCADE_SPLITS)}",
     and_or_definitions),
    (f"blocked pixel GEMM == int64 product, fan-ins {PIXEL_FAN_INS}", pixel_gemm),
    (f"centred pixel GEMM fires iff the dot >= 0, dots -1/0/+1 at centred sums near 2^24, fan-ins {CENTRED_FAN_INS}",
     centred_gemm),
    (f"packed +-1 lanes == int64 signed dot, all-match and all-mismatch rows, 7 rows, spans {LANE_SPANS}",
     packed_lanes),
    ("batched crossbar chain == scalar layer_forward, splits "
     f"{_shapes(crossbar.segment_lengths(n, rows) for rows, n in CHAIN_SPLITS)}", chain),
    ("pair-count census == raw exhaustive walk, false positives and negatives, AND/OR/F1/F2, nu 4 to 10", census),
    (f"conv band GEMM == int64 per-window dot, dataflow shapes on {' '.join(f'{r} rows' for r in CONV_SPLIT_ROWS)}, "
     "1x1 pixel conv at 514/515 channels, 5x5 pixel conv over 45 channels (two centred blocks)", conv_gemm),
    ("conv with the pool inside == _pool_or of the unfused conv, bits and mismatch, as reshape-max pools in verify, "
     f"pools {POOL_SIZES}, pixel and binarized convs, golden/512-row/16-row backends, "
     + " ".join(map(_conv, POOL_CASES)) + "; pools that fold, " + ", ".join(map(_pool_case, FOLDED_CASES)), conv_pool),
    ("conv dataflow == conv band GEMM signed dot, " + " ".join(map(_conv, DATAFLOW_CASES)), dataflow_dots),
    ("logged bus words == closed form, bus widths 1/32, bit widths 1/8", bus_words),
)


def run_verification(progress=print) -> list[str]:
    """Run every check in `CHECKS` in order, printing one [ok] line, or one
    [FAIL] line that names the check's first failing case, each. Returns one
    line per failed check: its name, that case and how to reproduce it."""
    failures = []
    for name, check in CHECKS:
        failure = check()
        progress(f"[ok] {name}" if failure is None else f"[FAIL] {name}: {failure}")
        if failure is not None:
            failures.append(f"{name}: {failure}; reproduce with xbarbnn.verify.{check.__name__}()")
    return failures
