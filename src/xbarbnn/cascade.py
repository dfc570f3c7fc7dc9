"""Cascading functions that merge per-segment sense-amp readouts into one
activation bit, plus exact and Monte-Carlo accuracy-loss analyses of the
mismatch regions they induce against the unsplit majority decision.

A policy is a bound table plus one threshold (`policy_bounds`): each
segment's bound starts at its bottom-interval value and rises at each of its
reference levels, and the policy fires iff the segment bounds sum to at
least the threshold. One table per policy serves both evaluators:
`decide_counts` senses each count with one compare per (segment, level)
into a uint8 interval code and looks the codes up in the tables' bound sums;
it is the batched path of inference, Monte-Carlo and the census.
`decide_batch` reads the tables at SA interval indices for the scalar
`cascade`.

Policies (n the vector size, k the segment count):

* AND / OR: the bound is 1 above the main reference; fire at k / at 1.
* F1 (conservative): the bound is the certified lower bound, the highest
  reference strictly below the count, and -n in the bottom interval, so an
  uncertified segment can never fire; fire at ceil(n/2). It fires only when
  the certified bounds already make a majority, so it never produces a
  false positive.
* F2 (relaxed): the dual of F1. The bound is the upper edge of the
  interval: the lowest reference at or above the count, or the segment
  length in the top interval; fire at floor(n/2) + 1. Every true count is at
  most its upper edge, so a true majority always fires F2: it never produces
  a false negative. Every upper edge is itself a possible count, so no
  complete rule that sees only the readouts fires less often; its loss is a
  small false-positive region. Upper edges lie strictly above the certified
  lower bounds, so F2 fires wherever F1 does.

Both rules sum bounds over any number of segments of any lengths. On two
equal halves of even length, F2 gives the same bits as the paper's
interval-midpoint rule (the midpoints sum to at least half the vector);
elsewhere the midpoint rule misses true majorities and is not used.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from .crossbar import ReferenceSet, SAReadout

POLICY_KINDS = ("AND", "OR", "F1", "F2")


def check_kind(kind: str) -> None:
    """Raise ValueError unless `kind` is one of `POLICY_KINDS`."""
    if kind not in POLICY_KINDS:
        raise ValueError(f"unknown cascade kind {kind!r}; known: {', '.join(POLICY_KINDS)}")


@dataclass(frozen=True)
class CascadePolicy:
    """A cascading rule plus the reference layout it assumes per segment."""

    kind: str
    refs: ReferenceSet

    def __post_init__(self):
        check_kind(self.kind)
        if self.kind in ("F1", "F2") and self.refs.count < 3:
            raise ValueError(f"{self.kind} needs at least one auxiliary reference pair (count >= 3)")


@dataclass(frozen=True)
class LossRegionReport:
    """Exact mismatch census of a cascade policy against the majority rule."""

    total_pairs: int
    mismatches: int
    false_positives: int
    false_negatives: int

    @property
    def loss_fraction(self) -> float:
        return self.mismatches / self.total_pairs


@dataclass(frozen=True)
class DistSpec:
    """Input model for Monte-Carlo runs: per vector, one match probability
    p ~ Normal(0.5, sigma) truncated to [0,1]; every XNOR-result bit is then
    i.i.d. Bernoulli(p), so segment counts are binomial with a shared p."""

    sigma: float = 0.15

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")

    def sample_p(self, rng: np.random.Generator, n: int) -> np.ndarray:
        out = rng.normal(0.5, self.sigma, n)
        bad = (out < 0.0) | (out > 1.0)
        while bad.any():  # redraw out-of-range values: truncation, not clipping
            out[bad] = rng.normal(0.5, self.sigma, int(bad.sum()))
            bad = (out < 0.0) | (out > 1.0)
        return out


@dataclass(frozen=True)
class MonteCarloLoss:
    samples: int
    mismatches: int
    false_positives: int
    false_negatives: int
    loss_fraction: float
    ci_low: float
    ci_high: float


def policy_bounds(kind: str, lengths, refs: ReferenceSet) -> tuple[list[tuple[tuple[int, ...], np.ndarray]], int]:
    """A cascade policy as bound tables plus a threshold.

    Returns, per segment of `lengths`, its reference levels (`refs`
    retargeted with `refs.for_segment`) and its bound in each of the
    count + 1 SA intervals, bottom first; the bound rises at each level.
    The policy fires iff the segment bounds sum to at least the threshold.
    The tables have a signed integer dtype that holds every bound sum.
    Raises ValueError on a kind outside `POLICY_KINDS`.
    """
    check_kind(kind)
    n, k, mid = sum(lengths), len(lengths), (refs.count - 1) // 2
    # every bound lies in [-n, n]; k of them and the threshold are summed
    dtype = np.int32 if (k + 1) * n < 2**31 else np.int64
    tables = []
    for m in lengths:
        levels = refs.for_segment(m).levels()
        if kind in ("AND", "OR"):
            bounds = [0] * (mid + 1) + [1] * (refs.count - mid)
        elif kind == "F1":
            bounds = [-n, *levels]
        else:
            bounds = [*levels, m]
        tables.append((levels, np.asarray(bounds, dtype)))
    threshold = {"AND": k, "OR": 1, "F1": (n + 1) // 2, "F2": n // 2 + 1}[kind]
    return tables, threshold


def decide_batch(kind: str, intervals: np.ndarray, lengths, refs: ReferenceSet) -> np.ndarray:
    """Cascade decision from SA readouts, the evaluator of the scalar
    `cascade`: each segment's bound is read from its `policy_bounds` table
    with one `take`, and the bounds are summed.

    intervals: (batch, segments) interval indices from the SA readouts, of
    any integer dtype and layout.
    lengths: logical length of each segment; the vector size is their sum.
    Returns a boolean array of activation bits.
    """
    tables, threshold = policy_bounds(kind, lengths, refs)
    intervals = np.asarray(intervals)
    total = np.zeros(intervals.shape[0], tables[0][1].dtype)
    for s, (_, bounds) in enumerate(tables):
        total += bounds.take(intervals[:, s])
    return total >= threshold


def decide_counts(kind: str, counts, lengths, refs: ReferenceSet, empty=np.empty, out=None) -> np.ndarray:
    """Cascade decision from per-segment column counts: the batched path of
    inference, the census and Monte-Carlo.

    counts: one array per segment, all of one shape, of any integer or float
    dtype holding integers; any iterable, drawn in order, and each is read
    before the next is drawn, so they may share one buffer.
    empty: `np.empty`-like maker of the uninitialised accumulators; they
    live only during the call.
    out: a boolean array in the shape of the counts that receives the bits;
    made when None.

    As a multi-reference SA senses it, each segment's interval index counts
    the reference levels its count exceeds, one compare per (segment, level)
    at which the `policy_bounds` table rises; counts outside 0..length land
    in the bottom or top interval. Consecutive segments whose interval
    tuples number at most 256 form a group with one uint8 code per element
    (a wider code only for a segment of more than 255 levels), and each
    group is looked up once in the table of its bound sums. Returns
    the activation bits, in the shape of the counts.
    """
    tables, threshold = policy_bounds(kind, lengths, refs)
    segments = []  # per segment: the levels where its bound rises, its bound below and above each
    for levels, bounds in tables:
        rises = np.flatnonzero(np.diff(bounds))
        segments.append(([levels[i] for i in rises], bounds[np.r_[0, rises + 1]]))
    groups = []
    for seg in segments:
        if not groups or math.prod(len(b) for _, b in groups[-1]) * len(seg[1]) > 256:
            groups.append([])
        groups[-1].append(seg)
    sizes = [math.prod(len(bounds) for _, bounds in group) for group in groups]
    code_dtype = np.min_scalar_type(max(sizes) - 1)  # uint8 unless one segment has over 255 levels
    counts = iter(counts)
    code = above = index = total = None
    for group in groups:
        for s, (levels, bounds) in enumerate(group):
            count = next(counts)
            if code is None:
                code, above = empty(np.shape(count), code_dtype), empty(np.shape(count), np.bool_)
            if s == 0:
                code[...] = 0
            else:
                code *= len(bounds)
            for level in levels:
                np.greater(count, level, out=above)
                code += above.view(np.uint8)
        sums = functools.reduce(np.add.outer, [bounds for _, bounds in group]).ravel()
        if index is None:
            index = empty((min(code.size, _LOOKUP_BLOCK),), np.intp)
        if len(groups) == 1:
            return _lookup(sums >= threshold, code, np.empty(code.shape, np.bool_) if out is None else out, index)
        if total is None:
            total, part = empty(code.shape, sums.dtype), empty(code.shape, sums.dtype)
            _lookup(sums, code, total, index)
        else:
            total += _lookup(sums, code, part, index)
    return np.greater_equal(total, threshold, out=out)


# elements per table lookup: the intp index scratch stays small
_LOOKUP_BLOCK = 1 << 14


def _lookup(table: np.ndarray, code: np.ndarray, out: np.ndarray, index: np.ndarray) -> np.ndarray:
    """`out` = `table[code]`, taken in blocks through the intp scratch
    `index`, so that no full-size index array is made."""
    flat_code, flat_out = code.reshape(-1), out.reshape(-1)
    for lo in range(0, flat_code.size, len(index)):
        idx = index[: min(len(index), flat_code.size - lo)]
        np.copyto(idx, flat_code[lo : lo + len(idx)])
        np.take(table, idx, out=flat_out[lo : lo + len(idx)], mode="clip")
    return out


def cascade(policy: CascadePolicy, readouts: list[SAReadout], segment_lengths: list[int]) -> int:
    """Final activation bit from per-segment readouts."""
    if not readouts:
        raise ValueError("no readouts to cascade")
    if len(readouts) != len(segment_lengths):
        raise ValueError("one segment length per readout required")
    intervals = np.array([[r.interval_index for r in readouts]])
    out = decide_batch(policy.kind, intervals, segment_lengths, policy.refs)
    return int(out[0])


def pair_count(half: int, matches: int) -> int:
    """Number of (A, B) half-vector pairs of length `half` whose XNOR result
    has exactly `matches` ones: choose the matching positions, then A is
    free (the factor 2^m * 2^(half-m) collapses to 2^half)."""
    return math.comb(half, matches) * (1 << half)


def enumerate_loss(vector_size: int, segment: int, policy: CascadePolicy) -> LossRegionReport:
    """Exact loss census over every (A, B) pair, done by weighting each
    per-half match-count cell (m, n) with its closed-form pair count.

    Both the golden rule and every cascade policy are functions of the
    per-segment counts alone, so the cell walk is exhaustive over raw
    vector pairs. Cost grows with vector_size^2; meant for small sizes.
    """
    if vector_size % 2 or segment != vector_size // 2:
        raise ValueError("analysis covers the even split into two equal segments")
    seg2 = vector_size - segment
    m = np.repeat(np.arange(segment + 1), seg2 + 1)
    n = np.tile(np.arange(seg2 + 1), segment + 1)
    golden = 2 * (m + n) > vector_size
    out = decide_counts(policy.kind, (m, n), (segment, seg2), policy.refs)

    # python-int weights: pair counts overflow int64 past nu ~ 30
    wm = np.array([pair_count(segment, v) for v in range(segment + 1)], dtype=object)
    wn = np.array([pair_count(seg2, v) for v in range(seg2 + 1)], dtype=object)
    cells = (segment + 1, seg2 + 1)
    fp, fn = (
        int(wm @ mask.reshape(cells).astype(object) @ wn) for mask in (out & ~golden, golden & ~out)
    )
    total = (1 << (2 * segment)) * (1 << (2 * seg2))
    return LossRegionReport(total, fp + fn, fp, fn)


def _wilson(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    if n == 0:
        return (0.0, 1.0)
    phat = k / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def monte_carlo_loss(
    policy: CascadePolicy,
    vector_size: int,
    segment: int,
    distribution: DistSpec,
    samples: int,
    seed: int,
) -> MonteCarloLoss:
    """Loss estimate with a 95% Wilson interval; deterministic for a seed."""
    if samples < 1:
        raise ValueError("need at least one sample")
    seg2 = vector_size - segment
    rng = np.random.default_rng(seed)
    p = distribution.sample_p(rng, samples)
    d1 = rng.binomial(segment, p)
    d2 = rng.binomial(seg2, p)
    golden = 2 * (d1 + d2) > vector_size
    out = decide_counts(policy.kind, (d1, d2), (segment, seg2), policy.refs)
    fp = int((out & ~golden).sum())
    fn = int((~out & golden).sum())
    lo, hi = _wilson(fp + fn, samples)
    return MonteCarloLoss(samples, fp + fn, fp, fn, (fp + fn) / samples, lo, hi)


@dataclass(frozen=True)
class SweepRow:
    policy: str
    vector_size: int
    segment: int
    ref_count: int
    distance: int
    result: MonteCarloLoss


def sweep_reference_distance(
    policy: CascadePolicy,
    vector_size: int,
    segment: int,
    x_grid,
    distribution: DistSpec,
    samples: int,
    seed: int,
) -> tuple[list[SweepRow], list[tuple[int, str]]]:
    """One Monte-Carlo row per admissible auxiliary-reference distance.

    Distances whose references would leave the valid range are rejected and
    reported with a diagnostic instead of a row. Per-row seeds are spawned
    from the sweep seed by grid index, so rejections do not shift streams.
    """
    rows, rejected = [], []
    children = np.random.SeedSequence(seed).spawn(len(list(x_grid)))
    for i, x in enumerate(x_grid):
        try:
            refs = ReferenceSet(policy.refs.segment_length, int(x), policy.refs.count)
            row_policy = CascadePolicy(policy.kind, refs)
            # both segments must admit the layout before any sampling
            row_policy.refs.for_segment(segment)
            row_policy.refs.for_segment(vector_size - segment)
        except ValueError as err:
            rejected.append((int(x), str(err)))
            continue
        row_seed = int(children[i].generate_state(1)[0])
        result = monte_carlo_loss(row_policy, vector_size, segment, distribution, samples, row_seed)
        rows.append(SweepRow(policy.kind, vector_size, segment, policy.refs.count, int(x), result))
    return rows, rejected


SWEEP_CSV_COLUMNS = (
    "policy", "nu", "segment", "ref_count", "x",
    "loss_fraction", "ci_low", "ci_high", "mismatch_fp", "mismatch_fn",
)


def sweep_rows_to_csv(rows: list[SweepRow], header_lines: list[str] | None = None) -> str:
    buf = io.StringIO()
    for line in header_lines or []:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    for r in rows:
        writer.writerow([
            r.policy, r.vector_size, r.segment, r.ref_count, r.distance,
            f"{r.result.loss_fraction:.6g}", f"{r.result.ci_low:.6g}", f"{r.result.ci_high:.6g}",
            r.result.false_positives, r.result.false_negatives,
        ])
    return buf.getvalue()
