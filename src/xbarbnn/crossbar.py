"""Functional model of a memristor crossbar running XNOR-dot columns in
parallel, with sense-amplifier thresholding and column splitting for weight
vectors longer than the array.

The array itself is ideal: every bitline popcount is exact, and all accuracy
loss comes from splitting a vector over several columns and recombining the
per-column threshold readouts.

`segment_lengths` is the only split policy: every caller that splits a
vector (the mapping below, the batched inference chain, the cost model)
asks it for the segment lengths. The batched SA readout lives in
`cascade.decide_counts`, which compares every column count with each
reference level once, as a multi-reference SA does with one comparator per
reference. The per-vector path (`map_weights`, `split_inputs`, `sa_read`,
`layer_forward`) works on packed `BinaryTensor`s one decision at a time; it
is the oracle the batched chain is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bincore import BinaryTensor, _pack, popcount, xnor


@dataclass(frozen=True)
class CrossbarConfig:
    """Array geometry: wordlines (rows) by bitlines (cols)."""

    rows: int = 512
    cols: int = 512

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("crossbar dimensions must be positive")

    @classmethod
    def parse(cls, text: str) -> "CrossbarConfig":
        """Parse 'RxC' strings such as '512x512'."""
        try:
            rows, cols = (int(p) for p in text.lower().split("x"))
        except ValueError:
            raise ValueError(f"bad crossbar geometry {text!r}, expected e.g. 512x512") from None
        return cls(rows, cols)


@dataclass(frozen=True)
class ReferenceSet:
    """Sense-amplifier thresholds for one column segment.

    The main reference sits at half the segment's logical length; `count`
    (odd) references total, the auxiliary ones at multiples of `distance`
    around the main. All references must lie strictly inside (0, length).
    """

    segment_length: int
    distance: int = 0
    count: int = 1

    def __post_init__(self):
        if self.segment_length < 2:
            raise ValueError("segment too short for a reference")
        if self.count < 1 or self.count % 2 == 0:
            raise ValueError("reference count must be odd and positive")
        if self.count > 1 and self.distance < 1:
            raise ValueError("auxiliary references need a positive distance")
        half = (self.count - 1) // 2
        if self.main - half * self.distance <= 0 or self.main + half * self.distance >= self.segment_length:
            raise ValueError(
                f"references outside (0, {self.segment_length}): "
                f"main={self.main} distance={self.distance} count={self.count}"
            )

    @property
    def main(self) -> int:
        return self.segment_length // 2

    def levels(self) -> tuple[int, ...]:
        """All thresholds, strictly increasing; the main is the middle one."""
        half = (self.count - 1) // 2
        return tuple(self.main + j * self.distance for j in range(-half, half + 1))

    def for_segment(self, segment_length: int) -> "ReferenceSet":
        """Same reference layout retargeted to another segment length."""
        return ReferenceSet(segment_length, self.distance, self.count)


@dataclass(frozen=True)
class SAReadout:
    """Which inter-reference interval a column level landed in.

    interval_index counts references strictly below the level, so 0 means
    at-or-below the lowest reference and `count` means above the highest.
    One comparison cycle is spent per reference.
    """

    interval_index: int
    cycles_used: int


def segment_lengths(n: int, rows: int) -> tuple[int, ...]:
    """Logical lengths of the column segments an n-bit vector occupies on an
    array of `rows` wordlines: full columns first, then one shorter tail."""
    if n < 1:
        raise ValueError(f"vector length must be positive, got {n}")
    full, tail = divmod(n, rows)
    return (rows,) * full + ((tail,) if tail else ())


@dataclass(frozen=True)
class MappedColumnGroup:
    """One logical weight vector split over contiguous column segments.

    Every segment is as long as the first; pad cells past a segment's
    logical length hold weight bit 0 and are driven with input bit 1, so
    each pad position XNORs to 0 and never disturbs the bitline popcount.
    """

    logical_lengths: tuple[int, ...]
    segments: tuple[BinaryTensor, ...] = field(repr=False)

    @property
    def vector_size(self) -> int:
        return sum(self.logical_lengths)

    @property
    def splits(self) -> int:
        return len(self.logical_lengths)


def _split_bits(bits: np.ndarray, lengths: tuple[int, ...], pad: int) -> tuple[BinaryTensor, ...]:
    """The segments of logical `lengths` of the 0/1 `bits` of a
    `BinaryTensor`, each as long as the first, with `pad` past its logical
    length. The bits come from a tensor, which holds only 0 and 1, so the
    segments are packed without `BinaryTensor.from_bits`' check."""
    padded = np.full((len(lengths), lengths[0]), pad, dtype=np.uint8)
    start = 0
    for row, m in zip(padded, lengths):
        row[:m] = bits[start : start + m]
        start += m
    return tuple(BinaryTensor((lengths[0],), _pack(row)) for row in padded)


def map_weights(w: BinaryTensor, cfg: CrossbarConfig) -> MappedColumnGroup:
    """Split a weight vector into column segments of at most cfg.rows bits."""
    lengths = segment_lengths(w.size, cfg.rows)
    return MappedColumnGroup(lengths, _split_bits(w.bits().ravel(), lengths, 0))


def split_inputs(a: BinaryTensor, group: MappedColumnGroup) -> tuple[BinaryTensor, ...]:
    """Slice an input vector to match a group's segments, pad lines driven to 1."""
    if a.size != group.vector_size:
        raise ValueError(f"input length {a.size} does not match group ({group.vector_size})")
    return _split_bits(a.bits().ravel(), group.logical_lengths, 1)


def column_popcount(inputs: BinaryTensor, weights: BinaryTensor) -> int:
    """Bitline summation for one column: popcount of the XNOR result."""
    if inputs.size != weights.size:
        raise ValueError(f"segment length mismatch: {inputs.size} vs {weights.size}")
    return popcount(xnor(inputs, weights))


def sa_read(level: int, refs: ReferenceSet) -> SAReadout:
    """Threshold a column level against every reference (strict > comparator)."""
    if not 0 <= level <= refs.segment_length:
        raise ValueError(f"level {level} outside [0, {refs.segment_length}]")
    idx = sum(level > r for r in refs.levels())
    return SAReadout(idx, refs.count)


def layer_forward(inputs: BinaryTensor, group: MappedColumnGroup, refs: ReferenceSet, policy) -> int:
    """Activation bit for one mapped weight vector.

    With a single segment this is the exact majority decision; with several
    segments the per-segment readouts pass through the cascade policy.
    """
    from .cascade import cascade

    lengths = group.logical_lengths
    readouts = []
    for seg_in, seg_w, length in zip(split_inputs(inputs, group), group.segments, lengths):
        level = column_popcount(seg_in, seg_w)
        readouts.append(sa_read(level, refs.for_segment(length)))
    if group.splits == 1:
        mid = (refs.count - 1) // 2
        return 1 if readouts[0].interval_index > mid else 0
    return cascade(policy, readouts, list(lengths))
