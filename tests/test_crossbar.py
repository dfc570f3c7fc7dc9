import itertools

import numpy as np
import pytest

from conftest import random_bits
from xbarbnn.bincore import BinaryTensor, golden_activation, popcount, xnor
from xbarbnn.cascade import POLICY_KINDS, CascadePolicy, decide_batch, decide_counts
from xbarbnn.crossbar import (
    CrossbarConfig,
    ReferenceSet,
    column_popcount,
    layer_forward,
    map_weights,
    sa_read,
    split_inputs,
)
from xbarbnn.verify import scalar_intervals


class TestCrossbarConfig:
    def test_default_geometry(self):
        cfg = CrossbarConfig()
        assert (cfg.rows, cfg.cols) == (512, 512)

    def test_parse(self):
        assert CrossbarConfig.parse("256x128") == CrossbarConfig(256, 128)
        with pytest.raises(ValueError):
            CrossbarConfig.parse("512")

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            CrossbarConfig(0, 512)


class TestReferenceSet:
    def test_main_is_half_segment(self):
        assert ReferenceSet(512).main == 256
        assert ReferenceSet(271).main == 135

    def test_levels_strictly_increasing(self):
        refs = ReferenceSet(512, 20, 5)
        levels = refs.levels()
        assert levels == (216, 236, 256, 276, 296)
        assert all(a < b for a, b in zip(levels, levels[1:]))

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            ReferenceSet(512, 256, 3)  # main - x = 0
        with pytest.raises(ValueError):
            ReferenceSet(512, 300, 3)  # main + x past the segment
        with pytest.raises(ValueError):
            ReferenceSet(512, 20, 4)  # even count
        with pytest.raises(ValueError):
            ReferenceSet(512, 0, 3)  # auxiliaries need spacing

    def test_for_segment_retargets_main(self):
        refs = ReferenceSet(512, 16, 3)
        small = refs.for_segment(272)
        assert small.main == 136
        assert small.levels() == (120, 136, 152)


class TestSaRead:
    def test_single_reference_above(self):
        out = sa_read(300, ReferenceSet(512))
        assert out.interval_index == 1
        assert out.cycles_used == 1

    def test_between_low_and_main(self):
        refs = ReferenceSet(512, 20, 3)  # levels (236, 256, 276)
        assert sa_read(250, refs).interval_index == 1

    def test_level_equal_to_main_falls_below(self):
        refs = ReferenceSet(512)
        assert sa_read(256, refs).interval_index == 0

    def test_cycles_equal_reference_count(self):
        for count, x in ((1, 0), (3, 10), (5, 10), (7, 10)):
            refs = ReferenceSet(512, x, count)
            assert sa_read(100, refs).cycles_used == count

    def test_monotone_in_level(self):
        refs = ReferenceSet(64, 7, 5)
        seen = [sa_read(level, refs).interval_index for level in range(65)]
        assert seen == sorted(seen)
        assert seen[0] == 0 and seen[-1] == refs.count

    def test_out_of_range_rejected(self):
        refs = ReferenceSet(64)
        with pytest.raises(ValueError):
            sa_read(-1, refs)
        with pytest.raises(ValueError):
            sa_read(65, refs)


def _sa_intervals(counts, refs) -> np.ndarray:
    """Scalar `sa_read` interval of every count clipped into 0..length, flattened."""
    return scalar_intervals(np.ravel(counts)[:, None], (refs.segment_length,), refs)[:, 0]


class TestSaReadBatch:
    """The batched SA readout, one compare per reference level inside
    `decide_counts`, against `decide_batch` on the scalar comparator's
    intervals: on two equal segments, every count of the first against
    every count of the second, for every policy kind."""

    @pytest.mark.parametrize(
        "refs",
        [ReferenceSet(64, 7, 3), ReferenceSet(64, 7, 5), ReferenceSet(64, 4, 7), ReferenceSet(512, 1, 301)],
        ids=["3", "5", "7", "301"],
    )
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_equals_sa_read_in_range_and_searchsorted_outside(self, refs, dtype):
        m = refs.segment_length
        outside = np.array([-3, -2, -1, m + 1, m + 2, m + 3])
        assert np.searchsorted(np.asarray(refs.levels()), outside, side="left").tolist() == [0] * 3 + [refs.count] * 3
        assert _sa_intervals(outside, refs).tolist() == [0] * 3 + [refs.count] * 3
        step = 1 if m <= 64 else 7  # the second segment's counts
        first, second = np.meshgrid(np.concatenate([np.arange(m + 1), outside]), np.arange(0, m + 1, step))
        intervals = np.stack([_sa_intervals(first, refs), _sa_intervals(second, refs)], axis=1)
        for kind in POLICY_KINDS:
            got = decide_counts(kind, (first.astype(dtype), second.astype(dtype)), (m, m), refs)
            assert np.array_equal(got.ravel(), decide_batch(kind, intervals, (m, m), refs)), kind

    def test_index_dtype_holds_the_reference_count(self):
        # the top interval of 301 references needs a uint16 readout; the
        # count evaluator holds no index and must agree with it
        for refs, dtype in ((ReferenceSet(512, 1, 301), np.uint16), (ReferenceSet(64, 7, 3), np.uint8)):
            m, levels = refs.segment_length, refs.levels()
            second = np.array([0, *(v + 1 for v in levels)])  # one count per interval, bottom first
            intervals = np.stack([np.full(len(second), refs.count), np.arange(refs.count + 1)], axis=1)
            assert intervals.max() == refs.count and _sa_intervals(second, refs).tolist() == intervals[:, 1].tolist()
            for kind in POLICY_KINDS:
                got = decide_counts(kind, (np.full(len(second), m), second), (m, m), refs)
                assert np.array_equal(got, decide_batch(kind, intervals.astype(dtype), (m, m), refs)), kind

    def test_keeps_the_shape_of_2d_levels(self, rng):
        refs = ReferenceSet(64, 7, 5)
        counts = rng.integers(0, 65, (2, 6, 9))
        intervals = np.stack([_sa_intervals(c, refs) for c in counts], axis=1)
        for kind in POLICY_KINDS:
            got = decide_counts(kind, counts, (64, 64), refs)
            assert got.shape == (6, 9)
            assert np.array_equal(got.ravel(), decide_batch(kind, intervals, (64, 64), refs))


class TestMapWeights:
    def test_single_segment_fit(self, rng):
        group = map_weights(random_bits(rng, 512), CrossbarConfig())
        assert group.splits == 1
        assert group.logical_lengths == (512,)

    def test_two_full_segments(self, rng):
        group = map_weights(random_bits(rng, 1024), CrossbarConfig())
        assert group.splits == 2
        assert group.logical_lengths == (512, 512)

    def test_padded_final_segment(self, rng):
        w = random_bits(rng, 784)
        group = map_weights(w, CrossbarConfig())
        assert group.splits == 2
        assert group.logical_lengths == (512, 272)
        # reassembly oracle: segment bits concatenated give back the vector
        tail = group.segments[1].bits()
        assert (tail[272:] == 0).all()  # 240 zero pad cells
        rebuilt = np.concatenate([group.segments[0].bits(), tail[:272]])
        assert (rebuilt == w.bits()).all()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            map_weights(BinaryTensor.from_bits([]), CrossbarConfig())


class TestColumnPopcount:
    def test_full_match(self, rng):
        seg = random_bits(rng, 256)
        assert column_popcount(seg, seg) == 256

    def test_worked_subexample(self):
        a = BinaryTensor.from_bits([1, 0, 0, 1])
        b = BinaryTensor.from_bits([0, 1, 1, 1])
        assert column_popcount(a, b) == 1

    def test_matches_bincore_oracle(self, rng):
        a, w = random_bits(rng, 512), random_bits(rng, 512)
        assert column_popcount(a, w) == popcount(xnor(a, w))

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            column_popcount(random_bits(rng, 8), random_bits(rng, 9))


class TestSplitConsistency:
    @pytest.mark.parametrize("n", [512, 784, 1024, 1500])
    def test_segment_popcounts_sum_to_total(self, rng, n):
        cfg = CrossbarConfig()
        a, w = random_bits(rng, n), random_bits(rng, n)
        group = map_weights(w, cfg)
        parts = [
            column_popcount(si, sw)
            for si, sw in zip(split_inputs(a, group), group.segments)
        ]
        assert sum(parts) == popcount(xnor(a, w))

    def test_pad_positions_contribute_zero(self, rng):
        # 5 bits over 4-row segments: the final segment carries 3 pad cells
        cfg = CrossbarConfig(rows=4)
        a, w = random_bits(rng, 5), random_bits(rng, 5)
        group = map_weights(w, cfg)
        seg_in = split_inputs(a, group)[1]
        assert seg_in.bits()[1:].tolist() == [1, 1, 1]  # pad lines driven to 1
        assert group.segments[1].bits()[1:].tolist() == [0, 0, 0]  # pad cells 0
        contribution = column_popcount(seg_in, group.segments[1])
        assert contribution == int(a.bits()[4] == w.bits()[4])


class TestLayerForward:
    def _forward(self, a, w, cfg, count=1, x=0, kind="AND"):
        group = map_weights(w, cfg)
        refs = ReferenceSet(max(2, min(cfg.rows, w.size)), x, count)
        return layer_forward(a, group, refs, CascadePolicy(kind, refs))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_fitting_exhaustive_equals_golden(self, n):
        cfg = CrossbarConfig()
        tensors = [
            BinaryTensor.from_bits([(v >> i) & 1 for i in range(n)]) for v in range(1 << n)
        ]
        for a, w in itertools.product(tensors, repeat=2):
            assert self._forward(a, w, cfg) == golden_activation(a, w)

    def test_fitting_exhaustive_levels_up_to_nu10(self):
        # the decision depends on the input pair only through the match
        # count, so scanning every count is exhaustive over pairs
        for n in range(2, 11):
            refs = ReferenceSet(n)
            for d in range(n + 1):
                above = sa_read(d, refs).interval_index == 1
                assert above == (2 * d > n)

    def test_fitting_random_large(self, rng):
        cfg = CrossbarConfig()
        for _ in range(300):
            n = int(rng.integers(2, 513))
            a, w = random_bits(rng, n), random_bits(rng, n)
            assert self._forward(a, w, cfg) == golden_activation(a, w)

    def test_multi_reference_fitting_still_exact(self, rng):
        cfg = CrossbarConfig()
        for _ in range(100):
            n = int(rng.integers(32, 513))
            a, w = random_bits(rng, n), random_bits(rng, n)
            assert self._forward(a, w, cfg, count=3, x=5, kind="F2") == golden_activation(a, w)

    def test_split_and_policy_agreement_case(self):
        # all-match vector over two 4-row segments: both columns saturate
        cfg = CrossbarConfig(rows=4)
        a = BinaryTensor.from_bits([1] * 8)
        assert self._forward(a, a, cfg) == 1 == golden_activation(a, a)

    def test_split_and_policy_false_negative_case(self):
        # segment distances (1, 4): AND misses although the overall majority
        # holds; this is the known false-negative region of the split rule
        cfg = CrossbarConfig(rows=4)
        a = BinaryTensor.from_bits([1, 1, 1, 1, 1, 0, 1, 0])
        w = BinaryTensor.from_bits([0, 0, 0, 1, 1, 0, 1, 0])
        group = map_weights(w, cfg)
        d1 = column_popcount(split_inputs(a, group)[0], group.segments[0])
        d2 = column_popcount(split_inputs(a, group)[1], group.segments[1])
        assert (d1, d2) == (1, 4)
        assert golden_activation(a, w) == 1
        assert self._forward(a, w, cfg) == 0

    def test_splitter_shape_16_12_f1_sound_f2_complete(self, rng):
        # 28 bits over 16 rows: the greedy splitter builds 16+12. Inputs
        # match the weights on the first d1 (d2) positions of each segment,
        # so every per-segment count cell is reached.
        cfg = CrossbarConfig(rows=16)
        w = random_bits(rng, 28)
        group = map_weights(w, cfg)
        assert group.logical_lengths == (16, 12)
        for x in range(1, 6):
            refs = ReferenceSet(16, x, 3)
            f1, f2 = CascadePolicy("F1", refs), CascadePolicy("F2", refs)
            for d1, d2 in itertools.product(range(17), range(13)):
                match = np.zeros(28, dtype=np.uint8)
                match[:d1] = 1
                match[16 : 16 + d2] = 1
                a = BinaryTensor.from_bits(w.bits() ^ match ^ 1)
                golden = golden_activation(a, w)
                assert golden == int(2 * (d1 + d2) > 28)
                assert not (layer_forward(a, group, refs, f1) == 1 and golden == 0), (x, d1, d2)
                assert not (layer_forward(a, group, refs, f2) == 0 and golden == 1), (x, d1, d2)

    def test_shape_mismatch_rejected(self, rng):
        cfg = CrossbarConfig()
        group = map_weights(random_bits(rng, 16), cfg)
        refs = ReferenceSet(16)
        with pytest.raises(ValueError):
            layer_forward(random_bits(rng, 15), group, refs, CascadePolicy("AND", refs))
