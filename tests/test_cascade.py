import itertools
import math

import numpy as np
import pytest

from xbarbnn import cascade as cas
from xbarbnn.crossbar import ReferenceSet, sa_read
from xbarbnn.verify import raw_pair_loss


def _readouts(refs, seg1, seg2, d1, d2):
    return [sa_read(d1, refs.for_segment(seg1)), sa_read(d2, refs.for_segment(seg2))]


def _decide(kind, nu, x, count, d1, d2):
    seg = nu // 2
    refs = ReferenceSet(seg, x, count)
    pol = cas.CascadePolicy(kind, refs)
    return cas.cascade(pol, _readouts(refs, seg, seg, d1, d2), [seg, seg])


def _golden(d1, d2, nu):
    return 1 if 2 * (d1 + d2) > nu else 0


def _distances(seg, count):
    """Auxiliary-reference distances whose levels fit inside (0, seg)."""
    span = count // 2
    return [x for x in range(1, seg) if 0 < seg // 2 - span * x and seg // 2 + span * x < seg]


class TestPolicyValidation:
    def test_kinds(self):
        with pytest.raises(ValueError):
            cas.CascadePolicy("XOR", ReferenceSet(8))

    def test_f1_f2_need_auxiliaries(self):
        for kind in ("F1", "F2"):
            with pytest.raises(ValueError):
                cas.CascadePolicy(kind, ReferenceSet(8, 0, 1))
            cas.CascadePolicy(kind, ReferenceSet(8, 1, 3))  # fine


class TestCascadeRules:
    def test_and_both_above(self):
        assert _decide("AND", 8, 0, 1, 3, 3) == 1
        assert _decide("AND", 8, 0, 1, 3, 2) == 0

    def test_or_any_above(self):
        assert _decide("OR", 8, 0, 1, 3, 0) == 1
        assert _decide("OR", 8, 0, 1, 2, 2) == 0

    def test_f1_false_negative_cell(self):
        # counts (3, 6) on 8+8: readouts land between low ref and main /
        # between main and high ref; no lower-bound pair certifies a
        # majority, yet the true sum 9 > 8
        assert _golden(3, 6, 16) == 1
        assert _decide("F1", 16, 2, 3, 3, 6) == 0

    def test_f2_rescues_that_cell_by_midpoints(self):
        assert _decide("F2", 16, 2, 3, 3, 6) == 1

    def test_f1_fires_on_certified_pairs(self):
        # above high ref on one side and above low ref on the other
        assert _decide("F1", 16, 2, 3, 7, 3) == 1
        # both strictly above their mains
        assert _decide("F1", 16, 2, 3, 5, 5) == 1

    def test_errors(self):
        refs = ReferenceSet(8, 1, 3)
        pol = cas.CascadePolicy("F1", refs)
        with pytest.raises(ValueError):
            cas.cascade(pol, [], [])
        with pytest.raises(ValueError):
            cas.cascade(pol, _readouts(refs, 8, 8, 1, 1), [8])
        with pytest.raises(ValueError, match="unknown cascade kind 'XOR'"):
            cas.decide_batch("XOR", np.zeros((1, 2), np.uint8), (8, 8), refs)

    @pytest.mark.parametrize("kind", ["F1", "F2"])
    @pytest.mark.parametrize("count, small", [(3, np.uint8), (301, np.uint16)])
    def test_bits_do_not_depend_on_interval_dtype_or_layout(self, rng, kind, count, small):
        # mlp-l's layer-1 split; a readout needs uint8 up to 255 references
        # and uint16 beyond
        lengths, refs = (512, 512, 476), ReferenceSet(512, 1, count)
        intervals = rng.integers(0, count + 1, (2000, 3))
        # int64 reference: per-segment bound tables indexed row by row
        lows = [np.array([0, *refs.for_segment(m).levels()]) for m in lengths]
        highs = [np.array([*refs.for_segment(m).levels(), m]) for m in lengths]
        if kind == "F1":
            bound = sum(t[intervals[:, s]] for s, t in enumerate(lows))
            want = (intervals >= 1).all(axis=1) & (2 * bound >= sum(lengths))
        else:
            want = 2 * sum(t[intervals[:, s]] for s, t in enumerate(highs)) > sum(lengths)
        for dtype in (small, np.intp):
            c_order = intervals.astype(dtype)
            for layout in (c_order, np.ascontiguousarray(c_order.T).T):  # C order, transposed
                assert np.array_equal(cas.decide_batch(kind, layout, lengths, refs), want)


class TestPolicyBounds:
    def test_tables_and_thresholds(self):
        refs, lengths = ReferenceSet(16, 2, 3), (16, 12)  # levels (6, 8, 10) and (4, 6, 8)
        want = {
            "AND": ([[0, 0, 1, 1], [0, 0, 1, 1]], 2),
            "OR": ([[0, 0, 1, 1], [0, 0, 1, 1]], 1),
            "F1": ([[-28, 6, 8, 10], [-28, 4, 6, 8]], 14),
            "F2": ([[6, 8, 10, 16], [4, 6, 8, 12]], 15),
        }
        for kind, (bounds, threshold) in want.items():
            tables, got = cas.policy_bounds(kind, lengths, refs)
            assert [levels for levels, _ in tables] == [(6, 8, 10), (4, 6, 8)]
            assert [t.tolist() for _, t in tables] == bounds
            assert got == threshold

    def test_f1_fires_only_with_every_segment_certified(self):
        # 8+8+8+5 at distance 1: three full counts certify 5 + 5 + 5 = 15 =
        # ceil(29/2), yet a tail in its bottom interval certifies nothing
        lengths, refs = (8, 8, 8, 5), ReferenceSet(8, 1, 3)
        for tail, fires in ((0, False), (1, False), (2, True)):
            counts = ([8], [8], [8], [tail])
            intervals = [[sa_read(c[0], refs.for_segment(m)).interval_index for c, m in zip(counts, lengths)]]
            assert cas.decide_counts("F1", counts, lengths, refs)[0] == fires
            assert cas.decide_batch("F1", intervals, lengths, refs)[0] == fires

    def test_sums_past_int32_switch_to_int64(self):
        # 23200 segments of 4: the F1 bottoms sum to -4 * 23200^2 < -2^31,
        # which int32 would wrap into a false fire
        lengths, refs = (4,) * 23200, ReferenceSet(4, 1, 3)
        assert cas.policy_bounds("F1", lengths, refs)[0][0][1].dtype == np.int64
        assert cas.policy_bounds("F1", lengths[:100], refs)[0][0][1].dtype == np.int32
        zeros = np.zeros((len(lengths), 1), np.int64)
        assert not cas.decide_counts("F1", zeros, lengths, refs)[0]
        assert cas.decide_counts("F1", zeros + 4, lengths, refs)[0]


class TestEventPredicates:
    """The mismatch sets must equal the published loss-event regions for the
    two cascading functions, under the strict comparator (a count equal to a
    reference falls below it)."""

    @pytest.mark.parametrize("nu", [8, 16, 24, 32])
    def test_f1_f2_mismatch_sets_match_transcribed_events(self, nu):
        seg = nu // 2
        main = seg // 2
        for x in range(1, main):
            if main + x >= seg:
                continue
            r0 = r3 = main - x
            r1 = r4 = main
            r2 = r5 = main + x
            for d1, d2 in itertools.product(range(seg + 1), repeat=2):
                g = _golden(d1, d2, nu)
                s2 = 2 * (d1 + d2)
                v1 = _decide("F1", nu, x, 3, d1, d2)
                f1_events = (
                    (d2 > r5 and d1 <= r0 and s2 > nu)
                    or (d2 <= r3 and d1 > r2 and s2 > nu)
                    or (r4 < d2 <= r5 and r0 < d1 <= r1 and s2 > nu)
                    or (r3 < d2 <= r4 and r1 < d1 <= r2 and s2 > nu)
                )
                assert (v1 != g) == f1_events, (nu, x, d1, d2)
                v2 = _decide("F2", nu, x, 3, d1, d2)
                f2_events = (
                    (d2 > r5 and s2 <= nu)
                    or (d1 > r2 and s2 <= nu)
                    or (r3 < d2 <= r4 and r1 < d1 <= r2 and s2 <= nu)
                    or (r4 < d2 <= r5 and r0 < d1 <= r1 and s2 <= nu)
                )
                assert (v2 != g) == f2_events, (nu, x, d1, d2)

    def test_f1_never_false_positive_f2_never_false_negative(self):
        for nu in (8, 12, 16):
            seg = nu // 2
            for count in (3, 5):
                span = count // 2
                for x in range(1, (seg // 2) // span + 1):
                    if seg // 2 + span * x >= seg:
                        continue
                    for d1, d2 in itertools.product(range(seg + 1), repeat=2):
                        g = _golden(d1, d2, nu)
                        v1 = _decide("F1", nu, x, count, d1, d2)
                        v2 = _decide("F2", nu, x, count, d1, d2)
                        assert not (v1 == 1 and g == 0)
                        assert not (v2 == 0 and g == 1)
                        assert v2 >= v1

    @pytest.mark.parametrize("nu", [16, 24, 32])
    @pytest.mark.parametrize("count", [3, 5, 7])
    def test_f2_equals_midpoint_rule_on_even_halves(self, nu, count):
        # the paper's relaxed rule: F1, or the interval midpoints of the two
        # counts sum to at least half the vector (strict comparator)
        seg = nu // 2
        span = count // 2
        assert _distances(seg, count)
        for x in _distances(seg, count):
            levels = [seg // 2 + j * x for j in range(-span, span + 1)]

            def edges(d):
                lo = max((r for r in levels if r < d), default=0)
                hi = min((r for r in levels if r >= d), default=seg)
                return lo, hi

            for d1, d2 in itertools.product(range(seg + 1), repeat=2):
                (lo1, hi1), (lo2, hi2) = edges(d1), edges(d2)
                midpoint = lo1 + hi1 + lo2 + hi2 >= nu
                v1 = _decide("F1", nu, x, count, d1, d2)
                v2 = _decide("F2", nu, x, count, d1, d2)
                assert v2 == int(v1 or midpoint), (nu, count, x, d1, d2)


class TestRegionPredicates:
    """On an even split, AND mismatches exactly where the pair is a strict
    majority yet a half is at or below its main reference (floor(nu/4),
    under the strict comparator), and OR, its mirror, exactly where there is
    no strict majority yet a half is above it."""

    @pytest.mark.parametrize("nu", [8, 10, 12, 16, 20])
    def test_and_or_mismatches_exactly_fill_their_regions(self, nu):
        seg, main = nu // 2, nu // 4
        for d1, d2 in itertools.product(range(seg + 1), repeat=2):
            g = _golden(d1, d2, nu)
            s2 = 2 * (d1 + d2)
            a = _decide("AND", nu, 0, 1, d1, d2)
            o = _decide("OR", nu, 0, 1, d1, d2)
            assert (a != g) == (s2 > nu and (d1 <= main or d2 <= main)), (nu, d1, d2)
            assert (o != g) == (s2 <= nu and (d1 > main or d2 > main)), (nu, d1, d2)

    def test_region_count_equals_census_mismatches(self):
        nu, seg, main = 12, 6, 3
        pol = cas.CascadePolicy("AND", ReferenceSet(seg))
        report = cas.enumerate_loss(nu, seg, pol)
        weighted = sum(
            cas.pair_count(seg, d1) * cas.pair_count(seg, d2)
            for d1 in range(seg + 1)
            for d2 in range(seg + 1)
            if 2 * (d1 + d2) > nu and (d1 <= main or d2 <= main)
        )
        assert weighted == report.mismatches


class TestPairCount:
    def test_closed_form_identity(self):
        # C(h,m) * 2^m * 2^(h-m) collapses to C(h,m) * 2^h
        for h in (2, 4, 6, 10):
            for m in range(h + 1):
                literal = math.comb(h, m) * 2**m * 2 ** (h - m)
                assert cas.pair_count(h, m) == literal

    def test_counts_cover_all_pairs(self):
        h = 6
        assert sum(cas.pair_count(h, m) for m in range(h + 1)) == (1 << h) ** 2

    def test_count_matches_direct_enumeration(self):
        h = 4
        for m in range(h + 1):
            direct = sum(
                bin(~(a ^ b) & ((1 << h) - 1)).count("1") == m
                for a in range(1 << h)
                for b in range(1 << h)
            )
            assert cas.pair_count(h, m) == direct


class TestEnumerateLoss:
    @pytest.mark.parametrize("kind", ["AND", "OR"])
    def test_census_equals_raw_bruteforce_nu8(self, kind):
        pol = cas.CascadePolicy(kind, ReferenceSet(4))
        report = cas.enumerate_loss(8, 4, pol)
        fp, fn = raw_pair_loss(8, kind)
        total = (1 << 8) ** 2
        assert (report.false_positives, report.false_negatives) == (fp, fn)
        assert report.total_pairs == total
        assert report.mismatches == fp + fn

    def test_f1_census_equals_raw_bruteforce(self):
        pol = cas.CascadePolicy("F1", ReferenceSet(4, 1, 3))
        report = cas.enumerate_loss(8, 4, pol)
        fp, fn = raw_pair_loss(8, "F1", x=1, count=3)
        assert (report.false_positives, report.false_negatives) == (fp, fn)

    @pytest.mark.parametrize("kind", cas.POLICY_KINDS)
    def test_census_equals_per_cell_big_int_loop(self, kind):
        # nu=64: pair counts reach 2^128, far past int64
        nu, seg = 64, 32
        refs = ReferenceSet(seg, 2, 3) if kind in ("F1", "F2") else ReferenceSet(seg)
        pol = cas.CascadePolicy(kind, refs)
        fp = fn = 0
        for m in range(seg + 1):
            for n in range(seg + 1):
                out = bool(cas.decide_counts(kind, ([m], [n]), (seg, seg), refs)[0])
                w = cas.pair_count(seg, m) * cas.pair_count(seg, n)
                if out and 2 * (m + n) <= nu:
                    fp += w
                elif not out and 2 * (m + n) > nu:
                    fn += w
        report = cas.enumerate_loss(nu, seg, pol)
        assert (report.false_positives, report.false_negatives) == (fp, fn)
        assert report.total_pairs == 1 << (2 * nu)

    def test_by_region_sums_to_mismatches(self):
        pol = cas.CascadePolicy("OR", ReferenceSet(5))
        report = cas.enumerate_loss(10, 5, pol)
        assert report.false_positives + report.false_negatives == report.mismatches
        assert 0.0 <= report.loss_fraction <= 1.0

    @pytest.mark.parametrize("kind", ["AND", "OR"])
    def test_loss_stable_over_vector_size(self, kind):
        losses = []
        for nu in (8, 16):
            pol = cas.CascadePolicy(kind, ReferenceSet(nu // 2))
            losses.append(cas.enumerate_loss(nu, nu // 2, pol).loss_fraction)
        assert abs(losses[0] - losses[1]) < 0.05

    @pytest.mark.parametrize("nu", [10, 14, 18])
    def test_census_f1_sound_f2_complete_on_odd_halves(self, nu):
        # halves of odd length: the midpoint form of F2 misses true
        # majorities here, the upper-edge form must not
        seg = nu // 2
        for count in (3, 5, 7):
            for x in _distances(seg, count):
                refs = ReferenceSet(seg, x, count)
                f1 = cas.enumerate_loss(nu, seg, cas.CascadePolicy("F1", refs))
                f2 = cas.enumerate_loss(nu, seg, cas.CascadePolicy("F2", refs))
                assert f1.false_positives == 0, (count, x)
                assert f2.false_negatives == 0, (count, x)

    def test_rejects_uneven_split(self):
        pol = cas.CascadePolicy("AND", ReferenceSet(4))
        with pytest.raises(ValueError):
            cas.enumerate_loss(9, 4, pol)
        with pytest.raises(ValueError):
            cas.enumerate_loss(8, 3, pol)


class TestDistSpec:
    def test_rejects_bad_sigma(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                cas.DistSpec(bad)

    def test_truncation_keeps_support(self):
        rng = np.random.default_rng(0)
        p = cas.DistSpec(0.8).sample_p(rng, 20_000)
        assert p.min() >= 0.0 and p.max() <= 1.0


class TestMonteCarlo:
    def _policy(self, kind="F2", x=8, count=3, seg=64):
        return cas.CascadePolicy(kind, ReferenceSet(seg, x, count))

    def test_deterministic_given_seed(self):
        pol = self._policy()
        a = cas.monte_carlo_loss(pol, 128, 64, cas.DistSpec(), 20_000, seed=7)
        b = cas.monte_carlo_loss(pol, 128, 64, cas.DistSpec(), 20_000, seed=7)
        assert a == b
        c = cas.monte_carlo_loss(pol, 128, 64, cas.DistSpec(), 20_000, seed=8)
        assert c != a

    def test_wilson_interval_brackets_estimate(self):
        pol = self._policy()
        r = cas.monte_carlo_loss(pol, 128, 64, cas.DistSpec(), 20_000, seed=3)
        assert 0.0 <= r.ci_low <= r.loss_fraction <= r.ci_high <= 1.0
        assert r.mismatches == r.false_positives + r.false_negatives

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            cas.monte_carlo_loss(self._policy(), 128, 64, cas.DistSpec(), 0, seed=1)

    def test_f2_never_misses_true_ones(self):
        r = cas.monte_carlo_loss(self._policy("F2"), 128, 64, cas.DistSpec(), 50_000, seed=5)
        assert r.false_negatives == 0

    def test_f2_at_most_f1_loss(self):
        for x in (2, 8, 20):
            f1 = cas.monte_carlo_loss(self._policy("F1", x), 128, 64, cas.DistSpec(), 50_000, seed=11)
            f2 = cas.monte_carlo_loss(self._policy("F2", x), 128, 64, cas.DistSpec(), 50_000, seed=11)
            assert f2.loss_fraction <= f1.loss_fraction


class TestSweep:
    def test_row_per_admissible_distance(self):
        pol = cas.CascadePolicy("F2", ReferenceSet(64, 1, 3))
        grid = [1, 4, 16, 31, 32, 400]  # 32 pushes main+x to the edge; 400 is absurd
        rows, rejected = cas.sweep_reference_distance(pol, 128, 64, grid, cas.DistSpec(), 2_000, seed=2)
        assert len(rows) + len(rejected) == len(grid)
        assert [x for x, _ in rejected] == [32, 400]
        assert all("references outside" in why for _, why in rejected)

    def test_deterministic_csv(self):
        pol = cas.CascadePolicy("F1", ReferenceSet(64, 1, 3))
        out = []
        for _ in range(2):
            rows, _ = cas.sweep_reference_distance(pol, 128, 64, [2, 8], cas.DistSpec(), 5_000, seed=4)
            out.append(cas.sweep_rows_to_csv(rows, ["seed=4"]))
        assert out[0] == out[1]
        header, cols = out[0].splitlines()[0], out[0].splitlines()[1]
        assert header == "# seed=4"
        assert cols == ",".join(cas.SWEEP_CSV_COLUMNS)

    def test_rejection_keeps_other_rows_stable(self):
        # dropping a rejected x must not change the remaining rows' draws
        pol = cas.CascadePolicy("F2", ReferenceSet(64, 1, 3))
        rows_a, _ = cas.sweep_reference_distance(pol, 128, 64, [2, 400, 8], cas.DistSpec(), 2_000, seed=6)
        rows_b, _ = cas.sweep_reference_distance(pol, 128, 64, [2, 999, 8], cas.DistSpec(), 2_000, seed=6)
        assert [r.result for r in rows_a] == [r.result for r in rows_b]
