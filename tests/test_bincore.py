import itertools

import numpy as np
import pytest

from conftest import random_bits, signed_dot_oracle
from xbarbnn.bincore import BinaryTensor, golden_activation, popcount, xnor, xnor_popcount_dot


class TestBinaryTensor:
    def test_round_trip_bits(self, rng):
        bits = rng.integers(0, 2, (3, 5), dtype=np.uint8)
        t = BinaryTensor.from_bits(bits)
        assert t.shape == (3, 5)
        assert (t.bits() == bits).all()
        # bit b encodes 2b - 1
        assert (t.signed() == 2 * bits.astype(int) - 1).all()

    def test_padding_bits_are_zero(self):
        t = BinaryTensor.from_bits([1, 1, 1])
        assert int(t.packed[-1]) >> 3 == 0

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BinaryTensor.from_bits([0, 2, 1])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            BinaryTensor.from_bits([1, 0], shape=(3,))


class TestXnorPopcountDot:
    def test_worked_example(self):
        a = BinaryTensor.from_bits([1, 0, 0, 1])
        b = BinaryTensor.from_bits([0, 1, 1, 1])
        assert xnor(a, b).bits().tolist() == [0, 0, 0, 1]
        assert popcount(xnor(a, b)) == 1
        assert xnor_popcount_dot(a, b) == -2

    @pytest.mark.parametrize("n", [1, 7, 64, 511])
    def test_identical_vectors(self, rng, n):
        a = random_bits(rng, n)
        assert xnor_popcount_dot(a, a) == n

    def test_exhaustive_nu6_equals_signed_dot(self):
        n = 6
        for av, bv in itertools.product(range(1 << n), repeat=2):
            a = BinaryTensor.from_bits([(av >> i) & 1 for i in range(n)])
            b = BinaryTensor.from_bits([(bv >> i) & 1 for i in range(n)])
            assert xnor_popcount_dot(a, b) == signed_dot_oracle(a, b)

    def test_range_and_parity(self, rng):
        for n in (5, 12, 100, 4096):
            a, b = random_bits(rng, n), random_bits(rng, n)
            d = xnor_popcount_dot(a, b)
            assert abs(d) <= n
            assert (d - n) % 2 == 0

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            xnor_popcount_dot(random_bits(rng, 4), random_bits(rng, 5))


class TestPopcount:
    def test_single_one(self):
        assert popcount(BinaryTensor.from_bits([0, 0, 0, 1])) == 1

    def test_all_zero(self):
        assert popcount(BinaryTensor.from_bits([0] * 40)) == 0

    def test_matches_naive_sum(self, rng):
        t = random_bits(rng, 64)
        assert popcount(t) == sum(int(b) for b in t.bits())


class TestGoldenActivation:
    def test_strict_majority(self):
        a = BinaryTensor.from_bits([1, 1, 1, 1])
        b = BinaryTensor.from_bits([1, 1, 1, 0])  # 3 matches of 4
        assert golden_activation(a, b) == 1

    def test_tie_is_zero_by_default(self):
        a = BinaryTensor.from_bits([1, 1, 1, 1])
        b = BinaryTensor.from_bits([1, 1, 0, 0])  # exactly nu/2 matches
        assert golden_activation(a, b) == 0

    def test_exhaustive_nu8_agrees_with_dot_sign(self):
        n = 8
        tensors = [BinaryTensor.from_bits([(v >> i) & 1 for i in range(n)]) for v in range(1 << n)]
        for av, bv in itertools.product(range(1 << n), repeat=2):
            dot = 2 * bin(~(av ^ bv) & 0xFF).count("1") - n
            assert golden_activation(tensors[av], tensors[bv]) == (1 if dot > 0 else 0)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            golden_activation(random_bits(rng, 3), random_bits(rng, 4))
