import numpy as np
import pytest

from xbarbnn.bincore import BinaryTensor
from xbarbnn.cascade import POLICY_KINDS, CascadePolicy
from xbarbnn.crossbar import CrossbarConfig, ReferenceSet, layer_forward, map_weights, segment_lengths
from xbarbnn.netio import CrossbarBackend, _fc_bits_crossbar


@pytest.mark.parametrize(
    "n, rows, want",
    [(784, 512, (512, 272)), (1500, 512, (512, 512, 476)), (1024, 512, (512, 512)), (12, 512, (12,))],
)
def test_segment_lengths(n, rows, want):
    assert segment_lengths(n, rows) == want


def test_segment_lengths_rejects_empty_vector():
    with pytest.raises(ValueError):
        segment_lengths(0, 512)


@pytest.mark.parametrize("fan_in", [12, 28, 40])  # 12, 16+12, 16+16+8
@pytest.mark.parametrize("kind", POLICY_KINDS)
@pytest.mark.parametrize("count, x", [(3, 2), (5, 1)])
def test_batched_chain_equals_per_neuron_layer_forward(rng, fan_in, kind, count, x):
    cfg = CrossbarConfig(16, 16)
    refs = ReferenceSet(16, x, count)
    a = rng.integers(0, 2, (48, fan_in), dtype=np.uint8)
    w = rng.integers(0, 2, (6, fan_in), dtype=np.uint8)
    got = _fc_bits_crossbar(a, w, CrossbarBackend(cfg, refs, kind))

    policy = CascadePolicy(kind, refs)
    groups = [map_weights(BinaryTensor.from_bits(row), cfg) for row in w]
    want = [[layer_forward(BinaryTensor.from_bits(row), g, refs, policy) for g in groups] for row in a]
    assert got.dtype == np.uint8
    assert got.tolist() == want
