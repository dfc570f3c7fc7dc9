"""Tests of the benchmark's own code: metric catalogue, oracle checks and the
simulated-statistics digest, at tiny sizes."""

import json
import sys

import numpy as np
import pytest

import harness
import oracle
import workloads

TINY_INFER = workloads.InferSizes(batch=4, batches=2, oracle_images=1)
TINY_TABLES = workloads.TableSizes(samples=2000, census_nus=(16, 32))


@pytest.fixture
def xb():
    """A fresh import of xbarbnn; the modules other tests hold are put back."""
    saved = {k: v for k, v in sys.modules.items() if k == "xbarbnn" or k.startswith("xbarbnn.")}
    try:
        yield harness.import_xbarbnn()
    finally:
        for k in [k for k in sys.modules if k == "xbarbnn" or k.startswith("xbarbnn.")]:
            del sys.modules[k]
        sys.modules.update(saved)


def test_metric_names_match_benchmark_json():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for m in spec["end_to_end"]:
        assert m["unit"] == harness.END_TO_END[m["name"]][0]
    for m in spec["per_layer"]:
        assert m["unit"] == harness.PER_LAYER[m["name"]][0]


def test_tail_keeps_ten_samples_beyond():
    assert harness.tail(list(range(100))) == (89, 0.9)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 1.0)


def _tiny_net(xb):
    """Two-way split FC (600 -> 512 + 88) behind a u8 x i8 first layer."""
    net = xb.netio.parse_topology("FC(784) - FC(600) - FC(40) - FC(10)", name="tiny")
    weights = xb.netio.WeightContainer.random(net, 5)
    images = np.random.default_rng(6).integers(0, 256, (3, 28, 28), dtype=np.uint8)
    refs = xb.crossbar.ReferenceSet(512, workloads.DISTANCE, workloads.REFS)
    backend = xb.netio.CrossbarBackend(xb.crossbar.CrossbarConfig(), refs, workloads.POLICY)
    return net, weights, images, backend


@pytest.mark.parametrize("chain", ["_fc_bits_crossbar", "_fc_bits_golden"])
def test_oracle_check_flags_a_planted_one_bit_flip(xb, monkeypatch, chain):
    net, weights, images, backend = _tiny_net(xb)
    failures, attempted = oracle.check_inference(xb, net, weights, images, backend)
    assert failures == [] and attempted == 3

    real = getattr(xb.netio, chain)

    def flipped(*args):
        out = real(*args).copy()
        out.flat[0] ^= 1
        return out

    monkeypatch.setattr(xb.netio, chain, flipped)
    failures, _ = oracle.check_inference(xb, net, weights, images, backend)
    assert failures


@pytest.mark.usefixtures("xb")
def test_dataflow_check_flags_a_planted_flip():
    w = workloads.TablesWorkload(3, TINY_TABLES)
    harness.run(w, 0.0, traced=False)
    assert w.failures == []
    label = w.convs[0][0]
    key = ("conv", f"{label}/pw0")
    w.first[key][0][0][0][0] += 2  # one bit of one window flipped
    w.check(harness.tracing.Tracer())
    assert any(label in f for f in w.failures)


@pytest.mark.parametrize(
    "make",
    [lambda: workloads.InferWorkload("infer-lenet5", "lenet-5", 4, TINY_INFER),
     lambda: workloads.TablesWorkload(4, TINY_TABLES)],
    ids=["infer", "tables"],
)
@pytest.mark.usefixtures("xb")
def test_sim_digest_is_stable_across_invocations(make):
    first, second = (harness.run(make(), 0.0, traced=traced) for traced in (False, True))
    assert first["tally"]["failed"] == 0 and second["tally"]["failed"] == 0
    assert first["sim_digest"] == second["sim_digest"]
    assert set(second["metrics"]) == set(harness.PER_LAYER)
    assert set(first["metrics"]) == set(harness.END_TO_END)
