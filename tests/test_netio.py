import itertools
import multiprocessing
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from xbarbnn.bincore import BinaryTensor
from xbarbnn.cascade import POLICY_KINDS, CascadePolicy
from xbarbnn.crossbar import CrossbarConfig, ReferenceSet, layer_forward, map_weights, segment_lengths
from xbarbnn import netio
from xbarbnn.netio import (
    ConvLayer,
    CrossbarBackend,
    FCLayer,
    NetworkSpec,
    PoolLayer,
    WeightContainer,
    _pool_or,
    named_network,
    parse_topology,
    run_inference,
)
from xbarbnn.verify import CONV_CASES, pixel_matmul, window_dots


@pytest.mark.parametrize(
    "n, rows, want",
    [(784, 512, (512, 272)), (1500, 512, (512, 512, 476)), (1024, 512, (512, 512)), (12, 512, (12,))],
)
def test_segment_lengths(n, rows, want):
    assert segment_lengths(n, rows) == want


def test_segment_lengths_rejects_empty_vector():
    with pytest.raises(ValueError):
        segment_lengths(0, 512)


def reshape_max_pool(x: np.ndarray, size: int) -> np.ndarray:
    b, c, h, w = x.shape
    v = x[:, :, : h - h % size, : w - w % size].reshape(b, c, h // size, size, w // size, size)
    return v.max(axis=(3, 5))


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("hw", [(7, 9), (8, 8)])
@pytest.mark.parametrize("high", [2, 256], ids=["bits", "pixels"])
def test_pool_or_equals_reshape_max(rng, size, hw, high):
    # `_pool_or` runs the pools on the input, folded into one of their
    # product: a pool of 2 * size equals a pool of size, then one of 2
    x = rng.integers(0, high, (3, 2) + hw, dtype=np.uint8)
    for pool, want in ((size, reshape_max_pool(x, size)), (2 * size, reshape_max_pool(reshape_max_pool(x, size), 2))):
        got = _pool_or(x.transpose(0, 2, 3, 1), pool)  # NHWC
        assert got.dtype == np.uint8
        assert np.array_equal(got, want.transpose(0, 2, 3, 1))


def test_pixel_gemm_is_exact_above_the_float32_bound(monkeypatch):
    a = np.full((1, 783), 255, np.uint8)
    w = np.full((1, 783), 127, np.int8)
    assert int(pixel_matmul(a, w)[0, 0]) == 25_357_455  # 255 * 127 * 783: odd, above 2^24
    # x = 1 meets w = 1, then x = 0 meets w = -128 in 1028 columns: dot 1,
    # centred sum 1028 * 2^14 - 127, odd and above 2^24
    a, w = np.zeros((1, 1029), np.uint8), np.full((1, 1029), -128, np.int8)
    a[0, 0] = w[0, 0] = 1
    assert int(pixel_matmul(a, w)[0, 0]) == 1
    monkeypatch.setattr(netio, "_FLOAT32_EXACT", 1 << 62)  # one centred float32 GEMM at any fan-in
    assert int(pixel_matmul(a, w)[0, 0]) != 1  # float32 holds no odd integer above 2^24


@pytest.mark.parametrize("fan_in", [514, 515])
def test_pixel_gemm_is_exact_either_side_of_the_uncentred_bound(fan_in):
    # 255 * 128 * 514 <= 2^24 < 255 * 128 * 515 (255 * 127 * 515 is below it)
    a = np.full((1, fan_in), 255, np.uint8)
    w = np.full((1, fan_in), -128, np.int8)
    assert int(pixel_matmul(a, w)[0, 0]) == -255 * 128 * fan_in


def test_run_inference_rejects_images_that_are_not_uint8():
    net = named_network("mlp-s")
    images = np.full((1, 28, 28), 255, np.int64)
    with pytest.raises(ValueError, match="images are int64; the pixel layer takes uint8"):
        run_inference(net, WeightContainer.random(net, 1), images, np.zeros(1, np.uint8))


# ids c-h-w-k-1-parts: the 1 is the window step
CONV_PARTS = [case + (parts,) for case in CONV_CASES for parts in (1, 2, 3) if case[0] * case[3] ** 2 >= parts]


@pytest.mark.parametrize("c, h, w, k, parts", CONV_PARTS, ids=["{}-{}-{}-{}-1-{}".format(*p) for p in CONV_PARTS])
def test_conv_band_gemm_equals_per_window_reference(rng, c, h, w, k, parts):
    layer = ConvLayer(c, 4, h, w, k)
    # unequal splits: 14+13, 10+10+7 for 27; 13+12, 10+10+5 for 25; 38+37, 26+26+23 for 75
    lengths = segment_lengths(layer.fan_in, -(-layer.fan_in // parts) + (parts == 3))
    assert len(lengths) == parts and len(set(lengths)) == min(parts, 2)
    x = rng.integers(0, 2, (3, h, w, c), dtype=np.uint8)
    kernels = rng.integers(0, 2, (4, layer.fan_in), dtype=np.uint8)
    signed_x, signed_w = 2 * x.astype(np.int64) - 1, 2 * kernels.astype(np.int64) - 1
    bounds = np.cumsum((0,) + lengths)
    with netio._workspace().frame():
        for counts, lo, hi in zip(netio._segment_counts(x, kernels, lengths, layer), bounds[:-1], bounds[1:]):
            part = np.zeros_like(signed_w)
            part[:, lo:hi] = signed_w[:, lo:hi]
            assert np.array_equal(2 * counts.astype(np.int64) - (hi - lo), window_dots(signed_x, part, layer))
    assert np.array_equal(netio._signed_matmul(x, kernels, layer), window_dots(signed_x, signed_w, layer))

    pixels = rng.integers(0, 256, (3, h, w, c), dtype=np.uint8)
    w8 = rng.integers(-128, 128, (4, layer.fan_in), dtype=np.int8)
    want = window_dots(pixels.astype(np.int64), w8.astype(np.int64), layer)
    assert np.array_equal(pixel_matmul(pixels, w8, layer), want)


@pytest.mark.parametrize("channels", [514, 515])
def test_pixel_conv_is_exact_either_side_of_the_uncentred_bound(channels):
    # a 1x1 conv: fan-in = channels, 255 * 128 * 514 <= 2^24 < 255 * 128 * 515
    layer = ConvLayer(channels, 2, 3, 4, 1, binarized=False)
    got = pixel_matmul(np.full((2, 3, 4, channels), 255, np.uint8), np.full((2, channels), -128, np.int8), layer)
    assert np.array_equal(got, np.full((2 * 3 * 4, 2), -255 * 128 * channels))


def reference_forward(net, weights, images):
    """int64 reference: im2col per window, reshape-max pool, sign threshold
    (zero counts as 1 after the pixel layer, as 0 after a +-1 layer).
    Returns (raw class scores, activation bits of every thresholded layer)."""
    x = images[:, None]
    acts = []
    arrays = iter(weights.arrays)
    for layer in net.layers:
        if isinstance(layer, PoolLayer):
            x = reshape_max_pool(x, layer.size)
            continue
        x, w = x.astype(np.int64), next(arrays).astype(np.int64).reshape(layer.weight_shape[0], -1)
        if layer.binarized:
            x, w = 2 * x - 1, 2 * w - 1
        if isinstance(layer, ConvLayer):
            k, oh, ow = layer.kernel, layer.out_h, layer.out_w
            cols = np.stack(
                [x[:, :, r : r + k, q : q + k].reshape(len(x), -1) for r in range(oh) for q in range(ow)], axis=1
            )
            dot = (cols @ w.T).reshape(len(x), oh, ow, -1).transpose(0, 3, 1, 2)
        else:
            dot = x.reshape(len(x), -1) @ w.T
        if layer is net.weight_layers[-1]:
            return dot, acts
        x = (dot > 0 if layer.binarized else dot >= 0).astype(np.uint8)
        acts.append(x)
    raise AssertionError("network ends in a pool")


def pools_after(net):
    """The size of the pool right after each weight layer of `net`; 1 where
    none follows."""
    layers = net.layers
    return [
        layers[j + 1].size if j + 1 < len(layers) and isinstance(layers[j + 1], PoolLayer) else 1
        for j, layer in enumerate(layers)
        if not isinstance(layer, PoolLayer)
    ]


def sensed_conv(x, w_bits, layer, backend):
    """The crossbar chain's bits of a binarized conv on the bits `x`
    (B, C, H, W), from the scalar model (`crossbar.layer_forward`) per
    window and kernel: (B, O, oh, ow)."""
    policy = CascadePolicy(backend.policy_kind, backend.refs)
    groups = [map_weights(BinaryTensor.from_bits(row), backend.config) for row in w_bits.reshape(len(w_bits), -1)]
    k = layer.kernel
    out = np.empty((len(x), len(groups), layer.out_h, layer.out_w), np.uint8)
    for b, r, q in itertools.product(range(len(x)), range(layer.out_h), range(layer.out_w)):
        window = BinaryTensor.from_bits(x[b, :, r : r + k, q : q + k].ravel())
        out[b, :, r, q] = [layer_forward(window, g, backend.refs, policy) for g in groups]
    return out


SMALL_CONV_NET = parse_topology("3x3,4 - 2x2 Pool - 3x3,4 - 2x2 Pool - FC(10)", input_h=12, input_w=12)
# no pool: 12x12 -> 10x10 -> 8x8, every window of the binarized conv kept
NO_POOL_NET = parse_topology("3x3,4 - 3x3,6 - FC(10)", input_h=12, input_w=12)
# a 3x3 pool inside the pixel conv drops the last row and column of its
# 10x10 output; the only binarized layer gives the scores
PIXEL_POOL_NET = parse_topology("3x3,4 - 3x3 Pool - FC(10)", input_h=12, input_w=12)
SMALL_NETS = {"": SMALL_CONV_NET, "-no-pool": NO_POOL_NET, "-pixel-pool-3": PIXEL_POOL_NET}
SMALL_BACKENDS = ("golden", "crossbar", "crossbar-16-rows")


@pytest.mark.parametrize(
    "backend, net",
    [(b, n) for n in SMALL_NETS.values() for b in SMALL_BACKENDS],
    ids=[b + suffix for suffix in SMALL_NETS for b in SMALL_BACKENDS],
)
def test_run_inference_on_a_small_conv_net_equals_int64_reference(rng, monkeypatch, backend, net):
    weights = WeightContainer.random(net, 7)
    images = rng.integers(0, 256, (16, 12, 12), dtype=np.uint8)
    want_scores, want_acts = reference_forward(net, weights, images)
    # as the layers output them, each pooled by the pool after it: one row
    # per (image, cell), one column per channel
    want_rows = [
        reshape_max_pool(a, size).transpose(0, 2, 3, 1).reshape(-1, a.shape[1])
        for a, size in zip(want_acts, pools_after(net))
    ]
    if backend != "golden":
        # on 512 rows the binarized conv's fan-in 36 fits one segment, whose
        # main reference 18 is the golden threshold: the chains
        # stay one tensor; on 16 rows it splits 16+16+4
        rows, distance = (16, 1) if backend == "crossbar-16-rows" else (512, 16)
        backend = CrossbarBackend(CrossbarConfig(rows, rows), ReferenceSet(rows, distance, 3), "F2")
    # the chains diverge only where a binarized layer splits
    diverges = backend != "golden" and backend.config.rows == 16 and len(want_acts) > 1

    calls = {}

    def record(name):
        real = getattr(netio, name)
        calls[name] = []

        def recording(*args):
            out = real(*args)
            calls[name].append((args, out))
            return out

        monkeypatch.setattr(netio, name, recording)

    for name in ("_pixel_bits", "_segment_counts", "_fc_bits_golden", "_fc_bits_crossbar", "_signed_matmul"):
        record(name)
    record("_binarized")
    monkeypatch.setattr(netio, "_CHUNK", 7)  # 16 images in 3 chunks
    report = run_inference(net, weights, images, want_scores.argmax(axis=1), backend)

    def outputs(name):
        return np.concatenate([out for _, out in calls[name]])

    # the first binarized layer's GEMMs run once per chunk, for both chains:
    # with a pool, every row a block senses is one band
    first = net.weight_layers[1]
    assert sum(args[3] is first for args, _ in calls["_segment_counts"]) == 3
    assert np.array_equal(outputs("_pixel_bits"), want_rows[0])
    if len(want_acts) > 1:  # `_fc_bits_golden` writes each band's unpooled bits; `_binarized` returns them pooled
        assert calls["_fc_bits_golden"] and all(out.dtype == np.uint8 for _, out in calls["_fc_bits_golden"])
        golden = np.concatenate([out[0] for _, out in calls["_binarized"]])
        assert golden.dtype == np.uint8 and np.array_equal(golden.reshape(want_rows[1].shape), want_rows[1])
    else:
        assert calls["_fc_bits_golden"] == [] and calls["_binarized"] == []
    # once per chunk while the chains are one tensor; once the chains
    # diverge, the golden chain's scores come first in every chunk
    scores = [out for _, out in calls["_signed_matmul"]]
    for got in scores:
        assert got.dtype == np.int64
    assert len(scores) == (6 if diverges else 3)
    assert np.array_equal(np.concatenate(scores[:: 2 if diverges else 1]), want_scores)
    assert report.golden_accuracy == 1.0
    if backend == "golden":
        assert report.layer_mismatch == ()
        return
    mismatch = [m for _, m in report.layer_mismatch]
    if not diverges:  # nothing is sensed: the golden bits are the crossbar chain's
        assert calls["_fc_bits_crossbar"] == []
        assert report.accuracy == 1.0 and mismatch == [0.0] * len(want_acts)
    else:
        assert all(out.dtype == np.uint8 for _, out in calls["_fc_bits_crossbar"])
        # the mismatch counts every unpooled window of the binarized conv,
        # those its pool drops included
        layer = net.weight_layers[1]
        x = reshape_max_pool(want_acts[0], pools_after(net)[0])
        sensed = sensed_conv(x, weights.arrays[1], layer, backend)
        assert mismatch == [0.0, float((sensed != want_acts[1]).mean())] and mismatch[1] > 0
        # the crossbar chain's bits, pooled as the golden ones
        got = np.concatenate([out[1] for _, out in calls["_binarized"]])
        want = reshape_max_pool(sensed, pools_after(net)[1]).transpose(0, 2, 3, 1)
        assert np.array_equal(got, want)


def test_only_a_pool_that_follows_no_conv_runs_alone(monkeypatch):
    calls = []
    real = netio._pool_or
    monkeypatch.setattr(netio, "_pool_or", lambda *args: calls.append(args[1:]) or real(*args))
    rng = np.random.default_rng(15)
    images = rng.integers(0, 256, (8, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, 8, dtype=np.uint8)
    for name in netio.TOPOLOGIES:
        net = named_network(name)
        for backend in ("golden", SPLIT_BACKEND):
            run_inference(net, WeightContainer.random(net, 1), images, labels, backend)
    assert calls == []
    # pools on the input fold into one, and a pool after a pool runs inside
    # the conv with the pool it follows: one call per chunk
    monkeypatch.setattr(netio, "_CHUNK", 3)  # 8 images in 3 chunks
    net = parse_topology("2x2 Pool - 2x2 Pool - 3x3,4 - 2x2 Pool - 2x2 Pool - FC(10)")
    run_inference(net, WeightContainer.random(net, 1), images, labels)
    assert calls == [(4,)] * 3


def _lenet5_run(n, backend):
    net = named_network("lenet-5")
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, (n, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, n, dtype=np.uint8)
    return run_inference(net, WeightContainer.random(net, 2), images, labels, backend)


# 128-row arrays split lenet-5's fan-ins 150 and 400 (128+22, 128*3+16), so
# the crossbar chain really mismatches
SPLIT_BACKEND = CrossbarBackend(CrossbarConfig(128, 128), ReferenceSet(128, 4, 3), "F2")
# the `infer` default: 512x512 arrays, 3 references at distance 16, F2
DEFAULT_BACKEND = CrossbarBackend(CrossbarConfig(), ReferenceSet(512, 16, 3), "F2")


def _tie_low(case):
    """Test id of a case whose report rests on the tie rule, a count of
    exactly half reading 0 in the golden chain as in the SA."""
    return f"{case}-tie-low"


@pytest.mark.parametrize("name", ["lenet-5", "mlp-s"], ids=_tie_low)
def test_chains_kept_one_tensor_report_as_if_each_layer_were_sensed(monkeypatch, name):
    net = named_network(name)
    rng = np.random.default_rng(13)
    images = rng.integers(0, 256, (600, 28, 28), dtype=np.uint8)
    args = net, WeightContainer.random(net, 14), images, rng.integers(0, 10, 600, dtype=np.uint8), DEFAULT_BACKEND
    sensed, real = [], netio._fc_bits_crossbar
    monkeypatch.setattr(netio, "_fc_bits_crossbar", lambda *a: sensed.append(a) or real(*a))
    shared = run_inference(*args).to_dict()
    # every sensed fan-in (150, 256, 120, 84; 500, 250) fits 512 rows, so the
    # chains share every layer
    assert not sensed
    # the only test of the unshared pass on layers that fit one segment
    monkeypatch.setattr(CrossbarBackend, "reads_majority", lambda *args: False)
    assert run_inference(*args).to_dict() == shared
    assert sensed


@pytest.mark.parametrize("backend", ["golden", SPLIT_BACKEND], ids=["golden", "crossbar"])
def test_report_does_not_depend_on_the_chunk_size(monkeypatch, backend):
    whole = _lenet5_run(20, backend).to_dict()
    monkeypatch.setattr(netio, "_CHUNK", 7)
    assert _lenet5_run(20, backend).to_dict() == whole
    if backend != "golden":
        assert any(m["mismatch"] > 0 for m in whole["layer_mismatch"])
        # the crossbar chain never leaks into the golden one
        assert whole["golden_accuracy"] == _lenet5_run(20, "golden").accuracy


def test_chains_that_never_diverge_share_every_layer(monkeypatch):
    # the only binarized layer gives raw scores: nothing is sensed
    net = parse_topology("FC(784) - FC(600) - FC(10)")
    calls = []
    real = netio._signed_matmul

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(netio, "_signed_matmul", recording)
    monkeypatch.setattr(netio, "_CHUNK", 7)
    rng = np.random.default_rng(4)
    images = rng.integers(0, 256, (20, 28, 28), dtype=np.uint8)
    backend = CrossbarBackend(CrossbarConfig(), ReferenceSet(512, 16, 3), "F2")
    report = run_inference(net, WeightContainer.random(net, 1), images, rng.integers(0, 10, 20), backend)
    assert len(calls) == 3  # once per chunk, for both chains
    assert report.accuracy == report.golden_accuracy
    assert [m for _, m in report.layer_mismatch] == [0.0]


# the centred pixel GEMM is one float32 GEMM up to a fan-in of 1024: lenet-5's
# 25 and mlp-s's 784 alike
@pytest.mark.parametrize("name, dtype", [("lenet-5", np.float32), ("mlp-s", np.float32)])
def test_first_layer_gemm_runs_once_per_chunk(monkeypatch, name, dtype):
    dtypes = []  # per call, the dtype of each output row's dots
    real = netio._pixel_dots

    def recording(*args):
        dtypes.append([])
        for dots in real(*args):
            dtypes[-1].append(dots.dtype)
            yield dots

    monkeypatch.setattr(netio, "_pixel_dots", recording)
    monkeypatch.setattr(netio, "_CHUNK", 7)
    net = named_network(name)
    images = np.random.default_rng(5).integers(0, 256, (20, 28, 28), dtype=np.uint8)
    backend = CrossbarBackend(CrossbarConfig(), ReferenceSet(512, 16, 3), "F2")
    run_inference(net, WeightContainer.random(net, 1), images, np.zeros(20, np.uint8), backend)
    assert dtypes == [[dtype] * netio._out_rows(net.weight_layers[0])] * 3  # 20 images in chunks of 7


def test_run_inference_rejects_unpaired_labels():
    net = named_network("mlp-s")
    images = np.zeros((4, 28, 28), np.uint8)
    with pytest.raises(ValueError, match="4 images vs 3 labels"):
        run_inference(net, WeightContainer.random(net, 1), images, np.zeros(3, np.uint8))


def test_run_inference_rejects_a_pool_after_an_fc_layer():
    # the grammar rejects it; a hand-built spec would fold it into the FC layer
    net = NetworkSpec("fc-pool", 1, 8, 8, (FCLayer(64, 20, binarized=False), FCLayer(20, 12), PoolLayer(2, 1, 1),
                                           FCLayer(12, 10)))
    with pytest.raises(ValueError, match="a pool after an FC layer"):
        run_inference(net, WeightContainer.random(net, 1), np.zeros((4, 8, 8), np.uint8), np.zeros(4, np.uint8))


def _mlpl_batch(n):
    net = named_network("mlp-l")
    rng = np.random.default_rng(6)
    images = rng.integers(0, 256, (n, 28, 28), dtype=np.uint8)
    backend = CrossbarBackend(CrossbarConfig(), ReferenceSet(512, 16, 3), "F2")
    return net, WeightContainer.random(net, 3), images, rng.integers(0, 10, n, dtype=np.uint8), backend


def test_a_second_identical_call_reuses_the_workspace():
    args = _mlpl_batch(256)
    peaks, reports = [], []

    def two_calls():  # in a fresh thread, whose workspace starts empty
        for _ in range(2):
            tracemalloc.start()
            try:
                reports.append(run_inference(*args).to_dict())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

    thread = threading.Thread(target=two_calls)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and reports[0] == reports[1]
    # the first call maps the workspace (the pixel layer's float32 weights
    # alone are 4.5 MiB); the second carves every float temporary from it
    assert peaks[0] > 4 * 2**20
    assert peaks[1] < 2 * 2**20


def test_threads_running_different_nets_at_once_match_sequential_runs():
    lenet = named_network("lenet-5")
    images = np.random.default_rng(8).integers(0, 256, (300, 28, 28), dtype=np.uint8)
    runs = [
        (lenet, WeightContainer.random(lenet, 4), images, np.zeros(300, np.uint8), SPLIT_BACKEND),
        _mlpl_batch(300),
    ]
    want = [run_inference(*args).to_dict() for args in runs]
    # more threads than cores, two per net, switching often
    got = {i: [] for i in range(4)}
    start = threading.Barrier(len(got))

    def worker(i):
        start.wait()
        for _ in range(2):
            got[i].append(run_inference(*runs[i % 2]).to_dict())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {i: [want[i % 2]] * 2 for i in got}


def _blocked(monkeypatch, blocks):
    """Every layer of every chunk runs on `blocks` row blocks, whatever the
    cores, the BLAS threads and the chunk size."""
    monkeypatch.setattr(netio, "_cores", lambda: blocks)
    monkeypatch.setattr(netio, "_blas_threads", lambda: 1)
    monkeypatch.setattr(netio, "_MIN_BLOCK_ROWS", 1)


def _run_1537(name, backend):
    """1537 images: a full chunk and a partial one of 513, neither a multiple
    of 2 or 3."""
    net = named_network(name)
    rng = np.random.default_rng(9)
    images = rng.integers(0, 256, (1537, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, 1537, dtype=np.uint8)
    return run_inference(net, WeightContainer.random(net, 10), images, labels, backend).to_dict()


@pytest.mark.parametrize("kind", ["golden", *POLICY_KINDS], ids=_tie_low)
@pytest.mark.parametrize("name", ["lenet-5", "mlp-l", "cnn-2"])
def test_report_does_not_depend_on_the_row_blocks(monkeypatch, name, kind):
    # 128-row arrays split every binarized fan-in, so the chains diverge
    backend = kind if kind == "golden" else CrossbarBackend(CrossbarConfig(128, 128), ReferenceSet(128, 4, 3), kind)
    want = _same_report_on_1_2_3_blocks(monkeypatch, name, backend)
    if kind != "golden":
        assert any(m["mismatch"] > 0 for m in want["layer_mismatch"])


@pytest.mark.parametrize("backend", [DEFAULT_BACKEND], ids=["tie-low"])
def test_lenet5_report_on_512_rows_does_not_depend_on_the_row_blocks(monkeypatch, backend):
    # one tensor for both chains through every layer
    want = _same_report_on_1_2_3_blocks(monkeypatch, "lenet-5", backend)
    assert not any(m["mismatch"] > 0 for m in want["layer_mismatch"])


def _same_report_on_1_2_3_blocks(monkeypatch, name, backend):
    """The report of `_run_1537`, which must not change from one row block
    to two or three."""
    rows = set()  # images per block
    real = netio._by_rows

    def recording(block, n):
        def sized(lo, hi):
            rows.add(hi - lo)
            block(lo, hi)

        real(sized, n)

    monkeypatch.setattr(netio, "_by_rows", recording)
    _blocked(monkeypatch, 1)
    want = _run_1537(name, backend)
    assert rows == {1024, 513}
    for blocks, sizes in [(2, {512, 256, 257}), (3, {341, 342, 171})]:
        _blocked(monkeypatch, blocks)
        rows.clear()
        assert _run_1537(name, backend) == want
        assert rows == sizes
    return want


def test_a_first_lenet5_call_holds_one_output_row_of_each_conv_gemm(monkeypatch):
    _blocked(monkeypatch, 1)
    net = named_network("lenet-5")
    rng = np.random.default_rng(11)
    images = rng.integers(0, 256, (1024, 28, 28), dtype=np.uint8)
    backend = CrossbarBackend(CrossbarConfig(), ReferenceSet(512, 16, 3), "F2")
    args = net, WeightContainer.random(net, 12), images, rng.integers(0, 10, 1024, dtype=np.uint8), backend
    peaks = []

    def first_call():  # in a fresh thread, whose workspace starts empty
        tracemalloc.start()
        try:
            run_inference(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=first_call)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and len(peaks) == 1
    # the first conv's GEMM output over the whole block, 1024 * 24 rows of
    # 24 windows x 6 outputs in float32, would alone be 13.5 MiB
    assert peaks[0] < 10 * 2**20


@pytest.mark.parametrize("where", ["caller", "worker"])
def test_an_error_in_one_block_propagates_after_every_block_has_finished(monkeypatch, where):
    args = _mlpl_batch(600)
    _blocked(monkeypatch, 1)
    want = run_inference(*args).to_dict()
    _blocked(monkeypatch, 3)
    finished, lock, raised = [], threading.Lock(), []
    real = netio._pixel_dots

    def pixel_dots(*a):  # one block of the pixel layer fails, at once
        with lock:
            fail = not raised and (threading.current_thread() is threading.main_thread()) == (where == "caller")
            if fail:
                raised.append(True)
        if fail:
            raise RuntimeError("planted")
        time.sleep(0.2)
        finished.append(True)
        return real(*a)

    monkeypatch.setattr(netio, "_pixel_dots", pixel_dots)
    with pytest.raises(RuntimeError, match="planted"):
        run_inference(*args)
    # both other blocks ran to the end before the error left run_inference
    assert finished == [True, True]
    monkeypatch.setattr(netio, "_pixel_dots", real)
    assert run_inference(*args).to_dict() == want


def test_a_child_forked_after_the_pool_started_makes_its_own(monkeypatch):
    args = _mlpl_batch(600)
    _blocked(monkeypatch, 2)
    want = run_inference(*args).to_dict()
    assert netio._pool is not None  # the parent's workers exist
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)

    def child():
        send.send(run_inference(*args).to_dict())

    proc = ctx.Process(target=child)
    proc.start()
    try:
        got = receive.recv() if receive.poll(120) else None
    finally:
        proc.join(5)
        if proc.is_alive():
            proc.kill()
            proc.join()
    assert got == want
    assert proc.exitcode == 0


@pytest.mark.parametrize("first_cores", [4, 2], ids=["same-cores", "cores-grew"])
def test_a_call_gets_a_worker_for_every_block_whatever_the_first_call_was(monkeypatch, first_cores):
    monkeypatch.setattr(netio, "_pool", None)
    monkeypatch.setattr(netio, "_blas_threads", lambda: 1)
    cores = [first_cores]
    monkeypatch.setattr(netio, "_cores", lambda: cores[0])
    netio._by_rows(lambda lo, hi: None, 600)  # two blocks: one worker would do
    cores[0] = 4
    threads, start = set(), threading.Barrier(4, timeout=30)

    def block(lo, hi):  # waits until all four blocks run at once
        threads.add(threading.current_thread())
        start.wait()

    netio._by_rows(block, 1024)
    assert len(threads) == 4


@pytest.mark.parametrize(
    "env, cores, blocks",
    [({}, 4, 1), ({"OPENBLAS_NUM_THREADS": "1"}, 4, 4), ({"OMP_NUM_THREADS": "2"}, 4, 2),
     ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 2), ({"OPENBLAS_NUM_THREADS": "8"}, 4, 1)],
)
def test_blocks_leave_the_cores_that_blas_threads_use(monkeypatch, env, cores, blocks):
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(netio, "_cores", lambda: cores)
    sizes = []
    lock = threading.Lock()

    def block(lo, hi):
        with lock:
            sizes.append(hi - lo)

    netio._by_rows(block, 1024)
    assert sorted(sizes) == [1024 // blocks] * blocks
