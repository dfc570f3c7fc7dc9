"""Command-line harness: verification suites, loss sweeps, inference runs,
and cost comparisons, all emitting deterministic CSV/JSON.

Precedence for every option: explicit flag > --config file entry > built-in
default. Emitted files carry the resolved-config hash and seeds in their
header so reruns are attributable.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys

import numpy as np

from . import __version__, bincore, cascade, costmodel, crossbar, dataflow, netio

EXACT_NU_GRID = (8, 10, 12, 14, 16, 18, 20)
DEFAULT_X_GRID = (1, 2, 4, 8, 16, 24, 32, 48, 64, 96)


def _config_hash(resolved: dict) -> str:
    return hashlib.sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()[:16]


def _meta(resolved: dict, **extra) -> dict:
    """`meta` block: hash of the resolved config, then provenance that the
    hash leaves out."""
    return {
        "config_sha256": _config_hash(resolved), **extra,
        "xbarbnn_version": __version__, "numpy_version": np.__version__,
    }


def _write_text(path, text: str) -> None:
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_config(path) -> dict:
    if not path:
        return {}
    with open(path) as f:
        return json.load(f)


def _resolve(args, config: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return config.get(key, default)


# ---------------------------------------------------------------- verify


def run_verification(nu_max: int = 10, progress=print) -> list[str]:
    """Exhaustive consistency suites; returns failure descriptions."""
    failures = []

    def check(name, ok, hint):
        progress(f"[{'ok' if ok else 'FAIL'}] {name}")
        if not ok:
            failures.append(f"{name}: reproduce with {hint}")

    # signed dot identity, exhaustive per vector size
    ok = True
    for n in range(1, nu_max + 1):
        vals = np.arange(1 << n, dtype=np.uint32)
        bits = ((vals[:, None] >> np.arange(n)) & 1).astype(np.int8)
        signed = bits * 2 - 1
        dots = signed @ signed.T
        pops = (bits[:, None, :] == bits[None, :, :]).sum(axis=2)
        if not (2 * pops - n == dots).all():
            ok = False
            break
    check(f"xnor/popcount dot == signed dot, exhaustive nu<={nu_max}", ok, "cmd_verify dot suite")

    a = bincore.BinaryTensor.from_bits([1, 0, 0, 1])
    b = bincore.BinaryTensor.from_bits([0, 1, 1, 1])
    check("worked 4-bit example products -2", bincore.xnor_popcount_dot(a, b) == -2, "bincore example")

    # no-split crossbar equals the majority rule
    rng = np.random.default_rng(0)
    cfg = crossbar.CrossbarConfig()
    ok = True
    for _ in range(400):
        n = int(rng.integers(2, 513))
        x = bincore.BinaryTensor.from_bits(rng.integers(0, 2, n, dtype=np.uint8))
        w = bincore.BinaryTensor.from_bits(rng.integers(0, 2, n, dtype=np.uint8))
        group = crossbar.map_weights(w, cfg)
        refs = crossbar.ReferenceSet(n)
        policy = cascade.CascadePolicy("AND", refs)
        if crossbar.layer_forward(x, group, refs, policy) != bincore.golden_activation(x, w):
            ok = False
            break
    check("fitting layers match the majority rule", ok, "cmd_verify no-split suite")

    # F1 produces no false positives; F2 fires exactly where some count cell
    # consistent with the readouts is a majority (cell-exhaustive)
    ok = all(
        _cascade_guarantees_hold(lengths, x, count)
        for lengths in CASCADE_SPLITS
        for count in (3, 5)
        for x in range(1, min(lengths))
        if _admissible(lengths, x, count)
    )
    shapes = " ".join("+".join(map(str, lengths)) for lengths in CASCADE_SPLITS)
    check(f"F1 sound / F2 complete over all count cells, splits {shapes}", ok, "cmd_verify cascade suite")

    # the batched count evaluator equals the interval one on scalar sa_read
    # readouts: every count cell (a margin outside 0..length included) of
    # every cascade split, so every level of every segment length, and
    # mlp-l's splits on random counts around the references
    rng = np.random.default_rng(4)
    ok = all(
        _evaluators_agree(lengths, x, count, _count_cells(lengths, 2))
        for lengths in CASCADE_SPLITS
        for count in (3, 5)
        for x in range(1, min(lengths))
        if _admissible(lengths, x, count)
    )
    ok &= all(
        _evaluators_agree(lengths, x, count, _counts_near_references(lengths, x, count, 100_000, rng))
        for lengths in MLPL_SPLITS
        for count in (3, 5)
        for x in (8, 16)
    )
    shapes = " ".join("+".join(map(str, lengths)) for lengths in MLPL_SPLITS)
    check(f"decide_counts == decide_batch on sa_read intervals, 3 and 5 references, int64 and float32 counts, "
          f"every count cell of the cascade splits, 10^5 tuples on {shapes}", ok, "cmd_verify evaluator suite")

    # the blocked pixel GEMM is exact at the float32 block width and past it
    ok = True
    for fan_in in PIXEL_FAN_INS:
        a = np.full((2, fan_in), 255, np.uint8)
        a[1, ::2] = 0
        w = np.full((3, fan_in), -128, np.int8)
        w[1] = 127
        w[2, 0] = 127  # an odd sum, past 2^24 at 1029: one float32 GEMM would round it
        want = a.astype(np.int64) @ w.astype(np.int64).T
        ok &= np.array_equal(netio._pixel_matmul(a, w), want)
    check(f"blocked pixel GEMM == int64 product, fan-ins {PIXEL_FAN_INS}", ok, "cmd_verify pixel GEMM suite")

    # the batched inference chain equals the per-vector crossbar model on
    # every split shape k in {1, 2, 3}, unequal tails included
    rng = np.random.default_rng(1)
    cases = [
        (rows, fan_in, kind, count, x)
        for rows, fan_in in CHAIN_SPLITS
        for kind in cascade.POLICY_KINDS
        for count in (3, 5)
        for x in (1, 2)
        if _admissible(crossbar.segment_lengths(fan_in, rows), x, count)
    ]
    ok = all(_batched_chain_matches_scalar(*case, rng) for case in cases)
    shapes = " ".join("+".join(map(str, crossbar.segment_lengths(n, rows))) for rows, n in CHAIN_SPLITS)
    check(f"batched crossbar chain == scalar layer_forward, splits {shapes}", ok, "cmd_verify chain suite")

    # weighted census equals the raw pair walk
    ok = True
    for n in (4, 6, 8):
        for kind in ("AND", "OR"):
            pol = cascade.CascadePolicy(kind, crossbar.ReferenceSet(n // 2))
            report = cascade.enumerate_loss(n, n // 2, pol)
            raw = _raw_pair_mismatches(n, kind)
            if report.mismatches != raw:
                ok = False
    check("pair-count census == raw exhaustive walk", ok, "cmd_verify census suite")

    # the conv band GEMM equals an int64 dot taken window by window, per
    # segment on one, two and three segments, for bits and for pixels, and
    # across the pixel float32 bound
    rng = np.random.default_rng(3)
    ok = True
    for ch, h, w, k, stride in dict.fromkeys(case[:5] for case in DATAFLOW_CASES):
        layer = dataflow.ConvLayer(ch, 4, h, w, k, stride)
        x = rng.integers(0, 2, (2, h, w, ch), dtype=np.uint8)
        kernels = rng.integers(0, 2, (4, layer.fan_in), dtype=np.uint8)
        for rows in CONV_SPLIT_ROWS:
            lengths = crossbar.segment_lengths(layer.fan_in, rows)
            bounds = np.cumsum((0,) + lengths)
            for dot, lo, hi in zip(netio._segment_dots(x, kernels, lengths, layer), bounds[:-1], bounds[1:]):
                part = np.zeros(kernels.shape, np.int64)
                part[:, lo:hi] = 2 * kernels[:, lo:hi].astype(np.int64) - 1
                ok &= np.array_equal(dot, _window_dots(2 * x.astype(np.int64) - 1, part, layer))
        pixels = rng.integers(0, 256, (2, h, w, ch), dtype=np.uint8)
        w8 = rng.integers(-128, 128, (4, layer.fan_in), dtype=np.int8)
        want = _window_dots(pixels.astype(np.int64), w8.astype(np.int64), layer)
        ok &= np.array_equal(netio._pixel_matmul(pixels, w8, layer), want)
    for channels, dtype in ((514, np.float32), (515, np.float64)):
        layer = dataflow.ConvLayer(channels, 2, 3, 4, 1, binarized=False)
        pixels, w8 = np.full((2, 3, 4, channels), 255, np.uint8), np.full((2, channels), -128, np.int8)
        got = netio._pixel_matmul(pixels, w8, layer)
        want = _window_dots(pixels.astype(np.int64), w8.astype(np.int64), layer)
        ok &= got.dtype == dtype and np.array_equal(got, want)
    splits = " ".join(f"{r} rows" for r in CONV_SPLIT_ROWS)
    check(f"conv band GEMM == int64 per-window dot, dataflow shapes on {splits}, 1x1 pixel conv at 514/515 channels",
          ok, "cmd_verify conv GEMM suite")

    # the conv dataflow equals the band GEMM's signed dot, and its
    # transaction log equals the closed-form bus words
    rng = np.random.default_rng(2)
    dots_ok = words_ok = True
    for ch, h, w, k, stride, pw in DATAFLOW_CASES:
        layer = dataflow.ConvLayer(ch, 4, h, w, k, stride)
        x = rng.integers(0, 2, (ch, h, w), dtype=np.uint8)
        kernels = rng.integers(0, 2, layer.weight_shape, dtype=np.uint8)
        want = netio._signed_matmul(x.transpose(1, 2, 0)[None], kernels.reshape(layer.out_channels, -1), layer)
        want = want.T.reshape(layer.out_channels, layer.out_h, layer.out_w)
        for bus, bits in itertools.product((1, 32), (1, 8)):
            dots, log = dataflow.run_layer(x, kernels, None, pw, bits, bus, stride)
            dots_ok &= np.array_equal(dots, want)
            words_ok &= log.words_streamed == dataflow.streamed_words_per_layer(layer, bits, bus, pw)
    shapes = " ".join("c{}h{}w{}k{}s{}pw{:d}".format(*case) for case in DATAFLOW_CASES)
    check(f"conv dataflow == conv band GEMM signed dot, {shapes}", dots_ok, "cmd_verify dataflow suite")
    check("logged bus words == closed form, bus widths 1/32, bit widths 1/8", words_ok,
          "cmd_verify dataflow suite")
    return failures


# (channels, height, width, kernel, stride, parallel_window): odd and even
# windows per row at strides 1 and 2, and parallel_window over an odd, an
# even and a single window per row
DATAFLOW_CASES = (
    (3, 9, 11, 3, 1, False), (3, 9, 10, 3, 1, False), (3, 11, 11, 3, 2, False), (3, 11, 13, 3, 2, False),
    (3, 9, 11, 3, 1, True), (3, 9, 10, 3, 1, True), (2, 5, 3, 3, 1, True),
)


# array rows for the conv GEMM check: every DATAFLOW_CASES fan-in (27, 18)
# in one segment, in two unequal ones (16+11, 16+2) and in up to three
# (10+10+7, 10+8)
CONV_SPLIT_ROWS = (512, 16, 10)


def _window_dots(x: np.ndarray, w: np.ndarray, layer) -> np.ndarray:
    """int64 reference for a conv on NHWC `x`: each window's values, in the
    (c, i, j) order of the weight rows `w`, dotted with them; one row per
    (image, window), row-major per image."""
    k, s = layer.kernel, layer.stride
    windows = [
        x[:, r * s : r * s + k, q * s : q * s + k].transpose(0, 3, 1, 2).reshape(len(x), -1)
        for r in range(layer.out_h)
        for q in range(layer.out_w)
    ]
    return (np.stack(windows, axis=1) @ w.T).reshape(-1, len(w))


# two equal even halves (the paper's case), odd halves, unequal two-way
# splits, and three- and four-way splits with short tails, as the greedy
# splitter builds them
CASCADE_SPLITS = (
    (8, 8), (12, 12), (16, 16), (5, 5), (7, 7), (16, 12),
    (8, 8, 8), (12, 12, 6), (6, 6, 6, 6), (8, 8, 8, 5),
)


def _admissible(lengths, x: int, count: int) -> bool:
    try:
        for n in lengths:
            crossbar.ReferenceSet(n, x, count)
    except ValueError:
        return False
    return True


def _cascade_guarantees_hold(lengths, x: int, count: int) -> bool:
    """Walk every per-segment count cell of one split: F1 never fires on a
    non-majority, F2 fires on a readout tuple exactly when one of its count
    cells is a majority (complete, and no complete rule fires less), and F2
    fires wherever F1 does."""
    refs = crossbar.ReferenceSet(lengths[0], x, count)
    cells = _count_cells(lengths, 0)
    intervals = _scalar_intervals(cells, lengths, refs)
    golden = 2 * cells.sum(axis=1) > sum(lengths)
    f1 = cascade.decide_batch("F1", intervals, lengths, refs)
    f2 = cascade.decide_batch("F2", intervals, lengths, refs)
    key = np.ravel_multi_index(intervals.T, (count + 1,) * len(lengths))
    some_majority = np.zeros((count + 1) ** len(lengths), dtype=bool)
    np.logical_or.at(some_majority, key, golden)
    return not (f1 & ~golden).any() and (f2 == some_majority[key]).all() and not (f1 & ~f2).any()


# mlp-l's real splits: 1500 and 1000 over 512 rows
MLPL_SPLITS = ((512, 512, 476), (512, 488))


def _count_cells(lengths, margin: int) -> np.ndarray:
    """Every per-segment count tuple, each count from -margin to its
    segment length + margin: one row per cell."""
    return np.array(list(itertools.product(*(range(-margin, n + margin + 1) for n in lengths))))


def _counts_near_references(lengths, x: int, count: int, size: int, rng) -> np.ndarray:
    """`size` random count tuples, each count uniform within 2x of its
    segment's lowest and highest references."""
    refs = crossbar.ReferenceSet(lengths[0], x, count)
    cols = []
    for n in lengths:
        levels = refs.for_segment(n).levels()
        cols.append(rng.integers(levels[0] - 2 * x, levels[-1] + 2 * x + 1, size))
    return np.stack(cols, axis=1)


def _scalar_intervals(cells: np.ndarray, lengths, refs) -> np.ndarray:
    """The scalar `sa_read` interval of every count in the count cells (one
    row per tuple), each count clipped into 0..its segment length; `sa_read`
    runs once per level."""
    cols = []
    for s, n in enumerate(lengths):
        table = np.array([crossbar.sa_read(d, refs.for_segment(n)).interval_index for d in range(n + 1)])
        cols.append(table[np.clip(cells[:, s], 0, n)])
    return np.stack(cols, axis=1)


def _evaluators_agree(lengths, x: int, count: int, cells: np.ndarray) -> bool:
    """`cascade.decide_counts` on the count cells, as int64 and as float32,
    against `cascade.decide_batch` on their scalar `sa_read` intervals, for
    every policy kind."""
    refs = crossbar.ReferenceSet(lengths[0], x, count)
    intervals = _scalar_intervals(cells, lengths, refs)
    ok = True
    for kind in cascade.POLICY_KINDS:
        want = cascade.decide_batch(kind, intervals, lengths, refs)
        for dtype in (np.int64, np.float32):
            ok &= np.array_equal(cascade.decide_counts(kind, cells.T.astype(dtype), lengths, refs), want)
    return bool(ok)


# one float32 block of 514 columns (255 * 128 * 514 <= 2^24), and one column
# past one and two blocks
PIXEL_FAN_INS = (514, 515, 1028, 1029)


# (array rows, fan-in): one segment, an unequal two-way and a three-way split
CHAIN_SPLITS = ((8, 7), (8, 14), (8, 23), (16, 12), (16, 28), (16, 40))


def _batched_chain_matches_scalar(rows: int, fan_in: int, kind: str, count: int, x: int, rng) -> bool:
    """`netio._fc_bits_crossbar` on the segment dots of random bit matrices
    against `crossbar.layer_forward` per (input row, neuron)."""
    cfg = crossbar.CrossbarConfig(rows, rows)
    lengths = crossbar.segment_lengths(fan_in, rows)
    refs = crossbar.ReferenceSet(lengths[0], x, count)
    a = rng.integers(0, 2, (16, fan_in), dtype=np.uint8)
    w = rng.integers(0, 2, (4, fan_in), dtype=np.uint8)
    got = netio._fc_bits_crossbar(netio._segment_dots(a, w, lengths), lengths, netio.CrossbarBackend(cfg, refs, kind))
    policy = cascade.CascadePolicy(kind, refs)
    groups = [crossbar.map_weights(bincore.BinaryTensor.from_bits(row), cfg) for row in w]
    want = [
        [crossbar.layer_forward(bincore.BinaryTensor.from_bits(row), g, refs, policy) for g in groups]
        for row in a
    ]
    return np.array_equal(got, want)


def _raw_pair_mismatches(n: int, kind: str) -> int:
    """Oracle: walk every (A, B) pair as integers, no library machinery."""
    seg = n // 2
    main = seg // 2
    lo_mask = (1 << seg) - 1
    mism = 0
    for av in range(1 << n):
        for bv in range(1 << n):
            r = ~(av ^ bv) & ((1 << n) - 1)
            d1 = bin(r & lo_mask).count("1")
            d2 = bin(r >> seg).count("1")
            golden = 2 * (d1 + d2) > n
            if kind == "AND":
                out = d1 > main and d2 > main
            else:
                out = d1 > main or d2 > main
            mism += out != golden
    return mism


def cmd_verify(args) -> int:
    failures = run_verification(args.nu_max if args.nu_max is not None else 10)
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


# ------------------------------------------------------------ loss-sweep


def cmd_loss_sweep(args) -> int:
    config = _load_config(args.config)
    mode = _resolve(args, config, "mode", "distance")
    policy_kind = _resolve(args, config, "policy", "F2")
    nu = int(_resolve(args, config, "nu", 512))
    samples = int(_resolve(args, config, "samples", 100_000))
    sigma = float(_resolve(args, config, "sigma", 0.15))
    seed = _resolve(args, config, "seed", None)
    x_grid = _resolve(args, config, "x_grid", None)
    ref_counts = _resolve(args, config, "ref_counts", (1, 3, 5, 7))

    segment = nu // 2
    resolved = {
        "command": "loss-sweep", "mode": mode, "policy": policy_kind, "nu": nu,
        "samples": samples, "sigma": sigma, "seed": seed,
        "x_grid": list(x_grid) if x_grid else None, "ref_counts": list(ref_counts),
    }
    header = [
        f"config_sha256={_config_hash(resolved)}", f"seed={seed}",
        f"xbarbnn_version={__version__}", f"numpy_version={np.__version__}",
    ]

    if mode == "exact":
        rows = []
        for kind in ("AND", "OR"):
            for n in EXACT_NU_GRID:
                pol = cascade.CascadePolicy(kind, crossbar.ReferenceSet(n // 2))
                rep = cascade.enumerate_loss(n, n // 2, pol)
                mc = cascade.MonteCarloLoss(
                    rep.total_pairs, rep.mismatches, rep.false_positives,
                    rep.false_negatives, rep.loss_fraction, rep.loss_fraction, rep.loss_fraction,
                )
                rows.append(cascade.SweepRow(kind, n, n // 2, 1, 0, mc))
        _write_text(args.out, cascade.sweep_rows_to_csv(rows, header))
        return 0

    if seed is None:
        print("loss-sweep: --seed is mandatory for stochastic modes", file=sys.stderr)
        return 2
    seed = int(seed)
    dist = cascade.DistSpec(sigma)
    grid = [int(x) for x in x_grid] if x_grid else list(DEFAULT_X_GRID)

    rows, rejected = [], []
    if mode == "distance":
        pol = cascade.CascadePolicy(policy_kind, crossbar.ReferenceSet(segment, grid[0], 3))
        rows, rejected = cascade.sweep_reference_distance(pol, nu, segment, grid, dist, samples, seed)
    elif mode in ("refcount", "functions"):
        kinds = ("F1", "F2") if mode == "functions" else (policy_kind,)
        for kind in kinds:
            for count in ref_counts:
                count = int(count)
                if count == 1:
                    # single reference: no auxiliary pair, so the relaxed rule
                    # degenerates to OR and the conservative one to AND
                    k1 = "OR" if kind == "F2" else "AND"
                    pol = cascade.CascadePolicy(k1, crossbar.ReferenceSet(segment))
                    r = cascade.monte_carlo_loss(pol, nu, segment, dist, samples, seed)
                    rows.append(cascade.SweepRow(k1, nu, segment, 1, 0, r))
                    continue
                pol = cascade.CascadePolicy(kind, crossbar.ReferenceSet(segment, grid[0], count))
                got, rej = cascade.sweep_reference_distance(pol, nu, segment, grid, dist, samples, seed)
                rows.extend(got)
                rejected.extend(rej)
    else:
        print(f"loss-sweep: unknown mode {mode!r}", file=sys.stderr)
        return 2
    for x, why in rejected:
        print(f"rejected x={x}: {why}", file=sys.stderr)
    _write_text(args.out, cascade.sweep_rows_to_csv(rows, header))
    return 0


# ----------------------------------------------------------------- infer


def _network_from_args(args, config) -> netio.NetworkSpec:
    name = _resolve(args, config, "network", None)
    topology = _resolve(args, config, "topology", None)
    if topology:
        return netio.parse_topology(topology)
    if name:
        return netio.named_network(name)
    raise ValueError("need --network or --topology")


def cmd_infer(args) -> int:
    config = _load_config(args.config)
    net = _network_from_args(args, config)
    seed = _resolve(args, config, "seed", None)
    policy = _resolve(args, config, "policy", "F2")
    refs_count = int(_resolve(args, config, "refs", 3))
    distance = int(_resolve(args, config, "ref_distance", 16))
    geometry = crossbar.CrossbarConfig.parse(_resolve(args, config, "crossbar", "512x512"))
    refs = crossbar.ReferenceSet(geometry.rows, distance if refs_count > 1 else 0, refs_count)
    backend = netio.CrossbarBackend(geometry, refs, policy)
    backend.validate(net)

    if args.weights:
        weights = netio.WeightContainer.load(args.weights)
    else:
        if seed is None:
            print("infer: --random-weights needs --seed", file=sys.stderr)
            return 2
        weights = netio.WeightContainer.random(net, int(seed))

    if args.images and args.labels:
        images, labels = netio.DatasetSource(args.images, args.labels).load()
    else:
        if seed is None:
            print("infer: --synthetic needs --seed", file=sys.stderr)
            return 2
        rng = np.random.default_rng(int(seed) + 1)
        n = int(_resolve(args, config, "synthetic", 256))
        images = rng.integers(0, 256, (n, net.input_h, net.input_w), dtype=np.uint8)
        labels = rng.integers(0, 10, n, dtype=np.uint8)

    report = netio.run_inference(net, weights, images, labels, backend)

    resolved = {
        "command": "infer", "network": net.name, "policy": policy, "refs": refs_count,
        "ref_distance": distance, "crossbar": f"{geometry.rows}x{geometry.cols}",
        "seed": seed, "samples": int(report.samples),
    }
    payload = {"meta": _meta(resolved, **resolved)}
    payload.update(report.to_dict())
    _dump_json(args.out, payload)
    return 0


# ------------------------------------------------------------------ cost


def cmd_cost(args) -> int:
    config = _load_config(args.config)
    net = _network_from_args(args, config)
    refs_count = int(_resolve(args, config, "refs", 1))
    if args.params:
        try:
            params = costmodel.CostParams.from_dict(_load_config(args.params))
        except ValueError as err:
            print(f"cost: bad params file: {err}", file=sys.stderr)
            return 2
    else:
        params = costmodel.CostParams()

    proposed = costmodel.estimate_proposed(net, params, refs_count)
    baseline = costmodel.estimate_baseline(net, params)
    comp = costmodel.compare(proposed, baseline)

    resolved = {
        "command": "cost", "network": net.name, "refs": refs_count,
        "params": params.to_dict(),
    }
    payload = {
        "meta": _meta(resolved, refs=refs_count),
        "proposed": proposed.to_dict(),
        "baseline": baseline.to_dict(),
        "comparison": comp.to_dict(),
    }
    _dump_json(args.out, payload)
    if args.out:
        print(
            f"{net.name}: energy x{comp.energy_improvement:.2f}, "
            f"latency x{comp.latency_improvement:.2f}"
        )
    return 0


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="xbarbnn", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the exhaustive consistency suites")
    v.add_argument("--nu-max", type=int, default=None, help="bound for exhaustive vector sizes")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("loss-sweep", help="exact or Monte-Carlo accuracy-loss tables")
    s.add_argument("--config", help="JSON config file; flags override its entries")
    s.add_argument("--mode", choices=("exact", "distance", "refcount", "functions"))
    s.add_argument("--policy", choices=cascade.POLICY_KINDS)
    s.add_argument("--nu", type=int)
    s.add_argument("--samples", type=int)
    s.add_argument("--sigma", type=float)
    s.add_argument("--seed", type=int)
    s.add_argument("--x-grid", dest="x_grid", type=int, nargs="+")
    s.add_argument("--ref-counts", dest="ref_counts", type=int, nargs="+")
    s.add_argument("--out", help="CSV output path (stdout when omitted)")
    s.set_defaults(func=cmd_loss_sweep)

    i = sub.add_parser("infer", help="golden vs crossbar inference accuracy")
    i.add_argument("--config")
    i.add_argument("--network", help=f"one of {', '.join(sorted(netio.TOPOLOGIES))}")
    i.add_argument("--topology", help="explicit topology line")
    i.add_argument("--weights", help="weight container file")
    i.add_argument("--random-weights", action="store_true")
    i.add_argument("--images", help="IDX image file")
    i.add_argument("--labels", help="IDX label file")
    i.add_argument("--synthetic", type=int, help="use N random samples instead of a dataset")
    i.add_argument("--crossbar", help="array geometry, e.g. 512x512")
    i.add_argument("--policy", choices=cascade.POLICY_KINDS)
    i.add_argument("--refs", type=int)
    i.add_argument("--ref-distance", dest="ref_distance", type=int)
    i.add_argument("--seed", type=int)
    i.add_argument("--out", help="JSON output path (stdout when omitted)")
    i.set_defaults(func=cmd_infer)

    c = sub.add_parser("cost", help="proposed vs baseline energy/latency")
    c.add_argument("--config")
    c.add_argument("--network")
    c.add_argument("--topology")
    c.add_argument("--params", help="JSON cost-parameter file (defaults when omitted)")
    c.add_argument("--refs", type=int)
    c.add_argument("--out", help="JSON output path (stdout when omitted)")
    c.set_defaults(func=cmd_cost)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # bad configuration, missing or unreadable input file
        print(f"xbarbnn {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
