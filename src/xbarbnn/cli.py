"""Command-line harness: argument parsing and the four commands. `verify`
runs the consistency checks of `xbarbnn.verify`; `loss-sweep`, `infer` and
`cost` emit deterministic CSV/JSON.

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

from . import __version__, cascade, costmodel, crossbar, netio

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


def cmd_verify(args) -> int:
    from . import verify  # the suite compiles only when it runs

    failures = verify.run_verification()
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
    # (cascade kinds, reference counts) of each stochastic mode
    sweeps = {"distance": ((policy_kind,), (3,)), "refcount": ((policy_kind,), ref_counts),
              "functions": (("F1", "F2"), ref_counts)}
    if mode != "exact" and mode not in sweeps:
        raise ValueError(f"unknown mode {mode!r}")

    segment = nu // 2
    # the exact table is always AND and OR over EXACT_NU_GRID: no other
    # setting shapes its rows, so none enters its hash
    resolved = {"command": "loss-sweep", "mode": mode} if mode == "exact" else {
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
        raise ValueError(f"--seed is mandatory for the stochastic {mode} mode")
    seed, kinds, counts = int(seed), *sweeps[mode]
    dist = cascade.DistSpec(sigma)
    grid = [int(x) for x in x_grid] if x_grid else list(DEFAULT_X_GRID)

    rows, rejected = [], []
    for kind, count in itertools.product(kinds, map(int, counts)):
        got, rej = _sweep(kind, count, nu, segment, grid, dist, samples, seed)
        rows += got
        rejected += rej
    if not rows:
        raise ValueError("no admissible x: " + "; ".join(f"x={x}: {why}" for x, why in rejected))
    for x, why in rejected:
        print(f"rejected x={x}: {why}", file=sys.stderr)
    _write_text(args.out, cascade.sweep_rows_to_csv(rows, header))
    return 0


def _sweep(kind, count, nu, segment, grid, dist, samples, seed):
    """The rows and the rejected x of one (kind, count) sweep over `grid`.
    One reference has no auxiliary pair, so the relaxed rule degenerates
    to OR and the conservative one to AND, in one row. Otherwise the
    template policy of `cascade.sweep_reference_distance`, which reads only
    its kind and count, takes the first x whose references fit the segment."""
    if count < 1 or count % 2 == 0:  # no x can fix it: a bad configuration
        raise ValueError(f"reference count must be odd and positive, got {count}")
    if count == 1:
        pol = cascade.CascadePolicy("OR" if kind == "F2" else "AND", crossbar.ReferenceSet(segment))
        loss = cascade.monte_carlo_loss(pol, nu, segment, dist, samples, seed)
        return [cascade.SweepRow(pol.kind, nu, segment, 1, 0, loss)], []
    rejected = []
    for x in grid:
        try:
            refs = crossbar.ReferenceSet(segment, x, count)
        except ValueError as err:
            rejected.append((x, str(err)))
            continue
        template = cascade.CascadePolicy(kind, refs)
        return cascade.sweep_reference_distance(template, nu, segment, grid, dist, samples, seed)
    return [], rejected


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

    if bool(args.images) != bool(args.labels):
        raise ValueError("--images and --labels go together: pass both or neither")
    if args.weights:
        weights = netio.WeightContainer.load(args.weights)
    else:
        if seed is None:
            raise ValueError("random weights need --seed, or pass --weights")
        weights = netio.WeightContainer.random(net, int(seed))

    if args.images:
        images, labels = netio.load_dataset(args.images, args.labels)
    else:
        if seed is None:
            raise ValueError("synthetic images need --seed, or pass --images and --labels")
        rng = np.random.default_rng(int(seed) + 1)
        n = int(_resolve(args, config, "synthetic", 256))
        if n < 1:
            raise ValueError(f"--synthetic needs at least 1 sample, got {n}")
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
            raise ValueError(f"bad params file: {err}") from err
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
