"""The benchmark harness behind bench/run.py: set-up, timed closed loop,
correctness check, metrics and the report. See bench/README.md."""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import tracemalloc
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))

SETUP_REPS = 9
MODULES = ("bincore", "cascade", "cli", "costmodel", "crossbar", "dataflow", "netio")

# name -> (unit, what it is); the order and names match BENCHMARK.json
END_TO_END = {
    "throughput_per_s": ("1/s", "images/s over 1024-image batches, or Monte-Carlo samples/s over 100k-sample rows: items / time in unit calls"),
    "call_ms_tail": ("ms", "unit-call latency at the highest percentile with at least 10 samples beyond it"),
    "job_s": ("s", "time for the whole job (the 4096-image set, or every paper table); median over jobs"),
    "peak_mib": ("MiB", "tracemalloc peak over one untimed batch or table pass"),
    "setup_s": ("s", f"import, topology, weights, inputs and backend; median of {SETUP_REPS} set-ups"),
}
CENSUS_NUS = workloads.TableSizes().census_nus
PER_LAYER = {
    "netio.golden_chain_ms": ("ms", "golden-backend run_inference per batch"),
    "netio.crossbar_chain_ms": ("ms", "crossbar run minus golden run per batch"),
    "netio.peak_kib_per_image": ("KiB", "tracemalloc peak of one crossbar batch per image"),
    "netio.weights_random_ms": ("ms", "WeightContainer.random during set-up"),
    "cascade.decide_batch_ms": ("ms", "decide_batch per op"),
    "cascade.decide_batch_calls": ("count", "decide_batch calls per op"),
    "cascade.decisions": ("count", "rows decided by decide_batch per op"),
    "cascade.monte_carlo_ms": ("ms", "monte_carlo_loss per op"),
    "cascade.exact_census_ms": ("ms", "enumerate_loss over the whole census grid per op"),
    **{f"cascade.enumerate_loss_ms.nu{nu}": ("ms", f"enumerate_loss at nu={nu} per op") for nu in CENSUS_NUS},
    "dataflow.run_layer_ms": ("ms", "run_layer per op"),
    "dataflow.windows": ("count", "conv windows evaluated by run_layer per op"),
    "costmodel.compare_ms": ("ms", "estimate_proposed + estimate_baseline + compare per op"),
    "check.oracle_ms": ("ms", "time in the oracle during the check (outside the timed phase)"),
    "trace.overhead_ms": ("ms", "traced job minus untraced job, medians"),
    "trace.overhead_frac": ("ratio", "trace.overhead_ms over the untraced job"),
    **{f"self_ms.{n}": ("ms", f"self time of {n} spans per op") for n in tracing.MAIN_SPANS},
}


def import_xbarbnn() -> SimpleNamespace:
    """Fresh import of the package from this checkout's src/, so that every
    set-up pays for the import."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "xbarbnn" or m.startswith("xbarbnn.")]:
        del sys.modules[name]
    pkg = importlib.import_module("xbarbnn")
    if not Path(pkg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"xbarbnn imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"xbarbnn.{m}") for m in MODULES})


def tail(values) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it; the maximum when there are ten samples or fewer."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 1.0
    return s[n - 11], (n - 10) / n


# ------------------------------------------------------------ provenance


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        import ctypes

        libs = Path(np.__file__).parent.parent / "numpy.libs"
        for lib in libs.glob("*openblas*"):
            cdll = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(cdll, sym):
                    threads = int(getattr(cdll, sym)())
                    break
    except OSError:
        pass
    return {
        "name": info.get("name"), "version": info.get("version"),
        "threads": threads, "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def provenance(workload, args) -> dict:
    config = workload.config()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": NPROC,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "derived_seeds": "numpy SeedSequence(seed).spawn",
        "seconds": args.seconds,
        "trace": args.trace,
        "config": config,
        "config_sha256": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16],
    }


# ----------------------------------------------------------------- phases


def set_up(workload, tracer, traced: bool):
    """SETUP_REPS fresh set-ups; the last one is kept. Returns (modules, times)."""
    times = []
    for i in range(SETUP_REPS):
        t0 = perf_counter()
        xb = import_xbarbnn()
        if traced:
            tracer.install(xb)
        with tracer.op(("setup", i)):
            workload.setup(xb)
        times.append(perf_counter() - t0)
        if traced:
            tracer.uninstall()
    return xb, times


def peak_bytes(workload) -> int:
    tracemalloc.start()
    try:
        workload.peak_job()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class Phase:
    """Unit-call and job durations of one kind of timed job."""

    def __init__(self):
        self.units: list[tuple] = []
        self.jobs: list[float] = []


def run_job(workload, tracer, phase, tally, golden=False):
    t0 = perf_counter()
    try:
        units, outputs = workload.job(tracer, golden)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        tally["attempted"] += workload.job_calls
        tally["failed"] += 1
        return
    phase.jobs.append(perf_counter() - t0)
    phase.units += units
    tally["attempted"] += workload.job_calls
    workload.record(outputs)


def timed(workload, tracer, xb, seconds, traced, tally):
    """Closed loop until the time is up; with tracing, untraced and traced
    jobs alternate so the overhead compares like with like."""
    plain, main, golden = Phase(), Phase(), Phase()  # golden: spans only
    end = perf_counter() + seconds
    while perf_counter() < end or not plain.jobs:
        run_job(workload, tracer, plain, tally)
        if traced:
            with tracer.installed(xb):
                run_job(workload, tracer, main, tally)
                if isinstance(workload, workloads.InferWorkload):
                    run_job(workload, tracer, golden, tally, golden=True)
        if tally["failed"] and not plain.jobs:
            break
    return plain, main


# ---------------------------------------------------------------- metrics


def end_to_end(plain, setup_times, peak) -> dict:
    tail_s, _ = tail([secs for _, secs in plain.units])
    return {
        "throughput_per_s": sum(n for n, _ in plain.units) / sum(s for _, s in plain.units),
        "call_ms_tail": tail_s * 1e3,
        "job_s": statistics.median(plain.jobs),
        "peak_mib": peak / 2**20,
        "setup_s": statistics.median(setup_times),
    }


def per_layer(tracer, workload, plain, main, peak) -> dict:
    table = tracer.per_op()
    ops = [op for op in table if op[0] == "main"]
    golden_ops = [op for op in table if op[0] == "golden"]
    setup_ops = [op for op in table if op[0] == "setup"]
    med = lambda name, field="ms", over=ops: tracing.median_over(table, over, name, field)

    golden_ms = med("run_inference", over=golden_ops)
    census = {op: dict.fromkeys(CENSUS_NUS, 0.0) for op in ops}
    for name, start, end, _, op, extra in tracer.spans:
        if name == "enumerate_loss" and op in census and extra["nu"] in CENSUS_NUS:
            census[op][extra["nu"]] += (end - start) * 1e3
    census_med = lambda pick: statistics.median(pick(v) for v in census.values()) if census else 0.0

    names = [s[0] for s in tracer.spans]
    oracle_ms = sum(
        (end - start) * 1e3
        for name, start, end, parent, op, _ in tracer.spans
        if op and op[0] == "check" and name in tracing.ORACLE_SPANS
        and (parent is None or names[parent] not in tracing.ORACLE_SPANS)
    )
    plain_job = statistics.median(plain.jobs)
    traced_job = statistics.median(main.jobs) if main.jobs else plain_job
    batch = getattr(workload.sizes, "batch", None)
    out = {
        "netio.golden_chain_ms": golden_ms,
        "netio.crossbar_chain_ms": med("run_inference") - golden_ms if golden_ops else 0.0,
        "netio.peak_kib_per_image": peak / 1024 / batch if batch else 0.0,
        "netio.weights_random_ms": med("WeightContainer.random", over=setup_ops),
        "cascade.decide_batch_ms": med("decide_batch"),
        "cascade.decide_batch_calls": med("decide_batch", "calls"),
        "cascade.decisions": med("decide_batch", "rows"),
        "cascade.monte_carlo_ms": med("monte_carlo_loss"),
        "cascade.exact_census_ms": census_med(lambda v: sum(v.values())),
        **{f"cascade.enumerate_loss_ms.nu{nu}": census_med(lambda v, nu=nu: v[nu]) for nu in CENSUS_NUS},
        "dataflow.run_layer_ms": med("run_layer"),
        "dataflow.windows": med("run_layer", "windows"),
        "costmodel.compare_ms": med("estimate_proposed") + med("estimate_baseline") + med("compare"),
        "check.oracle_ms": oracle_ms,
        "trace.overhead_ms": (traced_job - plain_job) * 1e3,
        "trace.overhead_frac": (traced_job - plain_job) / plain_job,
        **{f"self_ms.{n}": med(n, "self_ms") for n in tracing.MAIN_SPANS},
    }
    return out


def describe(plain, workload) -> list[str]:
    n = len(plain.units)
    _, pct = tail([secs for _, secs in plain.units])
    what = "batches of %d images" % workload.sizes.batch if workload.unit == "images" else "Monte-Carlo rows"
    return [
        f"samples: {n} unit calls ({what}), {len(plain.jobs)} jobs",
        f"call_ms_tail is the p{100 * pct:.1f} of {n} unit calls",
    ]


# ------------------------------------------------------------------- main


def parse_args(argv=None):
    p = argparse.ArgumentParser(prog="bench/run.py", description="xbarbnn benchmark; see bench/README.md")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(workload, seconds: float, traced: bool) -> dict:
    """Set-up, peak pass, timed loop, check; returns the full report."""
    tracer = tracing.Tracer()
    tally = {"attempted": 0, "failed": 0}
    xb, setup_times = set_up(workload, tracer, traced)
    peak = peak_bytes(workload)
    # one untimed job fills allocator arenas; its outputs are the reference
    # that every timed job must repeat
    workload.record(workload.job(tracer)[1])
    plain, main = timed(workload, tracer, xb, seconds, traced, tally)
    if traced:
        tracer.install(xb)
    try:
        with tracer.op(("check", 0)):
            workload.check(tracer)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        workload.failures.append("check raised")
        workload.checks += 1
    finally:
        tracer.uninstall()
    tally["attempted"] += workload.checks
    tally["failed"] += len(workload.failures)
    report = {"tally": tally, "failures": workload.failures, "notes": [], "metrics": {}}
    if plain.jobs:
        report["notes"] = describe(plain, workload)
        metrics = end_to_end(plain, setup_times, peak)
        if traced:
            metrics = per_layer(tracer, workload, plain, main, peak)
        report["metrics"] = metrics
        report["sim"] = workload.sim()
        report["sim_digest"] = workloads.digest(report["sim"])
        report["sim_summary"] = workload.sim_summary()
    report["spans"] = tracer.dump() if traced else []
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        report = run(workload, args.seconds, bool(args.trace))
    except ImportError as err:
        print(f"cannot import xbarbnn from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    if not report["metrics"]:
        print("no job completed", file=sys.stderr)
        return 1
    report["provenance"] = provenance(workload, args)
    catalogue = PER_LAYER if args.trace else END_TO_END
    tally = report["tally"]
    for name, (unit, what) in catalogue.items():
        print(f"{name} = {report['metrics'][name]:.6g} {unit}  ({what})")
    print(f"failed_ops_fraction = {tally['failed'] / max(1, tally['attempted']):.6g}  "
          f"({tally['failed']} failed of {tally['attempted']} operations attempted)")
    for line in report["notes"] + [f"FAIL {f}" for f in report["failures"]]:
        print(line)
    for name, value in report["sim_summary"].items():
        print(f"{name} = {value}")
    print(f"sim.digest = {report['sim_digest']}  (simulated statistics of an unvalidated model; not regression-bounded)")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, sort_keys=True, default=str) + "\n")

    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": report["metrics"][name], "unit": unit} for name, (unit, _) in catalogue.items()},
    }
    print(json.dumps(result))
    return 0
