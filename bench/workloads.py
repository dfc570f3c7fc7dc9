"""The benchmark's workloads: what each sets up, times, records and checks.

Every workload uses the CLI defaults (512x512 arrays, F2 policy, 3 references,
distance 16) and draws all of its inputs from the workload seed.

A workload runs in *jobs*: one pass over the 4096-image set for inference,
one pass producing every paper table for ``paper-tables``. A job is made of
*unit calls* whose latency is reported: one 1024-image ``run_inference``
batch, or one 100k-sample Monte-Carlo row at nu=512.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np

import oracle

CROSSBAR = "512x512"
POLICY = "F2"
REFS = 3
DISTANCE = 16


def derived_seeds(seed: int, n: int) -> list[int]:
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(n)]


def digest(sim: dict) -> str:
    return hashlib.sha256(json.dumps(sim, sort_keys=True).encode()).hexdigest()[:16]


class Workload:
    """Shared bookkeeping: outputs seen per key, and failed checks."""

    unit = ""
    job_calls = 0  # library calls made per job, for the attempted count

    def __init__(self, seed: int, sizes):
        self.seed = seed
        self.sizes = sizes
        self.xb = None
        self.first = {}  # output key -> output of its first job
        self.failures: list[str] = []
        self.checks = 0
        self._ops = 0

    def config(self) -> dict:
        return {
            "workload": self.name, "crossbar": CROSSBAR, "policy": POLICY,
            "refs": REFS, "ref_distance": DISTANCE, "sizes": asdict(self.sizes),
        }

    def next_op(self, kind: str = "main") -> tuple:
        self._ops += 1
        return (kind, self._ops)

    def comparable(self, value):
        """An output reduced to plain values for comparison and the digest."""
        raise NotImplementedError

    def record(self, outputs: dict) -> None:
        """Keep the first job's outputs; every later job must repeat them."""
        for key, value in outputs.items():
            value = self.comparable(value)
            if key not in self.first:
                self.first[key] = value
                continue
            self.checks += 1
            if value != self.first[key]:
                self.failures.append(f"{key}: output changed between jobs of the same inputs")

    def check(self, tracer) -> None:
        raise NotImplementedError

    def sim(self) -> dict:
        raise NotImplementedError


# ------------------------------------------------------------ inference


@dataclass(frozen=True)
class InferSizes:
    batch: int = 1024
    batches: int = 4
    oracle_images: int = 8


class InferWorkload(Workload):
    """``netio.run_inference`` with the crossbar backend (which also runs the
    golden chain, as ``xbarbnn infer`` does) over a fixed image set."""

    unit = "images"

    def __init__(self, name: str, network: str, seed: int, sizes: InferSizes = InferSizes()):
        super().__init__(seed, sizes)
        self.name = name
        self.network = network
        self.job_calls = sizes.batches

    def config(self) -> dict:
        return {**super().config(), "network": self.network}

    def setup(self, xb) -> None:
        s_weights, s_images, self._s_oracle = derived_seeds(self.seed, 3)
        self.xb = xb
        self.net = xb.netio.named_network(self.network)
        self.weights = xb.netio.WeightContainer.random(self.net, s_weights)
        rng = np.random.default_rng(s_images)
        n, b = self.sizes.batches, self.sizes.batch
        self.images = rng.integers(0, 256, (n, b, self.net.input_h, self.net.input_w), dtype=np.uint8)
        self.labels = rng.integers(0, 10, (n, b), dtype=np.uint8)
        geometry = xb.crossbar.CrossbarConfig.parse(CROSSBAR)
        refs = xb.crossbar.ReferenceSet(geometry.rows, DISTANCE, REFS)
        self.backend = xb.netio.CrossbarBackend(geometry, refs, POLICY)

    def job(self, tracer, golden: bool = False):
        """Returns (unit calls as (items, seconds), outputs by key)."""
        backend = "golden" if golden else self.backend
        units, outputs = [], {}
        for b in range(self.sizes.batches):
            with tracer.op(self.next_op("golden" if golden else "main")):
                t0 = perf_counter()
                rep = self.xb.netio.run_inference(self.net, self.weights, self.images[b], self.labels[b], backend)
                units.append((self.sizes.batch, perf_counter() - t0))
            outputs[("golden" if golden else "crossbar", b)] = rep
        return units, outputs

    def comparable(self, rep):
        return rep.to_dict()

    def peak_job(self) -> None:
        self.xb.netio.run_inference(self.net, self.weights, self.images[0], self.labels[0], self.backend)

    def check(self, tracer) -> None:
        rng = np.random.default_rng(self._s_oracle)
        flat = self.images.reshape(-1, self.net.input_h, self.net.input_w)
        pick = np.sort(rng.choice(len(flat), self.sizes.oracle_images, replace=False))
        failures, attempted = oracle.check_inference(self.xb, self.net, self.weights, flat[pick], self.backend)
        self.failures += failures
        self.checks += attempted

    def sim(self) -> dict:
        reports = [self.first[("crossbar", b)] for b in range(self.sizes.batches)]
        return {
            "layer_mismatch": {str(b): [m["mismatch"] for m in r["layer_mismatch"]] for b, r in enumerate(reports)},
            # accuracy against the seeded labels changes with any prediction
            "accuracy": {str(b): [r["golden_accuracy"], r["accuracy"]] for b, r in enumerate(reports)},
        }

    def sim_summary(self) -> dict:
        rows = list(self.sim()["layer_mismatch"].values())
        return {f"sim.layer_mismatch.{i}": float(np.mean(col)) for i, col in enumerate(zip(*rows))}


# --------------------------------------------------------- paper tables


@dataclass(frozen=True)
class TableSizes:
    samples: int = 100_000
    census_nus: tuple = (64, 128, 256, 512)


NU = 512
SIGMA = 0.15  # CLI default input model for the Monte-Carlo tables
CENSUS_KINDS = ("AND", "OR", "F1", "F2")


class TablesWorkload(Workload):
    """The paper's analysis tables, built from public library calls."""

    name = "paper-tables"
    unit = "mc_samples"

    def __init__(self, seed: int, sizes: TableSizes = TableSizes()):
        super().__init__(seed, sizes)

    def setup(self, xb) -> None:
        self._mc_seed, s_conv = derived_seeds(self.seed, 2)
        self.xb = xb
        crossbar, cascade = xb.crossbar, xb.cascade
        seg = NU // 2
        self.dist = cascade.DistSpec(SIGMA)
        self.grid = list(xb.cli.DEFAULT_X_GRID)
        # loss-sweep --mode distance for F1 and F2, then --mode refcount
        # (F2; one reference degenerates to OR), as the CLI builds them
        self.sweeps = [
            ("distance", cascade.CascadePolicy(k, crossbar.ReferenceSet(seg, self.grid[0], REFS)))
            for k in ("F1", "F2")
        ] + [
            ("refcount", cascade.CascadePolicy(POLICY, crossbar.ReferenceSet(seg, self.grid[0], c)))
            for c in (3, 5, 7)
        ]
        self.single_ref = cascade.CascadePolicy("OR", crossbar.ReferenceSet(seg))
        # exact census: the CLI distance scaled with nu (16 at nu=512)
        self.census = []
        for nu in self.sizes.census_nus:
            for kind in CENSUS_KINDS:
                if kind in ("F1", "F2"):
                    refs = crossbar.ReferenceSet(nu // 2, max(1, nu * DISTANCE // NU), REFS)
                else:
                    refs = crossbar.ReferenceSet(nu // 2)
                self.census.append((nu, kind, cascade.CascadePolicy(kind, refs)))
        self.params = xb.costmodel.CostParams()
        rng = np.random.default_rng(s_conv)
        self.convs = []
        self.nets = []
        for name in xb.netio.TOPOLOGIES:
            net = xb.netio.named_network(name)
            self.nets.append(net)
            for i, layer in enumerate(net.weight_layers):
                if isinstance(layer, xb.netio.ConvLayer):
                    x = rng.integers(0, 2, (layer.in_channels, layer.input_h, layer.input_w), dtype=np.uint8)
                    k = rng.integers(0, 2, layer.weight_shape, dtype=np.uint8)
                    planes = 1 if layer.binarized else self.params.input_bit_planes
                    self.convs.append((f"{name}/{i}", x, k, planes))
        self.cfg = crossbar.CrossbarConfig.parse(CROSSBAR)
        self.job_calls = len(self.sweeps) + 1 + len(self.census) + 2 * len(self.convs) + 3 * 4 * len(self.nets)

    def _pass(self):
        xb, out = self.xb, {}
        seg = NU // 2
        for mode, pol in self.sweeps:
            rows, _ = xb.cascade.sweep_reference_distance(pol, NU, seg, self.grid, self.dist, self.sizes.samples, self._mc_seed)
            for r in rows:
                out[("sweep", f"{mode}/{r.policy}/r{r.ref_count}/x{r.distance}")] = r.result
        r = xb.cascade.monte_carlo_loss(self.single_ref, NU, seg, self.dist, self.sizes.samples, self._mc_seed)
        out[("sweep", "refcount/OR/r1/x0")] = r
        for nu, kind, pol in self.census:
            out[("census", f"{kind}/nu{nu}")] = xb.cascade.enumerate_loss(nu, nu // 2, pol)
        for label, x, k, planes in self.convs:
            for pw in (False, True):
                out[("conv", f"{label}/pw{int(pw)}")] = xb.dataflow.run_layer(x, k, self.cfg, pw, planes)
        for net in self.nets:
            for refs in (1, 3, 5, 7):
                p = xb.costmodel.estimate_proposed(net, self.params, refs)
                b = xb.costmodel.estimate_baseline(net, self.params)
                out[("cost", f"{net.name}/r{refs}")] = xb.costmodel.compare(p, b)
        return out

    def job(self, tracer, golden: bool = False):
        # a stopwatch on the Monte-Carlo rows, over whatever is installed
        cascade = self.xb.cascade
        mc, times = cascade.monte_carlo_loss, []

        def timed_mc(*args, **kwargs):
            t0 = perf_counter()
            try:
                return mc(*args, **kwargs)
            finally:
                times.append(perf_counter() - t0)

        cascade.monte_carlo_loss = timed_mc
        try:
            with tracer.op(self.next_op()):
                out = self._pass()
        finally:
            cascade.monte_carlo_loss = mc
        return [(self.sizes.samples, t) for t in times], out

    def comparable(self, v):
        """Loss fraction with FP/FN, improvement factors, or the conv dots
        with the bus words."""
        if hasattr(v, "loss_fraction") and hasattr(v, "false_positives"):
            return [float(v.loss_fraction), int(v.false_positives), int(v.false_negatives)]
        if hasattr(v, "energy_improvement"):
            return [float(v.energy_improvement), float(v.latency_improvement)]
        dots, log = v
        return [dots.tolist(), int(log.words_streamed)]

    def peak_job(self) -> None:
        self._pass()

    def check(self, tracer) -> None:
        cascade, crossbar, dataflow = self.xb.cascade, self.xb.crossbar, self.xb.dataflow
        fail = self.failures.append
        for (kind, key), v in self.first.items():
            if kind == "conv":
                label, pw = key.rsplit("/pw", 1)
                x, k, planes = next((x, k, p) for lab, x, k, p in self.convs if lab == label)
                dots, words = v
                with tracer.span("im2col_dot"):
                    ref = oracle.im2col_dot(x, k)
                shape = dataflow.ConvShape(x.shape[0], k.shape[0], x.shape[1], x.shape[2], k.shape[2])
                closed = dataflow.streamed_words_per_layer(shape, planes, 32, bool(int(pw)))
                self.checks += 2
                if not np.array_equal(np.asarray(dots), ref):
                    fail(f"run_layer {key}: dots differ from the im2col signed dot")
                if words != closed:
                    fail(f"run_layer {key}: log streamed {words} words, closed form {closed}")
            elif kind in ("sweep", "census") and "F1" in key.split("/"):
                self.checks += 1
                if v[1] != 0:
                    fail(f"{kind} {key}: F1 reported {v[1]} false positives")
            elif kind == "cost":
                self.checks += 1
                if not all(math.isfinite(f) and f > 0 for f in v):
                    fail(f"cost {key}: improvement factors {v} not finite and positive")
        # the census weighting against every raw (A, B) pair at nu <= 8
        cells = [(nu, kind, 0, 1) for nu in (4, 6, 8) for kind in ("AND", "OR")]
        cells += [(8, kind, 1, REFS) for kind in ("F1", "F2")]
        for nu, kind, x, count in cells:
            pol = cascade.CascadePolicy(kind, crossbar.ReferenceSet(nu // 2, x, count))
            rep = cascade.enumerate_loss(nu, nu // 2, pol)
            with tracer.span("pair_walk"):
                total, fp, fn = oracle.pair_walk(nu, kind, x, count)
            self.checks += 1
            if (rep.total_pairs, rep.false_positives, rep.false_negatives) != (total, fp, fn):
                fail(f"enumerate_loss {kind} nu={nu}: {rep} != pair walk {(total, fp, fn)}")

    def sim(self) -> dict:
        sim = {}
        for (kind, key), v in self.first.items():
            if kind == "conv":
                sim.setdefault("bus_words", {})[key] = v[1]
            else:
                sim.setdefault(kind, {})[key] = v
        return sim

    def sim_summary(self) -> dict:
        sim = self.sim()
        return {
            "sim.census_F2_loss_fraction": sim["census"][f"F2/nu{max(self.sizes.census_nus)}"][0],
            "sim.sweep_rows": len(sim["sweep"]),
            "sim.bus_words": sum(sim["bus_words"].values()),
        }


WORKLOADS = {
    "infer-lenet5": lambda seed: InferWorkload("infer-lenet5", "lenet-5", seed),
    "infer-mlpl": lambda seed: InferWorkload("infer-mlpl", "mlp-l", seed),
    "paper-tables": lambda seed: TablesWorkload(seed),
}
