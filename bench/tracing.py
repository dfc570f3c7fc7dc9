"""In-memory spans around calls into the xbarbnn modules.

The tracer patches module attributes with timing wrappers, so a call made
through the attribute (``netio._cascade.decide_batch``, the global lookup of
``monte_carlo_loss`` inside ``sweep_reference_distance``, or a direct call
from the benchmark) is recorded. Nothing under ``src/`` is changed: the
wrappers are installed for a traced phase and removed after it.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from collections import defaultdict
from time import perf_counter

# (module attribute, span name, extra fields taken from the call's arguments)
# run_layer(input_bits (C, H, W), kernels (O, C, k, k)) at the default stride 1
_WINDOWS = lambda a: {"windows": (a[0].shape[1] - a[1].shape[2] + 1) * (a[0].shape[2] - a[1].shape[3] + 1)}
PATCH_POINTS = (
    ("netio", "run_inference", "run_inference", None),
    ("cascade", "decide_batch", "decide_batch", lambda a: {"rows": len(a[1])}),
    ("cascade", "monte_carlo_loss", "monte_carlo_loss", None),
    ("cascade", "enumerate_loss", "enumerate_loss", lambda a: {"nu": a[0]}),
    ("dataflow", "run_layer", "run_layer", _WINDOWS),
    ("costmodel", "estimate_proposed", "estimate_proposed", None),
    ("costmodel", "estimate_baseline", "estimate_baseline", None),
    ("costmodel", "compare", "compare", None),
    ("crossbar", "map_weights", "map_weights", None),
    ("crossbar", "layer_forward", "layer_forward", None),
    ("bincore", "golden_activation", "golden_activation", None),
    ("bincore", "xnor_popcount_dot", "xnor_popcount_dot", None),
)
# Spans of the scalar oracle; the benchmark's own reference code adds the
# two numpy ones through Tracer.span.
ORACLE_SPANS = frozenset(
    {"map_weights", "layer_forward", "golden_activation", "xnor_popcount_dot", "im2col_dot", "pair_walk"}
)
MAIN_SPANS = (
    "run_inference", "decide_batch", "monte_carlo_loss", "enumerate_loss",
    "run_layer", "estimate_proposed", "estimate_baseline", "compare",
)


class Tracer:
    """Spans are lists [name, start, end, parent, op, extra], kept in memory
    and written out by the caller at exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []
        self._op = None
        self._saved: list[tuple] = []

    # ---------------------------------------------------------- recording

    @contextlib.contextmanager
    def op(self, op_id):
        """Every span opened inside belongs to operation `op_id`."""
        prev, self._op = self._op, op_id
        try:
            yield
        finally:
            self._op = prev

    @contextlib.contextmanager
    def span(self, name, **extra):
        if not self.enabled:
            yield
            return
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op, extra]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, extra_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = extra_of(args) if extra_of else {}
            with tracer.span(name, **extra):
                return fn(*args, **kwargs)

        return traced

    def install(self, modules) -> None:
        """Wrap every patch point on the given module namespace."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name, extra_of in PATCH_POINTS:
            mod = getattr(modules, mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig, extra_of))
        wc = modules.netio.WeightContainer
        orig = wc.__dict__["random"]
        self._saved.append((wc, "random", orig))
        wc.random = classmethod(self._wrap("WeightContainer.random", orig.__func__, None))
        self.enabled = True

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._saved):
            setattr(obj, attr, orig)
        self._saved.clear()
        self.enabled = False

    @contextlib.contextmanager
    def installed(self, modules):
        self.install(modules)
        try:
            yield
        finally:
            self.uninstall()

    # ---------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def per_op(self) -> dict:
        """op -> name -> {"calls", "ms", "self_ms", and summed extra fields}."""
        table = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for (name, start, end, _, op, extra), own in zip(self.spans, self.self_times()):
            cell = table[op][name]
            cell["calls"] += 1
            cell["ms"] += (end - start) * 1e3
            cell["self_ms"] += own * 1e3
            for k, v in extra.items():
                cell[k] += v
        return table

    def dump(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "self_s": own, "parent": p, "op": op, **extra}
            for i, ((n, s, e, p, op, extra), own) in enumerate(zip(self.spans, self.self_times()))
        ]


def median_over(table: dict, ops, name: str, field: str = "ms") -> float:
    """Median over `ops` of one span field; an op without the span counts 0."""
    ops = list(ops)
    if not ops:
        return 0.0
    return float(statistics.median(table[op][name][field] if name in table[op] else 0.0 for op in ops))
