"""Parameterized energy/latency estimates for the parallel SA-thresholded
design and for the sequential differential-sensing baseline.

Absolute device energies are configuration placeholders (the real numbers
come from device models and circuit data not shipped here), so only the
structural and ordinal comparisons between the two designs are meaningful.
Every report carries that disclaimer in its header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .crossbar import CrossbarConfig, segment_lengths
from .dataflow import ConvLayer, streamed_words_per_layer
from .netio import NetworkSpec

DISCLAIMER = (
    "Device energies are configurable placeholders; absolute improvement "
    "factors are not calibrated. Only ordinal/structural comparisons between "
    "the two designs are meaningful."
)


@dataclass(frozen=True)
class CostParams:
    """Per-event parameters; unit is embedded in each name.

    Energy defaults are placeholders at a plausible 32nm-class order of
    magnitude, not measured values.
    """

    clock_hz: float = 1e9
    bus_width_bits: int = 32
    buffer_transfer_power_w: float = 5e-3
    crossbar_read_energy_j: float = 1e-10  # one full-array activation
    crossbar_read_latency_cycles: int = 1
    sa_compare_energy_j: float = 5e-14  # one comparator event
    sa_cycle_per_reference: int = 1
    popcount_unit_energy_j: float = 1e-12  # one digital popcount per output
    popcount_unit_latency_cycles: int = 1
    shift_add_energy_j: float = 1e-12  # one shift-add per output per bit-plane
    shift_add_latency_cycles: int = 1
    baseline_popcount_group: int = 16  # columns served by one popcount unit
    baseline_sense_cycles_per_output: int = 1
    input_bit_planes: int = 8  # quantization of non-binarized layers
    transfer_word_energy_j: float = field(default=0.0)

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name != "transfer_word_energy_j" and not v > 0:
                raise ValueError(f"{f.name} must be strictly positive, got {v}")
        if self.transfer_word_energy_j <= 0.0:
            # one bus word occupies the buffer interface for one cycle
            object.__setattr__(
                self, "transfer_word_energy_j", self.buffer_transfer_power_w / self.clock_hz
            )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "CostParams":
        known = {f.name for f in fields(cls)}
        missing = sorted(known - set(d) - {"transfer_word_energy_j"})
        extra = sorted(set(d) - known)
        if missing or extra:
            parts = []
            if missing:
                parts.append("missing keys: " + ", ".join(missing))
            if extra:
                parts.append("unknown keys: " + ", ".join(extra))
            raise ValueError("; ".join(parts))
        return cls(**d)


@dataclass(frozen=True)
class LayerCost:
    label: str
    windows: int
    outputs: int
    fan_in: int
    splits: int
    array_instances: int
    energy_crossbar_j: float
    energy_sa_j: float
    energy_digital_j: float
    energy_transfer_j: float
    latency_cycles: int

    @property
    def energy_j(self) -> float:
        return (
            self.energy_crossbar_j
            + self.energy_sa_j
            + self.energy_digital_j
            + self.energy_transfer_j
        )

    def to_dict(self) -> dict:
        return {
            "layer": self.label,
            "windows": self.windows,
            "outputs": self.outputs,
            "fan_in": self.fan_in,
            "splits": self.splits,
            "array_instances": self.array_instances,
            "energy_j": self.energy_j,
            "energy_breakdown_j": {
                "crossbar": self.energy_crossbar_j,
                "sa": self.energy_sa_j,
                "digital": self.energy_digital_j,
                "transfer": self.energy_transfer_j,
            },
            "latency_cycles": self.latency_cycles,
        }


@dataclass(frozen=True)
class CostReport:
    design: str
    network: str
    sa_reference_count: int
    layers: tuple
    clock_hz: float
    note: str = DISCLAIMER

    @property
    def energy_j(self) -> float:
        return sum(l.energy_j for l in self.layers)

    @property
    def latency_cycles(self) -> int:
        return sum(l.latency_cycles for l in self.layers)

    @property
    def latency_s(self) -> float:
        return self.latency_cycles / self.clock_hz

    def breakdown(self) -> dict:
        out = {"crossbar": 0.0, "sa": 0.0, "digital": 0.0, "transfer": 0.0}
        for l in self.layers:
            out["crossbar"] += l.energy_crossbar_j
            out["sa"] += l.energy_sa_j
            out["digital"] += l.energy_digital_j
            out["transfer"] += l.energy_transfer_j
        return out

    def to_dict(self) -> dict:
        return {
            "note": self.note,
            "design": self.design,
            "network": self.network,
            "sa_reference_count": self.sa_reference_count,
            "energy_j": self.energy_j,
            "energy_breakdown_j": self.breakdown(),
            "latency_cycles": self.latency_cycles,
            "latency_s": self.latency_s,
            "layers": [l.to_dict() for l in self.layers],
        }


@dataclass(frozen=True)
class _LayerGeom:
    label: str
    windows: int
    outputs: int
    fan_in: int
    bit_planes: int  # input quantization: 1 for binary activations
    transfer_words: int
    non_binarized: bool
    splits: int  # column segments per output on a default array
    instances: int  # default arrays holding every output's segments


def _geometry(net: NetworkSpec, params: CostParams) -> list[_LayerGeom]:
    # binary max pooling is an OR gate in the periphery; negligible
    cfg = CrossbarConfig()
    geoms = []
    for idx, layer in enumerate(net.weight_layers):
        planes = 1 if layer.binarized else params.input_bit_planes
        if isinstance(layer, ConvLayer):
            label = f"{idx}:conv{layer.kernel}x{layer.kernel}x{layer.out_channels}"
            windows, outputs = layer.out_h * layer.out_w, layer.out_channels
            words = streamed_words_per_layer(layer, planes, params.bus_width_bits)
        else:
            label = f"{idx}:fc{layer.out_features}"
            windows, outputs = 1, layer.out_features
            words = -(-layer.in_features * planes // params.bus_width_bits)
        splits = len(segment_lengths(layer.fan_in, cfg.rows))
        geoms.append(
            _LayerGeom(
                label, windows, outputs, layer.fan_in, planes, words, not layer.binarized,
                splits, -(-outputs * splits // cfg.cols),
            )
        )
    return geoms


def estimate_proposed(net: NetworkSpec, params: CostParams, sa_reference_count: int = 1) -> CostReport:
    """All columns of a window evaluate in one array read; each column needs
    one SA comparison cycle per reference. Data transfer is pipelined with
    compute, so it costs energy but no serial cycles. Conv layers are
    costed with parallel_window=False: one window per array read and one
    pack per slide, bus words from `dataflow.streamed_words_per_layer`.
    The reference count must be odd and positive, as a `ReferenceSet`'s is:
    ValueError otherwise."""
    if sa_reference_count < 1 or sa_reference_count % 2 == 0:
        raise ValueError(f"reference count must be odd and positive, got {sa_reference_count}")
    layers = []
    for g in _geometry(net, params):
        reads = g.windows * g.bit_planes
        if g.non_binarized:
            # bit-serial input feed; digitization folded into the shift-add
            # placeholder since SA thresholding cannot apply mid-accumulation
            per_window = g.bit_planes * (
                params.crossbar_read_latency_cycles + params.shift_add_latency_cycles
            )
            e_sa = 0.0
            e_digital = reads * g.outputs * params.shift_add_energy_j
        else:
            per_window = g.bit_planes * (
                params.crossbar_read_latency_cycles
                + sa_reference_count * params.sa_cycle_per_reference
            )
            e_sa = reads * g.outputs * g.splits * sa_reference_count * params.sa_compare_energy_j
            e_digital = 0.0
        layers.append(
            LayerCost(
                g.label,
                g.windows,
                g.outputs,
                g.fan_in,
                g.splits,
                g.instances,
                reads * g.instances * params.crossbar_read_energy_j,
                e_sa,
                e_digital,
                g.transfer_words * params.transfer_word_energy_j,
                g.windows * per_window,
            )
        )
    return CostReport("proposed", net.name, sa_reference_count, tuple(layers), params.clock_hz)


def estimate_baseline(net: NetworkSpec, params: CostParams) -> CostReport:
    """Differential sensing reads outputs sequentially; a popcount unit per
    column group digitizes each pass, so latency grows with the output count
    and the array is activated once per group pass."""
    layers = []
    for g in _geometry(net, params):
        passes = -(-g.outputs // params.baseline_popcount_group)
        per_window = g.bit_planes * (
            g.outputs * g.splits * params.baseline_sense_cycles_per_output
            + passes * params.popcount_unit_latency_cycles
            + (params.shift_add_latency_cycles if g.non_binarized else 0)
        )
        reads = g.windows * g.bit_planes * passes
        e_sa = g.windows * g.bit_planes * g.outputs * g.splits * params.sa_compare_energy_j
        e_digital = g.windows * g.bit_planes * g.outputs * params.popcount_unit_energy_j
        if g.non_binarized:
            e_digital += g.windows * g.bit_planes * g.outputs * params.shift_add_energy_j
        layers.append(
            LayerCost(
                g.label,
                g.windows,
                g.outputs,
                g.fan_in,
                g.splits,
                g.instances,
                reads * params.crossbar_read_energy_j,
                e_sa,
                e_digital,
                g.transfer_words * params.transfer_word_energy_j,
                g.windows * per_window,
            )
        )
    return CostReport("baseline", net.name, 1, tuple(layers), params.clock_hz)


@dataclass(frozen=True)
class Comparison:
    network: str
    energy_improvement: float
    latency_improvement: float
    per_layer: tuple  # (label, energy ratio, latency ratio)

    def to_dict(self) -> dict:
        return {
            "note": DISCLAIMER,
            "network": self.network,
            "energy_improvement": self.energy_improvement,
            "latency_improvement": self.latency_improvement,
            "per_layer": [
                {"layer": n, "energy_ratio": e, "latency_ratio": l} for n, e, l in self.per_layer
            ],
        }


def compare(proposed: CostReport, baseline: CostReport) -> Comparison:
    """Baseline-over-proposed improvement factors with per-layer attribution."""
    if proposed.network != baseline.network:
        raise ValueError(f"reports describe different networks: {proposed.network} vs {baseline.network}")
    if len(proposed.layers) != len(baseline.layers):
        raise ValueError("reports have different layer structure")
    per_layer = []
    for p, b in zip(proposed.layers, baseline.layers):
        if p.label != b.label:
            raise ValueError(f"layer mismatch: {p.label} vs {b.label}")
        per_layer.append((p.label, b.energy_j / p.energy_j, b.latency_cycles / max(1, p.latency_cycles)))
    return Comparison(
        proposed.network,
        baseline.energy_j / proposed.energy_j,
        (baseline.latency_cycles / proposed.latency_cycles) if proposed.latency_cycles else math.inf,
        tuple(per_layer),
    )
