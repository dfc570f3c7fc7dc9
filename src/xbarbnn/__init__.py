"""XNOR binary-network inference on memristor crossbars: bit-exact execution
model, splitting/cascade accuracy analysis, conv dataflow mapping, and the
energy/latency comparison against a sequential differential-sensing design."""

from .bincore import BinaryTensor, golden_activation, popcount, xnor, xnor_popcount_dot
from .cascade import (
    CascadePolicy,
    DistSpec,
    LossRegionReport,
    MonteCarloLoss,
    enumerate_loss,
    monte_carlo_loss,
    sweep_reference_distance,
)
from .costmodel import Comparison, CostParams, CostReport, compare, estimate_baseline, estimate_proposed
from .crossbar import (
    CrossbarConfig,
    MappedColumnGroup,
    ReferenceSet,
    SAReadout,
    column_popcount,
    layer_forward,
    map_weights,
    sa_read,
    segment_lengths,
)
from .dataflow import ConvLayer, ConvWindowBuffer, TransactionLog, layout_kernels, run_layer
from .netio import (
    CrossbarBackend,
    NetworkSpec,
    WeightContainer,
    load_dataset,
    load_idx_images,
    load_idx_labels,
    named_network,
    parse_topology,
    run_inference,
)

__version__ = "0.1.0"
