"""Independent references the benchmark checks the program against.

* A scalar forward pass per image built from ``bincore`` (golden chain) and
  ``crossbar.map_weights`` / ``layer_forward`` (crossbar chain), with the
  non-binarized first layer done in int64 and pooling as an explicit OR.
* A numpy im2col signed dot for ``dataflow.run_layer``.
* A raw walk over every (A, B) vector pair for ``cascade.enumerate_loss``,
  with the cascade rules spelled out from their definitions.

Each check returns a list of failure strings; an empty list is a pass.
"""

from __future__ import annotations

import itertools

import numpy as np


# ------------------------------------------------------------ inference


def _pool_or(a: np.ndarray, size: int) -> np.ndarray:
    c, h, w = a.shape
    out = np.zeros((c, h // size, w // size), dtype=np.uint8)
    for ch, i, j in itertools.product(range(c), range(h // size), range(w // size)):
        out[ch, i, j] = 1 if a[ch, i * size : (i + 1) * size, j * size : (j + 1) * size].any() else 0
    return out


def _first_layer(layer, w: np.ndarray, a: np.ndarray, fc_cls) -> np.ndarray:
    """Quantized layer in int64: sign of the integer dot, zero counts as 1."""
    w = w.astype(np.int64)
    if isinstance(layer, fc_cls):
        return (w @ a.reshape(-1).astype(np.int64) >= 0).astype(np.uint8)
    k = layer.kernel
    out = np.zeros((layer.out_channels, layer.out_h, layer.out_w), dtype=np.uint8)
    for r, q in itertools.product(range(layer.out_h), range(layer.out_w)):
        win = a[:, r : r + k, q : q + k].astype(np.int64)
        for o in range(layer.out_channels):
            out[o, r, q] = 1 if int((w[o] * win).sum()) >= 0 else 0
    return out


class ScalarOracle:
    """Per-image, per-neuron forward pass of one named network."""

    def __init__(self, xb, net, weights, backend):
        self.xb = xb
        self.net = net
        self.weights = weights
        self.backend = backend
        self.policy = backend.policy()
        self._rows = {}  # weight layer index -> per-neuron BinaryTensors
        self._groups = {}  # weight layer index -> per-neuron mapped groups

    def _neuron_rows(self, wi):
        if wi not in self._rows:
            w = self.weights.arrays[wi]
            self._rows[wi] = [
                self.xb.bincore.BinaryTensor.from_bits(w[j].reshape(-1)) for j in range(w.shape[0])
            ]
        return self._rows[wi]

    def _neuron_groups(self, wi):
        if wi not in self._groups:
            self._groups[wi] = [
                self.xb.crossbar.map_weights(t, self.backend.config) for t in self._neuron_rows(wi)
            ]
        return self._groups[wi]

    def _activation(self, chain, wi, j, a_tensor) -> int:
        if chain == "golden":
            return self.xb.bincore.golden_activation(a_tensor, self._neuron_rows(wi)[j])
        group = self._neuron_groups(wi)[j]
        return self.xb.crossbar.layer_forward(a_tensor, group, self.backend.refs, self.policy)

    def forward(self, image: np.ndarray, chain: str) -> tuple[int, list[np.ndarray]]:
        """(predicted class, activation bits of every non-final weight layer)."""
        netio, from_bits = self.xb.netio, self.xb.bincore.BinaryTensor.from_bits
        weight_layers = self.net.weight_layers
        a = image.reshape(self.net.input_channels, self.net.input_h, self.net.input_w)
        acts, wi = [], 0
        for layer in self.net.layers:
            if isinstance(layer, netio.PoolLayer):
                a = _pool_or(a, layer.size)
                continue
            last = wi == len(weight_layers) - 1
            if not layer.binarized:
                a = _first_layer(layer, self.weights.arrays[wi], a, netio.FCLayer)
            elif isinstance(layer, netio.FCLayer):
                vec = from_bits(a.reshape(-1))
                if last:
                    rows = self._neuron_rows(wi)
                    scores = [self.xb.bincore.xnor_popcount_dot(vec, r) for r in rows]
                    return int(np.argmax(scores)), acts
                a = np.array(
                    [self._activation(chain, wi, j, vec) for j in range(layer.out_features)],
                    dtype=np.uint8,
                )
            else:
                k = layer.kernel
                out = np.zeros((layer.out_channels, layer.out_h, layer.out_w), dtype=np.uint8)
                for r, q in itertools.product(range(layer.out_h), range(layer.out_w)):
                    win = from_bits(a[:, r : r + k, q : q + k].reshape(-1))
                    for o in range(layer.out_channels):
                        out[o, r, q] = self._activation(chain, wi, o, win)
                a = out
            acts.append(a)
            wi += 1
        raise ValueError("network must end in an FC layer")


def check_inference(xb, net, weights, images, backend) -> tuple[list[str], int]:
    """Oracle predictions become the labels: golden accuracy must be exactly
    1.0 against the golden-oracle labels, crossbar accuracy exactly 1.0
    against the crossbar-oracle labels, and the reported per-layer mismatch
    must equal the one between the two oracle chains.

    Returns (failures, checks attempted).
    """
    oracle = ScalarOracle(xb, net, weights, backend)
    golden = [oracle.forward(img, "golden") for img in images]
    xbar = [oracle.forward(img, "crossbar") for img in images]
    g_labels = np.array([c for c, _ in golden], dtype=np.uint8)
    x_labels = np.array([c for c, _ in xbar], dtype=np.uint8)

    failures = []
    rep = xb.netio.run_inference(net, weights, images, g_labels, "golden")
    if rep.accuracy != 1.0:
        failures.append(f"golden chain: accuracy {rep.accuracy} against the golden oracle")
    rep = xb.netio.run_inference(net, weights, images, x_labels, backend)
    if rep.accuracy != 1.0:
        failures.append(f"crossbar chain: accuracy {rep.accuracy} against the crossbar oracle")
    want = []
    for layer in range(len(golden[0][1])):
        diff = sum(int((g[1][layer] != c[1][layer]).sum()) for g, c in zip(golden, xbar))
        size = sum(g[1][layer].size for g in golden)
        want.append(diff / size)
    got = [m for _, m in rep.layer_mismatch]
    if got != want:
        failures.append(f"layer_mismatch {got} != oracle {want}")
    return failures, 3


# ------------------------------------------------------------- dataflow


def im2col_dot(input_bits: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Signed dot per (output channel, window) at stride 1."""
    k = kernels.shape[2]
    signed = input_bits.astype(np.int64) * 2 - 1
    view = np.lib.stride_tricks.sliding_window_view(signed, (k, k), axis=(1, 2))  # C, oh, ow, k, k
    return np.einsum("crqij,ocij->orq", view, kernels.astype(np.int64) * 2 - 1)


# ---------------------------------------------------------------- census


def _levels(length: int, distance: int, count: int) -> list[int]:
    main = length // 2
    half = (count - 1) // 2
    return [main + j * distance for j in range(-half, half + 1)]


def policy_bit(kind: str, counts, lengths, distance: int, count: int) -> bool:
    """Cascade rules from their definitions (module docstring of cascade):
    AND/OR compare each segment with its main reference; F1 fires when the
    highest references strictly below the counts already sum to half the
    vector; F2 also fires when the interval midpoints reach half of it."""
    levels = [_levels(n, distance, count) for n in lengths]
    above_main = [d > lv[(count - 1) // 2] for d, lv in zip(counts, levels)]
    if kind == "AND":
        return all(above_main)
    if kind == "OR":
        return any(above_main)
    total = sum(lengths)
    lows = [max((r for r in lv if r < d), default=None) for d, lv in zip(counts, levels)]
    f1 = None not in lows and 2 * sum(lows) >= total
    if kind == "F1":
        return f1
    highs = [min((r for r in lv if r >= d), default=n) for d, lv, n in zip(counts, levels, lengths)]
    return f1 or sum((lo or 0) + hi for lo, hi in zip(lows, highs)) >= total


def pair_walk(nu: int, kind: str, distance: int, count: int) -> tuple[int, int, int]:
    """(total pairs, false positives, false negatives) over every (A, B)
    pair of nu-bit vectors split into two equal halves."""
    seg = nu // 2
    vals = np.arange(1 << nu, dtype=np.int64)
    match = ~(vals[:, None] ^ vals[None, :]) & ((1 << nu) - 1)
    bits = (match[..., None] >> np.arange(nu)) & 1
    d1 = bits[..., :seg].sum(axis=-1).ravel()
    d2 = bits[..., seg:].sum(axis=-1).ravel()
    hist = np.zeros((seg + 1, seg + 1), dtype=np.int64)
    np.add.at(hist, (d1, d2), 1)
    fp = fn = 0
    for a, b in itertools.product(range(seg + 1), repeat=2):
        out = policy_bit(kind, (a, b), (seg, seg), distance, count)
        golden = 2 * (a + b) > nu
        if out and not golden:
            fp += int(hist[a, b])
        elif golden and not out:
            fn += int(hist[a, b])
    return int(hist.sum()), fp, fn
