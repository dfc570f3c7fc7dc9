import numpy as np
import pytest

from xbarbnn.dataflow import ConvLayer, run_layer, streamed_words_per_layer


def im2col_dot(input_bits: np.ndarray, kernels: np.ndarray, stride: int) -> np.ndarray:
    """Signed dot per (output channel, window), straight from the windows."""
    k = kernels.shape[2]
    signed = input_bits.astype(np.int64) * 2 - 1
    view = np.lib.stride_tricks.sliding_window_view(signed, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    return np.einsum("crqij,ocij->orq", view, kernels.astype(np.int64) * 2 - 1)


# (channels, height, width, kernel, stride, parallel_window); out_w in the comment
CASES = [
    (3, 9, 11, 3, 1, False),  # 9
    (3, 9, 10, 3, 1, False),  # 8
    (3, 11, 11, 3, 2, False),  # 5
    (3, 11, 13, 3, 2, False),  # 6
    (3, 9, 11, 3, 1, True),  # 9
    (3, 9, 10, 3, 1, True),  # 8
    (2, 5, 3, 3, 1, True),  # 1: no pair of windows to evaluate together
]


@pytest.fixture(params=CASES, ids=lambda c: "c{}h{}w{}k{}s{}pw{}".format(*c))
def layer(request, rng):
    ch, h, w, k, stride, pw = request.param
    x = rng.integers(0, 2, (ch, h, w), dtype=np.uint8)
    kernels = rng.integers(0, 2, (4, ch, k, k), dtype=np.uint8)
    return x, kernels, stride, pw


def test_run_layer_equals_im2col(layer):
    x, kernels, stride, pw = layer
    dots, _ = run_layer(x, kernels, parallel_window=pw, stride=stride)
    assert dots.tolist() == im2col_dot(x, kernels, stride).tolist()


@pytest.mark.parametrize("bit_width", [1, 8])
def test_closed_forms_equal_transaction_log(layer, bit_width):
    x, kernels, stride, pw = layer
    conv = ConvLayer(x.shape[0], kernels.shape[0], x.shape[1], x.shape[2], kernels.shape[2], stride)
    for bus in (1, 32):  # at bus width 1 the words are the streamed bits
        _, log = run_layer(x, kernels, parallel_window=pw, bit_width=bit_width, bus_width_bits=bus, stride=stride)
        assert streamed_words_per_layer(conv, bit_width, bus, pw) == log.words_streamed


def test_parallel_window_rejects_stride_above_one(rng):
    x = rng.integers(0, 2, (3, 11, 11), dtype=np.uint8)
    kernels = rng.integers(0, 2, (4, 3, 3, 3), dtype=np.uint8)
    layer = ConvLayer(3, 4, 11, 11, 3, 2)
    with pytest.raises(ValueError):
        run_layer(x, kernels, parallel_window=True, stride=2)
    with pytest.raises(ValueError):
        streamed_words_per_layer(layer, parallel_window=True)
