import numpy as np
import pytest

from xbarbnn.dataflow import ConvShape, run_layer, streamed_bits_per_row, streamed_words_per_layer


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
    _, log = run_layer(x, kernels, parallel_window=pw, bit_width=bit_width, stride=stride)
    shape = ConvShape(x.shape[0], kernels.shape[0], x.shape[1], x.shape[2], kernels.shape[2], stride)
    assert streamed_bits_per_row(shape, pw) * bit_width * shape.out_h == log.bits_streamed
    assert streamed_words_per_layer(shape, bit_width, 32, pw) == log.words_streamed


def test_parallel_window_rejects_stride_above_one(rng):
    x = rng.integers(0, 2, (3, 11, 11), dtype=np.uint8)
    kernels = rng.integers(0, 2, (4, 3, 3, 3), dtype=np.uint8)
    shape = ConvShape(3, 4, 11, 11, 3, 2)
    with pytest.raises(ValueError):
        run_layer(x, kernels, parallel_window=True, stride=2)
    with pytest.raises(ValueError):
        streamed_bits_per_row(shape, parallel_window=True)
    with pytest.raises(ValueError):
        streamed_words_per_layer(shape, parallel_window=True)
