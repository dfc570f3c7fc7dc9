import numpy as np
import pytest

from xbarbnn.dataflow import ConvLayer, run_layer, streamed_words_per_layer
from xbarbnn.verify import DATAFLOW_CASES


def im2col_dot(input_bits: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Signed dot per (output channel, window), straight from the windows."""
    k = kernels.shape[2]
    signed = input_bits.astype(np.int64) * 2 - 1
    view = np.lib.stride_tricks.sliding_window_view(signed, (k, k), axis=(1, 2))
    return np.einsum("crqij,ocij->orq", view, kernels.astype(np.int64) * 2 - 1)


@pytest.fixture(params=DATAFLOW_CASES, ids=lambda c: "c{}h{}w{}k{}s1pw{}".format(*c))
def case(request):
    return request.param


def test_run_layer_equals_im2col(case, rng):
    ch, h, w, k, pw = case
    x = rng.integers(0, 2, (ch, h, w), dtype=np.uint8)
    kernels = rng.integers(0, 2, (4, ch, k, k), dtype=np.uint8)
    dots, _ = run_layer(x, kernels, parallel_window=pw)
    assert dots.tolist() == im2col_dot(x, kernels).tolist()


@pytest.mark.parametrize("bit_width", [1, 8])
def test_closed_forms_equal_transaction_log(case, bit_width, rng):
    ch, h, w, k, pw = case
    layer = ConvLayer(ch, 4, h, w, k)
    x = rng.integers(0, 2, (ch, h, w), dtype=np.uint8)
    kernels = rng.integers(0, 2, layer.weight_shape, dtype=np.uint8)
    for bus in (1, 32):  # the streamed bits, and 32-bit words
        logged = run_layer(x, kernels, None, pw, bit_width, bus)[1].words_streamed
        assert logged == streamed_words_per_layer(layer, bit_width, bus, pw), f"bus width {bus}"


def test_conv_layer_has_no_stride():
    # windows advance one column: a sixth positional argument, as a stride
    # would be, is refused rather than read as `binarized`
    with pytest.raises(TypeError):
        ConvLayer(3, 4, 11, 11, 3, 2)
