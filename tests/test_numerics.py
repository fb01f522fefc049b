import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhts.numerics import Rng, finite_difference_gradient, log_softmax, myopic_rescale, row_max


def lse_reference(vals) -> float:
    """log(sum(exp(v))) with max-subtraction and an exactly rounded sum."""
    m = max(vals)
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))


# ---------------------------------------------------------------- log_softmax

def test_log_softmax_matches_scalar():
    vals = [0.1, -2.0, 1.3]
    expected = [v - lse_reference(vals) for v in vals]
    assert np.allclose(log_softmax(np.array(vals)), expected, rtol=0, atol=1e-15)


def test_log_softmax_rows_and_neg_inf():
    z = np.array([[1000.0, 1000.0, -np.inf], [0.0, 1.0, 2.0]])
    out = log_softmax(z)
    # no overflow at 1000; the shift back from 1000 costs ~1e-13 of precision
    assert np.allclose(out[0, :2], -math.log(2.0), rtol=0, atol=1e-12)
    assert out[0, 2] == -np.inf
    assert np.allclose(np.exp(out).sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_myopic_rescale_keeps_t_one_and_the_maxima_at_tiny_t():
    rows = np.log(np.array([[0.5, 0.3, 0.2], [0.4, 0.4, 0.2]]))
    assert myopic_rescale(rows, 1.0) is rows
    np.testing.assert_allclose(myopic_rescale(rows, 0.5), log_softmax(2.0 * rows),
                               rtol=0, atol=1e-15)
    # 1e-310 overflows every entry / T unless each row's max is shifted to 0
    # first; a tied max splits the mass
    tiny = myopic_rescale(rows, 1e-310)
    assert np.array_equal(tiny, [[0.0, -np.inf, -np.inf],
                                 [-math.log(2.0), -math.log(2.0), -np.inf]])


@given(
    vals=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=32),
    shift=st.floats(min_value=-1e3, max_value=1e3),
)
@settings(max_examples=200, deadline=None)
def test_log_softmax_shift_invariance(vals, shift):
    # subtracting a constant from every input leaves the log-probs unchanged
    base = log_softmax(np.array(vals))
    shifted = log_softmax(np.array(vals) - shift)
    assert np.allclose(shifted, base, rtol=0, atol=1e-9)


def max_reference_log_softmax(z):
    m = z.max(axis=-1, keepdims=True)
    return z - (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))


@pytest.mark.parametrize("shape", [(6,), (9, 4), (3, 5, 7)])
@pytest.mark.parametrize("empty_row", [False, True])
def test_row_max_keeps_log_softmax_and_the_rescale_exact(shape, empty_row):
    # the token-major max against z.max(axis=-1): equal entries, with -inf
    # holes, and NaN in the same places where a row is all -inf
    rng = np.random.default_rng(len(shape))
    z = rng.normal(scale=3.0, size=shape)
    z[rng.random(shape) < 0.3] = -np.inf
    if empty_row:
        z[(0,) * (z.ndim - 1)] = -np.inf
    for arr in (z, z[..., ::-1]):  # a strided view reads the same rows
        assert np.array_equal(row_max(arr), arr.max(axis=-1, keepdims=True))
        with np.errstate(invalid="ignore"):
            got = log_softmax(arr)
            want = max_reference_log_softmax(arr)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.isnan(got).any() == empty_row
            for T in (0.3, 2.0):
                shifted = (arr - arr.max(axis=-1, keepdims=True)) / T
                assert np.array_equal(myopic_rescale(arr, T),
                                      max_reference_log_softmax(shifted), equal_nan=True)


# ------------------------------------------------------- finite differences

def test_gradient_matches_finite_differences():
    # the oracle against a known closed form: d logsumexp(x) / dx = softmax(x)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(scale=0.8, size=4)
        fd = finite_difference_gradient(lambda y: lse_reference(y.tolist()), x)
        assert np.allclose(fd, np.exp(log_softmax(x)), rtol=1e-8, atol=1e-10)


# ------------------------------------------------------------------------ rng

def test_rng_reproducible():
    a = Rng(123).stream("train").random(8)
    b = Rng(123).stream("train").random(8)
    assert np.array_equal(a, b)


def test_rng_streams_independent():
    r = Rng(123)
    a = r.stream("train").random(8)
    b = r.stream("eval").random(8)
    c = r.stream("train", counter=1).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_child_derivation():
    a = Rng(9).child("cell", 3).stream("x").random(4)
    b = Rng(9).child("cell", 3).stream("x").random(4)
    c = Rng(9).child("cell", 4).stream("x").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
