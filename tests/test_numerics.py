import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhts.ar_model import LinearAR, ModelError, TabularAR
from lhts.diffusion import DenoiserMLP, DiffusionError
from lhts.numerics import (FlatParams, Rng, finite_difference_gradient, log_softmax,
                           myopic_rescale, row_max)


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


@pytest.mark.parametrize("shape", [(6,), (9, 4), (3, 5, 7)], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("empty_row", [False, True], ids=["no_empty_row", "empty_row"])
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


# ------------------------------------------------------- flat parameter store

STORES = ["tabular", "linear", "linear-embedding", "denoiser"]


def random_store(kind):
    """A model of ``kind`` with random parameters, its typed error, and its
    forward as a function of the model: every row table of an AR model, the
    noise guess of a denoiser on fixed points."""
    rng = np.random.default_rng(40)
    if kind == "denoiser":
        model, error = DenoiserMLP(2, hidden=5, n_freqs=2), DiffusionError
        x, feats = rng.normal(size=(3, 2)), rng.normal(size=(1, 4))

        def forward(m):
            return m.forward(x, m.step_bias(feats))
    else:
        if kind == "tabular":
            model = TabularAR(3, 3)
        else:
            model = LinearAR(3, 4, 2, embedding_width=4 if kind == "linear-embedding" else None)
        error, t_cond = ModelError, 0.5 if model.has_embedding else None

        def forward(m):
            return m.row_table(t_cond).ravel()
    model.set_param_array(rng.normal(size=model.n_params))
    return model, error, forward


@pytest.mark.parametrize("kind", STORES, ids=STORES)
def test_every_field_is_a_view_of_params(kind):
    model, _, _ = random_store(kind)
    assert isinstance(model, FlatParams)
    fields = [getattr(model, name) for name, _ in model._layout()]
    assert [f.shape for f in fields] == [shape for _, shape in model._layout()]
    assert all(np.shares_memory(f, model.params) for f in fields)
    # back to back, in layout order
    assert np.array_equal(np.concatenate([f.ravel() for f in fields]), model.params)
    assert model.n_params == model.params.size == model.param_array().size


@pytest.mark.parametrize("kind", STORES, ids=STORES)
def test_assigning_a_field_writes_into_params_and_reaches_the_forward(kind):
    model, _, forward = random_store(kind)
    rng = np.random.default_rng(41)
    for (name, shape), view in zip(model._layout(), model.split(model.params)):
        before = forward(model)
        value = rng.normal(size=shape)
        setattr(model, name, value)
        assert np.array_equal(view, value)
        assert np.shares_memory(getattr(model, name), model.params)
        after = forward(model)
        assert not np.array_equal(after, before)
        # the same vector set on another model gives the same forward
        ref, _, _ = random_store(kind)
        ref.set_param_array(model.params)
        assert np.array_equal(forward(ref), after)


@pytest.mark.parametrize("kind", STORES, ids=STORES)
def test_a_bad_field_or_vector_raises_the_typed_error_and_leaves_params(kind):
    model, error, _ = random_store(kind)
    before = model.param_array()
    for name, shape in model._layout():
        for bad in (np.zeros(shape[:-1]), np.zeros(shape + (1,)), np.zeros(math.prod(shape) + 1)):
            with pytest.raises(error, match=f"{name} has shape"):
                setattr(model, name, bad)
        for entry in (np.nan, np.inf):
            value = np.zeros(shape)
            value.flat[-1] = entry
            with pytest.raises(error, match=rf"{name} has a NaN or \+inf entry"):
                setattr(model, name, value)
    for entry in (np.nan, np.inf):
        flat = before.copy()
        flat[0] = entry
        with pytest.raises(error, match=r"parameter vector has a NaN or \+inf entry"):
            model.set_param_array(flat)
    assert np.array_equal(model.params, before)
    # -inf passes: a logit of a token of zero probability
    flat = before.copy()
    flat[0] = -np.inf
    model.set_param_array(flat)
    assert np.array_equal(model.params, flat)


@pytest.mark.parametrize("kind", STORES, ids=STORES)
def test_copy_holds_its_own_vector(kind):
    model, _, forward = random_store(kind)
    before, out = model.param_array(), forward(model)
    dup = model.copy()
    assert type(dup) is type(model) and dup._layout() == model._layout()
    assert np.array_equal(dup.params, before) and not np.shares_memory(dup.params, model.params)
    assert all(np.shares_memory(getattr(dup, name), dup.params) for name, _ in dup._layout())
    assert np.array_equal(forward(dup), out)
    rng = np.random.default_rng(42)
    for name, shape in dup._layout():
        setattr(dup, name, rng.normal(size=shape))
    dup.params[0] += 1.0
    assert not np.array_equal(forward(dup), out)
    assert np.array_equal(model.params, before) and np.array_equal(forward(model), out)
