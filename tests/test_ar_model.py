import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import (
    count_rows,
    kl_to_base_per_position,
    prefix_log_probs,
    prefix_logits,
    row_after,
    tabular,
)
from lhts.ar_model import (
    LinearAR,
    ModelError,
    TabularAR,
    tabular_from_table,
)
from lhts.numerics import Rng, finite_difference_gradient, myopic_rescale
from lhts.oracle import _context_prefixes, enumerate_joint, myopic_scale_joint
from lhts.trainer import (
    TrainerError,
    TrainSettings,
    TrainState,
    suffix_log_liks_matrix,
    weighted_nll_loss_node,
)


def random_linear(seed, V=3, L=4, window=2, embedding=False) -> LinearAR:
    rng = np.random.default_rng(seed)
    model = LinearAR(V, L, window, embedding_width=4 if embedding else None)
    model.set_param_array(rng.normal(scale=0.7, size=model.n_params))
    return model


# --------------------------------------------------------------- conditionals

def test_zero_linear_is_uniform():
    model = LinearAR(4, 5)
    assert np.array_equal(row_after(model, []), np.full(4, -math.log(4)))


def test_tabular_from_conditionals_exact(counterexample_model):
    # conditionals written through ``tabular`` read back from row_tables:
    # the logits are the exact log of the given numbers, and the
    # conditionals their log-softmax
    given = {(): [0.6, 0.4], (0,): [0.55, 0.45], (1,): [0.9, 0.1]}
    assert np.array_equal(counterexample_model.logits, np.log(list(given.values())))
    for prefix, probs in given.items():
        row = row_after(counterexample_model, prefix)
        np.testing.assert_allclose(row, np.log(probs), rtol=1e-15, atol=0)


def test_conditionals_normalize():
    for seed in range(3):
        model = random_linear(seed)
        tab = TabularAR(3, 3)
        tab.logits = np.random.default_rng(seed).normal(size=(13, 3))
        for m in (model, tab):
            for prefix in [(), (0,), (1, 2)]:
                row = row_after(m, prefix)
                assert abs(np.logaddexp.reduce(row)) < 1e-12


def test_prefix_too_long_errors(counterexample_model):
    with pytest.raises(ModelError, match="exceeds max_length 2"):
        counterexample_model.per_token_log_probs_matrix(np.array([[0, 1, 0]]))


def test_token_out_of_vocab_errors(counterexample_model):
    with pytest.raises(ModelError, match="out of vocab"):
        counterexample_model.per_token_log_probs_matrix(np.array([[0, 5]]))


@pytest.mark.parametrize("xs", [pytest.param(np.array([0, 1]), id="1d"),
                                pytest.param(np.zeros((2, 2, 2), dtype=np.int64), id="3d"), 1])
def test_a_token_batch_that_is_not_2d_is_refused(counterexample_model, xs):
    with pytest.raises(ModelError, match="2-D batch of sequences"):
        counterexample_model.per_token_log_probs_matrix(xs)
    with pytest.raises(ModelError, match="2-D batch of sequences"):
        weighted_nll_loss_node(counterexample_model, xs, np.ones(2))


@pytest.mark.parametrize("bad", [0.5, 1.5, np.nan, np.inf])
def test_non_integral_tokens_are_refused(bad):
    model = random_linear(0)
    with pytest.raises(ModelError, match="tokens must be integers"):
        suffix_log_liks_matrix(model, [[bad, 1.5, 2.5, 0.5]])
    with pytest.raises(ModelError, match="tokens must be integers"):
        model.per_token_log_probs_matrix(np.array([[0.0, 1.0, bad, 2.0]]))
    # integral floats are tokens
    xs = np.array([[0, 1, 2, 0]])
    assert np.array_equal(model.per_token_log_probs_matrix(xs.astype(np.float64)),
                          model.per_token_log_probs_matrix(xs))


def test_t_cond_strictness():
    plain = random_linear(0)
    with pytest.raises(ModelError, match="no temperature embedding"):
        plain.row_tables(t_cond=1.0)
    cond = random_linear(0, embedding=True)
    with pytest.raises(ModelError, match="pass t_cond"):
        cond.row_tables()


# ----------------------------------------------------------- sequence logprob

def test_sequence_log_prob_uniform(uniform_model):
    u = uniform_model.per_token_log_probs_matrix(np.array([(0, 0, 0), (1, 0, 1)]))
    assert u.sum(axis=1) == pytest.approx([math.log(1 / 8)] * 2, abs=1e-12)


def test_sequence_log_prob_hand_value(counterexample_model):
    u = counterexample_model.per_token_log_probs_matrix(np.array([[1, 0]]))
    assert u.sum() == pytest.approx(math.log(0.36), abs=1e-12)


def test_sequence_log_prob_agrees_with_enumeration():
    model = random_linear(5)
    table = enumerate_joint(model)
    u = model.per_token_log_probs_matrix(table.space.all_sequences())
    np.testing.assert_allclose(u.sum(axis=1), table.log_probs, rtol=0, atol=1e-10)


def test_per_token_log_probs(counterexample_model):
    u = counterexample_model.per_token_log_probs_matrix(np.array([[1, 0]]))[0]
    assert u == pytest.approx([math.log(0.4), math.log(0.9)], abs=1e-12)


# --------------------------------------------------------------------- sample

def test_greedy_sampling_follows_myopic_path(counterexample_model):
    batch = counterexample_model.sample(50, myopic_t=0.0, rng=Rng(0).stream("s"))
    assert np.all(batch.sequences == np.array([0, 0]))


def test_uniform_sampling_frequencies(uniform_model):
    batch = uniform_model.sample(100_000, myopic_t=1.0, rng=Rng(1).stream("s"))
    idx = batch.sequences @ np.array([4, 2, 1])
    freqs = np.bincount(idx, minlength=8) / len(batch)
    assert np.all(np.abs(freqs - 0.125) < 0.01)


def test_sampling_unbiased_chi_square():
    model = TabularAR(2, 3)
    model.logits = np.random.default_rng(2).normal(size=(7, 2))
    table = enumerate_joint(model)
    batch = model.sample(100_000, myopic_t=1.0, rng=Rng(2).stream("s"))
    idx = batch.sequences @ np.array([4, 2, 1])
    counts = np.bincount(idx, minlength=8)
    res = stats.chisquare(counts, f_exp=len(batch) * table.probs())
    assert res.pvalue > 0.01


def test_myopic_sampling_law():
    model = TabularAR(2, 3)
    model.logits = np.random.default_rng(3).normal(size=(7, 2))
    target = myopic_scale_joint(model, 0.5)
    batch = model.sample(100_000, myopic_t=0.5, rng=Rng(3).stream("s"))
    idx = batch.sequences @ np.array([4, 2, 1])
    emp = np.bincount(idx, minlength=8) / len(batch)
    assert 0.5 * np.abs(emp - target.probs()).sum() < 0.02


def test_sample_replay_determinism(counterexample_model):
    a = counterexample_model.sample(64, myopic_t=0.7, rng=Rng(4).stream("s"))
    b = counterexample_model.sample(64, myopic_t=0.7, rng=Rng(4).stream("s"))
    assert np.array_equal(a.sequences, b.sequences)
    assert np.array_equal(a.log_probs, b.log_probs)
    u = counterexample_model.per_token_log_probs_matrix(a.sequences)
    assert np.array_equal(u.sum(axis=1), a.log_probs)


def test_sample_validates_args(counterexample_model):
    with pytest.raises(ModelError, match="n must be >= 1"):
        counterexample_model.sample(0, rng=Rng(0).stream("s"))
    with pytest.raises(ModelError, match="myopic_t"):
        counterexample_model.sample(1, myopic_t=-1.0, rng=Rng(0).stream("s"))


@pytest.mark.parametrize("n", [2.5, True, np.float64(3.0), "4"],
                         ids=["float", "bool", "numpy-float", "str"])
def test_sample_count_must_be_an_int(counterexample_model, n):
    with pytest.raises(ModelError, match="n must be an int"):
        counterexample_model.sample(n, rng=Rng(0).stream("s"))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sample_rejects_non_finite_myopic_t(bad):
    with pytest.raises(ModelError, match="myopic_t must be finite"):
        LinearAR(3, 4, 2).sample(6, myopic_t=bad, rng=np.random.default_rng(0))


def test_tiny_myopic_t_follows_the_greedy_path():
    # 1e-310 overflows every logit / myopic_t unless each row's max is
    # shifted to 0 first
    model = LinearAR(3, 2, 1)
    model.set_param_array(np.random.default_rng(0).normal(size=model.n_params))
    greedy = model.sample(5, myopic_t=0.0, rng=np.random.default_rng(0))
    assert greedy.sequences[0].tolist() == [1, 2]
    batch = model.sample(5, myopic_t=1e-310, rng=np.random.default_rng(0))
    assert np.array_equal(batch.sequences, greedy.sequences)
    assert np.array_equal(batch.log_probs, greedy.log_probs)


def test_myopic_table_at_tiny_t_is_the_greedy_path():
    # the table and the sampler share one rescale, so at 1e-310 the table
    # puts all its mass on the sequence that greedy sampling returns
    model = LinearAR(3, 3, 1)
    model.set_param_array(np.random.default_rng(0).normal(size=model.n_params))
    greedy = tuple(model.sample(1, myopic_t=0.0, rng=np.random.default_rng(0)).sequences[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = myopic_scale_joint(model, 1e-310)
    assert greedy == (0, 1, 2)
    probs = table.probs()
    assert probs[table.space.index_of(greedy)] == 1.0 and np.count_nonzero(probs) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_t_cond_is_rejected(bad):
    model = random_linear(0, embedding=True)
    with pytest.raises(ModelError, match="t_cond must be finite"):
        model.sample(6, t_cond=bad, rng=np.random.default_rng(0))
    with pytest.raises(ModelError, match="t_cond must be finite"):
        model.per_token_log_probs_matrix(np.zeros((2, 4), dtype=np.int64), t_cond=bad)
    with pytest.raises(ModelError, match="t_cond must be finite"):
        model.row_tables(t_cond=bad)


class _StubUniforms:
    """Stands in for a numpy Generator: each ``random((n, 1))`` call
    returns the next given row of u's."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, size):
        return np.asarray(self.draws.pop(0), dtype=np.float64).reshape(size)


def _first_cdf(model, myopic_t):
    """The CDF that ``sample`` draws the first token from."""
    scaled = myopic_rescale(model.row_tables()[0], myopic_t)
    probs = np.exp(scaled)
    probs /= probs.sum(axis=1, keepdims=True)
    return np.cumsum(probs, axis=1)[0]


def _draw_first(model, myopic_t, u):
    return model.sample(len(u), myopic_t=myopic_t, rng=_StubUniforms(u)).sequences[:, 0]


@pytest.mark.parametrize("myopic_t", [0.6, 1.0])
def test_draw_ties_go_to_the_smaller_token(myopic_t):
    model = tabular(4, 1, [[0.125, 0.375, 0.25, 0.25]])
    cdf = _first_cdf(model, myopic_t)
    u = [0.0, cdf[0], np.nextafter(cdf[0], 1.0), cdf[1], cdf[2], np.nextafter(cdf[2], 1.0)]
    assert _draw_first(model, myopic_t, u).tolist() == [0, 0, 1, 1, 2, 3]


@pytest.mark.parametrize("myopic_t", [0.6, 1.0])
def test_draw_never_picks_a_zero_probability_token(myopic_t):
    model = tabular(3, 1, [[0.5, 0.0, 0.5]])
    assert model.logits[0, 1] == -np.inf
    cdf = _first_cdf(model, myopic_t)
    assert cdf[0] == cdf[1]
    u = np.concatenate([np.linspace(0.0, 1.0, 101)[:-1],
                        [np.nextafter(cdf[0], 0.0), cdf[0], np.nextafter(cdf[0], 1.0),
                         np.nextafter(1.0, 0.0)]])
    batch = model.sample(len(u), myopic_t=myopic_t, rng=_StubUniforms(u))
    toks = batch.sequences[:, 0]
    assert not np.any(toks == 1)
    assert toks[-4:].tolist() == [0, 0, 2, 2]
    assert np.all(np.isfinite(batch.log_probs))


def test_draw_above_a_cdf_that_rounds_below_one_takes_the_last_token():
    model = TabularAR(7, 1)  # uniform over 7 tokens: the CDF ends below 1
    u = np.nextafter(1.0, 0.0)  # the largest value rng.random() returns
    assert _first_cdf(model, 1.0)[-1] < u
    assert _draw_first(model, 1.0, [u]).tolist() == [6]


# ------------------------------------------------------------ kl per position

def test_kl_to_base_zero_for_self(counterexample_model):
    assert kl_to_base_per_position(counterexample_model, counterexample_model, [1, 0]) == 0.0


def test_kl_to_base_hand_value():
    p = tabular(2, 1, [[0.5, 0.5]])
    q = tabular(2, 1, [[0.75, 0.25]])
    assert kl_to_base_per_position(p, q, [0]) == pytest.approx(0.1438, abs=1e-4)


def test_kl_to_base_strictly_increases_off_base(counterexample_model):
    q = counterexample_model.copy()
    base_kl = kl_to_base_per_position(counterexample_model, q, [0, 1])
    flat = q.param_array()
    flat[0] += 0.2
    q.set_param_array(flat)
    assert kl_to_base_per_position(counterexample_model, q, [0, 1]) > base_kl


# ------------------------------------------------------------------ embedding

def test_embedding_affine_in_temperature():
    model = random_linear(7, embedding=True)
    l1, l2, l3 = (model.row_logits(2, t_cond=t) for t in (0.5, 1.0, 1.5))
    assert np.allclose(l3 - 2.0 * l2 + l1, 0.0, rtol=0, atol=1e-12)
    assert not np.allclose(l2, l1)


def test_embedding_conditionals_continuous_in_t():
    model = random_linear(7, embedding=True)
    for t in np.linspace(0.1, 2.0, 25):
        rows = model.row_tables(t_cond=float(t))[1]
        assert np.all(np.isfinite(rows))
        assert np.all(np.abs(np.logaddexp.reduce(rows, axis=1)) < 1e-12)


def test_with_embedding_is_noop_until_trained():
    base = random_linear(8)
    cond = base.with_embedding()
    for a, b in zip(base.row_tables(), cond.row_tables(t_cond=0.5), strict=True):
        assert np.array_equal(a, b)


# ------------------------------------------------------- parameter layout

LAYOUT = ["w_ctx", "w_pos", "bias", "w_emb", "emb_scale", "emb_bias"]


@pytest.mark.parametrize("embedding", [False, True])
def test_param_array_is_the_fields_in_split_order(embedding):
    # V=3, L=4, width-4 embedding, at windows 2 and 3; 3 is the default, so
    # window 2 shows a copy that loses it
    for window in (2, 3):
        model = random_linear(3, window=window, embedding=embedding)
        names = LAYOUT if embedding else LAYOUT[:3]
        shapes = [(3, window, 3), (3, 4), (3,), (3, 4), (4,), (4,)][:len(names)]
        assert [getattr(model, name).shape for name in names] == shapes
        flat = model.param_array()
        assert model.n_params == flat.size == sum(math.prod(shape) for shape in shapes)
        assert np.array_equal(flat, np.concatenate([getattr(model, name).ravel()
                                                    for name in names]))
        views = model.split(flat)
        assert [v.shape for v in views] == shapes
        assert all(np.shares_memory(v, flat) for v in views)
        model.set_param_array(-flat)
        assert np.array_equal(model.param_array(), -flat)
        # copy() rebuilds the model from its header and its flat vector
        dup = model.copy()
        assert type(dup) is LinearAR
        assert (dup.window, dup.embedding_width) == (window, 4 if embedding else None)
        assert np.array_equal(dup.param_array(), -flat)
        for name in names:
            getattr(dup, name)[...] += 1.0
        assert np.array_equal(model.param_array(), -flat)


def test_param_array_reads_rebound_fields():
    model = random_linear(4, embedding=True)
    model.bias = np.arange(3.0)
    model.emb_scale = np.full(4, 2.0)
    _, _, bias, _, scale, _ = model.split(model.param_array())
    assert np.array_equal(bias, np.arange(3.0)) and np.array_equal(scale, np.full(4, 2.0))
    flat = model.param_array()
    model.set_param_array(flat)
    flat[:] = 0.0
    assert np.array_equal(model.bias, np.arange(3.0))


def test_zero_embedding_width_is_rejected():
    with pytest.raises(ModelError, match="embedding_width must be >= 1"):
        LinearAR(3, 4, 2, embedding_width=0)
    with pytest.raises(ModelError, match="embedding_width must be >= 1"):
        LinearAR(3, 4, 2).with_embedding(0)


@pytest.mark.parametrize("cls, args, name", [
    (TabularAR, (3.0, 2), "vocab_size"),
    (TabularAR, (3, 2.0), "max_length"),
    (TabularAR, (3, True), "max_length"),
    (LinearAR, (3.0, 4), "vocab_size"),
    (LinearAR, (3, None), "max_length"),
    (LinearAR, (3, 4, 2.0), "window"),
    (LinearAR, (3, 4, "2"), "window"),
    (LinearAR, (3, 4, True), "window"),
    (LinearAR, (3, 4, 2, 2.0), "embedding_width"),
    (LinearAR, (3, 4, 2, True), "embedding_width"),
], ids=["tabular-vocab_size-float", "tabular-max_length-float", "tabular-max_length-bool",
        "linear-vocab_size-float", "linear-max_length-none", "linear-window-float",
        "linear-window-str", "linear-window-bool", "linear-embedding_width-float",
        "linear-embedding_width-bool"])
def test_model_sizes_must_be_ints(cls, args, name):
    with pytest.raises(ModelError, match=f"{name} must be an int"):
        cls(*args)


def test_tabular_set_param_array_rejects_wrong_size(counterexample_model):
    before = counterexample_model.param_array()
    for bad in (before[:-1], np.append(before, 0.0), before[None]):
        with pytest.raises(ModelError, match=rf"expected \({before.size},\)"):
            counterexample_model.set_param_array(bad)
    assert np.array_equal(counterexample_model.param_array(), before)
    # a -inf logit, a token of zero probability, survives the round trip
    # and copy()
    before[1] = -np.inf
    counterexample_model.set_param_array(before)
    assert np.array_equal(counterexample_model.param_array(), before)
    assert row_after(counterexample_model, [])[1] == -np.inf
    dup = counterexample_model.copy()
    assert type(dup) is TabularAR
    assert (dup.window, dup.embedding_width) == (None, None)
    assert np.array_equal(dup.param_array(), before)
    dup.logits[...] += 1.0
    assert np.array_equal(counterexample_model.param_array(), before)


@pytest.mark.parametrize("embedding", [False, True])
def test_linear_set_param_array_rejects_wrong_size(embedding):
    model = random_linear(12, embedding=embedding)
    before = model.param_array()
    for bad in (before[:-1], np.append(before, 0.0), before[None]):
        with pytest.raises(ModelError, match=rf"expected \({before.size},\)"):
            model.set_param_array(bad)
    assert np.array_equal(model.param_array(), before)


# ---------------------------------------------------------- in-memory checkpoints
# A model's checkpoint is its header (the constructor's sizes) and its flat
# ``param_array()``, held in memory: ``TrainState`` keeps one of the frozen
# base p, and ``copy()`` rebuilds a model from one.

def rebuild(model, flat):
    """A new model with ``model``'s header holding the flat vector ``flat``."""
    if isinstance(model, TabularAR):
        out = TabularAR(model.vocab_size, model.max_length)
    else:
        out = LinearAR(model.vocab_size, model.max_length, model.window, model.embedding_width)
    out.set_param_array(flat)
    return out


def test_checkpoint_roundtrip_tabular(counterexample_model):
    flat = counterexample_model.param_array()
    before = counterexample_model.logits.copy()
    counterexample_model.logits[...] += 1.0  # the checkpoint is a copy
    back = rebuild(counterexample_model, flat)
    assert isinstance(back, TabularAR)
    assert np.array_equal(back.logits, before)
    for prefix in ([], [0], [1]):
        assert np.allclose(np.exp(row_after(back, prefix)).sum(), 1.0)
    assert np.allclose(row_after(back, [1]), np.log([0.9, 0.1]))


def test_checkpoint_roundtrip_linear_with_embedding():
    model = random_linear(9, embedding=True)
    flat = model.param_array()
    back = rebuild(model, flat)
    assert np.array_equal(back.param_array(), model.param_array())
    assert back.embedding_width == model.embedding_width == 4
    # the rebuilt model prices every prefix as the original does
    for t_cond in (0.5, 2.0):
        for a, b in zip(back.row_tables(t_cond), model.row_tables(t_cond)):
            assert np.array_equal(a, b)
    model.set_param_array(np.zeros_like(flat))  # the checkpoint is a copy
    assert np.array_equal(back.param_array(), flat)


def test_checkpoint_roundtrip_linear_without_embedding():
    model = random_linear(9, window=3)
    flat = model.param_array()
    back = rebuild(model, flat)
    assert isinstance(back, LinearAR) and back.window == 3 and not back.has_embedding
    assert np.array_equal(back.param_array(), model.param_array())
    for a, b in zip(back.row_tables(None), model.row_tables(None)):
        assert np.array_equal(a, b)
    model.set_param_array(np.zeros_like(flat))  # the checkpoint is a copy
    assert np.array_equal(back.param_array(), flat)


def test_checkpoint_stores_the_flat_parameter_vector(counterexample_model):
    # TrainState checkpoints the frozen base as its flat vector: q starts
    # from it, and any change to p, not to q, is caught against it
    for base, width in ((random_linear(9), None), (random_linear(9), 4),
                        (counterexample_model, None)):
        flat = base.param_array()
        state = TrainState(base, TrainSettings(steps=1), embedding_width=width)
        q_flat = state.q.param_array()
        assert np.array_equal(q_flat[:flat.size], flat)
        assert q_flat.size == flat.size + (0 if width is None else 3 * 4 + 4 + 4)
        state.q.set_param_array(q_flat + 1.0)
        state.check_base_frozen()
        edited = flat.copy()
        edited[-1] += 1.0
        base.set_param_array(edited)
        with pytest.raises(TrainerError, match="base model was modified"):
            state.check_base_frozen()
        base.set_param_array(flat)
        state.check_base_frozen()


def test_checkpoint_keeps_neg_inf_logits():
    model = tabular(2, 2, [[1.0, 0.0], [0.5, 0.5], [0.25, 0.75]])
    for back in (rebuild(model, model.param_array()), model.copy()):
        assert back.logits[0, 1] == -np.inf
        assert np.array_equal(back.logits, model.logits)
        assert row_after(back, [])[1] == -np.inf


# ------------------------------------------------------------- row tables

def random_model(kind, V, L, window, embedding, seed):
    """A random TabularAR (window ignored; "tabular_exact" is rebuilt from its
    own joint by ``tabular_from_table``) or LinearAR, and its t_cond."""
    rng = np.random.default_rng(seed)
    if kind.startswith("tabular"):
        model = TabularAR(V, L)
        model.set_param_array(rng.normal(size=model.n_params))
        if kind == "tabular_exact":
            model = tabular_from_table(enumerate_joint(model))
        return model, None
    model = LinearAR(V, L, window)
    if embedding:
        model = model.with_embedding(2)
    model.set_param_array(rng.normal(size=model.n_params))
    return model, (float(rng.uniform(0.2, 2.0)) if embedding else None)


def per_row_log_probs(model, xs, t_cond):
    """Reference pricing: every position's conditional on every row."""
    n, length = xs.shape
    u = np.empty((n, length))
    for i in range(length):
        rows = prefix_log_probs(model, xs, i, t_cond)
        u[:, i] = rows[np.arange(n), xs[:, i]]
    return u


def per_row_sample(model, n, myopic_t, t_cond, rng):
    """Reference ancestral sampler: every position's conditional, rescale
    and cumulative sum on every row, one uniform draw per row."""
    length = model.max_length
    seqs = np.zeros((n, length), dtype=np.int64)
    logp = np.zeros(n)
    for i in range(length):
        rows = prefix_log_probs(model, seqs, i, t_cond)
        if myopic_t == 0.0:
            toks = np.argmax(rows, axis=1)
        else:
            scaled = myopic_rescale(rows, myopic_t)
            probs = np.exp(scaled)
            probs /= probs.sum(axis=1, keepdims=True)
            cum = np.cumsum(probs, axis=1)
            u = rng.random((n, 1))
            toks = np.minimum((cum < u).sum(axis=1), model.vocab_size - 1)
        seqs[:, i] = toks
        logp += rows[np.arange(n), toks]
    return seqs, logp


@given(
    kind=st.sampled_from(["tabular", "tabular_exact", "linear"]),
    V=st.sampled_from([2, 3, 8]),
    L=st.integers(min_value=1, max_value=5),
    window_frac=st.floats(min_value=0.0, max_value=1.0),
    embedding=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_pricing_and_sampling_match_per_row_reference(kind, V, L, window_frac, embedding, seed):
    # windows 0..L+1: wider than the sequence means the whole prefix
    window = round(window_frac * (L + 1))
    model, t_cond = random_model(kind, V, L, window, embedding, seed)
    xs = np.random.default_rng(seed).integers(0, V, size=(60, L))
    u = per_row_log_probs(model, xs, t_cond)
    assert np.array_equal(model.per_token_log_probs_matrix(xs, t_cond=t_cond), u)
    assert np.array_equal(suffix_log_liks_matrix(model, xs, t_cond=t_cond),
                          np.cumsum(u[:, ::-1], axis=1)[:, ::-1])
    for myopic_t in (0.0, 0.6, 1.0):
        batch = model.sample(60, myopic_t=myopic_t, t_cond=t_cond,
                             rng=np.random.default_rng(seed + 1))
        seqs, logp = per_row_sample(model, 60, myopic_t, t_cond,
                                    np.random.default_rng(seed + 1))
        assert np.array_equal(batch.sequences, seqs)
        assert np.array_equal(batch.log_probs, logp)


@given(
    kind=st.sampled_from(["tabular", "linear"]),
    V=st.sampled_from([2, 3]),
    L=st.integers(min_value=1, max_value=6),
    window_frac=st.floats(min_value=0.0, max_value=1.0),
    embedding=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_row_logits_match_the_per_prefix_reference(kind, V, L, window_frac, embedding, seed):
    # windows 0..L+1: wider than the sequence means the whole prefix
    window = round(window_frac * (L + 1))
    model, t_cond = random_model(kind, V, L, window, embedding, seed)
    tables = model.row_tables(t_cond)
    assert len(tables) == L
    for i in range(L):
        # every context of the position, as a prefix of i tokens whose
        # last c hold the context and whose first i - c are zeros
        c = i if model.window is None else min(i, model.window)
        prefixes = _context_prefixes(np.arange(V**c), V, c, i)
        assert np.array_equal(model.row_logits(i, t_cond),
                              prefix_logits(model, prefixes, i, t_cond))
        assert np.array_equal(tables[i], prefix_log_probs(model, prefixes, i, t_cond))
        # the same context after other tokens further back reads the same row
        older = np.random.default_rng(seed).integers(0, V, size=(V**c, i - c))
        prefixes[:, :i - c] = older
        assert np.array_equal(tables[i], prefix_log_probs(model, prefixes, i, t_cond))


@pytest.mark.parametrize("kind, embedding", [("tabular", False), ("linear", False),
                                             ("linear", True)])
def test_param_grad_is_the_adjoint_of_row_logits(kind, embedding):
    # V=3, L=4, window 2: the linear model's positions read 0, 1, 2, 2 tokens
    model, t_cond = random_model(kind, 3, 4, 2, embedding, 11)
    rng = np.random.default_rng(12)
    # one random gradient per position, paired with every position at once
    g_tables = [rng.normal(size=model.row_logits(i, t_cond).shape) for i in range(4)]

    def pairing(theta):
        probe = model.copy()
        probe.set_param_array(theta)
        return sum(float(np.sum(g * probe.row_logits(i, t_cond)))
                   for i, g in enumerate(g_tables))

    grad = model.param_grad(g_tables, t_cond)
    fd = finite_difference_gradient(pairing, model.param_array())
    assert grad.shape == (model.n_params,)
    np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-8)


def _plus_inf_logit():
    # -inf in w_emb times a negative embedding feature is a +inf logit
    model = LinearAR(3, 4, 2, embedding_width=1)
    model.w_emb[0, 0] = -np.inf
    model.emb_scale = [-1.0]
    return model, 0.5, 0


def _all_neg_inf_row():
    model = TabularAR(2, 3)
    model.logits[2] = -np.inf  # the row after the prefix (1,), at position 1
    return model, None, 1


def _nan_logit():
    model = TabularAR(2, 3)
    model.params[-1] = np.nan  # planted in place, as set_param_array refuses it
    return model, None, 2


@pytest.mark.parametrize("make", [_plus_inf_logit, _all_neg_inf_row, _nan_logit],
                         ids=["linear-plus-inf", "tabular-all-neg-inf", "tabular-nan"])
def test_row_tables_refuse_a_row_with_no_finite_max(make):
    model, t_cond, position = make()
    with pytest.raises(ModelError, match=f"position {position} has no finite max"):
        model.row_tables(t_cond)
    with pytest.raises(ModelError, match=f"position {position} has no finite max"):
        model.sample(4, t_cond=t_cond, rng=np.random.default_rng(0))
    with pytest.raises(ModelError, match=f"position {position} has no finite max"):
        model.per_token_log_probs_matrix(np.zeros((2, 3), dtype=np.int64), t_cond)


def test_pricing_and_sampling_evaluate_each_context_once(monkeypatch):
    model, _ = random_model("linear", 8, 7, 3, False, 0)
    xs = np.random.default_rng(1).integers(0, 8, size=(5000, 7))
    counts = count_rows(model, monkeypatch)
    model.per_token_log_probs_matrix(xs)
    # one row_logits call per position, of every context it reads
    assert counts == [8 ** min(pos, 3) for pos in range(7)] and sum(counts) == 2121
    # the same parameter state: a second price and a sample build no rows
    counts.clear()
    model.per_token_log_probs_matrix(xs)
    model.sample(5000, rng=np.random.default_rng(1))
    assert counts == []


def _edit_in_place(model, t_cond):
    model.w_ctx[0, 0, 1] += 0.5
    return t_cond


def _rebind(model, t_cond):
    model.bias = model.bias + 0.25
    return t_cond


def _set_params(model, t_cond):
    model.set_param_array(model.param_array() * 0.5)
    return t_cond


def _other_t_cond(model, t_cond):
    return t_cond + 0.5


@pytest.mark.parametrize("change", [_set_params, _edit_in_place, _rebind, _other_t_cond])
def test_a_changed_state_rebuilds_the_rows(change, monkeypatch):
    model, t_cond = random_model("linear", 3, 5, 2, True, 3)
    xs = np.random.default_rng(4).integers(0, 3, size=(40, 5))
    model.per_token_log_probs_matrix(xs, t_cond=t_cond)
    t_cond = change(model, t_cond)
    counts = count_rows(model, monkeypatch)
    u = model.per_token_log_probs_matrix(xs, t_cond=t_cond)
    batch = model.sample(40, myopic_t=0.6, t_cond=t_cond, rng=np.random.default_rng(5))
    assert counts == [3 ** min(pos, 2) for pos in range(5)]
    # built from scratch: a copy would start with the model's cached tables
    fresh, _ = random_model("linear", 3, 5, 2, True, 3)
    fresh.set_param_array(model.params)
    assert np.array_equal(u, fresh.per_token_log_probs_matrix(xs, t_cond=t_cond))
    want = fresh.sample(40, myopic_t=0.6, t_cond=t_cond, rng=np.random.default_rng(5))
    assert np.array_equal(batch.sequences, want.sequences)
    assert np.array_equal(batch.log_probs, want.log_probs)


def test_tabular_in_place_edit_rebuilds_the_rows(counterexample_model):
    xs = np.array([[1, 0]])
    before = counterexample_model.per_token_log_probs_matrix(xs)
    counterexample_model.logits[2] = [0.0, 0.0]
    after = counterexample_model.per_token_log_probs_matrix(xs)
    assert after[0, 0] == before[0, 0] and after[0, 1] == pytest.approx(math.log(0.5))


def test_cached_rows_are_read_only():
    model, t_cond = random_model("linear", 3, 4, 2, True, 0)
    tables = model.row_tables(t_cond)
    assert model.row_tables(t_cond) is tables
    for rows in tables:
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0.0


def test_a_row_table_past_the_cap_is_refused_before_it_is_built():
    # 8^11 contexts at the last position: a mask of them alone would be 8.6 GB
    model = LinearAR(8, 12, window=11)
    xs = np.zeros((4, 12), dtype=np.int64)
    calls = [
        lambda: model.per_token_log_probs_matrix(xs),
        lambda: model.sample(4, rng=np.random.default_rng(0)),
        lambda: enumerate_joint(LinearAR(8, 12, window=9)),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(ModelError, match="enumeration cap"):
                call()
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
