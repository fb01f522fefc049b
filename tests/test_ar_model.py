import math

import numpy as np
import pytest
from scipy import stats

from lhts.ar_model import (
    LinearAR,
    ModelError,
    TabularAR,
    TemperatureEmbedding,
    checkpoint_dict,
    kl_to_base_per_position,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from lhts.numerics import Rng, log_softmax
from lhts.oracle import enumerate_joint, myopic_scale_joint, total_variation


def random_linear(seed, V=3, L=4, window=2, embedding=False) -> LinearAR:
    rng = np.random.default_rng(seed)
    model = LinearAR(V, L, window,
                     embedding=TemperatureEmbedding(4) if embedding else None)
    model.set_param_array(rng.normal(scale=0.7, size=model.n_params))
    return model


# --------------------------------------------------------------- conditionals

def test_zero_linear_is_uniform():
    model = LinearAR(4, 5)
    row = model.conditional_log_probs(np.array([], dtype=np.int64))
    assert np.array_equal(row, np.full(4, -math.log(4)))


def test_tabular_from_conditionals_exact(counterexample_model):
    assert np.array_equal(
        counterexample_model.conditional_log_probs(np.array([], dtype=np.int64)),
        np.log([0.6, 0.4]),
    )
    assert np.array_equal(
        counterexample_model.conditional_log_probs(np.array([1], dtype=np.int64)),
        np.log([0.9, 0.1]),
    )


def test_conditionals_normalize():
    for seed in range(3):
        model = random_linear(seed)
        tab = TabularAR(3, 3, np.random.default_rng(seed).normal(size=(13, 3)))
        for m in (model, tab):
            for prefix in [(), (0,), (1, 2)]:
                row = m.conditional_log_probs(np.array(prefix, dtype=np.int64))
                assert abs(np.logaddexp.reduce(row)) < 1e-12


def test_batch_matches_scalar_conditionals():
    model = random_linear(3)
    rng = np.random.default_rng(0)
    prefixes = rng.integers(0, 3, size=(8, 2))
    rows = model.conditional_log_probs_batch(prefixes, 2)
    for i in range(8):
        assert np.array_equal(rows[i], model.conditional_log_probs(prefixes[i]))


def test_prefix_too_long_errors(counterexample_model):
    with pytest.raises(ModelError, match="too long"):
        counterexample_model.conditional_log_probs(np.array([0, 1], dtype=np.int64))


def test_token_out_of_vocab_errors(counterexample_model):
    with pytest.raises(ModelError, match="out of vocab"):
        counterexample_model.sequence_log_prob([0, 5])


def test_t_cond_strictness():
    plain = random_linear(0)
    with pytest.raises(ModelError, match="no temperature embedding"):
        plain.conditional_log_probs(np.array([], dtype=np.int64), t_cond=1.0)
    cond = random_linear(0, embedding=True)
    with pytest.raises(ModelError, match="pass t_cond"):
        cond.conditional_log_probs(np.array([], dtype=np.int64))


# ----------------------------------------------------------- sequence logprob

def test_sequence_log_prob_uniform(uniform_model):
    for x in [(0, 0, 0), (1, 0, 1)]:
        assert uniform_model.sequence_log_prob(x) == pytest.approx(math.log(1 / 8), abs=1e-12)


def test_sequence_log_prob_hand_value(counterexample_model):
    assert counterexample_model.sequence_log_prob([1, 0]) == pytest.approx(
        math.log(0.36), abs=1e-12
    )


def test_sequence_log_prob_agrees_with_enumeration():
    model = random_linear(5)
    table = enumerate_joint(model)
    for seq in table.space:
        assert model.sequence_log_prob(seq) == pytest.approx(
            table.log_prob(seq), abs=1e-10
        )


def test_per_token_log_probs(counterexample_model):
    u = counterexample_model.per_token_log_probs([1, 0])
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
    model = TabularAR(2, 3, np.random.default_rng(2).normal(size=(7, 2)))
    table = enumerate_joint(model)
    batch = model.sample(100_000, myopic_t=1.0, rng=Rng(2).stream("s"))
    idx = batch.sequences @ np.array([4, 2, 1])
    counts = np.bincount(idx, minlength=8)
    res = stats.chisquare(counts, f_exp=len(batch) * table.probs())
    assert res.pvalue > 0.01


def test_myopic_sampling_law():
    model = TabularAR(2, 3, np.random.default_rng(3).normal(size=(7, 2)))
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
    for seq, lp in zip(a.sequences, a.log_probs):
        assert counterexample_model.sequence_log_prob(seq) == lp


def test_sample_validates_args(counterexample_model):
    with pytest.raises(ModelError, match="n >= 1"):
        counterexample_model.sample(0, rng=Rng(0).stream("s"))
    with pytest.raises(ModelError, match="myopic_t"):
        counterexample_model.sample(1, myopic_t=-1.0, rng=Rng(0).stream("s"))


# ------------------------------------------------------------ kl per position

def test_kl_to_base_zero_for_self(counterexample_model):
    assert kl_to_base_per_position(counterexample_model, counterexample_model, [1, 0]) == 0.0


def test_kl_to_base_hand_value():
    p = TabularAR.from_conditionals(2, 1, {(): [0.5, 0.5]})
    q = TabularAR.from_conditionals(2, 1, {(): [0.75, 0.25]})
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
    emb = TemperatureEmbedding(4, scale=np.arange(4.0), bias=np.ones(4))
    f1, f2, f3 = emb.features(1.0), emb.features(2.0), emb.features(3.0)
    assert np.allclose(f3 - f2, f2 - f1)


def test_embedding_conditionals_continuous_in_t():
    model = random_linear(7, embedding=True)
    for t in np.linspace(0.1, 2.0, 25):
        row = model.conditional_log_probs(np.array([0], dtype=np.int64), t_cond=float(t))
        assert np.all(np.isfinite(row))
        assert abs(np.logaddexp.reduce(row)) < 1e-12


def test_with_embedding_is_noop_until_trained():
    base = random_linear(8)
    cond = base.with_embedding()
    for prefix in [(), (1,), (0, 2)]:
        a = base.conditional_log_probs(np.array(prefix, dtype=np.int64))
        b = cond.conditional_log_probs(np.array(prefix, dtype=np.int64), t_cond=0.5)
        assert np.array_equal(a, b)


# ---------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip_tabular(tmp_path, counterexample_model):
    path = tmp_path / "model.json"
    save_checkpoint(counterexample_model, path, rng_seed=11)
    back = load_checkpoint(path)
    assert isinstance(back, TabularAR)
    assert np.array_equal(back.logits, counterexample_model.logits)
    assert back.exact_rows


def test_checkpoint_roundtrip_linear_with_embedding(tmp_path):
    model = random_linear(9, embedding=True)
    back = model_from_checkpoint(checkpoint_dict(model))
    assert np.array_equal(back.param_array(), model.param_array())
    assert back.embedding.width == model.embedding.width


def test_tabular_set_param_array_rejects_wrong_size(counterexample_model):
    before = counterexample_model.param_array()
    for bad in (before[:-1], np.append(before, 0.0), before[None]):
        with pytest.raises(ModelError, match=rf"expected \({before.size},\)"):
            counterexample_model.set_param_array(bad)
    assert np.array_equal(counterexample_model.param_array(), before)


@pytest.mark.parametrize("embedding", [False, True])
def test_linear_set_param_array_rejects_wrong_size(embedding):
    model = random_linear(12, embedding=embedding)
    before = model.param_array()
    for bad in (before[:-1], np.append(before, 0.0), before[None]):
        with pytest.raises(ModelError, match=rf"expected \({before.size},\)"):
            model.set_param_array(bad)
    assert np.array_equal(model.param_array(), before)


def test_checkpoint_records_seed():
    doc = checkpoint_dict(random_linear(1), rng_seed=42)
    assert doc["rng_seed"] == 42


# ------------------------------------------------------------------ logits

def test_logits_match_numpy_conditionals():
    xs = np.array([[1, 2, 0, 1], [0, 0, 2, 2]], dtype=np.int64)
    for embedding in (False, True):
        model = random_linear(10, embedding=embedding)
        t_cond = 0.8 if embedding else None
        for pos in range(4):
            row = log_softmax(model.logits_batch(xs[:, :pos], pos, t_cond=t_cond))
            expected = model.conditional_log_probs_batch(xs[:, :pos], pos, t_cond=t_cond)
            assert np.allclose(row, expected, rtol=0, atol=1e-12)
