import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhts.ar_model import LinearAR, TabularAR, tabular_from_table
from lhts.data import shared_prefix_scenario
from lhts.numerics import log_softmax
from lhts.oracle import (
    CategoricalTable,
    OracleError,
    SequenceSpace,
    SupportWarning,
    argmax_joint,
    entropy,
    enumerate_joint,
    kl_divergence,
    myopic_scale_joint,
    temperature_scale_exact,
    total_variation,
)


def random_table(seed, V=3, L=2) -> CategoricalTable:
    rng = np.random.default_rng(seed)
    space = SequenceSpace(V, L)
    return CategoricalTable(space, rng.normal(size=space.size))


# ------------------------------------------------------------ sequence space

def test_space_roundtrip_lexicographic():
    space = SequenceSpace(3, 4)
    seqs = list(space)
    assert len(seqs) == 81
    assert seqs[0] == (0, 0, 0, 0)
    assert seqs[1] == (0, 0, 0, 1)
    assert seqs[-1] == (2, 2, 2, 2)
    for i, s in enumerate(seqs):
        assert space.index_of(s) == i
    assert np.array_equal(space.all_sequences(), np.array(seqs))


def test_space_cap_error_reports_sizes():
    with pytest.raises(OracleError, match=r"100000000.*10000000"):
        SequenceSpace(10, 8)


# ---------------------------------------------------------- enumerate_joint

def test_enumerate_uniform(uniform_model):
    table = enumerate_joint(uniform_model)
    assert np.allclose(table.log_probs, math.log(1 / 8), atol=1e-14)


def test_enumerate_counterexample_hand_values(counterexample_model):
    table = enumerate_joint(counterexample_model)
    expected = {(0, 0): 0.33, (0, 1): 0.27, (1, 0): 0.36, (1, 1): 0.04}
    for seq, p in expected.items():
        assert table.log_prob(seq) == pytest.approx(math.log(p), abs=1e-12)


def test_enumerate_normalizes():
    rng = np.random.default_rng(0)
    for seed in range(5):
        model = TabularAR(3, 3, rng.normal(size=(13, 3)))
        table = enumerate_joint(model)
        assert abs(np.exp(table.log_probs).sum() - 1.0) < 1e-9


def random_ar(kind, V, L, window, embedding, seed):
    """A random TabularAR (window ignored) or LinearAR, and its t_cond."""
    rng = np.random.default_rng(seed)
    if kind == "tabular":
        model = TabularAR(V, L)
        model.set_param_array(rng.normal(size=model.n_params))
        return model, None
    model = LinearAR(V, L, window)
    if embedding:
        model = model.with_embedding(2)
    model.set_param_array(rng.normal(size=model.n_params))
    return model, (float(rng.uniform(0.2, 2.0)) if embedding else None)


def full_prefix_joint(model, L, t_cond, temperature=None):
    """Reference joint: every position's row taken on the whole prefix of
    every sequence, optionally rescaled as log_softmax(row / T)."""
    xs = SequenceSpace(model.vocab_size, L).all_sequences()
    if temperature is None:
        return model.per_token_log_probs_matrix(xs, t_cond=t_cond).sum(axis=1)
    total = np.zeros(len(xs))
    for i in range(L):
        rows = log_softmax(model.conditional_log_probs_batch(xs[:, :i], i, t_cond=t_cond)
                           / temperature)
        total += rows[np.arange(len(xs)), xs[:, i]]
    return total


@given(
    kind=st.sampled_from(["tabular", "linear"]),
    V=st.sampled_from([2, 3]),
    L=st.integers(min_value=1, max_value=5),
    window_frac=st.floats(min_value=0.0, max_value=1.0),
    embedding=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_full_prefix_reference(kind, V, L, window_frac, embedding, seed):
    # windows 0..L+1: wider than the sequence means the whole prefix
    window = round(window_frac * (L + 1))
    model, t_cond = random_ar(kind, V, L, window, embedding, seed)
    table = enumerate_joint(model, t_cond=t_cond)
    assert np.allclose(table.log_probs, full_prefix_joint(model, L, t_cond),
                       rtol=0, atol=1e-12)
    for T in (0.4, 1.0):
        myopic = myopic_scale_joint(model, T, t_cond=t_cond)
        assert np.allclose(myopic.log_probs, full_prefix_joint(model, L, t_cond, T),
                           rtol=0, atol=1e-12)


def _count_rows(model, monkeypatch) -> list:
    counts = []
    inner = model.conditional_log_probs_batch

    def counting(prefixes, position, t_cond=None):
        counts.append(len(prefixes))
        return inner(prefixes, position, t_cond=t_cond)

    monkeypatch.setattr(model, "conditional_log_probs_batch", counting)
    return counts


def test_linear_enumeration_evaluates_each_context_once(monkeypatch):
    model, _ = random_ar("linear", 8, 7, 3, False, 0)
    counts = _count_rows(model, monkeypatch)
    enumerate_joint(model)
    assert counts == [8 ** min(pos, 3) for pos in range(7)]
    assert sum(counts) == 2121
    counts.clear()
    myopic_scale_joint(model, 0.5)
    assert sum(counts) == 2121


def test_tabular_enumeration_evaluates_every_prefix(monkeypatch):
    model, _ = random_ar("tabular", 3, 4, None, False, 0)
    counts = _count_rows(model, monkeypatch)
    enumerate_joint(model)
    assert counts == [3**pos for pos in range(4)]


# --------------------------------------------------- temperature_scale_exact

def test_scale_identity_at_one():
    t = random_table(1)
    out = temperature_scale_exact(t, 1.0)
    assert np.array_equal(out.log_probs, t.log_probs)


def test_scale_hand_example():
    space = SequenceSpace(2, 1)
    t = CategoricalTable(space, np.log([0.8, 0.2]))
    out = temperature_scale_exact(t, 0.5)
    assert np.exp(out.log_probs) == pytest.approx([0.64 / 0.68, 0.04 / 0.68], abs=1e-12)


def test_scale_leaves_source_unchanged():
    t = random_table(9, V=3, L=3)
    before = t.log_probs.copy()
    for T in (0.3, 1.0, 2.5):
        temperature_scale_exact(t, T)
    assert np.array_equal(t.log_probs, before)


def test_scale_rejects_nonpositive():
    t = random_table(2)
    with pytest.raises(OracleError, match="argmax_joint"):
        temperature_scale_exact(t, 0.0)
    with pytest.raises(OracleError):
        temperature_scale_exact(t, -1.0)


def test_scale_composition():
    t = random_table(3)
    for t1, t2 in [(0.5, 0.4), (2.0, 0.25), (1.3, 1.7)]:
        a = temperature_scale_exact(temperature_scale_exact(t, t1), t2)
        b = temperature_scale_exact(t, t1 * t2)
        assert np.allclose(a.log_probs, b.log_probs, atol=1e-9)


def test_scale_preserves_ranking():
    t = random_table(4, V=4, L=2)
    base_order = np.argsort(t.log_probs, kind="stable")
    for T in (0.1, 0.5, 2.0, 10.0):
        order = np.argsort(temperature_scale_exact(t, T).log_probs, kind="stable")
        assert np.array_equal(order, base_order)


def test_scale_entropy_monotone_and_mode_convergence():
    t = random_table(5, V=3, L=3)
    entropies = [entropy(temperature_scale_exact(t, T)) for T in (1.0, 0.5, 0.1, 0.01)]
    assert all(a >= b - 1e-12 for a, b in zip(entropies, entropies[1:]))
    sharp = temperature_scale_exact(t, 0.01)
    assert argmax_joint(sharp) == argmax_joint(t)
    assert np.exp(sharp.log_probs).max() > 0.9


def test_scale_partition_function_value():
    # log_z of the scaled table is log sum_x p(x)^(1/T)
    t = random_table(6)
    T = 0.5
    out = temperature_scale_exact(t, T)
    expected = math.log(np.sum(np.exp(t.log_probs / T)))
    assert out.log_z == pytest.approx(expected, abs=1e-12)


def test_figure1_scenario_exact_scaling_splits_evenly():
    model, choices, table = shared_prefix_scenario()
    sharp = temperature_scale_exact(table, 0.01)
    for c in choices:
        assert math.exp(sharp.log_prob(c)) == pytest.approx(1 / 3, abs=1e-2)


# --------------------------------------------------------- myopic_scale_joint

def test_myopic_identity_at_one(counterexample_model):
    a = myopic_scale_joint(counterexample_model, 1.0)
    b = enumerate_joint(counterexample_model)
    assert np.array_equal(a.log_probs, b.log_probs)


@given(
    logits=st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=2, max_size=6),
    temperature=st.floats(min_value=0.05, max_value=20.0),
)
@settings(max_examples=100, deadline=None)
def test_myopic_equals_exact_at_length_one(logits, temperature):
    # one position: per-position rescaling is the joint rescaling
    model = TabularAR(len(logits), 1, np.array([logits]))
    myopic = myopic_scale_joint(model, temperature)
    exact = temperature_scale_exact(enumerate_joint(model), temperature)
    assert np.allclose(myopic.log_probs, exact.log_probs, rtol=0, atol=1e-12)


def test_myopic_vs_exact_argmax_divergence(counterexample_model):
    # greedy subtree wins myopically, joint argmax wins exactly
    myopic = myopic_scale_joint(counterexample_model, 0.01)
    assert math.exp(myopic.log_prob((0, 0))) > 0.99
    exact = temperature_scale_exact(enumerate_joint(counterexample_model), 0.01)
    assert math.exp(exact.log_prob((1, 0))) > 0.99


def test_figure1_scenario_myopic_emphasizes_shared_prefix():
    model, choices, table = shared_prefix_scenario()
    myopic = myopic_scale_joint(model, 0.01)
    shared_token = choices[0][0]
    mass = sum(
        math.exp(lp)
        for seq, lp in zip(myopic.space, myopic.log_probs)
        if seq[0] == shared_token
    )
    assert mass > 0.99


def test_myopic_differs_from_exact_in_kl(counterexample_model):
    p_t = temperature_scale_exact(enumerate_joint(counterexample_model), 0.5)
    myo = myopic_scale_joint(counterexample_model, 0.5)
    assert kl_divergence(p_t, myo) > 0.0


# ------------------------------------------------------- kl / entropy / argmax

def test_kl_self_is_zero():
    t = random_table(7)
    assert kl_divergence(t, t) == 0.0


def test_kl_hand_value():
    space = SequenceSpace(2, 1)
    p = CategoricalTable(space, np.log([0.5, 0.5]))
    q = CategoricalTable(space, np.log([0.75, 0.25]))
    expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.1438, abs=1e-4)


def test_kl_support_violation_warns_and_is_inf():
    space = SequenceSpace(2, 2)
    p = CategoricalTable(space, np.log([0.25, 0.25, 0.25, 0.25]))
    with np.errstate(divide="ignore"):
        q = CategoricalTable(space, np.log([0.5, 0.5, 0.0, 0.0]))
    with pytest.warns(SupportWarning, match=r"\(1, 0\)"):
        assert kl_divergence(p, q) == math.inf


def test_kl_zero_mass_in_p_matches_masked_formula():
    space = SequenceSpace(2, 2)
    with np.errstate(divide="ignore"):
        p = CategoricalTable(space, np.log([0.5, 0.0, 0.5, 0.0]))
        q = CategoricalTable(space, np.log([0.25, 0.0, 0.5, 0.25]))
    lp, lq = np.log([0.5, 0.5]), np.log([0.25, 0.5])
    expected = float(np.sum(np.exp(lp) * (lp - lq)))
    assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-15)
    assert kl_divergence(p, p) == 0.0


def test_kl_support_violation_after_zero_mass_names_first_sequence():
    space = SequenceSpace(2, 2)
    with np.errstate(divide="ignore"):
        p = CategoricalTable(space, np.log([0.0, 0.2, 0.4, 0.4]))
        q = CategoricalTable(space, np.log([0.0, 1.0, 0.0, 0.0]))
    with pytest.warns(SupportWarning, match=r"\(1, 0\)"):
        assert kl_divergence(p, q) == math.inf


def test_kl_rejects_mismatched_spaces():
    with pytest.raises(OracleError, match="different spaces"):
        kl_divergence(random_table(1, V=2, L=2), random_table(1, V=3, L=2))


def test_entropy_uniform_and_delta():
    space = SequenceSpace(2, 3)
    uni = CategoricalTable(space, np.zeros(8))
    assert entropy(uni) == pytest.approx(math.log(8), abs=1e-12)
    lw = np.full(8, -np.inf)
    lw[3] = 0.0
    delta = CategoricalTable(space, lw)
    assert entropy(delta) == 0.0


def test_argmax_counterexample(counterexample_model):
    assert argmax_joint(enumerate_joint(counterexample_model)) == (1, 0)


def test_argmax_tie_breaks_lexicographically():
    space = SequenceSpace(2, 2)
    t = CategoricalTable(space, np.zeros(4))
    assert argmax_joint(t) == (0, 0)


def test_total_variation():
    space = SequenceSpace(2, 1)
    p = CategoricalTable(space, np.log([0.8, 0.2]))
    q = CategoricalTable(space, np.log([0.5, 0.5]))
    assert total_variation(p, q) == pytest.approx(0.3, abs=1e-12)


# --------------------------------------------------------- table validation

@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("normalize", [True, False])
def test_table_rejects_nan_and_pos_inf(bad, normalize):
    lw = np.array([0.0, -1.0, bad, -np.inf])
    with pytest.raises(OracleError, match="finite or -inf"):
        CategoricalTable(SequenceSpace(2, 2), lw, normalize=normalize)


def test_table_rejects_empty_support_when_normalizing():
    with pytest.raises(OracleError, match="empty support"):
        CategoricalTable(SequenceSpace(2, 2), np.full(4, -np.inf))


def test_table_normalizes_with_neg_inf_entries():
    lw = np.array([np.log(3.0), -np.inf, 0.0, -np.inf])
    t = CategoricalTable(SequenceSpace(2, 2), lw)
    assert np.exp(t.log_probs) == pytest.approx([0.75, 0.0, 0.25, 0.0], abs=1e-15)
    assert t.log_z == pytest.approx(np.log(4.0), abs=1e-15)


def test_unnormalized_table_leaves_caller_array_writeable():
    a = np.log(np.full(4, 0.25))
    t = CategoricalTable(SequenceSpace(2, 2), a, normalize=False)
    assert a.flags.writeable
    assert not t.log_probs.flags.writeable
    with pytest.raises(ValueError):
        t.log_probs[0] = 0.0


# -------------------------------------------------------------- serialization

def test_table_json_roundtrip():
    t = random_table(8)
    back = CategoricalTable.from_json(t.to_json())
    assert back.vocab_size == t.vocab_size
    assert back.length == t.length
    assert np.array_equal(back.log_probs, t.log_probs)


def test_table_json_golden_shape():
    space = SequenceSpace(2, 1)
    t = CategoricalTable(space, np.log([0.75, 0.25]))
    doc = t.to_json()
    assert doc == (
        '{"vocab_size": 2, "length": 1, "log_probs": '
        '[-0.287682072451781, -1.3862943611198908]}'
    )


# ----------------------------------------------------------- table -> tabular

def test_tabular_from_table_reproduces_conditionals(counterexample_model):
    table = enumerate_joint(counterexample_model)
    rebuilt = tabular_from_table(table)
    for prefix in [(), (0,), (1,)]:
        a = counterexample_model.conditional_log_probs(np.array(prefix, dtype=np.int64))
        b = rebuilt.conditional_log_probs(np.array(prefix, dtype=np.int64))
        assert np.allclose(a, b, atol=1e-12)
    assert np.allclose(enumerate_joint(rebuilt).log_probs, table.log_probs, atol=1e-12)


def test_tabular_from_table_realizes_scaled_joint(counterexample_model):
    p_t = temperature_scale_exact(enumerate_joint(counterexample_model), 0.5)
    q = tabular_from_table(p_t)
    assert kl_divergence(p_t, enumerate_joint(q)) < 1e-12
