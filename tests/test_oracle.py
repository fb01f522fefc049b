import math
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_rows, position_rows, prefix_log_probs, row_after
from lhts.ar_model import LinearAR, ModelError, TabularAR, tabular_from_table
from lhts.data import shared_prefix_scenario
from lhts.numerics import log_softmax, myopic_rescale
from lhts.oracle import (
    _BLOCK,
    ENUMERATION_CAP,
    _chain_kl,
    _context_prefixes,
    _derived_table,
    _first_violation,
    _Rows,
    _scale_rows,
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
)
from lhts.trainer import weighted_nll_loss_node


def random_table(seed, V=3, L=2) -> CategoricalTable:
    rng = np.random.default_rng(seed)
    space = SequenceSpace(V, L)
    return CategoricalTable(space, rng.normal(size=space.size))


# ------------------------------------------------------------ sequence space

def test_space_roundtrip_lexicographic():
    space = SequenceSpace(3, 4)
    seqs = space.all_sequences()
    assert seqs.shape == (81, 4)
    assert tuple(seqs[0]) == (0, 0, 0, 0)
    assert tuple(seqs[1]) == (0, 0, 0, 1)
    assert tuple(seqs[-1]) == (2, 2, 2, 2)
    for i, s in enumerate(seqs):
        assert space.index_of(s) == i
        assert space.sequence_at(i) == tuple(s)


def test_indices_of_a_space_past_int64_are_exact():
    space = SequenceSpace(8, 22)
    assert space.size == 8**22 > 2**63
    last = (7,) * 22
    assert space.index_of(last) == 8**22 - 1
    assert space.sequence_at(8**22 - 1) == last
    assert space.sequence_at(8**21 + 5) == (1,) + (0,) * 20 + (5,)


@pytest.mark.parametrize("index", [-1, 4])
def test_sequence_at_checks_its_range(index):
    with pytest.raises(OracleError, match="out of range"):
        SequenceSpace(2, 2).sequence_at(index)


@pytest.mark.parametrize("seq, message", [((0, 2), "out of vocab"), ((-1, 0), "out of vocab"),
                                          ((0,), "expected 2 tokens")],
                         ids=["token-too-large", "token-negative", "too-short"])
def test_index_of_checks_its_tokens(seq, message):
    with pytest.raises(OracleError, match=message):
        SequenceSpace(2, 2).index_of(seq)


@pytest.mark.parametrize("args, name", [
    ((2.5, 2), "vocab_size"),
    ((True, 2), "vocab_size"),
    ((2, 2.5), "length"),
    ((2, np.True_), "length"),
    ((0, 2), "vocab_size"),
    ((2, 0), "length"),
], ids=["vocab_size-float", "vocab_size-bool", "length-float", "length-numpy_bool",
        "vocab_size-zero", "length-zero"])
def test_space_sizes_must_be_positive_ints(args, name):
    with pytest.raises(OracleError, match=f"{name} must be"):
        SequenceSpace(*args)


def test_a_space_of_numpy_ints_has_an_exact_size():
    # 2^64 wraps to 0 in int64; as a Python int it is past the cap
    space = SequenceSpace(np.int64(2), np.int64(64))
    assert space.size == 2**64 and type(space.size) is int
    with pytest.raises(OracleError, match="enumeration cap"):
        space.all_sequences()


def test_space_cap_error_reports_sizes():
    # a space past the cap can be made; building its entries is refused,
    # and a whole-prefix model is refused before its contexts are allocated
    space = SequenceSpace(10, 8)
    builds = [
        space.all_sequences,
        lambda: CategoricalTable(space, np.zeros(1)),
        lambda: enumerate_joint(LinearAR(10, 8, 7)),
        lambda: enumerate_joint(LinearAR(10, 8, 2)).log_probs,
    ]
    for build in builds:
        with pytest.raises(OracleError, match=r"100000000.*10000000"):
            build()


# ---------------------------------------------------------- enumerate_joint

def test_enumerate_uniform(uniform_model):
    table = enumerate_joint(uniform_model)
    assert np.allclose(table.log_probs, math.log(1 / 8), atol=1e-14)


def test_enumerate_counterexample_hand_values(counterexample_model):
    table = enumerate_joint(counterexample_model)
    expected = {(0, 0): 0.33, (0, 1): 0.27, (1, 0): 0.36, (1, 1): 0.04}
    for seq, p in expected.items():
        assert table.log_probs[table.space.index_of(seq)] == pytest.approx(math.log(p), abs=1e-12)


def test_enumerate_normalizes():
    rng = np.random.default_rng(0)
    for seed in range(5):
        model = TabularAR(3, 3)
        model.logits = rng.normal(size=(13, 3))
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
    total = np.zeros(len(xs))
    for i in range(L):
        rows = prefix_log_probs(model, xs, i, t_cond)
        if temperature is not None:
            rows = log_softmax(rows / temperature)
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


def test_linear_enumeration_evaluates_each_context_once(monkeypatch):
    model, _ = random_ar("linear", 8, 7, 3, False, 0)
    counts = count_rows(model, monkeypatch)
    enumerate_joint(model)
    assert counts == [sum(8 ** min(pos, 3) for pos in range(7))] == [2121]
    # the same parameter state: the model's row tables are reused
    counts.clear()
    myopic_scale_joint(model, 0.5)
    assert counts == []


def test_tabular_enumeration_evaluates_every_prefix(monkeypatch):
    model, _ = random_ar("tabular", 3, 4, None, False, 0)
    counts = count_rows(model, monkeypatch)
    enumerate_joint(model)
    assert counts == [sum(3**pos for pos in range(4))] == [40]


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scaling_rejects_non_finite_temperature(bad, counterexample_model):
    t = random_table(2)
    before = t.log_probs.copy()
    with pytest.raises(OracleError, match="temperature"):
        temperature_scale_exact(t, bad)
    assert np.array_equal(t.log_probs, before)
    with pytest.raises(OracleError, match="temperature"):
        myopic_scale_joint(counterexample_model, bad)


def test_scale_rejects_overflow_of_unnormalized_entries():
    t = CategoricalTable(SequenceSpace(2, 1), np.array([1e308, 0.0]), normalize=False)
    with pytest.raises(OracleError, match="finite or -inf"), np.errstate(over="ignore"):
        temperature_scale_exact(t, 0.5)
    empty = CategoricalTable(SequenceSpace(2, 1), np.full(2, -np.inf), normalize=False)
    with pytest.raises(OracleError, match="empty support"):
        temperature_scale_exact(empty, 0.5)


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
        assert math.exp(sharp.log_probs[sharp.space.index_of(c)]) == pytest.approx(1 / 3, abs=1e-2)


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
    model = TabularAR(len(logits), 1)
    model.logits = [logits]
    myopic = myopic_scale_joint(model, temperature)
    exact = temperature_scale_exact(enumerate_joint(model), temperature)
    assert np.allclose(myopic.log_probs, exact.log_probs, rtol=0, atol=1e-12)


def test_myopic_vs_exact_argmax_divergence(counterexample_model):
    # greedy subtree wins myopically, joint argmax wins exactly
    myopic = myopic_scale_joint(counterexample_model, 0.01)
    assert math.exp(myopic.log_probs[myopic.space.index_of((0, 0))]) > 0.99
    exact = temperature_scale_exact(enumerate_joint(counterexample_model), 0.01)
    assert math.exp(exact.log_probs[exact.space.index_of((1, 0))]) > 0.99


def test_figure1_scenario_myopic_emphasizes_shared_prefix():
    model, choices, table = shared_prefix_scenario()
    myopic = myopic_scale_joint(model, 0.01)
    shared_token = choices[0][0]
    mass = sum(
        math.exp(lp)
        for seq, lp in zip(myopic.space.all_sequences(), myopic.log_probs)
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


# ------------------------------------------------------- block reductions
# One-shot references: each whole-table sum as a single numpy expression.

def ref_log_z(lw):
    m = lw.max()
    return m + math.log(np.exp(lw - m).sum())


def ref_kl(lp, lq):
    with np.errstate(invalid="ignore"):
        kl = float(np.exp(lp) @ (lp - lq))
    if math.isfinite(kl):
        return kl
    keep = lp > -np.inf
    lp, lq = lp[keep], lq[keep]
    return float(np.sum(np.exp(lp) * (lp - lq)))


def ref_entropy(lp):
    lp = lp[lp > -np.inf]
    return float(-np.sum(np.exp(lp) * lp))


def block_pair(V, L, seed, holes=()):
    """Two random tables on (V, L) with -inf at the ``holes`` of both."""
    rng = np.random.default_rng(seed)
    space = SequenceSpace(V, L)
    lws = rng.normal(scale=2.0, size=(2, space.size))
    lws[:, list(holes)] = -np.inf
    return CategoricalTable(space, lws[0]), CategoricalTable(space, lws[1])


def reductions(p, q):
    scaled = temperature_scale_exact(p, 0.6)
    raw = p.log_probs * 1.7 + 3.0
    return {
        "log_z": CategoricalTable(p.space, raw).log_z,
        "kl": kl_divergence(p, q),
        "entropy": entropy(p),
        "scaled_log_z": scaled.log_z,
        "scaled": scaled.log_probs,
    }


def references(p, q):
    s = p.log_probs / 0.6
    return {
        "log_z": ref_log_z(p.log_probs * 1.7 + 3.0),
        "kl": ref_kl(p.log_probs, q.log_probs),
        "entropy": ref_entropy(p.log_probs),
        "scaled_log_z": ref_log_z(s),
        "scaled": s - ref_log_z(s),
    }


@pytest.mark.parametrize("V, L", [(5, 7), (3, 11)])
@pytest.mark.parametrize("holes", [(), (_BLOCK - 1, _BLOCK, 2 * _BLOCK + 3)],
                         ids=["no-holes", "holes-at-block-edges"])
def test_block_reductions_match_one_shot_across_blocks(V, L, holes):
    # at least three blocks, the last one partial
    assert V**L > 2 * _BLOCK and V**L % _BLOCK != 0
    p, q = block_pair(V, L, V + L, holes)
    got, want = reductions(p, q), references(p, q)
    for key in got:
        np.testing.assert_allclose(got[key], want[key], rtol=1e-13, atol=0, err_msg=key)
    assert np.array_equal(np.isneginf(got["scaled"]), np.isneginf(want["scaled"]))


@pytest.mark.parametrize("V, L", [(3, 5), (2, 15)])
@pytest.mark.parametrize("with_holes", [False, True])
def test_block_reductions_of_one_block_are_one_shot(V, L, with_holes):
    # up to one block (2^15 entries is exactly one) the arithmetic is unchanged
    assert V**L <= _BLOCK
    holes = (0, V**L // 2, V**L - 1) if with_holes else ()
    p, q = block_pair(V, L, V + L, holes)
    got, want = reductions(p, q), references(p, q)
    for key in got:
        assert np.array_equal(got[key], want[key]), key


def test_kl_support_violation_in_a_later_block_is_named():
    space = SequenceSpace(5, 7)
    rng = np.random.default_rng(3)
    lp, lq = rng.normal(size=(2, space.size))
    lp[[0, _BLOCK]] = -np.inf            # zero mass in p: the masked path
    lq[[0, _BLOCK]] = -np.inf            # no violation where p has no mass
    first = 2 * _BLOCK + 5
    lq[[first, first + 1]] = -np.inf     # the violations, all in the last block
    p, q = CategoricalTable(space, lp), CategoricalTable(space, lq)
    with pytest.warns(SupportWarning, match=re.escape(str(space.sequence_at(first)))):
        assert kl_divergence(p, q) == math.inf


def test_kl_zero_mass_on_both_sides_of_a_block_boundary_matches_one_shot():
    space = SequenceSpace(5, 7)
    rng = np.random.default_rng(4)
    lp, lq = rng.normal(size=(2, space.size))
    lp[[_BLOCK - 1, _BLOCK, 2 * _BLOCK, space.size - 1]] = -np.inf  # zero mass in p
    lq[[_BLOCK - 1, 2 * _BLOCK]] = -np.inf  # and in q at some of those entries
    p, q = CategoricalTable(space, lp), CategoricalTable(space, lq)
    got = kl_divergence(p, q)
    assert math.isfinite(got)
    np.testing.assert_allclose(got, ref_kl(p.log_probs, q.log_probs), rtol=1e-13, atol=0)


@pytest.mark.parametrize("violations", [(_BLOCK - 1, _BLOCK), (5**7 - 1,)],
                         ids=["across-a-block-edge", "in-the-last-entry"])
def test_kl_names_the_first_violation_across_blocks(violations):
    space = SequenceSpace(5, 7)
    rng = np.random.default_rng(5)
    lp, lq = rng.normal(size=(2, space.size))
    lp[[3, _BLOCK + 1]] = -np.inf  # zero mass in p before the violations
    lq[list(violations)] = -np.inf
    p, q = CategoricalTable(space, lp), CategoricalTable(space, lq)
    first = min(violations)
    with pytest.warns(SupportWarning, match=re.escape(str(space.sequence_at(first)))):
        assert kl_divergence(p, q) == math.inf


@pytest.mark.parametrize("violation", [False, True])
def test_kl_with_zero_mass_builds_no_table_sized_temporaries(violation):
    space = SequenceSpace(2, 21)
    rng = np.random.default_rng(6)
    lp, lq = rng.normal(size=(2, space.size))
    lp[2**20 + 11] = -np.inf  # one zero-mass entry in p: the masked path
    if violation:
        lq[2**21 - 3] = -np.inf
    p, q = CategoricalTable(space, lp), CategoricalTable(space, lq)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportWarning)
        assert _peak_bytes(kl_divergence, p, q) < 2 * 2**20


@pytest.mark.parametrize("V, L", [(3, 4), (5, 7)])
def test_normalizing_leaves_the_caller_array_unchanged(V, L):
    lw = np.random.default_rng(1).normal(size=V**L) + 5.0
    before = lw.copy()
    t = CategoricalTable(SequenceSpace(V, L), lw)
    assert np.array_equal(lw, before) and lw.flags.writeable
    assert not np.shares_memory(t.log_probs, lw)


def test_scale_at_one_shares_the_source_entries():
    p, _ = block_pair(3, 4, 0, holes=(5,))
    before = p.log_probs.copy()
    out = temperature_scale_exact(p, 1.0)
    assert np.shares_memory(out.log_probs, p.log_probs)
    assert not out.log_probs.flags.writeable
    assert out.log_z == 0.0
    assert np.array_equal(p.log_probs, before)


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reductions_build_no_table_sized_temporaries():
    space = SequenceSpace(2, 21)
    rng = np.random.default_rng(0)
    p = CategoricalTable(space, rng.normal(size=space.size))
    q = CategoricalTable(space, rng.normal(size=space.size))
    table_bytes = p.log_probs.nbytes
    assert table_bytes == 16 * 2**20
    assert _peak_bytes(kl_divergence, p, q) < 2 * 2**20
    assert _peak_bytes(temperature_scale_exact, p, 0.5) < table_bytes + 2 * 2**20


# ------------------------------------------------------------ chain tables
# A windowed model's tables keep their per-position rows; scaling and KL run
# on the rows. Rebuilding the entries as a raw table forces the table path.

def raw(table: CategoricalTable) -> CategoricalTable:
    return CategoricalTable(table.space, table.log_probs, normalize=False)


def broadcast_joint(model, L, t_cond, temperature=1.0):
    """Reference enumeration that chains each position's distinct-context
    rows, rescaled as the sampler does, by broadcasting:
    log_joint.reshape(-1, V^c, 1) + rows."""
    V, log_joint = model.vocab_size, np.zeros(1)
    for pos in range(L):
        c = min(pos, model.window)
        contexts = _context_prefixes(np.arange(V**c), V, c, pos)
        rows = myopic_rescale(prefix_log_probs(model, contexts, pos, t_cond), temperature)
        log_joint = (log_joint.reshape(-1, V**c, 1) + rows).reshape(-1)
    return log_joint


def assert_close(got, want, tol=1e-12):
    assert abs(got - want) <= tol * max(1.0, abs(want)), (got, want)


@given(
    V=st.sampled_from([2, 3]),
    L=st.integers(min_value=1, max_value=6),
    window_fracs=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    embedding=st.booleans(),
    T=st.sampled_from([0.3, 0.7, 1.0, 2.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=80, deadline=None)
def test_chain_tables_match_the_table_path(V, L, window_fracs, embedding, T, seed):
    # windows 0..L+1, p's and q's drawn apart; a window of L - 1 or more
    # reads whole prefixes and gives a raw table
    wp, wq = (round(f * (L + 1)) for f in window_fracs)
    p_model, tp = random_ar("linear", V, L, wp, embedding, seed)
    q_model, tq = random_ar("linear", V, L, wq, embedding, seed + 1)
    p = enumerate_joint(p_model, t_cond=tp)
    q = myopic_scale_joint(q_model, T, t_cond=tq)
    p_chain, q_chain = wp < L - 1, wq < L - 1
    for table, w, chain in [(p, wp, p_chain), (q, wq, q_chain)]:
        if chain:
            assert [r.shape[0] for r in table.rows] == [V**min(i, w) for i in range(L)]
        else:
            assert table.rows is None
    assert np.array_equal(p.log_probs, broadcast_joint(p_model, L, tp))
    assert np.array_equal(q.log_probs, broadcast_joint(q_model, L, tq, T))

    scaled = temperature_scale_exact(p, T)
    want = temperature_scale_exact(raw(p), T)
    assert (scaled.rows is not None) == p_chain and want.rows is None
    assert_close(scaled.log_z, want.log_z)
    pairs = [(scaled, q), (q, scaled), (p, q), (scaled, p), (p, scaled)]
    for a, b in pairs:
        a_raw = want if a is scaled else raw(a)
        b_raw = want if b is scaled else raw(b)
        assert_close(kl_divergence(a, b), kl_divergence(a_raw, b_raw))
    assert_close(entropy(scaled), entropy(want))
    # off T = 1 a chain table's entries are built only when read: the KLs
    # and the entropy of chain tables read rows only
    assert ("log_probs" in vars(scaled)) == (T == 1.0 or not (p_chain and q_chain))
    np.testing.assert_allclose(scaled.log_probs, want.log_probs, rtol=0, atol=1e-12)
    assert not scaled.log_probs.flags.writeable
    for a in (p, q):
        assert_close(entropy(a), entropy(raw(a)))


# References that align rows with np.resize, as the chain passes and the
# loss once did: the row s mod n of an n-row table is read by tiling the
# table to the wider count. The views that replaced them read the same
# entries and do the same arithmetic, so the results must be equal.

def resize_scale_rows(rows, T):
    log_beta, scaled = np.zeros(1), []
    for r in reversed(rows):
        a = r / T
        a += np.resize(log_beta, r.shape)
        m = a.max(axis=1, keepdims=True)
        a -= m
        lse = np.log(np.exp(a).sum(axis=1, keepdims=True))
        a -= lse
        scaled.append(a)
        log_beta = (m + lse)[:, 0]
    return scaled[::-1], float(log_beta[0])


def resize_chain_kl(p_rows, q_rows):
    kl, mu = 0.0, np.ones(1)
    for lp, lq in zip(p_rows, q_rows):
        shape = (max(lp.shape[0], lq.shape[0]), lp.shape[1])
        lp, lq = np.resize(lp, shape), np.resize(lq, shape)
        mu = mu.reshape(-1, shape[0]).sum(axis=0)
        joint = mu[:, None] * np.exp(lp)
        with np.errstate(invalid="ignore"):
            part = float(joint.ravel() @ (lp - lq).ravel())
        if not math.isfinite(part):
            mass = joint > 0
            if np.any(lq[mass] == -np.inf):
                return math.inf
            part = float(joint[mass] @ (lp[mass] - lq[mass]))
        kl += part
        mu = joint.ravel()
    return kl


def resize_entropy(rows):
    return -resize_chain_kl(rows, (np.zeros((1, rows[0].shape[1])),) * len(rows))


def resize_loss(q, base, xs, w, d, t_cond, kl_beta):
    q_rows = position_rows(q, t_cond)
    p_rows = position_rows(base) if kl_beta > 0 else q_rows
    V, starts = q.vocab_size, q.row_starts
    loss, g = 0.0, np.zeros((starts[-1], V))
    flat = np.zeros(len(xs), dtype=np.int64)
    for i in range(xs.shape[1]):
        n_q = q_rows[i].shape[0]
        S = max(n_q, p_rows[i].shape[0])
        ids = flat % S
        flat = ids * V + xs[:, i]
        log_q = np.resize(q_rows[i], (S, V))
        W = np.bincount(flat, weights=d * w[:, i], minlength=S * V).reshape(S, V)
        if kl_beta > 0:
            log_p = np.resize(p_rows[i], (S, V))
            d_ctx = np.bincount(ids, weights=d, minlength=S)
            pw = kl_beta * d_ctx[:, None] * np.exp(log_p)
            W += pw
            mass = pw > 0
            loss += pw[mass] @ log_p[mass]
        used = W != 0
        loss -= W[used] @ log_q[used]
        g_logits = W.sum(axis=1, keepdims=True) * np.exp(log_q) - W
        if S > n_q:
            g_logits = g_logits.reshape(-1, n_q, V).sum(axis=0)
        g[starts[i]:starts[i + 1]] = g_logits
    return float(loss), q.param_grad(g, t_cond)


@given(
    V=st.sampled_from([2, 3]),
    L=st.integers(min_value=1, max_value=6),
    window_fracs=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    embedding=st.booleans(),
    hole=st.booleans(),
    T=st.sampled_from([0.3, 0.7, 2.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=80, deadline=None)
def test_aligned_views_match_the_resize_reference(V, L, window_fracs, embedding, hole, T,
                                                  seed):
    # windows 0..L+1, p's and q's drawn apart; the row passes run on row
    # tables of any window, so whole-prefix ones are checked too. A hole
    # gives p's token 1 no mass, which sends the KLs down their masked sums
    # and, where q has mass there, to +inf
    wp, wq = (round(f * (L + 1)) for f in window_fracs)
    p_model, _ = random_ar("linear", V, L, wp, False, seed)
    if hole:
        p_model.bias[1] = -np.inf
    q_model, tq = random_ar("linear", V, L, wq, embedding, seed + 1)
    p_rows = position_rows(p_model)
    q_rows = tuple(myopic_rescale(r, T) for r in position_rows(q_model, tq))

    scaled, log_z = _scale_rows(p_rows, T)
    want, want_log_z = resize_scale_rows(p_rows, T)
    assert log_z == want_log_z
    assert all(np.array_equal(a, b) for a, b in zip(scaled, want, strict=True))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportWarning)
        for a, b in [(scaled, q_rows), (q_rows, scaled), (p_rows, q_rows), (q_rows, p_rows),
                     (scaled, p_rows), (p_rows, scaled)]:
            assert _chain_kl(a, b) == resize_chain_kl(a, b)
    space = SequenceSpace(V, L)
    for rows in (p_rows, scaled, q_rows):
        table = _derived_table(space, None, 0.0, _Rows(rows))
        assert entropy(table) == resize_entropy(rows)

    # the loss's anchor has q's row layout: p's weights at q's window
    anchor, _ = random_ar("linear", V, L, wq, False, seed)
    if hole:
        anchor.bias[1] = -np.inf
    rng = np.random.default_rng(seed)
    xs = rng.integers(V, size=(16, L))
    w = rng.uniform(0.1, 2.0, size=xs.shape)
    dw = rng.uniform(0.1, 1.0, size=len(xs))
    for kl_beta in (0.0, 0.3):
        loss, grad = weighted_nll_loss_node(q_model, xs, w, dw, t_cond=tq, kl_beta=kl_beta,
                                            base=anchor)
        want_loss, want_grad = resize_loss(q_model, anchor, xs, w, dw / dw.sum(), tq, kl_beta)
        # the loss is summed over all positions at once, the reference one
        # position at a time
        assert loss == pytest.approx(want_loss, rel=1e-15)
        assert np.array_equal(grad, want_grad)


def test_a_saturated_window_at_full_size_matches_the_table_path():
    # positions 3 and 4 of a window-3 model over 8 tokens have 8^3 = 512
    # contexts, the size of the bench's linear model; q's window is 2
    p_model, _ = random_ar("linear", 8, 5, 3, False, 0)
    q_model, tq = random_ar("linear", 8, 5, 2, True, 1)
    p, q = enumerate_joint(p_model), myopic_scale_joint(q_model, 0.7, t_cond=tq)
    assert [r.shape[0] for r in p.rows] == [1, 8, 64, 512, 512]
    scaled = temperature_scale_exact(p, 0.5)
    want = temperature_scale_exact(raw(p), 0.5)
    assert "log_probs" not in vars(scaled)
    assert_close(scaled.log_z, want.log_z)
    np.testing.assert_allclose(scaled.log_probs, want.log_probs, rtol=0, atol=1e-12)
    for a, b in [(scaled, q), (q, scaled), (p, q), (q, p), (scaled, p)]:
        a_raw = want if a is scaled else raw(a)
        b_raw = want if b is scaled else raw(b)
        assert_close(kl_divergence(a, b), kl_divergence(a_raw, b_raw))
    for a, a_raw in [(p, raw(p)), (scaled, want), (q, raw(q))]:
        assert_close(entropy(a), entropy(a_raw))

    # q refuses one (context, token) at each of positions 3 and 4 on which p
    # has mass; the chain path names the table path's first such sequence
    rng = np.random.default_rng(2)
    rows = [r.copy() for r in q.rows]
    for i in (3, 4):
        s, x = int(rng.integers(rows[i].shape[0])), int(rng.integers(8))
        row = rows[i][s].copy()
        row[x] = -np.inf
        rows[i][s] = log_softmax(row)
    refusing = _derived_table(q.space, None, 0.0, _Rows(rows))
    named = []
    for a, b in [(p, refusing), (raw(p), raw(refusing))]:
        with pytest.warns(SupportWarning) as record:
            assert kl_divergence(a, b) == math.inf
        named.append(str(record[0].message))
    assert named[0] == named[1]
    first = _first_violation(p.rows, tuple(rows))
    assert str(first) in named[1]
    assert refusing.log_probs[q.space.index_of(first)] == -np.inf


def test_scale_at_one_shares_a_chain_tables_rows_and_entries():
    model, _ = random_ar("linear", 3, 4, 2, False, 0)
    p = enumerate_joint(model)
    out = temperature_scale_exact(p, 1.0)
    assert out.rows is p.rows and out.log_z == 0.0
    assert np.shares_memory(out.log_probs, p.log_probs)
    lazy = temperature_scale_exact(p, 0.5)
    again = temperature_scale_exact(lazy, 1.0)
    assert again.rows is lazy.rows and "log_probs" not in vars(again)


def test_windowed_tables_build_their_entries_only_when_read():
    model, _ = random_ar("linear", 3, 5, 2, False, 0)
    for table in (enumerate_joint(model), myopic_scale_joint(model, 0.5)):
        assert "log_probs" not in vars(table)
        assert not any(rows.flags.writeable for rows in table.rows)
    assert _peak_bytes(enumerate_joint, LinearAR(8, 7, 3)) < 2**20


def test_windowed_model_with_a_nan_log_prob_is_refused():
    # the rows are checked instead of the entries they chain into: a model's
    # row_table refuses a NaN logit itself, and the oracle refuses a NaN
    # row from any other source of rows
    model, _ = random_ar("linear", 3, 4, 2, False, 0)
    starts = model.row_starts
    nan_rows = model.row_table().copy()
    nan_rows[starts[2]:starts[3]] = np.nan
    source = types.SimpleNamespace(vocab_size=3, max_length=4, window=2, row_starts=starts,
                                   row_table=lambda t_cond=None: nan_rows)
    with pytest.raises(OracleError, match="finite or -inf"):
        enumerate_joint(source)
    model.bias[1] = np.nan
    with pytest.raises(ModelError, match="position 0 has no finite max"):
        enumerate_joint(model)


def test_independent_positions_past_the_cap_match_the_closed_form():
    # w_ctx = 0 makes every position independent of its context, so
    # pi = p^(1/T)/Z has rows softmax(log p_i / T), and KL(pi || q) and
    # H(pi) are sums of per-position terms; 8^12 entries are never built.
    # p gives token 1 no mass, which adds nothing to either sum
    V, L, T = 8, 12, 0.5
    assert V**L > ENUMERATION_CAP
    rng = np.random.default_rng(0)
    models, rows = [], []
    for _ in range(2):
        model = LinearAR(V, L, 2)
        model.w_pos = rng.normal(size=model.w_pos.shape)
        model.bias = rng.normal(size=model.bias.shape)
        models.append(model)
    models[0].bias[1] = -np.inf
    rows = [log_softmax((m.bias[:, None] + m.w_pos).T) for m in models]
    p = enumerate_joint(models[0])
    pi = temperature_scale_exact(p, T)
    q = enumerate_joint(models[1])
    mass = rows[0] > -np.inf
    lp, lpi, lq = rows[0][mass], log_softmax(rows[0] / T)[mass], rows[1][mass]
    assert_close(kl_divergence(pi, q), float(np.sum(np.exp(lpi) * (lpi - lq))))
    assert_close(entropy(pi), float(-np.sum(np.exp(lpi) * lpi)))
    assert_close(kl_divergence(p, q), float(np.sum(np.exp(lp) * (lp - lq))))
    assert_close(entropy(p), float(-np.sum(np.exp(lp) * lp)))
    # q refusing token 2, to which p gives mass, makes the KL +inf; the
    # first such sequence is all zeros but for its last token
    models[1].bias[2] = -np.inf
    with pytest.warns(SupportWarning, match=re.escape(str((0,) * 11 + (2,)))):
        assert kl_divergence(pi, enumerate_joint(models[1])) == math.inf
    assert all("log_probs" not in vars(t) for t in (p, pi, q))
    with pytest.raises(OracleError, match="enumeration cap"):
        pi.log_probs


def test_whole_prefix_models_and_raw_tables_keep_the_table_path():
    model, _ = random_ar("tabular", 3, 3, None, False, 0)
    table = enumerate_joint(model)
    assert table.rows is None
    assert temperature_scale_exact(table, 0.5).rows is None


def test_a_window_of_length_minus_one_reads_whole_prefixes():
    table = enumerate_joint(LinearAR(3, 4, 3))
    assert table.rows is None


def _with_neg_inf_bias(seed, V=3, L=4, window=2):
    model, _ = random_ar("linear", V, L, window, False, seed)
    model.bias[1] = -np.inf
    return model


@pytest.mark.parametrize("T", [0.3, 2.0])
def test_chain_scaling_of_neg_inf_rows_matches_the_table_path(T):
    p = enumerate_joint(_with_neg_inf_bias(0))
    assert np.isneginf(p.log_probs).any()
    scaled = temperature_scale_exact(p, T)
    assert not any(np.isnan(r).any() for r in scaled.rows)
    want = temperature_scale_exact(raw(p), T)
    assert_close(scaled.log_z, want.log_z)
    holes = np.isneginf(want.log_probs)
    assert np.array_equal(np.isneginf(scaled.log_probs), holes)
    np.testing.assert_allclose(scaled.log_probs[~holes], want.log_probs[~holes],
                               rtol=0, atol=1e-12)
    # zero mass in p: the chain sum is not finite, and the masked sum runs
    assert_close(kl_divergence(scaled, p), kl_divergence(want, raw(p)))


def test_chain_kl_support_violation_names_the_table_paths_sequence():
    model, _ = random_ar("linear", 3, 4, 2, False, 1)
    p = temperature_scale_exact(enumerate_joint(model), 0.5)
    q = enumerate_joint(_with_neg_inf_bias(2))
    messages = []
    for a, b in ((p, q), (temperature_scale_exact(raw(enumerate_joint(model)), 0.5), raw(q))):
        with pytest.warns(SupportWarning) as record:
            assert kl_divergence(a, b) == math.inf
        messages.append(str(record[0].message))
    assert messages[0] == messages[1]
    assert str(q.space.sequence_at(int(np.argmax(np.isneginf(q.log_probs))))) in messages[0]


def test_chain_scale_and_kl_read_only_rows(monkeypatch):
    model, _ = random_ar("linear", 8, 7, 3, False, 0)
    q_model, _ = random_ar("linear", 8, 7, 3, False, 1)
    p, q = enumerate_joint(model), enumerate_joint(q_model)
    p_counts, q_counts = count_rows(model, monkeypatch), count_rows(q_model, monkeypatch)

    def score():
        for T in (0.5, 0.8, 1.0):
            kl_divergence(temperature_scale_exact(p, T), q)

    assert _peak_bytes(score) < 2**20
    assert p_counts == [] and q_counts == []
    p_raw, q_raw = raw(p), raw(q)
    assert _peak_bytes(lambda: kl_divergence(temperature_scale_exact(p_raw, 0.5), q_raw)) \
        >= 16 * 2**20


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


# ----------------------------------------------------------- table -> tabular

def test_tabular_from_table_reproduces_conditionals(counterexample_model):
    table = enumerate_joint(counterexample_model)
    rebuilt = tabular_from_table(table)
    for prefix in [(), (0,), (1,)]:
        assert np.allclose(row_after(counterexample_model, prefix), row_after(rebuilt, prefix),
                           atol=1e-12)
    assert np.allclose(enumerate_joint(rebuilt).log_probs, table.log_probs, atol=1e-12)


def test_tabular_from_table_gives_zero_mass_prefixes_uniform_rows():
    # V=3, L=3: no mass after the prefixes (1,) and (0, 2), nor on (2, 0, 1)
    space = SequenceSpace(3, 3)
    xs = space.all_sequences()
    lw = np.random.default_rng(5).normal(size=space.size)
    lw[(xs[:, 0] == 1) | ((xs[:, 0] == 0) & (xs[:, 1] == 2))] = -np.inf
    lw[space.index_of((2, 0, 1))] = -np.inf
    table = CategoricalTable(space, lw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = tabular_from_table(table)
        joint = enumerate_joint(model).log_probs
    for prefix in [(1,), (1, 0), (1, 2), (0, 2)]:
        assert np.array_equal(row_after(model, prefix), np.full(3, -math.log(3)))
    assert row_after(model, [2, 0])[1] == -np.inf
    assert np.array_equal(joint == -np.inf, table.log_probs == -np.inf)
    np.testing.assert_allclose(joint, table.log_probs, rtol=0, atol=1e-12)


def test_tabular_from_table_realizes_scaled_joint(counterexample_model):
    p_t = temperature_scale_exact(enumerate_joint(counterexample_model), 0.5)
    q = tabular_from_table(p_t)
    assert kl_divergence(p_t, enumerate_joint(q)) < 1e-12
