import json
import math

import numpy as np
import pytest

from conftest import context_ids, kl_to_base_per_position, prefix_log_probs, tabular
from lhts.ar_model import (
    LinearAR,
    ModelError,
    TabularAR,
    tabular_from_table,
)
from lhts.data import enumerated_dataset, make_skewed_ground_truth
from lhts.numerics import Rng, finite_difference_gradient
from lhts.oracle import (
    entropy,
    enumerate_joint,
    kl_divergence,
    temperature_scale_exact,
)
from lhts.trainer import (
    NumericalAbort,
    StreamingBaseline,
    TrainSettings,
    TrainState,
    TrainerError,
    apply_horizon,
    ar_loss_exact,
    ar_weights,
    joint_loss_exact,
    joint_weights,
    lhts_step,
    suffix_log_liks_matrix,
    train,
    weighted_nll_loss_node,
)


class _StubSequenceModel:
    """Fixed per-token log-probs; lets weight arithmetic be pinned by hand."""

    def __init__(self, u_matrix):
        self.u = np.asarray(u_matrix, dtype=np.float64)

    def per_token_log_probs_matrix(self, xs, t_cond=None):
        return self.u[: len(xs)]


# ------------------------------------------------------------- suffix logliks

def test_suffix_log_liks_definition(counterexample_model):
    stub = _StubSequenceModel([[-1.0, -2.0, -3.0]])
    v = suffix_log_liks_matrix(stub, np.zeros((1, 3), dtype=np.int64))[0]
    assert v.tolist() == [-6.0, -5.0, -3.0]


def test_suffix_head_equals_sequence_log_prob(counterexample_model):
    v = suffix_log_liks_matrix(counterexample_model, [[1, 0]])[0]
    u = counterexample_model.per_token_log_probs_matrix(np.array([[1, 0]]))
    assert v[0] == pytest.approx(u.sum(), abs=1e-14)


def test_suffix_counterexample_hand_values(counterexample_model):
    v = suffix_log_liks_matrix(counterexample_model, [[1, 0]])[0]
    assert v == pytest.approx([math.log(0.36), math.log(0.9)], abs=1e-12)


# -------------------------------------------------------------- apply_horizon

def test_horizon_one_recovers_per_token():
    assert apply_horizon(np.array([-6.0, -5.0, -3.0]), 1).tolist() == [-1.0, -2.0, -3.0]


def test_horizon_beyond_length_is_noop():
    v = np.array([-6.0, -5.0, -3.0])
    assert np.array_equal(apply_horizon(v, 3), v)
    assert np.array_equal(apply_horizon(v, 10), v)


def test_horizon_two_pad_semantics():
    assert apply_horizon(np.array([-6.0, -5.0, -3.0]), 2).tolist() == [-3.0, -5.0, -3.0]


def test_horizon_validates():
    with pytest.raises(TrainerError, match="horizon must be >= 1"):
        apply_horizon(np.zeros(3), 0)
    for bad in (2.5, True):
        with pytest.raises(TrainerError, match="horizon must be an int"):
            apply_horizon(np.zeros(3), bad)


# -------------------------------------------------------------------- weights

def test_joint_weights_all_ones_at_unit_temperature(counterexample_model):
    xs = np.array([[0, 0], [1, 0], [0, 1]])
    wb = joint_weights(counterexample_model, xs, 1.0, StreamingBaseline())
    assert np.all(wb.weights == 1.0)
    assert np.all(wb.exponents == 0.0)


def test_joint_weights_hand_example():
    # log p {-2, -4}, T = 0.5 so the factor is 1, baseline mean -3
    stub = _StubSequenceModel([[-2.0], [-4.0]])
    xs = np.zeros((2, 1), dtype=np.int64)
    baseline = StreamingBaseline()
    baseline.update(np.array([-2.0, -4.0]))
    wb = joint_weights(stub, xs, 0.5, baseline)
    assert wb.weights == pytest.approx([math.e, 1 / math.e], rel=1e-12)


def test_joint_weights_prequential_first_batch_uses_zero():
    stub = _StubSequenceModel([[-2.0], [-4.0]])
    xs = np.zeros((2, 1), dtype=np.int64)
    baseline = StreamingBaseline()
    wb = joint_weights(stub, xs, 0.5, baseline)
    assert wb.exponents == pytest.approx([-2.0, -4.0])  # b = 0 on first batch
    assert baseline.means() == pytest.approx(-3.0)  # updated afterwards


def test_joint_weights_error_names_example():
    bad = tabular(2, 1, [[1.0, 0.0]])
    with pytest.raises(TrainerError, match="example 1"):
        joint_weights(bad, np.array([[0], [1]]), 0.5, StreamingBaseline())


def test_clip_semantics():
    wb = ar_weights(np.array([[5.0]]), 0.5, np.zeros(1), clip=3.0)
    assert wb.weights[0, 0] == pytest.approx(math.exp(3.0), rel=1e-15)
    assert wb.exponents[0, 0] == 5.0
    assert wb.clip_rate == 1.0


def test_weights_reject_nan_clip():
    # a NaN clip would make every weight NaN with a clip rate of 0; a clip
    # that is not a number is refused the same way
    for clip in (float("nan"), "a", [1.0]):
        with pytest.raises(TrainerError, match="clip"):
            ar_weights(np.array([[1.0, -2.0]]), 0.5, np.zeros(2), clip=clip)
        with pytest.raises(TrainerError, match="clip"):
            joint_weights(TabularAR(2, 2), np.array([[0, 1]]), 0.5, StreamingBaseline(),
                          clip=clip)


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("fn", ["ar_weights", "joint_weights", "joint_loss_exact",
                                "ar_loss_exact", "lhts_step"])
def test_non_finite_or_non_positive_temperature_is_refused(counterexample_model, fn, T):
    xs, dw = _full_dataset(counterexample_model)
    table = enumerate_joint(counterexample_model)
    state = TrainState(counterexample_model, TrainSettings(steps=2))
    lhts_step(state, xs, 0.5, data_weights=dw)
    joint = StreamingBaseline()
    joint.update(table.log_probs)
    before = (state.q.param_array(), state.step, state.baseline.sums, state.baseline.n,
              joint.sums, joint.n)
    calls = {
        "ar_weights": lambda: ar_weights(suffix_log_liks_matrix(counterexample_model, xs), T,
                                         state.baseline.means()),
        "joint_weights": lambda: joint_weights(counterexample_model, xs, T, joint),
        "joint_loss_exact": lambda: joint_loss_exact(table, table, T),
        "ar_loss_exact": lambda: ar_loss_exact(counterexample_model, state.q, T),
        "lhts_step": lambda: lhts_step(state, xs, T, data_weights=dw),
    }
    with pytest.raises(TrainerError, match="temperature"):
        calls[fn]()
    after = (state.q.param_array(), state.step, state.baseline.sums, state.baseline.n,
             joint.sums, joint.n)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_ar_weights_unit_temperature_exact_ones():
    v = np.random.default_rng(0).normal(size=(4, 3))
    wb = ar_weights(v, 1.0, np.zeros(3))
    assert np.all(wb.weights == 1.0)


def test_ar_weights_single_example_stream_is_unit():
    v = np.array([[-3.0, -1.5, -0.2]])
    baseline = StreamingBaseline()
    baseline.update(v)
    for T in (0.3, 0.5, 2.0):
        wb = ar_weights(v, T, baseline.means())
        assert np.all(wb.weights == 1.0)


def test_ar_weights_counterexample_two_sequences(counterexample_model):
    xs = np.array([[0, 0], [1, 0]])
    v = suffix_log_liks_matrix(counterexample_model, xs)
    assert v[0, 1] == pytest.approx(math.log(0.55), abs=1e-12)
    assert v[1, 1] == pytest.approx(math.log(0.9), abs=1e-12)
    baseline = StreamingBaseline()
    baseline.update(v)
    wb = ar_weights(v, 0.5, baseline.means())
    m = 0.5 * (math.log(0.55) + math.log(0.9))
    assert wb.weights[0, 1] == pytest.approx(math.exp(math.log(0.55) - m), rel=1e-12)
    assert wb.weights[1, 1] == pytest.approx(math.exp(math.log(0.9) - m), rel=1e-12)


# ------------------------------------------------------------ loss gradient

def test_grad_softmax_cross_entropy():
    # logits [0, 0], target 0: d/dlogits = softmax - onehot = [-0.5, 0.5]
    q = TabularAR(2, 1)
    loss, grad = weighted_nll_loss_node(q, np.array([[0]]), np.ones(1))
    assert grad.tolist() == pytest.approx([-0.5, 0.5], abs=1e-15)
    assert loss == pytest.approx(math.log(2.0), abs=1e-15)


def _loss_grad_case(kind: str):
    """A small q of each parameterization, with t_cond when it needs one."""
    rng = np.random.default_rng(12)
    if kind == "linear":
        q = LinearAR(3, 3, window=2)
    elif kind == "linear_emb":
        q = LinearAR(3, 3, window=2, embedding_width=2)
    else:
        q = make_skewed_ground_truth(3, 3, rng)
        if kind == "tabular_exact":
            return tabular_from_table(enumerate_joint(q)), None
        return q, None
    q.set_param_array(rng.normal(scale=0.5, size=q.n_params))
    return q, (0.7 if q.has_embedding else None)


@pytest.mark.parametrize("kl_beta", [0.0, 0.2])
@pytest.mark.parametrize("data_weighted", [False, True])
@pytest.mark.parametrize("per_index", [False, True])
@pytest.mark.parametrize("kind", ["tabular", "tabular_exact", "linear", "linear_emb"])
def test_loss_grad_matches_finite_differences(kind, per_index, data_weighted, kl_beta):
    q, t_cond = _loss_grad_case(kind)
    rng = np.random.default_rng(13)
    base = make_skewed_ground_truth(3, 3, rng)
    xs = rng.integers(0, 3, size=(8, 3))
    importance = np.exp(rng.normal(scale=0.5, size=xs.shape if per_index else 8))
    dw = rng.random(8) + 0.1 if data_weighted else None

    def loss_at(theta):
        probe = q.copy()
        probe.set_param_array(theta)
        return weighted_nll_loss_node(probe, xs, importance, data_weights=dw, t_cond=t_cond,
                                      kl_beta=kl_beta, base=base)[0]

    loss, grad = weighted_nll_loss_node(q, xs, importance, data_weights=dw, t_cond=t_cond,
                                        kl_beta=kl_beta, base=base)
    d = np.full(8, 1 / 8) if dw is None else dw / dw.sum()
    w = importance if per_index else importance[:, None]
    nll = -(w * q.per_token_log_probs_matrix(xs, t_cond=t_cond)).sum(axis=1)
    kl = [kl_to_base_per_position(base, q, x, t_cond=t_cond) for x in xs]
    assert loss == pytest.approx(d @ (nll + kl_beta * np.array(kl)), rel=1e-12)
    assert loss == loss_at(q.param_array())
    fd = finite_difference_gradient(loss_at, q.param_array())
    assert np.max(np.abs(grad - fd)) < 1e-6 * np.max(np.abs(fd))
    if isinstance(q, TabularAR):
        # rows no prefix of the batch reaches get exactly zero
        starts = q.row_starts
        reached = np.concatenate([starts[i] + context_ids(xs[:, :i], 3) for i in range(3)])
        unreached = np.setdiff1d(np.arange(starts[-1]), reached)
        assert unreached.size and not np.any(grad.reshape(-1, 3)[unreached])


def test_loss_validates_inputs(counterexample_model):
    xs = np.array([[0, 1], [1, 0]])
    with pytest.raises(TrainerError, match=r"\(n,\) or \(n, length\)"):
        weighted_nll_loss_node(counterexample_model, xs, np.ones(3))
    with pytest.raises(TrainerError, match="base model"):
        weighted_nll_loss_node(counterexample_model, xs, np.ones(2), kl_beta=0.1)


@pytest.mark.parametrize("kl_beta", [math.nan, -1.0, math.inf, "a", None],
                         ids=["nan", "negative", "inf", "str", "none"])
def test_loss_refuses_a_kl_beta_that_is_not_zero_or_finite_and_positive(counterexample_model,
                                                                          kl_beta):
    # a NaN or negative kl_beta would drop the anchor without a word
    with pytest.raises(TrainerError, match="kl_beta"):
        weighted_nll_loss_node(counterexample_model, np.array([[0, 1]]), np.ones(1),
                               kl_beta=kl_beta, base=counterexample_model)


@pytest.mark.parametrize("columns", [0, 7])
def test_baseline_means_do_not_depend_on_the_memory_layout(columns):
    # the same values as a C-ordered array, a reversed view (the layout of a
    # reverse cumulative sum), a Fortran-ordered array and a strided view
    rng = np.random.default_rng(8)
    shape = (301,) + ((columns,) if columns else ())
    values = rng.normal(scale=30.0, size=shape)
    dw = rng.random(301)
    flipped = np.ascontiguousarray(values[..., ::-1])[..., ::-1]
    layouts = [values, flipped, np.asfortranarray(values),
               np.repeat(values, 2, axis=-1)[..., ::2] if columns else values[::-1][::-1]]
    means = []
    for s in layouts:
        assert np.array_equal(s, values)
        baseline = StreamingBaseline()
        baseline.update(s, dw)
        baseline.update(s[:40])
        means.append(baseline.means())
    for m in means[1:]:
        assert np.array_equal(m, means[0])


def test_baseline_refuses_statistics_of_another_shape():
    baseline = StreamingBaseline()
    baseline.update(np.array([-2.0, -4.0]))
    with pytest.raises(TrainerError, match="do not match"):
        baseline.update(np.zeros((2, 3)))
    assert baseline.means() == -3.0


@pytest.mark.parametrize("xs", [np.array([[0, 1.5, 1], [1, 0, 0]]), np.array([0, 1, 1])],
                         ids=["fractional-token", "1d"])
def test_training_refuses_a_malformed_token_batch(xs):
    # a non-integral token or a batch that is not 2-D, before any state changes
    state = TrainState(TabularAR(2, 3), TrainSettings(learning_rate=0.5, temperatures=(0.5,)))
    q = state.q.param_array()
    for call in (lambda: lhts_step(state, xs, 0.5),
                 lambda: joint_weights(state.p, xs, 0.5, state.baseline),
                 lambda: train(state.p, xs, None, TrainSettings(steps=1), Rng(0))):
        with pytest.raises(ModelError, match="must be integers|2-D batch"):
            call()
    assert np.array_equal(state.q.param_array(), q)
    assert state.step == 0 and state.baseline.n == 0


@pytest.mark.parametrize("call", [
    pytest.param(lambda q, xs: weighted_nll_loss_node(q, xs, np.ones(3)), id="loss"),
    pytest.param(lambda q, xs: lhts_step(TrainState(q, TrainSettings()), xs, 0.5),
                 id="lhts_step"),
    # with no steps, only the check before any state is built can refuse it
    pytest.param(lambda q, xs: train(q, xs, None, TrainSettings(steps=0), Rng(0)),
                 id="train"),
])
def test_a_batch_longer_than_max_length_is_refused(call):
    with pytest.raises(ModelError, match="exceeds max_length 2"):
        call(TabularAR(2, 2), np.zeros((3, 4), dtype=np.int64))


def test_step_refuses_a_batch_of_another_length_before_weighting():
    state = TrainState(TabularAR(2, 3), TrainSettings(learning_rate=0.5, temperatures=(0.5,)))
    lhts_step(state, np.array([[0, 1, 1], [1, 0, 0]]), 0.5)
    q, step = state.q.param_array(), state.step
    n, sums = state.baseline.n, state.baseline.sums.copy()
    with pytest.raises(TrainerError, match="do not match"):
        lhts_step(state, np.array([[0, 1], [1, 1]]), 0.5)
    assert np.array_equal(state.q.param_array(), q) and state.step == step
    assert state.baseline.n == n and np.array_equal(state.baseline.sums, sums)


# [1e308, 1e308] is finite, but its sum overflows
@pytest.mark.parametrize("bad", [[np.nan, 1.0], [np.inf, 1.0], [-1.0, 2.0], [0.0, 0.0],
                                 [1e308, 1e308]],
                         ids=["nan", "inf", "negative", "zero-sum", "overflowing-sum"])
def test_data_weights_must_be_nonnegative_with_positive_finite_sum(counterexample_model, bad):
    xs = np.array([[0, 1], [1, 0]])
    with pytest.raises(TrainerError, match="data weights"):
        weighted_nll_loss_node(counterexample_model, xs, np.ones(2), data_weights=np.array(bad))
    with pytest.raises(TrainerError, match="data weights"):
        StreamingBaseline().update(np.zeros(2), data_weights=np.array(bad))


def per_row_loss(q, xs, importance, d, t_cond, kl_beta, base):
    """Reference loss and gradient: both models' conditionals, computed one
    prefix at a time, and the weight matrix W taken on every row; each row's
    logit gradient is added to the row of its context in q's own (V^c, V)
    rows, and one param_grad call maps every position's rows, back to back,
    onto q's parameters."""
    n, length = xs.shape
    V = q.vocab_size
    w = importance if importance.ndim == 2 else np.repeat(importance[:, None], length, axis=1)
    loss, g_tables = 0.0, []
    for i in range(length):
        c = i if q.window is None else min(i, q.window)
        log_q = prefix_log_probs(q, xs, i, t_cond)
        W = np.zeros_like(log_q)
        W[np.arange(n), xs[:, i]] = d * w[:, i]
        if kl_beta > 0.0:
            log_p = prefix_log_probs(base, xs, i)
            pw = kl_beta * d[:, None] * np.exp(log_p)
            W += pw
            loss += np.sum(pw * log_p)
        loss -= np.sum(W * log_q)
        g_rows = np.zeros((V**c, V))
        np.add.at(g_rows, context_ids(xs[:, i - c:i], V),
                  W.sum(axis=1, keepdims=True) * np.exp(log_q) - W)
        g_tables.append(g_rows)
    return loss, q.param_grad(np.concatenate(g_tables), t_cond)


@pytest.mark.parametrize("kind", ["tabular", "linear"])
def test_a_short_batch_is_a_full_one_with_no_weight_past_its_end(kind):
    # param_grad takes every position's rows: those past the batch are zero
    q = TabularAR(3, 4) if kind == "tabular" else LinearAR(3, 4, 2)
    rng = np.random.default_rng(30)
    q.set_param_array(rng.normal(size=q.n_params))
    xs = rng.integers(0, 3, size=(50, 4))
    w = rng.random((50, 4))
    w[:, 2:] = 0.0
    loss, grad = weighted_nll_loss_node(q, xs[:, :2], w[:, :2])
    full_loss, full_grad = weighted_nll_loss_node(q, xs, w)
    assert loss == full_loss and np.array_equal(grad, full_grad)


def _linear(V, L, window, seed, embedding=False):
    model = LinearAR(V, L, window, embedding_width=2 if embedding else None)
    model.set_param_array(np.random.default_rng(seed).normal(scale=0.6, size=model.n_params))
    return model


def _anchor_pair(case):
    """(q, base): the base reads more of the prefix than q, less, or as
    much. Only the last two share q's row layout: a window of L - 1 reads
    the whole prefix, as the tabular model does."""
    rng = np.random.default_rng(21)
    tabular = make_skewed_ground_truth(3, 4, rng)
    return {
        "tabular_base_linear_q1": (_linear(3, 4, 1, 1), tabular),
        "linear_base3_linear_q1": (_linear(3, 4, 1, 2, embedding=True), _linear(3, 4, 3, 3)),
        "linear_base1_linear_q3": (_linear(3, 4, 3, 4), _linear(3, 4, 1, 5)),
        "linear_base1_tabular_q": (tabular.copy(), _linear(3, 4, 1, 6)),
        "linear_base2_linear_q2": (_linear(3, 4, 2, 7), _linear(3, 4, 2, 8)),
        "tabular_base_linear_q3": (_linear(3, 4, 3, 9, embedding=True), tabular),
    }[case]


@pytest.mark.parametrize("kl_beta", [0.0, 0.3])
@pytest.mark.parametrize("case", ["tabular_base_linear_q1", "linear_base3_linear_q1",
                                  "linear_base1_linear_q3", "linear_base1_tabular_q",
                                  "linear_base2_linear_q2", "tabular_base_linear_q3"])
def test_loss_grad_match_per_row_reference(case, kl_beta):
    q, base = _anchor_pair(case)
    t_cond = 0.7 if q.has_embedding else None
    rng = np.random.default_rng(22)
    # 400 rows over 81 sequences: every context is shared by many rows
    xs = rng.integers(0, 3, size=(400, 4))
    dw = rng.random(400) + 0.1
    if kl_beta > 0.0 and base.row_starts != q.row_starts:
        # the anchor's rows are read at q's rows, so another layout is refused
        with pytest.raises(TrainerError, match="row layout"):
            weighted_nll_loss_node(q, xs, np.ones(400), data_weights=dw, t_cond=t_cond,
                                   kl_beta=kl_beta, base=base)
        return
    for importance in (np.exp(rng.normal(scale=0.5, size=xs.shape)),
                       np.exp(rng.normal(scale=0.5, size=400))):
        loss, grad = weighted_nll_loss_node(q, xs, importance, data_weights=dw,
                                            t_cond=t_cond, kl_beta=kl_beta, base=base)
        ref_loss, ref_grad = per_row_loss(q, xs, importance, dw / dw.sum(), t_cond,
                                          kl_beta, base)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


@pytest.mark.parametrize("q", [TabularAR(2, 3), LinearAR(2, 3, 2)], ids=["tabular", "linear"])
@pytest.mark.parametrize("bad", [[[0, -1, 0]], [[0, 2, 0]]], ids=["negative", "too_large"])
def test_loss_rejects_out_of_vocab_tokens(q, bad):
    with pytest.raises(ModelError, match="out of vocab"):
        weighted_nll_loss_node(q, np.array(bad), np.ones(1))


# ----------------------------------------------------------------- lhts_step

def _full_dataset(model):
    return enumerated_dataset(model)


def test_unit_temperature_step_is_plain_mle_gradient(counterexample_model):
    xs, dw = _full_dataset(counterexample_model)
    settings = TrainSettings(steps=1, learning_rate=0.5, temperatures=(1.0,))
    state = TrainState(counterexample_model, settings)
    q0 = state.q.copy()
    lhts_step(state, xs, 1.0, data_weights=dw)

    loss, grad = weighted_nll_loss_node(q0, xs, np.ones(xs.shape), data_weights=dw)
    expected = grad * (1.0 / (loss / 1))
    assert np.array_equal(state.q.param_array(), q0.param_array() - 0.5 * expected)


def test_baseline_shift_leaves_gradient_direction(counterexample_model):
    xs, dw = _full_dataset(counterexample_model)
    moves = []
    for shift in (0.0, 2.5):
        settings = TrainSettings(steps=1, learning_rate=0.5, temperatures=(0.5,))
        state = TrainState(counterexample_model, settings)
        q0 = state.q.param_array()
        v = suffix_log_liks_matrix(counterexample_model, xs)
        state.baseline.update(v, dw)
        state.baseline.sums = state.baseline.sums + shift * state.baseline.n
        lhts_step(state, xs, 0.5, data_weights=dw)
        moves.append(q0 - state.q.param_array())
    a, b = moves
    cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    assert cos == pytest.approx(1.0, abs=1e-9)


def test_large_kl_beta_anchors_to_base(counterexample_model):
    # stable learning rate for the stiff KL term; anchor should dominate
    xs, dw = _full_dataset(counterexample_model)
    displacement = {}
    last_move = {}
    for beta in (0.0, 1000.0):
        settings = TrainSettings(steps=100, learning_rate=0.001, temperatures=(0.5,),
                                 kl_beta=beta)
        q, records = train(counterexample_model, xs, dw, settings, Rng(0))
        displacement[beta] = np.abs(q.param_array() - counterexample_model.param_array()).max()
        last_move[beta] = settings.learning_rate * records[-1].grad_norm
    assert displacement[1000.0] < 0.5 * displacement[0.0]
    assert last_move[1000.0] < 0.1 * last_move[0.0]


def test_abort_on_nonfinite_loss(counterexample_model):
    xs, dw = _full_dataset(counterexample_model)
    settings = TrainSettings(steps=1, temperatures=(1.0,))
    state = TrainState(counterexample_model, settings)
    broken = state.q.param_array()
    broken[0] = -np.inf
    state.q.set_param_array(broken)
    with pytest.raises(NumericalAbort) as err:
        lhts_step(state, xs, 1.0, data_weights=dw)
    record = err.value.record
    assert record["step"] == 0
    assert set(record) == {"step", "T", "loss", "normalized_loss", "grad_norm",
                           "weight_stats", "clip_rate"}
    # the step stopped before normalizing and clipping: those fields, like
    # the non-finite loss, are null, and the record is valid JSON
    assert record["loss"] is record["normalized_loss"] is record["grad_norm"] is None
    assert json.loads(json.dumps(record, allow_nan=False)) == record


def test_embedding_requires_linear(counterexample_model):
    with pytest.raises(TrainerError, match="linear"):
        TrainState(counterexample_model, TrainSettings(), embedding_width=4)


# ---------------------------------------------------------------------- train

def test_train_rejects_empty_dataset(counterexample_model):
    xs = np.zeros((0, 2), dtype=np.int64)
    with pytest.raises(TrainerError, match="empty dataset"):
        train(counterexample_model, xs, None, TrainSettings(steps=3), Rng(1))


def test_temperature_embedding_trains():
    # from zero embedding fields every embedding gradient would be zero;
    # with_embedding starts emb_scale at 1 so that w_emb moves
    base = LinearAR(3, 4, 2)
    base.set_param_array(np.random.default_rng(0).normal(size=base.n_params))
    xs, dw = enumerated_dataset(base)
    settings = TrainSettings(steps=5, learning_rate=0.5, temperatures=(0.5, 1.0))
    q, records = train(base, xs, dw, settings, Rng(5), embedding_width=2)
    assert {r.temperature for r in records} == {0.5, 1.0}
    assert np.any(q.w_emb != 0)
    assert not np.array_equal(q.row_logits(t_cond=0.5), q.row_logits(t_cond=1.0))


def test_zero_steps_returns_copy_of_base(counterexample_model):
    xs, dw = _full_dataset(counterexample_model)
    q, records = train(counterexample_model, xs, dw, TrainSettings(steps=0), Rng(1))
    assert records == []
    assert q is not counterexample_model
    assert np.array_equal(q.param_array(), counterexample_model.param_array())


def test_train_deterministic_given_seed(counterexample_model):
    xs, dw = _full_dataset(counterexample_model)
    settings = TrainSettings(steps=20, learning_rate=0.5, temperatures=(0.8, 1.25),
                             batch_size=2)
    q1, r1 = train(counterexample_model, xs, dw, settings, Rng(7))
    q2, r2 = train(counterexample_model, xs, dw, settings, Rng(7))
    assert np.array_equal(q1.param_array(), q2.param_array())
    assert [r.loss for r in r1] == [r.loss for r in r2]


def test_tabular_exact_training_converges_to_scaled_joint(counterexample_model):
    xs, dw = _full_dataset(counterexample_model)
    settings = TrainSettings(steps=400, learning_rate=1.0, temperatures=(0.5,))
    q, _ = train(counterexample_model, xs, dw, settings, Rng(2))
    target = temperature_scale_exact(enumerate_joint(counterexample_model), 0.5)
    assert kl_divergence(target, enumerate_joint(q)) < 1e-3


def test_multi_temperature_normalized_losses_balanced():
    rng = Rng(3)
    p = make_skewed_ground_truth(3, 3, rng.stream("gt"))
    xs, dw = enumerated_dataset(p)
    settings = TrainSettings(steps=90, learning_rate=0.5,
                             temperatures=(0.9, 1.0, 1.1))
    _, records = train(p, xs, dw, settings, rng)
    tail = records[30:]
    by_t: dict = {}
    for r in tail:
        by_t.setdefault(r.temperature, []).append(r.normalized_loss)
    means = [np.mean(v) for v in by_t.values()]
    assert len(means) == 3
    assert max(means) <= 2.0 * min(means)


def test_exact_kl_metric_recorded(counterexample_model):
    xs, dw = _full_dataset(counterexample_model)
    target = temperature_scale_exact(enumerate_joint(counterexample_model), 0.5)

    def exact_kl(q, T):
        return kl_divergence(target, enumerate_joint(q))

    settings = TrainSettings(steps=10, learning_rate=1.0, temperatures=(0.5,),
                             eval_every=5)
    _, records = train(counterexample_model, xs, dw, settings, Rng(4), exact_kl_fn=exact_kl)
    assert records[0].kl_to_target is not None
    assert records[-1].kl_to_target is not None
    assert records[1].kl_to_target is None
    d = records[0].metrics_dict()
    assert set(d) == {"step", "T", "loss", "normalized_loss", "grad_norm", "kl_to_target",
                      "weight_stats", "clip_rate"}
    assert d["kl_to_target"] == records[0].kl_to_target


def test_weight_stats_report_ess_and_log_weight_range(counterexample_model):
    xs = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [1, 0]])
    stats = joint_weights(counterexample_model, xs, 1.0, StreamingBaseline()).stats()
    assert stats["ess"] == len(xs) and stats["ess_frac"] == 1.0
    assert stats["log_w_min"] == stats["log_w_max"] == 0.0
    # log p of the five rows lies in [log 0.04, log 0.36]; the clip at -1.05
    # caps only the 0.36 rows, and the range reports the unclipped exponents
    wb = joint_weights(counterexample_model, xs, 0.5, StreamingBaseline(), clip=-1.05)
    stats = wb.stats()
    w = wb.weights
    assert stats["ess"] == pytest.approx(w.sum() ** 2 / (w @ w), rel=1e-15)
    assert 1.0 < stats["ess"] < len(xs)
    assert stats["ess_frac"] == stats["ess"] / len(xs)
    assert stats["log_w_min"] == pytest.approx(math.log(0.04), rel=1e-12)
    assert stats["log_w_max"] == pytest.approx(math.log(0.36), rel=1e-12)

    state = TrainState(counterexample_model, TrainSettings(steps=1))
    record = lhts_step(state, xs, 0.5)
    d = record.metrics_dict()
    assert set(d) == {"step", "T", "loss", "normalized_loss", "grad_norm", "weight_stats",
                      "clip_rate"}
    assert (d["normalized_loss"], d["grad_norm"]) == (record.normalized_loss, record.grad_norm)
    assert math.isfinite(d["grad_norm"]) and d["grad_norm"] > 0
    assert set(d["weight_stats"]) == {"mean", "var", "max", "ess", "ess_frac", "log_w_min",
                                      "log_w_max"}
    # the per-index weights of lhts_step have n L entries
    assert d["weight_stats"]["ess_frac"] == d["weight_stats"]["ess"] / xs.size
    assert json.loads(json.dumps(d, allow_nan=False)) == d


# ------------------------------------------------------ exact loss identities

def test_corollary_identity_joint_loss():
    rng = np.random.default_rng(5)
    p_model = make_skewed_ground_truth(3, 3, rng)
    p_table = enumerate_joint(p_model)
    for T in (0.5, 0.8, 1.25):
        p_t = temperature_scale_exact(p_table, T)
        for seed in range(5):
            q_model = make_skewed_ground_truth(3, 3, np.random.default_rng(100 + seed))
            q_table = enumerate_joint(q_model)
            loss, b = joint_loss_exact(p_table, q_table, T)
            lhs = math.exp(b - p_t.log_z) * loss - entropy(p_t)
            assert abs(lhs - kl_divergence(p_t, q_table)) < 1e-6


def test_strict_properness_mini(counterexample_model):
    T = 0.5
    p_t = temperature_scale_exact(enumerate_joint(counterexample_model), T)
    q_star = tabular_from_table(p_t)
    loss_star = ar_loss_exact(counterexample_model, q_star, T)
    rng = np.random.default_rng(6)
    for _ in range(10):
        perturbed = q_star.copy()
        perturbed.set_param_array(perturbed.param_array() + rng.normal(scale=0.1, size=perturbed.n_params))
        assert ar_loss_exact(counterexample_model, perturbed, T) > loss_star


def test_ar_loss_exact_drops_sequences_without_mass():
    # p never starts with 1; on the two sequences it reaches, every suffix
    # log-likelihood equals its mean, so each weight is 1 and the loss is
    # sum_x p(x) (-log q(x)) = log 2
    p = tabular(2, 2, [[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
    assert ar_loss_exact(p, p.copy(), 0.5) == pytest.approx(math.log(2), rel=1e-15)


def test_variance_reduction_product_model():
    V, L = 4, 16
    model = LinearAR(V, L, window=1)
    model.bias = np.log(np.array([0.5, 0.25, 0.15, 0.1]))
    batch = model.sample(2000, myopic_t=1.0, rng=Rng(8).stream("s"))
    v = suffix_log_liks_matrix(model, batch.sequences)
    full_var = v.var(axis=0)
    # independent positions: suffix variance shrinks as the suffix shortens
    assert np.all(np.diff(full_var) <= 1e-12)
    h_var = apply_horizon(v, 4).var(axis=0)
    assert h_var[0] <= 0.5 * full_var[0]


def test_base_model_never_modified(counterexample_model):
    xs, dw = _full_dataset(counterexample_model)
    before = counterexample_model.param_array()
    train(counterexample_model, xs, dw,
          TrainSettings(steps=25, learning_rate=1.0, temperatures=(0.5,)), Rng(9))
    assert np.array_equal(counterexample_model.param_array(), before)


# ------------------------------------------------------------------ settings

@pytest.mark.parametrize("field, value", [
    ("learning_rate", math.nan), ("learning_rate", math.inf),
    ("clip", math.nan), ("clip", math.inf), ("clip", -1.0),
    ("kl_beta", math.nan), ("kl_beta", math.inf),
    ("batch_size", 0), ("batch_size", -1), ("eval_every", 0), ("eval_every", -1),
    pytest.param("temperatures", (0.5, math.nan), id="temperatures-nan"),
    pytest.param("temperatures", (math.inf,), id="temperatures-inf"),
])
def test_settings_reject_non_finite_or_non_positive_knobs(field, value):
    with pytest.raises(TrainerError, match=field):
        TrainSettings(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("steps", 2.5), ("steps", True), ("steps", None), ("horizon", 1.5), ("horizon", True),
    ("batch_size", 2.5), ("batch_size", True), ("eval_every", 2.0), ("eval_every", "3"),
    ("temperatures", 0.5), ("temperatures", None),
], ids=["steps-float", "steps-bool", "steps-none", "horizon-float", "horizon-bool",
        "batch_size-float", "batch_size-bool", "eval_every-float", "eval_every-str",
        "temperatures-float", "temperatures-none"])
def test_settings_reject_values_of_the_wrong_type(field, value):
    with pytest.raises(TrainerError, match=field):
        TrainSettings(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("learning_rate", "x"), ("learning_rate", None), ("kl_beta", None), ("kl_beta", "0"),
    ("clip", "1"),
], ids=["learning_rate-str", "learning_rate-none", "kl_beta-none", "kl_beta-str", "clip-str"])
def test_settings_reject_knobs_that_are_not_numbers(field, value):
    with pytest.raises(TrainerError, match=field):
        TrainSettings(**{field: value})
