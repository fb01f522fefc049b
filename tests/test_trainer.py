import math

import numpy as np
import pytest

from lhts.ar_model import (
    LinearAR,
    TabularAR,
    TemperatureEmbedding,
    kl_to_base_per_position,
    tabular_from_table,
)
from lhts.data import enumerated_dataset, make_skewed_ground_truth
from lhts.numerics import Rng, finite_difference_gradient
from lhts.oracle import enumerate_joint, entropy, kl_divergence, temperature_scale_exact
from lhts.trainer import (
    NumericalAbort,
    StreamingBaseline,
    TrainSettings,
    TrainerError,
    apply_horizon,
    ar_loss_exact,
    ar_weights,
    joint_loss_exact,
    joint_weights,
    lhts_step,
    make_train_state,
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
    assert v[0] == pytest.approx(counterexample_model.sequence_log_prob([1, 0]), abs=1e-14)


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
    with pytest.raises(TrainerError):
        apply_horizon(np.zeros(3), 0)


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
    baseline.update_joint(np.array([-2.0, -4.0]))
    wb = joint_weights(stub, xs, 0.5, baseline, update_baseline=False)
    assert wb.weights == pytest.approx([math.e, 1 / math.e], rel=1e-12)


def test_joint_weights_prequential_first_batch_uses_zero():
    stub = _StubSequenceModel([[-2.0], [-4.0]])
    xs = np.zeros((2, 1), dtype=np.int64)
    baseline = StreamingBaseline()
    wb = joint_weights(stub, xs, 0.5, baseline)
    assert wb.exponents == pytest.approx([-2.0, -4.0])  # b = 0 on first batch
    assert baseline.joint_mean() == pytest.approx(-3.0)  # updated afterwards


def test_joint_weights_error_names_example():
    bad = TabularAR.from_conditionals(2, 1, {(): [1.0, 0.0]})
    with pytest.raises(TrainerError, match="example 1"):
        joint_weights(bad, np.array([[0], [1]]), 0.5, StreamingBaseline())


def test_clip_semantics():
    wb = ar_weights(np.array([[5.0]]), 0.5, np.zeros(1), clip=3.0)
    assert wb.weights[0, 0] == pytest.approx(math.exp(3.0), rel=1e-15)
    assert wb.exponents[0, 0] == 5.0
    assert wb.clip_rate == 1.0


def test_ar_weights_unit_temperature_exact_ones():
    v = np.random.default_rng(0).normal(size=(4, 3))
    wb = ar_weights(v, 1.0, np.zeros(3))
    assert np.all(wb.weights == 1.0)


def test_ar_weights_single_example_stream_is_unit():
    v = np.array([[-3.0, -1.5, -0.2]])
    baseline = StreamingBaseline(3)
    baseline.update_suffix(v)
    for T in (0.3, 0.5, 2.0):
        wb = ar_weights(v, T, baseline.suffix_means())
        assert np.all(wb.weights == 1.0)


def test_ar_weights_counterexample_two_sequences(counterexample_model):
    xs = np.array([[0, 0], [1, 0]])
    v = suffix_log_liks_matrix(counterexample_model, xs)
    assert v[0, 1] == pytest.approx(math.log(0.55), abs=1e-12)
    assert v[1, 1] == pytest.approx(math.log(0.9), abs=1e-12)
    baseline = StreamingBaseline(2)
    baseline.update_suffix(v)
    wb = ar_weights(v, 0.5, baseline.suffix_means())
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
        q = LinearAR(3, 3, window=2, embedding=TemperatureEmbedding(2))
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
        reached = np.concatenate([q.row_indices(xs[:, :i], i) for i in range(3)])
        unreached = np.setdiff1d(np.arange(q.n_rows), reached)
        assert unreached.size and not np.any(grad.reshape(q.n_rows, 3)[unreached])


def test_loss_validates_inputs(counterexample_model):
    xs = np.array([[0, 1], [1, 0]])
    with pytest.raises(TrainerError, match=r"\(n,\) or \(n, length\)"):
        weighted_nll_loss_node(counterexample_model, xs, np.ones(3))
    with pytest.raises(TrainerError, match="base model"):
        weighted_nll_loss_node(counterexample_model, xs, np.ones(2), kl_beta=0.1)


# ----------------------------------------------------------------- lhts_step

def _full_dataset(model):
    return enumerated_dataset(model)


def test_unit_temperature_step_is_plain_mle_gradient(counterexample_model):
    xs, dw = _full_dataset(counterexample_model)
    settings = TrainSettings(steps=1, learning_rate=0.5, temperatures=(1.0,))
    state = make_train_state(counterexample_model, settings)
    q0 = state.q.copy()
    lhts_step(state, xs, 1.0, data_weights=dw)

    loss, grad = weighted_nll_loss_node(q0, xs, np.ones(xs.shape), data_weights=dw)
    expected = grad * (1.0 / (loss / 1))
    assert np.array_equal(state.last_grad, expected)


def test_baseline_shift_leaves_gradient_direction(counterexample_model):
    xs, dw = _full_dataset(counterexample_model)
    grads = []
    for shift in (0.0, 2.5):
        settings = TrainSettings(steps=1, learning_rate=0.5, temperatures=(0.5,))
        state = make_train_state(counterexample_model, settings)
        v = suffix_log_liks_matrix(counterexample_model, xs)
        state.baseline.update_suffix(v, dw)
        state.baseline.suffix_sums = state.baseline.suffix_sums + shift * state.baseline.n
        lhts_step(state, xs, 0.5, data_weights=dw)
        grads.append(state.last_grad)
    a, b = grads
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
    state = make_train_state(counterexample_model, settings)
    broken = state.q.param_array()
    broken[0] = -np.inf
    state.q.set_param_array(broken)
    with pytest.raises(NumericalAbort) as err:
        lhts_step(state, xs, 1.0, data_weights=dw)
    assert err.value.record["step"] == 0
    assert "weight_stats" in err.value.record


def test_embedding_requires_linear(counterexample_model):
    with pytest.raises(TrainerError, match="linear"):
        make_train_state(counterexample_model, TrainSettings(), embedding_width=4)


# ---------------------------------------------------------------------- train

def test_train_rejects_empty_dataset(counterexample_model):
    xs = np.zeros((0, 2), dtype=np.int64)
    with pytest.raises(TrainerError, match="empty dataset"):
        train(counterexample_model, xs, None, TrainSettings(steps=3), Rng(1))


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
    assert set(d) == {"step", "T", "loss", "kl_to_target", "weight_stats", "clip_rate"}


def test_weight_stats_report_ess_and_log_weight_range(counterexample_model):
    xs = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [1, 0]])
    stats = joint_weights(counterexample_model, xs, 1.0, StreamingBaseline()).stats()
    assert stats["ess"] == len(xs)
    assert stats["log_w_min"] == stats["log_w_max"] == 0.0
    # log p of the five rows lies in [log 0.04, log 0.36]; the clip at -1.05
    # caps only the 0.36 rows, and the range reports the unclipped exponents
    wb = joint_weights(counterexample_model, xs, 0.5, StreamingBaseline(), clip=-1.05)
    stats = wb.stats()
    w = wb.weights
    assert stats["ess"] == pytest.approx(w.sum() ** 2 / (w @ w), rel=1e-15)
    assert 1.0 < stats["ess"] < len(xs)
    assert stats["log_w_min"] == pytest.approx(math.log(0.04), rel=1e-12)
    assert stats["log_w_max"] == pytest.approx(math.log(0.36), rel=1e-12)

    state = make_train_state(counterexample_model, TrainSettings(steps=1))
    d = lhts_step(state, xs, 0.5).metrics_dict()
    assert set(d) == {"step", "T", "loss", "weight_stats", "clip_rate"}
    assert set(d["weight_stats"]) == {"mean", "var", "max", "ess", "log_w_min", "log_w_max"}


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
