import math

import numpy as np
import pytest

from lhts.diffusion import (
    DenoiserMLP,
    DiffusionError,
    DiffusionModel,
    MixtureGroundTruth,
    elbo_batch,
    elbo_draws,
    finetune_weighted,
    gaussian_kl,
    lhts_diffusion_weights,
    linear_schedule,
    sample_ancestral,
    train_base,
    weighted_noise_loss,
)
from lhts.numerics import Rng, finite_difference_gradient


def _model(steps=6, hidden=16, n_freqs=4, seed=0) -> DiffusionModel:
    """Denoiser with every parameter drawn at unit-ish scale, so the noise
    guess is far from zero and both layers matter."""
    rng = np.random.default_rng(seed)
    net = DenoiserMLP(2, hidden=hidden, n_freqs=n_freqs, rng=rng)
    net.set_param_array(rng.normal(scale=0.5, size=net.param_array().size))
    return DiffusionModel(linear_schedule(steps), dim=2, net=net)


# ------------------------------------------- reference loops: concat inputs,
# one step index per row and per-row gathers of the schedule constants

def _reference_noise(model, x, k):
    net = model.net
    ang = 2 * math.pi * (k[:, None] / model.schedule.steps) * 2.0 ** np.arange(net.n_freqs)
    x_in = np.concatenate([x, np.sin(ang), np.cos(ang)], axis=1)
    return np.tanh(x_in @ net.w1.T + net.b1) @ net.w2.T + net.b2


def _reference_model_mean(sch, x_k, k, eps_hat):
    beta = sch.betas[k - 1][:, None]
    alpha = sch.alphas[k - 1][:, None]
    ab_k = sch.alphas_bar[k][:, None]
    return (x_k - beta / np.sqrt(1.0 - ab_k) * eps_hat) / np.sqrt(alpha)


def _reference_elbo(model, x0, rng, n_mc):
    sch = model.schedule
    K = sch.steps
    n, d = x0.shape
    out = np.zeros((n_mc, n))
    ab_K = sch.alphas_bar[K]
    out -= gaussian_kl(math.sqrt(ab_K) * x0, 1.0 - ab_K, 0.0, 1.0).sum(axis=1)
    flat = np.repeat(x0[None], n_mc, axis=0).reshape(n_mc * n, d)
    for k in range(1, K + 1):
        ab = sch.alphas_bar[k]
        x_k = math.sqrt(ab) * flat + math.sqrt(1.0 - ab) * rng.standard_normal(flat.shape)
        karr = np.full(n_mc * n, k)
        mu = _reference_model_mean(sch, x_k, karr, _reference_noise(model, x_k, karr))
        if k == 1:
            var = sch.posterior_var[0]
            sq = ((flat - mu) ** 2).sum(axis=1)
            out += (-0.5 * d * math.log(2 * math.pi * var) - sq / (2 * var)).reshape(n_mc, n)
        else:
            ab_k = sch.alphas_bar[karr][:, None]
            ab_prev = sch.alphas_bar[karr - 1][:, None]
            beta = sch.betas[karr - 1][:, None]
            alpha = sch.alphas[karr - 1][:, None]
            mu_post = (np.sqrt(ab_prev) * beta / (1.0 - ab_k) * flat
                       + np.sqrt(alpha) * (1.0 - ab_prev) / (1.0 - ab_k) * x_k)
            kl = ((mu_post - mu) ** 2).sum(axis=1) / (2 * sch.posterior_var[k - 1])
            out -= kl.reshape(n_mc, n)
    return out


def _reference_samples(model, n, pseudo_temperature, rng):
    sch = model.schedule
    x = rng.standard_normal((n, model.dim))
    for k in range(sch.steps, 0, -1):
        karr = np.full(n, k)
        mu = _reference_model_mean(sch, x, karr, _reference_noise(model, x, karr))
        if k > 1:
            sigma = math.sqrt(sch.posterior_var[k - 1])
            x = mu + pseudo_temperature * sigma * rng.standard_normal((n, model.dim))
        else:
            x = mu
    return x


def test_elbo_matches_reference_loop():
    model = _model()
    x0 = np.random.default_rng(1).normal(size=(40, 2))
    # 40 points x 8 draws = 320 rows share one buffer over 6 steps
    got = elbo_batch(model, x0, np.random.default_rng(2), n_mc=8)
    want = _reference_elbo(model, x0, np.random.default_rng(2), 8).mean(axis=0)
    assert np.max(np.abs(got - want)) <= 1e-12
    draws = elbo_draws(model, x0[3], np.random.default_rng(3), n_mc=300)[:, 0]
    assert np.max(np.abs(draws - _reference_elbo(model, x0[3:4], np.random.default_rng(3),
                                                 300)[:, 0])) <= 1e-12


@pytest.mark.parametrize("pseudo_temperature", [1.0, 0.6])
def test_sampler_matches_reference_loop(pseudo_temperature):
    model = _model(steps=5)
    got = sample_ancestral(model, 300, pseudo_temperature, np.random.default_rng(4))
    want = _reference_samples(model, 300, pseudo_temperature, np.random.default_rng(4))
    assert np.max(np.abs(got - want)) <= 1e-10


def test_predict_noise_matches_concat_formula():
    # every row at one step; rows at their own steps are checked against
    # the concatenated input by the weighted noise loss's reference
    model = _model(steps=7)
    x = np.random.default_rng(5).normal(size=(50, 2))
    one_step = model.net.forward(x, model._step_bias(3))
    assert np.max(np.abs(one_step - _reference_noise(model, x, np.full(50, 3)))) <= 1e-12


def test_forward_output_does_not_alias_work_buffer():
    model = _model()
    x = np.random.default_rng(6).normal(size=(10, 2))
    work = np.empty((10, model.net.hidden))
    first = model.net.forward(x, model._step_bias(2), work)
    kept = first.copy()
    second = model.net.forward(x, model._step_bias(5), work)
    assert not np.shares_memory(first, work) and not np.shares_memory(second, work)
    assert np.array_equal(first, kept)
    assert np.array_equal(first, model.net.forward(x, model._step_bias(2)))


def test_single_step_elbo_closed_form():
    # K = 1: no KL terms; the bound is the Gaussian reconstruction term at
    # the model mean minus the prior KL
    model = _model(steps=1)
    sch = model.schedule
    x0 = np.random.default_rng(7).normal(size=(5, 2))
    got = elbo_draws(model, x0[0], np.random.default_rng(8), n_mc=4)[:, 0]
    eps = np.random.default_rng(8).standard_normal((4, 2))
    ab, var = sch.alphas_bar[1], sch.posterior_var[0]
    x1 = math.sqrt(ab) * x0[0] + math.sqrt(1.0 - ab) * eps
    eps_hat = model.net.forward(x1, model._step_bias(1))
    mu = (x1 - sch.betas[0] / math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(sch.alphas[0])
    recon = -math.log(2 * math.pi * var) - ((x0[0] - mu) ** 2).sum(axis=1) / (2 * var)
    prior = 0.5 * np.sum(ab * x0[0] ** 2 - ab - math.log(1.0 - ab))
    assert np.max(np.abs(got - (recon - prior))) <= 1e-12


# --------------------------------------------------------------- training

def test_weighted_noise_loss_gradient_matches_finite_differences():
    model = _model(steps=5, hidden=5, n_freqs=2, seed=9)
    rng = np.random.default_rng(10)
    x0 = rng.normal(size=(7, 2))
    k = rng.integers(1, 6, size=7)
    eps = rng.normal(size=(7, 2))
    weights = rng.uniform(0.2, 3.0, size=7)

    def loss_at(theta):
        probe = model.copy()
        probe.set_param_array(theta)
        return weighted_noise_loss(probe, x0, k, eps, weights, 1.3)[0]

    theta = model.param_array()
    loss, grad = weighted_noise_loss(model, x0, k, eps, weights, 1.3)
    assert loss == loss_at(theta)
    fd = finite_difference_gradient(loss_at, theta.copy())
    assert np.linalg.norm(grad - fd) < 1e-6 * np.linalg.norm(fd)


def _reference_noise_loss(model, x0, k, eps, weights, weight_norm):
    """The loss and gradient over the concatenated (point, step features) input."""
    net, sch = model.net, model.schedule
    ab = sch.alphas_bar[k][:, None]
    x_k = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
    ang = 2 * math.pi * (k[:, None] / sch.steps) * 2.0 ** np.arange(net.n_freqs)
    x_in = np.concatenate([x_k, np.sin(ang), np.cos(ang)], axis=1)
    h = np.tanh(x_in @ net.w1.T + net.b1)
    resid = h @ net.w2.T + net.b2 - eps
    w = (weights / weight_norm)[:, None] / len(k)
    g_out = 2.0 * w * resid
    g_z = (g_out @ net.w2) * (1.0 - h * h)
    grad = np.concatenate([(g_z.T @ x_in).ravel(), g_z.sum(axis=0),
                           (g_out.T @ h).ravel(), g_out.sum(axis=0)])
    return float(np.sum(w * resid * resid)), grad


def test_weighted_noise_loss_matches_concat_reference():
    model = _model(steps=50, hidden=64, seed=18)
    rng = np.random.default_rng(19)
    x0 = rng.normal(size=(256, 2))
    k = rng.integers(1, 51, size=256)
    eps = rng.normal(size=(256, 2))
    weights = rng.uniform(0.2, 3.0, size=256)
    loss, grad = weighted_noise_loss(model, x0, k, eps, weights, 1.3)
    want_loss, want_grad = _reference_noise_loss(model, x0, k, eps, weights, 1.3)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))


def _reference_finetune(model, data, weights, steps, rng, batch_size, lr=2e-3):
    """Adam (0.9, 0.999, 1e-8) and a 0.999 EMA over concatenated parameter
    vectors, written out with fresh arrays at every step."""
    out = model.copy()
    m = np.zeros(out.param_array().size)
    v = np.zeros_like(m)
    ema = out.param_array()
    norm = float(weights.mean())
    records = []
    for step in range(steps):
        idx = rng.integers(0, len(data), size=batch_size)
        k = rng.integers(1, out.schedule.steps + 1, size=batch_size)
        eps = rng.standard_normal((batch_size, data.shape[1]))
        loss, grad = weighted_noise_loss(out, data[idx], k, eps, weights[idx], norm)
        t = step + 1
        m = 0.9 * m + (1 - 0.9) * grad
        v = 0.999 * v + (1 - 0.999) * grad * grad
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        params = out.param_array() - lr * mhat / (np.sqrt(vhat) + 1e-8)
        out.set_param_array(params)
        ema = 0.999 * ema + (1.0 - 0.999) * params
        if step % 200 == 0 or step == steps - 1:
            records.append({"step": step, "loss": loss})
    if steps > 0:
        out.set_param_array(ema)
    return out, records


@pytest.mark.parametrize("steps", [0, 1, 230])
def test_finetune_matches_reference_adam_and_ema(steps):
    model, data = _model(), _data()
    w = np.random.default_rng(20).uniform(0.1, 2.0, size=len(data))
    before = model.param_array()
    got, records = finetune_weighted(model, data, w, steps, np.random.default_rng(21),
                                     batch_size=16, learning_rate=5e-3)
    want, want_records = _reference_finetune(model, data, w, steps,
                                             np.random.default_rng(21), 16, lr=5e-3)
    assert np.array_equal(got.param_array(), want.param_array())
    assert records == want_records
    assert np.array_equal(model.param_array(), before)


def test_set_param_array_reaches_forward_and_param_array_is_a_copy():
    model = _model()
    net = model.net
    x = np.random.default_rng(22).normal(size=(5, 2))
    k = np.full(5, 4)
    before = net.forward(x, model._step_bias(4))
    theta = np.random.default_rng(23).normal(size=net.param_array().size)
    net.set_param_array(theta)
    # w1 (16, 10), b1, w2 (2, 16), b2 in that order
    w1, b1 = theta[:160].reshape(16, 10), theta[160:176]
    w2, b2 = theta[176:208].reshape(2, 16), theta[208:]
    ang = 2 * math.pi * (k[:, None] / 6) * 2.0 ** np.arange(4)
    x_in = np.concatenate([x, np.sin(ang), np.cos(ang)], axis=1)
    want = np.tanh(x_in @ w1.T + b1) @ w2.T + b2
    assert np.max(np.abs(net.forward(x, model._step_bias(4)) - want)) <= 1e-12

    out = net.param_array()
    out += 1.0
    assert np.array_equal(net.param_array(), theta)
    clone = model.copy()
    clone.set_param_array(out)
    assert np.array_equal(net.param_array(), theta)
    assert np.array_equal(clone.param_array(), out)
    clone.set_param_array(_model().param_array())
    assert np.array_equal(clone.net.forward(x, clone._step_bias(4)), before)
    assert np.max(np.abs(net.forward(x, model._step_bias(4)) - want)) <= 1e-12


def _data(n=48):
    rng = np.random.default_rng(11)
    return rng.normal(size=(n, 2)) + np.where(rng.random(n) < 0.7, -2.0, 2.0)[:, None]


def test_unit_weights_reproduce_train_base():
    model, data = _model(), _data()
    base, base_records = train_base(model, data, 40, np.random.default_rng(12), batch_size=16)
    tuned, records = finetune_weighted(model, data, np.ones(len(data)), 40,
                                       np.random.default_rng(12), batch_size=16)
    assert np.array_equal(base.param_array(), tuned.param_array())
    assert base_records == records


def test_common_weight_scale_is_a_no_op():
    model, data = _model(), _data()
    w = np.random.default_rng(13).uniform(0.1, 2.0, size=len(data))
    # a power of two scales every weight and their mean exactly
    a, _ = finetune_weighted(model, data, w, 30, np.random.default_rng(14), batch_size=16)
    b, _ = finetune_weighted(model, data, 4.0 * w, 30, np.random.default_rng(14), batch_size=16)
    assert np.array_equal(a.param_array(), b.param_array())


# ---------------------------------------------------------------- weights

@pytest.mark.parametrize("temperature, clip", [(0.5, None), (0.5, 1.0), (0.8, 0.3), (2.0, None)])
def test_lhts_weights_formula_and_clip_rate(temperature, clip):
    model, data = _model(), _data(40)
    elbos = np.random.default_rng(24).normal(-3.0, 2.0, size=40)
    wb = lhts_diffusion_weights(model, data, temperature, clip=clip, elbos=elbos)
    c = math.inf if clip is None else clip
    expo = (1 - temperature) / temperature * (elbos - elbos.mean())
    want = np.exp(np.minimum(expo, c))
    assert np.max(np.abs(wb.weights - want)) <= 1e-12 * np.max(want)
    assert wb.clip_rate == (0.0 if clip is None else np.mean(expo > c))
    if clip is not None:
        assert 0.0 < wb.clip_rate < 1.0


def test_lhts_weights_are_ones_at_unit_temperature():
    model, data = _model(), _data(40)
    elbos = elbo_batch(model, data, np.random.default_rng(25), n_mc=2)
    wb = lhts_diffusion_weights(model, data, 1.0, clip=0.0, elbos=elbos)
    assert np.array_equal(wb.weights, np.ones(40))
    assert wb.clip_rate == 0.0


@pytest.mark.parametrize("temperature, elbos, message", [
    (0.0, "ok", "temperature"),
    (-0.5, "ok", "temperature"),
    (math.nan, "ok", "temperature"),
    (0.5, "nan", "finite elbo"),
    (0.5, "short", "one finite elbo per point"),
    (0.5, "long", "one finite elbo per point"),
    (0.5, "column", "one finite elbo per point"),
])
def test_lhts_weights_reject_bad_arguments(temperature, elbos, message):
    model, data = _model(), _data(8)
    e = {"ok": np.zeros(8), "nan": np.array([0.0] * 7 + [np.nan]), "short": np.zeros(7),
         "long": np.zeros(9), "column": np.zeros((8, 1))}[elbos]
    with pytest.raises(DiffusionError, match=message):
        lhts_diffusion_weights(model, data, temperature, elbos=e)


@pytest.mark.parametrize("clip", [math.nan, math.inf, -math.inf])
def test_lhts_weights_reject_non_finite_clip(clip):
    model, data = _model(), _data(8)
    with pytest.raises(DiffusionError, match="clip"):
        lhts_diffusion_weights(model, data, 0.5, clip=clip, elbos=np.zeros(8))


# ------------------------------------------------------------- validation

def test_finetune_raises_on_non_finite_loss():
    model, data = _model(), _data(8)
    # set_param_array refuses a NaN, so plant it in the vector in place
    model.net.params[-1] = np.nan
    with pytest.raises(DiffusionError, match="non-finite diffusion loss at step 0"):
        finetune_weighted(model, data, np.ones(8), 3, np.random.default_rng(26))


def test_model_rejects_denoiser_of_other_dim():
    with pytest.raises(DiffusionError, match="dim 3"):
        DiffusionModel(linear_schedule(4), net=DenoiserMLP(3))
    model = DiffusionModel(linear_schedule(4), dim=3, net=DenoiserMLP(3, hidden=8))
    assert elbo_batch(model, np.zeros((2, 3)), np.random.default_rng(27), 2).shape == (2,)


@pytest.mark.parametrize("x0", [np.zeros((4, 3)), np.zeros(3), np.zeros((2, 4, 2))],
                         ids=["three-columns", "vector-of-three", "3d"])
def test_elbo_rejects_points_of_wrong_shape(x0):
    model = _model()
    rng = np.random.default_rng(15)
    state = rng.bit_generator.state
    for fn in (elbo_draws, elbo_batch):
        with pytest.raises(DiffusionError, match=r"shape \(n, 2\)"):
            fn(model, x0, rng, 2)
    assert rng.bit_generator.state == state


def test_elbo_rejects_non_positive_draw_count():
    rng = np.random.default_rng(15)
    state = rng.bit_generator.state
    for fn in (elbo_draws, elbo_batch):
        with pytest.raises(DiffusionError, match="n_mc"):
            fn(_model(), np.zeros((1, 2)), rng, 0)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("count", [2.5, True, "2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("name, call", [
    ("n_mc", lambda model, rng, n: elbo_draws(model, np.zeros(2), rng, n)),
    ("n_mc", lambda model, rng, n: elbo_batch(model, np.zeros((3, 2)), rng, n)),
    ("n", lambda model, rng, n: sample_ancestral(model, n, rng=rng)),
    ("n", lambda model, rng, n: MixtureGroundTruth([[0.0, 0.0]], [1.0], [1.0]).sample(n, rng)),
    ("steps", lambda model, rng, n: linear_schedule(n)),
    ("dim", lambda model, rng, n: DenoiserMLP(n, rng=rng)),
    ("hidden", lambda model, rng, n: DenoiserMLP(2, hidden=n, rng=rng)),
    ("n_freqs", lambda model, rng, n: DenoiserMLP(2, n_freqs=n, rng=rng)),
], ids=["elbo_draws", "elbo_batch", "sample_ancestral", "mixture_sample", "linear_schedule",
        "denoiser_dim", "denoiser_hidden", "denoiser_n_freqs"])
def test_draw_and_sample_counts_must_be_ints(name, call, count):
    # the sizes of a schedule and a denoiser too, before the rng is read
    rng = np.random.default_rng(15)
    state = rng.bit_generator.state
    with pytest.raises(DiffusionError, match=f"{name} must be an int"):
        call(_model(), rng, count)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("weights, kwargs, message", [
    ("ones", {"batch_size": 0}, "batch_size"),
    ("ones", {"steps": -1}, "steps"),
    ("negative", {}, "weights"),
    ("nan", {}, "weights"),
    ("inf", {}, "weights"),
    ("zeros", {}, "weights"),
    ("ones", {"steps": 2.5}, "steps must be an int"),
    ("ones", {"steps": True}, "steps must be an int"),
    ("ones", {"batch_size": 2.5}, "batch_size must be an int"),
    ("ones", {"batch_size": np.True_}, "batch_size must be an int"),
], ids=["batch_size-zero", "steps-negative", "weights-negative", "weights-nan", "weights-inf",
        "weights-zeros", "steps-float", "steps-bool", "batch_size-float",
        "batch_size-numpy-bool"])
def test_finetune_rejects_bad_arguments(weights, kwargs, message):
    model, data = _model(), _data(8)
    w = {"ones": np.ones(8), "zeros": np.zeros(8),
         "negative": np.array([1.0] * 7 + [-0.5]),
         "nan": np.array([1.0] * 7 + [np.nan]),
         "inf": np.array([1.0] * 7 + [np.inf])}[weights]
    args = {"steps": 3, **kwargs}
    rng = np.random.default_rng(16)
    state = rng.bit_generator.state
    with pytest.raises(DiffusionError, match=message):
        finetune_weighted(model, data, w, args.pop("steps"), rng, **args)
    assert rng.bit_generator.state == state


def test_set_param_array_rejects_wrong_size():
    net = DenoiserMLP(2, hidden=8, n_freqs=2, rng=np.random.default_rng(17))
    before = net.param_array()
    for bad in (before[:-1], np.append(before, 0.0), before[None]):
        with pytest.raises(DiffusionError, match=rf"expected \({before.size},\)"):
            net.set_param_array(bad)
    assert np.array_equal(net.param_array(), before)


MEANS = [[-2.0, 0.0], [2.0, 0.0]]


@pytest.mark.parametrize("means, stds, weights, message", [
    ([[[0.0, 0.0]], [[1.0, 1.0]]], [0.25, 0.25], [0.5, 0.5], "means must be"),
    ([], [], [], "means must be"),
    (MEANS, [0.25], [0.5, 0.5], "stds must be 2"),
    (MEANS, [0.25, 0.0], [0.5, 0.5], "stds must be 2"),
    (MEANS, [0.25, math.nan], [0.5, 0.5], "stds must be 2"),
    (MEANS, [0.25, 0.25], [0.5, 0.25, 0.25], "weights must be 2"),
    (MEANS, [0.25, 0.25], [1.0], "weights must be 2"),
], ids=["means-3d", "means-empty", "stds-short", "stds-zero", "stds-nan", "weights-long",
        "weights-short"])
def test_mixture_checks_its_shapes(means, stds, weights, message):
    with pytest.raises(DiffusionError, match=message):
        MixtureGroundTruth(means=means, stds=stds, weights=weights)


@pytest.mark.parametrize("temperature", [0.0, -1.0, math.inf, math.nan])
def test_scaled_weights_reject_bad_temperature(temperature):
    truth = MixtureGroundTruth(means=MEANS, stds=[0.25, 0.25], weights=[0.7, 0.3])
    with pytest.raises(DiffusionError, match="temperature must be positive and finite"):
        truth.scaled_weights(temperature)


# ------------------------------------------------------------ paper claim

def _share_gaps(seed: int, temperature: float = 0.5) -> tuple[float, float]:
    """Distances of the major component's sample share from its share under
    the temperature-scaled mixture, after LHTS finetuning and after
    pseudo-temperature sampling of the base; the sizes of the benchmark's
    diffusion-mixture workload, with 4 ELBO draws per point."""
    rng = Rng(seed)
    truth = MixtureGroundTruth(means=[[-2.0, 0.0], [2.0, 0.0]], stds=[0.25, 0.25],
                               weights=[0.7, 0.3])
    points = truth.sample(2048, rng.stream("data"))
    model = DiffusionModel(linear_schedule(50), dim=2, hidden=64, rng=rng.stream("init"))
    base, _ = train_base(model, points, 2000, rng.stream("base"))
    target = truth.scaled_weights(temperature)[0]
    pseudo = sample_ancestral(base, 10_000, temperature, rng.stream("pseudo"))
    elbos = elbo_batch(base, points, rng.stream("price"), n_mc=4)
    wb = lhts_diffusion_weights(base, points, temperature, elbos=elbos)
    tuned, _ = finetune_weighted(base, points, wb.weights, 1000, rng.stream("finetune"))
    lhts = sample_ancestral(tuned, 10_000, rng=rng.stream("sample"))
    return (abs(np.mean(truth.assign(lhts) == 0) - target),
            abs(np.mean(truth.assign(pseudo) == 0) - target))


def test_lhts_beats_pseudo_temperature_on_mixture():
    # the paper's diffusion claim: at T = 0.5 the 0.7/0.3 mixture should
    # sample its major component at 0.845; LHTS gets closer than shrinking
    # the reverse noise
    lhts_gap, pseudo_gap = _share_gaps(seed=1)
    assert lhts_gap < pseudo_gap
