import math

import numpy as np
import pytest

from lhts.diffusion import (
    DenoiserMLP,
    DiffusionError,
    DiffusionModel,
    elbo,
    elbo_batch,
    elbo_draws,
    finetune_weighted,
    gaussian_kl,
    linear_schedule,
    load_diffusion_checkpoint,
    sample_ancestral,
    save_diffusion_checkpoint,
    train_base,
    weighted_noise_loss,
)
from lhts.numerics import finite_difference_gradient


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
    draws = elbo_draws(model, x0[3], np.random.default_rng(3), n_mc=300)
    assert np.max(np.abs(draws - _reference_elbo(model, x0[3:4], np.random.default_rng(3),
                                                 300)[:, 0])) <= 1e-12
    assert elbo(model, x0[3], np.random.default_rng(3), n_mc=300) == pytest.approx(
        draws.mean(), abs=1e-12)


@pytest.mark.parametrize("pseudo_temperature", [1.0, 0.6])
def test_sampler_matches_reference_loop(pseudo_temperature):
    model = _model(steps=5)
    got = sample_ancestral(model, 300, pseudo_temperature, np.random.default_rng(4))
    want = _reference_samples(model, 300, pseudo_temperature, np.random.default_rng(4))
    assert np.max(np.abs(got - want)) <= 1e-10


def test_predict_noise_matches_concat_formula():
    model = _model(steps=7)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(50, 2))
    k = rng.integers(1, 8, size=50)
    assert np.max(np.abs(model.predict_noise(x, k) - _reference_noise(model, x, k))) <= 1e-12
    one_step = model.predict_noise(x, 3)
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
    got = elbo_draws(model, x0[0], np.random.default_rng(8), n_mc=4)
    eps = np.random.default_rng(8).standard_normal((4, 2))
    ab, var = sch.alphas_bar[1], sch.posterior_var[0]
    x1 = math.sqrt(ab) * x0[0] + math.sqrt(1.0 - ab) * eps
    mu = (x1 - sch.betas[0] / math.sqrt(1.0 - ab) * model.predict_noise(x1, 1)) / math.sqrt(
        sch.alphas[0])
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


# ------------------------------------------------------------- validation

@pytest.mark.parametrize("x0", [np.zeros((4, 3)), np.zeros(3), np.zeros((2, 4, 2))])
def test_elbo_rejects_points_of_wrong_shape(x0):
    model = _model()
    rng = np.random.default_rng(15)
    state = rng.bit_generator.state
    for fn in (elbo, elbo_draws, elbo_batch):
        with pytest.raises(DiffusionError, match=r"shape \(n, 2\)"):
            fn(model, x0, rng, 2)
    assert rng.bit_generator.state == state


def test_single_point_elbo_rejects_several_points():
    rng = np.random.default_rng(15)
    state = rng.bit_generator.state
    for fn in (elbo, elbo_draws):
        with pytest.raises(DiffusionError, match="one point"):
            fn(_model(), np.zeros((3, 2)), rng, 2)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("weights, kwargs, message", [
    ("ones", {"batch_size": 0}, "batch_size"),
    ("ones", {"steps": -1}, "steps"),
    ("negative", {}, "weights"),
    ("nan", {}, "weights"),
    ("inf", {}, "weights"),
    ("zeros", {}, "weights"),
])
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


def test_checkpoint_roundtrip_non_default_n_freqs(tmp_path):
    rng = np.random.default_rng(0)
    net = DenoiserMLP(2, hidden=8, n_freqs=2, rng=rng)
    model = DiffusionModel(linear_schedule(5), dim=2, net=net)
    path = tmp_path / "diffusion.json"
    save_diffusion_checkpoint(model, path)
    back = load_diffusion_checkpoint(path)
    x = rng.normal(size=(6, 2))
    k = np.arange(1, 7) % 5 + 1
    assert back.net.n_freqs == 2
    assert np.array_equal(back.predict_noise(x, k), model.predict_noise(x, k))
