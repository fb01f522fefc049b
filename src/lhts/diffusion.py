"""Toy denoising diffusion on low-dimensional continuous data.

A small tanh MLP predicts the forward-process noise; training minimizes the
(optionally importance-weighted) noise-prediction error. Likelihoods come
from the standard variational bound with fixed posterior variances, which
feeds the temperature-scaling weights; sharpening by shrinking the reverse
noise is included as the pseudo-temperature baseline.

Gradients here are closed-form layer backprop over numpy batches, as in
the autoregressive models.

The ELBO and the ancestral sampler walk the noise schedule one step at a
time, with every row at the same step k. They evaluate the denoiser once
per step: the step features pass through the first layer once, as a
(hidden,) bias shared by all rows, and the hidden activations go into one
(rows, hidden) buffer that the loop allocates once and reuses for all K
steps. Training draws a step per row and keeps the plain batched forward.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .trainer import TrainerError, WeightBatch

__all__ = [
    "DiffusionError",
    "NoiseSchedule",
    "linear_schedule",
    "DenoiserMLP",
    "DiffusionModel",
    "MixtureGroundTruth",
    "gaussian_kl",
    "elbo",
    "elbo_draws",
    "elbo_batch",
    "lhts_diffusion_weights",
    "finetune_weighted",
    "train_base",
    "sample_ancestral",
    "diffusion_checkpoint_dict",
    "diffusion_from_checkpoint",
    "save_diffusion_checkpoint",
    "load_diffusion_checkpoint",
]


class DiffusionError(ValueError):
    pass


class NoiseSchedule:
    """Per-step variances beta_k with cumulative products alpha_bar.

    alphas_bar has K+1 entries: alphas_bar[0] = 1 and alphas_bar[k] for the
    state after k noising steps; it is strictly decreasing.
    """

    def __init__(self, betas: np.ndarray):
        betas = np.asarray(betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise DiffusionError("betas must be a non-empty vector")
        if np.any(betas <= 0) or np.any(betas >= 1):
            raise DiffusionError("every beta must lie in (0, 1)")
        self.betas = betas
        self.steps = betas.size
        self.alphas = 1.0 - betas
        self.alphas_bar = np.concatenate([[1.0], np.cumprod(self.alphas)])
        # posterior variance of x_{k-1} | x_k, x_0; index k-1 for step k.
        # Degenerate at k=1, where beta_1 is the usual stand-in.
        self.posterior_var = np.empty(self.steps)
        self.posterior_var[0] = betas[0]
        if self.steps > 1:
            self.posterior_var[1:] = (
                (1.0 - self.alphas_bar[1:-1]) / (1.0 - self.alphas_bar[2:]) * betas[1:]
            )

    @property
    def K(self) -> int:
        return self.steps


def linear_schedule(steps: int, beta_start: float = 1e-3, beta_end: float = 0.25) -> NoiseSchedule:
    return NoiseSchedule(np.linspace(beta_start, beta_end, steps))


def _step_features(k: np.ndarray, steps: int, n_freqs: int = 4) -> np.ndarray:
    """Sinusoidal embedding of the (normalized) step index; (n, 2*n_freqs)."""
    t = np.asarray(k, dtype=np.float64)[:, None] / steps
    freqs = 2.0 ** np.arange(n_freqs)
    ang = 2.0 * math.pi * t * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


class DenoiserMLP:
    """One tanh hidden layer mapping (point, step features) -> noise guess."""

    def __init__(self, dim: int, hidden: int = 64, n_freqs: int = 4,
                 rng: np.random.Generator | None = None):
        self.dim = dim
        self.hidden = hidden
        self.n_freqs = n_freqs
        n_in = dim + 2 * n_freqs
        if rng is None:
            rng = np.random.default_rng(0)
        self.w1 = rng.standard_normal((hidden, n_in)) / math.sqrt(n_in)
        self.b1 = np.zeros(hidden)
        self.w2 = rng.standard_normal((dim, hidden)) * (0.1 / math.sqrt(hidden))
        self.b2 = np.zeros(dim)

    def forward(self, x: np.ndarray, step_bias: np.ndarray,
                work: np.ndarray | None = None) -> np.ndarray:
        """Noise guess for points x of shape (n, dim); the inference forward.

        ``step_bias`` is the step features' share of the first layer plus its
        bias, ``feats @ w1[:, dim:].T + b1``: (hidden,) when every row is at
        one step, (n, hidden) when rows have their own steps. ``work``, when
        given, is a C-contiguous float64 (n, hidden) buffer that receives the
        hidden activations and is overwritten; the returned (n, dim) array is
        freshly allocated and never aliases it.
        """
        if work is None:
            work = np.empty((x.shape[0], self.hidden))
        np.matmul(x, self.w1[:, :self.dim].T, out=work)
        work += step_bias
        np.tanh(work, out=work)
        out = work @ self.w2.T
        out += self.b2
        return out

    def forward_cached(self, x_in: np.ndarray):
        h = np.tanh(x_in @ self.w1.T + self.b1)
        return h @ self.w2.T + self.b2, h

    def backward(self, x_in: np.ndarray, h: np.ndarray, g_out: np.ndarray) -> dict:
        """Parameter gradients given dL/d(output); closed form."""
        g_w2 = g_out.T @ h
        g_b2 = g_out.sum(axis=0)
        g_h = g_out @ self.w2
        g_z = g_h * (1.0 - h * h)
        g_w1 = g_z.T @ x_in
        g_b1 = g_z.sum(axis=0)
        return {"w1": g_w1, "b1": g_b1, "w2": g_w2, "b2": g_b2}

    def param_array(self) -> np.ndarray:
        return np.concatenate([self.w1.ravel(), self.b1, self.w2.ravel(), self.b2])

    def set_param_array(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        names = ("w1", "b1", "w2", "b2")
        expected = sum(getattr(self, name).size for name in names)
        if flat.ndim != 1 or flat.size != expected:
            raise DiffusionError(
                f"parameter vector has shape {flat.shape}, expected ({expected},)")
        i = 0
        for name in names:
            arr = getattr(self, name)
            setattr(self, name, flat[i:i + arr.size].reshape(arr.shape).copy())
            i += arr.size

    def copy(self) -> "DenoiserMLP":
        out = DenoiserMLP(self.dim, self.hidden, self.n_freqs)
        out.set_param_array(self.param_array())
        return out


class DiffusionModel:
    """Denoiser plus noise schedule over d-dimensional points."""

    def __init__(self, schedule: NoiseSchedule, dim: int = 2, hidden: int = 64,
                 rng: np.random.Generator | None = None, net: DenoiserMLP | None = None):
        self.schedule = schedule
        self.dim = dim
        self.net = net if net is not None else DenoiserMLP(dim, hidden, rng=rng)

    def _inputs(self, x: np.ndarray, k: np.ndarray) -> np.ndarray:
        feats = _step_features(k, self.schedule.steps, self.net.n_freqs)
        return np.concatenate([x, feats], axis=1)

    def _step_bias(self, k) -> np.ndarray:
        """The step features' share of the first layer plus its bias:
        (hidden,) for one int step, (n, hidden) for a vector of n steps."""
        net = self.net
        feats = _step_features(np.atleast_1d(k), self.schedule.steps, net.n_freqs)
        bias = feats @ net.w1[:, net.dim:].T + net.b1
        return bias if np.ndim(k) else bias[0]

    def predict_noise(self, x: np.ndarray, k: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        k = np.broadcast_to(np.asarray(k), (x.shape[0],))
        return self.net.forward(x, self._step_bias(k))

    def posterior_mean(self, x_k: np.ndarray, k: int, x0: np.ndarray) -> np.ndarray:
        """Mean of x_{k-1} | x_k, x0, with every row at step k."""
        sch = self.schedule
        ab_k = sch.alphas_bar[k]
        ab_prev = sch.alphas_bar[k - 1]
        c0 = math.sqrt(ab_prev) * sch.betas[k - 1] / (1.0 - ab_k)
        ck = math.sqrt(sch.alphas[k - 1]) * (1.0 - ab_prev) / (1.0 - ab_k)
        return c0 * x0 + ck * x_k

    def model_mean(self, x_k: np.ndarray, k: int, eps_hat: np.ndarray) -> np.ndarray:
        """Reverse-process mean at step k given the noise guess eps_hat."""
        sch = self.schedule
        coef = sch.betas[k - 1] / math.sqrt(1.0 - sch.alphas_bar[k])
        return (x_k - coef * eps_hat) / math.sqrt(sch.alphas[k - 1])

    def copy(self) -> "DiffusionModel":
        return DiffusionModel(self.schedule, self.dim, net=self.net.copy())

    def param_array(self) -> np.ndarray:
        return self.net.param_array()

    def set_param_array(self, flat: np.ndarray) -> None:
        self.net.set_param_array(flat)


@dataclass
class MixtureGroundTruth:
    """Isotropic Gaussian mixture; evaluation-only analytic ground truth."""

    means: np.ndarray     # (M, d)
    stds: np.ndarray      # (M,)
    weights: np.ndarray   # (M,)

    def __post_init__(self):
        self.means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        self.stds = np.asarray(self.stds, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if abs(self.weights.sum() - 1.0) > 1e-9 or np.any(self.weights < 0):
            raise DiffusionError("mixture weights must form a distribution")

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        d = self.dim
        comp = []
        for m in range(len(self.weights)):
            var = self.stds[m] ** 2
            sq = np.sum((x - self.means[m]) ** 2, axis=1)
            comp.append(math.log(self.weights[m]) - 0.5 * d * math.log(2 * math.pi * var)
                        - sq / (2 * var))
        stack = np.stack(comp, axis=1)
        m = stack.max(axis=1, keepdims=True)
        return (m + np.log(np.exp(stack - m).sum(axis=1, keepdims=True)))[:, 0]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        comp = rng.choice(len(self.weights), size=n, p=self.weights)
        return self.means[comp] + self.stds[comp][:, None] * rng.standard_normal((n, self.dim))

    def assign(self, x: np.ndarray) -> np.ndarray:
        """Nearest-mean component index (components are well separated)."""
        x = np.atleast_2d(x)
        d2 = ((x[:, None, :] - self.means[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d2, axis=1)

    def scaled_weights(self, temperature: float) -> np.ndarray:
        """Component proportions of the temperature-scaled density, exact up
        to overlap corrections for well-separated equal-shape components."""
        w = self.weights ** (1.0 / temperature)
        return w / w.sum()


# ----------------------------------------------------------------------- elbo

def _points(x, dim: int) -> np.ndarray:
    """Points as a float64 (n, dim) array; a single point may be a vector."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.ndim != 2 or x.shape[1] != dim:
        raise DiffusionError(f"expected points of shape (n, {dim}), got {x.shape}")
    return x


def gaussian_kl(mu0, var0, mu1, var1):
    """KL(N(mu0, var0) || N(mu1, var1)), elementwise."""
    return 0.5 * (var0 / var1 + (mu1 - mu0) ** 2 / var1 - 1.0 + np.log(var1 / var0))


def _elbo_draws_matrix(model: DiffusionModel, x0: np.ndarray,
                       rng: np.random.Generator, n_mc: int) -> np.ndarray:
    """(n_mc, N) matrix of single-draw variational lower bounds, in joint
    (summed over dimensions) space."""
    x0 = _points(x0, model.dim)
    n, d = x0.shape
    sch = model.schedule
    K = sch.steps
    out = np.zeros((n_mc, n))

    # prior term: closed form, no sampling
    ab_K = sch.alphas_bar[K]
    prior = gaussian_kl(math.sqrt(ab_K) * x0, 1.0 - ab_K, 0.0, 1.0).sum(axis=1)
    out -= prior[None, :]

    flat_x0 = np.repeat(x0[None], n_mc, axis=0).reshape(n_mc * n, d)
    work = np.empty((n_mc * n, model.net.hidden))
    for k in range(1, K + 1):
        ab = sch.alphas_bar[k]
        eps = rng.standard_normal((n_mc * n, d))
        x_k = math.sqrt(ab) * flat_x0 + math.sqrt(1.0 - ab) * eps
        eps_hat = model.net.forward(x_k, model._step_bias(k), work)
        mu_model = model.model_mean(x_k, k, eps_hat)
        if k == 1:
            var = sch.posterior_var[0]
            sq = ((flat_x0 - mu_model) ** 2).sum(axis=1)
            recon = -0.5 * d * math.log(2 * math.pi * var) - sq / (2 * var)
            out += recon.reshape(n_mc, n)
        else:
            mu_post = model.posterior_mean(x_k, k, flat_x0)
            var = sch.posterior_var[k - 1]
            kl = ((mu_post - mu_model) ** 2).sum(axis=1) / (2 * var)
            out -= kl.reshape(n_mc, n)
    return out


def elbo_draws(model: DiffusionModel, x0, rng: np.random.Generator, n_mc: int) -> np.ndarray:
    """Per-draw bound estimates for one point; their mean is the ELBO."""
    if n_mc < 1:
        raise DiffusionError("n_mc must be >= 1")
    x0 = _points(x0, model.dim)
    if x0.shape[0] != 1:
        raise DiffusionError(f"expected one point, got {x0.shape[0]}; use elbo_batch")
    return _elbo_draws_matrix(model, x0, rng, n_mc)[:, 0]


def elbo(model: DiffusionModel, x0, rng: np.random.Generator, n_mc: int = 16) -> float:
    """Variational lower bound on log p(x0), averaged over n_mc noise draws."""
    return float(elbo_draws(model, x0, rng, n_mc).mean())


def elbo_batch(model: DiffusionModel, x0: np.ndarray, rng: np.random.Generator,
               n_mc: int = 16) -> np.ndarray:
    if n_mc < 1:
        raise DiffusionError("n_mc must be >= 1")
    return _elbo_draws_matrix(model, x0, rng, n_mc).mean(axis=0)


# -------------------------------------------------------------------- weights

def lhts_diffusion_weights(model: DiffusionModel, dataset: np.ndarray, temperature: float,
                           clip: float | None = None, rng: np.random.Generator | None = None,
                           n_mc: int = 16, elbos: np.ndarray | None = None) -> WeightBatch:
    """Per-point weights exp(min((1-T)/T elbo_i - b, c)) with b the mean of
    (1-T)/T elbo over the dataset; the frozen base model prices every point
    once, before finetuning."""
    if temperature <= 0:
        raise TrainerError("temperature must be positive")
    if elbos is None:
        if rng is None:
            raise DiffusionError("pass an rng (or precomputed elbos)")
        elbos = elbo_batch(model, dataset, rng, n_mc)
    factor = (1.0 - temperature) / temperature
    exponents = factor * elbos - np.mean(factor * elbos)
    c = math.inf if clip is None else float(clip)
    weights = np.exp(np.minimum(exponents, c))
    return WeightBatch(weights, exponents, c, temperature)


# ------------------------------------------------------------------- training

class _Adam:
    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray,
             b1: float = 0.9, b2: float = 0.999, eps: float = 1e-8) -> np.ndarray:
        self.t += 1
        self.m = b1 * self.m + (1 - b1) * grad
        self.v = b2 * self.v + (1 - b2) * grad * grad
        mhat = self.m / (1 - b1**self.t)
        vhat = self.v / (1 - b2**self.t)
        return params - self.lr * mhat / (np.sqrt(vhat) + eps)


def weighted_noise_loss(model: DiffusionModel, x0: np.ndarray, k: np.ndarray,
                        eps: np.ndarray, weights: np.ndarray,
                        weight_norm: float = 1.0) -> tuple[float, np.ndarray]:
    """Importance-weighted noise-prediction loss and its parameter gradient:

        mean_i w_i/weight_norm * ||eps_i - eps_hat(sqrt(ab_k) x0 + sqrt(1-ab_k) eps, k)||^2

    Returns (loss, flat gradient). Normalizing by the dataset's mean weight
    makes a common rescaling of all weights an exact no-op.
    """
    sch = model.schedule
    ab = sch.alphas_bar[k][:, None]
    x_k = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
    x_in = model._inputs(x_k, k)
    pred, h = model.net.forward_cached(x_in)
    resid = pred - eps
    w = (weights / weight_norm)[:, None] / len(k)
    loss = float(np.sum(w * resid * resid))
    grads = model.net.backward(x_in, h, 2.0 * w * resid)
    flat = np.concatenate([grads["w1"].ravel(), grads["b1"], grads["w2"].ravel(), grads["b2"]])
    return loss, flat


def finetune_weighted(model: DiffusionModel, dataset: np.ndarray, weights: np.ndarray,
                      steps: int, rng: np.random.Generator, batch_size: int = 128,
                      learning_rate: float = 2e-3,
                      ema_decay: float | None = 0.999) -> tuple[DiffusionModel, list[dict]]:
    """Train a copy of the model on weighted data; unit weights reproduce
    plain noise-prediction training bit for bit under the same rng. The
    returned parameters are the EMA of the trajectory when ema_decay is set."""
    dataset = _points(dataset, model.dim)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (dataset.shape[0],):
        raise DiffusionError("need one weight per dataset point")
    if not (np.all(np.isfinite(weights)) and np.all(weights >= 0) and weights.sum() > 0):
        raise DiffusionError("weights must be finite and nonnegative with a positive mean")
    if steps < 0:
        raise DiffusionError("steps must be >= 0")
    if batch_size < 1:
        raise DiffusionError("batch_size must be >= 1")
    out = model.copy()
    weight_norm = float(weights.mean())
    adam = _Adam(out.param_array().size, learning_rate)
    ema = out.param_array()
    records = []
    K = out.schedule.steps
    for step in range(steps):
        idx = rng.integers(0, dataset.shape[0], size=batch_size)
        k = rng.integers(1, K + 1, size=batch_size)
        eps = rng.standard_normal((batch_size, dataset.shape[1]))
        loss, grad = weighted_noise_loss(out, dataset[idx], k, eps, weights[idx], weight_norm)
        if not math.isfinite(loss):
            raise TrainerError(f"non-finite diffusion loss at step {step}")
        params = adam.step(out.param_array(), grad)
        out.set_param_array(params)
        if ema_decay is not None:
            ema = ema_decay * ema + (1.0 - ema_decay) * params
        if step % 200 == 0 or step == steps - 1:
            records.append({"step": step, "loss": loss})
    if ema_decay is not None and steps > 0:
        out.set_param_array(ema)
    return out, records


def train_base(model: DiffusionModel, dataset: np.ndarray, steps: int,
               rng: np.random.Generator, batch_size: int = 128,
               learning_rate: float = 2e-3,
               ema_decay: float | None = 0.999) -> tuple[DiffusionModel, list[dict]]:
    """Standard noise-prediction training: the weighted path with unit weights."""
    ones = np.ones(np.atleast_2d(dataset).shape[0])
    return finetune_weighted(model, dataset, ones, steps, rng,
                             batch_size=batch_size, learning_rate=learning_rate,
                             ema_decay=ema_decay)


# ------------------------------------------------------------------- sampling

def sample_ancestral(model: DiffusionModel, n: int, pseudo_temperature: float = 1.0,
                     rng: np.random.Generator | None = None) -> np.ndarray:
    """Reverse-process sampling; the per-step noise standard deviation is
    scaled by the pseudo-temperature (1 = standard sampling). No noise is
    added on the final step."""
    if not 0.0 < pseudo_temperature <= 1.0:
        raise DiffusionError("pseudo_temperature must lie in (0, 1]")
    if n < 0:
        raise DiffusionError("n must be >= 0")
    if n == 0:
        return np.zeros((0, model.dim))
    if rng is None:
        raise DiffusionError("pass an explicit numpy Generator for reproducibility")
    sch = model.schedule
    x = rng.standard_normal((n, model.dim))
    work = np.empty((n, model.net.hidden))
    for k in range(sch.steps, 0, -1):
        eps_hat = model.net.forward(x, model._step_bias(k), work)
        mu = model.model_mean(x, k, eps_hat)
        if k > 1:
            sigma = math.sqrt(sch.posterior_var[k - 1])
            x = mu + pseudo_temperature * sigma * rng.standard_normal((n, model.dim))
        else:
            x = mu
    return x


# ---------------------------------------------------------------- checkpoints

def diffusion_checkpoint_dict(model: DiffusionModel) -> dict:
    return {
        "kind": "diffusion",
        "dim": model.dim,
        "hidden": model.net.hidden,
        "n_freqs": model.net.n_freqs,
        "betas": model.schedule.betas.tolist(),
        "parameters": model.param_array().tolist(),
    }


def diffusion_from_checkpoint(doc: dict) -> DiffusionModel:
    sch = NoiseSchedule(np.array(doc["betas"]))
    net = DenoiserMLP(doc["dim"], doc["hidden"], n_freqs=doc["n_freqs"])
    net.set_param_array(np.array(doc["parameters"]))
    return DiffusionModel(sch, dim=doc["dim"], net=net)


def save_diffusion_checkpoint(model: DiffusionModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(diffusion_checkpoint_dict(model), fh)


def load_diffusion_checkpoint(path) -> DiffusionModel:
    with open(path) as fh:
        return diffusion_from_checkpoint(json.load(fh))
