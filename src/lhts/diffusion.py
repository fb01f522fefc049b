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
(1, hidden) bias shared by all rows, and the hidden activations go into one
(rows, hidden) buffer that the loop allocates once and reuses for all K
steps. Training draws a step per row and goes through the same forward with
a (rows, hidden) step bias; Adam and the EMA update the denoiser's one flat
parameter vector in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import FlatParams, check_count
from .trainer import WeightBatch, _importance_weights

__all__ = [
    "DiffusionError",
    "NoiseSchedule",
    "linear_schedule",
    "DenoiserMLP",
    "DiffusionModel",
    "MixtureGroundTruth",
    "gaussian_kl",
    "elbo_draws",
    "elbo_batch",
    "lhts_diffusion_weights",
    "weighted_noise_loss",
    "finetune_weighted",
    "train_base",
    "sample_ancestral",
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
        if not np.all((betas > 0) & (betas < 1)):  # NaN lies nowhere
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


def linear_schedule(steps: int) -> NoiseSchedule:
    """``steps`` betas evenly spaced from 1e-3 to 0.25."""
    steps = check_count("steps", steps, 1, DiffusionError)
    return NoiseSchedule(np.linspace(1e-3, 0.25, steps))


def _step_features(k: np.ndarray, steps: int, n_freqs: int = 4) -> np.ndarray:
    """Sinusoidal embedding of the (normalized) step index; (n, 2*n_freqs)."""
    t = np.asarray(k, dtype=np.float64)[:, None] / steps
    freqs = 2.0 ** np.arange(n_freqs)
    ang = 2.0 * math.pi * t * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


class DenoiserMLP(FlatParams):
    """One tanh hidden layer mapping (point, step features) -> noise guess.

    A ``numerics.FlatParams``: w1 (hidden, dim + 2 n_freqs), b1 (hidden,),
    w2 (dim, hidden) and b2 (dim,) are views of the flat vector ``params``,
    back to back in this order, so every write into the vector
    (``set_param_array``, training's in-place updates) reaches the forward.
    """

    _error = DiffusionError

    def __init__(self, dim: int, hidden: int = 64, n_freqs: int = 4,
                 rng: np.random.Generator | None = None):
        self.dim = check_count("dim", dim, 1, DiffusionError)
        self.hidden = check_count("hidden", hidden, 1, DiffusionError)
        self.n_freqs = check_count("n_freqs", n_freqs, 1, DiffusionError)
        super().__init__()
        n_in = self.dim + 2 * self.n_freqs
        if rng is None:
            rng = np.random.default_rng(0)
        self.w1 = rng.standard_normal((self.hidden, n_in)) / math.sqrt(n_in)
        self.w2 = rng.standard_normal((self.dim, self.hidden)) * (0.1 / math.sqrt(self.hidden))

    def _layout(self):
        h, d = self.hidden, self.dim
        return [("w1", (h, d + 2 * self.n_freqs)), ("b1", (h,)), ("w2", (d, h)), ("b2", (d,))]

    def step_bias(self, feats: np.ndarray) -> np.ndarray:
        """The step features' share of the first layer plus its bias."""
        return feats @ self.w1[:, self.dim:].T + self.b1

    def forward(self, x: np.ndarray, step_bias: np.ndarray,
                work: np.ndarray | None = None) -> np.ndarray:
        """Noise guess for points x of shape (n, dim); the one forward of
        the ELBO, the sampler and training.

        ``step_bias`` is ``step_bias(feats)``: (1, hidden) when every row is
        at one step, (n, hidden) when rows have their own steps. ``work``, when
        given, is a C-contiguous float64 (n, hidden) buffer that receives the
        hidden activations (which ``backward`` takes) and is overwritten; the
        returned (n, dim) array is freshly allocated and never aliases it.
        """
        if work is None:
            work = np.empty((x.shape[0], self.hidden))
        np.matmul(x, self.w1[:, :self.dim].T, out=work)
        work += step_bias
        np.tanh(work, out=work)
        out = work @ self.w2.T
        out += self.b2
        return out

    def backward(self, x: np.ndarray, feats: np.ndarray, h: np.ndarray,
                 g_out: np.ndarray) -> np.ndarray:
        """Flat parameter gradient, in the layout of ``params``, given
        dL/d(output) of the forward of points x at step features feats that
        left the hidden activations h; closed form."""
        grad = np.empty_like(self.params)
        g_w1, g_b1, g_w2, g_b2 = self.split(grad)
        np.matmul(g_out.T, h, out=g_w2)
        g_out.sum(axis=0, out=g_b2)
        g_z = g_out @ self.w2
        g_z *= 1.0 - h * h
        np.matmul(g_z.T, x, out=g_w1[:, :self.dim])
        np.matmul(g_z.T, feats, out=g_w1[:, self.dim:])
        g_z.sum(axis=0, out=g_b1)
        return grad


class DiffusionModel:
    """Denoiser plus noise schedule over d-dimensional points."""

    def __init__(self, schedule: NoiseSchedule, dim: int = 2, hidden: int = 64,
                 rng: np.random.Generator | None = None, net: DenoiserMLP | None = None):
        if net is not None and net.dim != dim:
            raise DiffusionError(f"denoiser has dim {net.dim}, model has dim {dim}")
        self.schedule = schedule
        self.dim = dim
        self.net = net if net is not None else DenoiserMLP(dim, hidden, rng=rng)

    def _step_bias(self, k: int) -> np.ndarray:
        """``net.step_bias`` at step k, a (1, hidden) row shared by every point."""
        return self.net.step_bias(_step_features(np.array([k]), self.schedule.steps,
                                                 self.net.n_freqs))

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
        m = self.means.shape[0]
        if self.means.ndim != 2 or self.means.size == 0:
            raise DiffusionError(f"means must be (M, d) with M, d >= 1, got {self.means.shape}")
        if self.stds.shape != (m,) or not np.all(self.stds > 0):  # NaN is not > 0
            raise DiffusionError(f"stds must be {m} positive numbers, one per mean")
        if self.weights.shape != (m,):
            raise DiffusionError(f"weights must be {m} numbers, one per mean")
        if abs(self.weights.sum() - 1.0) > 1e-9 or np.any(self.weights < 0):
            raise DiffusionError("mixture weights must form a distribution")

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        n = check_count("n", n, 0, DiffusionError)
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
        if not (math.isfinite(temperature) and temperature > 0):
            raise DiffusionError(f"temperature must be positive and finite, got {temperature}")
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


def elbo_draws(model: DiffusionModel, x0, rng: np.random.Generator, n_mc: int) -> np.ndarray:
    """Single-draw variational lower bounds of a batch of N points, in joint
    (summed over dimensions) space: an (n_mc, N) matrix whose column means
    are the points' ELBOs. A single point may be a vector; its draws are
    column 0."""
    x0 = _points(x0, model.dim)
    n_mc = check_count("n_mc", n_mc, 1, DiffusionError)
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


def elbo_batch(model: DiffusionModel, x0: np.ndarray, rng: np.random.Generator,
               n_mc: int = 16) -> np.ndarray:
    """Each point's ELBO, the mean of its ``n_mc`` draws from ``elbo_draws``."""
    return elbo_draws(model, x0, rng, n_mc).mean(axis=0)


# -------------------------------------------------------------------- weights

def lhts_diffusion_weights(model: DiffusionModel, dataset: np.ndarray, temperature: float,
                           clip: float | None = None, *, elbos: np.ndarray) -> WeightBatch:
    """Per-point weights exp(min((1-T)/T (elbo_i - b), c)) with b the mean
    elbo over the dataset. ``elbos`` holds one ELBO per point under the
    frozen base model, priced once before finetuning (``elbo_batch``)."""
    if not (math.isfinite(temperature) and temperature > 0):
        raise DiffusionError("temperature must be positive and finite")
    if clip is not None and not math.isfinite(clip):
        raise DiffusionError(f"clip must be finite, got {clip}")
    n = _points(dataset, model.dim).shape[0]
    elbos = np.asarray(elbos, dtype=np.float64)
    if elbos.shape != (n,) or not np.all(np.isfinite(elbos)):
        raise DiffusionError(f"need one finite elbo per point: got shape {elbos.shape} "
                             f"for {n} points")
    return _importance_weights(elbos, np.mean(elbos), temperature, clip)


# ------------------------------------------------------------------- training

# Adam's moment decays and epsilon; the decay of the EMA that training returns
_ADAM_B1, _ADAM_B2, _ADAM_EPS, _EMA_DECAY = 0.9, 0.999, 1e-8, 0.999


def weighted_noise_loss(model: DiffusionModel, x0: np.ndarray, k: np.ndarray,
                        eps: np.ndarray, weights: np.ndarray,
                        weight_norm: float = 1.0) -> tuple[float, np.ndarray]:
    """Importance-weighted noise-prediction loss and its parameter gradient:

        mean_i w_i/weight_norm * ||eps_i - eps_hat(sqrt(ab_k) x0 + sqrt(1-ab_k) eps, k)||^2

    Returns (loss, flat gradient). Normalizing by the dataset's mean weight
    makes a common rescaling of all weights an exact no-op.
    """
    sch = model.schedule
    net = model.net
    ab = sch.alphas_bar[k][:, None]
    x_k = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
    feats = _step_features(k, sch.steps, net.n_freqs)
    h = np.empty((len(k), net.hidden))
    resid = net.forward(x_k, net.step_bias(feats), h)
    resid -= eps
    w = (weights / weight_norm)[:, None] / len(k)
    loss = float(np.sum(w * resid * resid))
    return loss, net.backward(x_k, feats, h, 2.0 * w * resid)


def finetune_weighted(model: DiffusionModel, dataset: np.ndarray, weights: np.ndarray,
                      steps: int, rng: np.random.Generator, batch_size: int = 128,
                      learning_rate: float = 2e-3) -> tuple[DiffusionModel, list[dict]]:
    """Train a copy of the model on weighted data with Adam; unit weights
    reproduce plain noise-prediction training bit for bit under the same rng.
    The returned parameters are the EMA (decay 0.999) of the trajectory."""
    dataset = _points(dataset, model.dim)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (dataset.shape[0],):
        raise DiffusionError("need one weight per dataset point")
    if not (np.all(np.isfinite(weights)) and np.all(weights >= 0) and weights.sum() > 0):
        raise DiffusionError("weights must be finite and nonnegative with a positive mean")
    steps = check_count("steps", steps, 0, DiffusionError)
    batch_size = check_count("batch_size", batch_size, 1, DiffusionError)
    out = model.copy()
    params = out.net.params
    weight_norm = float(weights.mean())
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    ema = params.copy()
    records = []
    K = out.schedule.steps
    for step in range(steps):
        idx = rng.integers(0, dataset.shape[0], size=batch_size)
        k = rng.integers(1, K + 1, size=batch_size)
        eps = rng.standard_normal((batch_size, dataset.shape[1]))
        loss, grad = weighted_noise_loss(out, dataset[idx], k, eps, weights[idx], weight_norm)
        if not math.isfinite(loss):
            raise DiffusionError(f"non-finite diffusion loss at step {step}")
        t = step + 1
        m *= _ADAM_B1
        m += (1 - _ADAM_B1) * grad
        v *= _ADAM_B2
        v += (1 - _ADAM_B2) * grad * grad
        params -= learning_rate * (m / (1 - _ADAM_B1**t)) / (
            np.sqrt(v / (1 - _ADAM_B2**t)) + _ADAM_EPS)
        ema *= _EMA_DECAY
        ema += (1.0 - _EMA_DECAY) * params
        if step % 200 == 0 or step == steps - 1:
            records.append({"step": step, "loss": loss})
    params[...] = ema
    return out, records


def train_base(model: DiffusionModel, dataset: np.ndarray, steps: int,
               rng: np.random.Generator, batch_size: int = 128,
               learning_rate: float = 2e-3) -> tuple[DiffusionModel, list[dict]]:
    """Standard noise-prediction training: the weighted path with unit weights."""
    ones = np.ones(np.atleast_2d(dataset).shape[0])
    return finetune_weighted(model, dataset, ones, steps, rng,
                             batch_size=batch_size, learning_rate=learning_rate)


# ------------------------------------------------------------------- sampling

def sample_ancestral(model: DiffusionModel, n: int, pseudo_temperature: float = 1.0,
                     rng: np.random.Generator | None = None) -> np.ndarray:
    """Reverse-process sampling; the per-step noise standard deviation is
    scaled by the pseudo-temperature (1 = standard sampling). No noise is
    added on the final step."""
    if not 0.0 < pseudo_temperature <= 1.0:
        raise DiffusionError("pseudo_temperature must lie in (0, 1]")
    n = check_count("n", n, 0, DiffusionError)
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
