"""Finetuning engine for long-horizon temperature scaling.

Implements the joint-form importance-weighted loss, the variance-reduced
per-index autoregressive loss with suffix baselines, exponent clipping,
suffix horizons, per-temperature loss normalization and an optional KL
anchor to the base model. The base model p stays frozen; only q carries
gradients, and importance weights are constants during differentiation.

The loss is a weighted cross-entropy against q's softmax at every position,
so its gradient wrt each logit row is the closed form (sum_t W_t) softmax - W;
each model maps that row gradient onto its own parameters.

The streaming baseline is prequential: weights for a batch use statistics
accumulated from previous batches only, so the first batch runs with b = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ar_model import ARModel, LinearAR
from .numerics import Rng, log_softmax
from .oracle import CategoricalTable

__all__ = [
    "TrainerError",
    "NumericalAbort",
    "StreamingBaseline",
    "LossNormalizer",
    "WeightBatch",
    "TrainState",
    "TrainSettings",
    "StepRecord",
    "joint_weights",
    "suffix_log_liks_matrix",
    "apply_horizon",
    "ar_weights",
    "weighted_nll_loss_node",
    "lhts_step",
    "train",
    "make_train_state",
    "joint_loss_exact",
    "ar_loss_exact",
]


class TrainerError(ValueError):
    pass


class NumericalAbort(RuntimeError):
    """Non-finite loss; carries the metrics record of the offending step."""

    def __init__(self, message: str, record: dict):
        super().__init__(message)
        self.record = record


# --------------------------------------------------------------------- state

class StreamingBaseline:
    """Running means of data statistics used as weight baselines.

    Tracks the raw joint log-likelihood mean and per-index means of the
    (horizon-limited) suffix log-likelihoods; the temperature factor
    (1-T)/T is applied at weight time, so one baseline serves every
    temperature of a multi-temperature run. Updates are weighted by the
    batch's data weights and add one unit of count per batch, so after a
    single full-batch pass the mean is exactly the batch-mean definition.
    """

    def __init__(self, length: int | None = None):
        self.n = 0.0
        self.joint_sum = 0.0
        self.suffix_sums = np.zeros(length) if length is not None else None

    def joint_mean(self) -> float:
        return self.joint_sum / self.n if self.n > 0 else 0.0

    def suffix_means(self) -> np.ndarray:
        if self.suffix_sums is None:
            raise TrainerError("baseline was not configured with a sequence length")
        if self.n > 0:
            return self.suffix_sums / self.n
        return np.zeros_like(self.suffix_sums)

    def update_joint(self, log_probs: np.ndarray, data_weights: np.ndarray | None = None) -> None:
        w = _norm_weights(len(log_probs), data_weights)
        self.joint_sum += float(w @ np.asarray(log_probs, dtype=np.float64))
        self.n += 1.0

    def update_suffix(self, suffix_matrix: np.ndarray, data_weights: np.ndarray | None = None) -> None:
        s = np.asarray(suffix_matrix, dtype=np.float64)
        if self.suffix_sums is None:
            self.suffix_sums = np.zeros(s.shape[1])
        w = _norm_weights(s.shape[0], data_weights)
        self.suffix_sums += w @ s
        self.n += 1.0


def _norm_weights(n: int, data_weights: np.ndarray | None) -> np.ndarray:
    if n == 0:
        raise TrainerError("empty dataset: need at least one sequence")
    if data_weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(data_weights, dtype=np.float64)
    if w.shape != (n,) or np.any(w < 0) or w.sum() <= 0:
        raise TrainerError("data weights must be a nonnegative vector with positive sum")
    return w / w.sum()


class LossNormalizer:
    """Per-temperature loss normalization for balanced multi-temperature
    training: accumulates the gradient-detached loss per temperature plus a
    global step count, and scales a step's gradient by the inverse of
    (accumulated loss / total steps). Scale only, never direction."""

    def __init__(self):
        self.sums: dict[float, float] = {}
        self.n = 0

    def update(self, temperature: float, detached_loss: float) -> None:
        self.sums[temperature] = self.sums.get(temperature, 0.0) + float(detached_loss)
        self.n += 1

    def factor(self, temperature: float) -> float:
        m = self.sums.get(temperature, 0.0)
        if self.n == 0 or m <= 0.0:
            return 1.0
        return m / self.n


@dataclass
class WeightBatch:
    """Importance weights plus the exponents they were clipped from.

    ``weights`` is per-example for the joint form or per-(example, index)
    for the autoregressive form; every entry is exp(min(exponent, clip)),
    and at T = 1 every entry is exactly 1.
    """

    weights: np.ndarray
    exponents: np.ndarray
    clip: float
    temperature: float

    @property
    def clip_rate(self) -> float:
        if not math.isfinite(self.clip):
            return 0.0
        return float(np.mean(self.exponents > self.clip))

    def stats(self) -> dict:
        """Mean, variance and max of the weights; their effective sample size
        (sum w)^2 / sum w^2 over all entries (Kong 1992); and the range of the
        exponents, i.e. the log-weights before clipping."""
        w = self.weights
        return {"mean": float(w.mean()), "var": float(w.var()), "max": float(w.max()),
                "ess": float(w.sum() ** 2 / np.sum(w * w)),
                "log_w_min": float(self.exponents.min()),
                "log_w_max": float(self.exponents.max())}


@dataclass
class StepRecord:
    step: int
    temperature: float
    loss: float
    normalized_loss: float
    weight_stats: dict
    clip_rate: float
    grad_norm: float
    kl_to_target: float | None = None

    def metrics_dict(self) -> dict:
        """The JSON-lines record contract."""
        out: dict = {"step": self.step, "T": self.temperature, "loss": self.loss}
        if self.kl_to_target is not None:
            out["kl_to_target"] = self.kl_to_target
        out["weight_stats"] = self.weight_stats
        out["clip_rate"] = self.clip_rate
        return out


@dataclass
class TrainSettings:
    steps: int = 1000
    learning_rate: float = 1.0
    grad_clip: float | None = None
    temperatures: tuple = (1.0,)
    horizon: int | None = None          # None = full suffix
    clip: float | None = None           # None = no exponent clipping
    kl_beta: float = 0.0
    batch_size: int | None = None       # None = full batch
    eval_every: int | None = None       # cadence for the exact-KL metric

    def __post_init__(self):
        self.temperatures = tuple(float(t) for t in self.temperatures)
        if self.steps < 0:
            raise TrainerError("steps must be >= 0")
        if self.learning_rate <= 0:
            raise TrainerError("learning_rate must be positive")
        if not self.temperatures or any(t <= 0 for t in self.temperatures):
            raise TrainerError("temperatures must be a non-empty set of positive values")
        if self.horizon is not None and self.horizon < 1:
            raise TrainerError("horizon must be >= 1")
        if self.clip is not None and self.clip <= 0:
            raise TrainerError("clip must be positive")
        if self.kl_beta < 0:
            raise TrainerError("kl_beta must be >= 0")


class TrainState:
    """Frozen base p, trainable q (initialized as a copy of p), optimizer
    knobs, streaming baseline and loss normalizer."""

    def __init__(self, base: ARModel, settings: TrainSettings,
                 embedding_width: int | None = None, length: int | None = None):
        self.p = base
        self._p_snapshot = base.param_array()
        if embedding_width is not None:
            if not isinstance(base, LinearAR):
                raise TrainerError("temperature embedding requires the linear parameterization")
            self.q: ARModel = base.with_embedding(embedding_width)
        else:
            self.q = base.copy()
        self.settings = settings
        self.length = int(length if length is not None else base.max_length)
        self.baseline = StreamingBaseline(self.length)
        self.normalizer = LossNormalizer()
        self.step = 0
        self.last_grad: np.ndarray | None = None

    @property
    def conditions_on_temperature(self) -> bool:
        return self.q.has_embedding

    def check_base_frozen(self) -> None:
        if not np.array_equal(self.p.param_array(), self._p_snapshot):
            raise TrainerError("base model was modified during training")


def make_train_state(base: ARModel, settings: TrainSettings,
                     embedding_width: int | None = None,
                     length: int | None = None) -> TrainState:
    return TrainState(base, settings, embedding_width=embedding_width, length=length)


# ------------------------------------------------------------------- weights

def joint_weights(p: ARModel, xs: np.ndarray, temperature: float,
                  baseline: StreamingBaseline, clip: float | None = None,
                  data_weights: np.ndarray | None = None,
                  update_baseline: bool = True) -> WeightBatch:
    """Per-example weights exp(min((1-T)/T log p(x) - b, c)).

    b is the baseline's running mean scaled by (1-T)/T, from previous
    batches only; this batch's statistics are folded in afterwards.
    """
    if temperature <= 0:
        raise TrainerError("temperature must be positive")
    xs = np.asarray(xs, dtype=np.int64)
    logps = p.per_token_log_probs_matrix(xs).sum(axis=1)
    bad = ~np.isfinite(logps)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise TrainerError(f"non-finite log p for example {i}: {xs[i].tolist()}")
    factor = (1.0 - temperature) / temperature
    exponents = factor * (logps - baseline.joint_mean())
    if update_baseline:
        baseline.update_joint(logps, data_weights)
    c = math.inf if clip is None else float(clip)
    weights = np.exp(np.minimum(exponents, c))
    return WeightBatch(weights, exponents, c, temperature)


def suffix_log_liks_matrix(p: ARModel, xs: np.ndarray, t_cond: float | None = None) -> np.ndarray:
    """v[n, i] = log p(x_{>=i} | x_<i) for each row, a reverse cumulative sum
    of the per-token conditionals; v[:, 0] is the full sequence log-prob."""
    u = p.per_token_log_probs_matrix(xs, t_cond=t_cond)
    return np.cumsum(u[:, ::-1], axis=1)[:, ::-1]


def apply_horizon(v: np.ndarray, horizon: int) -> np.ndarray:
    """Truncate suffix log-likelihoods to at most ``horizon`` tokens:
    out_i = v_i - v_{i+h}, entries past the end treated as zero. Works on a
    vector or row-wise on a matrix; h >= length is a no-op."""
    if horizon < 1:
        raise TrainerError("horizon must be >= 1")
    v = np.asarray(v, dtype=np.float64)
    out = v.copy()
    if horizon < v.shape[-1]:
        out[..., : v.shape[-1] - horizon] -= v[..., horizon:]
    return out


def ar_weights(v_horizon: np.ndarray, temperature: float,
               baseline_means: np.ndarray, clip: float | None = None) -> WeightBatch:
    """Per-index weights exp(min((1-T)/T (v_i - b(i)), c)) where b(i) is the
    mean suffix log-likelihood at index i."""
    if temperature <= 0:
        raise TrainerError("temperature must be positive")
    v = np.asarray(v_horizon, dtype=np.float64)
    factor = (1.0 - temperature) / temperature
    exponents = factor * (v - np.asarray(baseline_means, dtype=np.float64))
    c = math.inf if clip is None else float(clip)
    weights = np.exp(np.minimum(exponents, c))
    return WeightBatch(weights, exponents, c, temperature)


# ---------------------------------------------------------------------- loss

def weighted_nll_loss_node(q: ARModel, xs: np.ndarray, importance: np.ndarray,
                           data_weights: np.ndarray | None = None,
                           t_cond: float | None = None, kl_beta: float = 0.0,
                           base: ARModel | None = None) -> tuple[float, np.ndarray]:
    """The step loss and its gradient wrt q's flat parameters.

    loss = sum_x d_x [ sum_i w[x,i] * (-log q(x_i|x_<i))
                       + beta * sum_i KL(p(.|x_<i) || q(.|x_<i)) ]

    ``importance`` is (n, L) per-index weights or (n,) per-example weights
    (the joint form, applied to every index). Importance weights and the
    base conditionals are constants; only q's parameters carry gradients.
    """
    xs = np.asarray(xs, dtype=np.int64)
    n, length = xs.shape
    w = np.asarray(importance, dtype=np.float64)
    if w.shape == (n,):
        w = np.repeat(w[:, None], length, axis=1)
    if w.shape != (n, length):
        raise TrainerError(f"importance weights must be (n,) or (n, length), got {w.shape}")
    d = _norm_weights(n, data_weights)
    if kl_beta > 0.0 and base is None:
        raise TrainerError("kl_beta > 0 needs the base model")
    examples = np.arange(n)
    loss = 0.0
    grad = np.zeros(q.n_params)
    for i in range(length):
        log_q = log_softmax(q.logits_batch(xs[:, :i], i, t_cond))
        # W[x, t] weighs -log q(t|x_<i); zero entries are skipped in the
        # loss so that a -inf log-prob with no weight adds nothing
        W = np.zeros_like(log_q)
        W[examples, xs[:, i]] = d * w[:, i]
        if kl_beta > 0.0:
            log_p = base.conditional_log_probs_batch(xs[:, :i], i)
            # KL = sum_t p_t log p_t - sum_t p_t log q_t: the cross term
            # joins W, the entropy term is a constant shift of the loss
            pw = kl_beta * d[:, None] * np.exp(log_p)
            W += pw
            mass = pw > 0
            loss += pw[mass] @ log_p[mass]
        used = W != 0
        loss -= W[used] @ log_q[used]
        g_logits = W.sum(axis=1, keepdims=True) * np.exp(log_q) - W
        grad += q.param_grad(xs[:, :i], i, g_logits, t_cond)
    return float(loss), grad


# ---------------------------------------------------------------------- step

def lhts_step(state: TrainState, xs: np.ndarray, temperature: float,
              data_weights: np.ndarray | None = None) -> StepRecord:
    """One finetuning step on a batch of sequences at one temperature.

    Computes horizon-limited suffix log-likelihoods under p, turns them into
    per-index importance weights against the streaming baseline, takes a
    normalized gradient step on q, and returns the step's metrics. The
    baseline is updated after the weights are computed.
    """
    cfg = state.settings
    xs = np.asarray(xs, dtype=np.int64)
    if xs.ndim != 2:
        raise TrainerError("expected a batch of sequences (n, length)")
    v = suffix_log_liks_matrix(state.p, xs)
    bad = ~np.isfinite(v[:, 0])
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise TrainerError(f"non-finite log p for example {i}: {xs[i].tolist()}")
    s = apply_horizon(v, cfg.horizon) if cfg.horizon is not None else v
    wb = ar_weights(s, temperature, state.baseline.suffix_means(), cfg.clip)
    state.baseline.update_suffix(s, data_weights)

    t_cond = temperature if state.conditions_on_temperature else None
    loss, grad = weighted_nll_loss_node(
        state.q, xs, wb.weights, data_weights=data_weights,
        t_cond=t_cond, kl_beta=cfg.kl_beta, base=state.p,
    )

    weight_stats = wb.stats()
    record_stub = {
        "step": state.step, "T": temperature, "loss": loss,
        "weight_stats": weight_stats, "clip_rate": wb.clip_rate,
    }
    if not math.isfinite(loss):
        raise NumericalAbort(f"non-finite loss {loss} at step {state.step}", record_stub)

    state.normalizer.update(temperature, loss)
    scale = 1.0 / state.normalizer.factor(temperature)

    grad = grad * scale
    norm = float(np.sqrt(np.sum(grad * grad)))
    if cfg.grad_clip is not None and norm > cfg.grad_clip:
        grad *= cfg.grad_clip / norm
    state.last_grad = grad
    state.q.set_param_array(state.q.param_array() - cfg.learning_rate * grad)
    state.step += 1

    return StepRecord(
        step=state.step - 1,
        temperature=temperature,
        loss=loss,
        normalized_loss=loss * scale,
        weight_stats=weight_stats,
        clip_rate=wb.clip_rate,
        grad_norm=norm,
    )


def train(base: ARModel, xs: np.ndarray, data_weights: np.ndarray | None,
          settings: TrainSettings, rng: Rng,
          embedding_width: int | None = None,
          exact_kl_fn=None) -> tuple[ARModel, list[StepRecord]]:
    """Run the finetuning loop; deterministic given the Rng seed.

    Each step samples a temperature uniformly from the configured set and a
    minibatch from the data weights (or uses the full batch). With zero
    steps the returned model is an untouched copy of the base.
    ``exact_kl_fn(q, T)``, when given, is evaluated at the configured
    cadence and recorded as the kl_to_target metric.
    """
    xs = np.asarray(xs, dtype=np.int64)
    n = xs.shape[0]
    dnorm = _norm_weights(n, data_weights)
    state = make_train_state(base, settings, embedding_width=embedding_width,
                             length=xs.shape[1])
    temp_gen = rng.stream("temperatures")
    batch_gen = rng.stream("batches")
    records: list[StepRecord] = []
    for step in range(settings.steps):
        T = settings.temperatures[int(temp_gen.integers(len(settings.temperatures)))]
        if settings.batch_size is None or settings.batch_size >= n:
            batch, bweights = xs, dnorm
        else:
            idx = batch_gen.choice(n, size=settings.batch_size, replace=True, p=dnorm)
            batch, bweights = xs[idx], None
        record = lhts_step(state, batch, T, data_weights=bweights)
        if exact_kl_fn is not None and settings.eval_every is not None:
            if step % settings.eval_every == 0 or step == settings.steps - 1:
                record.kl_to_target = float(exact_kl_fn(state.q, T))
        records.append(record)
    state.check_base_frozen()
    return state.q, records


# -------------------------------------------------------------- exact losses

def joint_loss_exact(p_table: CategoricalTable, q_table: CategoricalTable,
                     temperature: float, clip: float | None = None) -> tuple[float, float]:
    """The joint-form loss under exact expectation over p, with the exact
    batch-mean baseline. Returns (loss, baseline).

    loss = sum_x p(x) exp(min((1-T)/T log p(x) - b, c)) (-log q(x))
    b    = sum_x p(x) (1-T)/T log p(x)
    """
    if temperature <= 0:
        raise TrainerError("temperature must be positive")
    factor = (1.0 - temperature) / temperature
    lp = p_table.log_probs
    lq = q_table.log_probs
    mass = lp > -np.inf
    pw = np.exp(lp[mass])
    b = factor * float(pw @ lp[mass])
    expo = factor * lp[mass] - b
    if clip is not None:
        expo = np.minimum(expo, clip)
    return float(np.sum(pw * np.exp(expo) * (-lq[mass]))), b


def ar_loss_exact(p: ARModel, q: ARModel, temperature: float,
                  length: int | None = None, horizon: int | None = None,
                  t_cond: float | None = None) -> float:
    """The variance-reduced autoregressive loss under exact expectation
    over p, with exact per-index mean baselines and no clipping:

    loss = sum_x p(x) sum_i exp((1-T)/T (v_i - b(i))) (-log q(x_i|x_<i))
    """
    from .oracle import enumerate_joint  # local import avoids cycle at import time

    if temperature <= 0:
        raise TrainerError("temperature must be positive")
    table = enumerate_joint(p, length)
    xs = table.space.all_sequences()
    pw = table.probs()
    v = suffix_log_liks_matrix(p, xs)
    if horizon is not None:
        v = apply_horizon(v, horizon)
    means = pw @ v
    factor = (1.0 - temperature) / temperature
    w = np.exp(factor * (v - means))
    lq = q.per_token_log_probs_matrix(xs, t_cond=t_cond)
    return float(np.sum(pw[:, None] * w * (-lq)))
