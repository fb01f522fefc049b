"""Finetuning engine for long-horizon temperature scaling.

Implements the joint-form importance-weighted loss, the variance-reduced
per-index autoregressive loss with suffix baselines, exponent clipping,
suffix horizons, per-temperature loss normalization and an optional KL
anchor to the base model. The base model p stays frozen; only q carries
gradients, and importance weights are constants during differentiation.

The loss is a weighted cross-entropy against q's softmax at every position,
so its gradient wrt each logit row is the closed form (sum_t W_t) softmax - W;
each model maps that row gradient onto its own parameters.

Every objective prices a sequence with one importance weight,
exp(min((1-T)/T (l - b), c)), where l is a log-likelihood under p (the
joint log p(x), the suffix log-likelihoods v_i, or a diffusion ELBO), b its
baseline and c the exponent clip; ``_importance_weights`` is that formula
and its one temperature and clip check. Training takes b from one
``StreamingBaseline``, a weighted running mean of l. It is prequential:
weights for a batch use statistics accumulated from previous batches only,
so the first batch runs with b = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ar_model import ARModel, LinearAR
from .numerics import Rng
from .oracle import CategoricalTable, enumerate_joint

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
    """Running mean of a data statistic, the baseline of its weights.

    The statistic is a vector of joint log-likelihoods, whose mean is a
    scalar, or a matrix of (horizon-limited) suffix log-likelihoods, whose
    mean is per index. The temperature factor (1-T)/T is applied at weight
    time, so one baseline serves every temperature of a multi-temperature
    run. Updates are weighted by the batch's data weights and add one unit
    of count per batch, so after a single full-batch pass the mean is
    exactly the batch-mean definition. The mean is 0 before the first update.
    """

    def __init__(self):
        self.n = 0.0
        self.sums = 0.0

    def means(self, stats: np.ndarray | None = None) -> float | np.ndarray:
        """The running mean. Given a batch of ``stats``, first check that
        each example's statistic has the shape of the earlier ones."""
        if stats is not None and self.n > 0 and np.shape(self.sums) != np.shape(stats)[1:]:
            raise TrainerError(f"baseline statistics of shape {np.shape(stats)} do not match "
                               "the earlier ones")
        return self.sums / self.n if self.n > 0 else 0.0

    def update(self, stats: np.ndarray, data_weights: np.ndarray | None = None) -> None:
        s = np.asarray(stats, dtype=np.float64)
        self.means(s)
        w = _norm_weights(s.shape[0], data_weights)
        # a C-ordered product summed over the batch adds in one order
        # whatever the layout of s, where w @ s rounds by the BLAS kernel
        # that the layout selects
        terms = np.multiply(w.reshape((-1,) + (1,) * (s.ndim - 1)), s, order="C")
        self.sums = self.sums + terms.sum(axis=0)
        self.n += 1.0


def _norm_weights(n: int, data_weights: np.ndarray | None) -> np.ndarray:
    if n == 0:
        raise TrainerError("empty dataset: need at least one sequence")
    if data_weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(data_weights, dtype=np.float64)
    # a NaN or +inf weight makes the sum NaN or +inf, and so do finite
    # weights whose sum overflows
    with np.errstate(over="ignore"):
        total = w.sum()
    if w.shape != (n,) or np.any(w < 0) or not 0 < total < np.inf:
        raise TrainerError("data weights must be a nonnegative vector with positive finite sum")
    return w / total


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
        (sum w)^2 / sum w^2 over all n entries (Kong 1992), and that as a
        fraction of n; and the range of the exponents, i.e. the log-weights
        before clipping."""
        w = self.weights
        ess = float(w.sum() ** 2 / np.sum(w * w))
        return {"mean": float(w.mean()), "var": float(w.var()), "max": float(w.max()),
                "ess": ess, "ess_frac": ess / w.size,
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
        """The JSON-lines record contract. A NaN or infinite number, such
        as the normalized loss and gradient norm of a step that aborted,
        is written as None (JSON null), so the record stays valid JSON."""
        out: dict = {"step": self.step, "T": self.temperature, "loss": self.loss,
                     "normalized_loss": self.normalized_loss, "grad_norm": self.grad_norm,
                     "clip_rate": self.clip_rate}
        if self.kl_to_target is not None:
            out["kl_to_target"] = self.kl_to_target
        out = _json_numbers(out)
        out["weight_stats"] = _json_numbers(self.weight_stats)
        return out


def _json_numbers(numbers: dict) -> dict:
    """``numbers`` with each NaN or infinite value replaced by None."""
    return {k: v if math.isfinite(v) else None for k, v in numbers.items()}


@dataclass
class TrainSettings:
    steps: int = 1000
    learning_rate: float = 1.0
    temperatures: tuple = (1.0,)
    horizon: int | None = None          # None = full suffix
    clip: float | None = None           # None = no exponent clipping
    kl_beta: float = 0.0
    batch_size: int | None = None       # None = full batch
    eval_every: int | None = None       # cadence for the exact-KL metric

    def __post_init__(self):
        try:
            self.temperatures = tuple(float(t) for t in self.temperatures)
        except (TypeError, ValueError):
            raise TrainerError("temperatures must be an iterable of numbers, "
                               f"got {self.temperatures!r}") from None
        _check_count("steps", self.steps, 0)
        for name in ("horizon", "batch_size", "eval_every"):
            if getattr(self, name) is not None:
                _check_count(name, getattr(self, name), 1)
        if not _finite_positive(self.learning_rate):
            raise TrainerError("learning_rate must be positive and finite")
        if not self.temperatures or not all(map(_finite_positive, self.temperatures)):
            raise TrainerError("temperatures must be a non-empty set of positive finite values")
        if self.clip is not None and not _finite_positive(self.clip):
            raise TrainerError("clip must be positive and finite")
        if not (math.isfinite(self.kl_beta) and self.kl_beta >= 0):
            raise TrainerError("kl_beta must be finite and >= 0")


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


def _check_count(name: str, value, minimum: int) -> None:
    """A count is an int or numpy integer of at least ``minimum``."""
    # True is an int to Python, but no count
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TrainerError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise TrainerError(f"{name} must be >= {minimum}")


class TrainState:
    """Frozen base p, trainable q (initialized as a copy of p), streaming
    baseline and loss normalizer."""

    def __init__(self, base: ARModel, settings: TrainSettings,
                 embedding_width: int | None = None):
        self.p = base
        self._p_snapshot = base.param_array()
        if embedding_width is not None:
            if not isinstance(base, LinearAR):
                raise TrainerError("temperature embedding requires the linear parameterization")
            self.q: ARModel = base.with_embedding(embedding_width)
        else:
            self.q = base.copy()
        self.settings = settings
        self.baseline = StreamingBaseline()
        self.normalizer = LossNormalizer()
        self.step = 0

    def check_base_frozen(self) -> None:
        if not np.array_equal(self.p.param_array(), self._p_snapshot):
            raise TrainerError("base model was modified during training")


# ------------------------------------------------------------------- weights

def _importance_weights(log_liks: np.ndarray, baseline: float | np.ndarray,
                        temperature: float, clip: float | None) -> WeightBatch:
    """The one importance weight, exp(min((1-T)/T (log_liks - baseline), c)).

    T must be positive and finite; the clip c is None (no cap) or any
    number but NaN.
    """
    if not _finite_positive(temperature):
        raise TrainerError(f"temperature must be positive and finite, got {temperature}")
    c = math.inf if clip is None else float(clip)
    if math.isnan(c):
        raise TrainerError(f"clip must be a number or None, got {clip}")
    exponents = (1.0 - temperature) / temperature * (np.asarray(log_liks, dtype=np.float64)
                                                     - baseline)
    return WeightBatch(np.exp(np.minimum(exponents, c)), exponents, c, temperature)


def _check_finite_log_p(log_p: np.ndarray, xs: np.ndarray) -> None:
    """Refuse a batch with a sequence that p gives zero (or NaN) mass."""
    bad = ~np.isfinite(log_p)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise TrainerError(f"non-finite log p for example {i}: {xs[i].tolist()}")


def joint_weights(p: ARModel, xs: np.ndarray, temperature: float,
                  baseline: StreamingBaseline, clip: float | None = None,
                  data_weights: np.ndarray | None = None) -> WeightBatch:
    """Per-example weights exp(min((1-T)/T (log p(x) - b), c)).

    b is the baseline's running mean of log p, from previous batches only;
    this batch's statistics are folded in afterwards.
    """
    # p's pricing checks the tokens
    xs = np.asarray(xs)
    logps = p.per_token_log_probs_matrix(xs).sum(axis=1)
    _check_finite_log_p(logps, xs)
    wb = _importance_weights(logps, baseline.means(logps), temperature, clip)
    baseline.update(logps, data_weights)
    return wb


def suffix_log_liks_matrix(p: ARModel, xs: np.ndarray, t_cond: float | None = None) -> np.ndarray:
    """v[n, i] = log p(x_{>=i} | x_<i) for each row, a reverse cumulative sum
    of the per-token conditionals; v[:, 0] is the full sequence log-prob.

    The sums are added in place, right to left, into the new matrix that
    ``per_token_log_probs_matrix`` returns."""
    u = p.per_token_log_probs_matrix(xs, t_cond=t_cond)
    for i in range(u.shape[1] - 2, -1, -1):
        u[:, i] += u[:, i + 1]
    return u


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
    return _importance_weights(v_horizon, baseline_means, temperature, clip)


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
    Each position sums the weights over the S contexts of the wider window
    of q and the anchor's base, and reads both models' ``row_tables``, the
    log-softmax of their ``row_logits``. The narrower table, of k rows,
    reads its row s mod k for context s: the (S, V) sums are viewed as
    (S/k, k, V), and the narrower table's rows as (1, k, V) broadcast onto
    them, with no copy. The gradient wrt q's logits is summed back onto q's
    own (V^c, V) rows, the layout of ``row_logits``, and ``q.param_grad``,
    its adjoint, maps it onto the parameters.
    """
    xs = q._check_tokens(xs)
    n, length = xs.shape
    w = np.asarray(importance, dtype=np.float64)
    if w.shape == (n,):
        w = np.repeat(w[:, None], length, axis=1)
    if w.shape != (n, length):
        raise TrainerError(f"importance weights must be (n,) or (n, length), got {w.shape}")
    d = _norm_weights(n, data_weights)
    anchored = kl_beta > 0.0
    if anchored and base is None:
        raise TrainerError("kl_beta > 0 needs the base model")
    q_rows = q.row_tables(t_cond)
    # without the anchor, S is q's own count of contexts
    p_rows = base.row_tables() if anchored else q_rows
    V = q.vocab_size
    loss = 0.0
    grad = np.zeros(q.n_params)
    # flat is s V + x: the context id s, then the token x read after it
    flat = np.zeros(n, dtype=np.int64)
    for i in range(length):
        n_q = q_rows[i].shape[0]
        k, S = sorted((n_q, p_rows[i].shape[0]))
        ids = flat % S
        flat = ids * V + xs[:, i]
        # the (S, V) sums are read as (S/k, k, V) views, on which the
        # narrower table's (1, k, V) view broadcasts
        log_q = q_rows[i].reshape(-1, k, V)
        # W[s, t] weighs -log q(t|s), summed over the rows with context s;
        # zero entries are skipped in the loss so that a -inf log-prob with
        # no weight adds nothing
        W = np.bincount(flat, weights=d * w[:, i], minlength=S * V).reshape(-1, k, V)
        if anchored:
            log_p = p_rows[i].reshape(-1, k, V)
            # KL = sum_t p_t log p_t - sum_t p_t log q_t: the cross term
            # joins W, the entropy term is a constant shift of the loss
            d_ctx = np.bincount(ids, weights=d, minlength=S)
            pw = kl_beta * d_ctx.reshape(-1, k, 1) * np.exp(log_p)
            W += pw
            mass = pw > 0
            loss += pw[mass] @ np.broadcast_to(log_p, pw.shape)[mass]
        used = W != 0
        loss -= W[used] @ np.broadcast_to(log_q, W.shape)[used]
        g_logits = W.sum(axis=2, keepdims=True) * np.exp(log_q) - W
        if S > n_q:
            g_logits = g_logits.reshape(-1, n_q, V).sum(axis=0)
        grad += q.param_grad(i, g_logits.reshape(n_q, V), t_cond)
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
    xs = state.p._check_tokens(xs)
    v = suffix_log_liks_matrix(state.p, xs)
    _check_finite_log_p(v[:, 0], xs)
    s = apply_horizon(v, cfg.horizon) if cfg.horizon is not None else v
    wb = ar_weights(s, temperature, state.baseline.means(s), cfg.clip)
    state.baseline.update(s, data_weights)

    t_cond = temperature if state.q.has_embedding else None
    loss, grad = weighted_nll_loss_node(
        state.q, xs, wb.weights, data_weights=data_weights,
        t_cond=t_cond, kl_beta=cfg.kl_beta, base=state.p,
    )

    record = StepRecord(step=state.step, temperature=temperature, loss=loss,
                        normalized_loss=math.nan, weight_stats=wb.stats(),
                        clip_rate=wb.clip_rate, grad_norm=math.nan)
    if not math.isfinite(loss):
        raise NumericalAbort(f"non-finite loss {loss} at step {state.step}",
                             record.metrics_dict())

    state.normalizer.update(temperature, loss)
    scale = 1.0 / state.normalizer.factor(temperature)

    grad = grad * scale
    norm = float(np.sqrt(np.sum(grad * grad)))
    state.q.set_param_array(state.q.param_array() - cfg.learning_rate * grad)
    state.step += 1
    record.normalized_loss = loss * scale
    record.grad_norm = norm
    return record


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
    xs = base._check_tokens(xs)
    n = xs.shape[0]
    dnorm = _norm_weights(n, data_weights)
    state = TrainState(base, settings, embedding_width=embedding_width)
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

    loss = sum_x p(x) exp(min((1-T)/T (log p(x) - m), c)) (-log q(x))
    m    = sum_x p(x) log p(x), and the returned baseline is (1-T)/T m
    """
    lp = p_table.log_probs
    lq = q_table.log_probs
    mass = lp > -np.inf
    lp = lp[mass]
    pw = np.exp(lp)
    m = float(pw @ lp)
    wb = _importance_weights(lp, m, temperature, clip)
    return float(np.sum(pw * wb.weights * (-lq[mass]))), (1.0 - temperature) / temperature * m


def ar_loss_exact(p: ARModel, q: ARModel, temperature: float,
                  horizon: int | None = None, t_cond: float | None = None) -> float:
    """The variance-reduced autoregressive loss under exact expectation
    over p, with exact per-index mean baselines and no clipping:

    loss = sum_x p(x) sum_i exp((1-T)/T (v_i - b(i))) (-log q(x_i|x_<i))

    Sequences that p gives no mass add nothing and are dropped, since their
    -inf suffix log-likelihoods would make the baselines NaN.
    """
    table = enumerate_joint(p)
    mass = table.log_probs > -np.inf
    xs = table.space.all_sequences()[mass]
    pw = table.probs()[mass]
    v = suffix_log_liks_matrix(p, xs)
    if horizon is not None:
        v = apply_horizon(v, horizon)
    w = _importance_weights(v, pw @ v, temperature, None).weights
    lq = q.per_token_log_probs_matrix(xs, t_cond=t_cond)
    return float(np.sum(pw[:, None] * w * (-lq)))
