"""The three benchmark workloads: price -> finetune -> sample -> score.

Each workload has a ``setup(seed)`` that builds the frozen base, the data
and the exact reference tables, and an ``iterate(state)`` that runs the
timed pipeline once and returns its phase times, quality numbers and
correctness checks. Every input comes from the seed, so two iterations with
one state do the same work and give the same numbers.

The workloads call lhts through module attributes (``trainer.train``, not a
from-import), so the tracer's wrappers are seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from lhts import ar_model, data, diffusion, numerics, oracle, trainer


@dataclass
class Iteration:
    """Timed units of one pipeline run, its quality numbers and checks.

    Pricing and sampling run in chunks, and scoring is repeated, so that a
    run holds many short timed units: (items, seconds) per price or sample
    chunk, seconds per scoring pass.
    """

    price: list[tuple[int, float]]
    train_s: float
    steps: int
    sample: list[tuple[int, float]]
    score_s: list[float]
    quality: dict
    checks: dict[str, bool]


def _chunks(n: int, size: int) -> list[int]:
    return [min(size, n - i) for i in range(0, n, size)]


def _timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - t0


def _lse(log_probs: np.ndarray) -> float:
    m = log_probs.max()
    return float(m + np.log(np.exp(log_probs - m).sum()))


# -- autoregressive workloads -----------------------------------------------------

@dataclass(frozen=True)
class ARParams:
    parameterization: str           # "tabular" or "linear"
    vocab_size: int
    length: int
    temperatures: tuple
    steps: int
    learning_rate: float
    n_samples: int                  # drawn from q per temperature, then priced
    chunk: int                      # sequences per sample and price call
    score_repeats: int              # scoring passes per iteration
    window: int = 3
    n_data: int | None = None       # None: train on the enumerated space
    batch_size: int | None = None
    kl_beta: float = 0.0
    embedding_width: int | None = None


@dataclass
class ARState:
    seed: int
    base: ar_model.ARModel
    xs: np.ndarray
    data_weights: np.ndarray | None
    p_table: oracle.CategoricalTable
    kl_untrained: float


class ARWorkload:
    def __init__(self, params: ARParams):
        self.params = params

    def _make_base(self, rng: numerics.Rng) -> ar_model.ARModel:
        p = self.params
        if p.parameterization == "tabular":
            return data.make_skewed_ground_truth(p.vocab_size, p.length, rng.stream("base"))
        # Weights of scale 0.5 keep the base's entropy, and with it the
        # number of distinct context windows a minibatch puts on the tape,
        # close across seeds; at scale 1 a step's cost varied by ~30%.
        gen = rng.stream("base")
        base = ar_model.LinearAR(p.vocab_size, p.length, p.window)
        base.w_ctx = gen.normal(scale=0.5, size=base.w_ctx.shape)
        base.w_pos = gen.normal(scale=0.5, size=base.w_pos.shape)
        base.bias = gen.normal(scale=0.5, size=base.bias.shape)
        return base

    def setup(self, seed: int) -> ARState:
        p = self.params
        rng = numerics.Rng(seed)
        base = self._make_base(rng)
        if p.n_data is None:
            xs, dw = data.enumerated_dataset(base)
        else:
            xs, dw = data.sample_sequences(base, p.n_data, rng.stream("data")), None
        p_table = oracle.enumerate_joint(base)
        # q starts as a copy of p (a zero embedding is a no-op), so the
        # untrained copy's table is p's own
        kl_untrained = float(np.mean([
            oracle.kl_divergence(oracle.temperature_scale_exact(p_table, t), p_table)
            for t in p.temperatures]))
        return ARState(seed, base, xs, dw, p_table, kl_untrained)

    def iterate(self, st: ARState) -> Iteration:
        p = self.params
        rng = numerics.Rng(st.seed)
        settings = trainer.TrainSettings(
            steps=p.steps, learning_rate=p.learning_rate, temperatures=p.temperatures,
            kl_beta=p.kl_beta, batch_size=p.batch_size)

        (q, _), train_s = _timed(trainer.train, st.base, st.xs, st.data_weights, settings,
                                 rng.child("train"), embedding_width=p.embedding_width)

        def t_cond(t):
            return t if q.has_embedding else None

        gen = rng.stream("sample")
        batches, sample = [], []
        for t in p.temperatures:
            for n in _chunks(p.n_samples, p.chunk):
                b, dt = _timed(q.sample, n, t_cond=t_cond(t), rng=gen)
                batches.append(b)
                sample.append((n, dt))

        prices, price = [], []
        for b in batches:
            v, dt = _timed(trainer.suffix_log_liks_matrix, st.base, b.sequences)
            prices.append(v)
            price.append((len(b), dt))

        score_s = []
        for _ in range(p.score_repeats):
            t0 = perf_counter()
            q_tables = [oracle.enumerate_joint(q, t_cond=t_cond(t)) for t in p.temperatures]
            kls = [oracle.kl_divergence(oracle.temperature_scale_exact(st.p_table, t), qt)
                   for t, qt in zip(p.temperatures, q_tables)]
            score_s.append(perf_counter() - t0)

        kl = float(np.mean(kls))
        checks = {}
        for t, qt, k in zip(p.temperatures, q_tables, kls):
            checks[f"q_table_normalized@T={t}"] = abs(_lse(qt.log_probs)) <= 1e-12
            checks[f"kl_finite_nonnegative@T={t}"] = bool(np.isfinite(k) and k >= 0.0)
        checks["tokens_in_vocab"] = all(
            b.sequences.min() >= 0 and b.sequences.max() < q.vocab_size for b in batches)
        checks["prices_finite"] = all(bool(np.all(np.isfinite(v))) for v in prices)
        checks["kl_below_untrained"] = kl < st.kl_untrained
        return Iteration(price=price, train_s=train_s, steps=p.steps, sample=sample,
                         score_s=score_s,
                         quality={"kl_to_target": kl, "kl_untrained": st.kl_untrained},
                         checks=checks)


# -- diffusion workload ------------------------------------------------------------

@dataclass(frozen=True)
class DiffusionParams:
    temperature: float
    schedule_steps: int
    hidden: int
    n_points: int
    base_steps: int
    n_mc: int
    price_chunk: int                # points per ELBO call
    finetune_steps: int
    n_samples: int
    sample_chunk: int               # points per sampling call
    score_repeats: int


@dataclass
class DiffusionState:
    seed: int
    truth: diffusion.MixtureGroundTruth
    points: np.ndarray
    base: diffusion.DiffusionModel
    target_share: float
    pseudo_gap: float


class DiffusionWorkload:
    def __init__(self, params: DiffusionParams):
        self.params = params

    def setup(self, seed: int) -> DiffusionState:
        p = self.params
        rng = numerics.Rng(seed)
        truth = diffusion.MixtureGroundTruth(
            means=[[-2.0, 0.0], [2.0, 0.0]], stds=[0.25, 0.25], weights=[0.7, 0.3])
        points = truth.sample(p.n_points, rng.stream("data"))
        model = diffusion.DiffusionModel(diffusion.linear_schedule(p.schedule_steps), dim=2,
                                         hidden=p.hidden, rng=rng.stream("init"))
        base, _ = diffusion.train_base(model, points, p.base_steps, rng.stream("base"))
        target = float(truth.scaled_weights(p.temperature)[0])
        # the baseline LHTS must beat: pseudo-temperature sampling of the base
        pseudo = diffusion.sample_ancestral(base, p.n_samples, pseudo_temperature=p.temperature,
                                            rng=rng.stream("pseudo"))
        pseudo_gap = abs(float(np.mean(truth.assign(pseudo) == 0)) - target)
        return DiffusionState(seed, truth, points, base, target, pseudo_gap)

    def iterate(self, st: DiffusionState) -> Iteration:
        p = self.params
        gen = numerics.Rng(st.seed).stream("iteration")

        elbos, price = [], []
        for i in range(0, p.n_points, p.price_chunk):
            chunk = st.points[i:i + p.price_chunk]
            e, dt = _timed(diffusion.elbo_batch, st.base, chunk, gen, n_mc=p.n_mc)
            elbos.append(e)
            price.append((len(chunk), dt))
        elbos = np.concatenate(elbos)
        wb = diffusion.lhts_diffusion_weights(st.base, st.points, p.temperature, elbos=elbos)

        (tuned, _), train_s = _timed(diffusion.finetune_weighted, st.base, st.points,
                                     wb.weights, p.finetune_steps, gen)

        samples, sample = [], []
        for n in _chunks(p.n_samples, p.sample_chunk):
            x, dt = _timed(diffusion.sample_ancestral, tuned, n, rng=gen)
            samples.append(x)
            sample.append((n, dt))
        samples = np.concatenate(samples)

        score_s = []
        for _ in range(p.score_repeats):
            t0 = perf_counter()
            share = float(np.mean(st.truth.assign(samples) == 0))
            gap = abs(share - st.target_share)
            score_s.append(perf_counter() - t0)

        checks = {
            "elbos_finite": bool(np.all(np.isfinite(elbos))),
            "weights_finite_positive": bool(np.all(np.isfinite(wb.weights))
                                            and np.all(wb.weights > 0)),
            "samples_finite": bool(np.all(np.isfinite(samples))),
            "lhts_beats_pseudo_temperature": gap < st.pseudo_gap,
        }
        return Iteration(price=price, train_s=train_s, steps=p.finetune_steps, sample=sample,
                         score_s=score_s,
                         quality={"share": share, "target_share": st.target_share,
                                  "share_gap": gap, "pseudo_share_gap": st.pseudo_gap},
                         checks=checks)


# -- the named workloads -----------------------------------------------------------

FULL = {
    # full-batch training on the enumerated space: the loss-gradient phase is
    # nearly the whole run, so a faster gradient shows here first. Short
    # finetunes give many iterations, so the timed units of every phase are
    # spread over the run (see run.end_to_end)
    "tabular-exact": ARWorkload(ARParams(
        "tabular", vocab_size=4, length=5, temperatures=(0.5,), steps=20,
        learning_rate=1.0, n_samples=50_000, chunk=5_000, score_repeats=20)),
    # minibatches, a temperature embedding, the KL anchor, and sampling,
    # pricing and 2.1M-row enumeration beside the parameter steps
    "linear-tempered": ARWorkload(ARParams(
        "linear", vocab_size=8, length=7, temperatures=(0.5, 0.8, 1.0), steps=15,
        learning_rate=0.1, n_samples=50_000, chunk=5_000, score_repeats=1, n_data=8192,
        batch_size=128, kl_beta=0.1, embedding_width=4)),
    # bypasses both AR models and the tape; ELBO pricing dominates
    "diffusion-mixture": DiffusionWorkload(DiffusionParams(
        temperature=0.5, schedule_steps=50, hidden=64, n_points=2048, base_steps=2000,
        n_mc=16, price_chunk=128, finetune_steps=1000, n_samples=10_000, sample_chunk=1000,
        score_repeats=50)),
}

# the same pipelines at a size that runs in about a second, for the smoke test
TINY = {
    "tabular-exact": ARWorkload(ARParams(
        "tabular", vocab_size=3, length=3, temperatures=(0.5,), steps=3,
        learning_rate=1.0, n_samples=200, chunk=100, score_repeats=2)),
    "linear-tempered": ARWorkload(ARParams(
        "linear", vocab_size=3, length=4, temperatures=(0.5, 1.0), steps=3,
        learning_rate=0.05, n_samples=200, chunk=100, score_repeats=1, n_data=64,
        batch_size=16, kl_beta=0.1, embedding_width=2)),
    "diffusion-mixture": DiffusionWorkload(DiffusionParams(
        temperature=0.5, schedule_steps=5, hidden=8, n_points=64, base_steps=20,
        n_mc=2, price_chunk=32, finetune_steps=5, n_samples=100, sample_chunk=50,
        score_repeats=2)),
}
