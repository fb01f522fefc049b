"""Which lhts functions the tracer wraps, and how spans become metrics.

A span is named ``<module>.<function>`` or ``<module>.<Class>.<method>``.
Per-layer metrics are per pipeline iteration: totals over the spans inside
the benchmark's ``bench.iteration`` regions divided by the number of traced
iterations. ``data.build_s`` is per set-up instead, since the data is built
there. bench/README.md maps each metric to the end-to-end metric it should
move.
"""

from __future__ import annotations

import inspect
import statistics

from lhts import ar_model, data, diffusion, numerics, oracle, trainer
from tracer import SpanIndex, Target

MODULES = (numerics, ar_model, oracle, trainer, data, diffusion)
SETUP = "bench.setup"
ITERATION = "bench.iteration"

# Methods at layer boundaries. Public methods called once per token or per
# scalar (the tape's arithmetic, ``tape_logit_ids``) are left unwrapped: a
# wrapper there would cost more than the work it measures. A name missing
# from the code is skipped, so the tracer outlives a refactor that deletes it.
METHODS = {
    numerics: {"Tape": ("grad",)},
    ar_model: {
        "ARModel": ("per_token_log_probs_matrix", "sample"),
        "TabularAR": ("conditional_log_probs_batch", "param_array", "set_param_array",
                      "make_leaves"),
        "LinearAR": ("conditional_log_probs_batch", "param_array", "set_param_array",
                     "make_leaves"),
    },
    diffusion: {"DenoiserMLP": ("forward",)},
}


def _rows_shape(result) -> dict:
    return {"rows": result.shape[0]}


def _rows_len(result) -> dict:
    return {"rows": len(result)}


def _rows_space(result) -> dict:
    return {"rows": result.space.size}


def _weights(result) -> dict:
    w = result.weights.ravel()
    return {"ess": float(w.sum() ** 2 / (w.size * (w * w).sum())), "clip_rate": result.clip_rate}


PROBES = {
    "numerics.Tape.grad": _rows_len,
    "ar_model.TabularAR.conditional_log_probs_batch": _rows_shape,
    "ar_model.LinearAR.conditional_log_probs_batch": _rows_shape,
    "ar_model.ARModel.sample": _rows_len,
    "oracle.enumerate_joint": _rows_space,
    "oracle.myopic_scale_joint": _rows_space,
    "diffusion.DenoiserMLP.forward": _rows_shape,
    "trainer.ar_weights": _weights,
    "diffusion.lhts_diffusion_weights": _weights,
}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def layer_targets() -> list[Target]:
    """Every public function the six modules define, plus ``METHODS``."""
    targets = []
    for mod in MODULES:
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                name = f"{_short(mod)}.{attr}"
                targets.append(Target(mod, attr, name, PROBES.get(name)))
        for cls_name, methods in METHODS.get(mod, {}).items():
            cls = getattr(mod, cls_name, None)
            for meth in methods:
                if cls is not None and inspect.isfunction(vars(cls).get(meth)):
                    name = f"{_short(mod)}.{cls_name}.{meth}"
                    targets.append(Target(cls, meth, name, PROBES.get(name)))
    return targets


# A training step runs from one step's start to the next; the last one ends
# with the training call. The step thus includes the loop's minibatch draw.
STEP_LOOPS = {"trainer.train": "trainer.lhts_step",
              "diffusion.finetune_weighted": "diffusion.weighted_noise_loss"}


def step_targets() -> list[Target]:
    """The only wrappers of an untraced run: the step boundaries."""
    return [Target(mod, fn, f"{_short(mod)}.{fn}")
            for mod, fn in ((trainer, "train"), (trainer, "lhts_step"),
                            (diffusion, "finetune_weighted"), (diffusion, "weighted_noise_loss"))]


def step_durations(spans) -> list[float]:
    ix = SpanIndex(spans)
    out = []
    for i, s in enumerate(spans):
        step = STEP_LOOPS.get(s.name)
        if step is None or not ix.has_ancestor(i, {ITERATION}):
            continue
        bounds = [spans[c].start for c in ix.children[i] if spans[c].name == step] + [s.end]
        out += [b - a for a, b in zip(bounds[:-1], bounds[1:])]
    return out


WEIGHTS = {"trainer.suffix_log_liks_matrix", "trainer.suffix_log_liks",
           "trainer.apply_horizon", "trainer.ar_weights", "trainer.joint_weights"}
UPDATE = {f"ar_model.{c}.{m}" for c in ("TabularAR", "LinearAR")
          for m in ("param_array", "set_param_array")}
COND = {"ar_model.TabularAR.conditional_log_probs_batch",
        "ar_model.LinearAR.conditional_log_probs_batch"}
ELBO = {"diffusion.elbo_batch", "diffusion.elbo", "diffusion.elbo_draws"}


def layer_metrics(spans, iterations: int, setups: int, overhead_frac: float) -> dict:
    ix = SpanIndex(spans)

    def t(*names, inside=None):
        return ix.total(set(names), ITERATION, inside=inside) / iterations

    def rows(*names):
        return sum(s.data["rows"] for s in ix.select(set(names), ITERATION)) / iterations

    def mean_of(name, key):
        vals = [s.data[key] for s in ix.select({name}, ITERATION)]
        return statistics.fmean(vals) if vals else 0.0

    data_fns = {t.name for t in layer_targets() if t.owner is data}
    return {
        "trainer.step_s": t("trainer.lhts_step"),
        "trainer.loss_grad_s": ix.self_time({"trainer.lhts_step"}, ITERATION,
                                            minus=WEIGHTS | UPDATE) / iterations,
        "trainer.loss_build_s": t("trainer.weighted_nll_loss_node"),
        "numerics.grad_s": t("numerics.Tape.grad"),
        "numerics.tape_nodes": rows("numerics.Tape.grad"),
        "trainer.weights_s": t(*WEIGHTS),
        "ar_model.price_s": t("ar_model.ARModel.per_token_log_probs_matrix"),
        "ar_model.cond_calls": len(ix.select(COND, ITERATION)) / iterations,
        "ar_model.cond_rows": rows(*COND),
        "ar_model.cond_s": t(*COND),
        "trainer.update_s": t(*UPDATE, inside="trainer.lhts_step"),
        "ar_model.sample_s": t("ar_model.ARModel.sample"),
        "ar_model.sampled_seqs": rows("ar_model.ARModel.sample"),
        "oracle.enumerate_s": t("oracle.enumerate_joint", "oracle.myopic_scale_joint"),
        "oracle.enumerated_rows": rows("oracle.enumerate_joint", "oracle.myopic_scale_joint"),
        "oracle.scale_s": t("oracle.temperature_scale_exact"),
        "oracle.kl_s": t("oracle.kl_divergence"),
        "data.build_s": ix.total(data_fns, SETUP) / setups,
        "diffusion.elbo_s": t(*ELBO),
        "diffusion.forward_s": t("diffusion.DenoiserMLP.forward"),
        "diffusion.mlp_rows": rows("diffusion.DenoiserMLP.forward"),
        "diffusion.loss_grad_s": t("diffusion.weighted_noise_loss"),
        "diffusion.update_s": ix.self_time({"diffusion.finetune_weighted"}, ITERATION,
                                           minus={"diffusion.weighted_noise_loss"}) / iterations,
        "diffusion.sample_s": t("diffusion.sample_ancestral"),
        "trace.overhead_frac": overhead_frac,
        "trainer.ess_frac": mean_of("trainer.ar_weights", "ess"),
        "trainer.clip_rate": mean_of("trainer.ar_weights", "clip_rate"),
        "diffusion.ess_frac": mean_of("diffusion.lhts_diffusion_weights", "ess"),
    }


def span_summary(spans) -> list[dict]:
    """Calls, inclusive and self time per span name, largest self time first."""
    ix = SpanIndex(spans)
    agg: dict[str, list] = {}
    for i, s in enumerate(spans):
        a = agg.setdefault(s.name, [0, 0.0, 0.0])
        a[0] += 1
        if not ix.has_ancestor(i, {s.name}):
            a[1] += s.duration
        a[2] += s.duration - ix.covered(i)
    rows = [{"name": k, "calls": c, "total_s": tot, "self_s": own}
            for k, (c, tot, own) in agg.items()]
    return sorted(rows, key=lambda r: -r["self_s"])
