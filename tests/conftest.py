import os

import numpy as np
import pytest
from hypothesis import settings

from lhts.ar_model import TabularAR
from lhts.numerics import log_softmax

# a failing property prints the @reproduce_failure blob that replays it
settings.register_profile("ci", print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


def tabular(vocab_size: int, max_length: int, conditionals) -> TabularAR:
    """A ``TabularAR`` whose logits are the exact log of the given
    conditionals, one probability row per prefix in the row order of
    ``logits`` (the empty prefix, then each position's prefixes in
    lexicographic order); a 0 becomes a -inf logit."""
    model = TabularAR(vocab_size, max_length)
    with np.errstate(divide="ignore"):
        model.logits = np.log(conditionals)
    return model


@pytest.fixture
def counterexample_model() -> TabularAR:
    """Two-token, two-position model whose joint argmax disagrees with its
    greedy path: p(x0)=[0.6,0.4], p(x1|0)=[0.55,0.45], p(x1|1)=[0.9,0.1],
    the rows of ``tabular`` in that order.
    Joint: 00->0.33, 01->0.27, 10->0.36, 11->0.04."""
    return tabular(2, 2, [[0.6, 0.4], [0.55, 0.45], [0.9, 0.1]])


@pytest.fixture
def uniform_model() -> TabularAR:
    return TabularAR(2, 3)


# -- per-prefix references ---------------------------------------------------
# The models evaluate every context of every position at once
# (``row_logits``) and read each sequence's conditionals from ``row_table``.
# These helpers compute the same quantities one prefix at a time, from each
# model's definition, for the tests to compare against.

def context_ids(tokens, vocab_size: int) -> np.ndarray:
    """Lexicographic id of each row of an (n, c) token array, first token
    most significant: the row order of each position's block of
    ``row_table``."""
    tokens = np.asarray(tokens, dtype=np.int64)
    return tokens @ vocab_size ** np.arange(tokens.shape[1] - 1, -1, -1, dtype=np.int64)


def prefix_logits(model, prefixes, position: int, t_cond=None) -> np.ndarray:
    """Each prefix's next-token logits at ``position``, one (V,) row per
    prefix: a ``TabularAR`` looks its prefix's row up in its table, and a
    ``LinearAR`` evaluates its formula on the prefix's last ``window``
    tokens, adding the terms in the order ``row_logits`` does."""
    prefixes = np.asarray(prefixes, dtype=np.int64)
    if isinstance(model, TabularAR):
        return model.logits[model.row_starts[position] +
                            context_ids(prefixes[:, :position], model.vocab_size)]
    logits = np.tile(model.bias + model.w_pos[:, position], (prefixes.shape[0], 1))
    for j in range(min(model.window, position)):
        logits += model.w_ctx[:, j, prefixes[:, position - 1 - j]].T
    if model.has_embedding:
        logits += model.w_emb @ (model.emb_scale * t_cond + model.emb_bias)
    return logits


def prefix_log_probs(model, prefixes, position: int, t_cond=None) -> np.ndarray:
    """Each prefix's conditional, the log-softmax of ``prefix_logits``."""
    return log_softmax(prefix_logits(model, prefixes, position, t_cond))


def position_rows(model, t_cond=None) -> tuple:
    """Each position's (V^c, V) block of the model's ``row_table``, as
    views: rows [row_starts[i], row_starts[i+1])."""
    table, starts = model.row_table(t_cond), model.row_starts
    return tuple(table[a:b] for a, b in zip(starts, starts[1:]))


def row_after(model, prefix, t_cond=None) -> np.ndarray:
    """The model's conditional after one prefix, read from its row table."""
    prefix = np.asarray(prefix, dtype=np.int64).reshape(1, -1)
    rows = position_rows(model, t_cond)[prefix.shape[1]]
    return rows[context_ids(prefix, model.vocab_size)[0] % rows.shape[0]]


def count_rows(model, monkeypatch) -> list:
    """Record the number of rows of each ``row_logits`` call the model
    makes, in the list returned; a ``row_table`` build makes one call, of
    the model's R = row_starts[-1] rows."""
    counts = []
    inner = model.row_logits

    def counting(t_cond=None):
        rows = inner(t_cond=t_cond)
        counts.append(rows.shape[0])
        return rows

    monkeypatch.setattr(model, "row_logits", counting)
    return counts


def kl_to_base_per_position(base, model, x, t_cond=None) -> float:
    """sum_i KL(base(.|x_<i) || model(.|x_<i)), exact categorical KLs of the
    two models' rows along one sequence."""
    total = 0.0
    for i in range(len(x)):
        lp = row_after(base, x[:i])
        lq = row_after(model, x[:i], t_cond)
        total += float(np.sum(np.exp(lp) * (lp - lq)))
    return total
