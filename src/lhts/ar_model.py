"""Trainable autoregressive sequence models.

Two parameterizations: a tabular model with one logit row per prefix (any
joint over the space is representable, so finetuning targets are exactly
realizable), and a compact linear model over windowed one-hot features that
optionally conditions on a scalar temperature through a learned affine
embedding.

A model's ``window`` declares which prefix tokens its conditionals read: the
last ``window`` of them, or the whole prefix when it is None, so position i
has V^c contexts, c = min(i, window). ``row_starts`` lays them out once:
position i's rows are [row_starts[i], row_starts[i+1]) of an (R, V) row
array, row s for the context of id s (``oracle``'s lexicographic encoding).
Each model has one forward, ``row_logits(t_cond)``, the (R, V) logits of
every context, and one backward, ``param_grad(g, t_cond)``, which maps an
(R, V) gradient onto the flat vector; the trainer owns the loss. Every model
is a ``numerics.FlatParams``: one vector, ``params``, laid out once by its
``_layout``, of which its fields are views: ``TabularAR``'s (R, V) logit
table, or ``LinearAR``'s fields back to back. Gradients use that layout.

A conditional is always the log-softmax of its logits, so a -inf logit is a
token of zero probability. ``row_table`` takes it once per parameter state
and t_cond, one read-only (R, V) array: pricing, sampling, the trainer's loss
and exact enumeration do their row-wise work once on it, and walk each
sequence's rolling context id s along the positions, to row row_starts[i] + s.
A row of logits with no finite max (a NaN, a +inf, or every entry -inf) has
no conditional, and ``row_table`` refuses it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import FlatParams, _real_or_nan, check_count, log_softmax, myopic_rescale
from .oracle import ENUMERATION_CAP, CategoricalTable

__all__ = [
    "ModelError",
    "SampleBatch",
    "ARModel",
    "TabularAR",
    "LinearAR",
    "tabular_from_table",
]


class ModelError(ValueError):
    pass


@dataclass
class SampleBatch:
    """Ancestrally sampled sequences plus their log-probs under the
    generating model (unscaled joint, honoring t_cond)."""

    sequences: np.ndarray  # (n, L) int
    log_probs: np.ndarray  # (n,)

    def __len__(self) -> int:
        return self.sequences.shape[0]


class ARModel(FlatParams):
    """Shared machinery: the row layout, the row table, chain-rule log-probs
    and ancestral sampling on top of a parameterization's ``row_logits`` and
    its adjoint ``param_grad``, over the flat vector of ``FlatParams``."""

    _error = ModelError

    vocab_size: int
    max_length: int
    # the conditionals read only the last ``window`` tokens; None means the
    # whole prefix. Pricing, sampling, the loss and enumeration read one row
    # per context from ``row_table``
    window: int | None = None
    # width of the temperature embedding; None when the model does not
    # condition on a temperature
    embedding_width: int | None = None
    # the last table ``row_table`` built, as ((parameter bytes, t_cond), table)
    _row_cache: tuple | None = None

    def __init__(self, vocab_size: int, max_length: int):
        self.vocab_size = check_count("vocab_size", vocab_size, 2, ModelError)
        self.max_length = check_count("max_length", max_length, 1, ModelError)
        super().__init__()

    # -- to implement ------------------------------------------------------

    def row_logits(self, t_cond: float | None = None) -> np.ndarray:
        """The forward: unnormalized next-token logits (R, V) of every
        context of every position, in the layout of ``row_starts``. The
        caller has checked t_cond, as ``row_table`` does."""
        raise NotImplementedError

    def param_grad(self, g: np.ndarray, t_cond: float | None = None) -> np.ndarray:
        """The backward, the adjoint of ``row_logits``: given dL/dlogits as
        one (R, V) array in the layout of ``row_starts``, dL/dtheta as one
        new flat vector in ``params`` order."""
        raise NotImplementedError

    # -- common ------------------------------------------------------------

    @property
    def row_starts(self) -> tuple[int, ...]:
        """L+1 offsets, each position's first row in every (R, V) row array."""
        V, w = self.vocab_size, self.window
        return tuple(itertools.accumulate(
            (V ** (i if w is None else min(i, w)) for i in range(self.max_length)), initial=0))

    @property
    def has_embedding(self) -> bool:
        return self.embedding_width is not None

    def _check_t_cond(self, t_cond):
        if self.has_embedding and t_cond is None:
            raise ModelError("this model conditions on a temperature: pass t_cond")
        if not self.has_embedding and t_cond is not None:
            raise ModelError("t_cond given but the model has no temperature embedding")
        if t_cond is not None and not math.isfinite(_real_or_nan(t_cond)):
            raise ModelError(f"t_cond must be finite, got {t_cond!r}")

    def _check_tokens(self, x) -> np.ndarray:
        """A batch of sequences as a 2-D int64 array of in-vocab tokens, no
        longer than ``max_length``; a shorter batch is a batch of prefixes."""
        tokens = np.asarray(x)
        if tokens.ndim != 2:
            raise ModelError(f"tokens must be a 2-D batch of sequences, got shape {tokens.shape}")
        if tokens.shape[1] > self.max_length:
            raise ModelError(f"sequence length {tokens.shape[1]} exceeds max_length "
                             f"{self.max_length}")
        if tokens.dtype != np.int64:
            with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, caught below
                cast = tokens.astype(np.int64)
            if not np.array_equal(cast, tokens):
                raise ModelError(f"tokens must be integers: {tokens}")
            tokens = cast
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.vocab_size):
            raise ModelError(f"token out of vocab of size {self.vocab_size}: {tokens}")
        return tokens

    def row_table(self, t_cond: float | None = None) -> np.ndarray:
        """The read-only (R, V) log-softmax of ``row_logits(t_cond)``: row
        row_starts[i] + s is the conditional at position i after the context
        of id s. The model keeps the last table it built, keyed by the exact
        bytes of ``params`` and by t_cond, and builds a new one when either
        differs, however the parameters were changed. A position past
        ``ENUMERATION_CAP`` entries raises ``ModelError`` before anything is
        built, and so does a row of logits with no finite max, naming its
        position.
        """
        self._check_t_cond(t_cond)
        key = (self.params.tobytes(), t_cond)
        if self._row_cache is not None and self._row_cache[0] == key:
            return self._row_cache[1]
        V, L, starts = self.vocab_size, self.max_length, self.row_starts
        entries = (starts[L] - starts[L - 1]) * V
        if entries > ENUMERATION_CAP:
            raise ModelError(f"the row table at position {L - 1} needs {entries} entries but "
                             f"the enumeration cap allows {ENUMERATION_CAP}; reduce "
                             f"vocab_size={V}, window={self.window} or max_length={L}")
        with np.errstate(invalid="ignore"):  # caught below
            table = log_softmax(self.row_logits(t_cond))
        # a row's log-normalizer is NaN, and so is its first entry, exactly
        # when the row has no finite max
        bad = np.isnan(table[:, 0])
        if bad.any():
            i = np.searchsorted(starts, bad.argmax(), side="right") - 1
            raise ModelError(f"a row of logits at position {i} has no finite max "
                             "(a NaN, a +inf, or every entry -inf)")
        table.flags.writeable = False
        self._row_cache = (key, table)
        return table

    def per_token_log_probs_matrix(self, xs: np.ndarray, t_cond: float | None = None) -> np.ndarray:
        """u over a batch: a new (N, L) matrix of conditional log-probs,
        read from ``row_table`` by each row's rolling context id."""
        xs = self._check_tokens(xs)
        n, length = xs.shape
        table, starts = self.row_table(t_cond), self.row_starts
        u = np.empty((n, length))
        # flat is s V + x: the context id s, then the token x read after it
        flat = np.zeros(n, dtype=np.int64)
        for i in range(length):
            rows = table[starts[i]:starts[i + 1]]
            flat = flat % rows.shape[0] * self.vocab_size + xs[:, i]
            u[:, i] = rows.ravel()[flat]
        return u

    def sample(self, n: int, myopic_t: float = 1.0, t_cond: float | None = None,
               rng: np.random.Generator | None = None) -> SampleBatch:
        """Ancestral sampling, left to right.

        myopic_t rescales each conditional by ``numerics.myopic_rescale``
        before drawing, as ``oracle.myopic_scale_joint`` does (0 means exact
        per-position argmax, ties to the smallest token). Otherwise each row
        draws one u = rng.random() per position, and its token is the number
        of entries of its context's CDF that are below u, capped at V-1:
        exact ties u == CDF[k] go to the smaller token, a zero-probability
        token is never drawn, and a u above a CDF whose last entry rounds
        below 1 draws the last token. Recorded log-probs are the model's own
        joint, not the myopically rescaled one.
        """
        n = check_count("n", n, 1, ModelError)
        if not 0 <= _real_or_nan(myopic_t) < math.inf:
            raise ModelError(f"myopic_t must be finite and >= 0, got {myopic_t!r}")
        if rng is None:
            raise ModelError("pass an explicit numpy Generator for reproducibility")
        V, starts, table = self.vocab_size, self.row_starts, self.row_table(t_cond)
        if myopic_t == 0.0:
            best = np.argmax(table, axis=1)
        else:
            probs = np.exp(myopic_rescale(table, myopic_t))
            probs /= probs.sum(axis=1, keepdims=True)
            # cum[k] is every row's CDF at token k, for k < V-1; the last
            # entry could only add what the cap at V-1 takes away
            cum = np.empty((V - 1, table.shape[0]))
            np.cumsum(probs[:, :-1], axis=1, out=cum.T)
        seqs = np.zeros((n, self.max_length), dtype=np.int64)
        logp = np.zeros(n)
        flat = np.zeros(n, dtype=np.int64)
        for i in range(self.max_length):
            ids = flat % (starts[i + 1] - starts[i])
            rows = ids + starts[i]
            if myopic_t == 0.0:
                toks = best[rows]
            else:
                u = rng.random((n, 1))[:, 0]
                toks = np.zeros(n, dtype=np.int64)
                for col in cum:
                    toks += col[rows] < u
            seqs[:, i] = toks
            flat = ids * V + toks
            logp += table.ravel()[starts[i] * V + flat]
        return SampleBatch(seqs, logp)


class TabularAR(ARModel):
    """One logit row per prefix, for every prefix up to length L-1.

    The table is the (R, V) row array of ``row_starts``, position i's V^i
    rows in lexicographic prefix order: ``row_logits`` is the table itself,
    and ``param_grad`` a flat copy of its gradient. A -inf logit stays a
    token of zero probability.

    A new model has zero logits, uniform conditionals. Any other table is a
    write to ``logits``, which ``FlatParams`` checks, or comes from a joint
    through ``tabular_from_table``.
    """

    def _layout(self):
        return [("logits", (self.row_starts[-1], self.vocab_size))]

    def row_logits(self, t_cond=None):
        return self.logits

    def param_grad(self, g, t_cond=None):
        return g.flatten()


class LinearAR(ARModel):
    """Position-wise logits from windowed one-hot context features plus a
    position one-hot, optionally extended by an affine temperature embedding
    e(T) = emb_scale * T + emb_bias of width ``embedding_width``:

        logits = bias + w_pos[:, i] + sum_j w_ctx[:, j, x_{i-1-j}] + w_emb @ e(T)

    At any width the embedding adds a per-token affine function of T,
    w_emb (emb_scale T + emb_bias) = (w_emb emb_scale) T + w_emb emb_bias,
    the same at every position and context; a wider embedding adds no
    capacity.

    The fields w_ctx (V, window, V), w_pos (V, L), bias (V,) and, with an
    embedding of width E, w_emb (V, E), emb_scale (E,) and emb_bias (E,)
    are views of the flat vector ``params``, back to back in this order;
    ``param_grad`` returns its gradient in the same layout. Zero weights
    give uniform conditionals, and a zero embedding adds nothing.

    ``row_logits`` fills each position's block of the (R, V) logits by
    broadcasting each w_ctx[:, j] onto the axis of the block's (V,)*c+(V,)
    context grid that holds the token j+1 places back; ``param_grad``, its
    adjoint, sums each block of the gradient over the other axes.
    """

    def __init__(self, vocab_size: int, max_length: int, window: int = 3,
                 embedding_width: int | None = None):
        self.window = check_count("window", window, 0, ModelError)
        self.embedding_width = (None if embedding_width is None else
                                check_count("embedding_width", embedding_width, 1, ModelError))
        super().__init__(vocab_size, max_length)

    def _layout(self):
        V, E = self.vocab_size, self.embedding_width
        layout = [("w_ctx", (V, self.window, V)), ("w_pos", (V, self.max_length)), ("bias", (V,))]
        if E is not None:
            layout += [("w_emb", (V, E)), ("emb_scale", (E,)), ("emb_bias", (E,))]
        return layout

    def with_embedding(self, width: int = 4) -> "LinearAR":
        """Copy of this model with a fresh temperature knob, e(T) = T.

        w_emb starts at 0, so the copy's conditionals equal this model's at
        every T until it is trained. emb_scale starts at 1: with emb_scale
        and emb_bias at 0 as well, every embedding gradient would be 0 and
        the knob would never move.
        """
        out = LinearAR(self.vocab_size, self.max_length, self.window, embedding_width=width)
        out.w_ctx, out.w_pos, out.bias = self.w_ctx, self.w_pos, self.bias
        out.emb_scale[...] = 1.0
        return out

    def _features(self, t_cond: float) -> np.ndarray:
        return self.emb_scale * float(t_cond) + self.emb_bias

    def row_logits(self, t_cond=None):
        V, starts = self.vocab_size, self.row_starts
        logits = np.empty((starts[-1], V))
        for i in range(self.max_length):
            c = min(self.window, i)
            # axis a of the view is the context's token c - a places back
            view = logits[starts[i]:starts[i + 1]].reshape((V,) * c + (V,))
            view[...] = self.bias + self.w_pos[:, i]
            for j in range(c):
                view += self.w_ctx[:, j].T.reshape((V,) + (1,) * j + (V,))
        if self.has_embedding:
            logits += self.w_emb @ self._features(t_cond)
        return logits

    def param_grad(self, g, t_cond=None):
        V, starts = self.vocab_size, self.row_starts
        grad = np.zeros(self.n_params)
        g_ctx, g_pos, g_bias, *g_emb = self.split(grad)
        for i in range(self.max_length):
            c = min(self.window, i)
            view = g[starts[i]:starts[i + 1]].reshape((V,) * c + (V,))
            for j in range(c):
                g_ctx[:, j] += view.sum(axis=tuple(a for a in range(c) if a != c - 1 - j)).T
            view.sum(axis=tuple(range(c)), out=g_pos[:, i])
            g_bias += g_pos[:, i]
        if g_emb:
            # logits += w_emb @ e, e = emb_scale * T + emb_bias, at every position
            g_w_emb, g_scale, g_e = g_emb
            np.outer(g_bias, self._features(t_cond), out=g_w_emb)
            np.matmul(self.w_emb.T, g_bias, out=g_e)
            np.multiply(g_e, float(t_cond), out=g_scale)
        return grad


def tabular_from_table(table: CategoricalTable) -> TabularAR:
    """Tabular model whose chain-rule conditionals reproduce a joint table.

    A prefix's logits are the log-masses of its one-token extensions, so its
    conditional, their log-softmax, is exact marginalization; a prefix with
    zero mass gets zero logits, a uniform row (it is never reached). The
    sampler and ``myopic_scale_joint`` rescale the conditionals with one
    ``numerics.myopic_rescale``.
    """
    V, L = table.vocab_size, table.length
    model, blocks = TabularAR(V, L), []
    log_mass = table.log_probs
    for _ in range(L):  # the last position's rows first
        rows = log_mass.reshape(-1, V)
        log_mass = np.logaddexp.reduce(rows, axis=1)
        blocks.append(np.where(log_mass[:, None] == -np.inf, 0.0, rows))
    model.logits = np.concatenate(blocks[::-1])
    return model
