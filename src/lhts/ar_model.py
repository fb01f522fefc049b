"""Trainable autoregressive sequence models.

Two parameterizations: a tabular model with one logit row per prefix (any
joint over the space is representable, so finetuning targets are exactly
realizable), and a compact linear model over windowed one-hot features that
optionally conditions on a scalar temperature through a learned affine
embedding.

A model's ``window`` declares which prefix tokens its conditionals read: the
last ``window`` of them, or the whole prefix when it is None, so position i
has V^c contexts, c = min(i, window). Each model has one forward and one
backward, both in the layout of those contexts: ``row_logits(i, t_cond)``
is the (V^c, V) logits of every context at position i, row s for the
context of id s (``oracle``'s lexicographic encoding), and
``param_grad(g_tables, t_cond)`` maps every position's gradient in that
layout onto the flat vector at once; the trainer owns the loss. Every
model is a ``numerics.FlatParams``: its parameters are one vector,
``params``, whose layout its ``_layout`` declares once, and its fields are
views of it. ``TabularAR``'s vector is its logit table, row-major, and
``LinearAR``'s holds the linear model's fields back to back. Parameters and
gradients both use that layout.

A conditional is always the log-softmax of its logits, so a -inf logit is a
token of zero probability. ``row_tables`` takes that log-softmax of every
position's ``row_logits`` once per parameter state and t_cond, and
pricing, sampling, the trainer's loss and exact enumeration all read those
tables, indexed by each sequence's rolling context id. A row of logits
with no finite max (a NaN, a +inf, or every entry -inf) has no
conditional, and ``row_tables`` refuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import FlatParams, check_count, log_softmax, myopic_rescale, row_max
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
    """Shared machinery: row tables, chain-rule log-probs and ancestral
    sampling on top of a parameterization's ``row_logits`` and their joint
    adjoint ``param_grad``, over the flat vector of ``FlatParams``."""

    _error = ModelError

    vocab_size: int
    max_length: int
    # the conditionals read only the last ``window`` tokens; None means the
    # whole prefix. Pricing, sampling, the loss and enumeration read one row
    # per context from ``row_tables``
    window: int | None = None
    # width of the temperature embedding; None when the model does not
    # condition on a temperature
    embedding_width: int | None = None
    # the last tables ``row_tables`` built, as ((parameter bytes, t_cond), tables)
    _row_cache: tuple | None = None

    # -- to implement ------------------------------------------------------

    def row_logits(self, position: int, t_cond: float | None = None) -> np.ndarray:
        """The forward: unnormalized next-token logits (V^c, V) of every
        context at ``position``, in the row order of ``row_tables``. The
        caller has checked t_cond and the position, as ``row_tables`` does."""
        raise NotImplementedError

    def param_grad(self, g_tables, t_cond: float | None = None) -> np.ndarray:
        """The backward, the adjoint of every position's ``row_logits``:
        given one dL/dlogits per position, (V^c, V) in ``row_tables``'
        layout, dL/dtheta as one new flat vector in ``params`` order."""
        raise NotImplementedError

    # -- common ------------------------------------------------------------

    @property
    def has_embedding(self) -> bool:
        return self.embedding_width is not None

    def _check_t_cond(self, t_cond):
        if self.has_embedding and t_cond is None:
            raise ModelError("this model conditions on a temperature: pass t_cond")
        if not self.has_embedding and t_cond is not None:
            raise ModelError("t_cond given but the model has no temperature embedding")
        if t_cond is not None and not math.isfinite(t_cond):
            raise ModelError(f"t_cond must be finite, got {t_cond}")

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

    def row_tables(self, t_cond: float | None = None) -> tuple[np.ndarray, ...]:
        """Each position's conditionals on every context it reads.

        Position i's table is a read-only (V^c, V) array, the log-softmax of
        ``row_logits(i, t_cond)``: row s is the conditional after the
        context of id s. The model keeps the last set it built, keyed by the
        exact bytes of ``params`` and by t_cond, and builds a new one
        when either differs, however the parameters were changed. A table
        past ``ENUMERATION_CAP`` entries raises ``ModelError`` before
        anything is built, and so does a row of logits with no finite max,
        naming its position.
        """
        self._check_t_cond(t_cond)
        key = (self.params.tobytes(), t_cond)
        if self._row_cache is not None and self._row_cache[0] == key:
            return self._row_cache[1]
        V, L = self.vocab_size, self.max_length
        c = L - 1 if self.window is None else min(L - 1, self.window)
        if V**c * V > ENUMERATION_CAP:
            raise ModelError(
                f"the row table at position {L - 1} needs {V**c * V} entries but "
                f"the enumeration cap allows {ENUMERATION_CAP}; reduce vocab_size={V}, "
                f"window={self.window} or max_length={L}")
        tables = []
        for i in range(L):
            logits = self.row_logits(i, t_cond)
            # before the log-softmax, whose max-subtraction would turn such a
            # row into NaN
            if not np.isfinite(row_max(logits)).all():
                raise ModelError(f"a row of logits at position {i} has no finite max "
                                 "(a NaN, a +inf, or every entry -inf)")
            rows = log_softmax(logits)
            rows.flags.writeable = False
            tables.append(rows)
        self._row_cache = (key, tuple(tables))
        return self._row_cache[1]

    def per_token_log_probs_matrix(self, xs: np.ndarray, t_cond: float | None = None) -> np.ndarray:
        """u over a batch: a new (N, L) matrix of conditional log-probs,
        read from ``row_tables`` by each row's rolling context id."""
        xs = self._check_tokens(xs)
        n, length = xs.shape
        u = np.empty((n, length))
        # flat is s V + x: the context id s, then the token x read after it
        flat = np.zeros(n, dtype=np.int64)
        for i, rows in enumerate(self.row_tables(t_cond)[:length]):
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
        if not 0 <= myopic_t < math.inf:
            raise ModelError(f"myopic_t must be finite and >= 0, got {myopic_t}")
        if rng is None:
            raise ModelError("pass an explicit numpy Generator for reproducibility")
        V = self.vocab_size
        seqs = np.zeros((n, self.max_length), dtype=np.int64)
        logp = np.zeros(n)
        flat = np.zeros(n, dtype=np.int64)
        for i, rows in enumerate(self.row_tables(t_cond)):
            ids = flat % rows.shape[0]
            if myopic_t == 0.0:
                toks = np.argmax(rows, axis=1)[ids]
            else:
                probs = np.exp(myopic_rescale(rows, myopic_t))
                probs /= probs.sum(axis=1, keepdims=True)
                # cum[k] is every context's CDF at token k, for k < V-1; the
                # last entry could only add what the cap at V-1 takes away
                cum = np.empty((V - 1, rows.shape[0]))
                np.cumsum(probs[:, :-1], axis=1, out=cum.T)
                u = rng.random((n, 1))[:, 0]
                toks = np.zeros(n, dtype=np.int64)
                for col in cum:
                    toks += col[ids] < u
            seqs[:, i] = toks
            flat = ids * V + toks
            logp += rows.ravel()[flat]
        return SampleBatch(seqs, logp)


class TabularAR(ARModel):
    """One logit row per prefix, for every prefix up to length L-1.

    Rows are stored per position: position i holds V^i rows in lexicographic
    prefix order, so ``row_logits(i)`` is the table's slice at offsets[i],
    and ``param_grad``, given every position's rows, is those rows back to
    back. A prefix's conditional is the log-softmax of its row; a -inf logit
    stays a token of zero probability.

    A new model has zero logits, uniform conditionals. Any other table is a
    write to ``logits``, which ``FlatParams`` checks, or comes from a joint
    through ``tabular_from_table``.
    """

    def __init__(self, vocab_size: int, max_length: int):
        self.vocab_size = check_count("vocab_size", vocab_size, 2, ModelError)
        self.max_length = check_count("max_length", max_length, 1, ModelError)
        self.offsets = np.zeros(max_length, dtype=np.int64)
        rows = 0
        for i in range(max_length):
            self.offsets[i] = rows
            rows += vocab_size**i
        self.n_rows = rows
        super().__init__()

    def _layout(self):
        return [("logits", (self.n_rows, self.vocab_size))]

    def row_logits(self, position, t_cond=None):
        """A view of the table's V^position rows at ``position``."""
        start = self.offsets[position]
        return self.logits[start:start + self.vocab_size**position]

    def param_grad(self, g_tables, t_cond=None):
        return np.concatenate(g_tables).ravel()


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

    ``row_logits`` evaluates the formula on every context at once by
    broadcasting each w_ctx[:, j] onto the axis of the (V,)*c+(V,) context
    grid that holds the token j+1 places back; ``param_grad``, its adjoint,
    sums every position's gradient over the other axes into one vector.
    """

    def __init__(self, vocab_size: int, max_length: int, window: int = 3,
                 embedding_width: int | None = None):
        self.vocab_size = check_count("vocab_size", vocab_size, 2, ModelError)
        self.max_length = check_count("max_length", max_length, 1, ModelError)
        self.window = check_count("window", window, 0, ModelError)
        self.embedding_width = (None if embedding_width is None else
                                check_count("embedding_width", embedding_width, 1, ModelError))
        super().__init__()

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

    def row_logits(self, position, t_cond=None):
        V, c = self.vocab_size, min(self.window, position)
        logits = np.tile(self.bias + self.w_pos[:, position], (V**c, 1))
        # axis a of the view is the context's token c - a places back
        view = logits.reshape((V,) * c + (V,))
        for j in range(c):
            view += self.w_ctx[:, j].T.reshape((V,) + (1,) * j + (V,))
        if self.has_embedding:
            logits += self.w_emb @ self._features(t_cond)
        return logits

    def param_grad(self, g_tables, t_cond=None):
        grad = np.zeros(self.n_params)
        g_ctx, g_pos, g_bias, *g_emb = self.split(grad)
        for i, g_rows in enumerate(g_tables):
            V, c = self.vocab_size, min(self.window, i)
            # axis a of g is the context's token c - a places back
            g = g_rows.reshape((V,) * c + (V,))
            for j in range(c):
                g_ctx[:, j] += g.sum(axis=tuple(a for a in range(c) if a != c - 1 - j)).T
            g.sum(axis=tuple(range(c)), out=g_pos[:, i])
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
    model = TabularAR(V, L)
    log_mass = table.log_probs
    for i in range(L - 1, -1, -1):
        rows = log_mass.reshape(-1, V)
        log_mass = np.logaddexp.reduce(rows, axis=1)
        model.logits[model.offsets[i]:model.offsets[i] + V**i] = np.where(
            log_mass[:, None] == -np.inf, 0.0, rows)
    return model
