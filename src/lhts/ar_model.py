"""Trainable autoregressive sequence models.

Two parameterizations: a tabular model with one logit row per prefix (any
joint over the space is representable, so finetuning targets are exactly
realizable), and a compact linear model over windowed one-hot features that
optionally conditions on a scalar temperature through a learned affine
embedding.

Both evaluate with numpy. Each model exposes its raw logits
(``logits_batch``) and maps a gradient wrt those logits back onto its flat
parameter vector in closed form (``param_grad``); the trainer owns the loss.

A model's ``window`` declares which prefix tokens its conditionals read: the
last ``window`` of them, or the whole prefix when it is None. Pricing,
sampling, the trainer's loss and exact enumeration all rely on it: they
evaluate each position's conditionals once per distinct context
(``distinct_contexts``) and gather the rows back to the sequences.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import log_softmax
from .oracle import CategoricalTable, _context_ids, _context_prefixes

__all__ = [
    "ModelError",
    "TemperatureEmbedding",
    "SampleBatch",
    "ARModel",
    "TabularAR",
    "LinearAR",
    "tabular_from_table",
    "kl_to_base_per_position",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_dict",
    "model_from_checkpoint",
]


class ModelError(ValueError):
    pass


@dataclass
class TemperatureEmbedding:
    """Affine map from a scalar temperature to a small feature vector.

    features(T) = scale * T + bias, appended to the conditioning features.
    Zero-initialized with width 4 by default, so a fresh embedding is a no-op.
    """

    width: int = 4
    scale: np.ndarray = field(default=None)
    bias: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.scale is None:
            self.scale = np.zeros(self.width)
        if self.bias is None:
            self.bias = np.zeros(self.width)
        self.scale = np.asarray(self.scale, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)

    def features(self, temperature: float) -> np.ndarray:
        return self.scale * float(temperature) + self.bias

    def copy(self) -> "TemperatureEmbedding":
        return TemperatureEmbedding(self.width, self.scale.copy(), self.bias.copy())


@dataclass
class SampleBatch:
    """Ancestrally sampled sequences plus their log-probs under the
    generating model (unscaled joint, honoring t_cond) and the settings
    used to generate them."""

    sequences: np.ndarray  # (n, L) int
    log_probs: np.ndarray  # (n,)
    myopic_t: float
    t_cond: float | None = None

    def __len__(self) -> int:
        return self.sequences.shape[0]


class ARModel:
    """Shared machinery: chain-rule log-probs and ancestral sampling on top
    of a parameterization-specific batched conditional."""

    vocab_size: int
    max_length: int
    # the conditionals read only the last ``window`` tokens; None means the
    # whole prefix. Pricing, sampling, the loss and enumeration evaluate one
    # row per distinct context and share it between the prefixes that end in it
    window: int | None = None

    # -- to implement ------------------------------------------------------

    def logits_batch(self, prefixes: np.ndarray, position: int,
                     t_cond: float | None = None) -> np.ndarray:
        """Unnormalized next-token logits, one (V,) row per prefix."""
        raise NotImplementedError

    def conditional_log_probs_batch(self, prefixes: np.ndarray, position: int,
                                    t_cond: float | None = None) -> np.ndarray:
        raise NotImplementedError

    def param_grad(self, prefixes: np.ndarray, position: int, g_logits: np.ndarray,
                   t_cond: float | None = None) -> np.ndarray:
        """Chain rule through ``logits_batch``: given dL/dlogits (n, V) for
        these prefixes, dL/dtheta as a flat vector in ``param_array`` order."""
        raise NotImplementedError

    def param_array(self) -> np.ndarray:
        raise NotImplementedError

    def set_param_array(self, flat: np.ndarray) -> None:
        raise NotImplementedError

    def copy(self) -> "ARModel":
        raise NotImplementedError

    # -- common ------------------------------------------------------------

    @property
    def has_embedding(self) -> bool:
        return getattr(self, "embedding", None) is not None

    def _check_t_cond(self, t_cond):
        if self.has_embedding and t_cond is None:
            raise ModelError("this model conditions on a temperature: pass t_cond")
        if not self.has_embedding and t_cond is not None:
            raise ModelError("t_cond given but the model has no temperature embedding")
        if t_cond is not None and not math.isfinite(t_cond):
            raise ModelError(f"t_cond must be finite, got {t_cond}")

    def _check_tokens(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= self.vocab_size):
            raise ModelError(f"token out of vocab of size {self.vocab_size}: {arr}")
        return arr

    def conditional_log_probs(self, prefix, t_cond: float | None = None) -> np.ndarray:
        """Normalized next-token log-probs after the given prefix."""
        prefix = self._check_tokens(prefix)
        if prefix.ndim != 1:
            raise ModelError("prefix must be a 1-D token sequence")
        if len(prefix) >= self.max_length:
            raise ModelError(f"prefix of length {len(prefix)} too long for max_length {self.max_length}")
        return self.conditional_log_probs_batch(prefix[None, :], len(prefix), t_cond=t_cond)[0]

    def per_token_log_probs(self, x, t_cond: float | None = None) -> np.ndarray:
        """u_i = log p(x_i | x_<i) for one sequence."""
        x = self._check_tokens(x)
        return self.per_token_log_probs_matrix(x[None, :], t_cond=t_cond)[0]

    def distinct_contexts(self, prefixes: np.ndarray, position: int) -> tuple[np.ndarray, np.ndarray]:
        """The contexts that occur at ``position`` among the rows of
        ``prefixes``, whose first ``position`` columns hold in-vocab tokens.

        A context is the last c = min(position, window) of those tokens (all
        of them when ``window`` is None). Returns ``reps``, one (position,)
        prefix per context that occurs, in lexicographic order with zeros in
        the columns the model does not read, and ``inverse``, the row of
        ``reps`` for each prefix. Costs O(n + V^c) and does not sort.
        """
        V = self.vocab_size
        c = position if self.window is None else min(position, self.window)
        ids = _context_ids(prefixes[:, position - c:position], V)
        seen = np.zeros(V**c, dtype=bool)
        seen[ids] = True
        present = np.flatnonzero(seen)
        rank = np.empty(V**c, dtype=np.int64)
        rank[present] = np.arange(present.size)
        return _context_prefixes(present, V, c, position), rank[ids]

    def per_token_log_probs_matrix(self, xs: np.ndarray, t_cond: float | None = None) -> np.ndarray:
        """u over a batch: (N, L) matrix of conditional log-probs."""
        xs = self._check_tokens(xs)
        n, length = xs.shape
        if length > self.max_length:
            raise ModelError(f"sequence length {length} exceeds max_length {self.max_length}")
        u = np.empty((n, length))
        for i in range(length):
            reps, inverse = self.distinct_contexts(xs, i)
            rows = self.conditional_log_probs_batch(reps, i, t_cond=t_cond)
            u[:, i] = rows.ravel()[inverse * self.vocab_size + xs[:, i]]
        return u

    def sequence_log_prob(self, x, t_cond: float | None = None) -> float:
        """Chain rule: sum_i log p(x_i | x_<i)."""
        return float(self.per_token_log_probs(x, t_cond=t_cond).sum())

    def sample(self, n: int, myopic_t: float = 1.0, t_cond: float | None = None,
               rng: np.random.Generator | None = None, length: int | None = None) -> SampleBatch:
        """Ancestral sampling, left to right.

        myopic_t rescales each conditional before drawing (0 means exact
        per-position argmax, ties to the smallest token). Otherwise each row
        draws one u = rng.random() per position, and its token is the number
        of entries of its context's CDF that are below u, capped at V-1:
        exact ties u == CDF[k] go to the smaller token, a zero-probability
        token is never drawn, and a u above a CDF whose last entry rounds
        below 1 draws the last token. Recorded log-probs are the model's own
        joint, not the myopically rescaled one.
        """
        if n < 1:
            raise ModelError("need n >= 1 samples")
        if not 0 <= myopic_t < math.inf:
            raise ModelError(f"myopic_t must be finite and >= 0, got {myopic_t}")
        if rng is None:
            raise ModelError("pass an explicit numpy Generator for reproducibility")
        V = self.vocab_size
        length = int(length if length is not None else self.max_length)
        seqs = np.zeros((n, length), dtype=np.int64)
        logp = np.zeros(n)
        for i in range(length):
            reps, inverse = self.distinct_contexts(seqs, i)
            rows = self.conditional_log_probs_batch(reps, i, t_cond=t_cond)
            if myopic_t == 0.0:
                toks = np.argmax(rows, axis=1)[inverse]
            else:
                scaled = log_softmax(rows / myopic_t) if myopic_t != 1.0 else rows
                probs = np.exp(scaled)
                probs /= probs.sum(axis=1, keepdims=True)
                # cum[k] is every context's CDF at token k, for k < V-1; the
                # last entry could only add what the cap at V-1 takes away
                cum = np.empty((V - 1, reps.shape[0]))
                np.cumsum(probs[:, :-1], axis=1, out=cum.T)
                u = rng.random((n, 1))[:, 0]
                toks = np.zeros(n, dtype=np.int64)
                for col in cum:
                    toks += col[inverse] < u
            seqs[:, i] = toks
            logp += rows.ravel()[inverse * V + toks]
        return SampleBatch(seqs, logp, myopic_t=float(myopic_t), t_cond=t_cond)

    @property
    def n_params(self) -> int:
        return self.param_array().size


class TabularAR(ARModel):
    """One logit row per prefix, for every prefix up to length L-1.

    Rows are stored per position: position i holds V^i rows in lexicographic
    prefix order. Rows built from explicit conditionals are kept verbatim
    (``exact_rows``) until the parameters are overwritten by training.
    """

    def __init__(self, vocab_size: int, max_length: int, logits: np.ndarray | None = None,
                 exact_rows: bool = False):
        if vocab_size < 2:
            raise ModelError("need vocab_size >= 2")
        if max_length < 1:
            raise ModelError("need max_length >= 1")
        self.vocab_size = vocab_size
        self.max_length = max_length
        self.offsets = np.zeros(max_length, dtype=np.int64)
        rows = 0
        for i in range(max_length):
            self.offsets[i] = rows
            rows += vocab_size**i
        self.n_rows = rows
        if logits is None:
            logits = np.zeros((rows, vocab_size))
        logits = np.asarray(logits, dtype=np.float64)
        if logits.shape != (rows, vocab_size):
            raise ModelError(f"expected logits of shape {(rows, vocab_size)}, got {logits.shape}")
        self.logits = logits
        self.exact_rows = exact_rows

    @staticmethod
    def from_conditionals(vocab_size: int, max_length: int,
                          conditionals: dict) -> "TabularAR":
        """Build from explicit per-prefix probability vectors.

        Every prefix up to length L-1 must be present; the stored rows are
        the exact log of the given numbers.
        """
        model = TabularAR(vocab_size, max_length)
        seen = 0
        for prefix, probs in conditionals.items():
            row = model._row_index(np.asarray(prefix, dtype=np.int64))
            p = np.asarray(probs, dtype=np.float64)
            if p.shape != (vocab_size,):
                raise ModelError(f"conditional for prefix {prefix} has wrong arity")
            if abs(p.sum() - 1.0) > 1e-9 or np.any(p < 0):
                raise ModelError(f"conditional for prefix {prefix} is not a distribution")
            with np.errstate(divide="ignore"):
                model.logits[row] = np.log(p)
            seen += 1
        if seen != model.n_rows:
            raise ModelError(f"got {seen} conditionals, need one per prefix ({model.n_rows})")
        model.exact_rows = True
        return model

    def _row_index(self, prefix: np.ndarray) -> int:
        idx = 0
        for tok in prefix:
            idx = idx * self.vocab_size + int(tok)
        return int(self.offsets[len(prefix)] + idx)

    def row_indices(self, prefixes: np.ndarray, position: int) -> np.ndarray:
        return self.offsets[position] + _context_ids(prefixes[:, :position], self.vocab_size)

    def logits_batch(self, prefixes, position, t_cond=None):
        self._check_t_cond(t_cond)
        if position >= self.max_length:
            raise ModelError(f"position {position} out of range for max_length {self.max_length}")
        prefixes = np.asarray(prefixes, dtype=np.int64)
        return self.logits[self.row_indices(prefixes, position)]

    def conditional_log_probs_batch(self, prefixes, position, t_cond=None):
        rows = self.logits_batch(prefixes, position, t_cond)
        return rows if self.exact_rows else log_softmax(rows)

    def param_grad(self, prefixes, position, g_logits, t_cond=None):
        grad = np.zeros_like(self.logits)
        rows = self.row_indices(np.asarray(prefixes, dtype=np.int64), position)
        np.add.at(grad, rows, g_logits)
        return grad.ravel()

    def param_array(self) -> np.ndarray:
        return self.logits.ravel().copy()

    def set_param_array(self, flat) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        expected = self.n_rows * self.vocab_size
        if flat.ndim != 1 or flat.size != expected:
            raise ModelError(f"parameter vector has shape {flat.shape}, expected ({expected},)")
        self.logits = flat.reshape(self.n_rows, self.vocab_size).copy()
        self.exact_rows = False

    def copy(self) -> "TabularAR":
        return TabularAR(self.vocab_size, self.max_length, self.logits.copy(),
                         exact_rows=self.exact_rows)


class LinearAR(ARModel):
    """Position-wise logits from windowed one-hot context features plus a
    position one-hot, optionally extended by a temperature embedding:

        logits = bias + W_pos[:, i] + sum_j W_ctx[:, j, x_{i-1-j}] + W_emb @ e(T)

    Zero weights give uniform conditionals.
    """

    def __init__(self, vocab_size: int, max_length: int, window: int = 3,
                 embedding: TemperatureEmbedding | None = None):
        if vocab_size < 2:
            raise ModelError("need vocab_size >= 2")
        if max_length < 1:
            raise ModelError("need max_length >= 1")
        if window < 0:
            raise ModelError("window must be >= 0")
        self.vocab_size = vocab_size
        self.max_length = max_length
        self.window = window
        self.w_ctx = np.zeros((vocab_size, window, vocab_size))
        self.w_pos = np.zeros((vocab_size, max_length))
        self.bias = np.zeros(vocab_size)
        self.embedding = embedding
        self.w_emb = np.zeros((vocab_size, embedding.width)) if embedding else None

    def with_embedding(self, width: int = 4) -> "LinearAR":
        """Copy of this model with a fresh zero-initialized temperature knob."""
        out = LinearAR(self.vocab_size, self.max_length, self.window,
                       embedding=TemperatureEmbedding(width))
        out.w_ctx = self.w_ctx.copy()
        out.w_pos = self.w_pos.copy()
        out.bias = self.bias.copy()
        return out

    def logits_batch(self, prefixes, position, t_cond=None):
        self._check_t_cond(t_cond)
        if position >= self.max_length:
            raise ModelError(f"position {position} out of range for max_length {self.max_length}")
        prefixes = np.asarray(prefixes, dtype=np.int64)
        n = prefixes.shape[0]
        logits = np.tile(self.bias + self.w_pos[:, position], (n, 1))
        for j in range(min(self.window, position)):
            toks = prefixes[:, position - 1 - j]
            logits += self.w_ctx[:, j, toks].T
        if self.embedding is not None:
            logits += self.w_emb @ self.embedding.features(t_cond)
        return logits

    def conditional_log_probs_batch(self, prefixes, position, t_cond=None):
        return log_softmax(self.logits_batch(prefixes, position, t_cond))

    def param_grad(self, prefixes, position, g_logits, t_cond=None):
        prefixes = np.asarray(prefixes, dtype=np.int64)
        g_row = g_logits.sum(axis=0)
        g_ctx = np.zeros_like(self.w_ctx)
        for j in range(min(self.window, position)):
            np.add.at(g_ctx, (slice(None), j, prefixes[:, position - 1 - j]), g_logits.T)
        g_pos = np.zeros_like(self.w_pos)
        g_pos[:, position] = g_row
        parts = [g_ctx.ravel(), g_pos.ravel(), g_row]
        if self.embedding is not None:
            # logits += w_emb @ e with e = scale * T + bias
            g_e = self.w_emb.T @ g_row
            parts += [np.outer(g_row, self.embedding.features(t_cond)).ravel(),
                      g_e * float(t_cond), g_e]
        return np.concatenate(parts)

    # parameter layout: [w_ctx, w_pos, bias, w_emb, emb.scale, emb.bias]
    def param_array(self) -> np.ndarray:
        parts = [self.w_ctx.ravel(), self.w_pos.ravel(), self.bias.ravel()]
        if self.embedding is not None:
            parts += [self.w_emb.ravel(), self.embedding.scale, self.embedding.bias]
        return np.concatenate(parts)

    def set_param_array(self, flat) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        V, w, L = self.vocab_size, self.window, self.max_length
        expected = V * w * V + V * L + V
        if self.embedding is not None:
            expected += (V + 2) * self.embedding.width
        if flat.ndim != 1 or flat.size != expected:
            raise ModelError(f"parameter vector has shape {flat.shape}, expected ({expected},)")
        i = 0
        self.w_ctx = flat[i:i + V * w * V].reshape(V, w, V).copy(); i += V * w * V
        self.w_pos = flat[i:i + V * L].reshape(V, L).copy(); i += V * L
        self.bias = flat[i:i + V].copy(); i += V
        if self.embedding is not None:
            E = self.embedding.width
            self.w_emb = flat[i:i + V * E].reshape(V, E).copy(); i += V * E
            self.embedding.scale = flat[i:i + E].copy(); i += E
            self.embedding.bias = flat[i:i + E].copy(); i += E

    def copy(self) -> "LinearAR":
        out = LinearAR(self.vocab_size, self.max_length, self.window,
                       embedding=self.embedding.copy() if self.embedding else None)
        out.set_param_array(self.param_array())
        return out


def tabular_from_table(table: CategoricalTable) -> TabularAR:
    """Tabular model whose chain-rule conditionals reproduce a joint table.

    Conditionals come from exact marginalization; prefixes with zero mass
    get uniform rows (they are never reached).
    """
    V, L = table.vocab_size, table.length
    model = TabularAR(V, L)
    lp = table.log_probs
    # log-mass of every prefix, level by level
    log_mass = [None] * (L + 1)
    log_mass[L] = lp
    for i in range(L - 1, -1, -1):
        block = log_mass[i + 1].reshape(-1, V)
        m = block.max(axis=1, keepdims=True)
        safe = np.where(m == -np.inf, 0.0, m)
        log_mass[i] = (safe + np.log(np.exp(block - safe).sum(axis=1, keepdims=True)))[:, 0]
        log_mass[i][m[:, 0] == -np.inf] = -np.inf
    for i in range(L):
        parent = log_mass[i]
        child = log_mass[i + 1].reshape(-1, V)
        rows = np.where(parent[:, None] == -np.inf,
                        -np.log(V),
                        child - np.where(parent[:, None] == -np.inf, 0.0, parent[:, None]))
        model.logits[model.offsets[i]:model.offsets[i] + V**i] = rows
    model.exact_rows = True
    return model


def kl_to_base_per_position(base: ARModel, model: ARModel, x,
                            t_cond: float | None = None) -> float:
    """sum_i KL(base(.|x_<i) || model(.|x_<i)), exact categorical KLs."""
    if base.vocab_size != model.vocab_size:
        raise ModelError("models have different vocabularies")
    x = np.asarray(x, dtype=np.int64)
    total = 0.0
    for i in range(len(x)):
        lp = base.conditional_log_probs(x[:i])
        lq = model.conditional_log_probs(x[:i], t_cond=t_cond)
        total += float(np.sum(np.exp(lp) * (lp - lq)))
    return total


# -- checkpoints -----------------------------------------------------------

def checkpoint_dict(model: ARModel, rng_seed: int | None = None) -> dict:
    if isinstance(model, TabularAR):
        return {
            "parameterization": "tabular",
            "vocab_size": model.vocab_size,
            "max_length": model.max_length,
            "window": None,
            "parameters": {"logits": model.logits.ravel().tolist()},
            "embedding": None,
            "exact_rows": model.exact_rows,
            "rng_seed": rng_seed,
        }
    if isinstance(model, LinearAR):
        emb = None
        params = {
            "w_ctx": model.w_ctx.ravel().tolist(),
            "w_pos": model.w_pos.ravel().tolist(),
            "bias": model.bias.ravel().tolist(),
        }
        if model.embedding is not None:
            emb = {
                "width": model.embedding.width,
                "scale": model.embedding.scale.tolist(),
                "bias": model.embedding.bias.tolist(),
            }
            params["w_emb"] = model.w_emb.ravel().tolist()
        return {
            "parameterization": "linear",
            "vocab_size": model.vocab_size,
            "max_length": model.max_length,
            "window": model.window,
            "parameters": params,
            "embedding": emb,
            "rng_seed": rng_seed,
        }
    raise ModelError(f"cannot checkpoint {type(model).__name__}")


def _checkpoint_array(values, shape: tuple, name: str) -> np.ndarray:
    """A checkpoint's flat parameter list as a float64 array of ``shape``."""
    arr = np.array(values, dtype=np.float64)
    if arr.shape != (np.prod(shape),):
        raise ModelError(f"checkpoint field {name!r} has shape {arr.shape}, "
                         f"expected ({np.prod(shape)},)")
    return arr.reshape(shape)


def model_from_checkpoint(doc: dict) -> ARModel:
    kind = doc.get("parameterization")
    V, L = doc["vocab_size"], doc["max_length"]
    if kind == "tabular":
        model = TabularAR(V, L, exact_rows=bool(doc.get("exact_rows", False)))
        model.logits = _checkpoint_array(doc["parameters"]["logits"], model.logits.shape, "logits")
        return model
    if kind == "linear":
        emb = None
        if doc.get("embedding"):
            e = doc["embedding"]
            emb = TemperatureEmbedding(
                e["width"], _checkpoint_array(e["scale"], (e["width"],), "embedding.scale"),
                _checkpoint_array(e["bias"], (e["width"],), "embedding.bias"))
        model = LinearAR(V, L, doc["window"], embedding=emb)
        p = doc["parameters"]
        for name in ("w_ctx", "w_pos", "bias") + (("w_emb",) if emb else ()):
            setattr(model, name, _checkpoint_array(p[name], getattr(model, name).shape, name))
        return model
    raise ModelError(f"unknown parameterization {kind!r}")


def save_checkpoint(model: ARModel, path, rng_seed: int | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(checkpoint_dict(model, rng_seed=rng_seed), fh)


def load_checkpoint(path) -> ARModel:
    with open(path) as fh:
        return model_from_checkpoint(json.load(fh))
