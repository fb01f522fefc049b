"""Exact ground truth by enumeration over a finite sequence space.

Builds explicit joint distributions from autoregressive models, scales them
exactly (jointly or per-position), and provides KL / entropy / argmax.
Tables are immutable after construction and safe to share.

Enumeration evaluates each position's conditionals once per distinct
context. A model whose ``window`` attribute is an int declares that its
conditionals read only the last ``window`` tokens of the prefix, so position
i needs V^min(i, window) rows; ``window`` None (or absent) means the whole
prefix, V^i rows.
"""

from __future__ import annotations

import json
import math
import warnings
from typing import Iterator, Sequence

import numpy as np

from .numerics import log_softmax

__all__ = [
    "OracleError",
    "SupportWarning",
    "SequenceSpace",
    "CategoricalTable",
    "enumerate_joint",
    "temperature_scale_exact",
    "myopic_scale_joint",
    "kl_divergence",
    "total_variation",
    "entropy",
    "argmax_joint",
]

ENUMERATION_CAP = 10_000_000


class OracleError(ValueError):
    pass


class SupportWarning(UserWarning):
    """Emitted when a KL query hits a support violation (result is +inf)."""


class SequenceSpace:
    """All length-L sequences over a vocab of size V, in lexicographic order."""

    def __init__(self, vocab_size: int, length: int, cap: int = ENUMERATION_CAP):
        if vocab_size < 1 or length < 1:
            raise OracleError("vocab_size and length must be positive")
        size = vocab_size**length
        if size > cap:
            raise OracleError(
                f"sequence space needs {size} entries but the enumeration cap "
                f"allows {cap}; reduce vocab_size={vocab_size} or length={length}"
            )
        self.vocab_size = vocab_size
        self.length = length
        self.size = size

    def index_of(self, seq: Sequence[int]) -> int:
        idx = 0
        for tok in seq:
            if not 0 <= tok < self.vocab_size:
                raise OracleError(f"token {tok} out of vocab of size {self.vocab_size}")
            idx = idx * self.vocab_size + int(tok)
        return idx

    def sequence_at(self, index: int) -> tuple[int, ...]:
        toks = []
        for _ in range(self.length):
            toks.append(index % self.vocab_size)
            index //= self.vocab_size
        return tuple(reversed(toks))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for i in range(self.size):
            yield self.sequence_at(i)

    def all_sequences(self) -> np.ndarray:
        """(V^L, L) int array, row i = sequence_at(i)."""
        idx = np.arange(self.size)
        cols = []
        for pos in range(self.length - 1, -1, -1):
            cols.append(idx % self.vocab_size)
            idx = idx // self.vocab_size
        return np.stack(cols[::-1], axis=1).astype(np.int64)


class CategoricalTable:
    """Explicit joint over a SequenceSpace, stored as log-probabilities.

    The constructor normalizes; ``log_z`` records the log partition function
    that was divided out (for tables produced by temperature scaling this is
    log Z of the scaled distribution).
    """

    def __init__(self, space: SequenceSpace, log_weights: np.ndarray, normalize: bool = True):
        lw = np.asarray(log_weights, dtype=np.float64)
        if lw.shape != (space.size,):
            raise OracleError(f"expected {space.size} entries, got shape {lw.shape}")
        m = lw.max()
        if np.isnan(m) or m == np.inf:
            raise OracleError("table entries must be finite or -inf")
        if normalize:
            if m == -np.inf:
                raise OracleError("empty support: all entries are -inf")
            # exp(-inf - m) is 0, so -inf entries need no mask
            buf = lw - m
            np.exp(buf, out=buf)
            log_z = m + math.log(buf.sum())
            lw = np.subtract(lw, log_z, out=buf)
        else:
            log_z = 0.0
            lw = lw.view()  # never freeze the caller's array
        lw.flags.writeable = False
        self.space = space
        self.log_probs = lw
        self.log_z = float(log_z)

    @property
    def vocab_size(self) -> int:
        return self.space.vocab_size

    @property
    def length(self) -> int:
        return self.space.length

    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    def log_prob(self, seq: Sequence[int]) -> float:
        return float(self.log_probs[self.space.index_of(seq)])

    # -- serialization (golden-file format) --------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "vocab_size": self.vocab_size,
                "length": self.length,
                "log_probs": self.log_probs.tolist(),
            }
        )

    @staticmethod
    def from_json(doc: str) -> "CategoricalTable":
        d = json.loads(doc)
        space = SequenceSpace(d["vocab_size"], d["length"])
        return CategoricalTable(space, np.array(d["log_probs"], dtype=np.float64), normalize=False)


def _chain_joint(model, length: int | None, t_cond: float | None, cap: int,
                 temperature: float = 1.0) -> CategoricalTable:
    """Chain the model's conditionals over every prefix, breadth first.

    Position i evaluates the conditionals once on the V^c distinct contexts,
    c = min(i, window) (c = i when the model has no window), and broadcasts
    them over the lexicographic prefixes that share those last c tokens.
    Off T = 1 each conditional is rescaled as log p(.|prefix)/T and
    renormalized before chaining; at T = 1 the rows are used untouched.
    """
    length = int(length if length is not None else model.max_length)
    space = SequenceSpace(model.vocab_size, length, cap=cap)
    V = model.vocab_size
    window = getattr(model, "window", None)

    log_joint = np.zeros(1, dtype=np.float64)
    for pos in range(length):
        c = pos if window is None else min(pos, window)
        contexts = np.zeros((V**c, pos), dtype=np.int64)
        if c:
            contexts[:, pos - c:] = SequenceSpace(V, c, cap=cap).all_sequences()
        rows = model.conditional_log_probs_batch(contexts, pos, t_cond=t_cond)
        if temperature != 1.0:
            rows = log_softmax(rows / temperature)
        log_joint = (log_joint.reshape(-1, V**c, 1) + rows).reshape(-1)
    return CategoricalTable(space, log_joint, normalize=False)


def enumerate_joint(model, length: int | None = None, t_cond: float | None = None,
                    cap: int = ENUMERATION_CAP) -> CategoricalTable:
    """Chain-rule enumeration of a model's joint over all sequences.

    The model must expose ``vocab_size`` and
    ``conditional_log_probs_batch(prefixes, position, t_cond)`` returning one
    normalized row of V log-probs per prefix (any autoregressive model here
    does). Entry for x is sum_i log p(x_i | x_<i).

    If the model sets ``window`` to an int, its conditional at position i
    must depend only on the last min(i, window) prefix tokens: it is called
    once per distinct context, with zeros in the earlier columns. ``window``
    None, or no such attribute, means the whole prefix.
    """
    return _chain_joint(model, length, t_cond, cap)


def temperature_scale_exact(table: CategoricalTable, temperature: float) -> CategoricalTable:
    """The temperature-scaled joint: log of p^(1/T), renormalized exactly.

    T = 1 returns an identical table. T <= 0 is rejected; the T -> 0 limit
    object is argmax_joint.
    """
    if temperature <= 0:
        raise OracleError(f"temperature must be positive, got {temperature} "
                          "(the T -> 0 limit is served by argmax_joint)")
    if temperature == 1.0:
        return CategoricalTable(table.space, table.log_probs.copy(), normalize=False)
    scaled = table.log_probs / temperature
    out = CategoricalTable(table.space, scaled, normalize=True)
    return out


def myopic_scale_joint(model, temperature: float, length: int | None = None,
                       t_cond: float | None = None, cap: int = ENUMERATION_CAP) -> CategoricalTable:
    """Joint built from per-position softmax-rescaled conditionals.

    Every conditional is rescaled as log p(.|prefix)/T and renormalized per
    position before chaining. At T = 1 this reproduces enumerate_joint
    entry-for-entry (the rescale is skipped so the arithmetic is identical).
    """
    if temperature <= 0:
        raise OracleError(f"temperature must be positive, got {temperature}")
    return _chain_joint(model, length, t_cond, cap, temperature)


def _check_same_space(p: CategoricalTable, q: CategoricalTable) -> None:
    if p.vocab_size != q.vocab_size or p.length != q.length:
        raise OracleError(
            f"tables live on different spaces: V={p.vocab_size},L={p.length} "
            f"vs V={q.vocab_size},L={q.length}"
        )


def kl_divergence(p: CategoricalTable, q: CategoricalTable) -> float:
    """KL(p || q) = sum_x p(x) (log p(x) - log q(x)), exact.

    If q lacks support somewhere p has mass, the divergence is +inf and a
    SupportWarning names the first offending sequence.
    """
    _check_same_space(p, q)
    lp, lq = p.log_probs, q.log_probs
    # one pass when both tables have full support; -inf entries make it
    # non-finite and take the masked path below
    with np.errstate(invalid="ignore"):
        kl = float(np.exp(lp) @ (lp - lq))
    if math.isfinite(kl):
        return kl
    mass = lp > -np.inf
    bad = mass & (lq == -np.inf)
    if np.any(bad):
        first = int(np.flatnonzero(bad)[0])
        warnings.warn(
            f"support violation: q has zero probability on sequence "
            f"{p.space.sequence_at(first)} where p has mass; KL is +inf",
            SupportWarning,
        )
        return math.inf
    lp, lq = lp[mass], lq[mass]
    return float(np.sum(np.exp(lp) * (lp - lq)))


def total_variation(p: CategoricalTable, q: CategoricalTable) -> float:
    _check_same_space(p, q)
    return 0.5 * float(np.abs(p.probs() - q.probs()).sum())


def entropy(table: CategoricalTable) -> float:
    lp = table.log_probs
    mass = lp > -np.inf
    return float(-np.sum(np.exp(lp[mass]) * lp[mass]))


def argmax_joint(table: CategoricalTable) -> tuple[int, ...]:
    """Most probable sequence; exact ties break to the lexicographically
    smallest (argmax returns the first maximizer in lexicographic order)."""
    return table.space.sequence_at(int(np.argmax(table.log_probs)))
