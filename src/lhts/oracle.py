"""Exact ground truth by enumeration over a finite sequence space.

Builds explicit joint distributions from autoregressive models, scales them
exactly (jointly or per-position), and provides KL / entropy / argmax.
Tables are immutable after construction and safe to share; scaling at T = 1
shares its source's entries. Whole-table sums (normalization, KL, entropy,
total variation) are reduced over blocks of ``_BLOCK`` entries, so their
temporaries stay cache-sized. A table of one block is one pass with one-shot
arithmetic; on larger tables the block sums move a result by a few ulp.

Enumeration evaluates each position's conditionals once per distinct
context. A model whose ``window`` attribute is an int declares that its
conditionals read only the last ``window`` tokens of the prefix, so position
i needs V^min(i, window) rows; ``window`` None (or absent) means the whole
prefix, V^i rows. A context of c tokens has one id in [0, V^c), its
lexicographic index with the first token most significant; the models'
pricing, sampling and loss (``ARModel.distinct_contexts``) use the same
encoding.
"""

from __future__ import annotations

import json
import math
import warnings
from typing import Sequence

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

# 2^15 float64 (256 KB) keeps a block's temporaries in L2; on 2^21-entry
# tables 2^14-2^17 all ran 2-3x faster than one-shot, and 2^15 was fastest.
_BLOCK = 1 << 15


class OracleError(ValueError):
    pass


class SupportWarning(UserWarning):
    """Emitted when a KL query hits a support violation (result is +inf)."""


def _blocks(*tables: np.ndarray):
    """(start, views) for each block of ``_BLOCK`` entries of the tables."""
    for start in range(0, tables[0].size, _BLOCK):
        block = slice(start, start + _BLOCK)
        yield start, [t[block] for t in tables]


def _block_sum(fn, *tables: np.ndarray) -> float:
    """sum_b fn(*(t[b] for t in tables)) over blocks b of ``_BLOCK`` entries."""
    total = 0.0
    for _, views in _blocks(*tables):
        total += fn(*views)
    return total


def _log_z(lw: np.ndarray, m: float) -> float:
    """log sum(exp(lw)) given m = max(lw), as m + log sum(exp(lw - m))."""
    if m == -np.inf:
        raise OracleError("empty support: all entries are -inf")
    if m == np.inf:  # p/T can overflow
        raise OracleError("table entries must be finite or -inf")
    # exp(-inf - m) is 0, so -inf entries need no mask
    return m + math.log(_block_sum(lambda b: float(np.exp(b - m).sum()), lw))


def _context_ids(tokens: np.ndarray, vocab_size: int) -> np.ndarray:
    """Lexicographic id of each row of a (n, c) token array, in [0, V^c)."""
    ids = np.zeros(tokens.shape[0], dtype=np.int64)
    for col in range(tokens.shape[1]):
        ids = ids * vocab_size + tokens[:, col]
    return ids


def _context_prefixes(ids: np.ndarray, vocab_size: int, c: int, width: int) -> np.ndarray:
    """Inverse of ``_context_ids``: (len(ids), width) prefixes holding each
    id's c tokens in the last c columns and zeros before them."""
    out = np.zeros((ids.shape[0], width), dtype=np.int64)
    for col in range(width - 1, width - 1 - c, -1):
        ids, out[:, col] = np.divmod(ids, vocab_size)
    return out


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

    def all_sequences(self) -> np.ndarray:
        """(V^L, L) int array, row i = sequence_at(i)."""
        return _context_prefixes(np.arange(self.size), self.vocab_size, self.length, self.length)


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
            log_z = _log_z(lw, m)
            lw = lw - log_z
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
        contexts = _context_prefixes(np.arange(V**c), V, c, pos)
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

    T must be positive and finite; the T -> 0 limit object is argmax_joint.
    T = 1 returns a table that shares the source's read-only entries. Any
    other T allocates p/T once, reduces its log Z block by block and
    subtracts it in place.
    """
    if not 0 < temperature < math.inf:
        raise OracleError(f"temperature must be positive and finite, got {temperature} "
                          "(the T -> 0 limit is served by argmax_joint)")
    if temperature == 1.0:
        return _derived_table(table.space, table.log_probs, 0.0)
    scaled = table.log_probs / temperature
    log_z = _log_z(scaled, float(scaled.max()))
    scaled -= log_z
    return _derived_table(table.space, scaled, log_z)


def _derived_table(space: SequenceSpace, log_probs: np.ndarray, log_z: float) -> CategoricalTable:
    """Freeze entries derived from a checked table, skipping the checks."""
    out = object.__new__(CategoricalTable)
    log_probs.flags.writeable = False
    out.space, out.log_probs, out.log_z = space, log_probs, log_z
    return out


def myopic_scale_joint(model, temperature: float, length: int | None = None,
                       t_cond: float | None = None, cap: int = ENUMERATION_CAP) -> CategoricalTable:
    """Joint built from per-position softmax-rescaled conditionals.

    Every conditional is rescaled as log p(.|prefix)/T and renormalized per
    position before chaining. At T = 1 this reproduces enumerate_joint
    entry-for-entry (the rescale is skipped so the arithmetic is identical).
    """
    if not 0 < temperature < math.inf:
        raise OracleError(f"temperature must be positive and finite, got {temperature}")
    return _chain_joint(model, length, t_cond, cap, temperature)


def _check_same_space(p: CategoricalTable, q: CategoricalTable) -> None:
    if p.vocab_size != q.vocab_size or p.length != q.length:
        raise OracleError(
            f"tables live on different spaces: V={p.vocab_size},L={p.length} "
            f"vs V={q.vocab_size},L={q.length}"
        )


def kl_divergence(p: CategoricalTable, q: CategoricalTable) -> float:
    """KL(p || q) = sum_x p(x) (log p(x) - log q(x)), exact.

    Summed over blocks b as exp(lp_b) @ (lp_b - lq_b), with no temporary
    larger than a block. Entries where p has no mass add nothing; the
    support check and that masked sum run block by block too. If q lacks
    support somewhere p has mass, the divergence is +inf and a
    SupportWarning names the first offending sequence.
    """
    _check_same_space(p, q)
    lp, lq = p.log_probs, q.log_probs
    # one pass when both tables have full support; -inf entries make it
    # non-finite and take the masked path below
    with np.errstate(invalid="ignore"):
        kl = _block_sum(lambda a, b: float(np.exp(a) @ (a - b)), lp, lq)
    if math.isfinite(kl):
        return kl
    for start, (a, b) in _blocks(lp, lq):
        bad = np.flatnonzero((a > -np.inf) & (b == -np.inf))
        if bad.size:
            warnings.warn(
                f"support violation: q has zero probability on sequence "
                f"{p.space.sequence_at(start + int(bad[0]))} where p has mass; KL is +inf",
                SupportWarning,
            )
            return math.inf

    def masked(a, b):
        mass = a > -np.inf
        a, b = a[mass], b[mass]
        return float(np.sum(np.exp(a) * (a - b)))

    return _block_sum(masked, lp, lq)


def total_variation(p: CategoricalTable, q: CategoricalTable) -> float:
    _check_same_space(p, q)
    return 0.5 * _block_sum(lambda a, b: float(np.abs(np.exp(a) - np.exp(b)).sum()),
                            p.log_probs, q.log_probs)


def entropy(table: CategoricalTable) -> float:
    def block(a):
        a = a[a > -np.inf]
        return float(np.sum(np.exp(a) * a))

    return -_block_sum(block, table.log_probs)


def argmax_joint(table: CategoricalTable) -> tuple[int, ...]:
    """Most probable sequence; exact ties break to the lexicographically
    smallest (argmax returns the first maximizer in lexicographic order)."""
    return table.space.sequence_at(int(np.argmax(table.log_probs)))
