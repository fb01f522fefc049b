"""Exact ground truth by enumeration over a finite sequence space.

Builds explicit joint distributions from autoregressive models, scales them
exactly (jointly or per-position), and provides KL / entropy / argmax.
Tables are immutable after construction and safe to share; scaling at T = 1
shares its source's entries and rows. Whole-table sums (normalization, KL,
entropy) are reduced over blocks of ``_BLOCK`` entries, so their temporaries
stay cache-sized. A table of one block is one pass with one-shot arithmetic;
on larger tables the block sums move a result by a few ulp.

Enumeration reads the model's row table (``ARModel.row_table``): every
position's conditionals once per context, position i's at rows
[row_starts[i], row_starts[i+1]) of one read-only (R, V) array, the
log-softmax of the model's forward. A model whose ``window`` attribute is an
int declares that its conditionals read only the last ``window`` tokens of
the prefix, so position i has V^min(i, window) rows; ``window`` None means
the whole prefix, V^i rows. A context of c tokens has one id in [0, V^c),
its lexicographic index with the first token most significant; the models'
pricing, sampling and loss index the same table by the same encoding.

A table comes in two representations. A *raw* table holds only its V^L
entries. A *chain* table, which enumeration returns for a model with an int
``window`` shorter than L - 1, keeps each position's (V^c, V) block of
conditional log-probs instead, and chains them into its entries only when
``log_probs`` is first read. The joint of such a model, and its
temperature-scaled joint, are order-``window`` Markov chains over those
contexts, so a chain table is scaled by backward messages, and its KL and
entropy are summed by a forward pass over its rows: O(L V^(window+1)) work
instead of V^L. ``ENUMERATION_CAP`` bounds the entries that are built, not
the space: a chain table past it can be scaled and scored, but reading its
``log_probs`` raises, as do ``SequenceSpace.all_sequences``, the raw
constructor and enumerating a whole-prefix model.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Sequence

import numpy as np

from .numerics import _real_or_nan, check_count, myopic_rescale, row_max

__all__ = [
    "OracleError",
    "SupportWarning",
    "SequenceSpace",
    "CategoricalTable",
    "enumerate_joint",
    "temperature_scale_exact",
    "myopic_scale_joint",
    "kl_divergence",
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


def _checked_max(lw: np.ndarray) -> float:
    """max(lw), refusing a NaN or +inf entry."""
    m = lw.max()
    if np.isnan(m) or m == np.inf:
        raise OracleError("table entries must be finite or -inf")
    return m


def _check_cap(space: SequenceSpace) -> None:
    """Refuse to build the entries of a space larger than ENUMERATION_CAP."""
    if space.size > ENUMERATION_CAP:
        raise OracleError(
            f"sequence space needs {space.size} entries but the enumeration cap allows "
            f"{ENUMERATION_CAP}; reduce vocab_size={space.vocab_size} or length={space.length}"
        )


def _log_z(lw: np.ndarray, m: float) -> float:
    """log sum(exp(lw)) given m = max(lw), as m + log sum(exp(lw - m))."""
    if m == -np.inf:
        raise OracleError("empty support: all entries are -inf")
    if m == np.inf:  # p/T can overflow
        raise OracleError("table entries must be finite or -inf")
    # exp(-inf - m) is 0, so -inf entries need no mask
    return m + math.log(_block_sum(lambda b: float(np.exp(b - m).sum()), lw))


def _context_prefixes(ids: np.ndarray, vocab_size: int, c: int, width: int) -> np.ndarray:
    """(len(ids), width) prefixes holding the c tokens of each lexicographic
    context id in the last c columns and zeros before them."""
    out = np.zeros((ids.shape[0], width), dtype=np.int64)
    for col in range(width - 1, width - 1 - c, -1):
        ids, out[:, col] = np.divmod(ids, vocab_size)
    return out


class SequenceSpace:
    """All length-L sequences over a vocab of size V, in lexicographic order.
    A space of any size can be made, and its size and indices are exact
    Python ints; ``all_sequences`` refuses one larger than ENUMERATION_CAP."""

    def __init__(self, vocab_size: int, length: int):
        self.vocab_size = check_count("vocab_size", vocab_size, 1, OracleError)
        self.length = check_count("length", length, 1, OracleError)
        self.size = self.vocab_size**self.length

    def index_of(self, seq: Sequence[int]) -> int:
        toks = np.asarray(seq, dtype=np.int64)
        if toks.shape != (self.length,):
            raise OracleError(f"expected {self.length} tokens, got shape {toks.shape}")
        bad = toks[(toks < 0) | (toks >= self.vocab_size)]
        if bad.size:
            raise OracleError(f"token {bad[0]} out of vocab of size {self.vocab_size}")
        return functools.reduce(lambda i, tok: i * self.vocab_size + tok, toks.tolist(), 0)

    def sequence_at(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise OracleError(f"index {index} out of range for {self.size} sequences")
        seq = []
        for _ in range(self.length):
            index, tok = divmod(index, self.vocab_size)
            seq.append(tok)
        return tuple(reversed(seq))

    def all_sequences(self) -> np.ndarray:
        """(V^L, L) int array, row i = sequence_at(i)."""
        _check_cap(self)
        return _context_prefixes(np.arange(self.size), self.vocab_size, self.length, self.length)


class CategoricalTable:
    """Explicit joint over a SequenceSpace, stored as log-probabilities.

    The constructor normalizes; ``log_z`` records the log partition function
    that was divided out (for tables produced by temperature scaling this is
    log Z of the scaled distribution). It makes a raw table, whose ``rows``
    are None, and refuses a space larger than ENUMERATION_CAP and an entry
    that is NaN or +inf.

    A chain table, made by ``enumerate_joint``, ``myopic_scale_joint`` or
    ``temperature_scale_exact`` from a model with an int ``window`` shorter
    than L - 1, has ``rows``: for each position i one read-only (V^c, V)
    array of conditional log-probs, c = min(i, window), whose row s is the
    conditional after the context of id s. Its entries are the chained
    rows, built when ``log_probs`` is first read (past ENUMERATION_CAP that
    read raises); tables that share rows share one build.
    """

    rows: tuple[np.ndarray, ...] | None = None

    def __init__(self, space: SequenceSpace, log_weights: np.ndarray, normalize: bool = True):
        _check_cap(space)
        lw = np.asarray(log_weights, dtype=np.float64)
        if lw.shape != (space.size,):
            raise OracleError(f"expected {space.size} entries, got shape {lw.shape}")
        m = _checked_max(lw)
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

    @functools.cached_property
    def log_probs(self) -> np.ndarray:
        # only read on a chain table: a raw table stores its entries under
        # this name on construction
        _check_cap(self.space)
        return self.rows.entries

    @property
    def vocab_size(self) -> int:
        return self.space.vocab_size

    @property
    def length(self) -> int:
        return self.space.length

    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)


class _Rows(tuple):
    """A chain table's per-position rows, which build its entries once."""

    @functools.cached_property
    def entries(self) -> np.ndarray:
        entries = functools.reduce(_extend, self, np.zeros(1))
        entries.flags.writeable = False
        return entries


def _extend(log_joint: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Entries of every prefix one token longer: the (V^c, V) conditionals
    ``rows`` added to the lexicographic prefix entries ``log_joint``, whose
    last c tokens pick the row.

    Repeating each prefix entry V times and adding the rows' V^(c+1)
    entries to every block of that many gives the same sums as
    ``log_joint.reshape(-1, V^c, 1) + rows``, in less time.
    """
    out = np.repeat(log_joint, rows.shape[1]).reshape(-1, rows.size)
    out += rows.ravel()
    return out.reshape(-1)


def _chain_joint(model, t_cond: float | None, temperature: float = 1.0) -> CategoricalTable:
    """The model's row table, as a chain table or chained into a raw one.

    The table is rescaled once by ``numerics.myopic_rescale``, which
    ``ARModel.sample`` also draws from; at T = 1 it returns the table
    untouched. A model with an int window shorter than L - 1 gives a chain
    table, which keeps each position's block of the checked read-only table
    and builds no entry. A window of L - 1 or more reads whole prefixes,
    where rows as large as the entries would save no work: each position's
    rows are added at once to the lexicographic prefixes that share their
    last c tokens (``_extend``), giving a raw table.
    """
    length = model.max_length
    space = SequenceSpace(model.vocab_size, length)
    whole_prefix = model.window is None or model.window >= length - 1
    if whole_prefix:
        _check_cap(space)  # before the V^(L-1) contexts are allocated
    starts = model.row_starts
    table = myopic_rescale(model.row_table(t_cond), temperature)
    table.flags.writeable = False  # before the blocks are sliced, so they are read-only too
    rows = [table[a:b] for a, b in zip(starts, starts[1:])]
    if whole_prefix:
        return CategoricalTable(space, functools.reduce(_extend, rows, np.zeros(1)),
                                normalize=False)
    # a chain of finite or -inf rows has finite or -inf entries, so checking
    # the rows checks the entries
    _checked_max(table)
    return _derived_table(space, None, 0.0, _Rows(rows))


def enumerate_joint(model, t_cond: float | None = None) -> CategoricalTable:
    """Chain-rule enumeration of a model's joint over all sequences.

    The model must expose ``vocab_size``, ``max_length`` (the length L of
    the sequences), ``window``, ``row_starts`` and ``row_table(t_cond)``, the
    normalized conditionals of every context it reads, laid out as in an
    ``ar_model.ARModel``. Entry for x is sum_i log p(x_i | x_<i).

    When the window is an int shorter than L - 1 the result is a chain
    table of those rows, whose entries are built only when ``log_probs`` is
    first read. A window of None (the whole prefix) or of L - 1 or more
    gives a raw table, whose entries are built here. Either way a NaN or
    +inf log-prob raises.
    """
    return _chain_joint(model, t_cond)


def temperature_scale_exact(table: CategoricalTable, temperature: float) -> CategoricalTable:
    """The temperature-scaled joint: log of p^(1/T), renormalized exactly.

    T must be positive and finite; the T -> 0 limit object is argmax_joint.
    T = 1 returns a table that shares the source's read-only entries and
    rows. Off T = 1:

    - a chain table gives a chain table, and builds no entry. Backward
      log-messages over the window states,
      log b_i(s) = logsumexp_x [log p(x|s)/T + log b_(i+1)(s')], with s'
      the last c_(i+1) tokens of s followed by x and log b_L = 0, give
      log Z = log b_0 and the target's rows log p(x|s)/T + log b_(i+1)(s')
      - log b_i(s). Its entries are chained from those rows when
      ``log_probs`` is first read.
    - a raw table allocates p/T once, reduces its log Z block by block and
      subtracts it in place.
    """
    if not 0 < _real_or_nan(temperature) < math.inf:
        raise OracleError(f"temperature must be positive and finite, got {temperature!r} "
                          "(the T -> 0 limit is served by argmax_joint)")
    if temperature == 1.0:
        # the source's entries if they are built (a raw table's always are)
        entries = vars(table).get("log_probs")
        return _derived_table(table.space, entries, 0.0, table.rows)
    if table.rows is not None:
        rows, log_z = _scale_rows(table.rows, temperature)
        return _derived_table(table.space, None, log_z, rows)
    scaled = table.log_probs / temperature
    log_z = _log_z(scaled, float(scaled.max()))
    scaled -= log_z
    return _derived_table(table.space, scaled, log_z)


def _scale_rows(rows: tuple[np.ndarray, ...], temperature: float
                ) -> tuple[tuple[np.ndarray, ...], float]:
    """The rows of p^(1/T)/Z and its log Z, by backward log-messages.

    Row s of position i leads, on token x, to the state of id
    (s V + x) mod n, n = V^(c_(i+1)) the next position's count of states.
    s V + x is the flat index of (s, x), and n divides the rows' size, so
    in the rows viewed as (-1, n) each (s, x) sits in the column of its
    next state, and the next messages add along that view's rows.
    """
    log_beta = np.zeros(1)
    scaled = []
    for r in reversed(rows):
        a = r / temperature
        by_next = a.reshape(-1, log_beta.size)
        by_next += log_beta
        m = row_max(a)
        a -= m
        lse = np.log(np.exp(a).sum(axis=1, keepdims=True))
        a -= lse
        a.flags.writeable = False
        scaled.append(a)
        log_beta = (m + lse)[:, 0]
    return _Rows(reversed(scaled)), float(log_beta[0])


def _derived_table(space: SequenceSpace, log_probs: np.ndarray | None, log_z: float,
                   rows: tuple[np.ndarray, ...] | None = None) -> CategoricalTable:
    """Freeze entries or rows derived from checked ones, skipping the
    checks. ``log_probs`` None leaves a chain table's entries to its first
    read."""
    out = object.__new__(CategoricalTable)
    out.space, out.log_z, out.rows = space, log_z, rows
    if log_probs is not None:
        log_probs.flags.writeable = False
        out.log_probs = log_probs
    return out


def myopic_scale_joint(model, temperature: float, t_cond: float | None = None) -> CategoricalTable:
    """Joint built from per-position softmax-rescaled conditionals.

    Every conditional is rescaled as log p(.|prefix)/T and renormalized per
    position before chaining, by ``numerics.myopic_rescale``, which
    ``ARModel.sample(myopic_t=T)`` shares. At T = 1 this reproduces
    enumerate_joint entry-for-entry (the rescale returns the rows untouched).
    Like enumerate_joint, a windowed model gives a chain table of the
    rescaled rows, which builds its entries only when they are first read,
    and a whole-prefix model a raw table.
    """
    if not 0 < _real_or_nan(temperature) < math.inf:
        raise OracleError(f"temperature must be positive and finite, got {temperature!r}")
    return _chain_joint(model, t_cond, temperature)


def _check_same_space(p: CategoricalTable, q: CategoricalTable) -> None:
    if p.vocab_size != q.vocab_size or p.length != q.length:
        raise OracleError(
            f"tables live on different spaces: V={p.vocab_size},L={p.length} "
            f"vs V={q.vocab_size},L={q.length}"
        )


def kl_divergence(p: CategoricalTable, q: CategoricalTable) -> float:
    """KL(p || q) = sum_x p(x) (log p(x) - log q(x)), exact.

    When both are chain tables, one forward pass over p's state marginals
    sums the conditional KLs, reading only rows (``_chain_kl``). Otherwise
    the entries are compared in one pass over blocks b, each summed as
    exp(lp_b) @ (lp_b - lq_b), with no temporary larger than a block,
    building a chain table's entries if they are not built yet (past
    ENUMERATION_CAP that raises). A block whose sum is not finite has a -inf
    entry: it is summed again over the entries where p has mass, so the
    others add nothing. If q lacks support somewhere p has mass, the
    divergence is +inf and a SupportWarning names the first offending
    sequence, on either path.
    """
    _check_same_space(p, q)
    if p.rows is not None and q.rows is not None:
        return _chain_kl(p.rows, q.rows)
    kl = 0.0
    for start, (a, b) in _blocks(p.log_probs, q.log_probs):
        with np.errstate(invalid="ignore"):
            part = float(np.exp(a) @ (a - b))
        if not math.isfinite(part):
            mass = a > -np.inf
            bad = np.flatnonzero(mass & (b == -np.inf))
            if bad.size:
                _warn_support(p.space.sequence_at(start + int(bad[0])))
                return math.inf
            a, b = a[mass], b[mass]
            part = float(np.sum(np.exp(a) * (a - b)))
        kl += part
    return kl


def _warn_support(sequence: tuple[int, ...]) -> None:
    warnings.warn(f"support violation: q has zero probability on sequence {sequence} "
                  "where p has mass; KL is +inf", SupportWarning)


def _chain_kl(p_rows: tuple[np.ndarray, ...], q_rows: tuple[np.ndarray, ...]) -> float:
    """sum_i sum_s mu_i(s) KL(p(.|s) || q(.|s)), mu_i the law of p's state,
    summed over ``_forward``'s per-position arrays. A position whose sum is
    not finite has an entry of no mass (a -inf in p's row) and is summed
    again over the entries of mass; if q is -inf on one of them, the result
    is +inf and a SupportWarning names the first offending sequence
    (``_first_violation``).
    """
    kl = 0.0
    for joint, lp, lq in _forward(p_rows, q_rows):
        with np.errstate(invalid="ignore"):
            diff = lp - lq
            part = float(joint.ravel() @ diff.ravel())
        if not math.isfinite(part):
            mass = joint > 0
            if np.any(np.broadcast_to(lq, mass.shape)[mass] == -np.inf):
                _warn_support(_first_violation(p_rows, q_rows))
                return math.inf
            part = float(joint[mass] @ diff[mass])
        kl += part
    return kl


def _forward(p_rows: tuple[np.ndarray, ...], q_rows: tuple[np.ndarray, ...]):
    """Yield each position's (joint, lp, lq): the mass mu_i(s) p(x|s) of
    each (state s, token x), mu_i the law of p's state, and p's and q's
    rows, all three on p's and q's wider window.

    Position i has S = max(V^c_p, V^c_q) states, and the narrower table,
    of n = min(V^c_p, V^c_q) rows, reads its row s mod n for state s. So
    both tables are read as (-1, n, V) views, the wider one of shape
    (S/n, n, V) and the narrower one (1, n, V), which broadcasts: nothing
    is copied. ``joint`` is (S/n, n, V), its flat index s V + x; its mass
    is carried to the next state, of id (s V + x) mod S_(i+1).
    """
    mu = np.ones(1)
    for lp, lq in zip(p_rows, q_rows):
        n, S = sorted((lp.shape[0], lq.shape[0]))
        V = lp.shape[1]
        lp, lq = lp.reshape(-1, n, V), lq.reshape(-1, n, V)
        mu = mu.reshape(-1, S).sum(axis=0)
        joint = mu.reshape(-1, n, 1) * np.exp(lp)
        yield joint, lp, lq
        mu = joint.ravel()


def _first_violation(p_rows: tuple[np.ndarray, ...],
                     q_rows: tuple[np.ndarray, ...]) -> tuple[int, ...]:
    """The lexicographically first sequence that p's rows give mass and
    q's rows none.

    A backward pass marks each (state, token) of p's mass from which q
    refuses the sequence, at that token or later on a path of p's mass;
    the rows are aligned on states as in ``_forward``. The sequence then
    takes the smallest marked token until q has refused one, and p's
    smallest token of mass after that.
    """
    V = p_rows[0].shape[1]
    marks, ahead = [], np.zeros(1, dtype=bool)
    for lp, lq in zip(reversed(p_rows), reversed(q_rows)):
        n, S = sorted((lp.shape[0], lq.shape[0]))
        # (s, x) leads to the next state (s V + x) mod ahead.size
        ahead = np.broadcast_to(ahead, (S * V // ahead.size, ahead.size)).reshape(-1, n, V)
        marked = (lp.reshape(-1, n, V) > -np.inf) & ((lq.reshape(-1, n, V) == -np.inf) | ahead)
        marks.append(marked.reshape(S, V))
        ahead = marks[-1].any(axis=1)
    sequence, s, done = [], 0, False
    for lp, lq, marked in zip(p_rows, q_rows, reversed(marks)):
        s %= marked.shape[0]
        x = int(np.argmax(lp[s % lp.shape[0]] > -np.inf if done else marked[s]))
        done = done or bool(lq[s % lq.shape[0], x] == -np.inf)
        sequence.append(x)
        s = s * V + x
    return tuple(sequence)


def entropy(table: CategoricalTable) -> float:
    """H(p) = -sum_x p(x) log p(x), exact.

    A chain table's entropy is sum_i sum_s mu_i(s) H(p(.|s)), summed over
    ``_forward``'s per-position arrays (the table aligned with itself), and
    reads no entry. A raw table is summed over blocks of its entries. Either
    way a -inf entry adds nothing.
    """
    if table.rows is not None:
        total = 0.0
        for joint, lp, _ in _forward(table.rows, table.rows):
            with np.errstate(invalid="ignore"):
                part = float(joint.ravel() @ lp.ravel())
            if not math.isfinite(part):
                mass = joint > 0
                part = float(joint[mass] @ lp[mass])
            total += part
        return -total

    def block(a):
        a = a[a > -np.inf]
        return float(np.sum(np.exp(a) * a))

    return -_block_sum(block, table.log_probs)


def argmax_joint(table: CategoricalTable) -> tuple[int, ...]:
    """Most probable sequence; exact ties break to the lexicographically
    smallest (argmax returns the first maximizer in lexicographic order)."""
    return table.space.sequence_at(int(np.argmax(table.log_probs)))
