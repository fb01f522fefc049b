"""Deterministic numerical substrate: stable log-space arithmetic, the
myopic temperature rescale of conditionals, splittable seeded randomness,
finite-difference gradient verification, ``check_count``, the one check of
a size or count argument, and ``FlatParams``, the one parameter store of
every model.

Everything is 64-bit. Gradients are written in closed form, in the layout
of a model's flat parameter vector, by the modules that own the models;
``finite_difference_gradient`` is the oracle the tests check them against.
"""

from __future__ import annotations

import copy
import math
import zlib
from typing import Callable

import numpy as np

__all__ = [
    "row_max",
    "log_softmax",
    "myopic_rescale",
    "finite_difference_gradient",
    "check_count",
    "FlatParams",
    "Rng",
]


def row_max(z: np.ndarray) -> np.ndarray:
    """The max over the last axis, keeping it as an axis of length 1.

    The rows are reduced on a token-major copy, last axis first. numpy
    reduces a short last axis row by row, a few entries per call of its
    inner loop, while the copy's max is an elementwise maximum of whole
    contiguous rows: on a (512, 8) table of float64, 6-8 us against 44 us
    for ``z.max(axis=-1)`` (numpy 2.4.6, one x86-64 core). A max is exact,
    so the result is the same, a NaN entry included.
    """
    rows = z.reshape(-1, z.shape[-1])
    return rows.T.copy().max(axis=0).reshape(z.shape[:-1] + (1,))


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax over the last axis, with max-subtraction.

    Entries may be -inf (zero mass); a row that is all -inf gives NaN.
    """
    z = np.asarray(z, dtype=np.float64)
    m = row_max(z)
    return z - (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))


def myopic_rescale(rows: np.ndarray, temperature: float) -> np.ndarray:
    """Each row of log-probs as log p^(1/T), renormalized: the law that
    ``ARModel.sample`` draws from and ``oracle.myopic_scale_joint`` chains.

    T = 1 returns ``rows`` itself. Otherwise each row's max is shifted to 0
    before dividing, so a tiny T sends the other entries to -inf, not all.
    """
    if temperature == 1.0:
        return rows
    with np.errstate(over="ignore"):
        return log_softmax((rows - row_max(rows)) / temperature)


def finite_difference_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Central finite differences of a scalar function; the gradient oracle."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    flat = out.ravel()
    xf = x.ravel()
    for j in range(xf.size):
        orig = xf[j]
        xf[j] = orig + eps
        fp = f(x)
        xf[j] = orig - eps
        fm = f(x)
        xf[j] = orig
        flat[j] = (fp - fm) / (2.0 * eps)
    return out


def check_count(name: str, value, minimum: int, error: type[Exception]) -> int:
    """A size or count: an int or numpy integer of at least ``minimum``, as
    an int. Anything else raises the caller's typed ``error`` naming it."""
    # True is an int to Python, but no count
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return int(value)


class FlatParams:
    """A model whose parameters are one flat float64 vector, ``params``.

    A subclass declares its fields once, in ``_layout()``: their names and
    shapes, back to back in vector order, which ``split`` views in any
    parameter-sized vector, the gradient included. Each field is a view of
    ``params`` and is never rebound: ``set_param_array``, assigning to a
    field and in-place updates of ``params`` all write into the one vector.
    A vector or field of the wrong shape, or with a NaN or +inf entry,
    raises the subclass's typed error ``_error``; -inf passes, as the logit
    of a token of zero probability.
    """

    _error: type[Exception] = ValueError
    _fields: tuple[str, ...] = ()  # the attributes that are views of ``params``

    def __init__(self):
        self._bind(np.zeros(sum(math.prod(shape) for _, shape in self._layout())))

    def _layout(self) -> list[tuple[str, tuple[int, ...]]]:
        raise NotImplementedError

    def _bind(self, params: np.ndarray) -> None:
        names = tuple(name for name, _ in self._layout())
        self.__dict__.update(zip(names, self.split(params)), params=params, _fields=names)

    def _checked(self, what: str, value, shape: tuple[int, ...]) -> np.ndarray:
        value = np.asarray(value, dtype=np.float64)
        if value.shape != shape:
            raise self._error(f"{what} has shape {value.shape}, expected {shape}")
        if not np.all(value < np.inf):  # False for NaN and +inf, True for -inf
            raise self._error(f"{what} has a NaN or +inf entry")
        return value

    def __setattr__(self, name: str, value) -> None:
        if name in self._fields:  # write into params, never rebind
            field = self.__dict__[name]
            field[...] = self._checked(name, value, field.shape)
        else:
            super().__setattr__(name, value)

    def split(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views of a parameter-sized vector, one per field of ``_layout``."""
        views, end = [], 0
        for _, shape in self._layout():
            start, end = end, end + math.prod(shape)
            views.append(flat[start:end].reshape(shape))
        return tuple(views)

    @property
    def n_params(self) -> int:
        return self.params.size

    def param_array(self) -> np.ndarray:
        """A copy of the parameter vector."""
        return self.params.copy()

    def set_param_array(self, flat) -> None:
        """Copy ``flat`` into the parameter vector, in place."""
        self.params[...] = self._checked("parameter vector", flat, self.params.shape)

    def copy(self):
        """A shallow copy of the model that holds a fresh parameter vector."""
        out = copy.copy(self)
        out._bind(self.params.copy())
        return out


class Rng:
    """Deterministic splittable RNG keyed by (seed, stream label, counter).

    Identical seeds give identical streams; substreams for different
    (label, counter) pairs are independent. Labels are hashed with crc32 so
    the keying is stable across processes and platforms.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def stream(self, label: str, counter: int = 0) -> np.random.Generator:
        key = zlib.crc32(label.encode("utf-8"))
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(key, int(counter)))
        return np.random.default_rng(seq)

    def child(self, label: str, counter: int = 0) -> "Rng":
        """Derive an independent Rng, e.g. one per sweep cell."""
        key = zlib.crc32(label.encode("utf-8"))
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(key, int(counter)))
        return Rng(int(seq.generate_state(1, np.uint64)[0]))
