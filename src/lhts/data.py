"""Synthetic data generation and dataset plumbing for the experiments."""

from __future__ import annotations

import numpy as np

from .ar_model import ARModel, TabularAR, tabular_from_table
from .oracle import CategoricalTable, SequenceSpace, enumerate_joint

__all__ = [
    "make_skewed_ground_truth",
    "sample_sequences",
    "enumerated_dataset",
    "shared_prefix_scenario",
]


def make_skewed_ground_truth(vocab_size: int, length: int,
                             rng: np.random.Generator) -> TabularAR:
    """Random tabular model with nonuniform conditionals, its logits drawn
    from N(0, 1.5^2); the data source for the synthetic sequence
    experiments."""
    model = TabularAR(vocab_size, length)
    model.logits[...] = rng.normal(scale=1.5, size=model.logits.shape)
    return model


def sample_sequences(model: ARModel, n: int, rng: np.random.Generator) -> np.ndarray:
    return model.sample(n, myopic_t=1.0, rng=rng).sequences


def enumerated_dataset(model: ARModel) -> tuple[np.ndarray, np.ndarray]:
    """All sequences of the space, weighted by their probability under the
    model: the exact-expectation stand-in for sampling training data from
    the model itself."""
    table = enumerate_joint(model)
    return table.space.all_sequences(), table.probs()


def shared_prefix_scenario(vocab_size: int = 4, length: int = 2,
                           perm: np.ndarray | None = None
                           ) -> tuple[TabularAR, list[tuple[int, ...]], CategoricalTable]:
    """Three designated full sequences at joint probability 0.3 each, the
    remaining 0.1 spread uniformly; two of the three share a first token.

    Returns the tabular model realizing the joint, the three choice
    sequences, and the exact joint table. ``perm`` relabels the vocabulary.
    """
    if vocab_size < 3 or length < 2:
        raise ValueError("scenario needs vocab_size >= 3 and length >= 2")
    space = SequenceSpace(vocab_size, length)
    choices = [
        (0, 1) + (0,) * (length - 2),
        (0, 2) + (0,) * (length - 2),
        (1, 2) + (0,) * (length - 2),
    ]
    if perm is not None:
        perm = np.asarray(perm, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(vocab_size)):
            raise ValueError("perm must be a permutation of the vocabulary")
        choices = [tuple(int(perm[t]) for t in c) for c in choices]
    probs = np.full(space.size, 0.1 / (space.size - 3))
    for c in choices:
        probs[space.index_of(c)] = 0.3
    table = CategoricalTable(space, np.log(probs))
    return tabular_from_table(table), choices, table

