"""Labelset predictors: each distinct label-value combination of a block
of positions becomes one meta-class of a single multi-class problem.

Predictions are therefore limited to combinations observed in training
(closed world).  Each method builds a ``ChainModel`` of labelset steps, one
per block of a partition of the positions: lp is one block of every
position, rakeld k-blocks with no parents, and sicl blocks of growing size
in time order, each of whose steps sees the meta-classes of all earlier
steps as features.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate

import numpy as np

from ..core import Dataset
from ..rng import derive_rng
from .chains import ChainModel, LabelsetTable, chain_train


def _index_labelsets(rows: list[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Distinct tuples ordered by (frequency desc, first occurrence asc)."""
    ordered = Counter(rows).most_common()  # equal counts keep first-occurrence order
    return [t for t, _ in ordered], [c for _, c in ordered]


def _labelset_table(Y: np.ndarray, prune_n: int | None = None) -> LabelsetTable:
    """The labelsets of a block's label columns ``Y``, ordered by (frequency
    desc, first occurrence asc), optionally only the ``prune_n`` most
    frequent: the rows of the others go to their nearest kept labelset
    (``chains._meta_classes``), not dropped."""
    if prune_n is not None and prune_n < 1:
        raise ValueError("prune_n must be >= 1")
    kept, counts = _index_labelsets(list(map(tuple, Y.tolist())))
    return LabelsetTable(tuple(kept[:prune_n]), tuple(counts[:prune_n]))


def _labelset_chain(d: Dataset, base: str, partition, chained: bool,
                    prune_n: int | None = None) -> ChainModel:
    """A chain of one labelset step per block of ``partition``.  When
    ``chained``, each step's parents are the first positions of all earlier
    blocks, so its features are x plus the meta-classes of all earlier
    steps (true ones during training, predicted ones at inference)."""
    if d.n == 0:
        raise ValueError("empty training set")
    tables = [_labelset_table(d.Y[:, list(block)], prune_n) for block in partition]
    parents = [tuple(block[0] for block in partition[:k]) if chained else ()
               for k in range(len(partition))]
    order = tuple(p for block in partition for p in block)
    return chain_train(d, base, order, parents, tables)


def lp_train(d: Dataset, base: str = "nb", prune_n: int | None = None) -> ChainModel:
    """Label powerset: distinct training label vectors become the classes
    of one labelset step.

    With ``prune_n``, only the ``prune_n`` most frequent vectors are kept and
    the remaining training instances are reassigned (not discarded) to their
    nearest kept vector.
    """
    return _labelset_chain(d, base, (tuple(range(d.schema.T)),), False, prune_n)


def rakeld_train(d: Dataset, base: str = "nb", k: int = 3, seed: int = 0,
                 sequential: bool = False) -> ChainModel:
    """Disjoint k-labelsets: chunk the positions (a seeded random permutation,
    or consecutive time order when ``sequential``) into ceil(T/k) blocks and
    fit an independent labelset step per block on x alone."""
    T = d.schema.T
    if not (1 <= k <= T):
        raise ValueError(f"k must be in 1..{T}")
    if sequential:
        positions = list(range(T))
    else:
        positions = [int(p) for p in derive_rng(seed, "rakeld-partition").permutation(T)]
    partition = tuple(tuple(positions[i:i + k]) for i in range(0, T, k))
    return _labelset_chain(d, base, partition, False)


def sicl_sizes(T: int, alpha: int) -> list[int]:
    """Subset sizes alpha, 2*alpha, 3*alpha, ... with the last truncated."""
    sizes = []
    while sum(sizes) < T:
        sizes.append(min(alpha * (len(sizes) + 1), T - sum(sizes)))
    return sizes


def sicl_train(d: Dataset, base: str = "nb", alpha: int = 3) -> ChainModel:
    """Chained labelsets of increasing size in time order.

    Block m covers the next alpha*m positions; its step's features are x
    plus the meta-labels of all earlier steps.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    sizes = sicl_sizes(d.schema.T, alpha)
    partition = tuple(tuple(range(end - n, end)) for n, end in zip(sizes, accumulate(sizes)))
    return _labelset_chain(d, base, partition, True)
