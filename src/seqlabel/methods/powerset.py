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

from ..base import train_base
from ..core import Dataset, Feature
from ..rng import derive_rng
from .chains import ChainModel, LabelsetTable


def _index_labelsets(rows: list[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Distinct tuples ordered by (frequency desc, first occurrence asc)."""
    ordered = Counter(rows).most_common()  # equal counts keep first-occurrence order
    return [t for t, _ in ordered], [c for _, c in ordered]


def _fit_subset(d: Dataset, positions: tuple[int, ...], base: str,
                features: tuple[Feature, ...], X: np.ndarray,
                prune_n: int | None = None) -> tuple[LabelsetTable, object, np.ndarray]:
    """One powerset problem: order the block's labelsets, optionally keep
    only the ``prune_n`` most frequent (reassigning the other rows, not
    dropping them), and fit the base classifier over the kept ones.  Returns
    the labelset table, the classifier and every row's meta-label."""
    if prune_n is not None and prune_n < 1:
        raise ValueError("prune_n must be >= 1")
    Y = d.Y[:, list(positions)]
    rows = list(map(tuple, Y.tolist()))
    kept, counts = _index_labelsets(rows)
    if prune_n is not None:
        kept, counts = kept[:prune_n], counts[:prune_n]
    index = {t: i for i, t in enumerate(kept)}
    meta = np.array([index.get(t, -1) for t in rows], dtype=np.int64)
    # reassign pruned rows to the nearest kept tuple by Hamming distance; the
    # kept list is in (frequency, earlier) preference order, and argmin
    # takes the first of tied ones
    pruned = (meta < 0).nonzero()[0]
    if len(pruned):
        table = np.array(kept, dtype=np.int64)
        meta[pruned] = (Y[pruned, None, :] != table).sum(axis=2).argmin(axis=1)
    clf = train_base(base, X, meta, len(kept), features)
    return LabelsetTable(tuple(kept), tuple(counts)), clf, meta


def _labelset_chain(d: Dataset, base: str, partition, chained: bool,
                    prune_n: int | None = None) -> ChainModel:
    """A chain of one labelset step per block of ``partition``.  When
    ``chained``, each step's features are x plus the meta-labels of all
    earlier steps (true meta-labels during training, predicted ones at
    inference), each parent slot naming its step by the step's first
    position."""
    tables, models, parents = [], [], []
    features, X = d.features, d.X
    for k, positions in enumerate(partition):
        table, clf, meta = _fit_subset(d, positions, base, features, X, prune_n)
        tables.append(table)
        models.append(clf)
        parents.append(tuple(block[0] for block in partition[:k]) if chained else ())
        if chained:
            features = features + (Feature.categorical(len(table.labelsets), f"set{k}"),)
            X = np.concatenate([X, meta[:, None].astype(np.float64)], axis=1)
    order = tuple(p for block in partition for p in block)
    return ChainModel(d.schema, d.features, order, tuple(parents), tuple(models), tuple(tables))


def lp_train(d: Dataset, base: str = "nb", prune_n: int | None = None) -> ChainModel:
    """Label powerset: distinct training label vectors become the classes
    of one labelset step.

    With ``prune_n``, only the ``prune_n`` most frequent vectors are kept and
    the remaining training instances are reassigned (not discarded) to their
    nearest kept vector.
    """
    if d.n == 0:
        raise ValueError("empty training set")
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
