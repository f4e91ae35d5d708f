"""Labelset predictors: each distinct label-value combination of a subset
of positions becomes one meta-class of a single multi-class problem.

Predictions are therefore limited to combinations observed in training
(closed world).  A ``SubsetsModel`` partitions the positions and solves one
such problem per subset, optionally chained so each subset sees the earlier
subsets' meta-labels as features.  The label powerset (lp) is the case of a
single subset holding every position.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..base import base_model_from_dict, base_model_to_dict, train_base
from ..core import Dataset, Feature, LabelSchema, LabelVector
from ..rng import derive_rng


def _index_labelsets(rows: list[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Distinct tuples ordered by (frequency desc, first occurrence asc)."""
    ordered = Counter(rows).most_common()  # equal counts keep first-occurrence order
    return [t for t, _ in ordered], [c for _, c in ordered]


@dataclass
class SubsetModel:
    """One powerset problem over a subset of positions."""

    positions: tuple[int, ...]
    labelsets: tuple[tuple[int, ...], ...]
    support_counts: tuple[int, ...]
    classifier: object

    def to_dict(self) -> dict:
        return {
            "positions": list(self.positions),
            "labelsets": [list(t) for t in self.labelsets],
            "support_counts": list(self.support_counts),
            "classifier": base_model_to_dict(self.classifier),
        }

    @staticmethod
    def from_dict(d: dict) -> "SubsetModel":
        return SubsetModel(
            tuple(d["positions"]),
            tuple(tuple(t) for t in d["labelsets"]),
            tuple(d["support_counts"]),
            base_model_from_dict(d["classifier"]),
        )


@dataclass
class SubsetsModel:
    """Disjoint position subsets, each solved as a powerset problem.

    When ``chained``, subsets are solved in order and every later subset sees
    the earlier subsets' meta-label indices as extra categorical features.
    """

    schema: LabelSchema
    features: tuple[Feature, ...]
    partition: tuple[tuple[int, ...], ...]
    sets: tuple[SubsetModel, ...]
    chained: bool

    def __post_init__(self):
        if sorted(p for part in self.partition for p in part) != list(range(self.schema.T)):
            raise ValueError("partition must be disjoint and cover all positions")
        if len(self.sets) != len(self.partition):
            raise ValueError(f"{len(self.sets)} sets for a partition of {len(self.partition)}")
        for part, sub in zip(self.partition, self.sets):
            if tuple(sub.positions) != tuple(part):
                raise ValueError(f"set positions {list(sub.positions)} differ from "
                                 f"partition entry {list(part)}")
            cards = [self.schema.cardinalities[p] for p in part]
            for t in sub.labelsets:
                if len(t) != len(cards) or not all(0 <= v < c for v, c in zip(t, cards)):
                    raise ValueError(f"labelset {list(t)} does not fit positions {list(part)}")
            if sub.classifier.n_classes != len(sub.labelsets):
                raise ValueError(f"classifier of positions {list(part)} has "
                                 f"{sub.classifier.n_classes} classes for "
                                 f"{len(sub.labelsets)} labelsets")
        # per set, its labelsets as an (n_labelsets, size) table
        self._tables = tuple(np.array(sub.labelsets, dtype=np.int64).reshape(
            len(sub.labelsets), len(part)) for part, sub in zip(self.partition, self.sets))
        # column of each position in the set-by-set values
        self._by_position = np.argsort([p for part in self.partition for p in part])

    def predict_many(self, X) -> np.ndarray:
        """(N, T) labelsets of every row, set by set; a chained set sees x
        plus the meta-labels predicted for the earlier sets."""
        X = np.asarray(X, dtype=np.float64)
        vals = []
        for sub, table in zip(self.sets, self._tables):
            meta = sub.classifier.predict_many(X)
            vals.append(table.take(meta, axis=0))
            if self.chained:
                X = np.concatenate([X, meta[:, None]], axis=1)
        return np.concatenate(vals, axis=1).take(self._by_position, axis=1)

    def predict(self, x) -> LabelVector:
        return tuple(self.predict_many(np.asarray(x, dtype=np.float64)[None])[0].tolist())

    def to_dict(self) -> dict:
        return {
            "kind": "subsets",
            "cardinalities": list(self.schema.cardinalities),
            "features": [f.to_dict() for f in self.features],
            "partition": [list(p) for p in self.partition],
            "sets": [s.to_dict() for s in self.sets],
            "chained": self.chained,
        }

    @staticmethod
    def from_dict(d: dict) -> "SubsetsModel":
        return SubsetsModel(
            LabelSchema(tuple(d["cardinalities"])),
            tuple(Feature.from_dict(f) for f in d["features"]),
            tuple(tuple(p) for p in d["partition"]),
            tuple(SubsetModel.from_dict(s) for s in d["sets"]),
            d["chained"],
        )


def _fit_subset(d: Dataset, positions: tuple[int, ...], base: str,
                features: tuple[Feature, ...], X: np.ndarray,
                prune_n: int | None = None) -> tuple[SubsetModel, np.ndarray]:
    """One powerset problem: order the subset's labelsets, optionally keep
    only the ``prune_n`` most frequent (reassigning the other rows, not
    dropping them), and fit the base classifier over the kept ones.  Returns
    the subset model and every row's meta-label."""
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
    return SubsetModel(positions, tuple(kept), tuple(counts), clf), meta


def lp_train(d: Dataset, base: str = "nb", prune_n: int | None = None) -> SubsetsModel:
    """Label powerset: distinct training label vectors become the classes.

    With ``prune_n``, only the ``prune_n`` most frequent vectors are kept and
    the remaining training instances are reassigned (not discarded) to their
    nearest kept vector.
    """
    if d.n == 0:
        raise ValueError("empty training set")
    positions = tuple(range(d.schema.T))
    sub, _ = _fit_subset(d, positions, base, d.features, d.X, prune_n)
    return SubsetsModel(d.schema, d.features, (positions,), (sub,), chained=False)


def rakeld_train(d: Dataset, base: str = "nb", k: int = 3, seed: int = 0,
                 sequential: bool = False) -> SubsetsModel:
    """Disjoint k-labelsets: chunk the positions (a seeded random permutation,
    or consecutive time order when ``sequential``) into ceil(T/k) subsets and
    fit an independent powerset model per subset on x alone."""
    T = d.schema.T
    if not (1 <= k <= T):
        raise ValueError(f"k must be in 1..{T}")
    if sequential:
        positions = list(range(T))
    else:
        positions = [int(p) for p in derive_rng(seed, "rakeld-partition").permutation(T)]
    partition = tuple(tuple(positions[i:i + k]) for i in range(0, T, k))
    sets = tuple(_fit_subset(d, p, base, d.features, d.X)[0] for p in partition)
    return SubsetsModel(d.schema, d.features, partition, sets, chained=False)


def sicl_sizes(T: int, alpha: int) -> list[int]:
    """Subset sizes alpha, 2*alpha, 3*alpha, ... with the last truncated."""
    sizes = []
    while sum(sizes) < T:
        sizes.append(min(alpha * (len(sizes) + 1), T - sum(sizes)))
    return sizes


def sicl_train(d: Dataset, base: str = "nb", alpha: int = 3) -> SubsetsModel:
    """Chained labelsets of increasing size in time order.

    Subset m covers the next alpha*m positions; its features are x plus the
    meta-labels of all earlier subsets (true meta-labels during training,
    predicted ones at inference).
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    sizes = sicl_sizes(d.schema.T, alpha)
    partition = tuple(tuple(range(end - n, end)) for n, end in zip(sizes, accumulate(sizes)))

    sets = []
    features = d.features
    X = d.X
    for positions in partition:
        sub, meta = _fit_subset(d, positions, base, features, X)
        sets.append(sub)
        features = features + (Feature.categorical(len(sub.labelsets), f"set{len(sets) - 1}"),)
        X = np.concatenate([X, meta[:, None].astype(np.float64)], axis=1)
    return SubsetsModel(d.schema, d.features, partition, tuple(sets), chained=True)
