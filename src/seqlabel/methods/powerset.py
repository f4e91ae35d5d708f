"""Labelset predictors: each distinct label-value combination of a subset
of positions becomes one meta-class of a single multi-class problem.

Predictions are therefore limited to combinations observed in training
(closed world).  A ``SubsetsModel`` partitions the positions and solves one
such problem per subset, optionally chained so each subset sees the earlier
subsets' meta-labels as features.  The label powerset (lp) is the case of a
single subset holding every position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..base import base_model_from_dict, train_base
from ..core import Dataset, Feature, LabelSchema, LabelVector
from ..rng import derive_rng


def _index_labelsets(rows: list[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Distinct tuples ordered by (frequency desc, first occurrence asc)."""
    freq: dict[tuple[int, ...], int] = {}
    first: dict[tuple[int, ...], int] = {}
    for i, t in enumerate(rows):
        if t not in freq:
            freq[t] = 0
            first[t] = i
        freq[t] += 1
    ordered = sorted(freq, key=lambda t: (-freq[t], first[t]))
    return ordered, [freq[t] for t in ordered]


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
            "classifier": self.classifier.to_dict(),
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

    def predict(self, x) -> LabelVector:
        x = np.asarray(x, dtype=np.float64)
        out = [0] * self.schema.T
        metas: list[int] = []
        for sub in self.sets:
            if self.chained and metas:
                xe = np.concatenate([x, np.asarray(metas, dtype=np.float64)])
            else:
                xe = x
            m = sub.classifier.predict(xe)
            metas.append(m)
            for pos, v in zip(sub.positions, sub.labelsets[m]):
                out[pos] = v
        return tuple(out)

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


def _check_partition(partition, T: int) -> None:
    flat = [p for s in partition for p in s]
    if sorted(flat) != list(range(T)):
        raise ValueError("partition must be disjoint and cover all positions")


def _fit_subset(d: Dataset, positions: tuple[int, ...], base: str,
                features: tuple[Feature, ...], X: np.ndarray, prune_n: int | None,
                base_params: dict | None) -> tuple[SubsetModel, np.ndarray]:
    """One powerset problem: order the subset's labelsets, optionally keep
    only the ``prune_n`` most frequent (reassigning the other rows, not
    dropping them), and fit the base classifier over the kept ones.  Returns
    the subset model and every row's meta-label."""
    if prune_n is not None and prune_n < 1:
        raise ValueError("prune_n must be >= 1")
    rows = [tuple(int(y[p]) for p in positions) for _, y in d.instances]
    kept, counts = _index_labelsets(rows)
    if prune_n is not None:
        kept, counts = kept[:prune_n], counts[:prune_n]
    index = {t: i for i, t in enumerate(kept)}

    meta = np.empty(len(rows), dtype=np.int64)
    for i, t in enumerate(rows):
        m = index.get(t)
        if m is None:
            # reassign pruned rows to the nearest kept tuple by Hamming
            # distance; the kept list is already in (frequency, earlier)
            # preference order, so the first strict improvement wins ties
            best_m, best_d = 0, len(t) + 1
            for j, cand in enumerate(kept):
                dist = sum(a != b for a, b in zip(t, cand))
                if dist < best_d:
                    best_m, best_d = j, dist
            m = best_m
        meta[i] = m
    clf = train_base(base, X, meta, len(kept), features, **(base_params or {}))
    return SubsetModel(positions, tuple(kept), tuple(counts), clf), meta


def lp_train(d: Dataset, base: str = "nb", prune_n: int | None = None,
             base_params: dict | None = None) -> SubsetsModel:
    """Label powerset: distinct training label vectors become the classes.

    With ``prune_n``, only the ``prune_n`` most frequent vectors are kept and
    the remaining training instances are reassigned (not discarded) to their
    nearest kept vector.
    """
    if d.n == 0:
        raise ValueError("empty training set")
    positions = tuple(range(d.schema.T))
    sub, _ = _fit_subset(d, positions, base, d.features, d.X, prune_n, base_params)
    return SubsetsModel(d.schema, d.features, (positions,), (sub,), chained=False)


def rakeld_train(d: Dataset, base: str = "nb", k: int = 3, seed: int = 0,
                 sequential: bool = False,
                 base_params: dict | None = None) -> SubsetsModel:
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
    _check_partition(partition, T)
    sets = tuple(_fit_subset(d, p, base, d.features, d.X, None, base_params)[0] for p in partition)
    return SubsetsModel(d.schema, d.features, partition, sets, chained=False)


def sicl_sizes(T: int, alpha: int) -> list[int]:
    """Subset sizes alpha, 2*alpha, 3*alpha, ... with the last truncated."""
    sizes = []
    total = 0
    m = 1
    while total < T:
        size = min(alpha * m, T - total)
        sizes.append(size)
        total += size
        m += 1
    return sizes


def sicl_train(d: Dataset, base: str = "nb", alpha: int = 3,
               base_params: dict | None = None) -> SubsetsModel:
    """Chained labelsets of increasing size in time order.

    Subset m covers the next alpha*m positions; its features are x plus the
    meta-labels of all earlier subsets (true meta-labels during training,
    predicted ones at inference).
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    T = d.schema.T
    sizes = sicl_sizes(T, alpha)
    partition = []
    start = 0
    for size in sizes:
        partition.append(tuple(range(start, start + size)))
        start += size
    partition = tuple(partition)
    _check_partition(partition, T)

    sets = []
    features = d.features
    X = d.X
    for positions in partition:
        sub, meta = _fit_subset(d, positions, base, features, X, None, base_params)
        sets.append(sub)
        features = features + (Feature.categorical(len(sub.labelsets), f"set{len(sets) - 1}"),)
        X = np.concatenate([X, meta[:, None].astype(np.float64)], axis=1)
    return SubsetsModel(d.schema, d.features, partition, tuple(sets), chained=True)
