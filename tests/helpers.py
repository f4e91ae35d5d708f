"""Shared test fixtures: lookup-table base models for hand-built chains,
brute-force enumeration oracles, and random dataset construction.

The oracles recompute everything from raw predict_dist outputs so they stay
independent of the decoding paths they check.
"""

from __future__ import annotations

import itertools

import numpy as np

from seqlabel.core import Dataset, Feature, LabelSchema, argmax_lowest
from seqlabel.methods.chains import ChainModel


class TableBase:
    """Base-classifier stand-in: the distribution is a table lookup on the
    trailing label features; the raw input features are ignored."""

    def __init__(self, n_classes: int, n_base: int, table: dict):
        self.n_classes = n_classes
        self.n_base = n_base
        self.table = table

    def predict_dist(self, x) -> np.ndarray:
        key = tuple(int(v) for v in np.asarray(x)[self.n_base:])
        return self.table[key]

    def predict(self, x) -> int:
        return argmax_lowest(self.predict_dist(x))


def random_dist(rng: np.random.Generator, L: int) -> np.ndarray:
    p = rng.random(L) + 0.05
    return p / p.sum()


def random_chain_model(rng: np.random.Generator, mode: str, T: int | None = None,
                       max_L: int = 4, n_base: int = 1) -> ChainModel:
    """A chain over lookup tables with random strictly positive conditionals."""
    if T is None:
        T = int(rng.integers(1, 7))
    cards = tuple(int(rng.integers(2, max_L + 1)) for _ in range(T))
    schema = LabelSchema(cards)
    models = []
    for s in range(T):
        if mode == "all":
            keys = itertools.product(*[range(c) for c in cards[:s]])
        elif mode == "prev" and s > 0:
            keys = itertools.product(range(cards[s - 1]))
        else:
            keys = [()]
        table = {tuple(k): random_dist(rng, cards[s]) for k in keys}
        models.append(TableBase(cards[s], n_base, table))
    features = tuple(Feature.numeric(f"x{j}") for j in range(n_base))
    order = tuple(range(T))
    parents = {"independent": [()] * T,
               "prev": [order[s - 1:s] for s in range(T)],
               "all": [order[:s] for s in range(T)]}[mode]
    return ChainModel(schema, features, order, tuple(parents), tuple(models))


def enumerate_chain_best(m: ChainModel, x) -> tuple[tuple[int, ...], float]:
    """Brute-force MAP: walk every label combination, multiplying the raw
    per-step distributions (no shared plumbing with the decoders)."""
    x = np.asarray(x, dtype=np.float64)
    D = len(m.features)
    cards = [m.schema.cardinalities[p] for p in m.order]
    best_path = None
    best_p = -1.0
    for combo in itertools.product(*[range(c) for c in cards]):
        p = 1.0
        for s in range(len(cards)):
            extras = tuple(combo[m.order.index(p)] for p in m.parents[s])
            xe = np.concatenate([x, np.asarray(extras, dtype=np.float64)])
            p *= float(m.models[s].predict_dist(xe)[combo[s]])
        if p > best_p:
            best_p = p
            best_path = combo
    out = [0] * len(cards)
    for s, pos in enumerate(m.order):
        out[pos] = best_path[s]
    return tuple(out), best_p


def enumerate_chain_paths(m: ChainModel, x):
    """All (label vector, probability) pairs, same independent computation."""
    x = np.asarray(x, dtype=np.float64)
    cards = [m.schema.cardinalities[p] for p in m.order]
    for combo in itertools.product(*[range(c) for c in cards]):
        p = 1.0
        for s in range(len(cards)):
            extras = tuple(combo[m.order.index(p)] for p in m.parents[s])
            xe = np.concatenate([x, np.asarray(extras, dtype=np.float64)])
            p *= float(m.models[s].predict_dist(xe)[combo[s]])
        out = [0] * len(cards)
        for s, pos in enumerate(m.order):
            out[pos] = combo[s]
        yield tuple(out), p


def random_dataset(rng: np.random.Generator, n: int = 40, T: int = 3,
                   max_L: int = 3, n_num: int = 2, n_cat: int = 1,
                   cover_all_values: bool = True, name: str = "toy") -> Dataset:
    """Random dataset with mildly label-correlated features; optionally
    resamples until every label value occurs at least once."""
    cards = tuple(int(rng.integers(2, max_L + 1)) for _ in range(T))
    schema = LabelSchema(cards)
    features = tuple(Feature.numeric(f"n{j}") for j in range(n_num)) + tuple(
        Feature.categorical(3, f"c{j}") for j in range(n_cat))
    for _ in range(200):
        Y = np.stack([rng.integers(0, c, size=n) for c in cards], axis=1)
        if not cover_all_values or all(
                len(np.unique(Y[:, t])) == cards[t] for t in range(T)):
            break
    instances = []
    for i in range(n):
        num = tuple(float(rng.normal(loc=Y[i, 0])) for _ in range(n_num))
        cat = tuple(int(rng.integers(0, 3)) for _ in range(n_cat))
        instances.append((num + cat, tuple(int(v) for v in Y[i])))
    return Dataset(schema, features, instances, name=name)
