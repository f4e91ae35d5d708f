"""Shared test fixtures: lookup-table base models for hand-built chains,
brute-force enumeration oracles, scalar reference decoders, and random
dataset construction.

The oracles recompute everything from raw predict_dist outputs so they stay
independent of the decoding paths they check.  The reference decoders are
the scalar greedy loop, the set-by-set labelset loop, the one-call-per-row
Viterbi table and the sequential Monte-Carlo loop that the batched decoders
must reproduce exactly.  ``reference_dt_train`` is the recursive tree fit
that re-sorts every numeric column at every node; the presorted fit must
grow the same trees.
"""

from __future__ import annotations

import itertools

import numpy as np

from seqlabel.base import GAIN_EPS, DecisionTreeModel, DTNode, _check_training
from seqlabel.core import Dataset, Feature, LabelSchema, argmax_lowest
from seqlabel.methods.chains import ChainModel
from seqlabel.rng import derive_rng, digest_array


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

    def predict_dist_many(self, X, owner=None, codes=None) -> np.ndarray:
        X = np.asarray(X) if owner is None else np.asarray(X)[owner]
        X = X if codes is None else np.concatenate([X, codes], axis=1)
        return np.stack([self.predict_dist(x) for x in X])

    def predict_many(self, X, owner=None, codes=None) -> np.ndarray:
        """The argmax of each row's distribution, the lowest index on ties."""
        return self.predict_dist_many(X, owner, codes).argmax(axis=1)

    def predict_dist_checked(self, x, owner=None, codes=None) -> np.ndarray:
        return self.predict_dist_many(x.values, owner, codes)

    def predict_checked(self, x, owner=None, codes=None) -> np.ndarray:
        return self.predict_many(x.values, owner, codes)

    @property
    def row_cells(self) -> int:
        return self.n_classes

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
    """Brute-force MAP: walk every combination of the steps' meta-classes,
    multiplying the raw per-step distributions, and read the best one's
    label values from the steps' tables (no shared plumbing with the
    decoders)."""
    x = np.asarray(x, dtype=np.float64)
    step_of = {p: s for s, positions in enumerate(m.positions) for p in positions}
    cards = [model.n_classes for model in m.models]
    best_path = None
    best_p = -1.0
    for combo in itertools.product(*[range(c) for c in cards]):
        p = 1.0
        for s in range(len(cards)):
            extras = tuple(combo[step_of[q]] for q in m.parents[s])
            xe = np.concatenate([x, np.asarray(extras, dtype=np.float64)])
            p *= float(m.models[s].predict_dist(xe)[combo[s]])
        if p > best_p:
            best_p = p
            best_path = combo
    out = [0] * m.schema.T
    for s, (positions, table) in enumerate(zip(m.positions, m.tables)):
        values = (best_path[s],) if table is None else table.labelsets[best_path[s]]
        for p, v in zip(positions, values):
            out[p] = v
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


def reference_greedy(m: ChainModel, x) -> tuple[int, ...]:
    """Greedy forward decoding as one scalar loop: per chain step, one
    predict_dist call on x followed by the values of the step's parents."""
    x = np.asarray(x, dtype=np.float64)
    vals: list[int] = []
    for s in range(m.schema.T):
        extras = [vals[m.order.index(p)] for p in m.parents[s]]
        dist = m.models[s].predict_dist(np.concatenate([x, np.asarray(extras, dtype=float)]))
        vals.append(argmax_lowest(dist))
    out = [0] * m.schema.T
    for s, pos in enumerate(m.order):
        out[pos] = vals[s]
    return tuple(out)


def reference_labelsets(m: ChainModel, x) -> tuple[int, ...]:
    """Labelset decoding set by set, as one loop: each step's classifier
    ``predict_many`` on x followed by the meta-labels of the steps that
    predict its parent positions, and the values of the step's positions
    read from its labelset of that meta-label."""
    x = np.asarray(x, dtype=np.float64)
    step_of = {p: s for s, positions in enumerate(m.positions) for p in positions}
    metas: list[int] = []
    out = [0] * m.schema.T
    for s, (positions, table) in enumerate(zip(m.positions, m.tables)):
        extras = np.asarray([metas[step_of[p]] for p in m.parents[s]], dtype=float)
        meta = int(m.models[s].predict_many(np.concatenate([x, extras])[None])[0])
        metas.append(meta)
        for p, v in zip(positions, table.labelsets[meta]):
            out[p] = v
    return tuple(out)


def reference_viterbi_table(m: ChainModel, x) -> tuple[list, list]:
    """(delta, psi) of a first-order chain, filling each transition matrix
    one scalar predict_dist call per previous meta-class."""
    x = np.asarray(x, dtype=np.float64)
    cards = [model.n_classes for model in m.models]
    delta = [m.models[0].predict_dist(x)]
    psi = [np.zeros(cards[0], dtype=np.int64)]
    for s in range(1, len(cards)):
        trans = np.stack([m.models[s].predict_dist(np.append(x, float(i)))
                          for i in range(cards[s - 1])])
        scores = delta[s - 1][:, None] * trans
        back = np.argmax(scores, axis=0)
        delta.append(scores[back, np.arange(cards[s])])
        psi.append(back)
    return delta, psi


def reference_pcc(m: ChainModel, x, M: int, seed: int) -> tuple[int, ...]:
    """Monte-Carlo chain search as one sequential loop: the greedy path,
    then M samples drawn one scalar uniform at a time from the
    ``(seed, "pcc-samples", digest)`` stream, each replacing the best
    candidate only when strictly more probable.  Distributions come from
    scalar predict_dist calls, memoized per prefix."""
    x = np.asarray(x, dtype=np.float64)
    T = len(m.models)
    cache: dict = {}

    def dist_at(prefix: tuple) -> tuple[np.ndarray, np.ndarray]:
        if prefix not in cache:
            d = m.models[len(prefix)].predict_dist(np.concatenate([x, np.asarray(prefix, float)]))
            cache[prefix] = (d, np.cumsum(d))
        return cache[prefix]

    best: list[int] = []
    best_score = 1.0
    for _ in range(T):
        dist, _ = dist_at(tuple(best))
        v = argmax_lowest(dist)
        best_score *= float(dist[v])
        best.append(v)
    best_vals = tuple(best)
    rng = derive_rng(seed, "pcc-samples", digest_array(x))
    for _ in range(M):
        prefix: list[int] = []
        score = 1.0
        for _ in range(T):
            dist, cum = dist_at(tuple(prefix))
            v = min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")),
                    len(dist) - 1)
            score *= float(dist[v])
            prefix.append(v)
        if score > best_score:
            best_score = score
            best_vals = tuple(prefix)
    return m.by_position(best_vals)


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


# ---------------------------------------------------------------------------
# reference decision-tree fit


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def _entropy_rows(counts: np.ndarray) -> np.ndarray:
    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(totals > 0, counts / totals, 0.0)
        logs = np.where(p > 0, np.log(p), 0.0)
    return -(p * logs).sum(axis=1)


def _best_numeric_split(vals: np.ndarray, y: np.ndarray, n_classes: int, node_entropy: float):
    """Best (gain, threshold) over midpoints; ties resolve to the lowest threshold."""
    order = np.argsort(vals, kind="stable")
    sv = vals[order]
    sy = y[order]
    boundaries = np.nonzero(sv[1:] != sv[:-1])[0]
    if boundaries.size == 0:
        return None
    onehot = np.zeros((len(sy), n_classes))
    onehot[np.arange(len(sy)), sy] = 1.0
    cum = np.cumsum(onehot, axis=0)
    total = cum[-1]
    left = cum[boundaries]
    right = total - left
    nl = left.sum(axis=1)
    nr = right.sum(axis=1)
    n = len(sy)
    gains = node_entropy - (nl / n) * _entropy_rows(left) - (nr / n) * _entropy_rows(right)
    best = int(np.argmax(gains))  # first max = lowest threshold
    thr = (sv[boundaries[best]] + sv[boundaries[best] + 1]) / 2.0
    return float(gains[best]), float(thr)


def _grow(X: np.ndarray, y: np.ndarray, n_classes: int, features, used_cat: frozenset,
          depth: int, min_leaf: int, max_depth: int | None) -> DTNode:
    counts = np.bincount(y, minlength=n_classes)
    node = DTNode(counts=tuple(int(c) for c in counts))
    n = len(y)
    impure = int((counts > 0).sum()) > 1
    if not impure or n < 2 * min_leaf or (max_depth is not None and depth >= max_depth):
        return node
    node_entropy = _entropy(counts.astype(np.float64))

    best_gain = -1.0
    best_j = -1
    best_split = None  # ("cat", groups) | ("num", threshold)
    fallback = None    # lowest-index feature that partitions at all
    for j, feat in enumerate(features):
        if feat.kind == "categorical":
            if j in used_cat:
                continue
            codes = X[:, j].astype(np.int64)
            uniq = np.unique(codes)
            if uniq.size < 2:
                continue
            child_entropy = 0.0
            for v in uniq:
                mask = codes == v
                child_entropy += (mask.sum() / n) * _entropy(
                    np.bincount(y[mask], minlength=n_classes).astype(np.float64))
            gain = node_entropy - child_entropy
            split = ("cat", None)
        else:
            res = _best_numeric_split(X[:, j], y, n_classes, node_entropy)
            if res is None:
                continue
            gain, thr = res
            split = ("num", thr)
        if fallback is None:
            fallback = (j, split)
        if gain > best_gain:
            best_gain, best_j, best_split = gain, j, split

    if best_j < 0:
        return node  # nothing partitions the data
    if best_gain < GAIN_EPS:
        # zero-gain but impure: split anyway on the lowest-index usable feature,
        # so conjunctive (XOR-like) structure between features can still be found
        best_j, best_split = fallback

    node.feature = best_j
    if best_split[0] == "cat":
        codes = X[:, best_j].astype(np.int64)
        node.children = {}
        for v in np.unique(codes):
            mask = codes == v
            node.children[int(v)] = _grow(
                X[mask], y[mask], n_classes, features, used_cat | {best_j},
                depth + 1, min_leaf, max_depth)
    else:
        thr = best_split[1]
        node.threshold = thr
        mask = X[:, best_j] <= thr
        node.left = _grow(X[mask], y[mask], n_classes, features, used_cat,
                          depth + 1, min_leaf, max_depth)
        node.right = _grow(X[~mask], y[~mask], n_classes, features, used_cat,
                           depth + 1, min_leaf, max_depth)
    return node


def reference_dt_train(X, y, n_classes: int, features: tuple[Feature, ...],
                       min_leaf: int = 2, max_depth: int | None = None) -> DecisionTreeModel:
    """The tree of a fit that copies each node's rows and sorts every numeric
    column there: ``_grow`` and its helpers as they stood before the fit
    was presorted."""
    X, y = _check_training(X, y, n_classes, features)
    root = _grow(X, y, n_classes, features, frozenset(), 0, min_leaf, max_depth)
    return DecisionTreeModel(features, n_classes, root)
