"""Shared test fixtures: lookup-table base models for hand-built chains,
brute-force enumeration oracles, scalar reference decoders, and random
dataset construction.

The oracles recompute everything from raw predict_dist outputs so they stay
independent of the decoding paths they check.  The reference decoders are
the scalar greedy loop, the set-by-set labelset loop, the one-call-per-row
Viterbi table and the sequential Monte-Carlo loop that the batched decoders
must reproduce exactly.  ``reference_nb_stats`` counts naive-Bayes
statistics one class at a time, as ``nb_train``'s array passes must.
``reference_nb_log_scores`` is the naive-Bayes scoring kernel over dense
(K, C) tables, one column per class, which the kernel over the distinct
classes must reproduce bit for bit; ``full_width_viterbi_table`` is the
Viterbi table of a naive-Bayes chain from such tables' full-width
transition tensors, which the distinct-column tensors must reproduce.
``full_width_dt_viterbi_table`` is the Viterbi table of any first-order
chain from full-width ``predict_dist_many`` rows of every (x row, parent
code) pair, which a tree's distinct-column tensors must reproduce.
``reference_dt_train`` is the recursive tree fit that re-sorts every
numeric column at every node; the presorted fit must grow the same trees.
It builds ``DTNode`` trees, the nested form in which tests also walk a
fitted tree (``tree_root``); ``tree_model`` numbers one breadth first
into a ``DecisionTreeModel``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from seqlabel.base import (GAIN_EPS, VAR_FLOOR, BaseModel, DecisionTreeModel, TreeArrays,
                           _check_training, _layout)
from seqlabel.core import PROB_FLOOR, Dataset, Feature, LabelSchema, log_normalized_sums
from seqlabel.methods.chains import ChainModel
from seqlabel.rng import derive_rng, digest_array

DIST_TOL = 1e-9


def is_distribution(p: np.ndarray, tol: float = DIST_TOL) -> bool:
    p = np.asarray(p, dtype=np.float64)
    return bool(np.all(np.isfinite(p)) and np.all(p >= 0) and abs(p.sum() - 1.0) <= tol)


def argmax_lowest(p: np.ndarray) -> int:
    """Index of the maximum entry; ties resolve to the lowest index."""
    return int(np.argmax(p))


def by_position(m: ChainModel, meta) -> tuple[int, ...]:
    """The label vector of one instance's chain-step meta-classes."""
    return tuple(m.expand(np.asarray(meta)[None])[0].tolist())


class TableBase:
    """Base-classifier stand-in: the distribution is a table lookup on the
    trailing label features; the raw input features are ignored."""

    def __init__(self, n_classes: int, n_base: int, table: dict):
        self.n_classes = n_classes
        self.classes = np.arange(n_classes)  # every class has a column of its own
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

    def log_dist_grid_checked(self, x, L: int) -> tuple[np.ndarray, None]:
        """The floored log-distributions of each x row followed by each code
        l < L, one column per class."""
        n = len(x.values)
        p = self.predict_dist_checked(x, np.repeat(np.arange(n), L),
                                      np.tile(np.arange(L), n)[:, None])
        return np.log(np.maximum(p, PROB_FLOOR)).reshape(n, L, self.n_classes), None

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
    return by_position(m, best_vals)


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
# reference naive-Bayes statistics


def reference_nb_stats(X, y, n_classes: int, features: tuple[Feature, ...]):
    """The sufficient statistics of a naive-Bayes fit, as ``nb_train``
    passes them to ``NaiveBayesModel``: ``(class_counts, cat_cells,
    num_mean, num_var)``, counted with a dense (class x row) ``np.bincount``
    and with NumPy's ``mean(axis=0)`` / ``var(axis=0)`` over each seen
    class's block of rows, one class at a time."""
    X, y = _check_training(X, y, n_classes, features)
    cat_positions, num_positions, cat_cards = _layout(features)
    class_counts = np.bincount(y, minlength=n_classes)
    K = int(cat_cards.sum())
    with np.errstate(over="ignore", invalid="ignore"):
        codes = X[:, cat_positions].astype(np.int64)
        counts = np.bincount((codes + (np.cumsum(cat_cards) - cat_cards)
                              + (y * K)[:, None]).ravel(), minlength=n_classes * K)
        cells = np.flatnonzero(counts)
        cat_cells = np.column_stack((cells // K, cells % K, counts[cells]))

        Xn = X[:, num_positions]
        num_mean = np.empty((n_classes, len(num_positions)))
        num_var = np.empty_like(num_mean)
        if len(num_positions):
            num_mean[:] = Xn.mean(axis=0)
            num_var[:] = np.maximum(Xn.var(axis=0), VAR_FLOOR)
            by_class = Xn[np.argsort(y, kind="stable")]
            ends = np.cumsum(class_counts)
            for c in np.flatnonzero(class_counts):
                rows = by_class[ends[c] - class_counts[c]:ends[c]]
                num_mean[c] = rows.mean(axis=0)
                num_var[c] = np.maximum(rows.var(axis=0), VAR_FLOOR)
    return class_counts, cat_cells, num_mean, num_var


# ---------------------------------------------------------------------------
# reference naive-Bayes scoring kernel


def reference_nb_table(features, class_counts, cat_cells) -> np.ndarray:
    """The dense (K, C) categorical log-probability table of naive-Bayes
    statistics: one row per (feature, code), one column per class, built
    as the full-width constructor built it."""
    _, _, cat_cards = _layout(features)
    C, F = len(class_counts), len(cat_cards)
    counts = class_counts.astype(np.float64)
    denom = counts + cat_cards[:, None]
    cat_log_rows = np.repeat(np.log(1.0 / denom), cat_cards, axis=0)
    cls, row, n = cat_cells.T
    feature = np.repeat(np.arange(F), cat_cards)[row]
    cat_log_rows[row, cls] = np.log((n + 1.0) / denom[feature, cls])
    return cat_log_rows


def reference_nb_log_scores(features, class_counts, cat_cells, num_mean, num_var, X,
                            owner=None, codes=None) -> np.ndarray:
    """(N, C) naive-Bayes log scores of the x rows ``X``, which fill the
    first ``X.shape[1]`` features, in the batch or the factored
    (``owner``, ``codes``) form: the full-width kernel, verbatim, over the
    dense tables of the statistics, with x's Gaussian terms from one
    (n, C, numeric features) pass."""
    cat_positions, num_positions, cat_cards = _layout(features)
    C = len(class_counts)
    cat_offsets = np.cumsum(cat_cards) - cat_cards
    counts = class_counts.astype(np.float64)
    log_priors = np.log((counts + 1.0) / (int(class_counts.sum()) + C))
    cat_log_rows = reference_nb_table(features, class_counts, cat_cells)
    num_inv2var = 1.0 / (2.0 * num_var)
    num_logconst = (-0.5 * np.log(2.0 * math.pi * num_var)).sum(axis=1)
    X = np.asarray(X, dtype=np.float64)
    Fx = int((cat_positions < X.shape[1]).sum())
    rows = X[:, cat_positions[:Fx]].astype(np.int64) + cat_offsets[:Fx]
    gauss = None
    if len(num_positions):
        sq = X.take(num_positions, axis=1)[:, None, :] - num_mean
        np.square(sq, out=sq)
        sq *= num_inv2var
        gauss = num_logconst - sq.sum(axis=-1)

    if len(rows) == 1:  # one gather, whose rows NumPy adds left to right
        scores = cat_log_rows[rows[0]].sum(axis=0)[None]
    else:
        scores = np.zeros((len(rows), C))
        for j in range(rows.shape[1]):
            scores += cat_log_rows[rows[:, j]]
    if owner is not None:
        scores = scores.take(owner, axis=0)
    if codes is not None and codes.shape[1]:
        rows = cat_offsets[rows.shape[1]:] + codes
        for j in range(rows.shape[1]):
            scores += cat_log_rows[rows[:, j]]
    scores += log_priors
    if gauss is not None:  # one x row: its term is added to every scored row
        scores += gauss if owner is None or len(gauss) == 1 else gauss.take(owner, axis=0)
    return scores


def full_width_viterbi_table(m: ChainModel, X) -> tuple[list, list]:
    """(delta, psi) of a first-order naive-Bayes chain for the rows ``X``,
    each step's (n, L_prev, L_s) transition tensor the ``log_normalized_sums``
    of x's full-width scores and the dense table's rows of the parent codes."""
    X = np.asarray(X, dtype=np.float64)
    delta = [np.log(np.maximum(m.models[0].predict_dist_many(X), PROB_FLOOR))]
    psi = [np.zeros(delta[0].shape, dtype=np.int64)]
    for model in m.models[1:]:
        stats = (model.features, model.class_counts, model.cat_cells, model.num_mean,
                 model.num_var)
        L = model.features[-1].cardinality
        scores = log_normalized_sums(reference_nb_log_scores(*stats, X),
                                     reference_nb_table(*stats[:3])[-L:])
        scores = scores + delta[-1][:, :, None]
        back = np.argmax(scores, axis=1)
        delta.append(np.take_along_axis(scores, back[:, None], axis=1)[:, 0])
        psi.append(back)
    return delta, psi


def full_width_dt_viterbi_table(m: ChainModel, X) -> tuple[list, list]:
    """(delta, psi) of a first-order chain for the rows ``X``, each step's
    (n, L_prev, L_s) transition tensor the floored logs of the full-width
    ``predict_dist_many`` rows of every (x row, previous value) pair."""
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    delta = [np.log(np.maximum(m.models[0].predict_dist_many(X), PROB_FLOOR))]
    psi = [np.zeros(delta[0].shape, dtype=np.int64)]
    for model in m.models[1:]:
        L = model.features[-1].cardinality
        p = model.predict_dist_many(X, np.repeat(np.arange(n), L),
                                    np.tile(np.arange(L), n)[:, None])
        scores = np.log(np.maximum(p, PROB_FLOOR)).reshape(n, L, model.n_classes)
        scores = scores + delta[-1][:, :, None]
        back = np.argmax(scores, axis=1)
        delta.append(np.take_along_axis(scores, back[:, None], axis=1)[:, 0])
        psi.append(back)
    return delta, psi


# ---------------------------------------------------------------------------
# the nested tree form


@dataclass
class DTNode:
    """One node of a tree, with the nodes below it."""
    counts: tuple[int, ...]
    feature: int | None = None          # None = leaf
    threshold: float | None = None      # numeric split
    left: "DTNode | None" = None
    right: "DTNode | None" = None
    children: dict[int, "DTNode"] | None = None  # categorical split, keyed by code


def _tree_arrays(root: DTNode) -> TreeArrays:
    """The arrays of the tree below ``root``, numbered breadth first, with
    counts of every class."""
    nodes = [root]
    feature, threshold, first, n_child, code = [], [], [], [], [-1]
    for node in nodes:  # the list grows as the loop runs: breadth first
        if node.feature is None:
            kids = []
        elif node.children is not None:
            kids = list(node.children.values())
            code += node.children
        else:
            kids = [node.left, node.right]
            code += (-1, -1)
        feature.append(-1 if node.feature is None else node.feature)
        threshold.append(math.nan if node.threshold is None else node.threshold)
        first.append(len(nodes))
        n_child.append(len(kids))
        nodes += kids
    counts = np.array([node.counts for node in nodes], dtype=np.int64).reshape(len(nodes), -1)
    feature, first, n_child, code = (np.array(a, dtype=np.intp)
                                     for a in (feature, first, n_child, code))
    return TreeArrays(feature, np.array(threshold), first, n_child, code, counts)


def tree_model(features, n_classes: int, root: DTNode) -> DecisionTreeModel:
    """The model of the tree below ``root``, whose seen classes are the
    root's nonzero counts."""
    t = _tree_arrays(root)
    seen = np.flatnonzero(t.counts[0])
    classes, _ = BaseModel.class_map(seen, n_classes)
    return DecisionTreeModel(features, n_classes, seen,
                             t._replace(counts=t.counts.take(classes, axis=1)))


def tree_root(m: DecisionTreeModel) -> DTNode:
    """The tree of ``m`` as nested ``DTNode`` objects, with counts of
    every class, built from its arrays."""
    t = m.tree
    nodes = [DTNode(counts=tuple(c)) for c in t.counts.take(m.columns, axis=1).tolist()]
    feature, threshold, first, n_child, code = (
        a.tolist() for a in (t.feature, t.threshold, t.first, t.n_child, t.code))
    for v in (t.feature >= 0).nonzero()[0].tolist():
        node, a = nodes[v], first[v]
        node.feature = feature[v]
        if math.isnan(threshold[v]):
            node.children = {code[i]: nodes[i] for i in range(a, a + n_child[v])}
        else:
            node.threshold, node.left, node.right = threshold[v], nodes[a], nodes[a + 1]
    return nodes[0]


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
    return tree_model(features, n_classes,
                      _grow(X, y, n_classes, features, frozenset(), 0, min_leaf, max_depth))
