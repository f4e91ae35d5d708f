"""Probabilistic multi-class base learners: categorical/Gaussian naive Bayes
and an information-gain decision tree.

Inference is batch: ``predict_dist_many(X) -> (N, C)`` and
``predict_many(X) -> (N,)`` score an (N, D) matrix, and the scalar
``predict_dist(x)`` / ``predict(x)`` are a batch of one, so row i of a batch
equals the scalar answer for ``X[i]`` bit for bit.  Naive Bayes scores in
``log_scores_many`` only and predicts the argmax of the raw scores; the tree
routes rows in ``predict_dist_many`` only and predicts the argmax of the
leaf distribution.  Both are deterministic for a fixed training set and
reject feature values that are not finite.  Laplace smoothing (constant 1)
keeps every output probability strictly positive, which chain and trellis
decoders rely on.

A naive-Bayes model file holds the sufficient statistics of its training
set: class counts, the nonzero categorical count cells ``[class, row,
count]`` and per-class Gaussian means and variances.  One constructor,
called by ``nb_train`` and by ``from_dict``, checks them and derives the
log-probability tables, so a loaded model scores bit for bit as the
trained one did.

The tree fit sorts each numeric column once and hands every node its rows
in each feature's sorted order.  It screens all splits of a node with
integer class counts and re-scores only the near-best ones by the exact
entropy formula, so it grows the tree an exhaustive search by that formula
would grow, bit for bit.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import Feature, normalize_log_scores

VAR_FLOOR = 1e-6
# the largest naive-Bayes variance: 2 pi var stays finite
VAR_CEIL = sys.float_info.max / 8
# log_scores_many sums naive-Bayes Gaussian terms unchecked while they stay below this
GAUSS_CEIL = sys.float_info.max / 4
GAIN_EPS = 1e-9
# np.vdot without its __array_function__ dispatch, which on one feature row
# costs about as much as the sum of squares itself
_vdot = getattr(np.vdot, "__wrapped__", np.vdot)
# a split search pass holds at most this many class-count cells at once
SPLIT_CELLS = 1 << 17
# screened splits within this share of n log n + n of the best are re-scored
SCREEN_RTOL = 1e-9

BASE_KINDS = ("nb", "dt")


def _check_features(X, D: int, ndim: int) -> np.ndarray:
    """``X`` as float64 finite feature values: one row (``ndim`` 1) or an
    (N, D) matrix (``ndim`` 2)."""
    return _checked_features(X, D, ndim)[0]


def _checked_features(X, D: int, ndim: int) -> tuple[np.ndarray, float]:
    """``_check_features`` of ``X``, and the sum of the squares of its values
    (infinite if that overflows)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != ndim or X.shape[-1] != D:
        raise ValueError(
            f"feature arity {X.shape[ndim - 1:]} does not match training arity ({D},)")
    # x.x is finite when every value is; a NaN, an infinity or an overflow
    # makes it not, and only then does the exact check run.  np.vdot, unlike
    # ndarray.dot, does not report an overflow as a RuntimeWarning.
    flat = X.ravel()
    sum_sq = _vdot(flat, flat)
    if not math.isfinite(sum_sq):
        bad = np.argwhere(~np.isfinite(X))
        if len(bad):
            raise ValueError(f"feature {bad[0][-1]}: value {float(X[tuple(bad[0])])!r} "
                             "is not finite")
    return X, sum_sq


def _check_training(X, y, n_classes: int, features) -> tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` as a finite nonempty (N, D) matrix and N labels in
    ``0..n_classes-1``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0 or y.shape != X.shape[:1]:
        raise ValueError("training data must be a nonempty (N, D) matrix with N labels")
    X = _check_features(X, len(features), 2)
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError("labels outside 0..n_classes-1")
    return X, y


def _shared_columns(A: np.ndarray) -> int:
    """How many leading columns of ``A`` hold one value in every row."""
    if len(A) == 1:
        return A.shape[1]
    return int(np.logical_and.accumulate((A == A[0]).all(axis=0)).sum())


def _layout(features) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions of the categorical and of the numeric features, and the
    categorical cardinalities."""
    cat = [j for j, f in enumerate(features) if f.kind == "categorical"]
    return (np.array(cat, dtype=np.int64),
            np.array([j for j, f in enumerate(features) if f.kind == "numeric"], dtype=np.int64),
            np.array([features[j].cardinality for j in cat], dtype=np.int64))


class NaiveBayesModel:
    """Laplace-smoothed priors and per-feature conditionals, built from the
    sufficient statistics of a training set.

    The statistics are the class counts; the nonzero categorical count
    cells ``[class, row, count]`` in (class, row) order, where a row is a
    feature's ``cat_offsets`` entry plus a code; and the per-class Gaussian
    ``num_mean`` / ``num_var`` of the numeric features, with the variance
    floored at ``VAR_FLOOR`` so constant features cannot produce singular
    likelihoods.  The constructor checks them and derives the scoring
    tables ``log_priors``, ``cat_log_rows`` (log p(code | class), smoothed
    over the declared cardinality), ``num_inv2var`` and ``num_logconst``.
    ``nb_train`` and ``from_dict`` both call it, so a loaded model holds the
    trained tables bit for bit, and a model file holds only the statistics.
    """

    def __init__(self, features, class_counts, cat_cells, num_mean, num_var):
        self.features = tuple(features)
        self.cat_positions, self.num_positions, cat_cards = _layout(self.features)
        C = self.n_classes = len(class_counts)
        F, Dn = len(cat_cards), len(self.num_positions)
        if (C < 1 or class_counts.shape != (C,) or cat_cells.shape[1:] != (3,)
                or {num_mean.shape, num_var.shape} != {(C, Dn)}):
            raise ValueError(f"naive Bayes tables do not fit {C} classes and the features")
        _check_stats(class_counts, cat_cells, self.cat_positions, cat_cards, num_mean, num_var)
        self.class_counts, self.cat_cells = class_counts, cat_cells
        self.num_mean, self.num_var = num_mean, num_var
        self.cat_cards = cat_cards
        self.cat_offsets = np.cumsum(cat_cards) - cat_cards  # row of each feature's code 0
        counts = class_counts.astype(np.float64)
        self.log_priors = np.log((counts + 1.0) / (int(class_counts.sum()) + C))
        # (K, C): one contiguous row of class log-probabilities per
        # (feature, code), so a gather reads whole rows.  A code never seen
        # with a class scores log(1 / (class count + cardinality)).
        denom = counts + cat_cards[:, None]
        self.cat_log_rows = np.repeat(np.log(1.0 / denom), cat_cards, axis=0)
        cls, row, n = cat_cells.T
        feature = np.repeat(np.arange(F), cat_cards)[row]
        self.cat_log_rows[row, cls] = np.log((n + 1.0) / denom[feature, cls])
        self.num_inv2var = 1.0 / (2.0 * num_var)
        self.num_logconst = (-0.5 * np.log(2.0 * math.pi * num_var)).sum(axis=1)
        # A batch whose values all lie within ``reach`` of 0 casts its codes to
        # int64 and sums its Gaussian terms without overflow, and a batch
        # whose sum of squares is at most reach**2 has only such values.
        reach = math.sqrt(GAUSS_CEIL)
        if Dn:
            reach = min(reach, math.sqrt(GAUSS_CEIL / (Dn * float(self.num_inv2var.max())))) \
                - float(np.abs(num_mean).max())
        if F:
            reach = min(reach, 2.0 ** 62)
        self._safe_sum_sq = reach * reach if reach > 0 else -1.0

    @property
    def cat_log_table(self) -> np.ndarray:
        """(C, K) smoothed log p(code | class) of every categorical feature."""
        return self.cat_log_rows.T

    def log_scores_many(self, X) -> np.ndarray:
        """(N, C) unnormalized log joint scores log p(c) + sum_j log p(x_j|c),
        one row per row of ``X``.

        Each row gets the same operations in the same order whatever batch
        it comes in, so with two or more classes its scores agree bit for
        bit.  NumPy adds the categorical terms left to right, so leading
        categorical columns that hold one code in every row (x's own, in a
        chain decoder's batch) are summed once; so is the Gaussian term when
        every row has the same numeric features.  (With one class the sum
        is pairwise; the distribution is [1.0] either way.)  A numeric value
        so far from a class mean that its Gaussian term overflows is an
        error.
        """
        X, sum_sq = _checked_features(X, len(self.features), 2)
        if sum_sq <= self._safe_sum_sq:
            return self._log_scores(X)
        # a huge value: score quietly, then report a term that overflowed
        with np.errstate(over="ignore", invalid="ignore"):
            scores = self._log_scores(X)
        if not np.isfinite(scores).all():
            xn = X.take(self.num_positions, axis=1)
            with np.errstate(over="ignore"):
                terms = np.square(xn[:, None, :] - self.num_mean) * self.num_inv2var
            i, _, k = np.unravel_index(terms.argmax(), terms.shape)
            raise ValueError(f"feature {int(self.num_positions[k])}: value {float(xn[i, k])!r} "
                             "is too far from the class means to score")
        return scores

    def _log_scores(self, X: np.ndarray) -> np.ndarray:
        N = X.shape[0]
        if N == 0:
            return np.empty((0, self.n_classes))
        if self.cat_positions.size:
            raw = X.take(self.cat_positions, axis=1)
            codes = raw.astype(np.int64)
            # a negative code reads as a huge unsigned one
            bad = (raw != codes) | (codes.view(np.uint64) >= self.cat_cards)
            if bad.any():
                i, k = np.argwhere(bad)[0]
                raise ValueError(
                    f"feature {int(self.cat_positions[k])}: code {float(raw[i, k])!r} outside "
                    f"declared cardinality {int(self.cat_cards[k])}"
                )
            rows = self.cat_offsets + codes
            shared = _shared_columns(rows)
            cat = self.cat_log_rows[rows[0, :shared]].sum(axis=0)
            for j in range(shared, rows.shape[1]):
                cat = cat + self.cat_log_rows[rows[:, j]]
            scores = cat + self.log_priors
        else:
            scores = self.log_priors.copy()
        if self.num_positions.size:
            xn = X.take(self.num_positions, axis=1)
            if _shared_columns(xn) == xn.shape[1]:
                xn = xn[0]
            sq = xn[..., None, :] - self.num_mean
            np.square(sq, out=sq)
            sq *= self.num_inv2var
            scores = scores + (self.num_logconst - sq.sum(axis=-1))
        if scores.ndim == 1:  # every row scores alike
            scores = scores[None] if N == 1 else np.repeat(scores[None], N, axis=0)
        return scores

    def log_scores(self, x) -> np.ndarray:
        """``log_scores_many`` of the single row ``x``."""
        return self.log_scores_many(np.asarray(x, dtype=np.float64)[None])[0]

    def predict_dist_many(self, X) -> np.ndarray:
        return normalize_log_scores(self.log_scores_many(X))

    def predict_many(self, X) -> np.ndarray:
        return self.log_scores_many(X).argmax(axis=1)

    def predict_dist(self, x) -> np.ndarray:
        return self.predict_dist_many(np.asarray(x, dtype=np.float64)[None])[0]

    def predict(self, x) -> int:
        return int(self.predict_many(np.asarray(x, dtype=np.float64)[None])[0])

    def to_dict(self) -> dict:
        return {
            "kind": "naive-bayes",
            "features": [f.to_dict() for f in self.features],
            "cat_positions": self.cat_positions.tolist(),
            "cat_cards": self.cat_cards.tolist(),
            "num_positions": self.num_positions.tolist(),
            "class_counts": self.class_counts.tolist(),
            "cat_cells": self.cat_cells.tolist(),
            "num_mean": self.num_mean.tolist(),
            "num_var": self.num_var.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "NaiveBayesModel":
        m = NaiveBayesModel(
            tuple(Feature.from_dict(f) for f in d["features"]),
            _int_array(d["class_counts"], "class count"),
            _int_array(d["cat_cells"], "categorical cell entry", width=3),
            np.asarray(d["num_mean"], dtype=np.float64),
            np.asarray(d["num_var"], dtype=np.float64),
        )
        stored = [d["cat_positions"], d["num_positions"], d["cat_cards"]]
        if stored != [m.cat_positions.tolist(), m.num_positions.tolist(), m.cat_cards.tolist()]:
            raise ValueError(f"naive Bayes positions and cardinalities {stored} do not match "
                             "the features")
        return m


def _int_array(values, what: str, width: int | None = None) -> np.ndarray:
    """A JSON list of ints, or of lists of ``width`` ints, as an int64 array
    of shape (n,) or (n, width).  A bool or a float is not an int."""
    flat = list(itertools.chain.from_iterable(values)) if width else values
    if not set(map(type, flat)) <= {int}:
        bad = next(v for v in flat if type(v) is not int)
        raise ValueError(f"{what} {bad!r} is not an integer")
    return np.array(values, dtype=np.int64).reshape((len(values),) + ((width,) if width else ()))


def _check_stats(class_counts, cells, cat_positions, cat_cards, num_mean, num_var) -> None:
    """Reject naive-Bayes statistics that no training set gives: a negative
    class count, or a total that float64 does not hold exactly; a
    categorical cell that is not ``[class, row, count]`` with a class and a
    row of the model and a positive count, or that does not follow the cell
    before it in (class, row) order; class counts of a feature that do not
    sum to the class count; a mean that is not finite or a variance outside
    ``[VAR_FLOOR, VAR_CEIL]``."""
    C, K, F = len(class_counts), int(cat_cards.sum()), len(cat_cards)
    if (class_counts < 0).any() or class_counts.sum(dtype=np.float64) > 2.0 ** 53:
        raise ValueError("class counts must be non-negative, with a total of at most 2**53")
    cls, row, n = cells.T
    bad = np.flatnonzero((cls < 0) | (cls >= C) | (row < 0) | (row >= K) | (n < 1))
    if len(bad):
        raise ValueError(f"categorical cell {cells[bad[0]].tolist()} is not "
                         f"[class < {C}, row < {K}, count >= 1]")
    bad = np.flatnonzero(np.diff(cls * K + row) <= 0)
    if len(bad):
        raise ValueError(f"categorical cell {cells[bad[0] + 1].tolist()} does not follow "
                         f"{cells[bad[0]].tolist()} in (class, row) order")
    feature = np.repeat(np.arange(F), cat_cards)[row]
    sums = np.bincount(cls * F + feature, weights=n, minlength=C * F).reshape(C, F)
    bad = np.argwhere(sums != class_counts[:, None])
    if len(bad):
        c, k = bad[0]
        raise ValueError(f"the counts of feature {int(cat_positions[k])} in class {c} "
                         f"do not sum to its class count {int(class_counts[c])}")
    if not (np.isfinite(num_mean).all() and (num_var >= VAR_FLOOR).all()
            and (num_var <= VAR_CEIL).all()):
        raise ValueError("naive Bayes means must be finite and variances in "
                         f"[{VAR_FLOOR}, {VAR_CEIL}]")


def nb_train(X, y, n_classes: int, features: tuple[Feature, ...]) -> NaiveBayesModel:
    """Train naive Bayes by counting.

    Priors and categorical conditionals are Laplace-smoothed with constant 1;
    numeric features get per-class (mean, variance) with ``VAR_FLOOR``, and
    an unseen class gets those of all rows.  Values whose variance overflows
    are an error.
    """
    X, y = _check_training(X, y, n_classes, features)
    cat_positions, num_positions, cat_cards = _layout(features)
    class_counts = np.bincount(y, minlength=n_classes)
    K = int(cat_cards.sum())
    with np.errstate(over="ignore", invalid="ignore"):  # huge values are reported below
        codes = X[:, cat_positions].astype(np.int64)
        bad = np.flatnonzero(((codes < 0) | (codes >= cat_cards)).any(axis=0))
        if len(bad):
            raise ValueError(f"feature {int(cat_positions[bad[0]])}: training codes outside "
                             f"declared cardinality {int(cat_cards[bad[0]])}")
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
    bad = np.argwhere(~np.isfinite(num_mean) | ~(num_var <= VAR_CEIL))
    if len(bad):
        c, k = bad[0]
        col = Xn[y == c, k] if class_counts[c] else Xn[:, k]
        raise ValueError(f"feature {int(num_positions[k])}: value "
                         f"{float(col[np.abs(col).argmax()])!r} overflows the variance of "
                         f"class {c}")
    return NaiveBayesModel(features, class_counts, cat_cells, num_mean, num_var)


# ---------------------------------------------------------------------------
# decision tree


@dataclass
class DTNode:
    counts: tuple[int, ...]
    feature: int | None = None          # None = leaf
    threshold: float | None = None      # numeric split
    left: "DTNode | None" = None
    right: "DTNode | None" = None
    children: dict[int, "DTNode"] | None = None  # categorical split, keyed by code
    _dist: np.ndarray | None = field(default=None, repr=False, compare=False)

    def dist(self, n_classes: int) -> np.ndarray:
        # read-only, and built on the first call: only reached nodes hold one
        if self._dist is None:
            c = np.asarray(self.counts, dtype=np.float64)
            self._dist = (c + 1.0) / (c.sum() + n_classes)
            self._dist.setflags(write=False)
        return self._dist

    def to_dict(self) -> dict:
        d: dict = {"counts": list(self.counts)}
        if self.feature is not None:
            d["feature"] = self.feature
            if self.children is not None:
                d["children"] = {str(k): v.to_dict() for k, v in self.children.items()}
            else:
                d["threshold"] = self.threshold
                d["left"] = self.left.to_dict()
                d["right"] = self.right.to_dict()
        return d

    @staticmethod
    def from_dict(d: dict) -> "DTNode":
        node = DTNode(counts=tuple(d["counts"]))
        if "feature" in d:
            node.feature = d["feature"]
            if "children" in d:
                node.children = {int(k): DTNode.from_dict(v) for k, v in d["children"].items()}
            else:
                node.threshold = float(d["threshold"])
                node.left = DTNode.from_dict(d["left"])
                node.right = DTNode.from_dict(d["right"])
        return node


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


class DecisionTreeModel:
    """Greedy top-down tree maximizing information gain.

    Categorical splits are multiway over the values observed at the node
    (each categorical feature is tested at most once per path); numeric
    splits are binary thresholds at midpoints between sorted distinct
    values.  Leaves hold Laplace-smoothed class-count distributions.

    ``dt_train`` sorts each numeric column once per fit (a stable argsort)
    and passes a node's row ids, in every feature's sorted order, to its
    children by stable partition.  At each node it scores every threshold
    of every numeric feature, and every categorical feature, in a few array
    passes: n times the child entropy, m log m - sum c log c over the
    children's class counts, read from an x log x table.  Splits within
    ``SCREEN_RTOL`` of the best score are re-scored by the exact formulas
    (``_entropy_rows`` per threshold, ``_entropy`` per categorical child),
    and the exact gains decide: the first feature with the highest gain, at
    its lowest best threshold; if no gain reaches ``GAIN_EPS``, the
    lowest-index feature that partitions at all, so XOR-like structure
    between features can still be found.
    """

    def __init__(self, features: tuple[Feature, ...], n_classes: int, root: DTNode):
        self.features = tuple(features)
        self.n_classes = n_classes
        self.root = root

    def _route(self, x: np.ndarray) -> DTNode:
        node = self.root
        while node.feature is not None:
            j = node.feature
            if node.children is not None:
                raw = x[j]
                code = int(raw)
                card = self.features[j].cardinality
                if raw != code or not (0 <= code < card):
                    raise ValueError(f"feature {j}: code {raw!r} outside declared cardinality {card}")
                child = node.children.get(code)
                if child is None:
                    return node  # value unseen at this node: stop here
                node = child
            else:
                node = node.left if x[j] <= node.threshold else node.right
        return node

    def predict_dist_many(self, X) -> np.ndarray:
        X = _check_features(X, len(self.features), 2)
        out = np.empty((X.shape[0], self.n_classes))
        for i, x in enumerate(X):
            out[i] = self._route(x).dist(self.n_classes)
        return out

    def predict_many(self, X) -> np.ndarray:
        return self.predict_dist_many(X).argmax(axis=1)

    def predict_dist(self, x) -> np.ndarray:
        return self.predict_dist_many(np.asarray(x, dtype=np.float64)[None])[0]

    def predict(self, x) -> int:
        return int(self.predict_many(np.asarray(x, dtype=np.float64)[None])[0])

    def to_dict(self) -> dict:
        return {
            "kind": "decision-tree",
            "features": [f.to_dict() for f in self.features],
            "n_classes": self.n_classes,
            "root": self.root.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "DecisionTreeModel":
        """The tree of a ``to_dict`` mapping, whose nodes each hold one count per
        class and split on a feature of the tree."""
        features = tuple(Feature.from_dict(f) for f in d["features"])
        n_classes, root = d["n_classes"], DTNode.from_dict(d["root"])
        if type(n_classes) is not int or n_classes < 1:
            raise ValueError(f"a decision tree needs a positive class count, not {n_classes!r}")
        nodes = [root]
        while nodes:
            node = nodes.pop()
            if len(node.counts) != n_classes or not all(type(c) is int and c >= 0
                                                        for c in node.counts):
                raise ValueError(f"a tree node has {len(node.counts)} class counts, "
                                 f"not {n_classes} non-negative integers")
            j = node.feature
            if j is None:
                continue
            if type(j) is not int or not 0 <= j < len(features) or (
                    node.children is not None and features[j].kind != "categorical"):
                raise ValueError(f"a tree node splits on feature {j!r} of {len(features)} "
                                 "(by code only if it is categorical)")
            nodes += (node.left, node.right) if node.children is None else node.children.values()
        return DecisionTreeModel(features, n_classes, root)


class _TreeFit:
    """One top-down fit: each numeric column sorted once, split search by
    screening and exact re-scoring, nodes grown from an explicit stack.

    A node holds its rows and, per numeric feature, its row ids in that
    feature's sorted order.  The children's lists are stable partitions of
    the parent's, so they stay in the order a stable argsort of the child's
    own rows would give, and no node sorts anything.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, n_classes: int, features):
        self.X, self.y, self.n_classes = X, y, n_classes
        cat, self.num, _ = _layout(features)
        self.num_values = np.ascontiguousarray(X[:, self.num].T)  # (Dn, N)
        self.sorted_rows = np.argsort(self.num_values, axis=1, kind="stable")
        # categorical codes as one id space: the codes seen for feature cat[0]
        # in ascending order, then those of cat[1], ...
        self.cat = cat
        seen = [np.unique(X[:, j].astype(np.int64), return_inverse=True) for j in cat]
        sizes = [len(codes) for codes, _ in seen]
        self.code_ids = np.array([inverse + offset for (_, inverse), offset
                                  in zip(seen, np.cumsum([0] + sizes))],
                                 dtype=np.intp).reshape(len(cat), len(y))
        self.code_value = np.concatenate([np.zeros(0, np.int64)] + [codes for codes, _ in seen])
        self.code_owner = np.repeat(np.arange(len(cat)), sizes)
        x = np.arange(1, len(y) + 1, dtype=np.float64)
        self.xlogx = np.concatenate(([0.0], x * np.log(x)))
        # scratch: per-node class and side of each row, child of each code
        self.local_class = np.zeros(n_classes, dtype=np.intp)
        self.row_class = np.zeros(len(y), dtype=np.intp)
        self.row_left = np.zeros(len(y), dtype=bool)
        self.code_child = np.zeros(len(self.code_value), dtype=np.intp)

    def grow(self, min_leaf: int, max_depth: int | None) -> DTNode:
        root = DTNode(counts=())
        stack = [(root, np.arange(len(self.y)), self.sorted_rows, 0, frozenset())]
        while stack:
            node, rows, srt, depth, used_cat = stack.pop()
            counts = np.bincount(self.y[rows], minlength=self.n_classes)
            node.counts = tuple(counts.tolist())
            if (int((counts > 0).sum()) < 2 or len(rows) < 2 * min_leaf
                    or (max_depth is not None and depth >= max_depth)):
                continue
            split = self._best_split(rows, srt, counts, used_cat)
            if split is None:
                continue  # nothing partitions the data
            node.feature, kind, arg = split
            if kind == "num":
                node.threshold = arg
                left = self.X[rows, node.feature] <= arg
                self.row_left[rows] = left
                in_left = self.row_left[srt]
                nl = int(left.sum())
                node.left, node.right = DTNode(counts=()), DTNode(counts=())
                stack.append((node.right, rows[~left],
                              srt[~in_left].reshape(len(srt), len(rows) - nl), depth + 1,
                              used_cat))
                stack.append((node.left, rows[left],
                              srt[in_left].reshape(len(srt), nl), depth + 1, used_cat))
            else:
                c, ids = arg
                self.code_child[ids] = np.arange(len(ids))
                child = self.code_child[self.code_ids[c, rows]]
                rows = rows[np.argsort(child, kind="stable")]
                srt = np.take_along_axis(
                    srt, np.argsort(self.code_child[self.code_ids[c, srt]], axis=1,
                                    kind="stable"), axis=1)
                sizes = np.bincount(child, minlength=len(ids))
                ends = np.cumsum(sizes)
                node.children = {int(v): DTNode(counts=()) for v in self.code_value[ids]}
                used_cat = used_cat | {node.feature}
                for ch, a, b in reversed(list(zip(node.children.values(), ends - sizes, ends))):
                    stack.append((ch, rows[a:b], srt[:, a:b].copy(), depth + 1, used_cat))
        return root

    def _best_split(self, rows, srt, counts, used_cat):
        """``(feature, "num", threshold)``, ``(feature, "cat", (c, code ids))``
        or None, as an exact information-gain search over every feature
        would choose: the first feature with the highest gain, at its lowest
        best threshold, or else the zero-gain fallback."""
        n = len(rows)
        node_entropy = _entropy(counts.astype(np.float64))
        present = np.flatnonzero(counts)
        k = len(present)
        self.local_class[present] = np.arange(k)
        self.row_class[rows] = self.local_class[self.y[rows]]
        num = self._screen_numeric(srt, n, k, counts[present]) if len(srt) else None
        free = [c for c, j in enumerate(self.cat) if int(j) not in used_cat]
        cat = self._screen_categorical(np.array(free), rows, n, k, node_entropy) if free else []
        if num is None and not cat:
            return None  # nothing partitions the data
        # A fast score is n times the child entropy, read from an x log x
        # table; an exact gain is node entropy minus child entropy by the
        # formulas of _entropy_rows and _entropy.  Scaled by n, each is off
        # its true value by a few dozen ulps of n log n + n (sums of
        # non-negative terms, each within a few ulps, summed pairwise), plus
        # one ulp per child for a categorical gain summed child by child:
        # under 1e-12 of n log n + n for up to 2**20 classes and 10**4
        # codes.  A split whose exact gain ties with or beats that of the
        # best fast split thus scores within 4e-12 of it, and SCREEN_RTOL,
        # 1e-9, sits far above that: every split that can win is re-scored.
        tol = SCREEN_RTOL * (self.xlogx[n] + n)
        limit = min(([num[2].min()] if num is not None else [])
                    + [score for _, score, _, _ in cat]) + tol
        found = [(j, gain(), split) for j, score, gain, split in cat if score <= limit]
        if num is not None and num[2].min() <= limit:
            keep = num[2] <= limit
            found += self._exact_numeric(srt, num[0][keep], num[1][keep], counts, node_entropy)
        best_gain, best = -1.0, None
        for j, gain, split in sorted(found, key=lambda t: t[0]):
            if gain > best_gain:
                best_gain, best = gain, (j, *split)
        if best_gain < GAIN_EPS:
            # zero-gain but impure: split anyway on the lowest-index usable feature,
            # so conjunctive (XOR-like) structure between features can still be found
            if num is not None and (not cat or self.num[num[0][0]] < cat[0][0]):
                f, pos, scores = num
                first = f == f[0]
                keep = first & (scores <= scores[first].min() + tol)
                j, _, split = self._exact_numeric(srt, f[keep], pos[keep], counts,
                                                  node_entropy)[0]
            else:
                j, _, _, split = cat[0]
            best = (j, *split)
        return best

    def _screen_numeric(self, srt, n, k, T):
        """``(f, pos, scores)``: every threshold, as the numeric feature
        ``self.num[f]`` whose sorted values change after position ``pos``,
        with its fast score; or None when no numeric feature partitions.

        The features' sorted labels are read as one row, so the left counts
        at a threshold of the f-th feature are the counts of that row's
        prefix less f times the node's class counts ``T``.
        """
        vals = np.take_along_axis(self.num_values, srt, axis=1)
        f, pos = np.nonzero(vals[:, 1:] != vals[:, :-1])
        if not len(f):
            return None
        xlogx = self.xlogx
        scores = np.empty(len(f))
        for a, cum in _prefix_counts(self.row_class[srt].ravel(), f * n + pos + 1, k):
            b = a + len(cum)
            left = cum - f[a:b, None] * T
            nl = pos[a:b] + 1
            scores[a:b] = (xlogx[nl] + xlogx[n - nl]
                           - xlogx[left].sum(axis=1) - xlogx[T - left].sum(axis=1))
        return f, pos, scores

    def _exact_numeric(self, srt, f, pos, counts, node_entropy):
        """``(feature, gain, ("num", threshold))`` of each numeric feature
        among ``self.num[f]``: the first best of its thresholds after sorted
        positions ``pos`` by the dense formula over all classes."""
        n = srt.shape[1]
        feats, starts, fi = np.unique(f, return_index=True, return_inverse=True)
        total = counts.astype(np.float64)
        gains = np.empty(len(f))
        for a, cum in _prefix_counts(self.y[srt[feats]].ravel(), fi * n + pos + 1,
                                     self.n_classes):
            left = cum - fi[a:a + len(cum), None] * total
            right = total - left
            nl = left.sum(axis=1)
            nr = right.sum(axis=1)
            gains[a:a + len(cum)] = (node_entropy - (nl / n) * _entropy_rows(left)
                                     - (nr / n) * _entropy_rows(right))
        out = []
        for g, a, b in zip(feats, starts, np.append(starts[1:], len(f))):
            i = a + int(np.argmax(gains[a:b]))  # first max = lowest threshold
            vals, order = self.num_values[g], srt[g]
            lo, hi = float(vals[order[pos[i]]]), float(vals[order[pos[i] + 1]])
            thr = (lo + hi) / 2.0
            if not lo <= thr < hi:  # rounded up to hi or overflowed to +-inf, so split at lo
                thr = lo
            out.append((int(self.num[g]), float(gains[i]), ("num", thr)))
        return out

    def _screen_categorical(self, free, rows, n, k, node_entropy):
        """``(feature, fast score, exact gain, ("cat", (c, code ids)))`` of
        each categorical feature ``self.cat[c]``, c in ``free``, that takes
        two or more codes at the node, from one sort of (code, class) keys;
        the exact gain is a function to call."""
        keys = (self.code_ids[free[:, None], rows] * k + self.row_class[rows]).ravel()
        cells, cell_n = np.unique(keys, return_counts=True)
        code = cells // k
        cell_start = np.flatnonzero(np.append(True, code[1:] != code[:-1]))
        ids = code[cell_start]
        code_n = np.add.reduceat(cell_n, cell_start)
        owner = self.code_owner[ids]
        code_start = np.flatnonzero(np.append(True, owner[1:] != owner[:-1]))
        scores = (np.add.reduceat(self.xlogx[code_n], code_start)
                  - np.add.reduceat(self.xlogx[cell_n], cell_start[code_start]))
        cell_start = np.append(cell_start, len(cells))
        out = []
        for score, a, b in zip(scores, code_start, np.append(code_start[1:], len(ids))):
            if b - a > 1:
                gain = partial(_multiway_gain, node_entropy, n, code_n[a:b], cell_n,
                               cell_start[a:b + 1])
                out.append((int(self.cat[owner[a]]), score, gain, ("cat", (owner[a], ids[a:b]))))
        return out


def _prefix_counts(labels: np.ndarray, ends: np.ndarray, width: int):
    """``(a, counts)`` per chunk of the ascending prefix lengths ``ends``:
    ``counts[i]`` is the histogram over ``width`` classes of
    ``labels[:ends[a + i]]``.  A chunk holds at most ``SPLIT_CELLS`` counts,
    or one histogram when that is larger."""
    running, start = 0, 0
    step = max(1, SPLIT_CELLS // width)
    for a in range(0, len(ends), step):
        e = ends[a:a + step]
        seg = np.searchsorted(e, np.arange(start, e[-1]), side="right")
        cum = np.cumsum(np.bincount(seg * width + labels[start:e[-1]],
                                    minlength=len(e) * width).reshape(len(e), width), axis=0)
        cum += running
        running, start = cum[-1], e[-1]
        yield a, cum


def _multiway_gain(node_entropy: float, n: int, code_n, cell_n, cell_start) -> float:
    """Information gain of a split whose i-th child holds ``code_n[i]`` rows
    with the nonzero class counts ``cell_n[cell_start[i]:cell_start[i + 1]]``
    in class order: each child's ``_entropy``, summed in child order."""
    child_entropy = 0.0
    for m, a, b in zip(code_n, cell_start[:-1], cell_start[1:]):
        child_entropy += (m / n) * _entropy(cell_n[a:b].astype(np.float64))
    return node_entropy - child_entropy


def dt_train(X, y, n_classes: int, features: tuple[Feature, ...],
             min_leaf: int = 2, max_depth: int | None = None) -> DecisionTreeModel:
    X, y = _check_training(X, y, n_classes, features)
    root = _TreeFit(X, y, n_classes, features).grow(min_leaf, max_depth)
    return DecisionTreeModel(features, n_classes, root)


def check_base_kind(kind: str) -> None:
    """Reject a base learner name outside ``BASE_KINDS``."""
    if kind not in BASE_KINDS:
        raise ValueError(f"unknown base learner {kind!r} (expected one of {BASE_KINDS})")


def train_base(kind: str, X, y, n_classes: int, features: tuple[Feature, ...]):
    check_base_kind(kind)
    train = nb_train if kind == "nb" else dt_train
    return train(X, y, n_classes, features)


def base_model_from_dict(d: dict):
    if d["kind"] == "naive-bayes":
        return NaiveBayesModel.from_dict(d)
    if d["kind"] == "decision-tree":
        return DecisionTreeModel.from_dict(d)
    raise ValueError(f"unknown base model kind {d['kind']!r}")
