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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Feature, normalize_log_scores

VAR_FLOOR = 1e-6
GAIN_EPS = 1e-9

BASE_KINDS = ("nb", "dt")


def _check_features(X, D: int, ndim: int) -> np.ndarray:
    """``X`` as float64 finite feature values: one row (``ndim`` 1) or an
    (N, D) matrix (``ndim`` 2)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != ndim or X.shape[-1] != D:
        raise ValueError(
            f"feature arity {X.shape[ndim - 1:]} does not match training arity ({D},)")
    # x.x is finite when every value is; a NaN, an infinity or an overflow
    # makes it not, and only then does the exact check run
    flat = X.ravel()
    if not math.isfinite(flat.dot(flat)):
        bad = np.argwhere(~np.isfinite(X))
        if len(bad):
            raise ValueError(f"feature {bad[0][-1]}: value {float(X[tuple(bad[0])])!r} "
                             "is not finite")
    return X


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
    """Laplace-smoothed priors and per-feature conditionals.

    Categorical features use smoothed count tables over the declared
    cardinality; numeric features use per-class Gaussians with a variance
    floor so constant features cannot produce singular likelihoods.
    """

    def __init__(self, features, log_priors, cat_log_table, num_mean, num_inv2var,
                 num_logconst):
        self.features = tuple(features)
        self.cat_positions, self.num_positions, cat_cards = _layout(self.features)
        C = self.n_classes = len(log_priors)
        if (C < 1 or log_priors.shape != (C,) or num_logconst.shape != (C,)
                or cat_log_table.shape != (C, int(cat_cards.sum()))
                or {num_mean.shape, num_inv2var.shape} != {(C, len(self.num_positions))}):
            raise ValueError(f"naive Bayes tables do not fit {C} classes and the features")
        self.log_priors = log_priors
        self.cat_cards = cat_cards
        self.cat_offsets = np.cumsum(cat_cards) - cat_cards  # row of each feature's code 0
        # (K, C): one contiguous row of class log-probabilities per
        # (feature, code), so a gather reads whole rows.  The builders lay
        # the table out column-major, so this takes no copy.
        self.cat_log_rows = np.ascontiguousarray(cat_log_table.T)
        self.num_mean = num_mean
        self.num_inv2var = num_inv2var
        self.num_logconst = num_logconst

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
        is pairwise; the distribution is [1.0] either way.)
        """
        X = _check_features(X, len(self.features), 2)
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
            "log_priors": self.log_priors.tolist(),
            "cat_positions": self.cat_positions.tolist(),
            "cat_cards": self.cat_cards.tolist(),
            "cat_log_table": self.cat_log_table.tolist(),
            "num_positions": self.num_positions.tolist(),
            "num_mean": self.num_mean.tolist(),
            "num_inv2var": self.num_inv2var.tolist(),
            "num_logconst": self.num_logconst.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "NaiveBayesModel":
        m = NaiveBayesModel(
            tuple(Feature.from_dict(f) for f in d["features"]),
            np.asarray(d["log_priors"], dtype=np.float64),
            np.array(d["cat_log_table"], dtype=np.float64, order="F"),
            np.asarray(d["num_mean"], dtype=np.float64),
            np.asarray(d["num_inv2var"], dtype=np.float64),
            np.asarray(d["num_logconst"], dtype=np.float64),
        )
        stored = [d["cat_positions"], d["num_positions"], d["cat_cards"]]
        if stored != [m.cat_positions.tolist(), m.num_positions.tolist(), m.cat_cards.tolist()]:
            raise ValueError(f"naive Bayes positions and cardinalities {stored} do not match "
                             "the features")
        return m


def nb_train(X, y, n_classes: int, features: tuple[Feature, ...]) -> NaiveBayesModel:
    """Train naive Bayes by counting.

    Priors and categorical conditionals are Laplace-smoothed with constant 1;
    numeric features get per-class (mean, variance) with ``VAR_FLOOR``.
    """
    X, y = _check_training(X, y, n_classes, features)
    N = X.shape[0]
    class_counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    log_priors = np.log((class_counts + 1.0) / (N + n_classes))

    cat_positions, num_positions, cat_cards = _layout(features)
    tables = []
    for j, card in zip(cat_positions, cat_cards):
        codes = X[:, j].astype(np.int64)
        if np.any(codes < 0) or np.any(codes >= card):
            raise ValueError(f"feature {j}: training codes outside declared cardinality {card}")
        counts = np.zeros((n_classes, card), dtype=np.float64)
        np.add.at(counts, (y, codes), 1.0)
        tables.append(np.log((counts + 1.0) / (class_counts + card)[:, None]).T)
    cat_log_table = np.concatenate(tables).T if tables else np.zeros((n_classes, 0))

    Dn = len(num_positions)
    num_mean = np.zeros((n_classes, Dn))
    num_var = np.zeros((n_classes, Dn))
    if Dn:
        Xn = X[:, num_positions]
        global_mean = Xn.mean(axis=0)
        global_var = np.maximum(Xn.var(axis=0), VAR_FLOOR)
        for c in range(n_classes):
            rows = Xn[y == c]
            if rows.shape[0] == 0:
                # unseen class: fall back to the pooled statistics
                num_mean[c] = global_mean
                num_var[c] = global_var
            else:
                num_mean[c] = rows.mean(axis=0)
                num_var[c] = np.maximum(rows.var(axis=0), VAR_FLOOR)
    num_inv2var = 1.0 / (2.0 * num_var) if Dn else np.zeros((n_classes, 0))
    num_logconst = (-0.5 * np.log(2.0 * math.pi * num_var)).sum(axis=1) if Dn \
        else np.zeros(n_classes)

    return NaiveBayesModel(features, log_priors, cat_log_table, num_mean, num_inv2var,
                           num_logconst)


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


def dt_train(X, y, n_classes: int, features: tuple[Feature, ...],
             min_leaf: int = 2, max_depth: int | None = None) -> DecisionTreeModel:
    X, y = _check_training(X, y, n_classes, features)
    root = _grow(X, y, n_classes, features, frozenset(), 0, min_leaf, max_depth)
    return DecisionTreeModel(features, n_classes, root)


def train_base(kind: str, X, y, n_classes: int, features: tuple[Feature, ...]):
    if kind == "nb":
        return nb_train(X, y, n_classes, features)
    if kind == "dt":
        return dt_train(X, y, n_classes, features)
    raise ValueError(f"unknown base learner {kind!r} (expected one of {BASE_KINDS})")


def base_model_from_dict(d: dict):
    if d["kind"] == "naive-bayes":
        return NaiveBayesModel.from_dict(d)
    if d["kind"] == "decision-tree":
        return DecisionTreeModel.from_dict(d)
    raise ValueError(f"unknown base model kind {d['kind']!r}")
