"""Probabilistic multi-class base learners: categorical/Gaussian naive Bayes
and an information-gain decision tree.

Inference is batch: ``predict_dist_many(X) -> (N, C)`` and
``predict_many(X) -> (N,)`` score an (N, D) matrix, and the scalar
``predict_dist(x)`` / ``predict(x)`` are a batch of one, so row i of a batch
equals the scalar answer for ``X[i]`` bit for bit.  ``predict_dist_many(X,
owner, codes)`` and ``predict_many(X, owner, codes)`` also take a chain
decoder's batch in factored form: row i is the x row ``X[owner[i]]``
followed by the integer parent codes ``codes[i]``.  ``log_dist_grid(X, L)``
gives a first-order chain step's transitions: the floored
log-distributions of each x row followed by every code l < L of its last
feature, which naive Bayes builds in closed form
(``core.log_normalized_sums``) and the tree gathers from a table.  Its
kernel, ``log_dist_grid_checked``, returns naive Bayes' tensor over the
distinct classes only, with the map that gathers it to all classes.

Both learners subclass ``BaseModel``, which holds these public methods
once: each checks its input, then calls the learner's one kernel of the
same name ending in ``_checked``.  The check, ``BaseModel._checked_batch``,
is ``_checked_rows`` (arity, finiteness, x's categorical codes) and the
parent codes' range, against the feature layout the base class keeps; the
learner's ``_checked`` then makes x a ``Rows``: its values, the naive-Bayes
table rows of its codes and, for naive Bayes, its Gaussian terms from one
``GaussianStack`` pass.  A chain (``methods.chains.ChainModel``) checks x
once per call against its own features, which are every step model's first
features, and calls the kernels directly; it stacks its naive-Bayes steps'
Gaussian tables, so one pass serves every step.  Naive Bayes scores in
``log_scores_checked`` only and predicts the argmax of the raw scores,
summing the terms of x's features once per x row; the tree routes rows in
``route_checked`` only, reading a row's values through ``owner`` without
joining the rows, and predicts the argmax of the distribution of the node
where a row stops.  Both are deterministic for a fixed training set.  Laplace smoothing
(constant 1) keeps every output probability strictly positive, which the
chain decoders rely on.

A naive-Bayes model file holds the sufficient statistics of its training
set and nothing else: class counts, the nonzero categorical count cells
``[class, row, count]``, and the Gaussian means and variances of the classes
seen in training, in class order, with one row of them for every unseen
class (``nb_train`` gives each unseen class those of all rows).  Its
features, and so its layout, are the caller's (a chain derives them,
``methods.chains._step_features``).  ``nb_train``
counts them in a fixed number of array passes, whatever the number of
classes, and adds each class's values in row order, as NumPy's
``mean(axis=0)`` / ``var(axis=0)`` of the class's rows do.  Every unseen
class thus has the same statistics, and scores as the lowest unseen class,
bit for bit.  So a model holds its tables over its distinct classes only,
the seen ones and the lowest unseen one, and a class map: its kernel
scores those columns, in the order a full-width table's would be scored,
gathers them to all classes for distributions, and maps their argmax back
to a class, so ties still go to the lowest class.  One constructor, called
by ``nb_train`` and by ``from_dict``, derives the log-probability tables;
``from_dict`` checks a file's statistics first.  A loaded model scores bit
for bit as the trained one did.

The tree fit sorts each numeric column once and grows the tree one depth
at a time: every open node of a depth is handled in the same array passes,
which hand each node its rows in each feature's sorted order.  It screens
all splits with fixed-point x log x scores and re-scores only the near-best
ones by the exact entropy formula, so it grows the tree an exhaustive search
by that formula would grow, bit for bit.  It writes the tree as flat
arrays, one level at a time, and prediction routes rows through those
arrays, which a model file holds with its childless nodes' counts only; the
caller gives ``from_dict`` the tree's features and class count.  A
tree's nodes are read, written and walked without recursion, so a tree of
any depth fits.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import PROB_FLOOR, Feature, grid_terms, log_normalized_sums, normalize_log_scores

VAR_FLOOR = 1e-6
# the largest naive-Bayes variance: 2 pi var stays finite
VAR_CEIL = sys.float_info.max / 8
# log_scores_many sums naive-Bayes Gaussian terms unchecked while they stay below this
GAUSS_CEIL = sys.float_info.max / 4
GAIN_EPS = 1e-9
# np.vdot without its __array_function__ dispatch, which on one feature row
# costs about as much as the sum of squares itself
_vdot = getattr(np.vdot, "__wrapped__", np.vdot)
_FLOAT64 = np.dtype(np.float64)
# values per np.vdot call: OpenBLAS runs a dot product of more than 10,000
# values on several threads, and then waits for them to wake
VDOT_VALUES = 1 << 13
# x rows of at most this many categorical values are checked in Python
# (``_are_codes``): on one row of ten codes that takes about 1.9 us where
# NumPy's calls take 3.4 us (timeit, a 2-vCPU host)
PY_CODES = 32
# an exact re-score pass of the tree fit holds at most this many class-count cells
SPLIT_CELLS = 1 << 15
# screened splits within this share of n log n + n of the best are re-scored
SCREEN_RTOL = 1e-9

BASE_KINDS = ("nb", "dt")


def _checked_features(X, D: int, ndim: int) -> tuple[np.ndarray, float]:
    """``X`` as float64 finite feature values, one row (``ndim`` 1) or an
    (N, D) matrix (``ndim`` 2), and the sum of the squares of its values
    (infinite if that overflows)."""
    if type(X) is not np.ndarray or X.dtype is not _FLOAT64:  # np.asarray costs more
        X = np.asarray(X, dtype=np.float64)
    if X.ndim != ndim or X.shape[-1] != D:
        raise ValueError(
            f"feature arity {X.shape[ndim - 1:]} does not match training arity ({D},)")
    # x.x is finite when every value is; a NaN, an infinity or an overflow
    # makes it not, and only then does the exact check run.  np.vdot, unlike
    # ndarray.dot, does not report an overflow as a RuntimeWarning, and a sum
    # of Python floats overflows to inf quietly, so a long X summed in
    # chunks keeps that guarantee.
    flat = X.ravel()
    if len(flat) <= VDOT_VALUES:
        sum_sq = _vdot(flat, flat)
    else:
        sum_sq = sum(float(_vdot(c, c)) for c in
                     (flat[i:i + VDOT_VALUES] for i in range(0, len(flat), VDOT_VALUES)))
    if not math.isfinite(sum_sq):
        _reject(~np.isfinite(X), lambda i: f"feature {i % D}: value {float(X.flat[i])!r} "
                                           "is not finite")
    return X, sum_sq


def _check_training(X, y, n_classes: int, features,
                    layout=None) -> tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` as a finite nonempty (N, D) matrix, whose categorical
    columns hold integer codes below their cardinality, and N labels in
    ``0..n_classes-1``; ``layout`` is the features' ``_layout``, if the
    caller has it."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0 or y.shape != X.shape[:1]:
        raise ValueError("training data must be a nonempty (N, D) matrix with N labels")
    X, _ = _checked_features(X, len(features), 2)
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError("labels outside 0..n_classes-1")
    cat, _, cards = _layout(features) if layout is None else layout
    codes = X[:, cat]
    _reject(((codes < 0) | (codes >= cards) | (codes != np.floor(codes))).any(axis=0),
            lambda k: f"feature {int(cat[k])}: training codes outside declared cardinality "
                      f"{int(cards[k])}")
    return X, y


def _checked_codes(raw: np.ndarray, positions, cards) -> np.ndarray:
    """``raw`` as int64 codes, where column k holds finite values of the
    categorical feature ``positions[k]``; the first value in row order that
    is not an integer in ``0..cards[k]-1`` is an error.  A value of 2**63
    or more in size casts with a NumPy warning, unless invalid-value
    warnings are off, and then fails the check."""
    codes = raw.astype(np.int64)
    # a negative code reads as a huge unsigned one; each comparison is of
    # one dtype, which NumPy need not cast to per call
    bad = codes.view(np.uint64) >= cards.view(np.uint64)
    if raw.dtype.kind == "f":
        bad |= raw != codes.astype(np.float64)
    if np.count_nonzero(bad):  # np.any costs more on a few values
        i, k = np.argwhere(bad)[0]
        raise ValueError(f"feature {int(positions[k])}: code {float(raw[i, k])!r} outside "
                         f"declared cardinality {int(cards[k])}")
    return codes


def _checked_rows(X, D: int, cat: np.ndarray, cards: np.ndarray,
                  ndim: int = 2) -> tuple[np.ndarray, float, np.ndarray]:
    """``X`` checked as one row (``ndim`` 1) or an (N, D) matrix of values
    of D features whose categorical ones, at the ascending positions
    ``cat``, have the cardinalities ``cards``: the rows as an (N, D) float64
    matrix, the sum of the squares of their values (``_checked_features``)
    and their (N, F) int64 categorical codes (``_checked_codes``)."""
    X, sum_sq = _checked_features(X, D, ndim)
    if ndim == 1:
        X = X[None]
    raw = X.take(cat, axis=1)
    if raw.size <= PY_CODES and _are_codes(raw.tolist(), cards.tolist()):
        return X, sum_sq, raw.astype(np.int64)
    if sum_sq <= 2.0 ** 124:  # every value is below 2**62 in size: the codes cast quietly
        return X, sum_sq, _checked_codes(raw, cat, cards)
    with np.errstate(invalid="ignore"):  # a huge value casts quietly, then fails
        return X, sum_sq, _checked_codes(raw, cat, cards)


def _are_codes(rows: list, cards: list) -> bool:
    """Whether value k of every row of ``rows``, a finite float, is an
    integer in ``0..cards[k]-1``."""
    for row in rows:
        for v, card in zip(row, cards):
            if not (0 <= v < card and v.is_integer()):
                return False
    return True


class Rows(NamedTuple):
    """Feature rows in the form the scoring kernels take them, checked:
    ``values``, the (n, D) finite feature values, whose categorical ones are
    codes of their features; ``table_rows``, the (n, F) naive-Bayes table
    rows of those codes (``cat_offsets`` plus the code, the same in every
    model whose first features these are); and ``gauss``, the (n,
    distinct classes) Gaussian terms of the rows under one naive-Bayes
    model (``GaussianStack``), one column per class of its ``classes``, or
    None for another learner or no numeric feature."""
    values: np.ndarray
    table_rows: np.ndarray
    gauss: np.ndarray | None = None


class GaussianStack:
    """The Gaussian terms of one or more naive-Bayes models that share their
    numeric features, from one pass: the means, ``inv2var`` and
    ``logconst`` of their distinct classes stacked along the class axis.
    Model m's term of row i and class c is logconst[c] - sum_k (x_ik -
    mean[c, k])**2 * inv2var[c, k], with the sum over the numeric features
    in order, so it equals bit for bit the term of that model scoring the
    row alone, and that of any class with c's statistics.  The pass
    allocates an (n, distinct classes of all models, numeric features)
    temporary.
    """

    def __init__(self, models):
        self.positions = models[0].num_positions
        # one model's own tables are used as they are, not copied
        self.mean, self.inv2var, self.logconst = (
            tables[0] if len(tables) == 1 else np.concatenate(tables)
            for tables in ([m._mean for m in models], [m._inv2var for m in models],
                           [m._logconst for m in models]))
        ends = np.cumsum([len(m.classes) for m in models]).tolist()
        self.blocks = [slice(a, b) for a, b in zip([0] + ends, ends)]  # each model's classes
        # Rows whose values all lie within ``reach`` of 0 sum their terms
        # without overflow, and rows whose sum of squares is at most reach**2
        # have only such values.
        Dn = len(self.positions)
        reach = math.sqrt(GAUSS_CEIL)
        if Dn:
            reach = min(reach, math.sqrt(GAUSS_CEIL / (Dn * float(self.inv2var.max())))) \
                - float(np.abs(self.mean).max())
        self.safe_sum_sq = reach * reach if reach > 0 else -1.0

    def terms(self, X: np.ndarray, sum_sq: float) -> list:
        """Each model's (n, distinct classes) Gaussian terms of the checked
        rows ``X``, whose values have the sum of squares ``sum_sq``, as
        column blocks of one array; None for each without numeric features.
        A term that overflows is an error."""
        if not len(self.positions):
            return [None] * len(self.blocks)
        xn = X.take(self.positions, axis=1)
        if sum_sq <= self.safe_sum_sq:
            terms = self._pass(xn)
        else:  # a huge value: score quietly, then report a term that overflowed
            with np.errstate(over="ignore", invalid="ignore"):
                terms = self._pass(xn)
            for block in self.blocks:  # the first model that cannot score a row names it
                if not np.isfinite(terms[:, block]).all():
                    with np.errstate(over="ignore"):
                        sq = np.square(xn[:, None, :] - self.mean[block]) * self.inv2var[block]
                    i, _, k = np.unravel_index(sq.argmax(), sq.shape)
                    raise ValueError(f"feature {int(self.positions[k])}: value "
                                     f"{float(xn[i, k])!r} is too far from the class means "
                                     "to score")
        return [terms[:, block] for block in self.blocks]

    def _pass(self, xn: np.ndarray) -> np.ndarray:
        sq = xn[:, None, :] - self.mean
        np.square(sq, out=sq)
        sq *= self.inv2var
        return self.logconst - sq.sum(axis=-1)


def _layout(features) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions of the categorical and of the numeric features, and the
    categorical cardinalities."""
    cat = [j for j, f in enumerate(features) if f.kind == "categorical"]
    return (np.array(cat, dtype=np.int64),
            np.array([j for j, f in enumerate(features) if f.kind == "numeric"], dtype=np.int64),
            np.array([features[j].cardinality for j in cat], dtype=np.int64))


class BaseModel:
    """A trained probabilistic multi-class classifier: the base class of
    both learners, which holds their public methods.

    Inference is batch: ``predict_dist_many`` scores an (N, D) matrix as an
    (N, C) array of distributions over the ``n_classes`` the model was
    trained with, and ``predict_many`` gives the (N,) predicted classes.
    Both are deterministic for a fixed trained state.  The scalar
    ``predict_dist(x)`` and ``predict(x)`` are a batch of one, so row i of a
    batch equals the scalar answer for ``X[i]`` bit for bit.
    ``predict_dist_many(X, owner, codes)`` and ``predict_many(X, owner,
    codes)`` score the rows ``X[owner[i]]`` followed by the integer
    ``codes[i]`` (``X[i]`` without ``owner``) as they score the joined rows,
    and return new arrays.  Each public method checks its input with the
    subclass's ``_checked``, which makes x its ``Rows``, then calls the
    subclass's kernel of the same name ending in ``_checked``
    (``predict_dist_checked``, ``predict_checked``,
    ``log_dist_grid_checked``).  A chain calls those kernels with x rows it
    checked once and integer codes that fit their features; ``row_cells``
    is the cells per row of ``predict_checked``'s arrays.

    The constructor keeps the features' layout (``_layout``):
    ``cat_positions``, ``num_positions``, ``cat_cards``, and
    ``_last_numeric``, the position of the last numeric feature (-1 if
    none).
    """

    def __init__(self, features):
        self.features = tuple(features)
        self.cat_positions, self.num_positions, self.cat_cards = _layout(self.features)
        self._last_numeric = int(self.num_positions[-1]) if len(self.num_positions) else -1

    def _checked_batch(self, X, codes) -> tuple[np.ndarray, float, np.ndarray]:
        """``_checked_rows`` of the x rows ``X`` of a factored batch whose
        integer ``codes`` (or None) fill the trailing features, which must
        be categorical, and then the codes' range.  Every categorical code
        of a row is checked, whether or not the model reads it."""
        cat, cards = self.cat_positions, self.cat_cards
        D, F = len(self.features), len(cards)
        if codes is not None:
            if codes.dtype.kind != "i" or self._last_numeric >= D - codes.shape[1]:
                raise ValueError("codes must be integers of categorical features")
            D, F = D - codes.shape[1], F - codes.shape[1]
        checked = _checked_rows(X, D, cat[:F], cards[:F])
        if codes is not None:
            _checked_codes(codes, cat[F:], cards[F:])
        return checked

    def predict_dist_many(self, X, owner=None, codes=None) -> np.ndarray:
        """(N, C) distributions of the rows of ``X``, or of the rows
        ``X[owner[i]]`` followed by ``codes[i]``."""
        return self.predict_dist_checked(*self._checked(X, owner, codes))

    def predict_many(self, X, owner=None, codes=None) -> np.ndarray:
        """The (N,) predicted classes of the rows of ``predict_dist_many``."""
        return self.predict_checked(*self._checked(X, owner, codes))

    def log_dist_grid(self, X, L: int) -> np.ndarray:
        """(n, L, C) log-distributions of the rows ``X[i]`` followed by each
        code l < L of the last feature, which must be categorical, checked
        as ``predict_dist_many`` checks them: ``log_dist_grid_checked``'s
        tensor, gathered to all classes."""
        x, _, _ = self._checked(X, None, np.arange(L)[:, None])
        grid, cols = self.log_dist_grid_checked(x, L)
        return grid if cols is None else grid.take(cols, axis=2)

    def predict_dist(self, x) -> np.ndarray:
        return self.predict_dist_many(np.asarray(x, dtype=np.float64)[None])[0]

    def predict(self, x) -> int:
        return int(self.predict_many(np.asarray(x, dtype=np.float64)[None])[0])


class NaiveBayesModel(BaseModel):
    """Laplace-smoothed priors and per-feature conditionals, built from the
    sufficient statistics of a training set.

    The statistics are the class counts; the nonzero categorical count
    cells ``[class, row, count]`` in (class, row) order, where a row is a
    feature's ``cat_offsets`` entry plus a code; and the per-class Gaussian
    ``num_mean`` / ``num_var`` of the numeric features, with the variance
    floored at ``VAR_FLOOR`` so constant features cannot produce singular
    likelihoods.  Every class unseen in training has the same statistics:
    count 0, no cell, and one Gaussian row (``nb_train`` gives each those of
    all rows, a model file holds one such row), so it scores as the lowest
    unseen class, bit for bit.

    The model therefore holds its tables over its distinct ``classes``
    only, the seen classes and the lowest unseen one, ascending, and
    ``columns`` maps each of the ``n_classes`` classes to its column there.
    The constructor takes the statistics, with the Gaussian rows of the
    distinct classes only, and derives the log priors, the (K, classes) log
    p(code | class) rows, smoothed over the declared cardinality, and the
    Gaussian ``inv2var`` / ``logconst``; it checks nothing, for
    ``nb_train`` counts the statistics and ``from_dict`` checks them
    (``_check_stats``) first.  The kernel scores those columns and
    ``log_scores_checked`` gathers them to all classes.  The full-width ``log_priors``, ``cat_log_rows``,
    ``num_mean``, ``num_var``, ``num_inv2var`` and ``num_logconst`` are
    gathered when read; the model keeps no full-width table.  A trained and
    a loaded model hold the same tables, so a loaded model scores bit for
    bit as the trained one did, and a model file holds only the statistics.
    """

    def __init__(self, features, class_counts, cat_cells, num_mean, num_var):
        super().__init__(features)
        cat_cards, F = self.cat_cards, len(self.cat_cards)
        C = self.n_classes = len(class_counts)
        self.class_counts, self.cat_cells = class_counts, cat_cells
        self.classes, self.columns = _distinct_classes(class_counts)
        self._mean, self._var = num_mean, num_var
        self.cat_offsets = np.cumsum(cat_cards) - cat_cards  # row of each feature's code 0
        counts = class_counts[self.classes].astype(np.float64)
        self._log_priors = np.log((counts + 1.0) / (int(class_counts.sum()) + C))
        # (K, classes): one contiguous row of class log-probabilities per
        # (feature, code), so a gather reads whole rows.  A code never seen
        # with a class scores log(1 / (class count + cardinality)).
        denom = counts + cat_cards[:, None]
        self._cat_log = np.repeat(np.log(1.0 / denom), cat_cards, axis=0)
        cls, row, n = cat_cells.T
        feature = np.repeat(np.arange(F), cat_cards)[row]
        col = self.columns[cls]
        self._cat_log[row, col] = np.log((n + 1.0) / denom[feature, col])
        self._inv2var = 1.0 / (2.0 * self._var)
        self._logconst = (-0.5 * np.log(2.0 * math.pi * self._var)).sum(axis=1)
        self._grid_rows: dict = {}  # L -> grid_terms of log_dist_grid's codes < L

    def _all_classes(self, table: np.ndarray, axis: int) -> np.ndarray:
        """A table over the distinct classes gathered to all classes."""
        return table.take(self.columns, axis=axis)

    log_priors = property(lambda self: self._all_classes(self._log_priors, 0))
    cat_log_rows = property(lambda self: self._all_classes(self._cat_log, 1))
    num_mean = property(lambda self: self._all_classes(self._mean, 0))
    num_var = property(lambda self: self._all_classes(self._var, 0))
    num_inv2var = property(lambda self: self._all_classes(self._inv2var, 0))
    num_logconst = property(lambda self: self._all_classes(self._logconst, 0))

    @cached_property
    def _gaussians(self) -> GaussianStack:
        """The Gaussian terms of this model alone (a chain stacks its steps')."""
        return GaussianStack((self,))

    def _checked(self, X, owner, codes) -> tuple[Rows, object, np.ndarray | None]:
        """The arguments of ``log_scores_many``, checked (``_checked_batch``),
        with x as ``Rows``."""
        X, sum_sq, x_codes = self._checked_batch(X, codes)
        gauss, = self._gaussians.terms(X, sum_sq)
        return Rows(X, x_codes + self.cat_offsets[:x_codes.shape[1]], gauss), owner, codes

    def log_scores_many(self, X, owner=None, codes=None) -> np.ndarray:
        """(N, C) unnormalized log joint scores log p(c) + sum_j log p(v_j|c)
        of N feature rows v.  The rows are ``X``, or, in factored form, row
        i is the x row ``X[owner[i]]`` (``X[i]`` without ``owner``) followed
        by the integer ``codes[i]``, which fill the trailing features; those
        must be categorical.  A chain decoder's batch pairs a few x rows with
        many parent codes, and the terms of x's features are summed once per
        x row.  The rows are checked, then scored by ``log_scores_checked``;
        a numeric value so far from a class mean that its Gaussian term
        overflows is an error.
        """
        return self.log_scores_checked(*self._checked(X, owner, codes))

    def log_scores_checked(self, x: Rows, owner=None, codes=None) -> np.ndarray:
        """``log_scores_many`` of checked x rows, with integer ``codes``
        that are codes of the trailing features: the scoring kernel's scores
        of the distinct classes (``_class_scores``), gathered to all
        classes."""
        return self._class_scores(x, owner, codes).take(self.columns, axis=1)

    def _class_scores(self, x: Rows, owner=None, codes=None) -> np.ndarray:
        """The scoring kernel: (N, classes) scores of the distinct classes.

        Every row gets the same operations in the same order, whatever batch
        or form it comes in: its categorical terms are added left to right,
        x's then the codes', then its log prior, then its Gaussian term, so
        with two or more classes its scores agree bit for bit.  (With one
        class NumPy sums x's categorical terms pairwise; the distribution is
        [1.0] either way.)  Each column is added up as a full-width table's
        column of its class would be, so the scores of every class are those
        of a full-width kernel, bit for bit.
        """
        rows, table = x.table_rows, self._cat_log
        # one gather, whose rows NumPy adds left to right; of a one-column
        # table it adds them pairwise, as of a one-class model's full-width
        # table, so a model of several classes, none seen, adds them in order
        if len(rows) == 1 and (table.shape[1] > 1 or self.n_classes == 1):
            scores = table[rows[0]].sum(axis=0)[None]
        else:
            scores = np.zeros((len(rows), table.shape[1]))
            for j in range(rows.shape[1]):
                scores += table[rows[:, j]]
        if owner is not None:
            scores = scores.take(owner, axis=0)
        if codes is not None and codes.shape[1]:
            rows = self.cat_offsets[rows.shape[1]:] + codes
            for j in range(rows.shape[1]):
                scores += table[rows[:, j]]
        scores += self._log_priors
        gauss = x.gauss
        if gauss is not None:  # one x row: its term is added to every scored row
            scores += gauss if owner is None or len(gauss) == 1 else gauss.take(owner, axis=0)
        return scores

    def predict_dist_checked(self, x: Rows, owner=None, codes=None) -> np.ndarray:
        """The distributions of the rows of ``log_scores_checked``: the
        kernel's scores of the distinct classes, normalized over all classes
        (``normalize_log_scores`` with ``columns``), bit for bit the
        normalized ``log_scores_checked``."""
        cols = None if len(self.classes) == self.n_classes else self.columns
        return normalize_log_scores(self._class_scores(x, owner, codes), cols)

    def log_dist_grid_checked(self, x: Rows, L: int) -> tuple[np.ndarray, np.ndarray | None]:
        """``log_dist_grid`` of checked x rows, for codes l < L of the last
        feature, at the distinct classes: the ``log_normalized_sums`` of x's
        scores (its categorical terms, log prior and Gaussian term, summed
        once per x row) and of the codes' ``cat_log_rows``, an (n, L,
        distinct classes) tensor whose normalizers sum over all classes, and
        ``columns``, which gathers it to all classes (None when every class
        is distinct).  The ``grid_terms`` of the codes' rows, gathered to all
        classes, are kept per L."""
        cols = None if len(self.classes) == self.n_classes else self.columns
        terms = self._grid_rows.get(L)
        if terms is None:
            B = self._all_classes(self._cat_log[self.cat_offsets[-1]:self.cat_offsets[-1] + L], 1)
            terms = self._grid_rows[L] = grid_terms(B, None if cols is None else self.classes)
        return log_normalized_sums(self.log_scores_checked(x), None, terms), cols

    def predict_checked(self, x: Rows, owner=None, codes=None) -> np.ndarray:
        """The class of highest raw score of each row of
        ``log_scores_checked``: the argmax of the distinct classes' scores,
        as a class.  An unseen class ties with the lowest unseen one, so
        ties still go to the lowest class."""
        return self.classes.take(self._class_scores(x, owner, codes).argmax(axis=1))

    @property
    def row_cells(self) -> int:
        """Cells per row of the arrays ``predict_checked`` allocates: its
        (N, distinct classes) scores."""
        return len(self.classes)

    def codes_told_apart(self, j: int) -> np.ndarray:
        """The codes of categorical feature ``j`` that hold a count cell,
        ascending.  Every other code reads the feature's one shared row,
        log(1 / (class count + cardinality)), so those codes score alike,
        bit for bit."""
        f = int(self.cat_positions.searchsorted(j))
        lo = int(self.cat_offsets[f])
        rows = self.cat_cells[:, 1]
        return np.unique(rows[(rows >= lo) & (rows < lo + int(self.cat_cards[f]))]) - lo

    def to_dict(self) -> dict:
        seen = self.class_counts.take(self.classes) != 0  # False at the lowest unseen class only
        unseen = np.flatnonzero(~seen)
        return {
            "kind": "naive-bayes",
            "class_counts": self.class_counts.tolist(),
            "cat_cells": self.cat_cells.tolist(),
            "num_mean": self._mean[seen].tolist(),
            "num_var": self._var[seen].tolist(),
            "unseen_mean": self._mean[unseen[0]].tolist() if len(unseen) else None,
            "unseen_var": self._var[unseen[0]].tolist() if len(unseen) else None,
        }

    @staticmethod
    def from_dict(d: dict, features: tuple[Feature, ...]) -> "NaiveBayesModel":
        """The model of ``features`` whose statistics are a ``to_dict``
        mapping's, checked (``_check_stats``) before the model is built."""
        layout = _layout(features)
        class_counts = _int_array(d["class_counts"], "class count")
        cat_cells = _int_array(d["cat_cells"], "categorical cell entry", width=3)
        num_mean, num_var = (_class_rows(d[f"num_{k}"], d[f"unseen_{k}"], class_counts != 0,
                                         len(layout[1]), k) for k in ("mean", "var"))
        _check_stats(layout, class_counts, cat_cells, num_mean, num_var)
        return NaiveBayesModel(features, class_counts, cat_cells, num_mean, num_var)


def _distinct_classes(class_counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct classes of naive-Bayes class counts, the seen classes
    and the lowest unseen one, ascending, and each class's column among
    them."""
    seen = class_counts != 0
    keep, unseen = seen.copy(), int(np.argmin(seen))  # the lowest unseen class, if any
    keep[unseen] = True
    columns = np.cumsum(keep) - 1
    columns[~seen] = columns[unseen]
    return keep.nonzero()[0], columns


def _class_rows(rows, unseen, seen: np.ndarray, Dn: int, what: str) -> np.ndarray:
    """The (distinct classes, Dn) Gaussian ``what`` table of a model file's
    rows of the seen classes, in class order, and its one row of every
    unseen class, which is None when every class is seen: that row goes in
    at the lowest unseen class, which only seen classes precede."""
    C, n_seen = len(seen), int(seen.sum())
    rows = np.asarray(rows, dtype=np.float64)
    if len(rows) != n_seen or rows.size and rows.shape[1:] != (Dn,) or (
            unseen is not None and np.shape(unseen) != (Dn,)):
        raise ValueError(f"naive Bayes tables do not fit {C} classes and the features: "
                         f"num_{what} must be {n_seen} rows, one per seen class, and "
                         f"unseen_{what} one row, of {Dn} values")
    if unseen is None and n_seen < C:
        raise ValueError(f"naive Bayes class {int(np.argmin(seen))} is unseen, but the model "
                         f"has no unseen_{what} row")
    if unseen is not None and n_seen == C:
        raise ValueError(f"every naive Bayes class is seen, but the model has an "
                         f"unseen_{what} row")
    table = rows.reshape(n_seen, Dn)
    return table if unseen is None else np.insert(table, int(np.argmin(seen)), unseen, axis=0)


def _int_array(values, what: str, width: int | None = None) -> np.ndarray:
    """A JSON list of ints, or of lists of ``width`` ints, as an int64 array
    of shape (n,) or (n, width).  A bool or a float is not an int."""
    flat = list(itertools.chain.from_iterable(values)) if width else values
    if not set(map(type, flat)) <= {int}:
        bad = next(v for v in flat if type(v) is not int)
        raise ValueError(f"{what} {bad!r} is not an integer")
    return np.array(values, dtype=np.int64).reshape((len(values),) + ((width,) if width else ()))


def _reject(bad: np.ndarray, message) -> None:
    """Raise ``ValueError(message(i))`` at the first i where ``bad`` holds."""
    at = np.flatnonzero(bad)
    if len(at):
        raise ValueError(message(int(at[0])))


def _check_stats(layout, class_counts, cells, num_mean, num_var) -> None:
    """Reject naive-Bayes statistics that no training set of features of
    the ``layout`` (``_layout``) gives: tables of other shapes than
    ``NaiveBayesModel`` takes (Gaussian rows of the distinct classes), or
    no class; a negative class count, or a
    total that float64 does not hold exactly; a categorical cell that is not
    ``[class, row, count]`` with a class and a row of the model and a
    positive count, or that does not follow the cell before it in (class,
    row) order; class counts of a feature that do not sum to the class
    count; a mean that is not finite or a variance outside ``[VAR_FLOOR,
    VAR_CEIL]``."""
    cat_positions, num_positions, cat_cards = layout
    C, K, F = len(class_counts), int(cat_cards.sum()), len(cat_cards)
    n_seen = int(np.count_nonzero(class_counts))
    if (C < 1 or class_counts.shape != (C,) or cells.shape[1:] != (3,)
            or {num_mean.shape, num_var.shape} != {(n_seen + (n_seen < C), len(num_positions))}):
        raise ValueError(f"naive Bayes tables do not fit {C} classes and the features")
    if (class_counts < 0).any() or class_counts.sum(dtype=np.float64) > 2.0 ** 53:
        raise ValueError("class counts must be non-negative, with a total of at most 2**53")
    cls, row, n = cells.T
    _reject((cls < 0) | (cls >= C) | (row < 0) | (row >= K) | (n < 1),
            lambda i: f"categorical cell {cells[i].tolist()} is not "
                      f"[class < {C}, row < {K}, count >= 1]")
    _reject(np.diff(cls * K + row) <= 0,
            lambda i: f"categorical cell {cells[i + 1].tolist()} does not follow "
                      f"{cells[i].tolist()} in (class, row) order")
    feature = np.repeat(np.arange(F), cat_cards)[row]
    sums = np.bincount(cls * F + feature, weights=n, minlength=C * F).reshape(C, F)
    _reject(sums != class_counts[:, None],
            lambda i: f"the counts of feature {int(cat_positions[i % F])} in class {i // F} "
                      f"do not sum to its class count {int(class_counts[i // F])}")
    if not (np.isfinite(num_mean).all() and (num_var >= VAR_FLOOR).all()
            and (num_var <= VAR_CEIL).all()):
        raise ValueError("naive Bayes means must be finite and variances in "
                         f"[{VAR_FLOOR}, {VAR_CEIL}]")


def nb_train(X, y, n_classes: int, features: tuple[Feature, ...]) -> NaiveBayesModel:
    """Train naive Bayes by counting, in a fixed number of array passes.

    Priors and categorical conditionals are Laplace-smoothed with constant 1;
    numeric features get per-class (mean, variance) with ``VAR_FLOOR``, and
    an unseen class gets those of all rows.  Values whose variance overflows
    are an error.

    The categorical cells are the counts of one ``np.unique`` over
    ``class * K + row`` keys, so they come in (class, row) order.  A class's
    numeric sums, and then its sums of squared deviations from its mean,
    come from one weighted ``np.bincount`` each over ``column * Dn +
    feature`` bins, a column per distinct class, which adds a bin's values
    in row order, starting from 0; the tables hold the distinct classes
    only, whatever the number of classes.  NumPy's
    ``mean(axis=0)`` / ``var(axis=0)`` reduce a class's (m, Dn) block of
    rows in that order when Dn >= 2, so the tables are theirs bit for bit;
    with one numeric feature NumPy sums the column pairwise, and the last
    bits may differ.
    """
    layout = cat_positions, num_positions, cat_cards = _layout(features)
    X, y = _check_training(X, y, n_classes, features, layout)
    class_counts = np.bincount(y, minlength=n_classes)
    K, Dn = int(cat_cards.sum()), len(num_positions)
    keys = (X[:, cat_positions].astype(np.int64) + (np.cumsum(cat_cards) - cat_cards)
            + (y * K)[:, None])
    cells, counts = np.unique(keys, return_counts=True)
    cat_cells = np.column_stack((cells // K, cells % K, counts))

    classes, columns = _distinct_classes(class_counts)
    counts = class_counts.take(classes)[:, None]
    Xn, col = X[:, num_positions], columns.take(y)
    bins = ((col * Dn)[:, None] + np.arange(Dn)).ravel()

    def class_means(values: np.ndarray) -> np.ndarray:
        sums = np.bincount(bins, values.ravel(), len(classes) * Dn).reshape(len(classes), Dn)
        return sums / counts

    # huge values are reported below; the unseen column's 0 / 0 is replaced
    with np.errstate(over="ignore", invalid="ignore"):
        num_mean = class_means(Xn)
        dev = Xn - num_mean[col]
        num_var = np.maximum(class_means(dev * dev), VAR_FLOOR)
        unseen = counts[:, 0] == 0
        if unseen.any():
            num_mean[unseen] = Xn.mean(axis=0)
            num_var[unseen] = np.maximum(Xn.var(axis=0), VAR_FLOOR)
    bad = np.argwhere(~np.isfinite(num_mean) | ~(num_var <= VAR_CEIL))
    if len(bad):  # the lowest class with a bad value: the columns ascend by class
        c, k = int(classes[bad[0, 0]]), bad[0, 1]
        col = Xn[y == c, k] if class_counts[c] else Xn[:, k]
        raise ValueError(f"feature {int(num_positions[k])}: value "
                         f"{float(col[np.abs(col).argmax()])!r} overflows the variance of "
                         f"class {c}")
    return NaiveBayesModel(features, class_counts, cat_cells, num_mean, num_var)


# ---------------------------------------------------------------------------
# decision tree


@dataclass
class DTNode:
    """One node of a tree, with the nodes below it: the nested form in which
    a tree is described, never read.  A ``DecisionTreeModel`` scores from,
    and is saved as, flat arrays (``TreeArrays``); it builds this on request."""
    counts: tuple[int, ...]
    feature: int | None = None          # None = leaf
    threshold: float | None = None      # numeric split
    left: "DTNode | None" = None
    right: "DTNode | None" = None
    children: dict[int, "DTNode"] | None = None  # categorical split, keyed by code

    def to_dict(self) -> dict:
        """This node and the nodes below it as nested mappings, built without
        recursion: each holds its ``counts``, and a split node its ``feature``
        and either a ``threshold`` with its ``left`` and ``right`` children or
        its ``children`` keyed by code."""
        out: dict = {}
        stack = [(self, out)]
        while stack:
            node, d = stack.pop()
            d["counts"] = list(node.counts)
            if node.feature is not None:
                d["feature"] = node.feature
                if node.children is not None:
                    d["children"] = {str(k): {} for k in node.children}
                    stack += zip(node.children.values(), d["children"].values())
                else:
                    d["threshold"], d["left"], d["right"] = node.threshold, {}, {}
                    stack += [(node.left, d["left"]), (node.right, d["right"])]
        return out


class TreeArrays(NamedTuple):
    """A tree's nodes in breadth-first order, the root first, with the
    children of each split node consecutive and in their split's order.
    Node v splits on ``feature[v]`` (-1 at a leaf) and has ``n_child[v]``
    children from ``first[v]`` on.  A numeric split has a finite
    ``threshold[v]`` (NaN at every other node) and two children, left then
    right; a categorical split reaches each child by its ``code`` (-1 at a
    node that no categorical split reaches).  So ``first`` is 1 plus the
    child counts of the nodes before v, or 0 where v has none.  ``counts``
    is the (nodes, classes) int matrix of training class counts, whose row
    at a split node is the sum of its children's rows."""
    feature: np.ndarray
    threshold: np.ndarray
    first: np.ndarray
    n_child: np.ndarray
    code: np.ndarray
    counts: np.ndarray


def _tree_arrays(root: DTNode) -> TreeArrays:
    """The arrays of the tree below ``root``, numbered breadth first."""
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


def _entropies(counts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The entropy of each run of ``counts``, nonzero class counts in class
    order, with the given lengths.  Runs of one length are the rows of one
    matrix, whose row sums NumPy adds as it adds a vector of that length,
    so each entropy equals that of the run alone bit for bit."""
    sizes = set(lengths.tolist())
    if len(sizes) == 1:  # one matrix, as in a level of one node
        c = counts.reshape(len(lengths), -1)
        p = c / c.sum(axis=1, keepdims=True)
        return -(p * np.log(p)).sum(axis=1)
    out = np.empty(len(lengths))
    starts = lengths.cumsum() - lengths
    for m in sizes:
        at = (lengths == m).nonzero()[0]
        c = counts[starts[at, None] + np.arange(m)]
        p = c / c.sum(axis=1, keepdims=True)
        out[at] = -(p * np.log(p)).sum(axis=1)
    return out


def _entropy_rows(counts: np.ndarray) -> np.ndarray:
    """The entropy of each row of class counts, each row with a positive
    total; a zero count adds 0 log 1."""
    p = counts / counts.sum(axis=1, keepdims=True)
    logs = p + (p == 0)
    np.log(logs, out=logs)
    logs *= p
    return -logs.sum(axis=1)


# a batch of at most this many scored rows and x rows is routed by the
# Python walk, a larger one level by level in NumPy.  On the fit-dt
# workload's trees (90-560 nodes, depth 5-10) the walk takes about 1 us a
# row and the level-wise kernel 26-50 us a batch of one row and 45-60 us a
# batch of 50 (the medians over the trees of the fastest of 25 timings, on
# a shared 2-vCPU host); the two cost the same at 45 to 56 rows.
WALK_ROWS = 50


class DecisionTreeModel(BaseModel):
    """Greedy top-down tree maximizing information gain.

    Categorical splits are multiway over the values observed at the node
    (each categorical feature is tested at most once per path); numeric
    splits are binary thresholds at midpoints between sorted distinct
    values.  Leaves hold Laplace-smoothed class-count distributions.

    ``dt_train`` sorts each numeric column once per fit (a stable argsort)
    and grows the tree level by level, as SLIQ does: all open nodes of one
    depth are searched in the same array passes, and their row ids, in
    every feature's sorted order, reach the children by stable partition.
    Every threshold of every numeric feature, and every categorical
    feature, of every node gets a fast score: n times the child entropy,
    m log m - sum c log c over the children's class counts, from a
    fixed-point x log x table; along a feature's sorted rows it changes by
    two table entries per row, so one cumsum scores all thresholds of a
    level.  Splits within ``SCREEN_RTOL`` of their node's best score are
    re-scored by the exact formulas (``_entropy_rows`` per threshold,
    ``_entropies`` per categorical child), and the exact gains decide: the
    first feature with the highest gain, at its lowest best threshold; if
    no gain reaches ``GAIN_EPS``, the lowest-index feature that partitions
    at all, so XOR-like structure between features can still be found.

    A fitted tree is flat arrays (``tree``, a ``TreeArrays``), which the fit
    writes level by level and a model file holds (``to_file_dict``).  The
    constructor also takes the ``DTNode`` root of a tree and numbers it
    breadth first, and ``root`` builds that nested form back, in which
    ``to_dict`` describes the tree.  The smoothed distributions of all nodes
    are one read-only (nodes, classes) matrix ``dist``, computed once from
    the int ``counts``, and a batch's answer is one gather from it.  A row
    goes left when its value is at most the threshold, and stops at a
    categorical node that has not seen its code; its distribution is that of
    the node where it stops.

    Rows are routed by one of two kernels, which stop every row at the same
    node.  A batch of more than ``WALK_ROWS`` rows moves one level at a time
    in NumPy: each row still moving reads its node's feature and searches
    the tree's sorted routing keys, one per child: node v's children have
    the keys ``v * R + o``, where the outcome o is left (0) or right (1) at
    a numeric split, and at a categorical one the rank of the child's code
    among the codes of the children of all splits on that feature.  A
    batch's codes become those ranks once, and a code outside that list
    gets the rank past its end.  A row whose key no child holds has a code
    unseen at its node and stops there.  The keys and ranks are sized by
    the tree's nodes, never by a declared cardinality.  A batch costs some
    tens of microseconds however few rows it holds, so a batch of at most
    ``WALK_ROWS`` rows, as in online prediction of one row, walks the tree
    in Python, at about a microsecond a row: per node a tuple of its
    feature, its threshold and its left child, or of its feature and its
    code table as a dict, all made once per tree.
    """

    def __init__(self, features: tuple[Feature, ...], n_classes: int,
                 root: DTNode | TreeArrays):
        super().__init__(features)
        self.n_classes = n_classes
        tree = self.tree = root if isinstance(root, TreeArrays) else _tree_arrays(root)
        counts = tree.counts
        self.dist = counts + 1.0
        self.dist /= counts.sum(axis=1, keepdims=True) + n_classes
        self.dist.setflags(write=False)
        # the routing keys, ascending, and the child each leads to.  Per
        # feature j of a categorical split, ``_seen[j]`` lists the codes of
        # the children of the splits on j, ascending, then inf: a code's rank
        # is its index there, and the index of inf for a code not listed.
        split = (tree.feature >= 0).nonzero()[0]
        kid = _ranges(tree.first[split], tree.n_child[split])
        parent = np.repeat(split, tree.n_child[split])
        outcome = kid - tree.first[parent]
        is_cat = np.isnan(tree.threshold)
        by_code = is_cat[parent]
        on, code = tree.feature[parent[by_code]], tree.code[kid[by_code]]
        rank = np.empty(len(code), dtype=np.intp)
        self._seen = {}
        for j in np.unique(tree.feature[split[is_cat[split]]]).tolist():
            seen = np.unique(code[on == j])
            rank[on == j] = seen.searchsorted(code[on == j])
            self._seen[j] = np.append(seen, np.inf)  # a code is at most 2**53: exact
        outcome[by_code] = rank
        R = max([2] + [len(seen) for seen in self._seen.values()])
        # as float64, exact below 2**53, so that a level adds no int cast
        keys = (parent * R + outcome).astype(np.float64)
        order = keys.argsort()
        kid = kid[order]
        # a search past the last key reads the end: a key no row has
        self._keys = np.append(keys[order], np.inf)
        self._kids = np.append(kid, 0)
        self._goes_on = np.append(tree.feature[kid] >= 0, False)  # the child is a split
        self._arrays = (tree.feature, tree.threshold, is_cat * 1.0, tree.first,
                        np.arange(len(counts)) * float(R))
        # the same tree for the Python walk, one entry per node: None at a
        # leaf, (feature, threshold, left child) at a numeric split and
        # (feature, None, {code: child}) at a categorical one
        feature, threshold, first, n_child, code = (
            a.tolist() for a in (tree.feature, tree.threshold, tree.first, tree.n_child, tree.code))
        self._nodes = [None] * len(feature)
        for v in split.tolist():
            a = first[v]
            self._nodes[v] = (feature[v], threshold[v], a) if not math.isnan(threshold[v]) else (
                feature[v], None, dict(zip(code[a:a + n_child[v]], range(a, a + n_child[v]))))

    @property
    def root(self) -> DTNode:
        """The tree as nested ``DTNode`` objects, built from the arrays."""
        t = self.tree
        nodes = [DTNode(counts=tuple(c)) for c in t.counts.tolist()]
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

    def predict_dist_checked(self, x: Rows, owner=None, codes=None) -> np.ndarray:
        return self.dist.take(self.route_checked(x, owner, codes), axis=0)

    def _checked(self, X, owner, codes) -> tuple[Rows, object, np.ndarray | None]:
        """The arguments of ``route``, checked (``_checked_batch``), with x
        as ``Rows`` (without table rows) and no codes for codes of width 0."""
        X, _, _ = self._checked_batch(X, codes)
        return Rows(X, None), owner, (codes if codes is not None and codes.shape[1] else None)

    def route(self, X, owner=None, codes=None) -> np.ndarray:
        """The node at which each row of ``predict_dist_many(X, owner,
        codes)`` stops: a leaf, or a categorical split that has not seen the
        row's code."""
        return self.route_checked(*self._checked(X, owner, codes))

    def route_checked(self, x: Rows, owner=None, codes=None) -> np.ndarray:
        """``route`` of checked x rows, with integer ``codes`` that are codes
        of the trailing features: the routing kernel."""
        X = x.values
        if owner is not None:
            owner = np.asarray(owner, dtype=np.intp)
        n = len(X) if owner is None else len(owner)
        if len(X) <= WALK_ROWS >= n:
            return np.array(self._walk(X, owner, codes), dtype=np.intp)
        return self._descend(X, owner, codes, n)

    def _walk(self, X: np.ndarray, owner, codes) -> list[int]:
        """``route_checked`` row by row in Python, for a small batch."""
        rows = X.tolist()
        if owner is not None:
            rows = [rows[i] for i in owner.tolist()]
        if codes is not None:
            rows = [x + c for x, c in zip(rows, codes.tolist())]
        nodes, out = self._nodes, []
        for x in rows:
            v, node = 0, nodes[0]
            while node is not None:
                j, t, k = node
                if t is None:  # k maps a code (2.0 finds the key 2) to its child
                    k = k.get(x[j])
                    if k is None:
                        break  # a code unseen at this node: stop here
                    v = k
                else:  # left at k, right at k + 1
                    v = k + (x[j] > t)
                node = nodes[v]
            out.append(v)
        return out

    def _descend(self, X: np.ndarray, owner, codes, n: int) -> np.ndarray:
        """``route_checked``, one level at a time: the rows still
        moving read their nodes' features, through ``owner`` from x or from
        ``codes``, and step to the children their routing keys find."""
        feature, threshold, is_cat, first, node_key = self._arrays
        leaf = np.zeros(n, dtype=np.intp)
        if n == 0 or feature[0] < 0:
            return leaf
        Dx = X.shape[1]
        values = X.ravel()
        at = (np.arange(n) if owner is None else owner) * Dx  # each row's x row in values
        if codes is not None:  # its codes follow the x rows
            values = np.concatenate((values, codes.ravel()))
            tail = (len(X) * Dx - Dx) + np.arange(n) * codes.shape[1]
        if self._seen:  # the same values, with ranks for codes
            ranks = values.copy()
            x_cols = ranks[:len(X) * Dx].reshape(len(X), Dx)
            for j, seen in self._seen.items():
                col = x_cols[:, j] if j < Dx else ranks[len(X) * Dx:].reshape(n, -1)[:, j - Dx]
                r = seen.searchsorted(col)
                r[seen.take(r) != col] = len(seen) - 1
                col[...] = r
        rows, node = np.arange(n), leaf.copy()
        while len(rows):
            j = feature.take(node)
            if codes is None:
                pos = at.take(rows) + j
            else:
                pos = np.where(j < Dx, at.take(rows), tail.take(rows)) + j
            # the outcome: v > threshold at a numeric split (NaN elsewhere),
            # and the rank of v at a categorical one
            out = values.take(pos) > threshold.take(node)
            if self._seen:
                key = node_key.take(node) + out + ranks.take(pos) * is_cat.take(node)
                i = self._keys.searchsorted(key)
                hit = self._keys.take(i) == key  # a miss: a code unseen at the node
                nxt = np.where(hit, self._kids.take(i), node)
                inner = hit & self._goes_on.take(i)
            else:
                nxt = first.take(node) + out
                inner = feature.take(nxt) >= 0
            leaf[rows] = nxt
            rows, node = rows[inner], nxt[inner]
        return leaf

    @cached_property
    def _labels(self) -> np.ndarray:
        """Each node's most probable class, the first if several tie."""
        return self.dist.argmax(axis=1)

    def predict_checked(self, x: Rows, owner=None, codes=None) -> np.ndarray:
        return self._labels.take(self.route_checked(x, owner, codes))

    @property
    def row_cells(self) -> int:
        """Cells per row of the arrays ``predict_checked`` allocates: a
        row's values, one per feature, twice (the routed values and their
        ranks); the tree makes no (N, C) array."""
        return 2 * len(self.features)

    def codes_told_apart(self, j: int) -> np.ndarray:
        """The codes of categorical feature ``j`` that reach a child of a
        split on ``j``, ascending.  A row with any other code stops at every
        node that tests ``j``, so those codes route alike (all codes do when
        no node tests ``j``)."""
        seen = self._seen.get(j)
        return np.zeros(0, dtype=np.int64) if seen is None else seen[:-1].astype(np.int64)

    @cached_property
    def _log_dist(self) -> np.ndarray:
        """``dist``'s logarithms, floored at log PROB_FLOOR."""
        return np.log(np.maximum(self.dist, PROB_FLOOR))

    def log_dist_grid_checked(self, x: Rows, L: int) -> tuple[np.ndarray, None]:
        """``log_dist_grid`` of checked x rows, for codes l < L of the last
        feature: the routed rows' nodes gathered from ``_log_dist``, full
        width (no column map)."""
        n = len(x.values)
        nodes = self.route_checked(x, np.repeat(np.arange(n), L),
                                   np.tile(np.arange(L), n)[:, None])
        return self._log_dist.take(nodes, axis=0).reshape(n, L, self.n_classes), None

    def to_dict(self) -> dict:
        """The tree described as nested mappings (``DTNode.to_dict``)."""
        return {
            "kind": "decision-tree",
            "features": [f.to_dict() for f in self.features],
            "n_classes": self.n_classes,
            "root": self.root.to_dict(),
        }

    def to_file_dict(self) -> dict:
        """The tree as a model file holds it: the ``TreeArrays`` columns but
        ``first`` and ``counts`` (None for a NaN threshold), and the childless
        nodes' nonzero counts as ``[node, class, count]`` cells."""
        t = self.tree
        leaf = (t.n_child == 0).nonzero()[0]
        at, cls = t.counts[leaf].nonzero()
        node = leaf[at]
        return {
            "kind": "decision-tree",
            "feature": t.feature.tolist(),
            "threshold": [None if math.isnan(v) else v for v in t.threshold.tolist()],
            "n_child": t.n_child.tolist(),
            "code": t.code.tolist(),
            "count_cells": np.column_stack((node, cls, t.counts[node, cls])).tolist(),
        }

    @staticmethod
    def from_dict(d: dict, features: tuple[Feature, ...], n_classes: int) -> "DecisionTreeModel":
        """The tree of ``features`` and ``n_classes`` classes whose columns
        are a ``to_file_dict`` mapping's, checked as arrays: a split is on a
        feature of the tree, by code only if it is categorical, at a finite
        threshold (not a bool) into two children or by distinct codes below
        the cardinality; every node after the root is the child of an
        earlier one; the count cells fit (``_tree_counts``)."""
        D = len(features)
        bad = [t for t in d["threshold"]
               if t is not None and (type(t) not in (int, float) or not math.isfinite(t))]
        if bad:
            raise ValueError(f"a tree threshold is {bad[0]!r}, not a finite number")
        threshold = np.array(d["threshold"], dtype=np.float64)  # None is NaN
        feature = _int_array(d["feature"], "tree feature")
        n_child = _int_array(d["n_child"], "tree child count")
        code = _int_array(d["code"], "tree code")
        n, numeric = len(threshold), ~np.isnan(threshold)
        if not 0 < n == len(feature) == len(n_child) == len(code):
            raise ValueError("a tree needs one feature, threshold, n_child and code entry "
                             "per node, and a node")
        # each node's feature's cardinality, 0 for a numeric one
        card = np.array([f.cardinality or 0 for f in features] + [0]).take(feature, mode="clip")
        split = feature >= 0
        _reject((feature < -1) | (feature >= D) | split & ~numeric & (card == 0),
                lambda v: f"a tree node splits on feature {feature[v]} of {D} (by code only if "
                          "it is categorical)")
        _reject(~split & (numeric | (n_child != 0)),
                lambda v: f"tree node {v} is a leaf (feature -1) with a threshold or children")
        _reject(n_child < 0, lambda v: f"tree node {v} has {n_child[v]} children")
        # node v's children are first[v]..first[v] + n_child[v] - 1
        kids = np.minimum(n_child, n)  # so that no sum overflows
        first = np.cumsum(kids) - kids + 1
        _reject((kids > 0) & ((first <= np.arange(n)) | (first + kids > n)),
                lambda v: f"tree node {v} has child "
                          f"{first[v] if first[v] <= v else int(first[v]) + int(n_child[v]) - 1}, "
                          f"not an index in {v + 1}..{n - 1}")
        if kids.sum() != n - 1:
            raise ValueError(f"the tree's child counts sum to {kids.sum()}, not {n - 1}, one per "
                             "node after the root")
        _reject(numeric & (n_child != 2),
                lambda v: f"tree node {v} splits at a threshold into {n_child[v]} children, not 2")
        # each node's parent, and its parent's cardinality where that splits by code
        parent = np.append(0, np.repeat(np.arange(n), n_child))
        by_code = np.append(0, (card * ~numeric).take(parent[1:]))
        _reject((by_code > 0) & ((code < 0) | (code >= by_code)),
                lambda v: f"a tree node splits feature {feature[parent[v]]} on code {code[v]}, "
                          f"outside its declared cardinality {by_code[v]}")
        _reject((by_code == 0) & (code != -1),
                lambda v: f"tree node {v} has code {code[v]}, but no split by code reaches it")
        kid = np.flatnonzero(by_code)
        kid = kid[np.lexsort((code[kid], parent[kid]))]
        _reject((np.diff(parent[kid]) == 0) & (np.diff(code[kid]) == 0),
                lambda i: f"tree node {parent[kid[i]]} has two children of code {code[kid[i]]}")
        counts = _tree_counts(_int_array(d["count_cells"], "tree count cell entry", width=3),
                              n_child, n_classes)
        first = np.where(n_child > 0, first, 0)
        return DecisionTreeModel(features, n_classes,
                                 TreeArrays(feature, threshold, first, n_child, code, counts))


def _tree_counts(cells: np.ndarray, n_child: np.ndarray, n_classes: int) -> np.ndarray:
    """The (nodes, classes) counts of a tree whose childless nodes hold the
    ``[node, class, count]`` cells, positive, in (node, class) order and
    totalling at most 2**53; a split node's are its children's summed, as
    cells one depth at a time, the deepest first.  int32, as the fit's, when
    the total fits."""
    n = len(n_child)
    node, cls, k = cells.T
    _reject((node < 0) | (node >= n) | (cls < 0) | (cls >= n_classes) | (k < 1),
            lambda i: f"tree count cell {cells[i].tolist()} is not "
                      f"[node < {n}, class < {n_classes}, count >= 1]")
    _reject(np.diff(node * n_classes + cls) <= 0,
            lambda i: f"tree count cell {cells[i + 1].tolist()} does not follow "
                      f"{cells[i].tolist()} in (node, class) order")
    _reject(n_child.take(node) != 0, lambda i: f"tree count cell {cells[i].tolist()} is at "
                                               f"node {node[i]}, which has children")
    total = sum(k.tolist())  # the root's, exact
    if total > 2 ** 53:
        raise ValueError(f"a tree node's class counts total {total}, above 2**53")
    counts = np.zeros((n, n_classes), dtype=np.int32 if total < 2**31 else np.int64)
    counts[node, cls] = k
    # the nodes of depth i are bounds[i]..bounds[i + 1] - 1, and the
    # children of nodes 0..v end before ends[v]
    bounds, ends = [0, 1], np.cumsum(n_child) + 1
    while bounds[-1] < n:
        bounds.append(int(ends[bounds[-1] - 1]))
    up = np.repeat(np.arange(n), n_child)  # node v's parent is up[v - 1]
    at, below = node.searchsorted(bounds), cells[:0]  # the cells summed for the depth below
    for i in range(len(bounds) - 2, 0, -1):
        v, c, w = np.concatenate((below, cells[at[i]:at[i + 1]])).T
        key, back = np.unique(up.take(v - 1) * n_classes + c, return_inverse=True)
        below = np.column_stack((key // n_classes, key % n_classes,
                                 np.bincount(back, w).astype(np.int64)))  # exact below 2**53
        counts[below[:, 0], below[:, 1]] = below[:, 2]
    return counts


class _Level(NamedTuple):
    """The open nodes of one depth, side by side.  Node v owns the columns
    ``bounds[v]:bounds[v + 1]`` (``node_of`` is v there) of ``srt``, whose
    row g lists the node's rows in numeric feature ``num[g]``'s sorted
    order, and whose last row lists them in no particular order.  Its class
    counts are ``counts[v]``, ``used[v]`` marks the categorical features its
    path tests, and ``ids[v]`` is its index in the tree's arrays."""
    ids: np.ndarray
    bounds: np.ndarray
    node_of: np.ndarray
    srt: np.ndarray
    counts: np.ndarray
    used: np.ndarray


class _Numeric(NamedTuple):
    """The thresholds of a level, in order: on numeric feature ``num[g]``,
    in node ``v``, before flat position ``end`` of the level's sorted
    ``labels`` and ``vals`` (one row per feature), with their fast scores."""
    g: np.ndarray
    end: np.ndarray
    v: np.ndarray
    score: np.ndarray
    labels: np.ndarray
    vals: np.ndarray


class _Categorical(NamedTuple):
    """The multiway splits of a level, in (v, c) order: on categorical
    feature ``cat[c]``, in node ``v``, with their fast scores.  A split's
    children are the (node, code) groups ``first .. first + width - 1``:
    group i is ``key[i] = v * (number of code ids) + code id`` and holds
    ``code_n[i]`` rows, whose nonzero class counts in class order are
    ``cell_n[cell_start[i]:cell_start[i + 1]]``."""
    v: np.ndarray
    c: np.ndarray
    score: np.ndarray
    first: np.ndarray
    width: np.ndarray
    key: np.ndarray
    code_n: np.ndarray
    cell_n: np.ndarray
    cell_start: np.ndarray


_NO_INDEX = np.zeros(0, dtype=np.intp)
_NO_THRESHOLDS = _Numeric(_NO_INDEX, _NO_INDEX, _NO_INDEX, np.zeros(0), _NO_INDEX, np.zeros(0))
_NO_SPLITS = _Categorical(_NO_INDEX, _NO_INDEX, np.zeros(0), *(_NO_INDEX,) * 6)


class _TreeFit:
    """One top-down fit, grown one depth at a time, as SLIQ grows its
    trees: each numeric column is sorted once, and all open nodes of a
    depth are screened, re-scored and partitioned in the same array passes.

    A level (``_Level``) lays its nodes' rows out side by side, per numeric
    feature in that feature's sorted order.  The children's blocks are
    stable partitions of the parent's, so they stay in the order a stable
    argsort of the child's own rows would give, and no node sorts anything.
    Each level numbers its nodes' children consecutively, so the tree comes
    out as ``TreeArrays``, numbered breadth first, one level's nodes at a
    time.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, n_classes: int, features,
                 min_leaf: int, max_depth: int | None):
        self.X, self.y, self.n_classes = X, y, n_classes
        self.min_leaf, self.max_depth = min_leaf, max_depth
        cat, self.num, _ = _layout(features)
        self.num_values = np.ascontiguousarray(X[:, self.num].T)  # (Dn, N)
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
        # x log x for x = 0..N in fixed point: multiples of 2**-b, with b as
        # large as keeps every entry, and so every fast score, below 2**61
        x = np.arange(1, len(y) + 1, dtype=np.float64)
        xlogx = np.concatenate(([0.0], x * np.log(x)))
        self.unit = 2.0 ** (61 - math.ceil(math.log2(xlogx[-1] + 2.0)))
        self.xlogx = np.rint(xlogx * self.unit).astype(np.int64)
        self.dxlogx = self.xlogx[1:] - self.xlogx[:-1]  # from x to x + 1
        # scratch: each row's node in the next level (16 bits when they
        # fit, which NumPy sorts by radix)
        self.row_next = np.zeros(len(y), dtype=np.uint16 if len(y) < 1 << 16 else np.intp)

    def _open(self, counts: np.ndarray, sizes: np.ndarray, depth: int) -> np.ndarray:
        """Which nodes at ``depth`` with these class counts and sizes get a
        split search."""
        return (((counts > 0).sum(axis=1) >= 2) & (sizes >= 2 * self.min_leaf)
                & (self.max_depth is None or depth < self.max_depth))

    def grow(self) -> TreeArrays:
        N = len(self.y)
        counts = np.bincount(self.y, minlength=self.n_classes)[None]
        # the tree's arrays, one chunk per level: each node's class counts and
        # the code that reaches it, in node order; and per level, its split
        # nodes with their features, thresholds, first children and child counts
        self.counts_out, self.code_out, self.splits = [counts], [np.full(1, -1)], []
        srt = np.argsort(self.num_values, axis=1, kind="stable")
        level = _Level(np.zeros(1, dtype=np.intp), np.array([0, N]), np.zeros(N, dtype=np.intp),
                       np.vstack((srt, np.arange(N))), counts,
                       np.zeros((1, len(self.cat)), dtype=bool))
        depth = 0
        if self._open(counts, np.array([N]), depth)[0]:
            while len(level.ids):
                depth += 1
                level = self._partition(level, *self._best_splits(level), depth)
        # a count is at most N: 32 bits hold it, in half the memory
        counts = np.concatenate(self.counts_out, dtype=np.int32 if N < 2**31 else np.int64)
        feature, threshold = np.full(len(counts), -1), np.full(len(counts), np.nan)
        first, n_child = np.zeros(len(counts), dtype=np.intp), np.zeros(len(counts), dtype=np.intp)
        for ids, *values in self.splits:
            for a, value in zip((feature, threshold, first, n_child), values):
                a[ids] = value
        return TreeArrays(feature, threshold, first, n_child, np.concatenate(self.code_out), counts)

    def _best_splits(self, level: _Level):
        """The split of each node of ``level`` that an exact information-gain
        search over every feature would choose: the first feature with the
        highest gain, at its lowest best threshold, or else the zero-gain
        fallback.  Returns per node the feature split on (-1 for none); for
        a numeric split, the values ``lo`` < ``hi`` of its sorted rows on
        either side of the threshold; for a categorical one, its position in
        ``self.cat`` (-1 otherwise); and the children of the categorical
        splits as ascending (node, code) keys."""
        counts = level.counts
        V = len(counts)
        n = level.bounds[1:] - level.bounds[:-1]
        present = counts > 0
        entropy = _entropies(counts[present].astype(np.float64), present.sum(axis=1))
        num = self._screen_numeric(level, n) if len(self.num) else _NO_THRESHOLDS
        cat = self._screen_categorical(level) if len(self.cat) else _NO_SPLITS
        # A fast score is n times the child entropy: x log x of each child's
        # size less that of each of its class counts, from the fixed-point
        # table, added exactly in int64 and rounded once to float64.  An
        # entry is within half a unit 2**-b and a few ulps of its true value,
        # and a score sums at most 2n + 2 of them, so it is off by under
        # (n + 1) 2**-b plus a few ulps of n log n + n, where 2**-b <= 2**-33
        # for up to 10**7 training rows.  An exact gain is node entropy minus
        # child entropy by the formulas of _entropy_rows and _entropies.
        # Scaled by n, it is off its true value by a few dozen ulps of
        # n log n + n (sums of non-negative terms, each within a few ulps,
        # summed pairwise), plus one ulp per child for a categorical gain
        # summed child by child: under 1e-12 of n log n + n for up to 2**20
        # classes and 10**4 codes.  A split whose exact gain ties with or
        # beats that of the best fast split thus scores within 5e-10 of
        # n log n + n of it, and SCREEN_RTOL, 1e-9, sits above that: every
        # split that can win is re-scored.
        tol = SCREEN_RTOL * (self.xlogx[n] + n * self.unit)
        limit = np.full(V, np.inf)
        np.minimum.at(limit, num.v, num.score)
        np.minimum.at(limit, cat.v, cat.score)
        limit += tol
        ti = (num.score <= limit[num.v]).nonzero()[0]
        ci = (cat.score <= limit[cat.v]).nonzero()[0]
        # the candidates: the near-best thresholds, then the near-best multiway splits
        v, j, p = num.v[ti], self.num[num.g[ti]], num.end[ti]
        gain = self._exact_numeric(level, num, ti, n, entropy)
        if len(ci):
            v, j = np.concatenate((v, cat.v[ci])), np.concatenate((j, self.cat[cat.c[ci]]))
            p = np.concatenate((p, np.zeros(len(ci), dtype=np.intp)))
            gain = np.concatenate((gain, self._exact_categorical(cat, ci, n, entropy)))
        win = _first_best(v, gain, j, p)
        weak = np.zeros(V, dtype=bool)
        weak[v[win[gain[win] < GAIN_EPS]]] = True
        win = win[~weak[v[win]]]
        t_win, c_win = ti[win[win < len(ti)]], ci[win[win >= len(ti)] - len(ti)]
        if weak.any():
            t_more, c_more = self._fallback(level, num, cat, weak, n, entropy, tol)
            t_win, c_win = np.concatenate((t_win, t_more)), np.sort(np.concatenate((c_win, c_more)))
        feature = np.full(V, -1)
        lo, hi = np.zeros(V), np.zeros(V)
        v, end = num.v[t_win], num.end[t_win]
        feature[v] = self.num[num.g[t_win]]
        lo[v], hi[v] = num.vals[end - 1], num.vals[end]
        split_cat = np.full(V, -1)
        keys = _NO_INDEX
        if len(c_win):
            v, c = cat.v[c_win], cat.c[c_win]
            split_cat[v] = c
            feature[v] = self.cat[c]
            keys = cat.key[_ranges(cat.first[c_win], cat.width[c_win])]
        return feature, lo, hi, split_cat, keys

    def _fallback(self, level: _Level, num: _Numeric, cat: _Categorical, weak, n, entropy, tol):
        """For the nodes ``weak``, impure but with no gain that reaches
        ``GAIN_EPS``, the split on the lowest-index feature that partitions
        at all, so that conjunctive (XOR-like) structure between features
        can still be found: ``(thresholds, multiway splits)``, as indices
        into ``num`` and ``cat``."""
        V, D = len(weak), self.X.shape[1]
        lowest_cat = np.full(V, D)
        np.minimum.at(lowest_cat, cat.v, self.cat[cat.c])
        lowest_num = np.full(V, len(self.num))
        np.minimum.at(lowest_num, num.v, num.g)
        by_num = weak & (np.append(self.num, D)[lowest_num] < lowest_cat)
        first = by_num[num.v] & (num.g == lowest_num[num.v])
        best = np.full(V, np.inf)
        np.minimum.at(best, num.v[first], num.score[first])
        ti = (first & (num.score <= (best + tol)[num.v])).nonzero()[0]
        gain = self._exact_numeric(level, num, ti, n, entropy)
        # a node's first multiway split is on its lowest-index feature
        return (ti[_first_best(num.v[ti], gain, num.g[ti], num.end[ti])],
                np.searchsorted(cat.v, (weak & ~by_num).nonzero()[0]))

    def _screen_numeric(self, level: _Level, n) -> _Numeric:
        """Every threshold of every numeric feature in every node of
        ``level``, with its fast score.

        Along a node's rows in a feature's sorted order, each row moves from
        the right child to the left one.  That changes sum_c x log x over
        the children's class counts by table entries that depend only on
        how many rows of its class went before it, so a threshold's score
        is the node's score with every row on the right, less the changes
        up to it: one cumsum over the level, which in fixed point is back
        at 0 after every block of one feature and node, exactly.
        """
        srt, bounds, counts, node_of = level.srt[:-1], level.bounds, level.counts, level.node_of
        V, C, M = len(counts), self.n_classes, srt.size
        feature_row = np.arange(len(srt))[:, None]
        vals = self.num_values[feature_row, srt]
        change = vals[:, 1:] != vals[:, :-1]
        if V > 1:  # no threshold from one node's last row to the next one's first
            change[:, bounds[1:-1] - 1] = False
        g, p = change.nonzero()
        v = node_of[p]
        labels = self.y[srt]
        node_class = node_of * C + labels
        key = (feature_row * (V * C) + node_class).ravel()
        # a stable sort, by radix when the keys fit in 16 bits
        order = np.argsort(key.astype(np.uint16) if len(srt) * V * C <= 1 << 16 else key,
                           kind="stable")
        # the rows of a row's class before it in its block: its place in its run of keys
        place = np.arange(M)
        run = place.copy()
        in_run = key[order]
        run[1:][in_run[1:] == in_run[:-1]] = 0
        went = np.empty(M, dtype=np.int64)
        went[order] = place - np.maximum.accumulate(run)
        total = counts.ravel()[node_class.ravel()]
        cum = np.zeros(M + 1, dtype=np.int64)
        (self.dxlogx[went] - self.dxlogx[total - went - 1]).cumsum(out=cum[1:])
        end = g * bounds[-1] + p + 1  # the threshold, in the flat level
        nl = p + 1 - bounds[v]
        xlogx = self.xlogx
        scores = (xlogx[nl] + xlogx[n[v] - nl] - xlogx[counts].sum(axis=1)[v]
                  - (cum[end] - cum[end - nl]))
        return _Numeric(g, end, v, scores.astype(np.float64), labels.ravel(), vals.ravel())

    def _exact_numeric(self, level: _Level, num: _Numeric, ti, n, entropy) -> np.ndarray:
        """The information gain of each threshold ``num[ti]`` by the dense
        formula over all classes."""
        g, v = num.g[ti], num.v[ti]
        counts = level.counts
        before = counts.cumsum(axis=0) - counts  # per class, the rows of the nodes before
        row_total = before[-1] + counts[-1]
        node_total = counts.astype(np.float64)
        gains = entropy[v]  # less each side's share times its entropy
        for a, left in _prefix_counts(num.labels, num.end[ti], self.n_classes):
            m = len(left)
            s, vs = slice(a, a + m), v[a:a + m]
            left -= before[vs]
            left -= g[s, None] * row_total
            nl, nv = left.sum(axis=1), n[vs]
            h = _entropy_rows(np.concatenate((left, node_total[vs] - left)))  # row by row
            gains[s] -= (nl / nv) * h[:m]
            gains[s] -= ((nv - nl) / nv) * h[m:]
        return gains

    def _screen_categorical(self, level: _Level) -> _Categorical:
        """Every categorical feature that a node of ``level`` has not split
        on and that takes two or more codes there, with its fast score, from
        one sort of (node, code, class) keys."""
        F, NC, C = len(self.cat), len(self.code_value), self.n_classes
        rows, node_of = level.srt[-1], level.node_of
        free = ~level.used.T[:, node_of]
        cells, cell_n = np.unique(((node_of * NC + self.code_ids[:, rows]) * C + self.y[rows])[free],
                                  return_counts=True)
        group = cells // C
        cell_start = _starts(group)
        key = group[cell_start]
        code_n = np.add.reduceat(cell_n, cell_start)
        owner = self.code_owner[key % NC]
        first = _starts(key // NC * F + owner)
        width = np.diff(np.append(first, len(key)))
        scores = (np.add.reduceat(self.xlogx[code_n], first)
                  - np.add.reduceat(self.xlogx[cell_n], cell_start[first]))
        multi = width > 1
        first = first[multi]
        return _Categorical(key[first] // NC, owner[first], scores[multi].astype(np.float64),
                            first, width[multi], key, code_n, cell_n,
                            np.append(cell_start, len(cells)))

    def _exact_categorical(self, cat: _Categorical, splits, n, entropy) -> np.ndarray:
        """The information gain of each split ``cat[splits]``: each child's
        entropy, weighted and summed in child order."""
        first, width = cat.first[splits], cat.width[splits]
        children = _ranges(first, width)
        sizes = np.diff(cat.cell_start)[children]
        child_entropy = _entropies(
            cat.cell_n[_ranges(cat.cell_start[children], sizes)].astype(np.float64), sizes)
        split = np.repeat(np.arange(len(splits)), width)
        terms = np.zeros((len(splits), int(width.max())))
        terms[split, children - first[split]] = (
            (cat.code_n[children] / n[cat.v[splits]][split]) * child_entropy)
        # cumsum adds left to right; padding zeros at the end add nothing
        return entropy[cat.v[splits]] - np.cumsum(terms, axis=1)[:, -1]

    def _partition(self, level: _Level, feature, lo, hi, split_cat, keys, depth) -> _Level:
        """The next level: the children of the nodes of ``level`` that split,
        each with its class counts and its rows by stable partition; a child
        that gets no split search stays a leaf and leaves the level."""
        ids, _, node_of, srt, _, used = level
        rows = srt[-1]
        V, C, NC = len(ids), self.n_classes, len(self.code_value)
        key_node = keys // NC
        n_child = 2 * (feature >= 0)
        if len(keys):
            n_child[split_cat >= 0] = np.bincount(key_node, minlength=V)[split_cat >= 0]
        first = n_child.cumsum() - n_child
        # each row's child, numbered across the level; -1 in a node that does not
        # split.  A numeric split sends right the rows above lo, the values from hi.
        child = np.full(len(rows), -1)
        at = ((feature >= 0) & (split_cat < 0))[node_of]
        r, v = rows[at], node_of[at]
        child[at] = first[v] + (self.X[r, feature[v]] > lo[v])
        K = int(n_child.sum())
        code = np.full(K, -1)
        if len(keys):
            at = (split_cat >= 0)[node_of]
            r, v = rows[at], node_of[at]
            key_child = first[key_node] + np.arange(len(keys)) - np.searchsorted(key_node, key_node)
            child[at] = key_child[np.searchsorted(keys, v * NC + self.code_ids[split_cat[v], r])]
            code[key_child] = self.code_value[keys % NC]
        # counted one child up, so that the rows of no child go to row 0
        counts = np.bincount((child + 1) * C + self.y[rows],
                             minlength=(K + 1) * C).reshape(-1, C)[1:]
        with np.errstate(over="ignore"):
            mid = (lo + hi) / 2.0
        # rounded up to hi, or overflowed to +-inf: split at lo
        threshold = np.where(split_cat >= 0, np.nan, np.where((lo <= mid) & (mid < hi), mid, lo))
        n_nodes = sum(map(len, self.code_out))  # the children's ids start here
        split = (feature >= 0).nonzero()[0]
        self.splits.append((ids[split], feature[split], threshold[split], n_nodes + first[split],
                            n_child[split]))
        self.counts_out.append(counts)
        self.code_out.append(code)
        sizes = counts.sum(axis=1)
        kept = self._open(counts, sizes, depth).nonzero()[0]
        sizes = sizes[kept]
        # a kept child's rows move to its slot in the next level, the others sort last
        slot = np.full(K + 1, len(kept))
        slot[kept] = np.arange(len(kept))
        self.row_next[rows] = slot[child]
        moved = np.argsort(self.row_next[srt], axis=1, kind="stable")[:, :int(sizes.sum())]
        parent = np.repeat(np.arange(V), n_child)[kept]
        used = used[parent]
        if len(keys):
            by_cat = (split_cat[parent] >= 0).nonzero()[0]
            used[by_cat, split_cat[parent[by_cat]]] = True
        return _Level(n_nodes + kept, np.concatenate(([0], sizes.cumsum())),
                      np.repeat(np.arange(len(kept)), sizes),
                      srt[np.arange(len(srt))[:, None], moved], counts[kept], used)


def _first_best(v: np.ndarray, gain: np.ndarray, j: np.ndarray, p: np.ndarray) -> np.ndarray:
    """For each node among ``v``, the candidate with the highest gain, then
    the lowest feature j, then the lowest sorted position p: as a search
    feature by feature would keep the first best it meets."""
    order = np.lexsort((p, j, -gain, v))
    return order[_starts(v[order])]


def _prefix_counts(labels: np.ndarray, ends: np.ndarray, width: int):
    """``(a, counts)`` per chunk of the ascending prefix lengths ``ends``:
    ``counts[i]`` is the histogram over ``width`` classes of
    ``labels[:ends[a + i]]``, as float64.  A chunk holds at most
    ``SPLIT_CELLS`` counts, or one histogram when that is larger; the
    caller may change it."""
    running, start = 0, 0
    step = max(1, SPLIT_CELLS // width)
    for a in range(0, len(ends), step):
        e = ends[a:a + step]
        seg = np.searchsorted(e, np.arange(start, e[-1]), side="right")
        cum = np.cumsum(np.bincount(seg * width + labels[start:e[-1]],
                                    minlength=len(e) * width).reshape(len(e), width),
                        axis=0, dtype=np.float64)
        cum += running
        running, start = cum[-1].copy(), e[-1]
        yield a, cum


def _starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values of ``keys`` starts."""
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return np.flatnonzero(new)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i] .. starts[i] + lengths[i] - 1``, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)


def dt_train(X, y, n_classes: int, features: tuple[Feature, ...],
             min_leaf: int = 2, max_depth: int | None = None) -> DecisionTreeModel:
    X, y = _check_training(X, y, n_classes, features)
    tree = _TreeFit(X, y, n_classes, features, min_leaf, max_depth).grow()
    return DecisionTreeModel(features, n_classes, tree)


def check_base_kind(kind: str) -> None:
    """Reject a base learner name outside ``BASE_KINDS``."""
    if kind not in BASE_KINDS:
        raise ValueError(f"unknown base learner {kind!r} (expected one of {BASE_KINDS})")


def train_base(kind: str, X, y, n_classes: int, features: tuple[Feature, ...]):
    check_base_kind(kind)
    train = nb_train if kind == "nb" else dt_train
    return train(X, y, n_classes, features)


def base_model_to_dict(m) -> dict:
    """A base model's mapping as a model file holds it: a tree's columns
    (``DecisionTreeModel.to_file_dict``), not its nested description."""
    return m.to_file_dict() if isinstance(m, DecisionTreeModel) else m.to_dict()


def base_model_from_dict(d: dict, features: tuple[Feature, ...], n_classes: int) -> BaseModel:
    """The base model of a ``base_model_to_dict`` mapping, which states
    neither its ``features`` nor, but for naive Bayes' class counts, its
    ``n_classes``: a chain derives both."""
    if d["kind"] == "naive-bayes":
        return NaiveBayesModel.from_dict(d, features)
    if d["kind"] == "decision-tree":
        return DecisionTreeModel.from_dict(d, features, n_classes)
    raise ValueError(f"unknown base model kind {d['kind']!r}")
