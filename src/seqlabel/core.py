"""Shared data model: label schemas, feature metadata and datasets, and the
log-space arithmetic the base classifiers share.

Label values are zero-based dense integer codes.  Per-position cardinalities
come from the schema declaration, not from observed training values, so
values unseen at training time remain representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

FeatureVector = tuple  # feature values: int codes for categorical, floats for numeric
LabelVector = tuple    # T integer label values
Instance = tuple       # (FeatureVector, LabelVector)

DIST_TOL = 1e-9
PROB_FLOOR = 1e-15
LOG_PROB_FLOOR = math.log(PROB_FLOOR)
INT64_MAX = 2 ** 63 - 1


class DataFormatError(ValueError):
    """Raised when an on-disk artifact cannot be parsed or violates its format."""


@dataclass(frozen=True)
class LabelSchema:
    """Output structure: T label positions, position t taking one of
    ``cardinalities[t]`` values (each >= 2, and at most 2**63 - 1, since
    label values are int64 in ``Dataset.Y``)."""

    cardinalities: tuple[int, ...]

    def __post_init__(self):
        if len(self.cardinalities) < 1:
            raise ValueError("schema needs at least one label position")
        for t, card in enumerate(self.cardinalities):
            if not isinstance(card, (int, np.integer)) or card < 2:
                raise ValueError(f"position {t}: cardinality {card!r} is not an integer >= 2")
            if card > INT64_MAX:
                raise ValueError(f"position {t}: cardinality {card!r} does not fit int64")

    @property
    def T(self) -> int:
        return len(self.cardinalities)

    def conforms(self, y: Sequence[int]) -> bool:
        if len(y) != self.T:
            return False
        return all(0 <= int(v) < c for v, c in zip(y, self.cardinalities))


@dataclass(frozen=True)
class Feature:
    """Metadata for one input feature: categorical (dense codes in
    ``range(cardinality)``, a cardinality of at most 2**53, so that every
    code is a float64 feature value exactly) or numeric."""

    kind: str  # "categorical" | "numeric"
    cardinality: int | None = None
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("categorical", "numeric"):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == "categorical":
            if not isinstance(self.cardinality, (int, np.integer)) or not (
                    1 <= self.cardinality <= 2 ** 53):
                raise ValueError("categorical feature needs an integer cardinality >= 1 "
                                 f"and at most 2**53, not {self.cardinality!r}")
        elif self.cardinality is not None:
            raise ValueError("numeric feature takes no cardinality")

    @staticmethod
    def categorical(cardinality: int, name: str = "") -> "Feature":
        return Feature("categorical", cardinality, name)

    @staticmethod
    def numeric(name: str = "") -> "Feature":
        return Feature("numeric", None, name)

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "name": self.name}
        if self.kind == "categorical":
            d["cardinality"] = self.cardinality
        return d

    @staticmethod
    def from_dict(d: dict) -> "Feature":
        return Feature(d["kind"], d.get("cardinality"), d.get("name", ""))


@dataclass
class Dataset:
    """N instances of (feature vector, label vector) under one schema.

    Instances are stored as plain tuples so that malformed rows can be
    represented and reported by ``validate_dataset`` instead of being
    rejected at construction.  Training code uses the cached ``X``/``Y``
    arrays, which do require well-formed rows.  A reader that parsed the
    arrays passes them as ``_X``/``_Y``; they hold the instances' values.
    """

    schema: LabelSchema
    features: tuple[Feature, ...]
    instances: list[Instance]
    name: str = ""
    _X: np.ndarray | None = field(default=None, repr=False, compare=False)
    _Y: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for a in (self._X, self._Y):
            if a is not None:
                a.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.instances)

    @property
    def D(self) -> int:
        return len(self.features)

    @property
    def X(self) -> np.ndarray:
        """(N, D) float64 feature matrix (categorical codes stored as floats)."""
        if self._X is None:
            self._X = np.array([list(x) for x, _ in self.instances],
                               dtype=np.float64).reshape(self.n, self.D)
            self._X.setflags(write=False)
        return self._X

    @property
    def Y(self) -> np.ndarray:
        """(N, T) int64 label matrix; a label that is not an integer is an
        error, which names its instance."""
        if self._Y is None:
            rows = [list(y) for _, y in self.instances]
            Y = np.array(rows)
            if Y.dtype != np.int64:  # not all int64 values: a label may be 1.5, or too large
                try:
                    Y = np.array(rows, dtype=np.int64)
                except OverflowError as e:
                    raise ValueError(f"a label value does not fit int64: {e}") from e
                # the cast truncates a label of 1.5 to 1
                bad = next(((i, v) for i, y in enumerate(rows) for v in y if v != int(v)), None)
                if bad is not None:
                    raise ValueError(f"instance {bad[0]}: label value {bad[1]!r} is not an "
                                     "integer")
            self._Y = Y.reshape(self.n, self.schema.T)
            self._Y.setflags(write=False)
        return self._Y

    def subset(self, indices: Sequence[int] | np.ndarray, name: str | None = None) -> "Dataset":
        """The rows ``indices``, with the rows of ``X`` and ``Y`` when those
        are cached."""
        idx = np.asarray(indices, dtype=np.int64)
        rows = [self.instances[i] for i in idx.tolist()]
        X, Y = (a[idx] if a is not None and len(a) == self.n else None for a in (self._X, self._Y))
        return Dataset(self.schema, self.features, rows, name if name is not None else self.name,
                       X, Y)


def validate_dataset(d: Dataset) -> list[str]:
    """Return every schema/feature violation, with instance index.

    Empty list iff all invariants hold.  Violations are data, not failures.
    Masks over the arrays of the rows of the right arity pick the cells
    that may break a rule, and ``_bad_cell`` judges each such cell by its
    instance value.  The feature array is ``X`` when cached, which holds the
    values themselves; ``Y`` rejects a label of 1.5, so the label array is
    built from the instances.
    """
    codes = [f.cardinality if f.kind == "categorical" else None for f in d.features]
    found = []  # (instance, 0 for x or 1 for y, column, message), sorted into report order
    for part, what, limits, cached in ((0, "feature", codes, d._X),
                                       (1, "label", d.schema.cardinalities, None)):
        vectors = [inst[part] for inst in d.instances]
        width = len(limits)
        ok = [i for i, v in enumerate(vectors) if len(v) == width]
        if len(ok) < len(vectors):
            cached = None
            found += [(i, part, -1, f"instance {i}: {what} arity {len(v)} != {width}")
                      for i, v in enumerate(vectors) if len(v) != width]
        for k, j in np.argwhere(_suspect_cells([vectors[i] for i in ok], limits, cached)):
            i, card = ok[k], limits[j]
            v = vectors[i][j]
            if _bad_cell(v, card):
                msg = (f"label position {j} value {v!r} outside 0..{card - 1}" if part else
                       f"feature {j} not finite" if card is None else
                       f"feature {j} code {v!r} outside 0..{card - 1}")
                found.append((i, part, j, f"instance {i}: {msg}"))
    return [msg for *_, msg in sorted(found)]


def _suspect_cells(rows: list, limits, cached) -> np.ndarray:
    """A mask that holds every cell of ``rows`` whose value is not finite
    or, where ``limits[j]`` is a cardinality, not an integer in
    ``0..limits[j]-1``; a value of 2**53 or more in size is always in it,
    since float64 does not tell such integers apart.  ``cached`` is the
    rows' array, if there is one."""
    try:
        A = cached if cached is not None and len(cached) == len(rows) else np.array(
            rows, dtype=np.float64).reshape(len(rows), len(limits))
    except (OverflowError, TypeError, ValueError):  # a value float64 does not hold
        return np.ones((len(rows), len(limits)), dtype=bool)
    coded = np.array([c is not None for c in limits], dtype=bool)
    lim = np.array([min(c, 2 ** 53) if c is not None else 0 for c in limits], dtype=np.float64)
    with np.errstate(invalid="ignore"):
        return ~np.isfinite(A) | coded & ((A < 0) | (A >= lim) | (A != np.floor(A)))


def _bad_cell(v, card: int | None) -> bool:
    """Whether ``v`` breaks its rule: the value of a numeric feature
    (``card`` None) must be finite, a code or a label an integer in
    ``0..card-1``."""
    try:
        if card is None:
            return not math.isfinite(float(v))
        return float(v) != int(v) or not 0 <= int(v) < card
    except (OverflowError, ValueError):  # an integer beyond float64, or a NaN or infinite code
        return True


def is_distribution(p: np.ndarray, tol: float = DIST_TOL) -> bool:
    p = np.asarray(p, dtype=np.float64)
    return bool(np.all(np.isfinite(p)) and np.all(p >= 0) and abs(p.sum() - 1.0) <= tol)


def argmax_lowest(p: np.ndarray) -> int:
    """Index of the maximum entry; ties resolve to the lowest index."""
    return int(np.argmax(p))


def normalize_log_scores(scores: np.ndarray, columns: np.ndarray | None = None) -> np.ndarray:
    """Turn unnormalized log scores into a strictly positive distribution
    along the last axis (one distribution per row of a matrix).

    Entries are floored at a tiny constant and renormalized so downstream
    joint products never hit an exact zero.

    With ``columns``, the rows of ``scores`` are the distinct columns of
    wider rows, ``scores.take(columns, axis=-1)``, whose distributions are
    returned: the maximum, the exp, the divisions and the floor work on the
    distinct columns only, and each sum is taken over a gathered full-width
    row, in the same order, so the result is bit for bit that of the wider
    rows.
    """
    p = scores - np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.add.reduce(p if columns is None else p.take(columns, axis=-1), axis=-1, keepdims=True)
    np.maximum(p, PROB_FLOOR, out=p)
    if columns is not None:
        p = p.take(columns, axis=-1)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    return p


def grid_terms(B: np.ndarray, cols: np.ndarray | None = None) -> tuple:
    """What ``log_normalized_sums`` needs of a 2-d ``B``: its row maxima b,
    as a column, exp(B - b), the columns ``cols`` of the result (None: all
    of them) and those columns of B transposed, contiguous."""
    b = B.max(axis=1, keepdims=True)
    return b, np.exp(B - b), cols, np.ascontiguousarray((B if cols is None
                                                         else B.take(cols, axis=1)).T)


def log_normalized_sums(A: np.ndarray, B: np.ndarray, terms=None) -> np.ndarray:
    """(n, L, K) log-distributions of the score rows ``A[i] + B[l]`` of an
    (n, C) ``A`` and an (L, C) ``B``, at the K columns ``cols`` of
    ``terms`` (all C by default), clipped to [LOG_PROB_FLOOR, 0].
    ``terms`` is ``grid_terms(B, cols)``, if the caller keeps it; B itself
    is then not read.

    Each row's log normalizer z is log(sum_c exp(A[i, c] - a) exp(B[l, c] -
    b)) + a + b over all C columns, with a and b the row maxima, so the n x
    L sums take one matrix product and no exp per cell.  The caller keeps
    every sum clear of underflow: a sum is at least exp(B[l, c] - b) at
    A[i]'s best column c, where exp(A[i, c] - a) is exactly 1.  Naive
    Bayes' code rows, the one caller's B, lie in [-log(2**54), 0], since a
    class count plus a cardinality is at most 2**54, so each of its sums is
    at least e**-37.5, and the products that underflow move it by at most C
    * 2**-1074 / e**-37.5 relative.  Entry (i, l, k) is then ``A[i, c] + B[l, c] - z``
    for c = ``cols[k]``, so it equals column c of the full-width result bit
    for bit.  This is ``log(normalize_log_scores(A[i] + B[l]))`` but for
    its second renormalization, which moves a probability by at most C *
    PROB_FLOOR relative.  A row's values do not depend on the other rows.
    The result is the (n, L, K) view of an array laid out (n, K, L), so an
    argmax over its axis 1 (Viterbi's best previous value) reads contiguous
    memory and makes no copy of the tensor.
    """
    a = A.max(axis=1, keepdims=True)
    b, eB, cols, BT = terms if terms is not None else grid_terms(B)
    # one (L, C) x (C,) product per row of A, the same for any n
    sums = np.matmul(eB, np.exp(A - a)[:, :, None])[:, :, 0]
    out = np.add((A if cols is None else A.take(cols, axis=1))[:, :, None], BT)
    out = out.transpose(0, 2, 1)
    z = np.log(sums) + a + b.T
    out -= z[:, :, None]
    return np.clip(out, LOG_PROB_FLOOR, 0.0, out=out)

