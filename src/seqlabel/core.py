"""Shared data model: label schemas, feature metadata, datasets, and the
contracts every base classifier and multi-label method satisfies.

Label values are zero-based dense integer codes.  Per-position cardinalities
come from the schema declaration, not from observed training values, so
values unseen at training time remain representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

FeatureVector = tuple  # feature values: int codes for categorical, floats for numeric
LabelVector = tuple    # T integer label values
Instance = tuple       # (FeatureVector, LabelVector)

DIST_TOL = 1e-9
PROB_FLOOR = 1e-15


class DataFormatError(ValueError):
    """Raised when an on-disk artifact cannot be parsed or violates its format."""


@dataclass(frozen=True)
class LabelSchema:
    """Output structure: T label positions, position t taking one of
    ``cardinalities[t]`` values (each >= 2)."""

    cardinalities: tuple[int, ...]

    def __post_init__(self):
        if len(self.cardinalities) < 1:
            raise ValueError("schema needs at least one label position")
        for t, card in enumerate(self.cardinalities):
            if not isinstance(card, (int, np.integer)) or card < 2:
                raise ValueError(f"position {t}: cardinality {card!r} is not an integer >= 2")

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
    ``range(cardinality)``) or numeric."""

    kind: str  # "categorical" | "numeric"
    cardinality: int | None = None
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("categorical", "numeric"):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == "categorical":
            if not isinstance(self.cardinality, (int, np.integer)) or self.cardinality < 1:
                raise ValueError("categorical feature needs an integer cardinality >= 1")
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
    arrays, which do require well-formed rows.
    """

    schema: LabelSchema
    features: tuple[Feature, ...]
    instances: list[Instance]
    name: str = ""
    _X: np.ndarray | None = field(default=None, repr=False, compare=False)
    _Y: np.ndarray | None = field(default=None, repr=False, compare=False)

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
        """(N, T) int64 label matrix."""
        if self._Y is None:
            self._Y = np.array([list(y) for _, y in self.instances],
                               dtype=np.int64).reshape(self.n, self.schema.T)
            self._Y.setflags(write=False)
        return self._Y

    def subset(self, indices: Iterable[int], name: str | None = None) -> "Dataset":
        rows = [self.instances[i] for i in indices]
        return Dataset(self.schema, self.features, rows, name if name is not None else self.name)


def validate_dataset(d: Dataset) -> list[str]:
    """Return every schema/feature violation, with instance index.

    Empty list iff all invariants hold.  Violations are data, not failures.
    """
    violations: list[str] = []
    D = d.D
    T = d.schema.T
    for i, (x, y) in enumerate(d.instances):
        if len(x) != D:
            violations.append(f"instance {i}: feature arity {len(x)} != {D}")
        else:
            for j, (v, feat) in enumerate(zip(x, d.features)):
                if feat.kind == "categorical":
                    if float(v) != int(v) or not (0 <= int(v) < feat.cardinality):
                        violations.append(
                            f"instance {i}: feature {j} code {v!r} outside "
                            f"0..{feat.cardinality - 1}"
                        )
                elif not math.isfinite(float(v)):
                    violations.append(f"instance {i}: feature {j} not finite")
        if len(y) != T:
            violations.append(f"instance {i}: label arity {len(y)} != {T}")
        else:
            for t, v in enumerate(y):
                if float(v) != int(v) or not (0 <= int(v) < d.schema.cardinalities[t]):
                    violations.append(
                        f"instance {i}: label position {t} value {v!r} outside "
                        f"0..{d.schema.cardinalities[t] - 1}"
                    )
    return violations


def is_distribution(p: np.ndarray, tol: float = DIST_TOL) -> bool:
    p = np.asarray(p, dtype=np.float64)
    return bool(np.all(np.isfinite(p)) and np.all(p >= 0) and abs(p.sum() - 1.0) <= tol)


def argmax_lowest(p: np.ndarray) -> int:
    """Index of the maximum entry; ties resolve to the lowest index."""
    return int(np.argmax(p))


def normalize_log_scores(scores: np.ndarray) -> np.ndarray:
    """Turn unnormalized log scores into a strictly positive distribution
    along the last axis (one distribution per row of a matrix).

    Entries are floored at a tiny constant and renormalized so downstream
    joint products never hit an exact zero.
    """
    p = scores - np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    np.maximum(p, PROB_FLOOR, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    return p


@runtime_checkable
class BaseModel(Protocol):
    """A trained probabilistic multi-class classifier.

    Inference is batch: ``predict_dist_many`` scores an (N, D) matrix as an
    (N, C) array of distributions over the class count the model was trained
    with, and ``predict_many`` gives the (N,) predicted classes.  Both are
    deterministic for a fixed trained state.  The scalar ``predict_dist(x)``
    and ``predict(x)`` are a batch of one, so row i of a batch equals the
    scalar answer for ``X[i]`` bit for bit.  ``predict_dist_many(X, owner,
    codes)`` scores the rows ``X[owner[i]]`` followed by the integer
    ``codes[i]`` (``X[i]`` without ``owner``) as it scores the joined rows,
    and returns a new array.
    """

    n_classes: int

    def predict_dist_many(self, X, owner=None, codes=None) -> np.ndarray: ...

    def predict_many(self, X) -> np.ndarray: ...

    def predict_dist(self, x) -> np.ndarray: ...

    def predict(self, x) -> int: ...


@runtime_checkable
class MultiLabelModel(Protocol):
    """A trained multi-label predictor: ``predict_many`` maps (N, D) features
    to (N, T) labels; ``predict(x)`` is a batch of one (a tuple of ints)."""

    schema: LabelSchema

    def predict_many(self, X) -> np.ndarray: ...

    def predict(self, x) -> LabelVector: ...
