"""Evaluation metrics for label vectors read as sequences.

Hamming and zero-one loss treat positions independently; the Levenshtein
distance additionally allows insertions and deletions, so a prediction that
is merely out of alignment by one step is not scored as maximally wrong.

A test set is scored on arrays: ``evaluate(Y, P)`` takes the (N, T) true
labels and the (N, T) predictions.  Hamming, zero-one and per-horizon error
come from one ``Y != P`` mask, and every edit distance comes from one
bit-parallel kernel (Myers 1999, J. ACM 46(3); in Hyyrö's 2003 form for
the distance between two whole sequences).  The kernel uses only
``& | ^ ~ + <<``, so the same code runs on uint64 lanes, one lane per row
pair of T <= 64, and on Python ints of any width, which the scalar
``levenshtein`` and rows of T > 64 use.  The report means are Python's
``sum`` of the per-row floats divided by N, as the per-pair scalar
functions summed them, so a report is the same float for float, on any
Python version.  ``evaluate_pairs`` is the same report for a list of
(true, predicted) pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Row pairs of at most this many labels run in one uint64 lane each.
LANE_BITS = 64


def hamming_loss(y: Sequence[int], yhat: Sequence[int]) -> float:
    """Fraction of mismatched positions, in [0, 1]."""
    if len(y) != len(yhat):
        raise ValueError(f"length mismatch: {len(y)} vs {len(yhat)}")
    if not y:
        raise ValueError("empty vectors")
    return sum(a != b for a, b in zip(y, yhat)) / len(y)


def zero_one_loss(y: Sequence[int], yhat: Sequence[int]) -> float:
    """0.0 iff the vectors are identical, else 1.0 (payoff form: exact match)."""
    if len(y) != len(yhat):
        raise ValueError(f"length mismatch: {len(y)} vs {len(yhat)}")
    return 0.0 if all(a == b for a, b in zip(y, yhat)) else 1.0


def _edit_distance(eqs, m: int, ones, high):
    """The edit distance of a pattern of m >= 1 symbols to a text, by
    Myers' bit-parallel scan.  ``eqs`` yields, per text symbol, the bit
    vector of the pattern positions that hold it (bit i for position i);
    ``ones`` has bits 0..m-1 set and ``high`` bit m-1.  Pv/Mv hold the +1/-1
    vertical deltas of the current DP column, and the distance is tracked
    in the last row.  Bits above m-1 may hold garbage; carries and shifts
    move only upward, and ``& ones`` keeps Pv clear of them."""
    pv, mv, d = ones, ones ^ ones, m
    for eq in eqs:
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        d = d + ((ph & high) != 0) - ((mh & high) != 0)
        ph = (ph << 1) | 1  # row 0 of the DP grows by one per text symbol
        pv = ((mh << 1) | ~(xv | ph)) & ones
        mv = ph & xv
    return d


def levenshtein(y: Sequence[int], yhat: Sequence[int]) -> int:
    """Exact edit distance with unit insert/delete/substitute costs; unequal
    lengths allowed.  ``_edit_distance`` on Python ints, so any length fits."""
    m = len(y)
    if m == 0:
        return len(yhat)
    peq: dict = {}
    for i, c in enumerate(y):
        peq[c] = peq.get(c, 0) | 1 << i
    return _edit_distance([peq.get(c, 0) for c in yhat], m, (1 << m) - 1, 1 << (m - 1))


def levenshtein_norm(y: Sequence[int], yhat: Sequence[int]) -> float:
    """Levenshtein distance divided by the true sequence length, so the value
    shares the [0, 1] scale of Hamming loss when |yhat| <= |y|."""
    if not y:
        raise ValueError("true sequence must be nonempty")
    return levenshtein(y, yhat) / len(y)


def per_horizon_error(pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> list[float]:
    """Entry j = mean over pairs of [yhat_j != y_j]; length = T."""
    if not pairs:
        raise ValueError("empty pair list")
    T = len(pairs[0][0])
    counts = [0] * T
    for y, yhat in pairs:
        if len(y) != T or len(yhat) != T:
            raise ValueError("all pairs must share the schema length")
        for j in range(T):
            if y[j] != yhat[j]:
                counts[j] += 1
    n = len(pairs)
    return [c / n for c in counts]


def row_distances(Y: np.ndarray, P: np.ndarray) -> np.ndarray:
    """(N,) edit distances of the rows of two (N, T) int64 arrays, T >= 1:
    one uint64 lane per row for T <= LANE_BITS, else Python ints per row."""
    N, T = Y.shape
    if T > LANE_BITS:
        return np.array([levenshtein(y, p) for y, p in zip(Y.tolist(), P.tolist())],
                        dtype=np.int64)
    eqs = np.zeros((T, N), dtype=np.uint64)  # eqs[j]: bit i where Y[:, i] == P[:, j]
    PT = np.ascontiguousarray(P.T)
    for i in range(T):
        eqs |= (PT == Y[:, i]).astype(np.uint64) << np.uint64(i)
    return _edit_distance(eqs, T, np.uint64((1 << T) - 1), np.uint64(1 << (T - 1)))


def _label_arrays(Y, P) -> tuple[np.ndarray, np.ndarray]:
    """Y and P as int64 arrays.  The metrics only compare labels for
    equality, so if a value does not fit int64 both are recoded to dense
    codes, equal values to equal codes."""
    try:
        return np.asarray(Y, dtype=np.int64), np.asarray(P, dtype=np.int64)
    except OverflowError:
        codes: dict = {}
        return tuple(np.array([[codes.setdefault(v, len(codes)) for v in row] for row in A],
                              dtype=np.int64).reshape(len(A), -1) for A in (Y, P))


@dataclass(frozen=True)
class EvalReport:
    """Per-metric means over a test set plus the per-horizon error vector."""

    hamming_loss: float
    zero_one_loss: float
    levenshtein_norm: float
    per_horizon: tuple[float, ...]
    n: int

    def metric(self, name: str) -> float:
        if name == "accuracy":
            return 1.0 - self.hamming_loss
        return getattr(self, name)

    def to_json_dict(self) -> dict:
        return {
            "hamming_loss": self.hamming_loss,
            "zero_one_loss": self.zero_one_loss,
            "levenshtein_norm": self.levenshtein_norm,
            "per_horizon": list(self.per_horizon),
            "n": self.n,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def to_kv_text(self) -> str:
        lines = [
            f"hamming_loss={self.hamming_loss!r}",
            f"zero_one_loss={self.zero_one_loss!r}",
            f"levenshtein_norm={self.levenshtein_norm!r}",
            "per_horizon=" + ",".join(repr(v) for v in self.per_horizon),
            f"n={self.n}",
        ]
        return "\n".join(lines) + "\n"


def evaluate(Y, P) -> EvalReport:
    """Mean losses of the (N, T) predictions ``P`` of the (N, T) true labels
    ``Y``, pooled by instance (row).  Each mean is ``sum`` of the rows'
    losses, left to right, over N."""
    Y, P = _label_arrays(Y, P)
    if len(Y) != len(P):
        raise ValueError(f"{len(P)} predictions for {len(Y)} instances")
    if len(Y) == 0:
        raise ValueError("empty pair list")
    if Y.ndim != 2 or P.ndim != 2:
        raise ValueError("labels and predictions must be (N, T) arrays")
    N, T = Y.shape
    if P.shape[1] != T:
        raise ValueError(f"length mismatch: {T} vs {P.shape[1]}")
    if T == 0:
        raise ValueError("empty vectors")
    wrong = Y != P
    per_row = wrong.sum(axis=1)
    return EvalReport(
        hamming_loss=sum((per_row / T).tolist()) / N,
        zero_one_loss=int(np.count_nonzero(per_row)) / N,  # a sum of 0.0s and 1.0s is exact
        levenshtein_norm=sum((row_distances(Y, P) / T).tolist()) / N,
        per_horizon=tuple((wrong.sum(axis=0) / N).tolist()),
        n=N,
    )


def evaluate_pairs(pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> EvalReport:
    """``evaluate`` of (true, predicted) pairs, which must all share one
    nonzero length."""
    if not pairs:
        raise ValueError("empty pair list")
    for y, p in pairs:
        if len(y) != len(p):
            raise ValueError(f"length mismatch: {len(y)} vs {len(p)}")
        if len(y) == 0:
            raise ValueError("empty vectors")
    T = len(pairs[0][0])
    if any(len(y) != T for y, _ in pairs):
        raise ValueError("all pairs must share the schema length")
    return evaluate([y for y, _ in pairs], [p for _, p in pairs])

METRIC_NAMES = ("hamming_loss", "zero_one_loss", "levenshtein_norm", "accuracy")

# Metrics where a smaller value is better (accuracy is the exception).
LOWER_IS_BETTER = {
    "hamming_loss": True,
    "zero_one_loss": True,
    "levenshtein_norm": True,
    "accuracy": False,
}
