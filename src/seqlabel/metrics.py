"""Evaluation metrics for label vectors read as sequences.

Hamming and zero-one loss treat positions independently; the Levenshtein
distance additionally allows insertions and deletions, so a prediction that
is merely out of alignment by one step is not scored as maximally wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence


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


def levenshtein(y: Sequence[int], yhat: Sequence[int]) -> int:
    """Exact edit distance with unit insert/delete/substitute costs.

    Iterative O(|y|*|yhat|) dynamic program; unequal lengths allowed.
    """
    m, n = len(y), len(yhat)
    if m == 0:
        return n
    if n == 0:
        return m
    prev = list(range(n + 1))
    for i in range(1, m + 1):
        cur = [i] + [0] * n
        yi = y[i - 1]
        for j in range(1, n + 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (0 if yi == yhat[j - 1] else 1),
            )
        prev = cur
    return prev[n]


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


def evaluate_pairs(pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> EvalReport:
    """Mean losses over (true, predicted) pairs, pooled by instance."""
    if not pairs:
        raise ValueError("empty pair list")
    n = len(pairs)
    return EvalReport(
        hamming_loss=sum(hamming_loss(y, p) for y, p in pairs) / n,
        zero_one_loss=sum(zero_one_loss(y, p) for y, p in pairs) / n,
        levenshtein_norm=sum(levenshtein_norm(y, p) for y, p in pairs) / n,
        per_horizon=tuple(per_horizon_error(pairs)),
        n=n,
    )

METRIC_NAMES = ("hamming_loss", "zero_one_loss", "levenshtein_norm", "accuracy")

# Metrics where a smaller value is better (accuracy is the exception).
LOWER_IS_BETTER = {
    "hamming_loss": True,
    "zero_one_loss": True,
    "levenshtein_norm": True,
    "accuracy": False,
}
