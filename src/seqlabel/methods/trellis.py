"""Classifier trellis: a chain in which each step conditions on a bounded
number of earlier positions, chosen by empirical mutual information with
the target.  The result is an ordinary ``ChainModel``.
"""

from __future__ import annotations

import numpy as np

from ..core import Dataset
from .chains import ChainModel, chain_order, chain_train


def mutual_information(col_a, col_b) -> float:
    """Plug-in mutual information (nats) between two integer columns."""
    a = np.asarray(col_a, dtype=np.int64)
    b = np.asarray(col_b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("columns must be equal-length 1-D integer arrays")
    if a.size < 1:
        raise ValueError("columns must be nonempty")
    n = a.size
    av, ai = np.unique(a, return_inverse=True)
    bv, bi = np.unique(b, return_inverse=True)
    joint = np.zeros((av.size, bv.size))
    np.add.at(joint, (ai, bi), 1.0)
    joint /= n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    mask = joint > 0
    outer = pa[:, None] * pb[None, :]
    return float((joint[mask] * np.log(joint[mask] / outer[mask])).sum())


def ct_train(d: Dataset, base: str = "nb", ell: int = 2,
             order_strategy: str = "time", seed: int = 0) -> ChainModel:
    """Train a classifier trellis of density ``ell``.

    Position order is time order by default (or a seeded random permutation).
    Each position's parents are the min(ell, #earlier) earlier positions with
    the highest mutual information against it; MI ties prefer the nearer
    position, then the lower index.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    order = chain_order(order_strategy, d.schema.T, seed, "ct-order")
    parents = []
    for s, pos in enumerate(order):
        scored = sorted(
            order[:s],
            key=lambda p: (-mutual_information(d.Y[:, pos], d.Y[:, p]), abs(pos - p), p),
        )
        parents.append(tuple(sorted(scored[: min(ell, s)])))
    return chain_train(d, base, order, parents)
