"""Convert raw (emission, state) streams into multi-label block datasets.

A stream of per-step emissions x_1..x_Ti with states y_1..y_Ti becomes, for
window length tau, one instance per anchor step t: the features are the
emissions x_{t-tau+1}..x_t plus the past states y_{t-tau}..y_{t-1} (as
categorical features), and the targets are the tau future states
y_t..y_{t+tau-1}.  Nothing later than x_t or y_{t-1} ever enters the
feature block, so real-time prediction remains possible.

Also houses the raw-GPS utilities: fitting waypoint centroids with k-means
and snapping coordinate streams to the nearest waypoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Feature, LabelSchema
from .rng import derive_rng

KMEANS_MAX_ITER = 100


@dataclass(frozen=True)
class Sequence:
    """One (emission, state) stream; emissions and states share the length."""

    emissions: tuple[tuple, ...]
    states: tuple[int, ...]
    id: str = ""

    def __post_init__(self):
        if len(self.emissions) != len(self.states):
            raise ValueError(f"sequence {self.id!r}: emissions/states length mismatch")
        if len(self.states) < 1:
            raise ValueError(f"sequence {self.id!r}: empty")

    def __len__(self) -> int:
        return len(self.states)


def window_anchors(T_i: int, tau: int, pad: bool) -> range:
    """Valid anchor steps (0-based) for a sequence of length ``T_i``.

    An anchor a uses emissions a-tau+1..a and past states a-tau..a-1 as
    features and targets states a..a+tau-1; without padding the targets must
    all exist, with padding the anchor may run to the final step.
    """
    last = T_i - 1 if pad else T_i - tau
    return range(tau, last + 1)


def window_transform(seqs, tau: int, pad: bool = False,
                     n_states: int | None = None,
                     features: tuple[Feature, ...] | None = None,
                     name: str = "") -> Dataset:
    """Slice sequences into block instances with stride 1.

    Without padding each sequence must have length >= 2*tau (so at least one
    full future window exists); with padding, length >= tau+1, and targets
    past the end repeat the final observed state.
    """
    seqs = list(seqs)
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if not seqs:
        raise ValueError("no sequences given")
    if n_states is None:
        n_states = max(max(s.states) for s in seqs) + 1
    if features is None:
        features = tuple(Feature.numeric(f"x{j}") for j in range(len(seqs[0].emissions[0])))
    D_raw = len(features)

    for s in seqs:
        minimum = tau + 1 if pad else 2 * tau
        if len(s) < minimum:
            raise ValueError(
                f"sequence {s.id!r} has length {len(s)} < {minimum} "
                f"(tau={tau}, pad={'on' if pad else 'off'})")
        if max(s.states) >= n_states or min(s.states) < 0:
            raise ValueError(f"sequence {s.id!r}: state outside 0..{n_states - 1}")

    out_features = []
    for lag in range(tau - 1, -1, -1):
        for f in features:
            out_features.append(Feature(f.kind, f.cardinality, f"{f.name or 'x'}[t-{lag}]"))
    for lag in range(tau, 0, -1):
        out_features.append(Feature.categorical(n_states, f"y[t-{lag}]"))

    instances = []
    for s in seqs:
        T_i = len(s)
        for a in window_anchors(T_i, tau, pad):
            row: list = []
            for i in range(a - tau + 1, a + 1):
                e = s.emissions[i]
                if len(e) != D_raw:
                    raise ValueError(f"sequence {s.id!r}: emission arity {len(e)} != {D_raw}")
                row.extend(e)
            row.extend(s.states[a - tau:a])
            labels = tuple(
                s.states[i] if i < T_i else s.states[T_i - 1]
                for i in range(a, a + tau))
            instances.append((tuple(row), labels))

    schema = LabelSchema((n_states,) * tau)
    return Dataset(schema, tuple(out_features), instances, name=name)


# ---------------------------------------------------------------------------
# waypoint extraction


@dataclass(frozen=True)
class NodeMap:
    """K waypoint centroids; a point belongs to its nearest centroid under
    Euclidean distance, ties to the lowest index."""

    centroids: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.centroids) < 1:
            raise ValueError("node map needs at least one centroid")
        for c in self.centroids:
            if not all(math.isfinite(v) for v in c):
                raise ValueError("non-finite centroid")

    @property
    def K(self) -> int:
        return len(self.centroids)

    def assign_many(self, points: np.ndarray) -> np.ndarray:
        return _assign(points, np.asarray(self.centroids, dtype=np.float64))


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def _inertia(points: np.ndarray, centroids: np.ndarray, assign: np.ndarray) -> float:
    return float(((points - centroids[assign]) ** 2).sum())


def kmeans_fit_trace(points, k: int, seed: int) -> tuple[NodeMap, list[float]]:
    """Lloyd's iteration with k-means++ seeding; returns the node map and the
    inertia after each assignment step.

    Converges when no assignment changes (or after a fixed iteration cap);
    an emptied cluster is repaired by stealing the point currently farthest
    from its own centroid.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (N, 2) coordinates")
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite coordinates")
    distinct = np.unique(pts, axis=0)
    if distinct.shape[0] < k:
        raise ValueError(f"only {distinct.shape[0]} distinct points for k={k}")
    rng = derive_rng(seed, "kmeans")

    # k-means++ seeding
    centroids = np.empty((k, 2))
    first = int(rng.integers(len(pts)))
    centroids[0] = pts[first]
    d2 = ((pts - centroids[0]) ** 2).sum(axis=1)
    for m in range(1, k):
        total = d2.sum()
        if total <= 0:
            remaining = pts[d2 == d2.max()]
            centroids[m] = remaining[0]
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            centroids[m] = pts[min(idx, len(pts) - 1)]
        d2 = np.minimum(d2, ((pts - centroids[m]) ** 2).sum(axis=1))

    assign = _assign(pts, centroids)
    trace = [_inertia(pts, centroids, assign)]
    for _ in range(KMEANS_MAX_ITER):
        for m in range(k):
            mask = assign == m
            if mask.any():
                centroids[m] = pts[mask].mean(axis=0)
            else:
                # steal the point farthest from its assigned centroid
                far = int(np.argmax(((pts - centroids[assign]) ** 2).sum(axis=1)))
                centroids[m] = pts[far]
                assign[far] = m
        new_assign = _assign(pts, centroids)
        trace.append(_inertia(pts, centroids, new_assign))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign

    node_map = NodeMap(tuple((float(c[0]), float(c[1])) for c in centroids))
    return node_map, trace


def snap_sequence(raw, node_map: NodeMap, id: str = "") -> Sequence:
    """Snap a stream of ((lat, lon), extra features) rows to waypoint states.

    Each step's state is the nearest centroid index; the emission vector is
    (lat, lon, *extras).
    """
    emissions = []
    states = []
    pts = []
    for point, extras in raw:
        lat, lon = float(point[0]), float(point[1])
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise ValueError(f"sequence {id!r}: non-finite coordinates {point!r}")
        pts.append((lat, lon))
        emissions.append((lat, lon, *extras))
    if not pts:
        raise ValueError("empty raw stream")
    assign = node_map.assign_many(np.asarray(pts, dtype=np.float64))
    states = [int(a) for a in assign]
    return Sequence(tuple(emissions), tuple(states), id=id)
