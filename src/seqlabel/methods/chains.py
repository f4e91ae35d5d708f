"""Chain-structured predictors: one base classifier per chain step, each
conditioned on x plus the labels of a chosen set of earlier steps.

``parents[s]`` lists the label positions fed to step ``s``; the method keys
differ only in that wiring:

* ic — no parents: every position conditions on x alone;
* memm — the previous chain step (first-order chain);
* cc — every earlier chain step;
* ct — earlier positions chosen by mutual information (see ``trellis``).

Greedy forward decoding works on any wiring.  First-order chains also
support exact MAP decoding with the Viterbi dynamic program; all-previous
chains support Monte-Carlo search over sampled candidate paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..base import base_model_from_dict, train_base
from ..core import Dataset, Feature, LabelSchema, LabelVector, argmax_lowest
from ..rng import derive_rng, digest_array


def _validate_order(order, T: int) -> tuple[int, ...]:
    order = tuple(int(p) for p in order)
    if sorted(order) != list(range(T)):
        raise ValueError(f"order {order} is not a permutation of 0..{T - 1}")
    return order


@dataclass
class ChainModel:
    """Per-step classifiers plus the wiring between them: step ``s`` predicts
    position ``order[s]`` from x and the labels at positions ``parents[s]``
    (in that feature order), each of which an earlier step predicts."""

    schema: LabelSchema
    features: tuple[Feature, ...]
    order: tuple[int, ...]
    parents: tuple[tuple[int, ...], ...]
    models: tuple

    def __post_init__(self):
        T = self.schema.T
        self.order = _validate_order(self.order, T)
        self.parents = tuple(tuple(int(p) for p in pars) for pars in self.parents)
        if len(self.parents) != T or len(self.models) != T:
            raise ValueError(f"a chain over {T} positions needs {T} parent tuples and models")
        step = {pos: s for s, pos in enumerate(self.order)}
        for s, pars in enumerate(self.parents):
            if any(step.get(p, s) >= s for p in pars):
                raise ValueError(f"parents {pars} of chain step {s} are not earlier steps")
        # chain step whose value feeds each parent slot
        self._sources = tuple(tuple(step[p] for p in pars) for pars in self.parents)

    @property
    def D(self) -> int:
        return len(self.features)

    def _buffer(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.D,):
            raise ValueError(f"feature arity {x.shape} does not match training arity ({self.D},)")
        buf = np.empty(self.D + max(0, self.schema.T - 1))
        buf[: self.D] = x
        return buf

    def step_dist(self, buf: np.ndarray, s: int, prefix) -> np.ndarray:
        """Distribution of chain step ``s`` given earlier chain-step values."""
        sources = self._sources[s]
        for j, k in enumerate(sources):
            buf[self.D + j] = prefix[k]
        return self.models[s].predict_dist(buf[: self.D + len(sources)])

    def predict(self, x) -> LabelVector:
        """Greedy forward decoding along the chain order."""
        buf = self._buffer(x)
        vals: list[int] = []
        for s in range(self.schema.T):
            dist = self.step_dist(buf, s, vals)
            vals.append(argmax_lowest(dist))
        return self.by_position(vals)

    def by_position(self, vals) -> LabelVector:
        """Lay chain-step values out in label-position order."""
        out = [0] * self.schema.T
        for s, pos in enumerate(self.order):
            out[pos] = vals[s]
        return tuple(out)

    def joint_score(self, x, y) -> float:
        """Product of the model's conditionals along its factorization at y."""
        if not self.schema.conforms(y):
            raise ValueError("label vector does not conform to the schema")
        buf = self._buffer(x)
        vals = [int(y[pos]) for pos in self.order]
        p = 1.0
        for s in range(self.schema.T):
            dist = self.step_dist(buf, s, vals)
            p *= float(dist[vals[s]])
        return p

    def to_dict(self) -> dict:
        return {
            "kind": "chain",
            "order": list(self.order),
            "parents": [list(p) for p in self.parents],
            "cardinalities": list(self.schema.cardinalities),
            "features": [f.to_dict() for f in self.features],
            "models": [m.to_dict() for m in self.models],
        }

    @staticmethod
    def from_dict(d: dict) -> "ChainModel":
        return ChainModel(
            LabelSchema(tuple(d["cardinalities"])),
            tuple(Feature.from_dict(f) for f in d["features"]),
            tuple(d["order"]),
            tuple(d["parents"]),
            tuple(base_model_from_dict(m) for m in d["models"]),
        )


def chain_train(d: Dataset, base: str, order, parents,
                base_params: dict | None = None) -> ChainModel:
    """Train one base classifier per chain step with teacher forcing: the
    parent label features are the true labels at the parent positions."""
    models = []
    for pos, pars in zip(order, parents):
        feats = d.features + tuple(
            Feature.categorical(d.schema.cardinalities[p], f"y{p}") for p in pars)
        if pars:
            Xs = np.concatenate([d.X] + [d.Y[:, p:p + 1].astype(np.float64) for p in pars],
                                axis=1)
        else:
            Xs = d.X
        models.append(train_base(base, Xs, d.Y[:, pos], d.schema.cardinalities[pos],
                                 feats, **(base_params or {})))
    return ChainModel(d.schema, d.features, order, parents, tuple(models))


def ic_train(d: Dataset, base: str = "nb", base_params: dict | None = None) -> ChainModel:
    """Independent classifiers: T separate models on x only."""
    T = d.schema.T
    return chain_train(d, base, range(T), ((),) * T, base_params)


def cc_train(d: Dataset, base: str = "nb", order=None,
             base_params: dict | None = None) -> ChainModel:
    """Classifier chain: step s conditions on all earlier-in-order labels."""
    T = d.schema.T
    order = _validate_order(order if order is not None else range(T), T)
    return chain_train(d, base, order, [order[:s] for s in range(T)], base_params)


def memm_train(d: Dataset, base: str = "nb", base_params: dict | None = None) -> ChainModel:
    """First-order chain in time order: each position conditions only on the
    immediately previous label.  Decode greedily (``predict``) or exactly
    (``vcc_predict``)."""
    T = d.schema.T
    return chain_train(d, base, range(T), [(s - 1,) if s else () for s in range(T)],
                       base_params)


@dataclass
class ViterbiTable:
    """Best-path scores (delta) and backpointers (psi) per chain step."""

    delta: list[np.ndarray]
    psi: list[np.ndarray]


def viterbi_table(m: ChainModel, x) -> ViterbiTable:
    """Fill the dynamic-programming table for a first-order chain."""
    if any(pars != m.order[s - 1:s] for s, pars in enumerate(m.parents)):
        raise ValueError("Viterbi decoding requires a first-order ('prev') chain")
    buf = m._buffer(x)
    cards = [m.schema.cardinalities[p] for p in m.order]
    delta = [m.models[0].predict_dist(buf[: m.D])]
    psi = [np.zeros(cards[0], dtype=np.int64)]
    for s in range(1, m.schema.T):
        L_prev, L_s = cards[s - 1], cards[s]
        trans = np.empty((L_prev, L_s))
        for i in range(L_prev):
            buf[m.D] = i
            trans[i] = m.models[s].predict_dist(buf[: m.D + 1])
        scores = delta[s - 1][:, None] * trans
        back = np.argmax(scores, axis=0)  # ties to the lowest previous value
        delta.append(scores[back, np.arange(L_s)])
        psi.append(back.astype(np.int64))
    return ViterbiTable(delta, psi)


def vcc_predict(m: ChainModel, x) -> tuple[LabelVector, float]:
    """Exact MAP path of a first-order chain and its probability.

    Maximizes p(y_1|x) * prod_t p(y_t|x, y_{t-1}) over all value
    combinations via the Viterbi recursion, with the usual termination
    (argmax of the final delta row) and backward trace through psi.
    """
    table = viterbi_table(m, x)
    T = m.schema.T
    vals = [0] * T
    vals[T - 1] = argmax_lowest(table.delta[T - 1])
    prob = float(table.delta[T - 1][vals[T - 1]])
    for s in range(T - 2, -1, -1):
        vals[s] = int(table.psi[s + 1][vals[s + 1]])
    return m.by_position(vals), prob


def pcc_predict(m: ChainModel, x, M: int, seed: int) -> LabelVector:
    """Monte-Carlo search over chain paths.

    The candidate set is the greedy path plus ``M`` ancestral samples from
    the chain conditionals; the candidate with the highest joint probability
    wins.  Deterministic given the seed (the sampling stream is derived from
    the seed and the input, so call order is irrelevant).
    """
    if any(pars != m.order[:s] for s, pars in enumerate(m.parents)):
        raise ValueError("Monte-Carlo chain search requires an all-previous chain")
    if M < 0:
        raise ValueError("sample budget must be >= 0")
    buf = m._buffer(x)
    T = m.schema.T
    cache: dict[tuple[int, tuple[int, ...]], tuple[np.ndarray, np.ndarray]] = {}

    def dist_at(s: int, prefix: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        key = (s, prefix)
        entry = cache.get(key)
        if entry is None:
            d = m.step_dist(buf, s, prefix)
            entry = (d, np.cumsum(d))
            cache[key] = entry
        return entry

    best: list[int] = []
    best_score = 1.0
    for s in range(T):
        dist, _ = dist_at(s, tuple(best))
        v = argmax_lowest(dist)
        best_score *= float(dist[v])
        best.append(v)
    best_vals = tuple(best)

    rng = derive_rng(seed, "pcc-samples", digest_array(np.asarray(x, dtype=np.float64)))
    for _ in range(M):
        prefix: list[int] = []
        score = 1.0
        for s in range(T):
            dist, cum = dist_at(s, tuple(prefix))
            v = min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")),
                    len(dist) - 1)
            score *= float(dist[v])
            prefix.append(v)
        if score > best_score:
            best_score = score
            best_vals = tuple(prefix)
    return m.by_position(best_vals)
