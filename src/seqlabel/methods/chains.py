"""Chain-structured predictors: one base classifier per chain step, each
conditioned on x plus the labels of a chosen set of earlier steps.

``parents[s]`` lists the label positions fed to step ``s``; the method keys
differ only in that wiring:

* ic — no parents: every position conditions on x alone;
* memm — the previous chain step (first-order chain);
* cc — every earlier chain step;
* ct — the classifier trellis: at most ``ell`` earlier positions, those with
  the highest mutual information against the step's own position.

Greedy forward decoding works on any wiring.  First-order chains also
support exact MAP decoding with the Viterbi dynamic program; all-previous
chains support Monte-Carlo search over sampled candidate paths.  Every
decoder scores through ``ChainModel.step_dist``, the one place that builds a
step's feature rows, one batch per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..base import _check_features, base_model_from_dict, base_model_to_dict, train_base
from ..core import Dataset, Feature, LabelSchema, LabelVector, argmax_lowest
from ..rng import derive_rng, digest_array

CHAIN_ORDERS = ("time", "random")
MAX_SAMPLES = 100_000  # Monte-Carlo search holds (samples + 1) x L probabilities per step


def chain_order(strategy: str, T: int, seed: int, stream: str) -> tuple[int, ...]:
    """Time order, or ("random") a permutation drawn from stream ``(seed, stream)``."""
    if strategy not in CHAIN_ORDERS:
        raise ValueError(f"unknown order strategy {strategy!r} (expected one of {CHAIN_ORDERS})")
    if strategy == "time":
        return tuple(range(T))
    return tuple(int(p) for p in derive_rng(seed, stream).permutation(T))


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
        self._sources = tuple(np.array([step[p] for p in pars], dtype=np.intp)
                              for pars in self.parents)
        self._by_position = np.argsort(self.order)  # chain step of each position

    @property
    def D(self) -> int:
        return len(self.features)

    def step_dist(self, s: int, X, labels) -> np.ndarray:
        """(N, L_s) distributions of chain step ``s``.  Row i scores the
        features ``X[i]`` (or ``X`` itself, when it is one row) with the
        parent slots set from ``labels[i]``, which holds the values of the
        earlier chain steps (column k is step k)."""
        src = self._sources[s]
        rows = np.empty((len(labels), self.D + src.size))
        rows[:, :self.D] = X
        rows[:, self.D:] = labels.take(src, axis=1)
        return self.models[s].predict_dist_many(rows)

    def predict_many(self, X) -> np.ndarray:
        """(N, T) greedy forward decoding along the chain order, one batch
        per step, in label-position order."""
        X = _check_features(X, self.D, 2)
        vals = np.empty((len(X), self.schema.T), dtype=np.int64)
        for s in range(self.schema.T):
            vals[:, s] = self.step_dist(s, X, vals).argmax(axis=1)
        return vals.take(self._by_position, axis=1)

    def predict(self, x) -> LabelVector:
        return tuple(self.predict_many(np.asarray(x, dtype=np.float64)[None])[0].tolist())

    def by_position(self, vals) -> LabelVector:
        """Lay chain-step values out in label-position order."""
        return tuple(np.asarray(vals)[self._by_position].tolist())

    def joint_score(self, x, y) -> float:
        """Product of the model's conditionals along its factorization at y."""
        if not self.schema.conforms(y):
            raise ValueError("label vector does not conform to the schema")
        x = _check_features(x, self.D, 1)
        vals = np.array([[int(y[pos]) for pos in self.order]])
        p = 1.0
        for s in range(self.schema.T):
            p *= float(self.step_dist(s, x, vals)[0, vals[0, s]])
        return p

    def to_dict(self) -> dict:
        return {
            "kind": "chain",
            "order": list(self.order),
            "parents": [list(p) for p in self.parents],
            "cardinalities": list(self.schema.cardinalities),
            "features": [f.to_dict() for f in self.features],
            "models": [base_model_to_dict(m) for m in self.models],
        }

    @staticmethod
    def from_dict(d: dict) -> "ChainModel":
        """The chain of a ``to_dict`` mapping, whose step models must fit it."""
        m = ChainModel(
            LabelSchema(tuple(d["cardinalities"])),
            tuple(Feature.from_dict(f) for f in d["features"]),
            tuple(d["order"]),
            tuple(d["parents"]),
            tuple(base_model_from_dict(m) for m in d["models"]),
        )
        for s, (pos, pars, step) in enumerate(zip(m.order, m.parents, m.models)):
            want = (m.schema.cardinalities[pos], m.D + len(pars))
            if (step.n_classes, len(step.features)) != want:
                raise ValueError(f"the model of chain step {s} has {step.n_classes} classes "
                                 f"and {len(step.features)} features, not {want[0]} and {want[1]}")
        return m


def chain_train(d: Dataset, base: str, order, parents) -> ChainModel:
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
        models.append(train_base(base, Xs, d.Y[:, pos], d.schema.cardinalities[pos], feats))
    return ChainModel(d.schema, d.features, order, parents, tuple(models))


def ic_train(d: Dataset, base: str = "nb") -> ChainModel:
    """Independent classifiers: T separate models on x only."""
    T = d.schema.T
    return chain_train(d, base, range(T), ((),) * T)


def cc_train(d: Dataset, base: str = "nb", order=None) -> ChainModel:
    """Classifier chain: step s conditions on all earlier-in-order labels."""
    T = d.schema.T
    order = _validate_order(order if order is not None else range(T), T)
    return chain_train(d, base, order, [order[:s] for s in range(T)])


def memm_train(d: Dataset, base: str = "nb") -> ChainModel:
    """First-order chain in time order: each position conditions only on the
    immediately previous label.  Decode greedily (``predict``) or exactly
    (``vcc_predict``)."""
    T = d.schema.T
    return chain_train(d, base, range(T), [(s - 1,) if s else () for s in range(T)])


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


@dataclass
class ViterbiTable:
    """Best-path scores (delta) and backpointers (psi) per chain step."""

    delta: list[np.ndarray]
    psi: list[np.ndarray]


def viterbi_table(m: ChainModel, x) -> ViterbiTable:
    """Fill the dynamic-programming table for a first-order chain.  Each
    step's transition matrix is one batch: row i scores x with the previous
    label set to i."""
    if any(pars != m.order[s - 1:s] for s, pars in enumerate(m.parents)):
        raise ValueError("Viterbi decoding requires a first-order ('prev') chain")
    x = _check_features(x, m.D, 1)
    cards = [m.schema.cardinalities[p] for p in m.order]
    delta = [m.step_dist(0, x, np.empty((1, 0), dtype=np.int64))[0]]
    psi = [np.zeros(cards[0], dtype=np.int64)]
    for s in range(1, m.schema.T):
        L_prev, L_s = cards[s - 1], cards[s]
        # row i: every earlier step reads i, and only step s - 1 is a parent
        trans = m.step_dist(s, x, np.broadcast_to(np.arange(L_prev)[:, None], (L_prev, s)))
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
    wins, the greedy path on ties and otherwise the earliest sample.
    Deterministic given the seed (the sampling stream is derived from the
    seed and the input, so call order is irrelevant).

    All candidates advance together, one chain step at a time, and each
    step scores the distinct prefixes of that step in one batch.  Sample i
    at step s uses uniform draw ``i * T + s`` of the stream.
    """
    if any(pars != m.order[:s] for s, pars in enumerate(m.parents)):
        raise ValueError("Monte-Carlo chain search requires an all-previous chain")
    if not 0 <= M <= MAX_SAMPLES:
        raise ValueError(f"sample budget {M} is not in 0..{MAX_SAMPLES}")
    x = _check_features(x, m.D, 1)
    T = m.schema.T
    u = derive_rng(seed, "pcc-samples", digest_array(x)).random((M, T))
    # row 0 is the greedy path, row i the i-th sample
    paths = np.empty((M + 1, T), dtype=np.int64)
    scores = np.ones(M + 1)
    prefix_id = np.zeros(M + 1, dtype=np.int64)  # equal ids <=> equal prefixes
    for s in range(T):
        _, first, prefix_id = np.unique(prefix_id, return_index=True, return_inverse=True)
        dists = m.step_dist(s, x, paths[first, :s])
        L = dists.shape[1]
        v = np.empty(M + 1, dtype=np.int64)
        v[0] = argmax_lowest(dists[prefix_id[0]])
        # inverse-CDF pick: the first value whose cumulative mass exceeds the draw
        cum = np.cumsum(dists, axis=1)[prefix_id[1:]]
        np.minimum((cum <= (u[:, s] * cum[:, -1])[:, None]).sum(axis=1), L - 1, out=v[1:])
        scores *= dists[prefix_id, v]
        paths[:, s] = v
        prefix_id = prefix_id * L + v
    return m.by_position(paths[np.argmax(scores)].tolist())
