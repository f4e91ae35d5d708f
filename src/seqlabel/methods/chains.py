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
decoder takes a batch of instances and scores through
``ChainModel.step_dist``, one call per chain step: the base model gets the
batch's x rows, an owner x row per scored row and the parent codes per
scored row.  Naive Bayes sums the terms of x once per instance, and a
decision tree checks x's codes once per instance and reads x's values
through the owners without joining the rows.  The search decoders work
through a batch in chunks of instances, which bound their per-step tensors
by ``CHUNK_CELLS``; a row's answer does not depend on the batch or the
chunk it is in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..base import _check_features, base_model_from_dict, base_model_to_dict, train_base
from ..core import Dataset, Feature, LabelSchema, LabelVector
from ..rng import derive_rng, digest_array

CHAIN_ORDERS = ("time", "random")
MAX_SAMPLES = 100_000  # Monte-Carlo search holds (samples + 1) x L probabilities per step
# cells of a search chunk's (instances x L_prev x L_s) Viterbi transition
# tensor or (instances x (samples + 1) x L) Monte-Carlo cumulative tensor;
# a chunk holds at least one instance
CHUNK_CELLS = 1 << 16


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

    def step_dist(self, s: int, X, labels, owner=None) -> np.ndarray:
        """(N, L_s) distributions of chain step ``s``.  Row i scores the x
        row ``X[owner[i]]`` (``X[i]`` without ``owner``) with the parent
        slots set from ``labels[i]``, which holds the values of the earlier
        chain steps (column k is step k)."""
        return self.models[s].predict_dist_many(X, owner, labels.take(self._sources[s], axis=1))

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
            p *= float(self.step_dist(s, x[None], vals)[0, vals[0, s]])
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
    """Best-path scores (delta) and backpointers (psi) per chain step: one
    row per instance of a batch, or one vector for a single instance."""

    delta: list[np.ndarray]
    psi: list[np.ndarray]


def _chunks(n: int, cells: int) -> list[slice]:
    """Consecutive slices of 0..n-1, each of as many instances as hold at
    most ``CHUNK_CELLS`` cells of ``cells`` each, and at least one."""
    step = max(1, CHUNK_CELLS // cells)
    return [slice(i, i + step) for i in range(0, n, step)]


def _batch(m: ChainModel, X) -> tuple[np.ndarray, bool]:
    """``X`` as an (N, D) batch, and whether it was one instance."""
    one = np.ndim(X) == 1
    X = _check_features(X, m.D, 1 if one else 2)
    return (X[None] if one else X), one


def _first_order(m: ChainModel) -> tuple[list[int], int]:
    """The chain-order cardinalities of a first-order chain, and the cells
    of its largest transition matrix."""
    if any(pars != m.order[s - 1:s] for s, pars in enumerate(m.parents)):
        raise ValueError("Viterbi decoding requires a first-order ('prev') chain")
    cards = [m.schema.cardinalities[p] for p in m.order]
    return cards, max([a * b for a, b in zip(cards, cards[1:])], default=1)


def viterbi_table(m: ChainModel, X) -> ViterbiTable:
    """Fill the dynamic-programming table of a first-order chain for one
    instance ``x`` or, a row per instance, for a batch ``X``.  Each chain
    step scores the transition matrices of a chunk of instances in one
    call: its row (i, l) is instance i with the previous label set to l."""
    cards, cells = _first_order(m)
    X, one = _batch(m, X)
    N = len(X)
    delta = [np.empty((N, L)) for L in cards]
    psi = [np.zeros((N, L), dtype=np.int64) for L in cards]
    for rows in _chunks(N, cells):
        x = X[rows]
        n = len(x)
        delta[0][rows] = m.step_dist(0, x, np.empty((n, 0), dtype=np.int64))
        for s in range(1, m.schema.T):
            L_prev, L_s = cards[s - 1], cards[s]
            # every earlier step reads l, and only step s - 1 is a parent
            prev = np.broadcast_to(np.tile(np.arange(L_prev), n)[:, None], (n * L_prev, s))
            scores = m.step_dist(s, x, prev, np.repeat(np.arange(n), L_prev))
            scores = scores.reshape(n, L_prev, L_s)
            scores *= delta[s - 1][rows, :, None]  # in place: step_dist returns a new array
            delta[s][rows] = scores.max(axis=1)
            psi[s][rows] = np.argmax(scores, axis=1)  # ties to the lowest previous value
            # freed before the next step allocates its own, so that the
            # allocator reuses these pages rather than returning them
            del scores
    if one:
        return ViterbiTable([d[0] for d in delta], [p[0] for p in psi])
    return ViterbiTable(delta, psi)


def vcc_predict(m: ChainModel, X):
    """Exact MAP path of a first-order chain and its probability: for one
    instance ``x`` a (label vector, probability) pair, for a batch ``X`` an
    (N, T) matrix of paths in label-position order and (N,) probabilities.

    Maximizes p(y_1|x) * prod_t p(y_t|x, y_{t-1}) over all value
    combinations via the Viterbi recursion, with the usual termination
    (argmax of the final delta row) and backward trace through psi.  The
    tables are filled and traced a chunk of instances at a time.
    """
    _, cells = _first_order(m)
    X, one = _batch(m, X)
    T = m.schema.T
    paths = np.empty((len(X), T), dtype=np.int64)
    probs = np.empty(len(X))
    for rows in _chunks(len(X), cells):
        table = viterbi_table(m, X[rows])
        vals = paths[rows]
        vals[:, T - 1] = np.argmax(table.delta[T - 1], axis=1)
        probs[rows] = table.delta[T - 1].max(axis=1)
        for s in range(T - 2, -1, -1):
            vals[:, s] = np.take_along_axis(table.psi[s + 1], vals[:, s + 1:s + 2], axis=1)[:, 0]
    paths = paths.take(m._by_position, axis=1)
    if one:
        return tuple(paths[0].tolist()), float(probs[0])
    return paths, probs


def pcc_predict(m: ChainModel, X, M: int, seed: int):
    """Monte-Carlo search over chain paths: for one instance ``x`` a label
    vector, for a batch ``X`` an (N, T) matrix in label-position order.

    An instance's candidate set is its greedy path plus ``M`` ancestral
    samples from the chain conditionals; the candidate with the highest
    joint probability wins, the greedy path on ties and otherwise the
    earliest sample.  Deterministic given the seed: an instance's sampling
    stream is derived from the seed and its own features, so neither call
    order nor its batch changes its answer.  Sample j of an instance uses
    uniform draw ``j * T + s`` of its stream at step s.

    All candidates of a chunk of instances advance together, one chain step
    at a time, and each step scores the chunk's distinct prefixes in one
    call.
    """
    if any(pars != m.order[:s] for s, pars in enumerate(m.parents)):
        raise ValueError("Monte-Carlo chain search requires an all-previous chain")
    if not 0 <= M <= MAX_SAMPLES:
        raise ValueError(f"sample budget {M} is not in 0..{MAX_SAMPLES}")
    X, one = _batch(m, X)
    T = m.schema.T
    paths = np.empty((len(X), T), dtype=np.int64)
    for rows in _chunks(len(X), (M + 1) * max(m.schema.cardinalities)):
        u = np.stack([derive_rng(seed, "pcc-samples", digest_array(x)).random((M, T))
                      for x in X[rows]])
        paths[rows] = _sampled_search(m, X[rows], u)
    paths = paths.take(m._by_position, axis=1)
    return tuple(paths[0].tolist()) if one else paths


def _sampled_search(m: ChainModel, X: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(n, T) best candidates, in chain-step order, of the instances ``X``
    whose (n, M, T) uniform draws are ``u``."""
    n, M, T = u.shape
    K = M + 1  # candidate k of instance i is row i * K + k: 0 greedy, k the k-th sample
    paths = np.empty((n * K, T), dtype=np.int64)
    scores = np.ones((n, K))
    prefix_id = np.repeat(np.arange(n), K)  # equal ids <=> one instance, equal prefixes
    for s in range(T):
        _, first, prefix_id = np.unique(prefix_id, return_index=True, return_inverse=True)
        dists = m.step_dist(s, X, paths[first, :s], first // K)
        L = dists.shape[1]
        at = prefix_id.reshape(n, K)
        v = np.empty((n, K), dtype=np.int64)
        v[:, 0] = np.argmax(dists[at[:, 0]], axis=1)
        # inverse-CDF pick: the first value whose cumulative mass exceeds the draw
        cum = np.cumsum(dists, axis=1)[at[:, 1:]]
        np.minimum((cum <= (u[:, :, s] * cum[..., -1])[..., None]).sum(axis=-1), L - 1,
                   out=v[:, 1:])
        scores *= dists[at, v]
        paths[:, s] = v.ravel()
        prefix_id = prefix_id * L + v.ravel()
    return paths.reshape(n, K, T)[np.arange(n), np.argmax(scores, axis=1)]
