"""Chain-structured predictors: one base classifier per chain step, each
conditioned on x plus the meta-classes of a chosen set of earlier steps.

A step predicts a meta-class.  A plain step predicts one position, and
its meta-class is that position's value, so it holds no table; a labelset
step predicts a block of positions, and its table maps each of its
meta-classes to one combination of their values seen in training
(``methods.powerset`` builds those).  ``parents[s]`` lists the label
positions fed to step ``s``, each as the meta-class of the step that
predicts it; the method keys differ only in their steps and that wiring:

* ic — plain steps, no parents: every position conditions on x alone;
* memm — the previous chain step (first-order chain);
* cc — every earlier chain step;
* ct — the classifier trellis: at most ``ell`` earlier positions, those with
  the highest mutual information against the step's own position;
* lp, rakeld, sicl — labelset steps (see ``methods.powerset``).

Greedy forward decoding works on any wiring: each step takes its base
model's ``predict_many``, which for naive Bayes is the argmax of the raw
log scores.  The Monte-Carlo search's greedy candidate takes the argmax of
the normalized distribution (``step_dist``) instead; the two differ only
where two raw scores lie a few ulps apart and normalizing rounds them to a
tie, which goes to the lower meta-class.  First-order chains also
support exact MAP decoding with the Viterbi dynamic program, in log space,
so its path stays exact at any horizon; ``delta`` holds log-probabilities.
Each of its steps takes one (instances, L_prev, K_s) tensor of floored
log-probabilities from ``ChainModel.transitions``, over the step model's
K_s distinct classes only (every unseen class's column equals the lowest
unseen one's, so its argmax and best score do too, and the step gathers
them to all L_s classes): naive Bayes builds it in closed form from x's
scores, summed once per instance, and one score row per parent code; a
decision tree gathers the routed rows' nodes from its table of
log-distributions.  All-previous chains support Monte-Carlo
search over sampled candidate paths, which scores through
``ChainModel.step_dist``, one call per chain step and group of instances:
the base model gets the group's x rows, an owner x row per scored row and
the parent codes per scored row.  Naive Bayes sums the terms of x once per
instance, and a decision tree reads x's values through the owners without
joining the rows.

Every entry point (``predict_many``, ``joint_score``, ``viterbi_table``,
``vcc_predict``, ``pcc_predict``) checks x once, against the chain's
features (``ChainModel.check``: arity, finiteness, categorical codes, with
the base models' messages), and makes x's categorical codes naive-Bayes
table rows once.  Per chunk, ``ChainModel.x_rows`` scores the Gaussian
terms of every naive-Bayes step in one pass over their stacked tables,
which hold each step's distinct classes only (its seen classes and the
lowest unseen one: every unseen class scores as that one); each step then
calls its base model's kernel (``predict_checked``,
``predict_dist_checked``, ``log_dist_grid_checked``), which adds only the
step's own terms and checks nothing.  That holds because training
(``chain_train``) and loading (``ChainModel.from_dict``) both build every
step model's features with ``_step_features``: the chain's features first,
then a categorical parent slot of the source step's meta-class count.  Every
decoder works through a batch in chunks of instances (``_chunks``), which
bound its per-step arrays and its Gaussian pass by ``CHUNK_CELLS``, and
lays the steps' meta-classes out by position with ``ChainModel.expand``;
a row's answer does not depend on the batch or the chunk it is in.  A
greedy chunk and a Viterbi chunk are sized by the distinct classes of
their naive-Bayes steps.  A Monte-Carlo chunk is sized by its candidates'
paths and draws; each of its steps then scores the distinct prefixes in
groups of consecutive instances, each group's distributions bounded by
``CHUNK_CELLS``.  A prefix is identified by the keys of its values, not
by the values (``ChainModel._keys``): the codes of a step that no later
step tells apart (each step model's ``codes_told_apart``, ``base``'s code
map) read the same rows in every later step (naive Bayes' shared row of a
code without a count cell, a tree's stop at each node that tests the
slot), so one key stands for them all and the search scores such
prefixes once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from ..base import (GaussianStack, NaiveBayesModel, Rows, _checked_rows, _layout,
                    base_model_from_dict, train_base)
from ..core import PROB_FLOOR, Dataset, Feature, LabelSchema, LabelVector
from ..rng import derive_rng, row_draws

CHAIN_ORDERS = ("time", "random")
# Monte-Carlo search holds (samples + 1) x T path cells per instance, and a
# step group of one instance up to (samples + 1) x L_s distributions and keys
MAX_SAMPLES = 100_000
# cells of a chunk's greedy per-row arrays (naive Bayes' (instances x
# distinct classes) scores, a tree's (instances x features) values),
# (instances x L_prev x K_s) Viterbi transition tensor (K_s the step
# model's distinct classes), Monte-Carlo (instances x
# (samples + 1) x T) paths and draws, or (instances x distinct naive-Bayes
# classes of all steps x numeric features) Gaussian temporary; and of a
# Monte-Carlo step group's (distinct prefixes x L_s) distributions.  A chunk
# and a group hold at least one instance.
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


class LabelsetTable(NamedTuple):
    """The meta-classes of a chain step that predicts several positions at
    once: meta-class k stands for the values ``labelsets[k]`` of the step's
    positions, which ``support_counts[k]`` training rows held."""

    labelsets: tuple[tuple[int, ...], ...]
    support_counts: tuple[int, ...]


@dataclass
class ChainModel:
    """Per-step classifiers plus the wiring between them.  The steps predict
    the label positions ``order`` in that order: a plain step (``tables[s]``
    None, the default) predicts one position, and a labelset step predicts
    as many as its ``LabelsetTable``'s labelsets hold.  Step ``s``'s
    classifier predicts a meta-class from x and one parent slot per entry of
    ``parents[s]`` (in that feature order): the meta-class of the earlier
    step that predicts that position.  A plain step's meta-class is its
    position's value, so only a labelset step holds a table."""

    schema: LabelSchema
    features: tuple[Feature, ...]
    order: tuple[int, ...]
    parents: tuple[tuple[int, ...], ...]
    models: tuple
    tables: tuple | None = None

    def __post_init__(self):
        T, n = self.schema.T, len(self.models)
        self.order = _validate_order(self.order, T)
        self.parents = tuple(tuple(int(p) for p in pars) for pars in self.parents)
        self.tables = (None,) * n if self.tables is None else tuple(self.tables)
        # each step's meta-class count, checked against its classifier
        self.positions, self._n_meta, self._sources = _steps(self.schema, self.order,
                                                             self.parents, self.tables, n)
        for s, (model, n_meta) in enumerate(zip(self.models, self._n_meta)):
            if model.n_classes != n_meta:
                raise _misfit(s, model.n_classes, n_meta)
        # each labelset step's (labelsets, positions) table of position
        # values; a plain step's meta-class is its value, so it has none
        self._tables = [None if t is None else np.array(t.labelsets, dtype=np.int64)
                        for t in self.tables]
        # x's layout: every step model's first features are the chain's
        self._cat, num, self._cards = _layout(self.features)
        self._nb_steps = [s for s, m in enumerate(self.models) if isinstance(m, NaiveBayesModel)]
        # cells per row of a chunk's stacked Gaussian temporary, over the
        # distinct classes of the naive-Bayes steps, and of a greedy chunk:
        # that, and each step's own per-row arrays
        self._gauss_cells = len(num) * sum(len(self.models[s].classes) for s in self._nb_steps)
        self._greedy_cells = max([1, self._gauss_cells] + [m.row_cells for m in self.models])
        # the step-to-position expansion: position p's value is step _step[p]'s
        # meta-class, or at a labelset step's positions its table row (_sets)
        self._step = np.repeat(np.arange(n), list(map(len, self.positions))).take(
            np.argsort(self.order))
        self._sets = [(s, list(pos), table) for s, (pos, table)
                      in enumerate(zip(self.positions, self._tables)) if table is not None]

    @property
    def D(self) -> int:
        return len(self.features)

    def check(self, X, ndim: int = 2) -> tuple[np.ndarray, float, np.ndarray | None]:
        """``X``, one row (``ndim`` 1) or an (N, D) matrix, checked against
        the chain's features as a base model checks its x rows (arity,
        finiteness, categorical codes, with the base models' messages): the
        rows as an (N, D) matrix, the sum of the squares of their values and
        their naive-Bayes table rows, which serve every step (None in a
        chain without a naive-Bayes step)."""
        X, sum_sq, codes = _checked_rows(X, self.D, self._cat, self._cards, ndim)
        if not self._nb_steps:
            return X, sum_sq, None
        return X, sum_sq, codes + self.models[self._nb_steps[0]].cat_offsets[:len(self._cat)]

    def x_rows(self, checked, rows=slice(None)) -> list[Rows]:
        """Each step's ``Rows`` of the instances ``rows`` of ``check``'s
        result: the same values and table rows for every step, and for a
        naive-Bayes step its block of one Gaussian pass over every such
        step's classes."""
        X, sum_sq, table_rows = checked
        X, gauss = X[rows], [None] * len(self.models)
        if self._nb_steps:
            table_rows = table_rows[rows]
            for s, g in zip(self._nb_steps, self._gaussians.terms(X, sum_sq)):
                gauss[s] = g
        return [Rows(X, table_rows, g) for g in gauss]

    @cached_property
    def _gaussians(self) -> GaussianStack:
        return GaussianStack([self.models[s] for s in self._nb_steps])

    @cached_property
    def _keys(self) -> list[np.ndarray]:
        """Each step's key of each of its meta-classes: the meta-class
        itself if a later step that reads the step tells it apart from the
        others (the step model's ``codes_told_apart`` of that parent slot),
        otherwise the lowest meta-class that no later step tells apart.
        Prefixes whose keys agree give every later step the same
        ``step_dist`` rows, bit for bit."""
        apart = [np.zeros(L, dtype=bool) for L in self._n_meta]
        for model, src in zip(self.models, self._sources):
            for k, t in enumerate(src.tolist()):
                apart[t][model.codes_told_apart(self.D + k)] = True
        return [np.where(a, np.arange(len(a)), np.argmin(a)) for a in apart]

    def step_dist(self, s: int, x: Rows, meta, owner=None) -> np.ndarray:
        """(N, L_s) meta-class distributions of chain step ``s``.  Row i
        scores the x row ``owner[i]`` (``i`` without ``owner``) of the
        step's rows ``x`` (its ``x_rows`` entry) with the parent slots set
        from ``meta[i]``, which holds the meta-classes of the earlier chain
        steps (column k is step k)."""
        src = self._sources[s]
        return self.models[s].predict_dist_checked(x, owner, meta.take(src, axis=1)
                                                   if len(src) else None)

    def transitions(self, s: int, x: Rows) -> tuple[np.ndarray, np.ndarray | None]:
        """(n, L_prev, K_s) log-probabilities of chain step ``s``'s
        meta-classes, whose one parent slot is an earlier step of L_prev
        meta-classes, and the map of the step's L_s meta-classes to the K_s
        columns (None: K_s = L_s, one column each).  Entry (i, l, map[k]) is
        the log of ``step_dist``'s k for row i of the step's rows ``x``
        with that step at l, floored at LOG_PROB_FLOOR.  The step model's
        ``log_dist_grid_checked`` builds the tensor in one call, over its
        distinct classes and with its ``columns`` as the map: naive Bayes in
        closed form (it floors without renormalizing, which moves a
        probability by at most L_s * PROB_FLOOR relative), a tree from its
        table."""
        (src,) = self._sources[s]
        return self.models[s].log_dist_grid_checked(x, self._n_meta[src])

    def expand(self, meta) -> np.ndarray:
        """(N, T) label values, in label-position order, of the (N, steps)
        meta-classes ``meta``: a plain step's meta-class, which is its
        value, and a labelset step's table row of its meta-class."""
        values = meta.take(self._step, axis=1)
        for s, pos, table in self._sets:
            values[:, pos] = table.take(meta[:, s], axis=0)
        return values

    def predict_many(self, X) -> np.ndarray:
        """(N, T) greedy forward decoding along the chain order: each step
        takes its classifier's prediction, one batch per step and chunk of
        rows (``_chunks`` sized by the per-row arrays of the steps and of
        their Gaussian pass)."""
        checked = self.check(X)
        meta = np.empty((len(checked[0]), len(self.models)), dtype=np.int64)
        for rows in _chunks(len(meta), self._greedy_cells):
            x, done = self.x_rows(checked, rows), meta[rows]
            for s, (model, src) in enumerate(zip(self.models, self._sources)):
                done[:, s] = model.predict_checked(x[s], None, done.take(src, axis=1) if len(src)
                                                   else None)
        return self.expand(meta)

    def predict(self, x) -> LabelVector:
        return tuple(self.predict_many(np.asarray(x, dtype=np.float64)[None])[0].tolist())

    def joint_score(self, x, y) -> float:
        """Product of the model's conditionals along its factorization at y
        (0 if a labelset step has no meta-class for y's values at its
        positions; a plain step's meta-class is y's value)."""
        if not self.schema.conforms(y):
            raise ValueError("label vector does not conform to the schema")
        x = self.x_rows(self.check(x, 1))
        y = np.asarray(y, dtype=np.int64)
        meta = np.zeros((1, len(self.models)), dtype=np.int64)
        p = 1.0
        for s, (pos, table) in enumerate(zip(self.positions, self._tables)):
            hit = y.take(pos) if table is None else (table == y.take(pos)).all(axis=1).nonzero()[0]
            if not len(hit):
                return 0.0
            meta[0, s] = hit[0]
            p *= float(self.step_dist(s, x[s], meta)[0, hit[0]])
        return p

    def to_dict(self) -> dict:
        return {
            "kind": "chain",
            "order": list(self.order),
            "parents": [list(p) for p in self.parents],
            "cardinalities": list(self.schema.cardinalities),
            "features": [f.to_dict() for f in self.features],
            "models": [m.to_file_dict() for m in self.models],
            "tables": [None if t is None else {"labelsets": [list(r) for r in t.labelsets],
                                               "support_counts": list(t.support_counts)}
                       for t in self.tables],
        }

    @staticmethod
    def from_dict(d: dict) -> "ChainModel":
        """The chain of a ``to_dict`` mapping.  A step's mapping states
        neither its features nor its class count: its model takes them from
        the chain (``_step_features``, as in training, and ``_steps``).  The
        class counts of every naive-Bayes step are checked to be as many as
        its meta-classes before any step model is built: a meta-class count
        sizes the parent slots of later steps, and so their tables."""
        if d.get("kind") != "chain":
            raise ValueError(f"unknown model kind {d.get('kind')!r}")
        schema = LabelSchema(tuple(d["cardinalities"]))
        features = tuple(Feature.from_dict(f) for f in d["features"])
        tables = tuple(None if t is None else LabelsetTable(tuple(map(tuple, t["labelsets"])),
                                                            tuple(t["support_counts"]))
                       for t in d["tables"])
        parents = tuple(tuple(int(p) for p in pars) for pars in d["parents"])
        _, n_meta, sources = _steps(schema, _validate_order(d["order"], schema.T), parents,
                                    tables, len(d["models"]))
        for s, step in enumerate(d["models"]):
            if step["kind"] == "naive-bayes" and len(step["class_counts"]) != n_meta[s]:
                raise _misfit(s, len(step["class_counts"]), n_meta[s])
        return ChainModel(schema, features, tuple(d["order"]), parents, tuple(
            base_model_from_dict(step, _step_features(features, pars, src, n_meta, tables), n)
            for step, pars, src, n in zip(d["models"], parents, sources, n_meta)), tables)


def _steps(schema: LabelSchema, order: tuple[int, ...], parents: tuple, tables: tuple,
           n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple]:
    """The wiring of a chain of ``n`` steps: the positions each step
    predicts, taken from ``order`` in turn (one for a plain step, as many as
    its labelsets hold for a labelset step), each step's meta-class count,
    and the step whose meta-class fills each parent slot of each step,
    which must be an earlier one.  A labelset table holds one or more
    labelsets, each of values of its step's positions, and a positive
    integer support count per labelset."""
    if len(parents) != n or len(tables) != n:
        raise ValueError(f"a chain of {n} step models needs {n} parent tuples and tables")
    for s, t in enumerate(tables):
        if t is not None and not 0 < len(t.labelsets) == len(t.support_counts):
            raise ValueError(f"chain step {s}: {len(t.support_counts)} support counts for "
                             f"{len(t.labelsets)} labelsets, not one each of one or more")
    widths = [1 if t is None else max(map(len, t.labelsets)) for t in tables]
    if sum(widths) != schema.T:
        raise ValueError(f"the chain steps predict {sum(widths)} positions, not {schema.T}")
    positions = tuple(order[e - w:e] for w, e in zip(widths, accumulate(widths)))
    for s, (pos, t) in enumerate(zip(positions, tables)):
        cards = [schema.cardinalities[p] for p in pos]
        for row, c in () if t is None else zip(t.labelsets, t.support_counts):
            if type(c) is not int or c < 1:
                raise ValueError(f"chain step {s}: support count {c!r} is not a positive integer")
            if len(row) != len(pos) or not all(type(v) is int and 0 <= v < card
                                               for v, card in zip(row, cards)):
                raise ValueError(f"labelset {list(row)} does not fit positions {list(pos)}")
    step = {p: s for s, pos in enumerate(positions) for p in pos}
    for s, pars in enumerate(parents):
        if any(step.get(p, s) >= s for p in pars):
            raise ValueError(f"parents {pars} of chain step {s} are not earlier steps")
    return (positions, tuple(schema.cardinalities[pos[0]] if t is None else len(t.labelsets)
                             for pos, t in zip(positions, tables)),
            tuple(np.array([step[p] for p in pars], dtype=np.intp) for pars in parents))


def _step_features(features: tuple[Feature, ...], parents: tuple[int, ...], sources,
                   n_meta: tuple[int, ...], tables: tuple) -> tuple[Feature, ...]:
    """The features of the model of a chain step of ``parents`` whose
    meta-classes come from the steps ``sources``: the chain's ``features``,
    then per parent position p a categorical slot of the meta-class count of
    p's source step t, named ``y<p>`` for a plain t and ``set<t>`` for a
    labelset t."""
    return features + tuple(
        Feature.categorical(n_meta[t], f"y{p}" if tables[t] is None else f"set{t}")
        for p, t in zip(parents, sources.tolist()))


def _misfit(s: int, n_classes, n_meta: int) -> ValueError:
    """The error for chain step ``s``'s classifier, of ``n_classes``
    classes, not fitting the step's ``n_meta`` meta-classes."""
    return ValueError(f"the model of chain step {s} has {n_classes} classes, not {n_meta}")


def _meta_classes(Y: np.ndarray, table: LabelsetTable) -> np.ndarray:
    """The meta-class of each row of a labelset step's label columns ``Y``:
    the index of its labelset in ``table``, or, for values the table does
    not hold (a pruned labelset), the nearest labelset by Hamming distance.
    The labelsets are in preference order, and argmin takes the first of
    tied ones."""
    index = {t: i for i, t in enumerate(table.labelsets)}
    meta = np.array([index.get(t, -1) for t in map(tuple, Y.tolist())], dtype=np.int64)
    pruned = (meta < 0).nonzero()[0]
    if len(pruned):
        labelsets = np.array(table.labelsets, dtype=np.int64)
        meta[pruned] = (Y[pruned, None, :] != labelsets).sum(axis=2).argmin(axis=1)
    return meta


def chain_train(d: Dataset, base: str, order, parents, tables=None) -> ChainModel:
    """Train one base classifier per chain step with teacher forcing: each
    parent slot holds the true meta-class of its source step.  A plain
    step's meta-classes are its position's labels; a labelset step's are
    the rows of its ``LabelsetTable`` in ``tables`` (None for a plain
    step), each training row at its nearest labelset (``_meta_classes``).
    An empty training set is an error, found before ``parents`` and
    ``tables`` are read, so a caller may pass generators that read the
    labels."""
    if d.n == 0:
        raise ValueError("empty training set")
    order = _validate_order(order, d.schema.T)
    parents = tuple(tuple(int(p) for p in pars) for pars in parents)
    tables = (None,) * len(parents) if tables is None else tuple(tables)
    positions, n_meta, sources = _steps(d.schema, order, parents, tables, len(parents))
    meta = [d.Y[:, pos[0]] if t is None else _meta_classes(d.Y[:, list(pos)], t)
            for pos, t in zip(positions, tables)]
    models = []
    for s, (pars, src) in enumerate(zip(parents, sources)):
        X = np.column_stack([d.X] + [meta[t] for t in src.tolist()]) if len(src) else d.X
        models.append(train_base(base, X, meta[s], n_meta[s],
                                 _step_features(d.features, pars, src, n_meta, tables)))
    return ChainModel(d.schema, d.features, order, parents, tuple(models), tables)


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

    def parents(s: int, pos: int) -> tuple[int, ...]:
        scored = sorted(order[:s], key=lambda p: (-mutual_information(d.Y[:, pos], d.Y[:, p]),
                                                  abs(pos - p), p))
        return tuple(sorted(scored[:min(ell, s)]))
    # read by chain_train once it has checked the training set
    return chain_train(d, base, order, (parents(s, pos) for s, pos in enumerate(order)))


@dataclass
class ViterbiTable:
    """Best-path log-probabilities (delta) and backpointers (psi) per chain
    step: one row per instance of a batch, or one vector for a single
    instance."""

    delta: list[np.ndarray]
    psi: list[np.ndarray]


def _chunks(n: int, cells: int) -> list[slice]:
    """Consecutive slices of 0..n-1, each of as many instances as hold at
    most ``CHUNK_CELLS`` cells of ``cells`` each, and at least one."""
    step = max(1, CHUNK_CELLS // cells)
    return [slice(i, i + step) for i in range(0, n, step)]


def _batch(m: ChainModel, X) -> tuple[tuple, bool]:
    """``X`` checked as an (N, D) batch (``ChainModel.check``), and whether
    it was one instance."""
    one = np.ndim(X) == 1
    return m.check(X, 1 if one else 2), one


def _viterbi_cells(m: ChainModel) -> int:
    """The cells per instance of a chunk of a first-order chain: those of
    its largest transition tensor (previous meta-classes, ``_n_meta``, x
    the step model's distinct classes), of a step's row of scores or of its
    Gaussian pass."""
    if any(src.tolist() != list(range(s))[-1:] for s, src in enumerate(m._sources)):
        raise ValueError("Viterbi decoding requires a first-order ('prev') chain")
    return max([a * len(model.classes) for a, model in zip(m._n_meta, m.models[1:])]
               + list(m._n_meta) + [m._gauss_cells])


def viterbi_table(m: ChainModel, X) -> ViterbiTable:
    """Fill the dynamic-programming table of a first-order chain, in log
    space, for one instance ``x`` or, a row per instance, for a batch
    ``X``.  Each chain step takes the transition tensor of a chunk of
    instances in one ``ChainModel.transitions`` call, adds the previous
    step's delta, keeps the best previous meta-class of each of the
    tensor's columns and gathers them to the step's meta-classes."""
    cells = _viterbi_cells(m)
    checked, one = _batch(m, X)
    N = len(checked[0])
    delta = [np.empty((N, L)) for L in m._n_meta]
    psi = [np.zeros((N, L), dtype=np.int64) for L in m._n_meta]
    for rows in _chunks(N, cells):
        _fill(m, m.x_rows(checked, rows), [d[rows] for d in delta], [p[rows] for p in psi])
    if one:
        return ViterbiTable([d[0] for d in delta], [p[0] for p in psi])
    return ViterbiTable(delta, psi)


def _fill(m: ChainModel, x: list, delta: list, psi: list) -> None:
    """Write the Viterbi table of the chunk of instances whose steps' rows
    are ``x`` into its rows ``delta`` and ``psi``."""
    p = m.step_dist(0, x[0], np.empty((len(delta[0]), 0), dtype=np.int64))
    np.log(np.maximum(p, PROB_FLOOR, out=p), out=delta[0])  # floored log-probabilities
    for s in range(1, len(delta)):
        scores, cols = m.transitions(s, x[s])  # a new array: added to in place
        scores += delta[s - 1][:, :, None]
        back = np.argmax(scores, axis=1)  # ties to the lowest previous value
        best = np.take_along_axis(scores, back[:, None], axis=1)[:, 0]
        # equal columns have equal argmaxes: gathered, they are the full width's
        psi[s][:] = back if cols is None else back.take(cols, axis=1)
        delta[s][:] = best if cols is None else best.take(cols, axis=1)
        # freed before the next step allocates its own, so that the
        # allocator reuses these pages rather than returning them
        del scores


def vcc_predict(m: ChainModel, X):
    """Exact MAP path of a first-order chain and its probability: for one
    instance ``x`` a (label vector, probability) pair, for a batch ``X`` an
    (N, T) matrix of paths in label-position order and (N,) probabilities.

    Maximizes log p(y_1|x) + sum_t log p(y_t|x, y_{t-1}) over all value
    combinations via the Viterbi recursion, with the usual termination
    (argmax of the final delta row) and backward trace through psi.  The
    tables are filled and traced a chunk of instances at a time.  The
    probability is exp of the best log score, so at long horizons it may
    underflow to 0.0; the path, found in log space, stays exact.
    """
    cells = _viterbi_cells(m)
    checked, one = _batch(m, X)
    N, T = len(checked[0]), len(m.models)
    paths = np.empty((N, T), dtype=np.int64)
    probs = np.empty(N)
    for rows in _chunks(N, cells):
        vals = paths[rows]
        delta = [np.empty((len(vals), L)) for L in m._n_meta]
        psi = [np.zeros((len(vals), L), dtype=np.int64) for L in m._n_meta]
        _fill(m, m.x_rows(checked, rows), delta, psi)
        vals[:, T - 1] = np.argmax(delta[T - 1], axis=1)
        probs[rows] = np.exp(delta[T - 1].max(axis=1))
        for s in range(T - 2, -1, -1):
            vals[:, s] = np.take_along_axis(psi[s + 1], vals[:, s + 1:s + 2], axis=1)[:, 0]
    paths = m.expand(paths)
    if one:
        return tuple(paths[0].tolist()), float(probs[0])
    return paths, probs


def check_samples(M: int) -> None:
    """Reject a Monte-Carlo sample budget outside 0..MAX_SAMPLES."""
    if not 0 <= M <= MAX_SAMPLES:
        raise ValueError(f"sample budget {M} is not in 0..{MAX_SAMPLES}")


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
    at a time.  A chunk is sized by its per-instance arrays, (M + 1) x T
    cells of paths and draws, and by its Gaussian pass; each step splits
    its instances into consecutive groups whose distinct prefixes, times
    the step's meta-classes, fit ``CHUNK_CELLS`` (a group holds at least
    one instance), and scores each group's distinct prefixes in one call.
    Prefixes are keyed by the code rows later steps read
    (``ChainModel._keys``), so prefixes that differ only in codes no later
    step tells apart are one prefix, scored once, bit for bit as each.
    """
    if any(src.tolist() != list(range(s)) for s, src in enumerate(m._sources)):
        raise ValueError("Monte-Carlo chain search requires an all-previous chain")
    check_samples(M)
    checked, one = _batch(m, X)
    X, T = checked[0], len(m.models)
    paths = np.empty((len(X), T), dtype=np.int64)
    for rows in _chunks(len(X), max((M + 1) * T, m._gauss_cells)):
        u = row_draws(seed, "pcc-samples", X[rows], (M, T))
        paths[rows] = _sampled_search(m, m.x_rows(checked, rows), u)
    paths = m.expand(paths)
    return tuple(paths[0].tolist()) if one else paths


def _sampled_search(m: ChainModel, x: list, u: np.ndarray) -> np.ndarray:
    """(n, T) best candidates, in chain-step order, of the instances whose
    steps' rows are ``x`` and whose (n, M, T) uniform draws are ``u``.
    The candidates hold their values; a prefix is identified by its
    values' keys (``ChainModel._keys``), and each step scores a keyed
    prefix once, from the values of its first candidate."""
    n, M, T = u.shape
    K = M + 1  # candidate k of instance i is row i * K + k: 0 greedy, k the k-th sample
    paths = np.empty((n * K, T), dtype=np.int64)
    scores = np.ones((n, K))
    prefix_id = np.repeat(np.arange(n), K)  # equal ids <=> one instance, equal keyed prefixes
    for s in range(T):
        _, first, prefix_id = np.unique(prefix_id, return_index=True, return_inverse=True)
        owner = first // K
        bounds = owner.searchsorted(np.arange(n + 1))  # instance i's: bounds[i]:bounds[i + 1]
        at = prefix_id.reshape(n, K)
        v = np.empty((n, K), dtype=np.int64)
        for a, b in _groups(bounds, max(1, CHUNK_CELLS // m._n_meta[s])):
            p0, p1 = bounds[a], bounds[b]
            group = Rows(*(None if f is None else f[a:b] for f in x[s]))
            # the group's distributions are freed in _pick, before the next group's
            v[a:b], p = _pick(m.step_dist(s, group, paths[first[p0:p1], :s], owner[p0:p1] - a),
                              at[a:b] - p0, u[a:b, :, s])
            scores[a:b] *= p
        paths[:, s] = v.ravel()
        prefix_id = prefix_id * m._n_meta[s] + m._keys[s].take(v.ravel())
    return paths.reshape(n, K, T)[np.arange(n), np.argmax(scores, axis=1)]


def _groups(bounds: np.ndarray, budget: int):
    """Consecutive (a, b) ranges of instances, the prefixes of instance i
    being ``bounds[i]:bounds[i + 1]``: each holds at most ``budget``
    prefixes, or one instance."""
    a, n = 0, len(bounds) - 1
    while a < n:
        b = max(a + 1, int(bounds.searchsorted(bounds[a] + budget, side="right")) - 1)
        yield a, b
        a = b


def _pick(dists: np.ndarray, at: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (g, M + 1) values that g instances' candidates take at a chain
    step, and their probabilities: candidate k's prefix is row ``at[i, k]``
    of the distributions ``dists``; candidate 0 takes its prefix's argmax,
    and candidate k > 0 draws with ``u[i, k - 1]``."""
    L = dists.shape[1]
    v = np.empty(at.shape, dtype=np.int64)
    v[:, 0] = np.argmax(dists[at[:, 0]], axis=1)
    # inverse-CDF pick: the first value whose cumulative mass exceeds the
    # draw.  One binary search serves every sample: prefix p's cumulative
    # masses are keyed p + 1j * mass, and NumPy orders complex numbers by
    # real part, then imaginary part, so a sample's key lands in its row.
    sample, keys = at[:, 1:], np.empty(dists.shape, dtype=np.complex128)
    keys.real = np.arange(len(dists))[:, None]
    cum = np.cumsum(dists, axis=1, out=keys.imag)
    draws = np.empty(sample.shape, dtype=np.complex128)
    draws.real, draws.imag = sample, u * cum[sample, -1]
    np.minimum(np.searchsorted(keys.ravel(), draws, side="right") - sample * L, L - 1,
               out=v[:, 1:])
    return v, dists[at, v]
