import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (TableBase, enumerate_chain_best, enumerate_chain_paths,
                     full_width_viterbi_table, random_chain_model, random_dataset, random_dist,
                     reference_greedy, reference_pcc, reference_viterbi_table)
from seqlabel.base import DecisionTreeModel, NaiveBayesModel, Rows
from seqlabel.core import Dataset, Feature, LabelSchema
from seqlabel.dataio import load_model, save_model
from seqlabel.methods import chains
from seqlabel.methods.chains import (ChainModel, cc_train, chain_train, ic_train,
                                     memm_train, pcc_predict, vcc_predict,
                                     viterbi_table)
from seqlabel.methods import ct_train, predict_many
from seqlabel.methods.powerset import lp_train, sicl_train
from seqlabel.rng import derive_rng

X0 = np.array([0.0])
# Viterbi log scores against the log of the reference's products: naive
# Bayes transitions floor without renormalizing (L_s * 1e-15 relative at
# most), and a sum of logs rounds apart from the log of a product
LOG_ATOL = 1e-12


def single_position_dataset(rng, n=30):
    d = random_dataset(rng, n=n, T=2, max_L=3)
    # keep only the first label position: T=1 collapse fixture
    schema = LabelSchema((d.schema.cardinalities[0],))
    instances = [(x, (y[0],)) for x, y in d.instances]
    from seqlabel.core import Dataset
    return Dataset(schema, d.features, instances, name="t1")


# ---------------------------------------------------------------------------
# independent classifiers


def test_ic_t1_equals_base_classifier():
    rng = derive_rng(0, "ic-t1")
    d = single_position_dataset(rng)
    from seqlabel.base import nb_train
    m = ic_train(d, "nb")
    bare = nb_train(d.X, d.Y[:, 0], d.schema.cardinalities[0], d.features)
    for _ in range(20):
        x = np.array([rng.normal(), rng.normal(), rng.integers(0, 3)], dtype=float)
        assert m.predict(x) == (bare.predict(x),)


def test_ic_separable_position_perfect_with_dt():
    # label t copies a feature: a tree base must hit training accuracy 1.0
    rng = derive_rng(0, "ic-sep")
    from seqlabel.core import Dataset
    feats = (Feature.categorical(2, "f0"), Feature.categorical(2, "f1"))
    instances = []
    for _ in range(40):
        a, b = int(rng.integers(2)), int(rng.integers(2))
        instances.append(((a, b), (a, b)))
    d = Dataset(LabelSchema((2, 2)), feats, instances)
    m = ic_train(d, "dt")
    for x, y in d.instances:
        assert m.predict(np.asarray(x, dtype=float)) == y


def test_ic_joint_score_is_product_of_marginals():
    rng = derive_rng(0, "ic-joint")
    m = random_chain_model(rng, "independent", T=4, max_L=3)
    for _ in range(20):
        y = tuple(int(rng.integers(c)) for c in m.schema.cardinalities)
        expected = 1.0
        for s in range(4):
            expected *= float(m.models[s].predict_dist(X0)[y[s]])
        assert m.joint_score(X0, y) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# classifier chains (greedy + Monte-Carlo)


def test_cc_t1_equals_base_classifier():
    rng = derive_rng(0, "cc-t1")
    d = single_position_dataset(rng)
    from seqlabel.base import nb_train
    m = cc_train(d, "nb")
    bare = nb_train(d.X, d.Y[:, 0], d.schema.cardinalities[0], d.features)
    for _ in range(20):
        x = np.array([rng.normal(), rng.normal(), rng.integers(0, 3)], dtype=float)
        assert m.predict(x) == (bare.predict(x),)


def test_cc_learns_copied_label_identity():
    # second label copies the first: the chained tree must become the identity
    rng = derive_rng(0, "cc-copy")
    from seqlabel.core import Dataset
    feats = (Feature.numeric("v"),)
    instances = []
    for _ in range(60):
        y1 = int(rng.integers(2))
        instances.append(((float(rng.normal()),), (y1, y1)))
    d = Dataset(LabelSchema((2, 2)), feats, instances)
    m = cc_train(d, "dt")
    # probe f_2 directly on both values of its chained feature
    for v in (0, 1):
        for _ in range(10):
            xe = np.array([rng.normal(), v], dtype=float)
            assert m.models[1].predict(xe) == v
    for _ in range(20):
        x = np.array([rng.normal()], dtype=float)
        p = m.predict(x)
        assert p[1] == p[0]


def test_step_features_name_each_parent_slot_by_its_source():
    """A step's features are the chain's, then per parent position p a
    categorical slot of the meta-classes of p's step: ``y<p>`` of a plain
    step, ``set<t>`` of labelset step t."""
    d = random_dataset(derive_rng(0, "step-features"), n=30, T=4, max_L=3)
    cards = d.schema.cardinalities
    cc = cc_train(d, "nb", order=(2, 0, 3, 1))
    assert cc.models[2].features == d.features + (Feature.categorical(cards[2], "y2"),
                                                  Feature.categorical(cards[0], "y0"))
    sicl = sicl_train(d, "dt", alpha=1)  # blocks (0,), (1, 2), (3,)
    n0, n1 = (len(t.labelsets) for t in sicl.tables[:2])
    assert sicl.models[2].features == d.features + (Feature.categorical(n0, "set0"),
                                                    Feature.categorical(n1, "set1"))


def test_chain_train_gives_a_step_without_parents_the_dataset_x_itself():
    d = random_dataset(derive_rng(0, "step-x"), n=30, T=4, max_L=3)
    seen, train = [], chains.train_base
    with mock.patch.object(chains, "train_base",
                           lambda kind, X, *args: seen.append(X) or train(kind, X, *args)):
        chain_train(d, "nb", range(4), [(), (0,), (), (2, 0)])
    assert [X is d.X for X in seen] == [True, False, True, False]
    assert np.array_equal(seen[3], np.column_stack([d.X, d.Y[:, [2, 0]]]))


def test_cc_invalid_order_rejected():
    rng = derive_rng(0, "cc-order")
    d = random_dataset(rng, n=20, T=3)
    with pytest.raises(ValueError):
        cc_train(d, "nb", order=(0, 1, 1))
    with pytest.raises(ValueError):
        cc_train(d, "nb", order=(0, 1))


def test_cc_greedy_never_beats_exhaustive_map():
    rng = derive_rng(0, "cc-vs-map")
    for _ in range(100):
        T = int(rng.integers(1, 6))
        m = random_chain_model(rng, "all", T=T, max_L=3)
        greedy = m.predict(X0)
        _, best_p = enumerate_chain_best(m, X0)
        assert m.joint_score(X0, greedy) <= best_p + 1e-15


def test_pcc_zero_budget_is_greedy():
    rng = derive_rng(0, "pcc-m0")
    for _ in range(20):
        m = random_chain_model(rng, "all", max_L=3)
        assert pcc_predict(m, X0, M=0, seed=1) == m.predict(X0)


def test_pcc_never_below_greedy():
    rng = derive_rng(0, "pcc-ge-cc")
    for trial in range(50):
        m = random_chain_model(rng, "all", max_L=4)
        for seed in (0, 1, 2):
            pcc = pcc_predict(m, X0, M=25, seed=seed)
            assert m.joint_score(X0, pcc) >= m.joint_score(X0, m.predict(X0))


def test_pcc_large_budget_finds_map_usually():
    rng = derive_rng(0, "pcc-map")
    hits = 0
    for trial in range(100):
        m = random_chain_model(rng, "all", T=int(rng.integers(1, 6)), max_L=2)
        best_path, _ = enumerate_chain_best(m, X0)
        if pcc_predict(m, X0, M=1000, seed=trial) == best_path:
            hits += 1
    assert hits >= 95


def test_pcc_deterministic_and_rejects_negative_budget():
    rng = derive_rng(0, "pcc-det")
    m = random_chain_model(rng, "all", T=4, max_L=3)
    assert pcc_predict(m, X0, M=50, seed=7) == pcc_predict(m, X0, M=50, seed=7)
    with pytest.raises(ValueError):
        pcc_predict(m, X0, M=-1, seed=0)
    with pytest.raises(ValueError):
        pcc_predict(random_chain_model(rng, "prev", T=3), X0, M=5, seed=0)


class _RecordedSteps:
    """A three-step chain stand-in for ``chains._sampled_search``: each
    step's distribution is looked up by the prefix, and each call's
    prefixes and their instances are recorded."""

    DISTS = {(): [0.25, 0.25, 0.5],  # cumulative masses 0.25, 0.5, 1.0
             (0,): [0.5, 0.25, 0.25], (1,): [0.125, 0.125, 0.75], (2,): [0.75, 0.125, 0.125]}
    _n_meta = (3, 3, 3)  # each step's meta-class count, which sizes its groups
    _keys = [np.arange(3)] * 3  # every value of a step its own prefix key

    def __init__(self):
        self.calls = []

    def step_dist(self, s, x, prefixes, owner):
        self.calls.append(list(zip(owner.tolist(), map(tuple, prefixes.tolist()))))
        return np.array([self.DISTS.get(p, [1.0]) for p in map(tuple, prefixes.tolist())])


def test_sampled_pick_of_a_draw_equal_to_a_cumulative_mass_is_the_next_value():
    """A sample picks the first value whose cumulative mass exceeds its
    draw, so a draw equal to a cumulative mass picks the value after it,
    and each sample reads its own prefix's masses."""
    want = {(0.25, 0.5): (1, 2), (0.5, 0.25): (2, 0), (0.0, 0.75): (0, 2),
            (0.2, 0.5): (0, 1), (0.75, 0.875): (2, 2), (0.5 - 2**-54, 0.125): (1, 1)}
    u = np.array([[[a, b, 0.5]] for a, b in want])
    m = _RecordedSteps()
    chains._sampled_search(m, [Rows(np.zeros((len(u), 1)), None)] * 3, u)
    greedy = (2, 0)
    for i, path in enumerate(want.values()):
        assert {p for j, p in m.calls[2] if j == i} == {greedy, path}


def nb_chains(name: str, train, n: int = 4):
    """(model, rows) pairs: naive-Bayes chains over random mixed-feature
    datasets, with heterogeneous cardinalities up to 5."""
    rng = derive_rng(0, name)
    out = []
    for _ in range(n):
        d = random_dataset(rng, n=60, T=int(rng.integers(1, 5)), max_L=5, n_num=2, n_cat=2)
        out.append((train(d, rng), d.X[:8]))
    return out


@pytest.mark.parametrize("M", [0, 1, 37, 100])
def test_pcc_matches_sequential_reference(M):
    rng = derive_rng(0, "pcc-reference", M)
    for _ in range(20):
        m = random_chain_model(rng, "all", max_L=4)
        for seed in range(3):
            assert pcc_predict(m, X0, M=M, seed=seed) == reference_pcc(m, X0, M, seed)
    nb = nb_chains("pcc-reference-nb", lambda d, r: cc_train(
        d, "nb", order=tuple(int(p) for p in r.permutation(d.schema.T))))
    for m, rows in nb:
        for x in rows:
            for seed in range(3):
                assert pcc_predict(m, x, M=M, seed=seed) == reference_pcc(m, x, M, seed)


# ---------------------------------------------------------------------------
# first-order chains: greedy (MEMM-style) vs exact Viterbi decoding


def test_viterbi_table_matches_per_row_reference():
    # the random chains of acceptance criterion 1, then naive-Bayes chains
    rng = derive_rng(314159, "criterion-1")
    cases = [(random_chain_model(rng, "prev", max_L=4), [X0]) for _ in range(100)]
    cases += nb_chains("vcc-reference-nb", lambda d, r: memm_train(d, "nb"))
    for m, rows in cases:
        for x in rows:
            table = viterbi_table(m, x)
            delta, psi = reference_viterbi_table(m, x)
            assert len(table.delta) == len(delta)
            for s in range(len(delta)):
                assert np.allclose(table.delta[s], np.log(delta[s]), rtol=0, atol=LOG_ATOL)
                assert np.array_equal(table.psi[s], psi[s])


def test_memm_t1_equals_base_classifier():
    rng = derive_rng(0, "memm-t1")
    d = single_position_dataset(rng)
    from seqlabel.base import nb_train
    m = memm_train(d, "nb")
    bare = nb_train(d.X, d.Y[:, 0], d.schema.cardinalities[0], d.features)
    for _ in range(20):
        x = np.array([rng.normal(), rng.normal(), rng.integers(0, 3)], dtype=float)
        assert m.predict(x) == (bare.predict(x),)
        y, p = vcc_predict(m, x)
        assert y == m.predict(x)
        assert p == pytest.approx(float(max(bare.predict_dist(x))), rel=1e-12)


def test_viterbi_always_at_least_greedy():
    rng = derive_rng(0, "vcc-ge-memm")
    for _ in range(200):
        m = random_chain_model(rng, "prev")
        greedy = m.predict(X0)
        path, prob = vcc_predict(m, X0)
        assert m.joint_score(X0, path) >= m.joint_score(X0, greedy)


def test_label_bias_construction():
    # three binary positions; the locally best first value leads only to
    # a flat continuation while the other unlocks a confident one
    schema = LabelSchema((2, 2, 2))
    f1 = TableBase(2, 1, {(): np.array([0.6, 0.4])})
    f2 = TableBase(2, 1, {(0,): np.array([0.5, 0.5]), (1,): np.array([0.95, 0.05])})
    f3 = TableBase(2, 1, {(0,): np.array([0.5, 0.5]), (1,): np.array([0.5, 0.5])})
    m = ChainModel(schema, (Feature.numeric("x"),), (0, 1, 2), ((), (0,), (1,)),
                   (f1, f2, f3))

    greedy = m.predict(X0)
    assert greedy == (0, 0, 0)  # commits to the locally best start
    path, prob = vcc_predict(m, X0)
    best_path, best_p = enumerate_chain_best(m, X0)
    assert path == best_path == (1, 0, 0)
    assert prob == pytest.approx(best_p, rel=1e-12)
    assert m.joint_score(X0, greedy) < prob


def test_viterbi_heterogeneous_cardinalities_vs_enumeration():
    # positions taking 2, 3, and 2 values: compare against all 12 paths
    rng = derive_rng(0, "vcc-hetero")
    schema = LabelSchema((2, 3, 2))
    f1 = TableBase(2, 1, {(): random_dist(rng, 2)})
    f2 = TableBase(3, 1, {(i,): random_dist(rng, 3) for i in range(2)})
    f3 = TableBase(2, 1, {(i,): random_dist(rng, 2) for i in range(3)})
    m = ChainModel(schema, (Feature.numeric("x"),), (0, 1, 2), ((), (0,), (1,)),
                   (f1, f2, f3))
    paths = list(enumerate_chain_paths(m, X0))
    assert len(paths) == 12
    best_path, best_p = max(paths, key=lambda yp: yp[1])
    got_path, got_p = vcc_predict(m, X0)
    assert got_path == best_path
    assert got_p == pytest.approx(best_p, rel=1e-12)
    assert sum(p for _, p in paths) == pytest.approx(1.0, abs=1e-6)


def test_viterbi_matches_enumeration_500_random_models():
    rng = derive_rng(0, "vcc-enum")
    for _ in range(500):
        m = random_chain_model(rng, "prev")
        best_path, best_p = enumerate_chain_best(m, X0)
        path, prob = vcc_predict(m, X0)
        assert path == best_path
        assert prob == pytest.approx(best_p, rel=1e-12)


def test_viterbi_table_shape_and_invariants():
    rng = derive_rng(0, "vcc-table")
    for _ in range(50):
        m = random_chain_model(rng, "prev")
        table = viterbi_table(m, X0)
        T = m.schema.T
        assert len(table.delta) == len(table.psi) == T
        assert np.all(table.psi[0] == 0)
        for s in range(T):
            L = m.schema.cardinalities[s]
            assert table.delta[s].shape == (L,)
            assert np.all(np.isfinite(table.delta[s])) and np.all(table.delta[s] <= 0.0)
            if s > 0:
                prev_L = m.schema.cardinalities[s - 1]
                assert np.all((table.psi[s] >= 0) & (table.psi[s] < prev_L))
                # best-path log scores cannot grow as the path extends
                assert table.delta[s].max() <= table.delta[s - 1].max()


def log_joint(m: ChainModel, x, path) -> float:
    """log p(path | x) of a chain of plain steps, summed in chain order from
    ``step_dist``'s probabilities."""
    meta = np.zeros((1, len(m.models)), dtype=np.int64)
    rows = m.x_rows(m.check(x, 1))
    total = 0.0
    for s, pos in enumerate(m.order):
        meta[0, s] = path[pos]
        total += math.log(m.step_dist(s, rows, meta)[0, path[pos]])
    return total


def check_long_horizon(m: ChainModel):
    # the Viterbi log score dominates the greedy path's; the two sums round
    # apart by far less than 1e-9 over a few hundred steps
    best = viterbi_table(m, X0).delta[-1].max()
    assert np.isfinite(best)
    assert best >= log_joint(m, X0, m.predict(X0)) - 1e-9
    path, prob = vcc_predict(m, X0)
    assert log_joint(m, X0, path) == pytest.approx(best, rel=0, abs=1e-9)
    assert prob == pytest.approx(math.exp(best), rel=1e-12)


def test_viterbi_log_score_is_finite_where_the_path_probability_underflows():
    m = random_chain_model(np.random.default_rng(0), "prev", T=400, max_L=50)
    check_long_horizon(m)
    assert vcc_predict(m, X0)[1] == 0.0  # exp of a log score near -950


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(100, 400), st.integers(2, 8))
def test_viterbi_dominates_greedy_at_long_horizons(seed, T, max_L):
    check_long_horizon(random_chain_model(np.random.default_rng(seed), "prev", T=T, max_L=max_L))


def test_viterbi_requires_first_order_mode():
    rng = derive_rng(0, "vcc-mode")
    with pytest.raises(ValueError):
        vcc_predict(random_chain_model(rng, "all", T=3), X0)


# ---------------------------------------------------------------------------
# joint score


def test_joint_scores_sum_to_one_over_path_space():
    rng = derive_rng(0, "joint-sum")
    for mode in ("independent", "prev", "all"):
        for _ in range(10):
            m = random_chain_model(rng, mode, T=int(rng.integers(1, 5)), max_L=3)
            total = sum(m.joint_score(X0, y) for y, _ in enumerate_chain_paths(m, X0))
            assert total == pytest.approx(1.0, abs=1e-6)


def test_joint_score_of_viterbi_dominates_all_paths():
    rng = derive_rng(0, "joint-dom")
    for _ in range(50):
        m = random_chain_model(rng, "prev", T=int(rng.integers(1, 6)))
        path, _ = vcc_predict(m, X0)
        best = m.joint_score(X0, path)
        for y, p in enumerate_chain_paths(m, X0):
            assert best >= p - 1e-15
            assert m.joint_score(X0, y) == pytest.approx(p, rel=1e-12)


def test_joint_score_rejects_nonconforming():
    rng = derive_rng(0, "joint-bad")
    m = random_chain_model(rng, "prev", T=3, max_L=2)
    with pytest.raises(ValueError):
        m.joint_score(X0, (0, 0))
    with pytest.raises(ValueError):
        m.joint_score(X0, (0, 0, 5))


def test_trained_chain_predictions_conform_to_schema():
    rng = derive_rng(0, "chain-conform")
    d = random_dataset(rng, n=50, T=4, max_L=3)
    for ctor in (ic_train, cc_train, memm_train):
        m = ctor(d, "nb")
        for _ in range(20):
            x = np.array([rng.normal(), rng.normal(), rng.integers(0, 3)], dtype=float)
            assert d.schema.conforms(m.predict(x))


# ---------------------------------------------------------------------------
# batch greedy decoding: row i of predict_many is predict(X[i]) bit for bit


@st.composite
def greedy_cases(draw):
    """A trained chain (nb or dt; ic, memm, cc or ct wiring over a random
    order), possibly with a step of one class, and 0..12 rows to decode,
    some of them training rows."""
    seed = draw(st.integers(0, 2**32 - 1))
    base = draw(st.sampled_from(["nb", "dt"]))
    wiring = draw(st.sampled_from(["ic", "memm", "cc", "ct"]))
    T = draw(st.integers(1, 4))
    N = draw(st.integers(0, 12))
    rng = np.random.default_rng(seed)
    d = random_dataset(rng, n=30, T=T, max_L=3)
    if draw(st.booleans()):  # position t takes its one value
        t = int(rng.integers(T))
        cards = d.schema.cardinalities
        d = Dataset(any_schema(cards[:t] + (1,) + cards[t + 1:]), d.features,
                    [(x, y[:t] + (0,) + y[t + 1:]) for x, y in d.instances])
    if wiring == "ct":
        m = ct_train(d, base, ell=draw(st.integers(1, 2)), order_strategy="random",
                     seed=seed)
    else:
        order = tuple(int(p) for p in rng.permutation(T))
        parents = {"ic": [()] * T, "memm": [order[s - 1:s] for s in range(T)],
                   "cc": [order[:s] for s in range(T)]}[wiring]
        m = chain_train(d, base, order, parents)
    fresh = np.column_stack([rng.normal(size=(N, 2)), rng.integers(0, 3, N)])
    X = np.where(rng.random((N, 1)) < 0.3, d.X[rng.integers(0, d.n, N)], fresh)
    return m, X


@settings(max_examples=80, deadline=None)
@given(greedy_cases())
def test_greedy_predict_many_is_row_wise_predict(case):
    m, X = case
    many = m.predict_many(X)
    assert many.shape == (len(X), m.schema.T) and many.dtype == np.int64
    for i in range(len(X)):
        one = m.predict(X[i])
        assert all(type(v) is int for v in one)
        assert one == tuple(many[i].tolist()) == reference_greedy(m, X[i])


def test_chain_predict_rejects_bad_rows():
    rng = derive_rng(0, "chain-bad-rows")
    m = cc_train(random_dataset(rng, n=30, T=3), "nb")
    with pytest.raises(ValueError, match="arity"):
        m.predict(np.zeros(4))
    with pytest.raises(ValueError, match="arity"):
        m.predict_many(np.zeros(3))  # one row is not a matrix
    with pytest.raises(ValueError, match="feature 1: value nan is not finite"):
        m.predict_many(np.array([[0.0, 0.0, 1.0], [0.0, np.nan, 1.0]]))


def test_chain_of_no_features_decodes():
    # no x feature and no parent: a tree step allocates no cell per row
    d = Dataset(LabelSchema((2, 2)), (), [((), (i % 2, i // 2 % 2)) for i in range(8)])
    for base in ("nb", "dt"):
        for train in (ic_train, cc_train):
            assert train(d, base).predict_many(np.zeros((3, 0))).shape == (3, 2)


# ---------------------------------------------------------------------------
# x faults: each raises the base models' message, at every chain entry point

X_FAULTS = {  # (the bad row of a chain of features n0, n1 numeric, c0 of 3 codes, message)
    "arity": ([0.0, 0.0, 1.0, 0.0], r"feature arity \(4,\) does not match training arity \(3,\)"),
    "nan": ([0.0, np.nan, 1.0], "feature 1: value nan is not finite"),
    "inf": ([np.inf, 0.0, 1.0], "feature 0: value inf is not finite"),
    "fraction": ([0.0, 0.0, 2.5], "feature 2: code 2.5 outside declared cardinality 3"),
    "cardinality": ([0.0, 0.0, 3.0], "feature 2: code 3.0 outside declared cardinality 3"),
    "negative": ([0.0, 0.0, -1.0], "feature 2: code -1.0 outside declared cardinality 3"),
}
X_CALLS = {  # a batch puts the bad row after a good one
    "predict_many": lambda m, x: m.predict_many(np.array([[0.0, 0.0, 1.0] + [0.0] * (len(x) - 3),
                                                          x])),
    "predict": lambda m, x: m.predict(np.array(x)),
    "vcc_predict": lambda m, x: vcc_predict(m, np.array([x])),
    "pcc_predict": lambda m, x: pcc_predict(m, np.array([[0.0, 0.0, 1.0] + [0.0] * (len(x) - 3),
                                                         x]), 5, 0),
    "joint_score": lambda m, x: m.joint_score(np.array(x), (0, 0, 0)),
}


@pytest.mark.parametrize("base", ["nb", "dt"])
@pytest.mark.parametrize("fault", list(X_FAULTS))
@pytest.mark.parametrize("call", list(X_CALLS))
def test_chain_entry_points_reject_x_faults(base, fault, call):
    d = random_dataset(derive_rng(0, "chain-x-faults"), n=30, T=3)
    row, message = X_FAULTS[fault]
    # the Viterbi decoder takes a first-order chain, the Monte-Carlo search an all-previous one
    chains_of = {"vcc_predict": [memm_train], "pcc_predict": [cc_train]}
    for train in chains_of.get(call, [memm_train, cc_train, ic_train]):
        with pytest.raises(ValueError, match=f"^{message}$"):
            X_CALLS[call](train(d, base), row)


# ---------------------------------------------------------------------------
# batched search decoders: a batch decodes each row as the one-row oracles do


def chunk_cells(cells: int):
    return mock.patch.object(chains, "CHUNK_CELLS", cells)


# the constant as it is, one instance per chunk, and a few instances per chunk
CHUNKINGS = (chains.CHUNK_CELLS, 1, 40)


def any_schema(cards) -> LabelSchema:
    """A schema of cardinalities from 1: a schema asks for two values per
    position, the decoders for one, and a one-value step is the edge case
    of their tensor shapes."""
    schema = object.__new__(LabelSchema)
    object.__setattr__(schema, "cardinalities", tuple(cards))
    return schema


def table_chain(rng, mode: str, cards) -> ChainModel:
    """A time-order chain over lookup tables ("prev": first-order, "all":
    all-previous) with the given cardinalities."""
    T = len(cards)
    parents = [tuple(range(s)) if mode == "all" else ((s - 1,) if s else ()) for s in range(T)]
    models = tuple(TableBase(cards[s], 1, {k: random_dist(rng, cards[s]) for k in
                                           itertools.product(*[range(cards[p]) for p in pars])})
                   for s, pars in enumerate(parents))
    return ChainModel(any_schema(cards), (Feature.numeric("x"),), tuple(range(T)),
                      tuple(parents), models)


def trained_chain(rng, mode: str, T: int, base: str = "nb"):
    """A trained chain ("prev": first-order, "all": all-previous, both in a
    random order) and its training set, in which one position may take a
    single value or have one value only (a one-class step)."""
    d = random_dataset(rng, n=40, T=T, max_L=4, n_num=2, n_cat=2, cover_all_values=False)
    one = rng.random()
    if one < 0.6:
        t = int(rng.integers(T))
        schema = d.schema if one < 0.3 else any_schema(
            d.schema.cardinalities[:t] + (1,) + d.schema.cardinalities[t + 1:])
        d = Dataset(schema, d.features, [(x, y[:t] + (0,) + y[t + 1:]) for x, y in d.instances])
    order = tuple(int(p) for p in rng.permutation(T))
    if mode == "prev":
        return chain_train(d, base, order, [order[s - 1:s] for s in range(T)]), d
    return chain_train(d, base, order, [order[:s] for s in range(T)]), d


def labelset_chain(rng, mode: str, T: int, base: str = "nb"):
    """An lp or a sicl chain and its training set; a sicl chain of at most
    two steps ("prev": first-order) or of any number ("all")."""
    d = random_dataset(rng, n=30, T=T, max_L=3, cover_all_values=False)
    if rng.random() < 0.3:
        return lp_train(d, base), d
    return sicl_train(d, base, alpha=int(rng.integers(2 if mode == "prev" else 1, 4))), d


def first_order(m: ChainModel) -> bool:
    """Whether each chain step's parent, if it has one, is the step before."""
    return all(src.tolist() == list(range(s))[-1:] for s, src in enumerate(m._sources))


@st.composite
def search_cases(draw, mode: str):
    """(chain, rows, fold): lookup tables with cardinalities from 1; naive
    Bayes on numeric and categorical features in a random order, with a
    step of one class possibly; an lp or sicl chain of labelset steps; or,
    for the Monte-Carlo search, trees.  T from 1.  The rows hold a repeated
    row and a row that differs from another in its numeric features only;
    ``fold`` is the training rows (a trained chain) or None."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = draw(st.integers(1, 4))
    n = draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["table", "trained", "labelsets"]))
    base = draw(st.sampled_from(["nb", "dt"])) if mode == "all" else "nb"
    if kind == "table":
        m, fold = table_chain(rng, mode, draw(st.lists(st.integers(1, 4), min_size=T,
                                                       max_size=T))), None
        X = rng.normal(size=(n, 1))
    else:
        build = trained_chain if kind == "trained" else labelset_chain
        m, d = build(rng, mode, min(T, 3), base)
        fold = d.X
        X = fold[rng.integers(0, d.n, n)]
    if n:
        moved = X[-1:].copy()
        moved[:, :2] += rng.normal(size=(1, min(2, X.shape[1])))
        X = np.vstack([X, X[:1], moved])
    return m, X, fold


def _rows_equal(many, i, one) -> bool:
    return tuple(many[i].tolist()) == one


@settings(max_examples=60, deadline=None)
@given(search_cases("prev"))
def test_batched_viterbi_table_equals_reference_per_row(case):
    m, X, _ = case
    refs = [reference_viterbi_table(m, x) for x in X]
    for cells in CHUNKINGS:
        with chunk_cells(cells):
            table = viterbi_table(m, X)
        assert len(table.delta) == len(table.psi) == len(m.models)
        for s in range(len(m.models)):
            L = m.models[s].n_classes
            assert table.delta[s].shape == table.psi[s].shape == (len(X), L)
            for i, (delta, psi) in enumerate(refs):
                assert np.allclose(table.delta[s][i], np.log(delta[s]), rtol=0, atol=LOG_ATOL)
                assert np.array_equal(table.psi[s][i], psi[s])


@settings(max_examples=60, deadline=None)
@given(search_cases("prev"))
def test_batched_vcc_equals_enumeration_per_row(case):
    m, X, _ = case
    best = [enumerate_chain_best(m, x) for x in X]
    for cells in CHUNKINGS:
        with chunk_cells(cells):
            paths, probs = vcc_predict(m, X)
            assert np.array_equal(predict_many("vcc", m, X), paths)
        assert paths.shape == (len(X), m.schema.T) and probs.shape == (len(X),)
        for i, (path, p) in enumerate(best):
            assert _rows_equal(paths, i, path)
            assert probs[i] == pytest.approx(p, rel=1e-12)


def hundred_class_data(name: str, T: int = 5) -> Dataset:
    """140 rows of 15 numeric features and T positions of 100 classes, of
    which each position takes 10."""
    rng = derive_rng(0, name)
    values = [rng.choice(100, 10, replace=False) for _ in range(T)]
    feats = tuple(Feature.numeric(f"n{j}") for j in range(15))
    instances = [(tuple(rng.normal(size=15).tolist()),
                  tuple(int(rng.choice(v)) for v in values)) for _ in range(140)]
    return Dataset(LabelSchema((100,) * T), feats, instances)


def test_viterbi_chunks_are_sized_by_the_distinct_classes_of_each_step():
    """A memm of 100 classes a step, 10 of them seen, on 15 numeric
    features: a step's transition tensor holds 100 previous classes x 11
    distinct ones per row, so 73 rows decode in 2 chunks (13 at 100 x 100
    cells per row), and the table is the full-width one bit for bit."""
    T, d = 5, hundred_class_data("viterbi-distinct-chunks")
    m = memm_train(d.subset(range(67)), "nb")
    assert [len(step.classes) for step in m.models] == [11] * T
    X = d.X[67:]
    calls = []
    transitions = ChainModel.transitions
    with mock.patch.object(ChainModel, "transitions", autospec=True,
                           side_effect=lambda *a: calls.append(a) or transitions(*a)):
        table = viterbi_table(m, X)
    assert len(X) == 73 and len(calls) <= 2 * (T - 1)
    delta, psi = full_width_viterbi_table(m, X)
    for s in range(T):
        assert table.delta[s].tobytes() == delta[s].tobytes()
        assert table.psi[s].tobytes() == psi[s].tobytes()


def test_pcc_groups_are_sized_by_the_distinct_prefixes_of_each_step():
    """A cc of 100 classes a step, about 10 of them seen: 73 rows and their
    101 candidates each make one chunk, and each step scores its distinct
    prefixes in groups of at most CHUNK_CELLS // 100 of them (or of one
    instance), so in at most about twice as many calls as fit the budget.
    The paths are the sequential reference's, also where every group is
    one instance whose prefixes exceed the budget (the small chunkings)."""
    T, d = 5, hundred_class_data("pcc-prefix-groups")
    m = cc_train(d.subset(range(67)), "nb")
    assert [len(step.classes) for step in m.models] == [11] * T
    X = d.X[67:]
    want = [reference_pcc(m, x, 100, 0) for x in X]
    search, step_dist = chains._sampled_search, ChainModel.step_dist
    searches, calls = [], []  # per step_dist call: (step, prefixes, instances)
    with mock.patch.object(chains, "_sampled_search", side_effect=lambda *a: searches.append(a)
                           or search(*a)), \
            mock.patch.object(ChainModel, "step_dist", autospec=True,
                              side_effect=lambda *a: calls.append(
                                  (a[1], len(a[3]), len(np.unique(a[4])))) or step_dist(*a)):
        paths = pcc_predict(m, X, 100, 0)
    assert len(searches) == 1
    budget = chains.CHUNK_CELLS // 100
    assert all(k <= budget or one == 1 for _, k, one in calls)
    for s in range(T):
        prefixes = sum(k for t, k, _ in calls if t == s)
        assert 0 < sum(t == s for t, _, _ in calls) <= 2 * -(-prefixes // budget) + 1
    for cells in CHUNKINGS:
        with chunk_cells(cells):
            assert np.array_equal(pcc_predict(m, X, 100, 0), paths)
    for i, path in enumerate(want):
        assert _rows_equal(paths, i, path)


def test_pcc_scores_one_row_per_keyed_prefix():
    """On the chain above, each step scores one row per distinct (instance,
    keyed prefix) pair of the candidates.  At step 1 that is fewer than
    the distinct raw prefixes: the 89 classes step 0 never saw share a
    key."""
    T, d = 5, hundred_class_data("pcc-prefix-groups")
    m = cc_train(d.subset(range(67)), "nb")
    X = d.X[67:]
    pick, step_dist = chains._pick, ChainModel.step_dist
    scored, picked = [], []  # per step_dist call: (step, prefixes); per _pick: its values

    def recorded_pick(*a):
        v, p = pick(*a)
        picked.append(v)
        return v, p

    with mock.patch.object(chains, "_pick", side_effect=recorded_pick), \
            mock.patch.object(ChainModel, "step_dist", autospec=True, side_effect=lambda *a:
                              scored.append((a[1], len(a[3]))) or step_dist(*a)):
        pcc_predict(m, X, 100, 0)
    # (instances, candidates, T) paths: each step's groups come in instance order
    paths = np.stack([np.concatenate([v for (t, _), v in zip(scored, picked) if t == s])
                      for s in range(T)], axis=2)
    owner = np.repeat(np.arange(len(X)), paths.shape[1])
    for s in range(T):
        raw = np.column_stack([owner] + [paths[:, :, t].ravel() for t in range(s)])
        keyed = np.column_stack([owner] + [m._keys[t][raw[:, t + 1]] for t in range(s)])
        rows = sum(k for t, k in scored if t == s)
        assert rows == len(np.unique(keyed, axis=0))
        if s == 1:
            assert rows < len(np.unique(raw, axis=0))


def unseen_class_chains(name: str, n: int = 6) -> list[tuple[ChainModel, np.ndarray]]:
    """(chain, rows) pairs: naive-Bayes and tree cc chains in a random
    order, trained on random datasets whose positions declare three more
    classes than they take, and a tree cc chain whose labels all copy a
    categorical feature of x, so that its trees never test a parent slot.
    The ``n`` rows are training rows with their numeric features moved."""
    rng = derive_rng(0, name)
    sets = []
    for _ in range(3):
        d = random_dataset(rng, n=40, T=int(rng.integers(2, 5)), max_L=4, n_num=2, n_cat=2,
                           cover_all_values=False)
        sets += [(d, "nb"), (d, "dt")]
    d = random_dataset(rng, n=30, T=3, n_cat=1)
    sets.append((Dataset(LabelSchema((3,) * 3), d.features,
                         [(x, (x[2],) * 3) for x, _ in d.instances]), "dt"))
    out = []
    for d, base in sets:
        d = Dataset(LabelSchema(tuple(c + 3 for c in d.schema.cardinalities)), d.features,
                    d.instances)
        X = d.X[rng.integers(0, d.n, n)]
        X[:, :2] += rng.normal(size=(n, 2))
        out.append((cc_train(d, base, order=tuple(int(p) for p in rng.permutation(d.schema.T))),
                    X))
    return out


def test_prefix_keys_merge_only_values_that_every_later_step_scores_alike(tmp_path):
    rng = derive_rng(0, "prefix-keys-rows")
    chains_ = unseen_class_chains("prefix-keys")
    *_, (blind, _) = chains_
    assert all(not k.any() for k in blind._keys[:-1])  # no tree tests a parent slot
    merged = 0
    for i, (m, X) in enumerate(chains_):
        path = tmp_path / f"m{i}.json"
        save_model(m, str(path), "cc")
        loaded = load_model(str(path))[0]
        for chain in (m, loaded):
            x = chain.x_rows(chain.check(X))
            for t, keys in enumerate(chain._keys):
                assert np.array_equal(keys, m._keys[t])
                merged += int((keys != np.arange(len(keys))).sum())
                for s in range(t + 1, len(chain.models)):
                    meta = rng.integers(0, chain._n_meta[:s], size=(len(X), s))
                    rows = []
                    for v in range(len(keys)):
                        meta[:, t] = v
                        rows.append(chain.step_dist(s, x, meta).tobytes())
                    assert all(rows[v] == rows[k] for v, k in enumerate(keys.tolist()))
    assert merged


@pytest.mark.parametrize("M", [0, 1, 37, 100])
def test_pcc_over_keyed_prefixes_matches_sequential_reference(M):
    for m, X in unseen_class_chains("prefix-keys"):
        want = [reference_pcc(m, x, M, M) for x in X]
        for cells in CHUNKINGS:
            with chunk_cells(cells):
                paths = pcc_predict(m, X, M, M)
            for i, path in enumerate(want):
                assert _rows_equal(paths, i, path)


@pytest.mark.parametrize("learner", [NaiveBayesModel, DecisionTreeModel])
def test_pcc_over_keyed_prefixes_matches_sequential_reference_on_many_rows(learner):
    """The test above on more rows and samples, where a key that merges a
    code some later step tells apart changes some paths: with the lowest
    code of either learner's ``codes_told_apart`` dropped, this fails."""
    for m, X in unseen_class_chains("prefix-keys-many", 40):
        if isinstance(m.models[0], learner):
            paths = pcc_predict(m, X, 300, 1)
            for i, x in enumerate(X):
                assert _rows_equal(paths, i, reference_pcc(m, x, 300, 1))


@settings(max_examples=60, deadline=None)
@given(search_cases("all"), st.sampled_from([0, 1, 5, 30]), st.integers(0, 3))
def test_batched_pcc_equals_sequential_reference_per_row(case, M, seed):
    m, X, _ = case
    want = [reference_pcc(m, x, M, seed) for x in X]
    for cells in CHUNKINGS:
        with chunk_cells(cells):
            paths = pcc_predict(m, X, M, seed)
            assert np.array_equal(predict_many("pcc", m, X, seed, {"samples": M}), paths)
        assert paths.shape == (len(X), m.schema.T) and paths.dtype == np.int64
        for i, path in enumerate(want):
            assert _rows_equal(paths, i, path)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["prev", "all"]).flatmap(search_cases), st.integers(0, 2**32 - 1))
def test_search_answer_of_a_row_is_the_same_alone_in_a_fold_and_shuffled(case, seed):
    m, X, fold = case
    decode = ((lambda A: vcc_predict(m, A)[0]) if first_order(m)
              else (lambda A: pcc_predict(m, A, 20, 3)))
    batch = fold if fold is not None else X
    whole = decode(batch)
    perm = np.random.default_rng(seed).permutation(len(batch))
    for cells in CHUNKINGS:
        with chunk_cells(cells):
            assert np.array_equal(decode(batch[perm]), whole[perm])
            for i in range(len(batch)):
                assert _rows_equal(whole, i, decode(batch[i]))
            if fold is not None:  # the query rows, alone and among the training rows
                inside = decode(np.vstack([fold, X]))
                for i, x in enumerate(X):
                    assert _rows_equal(inside, len(fold) + i, decode(x))


def test_search_decoders_of_no_rows_and_of_a_row_that_is_not_a_matrix():
    rng = derive_rng(0, "search-empty")
    for mode, method in (("prev", "vcc"), ("all", "pcc")):
        m = random_chain_model(rng, mode, T=3)
        assert predict_many(method, m, np.zeros((0, 1))).shape == (0, 3)
        with pytest.raises(ValueError, match=r"features of shape \(1,\) are not an \(N, D\)"):
            predict_many(method, m, X0)
