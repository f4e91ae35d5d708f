import numpy as np
import pytest

from helpers import (TableBase, enumerate_chain_best, enumerate_chain_paths,
                     random_chain_model, random_dataset, random_dist)
from seqlabel.core import Feature, LabelSchema
from seqlabel.methods.chains import (ChainModel, cc_train, ic_train,
                                     memm_train, pcc_predict, vcc_predict,
                                     viterbi_table)
from seqlabel.rng import derive_rng

X0 = np.array([0.0])


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


# ---------------------------------------------------------------------------
# first-order chains: greedy (MEMM-style) vs exact Viterbi decoding


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
            assert np.all(table.delta[s] > 0) and np.all(table.delta[s] <= 1.0)
            if s > 0:
                prev_L = m.schema.cardinalities[s - 1]
                assert np.all((table.psi[s] >= 0) & (table.psi[s] < prev_L))
                # best-path scores cannot grow as the path extends
                assert table.delta[s].max() <= table.delta[s - 1].max() + 1e-15


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
