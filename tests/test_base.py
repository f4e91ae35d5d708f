import json
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (DTNode, is_distribution, reference_dt_train, reference_nb_log_scores,
                     reference_nb_stats, reference_nb_table, tree_model, tree_root)
from seqlabel import base
from seqlabel.base import (DecisionTreeModel, NaiveBayesModel, _check_stats, _layout,
                           base_model_from_dict, dt_train, nb_train, train_base)
from seqlabel.core import (LOG_PROB_FLOOR, Feature, grid_terms, log_normalized_sums,
                           normalize_log_scores)
from seqlabel.harness import DatasetSpec, materialize_dataset

# base.WALK_ROWS values that route every batch of rows through one tree
# kernel: the level-wise NumPy one, then the Python walk
KERNELS = (0, 10**9)

BIN = (Feature.categorical(2, "f"),)


def test_package_exports_resolve_and_both_learners_share_its_base_model():
    import seqlabel
    assert all(hasattr(seqlabel, name) for name in seqlabel.__all__)
    assert seqlabel.BaseModel is base.BaseModel
    for learner in (NaiveBayesModel, DecisionTreeModel):
        assert learner.__bases__ == (seqlabel.BaseModel,)
        shared = ("predict_dist_many", "predict_many", "log_dist_grid", "predict_dist", "predict")
        assert not set(shared) & set(vars(learner))


def hand_example_model():
    # 4 instances, 1 binary feature, 2 classes: {(0,c0),(0,c0),(1,c1),(1,c0)}
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0, 0, 1, 0])
    return nb_train(X, y, 2, BIN)


def test_nb_hand_computed_posterior():
    m = hand_example_model()
    # p(c0) = 4/6, p(x=0|c0) = 3/5, p(x=0|c1) = 1/3 -> p(c0|x=0) = 18/23
    d = m.predict_dist(np.array([0.0]))
    assert d[0] == pytest.approx(18 / 23, abs=1e-9)
    assert d[1] == pytest.approx(5 / 23, abs=1e-9)
    assert m.predict(np.array([0.0])) == 0


def test_nb_prior_dominance_single_class():
    X = np.array([[0.0], [1.0], [0.0]])
    y = np.array([1, 1, 1])
    m = nb_train(X, y, 2, BIN)
    for v in (0.0, 1.0):
        d = m.predict_dist(np.array([v]))
        assert d[1] > d[0]


def test_nb_symmetric_feature_keeps_prior():
    # balanced 2x2 table: feature carries no class information
    X = np.array([[0.0], [1.0], [0.0], [1.0]])
    y = np.array([0, 0, 1, 1])
    m = nb_train(X, y, 2, BIN)
    for v in (0.0, 1.0):
        d = m.predict_dist(np.array([v]))
        assert d[0] == pytest.approx(0.5, abs=1e-9)


def test_nb_uniform_training_gives_uniform_posterior():
    X = np.array([[0.0], [1.0], [0.0], [1.0]])
    y = np.array([0, 1, 1, 0])
    m = nb_train(X, y, 2, BIN)
    for v in (0.0, 1.0):
        d = m.predict_dist(np.array([v]))
        assert d[0] == pytest.approx(0.5, abs=1e-9)


def test_nb_gaussian_numeric_feature():
    rng = np.random.default_rng(3)
    X = np.concatenate([rng.normal(-2, 0.5, size=(50, 1)),
                        rng.normal(2, 0.5, size=(50, 1))])
    y = np.array([0] * 50 + [1] * 50)
    m = nb_train(X, y, 2, (Feature.numeric("v"),))
    assert m.predict(np.array([-2.0])) == 0
    assert m.predict(np.array([2.0])) == 1
    assert is_distribution(m.predict_dist(np.array([0.1])))


def test_nb_constant_numeric_feature_variance_floor():
    X = np.array([[1.0], [1.0], [1.0]])
    y = np.array([0, 1, 0])
    m = nb_train(X, y, 2, (Feature.numeric("v"),))
    d = m.predict_dist(np.array([1.0]))
    assert is_distribution(d) and np.all(d > 0)


def test_nb_log_joint_decomposition():
    rng = np.random.default_rng(5)
    feats = (Feature.categorical(3, "a"), Feature.numeric("b"))
    X = np.column_stack([rng.integers(0, 3, 60), rng.normal(size=60)]).astype(float)
    y = rng.integers(0, 3, 60)
    m = nb_train(X, y, 3, feats)
    x = np.array([1.0, 0.37])
    scores = m.log_scores_many(x[None])[0]
    # recompute per-feature log terms from the stored tables
    for c in range(3):
        for c2 in range(3):
            diff = scores[c] - scores[c2]
            manual = m.log_priors[c] - m.log_priors[c2]
            manual += m.cat_log_rows[1, c] - m.cat_log_rows[1, c2]
            for arrs in [(m.num_logconst, m.num_mean, m.num_inv2var)]:
                const, mean, inv = arrs
                manual += (const[c] - (x[1] - mean[c, 0]) ** 2 * inv[c, 0]) - (
                    const[c2] - (x[1] - mean[c2, 0]) ** 2 * inv[c2, 0])
            assert diff == pytest.approx(manual, abs=1e-9)


def test_nb_rejects_bad_inputs():
    with pytest.raises(ValueError):
        nb_train(np.zeros((0, 1)), np.zeros(0, dtype=int), 2, BIN)
    m = hand_example_model()
    with pytest.raises(ValueError):
        m.predict_dist(np.array([2.0]))  # code beyond declared cardinality
    with pytest.raises(ValueError):
        m.predict_dist(np.array([0.0, 1.0]))  # wrong arity


def test_nb_in_range_unseen_code_is_smoothed():
    feats = (Feature.categorical(3, "f"),)
    X = np.array([[0.0], [1.0], [0.0], [1.0]])
    y = np.array([0, 1, 0, 1])
    m = nb_train(X, y, 2, feats)
    d = m.predict_dist(np.array([2.0]))  # declared but never observed
    assert is_distribution(d) and np.all(d > 0)


def test_nb_never_returns_exact_zero_or_one():
    rng = np.random.default_rng(9)
    X = np.concatenate([rng.normal(-50, 0.01, size=(30, 1)),
                        rng.normal(50, 0.01, size=(30, 1))])
    y = np.array([0] * 30 + [1] * 30)
    m = nb_train(X, y, 2, (Feature.numeric("v"),))
    d = m.predict_dist(np.array([-50.0]))
    assert np.all(d > 0)


def test_nb_huge_values_raise_no_warning():
    v = Feature.numeric("v")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for X, y, needle in (([0.0, 1.0, 1e160], [0, 1, 1], "value 1e+160 overflows the "
                              "variance of class 1"),
                             ([-1e154, 1e154, 0.0], [0, 0, 1], "value -1e+154 overflows the "
                              "variance of class 0")):
            with pytest.raises(ValueError, match=re.escape(f"feature 0: {needle}")):
                nb_train(np.array(X)[:, None], y, 2, (v,))
        with pytest.raises(ValueError, match="feature 1: training codes outside"):
            nb_train(np.array([[0.0, 1e300]]), [0], 2, (v, Feature.categorical(2, "c")))
        m = nb_train(np.array([[0.0], [1.0], [2.0]]), [0, 1, 1], 2, (v,))
        for bad in (1e160, 1e300, -1e200):
            with pytest.raises(ValueError, match=re.escape(f"feature 0: value {bad!r} is too far")):
                m.predict_dist_many(np.array([[0.5], [bad]]))
        # large enough to be checked, small enough to score: the other rows keep their bits
        big = math.sqrt(sys.float_info.max / (2 * m.num_inv2var.max()))
        assert big * big > m._gaussians.safe_sum_sq
        d = m.predict_dist_many(np.array([[0.5], [big], [1.5]]))
        assert d[0].tobytes() + d[2].tobytes() == (m.predict_dist([0.5]).tobytes()
                                                   + m.predict_dist([1.5]).tobytes())
        assert is_distribution(d[1])
        cat = nb_train(np.array([[0.0, 1.0]]), [0], 2, (v, Feature.categorical(2, "c")))
        with pytest.raises(ValueError, match=re.escape("code 1e+300 outside declared cardinality 2")):
            cat.predict_dist([0.0, 1e300])


@st.composite
def nb_fits(draw):
    """A naive-Bayes training set: numeric and categorical features, either
    kind possibly absent, and labels that may leave classes unseen."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.sampled_from(["mixed", "numeric", "categorical"]))
    n_num = draw(st.integers(1, 3)) if kinds != "categorical" else 0
    cards = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5)) \
        if kinds != "numeric" else []
    n_classes = draw(st.integers(1, 7))
    seen = draw(st.integers(1, n_classes))
    N = draw(st.integers(1, 30))
    scale = 10.0 ** draw(st.integers(-3, 8))
    X = np.column_stack([rng.normal(size=N) * scale for _ in range(n_num)]
                        + [rng.integers(0, c, N) for c in cards]).astype(float)
    feats = tuple(Feature.numeric(f"n{j}") for j in range(n_num)) + tuple(
        Feature.categorical(c, f"c{j}") for j, c in enumerate(cards))
    return X, rng.integers(0, seen, N), n_classes, feats


@settings(max_examples=150, deadline=None)
@given(nb_fits())
def test_nb_loaded_tables_are_the_trained_tables(fit):
    X, y, n_classes, feats = fit
    m = nb_train(X, y, n_classes, feats)
    d = json.loads(json.dumps(m.to_file_dict()))
    loaded = NaiveBayesModel.from_dict(d, feats)
    for name in ("log_priors", "cat_log_rows", "num_inv2var", "num_logconst"):
        assert np.array_equal(getattr(loaded, name), getattr(m, name)), name
    cat = [j for j, f in enumerate(feats) if f.kind == "categorical"]
    counts = np.zeros((n_classes, sum(feats[j].cardinality for j in cat)), dtype=int)
    offset = 0
    for j in cat:
        np.add.at(counts, (y, offset + X[:, j].astype(int)), 1)
        offset += feats[j].cardinality
    assert len(d["cat_cells"]) == np.count_nonzero(counts)
    assert loaded.cat_log_rows.flags.c_contiguous


@st.composite
def nb_stat_fits(draw):
    """A naive-Bayes training set for ``nb_train``'s statistics: 0, 1, 2 or
    15 numeric features, up to 700 classes of which many may be unseen or
    hold one row, optionally one class of 10,000 rows, values of any scale
    or far from 0, and -0.0 values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Dn = draw(st.sampled_from([0, 1, 2, 15]))
    cards = draw(st.lists(st.integers(1, 6), min_size=0 if Dn else 1, max_size=3))
    n_classes = draw(st.sampled_from([1, 2, 7, 100, 700]))
    seen = draw(st.integers(1, n_classes))
    y = rng.integers(0, seen, draw(st.sampled_from([1, 2, 3, 40, 400])))
    if draw(st.booleans()):
        y = rng.permutation(np.concatenate([y, np.full(10_000, rng.integers(seen))]))
    N = len(y)
    num = rng.normal(size=(N, Dn)) * 10.0 ** draw(st.integers(-3, 8))
    num += draw(st.sampled_from([0.0, 1e6, -3.5]))
    num[rng.random((N, Dn)) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = -0.0
    X = np.column_stack([num] + [rng.integers(0, c, N) for c in cards]).astype(float)
    feats = tuple(Feature.numeric(f"n{j}") for j in range(Dn)) + tuple(
        Feature.categorical(c, f"c{j}") for j, c in enumerate(cards))
    return X, y, n_classes, feats


@settings(max_examples=60, deadline=None)
@given(nb_stat_fits())
def test_nb_statistics_are_numpys_per_class_statistics(fit):
    """nb_train's array passes give the statistics of the per-class loop
    bit for bit, except with one numeric feature, where NumPy sums a
    class's column pairwise: then a class of m rows may differ by at most
    2 m eps mean|x| in its mean and 4 m eps var + 16 (m eps mean|x|)**2 in
    its variance."""
    X, y, n_classes, feats = fit
    m = nb_train(X, y, n_classes, feats)
    counts, cells, mean, var = reference_nb_stats(X, y, n_classes, feats)
    assert m.class_counts.tobytes() == counts.tobytes()
    assert m.cat_cells.shape == cells.shape and m.cat_cells.tobytes() == cells.tobytes()
    assert m.num_mean.shape == mean.shape and m.num_var.shape == var.shape
    Dn = mean.shape[1]
    if Dn != 1:
        assert m.num_mean.tobytes() == mean.tobytes()
        assert m.num_var.tobytes() == var.tobytes()
        return
    eps = np.finfo(np.float64).eps
    for c in range(n_classes):  # an unseen class (no rows) has NumPy's statistics of all rows
        rows = X[y == c, 0]
        size, scale = len(rows) * eps, np.abs(rows).mean() if len(rows) else 0.0
        assert abs(m.num_mean[c, 0] - mean[c, 0]) <= 2 * size * scale
        assert abs(m.num_var[c, 0] - var[c, 0]) <= 4 * size * var[c, 0] + 16 * (size * scale) ** 2


@settings(max_examples=60, deadline=None)
@given(nb_stat_fits())
def test_nb_trained_statistics_pass_the_model_file_check(fit):
    """The constructor trusts ``nb_train``'s statistics; ``from_dict``
    checks a file's with ``_check_stats``, which accepts every trained
    model's (Gaussian rows of its distinct classes)."""
    X, y, n_classes, feats = fit
    m = nb_train(X, y, n_classes, feats)
    _check_stats(_layout(feats), m.class_counts, m.cat_cells, m.num_mean[m.classes],
                 m.num_var[m.classes])


@st.composite
def nb_kernel_cases(draw):
    """A naive-Bayes training set whose last feature is categorical, with 0,
    1 or 15 numeric features among the categorical ones, whose labels see
    every class, one class, or a few of many; query rows, some far from
    the data or of codes unseen in training; the factored form of further
    queries (x rows, owners and the codes of the trailing categorical
    features); and a code count L of the last feature."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Dn = draw(st.sampled_from([0, 1, 15]))
    cards = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    lead = draw(st.integers(0, len(cards) - 1))  # categorical features before the numeric ones
    feats = (tuple(Feature.categorical(c, f"a{j}") for j, c in enumerate(cards[:lead]))
             + tuple(Feature.numeric(f"n{j}") for j in range(Dn))
             + tuple(Feature.categorical(c, f"b{j}") for j, c in enumerate(cards[lead:])))
    C = draw(st.sampled_from([1, 2, 5, 40]))
    seen = {"all": np.arange(C), "one": rng.integers(0, C, 1),
            "few": rng.permutation(C)[:3]}[draw(st.sampled_from(["all", "one", "few"]))]
    y = rng.permutation(np.concatenate([seen, rng.choice(seen, draw(st.integers(0, 12)))]))
    scale = 10.0 ** draw(st.integers(-2, 3))

    def rows(n, spread=1.0):
        return np.column_stack([rng.integers(0, c, n) for c in cards[:lead]]
                               + [rng.normal(size=n) * scale * spread for _ in range(Dn)]
                               + [rng.integers(0, c, n) for c in cards[lead:]]).astype(float)

    X = rows(len(y))
    Q = rows(draw(st.sampled_from([1, 2, 9])), draw(st.sampled_from([1.0, 30.0])))
    w = draw(st.integers(1, len(cards) - lead))  # the trailing features the codes fill
    n_x = draw(st.sampled_from([1, 3]))
    owner = rng.integers(0, n_x, draw(st.sampled_from([1, 7])))
    codes = np.column_stack([rng.integers(0, c, len(owner)) for c in cards[len(cards) - w:]])
    L = draw(st.integers(1, cards[-1]))
    return X, y, C, feats, Q, (rows(n_x)[:, :len(feats) - w], owner, codes), L


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@settings(max_examples=200, deadline=None)
@given(nb_kernel_cases())
def test_nb_scores_over_distinct_classes_are_the_full_width_kernels(case):
    """Scoring the distinct classes and gathering them to all classes gives
    the full-width kernel's scores, distributions, predictions and
    transition grids bit for bit, in the batch and the factored form, for
    a trained and for a loaded model."""
    X, y, C, feats, Q, (xq, owner, codes), L = case
    m = nb_train(X, y, C, feats)
    loaded = NaiveBayesModel.from_dict(json.loads(json.dumps(m.to_file_dict())), feats)
    stats = (feats, m.class_counts, m.cat_cells, m.num_mean, m.num_var)
    batch = reference_nb_log_scores(*stats, Q)
    factored = reference_nb_log_scores(*stats, xq, owner, codes)
    last = reference_nb_table(*stats[:3])[-feats[-1].cardinality:][:L]
    grid = log_normalized_sums(reference_nb_log_scores(*stats, Q[:, :-1]), last)
    for model in (m, loaded):
        assert len(model.classes) == len(np.unique(y)) + (len(np.unique(y)) < C)
        assert _same_bits(model.log_scores_many(Q), batch)
        assert _same_bits(model.predict_dist_many(Q), normalize_log_scores(batch))
        assert _same_bits(model.predict_many(Q), batch.argmax(axis=1))
        assert _same_bits(model.log_scores_many(xq, owner, codes), factored)
        assert _same_bits(model.predict_dist_many(xq, owner, codes), normalize_log_scores(factored))
        assert _same_bits(model.predict_many(xq, owner, codes), factored.argmax(axis=1))
        assert _same_bits(np.ascontiguousarray(model.log_dist_grid(Q[:, :-1], L)), grid)


def test_nb_model_of_no_seen_class_scores_as_its_full_width_table():
    """A model file whose classes are all unseen holds one column; one row's
    categorical terms are still added in order, as its full-width table of
    three columns added them (NumPy adds the rows of a one-column gather
    pairwise)."""
    # cardinalities whose 18 terms log(1 / card) sum differently pairwise
    cards = [38, 31, 17, 19, 4, 6, 2, 12, 49, 39, 54, 31, 37, 58, 44, 38, 33, 34]
    feats = tuple(Feature.categorical(c, f"c{j}") for j, c in enumerate(cards))
    feats += (Feature.numeric("v"),)
    m = NaiveBayesModel.from_dict({
        "kind": "naive-bayes", "class_counts": [0, 0, 0], "cat_cells": [],
        "num_mean": [[0.5]], "num_var": [[2.0]]}, feats)
    assert m.classes.tolist() == [0] and m.columns.tolist() == [0, 0, 0]
    rng = np.random.default_rng(3)
    X = np.column_stack([rng.integers(0, c, 4) for c in cards] + [rng.normal(size=4)])
    stats = (feats, m.class_counts, m.cat_cells, m.num_mean, m.num_var)
    for Q in (X[:1], X):
        assert _same_bits(m.log_scores_many(Q), reference_nb_log_scores(*stats, Q))
        assert m.predict_many(Q).tolist() == [0] * len(Q)


def test_nb_unseen_class_that_scores_highest_is_the_lowest_unseen():
    """Classes 3 and 5 are seen, with code 0 only; a row of codes 1 scores
    every unseen class above them, and the lowest unseen class, 0, wins."""
    feats = tuple(Feature.categorical(2, f"c{j}") for j in range(3))
    m = nb_train(np.zeros((4, 3)), np.array([3, 5, 3, 5]), 6, feats)
    assert m.classes.tolist() == [0, 3, 5]
    assert m.columns.tolist() == [0, 0, 0, 1, 0, 2]
    d = m.predict_dist([1.0, 1.0, 1.0])
    assert d[[0, 1, 2, 4]].tolist() == [d[0]] * 4 and d[0] > max(d[3], d[5])
    assert m.predict([1.0, 1.0, 1.0]) == 0
    assert m.predict_many(np.ones((2, 3))).tolist() == [0, 0]


def test_nb_class_axis_is_sized_by_the_classes_seen():
    """A fit of 200 rows over 5 of 200,000 declared classes and one
    categorical feature of 50 codes, and a prediction of 10 rows, stay
    below 10 MB in this process (5.2 MB measured): a dense (50 codes x
    200,000 classes) float64 table alone would be 80 MB.  The class counts
    and the class map are 1.6 MB each."""
    rng = np.random.default_rng(0)
    X = rng.integers(0, 50, (200, 1)).astype(float)
    y = rng.integers(0, 5, 200)
    tracemalloc.start()
    try:
        m = nb_train(X, y, 200_000, (Feature.categorical(50, "c"),))
        pred = m.predict_many(X[:10])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak
    assert m.classes.tolist() == list(range(6)) and pred.max() < 5


def test_nb_gaussian_tables_are_sized_by_the_classes_seen():
    """A fit of 200 rows over 5 of 200,000 declared classes, with 15
    numeric features and one categorical one, and a load of its file stay
    below 16 MB each in this process (6.6 and 9.6 MB measured): (200,000
    classes x 15 features) float64 Gaussian tables, built before the model
    keeps its distinct rows, took 70 and 56 MB.  The O(classes) count
    arrays and the file's class-count list stay."""
    rng = np.random.default_rng(0)
    feats = tuple(Feature.numeric(f"n{j}") for j in range(15)) + (Feature.categorical(4, "c"),)
    X = np.column_stack([rng.normal(size=(200, 15)), rng.integers(0, 4, 200)])
    y = rng.choice(np.array([3, 70, 1000, 150_000, 199_999]), 200)
    tracemalloc.start()
    try:
        m = nb_train(X, y, 200_000, feats)
        trained = tracemalloc.get_traced_memory()[1]
        d = json.loads(json.dumps(m.to_file_dict()))
        tracemalloc.reset_peak()
        loaded = NaiveBayesModel.from_dict(d, feats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trained < 16 * 2**20 and peak < 16 * 2**20, (trained, peak)
    assert m.classes.tolist() == loaded.classes.tolist() == [0, 3, 70, 1000, 150_000, 199_999]
    assert _same_bits(loaded.predict_dist_many(X), m.predict_dist_many(X))
    for k in ("mean", "var"):
        assert _same_bits(getattr(loaded, f"num_{k}")[m.classes], getattr(m, f"num_{k}")[m.classes])


# ---------------------------------------------------------------------------
# decision tree


def test_dt_separable_feature():
    X = np.array([[0.0], [0.0], [1.0], [1.0], [0.0], [1.0]])
    y = np.array([0, 0, 1, 1, 0, 1])
    m = dt_train(X, y, 2, BIN)
    assert [m.predict(row) for row in X] == y.tolist()


def test_dt_pure_dataset_single_leaf():
    X = np.array([[0.0], [1.0], [0.0]])
    y = np.array([1, 1, 1])
    m = dt_train(X, y, 2, BIN)
    assert tree_root(m).feature is None
    assert m.predict(np.array([0.0])) == 1
    assert m.predict(np.array([1.0])) == 1


def test_dt_xor_structure_learned_through_zero_gain_root():
    # 4 copies of each (f1, f2) combination, label = XOR: both root gains are 0
    feats = (Feature.categorical(2, "f1"), Feature.categorical(2, "f2"))
    rows = [(a, b) for a in (0, 1) for b in (0, 1) for _ in range(4)]
    X = np.array(rows, dtype=float)
    y = np.array([a ^ b for a, b in rows])
    # by hand: p(y=1|f1=0) = p(y=1|f1=1) = 1/2, so gain(f1) = gain(f2) = 0
    m = dt_train(X, y, 2, feats)
    root = tree_root(m)
    assert root.feature == 0  # zero-gain fallback picks the lowest index
    assert root.children is not None
    for a in (0, 1):
        assert root.children[a].feature == 1  # second level splits cleanly
    assert [m.predict(row) for row in X] == y.tolist()


def test_dt_leaf_laplace_distribution():
    X = np.array([[0.0], [0.0], [0.0], [0.0]])
    y = np.array([0, 0, 0, 1])
    m = dt_train(X, y, 2, BIN)
    d = m.predict_dist(np.array([0.0]))
    assert d[0] == pytest.approx(2 / 3, abs=1e-12)  # (3+1)/(4+2)
    assert d[1] == pytest.approx(1 / 3, abs=1e-12)


def test_dt_unseen_classes_read_the_lowest_unseen_column():
    # classes 0, 2 and 5 of 7 seen: the tree keeps columns for them and for
    # class 1, and every other unseen class reads class 1's column
    X = np.array([[0.0], [0.0], [1.0], [1.0], [1.0]])
    y = np.array([0, 2, 5, 5, 2])
    m = dt_train(X, y, 7, BIN)
    assert m.classes.tolist() == [0, 1, 2, 5] and m.columns.tolist() == [0, 1, 2, 1, 1, 3, 1]
    leaf = m.route(X)
    want = np.array([(np.bincount(y[leaf == v], minlength=7) + 1.0) / ((leaf == v).sum() + 7)
                     for v in leaf])
    assert np.array_equal(m.predict_dist_many(X), want)
    assert m.predict_many(X).tolist() == [0, 0, 5, 5, 5]  # a tie of 0 and 2 goes to 0


def test_dt_numeric_threshold_split():
    X = np.array([[0.1], [0.2], [0.8], [0.9], [0.15], [0.85]])
    y = np.array([0, 0, 1, 1, 0, 1])
    m = dt_train(X, y, 2, (Feature.numeric("v"),))
    assert tree_root(m).threshold == pytest.approx(0.5)
    assert m.predict(np.array([0.3])) == 0
    assert m.predict(np.array([0.7])) == 1


def test_dt_every_instance_lands_in_its_counted_leaf():
    rng = np.random.default_rng(21)
    feats = (Feature.numeric("a"), Feature.categorical(3, "b"))
    X = np.column_stack([rng.normal(size=80), rng.integers(0, 3, 80)]).astype(float)
    y = rng.integers(0, 3, 80)
    m = dt_train(X, y, 3, feats)
    leaf = m.route(X)  # the batch kernel
    assert [int(m.route(X[i][None])[0]) for i in range(80)] == leaf.tolist()  # the row walk
    # every training row reaches a leaf, and every leaf is reached
    assert set(leaf.tolist()) == set(np.flatnonzero(m.tree.feature < 0).tolist())
    # routed counts reproduce the stored count tables exactly
    for v in set(leaf.tolist()):
        assert np.bincount(y[leaf == v], minlength=3).tolist() == \
            m.tree.counts[v].take(m.columns).tolist()
    # node v of the arrays is node v of the nested tree, breadth first
    nested = [tree_root(m)]
    for node in nested:
        if node.feature is not None:
            nested += node.children.values() if node.children else [node.left, node.right]
    assert [node.counts for node in nested] == [
        tuple(c) for c in m.tree.counts.take(m.columns, axis=1).tolist()]


def test_dt_unseen_category_falls_back_to_node_counts():
    feats = (Feature.categorical(3, "f"),)
    X = np.array([[0.0], [0.0], [1.0], [1.0], [0.0], [1.0]])
    y = np.array([0, 0, 1, 1, 0, 1])
    m = dt_train(X, y, 2, feats)
    d = m.predict_dist(np.array([2.0]))  # declared, never observed
    assert d[0] == pytest.approx(0.5, abs=1e-12)  # root counts (3,3) smoothed


def test_dt_categorical_used_once_per_path():
    rng = np.random.default_rng(31)
    feats = (Feature.categorical(2, "a"), Feature.categorical(2, "b"))
    X = rng.integers(0, 2, size=(64, 2)).astype(float)
    y = rng.integers(0, 2, 64)
    m = dt_train(X, y, 2, feats, min_leaf=1)

    def walk(node, used):
        if node.feature is None:
            return
        assert node.feature not in used
        children = node.children.values() if node.children else (node.left, node.right)
        for ch in children:
            walk(ch, used | {node.feature})

    walk(tree_root(m), set())


def test_dt_min_leaf_and_depth_caps():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(40, 1))
    y = (X[:, 0] > 0).astype(int)
    shallow = dt_train(X, y, 2, (Feature.numeric("v"),), max_depth=0)
    assert tree_root(shallow).feature is None
    big_leaf = dt_train(X, y, 2, (Feature.numeric("v"),), min_leaf=40)
    assert tree_root(big_leaf).feature is None


def test_dt_rejects_empty():
    with pytest.raises(ValueError):
        dt_train(np.zeros((0, 1)), np.zeros(0, dtype=int), 2, BIN)


# ---------------------------------------------------------------------------
# shared contracts


@pytest.mark.parametrize("kind", ["nb", "dt"])
def test_serialization_roundtrip_bit_exact(kind):
    rng = np.random.default_rng(51)
    feats = (Feature.numeric("a"), Feature.categorical(3, "b"))
    X = np.column_stack([rng.normal(size=50), rng.integers(0, 3, 50)]).astype(float)
    y = rng.integers(0, 3, 50)
    m1 = train_base(kind, X, y, 3, feats)
    m2 = train_base(kind, X, y, 3, feats)
    s1 = json.dumps(m1.to_file_dict(), sort_keys=True)
    s2 = json.dumps(m2.to_file_dict(), sort_keys=True)
    assert s1 == s2  # identical training data -> identical serialized model
    m3 = base_model_from_dict(json.loads(s1), feats, 3)
    assert json.dumps(m3.to_file_dict(), sort_keys=True) == s1
    if kind == "dt":  # the nested description, with every node's counts
        assert json.dumps(m3.to_dict(), sort_keys=True) == json.dumps(m1.to_dict(), sort_keys=True)
    for i in range(10):
        np.testing.assert_array_equal(m1.predict_dist(X[i]), m3.predict_dist(X[i]))


@pytest.mark.parametrize("kind", ["nb", "dt"])
def test_predict_dist_is_valid_distribution(kind):
    rng = np.random.default_rng(61)
    feats = (Feature.numeric("a"), Feature.categorical(4, "b"))
    X = np.column_stack([rng.normal(size=60), rng.integers(0, 4, 60)]).astype(float)
    y = rng.integers(0, 3, 60)
    m = train_base(kind, X, y, 3, feats)
    for _ in range(50):
        x = np.array([rng.normal(), rng.integers(0, 4)], dtype=float)
        d = m.predict_dist(x)
        assert is_distribution(d)
        assert np.all(d > 0)
        assert np.all(d < 1)


# ---------------------------------------------------------------------------
# batch scoring: predict_dist_many row i is predict_dist(X[i]) bit for bit


@st.composite
def scoring_cases(draw, kind):
    """A base model trained on random mixed features plus rows to score.
    The rows may share their numeric features and a leading run of their
    categorical ones, as a chain decoder's batch does (x's own features,
    then per-row labels).  A ``deep`` case trains on labels that alternate
    along the first numeric feature, with every other feature constant,
    which grows a tree of one split node per level."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_num = draw(st.integers(0, 4))
    deep = n_num > 0 and draw(st.booleans())
    cards = draw(st.lists(st.integers(1, 6), min_size=0 if n_num else 1, max_size=12))
    n_classes = draw(st.integers(2, 7))
    N = draw(st.integers(1, 12))
    share = draw(st.booleans())
    share_cat = draw(st.integers(0, len(cards)))
    rng = np.random.default_rng(seed)
    feats = tuple(Feature.numeric(f"n{j}") for j in range(n_num)) + tuple(
        Feature.categorical(c, f"c{j}") for j, c in enumerate(cards))
    scale = 10.0 ** rng.integers(-3, 4)

    def rows(n):
        num = rng.normal(size=(n, n_num)) * scale
        cat = np.column_stack([rng.integers(0, c, n) for c in cards]) if cards else \
            np.zeros((n, 0))
        return np.hstack([num, cat])

    X, y = rows(30), rng.integers(0, n_classes, 30)
    if deep:
        X[:] = 0.0
        X[:, 0], y = np.arange(30) * scale, np.arange(30) % 2
    model = train_base(kind, X, y, n_classes, feats)
    Q = rows(N)
    if share:
        Q[:, :n_num] = Q[0, :n_num]
    Q[:, n_num:n_num + share_cat] = Q[0, n_num:n_num + share_cat]
    return model, Q


@settings(max_examples=150, deadline=None)
@given(scoring_cases("nb"))
def test_nb_predict_dist_many_is_row_wise_predict_dist(case):
    m, Q = case
    many = m.predict_dist_many(Q)
    assert many.shape == (len(Q), m.n_classes)
    scores = m.log_scores_many(Q)
    for i in range(len(Q)):
        assert np.array_equal(many[i], m.predict_dist(Q[i]))
        assert np.array_equal(scores[i], m.log_scores_many(Q[i][None])[0])


def tree_probes(m: DecisionTreeModel, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows made from ``row`` that reach each split node of ``m`` and there
    hold a value equal to its threshold, or each declared code of its
    feature, seen there or not; and for each row the node where it must
    stop (-1 for a row that goes on)."""
    t = m.tree
    splits = np.flatnonzero(t.feature >= 0).tolist()
    way_in = {}  # child: (its parent, a value that leads there)
    for v in splits:
        a = int(t.first[v])
        if np.isnan(t.threshold[v]):
            way_in.update((i, (v, float(t.code[i]))) for i in range(a, a + int(t.n_child[v])))
        else:  # a value at the threshold goes left
            way_in[a] = (v, t.threshold[v])
            way_in[a + 1] = (v, np.nextafter(t.threshold[v], np.inf))
    probes, stops = [], []
    for v in splits:
        x, u, path = row.copy(), v, []
        while u in way_in:
            u, value = way_in[u]
            path.append((u, value))
        for u, value in reversed(path):  # a deeper threshold lies inside the earlier ones
            x[t.feature[u]] = value
        j = int(t.feature[v])
        seen = {int(t.code[i]) for i in range(t.first[v], t.first[v] + t.n_child[v])}
        for value in ([t.threshold[v]] if not np.isnan(t.threshold[v])
                      else range(m.features[j].cardinality)):
            x[j] = value
            probes.append(x.copy())
            stops.append(v if np.isnan(t.threshold[v]) and value not in seen else -1)
    return np.array(probes).reshape(-1, len(row)), np.array(stops, dtype=np.intp)


@settings(max_examples=100, deadline=None)
@given(scoring_cases("dt"))
def test_dt_predict_dist_many_is_row_wise_predict_dist(case):
    m, Q = case
    probes, stops = tree_probes(m, Q[0])
    Q = np.vstack([Q, probes])
    routed = []
    for walk_rows in KERNELS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(base, "WALK_ROWS", walk_rows)
            many = m.predict_dist_many(Q)
            assert many.shape == (len(Q), m.n_classes)
            for i in range(len(Q)):
                assert np.array_equal(many[i], m.predict_dist(Q[i]))
            routed.append(m.route(Q))
        assert np.array_equal(many, m.dist[routed[-1]].take(m.columns, axis=1))
        stopped = routed[-1][len(Q) - len(stops):]
        assert np.array_equal(stopped[stops >= 0], stops[stops >= 0])  # an unseen code stops
    assert np.array_equal(*routed)


def test_a_tree_of_a_billion_classes_loads_and_predicts_in_under_a_megabyte():
    """A hand-written tree file of 10**9 declared classes, four of them in
    its count cells: loading it, predicting and writing it back hold the
    seen classes and the lowest unseen one only, below 1 MB in this
    process.  A node's argmax still goes to the lowest tied class, and a
    code no split has seen stops at the root."""
    C, big = 10**9, 123_456_789
    feats = (Feature.numeric("a"), Feature.categorical(3, "b"))
    d = {"kind": "decision-tree", "feature": [1, 0, -1, -1, -1],
         "threshold": [None, 0.5, None, None, None], "n_child": [2, 2, 0, 0, 0],
         "code": [-1, 0, 2, -1, -1],
         "count_cells": [[2, 7, 2], [2, C - 1, 2], [3, 0, 2], [3, 7, 1], [4, big, 5]]}
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [0.0, 1.0]])
    # once untraced: a first np.unique call imports numpy.ma, about 1 MB
    base_model_from_dict(d, feats, C).predict_many(X)
    tracemalloc.start()
    try:
        m = base_model_from_dict(d, feats, C)
        pred = m.predict_many(X)
        written = m.to_file_dict()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert m.classes.tolist() == [0, 1, 7, big, C - 1]
    assert pred.tolist() == [0, big, 7, big]
    assert written == d


def test_dt_routing_is_sized_by_the_tree_not_the_cardinality():
    # codes far apart on huge features, a threshold on a categorical
    # feature and a categorical split without children: each kernel stops
    # every row where a walk over the nested tree does, and the routing
    # keys are one per child
    feats = (Feature.numeric("a"), Feature.categorical(2**53, "b"),
             Feature.categorical(10**12, "c"))
    leaf = iter(range(1, 100))

    def node(**split):
        return DTNode(counts=(next(leaf), 2, 3), **split)
    top = 2**53 - 1
    root = node(feature=1, children={
        top: node(feature=2, threshold=7.5, left=node(), right=node()),
        0: node(feature=2, children={10**12 - 1: node(), 4: node(feature=0, threshold=0.0,
                                                                 left=node(), right=node())}),
        3: node(feature=2, children={})})
    m = tree_model(feats, 3, root)
    assert len(m._keys) == 10  # nine children, then the end
    Q = np.array([(a, b, c) for a in (-1.0, 0.0, 1.0) for b in (top, 0, 3, 1, top - 1)
                  for c in (0, 4, 7, 8, 10**12 - 1, 10**12 - 2)], dtype=np.float64)

    def stop(x):
        v = root
        while v.feature is not None:
            if v.children is None:
                v = v.left if x[v.feature] <= v.threshold else v.right
            elif x[v.feature] in v.children:
                v = v.children[x[v.feature]]
            else:
                break
        return (np.array(v.counts) + 1.0) / (sum(v.counts) + 3)
    want = np.array([stop(x.tolist()) for x in Q])
    owner = np.arange(len(Q))[::-1]
    for walk_rows in KERNELS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(base, "WALK_ROWS", walk_rows)
            assert np.array_equal(m.predict_dist_many(Q), want)
            codes = Q[owner, 1:].astype(np.int64)
            assert np.array_equal(m.predict_dist_many(Q[:, :1], owner, codes), want[owner])
    # a fit on two codes far apart keeps two keys, not a slot per code
    X = np.array([[0.0], [1999999.0]] * 3)
    m = dt_train(X, np.array([0, 1] * 3), 2, (Feature.categorical(2 * 10**6, "b"),))
    assert sorted(tree_root(m).children) == [0, 1999999] and len(m._keys) == 3
    for walk_rows in KERNELS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(base, "WALK_ROWS", walk_rows)
            assert m.route(np.array([[0.0], [1999999.0], [5.0]] * 20)).tolist() == [1, 2, 0] * 20


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["nb", "dt"]).flatmap(scoring_cases))
def test_codes_told_apart_is_one_code_map_and_other_codes_score_alike(case):
    """Both learners read ``BaseModel``'s ``codes_told_apart``: naive Bayes'
    codes with a count cell and a tree's codes of the children of its
    splits on the feature.  Rows that differ only in a feature's other
    codes get the same distributions, bit for bit, in both tree kernels."""
    m, Q = case
    assert "codes_told_apart" not in vars(type(m))
    for f, j in enumerate(m.cat_positions.tolist()):
        told = m.codes_told_apart(j)
        if isinstance(m, NaiveBayesModel):
            rows = m.cat_cells[:, 1] - m.cat_offsets[f]
            want = rows[(rows >= 0) & (rows < m.cat_cards[f])]
        else:
            t = m.tree
            want = [t.code[k] for v in np.flatnonzero((t.feature == j) & np.isnan(t.threshold))
                    for k in range(t.first[v], t.first[v] + t.n_child[v])]
        assert told.dtype == np.int64 and told.tolist() == np.unique(want).tolist()
        others = np.setdiff1d(np.arange(m.cat_cards[f]), told)
        if len(others) > 1:
            A, B = Q.copy(), Q.copy()
            A[:, j], B[:, j] = others[0], others[-1]
            for walk_rows in KERNELS:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(base, "WALK_ROWS", walk_rows)
                    assert np.array_equal(m.predict_dist_many(A), m.predict_dist_many(B))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["nb", "dt"]).flatmap(scoring_cases))
def test_predict_many_is_row_wise_predict(case):
    m, Q = case
    many = m.predict_many(Q)
    assert many.shape == (len(Q),)
    assert np.array_equal(many, m.predict_dist_many(Q).argmax(axis=1))
    for i in range(len(Q)):
        assert type(m.predict(Q[i])) is int and m.predict(Q[i]) == many[i]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["nb", "dt"]).flatmap(scoring_cases), st.integers(0, 2**32 - 1),
       st.data())
def test_factored_rows_score_as_the_concatenated_rows(case, seed, data):
    # a chain decoder's batch: x rows, an owner x row per scored row, and
    # codes that fill the trailing categorical features
    m, Q = case
    kinds = [f.kind for f in m.features]
    tail = len(kinds) - max((j + 1 for j, k in enumerate(kinds) if k == "numeric"), default=0)
    k = data.draw(st.integers(0, tail))
    rng = np.random.default_rng(seed)
    if isinstance(m, DecisionTreeModel):  # rows at every threshold and unseen code
        Q = np.vstack([Q, tree_probes(m, Q[0])[0]])
    N = int(rng.integers(0, 3 * len(Q) + 1))
    owner = rng.integers(0, len(Q), N)
    codes = np.zeros((N, k), dtype=np.int64)
    for j, f in enumerate(m.features[len(kinds) - k:]):
        codes[:, j] = rng.integers(0, f.cardinality, N)
    X = Q[:, :len(kinds) - k]
    rows = np.concatenate([X[owner], codes], axis=1)
    for walk_rows in KERNELS if isinstance(m, DecisionTreeModel) else KERNELS[:1]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(base, "WALK_ROWS", walk_rows)
            got = m.predict_dist_many(X, owner, codes)
            assert np.array_equal(got, m.predict_dist_many(rows))
            assert np.array_equal(m.predict_dist_many(X[owner], None, codes), got)
            if isinstance(m, NaiveBayesModel):
                scores = m.log_scores_many(X, owner, codes)
                assert np.array_equal(scores, m.log_scores_many(rows))
                assert np.array_equal(m.log_scores_many(X[owner], None, codes), scores)
            for i in range(N):
                assert np.array_equal(got[i], m.predict_dist(rows[i]))


# ---------------------------------------------------------------------------
# transition grids: a first-order chain step's rows (x, l) for every code l


def grid_rows(m, Q, L: int) -> np.ndarray:
    """(n, L, C) distributions of the rows ``Q[i]`` followed by each code
    l < L, scored in factored form."""
    n = len(Q)
    return m.predict_dist_many(Q, np.repeat(np.arange(n), L),
                               np.tile(np.arange(L), n)[:, None]).reshape(n, L, m.n_classes)


@st.composite
def grid_cases(draw):
    """A base model of a first-order chain step, whose x features are mixed,
    numeric only or categorical only and whose last feature is the previous
    step's code, with one class or several, some possibly unseen; and x rows
    of its training rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["nb", "dt"]))
    x_kinds = draw(st.sampled_from(["mixed", "numeric", "categorical"]))
    n_num = 0 if x_kinds == "categorical" else draw(st.integers(1, 3))
    cards = [] if x_kinds == "numeric" else draw(st.lists(st.integers(1, 5), min_size=1,
                                                          max_size=4))
    L = draw(st.integers(1, 6))
    n_classes = draw(st.integers(1, 6))
    N = draw(st.integers(1, 40))
    feats = tuple(Feature.numeric(f"n{j}") for j in range(n_num)) + tuple(
        Feature.categorical(c, f"c{j}") for j, c in enumerate(cards + [L]))
    X = np.column_stack([rng.normal(size=N) * 3 for _ in range(n_num)]
                        + [rng.integers(0, c, N) for c in cards + [L]]).astype(float)
    y = rng.integers(0, draw(st.integers(1, n_classes)), N)
    Q = X[rng.integers(0, N, draw(st.integers(0, 8))), :-1]
    return train_base(kind, X, y, n_classes, feats), Q, L


@settings(max_examples=200, deadline=None)
@given(grid_cases())
def test_log_dist_grid_is_the_log_of_the_factored_rows(case):
    # naive Bayes in closed form, within the stated tolerance; the tree bit
    # for bit.  A row's grid does not depend on the other rows of its batch.
    m, Q, L = case
    got = m.log_dist_grid(Q, L)
    assert got.shape == (len(Q), L, m.n_classes)
    want = np.log(grid_rows(m, Q, L))
    if isinstance(m, DecisionTreeModel):
        assert np.array_equal(got, want)
    else:
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert np.all((got >= LOG_PROB_FLOOR) & (got <= 0.0))
    for i in range(len(Q)):
        assert np.array_equal(m.log_dist_grid(Q[i:i + 1], L)[0], got[i])


@pytest.mark.parametrize("counts,card", [
    ([2**53 - 5, 5, 0], 2**12), ([2**53, 0, 0], 2**12), ([2**53 - 1, 1, 0], 2), ([1, 0, 0], 2**12)])
def test_nb_code_rows_keep_every_normalizer_sum_clear_of_underflow(counts, card):
    """Naive Bayes' code rows lie in [-log(2**54), 0], so each normalizer sum
    of ``log_normalized_sums`` is at least e**-37.5 wherever x's scores
    peak, even with class counts near 2**53; the bound's other extreme, a
    cardinality near 2**53, is checked on the constructor's formula."""
    feats = (Feature.numeric("a"), Feature.categorical(card, "y0"))
    cells = [[c, c % card, n] for c, n in enumerate(counts) if n]
    K = np.count_nonzero(counts) + 1
    m = NaiveBayesModel.from_dict({
        "kind": "naive-bayes", "class_counts": counts, "cat_cells": cells,
        # one row per distinct class: the seen ones, here a prefix, then the lowest unseen one
        "num_mean": [[-1e3 * (c + 1) if counts[c] else 0.0] for c in range(K)],
        "num_var": [[1.0]] * K}, feats)
    B = m.cat_log_rows
    bound = -math.log(2.0**54)
    assert B.max() <= 0.0 and B.min() >= bound
    assert math.log(1.0 / (2.0**53 + 2.0**53)) >= bound  # count and cardinality at 2**53
    # x rows near each class's mean: the scores peak at every class in turn
    X = np.array([[-1e3], [-2e3], [-3e3], [0.0]])
    A = m.log_scores_checked(m._checked(X, None, np.arange(card)[:, None])[0])
    a, b = A.max(axis=1, keepdims=True), B.max(axis=1, keepdims=True)
    sums = np.exp(A - a) @ np.exp(B - b).T
    assert sums.min() >= math.exp(bound)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = m.log_dist_grid(X, card)
    scores = A[:, None, :] + B
    top = scores.max(axis=2, keepdims=True)
    want = scores - (top + np.log(np.exp(scores - top).sum(axis=2, keepdims=True)))
    assert np.allclose(grid, np.clip(want, LOG_PROB_FLOOR, 0.0), rtol=0, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 40]), st.sampled_from([1, 3, 7]))
def test_log_normalized_sums_at_distinct_columns_are_the_full_width_columns(seed, C, L):
    """Columns of equal A and B columns, one per distinct class: the
    (n, L, K) result at them, gathered back through the class map, is the
    full-width result bit for bit, K = 1 and K = C included."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 2, C) * rng.integers(1, 5, C)
    m = base.BaseModel((), C, np.flatnonzero(counts))
    classes, columns = m.classes, m.columns
    K, n = len(classes), int(rng.integers(1, 5))
    A, B = rng.normal(size=(n, K)) * 10.0, rng.normal(size=(L, K)) * 3.0
    A, B = A[:, columns], B[:, columns]
    got = log_normalized_sums(A, None, grid_terms(B, classes))
    assert got.shape == (n, L, K)
    assert _same_bits(np.ascontiguousarray(got.take(columns, axis=2)),
                      np.ascontiguousarray(log_normalized_sums(A, B)))


@settings(max_examples=200, deadline=None)
@given(nb_kernel_cases(), st.booleans())
def test_nb_transition_tensor_at_distinct_classes_gathers_to_log_dist_grid(case, none_seen):
    """A naive-Bayes step's transition tensor covers its distinct classes;
    gathered through its column map (None when every class is distinct),
    it is the full-width grid of every class's scores bit for bit, and
    ``log_dist_grid``.  ``none_seen`` loads the model's features with no
    class seen: one column."""
    X, y, C, feats, Q, _, L = case
    m = nb_train(X, y, C, feats)
    if none_seen:
        Dn = len(m.num_positions)
        m = NaiveBayesModel.from_dict({**m.to_file_dict(), "class_counts": [0] * C,
                                       "cat_cells": [], "num_mean": [[0.5] * Dn],
                                       "num_var": [[2.0] * Dn]}, feats)
    K, stats = len(m.classes), (feats, m.class_counts, m.cat_cells, m.num_mean, m.num_var)
    x, _, _ = m._checked(Q[:, :-1], None, np.arange(L)[:, None])
    tensor, cols = m.log_dist_grid_checked(x, L)
    assert tensor.shape == (len(Q), L, K) and (cols is None) == (K == C)
    assert K == 1 if none_seen else K == len(np.unique(y)) + (len(np.unique(y)) < C)
    full = log_normalized_sums(reference_nb_log_scores(*stats, Q[:, :-1]),
                               reference_nb_table(*stats[:3])[-feats[-1].cardinality:][:L])
    gathered = np.ascontiguousarray(tensor if cols is None else tensor.take(cols, axis=2))
    assert _same_bits(gathered, np.ascontiguousarray(full))
    assert _same_bits(gathered, np.ascontiguousarray(m.log_dist_grid(Q[:, :-1], L)))


@pytest.mark.parametrize("kind", ["nb", "dt"])
def test_log_dist_grid_raises_the_errors_of_the_factored_rows(kind):
    feats = (Feature.numeric("a"), Feature.categorical(3, "b"), Feature.categorical(2, "y"))
    X = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 1.0], [0.5, 2.0, 0.0]])
    m = train_base(kind, X, np.array([0, 1, 1, 0]), 2, feats)
    huge = math.sqrt(sys.float_info.max)
    cases = [([[0.0, 3.0]], 2), ([[0.0, 0.5]], 2), ([[0.0, -1.0]], 2), ([[np.nan, 1.0]], 2),
             ([[0.0, np.inf]], 2), ([[0.0, 1.0]], 3), ([[0.0, 1.0, 1.0]], 2),
             ([[huge, 1.0]], 2), ([[0.0, 1.0], [-huge, 5.0]], 2)]
    for Q, L in cases:
        Q = np.array(Q)
        try:
            want = grid_rows(m, Q, L)
        except ValueError as e:
            with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                m.log_dist_grid(Q, L)
        else:
            assert np.array_equal(m.log_dist_grid(Q, L), np.log(want))
    # the last feature must be a categorical one
    m = train_base(kind, X[:, ::-1], np.array([0, 1, 1, 0]), 2,
                   (Feature.categorical(2, "y"), Feature.categorical(3, "b"), Feature.numeric("a")))
    with pytest.raises(ValueError, match="codes must be integers of categorical features"):
        m.log_dist_grid(X[:, :2], 2)


def test_nb_log_dist_grid_keeps_the_code_rows_only_once_the_codes_pass():
    feats = (Feature.numeric("a"), Feature.categorical(3, "b"), Feature.categorical(2, "y"))
    X = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 1.0], [0.5, 2.0, 0.0]])
    m = nb_train(X, np.array([0, 1, 1, 0]), 2, feats)
    for _ in range(2):  # a code beyond the cardinality fails every time
        with pytest.raises(ValueError, match="code"):
            m.log_dist_grid(X[:2, :2], 3)
    first = m.log_dist_grid(X[:, :2], 2)
    again = [m.log_dist_grid(X[i:i + 1, :2], 2)[0] for i in range(len(X))]
    fresh = nb_train(X, np.array([0, 1, 1, 0]), 2, feats).log_dist_grid(X[:, :2], 2)
    assert np.array_equal(first, fresh) and np.array_equal(np.stack(again), fresh)


def test_nb_factored_codes_are_checked():
    feats = (Feature.numeric("a"), Feature.categorical(2, "b"), Feature.categorical(3, "c"))
    X = np.array([[0.0, 0.0, 2.0], [1.0, 1.0, 0.0]])
    m = nb_train(X, [0, 1], 2, feats)
    x, owner = X[:, :2], np.array([0, 1, 1])
    with pytest.raises(ValueError, match="feature 2: code 3.0 outside declared cardinality 3"):
        m.log_scores_many(x, owner, np.array([[0], [3], [1]]))
    with pytest.raises(ValueError, match="feature 2: code -1.0 outside"):
        m.log_scores_many(x, owner, np.array([[0], [1], [-1]]))
    with pytest.raises(ValueError, match="codes must be integers of categorical features"):
        m.log_scores_many(x, owner, np.array([[0.0], [1.0], [1.0]]))
    with pytest.raises(ValueError, match="codes must be integers of categorical features"):
        m.log_scores_many(X[:, :0], None, np.array([[0, 1, 1]]))  # a numeric code
    with pytest.raises(ValueError, match="feature 1: code 0.5 outside"):
        m.log_scores_many(np.array([[0.0, 0.5]]), owner[:1], np.array([[0]]))


def test_feature_check_sums_squares_in_chunks(monkeypatch):
    # each np.vdot call stays below OpenBLAS's threading cutoff
    sizes = []
    vdot = base._vdot
    monkeypatch.setattr(base, "_vdot", lambda a, b: sizes.append(a.size) or vdot(a, b))
    x = np.arange(30.0)
    assert base._checked_features(x, 30, 1)[1] == float(x @ x)
    assert sizes == [30]
    sizes.clear()
    X = np.random.default_rng(3).normal(size=(745, 25))
    _, sum_sq = base._checked_features(X, 25, 2)
    assert sizes == [base.VDOT_VALUES] * 2 + [745 * 25 - 2 * base.VDOT_VALUES]
    assert sum_sq == pytest.approx(float(np.square(X).sum()), rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X[-1, -1] = np.nan
        with pytest.raises(ValueError, match="feature 24: value nan is not finite"):
            base._checked_features(X, 25, 2)
        X[-1, -1] = 0.0
        X[0, 0] = X[-1, 0] = 1e154  # finite squares in two chunks, whose sum overflows
        assert base._checked_features(X, 25, 2)[1] == math.inf


def test_dt_stored_leaf_distribution_is_never_handed_out():
    rng = np.random.default_rng(81)
    feats = (Feature.numeric("a"), Feature.categorical(3, "b"))
    X = np.column_stack([rng.normal(size=40), rng.integers(0, 3, 40)]).astype(float)
    m = dt_train(X, rng.integers(0, 3, 40), 3, feats)
    before = json.dumps(m.to_dict(), sort_keys=True)
    want = m.predict_dist(X[0])
    for walk_rows in KERNELS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(base, "WALK_ROWS", walk_rows)
            m.predict_dist(X[0])[:] = 0.0
            m.predict_dist_many(X[:2])[:] = 0.0
            m.predict_dist_many(X, np.zeros(3, dtype=np.intp))[:] = 0.0
            assert np.array_equal(m.predict_dist(X[0]), want)
    assert want.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        m.dist[m.route(X[:1])[0], 0] = 0.0  # the stored array is read-only
    assert json.dumps(m.to_dict(), sort_keys=True) == before


@pytest.mark.parametrize("kind", ["nb", "dt"])
def test_training_input_checks(kind):
    feats = (Feature.numeric("a"), Feature.categorical(2, "b"))
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 1.0]])
    y = np.array([0, 1, 1])
    train_base(kind, X, y, 2, feats)
    bad_x = X.copy()
    bad_x[1, 0] = np.nan
    with pytest.raises(ValueError, match="feature 0: value nan is not finite"):
        train_base(kind, bad_x, y, 2, feats)
    with pytest.raises(ValueError, match="labels outside 0..n_classes-1"):
        train_base(kind, X, np.array([0, 5, 1]), 2, feats)
    with pytest.raises(ValueError, match="labels outside 0..n_classes-1"):
        train_base(kind, X, np.array([0, -1, 1]), 2, feats)
    with pytest.raises(ValueError, match="N labels"):
        train_base(kind, X, y[:2], 2, feats)
    with pytest.raises(ValueError, match="arity"):
        train_base(kind, X[:, :1], y, 2, feats)
    for bad in (5.0, 1e300, 2.5, -1.0):  # a cast warning would fail the test too
        with pytest.raises(ValueError, match="feature 1: training codes outside declared "
                                             "cardinality 2"):
            train_base(kind, np.column_stack([X[:, 0], [0.0, bad, 1.0]]), y, 2, feats)


@pytest.mark.parametrize("bad", [7.0, 2.5, -1.0, 1e300])
def test_dt_prediction_checks_codes_its_path_does_not_test(bad):
    feats = (Feature.numeric("a"), Feature.categorical(3, "b"))
    X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    m = dt_train(X, np.array([0, 0, 1, 1]), 2, feats)
    root = tree_root(m)
    assert root.feature == 0 and root.left.feature is None
    message = re.escape(f"feature 1: code {bad!r} outside declared cardinality 3")
    batch = np.array([[0.5, 1.0], [0.5, bad], [0.5, 2.0], [3.0, bad]])
    owner = np.array([0, 0, 1, 0])
    for walk_rows in KERNELS:  # each kernel reports the first bad row
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(base, "WALK_ROWS", walk_rows)
            with pytest.raises(ValueError, match=message):
                m.predict_dist_many(batch)
            with pytest.raises(ValueError, match=message):
                m.predict_dist_many(batch[1:3], owner)  # x rows are checked in factored form
            if bad.is_integer() and abs(bad) < 100:  # a parent code out of range
                codes = np.array([[1], [2], [int(bad)], [int(bad)]])
                with pytest.raises(ValueError, match=message):
                    m.predict_dist_many(batch[:1, :1], owner * 0, codes)


@pytest.mark.parametrize("kind", ["nb", "dt"])
def test_predict_dist_many_of_no_rows(kind):
    feats = (Feature.numeric("a"), Feature.categorical(2, "b"))
    m = train_base(kind, np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]), 2, feats)
    assert m.predict_dist_many(np.zeros((0, 2))).shape == (0, 2)
    with pytest.raises(ValueError, match="arity"):
        m.predict_dist_many(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="arity"):
        m.predict_dist(np.zeros((1, 2)))  # a matrix is not one row


@pytest.mark.parametrize("kind", ["nb", "dt"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(kind, bad):
    feats = (Feature.numeric("a"), Feature.categorical(3, "b"))
    rng = np.random.default_rng(71)
    X = np.column_stack([rng.normal(size=40), rng.integers(0, 3, 40)]).astype(float)
    m = train_base(kind, X, rng.integers(0, 2, 40), 2, feats)
    for j in range(2):
        x = np.array([0.5, 1.0])
        x[j] = bad
        with pytest.raises(ValueError, match=f"feature {j}: value .* is not finite"):
            m.predict_dist(x)
        batch = np.tile([0.5, 1.0], (4, 1))
        batch[2, j] = bad
        with pytest.raises(ValueError, match=f"feature {j}: value .* is not finite"):
            m.predict_dist_many(batch)


# ---------------------------------------------------------------------------
# the presorted fit grows the reference fit's trees


@st.composite
def tie_heavy_fits(draw):
    """(X, y, n_classes, features, min_leaf, max_depth) whose splits tie often:
    small-integer numeric columns, duplicated and mirrored columns, a few
    classes present out of up to 40, and categorical columns mixed in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 60))
    n_classes = draw(st.integers(1, 40))
    present = rng.choice(n_classes, size=draw(st.integers(1, min(6, n_classes))),
                         replace=False)
    y = rng.choice(present, size=n)
    cols, feats = [], []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["int", "label", "real", "cat", "copy", "mirror"]))
        if kind in ("copy", "mirror") and not cols:
            kind = "cat"
        if kind in ("copy", "mirror"):
            i = int(rng.integers(len(cols)))
            col, feat = cols[i], feats[i]
            if kind == "mirror":
                col = (feat.cardinality - 1 - col) if feat.kind == "categorical" else -col
        elif kind == "cat":
            card = int(rng.integers(2, 6))
            col, feat = rng.integers(0, card, n).astype(float), Feature.categorical(card)
        elif kind == "label":  # tied values that carry class information
            col, feat = (y % 3 + rng.integers(0, 2, n)).astype(float), Feature.numeric()
        elif kind == "real":
            col, feat = rng.normal(size=n).round(1), Feature.numeric()
        else:
            col, feat = rng.integers(0, int(rng.integers(1, 5)), n).astype(float), \
                Feature.numeric()
        cols.append(col)
        feats.append(feat)
    min_leaf = draw(st.integers(1, 3))
    max_depth = draw(st.none() | st.integers(0, 3))
    return np.column_stack(cols), y, n_classes, tuple(feats), min_leaf, max_depth


@pytest.mark.parametrize("cells", [None, 1])
@settings(max_examples=200, deadline=None)
@given(tie_heavy_fits())
def test_dt_train_grows_the_reference_tree(cells, fit):
    X, y, n_classes, feats, min_leaf, max_depth = fit
    with pytest.MonkeyPatch.context() as mp:
        if cells is not None:  # every split search pass holds one count
            mp.setattr(base, "SPLIT_CELLS", cells)
        got = dt_train(X, y, n_classes, feats, min_leaf=min_leaf, max_depth=max_depth)
    want = reference_dt_train(X, y, n_classes, feats, min_leaf=min_leaf, max_depth=max_depth)
    assert got.to_dict() == want.to_dict()


@st.composite
def wide_level_fits(draw):
    """(X, y, n_classes, features) that grow deep trees of wide levels, where
    one depth holds nodes of hundreds of rows beside nodes of a few: 100-400
    rows, up to 30 classes present out of up to 100, numeric and categorical
    columns mixed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(100, 400))
    n_classes = draw(st.integers(2, 100))
    present = rng.choice(n_classes, size=draw(st.integers(2, min(30, n_classes))), replace=False)
    y = rng.choice(present, size=n, p=rng.dirichlet(np.ones(len(present))))
    cols, feats = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["real", "int", "label", "cat"]))
        if kind == "cat":
            card = int(rng.integers(2, 12))
            cols.append(rng.integers(0, card, n).astype(float))
            feats.append(Feature.categorical(card))
            continue
        if kind == "real":
            cols.append(rng.normal(size=n).round(2))
        elif kind == "int":
            cols.append(rng.integers(0, int(rng.integers(2, 30)), n).astype(float))
        else:  # ties that carry class information
            cols.append((y % 7 + rng.integers(0, 3, n)).astype(float))
        feats.append(Feature.numeric())
    return np.column_stack(cols), y, n_classes, tuple(feats)


@pytest.mark.parametrize("cells", [None, 1, 64])
@settings(max_examples=40, deadline=None)
@given(wide_level_fits())
def test_dt_train_grows_the_reference_tree_across_wide_levels(cells, fit):
    X, y, n_classes, feats = fit
    with pytest.MonkeyPatch.context() as mp:
        if cells is not None:  # re-score passes that end inside a node and across nodes
            mp.setattr(base, "SPLIT_CELLS", cells)
        got = dt_train(X, y, n_classes, feats)
    assert got.to_dict() == reference_dt_train(X, y, n_classes, feats).to_dict()


def test_dt_train_grows_the_reference_tree_of_one_node_per_level():
    # alternating labels along one column: each depth holds one node to split
    X = np.arange(300, dtype=float)[:, None]
    y = np.arange(300) % 2
    got = dt_train(X, y, 2, (Feature.numeric("a"),))
    assert got.to_dict() == reference_dt_train(X, y, 2, (Feature.numeric("a"),)).to_dict()
    depth, node = 0, tree_root(got)
    while node.feature is not None:
        depth, node = depth + 1, max(node.left, node.right, key=lambda c: sum(c.counts))
    assert depth > 100


def test_dt_train_grows_the_reference_tree_on_traveller_windows():
    d = materialize_dataset(DatasetSpec("w", "synth-traveller", tau=3,
                                        generator={"n_nodes": 40, "n_steps": 400, "seed": 5}))
    for t in range(d.schema.T):
        got = dt_train(d.X, d.Y[:, t], d.schema.cardinalities[t], d.features)
        want = reference_dt_train(d.X, d.Y[:, t], d.schema.cardinalities[t], d.features)
        assert got.to_dict() == want.to_dict()


def test_dt_nested_description_walks_every_node_of_the_tree():
    """perfbench's traced pass counts a tree's nodes and its split nodes'
    class fill by walking ``to_dict()["root"]`` (``_dt_stats`` in
    ``perfbench/workloads.py``): the walk reaches every node of the arrays,
    and a split node holds its counts."""
    d = materialize_dataset(DatasetSpec("w", "synth-traveller", tau=3,
                                        generator={"n_nodes": 40, "n_steps": 400, "seed": 5}))
    m = dt_train(d.X, d.Y[:, 0], d.schema.cardinalities[0], d.features)
    model_dict = m.to_dict()
    nodes, fills, stack = 0, [], [model_dict["root"]]
    while stack:
        node = stack.pop()
        nodes += 1
        if "feature" in node:
            fills.append(sum(1 for c in node["counts"] if c) / model_dict["n_classes"])
            stack += list(node.get("children", {}).values())
            stack += [node[k] for k in ("left", "right") if k in node]
    split = m.tree.feature >= 0
    assert nodes == len(m.tree.feature) > 1
    assert sorted(fills) == sorted(((m.tree.counts[split] > 0).sum(axis=1) / m.n_classes).tolist())


def test_dt_file_reader_rejects_a_threshold_that_is_not_finite():
    # JSON reads 1e999 as inf
    m = dt_train(np.arange(6.0)[:, None], np.arange(6) // 3, 2, (Feature.numeric("a"),))
    assert m.to_file_dict()["threshold"] == [2.5, None, None]
    d = json.loads(json.dumps(m.to_file_dict()).replace("2.5", "1e999"))
    with pytest.raises(ValueError, match="a tree threshold is inf, not a finite number"):
        base_model_from_dict(d, (Feature.numeric("a"),), 2)


def test_dt_huge_finite_features_raise_no_warning():
    feats = (Feature.numeric("a"), Feature.numeric("b"))
    m = dt_train(np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0]]), [0, 1, 1], 2, feats)
    X = np.array([[1e300, -1e200], [1.7e308, 0.0], [-1e155, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert m.predict_dist_many(X).shape == (3, 2)
        for bad in (np.nan, np.inf, -np.inf):
            Q = X.copy()
            Q[2, 1] = bad
            with pytest.raises(ValueError, match=f"feature 1: value {bad!r} is not finite"):
                m.predict_dist_many(Q)


@pytest.mark.parametrize("lo,hi", [(np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)),
                                   (1e308, 1.5e308), (-1.5e308, -1e308)])
def test_dt_threshold_separates_values_whose_midpoint_leaves_the_gap(lo, hi):
    # (lo + hi) / 2 rounds to hi, or overflows to +-inf, so a split there would
    # send every row to one side
    X = np.array([[lo], [hi], [lo], [hi]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = dt_train(X, [0, 1, 0, 1], 2, (Feature.numeric("v"),))
    root = tree_root(m)
    assert root.threshold == lo
    assert (root.left.counts, root.right.counts) == ((2, 0), (0, 2))
