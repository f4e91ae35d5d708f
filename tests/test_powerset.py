from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_dataset, reference_labelsets
from seqlabel.core import Dataset, Feature, LabelSchema
from seqlabel.methods import chains
from seqlabel.methods.powerset import (_index_labelsets, _labelset_table, lp_train,
                                       rakeld_train, sicl_sizes, sicl_train)
from seqlabel.rng import derive_rng


def probe_inputs(rng, d, n=25):
    out = []
    for _ in range(n):
        row = []
        for f in d.features:
            if f.kind == "numeric":
                row.append(float(rng.normal()))
            else:
                row.append(int(rng.integers(0, f.cardinality)))
        out.append(np.asarray(row, dtype=float))
    return out


# ---------------------------------------------------------------------------
# label powerset


def test_lp_closed_world():
    rng = derive_rng(0, "lp-closed")
    d = random_dataset(rng, n=40, T=3, max_L=3)
    m = lp_train(d, "nb")
    observed = {tuple(y) for _, y in d.instances}
    for x in probe_inputs(rng, d):
        assert m.predict(x) in observed


def test_lp_two_separable_vectors_with_dt():
    feats = (Feature.categorical(2, "f"),)
    rows = [((0,), (0, 1, 0))] * 10 + [((1,), (1, 0, 1))] * 10
    d = Dataset(LabelSchema((2, 2, 2)), feats, rows)
    m = lp_train(d, "dt")
    for x, y in rows:
        assert m.predict(np.asarray(x, dtype=float)) == y


def test_lp_ordering_frequency_then_first_occurrence():
    feats = (Feature.numeric("v"),)
    rows = [
        ((0.0,), (0, 1)),
        ((0.1,), (1, 0)),
        ((0.2,), (1, 0)),
        ((0.3,), (1, 1)),
        ((0.4,), (0, 1)),
    ]
    d = Dataset(LabelSchema((2, 2)), feats, rows)
    m = lp_train(d, "nb")
    # (0,1) and (1,0) both occur twice; (0,1) appeared first
    assert m.tables[0].labelsets == ((0, 1), (1, 0), (1, 1))
    assert m.tables[0].support_counts == (2, 2, 1)


def test_lp_prune_to_most_frequent():
    feats = (Feature.numeric("v"),)
    rows = [
        ((0.0,), (1, 1)),
        ((1.0,), (1, 1)),
        ((2.0,), (1, 1)),
        ((3.0,), (0, 0)),
        ((4.0,), (0, 1)),
    ]
    d = Dataset(LabelSchema((2, 2)), feats, rows)
    m = lp_train(d, "nb", prune_n=1)
    assert m.tables[0].labelsets == ((1, 1),)
    rng = derive_rng(0, "lp-prune")
    for x in probe_inputs(rng, d):
        assert m.predict(x) == (1, 1)


def test_lp_prune_reassigns_by_hamming():
    feats = (Feature.numeric("v"),)
    rows = (
        [((float(i),), (0, 0, 0))] * 1 for i in range(0)
    )
    rows = []
    rows += [((0.0,), (0, 0, 0))] * 4
    rows += [((1.0,), (1, 1, 1))] * 3
    rows += [((2.0,), (1, 1, 0))] * 1  # pruned; Hamming 1 from (1,1,1), 2 from (0,0,0)
    d = Dataset(LabelSchema((2, 2, 2)), feats, rows)
    m = lp_train(d, "nb", prune_n=2)
    assert m.tables[0].labelsets == ((0, 0, 0), (1, 1, 1))
    # the pruned instance must train the (1,1,1) meta-class: with NB counting
    # the class prior of (1,1,1) sees 4 instances, not 3
    priors = np.exp(m.models[0].log_priors)
    assert priors[1] == pytest.approx((4 + 1) / (8 + 2), abs=1e-12)


def test_labelset_methods_reject_an_empty_training_set():
    d = Dataset(LabelSchema((2, 2)), (Feature.numeric("a"),), [])
    for train in (lp_train, lambda d, base: rakeld_train(d, base, k=1), sicl_train):
        with pytest.raises(ValueError, match="empty training set"):
            train(d, "nb")


def test_lp_prune_rejects_bad_n():
    rng = derive_rng(0, "lp-bad")
    d = random_dataset(rng, n=10, T=2)
    with pytest.raises(ValueError):
        lp_train(d, "nb", prune_n=0)


def reference_meta(rows, kept):
    """Each row's meta-label as a loop over (rows x kept labelsets) gives it:
    the index of its own labelset if kept, else of the first kept labelset
    with the least Hamming distance."""
    index = {t: i for i, t in enumerate(kept)}
    meta = []
    for t in rows:
        m = index.get(t)
        if m is None:
            best_m, best_d = 0, len(t) + 1
            for j, cand in enumerate(kept):
                dist = sum(a != b for a, b in zip(t, cand))
                if dist < best_d:
                    best_m, best_d = j, dist
            m = best_m
        meta.append(m)
    return meta


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_pruned_rows_go_to_the_first_nearest_kept_labelset(seed, data):
    # few positions of small cardinality: distances tie often
    rng = np.random.default_rng(seed)
    cards = tuple(data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=4)))
    n = data.draw(st.integers(1, 60))
    Y = np.column_stack([rng.integers(0, c, n) for c in cards])
    d = Dataset(LabelSchema(cards), (Feature.numeric("a"),),
                [((float(i),), tuple(y)) for i, y in enumerate(Y.tolist())])
    positions = tuple(data.draw(st.permutations(range(len(cards))))[
        :data.draw(st.integers(1, len(cards)))])
    rows = [tuple(y[p] for p in positions) for y in Y.tolist()]
    prune_n = data.draw(st.integers(1, len(set(rows))))
    block = d.Y[:, list(positions)]
    table = _labelset_table(block, prune_n)
    meta = chains._meta_classes(block, table)
    assert list(table.labelsets) == _index_labelsets(rows)[0][:prune_n]
    assert meta.tolist() == reference_meta(rows, list(table.labelsets))


# ---------------------------------------------------------------------------
# disjoint k-labelsets


def test_rakeld_partition_exact_division():
    rng = derive_rng(0, "rak-6-3")
    d = random_dataset(rng, n=30, T=6, max_L=2)
    m = rakeld_train(d, "nb", k=3, seed=1)
    assert len(m.positions) == 2
    assert all(len(p) == 3 for p in m.positions)
    flat = sorted(p for s in m.positions for p in s)
    assert flat == list(range(6))


def test_rakeld_partition_remainder():
    rng = derive_rng(0, "rak-7-3")
    d = random_dataset(rng, n=30, T=7, max_L=2)
    m = rakeld_train(d, "nb", k=3, seed=1)
    assert sorted(len(p) for p in m.positions) == [1, 3, 3]
    assert len(m.positions[-1]) == 1  # the last chunk takes the remainder


def test_rakeld_sequential_chunks_in_time_order():
    rng = derive_rng(0, "rak-seq")
    d = random_dataset(rng, n=30, T=5, max_L=2)
    m = rakeld_train(d, "nb", k=2, seed=3, sequential=True)
    assert m.positions == ((0, 1), (2, 3), (4,))


def test_rakeld_per_set_closed_world():
    rng = derive_rng(0, "rak-closed")
    d = random_dataset(rng, n=40, T=5, max_L=3)
    m = rakeld_train(d, "nb", k=2, seed=5)
    for x in probe_inputs(rng, d):
        pred = m.predict(x)
        for positions, table in zip(m.positions, m.tables):
            got = tuple(pred[p] for p in positions)
            assert got in table.labelsets


def test_rakeld_k_equals_T_is_label_powerset():
    rng = derive_rng(0, "rak-lp")
    for trial in range(5):
        d = random_dataset(rng, n=30, T=4, max_L=2, name=f"d{trial}")
        mr = rakeld_train(d, "nb", k=4, seed=trial)
        ml = lp_train(d, "nb")
        for x in probe_inputs(rng, d):
            assert mr.predict(x) == ml.predict(x)


def test_rakeld_invalid_k():
    rng = derive_rng(0, "rak-bad")
    d = random_dataset(rng, n=20, T=3)
    for k in (0, 4):
        with pytest.raises(ValueError):
            rakeld_train(d, "nb", k=k, seed=0)


def test_rakeld_deterministic_under_seed():
    rng = derive_rng(0, "rak-det")
    d = random_dataset(rng, n=30, T=6, max_L=2)
    a = rakeld_train(d, "nb", k=2, seed=9)
    b = rakeld_train(d, "nb", k=2, seed=9)
    assert a.positions == b.positions
    c = rakeld_train(d, "nb", k=2, seed=10)
    assert a.positions != c.positions  # extremely unlikely to collide


# ---------------------------------------------------------------------------
# increasingly-sized chained labelsets


def test_sicl_sizes_examples():
    assert sicl_sizes(10, 1) == [1, 2, 3, 4]
    assert sicl_sizes(10, 3) == [3, 6, 1]
    assert sicl_sizes(3, 5) == [3]
    assert sicl_sizes(7, 2) == [2, 4, 1]


def test_sicl_partition_time_ordered_and_covering():
    rng = derive_rng(0, "sicl-part")
    d = random_dataset(rng, n=30, T=7, max_L=2)
    m = sicl_train(d, "nb", alpha=2)
    assert m.positions == ((0, 1), (2, 3, 4, 5), (6,))
    assert m.parents == ((), (0,), (0, 2))  # each step sees every earlier step


def test_sicl_chained_features_feed_forward():
    rng = derive_rng(0, "sicl-chain")
    d = random_dataset(rng, n=40, T=4, max_L=2)
    m = sicl_train(d, "nb", alpha=1)
    # set m's classifier sees the base features plus one meta feature per
    # earlier set
    D = len(d.features)
    for j, clf in enumerate(m.models):
        assert len(clf.features) == D + j
    for x in probe_inputs(rng, d):
        pred = m.predict(x)
        assert d.schema.conforms(pred)
        for positions, table in zip(m.positions, m.tables):
            assert tuple(pred[p] for p in positions) in table.labelsets


def test_sicl_alpha_at_least_T_is_label_powerset():
    rng = derive_rng(0, "sicl-lp")
    for trial in range(5):
        d = random_dataset(rng, n=30, T=3, max_L=3, name=f"d{trial}")
        ms = sicl_train(d, "nb", alpha=3 + trial)
        ml = lp_train(d, "nb")
        for x in probe_inputs(rng, d):
            assert ms.predict(x) == ml.predict(x)


def test_sicl_rejects_alpha_below_one():
    rng = derive_rng(0, "sicl-bad")
    d = random_dataset(rng, n=20, T=3)
    with pytest.raises(ValueError):
        sicl_train(d, "nb", alpha=0)


# ---------------------------------------------------------------------------
# batch decoding: row i of predict_many is predict(X[i]) bit for bit


@st.composite
def subsets_cases(draw):
    """A trained lp (with or without prune), rakeld or sicl model over nb or
    dt, and 0..12 rows to decode, some of them training rows."""
    seed = draw(st.integers(0, 2**32 - 1))
    base = draw(st.sampled_from(["nb", "dt"]))
    kind = draw(st.sampled_from(["lp", "lp-prune", "rakeld", "sicl"]))
    T = draw(st.integers(1, 5))
    N = draw(st.integers(0, 12))
    rng = np.random.default_rng(seed)
    d = random_dataset(rng, n=30, T=T, max_L=3)
    if kind == "lp":
        m = lp_train(d, base)
    elif kind == "lp-prune":
        m = lp_train(d, base, prune_n=draw(st.integers(1, 5)))
    elif kind == "rakeld":
        m = rakeld_train(d, base, k=draw(st.integers(1, T)), seed=seed)
    else:
        m = sicl_train(d, base, alpha=draw(st.integers(1, 3)))
    fresh = np.column_stack([rng.normal(size=(N, 2)), rng.integers(0, 3, N)])
    X = np.where(rng.random((N, 1)) < 0.3, d.X[rng.integers(0, d.n, N)], fresh)
    return m, X


@settings(max_examples=80, deadline=None)
@given(subsets_cases())
def test_subsets_predict_many_is_row_wise_predict(case):
    m, X = case
    many = m.predict_many(X)
    assert many.shape == (len(X), m.schema.T) and many.dtype == np.int64
    for i in range(len(X)):
        one = m.predict(X[i])
        assert all(type(v) is int for v in one)
        assert one == tuple(many[i].tolist())


@settings(max_examples=80, deadline=None)
@given(subsets_cases(), st.sampled_from([chains.CHUNK_CELLS, 1, 40]))
def test_labelset_chain_decodes_as_the_set_by_set_reference(case, cells):
    """Greedy decoding of lp, rakeld and sicl chains equals the set-by-set
    loop row for row, and a batch (in whole-chain chunks, one row per chunk
    or a few rows per chunk) equals its rows decoded one at a time."""
    m, X = case
    with mock.patch.object(chains, "CHUNK_CELLS", cells):
        many = m.predict_many(X)
    assert many.shape == (len(X), m.schema.T) and many.dtype == np.int64
    for i in range(len(X)):
        assert tuple(many[i].tolist()) == reference_labelsets(m, X[i]) == m.predict(X[i])
