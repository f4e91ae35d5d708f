import numpy as np
import pytest

from helpers import random_dataset
from seqlabel.core import Dataset, Feature, LabelSchema
from seqlabel.methods.powerset import (lp_train, rakeld_train, sicl_sizes,
                                       sicl_train)
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
    assert m.sets[0].labelsets == ((0, 1), (1, 0), (1, 1))
    assert m.sets[0].support_counts == (2, 2, 1)


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
    assert m.sets[0].labelsets == ((1, 1),)
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
    assert m.sets[0].labelsets == ((0, 0, 0), (1, 1, 1))
    # the pruned instance must train the (1,1,1) meta-class: with NB counting
    # the class prior of (1,1,1) sees 4 instances, not 3
    priors = np.exp(m.sets[0].classifier.log_priors)
    assert priors[1] == pytest.approx((4 + 1) / (8 + 2), abs=1e-12)


def test_lp_prune_rejects_bad_n():
    rng = derive_rng(0, "lp-bad")
    d = random_dataset(rng, n=10, T=2)
    with pytest.raises(ValueError):
        lp_train(d, "nb", prune_n=0)


# ---------------------------------------------------------------------------
# disjoint k-labelsets


def test_rakeld_partition_exact_division():
    rng = derive_rng(0, "rak-6-3")
    d = random_dataset(rng, n=30, T=6, max_L=2)
    m = rakeld_train(d, "nb", k=3, seed=1)
    assert len(m.partition) == 2
    assert all(len(p) == 3 for p in m.partition)
    flat = sorted(p for s in m.partition for p in s)
    assert flat == list(range(6))


def test_rakeld_partition_remainder():
    rng = derive_rng(0, "rak-7-3")
    d = random_dataset(rng, n=30, T=7, max_L=2)
    m = rakeld_train(d, "nb", k=3, seed=1)
    assert sorted(len(p) for p in m.partition) == [1, 3, 3]
    assert len(m.partition[-1]) == 1  # the last chunk takes the remainder


def test_rakeld_sequential_chunks_in_time_order():
    rng = derive_rng(0, "rak-seq")
    d = random_dataset(rng, n=30, T=5, max_L=2)
    m = rakeld_train(d, "nb", k=2, seed=3, sequential=True)
    assert m.partition == ((0, 1), (2, 3), (4,))


def test_rakeld_per_set_closed_world():
    rng = derive_rng(0, "rak-closed")
    d = random_dataset(rng, n=40, T=5, max_L=3)
    m = rakeld_train(d, "nb", k=2, seed=5)
    for x in probe_inputs(rng, d):
        pred = m.predict(x)
        for sub in m.sets:
            got = tuple(pred[p] for p in sub.positions)
            assert got in sub.labelsets


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
    assert a.partition == b.partition
    c = rakeld_train(d, "nb", k=2, seed=10)
    assert a.partition != c.partition  # extremely unlikely to collide


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
    assert m.partition == ((0, 1), (2, 3, 4, 5), (6,))
    assert m.chained


def test_sicl_chained_features_feed_forward():
    rng = derive_rng(0, "sicl-chain")
    d = random_dataset(rng, n=40, T=4, max_L=2)
    m = sicl_train(d, "nb", alpha=1)
    # set m's classifier sees the base features plus one meta feature per
    # earlier set
    D = len(d.features)
    for j, sub in enumerate(m.sets):
        assert len(sub.classifier.features) == D + j
    for x in probe_inputs(rng, d):
        pred = m.predict(x)
        assert d.schema.conforms(pred)
        for sub in m.sets:
            assert tuple(pred[p] for p in sub.positions) in sub.labelsets


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
