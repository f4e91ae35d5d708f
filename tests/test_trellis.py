import math

import numpy as np
import pytest

from helpers import random_dataset
from seqlabel.core import Dataset, Feature, LabelSchema
from seqlabel.methods import ct_train, mutual_information
from seqlabel.rng import derive_rng


def test_mi_identical_balanced_binary_columns():
    col = [0, 1, 0, 1, 0, 1, 0, 1]
    assert mutual_information(col, col) == pytest.approx(math.log(2), abs=1e-9)


def test_mi_constant_column_is_zero():
    assert mutual_information([3] * 10, [0, 1] * 5) == 0.0
    assert mutual_information([0, 1, 2, 3], [7, 7, 7, 7]) == 0.0


def test_mi_product_table_is_zero():
    # joint counts form an exact product: 4x4 grid visited once each
    a = [i for i in range(4) for _ in range(4)]
    b = [j for _ in range(4) for j in range(4)]
    assert mutual_information(a, b) == pytest.approx(0.0, abs=1e-9)


def test_mi_nonnegative_on_random_columns():
    rng = derive_rng(0, "mi-nonneg")
    for _ in range(200):
        n = int(rng.integers(1, 40))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 3, size=n)
        assert mutual_information(a, b) >= -1e-12


def test_mi_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        mutual_information([1, 2], [1])
    with pytest.raises(ValueError):
        mutual_information([], [])


def test_mi_equals_entropy_for_copied_column_and_wins_parenthood():
    # 8-instance toy set: position 1 copies position 0, position 2 independent
    rows = []
    y0 = [0, 0, 0, 1, 1, 1, 0, 1]
    y2 = [0, 1, 0, 1, 0, 1, 1, 0]
    for i in range(8):
        rows.append(((float(i),), (y0[i], y0[i], y2[i])))
    d = Dataset(LabelSchema((2, 2, 2)), (Feature.numeric("v"),), rows)
    mi_copy = mutual_information(d.Y[:, 1], d.Y[:, 0])
    # empirical entropy of the column: 4/8 zeros, 4/8 ones -> ln 2
    assert mi_copy == pytest.approx(math.log(2), abs=1e-9)
    m = ct_train(d, "nb", ell=1)
    # position 1 must choose position 0 (the copy) over nothing else; position
    # 2 has both candidates but the copied pair carries no information on it
    assert m.parents[1] == (0,)


def test_ct_parent_structure():
    rng = derive_rng(0, "ct-structure")
    d = random_dataset(rng, n=40, T=5, max_L=2)
    m = ct_train(d, "nb", ell=2)
    assert m.parents[0] == ()
    assert len(m.parents[1]) == 1
    for s in range(2, 5):
        assert len(m.parents[s]) == 2
    for s, pos in enumerate(m.order):
        earlier = set(m.order[:s])
        assert set(m.parents[s]) <= earlier


def test_ct_random_order_is_seeded_permutation():
    rng = derive_rng(0, "ct-order")
    d = random_dataset(rng, n=30, T=4, max_L=2)
    a = ct_train(d, "nb", ell=1, order_strategy="random", seed=5)
    b = ct_train(d, "nb", ell=1, order_strategy="random", seed=5)
    assert a.order == b.order
    assert sorted(a.order) == list(range(4))
    with pytest.raises(ValueError):
        ct_train(d, "nb", ell=1, order_strategy="sideways")


def test_ct_predictions_conform():
    rng = derive_rng(0, "ct-conform")
    d = random_dataset(rng, n=50, T=4, max_L=3)
    m = ct_train(d, "nb", ell=2)
    for _ in range(20):
        x = np.array([rng.normal(), rng.normal(), rng.integers(0, 3)], dtype=float)
        assert d.schema.conforms(m.predict(x))


def test_ct_rejects_bad_density():
    rng = derive_rng(0, "ct-bad")
    d = random_dataset(rng, n=20, T=3)
    with pytest.raises(ValueError):
        ct_train(d, "nb", ell=0)
