import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import argmax_lowest, is_distribution
from seqlabel.core import Dataset, Feature, LabelSchema, normalize_log_scores, validate_dataset


def make_dataset():
    schema = LabelSchema((2, 3))
    features = (Feature.numeric("a"), Feature.categorical(2, "b"))
    instances = [
        ((0.5, 0), (0, 2)),
        ((1.5, 1), (1, 0)),
        ((-0.25, 1), (0, 1)),
    ]
    return Dataset(schema, features, instances, name="toy")


def test_schema_invariants():
    with pytest.raises(ValueError):
        LabelSchema(())
    with pytest.raises(ValueError):
        LabelSchema((2, 1))
    s = LabelSchema((2, 3, 2))
    assert s.T == 3
    assert s.conforms((1, 2, 0))
    assert not s.conforms((1, 3, 0))
    assert not s.conforms((1, 2))


def test_feature_invariants():
    with pytest.raises(ValueError):
        Feature("categorical")
    with pytest.raises(ValueError):
        Feature("numeric", 3)
    with pytest.raises(ValueError):
        Feature("fancy")
    f = Feature.categorical(4, "c")
    assert Feature.from_dict(f.to_dict()) == f


def test_validate_conforming_dataset():
    assert validate_dataset(make_dataset()) == []


def test_validate_label_at_cardinality_boundary():
    d = make_dataset()
    d.instances.append(((0.0, 0), (0, 3)))  # position 1 has cardinality 3
    violations = validate_dataset(d)
    assert len(violations) == 1
    assert "instance 3" in violations[0] and "position 1" in violations[0]


def test_validate_mixed_feature_arity():
    d = make_dataset()
    d.instances.append(((0.0,), (0, 0)))          # short row
    d.instances.append(((0.0, 1, 2.0), (1, 1)))   # long row
    violations = validate_dataset(d)
    arity = [v for v in violations if "feature arity" in v]
    assert len(arity) == 2
    assert any("instance 3" in v for v in arity)
    assert any("instance 4" in v for v in arity)


def test_validate_categorical_code_range():
    d = make_dataset()
    d.instances.append(((0.0, 2), (0, 0)))  # feature b has cardinality 2
    violations = validate_dataset(d)
    assert len(violations) == 1 and "feature 1" in violations[0]


def _is_code(v, card) -> bool:
    try:
        return float(v) == int(v) and 0 <= int(v) < card
    except (OverflowError, ValueError):  # an integer beyond float64, a NaN or an infinity
        return False


def _violations_cell_by_cell(d) -> list[str]:
    """``validate_dataset``'s rules, one cell at a time."""
    out = []
    for i, (x, y) in enumerate(d.instances):
        if len(x) != d.D:
            out.append(f"instance {i}: feature arity {len(x)} != {d.D}")
        else:
            for j, (v, f) in enumerate(zip(x, d.features)):
                if f.kind == "numeric":
                    try:
                        finite = math.isfinite(float(v))
                    except OverflowError:
                        finite = False
                    if not finite:
                        out.append(f"instance {i}: feature {j} not finite")
                elif not _is_code(v, f.cardinality):
                    out.append(f"instance {i}: feature {j} code {v!r} outside "
                               f"0..{f.cardinality - 1}")
        if len(y) != d.schema.T:
            out.append(f"instance {i}: label arity {len(y)} != {d.schema.T}")
        else:
            for t, (v, c) in enumerate(zip(y, d.schema.cardinalities)):
                if not _is_code(v, c):
                    out.append(f"instance {i}: label position {t} value {v!r} outside 0..{c - 1}")
    return out


values = st.one_of(st.integers(-1, 4), st.sampled_from([0.5, 1.5, 2.0, -0.0]),
                   st.integers(-2**70, 2**70), st.floats(),
                   st.sampled_from([2**53, 2**53 + 1, 2**60 + 1, 10**400]))
big_cards = st.integers(2, 4) | st.sampled_from([2**53, 2**60 + 2, 2**63 - 1])


@st.composite
def rough_datasets(draw):
    """Datasets with rows of the wrong arity and values of every kind."""
    feats = tuple(draw(st.lists(st.builds(Feature.numeric) | st.builds(
        Feature.categorical, st.integers(1, 3) | st.just(2**53)), max_size=3)))
    schema = LabelSchema(tuple(draw(st.lists(big_cards, min_size=1, max_size=3))))
    arity = st.integers(-1, 1) | st.just(0)

    def vector(width):
        return tuple(draw(st.lists(values, min_size=width, max_size=width)))
    rows = [(vector(max(0, len(feats) + draw(arity))), vector(schema.T + draw(arity)))
            for _ in range(draw(st.integers(0, 5)))]
    return Dataset(schema, feats, rows)


@settings(max_examples=300, deadline=None)
@given(rough_datasets(), st.booleans())
def test_validate_reports_what_the_cell_by_cell_rules_report(d, cache):
    if cache:  # the cached arrays must not hide a value: Y holds a label of 1.5 as 1
        for array in ("X", "Y"):
            try:
                getattr(d, array)
            except (ValueError, OverflowError):
                pass
    assert validate_dataset(d) == _violations_cell_by_cell(d)


def test_dataset_arrays_cached_and_frozen():
    d = make_dataset()
    assert d.X.shape == (3, 2)
    assert d.Y.dtype == np.int64
    with pytest.raises(ValueError):
        d.X[0, 0] = 9.0


def test_dataset_labels_must_be_integers():
    schema = LabelSchema((3,))
    d = Dataset(schema, (), [((), (1,)), ((), (1.5,)), ((), (2.0,))])
    for _ in range(2):  # nothing truncated is cached
        with pytest.raises(ValueError, match=r"^instance 1: label value 1\.5 is not an integer$"):
            d.Y
    d = Dataset(schema, (), [((), (np.int64(1),)), ((), (2.0,)), ((), (True,))])
    assert d.Y.tolist() == [[1], [2], [1]]


def test_subset_takes_the_rows_of_cached_arrays():
    d = make_dataset()
    assert d.subset([2, 0])._X is None  # nothing cached: nothing built
    d.X, d.Y
    sub = d.subset(np.array([2, 0]), name="sub")
    assert sub.instances == [d.instances[2], d.instances[0]] and sub.name == "sub"
    for got, rows in ((sub._X, d.X[[2, 0]]), (sub._Y, d.Y[[2, 0]])):
        assert got is not None and got.tobytes() == rows.tobytes() and not got.flags.writeable


def test_is_distribution():
    assert is_distribution(np.array([0.5, 0.5]))
    assert not is_distribution(np.array([0.5, 0.6]))
    assert not is_distribution(np.array([-0.1, 1.1]))


def test_argmax_lowest_breaks_ties_low():
    assert argmax_lowest(np.array([0.4, 0.4, 0.2])) == 0
    assert argmax_lowest(np.array([0.1, 0.6, 0.6])) == 1


def test_normalize_log_scores_is_distribution_and_positive():
    rng = np.random.default_rng(0)
    for _ in range(100):
        scores = rng.normal(size=rng.integers(2, 8)) * rng.uniform(1, 400)
        p = normalize_log_scores(scores)
        assert is_distribution(p)
        assert np.all(p > 0)
