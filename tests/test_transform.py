import numpy as np
import pytest

from seqlabel.core import Feature, validate_dataset
from seqlabel.transform import (NodeMap, Sequence, kmeans_fit_trace, snap_sequence,
                                window_anchors, window_transform)


def seq_identity(T, sid="s"):
    """Emissions carry their own 1-based time index; states do too (0-based),
    so every transformed cell reveals exactly which step it came from."""
    return Sequence(tuple((float(i + 1),) for i in range(T)),
                    tuple(range(T)), id=sid)


def test_window_three_rows_of_worked_example():
    # length 6, tau=2: exactly three instances, cell for cell
    emissions = tuple((10.0 + i,) for i in range(1, 7))  # x1..x6 = 11..16
    states = (0, 1, 0, 1, 1, 0)                          # y1..y6
    d = window_transform([Sequence(emissions, states, id="fig")], tau=2)
    assert d.n == 3
    assert d.schema.cardinalities == (2, 2)
    assert d.instances[0] == ((12.0, 13.0, 0, 1), (0, 1))  # (x2,x3,y1,y2)->[y3,y4]
    assert d.instances[1] == ((13.0, 14.0, 1, 0), (1, 1))  # (x3,x4,y2,y3)->[y4,y5]
    assert d.instances[2] == ((14.0, 15.0, 0, 1), (1, 0))  # (x4,x5,y3,y4)->[y5,y6]
    # past states become trailing categorical features
    assert [f.kind for f in d.features] == ["numeric"] * 2 + ["categorical"] * 2
    assert validate_dataset(d) == []


def test_window_smallest_case():
    # length 3, tau=1: (x2,y1)->[y2], (x3,y2)->[y3]
    emissions = ((1.0,), (2.0,), (3.0,))
    states = (1, 0, 1)
    d = window_transform([Sequence(emissions, states, id="tiny")], tau=1)
    assert d.n == 2
    assert d.instances[0] == ((2.0, 1), (0,))
    assert d.instances[1] == ((3.0, 0), (1,))


def brute_force_anchor_count(T_i, tau, pad):
    """Count anchors by checking every step's index requirements directly."""
    count = 0
    for a in range(T_i):
        history_ok = a - tau >= 0
        future_ok = a + tau - 1 <= T_i - 1 or pad
        if history_ok and future_ok:
            count += 1
    return count


def test_window_instance_count_matches_anchor_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(100):
        tau = int(rng.integers(1, 5))
        T_i = int(rng.integers(max(5, 2 * tau), 41))
        d = window_transform([seq_identity(T_i)], tau=tau)
        assert d.n == T_i - 2 * tau + 1
        assert d.n == brute_force_anchor_count(T_i, tau, pad=False)
        assert len(window_anchors(T_i, tau, False)) == d.n


def test_window_online_constraint_by_provenance():
    # identity-valued cells: every feature must come from before the targets
    for pad in (False, True):
        T_i, tau = 12, 3
        d = window_transform([seq_identity(T_i)], tau=tau, pad=pad,
                             n_states=T_i)
        anchors = list(window_anchors(T_i, tau, pad))
        assert d.n == len(anchors)
        for (x, y), a in zip(d.instances, anchors):
            emis = x[:tau]
            hist = x[tau:]
            assert list(emis) == [float(i + 1) for i in range(a - tau + 1, a + 1)]
            assert list(hist) == list(range(a - tau, a))
            assert max(hist) < a  # no state at or after the anchor leaks in
            expected = [min(i, T_i - 1) for i in range(a, a + tau)]
            assert list(y) == expected


def test_window_padding_repeats_final_state_and_covers_tail():
    T_i, tau = 7, 3
    d = window_transform([seq_identity(T_i)], tau=tau, pad=True, n_states=T_i)
    # anchors run to the final step; targets cover every step with history
    targets = {v for _, y in d.instances for v in y}
    assert targets == set(range(tau, T_i))
    last_y = d.instances[-1][1]
    assert last_y == (T_i - 1, T_i - 1, T_i - 1)


def test_window_rejections_name_the_sequence():
    with pytest.raises(ValueError, match="shorty"):
        window_transform([seq_identity(5, "shorty")], tau=3)  # needs 2*tau = 6
    with pytest.raises(ValueError, match="stub"):
        window_transform([seq_identity(3, "stub")], tau=3, pad=True)  # needs tau+1
    # boundary cases are accepted
    assert window_transform([seq_identity(6)], tau=3).n == 1
    assert window_transform([seq_identity(4)], tau=3, pad=True).n == 1


def test_window_order_and_determinism():
    seqs = [seq_identity(8, "a"), seq_identity(6, "b")]
    d1 = window_transform(seqs, tau=2, n_states=8)
    d2 = window_transform(seqs, tau=2, n_states=8)
    assert d1.instances == d2.instances
    # (sequence, anchor) lexicographic: all of "a" precedes all of "b"
    assert d1.n == (8 - 3) + (6 - 3)


def test_window_categorical_emission_features_pass_through():
    feats = (Feature.numeric("v"), Feature.categorical(3, "c"))
    emissions = tuple((float(i), i % 3) for i in range(6))
    d = window_transform([Sequence(emissions, (0, 1, 0, 1, 0, 1), id="m")],
                         tau=2, features=feats)
    kinds = [f.kind for f in d.features]
    assert kinds == ["numeric", "categorical"] * 2 + ["categorical"] * 2
    assert validate_dataset(d) == []


# ---------------------------------------------------------------------------
# k-means waypoints


def test_kmeans_single_cluster_is_mean():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 2))
    nm = kmeans_fit_trace(pts, k=1, seed=0)[0]
    np.testing.assert_allclose(nm.centroids[0], pts.mean(axis=0), atol=1e-12)


def test_kmeans_exact_repeated_locations():
    locs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0], [-2.0, 3.0]])
    pts = np.repeat(locs, 7, axis=0)
    nm, trace = kmeans_fit_trace(pts, k=5, seed=3)
    found = sorted(nm.centroids)
    expected = sorted(map(tuple, locs))
    for f, e in zip(found, expected):
        assert f == pytest.approx(e, abs=1e-9)
    assert trace[-1] == pytest.approx(0.0, abs=1e-9)


def test_kmeans_inertia_monotone_and_locally_optimal():
    rng = np.random.default_rng(7)
    pts = rng.random((200, 2))
    nm, trace = kmeans_fit_trace(pts, k=5, seed=11)
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-9
    # at convergence every point sits with its nearest centroid, so moving any
    # single point to another cluster (centroids held fixed) cannot help
    cents = np.asarray(nm.centroids)
    d2 = ((pts[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)
    base = d2[np.arange(len(pts)), assign]
    assert np.all(d2 >= base[:, None] - 1e-12)


def test_kmeans_determinism_and_rejection():
    rng = np.random.default_rng(13)
    pts = rng.random((50, 2))
    a = kmeans_fit_trace(pts, k=4, seed=9)[0]
    b = kmeans_fit_trace(pts, k=4, seed=9)[0]
    assert a.centroids == b.centroids
    with pytest.raises(ValueError):
        kmeans_fit_trace(np.zeros((10, 2)), k=2, seed=0)  # only one distinct point


# ---------------------------------------------------------------------------
# snapping


def test_snap_exact_centroid():
    cents = tuple((float(i), float(i)) for i in range(10))
    nm = NodeMap(cents)
    seq = snap_sequence([((7.0, 7.0), (0, 12.5))], nm, id="p")
    assert seq.states == (7,)
    assert seq.emissions[0] == (7.0, 7.0, 0, 12.5)


def test_snap_tie_goes_to_lowest_index():
    cents = ((10.0, 10.0), (-10.0, 10.0), (0.0, 1.0), (10.0, -10.0),
             (-10.0, -10.0), (0.0, -1.0))
    nm = NodeMap(cents)
    seq = snap_sequence([((0.0, 0.0), ())], nm)
    assert seq.states == (2,)  # equidistant to centroids 2 and 5


def test_snap_matches_exhaustive_scan():
    rng = np.random.default_rng(17)
    cents = tuple((float(a), float(b)) for a, b in rng.random((10, 2)))
    nm = NodeMap(cents)
    raw = [((float(a), float(b)), (int(rng.integers(0, 7)),))
           for a, b in rng.random((50, 2))]
    seq = snap_sequence(raw, nm)
    for (point, _), state in zip(raw, seq.states):
        dists = [(point[0] - c[0]) ** 2 + (point[1] - c[1]) ** 2 for c in cents]
        best = min(range(10), key=lambda i: (dists[i], i))
        assert state == best


def test_snap_rejects_non_finite():
    nm = NodeMap(((0.0, 0.0),))
    with pytest.raises(ValueError):
        snap_sequence([((float("nan"), 0.0), ())], nm)
