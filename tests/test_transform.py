import numpy as np
import pytest

from seqlabel.core import Feature, validate_dataset
from seqlabel.transform import Sequence, window_anchors, window_transform


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
