import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlabel.metrics import (EvalReport, evaluate, evaluate_pairs, hamming_loss, levenshtein,
                              levenshtein_norm, per_horizon_error, row_distances,
                              zero_one_loss)


def memoized_levenshtein(y, yhat):
    """Direct recursive definition with a memo: base case max(i, j) when one
    prefix is empty, else min over delete/insert/substitute."""
    memo = {}

    def rec(i, j):
        if min(i, j) == 0:
            return max(i, j)
        if (i, j) not in memo:
            memo[(i, j)] = min(
                rec(i - 1, j) + 1,
                rec(i, j - 1) + 1,
                rec(i - 1, j - 1) + (0 if y[i - 1] == yhat[j - 1] else 1),
            )
        return memo[(i, j)]

    return rec(len(y), len(yhat))


def test_misaligned_sequence_example():
    y = [0, 8, 2, 9, 7]
    yhat = [8, 2, 9, 7, 0]
    assert hamming_loss(y, yhat) == 1.0
    assert zero_one_loss(y, yhat) == 1.0
    assert levenshtein(y, yhat) == 2  # one insertion and one deletion


def test_hamming_basics():
    assert hamming_loss([1, 2, 3], [1, 2, 3]) == 0.0
    assert hamming_loss([1, 2, 3, 4, 5], [1, 2, 3, 4, 0]) == 0.2
    with pytest.raises(ValueError):
        hamming_loss([1, 2], [1])


def test_zero_one_basics():
    assert zero_one_loss([1, 2], [1, 2]) == 0.0
    assert zero_one_loss([1, 2], [1, 3]) == 1.0
    with pytest.raises(ValueError):
        zero_one_loss([1], [1, 2])


def test_zero_one_iff_hamming_zero():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        T = int(rng.integers(1, 8))
        y = rng.integers(0, 3, size=T).tolist()
        yhat = rng.integers(0, 3, size=T).tolist()
        assert (zero_one_loss(y, yhat) == 0.0) == (hamming_loss(y, yhat) == 0.0)


def test_levenshtein_base_cases():
    assert levenshtein([], []) == 0
    assert levenshtein([], [1, 2, 3]) == 3
    assert levenshtein([1, 2, 3, 4], []) == 4
    assert levenshtein([1, 2], [1, 2]) == 0


def test_levenshtein_vs_memoized_recursion_sampled():
    rng = np.random.default_rng(11)
    for _ in range(500):
        m, n = rng.integers(0, 9, size=2)
        y = rng.integers(0, 3, size=m).tolist()
        yhat = rng.integers(0, 3, size=n).tolist()
        assert levenshtein(y, yhat) == memoized_levenshtein(y, yhat)


def test_levenshtein_bounded_by_hamming_mismatches():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        T = int(rng.integers(1, 10))
        y = rng.integers(0, 4, size=T).tolist()
        yhat = rng.integers(0, 4, size=T).tolist()
        mismatches = sum(a != b for a, b in zip(y, yhat))
        d = levenshtein(y, yhat)
        assert d <= mismatches
        assert 0 <= d <= max(len(y), len(yhat))


def test_levenshtein_metric_properties():
    rng = np.random.default_rng(17)
    seqs = [rng.integers(0, 3, size=rng.integers(0, 7)).tolist() for _ in range(60)]
    for _ in range(400):
        a, b, c = (seqs[i] for i in rng.integers(0, len(seqs), size=3))
        dab = levenshtein(a, b)
        assert dab == levenshtein(b, a)
        assert (dab == 0) == (a == b)
        assert dab <= levenshtein(a, c) + levenshtein(c, b)


def test_levenshtein_norm_matches_table_scale():
    assert levenshtein_norm([0, 8, 2, 9, 7], [8, 2, 9, 7, 0]) == 0.4
    with pytest.raises(ValueError):
        levenshtein_norm([], [1])


def test_per_horizon_error():
    T = 4
    perfect = [((1, 2, 3, 0), (1, 2, 3, 0))] * 5
    assert per_horizon_error(perfect) == [0.0] * T
    single = [((1, 1, 1, 1), (1, 1, 1, 0))]
    assert per_horizon_error(single) == [0.0, 0.0, 0.0, 1.0]
    pairs = [
        ((0, 0, 0), (0, 1, 0)),
        ((1, 1, 1), (1, 1, 0)),
        ((2, 2, 2), (0, 2, 0)),
    ]
    assert per_horizon_error(pairs) == [1 / 3, 1 / 3, 2 / 3]
    with pytest.raises(ValueError):
        per_horizon_error([])


def test_hamming_equals_mean_per_horizon_singleton():
    rng = np.random.default_rng(23)
    for _ in range(50):
        T = int(rng.integers(1, 9))
        y = tuple(rng.integers(0, 3, size=T).tolist())
        yhat = tuple(rng.integers(0, 3, size=T).tolist())
        ph = per_horizon_error([(y, yhat)])
        assert hamming_loss(y, yhat) == pytest.approx(sum(ph) / T, abs=1e-12)


def test_evaluate_pairs_report():
    pairs = [((0, 1), (0, 1)), ((1, 1), (0, 1))]
    rep = evaluate_pairs(pairs)
    assert rep.n == 2
    assert rep.hamming_loss == 0.25
    assert rep.zero_one_loss == 0.5
    assert rep.per_horizon == (0.5, 0.0)
    assert rep.metric("accuracy") == 0.75
    js = rep.to_json_dict()
    assert set(js) == {"hamming_loss", "zero_one_loss", "levenshtein_norm",
                       "per_horizon", "n"}


def reference_report(pairs):
    """The per-pair scalar metrics, summed left to right over the pairs."""
    n = len(pairs)
    return EvalReport(
        hamming_loss=sum(hamming_loss(y, p) for y, p in pairs) / n,
        zero_one_loss=sum(zero_one_loss(y, p) for y, p in pairs) / n,
        levenshtein_norm=sum(levenshtein_norm(y, p) for y, p in pairs) / n,
        per_horizon=tuple(per_horizon_error(pairs)),
        n=n,
    )


def edited_rows(rng, Y, k):
    """Predictions of the rows of Y: each row kept, shifted by one step (a
    misalignment, the case Levenshtein scores kindly) or given random
    substitutions from an alphabet of k values."""
    P = Y.copy()
    for i, how in enumerate(rng.integers(0, 3, size=len(Y))):
        if how == 1:
            P[i] = np.roll(Y[i], int(rng.choice([-1, 1])))
            P[i, 0] = rng.integers(0, k)
        elif how == 2:
            hit = rng.random(Y.shape[1]) < rng.random()
            P[i, hit] = rng.integers(0, k, size=int(hit.sum()))
    return P


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 300), T=st.integers(1, 70), k=st.sampled_from([3, 10**6]),
       seed=st.integers(0, 2**32 - 1))
def test_array_report_equals_the_per_pair_reference_float_for_float(N, T, k, seed):
    rng = np.random.default_rng(seed)
    Y = rng.integers(0, k, size=(N, T))
    P = edited_rows(rng, Y, k)
    pairs = list(zip(map(tuple, Y.tolist()), map(tuple, P.tolist())))
    want = reference_report(pairs)
    got = evaluate(Y, P)
    assert got == want
    assert got.to_json() == want.to_json() and got.to_kv_text() == want.to_kv_text()
    assert evaluate_pairs(pairs) == want


@settings(max_examples=25, deadline=None)
@given(m=st.integers(65, 150), n=st.integers(65, 150), k=st.sampled_from([2, 4, 10**6]),
       seed=st.integers(0, 2**32 - 1))
def test_levenshtein_wider_than_a_word_vs_memoized_recursion(m, n, k, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, k, size=m).tolist()
    yhat = y[:n] + rng.integers(0, k, size=max(0, n - m)).tolist()
    flips = rng.random(n) < 0.2
    yhat = [int(rng.integers(0, k)) if f else v for v, f in zip(yhat, flips)]
    assert levenshtein(y, yhat) == memoized_levenshtein(y, yhat)


def test_levenshtein_of_lanes_crossing_the_word_width():
    # row pairs of T <= 64 labels share uint64 lanes; longer rows take
    # Python ints; both give the scalar distance
    rng = np.random.default_rng(29)
    for T in (1, 2, 63, 64, 65):
        Y = rng.integers(0, 3, size=(40, T))
        P = edited_rows(rng, Y, 3)
        want = [levenshtein(y, p) for y, p in zip(Y.tolist(), P.tolist())]
        assert row_distances(Y, P).tolist() == want


@pytest.mark.parametrize("pairs,message", [
    ([], "empty pair list"),
    ([((1, 2), (1,))], "length mismatch: 2 vs 1"),
    ([((1, 2), (1, 2)), ((3,), (3, 4))], "length mismatch: 1 vs 2"),
    ([((), ())], "empty vectors"),
    ([((1, 2), (1, 2)), ((), ())], "empty vectors"),
    ([((1, 2), (1, 2)), ((1,), (1,))], "all pairs must share the schema length"),
])
def test_evaluate_pairs_errors_keep_their_messages(pairs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluate_pairs(pairs)


def test_labels_beyond_int64_are_compared_as_values():
    big = 2**70
    pairs = [((0, big, 1), (0, big, 1)), ((big, 1, 2), (1, 2, big + 1)), ((5, 6, 7), (big, 6, 7))]
    assert evaluate_pairs(pairs) == reference_report(pairs)
    assert evaluate([y for y, _ in pairs], [p for _, p in pairs]) == reference_report(pairs)


def test_evaluate_rejects_arrays_that_do_not_pair_up():
    Y = np.zeros((3, 4), dtype=np.int64)
    for P, message in [(np.zeros((2, 4)), "2 predictions for 3 instances"),
                       (np.zeros((3, 5)), "length mismatch: 4 vs 5"),
                       (np.zeros(3), "labels and predictions must be (N, T) arrays")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate(Y, P)
    with pytest.raises(ValueError, match="^empty vectors$"):
        evaluate(np.zeros((3, 0)), np.zeros((3, 0)))
