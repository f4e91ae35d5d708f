import numpy as np
import pytest

from seqlabel.metrics import (evaluate_pairs, hamming_loss, levenshtein,
                              levenshtein_norm, per_horizon_error, zero_one_loss)


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
