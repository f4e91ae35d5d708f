import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlabel.rng import derive_rng, digest_array, row_draws

VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0 ** -1074, 1e300, 3.0])


@st.composite
def row_batches(draw):
    """(X, shape): 0, 1 or many rows of D values, D from 1 to 30, some rows
    repeated and -0.0 beside 0.0 among the values, and a draw shape."""
    D = draw(st.integers(1, 30))
    rows = draw(st.lists(st.lists(VALUES | st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=D, max_size=D), min_size=0, max_size=6))
    if rows and draw(st.booleans()):
        rows = rows + rows[:draw(st.integers(1, len(rows)))]
    X = np.array(rows, dtype=np.float64).reshape(len(rows), D)
    shape = tuple(draw(st.lists(st.integers(0, 7), min_size=1, max_size=2)))
    return X, shape


@settings(max_examples=150, deadline=None)
@given(row_batches(), st.integers(0, 2**64 - 1), st.sampled_from(["pcc-samples", "s", ""]))
def test_row_draws_are_each_rows_own_stream(batch, seed, name):
    X, shape = batch
    got = row_draws(seed, name, X, shape)
    assert got.shape == (len(X), *shape) and got.dtype == np.float64
    for x, row in zip(X, got):
        want = derive_rng(seed, name, digest_array(x)).random(shape)
        assert row.tobytes() == want.tobytes()


def test_row_draws_of_minus_zero_and_of_zero_differ_and_repeats_agree():
    X = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
    u = row_draws(5, "pcc-samples", X, (4, 3))
    assert u[0].tobytes() == u[2].tobytes() != u[1].tobytes()
    # a row's draws do not depend on the batch it is in, nor on its layout
    assert row_draws(5, "pcc-samples", X[1:2], (4, 3)).tobytes() == u[1].tobytes()
    assert row_draws(5, "pcc-samples", np.asfortranarray(X), (4, 3)).tobytes() == u.tobytes()
