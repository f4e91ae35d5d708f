"""Named-stream random number derivation.

Every randomized choice in the library draws from a generator derived from
one 64-bit seed plus a named stream (component name and indices).  Streams
are independent of call order, so parallel or partial execution cannot
change any result.  A per-input stream names the input's ``digest_array``;
``row_draws`` draws from the streams of a batch of input rows at once.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _stream_hash(seed: int, stream: tuple):
    """SHA-256 state of the seed and the stream parts' string forms."""
    h = hashlib.sha256(str(int(seed)).encode())
    for part in stream:
        h.update(b"\x1f" + str(part).encode())
    return h


def _rng(h) -> np.random.Generator:
    """The generator of a stream's SHA-256 state: its digest's words as
    ``SeedSequence`` entropy."""
    return np.random.default_rng(np.random.SeedSequence(np.frombuffer(h.digest(), np.uint32)))


def derive_rng(seed: int, *stream: object) -> np.random.Generator:
    """Return a Generator for the stream ``(seed, *stream)``.

    Stream parts are hashed by their string form; pass stable identifiers
    (component names, indices, digests), not repr()s of rich objects.
    """
    return _rng(_stream_hash(seed, stream))


def derive_seed(seed: int, *stream: object) -> int:
    """Collapse a named stream to a fresh 63-bit integer seed."""
    return int.from_bytes(_stream_hash(seed, stream).digest()[:8], "big") >> 1


def _array_hash(dtype, shape: tuple):
    """SHA-256 state of an array's dtype and shape, ``digest_array``'s prefix."""
    h = hashlib.sha256()
    h.update(str(dtype).encode())
    h.update(str(shape).encode())
    return h


def digest_array(x: np.ndarray) -> str:
    """Stable hex digest of an array's contents, for per-input streams."""
    arr = np.ascontiguousarray(x)
    h = _array_hash(arr.dtype, arr.shape)
    h.update(arr.tobytes())
    return h.hexdigest()


def row_draws(seed: int, name: str, X: np.ndarray, shape: tuple) -> np.ndarray:
    """(n, *shape) uniform draws of the n rows of ``X``, row i's from its
    own stream: bit for bit ``derive_rng(seed, name,
    digest_array(X[i])).random(shape)``.  The hash of the seed and ``name``
    and that of the rows' dtype and shape are taken once and copied per
    row, and each row's draws are written in place."""
    X = np.ascontiguousarray(X)
    out = np.empty((len(X), *shape))
    stream, rows = _stream_hash(seed, (name,)), _array_hash(X.dtype, X.shape[1:])
    for x, o in zip(X, out):
        row = rows.copy()
        row.update(x.tobytes())
        h = stream.copy()
        h.update(b"\x1f" + row.hexdigest().encode())
        _rng(h).random(out=o)
    return out


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index from a probability vector (inverse-CDF)."""
    cum = np.cumsum(probs)
    i = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    return min(i, len(probs) - 1)
