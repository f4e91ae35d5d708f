"""Named-stream random number derivation.

Every randomized choice in the library draws from a generator derived from
one 64-bit seed plus a named stream (component name and indices).  Streams
are independent of call order, so parallel or partial execution cannot
change any result.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _stream_digest(seed: int, stream: tuple) -> bytes:
    """SHA-256 of the seed and the stream parts' string forms."""
    h = hashlib.sha256(str(int(seed)).encode())
    for part in stream:
        h.update(b"\x1f" + str(part).encode())
    return h.digest()


def derive_rng(seed: int, *stream: object) -> np.random.Generator:
    """Return a Generator for the stream ``(seed, *stream)``.

    Stream parts are hashed by their string form; pass stable identifiers
    (component names, indices, digests), not repr()s of rich objects.
    """
    words = np.frombuffer(_stream_digest(seed, stream), dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence([int(w) for w in words]))


def derive_seed(seed: int, *stream: object) -> int:
    """Collapse a named stream to a fresh 63-bit integer seed."""
    return int.from_bytes(_stream_digest(seed, stream)[:8], "big") >> 1


def digest_array(x: np.ndarray) -> str:
    """Stable hex digest of an array's contents, for per-input streams."""
    arr = np.ascontiguousarray(x)
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index from a probability vector (inverse-CDF)."""
    cum = np.cumsum(probs)
    i = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    return min(i, len(probs) - 1)
