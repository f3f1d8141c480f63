"""Dense float64 linear algebra helpers and a counter-based random stream.

Vectors are plain 1-D ``numpy.ndarray`` of dtype float64, matrices 2-D.
:func:`symmetric_eigs` gives the extreme eigenvalues and the top
eigenvector of a symmetric matrix from one direct (LAPACK) solve.
Randomness goes through :class:`RngStream`, whose state is exactly the
triple ``(seed, stream_id, counter)``: reconstructing a stream at any
counter reproduces the tail of the sequence bit-for-bit, and distinct
stream ids give statistically independent streams from one master seed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, check_int

_MASK64 = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53


def as_vec(x, d: int) -> np.ndarray:
    """Coerce to a 1-D float64 array of length ``d``, else ConfigError."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ConfigError(f"expected 1-D vector, got shape {v.shape}")
    if v.shape[0] != d:
        raise ConfigError(f"expected length {d}, got {v.shape[0]}")
    return v


def norm(v: np.ndarray) -> float:
    """||v||₂ as ``np.linalg.norm`` computes it, one ddot (``v.dot(v)``) and a root,
    minus its wrapper: bit for bit equal on a contiguous v; a strided view may round differently."""
    return math.sqrt(v.dot(v))


def row_sq(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row: one ddot per row (``np.vecdot``), as ``v.dot(v)`` makes."""
    return np.vecdot(rows, rows)


def as_mat(x) -> np.ndarray:
    """Coerce to a 2-D float64 array, else ConfigError."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ConfigError(f"expected 2-D matrix, got shape {m.shape}")
    return m


class RngStream:
    """Counter-based pseudorandom stream (Philox keyed by seed and stream id).

    The generator state is fully determined by ``(seed, stream_id, counter)``
    where ``counter`` counts raw 64-bit words consumed; seed and stream id are
    integers in [0, 2⁶⁴) and the counter is >= 0, else ConfigError.  A draw's
    count must be an integer >= 0 and the bound of :meth:`integers` one in
    [1, 2⁶⁴), else ConfigError before the counter moves.  Gaussian draws use a
    fixed-consumption Box-Muller transform — exactly ``2*ceil(n/2)`` raw
    words per ``normals(n)`` call, nothing cached — so interleaving calls
    never shifts the mapping from counter to output.

    Chunk contract: every decode here is a pure function of its raw words
    (:func:`box_muller`, :func:`uniforms_from`, :func:`integers_from`), so a
    consumer that spends a fixed number of words per item may draw K items'
    words in one :meth:`raw` call and decode them together, bit for bit as
    K separate draws.  A consumer that stops part-way through such a block
    calls :meth:`seek`, so the stream ends at the counter that item-by-item
    drawing would have left.
    """

    def __init__(self, seed: int, stream_id: int = 0, counter: int = 0):
        check_int("seed", seed, 0, _MASK64)
        check_int("stream_id", stream_id, 0, _MASK64)
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self.seek(counter)

    def __repr__(self):
        return (
            f"RngStream(seed={self.seed}, stream_id={self.stream_id}, "
            f"counter={self.counter})"
        )

    def seek(self, counter: int) -> None:
        """Reposition the stream so the next raw word is word ``counter``."""
        check_int("counter", counter, 0)
        self._bg = np.random.Philox(
            key=np.array([self.seed, self.stream_id], dtype=np.uint64)
        )
        blocks, rem = divmod(int(counter), 4)
        if blocks:
            self._bg.advance(blocks)
        if rem:
            self._bg.random_raw(rem)
        self.counter = int(counter)

    def raw(self, n: int) -> np.ndarray:
        """n raw 64-bit words; advances the counter by n."""
        check_int("n", n, 0)
        self.counter += int(n)
        return self._bg.random_raw(int(n))

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1); one raw word each."""
        return uniforms_from(self.raw(n))

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n integers uniform on [0, bound), bound in [1, 2⁶⁴); one raw word each."""
        check_int("bound", bound, 1, _MASK64)
        return integers_from(self.raw(n), bound)

    def normals(self, n: int) -> np.ndarray:
        """n standard normal draws via pairwise Box-Muller.

        Consumes exactly 2*ceil(n/2) raw words; odd-n calls discard the
        second member of the final pair rather than caching it.
        """
        check_int("n", n, 0)
        return box_muller(self.raw(normal_words(n)))[:n]


def normal_words(n: int) -> int:
    """Raw words that ``normals(n)`` consumes: 2*ceil(n/2)."""
    return 2 * ((int(n) + 1) // 2)


def uniforms_from(words: np.ndarray) -> np.ndarray:
    """Doubles uniform on [0, 1), one per raw word."""
    return (words >> np.uint64(11)) * _INV_2_53


def integers_from(words: np.ndarray, bound: int) -> np.ndarray:
    """Integers uniform on [0, bound), one per raw word."""
    return (words % np.uint64(bound)).astype(np.int64)


def box_muller(words: np.ndarray) -> np.ndarray:
    """Standard normals from raw words, one per word, paired along the last axis.

    Words 2i and 2i+1 of each row give normals 2i and 2i+1; the last axis
    must have even length.  Every output depends only on its own pair, so
    decoding a block of rows gives the same bits as decoding each row alone.
    """
    u1 = ((words[..., 0::2] >> np.uint64(11)) + np.uint64(1)) * _INV_2_53  # (0, 1]
    u2 = (words[..., 1::2] >> np.uint64(11)) * _INV_2_53  # [0, 1)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    z = np.empty(words.shape)
    z[..., 0::2] = radius * np.cos(angle)
    z[..., 1::2] = radius * np.sin(angle)
    return z


def gaussian(rng: RngStream, d: int, cov) -> np.ndarray:
    """Sample from N(0, cov) for isotropic or diagonal covariance.

    ``cov`` is either a scalar variance σ² (isotropic σ²I) or a length-d
    vector of per-coordinate variances, none negative, else ConfigError.
    Always consumes the fixed 2*ceil(d/2) raw words, including in the
    degenerate zero-variance case, so coupled streams stay aligned.
    """
    diag = np.asarray(cov, dtype=np.float64)
    if diag.ndim == 0:
        diag = np.full(d, float(diag))
    elif diag.ndim != 1 or diag.shape[0] != d:
        raise ConfigError(f"covariance must be scalar or length-{d} diagonal")
    if np.any(diag < 0.0):
        raise ConfigError("negative variance entry in covariance")
    return rng.normals(d) * np.sqrt(diag)


def symmetric_eigs(M):
    """Extreme eigenvalues of a symmetric matrix, plus a top eigenvector.

    Returns ``(lam_min, lam_max, q_max)`` from one ``numpy.linalg.eigh``
    call, where ``q_max`` is a unit eigenvector for ``lam_max`` signed so
    that its largest-magnitude component is positive.  M must be 2-D,
    square, finite and symmetric to 1e-12 relative to max(1, max|Mᵢⱼ|),
    else ConfigError; ``eigh`` reads its lower triangle.
    """
    Mm = as_mat(M)
    if Mm.shape[0] != Mm.shape[1]:
        raise ConfigError("matrix must be square")
    if not np.isfinite(Mm).all():
        raise ConfigError("matrix must be finite")
    scale = max(1.0, float(np.abs(Mm).max()))
    if np.abs(Mm - Mm.T).max() > 1e-12 * scale:
        raise ConfigError("matrix must be symmetric")
    lams, Q = np.linalg.eigh(Mm)
    q_max = Q[:, -1].copy()
    if q_max[np.argmax(np.abs(q_max))] < 0:
        q_max = -q_max
    return float(lams[0]), float(lams[-1]), q_max
