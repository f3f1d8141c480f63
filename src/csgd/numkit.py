"""Dense float64 linear algebra helpers and a counter-based random stream.

Vectors are plain 1-D ``numpy.ndarray`` of dtype float64, matrices 2-D.
Randomness goes through :class:`RngStream`, whose state is exactly the
triple ``(seed, stream_id, counter)``: reconstructing a stream at any
counter reproduces the tail of the sequence bit-for-bit, and distinct
stream ids give statistically independent streams from one master seed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergenceError

_MASK64 = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53


def as_vec(x, d: int | None = None) -> np.ndarray:
    """Coerce to a 1-D float64 array, optionally checking the length."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected 1-D vector, got shape {v.shape}")
    if d is not None and v.shape[0] != d:
        raise ValueError(f"expected length {d}, got {v.shape[0]}")
    return v


def norm(v: np.ndarray) -> float:
    """||v||₂ as ``np.linalg.norm`` computes it, one ddot (``v.dot(v)``) and a root,
    minus its wrapper: bit for bit equal on a contiguous v; a strided view may round differently."""
    return math.sqrt(v.dot(v))


def row_sq(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row: one ddot per row (``np.vecdot``), as ``v.dot(v)`` makes."""
    return np.vecdot(rows, rows)


def as_mat(x, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Coerce to a 2-D float64 array, optionally checking the shape."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got shape {m.shape}")
    if shape is not None and m.shape != shape:
        raise ValueError(f"expected shape {shape}, got {m.shape}")
    return m


class RngStream:
    """Counter-based pseudorandom stream (Philox keyed by seed and stream id).

    The generator state is fully determined by ``(seed, stream_id, counter)``
    where ``counter`` counts raw 64-bit words consumed.  Gaussian draws use a
    fixed-consumption Box-Muller transform — exactly ``2*ceil(n/2)`` raw words
    per ``normals(n)`` call, nothing cached — so interleaving calls never
    shifts the mapping from counter to output.

    Chunk contract: every decode here is a pure function of its raw words
    (:func:`box_muller`, :func:`uniforms_from`, :func:`integers_from`), so a
    consumer that spends a fixed number of words per item may draw K items'
    words in one :meth:`raw` call and decode them together, bit for bit as
    K separate draws.  A consumer that stops part-way through such a block
    calls :meth:`seek`, so the stream ends at the counter that item-by-item
    drawing would have left.
    """

    def __init__(self, seed: int, stream_id: int = 0, counter: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self.seek(counter)

    def __repr__(self):
        return (
            f"RngStream(seed={self.seed}, stream_id={self.stream_id}, "
            f"counter={self.counter})"
        )

    def seek(self, counter: int) -> None:
        """Reposition the stream so the next raw word is word ``counter``."""
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
        self.counter += int(n)
        return self._bg.random_raw(int(n))

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1); one raw word each."""
        return uniforms_from(self.raw(n))

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n integers uniform on [0, bound); one raw word each."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return integers_from(self.raw(n), bound)

    def normals(self, n: int) -> np.ndarray:
        """n standard normal draws via pairwise Box-Muller.

        Consumes exactly 2*ceil(n/2) raw words; odd-n calls discard the
        second member of the final pair rather than caching it.
        """
        if n == 0:
            return np.empty(0)
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
    vector of per-coordinate variances.  Always consumes the fixed
    2*ceil(d/2) raw words, including in the degenerate zero-variance case,
    so coupled streams stay aligned no matter the covariance.
    """
    diag = np.asarray(cov, dtype=np.float64)
    if diag.ndim == 0:
        diag = np.full(d, float(diag))
    elif diag.ndim != 1 or diag.shape[0] != d:
        raise ValueError(f"covariance must be scalar or length-{d} diagonal")
    if np.any(diag < 0.0):
        raise ValueError("negative variance entry in covariance")
    return rng.normals(d) * np.sqrt(diag)


# power iterations between checks of the residual's decay rate: over the
# converging passes of the test suite, the rate seen in any such window
# reaches the tolerance in under half the iterations left.  The checks fall
# on iterations 0, STALL_WINDOW, 2·STALL_WINDOW, …; _power_top's block scan
# makes each one when it reaches that iteration's residual.
STALL_WINDOW = 1000

# power iterations per block: each iteration runs one gemv, one ddot and one
# divide; each block's Rayleigh quotients and residuals come in one stacked pass
POWER_BLOCK = 64


def _graded_start(d: int) -> np.ndarray:
    # grading breaks exact symmetries that would trap the all-ones vector
    # in an invariant subspace
    v = 1.0 + 1e-6 * np.arange(d)
    return v / norm(v)


def _spectral_radius_estimate(M: np.ndarray, iters: int = 100) -> float:
    """Rough spectral radius via norm-growth power steps (symmetric M)."""
    v = _graded_start(M.shape[0])
    rho = 0.0
    for _ in range(iters):
        w = M.dot(v)
        norm_w = norm(w)
        if norm_w == 0.0:
            return rho
        if abs(norm_w - rho) <= 1e-3 * max(1e-300, norm_w):
            return norm_w
        rho = norm_w
        v = w / norm_w
    return rho


def _power_top(M: np.ndarray, tol_resid: float, max_iters: int):
    """Top eigenpair of a symmetric PSD matrix by power iteration.

    Converges when the eigen-residual ||Mv - λv|| drops below tol_resid;
    for a degenerate top eigenspace any unit vector in it qualifies.  Every
    ``STALL_WINDOW`` iterations the residual's decay over the last window
    is extrapolated geometrically to ``max_iters``; when even that stays
    above tol_resid, the pass gives up then rather than at ``max_iters``.

    Per iteration: w = Mv into a row of W, ||w|| as the root of one ddot,
    and v ← w/||w|| into the next row of V; one BLAS call per product,
    through ``.dot`` or ``np.vecdot``.  Per block of ``POWER_BLOCK``
    iterations (fewer at ``max_iters``): one stacked pass gives every
    λᵢ = vᵢ·wᵢ and residual ||wᵢ - λᵢvᵢ||, and a scan in order stops at the
    first residual within tol_resid and makes any stall check that falls in
    the block.  The results are the bits of a loop that checks every
    iteration: λᵢ and the squared residual are one ddot per row
    (``np.vecdot``, as ``v.dot(w)`` makes), the scale and subtract are
    elementwise, and the scan keeps that loop's order: convergence test,
    then stall check, then the ``||w|| == 0`` exit, which ends its block
    before the divide.
    """
    d = M.shape[0]
    V = np.empty((POWER_BLOCK + 1, d))
    W = np.empty((POWER_BLOCK, d))
    vs, ws = list(V), list(W)  # row views, made once
    vs[0][:] = _graded_start(d)
    checkpoint, check_at = math.inf, 0  # the residual at the last check; the next check
    mdot, sqrt, divide = M.dot, math.sqrt, np.divide
    for start in range(0, max_iters, POWER_BLOCK):
        n = min(POWER_BLOCK, max_iters - start)
        for j in range(n):
            w = ws[j]
            mdot(vs[j], w)
            norm_w = sqrt(w.dot(w))
            if norm_w == 0.0:
                n = j + 1
                break
            divide(w, norm_w, vs[j + 1])
        lam = np.vecdot(V[:n], W[:n])
        resid = np.sqrt(row_sq(W[:n] - lam[:, None] * V[:n]))
        hits = np.flatnonzero(resid <= tol_resid)
        stop = int(hits[0]) if hits.size else n
        while check_at < start + stop:
            i = check_at
            r = float(resid[i - start])
            if r < checkpoint and (
                (max_iters - i) * math.log(checkpoint / r)
                < STALL_WINDOW * math.log(r / tol_resid)
            ):
                raise NonConvergenceError(
                    f"power iteration stalled at {i} iterations: residual {r:g} "
                    f"cannot reach {tol_resid:g} by {max_iters}"
                )
            checkpoint, check_at = r, i + STALL_WINDOW
        if stop < n:
            return float(lam[stop]), V[stop].copy()
        if norm_w == 0.0:
            return 0.0, V[n - 1].copy()
        vs[0][:] = vs[n]
    raise NonConvergenceError(
        f"power iteration did not converge in {max_iters} iterations "
        f"(residual tolerance {tol_resid:g})"
    )


def _top_pass(M, tol: float, max_iters: int):
    """Validated matrix, residual tolerance and signed top eigenpair of M."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    Mm = as_mat(M)
    d = Mm.shape[0]
    if Mm.shape[0] != Mm.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(Mm).max()))
    if np.abs(Mm - Mm.T).max() > 1e-12 * scale:
        raise ValueError("matrix must be symmetric")

    rho = _spectral_radius_estimate(Mm)
    tol_resid = tol * max(1.0, rho)
    shift = 1.05 * rho + 1e-9 * max(1.0, rho)
    top, q_max = _power_top(Mm + shift * np.eye(d), tol_resid, max_iters)

    # deterministic sign convention: largest-magnitude component positive
    pivot = int(np.argmax(np.abs(q_max)))
    if q_max[pivot] < 0:
        q_max = -q_max
    return Mm, tol_resid, top - shift, q_max


def power_iteration_top(M, tol: float = 1e-10, max_iters: int = 100_000):
    """Largest eigenvalue of a symmetric matrix and a unit eigenvector for it.

    Returns ``(lam_max, q_max)``, bit for bit the last two values of
    :func:`power_iteration_extreme_eigs` with the same arguments, without
    its λ_min pass.
    """
    _, _, lam_max, q_max = _top_pass(M, tol, max_iters)
    return lam_max, q_max


def power_iteration_extreme_eigs(M, tol: float = 1e-10, max_iters: int = 100_000):
    """Extreme eigenvalues of a symmetric matrix, plus the top eigenvector.

    Returns ``(lam_min, lam_max, q_max)`` where ``q_max`` is a unit
    eigenvector for ``lam_max``.  Both extremes come from power iteration
    on shifted PSD matrices (shift = spectral-radius estimate).  Eigenpairs
    are accepted when the residual ||Mq - λq|| falls below
    ``tol * max(1, ||M||₂)``; by Weyl's bound the eigenvalues then carry the
    same absolute accuracy.  The λ_min pass converges at the rate
    (λ_max - λ₂)/(λ_max - λ_min), λ₂ the second smallest, which stalls on a
    clustered bottom; where it does not converge, or its residual decays
    too slowly to (see ``_power_top``), λ_min comes from
    ``numpy.linalg.eigvalsh``.  Each pass costs one gemv, one ddot and one
    divide per iteration, plus one stacked residual pass per
    ``POWER_BLOCK`` iterations (see ``_power_top``).  Callers that read only
    ``lam_max`` or ``q_max`` use :func:`power_iteration_top`.
    """
    Mm, tol_resid, lam_max, q_max = _top_pass(M, tol, max_iters)
    # second pass from the exact top: B = (λ_max + pad)I - M is PSD with its
    # own top at λ_max - λ_min
    pad = max(10.0 * tol_resid, 1e-9 * max(1.0, abs(lam_max)))
    try:
        bottom, _ = _power_top((lam_max + pad) * np.eye(Mm.shape[0]) - Mm, tol_resid, max_iters)
    except NonConvergenceError:
        return float(np.linalg.eigvalsh(Mm)[0]), lam_max, q_max
    return lam_max + pad - bottom, lam_max, q_max
