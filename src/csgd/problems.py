"""Synthetic stochastic objectives with certified constants and references.

Each problem kind exposes the same surface:

- ``direction(theta, token)``: the update direction u in θ ← θ + γu, minus
  a stochastic (sub)gradient for the gradient kinds.  The token carries
  all randomness, so the call is a pure function of ``(theta, token)`` and
  two evaluations with the same token consume identical noise.  That
  property is what makes coupled runs share their per-iteration
  randomness.  ``grad`` is ``-direction``, for the gradient checks.
- ``full_grad`` / ``loss``: the deterministic objective the stochastic
  oracle is unbiased for (empirical mean for dataset-backed kinds,
  population form for streaming kinds).
- certified constants ``L`` and ``mu`` (and ``R_sq``, the trace of the
  input covariance, on the GLM kinds) and a lazily solved
  :class:`ReferenceSolution`.

:func:`make_problem` builds a kind from ``d``, ``n``, ``seed`` and nine
kind-specific overrides, each checked as the problem is built (ConfigError):
``noise_sigma`` (least_squares), ``lam_reg`` (svm, lasso), ``sparsity``
(lasso), ``p_exp`` and ``noise_scale`` (uniformly_convex), ``H`` and
``noise_diag`` (quadratic), ``n_states`` (lsa).

GLM samples are ``(x, y)`` pairs, ``x`` of shape (d,) and ``y`` a float,
or (batch, d) and (batch,) for a minibatch.  Dataset-backed kinds
materialize ``X`` (n×d) and ``y`` from the problem seed and decode each
drawn row index into its row's pair; streaming kinds (``n == 0``) draw
fresh pairs from the run's stream.  The oracle cannot tell the two apart.

Every token costs a fixed number of raw words, ``words_per_token(batch)``,
so ``draw_tokens`` takes ``count`` tokens from one block of
``count * words_per_token(batch)`` words and decodes them together into a
columnar token block: one array per token part, each with a leading
``count`` axis.  That is ``(X, y)`` for the GLM kinds, a (count, d) noise
array for ``quadratic`` and ``uniformly_convex``, and an int array of chain
states for ``lsa``.  ``draw_token_stack`` draws one such block from each of
R streams, each with its own raw call, and decodes their words in one call
into parts with a leading (count, R) shape; ``lsa``, whose chain walks one
state at a time, stacks its per-stream blocks instead.  Streaming labels
are one ``np.matmul`` per block, one ddot per sample at batch 1 as
``x.dot(θ)`` makes.  :func:`token_rows` splits a
block into tokens, 1-D parts as Python scalars; row i is bit for bit the
i-th of ``count`` single draws, and ``next_token`` is the ``count = 1``
case.  An oracle makes one BLAS call per product, through ``.dot`` or ``np.vecdot``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, NonConvergenceError, check_int, check_real
from .numkit import (  # noqa: F401  (gaussian: bench/perfbench.py times problems.gaussian)
    RngStream,
    box_muller,
    gaussian,
    integers_from,
    norm,
    normal_words,
    power_iteration_extreme_eigs,
    power_iteration_top,
    row_sq,
    uniforms_from,
)

# stream ids reserved for problem-owned randomness
_PARAM_STREAM = 0xA0
_DATA_STREAM = 0xD0
_CALIB_STREAM = 0xCA11B

BALL_RADIUS = 4.0  # uniformly_convex: L is certified on the ball ||θ|| <= BALL_RADIUS
PERTURB_SCALE = 0.5  # lsa: the first scale of the per-state perturbations S(x)

# rows per svm-scan block; the solve's bits do not depend on it.  On a 2-core
# Xeon, 96-128 ran it fastest for (d, n) = (10, 1000) and (50, 2000), 64 was
# 2-6% slower and 256 12-14% slower; blocks beat a row loop 2.4-5x
SVM_BLOCK = 128

@dataclass(frozen=True)
class ReferenceSolution:
    """Minimizer of the objective the runs are scored against."""

    theta_star: np.ndarray
    f_star: float
    provenance: str  # "closed-form" | "high-accuracy-solve"
    grad_norm: float = 0.0


def _sigmoid(z):
    # stable on both tails
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sigmoid_scalar(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def token_rows(block) -> list:
    """A token block as a list of tokens, one per row; 1-D parts give Python scalars."""
    if isinstance(block, tuple):
        return list(zip(*map(token_rows, block)))
    return block.tolist() if block.ndim == 1 else list(block)


class Problem:
    """Shared surface for all kinds; see module docstring."""

    kind: str = "?"

    def __init__(self, d: int, n: int, seed: int):
        check_int("d", d, 1)
        check_int("n", n, 0)
        check_int("seed", seed, 0)
        self.d = int(d)
        self.n = int(n)
        self.seed = int(seed)

    # --- sampling ---------------------------------------------------------

    def init_sampler(self, rng: RngStream):
        """Per-run sampling state; None for i.i.d. kinds."""
        return None

    def words_per_token(self, batch: int = 1) -> int:
        """Raw words one token of ``batch`` samples consumes; fixed per kind."""
        raise NotImplementedError

    def decode_tokens(self, words: np.ndarray, batch: int):
        """The token block of a (count, words_per_token) word block, one token per row."""
        raise NotImplementedError

    def draw_tokens(self, rng: RngStream, sampler_state, count: int, batch: int = 1):
        """A block of ``count`` tokens from one raw block, and the sampler state after them."""
        w = self.words_per_token(batch)
        return self.decode_tokens(rng.raw(count * w).reshape(count, w), batch), sampler_state

    def draw_token_stack(self, rngs, sampler_states, count: int, batch: int = 1):
        """Blocks of ``count`` tokens from each stream, stacked along a replicate axis.

        Each stream makes the one raw call :meth:`draw_tokens` makes, and the
        words of all of them are decoded in one call, so each part has a
        leading (count, R) shape; column r is bit for bit stream r's
        :meth:`draw_tokens` block.  Returns the block and the sampler states
        after it, one per stream.
        """
        w = self.words_per_token(batch)
        words = [rng.raw(count * w).reshape(count, 1, w) for rng in rngs]
        words = words[0] if len(words) == 1 else np.concatenate(words, axis=1)  # one: no copy
        block = self.decode_tokens(words.reshape(count * len(rngs), w), batch)
        shape = (count, len(rngs))
        if isinstance(block, tuple):
            return tuple(p.reshape(shape + p.shape[1:]) for p in block), sampler_states
        return block.reshape(shape + block.shape[1:]), sampler_states

    def next_token(self, rng: RngStream, sampler_state, batch: int = 1):
        block, sampler_state = self.draw_tokens(rng, sampler_state, 1, batch)
        return token_rows(block)[0], sampler_state

    # --- oracle -----------------------------------------------------------

    def direction(self, theta: np.ndarray, token) -> np.ndarray:
        """Update direction u in θ ← θ + γu; gradient kinds return -grad."""
        raise NotImplementedError

    def grad(self, theta: np.ndarray, token) -> np.ndarray:
        return -self.direction(theta, token)

    def step_direction(self, theta: np.ndarray, token) -> np.ndarray:
        """:meth:`direction` of one iterate, or of a (reps, d) stack of them.

        A stack goes to :meth:`step_directions`, so the engine loop reaches
        the oracle through this one entry with one stream or several.
        """
        if theta.ndim == 2:
            return self.step_directions(theta, token)
        return self.direction(theta, token)

    def step_directions(self, thetas: np.ndarray, tokens) -> np.ndarray:
        """Directions of a (reps, d) stack of iterates, one row per iterate.

        ``tokens`` has a leading reps axis (a tuple of such arrays for tuple
        tokens).  Each row is bit for bit what :meth:`direction` gives that
        iterate and its token.  Here by a row loop; kinds with a stacked
        form override it.
        """
        rows = zip(*tokens) if isinstance(tokens, tuple) else tokens
        return np.stack([self.direction(t, tok) for t, tok in zip(thetas, rows)])

    def full_grad(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def loss(self, theta: np.ndarray) -> float:
        raise NotImplementedError

    def losses(self, thetas: np.ndarray) -> np.ndarray:
        """:meth:`loss` of each row of a (reps, d) stack, bit for bit; here a row loop."""
        return np.array([self.loss(t) for t in thetas])

    # --- reference & constants --------------------------------------------

    @cached_property
    def reference(self) -> ReferenceSolution:
        return self._solve_reference()

    def _solve_reference(self) -> ReferenceSolution:
        raise NotImplementedError

    @property
    def theta_star(self) -> np.ndarray:
        return self.reference.theta_star

    @property
    def f_star(self) -> float:
        return self.reference.f_star

    def default_gamma0(self) -> float:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(d={self.d}, n={self.n}, seed={self.seed})"


# --------------------------------------------------------------------- GLM


class _GlmBase(Problem):
    """Shared machinery for kinds with N(0, H) inputs, H diagonal.

    The spectrum is h_j = 1/j, a standard ill-conditioned synthetic choice,
    and the planted parameter a N(0, I) draw fixed by the seed.  A subclass
    may fix either to one value for every coordinate instead: svm takes
    h_j = 1 and θ_planted = 0, lasso θ_planted = 0.
    """

    def __init__(self, d, n, seed, h_diag=None, theta_planted=None):
        super().__init__(d, n, seed)
        self.h_diag = 1.0 / np.arange(1, d + 1) if h_diag is None else np.full(d, h_diag)
        prm = RngStream(self.seed, _PARAM_STREAM)
        self.theta_planted = prm.normals(d) if theta_planted is None else np.full(d, theta_planted)
        self.R_sq = float(self.h_diag.sum())
        self._sqrt_h = np.sqrt(self.h_diag)
        self._row_words = normal_words(d)  # per input row

    def words_per_token(self, batch=1):
        if self.n > 0:
            return batch  # one row index per sample
        return batch * self._row_words + self._label_words(batch)

    def decode_tokens(self, words, batch):
        if self.n > 0:  # each row index becomes its row's (x, y) pair
            idx = integers_from(words, self.n)
            X, y = self._X[idx], self._y[idx]
        else:
            split = batch * self._row_words
            z = box_muller(words[:, :split]).reshape(len(words), batch, self._row_words)
            X = z[..., : self.d] * self._sqrt_h  # (count, batch, d) inputs N(0, H)
            # ⟨x, θ⟩: one ddot per sample at batch 1, one gemv per token above it
            y = self._labels(np.matmul(X, self.theta_planted), words[:, split:])
        return (X[:, 0], y[:, 0]) if batch == 1 else (X, y)

    def _label_words(self, batch: int) -> int:
        raise NotImplementedError

    def _labels(self, margins: np.ndarray, words: np.ndarray) -> np.ndarray:
        """Streaming labels (count, batch) from the margins ⟨x, θ_planted⟩ and label words."""
        raise NotImplementedError

    def _materialize_inputs(self, count: int, stream_id: int = _DATA_STREAM):
        """``count`` input rows N(0, H) from stream ``stream_id``, and that stream after them."""
        data = RngStream(self.seed, stream_id)
        return data.normals(count * self.d).reshape(count, self.d) * self._sqrt_h, data


class LogisticRegression(_GlmBase):
    """Streaming or finite-sample logistic loss log(1 + exp(-y⟨x, θ⟩)).

    Labels follow the logistic model at a planted parameter drawn once from
    N(0, I) and fixed by the seed.  The population loss is only locally
    strongly convex, so ``mu`` is certified numerically on the ball
    ||θ - θ*|| <= 2||θ*|| (twice the distance from the zero init).
    """

    kind = "logistic"

    def __init__(self, d, n=0, seed=0):
        super().__init__(d, n, seed)
        if n > 0:
            self._X, self._y = self._sample(n, _DATA_STREAM)

    def _sample(self, count, stream_id):
        """``count`` inputs and their labels under the planted model, from one stream."""
        X, data = self._materialize_inputs(count, stream_id)
        probs = _sigmoid(X @ self.theta_planted)
        return X, np.where(data.uniforms(count) < probs, 1.0, -1.0)

    def _label_words(self, batch):
        return batch  # one uniform per label

    def _labels(self, margins, words):
        if margins.shape[1] == 1:  # single samples keep math.exp; np.exp rounds otherwise
            probs = np.array([_sigmoid_scalar(m) for m in margins[:, 0].tolist()])[:, None]
        else:
            probs = _sigmoid(margins)
        return np.where(uniforms_from(words) < probs, 1.0, -1.0)

    def direction(self, theta, token):
        X, y = token
        if X.ndim == 1:  # single-sample fast path
            return (y * _sigmoid_scalar(-y * float(X.dot(theta)))) * X
        coef = y * _sigmoid(-y * (X @ theta))
        return X.T @ coef / X.shape[0]

    def full_grad(self, theta):
        X, y = self._calibration_data
        coef = -y * _sigmoid(-y * (X @ theta))
        return X.T @ coef / X.shape[0]

    def loss(self, theta):
        X, y = self._calibration_data
        return float(np.logaddexp(0.0, -y * (X @ theta)).mean())

    @cached_property
    def _calibration_data(self):
        """Full dataset, or a frozen sample pool standing in for the population."""
        if self.n > 0:
            return self._X, self._y
        return self._sample(20_000, _CALIB_STREAM)

    def _hessian(self, theta):
        X, y = self._calibration_data
        s = _sigmoid(X @ theta)
        w = s * (1.0 - s)
        return X.T @ (w[:, None] * X) / X.shape[0]

    @cached_property
    def L(self) -> float:
        X, _ = self._calibration_data
        gram = X.T @ X / X.shape[0]
        lam_max, _ = power_iteration_top(gram, tol=1e-10)
        return lam_max / 4.0

    @cached_property
    def mu(self) -> float:
        theta_star = self.theta_star
        radius = 2.0 * norm(theta_star)
        prm = RngStream(self.seed, _PARAM_STREAM + 1)
        lam_mins = []
        points = [theta_star, np.zeros(self.d)]
        for _ in range(6):
            u = prm.normals(self.d)
            u /= norm(u)
            points.append(theta_star + radius * u)
        for p in points:
            lam, _, _ = power_iteration_extreme_eigs(self._hessian(p), tol=1e-8)
            lam_mins.append(lam)
        return 0.8 * min(lam_mins)  # 0.8 guards the between-sample minimum

    def _solve_reference(self):
        if self.n == 0:
            # the population optimum of a well-specified logistic model is
            # the planted parameter itself
            theta = self.theta_planted.copy()
            return ReferenceSolution(theta, self.loss(theta), provenance="closed-form")
        theta, grad_norm = _newton_logistic(self._X, self._y)
        return ReferenceSolution(
            theta_star=theta,
            f_star=self.loss(theta),
            provenance="high-accuracy-solve",
            grad_norm=grad_norm,
        )

    def default_gamma0(self):
        return 4.0 / self.R_sq


def _newton_logistic(X, y, gtol_rel=1e-11, max_iters=200):
    """Damped Newton on the full-batch logistic loss to tiny gradient norm."""
    n, d = X.shape
    theta = np.zeros(d)
    margins = X @ theta

    def value(m):
        return float(np.logaddexp(0.0, -y * m).mean())

    g0 = norm(X.T @ (-y * _sigmoid(-y * margins))) / n
    gtol = gtol_rel * max(1.0, g0)
    f_cur = value(margins)
    for _ in range(max_iters):
        s = _sigmoid(-y * margins)
        grad = X.T @ (-y * s) / n
        gnorm = norm(grad)
        if gnorm <= gtol:
            return theta, gnorm
        w = s * (1.0 - s)
        hess = X.T @ (w[:, None] * X) / n
        step = np.linalg.solve(hess + 1e-12 * np.eye(d), grad)
        t = 1.0
        for _ in range(60):
            cand = theta - t * step
            m_cand = X @ cand
            if value(m_cand) <= f_cur - 1e-4 * t * float(grad @ step):
                theta, margins, f_cur = cand, m_cand, value(m_cand)
                break
            t *= 0.5
        else:
            raise NonConvergenceError("logistic reference line search failed")
    raise NonConvergenceError(
        f"logistic reference did not reach gradient norm {gtol:g}"
    )


class LeastSquares(_GlmBase):
    """Least squares 0.5 E(y - ⟨x, θ⟩)² with y = ⟨x, θ*⟩ + N(0, σ²) outputs."""

    kind = "least_squares"

    def __init__(self, d, n=0, seed=0, noise_sigma=1.0):
        super().__init__(d, n, seed)
        check_real("noise_sigma", noise_sigma, 0.0)
        self.noise_sigma = float(noise_sigma)
        # population constants are exact for the diagonal input covariance
        self.L = float(self.h_diag.max())
        self.mu = float(self.h_diag.min())
        if n > 0:
            self._X, data = self._materialize_inputs(n)
            self._y = self._X @ self.theta_planted + self.noise_sigma * data.normals(n)

    def _label_words(self, batch):
        return normal_words(batch)  # label noise

    def _labels(self, margins, words):
        return margins + self.noise_sigma * box_muller(words)[:, : margins.shape[1]]

    def direction(self, theta, token):
        X, y = token
        if X.ndim == 1:  # single-sample fast path
            return (y - float(X.dot(theta))) * X
        resid = y - X @ theta
        return X.T @ resid / X.shape[0]

    def step_directions(self, thetas, tokens):
        X, y = tokens
        if X.ndim == 3:  # a batch per iterate: the row loop
            return super().step_directions(thetas, tokens)
        # one sample per iterate: one ddot per row, as x.dot(θ) makes
        resid = y - np.vecdot(X, thetas)
        return resid[:, None] * X

    def full_grad(self, theta):
        # population gradient H(θ - θ_planted)
        return self.h_diag * (theta - self.theta_planted)

    def loss(self, theta):
        if self.n > 0:
            r = self._y - self._X @ theta
            return float(0.5 * (r @ r) / self.n)
        diff = theta - self.theta_planted
        return float(0.5 * (self.h_diag @ diff**2) + 0.5 * self.noise_sigma**2)

    def _solve_reference(self):
        if self.n == 0:
            theta = self.theta_planted.copy()
            return ReferenceSolution(theta, self.loss(theta), provenance="closed-form")
        theta = np.linalg.solve(self._X.T @ self._X, self._X.T @ self._y)
        return ReferenceSolution(
            theta_star=theta,
            f_star=self.loss(theta),
            provenance="closed-form",
            grad_norm=norm(self._X.T @ (self._X @ theta - self._y) / self.n),
        )

    def default_gamma0(self):
        return 1.0 / (2.0 * self.R_sq)


# --------------------------------------------------------------------- SVM


class Svm(_GlmBase):
    """Hinge loss plus ridge: E max(0, 1 - y⟨x, θ⟩) + (λ/2)||θ||².

    Inputs are N(0, I); labels are the sign of the first coordinate plus
    N(0, 1) noise.  Margin ties (exactly 1) take the zero-hinge subgradient
    so runs stay deterministic.  Strong convexity comes from the ridge
    term: mu = λ exactly.
    """

    kind = "svm"

    def __init__(self, d, n, seed=0, lam_reg=0.1):
        super().__init__(d, n, seed, h_diag=1.0, theta_planted=0.0)
        if n == 0:
            raise ConfigError("svm needs a finite dataset (n > 0)")
        check_real("lam_reg", lam_reg, 0.0, strict=True)
        self.lam_reg = float(lam_reg)
        self._X, data = self._materialize_inputs(n)
        self._y = np.where(self._X[:, 0] + data.normals(n) >= 0.0, 1.0, -1.0)
        self.mu = self.lam_reg
        # surrogate smoothness scale for schedule defaults; the hinge itself
        # is nonsmooth
        self.L = self.lam_reg + self.R_sq

    def direction(self, theta, token):
        X, y = token
        if X.ndim == 1:
            if y * float(X.dot(theta)) < 1.0:
                return y * X - self.lam_reg * theta
            return -self.lam_reg * theta
        active = y * (X @ theta) < 1.0
        hinge = (np.where(active, y, 0.0) @ X) / X.shape[0]
        return hinge - self.lam_reg * theta

    def full_grad(self, theta):
        active = self._y * (self._X @ theta) < 1.0
        hinge = -(np.where(active, self._y, 0.0)[:, None] * self._X).sum(axis=0) / self.n
        return self.lam_reg * theta + hinge

    def loss(self, theta):
        margins = self._y * (self._X @ theta)
        return float(
            np.maximum(0.0, 1.0 - margins).mean()
            + 0.5 * self.lam_reg * float(theta @ theta)
        )

    def _solve_reference(self):
        theta, gap = _svm_dual_coordinate_ascent(self._X, self._y, self.lam_reg)
        return ReferenceSolution(
            theta_star=theta,
            f_star=self.loss(theta),
            provenance="high-accuracy-solve",
            grad_norm=gap,  # duality gap, the natural residual here
        )

    def default_gamma0(self):
        return 4.0 / self.R_sq


def _svm_dual_coordinate_ascent(X, y, lam, gap_tol_rel=1e-9, max_epochs=4000):
    """Deterministic cyclic dual coordinate ascent for hinge + ridge.

    Primal θ = (1/λn) Σ αᵢ yᵢ xᵢ with α ∈ [0, 1]ⁿ; each coordinate update is
    an exact 1-D maximization.  Stops on the relative duality gap.  Rows are
    scanned in blocks of ``SVM_BLOCK``: one ddot per row from the current θ, as
    ``x.dot(θ)`` makes, and elementwise clips give the row-by-row loop's
    bits up to the first row that moves (about 2% of visits do); that one
    update is applied alone and the scan resumes after it.
    """
    n, d = X.shape
    sq = (X**2).sum(axis=1) / (lam * n)
    sq[sq == 0.0] = np.inf  # a zero row's step (1 - m)/inf is 0: it never moves
    alpha = np.where(np.isinf(sq), 1.0, 0.0)  # a zero row's dual term α/n peaks at α = 1
    theta = np.zeros(d)
    # yᵢ = ±1, so the ddot of the row yᵢxᵢ is yᵢ·(xᵢ·θ) to the bit
    Xy = y[:, None] * X
    vecdot, minimum, maximum, not_equal = np.vecdot, np.minimum, np.maximum, np.not_equal
    for _ in range(max_epochs):
        i = 0
        while i < n:
            j = min(i + SVM_BLOCK, n)
            a_old = alpha[i:j]
            a_new = minimum(1.0, maximum(0.0, a_old + (1.0 - vecdot(Xy[i:j], theta)) / sq[i:j]))
            moved = not_equal(a_new, a_old)
            first = int(moved.argmax())  # the first True, or 0 when none is
            if moved[first]:
                k = i + first
                theta += ((a_new[first] - alpha[k]) * y[k] / (lam * n)) * X[k]
                alpha[k] = a_new[first]
                j = k + 1
            i = j
        reg = 0.5 * lam * float(theta @ theta)
        primal = np.maximum(0.0, 1.0 - y * (X @ theta)).mean() + reg
        gap = primal - (alpha.mean() - reg)
        if gap <= gap_tol_rel * max(1.0, abs(primal)):
            return theta, gap
    raise NonConvergenceError(
        f"svm dual coordinate ascent: duality gap {gap:g} after {max_epochs} epochs"
    )


# -------------------------------------------------------------------- Lasso


class Lasso(_GlmBase):
    """(1/n) Σ (y - ⟨x, θ⟩)² + λ||θ||₁ with an s-sparse planted vector.

    Outputs are y = ⟨x, θ_sparse⟩ + N(0, 1).
    """

    kind = "lasso"

    def __init__(self, d, n, seed=0, lam_reg=1e-4, sparsity=60):
        super().__init__(d, n, seed, theta_planted=0.0)
        if n == 0:
            raise ConfigError("lasso needs a finite dataset (n > 0)")
        check_int("sparsity", sparsity, 1)
        if sparsity > d:
            raise ConfigError(f"sparsity s={sparsity} must be in 1..d={d}")
        check_real("lam_reg", lam_reg, 0.0)
        self.lam_reg = float(lam_reg)
        self.sparsity = int(sparsity)
        prm = RngStream(self.seed, _PARAM_STREAM + 2)
        order = np.argsort(prm.uniforms(d))
        support = np.sort(order[: self.sparsity])
        values = prm.normals(self.sparsity)
        values[values == 0.0] = 1.0  # exact-sparsity guarantee
        sparse = np.zeros(d)
        sparse[support] = values
        self.theta_sparse = sparse
        self._X, data = self._materialize_inputs(n)
        self._y = self._X @ sparse + data.normals(n)
        self.mu = 2.0 * float(self.h_diag.min())
        self.L = 2.0 * float(self.h_diag.max()) + self.lam_reg  # surrogate scale

    def direction(self, theta, token):
        X, y = token
        if X.ndim == 1:
            return (2.0 * (y - float(X.dot(theta)))) * X - self.lam_reg * np.sign(theta)
        resid = y - X @ theta
        smooth = 2.0 * (X.T @ resid) / X.shape[0]
        return smooth - self.lam_reg * np.sign(theta)  # sign(0) = 0

    def full_grad(self, theta):
        resid = self._y - self._X @ theta
        return -2.0 * self._X.T @ resid / self.n + self.lam_reg * np.sign(theta)

    def loss(self, theta):
        resid = self._y - self._X @ theta
        return float((resid @ resid) / self.n + self.lam_reg * np.abs(theta).sum())

    def _solve_reference(self):
        theta, resid_norm = _ista_lasso(self._X, self._y, self.lam_reg)
        return ReferenceSolution(
            theta_star=theta,
            f_star=self.loss(theta),
            provenance="high-accuracy-solve",
            grad_norm=resid_norm,
        )

    def default_gamma0(self):
        return 1.0 / (2.0 * self.R_sq)


def _ista_lasso(X, y, lam, tol_rel=1e-11, max_iters=200_000):
    """Proximal gradient (ISTA) with gradient-mapping stopping for the lasso reference solve.

    This is bit for bit the FISTA loop with adaptive restart that it
    replaced, whose momentum point ended every iteration equal to θ_new:
    the restart set it, or its coefficient was 0, or the restart ddot
    Σ stepᵢ·(momᵢ − θ_newᵢ) was 0.  Rounding is monotone, so each term of
    that sum is ≥ 0 and a zero sum means every component was equal (short
    of a product underflowing).  Only the sign of a zero could differ, and
    the tests pin θ* with its negative zeros against that loop.
    """
    n, d = X.shape
    # one gemv per column: a dgemm's summation order, so θ*, varies with BLAS threads
    gram = 2.0 * np.stack([X.T @ X[:, j] for j in range(d)], axis=1) / n
    lin = 2.0 * X.T @ y / n
    lam_max, _ = power_iteration_top(gram, tol=1e-12)
    t_step = 1.0 / lam_max
    shrink = t_step * lam
    gram_dot, sign, maximum, absolute = gram.dot, np.sign, np.maximum, np.abs

    theta = np.zeros(d)
    tol = tol_rel * max(1.0, norm(lin))
    for _ in range(max_iters):
        z = theta - t_step * (gram_dot(theta) - lin)
        theta_new = sign(z) * maximum(absolute(z) - shrink, 0.0)
        resid = norm(theta_new - theta) / t_step
        theta = theta_new
        if resid <= tol:
            return theta, resid
    raise NonConvergenceError(f"lasso reference: gradient mapping {resid:g} > {tol:g}")


# --------------------------------------------------------- uniformly convex


class UniformlyConvex(Problem):
    """f(θ) = (1/p)||θ||ᵖ with p > 2 and additive N(0, I) gradient noise.

    Not strongly convex (mu = 0); smoothness is certified on the ball of
    radius ``BALL_RADIUS`` since the gradient is only locally Lipschitz.
    """

    kind = "uniformly_convex"

    def __init__(self, d, n=0, seed=0, p_exp=2.5, noise_scale=1.0):
        super().__init__(d, n, seed)
        if n != 0:
            raise ConfigError("uniformly_convex is streaming-only (n = 0)")
        check_real("p_exp", p_exp, 2.0, strict=True)
        check_real("noise_scale", noise_scale, 0.0)
        self.p_exp = float(p_exp)
        self.noise_scale = float(noise_scale)
        try:
            self.L = (self.p_exp - 1.0) * BALL_RADIUS ** (self.p_exp - 2.0)
        except OverflowError:
            self.L = math.inf
        if self.L == math.inf:
            raise ConfigError(f"p_exp={p_exp!r} is too large for a finite L")
        self.mu = 0.0

    def words_per_token(self, batch=1):
        return normal_words(self.d * batch)  # one normals() call for the batch

    def decode_tokens(self, words, batch):
        z = box_muller(words)[:, : self.d * batch].reshape(len(words), batch, self.d)
        return self.noise_scale * (z[:, 0] if batch == 1 else z.mean(axis=1))

    def direction(self, theta, token):
        return -self.full_grad(theta) - token

    def full_grad(self, theta):
        r = norm(theta)
        if r == 0.0:
            return np.zeros(self.d)
        return r ** (self.p_exp - 2.0) * theta

    def loss(self, theta):
        return norm(theta) ** self.p_exp / self.p_exp

    def _solve_reference(self):
        return ReferenceSolution(np.zeros(self.d), 0.0, provenance="closed-form")

    def default_gamma0(self):
        return 1.0 / (4.0 * self.L)


# ----------------------------------------------------------------- quadratic


class QuadraticSemiStochastic(Problem):
    """f(θ) = ½θᵀHθ with additive noise independent of θ; θ* = 0 and f* = 0.

    The gradient oracle Hθ + ξ, ξ ~ N(0, diag(noise_diag)), shares ξ across
    evaluations with the same token, which makes the difference of two
    coupled evaluations exactly H(θ₁ - θ₂) up to rounding: the coupling
    identity.  H is a random SPD matrix with spectrum in [0.2, 1] unless
    given; ``noise_diag`` is one variance for every coordinate or one per
    coordinate, 0.01 unless given.
    """

    kind = "quadratic"

    def __init__(self, d, n=0, seed=0, H=None, noise_diag=0.01):
        super().__init__(d, n, seed)
        if n != 0:
            raise ConfigError("quadratic is streaming-only (n = 0)")
        if H is None:
            H = _random_spd(RngStream(self.seed, _PARAM_STREAM), d, lam_lo=0.2, lam_hi=1.0)
        self.H = np.asarray(H, dtype=np.float64)
        if self.H.shape != (d, d) or not np.isfinite(self.H).all():
            raise ConfigError("H must be a finite d x d matrix")
        self._neg_H = -self.H  # (-H)θ is -(Hθ) bit for bit
        try:
            lam_min, lam_max, _ = power_iteration_extreme_eigs(self.H, tol=1e-12)
        except ValueError as exc:  # numkit's symmetry check
            raise ConfigError(f"H: {exc}") from None
        if lam_min <= 0:
            raise ConfigError("H must be positive definite")
        diag = np.asarray(noise_diag, dtype=np.float64)
        if diag.ndim == 0:
            diag = np.full(d, float(diag))
        if diag.shape != (d,) or not (np.isfinite(diag).all() and (diag >= 0).all()):
            raise ConfigError("noise_diag must be one finite variance >= 0, or d of them")
        self.noise_diag = diag
        self._sqrt_noise = np.sqrt(diag)
        self._row_words = normal_words(d)  # per sample
        self.L = lam_max
        self.mu = lam_min

    def words_per_token(self, batch=1):
        return batch * self._row_words

    def decode_tokens(self, words, batch):
        z = box_muller(words).reshape(len(words), batch, self._row_words)
        xi = z[..., : self.d] * self._sqrt_noise  # (count, batch, d)
        return xi[:, 0] if batch == 1 else xi.mean(axis=1)

    def direction(self, theta, token):
        return self._neg_H.dot(theta) - token

    def step_directions(self, thetas, tokens):
        # one gemv per row, as (-H).dot(θ) makes
        return np.matmul(self._neg_H, thetas[:, :, None])[:, :, 0] - tokens

    def full_grad(self, theta):
        return self.H @ theta

    def loss(self, theta):
        return float(0.5 * theta @ (self.H @ theta))

    def losses(self, thetas):
        # one gemv and one ddot per row, as loss makes
        return np.vecdot(0.5 * thetas, np.matmul(self.H, thetas[:, :, None])[:, :, 0])

    _solve_reference = UniformlyConvex._solve_reference  # θ* = 0 and f* = 0

    def default_gamma0(self):
        return 1.0 / (2.0 * self.L)


def _random_spd(rng: RngStream, d: int, lam_lo: float, lam_hi: float) -> np.ndarray:
    """Random SPD matrix with spectrum uniform in [lam_lo, lam_hi]."""
    G = rng.normals(d * d).reshape(d, d)
    Q, R = np.linalg.qr(G)
    Q = Q * np.sign(np.diag(R))  # fix the sign ambiguity for determinism
    lams = lam_lo + (lam_hi - lam_lo) * rng.uniforms(d)
    M = (Q * lams) @ Q.T
    return 0.5 * (M + M.T)


# ----------------------------------------------------------------------- LSA


class LinearStochasticApprox(Problem):
    """Linear iteration θ ← θ + γ(A(x)θ + b(x)) driven by a Markov chain.

    The chain has ``n_states`` states with Dirichlet(1,…,1) transition rows.
    Per-state maps are A(x) = -(M + s·S(x)) with M a fixed random SPD
    matrix (spectrum in [0.5, 2]) and S(x) perturbations centered under the
    stationary law, so the averaged map is exactly -M and the fixed point
    solves Āθ* + b̄ = 0.  The scale s is ``PERTURB_SCALE``, halved until
    the averaged map's symmetric part is certified contracting.
    """

    kind = "lsa"

    def __init__(self, d, n=0, seed=0, n_states=8):
        super().__init__(d, n, seed)
        if n != 0:
            raise ConfigError("lsa is streaming-only (n = 0)")
        check_int("n_states", n_states, 1)
        self.n_states = int(n_states)
        prm = RngStream(self.seed, _PARAM_STREAM)
        N = self.n_states

        # Dirichlet(1,...,1) rows via normalized exponentials
        expo = -np.log(1.0 - prm.uniforms(N * N).reshape(N, N))
        self.P = expo / expo.sum(axis=1, keepdims=True)
        if np.abs(self.P.sum(axis=1) - 1.0).max() > 1e-12:
            raise ConfigError("transition rows failed to normalize")
        if not np.all(np.linalg.matrix_power(self.P, N) > 0.0):
            raise ConfigError("chain is not irreducible and aperiodic")
        self.pi_chain = _stationary_distribution(self.P)
        self._cum_P = [row.tolist() for row in np.cumsum(self.P, axis=1)]

        M = _random_spd(prm, d, lam_lo=0.5, lam_hi=2.0)
        raw = prm.normals(N * d * d).reshape(N, d, d)
        centered = raw - np.tensordot(self.pi_chain, raw, axes=1)
        scale = PERTURB_SCALE
        for _ in range(60):
            A_table = -(M + scale * centered)
            A_bar = np.tensordot(self.pi_chain, A_table, axes=1)
            sym = 0.5 * (A_bar + A_bar.T)
            lam_max_sym, _ = power_iteration_top(sym, tol=1e-10)
            if lam_max_sym < -0.1:
                break
            scale *= 0.5
        else:
            raise ConfigError("could not certify a contracting averaged map")
        self.A_table = A_table
        self.A_bar = A_bar
        self.b_table = prm.normals(N * d).reshape(N, d)
        self.b_bar = self.pi_chain @ self.b_table

        self.mu = -lam_max_sym
        self.L, _ = power_iteration_top(M, tol=1e-10)

    def init_sampler(self, rng: RngStream):
        return int(rng.integers(1, self.n_states)[0])

    def words_per_token(self, batch=1):
        if batch != 1:
            raise ConfigError("lsa follows one Markov chain; batch_size must be 1")
        return 1  # one uniform per transition

    def draw_tokens(self, rng, sampler_state, count, batch=1):
        """The chain's next ``count`` states, and the state after them."""
        state = sampler_state
        states = []
        for u in uniforms_from(rng.raw(count * self.words_per_token(batch))).tolist():
            states.append(state)
            state = min(bisect_right(self._cum_P[state], u), self.n_states - 1)
        return np.array(states, dtype=int), state

    def draw_token_stack(self, rngs, sampler_states, count, batch=1):
        """Each stream's chain walks on its own; the blocks are stacked as (count, R)."""
        blocks, states = zip(*(self.draw_tokens(rng, state, count, batch)
                               for rng, state in zip(rngs, sampler_states)))
        return np.stack(blocks, axis=1), list(states)

    def direction(self, theta, state: int):
        """Per-state update direction A(x)θ + b(x)."""
        if not 0 <= state < self.n_states:
            raise ValueError(f"invalid chain state {state}")
        return self.A_table[state].dot(theta) + self.b_table[state]

    def step_directions(self, thetas, states):
        # one gemv per row, as A(x).dot(θ) makes
        return np.matmul(self.A_table[states], thetas[:, :, None])[:, :, 0] + self.b_table[states]

    def full_grad(self, theta):
        return -(self.A_bar @ theta + self.b_bar)

    def loss(self, theta):
        """Squared residual of the averaged fixed-point equation."""
        r = self.A_bar @ theta + self.b_bar
        return float(r @ r)

    def losses(self, thetas):
        # one gemv and one ddot per row, as loss makes
        return row_sq(np.matmul(self.A_bar, thetas[:, :, None])[:, :, 0] + self.b_bar)

    def _solve_reference(self):
        theta = np.linalg.solve(self.A_bar, -self.b_bar)
        resid = norm(self.A_bar @ theta + self.b_bar)
        if resid > 1e-10:
            raise NonConvergenceError(f"lsa fixed point residual {resid:g}")
        return ReferenceSolution(
            theta_star=theta, f_star=0.0, provenance="closed-form", grad_norm=resid
        )

    def default_gamma0(self):
        return 1.0 / (2.0 * self.L)


def _stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Left fixed vector of a row-stochastic matrix by direct linear solve."""
    N = P.shape[0]
    A = P.T - np.eye(N)
    A[-1, :] = 1.0
    rhs = np.zeros(N)
    rhs[-1] = 1.0
    pi = np.linalg.solve(A, rhs)
    if np.any(pi < -1e-12):
        raise ConfigError("stationary distribution has negative mass")
    return np.maximum(pi, 0.0) / pi.sum()


# ------------------------------------------------------------------ factory


_KIND_CLASSES = {
    "logistic": LogisticRegression,
    "least_squares": LeastSquares,
    "svm": Svm,
    "lasso": Lasso,
    "uniformly_convex": UniformlyConvex,
    "quadratic": QuadraticSemiStochastic,
    "lsa": LinearStochasticApprox,
}


def make_problem(kind: str, d: int, n: int = 0, seed: int = 0, **overrides) -> Problem:
    """Build a problem by kind name; overrides are kind-specific params."""
    if kind not in _KIND_CLASSES:
        raise ConfigError(f"unknown problem kind {kind!r}; one of {sorted(_KIND_CLASSES)}")
    try:
        return _KIND_CLASSES[kind](d=d, n=n, seed=seed, **overrides)
    except TypeError as exc:
        raise ConfigError(f"bad overrides for kind {kind!r}: {exc}") from exc
