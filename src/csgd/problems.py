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
- certified constants ``L``, ``mu``, ``R_sq`` and a lazily
  solved :class:`ReferenceSolution`.

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
states for ``lsa``.  Streaming labels are one ``np.matmul`` per block, one
ddot per sample at batch 1 as ``x @ θ`` makes.  :func:`token_rows` splits a
block into tokens, 1-D parts as Python scalars; row i is bit for bit the
i-th of ``count`` single draws, and ``next_token`` is the ``count = 1``
case.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, NonConvergenceError
from .numkit import (  # noqa: F401  (gaussian: bench/perfbench.py times problems.gaussian)
    RngStream,
    box_muller,
    gaussian,
    integers_from,
    norm,
    normal_words,
    power_iteration_extreme_eigs,
    power_iteration_top,
    uniforms_from,
)

# stream ids reserved for problem-owned randomness
_PARAM_STREAM = 0xA0
_DATA_STREAM = 0xD0
_CALIB_STREAM = 0xCA11B

# rows per svm-scan block: 64-128 ran the solve 2.4-5x faster than a row loop
# for (d, n) in (5, 200)..(50, 2000) on a 2-core Xeon; epoch-long blocks, 1.5x
CHUNK = 64

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
        if d <= 0:
            raise ConfigError("dimension must be positive")
        if n < 0:
            raise ConfigError("dataset size must be >= 0")
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

        A stack goes to :meth:`step_directions`, so both engine loops reach
        the oracle through this one entry.
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

    Default spectrum h_j = 1/j, a standard ill-conditioned synthetic choice;
    override with ``h_diag``.
    """

    def __init__(self, d, n, seed, h_diag=None, theta_planted=None):
        super().__init__(d, n, seed)
        if h_diag is None:
            h_diag = 1.0 / np.arange(1, d + 1)
        self.h_diag = np.asarray(h_diag, dtype=np.float64)
        if self.h_diag.shape != (d,) or np.any(self.h_diag <= 0):
            raise ConfigError("h_diag must be length-d and positive")
        prm = RngStream(self.seed, _PARAM_STREAM)
        if theta_planted is None:
            theta_planted = prm.normals(d)
        self.theta_planted = np.asarray(theta_planted, dtype=np.float64)
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

    def _materialize_inputs(self, count: int) -> np.ndarray:
        data = RngStream(self.seed, _DATA_STREAM)
        X = data.normals(count * self.d).reshape(count, self.d)
        X *= np.sqrt(self.h_diag)
        return X, data


class LogisticRegression(_GlmBase):
    """Streaming or finite-sample logistic loss log(1 + exp(-y⟨x, θ⟩)).

    Labels follow the logistic model at a planted parameter drawn once from
    N(0, I) and fixed by the seed.  The population loss is only locally
    strongly convex, so ``mu`` is certified numerically on the ball
    ||θ - θ*|| <= 2||θ*|| (twice the distance from the zero init).
    """

    kind = "logistic"

    def __init__(self, d, n=0, seed=0, h_diag=None, theta_planted=None):
        super().__init__(d, n, seed, h_diag, theta_planted)
        if n > 0:
            X, data = self._materialize_inputs(n)
            probs = _sigmoid(X @ self.theta_planted)
            self._y = np.where(data.uniforms(n) < probs, 1.0, -1.0)
            self._X = X

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
            return (y * _sigmoid_scalar(-y * float(X @ theta))) * X
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
        calib = RngStream(self.seed, _CALIB_STREAM)
        m = 20_000
        X = calib.normals(m * self.d).reshape(m, self.d) * np.sqrt(self.h_diag)
        probs = _sigmoid(X @ self.theta_planted)
        y = np.where(calib.uniforms(m) < probs, 1.0, -1.0)
        return X, y

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

    def __init__(self, d, n=0, seed=0, h_diag=None, theta_planted=None, noise_sigma=1.0):
        super().__init__(d, n, seed, h_diag, theta_planted)
        if noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        self.noise_sigma = float(noise_sigma)
        # population constants are exact for the diagonal input covariance
        self.L = float(self.h_diag.max())
        self.mu = float(self.h_diag.min())
        if n > 0:
            X, data = self._materialize_inputs(n)
            self._y = X @ self.theta_planted + self.noise_sigma * data.normals(n)
            self._X = X

    def _label_words(self, batch):
        return normal_words(batch)  # label noise

    def _labels(self, margins, words):
        return margins + self.noise_sigma * box_muller(words)[:, : margins.shape[1]]

    def direction(self, theta, token):
        X, y = token
        if X.ndim == 1:  # single-sample fast path
            return (y - float(X @ theta)) * X
        resid = y - X @ theta
        return X.T @ resid / X.shape[0]

    def step_directions(self, thetas, tokens):
        X, y = tokens
        if X.ndim == 3:  # a batch per iterate: the row loop
            return super().step_directions(thetas, tokens)
        # one sample per iterate: one ddot per row, as x @ θ makes
        resid = y - np.matmul(X[:, None, :], thetas[:, :, None])[:, 0, 0]
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

    Inputs are isotropic N(0, σ²I); labels follow the sign of the first
    coordinate observed through noise.  Margin ties (exactly 1) take the
    zero-hinge subgradient so runs stay deterministic.  Strong convexity
    comes from the ridge term: mu = λ exactly.
    """

    kind = "svm"

    def __init__(self, d, n, seed=0, lam_reg=0.1, sigma_input=1.0):
        if n <= 0:
            raise ConfigError("svm needs a finite dataset (n > 0)")
        if lam_reg <= 0:
            raise ConfigError("lam_reg must be positive")
        h_diag = np.full(d, float(sigma_input) ** 2)
        super().__init__(d, n, seed, h_diag=h_diag, theta_planted=np.zeros(d))
        self.lam_reg = float(lam_reg)
        self.sigma_input = float(sigma_input)
        X, data = self._materialize_inputs(n)
        z = self.sigma_input * data.normals(n)
        raw = X[:, 0] + z
        self._y = np.where(raw >= 0.0, 1.0, -1.0)
        self._X = X
        self.mu = self.lam_reg
        # surrogate smoothness scale for schedule defaults; the hinge itself
        # is nonsmooth
        self.L = self.lam_reg + self.R_sq

    def direction(self, theta, token):
        X, y = token
        if X.ndim == 1:
            if y * float(X @ theta) < 1.0:
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
    scanned in blocks of ``CHUNK``: one ddot per row from the current θ, as
    ``float(x @ θ)`` makes, and elementwise clips give the row-by-row loop's
    bits up to the first row that moves (about 2% of visits do); that one
    update is applied alone and the scan resumes after it.
    """
    n, d = X.shape
    sq = (X**2).sum(axis=1) / (lam * n)
    sq[sq == 0.0] = np.inf  # a zero row's step (1 - m)/inf is 0: it never moves
    alpha = np.zeros(n)
    theta = np.zeros(d)
    for _ in range(max_epochs):
        i = 0
        while i < n:
            j = min(i + CHUNK, n)
            m = y[i:j] * np.matmul(X[i:j, None, :], theta[:, None])[:, 0, 0]
            a_new = np.minimum(1.0, np.maximum(0.0, alpha[i:j] + (1.0 - m) / sq[i:j]))
            moved = np.flatnonzero(a_new != alpha[i:j])
            if moved.size:
                k = i + int(moved[0])
                theta += ((a_new[k - i] - alpha[k]) * y[k] / (lam * n)) * X[k]
                alpha[k] = a_new[k - i]
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
    """(1/n) Σ (y - ⟨x, θ⟩)² + λ||θ||₁ with an s-sparse planted vector."""

    kind = "lasso"

    def __init__(self, d, n, seed=0, lam_reg=1e-4, sparsity=60, noise_sigma=1.0, h_diag=None):
        if n <= 0:
            raise ConfigError("lasso needs a finite dataset (n > 0)")
        if not 0 < sparsity <= d:
            raise ConfigError(f"sparsity s={sparsity} must be in 1..d={d}")
        super().__init__(d, n, seed, h_diag=h_diag, theta_planted=np.zeros(d))
        self.lam_reg = float(lam_reg)
        self.sparsity = int(sparsity)
        self.noise_sigma = float(noise_sigma)
        prm = RngStream(self.seed, _PARAM_STREAM + 2)
        order = np.argsort(prm.uniforms(d))
        support = np.sort(order[: self.sparsity])
        values = prm.normals(self.sparsity)
        values[values == 0.0] = 1.0  # exact-sparsity guarantee
        sparse = np.zeros(d)
        sparse[support] = values
        self.theta_sparse = sparse
        X, data = self._materialize_inputs(n)
        self._y = X @ sparse + self.noise_sigma * data.normals(n)
        self._X = X
        self.mu = 2.0 * float(self.h_diag.min())
        self.L = 2.0 * float(self.h_diag.max()) + self.lam_reg  # surrogate scale

    def direction(self, theta, token):
        X, y = token
        if X.ndim == 1:
            return (2.0 * (y - float(X @ theta))) * X - self.lam_reg * np.sign(theta)
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
        theta, resid_norm = _fista_lasso(self._X, self._y, self.lam_reg)
        return ReferenceSolution(
            theta_star=theta,
            f_star=self.loss(theta),
            provenance="high-accuracy-solve",
            grad_norm=resid_norm,
        )

    def default_gamma0(self):
        return 1.0 / (2.0 * self.R_sq)


def _fista_lasso(X, y, lam, tol_rel=1e-11, max_iters=200_000):
    """FISTA with gradient-mapping stopping for the lasso reference solve."""
    n, d = X.shape
    gram = 2.0 * X.T @ X / n
    lin = 2.0 * X.T @ y / n
    lam_max, _ = power_iteration_top(gram, tol=1e-12)
    t_step = 1.0 / lam_max

    def prox_grad(v):
        z = v - t_step * (gram @ v - lin)
        return np.sign(z) * np.maximum(np.abs(z) - t_step * lam, 0.0)

    theta = np.zeros(d)
    mom = theta.copy()
    t_acc = 1.0
    tol = tol_rel * max(1.0, norm(lin))
    for _ in range(max_iters):
        theta_new = prox_grad(mom)
        resid = norm(theta_new - mom) / t_step
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc**2))
        mom = theta_new + ((t_acc - 1.0) / t_new) * (theta_new - theta)
        if float((theta_new - theta) @ (mom - theta_new)) > 0.0:
            mom = theta_new.copy()  # adaptive restart
            t_new = 1.0
        theta, t_acc = theta_new, t_new
        if resid <= tol:
            return theta, resid
    raise NonConvergenceError(f"lasso reference: gradient mapping {resid:g} > {tol:g}")


# --------------------------------------------------------- uniformly convex


class UniformlyConvex(Problem):
    """f(θ) = (1/p)||θ||ᵖ with p > 2 and additive N(0, I) gradient noise.

    Not strongly convex (mu = 0); smoothness is certified on a ball of
    radius ``ball_radius`` since the gradient is only locally Lipschitz.
    """

    kind = "uniformly_convex"

    def __init__(self, d, n=0, seed=0, p_exp=2.5, noise_scale=1.0, ball_radius=4.0):
        if n != 0:
            raise ConfigError("uniformly_convex is streaming-only (n = 0)")
        if p_exp <= 2.0:
            raise ConfigError("p_exp must exceed 2")
        super().__init__(d, 0, seed)
        self.p_exp = float(p_exp)
        self.tau_exp = 1.0 - 2.0 / self.p_exp
        self.noise_scale = float(noise_scale)
        self.ball_radius = float(ball_radius)
        self.L = (self.p_exp - 1.0) * self.ball_radius ** (self.p_exp - 2.0)
        self.mu = 0.0
        self.R_sq = None

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
        return ReferenceSolution(
            theta_star=np.zeros(self.d), f_star=0.0, provenance="closed-form"
        )

    def default_gamma0(self):
        return 1.0 / (4.0 * self.L)


# ----------------------------------------------------------------- quadratic


class QuadraticSemiStochastic(Problem):
    """f(θ) = ½θᵀHθ + aᵀθ + c with additive noise independent of θ.

    The gradient oracle Hθ + a + ξ shares ξ across evaluations with the
    same token, which makes the difference of two coupled evaluations
    exactly H(θ₁ - θ₂) up to rounding: the coupling identity.
    """

    kind = "quadratic"

    def __init__(self, d, n=0, seed=0, H=None, a=None, c=0.0, noise_diag=None):
        if n != 0:
            raise ConfigError("quadratic is streaming-only (n = 0)")
        super().__init__(d, 0, seed)
        prm = RngStream(self.seed, _PARAM_STREAM)
        if H is None:
            H = _random_spd(prm, d, lam_lo=0.2, lam_hi=1.0)
        self.H = np.asarray(H, dtype=np.float64)
        if self.H.shape != (d, d):
            raise ConfigError("H must be d x d")
        self._neg_H = -self.H  # (-H) @ θ is -(H @ θ) bit for bit
        lam_min, lam_max, _ = power_iteration_extreme_eigs(self.H, tol=1e-12)
        if lam_min <= 0:
            raise ConfigError("H must be positive definite")
        self.a = np.zeros(d) if a is None else np.asarray(a, dtype=np.float64)
        self.c = float(c)
        if noise_diag is None:
            noise_diag = np.full(d, 0.01)
        diag = np.asarray(noise_diag, dtype=np.float64)
        if diag.ndim == 0:
            diag = np.full(d, float(diag))
        if np.any(diag < 0):
            raise ConfigError("noise variances must be >= 0")
        self.noise_diag = diag
        self._sqrt_noise = np.sqrt(diag)
        self._row_words = normal_words(d)  # per sample
        self.L = lam_max
        self.mu = lam_min
        self.R_sq = float(np.trace(self.H))

    def words_per_token(self, batch=1):
        return batch * self._row_words

    def decode_tokens(self, words, batch):
        z = box_muller(words).reshape(len(words), batch, self._row_words)
        xi = z[..., : self.d] * self._sqrt_noise  # (count, batch, d)
        return xi[:, 0] if batch == 1 else xi.mean(axis=1)

    def direction(self, theta, token):
        return self._neg_H @ theta - self.a - token

    def step_directions(self, thetas, tokens):
        # one gemv per row, as (-H) @ θ makes
        return np.matmul(self._neg_H, thetas[:, :, None])[:, :, 0] - self.a - tokens

    def full_grad(self, theta):
        return self.H @ theta + self.a

    def loss(self, theta):
        return float(0.5 * theta @ (self.H @ theta) + self.a @ theta + self.c)

    def _solve_reference(self):
        theta = np.linalg.solve(self.H, -self.a)
        return ReferenceSolution(
            theta_star=theta,
            f_star=self.loss(theta),
            provenance="closed-form",
            grad_norm=norm(self.H @ theta + self.a),
        )

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
    Per-state maps are A(x) = -(M + 0.5·S(x)) with M a fixed random SPD
    matrix (spectrum in [0.5, 2]) and S(x) perturbations centered under the
    stationary law, so the averaged map is exactly -M and the fixed point
    solves Āθ* + b̄ = 0.
    """

    kind = "lsa"

    def __init__(self, d, n=0, seed=0, n_states=8, perturb_scale=0.5):
        if n != 0:
            raise ConfigError("lsa is streaming-only (n = 0)")
        super().__init__(d, 0, seed)
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
        scale = float(perturb_scale)
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
        self.R_sq = None

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

    def direction(self, theta, state: int):
        """Per-state update direction A(x)θ + b(x)."""
        if not 0 <= state < self.n_states:
            raise ValueError(f"invalid chain state {state}")
        return self.A_table[state] @ theta + self.b_table[state]

    def full_grad(self, theta):
        return -(self.A_bar @ theta + self.b_bar)

    def loss(self, theta):
        """Squared residual of the averaged fixed-point equation."""
        r = self.A_bar @ theta + self.b_bar
        return float(r @ r)

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
