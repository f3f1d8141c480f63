"""Synthetic stochastic objectives with certified constants and references.

Each problem kind exposes the same surface:

- ``direction(theta, token)``: the update direction u in θ ← θ + γu, minus
  a stochastic (sub)gradient for the gradient kinds.  The token carries
  all randomness, so the call is a pure function of ``(theta, token)`` and
  two evaluations with the same token consume identical noise.  That
  property is what makes coupled runs share their per-iteration
  randomness.  The result is a fresh array that shares no memory with θ,
  the token or the problem: the engine and Pflug's controller keep it.
- ``losses``: each kind's one statement of the deterministic objective the
  oracle is unbiased for (empirical mean for dataset-backed kinds,
  population form for streaming kinds), at each row of a (reps, d) stack,
  each row's bits its own; ``loss`` is its one-row case.  ``full_grad`` is
  its gradient (lsa: minus the mean field), on the GLM kinds minus the
  full-batch oracle.
- certified constants ``L`` and ``mu`` (and ``R_sq``, the trace of the
  input covariance, on the GLM kinds) and a lazily solved
  :class:`ReferenceSolution`: each kind's ``_solve_reference`` gives θ* and
  its residual, and ``reference`` computes f* = ``loss(θ*)`` from them, once.

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

Every token costs a fixed number of raw words, ``words_per_token(batch)``.
There is one draw, ``draw_tokens(rngs, sampler_states, count, batch)``: each
of R streams makes one raw call of ``count * words_per_token(batch)`` words,
and the words of all of them are decoded together into one columnar token
block.  That is one array per token part, each with a leading (count, R)
shape: ``(X, y)`` for the GLM kinds, a (count, R, d) noise array for
``quadratic`` and ``uniformly_convex``, and an int array of chain states for
``lsa``, which walks each stream's chain on its own.  Streaming labels are
one ``np.matmul`` per block, one ddot per sample at batch 1 as ``x.dot(θ)``
makes.  :func:`token_columns` takes stream r's (count, …) block out of a
stacked one, and :func:`token_rows` splits a block into tokens, 1-D parts
as Python scalars; token i of column r is bit for bit the i-th of ``count``
single draws from stream r, and ``next_token`` is the R = 1, ``count = 1``
case.  An oracle makes one BLAS call per product, through ``.dot`` or
``np.vecdot``.
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
    row_sq,
    symmetric_eigs,
    uniforms_from,
)

# stream ids reserved for problem-owned randomness
_PARAM_STREAM = 0xA0
_DATA_STREAM = 0xD0
_CALIB_STREAM = 0xCA11B

BALL_RADIUS = 4.0  # uniformly_convex: L is certified on the ball ||θ|| <= BALL_RADIUS
PERTURB_SCALE = 0.5  # lsa: the scale of the per-state perturbations S(x)


@dataclass(frozen=True)
class ReferenceSolution:
    """Minimizer of the objective the runs are scored against.

    ``f_star`` is ``loss(theta_star)``, computed once, by ``Problem.reference``;
    ``grad_norm`` is the solve's residual, 0.0 for a closed form.
    """

    theta_star: np.ndarray
    f_star: float
    grad_norm: float


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


def _gemv_rows(A, rows: np.ndarray) -> np.ndarray:
    """``A @ row`` per row of a (reps, d) stack, one gemv each as ``A.dot(row)``; A may be per row."""
    return np.matmul(A, rows[:, :, None])[:, :, 0]


def _gram(A: np.ndarray) -> np.ndarray:
    """AᵀA, one gemv per column: a dgemm's summation order varies with the BLAS threads."""
    return np.stack([A.T @ A[:, j] for j in range(A.shape[1])], axis=1)


def _fista(x, step, grad, prox):
    """Yield (x, mom − x) after each step of FISTA with gradient restart.

    Accelerated proximal gradient (Beck & Teboulle, SIAM J. Imaging Sci.
    2009): each prox step ``prox(mom − step·grad(mom))`` is taken from the
    momentum point, and mom − x is the gradient mapping there times ``step``.
    The momentum restarts (O'Donoghue & Candès, FoCM 2015) when the step
    x_new − x points against that mapping, (mom − x_new)·(x_new − x) > 0.
    """
    mom, t_acc = x, 1.0
    while True:
        x_new = prox(mom - step * grad(mom))
        mapped = mom - x_new
        yield x_new, mapped
        move = x_new - x
        if move.dot(mapped) > 0.0:  # restart
            mom, t_acc = x_new, 1.0
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
            mom = x_new + ((t_acc - 1.0) / t_new) * move
            t_acc = t_new
        x = x_new


def token_rows(block) -> list:
    """A token block as a list of tokens, one per row; 1-D parts give Python scalars."""
    if isinstance(block, tuple):
        return list(zip(*map(token_rows, block)))
    return block.tolist() if block.ndim == 1 else list(block)


def token_columns(block, index):
    """The stream column ``index`` (an int, or an index array) of a stacked block."""
    if isinstance(block, tuple):
        return tuple(part[:, index] for part in block)
    return block[:, index]


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

    def draw_tokens(self, rngs, sampler_states, count: int, batch: int = 1):
        """Blocks of ``count`` tokens from each of R streams, stacked along a stream axis.

        Each stream makes one raw call of ``count * words_per_token(batch)``
        words, and the words of all of them are decoded in one call, so each
        part has a leading (count, R) shape; column r is stream r's block.
        Returns the block and the sampler states after it, one per stream.
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
        """One token from one stream, and the sampler state after it."""
        block, (sampler_state,) = self.draw_tokens([rng], [sampler_state], 1, batch)
        return token_rows(token_columns(block, 0))[0], sampler_state

    # --- oracle -----------------------------------------------------------

    def direction(self, theta: np.ndarray, token) -> np.ndarray:
        """Update direction u in θ ← θ + γu; gradient kinds return -grad."""
        raise NotImplementedError

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
        """The objective at one iterate: the one-row case of :meth:`losses`."""
        return float(self.losses(theta[None])[0])

    def losses(self, thetas: np.ndarray) -> np.ndarray:
        """The objective at each row of a (reps, d) stack; each row's bits are its own."""
        raise NotImplementedError

    # --- reference & constants --------------------------------------------

    @cached_property
    def reference(self) -> ReferenceSolution:
        theta, residual = self._solve_reference()
        return ReferenceSolution(theta, self.loss(theta), residual)

    def _solve_reference(self) -> tuple[np.ndarray, float]:
        """θ* and the solve's residual."""
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

    Each subclass states its objective once, as ``losses``; ``full_grad``
    is minus the full-batch oracle, ``direction`` over ``_calibration_data``.
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

    def full_grad(self, theta):
        return -self.direction(theta, self._calibration_data)

    @property
    def _calibration_data(self):
        """The (X, y) the objective averages over: the data set."""
        return self._X, self._y

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

    def losses(self, thetas):
        X, y = self._calibration_data
        return np.logaddexp(0.0, -y * _gemv_rows(X, thetas)).mean(axis=1)

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
        _, lam_max, _ = symmetric_eigs(gram)
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
            lam, _, _ = symmetric_eigs(self._hessian(p))
            lam_mins.append(lam)
        return 0.8 * min(lam_mins)  # 0.8 guards the between-sample minimum

    def _solve_reference(self):
        if self.n == 0:
            # the population optimum of a well-specified logistic model is
            # the planted parameter itself
            return self.theta_planted.copy(), 0.0
        return _newton_logistic(self)

    def default_gamma0(self):
        return 4.0 / self.R_sq


def _newton_logistic(problem, gtol_rel=1e-11, max_iters=200):
    """Damped Newton on the problem's full-batch logistic loss to tiny gradient norm."""
    X, y = problem._X, problem._y
    n, d = X.shape
    theta = np.zeros(d)
    gtol = gtol_rel * max(1.0, norm(problem.full_grad(theta)))
    f_cur = problem.loss(theta)
    for _ in range(max_iters):
        grad = problem.full_grad(theta)
        gnorm = norm(grad)
        if gnorm <= gtol:
            return theta, gnorm
        # σ(−y·m) weights: the values of `_hessian`'s σ(m) form, with other bits of θ*
        s = _sigmoid(-y * (X @ theta))
        w = s * (1.0 - s)
        hess = X.T @ (w[:, None] * X) / n
        step = np.linalg.solve(hess + 1e-12 * np.eye(d), grad)
        t = 1.0
        for _ in range(60):
            cand = theta - t * step
            f_cand = problem.loss(cand)
            if f_cand <= f_cur - 1e-4 * t * float(grad @ step):
                theta, f_cur = cand, f_cand
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
        if self.n > 0:
            return super().full_grad(theta)
        return self.h_diag * (theta - self.theta_planted)  # population gradient H(θ - θ_planted)

    def losses(self, thetas):
        if self.n > 0:
            return 0.5 * row_sq(self._y - _gemv_rows(self._X, thetas)) / self.n
        diff = thetas - self.theta_planted
        return 0.5 * np.vecdot(self.h_diag, diff**2) + 0.5 * self.noise_sigma**2

    def _solve_reference(self):
        if self.n == 0:
            return self.theta_planted.copy(), 0.0
        theta = np.linalg.solve(self._X.T @ self._X, self._X.T @ self._y)
        return theta, norm(self.full_grad(theta))

    def default_gamma0(self):
        return 1.0 / (2.0 * self.R_sq)


# --------------------------------------------------------------------- SVM


class Svm(_GlmBase):
    """Hinge loss plus ridge: E max(0, 1 - y⟨x, θ⟩) + (λ/2)||θ||².

    Inputs are N(0, I); labels are the sign of the first coordinate plus
    N(0, 1) noise.  Margin ties (exactly 1) take the zero-hinge subgradient
    so runs stay deterministic.  Strong convexity comes from the ridge
    term: mu = λ exactly.  The reference's ``grad_norm`` is the duality gap of
    :func:`_svm_dual_fista`, at rounding when its KKT point is accepted.
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

    def losses(self, thetas):
        margins = self._y * _gemv_rows(self._X, thetas)
        return np.maximum(0.0, 1.0 - margins).mean(axis=1) + 0.5 * self.lam_reg * row_sq(thetas)

    def _solve_reference(self):
        return _svm_dual_fista(self._X, self._y, self.lam_reg)

    def default_gamma0(self):
        return 4.0 / self.R_sq


def _svm_dual_fista(X, y, lam, gap_tol_rel=1e-9, max_iters=4000):
    """The svm dual by restarted FISTA, finished by an active-set solve.

    With c = 1/(λn), the dual is min over α ∈ [0, 1]ⁿ of
    (c/2)‖Σ αᵢyᵢxᵢ‖² − Σ αᵢ, and θ = c·Σ αᵢyᵢxᵢ.  :func:`_fista` solves it
    with a clip to [0, 1] as prox: the gradient is the margins at θ minus
    one, the step 1/(c·λ_max) of the gram.  After each step,
    :func:`_svm_kkt_point` looks for the exact optimum from the iterate's
    partition of the rows; partitions tried once are not tried again.  The
    relative duality gap is the only acceptance rule: the KKT point is tried
    first, then the iterate's own (θ, α).  The gap is returned with θ; it
    sits at rounding when the KKT point is accepted.
    """
    check_int("max_iters", max_iters, 1)
    c = 1.0 / (lam * X.shape[0])
    # yᵢ = ±1, so the ddot of the row yᵢxᵢ is yᵢ·(xᵢ·θ) to the bit
    Xy = y[:, None] * X
    _, lam_max, _ = symmetric_eigs(_gram(Xy))
    seen = set()
    steps = _fista(np.zeros(X.shape[0]), 1.0 / (c * lam_max),
                   lambda a: Xy @ (c * (a @ Xy)) - 1.0, lambda a: np.clip(a, 0.0, 1.0))
    for _, (alpha, _) in zip(range(max_iters), steps):
        point = _svm_kkt_point(Xy, c, alpha, seen)
        if point is not None:
            gap, tol = _svm_gap(lam, *point, gap_tol_rel)
            if gap <= tol:
                return point[1], gap
        theta = c * (alpha @ Xy)
        gap, tol = _svm_gap(lam, alpha, theta, Xy @ theta, gap_tol_rel)
        if gap <= tol:
            return theta, gap
    raise NonConvergenceError(
        f"svm dual FISTA: duality gap {gap:g} after {max_iters} iterations"
    )


def _svm_gap(lam, alpha, theta, margins, gap_tol_rel):
    """The duality gap of (θ, α) and the tolerance it must meet."""
    reg = 0.5 * lam * float(theta @ theta)
    primal = np.maximum(0.0, 1.0 - margins).mean() + reg
    return primal - (alpha.mean() - reg), gap_tol_rel * max(1.0, abs(primal))


def _svm_kkt_point(Xy, c, alpha, seen):
    """The svm optimum by a primal–dual active-set solve from α's partition.

    Rows are free (F, 0 < α < 1), at one (A) or at zero.  Each round solves
    c·X_F X_Fᵀ α_F = 1 − X_F·(c·Σ_A yᵢxᵢ), which puts the free margins at 1, and
    sets θ = c·(Σ_A yᵢxᵢ + X_Fᵀ α_F); X_F holds the rows yᵢxᵢ of F.  Then a free
    row with α_F ≤ 0 goes to zero and one with α_F ≥ 1 to A, and a row of A with
    margin > 1 or at zero with margin < 1 becomes free (Hintermüller, Ito &
    Kunisch, SIAM J. Optim. 2002).  Returns (α, θ, margins) once no sign is
    violated, or None when a partition is already in ``seen``, more than d
    rows are free or the solve raises LinAlgError.  An exactly singular system
    need not raise (LU may leave a rounding-sized pivot), so the caller's
    duality-gap test is what accepts a point.  Each partition solved on is
    added to ``seen``: the rounds from a partition are fixed, so one that
    failed once fails again.
    """
    d = Xy.shape[1]
    free = (alpha > 0.0) & (alpha < 1.0)
    ones = alpha == 1.0
    while True:
        key = free.tobytes() + ones.tobytes()
        if np.count_nonzero(free) > d or key in seen:
            return None
        seen.add(key)
        X_free = Xy[free]
        bound = Xy[ones].sum(axis=0)
        # one ddot per entry, so the bits do not depend on the BLAS threads
        gram = c * np.vecdot(X_free[:, None], X_free)
        try:
            a_free = np.linalg.solve(gram, 1.0 - X_free @ (c * bound))
        except np.linalg.LinAlgError:
            return None
        theta = c * (bound + a_free @ X_free)
        margins = Xy @ theta
        rows = np.flatnonzero(free)
        to_zero, to_one = rows[a_free <= 0.0], rows[a_free >= 1.0]
        freed = (ones & (margins > 1.0)) | (~free & ~ones & (margins < 1.0))
        if not (to_zero.size or to_one.size or freed.any()):
            alpha = ones.astype(float)
            alpha[free] = a_free
            return alpha, theta, margins
        free = free | freed
        free[to_zero] = free[to_one] = False
        ones = ones & ~freed
        ones[to_one] = True


# -------------------------------------------------------------------- Lasso


class Lasso(_GlmBase):
    """(1/n) Σ (y - ⟨x, θ⟩)² + λ||θ||₁ with an s-sparse planted vector.

    Outputs are y = ⟨x, θ_sparse⟩ + N(0, 1).  The reference θ* comes from
    restarted FISTA with the soft threshold as prox (:func:`_fista_lasso`).
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

    def losses(self, thetas):
        resid = self._y - _gemv_rows(self._X, thetas)
        return row_sq(resid) / self.n + self.lam_reg * np.abs(thetas).sum(axis=1)

    def _solve_reference(self):
        return _fista_lasso(self._X, self._y, self.lam_reg)

    def default_gamma0(self):
        return 1.0 / (2.0 * self.R_sq)


def _fista_lasso(X, y, lam, tol_rel=1e-11, max_iters=200_000):
    """The lasso reference solve: :func:`_fista` with the soft threshold as prox.

    The step is 1/λ_max of the gram matrix.  The loop stops once the gradient
    mapping ‖mom − θ‖/step at the momentum point is within
    ``tol_rel``·max(1, ‖lin‖).
    """
    check_int("max_iters", max_iters, 1)
    n, d = X.shape
    gram = 2.0 * _gram(X) / n
    lin = 2.0 * X.T @ y / n
    _, lam_max, _ = symmetric_eigs(gram)
    t_step = 1.0 / lam_max
    shrink = t_step * lam
    tol = tol_rel * max(1.0, norm(lin))
    steps = _fista(np.zeros(d), t_step, lambda v: gram.dot(v) - lin,
                   lambda z: np.sign(z) * np.maximum(np.abs(z) - shrink, 0.0))
    for _, (theta, mapped) in zip(range(max_iters), steps):
        resid = norm(mapped) / t_step
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

    def losses(self, thetas):
        # a Python float power per row: np.power can round the last bit differently
        return np.array([r ** self.p_exp for r in np.sqrt(row_sq(thetas)).tolist()]) / self.p_exp

    def _solve_reference(self):
        return np.zeros(self.d), 0.0

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
        self.H = _float_array("H", H)
        if self.H.shape != (d, d) or not np.isfinite(self.H).all():
            raise ConfigError("H must be a finite d x d matrix")
        self._neg_H = -self.H  # (-H)θ is -(Hθ) bit for bit
        try:
            lam_min, lam_max, _ = symmetric_eigs(self.H)
        except ValueError as exc:  # numkit's symmetry check
            raise ConfigError(f"H: {exc}") from None
        if lam_min <= 0:
            raise ConfigError("H must be positive definite")
        diag = _float_array("noise_diag", noise_diag)
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
        return _gemv_rows(self._neg_H, thetas) - tokens

    def full_grad(self, theta):
        return self.H @ theta

    def losses(self, thetas):
        return np.vecdot(0.5 * thetas, _gemv_rows(self.H, thetas))

    _solve_reference = UniformlyConvex._solve_reference  # θ* = 0 and f* = 0

    def default_gamma0(self):
        return 1.0 / (2.0 * self.L)


def _float_array(name: str, value) -> np.ndarray:
    """``value`` as a float64 array, or ConfigError naming ``name``."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be an array of reals ({exc})") from None


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
    stationary law, so the averaged map is -M up to rounding at any scale s,
    and the fixed point solves Āθ* + b̄ = 0.  The scale is ``PERTURB_SCALE``.
    μ is minus the top eigenvalue of Ā's symmetric part, which is λ_min(M) >= 0.5
    up to rounding, so the averaged map always contracts.
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
        self.A_table = -(M + PERTURB_SCALE * centered)
        self.A_bar = np.tensordot(self.pi_chain, self.A_table, axes=1)
        _, lam_max_sym, _ = symmetric_eigs(0.5 * (self.A_bar + self.A_bar.T))
        self.b_table = prm.normals(N * d).reshape(N, d)
        self.b_bar = self.pi_chain @ self.b_table
        self._A_rows = list(self.A_table)  # a list index is faster than an ndarray one
        self._b_rows = list(self.b_table)

        self.mu = -lam_max_sym
        _, self.L, _ = symmetric_eigs(M)

    def init_sampler(self, rng: RngStream):
        return int(rng.integers(1, self.n_states)[0])

    def words_per_token(self, batch=1):
        if batch != 1:
            raise ConfigError("lsa follows one Markov chain; batch_size must be 1")
        return 1  # one uniform per transition

    def draw_tokens(self, rngs, sampler_states, count, batch=1):
        """Each stream's chain walks its next ``count`` states on its own; stacked as (count, R)."""
        w = self.words_per_token(batch)
        blocks, states = [], []
        for rng, state in zip(rngs, sampler_states):
            walk = []
            for u in uniforms_from(rng.raw(count * w)).tolist():
                walk.append(state)
                state = min(bisect_right(self._cum_P[state], u), self.n_states - 1)
            blocks.append(walk)
            states.append(state)
        return np.array(blocks, dtype=int).T, states

    def direction(self, theta, state: int):
        """Per-state update direction A(x)θ + b(x)."""
        if not 0 <= state < self.n_states:
            raise ValueError(f"invalid chain state {state}")
        return self._A_rows[state].dot(theta) + self._b_rows[state]

    def step_directions(self, thetas, states):
        return _gemv_rows(self.A_table[states], thetas) + self.b_table[states]

    def full_grad(self, theta):
        """Minus the mean field Āθ + b̄; not the gradient of :meth:`losses`."""
        return -(self.A_bar @ theta + self.b_bar)

    def losses(self, thetas):
        """Squared residual of the averaged fixed-point equation."""
        return row_sq(_gemv_rows(self.A_bar, thetas) + self.b_bar)

    def _solve_reference(self):
        theta = np.linalg.solve(self.A_bar, -self.b_bar)
        resid = norm(self.full_grad(theta))
        if resid > 1e-10:
            raise NonConvergenceError(f"lsa fixed point residual {resid:g}")
        return theta, resid

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
    if not isinstance(kind, str) or kind not in _KIND_CLASSES:
        raise ConfigError(f"unknown problem kind {kind!r}; one of {sorted(_KIND_CLASSES)}")
    try:
        return _KIND_CLASSES[kind](d=d, n=n, seed=seed, **overrides)
    except TypeError as exc:
        raise ConfigError(f"bad overrides for kind {kind!r}: {exc}") from exc
