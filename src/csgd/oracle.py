"""Closed-form theory quantities and brute-force ground-truth estimators.

Everything here is independent of the controller implementations: these
functions are the reference side of the dual-route checks used by the
verification suite and the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, check_int, check_real
from .numkit import as_mat, as_vec, norm, symmetric_eigs

D0_PROJECTION_FLOOR = 1e-12
STREAM_BASE = 0x5EA7  # stationary_error_estimate: the stream id of its first chain


def contraction_rate(gamma: float, mu: float, L: float) -> float:
    """Per-step contraction factor 1 - 2γμ(1 - γL/2) of the iterate law.

    Valid for finite L > 0, μ >= 0 and γ in (0, 2/L), else ConfigError;
    strictly below 1 there whenever μ > 0, and minimized at γ = 1/L.
    """
    check_real("L", L, 0.0, strict=True)
    check_real("mu", mu, 0.0)
    check_real("gamma", gamma, 0.0, strict=True)
    if not gamma < 2.0 / L:
        raise ConfigError(f"gamma={gamma} outside (0, 2/L) with L={L}")
    return 1.0 - 2.0 * gamma * mu * (1.0 - gamma * L / 2.0)


def gamma0_bound(L: float, mu: float) -> float:
    """Stepsize cap min{1/(4L), 2L/μ} under which the coupled lower bound holds.

    L and μ must be finite and > 0, else ConfigError.
    """
    check_real("L", L, 0.0, strict=True)
    check_real("mu", mu, 0.0, strict=True)
    return min(1.0 / (4.0 * L), 2.0 * L / mu)


def theorem1_floor(gamma: float, L: float, mu: float, k: int) -> float:
    """Lower-bound factor ϱ^k with ϱ = 1 - 2γL + γ²μ² for the coupled distance."""
    check_int("k", k, 0)
    gamma0 = gamma0_bound(L, mu)
    check_real("gamma", gamma, 0.0, strict=True)
    if not gamma <= gamma0:
        raise ConfigError(f"gamma={gamma} outside (0, {gamma0}]")
    varrho = 1.0 - 2.0 * gamma * L + gamma**2 * mu**2
    return varrho**k


def dk_closed_form_series(H, gamma: float, D0, ks) -> list[float]:
    """Deterministic coupled-distance values D0ᵀ(I - γH)^{2k} D0 at ascending iterations ``ks``.

    (I - γH) is applied to D0 once per step, stable for γ ∈ (0, 1/λ_max);
    another γ, a k not an integer >= 0 or a descending ``ks`` is a ConfigError.
    """
    Hm = as_mat(H)
    v = as_vec(D0, Hm.shape[0]).copy()
    _, lam_max, _ = symmetric_eigs(Hm)
    check_real("gamma", gamma, 0.0, strict=True)
    if not gamma < 1.0 / lam_max:
        raise ConfigError(f"gamma={gamma} outside (0, 1/L) with L={lam_max}")
    ks = list(ks)
    for i, k in enumerate(ks):
        check_int(f"ks[{i}]", k, 0)
    if any(b < a for a, b in zip(ks, ks[1:])):
        raise ConfigError("iteration list must be ascending")
    out = []
    prev = 0
    for k in ks:
        for _ in range(k - prev):
            v -= gamma * (Hm @ v)
        prev = k
        out.append(float(v @ v))
    return out


@dataclass
class Lemma1Report:
    """Grid evaluation of (1 - γμ)^{k0} ≤ 1 - 2γL + γ²μ on [0, γ0]."""

    L: float
    mu: float
    gamma0: float
    k0: float
    grid_size: int
    worst_margin: float
    worst_gamma: float
    passed: bool


def lemma1_check(L: float, mu: float, grid_size: int = 10_000) -> Lemma1Report:
    """Check (1 - γμ)^{4L/μ} ≤ 1 - 2γL + γ²μ over a uniform γ-grid.

    Note the right-hand side carries γ²μ (first power of μ), matching the
    stated inequality; the coupled-distance floor uses γ²μ² instead.  Both
    are implemented as written.  L and μ must be finite, with 0 < μ <= L,
    else ConfigError.
    """
    check_real("L", L, 0.0, strict=True)
    check_real("mu", mu, 0.0, strict=True)
    if not mu <= L:
        raise ConfigError("need 0 < mu <= L")
    check_int("grid_size", grid_size, 2)  # a grid over [0, γ0] holds both ends
    gamma0 = gamma0_bound(L, mu)
    k0 = 4.0 * L / mu
    gammas = np.linspace(0.0, gamma0, grid_size)
    lhs = (1.0 - gammas * mu) ** k0
    rhs = 1.0 - 2.0 * gammas * L + gammas**2 * mu
    margins = rhs - lhs
    worst = int(np.argmin(margins))
    worst_margin = float(margins[worst])
    return Lemma1Report(
        L=L,
        mu=mu,
        gamma0=gamma0,
        k0=k0,
        grid_size=grid_size,
        worst_margin=worst_margin,
        worst_gamma=float(gammas[worst]),
        passed=worst_margin >= -1e-12,
    )


def proximity_ratio_quadratic(H, gamma: float, D0, k: int) -> float:
    """Coupled distance normalized by the D0-projection on the top direction.

    The normalizer is (D0ᵀ q_max)² where q_max is the top eigenvector of
    I - γH, i.e. the eigenvector for the smallest eigenvalue of H.  Raises
    ConfigError when D0 is (numerically) orthogonal to that direction, where
    the ratio is undefined.
    """
    check_int("k", k, 0)
    Hm = as_mat(H)
    D0v = as_vec(D0, Hm.shape[0])
    d = Hm.shape[0]
    check_real("gamma", gamma, 0.0, strict=True)
    _, _, q_max = symmetric_eigs(np.eye(d) - gamma * Hm)
    proj = float(D0v @ q_max)
    if abs(proj) <= D0_PROJECTION_FLOOR * norm(D0v):
        raise ConfigError(
            "initial difference vector is orthogonal to the top eigendirection"
        )
    return dk_closed_form_series(Hm, gamma, D0v, [k])[0] / proj**2


@dataclass
class StationaryEstimate:
    """Monte-Carlo estimate of the saturated squared error at a fixed stepsize."""

    mean: float
    stderr: float
    ci_halfwidth: float  # 3 standard errors
    per_rep: list[float] = field(default_factory=list)


def stationary_error_estimate(
    problem,
    gamma: float,
    horizon: int,
    tail_frac: float = 0.2,
    reps: int = 10,
    seed: int = 0,
) -> StationaryEstimate:
    """Estimate the stationary E||θ - θ*||² by long constant-stepsize runs.

    Runs ``reps`` independent chains in lockstep (``engine.run_replicates``),
    chain i on stream ``STREAM_BASE + i`` of ``seed``, averages the squared
    error over the final ``tail_frac`` of iterations of each, and aggregates
    across chains.
    Requires a strongly convex problem, an integer ``horizon`` >= 1, a real
    ``gamma`` in (0, 2/L) and a real ``tail_frac`` in (0, 1) that leaves at
    least one step in the tail, or raises ConfigError; on streaming least
    squares, also a γ at which the second moment has a fixed point (see the
    check below), else ConfigError before any draw; and a horizon long
    enough that the certified contraction rate flushes the transient before
    the tail starts, or raises ConfigError.  A chain that diverges
    raises ConfigError naming the first failed chain's stream and failure.
    """
    from .controllers import ControllerParams, make_controller
    from .engine import EngineConfig, run_replicates
    from .numkit import RngStream

    check_int("horizon", horizon, 1)
    check_real("gamma", gamma, 0.0, strict=True)
    check_real("tail_frac", tail_frac, 0.0, strict=True, most=1.0, strict_most=True)
    check_int("reps", reps, 1)
    check_int("seed", seed, 0)
    if problem.mu <= 0.0:
        raise ConfigError("stationary error estimation needs a strongly convex kind")
    burn = int(horizon * (1.0 - tail_frac))
    if burn >= horizon:
        raise ConfigError(f"tail_frac={tail_frac!r} leaves no step of the {horizon}-step "
                          "horizon in the tail")
    rho = contraction_rate(gamma, problem.mu, problem.L)
    if problem.kind == "least_squares" and problem.n == 0:
        # x ~ N(0, H), H = diag(h), at batch 1: E||θ - θ*||² has a fixed point only
        # when every γh_i < 1 and a = Σ γh_i / (2(1 - γh_i)) < 1 (Défossez & Bach, 2015)
        gh = gamma * problem.h_diag
        a = float((gh / (2.0 * (1.0 - gh))).sum()) if (gh < 1.0).all() else math.inf
        if not a < 1.0:
            raise ConfigError(f"gamma={gamma:g} makes the second moment of streaming least "
                              f"squares diverge: sum gamma*h/(2(1 - gamma*h)) = {a:.6g} >= 1")
    if rho ** max(burn, 1) >= 1e-3:
        raise ConfigError(
            f"rho={rho:.6g} over {burn} burn-in iterations leaves "
            f"{rho**burn:.3g} > 1e-3 of the transient"
        )
    controller = make_controller(ControllerParams(kind="fixed", schedule=("constant", gamma)))
    cfg = EngineConfig(
        n_iters=horizon,
        trace_stride=horizon,  # only the tail accumulator matters
        tail_from=burn + 1,
    )
    rngs = [RngStream(seed, STREAM_BASE + rep) for rep in range(reps)]
    traces = run_replicates(problem, controller, cfg, rngs)
    for rep, trace in enumerate(traces):
        if trace.failure is not None:
            raise ConfigError(f"chain {rep} (stream {STREAM_BASE + rep:#x} of seed {seed}) "
                              f"failed at gamma={gamma:g}: {trace.failure}")
    per_rep = [trace.summary["tail_mean_err"] for trace in traces]
    arr = np.asarray(per_rep)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return StationaryEstimate(
        mean=mean, stderr=stderr, ci_halfwidth=3.0 * stderr, per_rep=per_rep
    )
