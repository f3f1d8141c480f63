"""Stepsize controllers: coupled-distance diagnostics, baselines, schedules.

Each controller is a state machine that the engine shows every
iteration once, as ``observe(k, theta1, d_sq, direction)``; ``observe``
returns the step's statistic (nan when there is none).  A decay is a new
phase, started by ``_decay(k)`` at the step k that fires it: it raises
``phase_index`` by one, computes the phase's stepsize ``gamma`` and
restarts the phase clock at k.  The engine, seeing ``phase_index`` go up,
moves to ``gamma`` and, for a controller that ``needs_coupling``,
re-initializes θ2.  The stepsize after m decays is ``gamma0 * r**m``, and
the coupling threshold ``beta0 * eta**m``; neither comes from cumulative
multiplication, so phase algebra is exact.  The ``fixed`` kind follows one
of the ``SCHEDULES`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DegenerateDiagnosticError, check_int, check_real

D0_FLOOR = 1e-300  # positivity floor for the coupled-distance reference
RELAXATION_CAP = 10_000
SLOPE_THRESHOLD = 0.5  # distance: decay below this log-log slope
CHECKPOINT_RATIO = 1.5  # distance: geometric checkpoint spacing


def relaxation_steps(gamma: float, mu: float | None) -> int:
    """Steps for the mean of SGD at stepsize γ to relax: 2/(γμ), capped at 1e4.

    The slowest mode of the mean contracts like (1 - γμ)^k, so 2/(γμ) steps
    are two e-folding times.  Without a positive γμ the time is unbounded and
    the cap applies.
    """
    if mu is None or not gamma * mu > 0.0:
        return RELAXATION_CAP
    steps = 2.0 / (gamma * mu)  # inf when γμ is subnormal
    return int(steps) if steps < RELAXATION_CAP else RELAXATION_CAP


@dataclass(frozen=True)
class ControllerParams:
    """Knobs of every controller kind; each kind reads only some of them.

    Every kind but ``fixed`` reads ``gamma0``, ``r`` and ``burn_in``;
    ``fixed`` reads ``schedule`` alone.  The coupling kinds read ``beta0``,
    and ``coupling_adaptive`` also ``eta``.  The engine reads ``b``, the
    steps back θ2 restarts from, in any run that tracks the coupling.
    """

    kind: str = "coupling_static"
    gamma0: float | None = None  # None: filled from the problem default
    r: float = 0.5
    b: int = 100
    beta0: float = 1e-2
    eta: float = 0.75
    # steps before the diagnostic may fire, counted from each phase start
    # (k = 0, then the k of each decay).  None: Pflug auto 2/(γ0 μ) capped
    # at 1e4, 0 for the others.  Given the problem's μ, distance
    # also waits 2/(γ_m μ) in phase m (see DistanceController).
    burn_in: int | None = 0
    schedule: tuple | None = None  # fixed kind: (name, *constants)

    def validate(self):
        if self.kind not in CONTROLLERS:
            raise ConfigError(f"unknown controller kind {self.kind!r}")
        if self.gamma0 is not None:
            check_real("gamma0", self.gamma0, 0.0, strict=True)
        check_real("r", self.r, 0.0, strict=True, most=1.0, strict_most=True)
        check_real("beta0", self.beta0, 0.0, strict=True, most=1.0, strict_most=True)
        check_real("eta", self.eta, 0.0, strict=True, most=1.0)
        check_int("b", self.b, 0)
        if self.burn_in is not None:
            check_int("burn_in", self.burn_in, 0)
        if self.kind == "fixed":
            if not isinstance(self.schedule, (tuple, list)) or not self.schedule:
                raise ConfigError(f"fixed controller needs a (name, *constants) schedule, "
                                  f"got {self.schedule!r}")
            resolve_schedule(*self.schedule)
        return self


class Controller:
    """Base: fixed stepsize, never decays; ``mu_hint`` is the problem's μ or None."""

    needs_coupling = False
    reads_mu = False  # make_controller asks for the problem's μ (it may take solves) only if set

    def __init__(self, params: ControllerParams, mu_hint: float | None = None):
        params.validate()
        if params.gamma0 is None:
            raise ConfigError("gamma0 unset; make_controller fills it from a problem")
        if params.burn_in is None:
            burn_in = relaxation_steps(params.gamma0, mu_hint) if params.kind == "pflug" else 0
            params = replace(params, burn_in=burn_in)
        self.params = params
        self.phase_index = 0  # decays so far
        self.gamma = params.gamma0
        self._phase_start = 0  # the k the current phase started at

    def _decay(self, k: int) -> None:
        """Start the next phase at step k: its index, its stepsize, its clock."""
        self.phase_index += 1
        self.gamma = self.params.gamma0 * self.params.r**self.phase_index
        self._phase_start = k

    def stepsize(self, k: int) -> float:
        """Stepsize to use for iteration k (1-based)."""
        return self.gamma

    def observe(self, k: int, theta1: np.ndarray, d_sq: float | None,
                direction: np.ndarray | None) -> float:
        """See step k: θ1 after it, ||θ1 - θ2||² when coupled, the update direction.

        Returns the statistic, nan when there is none; a decay calls ``_decay(k)``.
        """
        return math.nan

    def rearm(self, d0_sq: float) -> None:
        """Receive the (re-)initialized coupled-distance reference."""


class CouplingController(Controller):
    """Coupled-distance diagnostic: decay when S = ||D_k||²/||D_0||² < β.

    The reference ||D_0||² is phase-initial: the engine re-arms it after
    every re-initialization of the auxiliary iterate.  The adaptive variant
    (``coupling_adaptive``) also shrinks the threshold by η at each decay.
    The trigger uses a strict inequality; ties continue.  The burn-in counts
    from the start of each phase.
    """

    needs_coupling = True

    def __init__(self, params: ControllerParams, mu_hint: float | None = None):
        super().__init__(params, mu_hint)
        self.d0_sq: float | None = None
        self.beta = params.beta0

    def _decay(self, k: int) -> None:
        super()._decay(k)  # and the adaptive threshold, once
        if self.params.kind == "coupling_adaptive":
            self.beta = self.params.beta0 * self.params.eta**self.phase_index

    def rearm(self, d0_sq: float) -> None:
        self.d0_sq = d0_sq

    def observe(self, k, theta1, d_sq, direction):
        if self.d0_sq is None or not self.d0_sq > D0_FLOOR:
            raise DegenerateDiagnosticError(
                "coupled-distance reference is unset or not positive"
            )
        stat = d_sq / self.d0_sq
        if k - self._phase_start > self.params.burn_in and stat < self.beta:
            self._decay(k)
        return stat


class PflugController(Controller):
    """Running mean of successive stochastic-gradient inner products.

    A negative mean signals that successive steps have stopped pointing the
    same way, i.e. the iterates bounce around stationarity.  On decay the
    accumulator and the burn-in clock reset; the previous direction is kept,
    so the first step of a phase pairs with the last of the one before.  The
    first observation has no previous direction and no statistic.  Needs a
    burn-in: the statistic is extremely noisy early on.  ``burn_in=None``
    picks 2/(γμ) capped at 1e4 from the problem's certified curvature.
    """

    reads_mu = True

    def __init__(self, params: ControllerParams, mu_hint: float | None = None):
        super().__init__(params, mu_hint)
        self._sum = 0.0
        self._count = 0
        self._prev: np.ndarray | None = None

    def observe(self, k, theta1, d_sq, direction):
        prev, self._prev = self._prev, direction
        if prev is None:
            return math.nan
        # directions are negated gradients, so the inner product matches
        self._sum += float(direction.dot(prev))
        self._count += 1
        stat = self._sum / self._count
        if k - self._phase_start > self.params.burn_in and stat < 0.0:
            self._decay(k)
            self._sum = 0.0
            self._count = 0
        return stat


class DistanceController(Controller):
    """Log-log growth rate of ||θ_k - θ_anchor||² at geometric checkpoints.

    While the iterates drift, the squared distance to the phase anchor
    grows roughly linearly (slope ≈ 1 on log-log axes); when it saturates
    the slope collapses.  Decay when the slope between the last two
    checkpoints drops below ``SLOPE_THRESHOLD``; then re-anchor at the
    current iterate and restart the checkpoint ladder.

    Every phase, the first included, is anchored at the iterate of its
    first observation, and its clock k_rel counts steps from that same
    observation, so Ω at k_rel is the distance covered in k_rel steps.
    No checkpoint is taken while k_rel <= the phase's burn-in.  That is
    ``burn_in``, or, when the problem's curvature ``mu_hint`` is given,
    at least the relaxation time of the phase's stepsize,
    ``relaxation_steps(γ_m, μ)`` (Pflug's ``burn_in=None`` rule, here
    recomputed at every phase): Ω cannot saturate before the mean has
    relaxed, and a slope read earlier measures step noise.
    """

    reads_mu = True

    def __init__(self, params: ControllerParams, mu_hint: float | None = None):
        super().__init__(params, mu_hint)
        self._mu_hint = mu_hint
        self._anchor: np.ndarray | None = None
        self._restart_ladder()

    def _restart_ladder(self) -> None:
        self._j = 1
        self._next_checkpoint = self._checkpoint_after(0)
        self._prev: tuple[int, float] | None = None
        self._burn_in = self.params.burn_in
        if self._mu_hint is not None:
            self._burn_in = max(self._burn_in, relaxation_steps(self.gamma, self._mu_hint))

    def _checkpoint_after(self, k_rel: int) -> int:
        while True:
            cand = math.ceil(CHECKPOINT_RATIO**self._j)
            self._j += 1
            if cand > k_rel:
                return cand

    def observe(self, k, theta1, d_sq, direction):
        if self._anchor is None:
            self._anchor = theta1.copy()
            self._phase_start = k
            return math.nan
        k_rel = k - self._phase_start
        if k_rel < self._next_checkpoint or k_rel <= self._burn_in:
            return math.nan
        self._next_checkpoint = self._checkpoint_after(k_rel)
        diff = theta1 - self._anchor
        omega = float(diff.dot(diff))
        if omega == 0.0:
            return math.nan  # cannot take log; skip checkpoint
        if self._prev is None:
            self._prev = (k_rel, omega)
            return math.nan
        k_prev, omega_prev = self._prev
        slope = (math.log(omega) - math.log(omega_prev)) / (
            math.log(k_rel) - math.log(k_prev)
        )
        self._prev = (k_rel, omega)
        if slope < SLOPE_THRESHOLD:
            self._decay(k)
            self._anchor = theta1.copy()
            self._restart_ladder()
        return slope


# fixed schedules: name -> factory of the function of k >= 1 from the float
# constants, the first required and the rest optional (see resolve_schedule)
SCHEDULES = {
    "constant": lambda gamma: lambda k: gamma,
    "inv_sqrt": lambda C: lambda k: C / math.sqrt(k),
    "inv_mu_k": lambda mu: lambda k: 1.0 / (mu * k),
    "uniform_opt": lambda tau, scale=1.0: lambda k: scale * k ** (-1.0 / (tau + 1.0)),
}


def resolve_schedule(name: str, *constants):
    """The schedule ``name`` as a function of k >= 1, its constants converted once.

    constant(γ); inv_sqrt(C): C/√k; inv_mu_k(μ): 1/(μk);
    uniform_opt(τ[, scale]): scale·k^(-1/(τ+1)).  ConfigError unless ``name``
    is in ``SCHEDULES`` with 1 to as many constants as its factory takes,
    each finite and > 0 (τ >= 0).
    """
    if not isinstance(name, str) or name not in SCHEDULES:
        raise ConfigError(f"unknown schedule kind {name!r}")
    most = SCHEDULES[name].__code__.co_argcount
    if not 1 <= len(constants) <= most:
        raise ConfigError(f"schedule {name!r} takes 1 to {most} constants, got {len(constants)}")
    for i, c in enumerate(constants):
        tau = name == "uniform_opt" and i == 0
        check_real(f"schedule {name!r} constant {i}", c, 0.0, strict=not tau)
    return SCHEDULES[name](*map(float, constants))


class FixedScheduleController(Controller):
    """Wraps a deterministic stepsize schedule, resolved once; never decays."""

    def __init__(self, params: ControllerParams, mu_hint: float | None = None):
        # gamma0 is irrelevant here but the base class wants positivity
        if params.gamma0 is None:
            params = replace(params, gamma0=1.0)
        super().__init__(params, mu_hint)
        self._schedule = resolve_schedule(*params.schedule)

    def stepsize(self, k: int) -> float:
        if k < 1:
            raise ConfigError("schedules are defined for k >= 1")
        return self._schedule(k)


CONTROLLERS = {
    "coupling_static": CouplingController,
    "coupling_adaptive": CouplingController,
    "pflug": PflugController,
    "distance": DistanceController,
    "fixed": FixedScheduleController,
}


def make_controller(params: ControllerParams, problem=None) -> Controller:
    """Validate, look up the kind's class, fill ``gamma0`` unless the kind is ``fixed``, build.

    ``gamma0=None`` takes the problem's conventional initial stepsize, and a
    class that ``reads_mu`` (Pflug, distance) gets the problem's curvature ``mu``.
    """
    cls = CONTROLLERS[params.validate().kind]
    if params.gamma0 is None and params.kind != "fixed":
        if problem is None:
            raise ConfigError("gamma0 unset and no problem to derive it from")
        params = replace(params, gamma0=problem.default_gamma0())
    return cls(params, mu_hint=getattr(problem, "mu", None) if cls.reads_mu else None)
