"""The coupled SGD loop.

Advances one or two iterates; when coupled, both evaluations of an
iteration share a single token, i.e. the same minibatch or noise draw.
Maintains the ring buffer of recent auxiliary iterates for backward
re-initialization, applies controller decisions atomically between steps,
and records a :class:`RunTrace`.

Order of events inside iteration k: step both iterates with the current
stepsize, let the controller observe, then (on a decay decision) update the
stepsize/threshold and re-initialize the auxiliary iterate before the next
step begins.

Tokens come from a :class:`TokenBuffer`, which draws up to ``CHUNK`` of
them at a time from one raw block of the run's stream.  Each problem kind
spends a fixed number of raw words per token, so a run sees the same tokens
as if it drew them one by one.  The stream runs ahead of the tokens used by
at most one block and never past the last iteration.  Where a run leaves
the token sequence (the degenerate re-arm draw, a divergence stop) the
buffer is resynced: the stream goes back to the counter that token-by-token
drawing would have reached, and ``rng.counter`` on return is that counter.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .controllers import Controller, Observation
from .errors import ConfigError
from .numkit import RngStream

D0_REARM_FLOOR_REL = 1e-12
CHUNK = 256  # tokens decoded per raw block


@dataclass
class EngineConfig:
    n_iters: int
    batch_size: int = 1
    averaging: bool = False
    trace_stride: int = 100
    init_offset_scale: float = 1.0
    init_theta: np.ndarray | None = None
    track_coupling: bool | None = None  # None: follow the controller's need
    divergence_threshold: float = 1e12
    tail_from: int | None = None  # accumulate mean err over k >= tail_from

    def __post_init__(self):
        if self.n_iters < 0:
            raise ValueError("n_iters must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.trace_stride < 1:
            raise ValueError("trace_stride must be >= 1")


@dataclass
class RestartEvent:
    k: int
    old_gamma: float
    new_gamma: float
    statistic: float


@dataclass
class CoupledState:
    """Mutable loop state; exclusively owned by one run."""

    theta1: np.ndarray
    theta2: np.ndarray | None
    k: int = 0
    d0_sq: float | None = None
    history: deque | None = None  # last b+1 auxiliary iterates, newest last
    avg1: np.ndarray | None = None
    last_direction: np.ndarray | None = None


@dataclass
class RunTrace:
    """Columnar per-stride records plus the restart log and a summary."""

    ks: list[int] = field(default_factory=list)
    gammas: list[float] = field(default_factory=list)
    stats: list[float] = field(default_factory=list)
    errs: list[float] = field(default_factory=list)  # ||θ1 - θ*||²
    d_sqs: list[float] = field(default_factory=list)  # ||θ1 - θ2||² (nan if uncoupled)
    avg_errs: list[float] = field(default_factory=list)  # ||θ̄ - θ*||²
    avg_fgaps: list[float] = field(default_factory=list)  # f(θ̄) - f*
    restart_flags: list[bool] = field(default_factory=list)
    restart_log: list[RestartEvent] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    failure: str | None = None

    def metrics(self) -> dict[str, list[float]]:
        """Metric name -> per-record values (only populated metrics)."""
        out = {"err": self.errs, "gamma": self.gammas, "stat": self.stats}
        if any(not math.isnan(v) for v in self.d_sqs):
            out["d_sq"] = self.d_sqs
        if self.avg_errs:
            out["avg_err"] = self.avg_errs
            out["avg_fgap"] = self.avg_fgaps
        return out

    def to_dict(self) -> dict:
        return asdict(self)


class TokenBuffer:
    """A run's tokens, drawn up to ``CHUNK`` at a time from one raw block.

    ``remaining`` counts the tokens the run has yet to take, so a refill
    never draws past the last iteration.  ``sampler_state`` is the problem's
    sampler state after the last token drawn; set it from ``init_sampler``
    before the first token.
    """

    def __init__(self, problem, rng: RngStream, batch: int, remaining: int):
        self.problem = problem
        self.rng = rng
        self.batch = batch
        self.remaining = remaining
        self.sampler_state = None
        self._tokens: list = []
        self._pos = 0
        self._block_start = (rng.counter, None)  # stream counter and sampler state

    def next(self):
        """The run's next token."""
        if self._pos == len(self._tokens):
            count = min(CHUNK, self.remaining)
            self._block_start = (self.rng.counter, self.sampler_state)
            self._tokens, self.sampler_state = self.problem.draw_tokens(
                self.rng, self.sampler_state, count, self.batch
            )
            self.remaining -= count
            self._pos = 0
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def resync(self) -> RngStream:
        """Drop the tokens not yet taken and rewind the stream to match.

        The stream goes back to the start of the block and redraws the
        tokens already taken, so both its counter and the sampler state end
        where token-by-token drawing would have left them.  Returns the
        stream, ready for an out-of-band draw.
        """
        unused = len(self._tokens) - self._pos
        if unused:
            counter, sampler_state = self._block_start
            self.rng.seek(counter)
            _, self.sampler_state = self.problem.draw_tokens(
                self.rng, sampler_state, self._pos, self.batch
            )
            self.remaining += unused
        self._tokens, self._pos = [], 0
        return self.rng


def coupled_step(state: CoupledState, problem, gamma: float, token) -> float | None:
    """Advance the pair by one iteration with shared noise.

    Returns ||θ1 - θ2||² after the step when coupled, else None.  The same
    token feeds both oracle evaluations, so for additive-noise quadratics
    the difference contracts deterministically.
    """
    u1 = problem.step_direction(state.theta1, token)
    state.theta1 = state.theta1 + gamma * u1
    d_sq = None
    if state.theta2 is not None:
        u2 = problem.step_direction(state.theta2, token)
        state.theta2 = state.theta2 + gamma * u2
        state.history.append(state.theta2)
        diff = state.theta1 - state.theta2
        d_sq = float(diff @ diff)
    state.k += 1
    state.last_direction = u1
    return d_sq


def rearm_auxiliary(state: CoupledState, theta2: np.ndarray, b: int, gamma: float,
                    tokens: TokenBuffer) -> float:
    """Set θ2, restart its history and return the new reference ||θ1 - θ2||².

    If that difference is degenerate (below 1e-12·max(1, ||θ1||²)), θ2 is
    instead perturbed off θ1 by √γ·N(0, I) — the scale of the stationary
    fluctuation radius — so the diagnostic stays well defined.  The
    perturbation is drawn out of band, after resyncing the token buffer.
    """
    diff = state.theta1 - theta2
    d0_sq = float(diff @ diff)
    floor = D0_REARM_FLOOR_REL * max(1.0, float(state.theta1 @ state.theta1))
    if d0_sq <= floor:
        rng = tokens.resync()
        while d0_sq <= floor:
            theta2 = state.theta1 + math.sqrt(gamma) * rng.normals(state.theta1.shape[0])
            diff = state.theta1 - theta2
            d0_sq = float(diff @ diff)
    state.theta2 = theta2
    state.history = deque([theta2], maxlen=b + 1)
    state.d0_sq = d0_sq
    return d0_sq


def reinit_auxiliary(state: CoupledState, b: int, gamma: float, tokens: TokenBuffer) -> float:
    """Reset θ2 to its value b steps back and re-arm the distance reference.

    Uses the oldest stored iterate when fewer than b are available; see
    :func:`rearm_auxiliary` for the degenerate case.
    """
    hist = state.history
    idx = 0 if len(hist) <= b else len(hist) - 1 - b
    return rearm_auxiliary(state, hist[idx].copy(), b, gamma, tokens)


def update_average(state: CoupledState) -> None:
    """Numerically stable running mean over the first k iterates."""
    state.avg1 += (state.theta1 - state.avg1) / state.k


def run(problem, controller: Controller, cfg: EngineConfig, rng: RngStream) -> RunTrace:
    """Execute n_iters coupled-SGD iterations under one controller.

    Bit-deterministic given (problem, controller params, cfg, stream).  On
    divergence the trace collected so far is returned with ``failure`` set.
    A controller that needs coupling with ``track_coupling=False`` raises
    ConfigError before the first step.
    """
    d = problem.d
    theta_star = problem.theta_star
    coupled = (
        cfg.track_coupling
        if cfg.track_coupling is not None
        else controller.needs_coupling
    )
    if controller.needs_coupling and not coupled:
        raise ConfigError(
            f"controller {controller.params.kind!r} reads the coupled distance; "
            "it cannot run with track_coupling=False"
        )
    b = controller.params.b

    theta1 = (
        np.zeros(d) if cfg.init_theta is None else np.asarray(cfg.init_theta, float).copy()
    )
    state = CoupledState(theta1=theta1, theta2=None)
    tokens = TokenBuffer(problem, rng, cfg.batch_size, cfg.n_iters)
    if coupled:
        offset = cfg.init_offset_scale * rng.normals(d)
        d0_sq = rearm_auxiliary(state, state.theta1 + offset, b, controller.stepsize(1), tokens)
        controller.rearm(d0_sq)
    if cfg.averaging:
        state.avg1 = state.theta1.copy()
    tokens.sampler_state = problem.init_sampler(rng)

    trace = RunTrace()
    restarted_since_record = False
    prev_direction = None
    tail_sum = 0.0
    tail_count = 0

    def record(k: int, gamma: float, stat: float, d_sq: float | None):
        diff = state.theta1 - theta_star
        trace.ks.append(k)
        trace.gammas.append(gamma)
        trace.stats.append(stat)
        trace.errs.append(float(diff @ diff))
        trace.d_sqs.append(math.nan if d_sq is None else d_sq)
        if cfg.averaging:
            adiff = state.avg1 - theta_star
            trace.avg_errs.append(float(adiff @ adiff))
            trace.avg_fgaps.append(problem.loss(state.avg1) - problem.f_star)
        trace.restart_flags.append(restarted_since_record)

    for k in range(1, cfg.n_iters + 1):
        gamma = controller.stepsize(k)
        d_sq = coupled_step(state, problem, gamma, tokens.next())
        if cfg.averaging:
            update_average(state)

        norm1_sq = float(state.theta1 @ state.theta1)
        if not math.isfinite(norm1_sq) or norm1_sq > cfg.divergence_threshold:
            trace.failure = f"divergence at k={k} (||theta1||^2={norm1_sq:g})"
            record(k, gamma, math.nan, d_sq)
            tokens.resync()
            break

        obs = Observation(
            k=k,
            theta1=state.theta1,
            theta2=state.theta2,
            d_sq=d_sq,
            direction=state.last_direction,
            prev_direction=prev_direction,
        )
        prev_direction = state.last_direction
        decision = controller.observe(obs)
        if decision.decay:
            old_gamma = gamma
            if decision.reinit and coupled:
                new_d0 = reinit_auxiliary(state, b, decision.new_gamma, tokens)
                controller.rearm(new_d0)
            trace.restart_log.append(
                RestartEvent(
                    k=k,
                    old_gamma=old_gamma,
                    new_gamma=decision.new_gamma,
                    statistic=decision.statistic,
                )
            )
            restarted_since_record = True

        if cfg.tail_from is not None and k >= cfg.tail_from:
            diff = state.theta1 - theta_star
            tail_sum += float(diff @ diff)
            tail_count += 1

        if k % cfg.trace_stride == 0 or k == cfg.n_iters:
            record(k, gamma, decision.statistic, d_sq)
            restarted_since_record = False

    final_diff = state.theta1 - theta_star
    trace.summary = {
        "k": state.k,
        "final_gamma": controller.stepsize(max(state.k, 1)),
        "final_err": float(final_diff @ final_diff),
        "n_restarts": len(trace.restart_log),
        "first_restart_k": trace.restart_log[0].k if trace.restart_log else None,
        "diverged": trace.failure is not None,
    }
    if cfg.averaging:
        adiff = state.avg1 - theta_star
        trace.summary["final_avg_err"] = float(adiff @ adiff)
    if cfg.tail_from is not None:
        trace.summary["tail_mean_err"] = tail_sum / max(tail_count, 1)
    return trace
