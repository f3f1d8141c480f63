"""The coupled SGD loop.

Advances one or two iterates; when coupled, both evaluations of an
iteration share a single token, i.e. the same minibatch or noise draw.
Maintains the ring buffer of recent auxiliary iterates for backward
re-initialization, applies each decay atomically between steps, and
records a :class:`RunTrace`.

Order of events inside iteration k: step both iterates with the current
stepsize, then let the controller observe, which returns the statistic.
If the controller's ``phase_index`` went up, that was a decay: the next
step runs at the controller's new ``gamma``, and for a controller that
``needs_coupling`` the auxiliary iterate is re-initialized and the
controller re-armed before that step begins.

Tokens come from a :class:`TokenBuffer`, which draws up to ``CHUNK`` of
them at a time from one raw block of the run's stream, as one columnar
token block (see :mod:`csgd.problems`).  ``run`` takes them one by one,
split into rows once per block; :func:`run_replicates` takes whole blocks.
Each problem kind spends a fixed number of raw words per token, so a run
sees the same tokens as if it drew them one by one.  The stream runs ahead
of the tokens used by at most one block and never past the last iteration.
Where a run leaves the token sequence (the degenerate re-arm draw, a
divergence stop) the buffer is resynced: the stream goes back to the
counter that token-by-token drawing would have reached, and
``rng.counter`` on return is that counter.

A record keeps θ1 by reference, since both loops rebind it at every step
and never write it in place, and a copy of the running average, which is
updated in place.  :class:`RunTrace` fills the error and loss columns of
``CHUNK`` such records at a time in one stacked pass, with their bits, and
those of the rest in ``summarize``.

:func:`run_replicates` runs several uncoupled chains in lockstep, as one
(reps, d) iterate array updated once per step.  The contract:

- one schedule: the replicates share one fixed-schedule controller, asked
  for each stepsize once and shown the whole stack once per step; a decay
  raises ConfigError, since it cannot apply to one chain alone;
- per-replicate streams: each chain keeps its own stream and token buffer,
  and its blocks are stacked part by part along a replicate axis, so each
  step's tokens reach one oracle call with no per-token Python;
- per-replicate divergence: a chain that diverges gets the failure text and
  final record ``run`` gives it, its buffer is resynced, and the others go
  on;
- traces equal to ``run``: every column, the summary and ``rng.counter`` of
  each chain are bit for bit what ``run`` returns for that stream.  The
  stacked arithmetic is per-row arithmetic: elementwise operations, and
  ``np.matmul`` forms that make one BLAS call per row, as ``H @ θ`` and
  ``x @ θ`` do.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .controllers import Controller, check_int
from .errors import ConfigError, DegenerateDiagnosticError
from .numkit import RngStream, row_sq
from .problems import token_rows

D0_REARM_FLOOR_REL = 1e-12
REARM_DRAWS = 100  # perturbation draws before a re-arm gives up
DIVERGENCE_THRESHOLD = 1e12  # a run stops once ||θ1||² exceeds this
CHUNK = 256  # tokens decoded per raw block, and records per error-column fill


@dataclass
class EngineConfig:
    n_iters: int
    batch_size: int = 1
    averaging: bool = False
    trace_stride: int = 100
    init_offset_scale: float = 1.0
    track_coupling: bool | None = None  # None: follow the controller's need
    tail_from: int | None = None  # accumulate mean err over k >= tail_from, in 1..n_iters

    def __post_init__(self):
        check_int("n_iters", self.n_iters, 0)
        check_int("batch_size", self.batch_size, 1)
        check_int("trace_stride", self.trace_stride, 1)
        if self.tail_from is not None:
            check_int("tail_from", self.tail_from, 1)
            if self.tail_from > self.n_iters:
                raise ConfigError(f"tail_from={self.tail_from} is past n_iters={self.n_iters}")
        if not 0.0 <= self.init_offset_scale < math.inf:
            raise ConfigError(
                f"init_offset_scale must be finite and >= 0, got {self.init_offset_scale!r}"
            )


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
    history: deque | None = None  # last b+1 auxiliary iterates, newest last


@dataclass
class RunTrace:
    """Columnar per-stride records plus the restart log and a summary; the error
    columns are filled per ``CHUNK`` records and complete once ``summarize`` returns."""

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
    _kept: list = field(default_factory=list, init=False, repr=False, compare=False)

    def record(self, problem, k: int, gamma: float, stat: float, theta1: np.ndarray,
               avg1: np.ndarray | None, d_sq: float | None = None,
               restarted: bool = False) -> None:
        """Append one record of the iterate and, when kept, its running average."""
        self.ks.append(k)
        self.gammas.append(gamma)
        self.stats.append(stat)
        self.d_sqs.append(math.nan if d_sq is None else d_sq)
        self._kept.append((theta1, None if avg1 is None else avg1.copy()))
        self.restart_flags.append(restarted)
        if len(self._kept) == CHUNK:
            self._fill(problem)

    def _fill(self, problem) -> None:
        """Fill the error columns of the kept records, at least one, in one stacked pass."""
        thetas, avgs = zip(*self._kept)
        self._kept = []
        self.errs.extend(row_sq(np.stack(thetas) - problem.theta_star).tolist())
        if avgs[0] is not None:
            avgs = np.stack(avgs)
            self.avg_errs.extend(row_sq(avgs - problem.theta_star).tolist())
            self.avg_fgaps.extend((problem.losses(avgs) - problem.f_star).tolist())

    def summarize(self, problem, cfg: EngineConfig, k: int, final_gamma: float,
                  theta1: np.ndarray, avg1: np.ndarray | None, tail_sum: float,
                  tail_count: int) -> None:
        """Fill the kept records' error columns, then ``summary`` from the run's end state."""
        if self._kept:
            self._fill(problem)
        theta_star = problem.theta_star
        final_diff = theta1 - theta_star
        self.summary = {
            "k": k,
            "final_gamma": final_gamma,
            "final_err": float(final_diff @ final_diff),
            "n_restarts": len(self.restart_log),
            "first_restart_k": self.restart_log[0].k if self.restart_log else None,
            "diverged": self.failure is not None,
        }
        if avg1 is not None:
            adiff = avg1 - theta_star
            self.summary["final_avg_err"] = float(adiff @ adiff)
        if cfg.tail_from is not None:  # nan when no step reached the tail
            self.summary["tail_mean_err"] = tail_sum / tail_count if tail_count else math.nan


class TokenBuffer:
    """A run's tokens, drawn up to ``CHUNK`` at a time from one raw block.

    ``remaining`` counts the tokens the run has yet to take, so a refill
    never draws past the last iteration.  ``sampler_state`` is the problem's
    sampler state after the last token drawn; set it from ``init_sampler``
    before the first token.  A batch size the problem cannot draw raises
    ConfigError here, before any draw.
    """

    def __init__(self, problem, rng: RngStream, batch: int, remaining: int):
        problem.words_per_token(batch)
        self.problem = problem
        self.rng = rng
        self.batch = batch
        self.remaining = remaining
        self.sampler_state = None
        self._block = None  # the current token block
        self._rows: list = []  # its tokens one by one, for ``next``
        self._count = self._pos = 0
        self._block_start = (rng.counter, None)  # stream counter and sampler state

    def _refill(self) -> None:
        count = min(CHUNK, self.remaining)
        self._block_start = (self.rng.counter, self.sampler_state)
        self._block, self.sampler_state = self.problem.draw_tokens(
            self.rng, self.sampler_state, count, self.batch
        )
        self.remaining -= count
        self._count, self._pos = count, 0

    def next(self):
        """The run's next token."""
        if self._pos == self._count:
            self._refill()
            self._rows = token_rows(self._block)
        token = self._rows[self._pos]
        self._pos += 1
        return token

    def take_block(self):
        """The tokens left in the current block, as a block; refilled first if used up.

        All of them count as taken; a run that stops part-way through them
        hands the rest back with ``resync(returned)``.
        """
        if self._pos == self._count:
            self._refill()
        start, self._pos = self._pos, self._count
        return _block_index(self._block, np.s_[start:])

    def resync(self, returned: int = 0) -> RngStream:
        """Drop the tokens not yet used and rewind the stream to match.

        ``returned`` counts the tokens handed out but not used.  The stream
        goes back to the start of the block and redraws the tokens used, so
        both its counter and the sampler state end where token-by-token
        drawing would have left them.  Returns the stream, ready for an
        out-of-band draw.
        """
        self._pos -= returned
        unused = self._count - self._pos
        if unused:
            counter, sampler_state = self._block_start
            self.rng.seek(counter)
            _, self.sampler_state = self.problem.draw_tokens(
                self.rng, sampler_state, self._pos, self.batch
            )
            self.remaining += unused
        self._count = self._pos = 0
        return self.rng


def coupled_step(state: CoupledState, problem, gamma: float, token):
    """Advance the pair by one iteration with shared noise.

    Returns θ1's update direction and ||θ1 - θ2||² after the step (None
    when uncoupled).  The same token feeds both oracle evaluations, so for
    additive-noise quadratics the difference contracts deterministically.
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
    return u1, d_sq


def rearm_auxiliary(state: CoupledState, theta2: np.ndarray, b: int, gamma: float,
                    tokens: TokenBuffer) -> float:
    """Set θ2, restart its history and return the new reference ||θ1 - θ2||².

    If that difference is degenerate (below 1e-12·max(1, ||θ1||²)), θ2 is
    instead perturbed off θ1 by √γ·N(0, I) — the scale of the stationary
    fluctuation radius — so the diagnostic stays well defined.  The
    perturbation is drawn out of band, after resyncing the token buffer; if
    ``REARM_DRAWS`` draws all stay within the floor (γ too small for it),
    DegenerateDiagnosticError is raised.
    """
    diff = state.theta1 - theta2
    d0_sq = float(diff @ diff)
    floor = D0_REARM_FLOOR_REL * max(1.0, float(state.theta1 @ state.theta1))
    if d0_sq <= floor:
        rng = tokens.resync()
        for _ in range(REARM_DRAWS):
            theta2 = state.theta1 + math.sqrt(gamma) * rng.normals(state.theta1.shape[0])
            diff = state.theta1 - theta2
            d0_sq = float(diff @ diff)
            if d0_sq > floor:
                break
        else:
            raise DegenerateDiagnosticError(
                f"re-arm: {REARM_DRAWS} perturbations at gamma={gamma:g} stay within {floor:g}")
    state.theta2 = theta2
    state.history = deque([theta2], maxlen=b + 1)
    return d0_sq


def reinit_auxiliary(state: CoupledState, b: int, gamma: float, tokens: TokenBuffer) -> float:
    """Reset θ2 to its value b steps back and re-arm the distance reference.

    Uses the oldest stored iterate when fewer than b are available; see
    :func:`rearm_auxiliary` for the degenerate case.
    """
    hist = state.history
    idx = 0 if len(hist) <= b else len(hist) - 1 - b
    return rearm_auxiliary(state, hist[idx].copy(), b, gamma, tokens)


def update_average(avg1: np.ndarray, theta1: np.ndarray, k: int) -> None:
    """Numerically stable running mean over the first k iterates, in place."""
    avg1 += (theta1 - avg1) / k


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

    state = CoupledState(theta1=np.zeros(d), theta2=None)
    tokens = TokenBuffer(problem, rng, cfg.batch_size, cfg.n_iters)
    if coupled:
        offset = cfg.init_offset_scale * rng.normals(d)
        controller.rearm(
            rearm_auxiliary(state, state.theta1 + offset, b, controller.stepsize(1), tokens)
        )
    avg1 = state.theta1.copy() if cfg.averaging else None
    tokens.sampler_state = problem.init_sampler(rng)

    trace = RunTrace()
    restarted_since_record = False
    phase = controller.phase_index
    tail_sum = 0.0
    tail_count = 0
    k = 0

    for k in range(1, cfg.n_iters + 1):
        gamma = controller.stepsize(k)
        direction, d_sq = coupled_step(state, problem, gamma, tokens.next())
        if avg1 is not None:
            update_average(avg1, state.theta1, k)

        norm1_sq = float(state.theta1 @ state.theta1)
        if not math.isfinite(norm1_sq) or norm1_sq > DIVERGENCE_THRESHOLD:
            trace.failure = _divergence_failure(k, norm1_sq)
            trace.record(problem, k, gamma, math.nan, state.theta1, avg1, d_sq,
                         restarted_since_record)
            tokens.resync()
            break

        stat = controller.observe(k, state.theta1, d_sq, direction)
        if controller.phase_index != phase:
            phase = controller.phase_index
            new_gamma = controller.gamma
            if controller.needs_coupling:
                controller.rearm(reinit_auxiliary(state, b, new_gamma, tokens))
            trace.restart_log.append(RestartEvent(k, gamma, new_gamma, stat))
            restarted_since_record = True

        if cfg.tail_from is not None and k >= cfg.tail_from:
            diff = state.theta1 - theta_star
            tail_sum += float(diff @ diff)
            tail_count += 1

        if k % cfg.trace_stride == 0 or k == cfg.n_iters:
            trace.record(problem, k, gamma, stat, state.theta1, avg1, d_sq,
                         restarted_since_record)
            restarted_since_record = False

    trace.summarize(problem, cfg, k, controller.stepsize(max(k, 1)), state.theta1, avg1,
                    tail_sum, tail_count)
    return trace


def _divergence_failure(k: int, norm1_sq: float) -> str:
    return f"divergence at k={k} (||theta1||^2={norm1_sq:g})"


def _stack_tokens(blocks: list):
    """Per-replicate token blocks as one block with a leading (count, reps) shape."""
    if isinstance(blocks[0], tuple):
        return tuple(np.stack(parts, axis=1) for parts in zip(*blocks))
    return np.stack(blocks, axis=1)


def _block_index(block, key):
    """``part[key]`` for each part of a token block."""
    if isinstance(block, tuple):
        return tuple(part[key] for part in block)
    return block[key]


def run_replicates(problem, controller: Controller, cfg: EngineConfig, rngs) -> list[RunTrace]:
    """Run one uncoupled chain per stream, in lockstep under one fixed schedule.

    Returns one trace per stream, each equal to what :func:`run` returns
    for that stream, and leaves each stream's counter where ``run`` leaves
    it; see the module docstring.  A controller other than a fixed
    schedule, ``track_coupling=True`` or no streams raise ConfigError
    before any draw.
    """
    rngs = list(rngs)
    if not rngs:
        raise ConfigError("run_replicates needs at least one stream")
    kind = controller.params.kind
    if kind != "fixed":
        raise ConfigError(
            f"lockstep replicates share one fixed schedule; controller {kind!r} adapts it"
        )
    if cfg.track_coupling:
        raise ConfigError("lockstep replicates are uncoupled; track_coupling=True is not allowed")
    n_iters = cfg.n_iters
    theta_star = problem.theta_star
    theta = np.zeros((len(rngs), problem.d))
    avg = theta.copy() if cfg.averaging else None
    buffers = []
    for rng in rngs:
        tokens = TokenBuffer(problem, rng, cfg.batch_size, n_iters)
        tokens.sampler_state = problem.init_sampler(rng)
        buffers.append(tokens)

    traces = [RunTrace() for _ in rngs]
    active = list(range(len(rngs)))  # the replicate in each row of theta
    tail_sum = np.zeros(len(rngs))
    tail_count = 0
    k = 0
    while k < n_iters and active:
        stack = _stack_tokens([buffers[r].take_block() for r in active])
        steps = token_rows(stack)  # one (reps, ...) token stack per step
        count = len(steps)
        for i in range(count):
            k += 1
            gamma = controller.stepsize(k)
            theta = theta + gamma * problem.step_direction(theta, steps[i])
            if avg is not None:
                update_average(avg, theta, k)

            norms = row_sq(theta)
            top = float(norms.max())  # nan if any row is nan
            if not math.isfinite(top) or top > DIVERGENCE_THRESHOLD:
                diverged = ~np.isfinite(norms) | (norms > DIVERGENCE_THRESHOLD)
                for row in np.flatnonzero(diverged):
                    trace = traces[active[row]]
                    row_avg = None if avg is None else avg[row]
                    trace.failure = _divergence_failure(k, float(norms[row]))
                    trace.record(problem, k, gamma, math.nan, theta[row], row_avg)
                    trace.summarize(problem, cfg, k, controller.stepsize(k), theta[row], row_avg,
                                    float(tail_sum[row]), tail_count)
                    buffers[active[row]].resync(count - 1 - i)
                keep = np.flatnonzero(~diverged)
                active = [active[row] for row in keep]
                if not active:
                    break
                theta, tail_sum = theta[keep], tail_sum[keep]
                if avg is not None:
                    avg = avg[keep]
                stack = _block_index(stack, np.s_[:, keep])
                steps = token_rows(stack)

            stat = controller.observe(k, theta, None, None)
            if controller.phase_index:
                raise ConfigError(
                    f"controller decayed at k={k}; lockstep replicates share one schedule"
                )
            if cfg.tail_from is not None and k >= cfg.tail_from:
                tail_sum += row_sq(theta - theta_star)
                tail_count += 1
            if k % cfg.trace_stride == 0 or k == n_iters:
                for row, r in enumerate(active):
                    row_avg = None if avg is None else avg[row]
                    traces[r].record(problem, k, gamma, stat, theta[row], row_avg)

    for row, r in enumerate(active):
        traces[r].summarize(problem, cfg, k, controller.stepsize(max(k, 1)), theta[row],
                            None if avg is None else avg[row], float(tail_sum[row]), tail_count)
    return traces
