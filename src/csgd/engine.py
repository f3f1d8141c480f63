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
controller re-armed before that step begins, by :func:`reinit_auxiliary`,
which also makes the run's first arm.

There is one loop, :func:`run_replicates`; :func:`run` is that loop with
one stream.  The number of streams picks the data shape:

- one stream: θ1 (and θ2 when coupled) is a 1-D iterate and each token a
  row of its block, the one column of the stacked draw below, so the
  oracle sees exactly what a lone run gives it;
- several streams: the chains run in lockstep as one (reps, d) stack of θ1
  updated once per step.  They share one fixed-schedule controller, asked
  for each stepsize once and shown the whole stack once per step; a decay
  or coupling raises ConfigError, since it cannot apply to one chain alone.
  The stacked arithmetic is per-row arithmetic: elementwise operations,
  and one BLAS call per row (``np.vecdot`` for a ddot, a stacked
  ``np.matmul`` for a gemv), as ``x.dot(θ)`` and ``H.dot(θ)`` make for one
  iterate, so each chain's trace and ``rng.counter`` are bit for bit what
  ``run`` returns for its stream.

Tokens come from a :class:`TokenStreams` cursor over the run's streams.
Each block takes ``min(CHUNK, n_iters - k)`` tokens from every active
stream: one raw call per stream and one ``Problem.draw_tokens`` decode for
all of them, into parts with a leading (count, R) shape (see
:mod:`csgd.problems`); one stream steps on column 0.  Each problem kind
spends a fixed number of raw words per token, so a run sees the same tokens
as if it drew them one by one, and no stream is drawn past the last
iteration.  Where a chain leaves the token sequence in mid-block (the
degenerate re-arm draw, a divergence stop) it gives the rest of its block
back and its stream is resynced: it goes back to the counter that
token-by-token drawing would have reached, and ``rng.counter`` on return is
that counter.  After a re-arm that perturbed θ2 the loop takes a new block.

Divergence is checked per stream: a chain stops once ||θ1||² exceeds
``DIVERGENCE_THRESHOLD`` or is not finite, gets a failure text and a final
record, and the others go on.  Each step makes one ddot over the whole
stack, the sum of the chains' ||θ1||²; only when that comes near the
threshold are the rows' norms computed.

A step allocates θ1, θ2, the running average, the two directions, the
products γ·u and the difference θ1 - θ2.  The average's temporary is
updated in place: θ1 - θ̄ is divided by k and θ̄ added into it, which adds
the operands of ``θ̄ + (θ1 - θ̄)/k`` in the other order, and IEEE addition
rounds both alike.  No step writes into an array it did not just make, so a
record keeps θ1 and the running average by reference, and the history ring
keeps θ2.  :class:`RunTrace` fills the error and loss columns of ``CHUNK``
such records at a time in one stacked pass, with their bits, and those of
the rest in ``summarize``, which reads the final errors from the last
record (a run records its last step).  The tail accumulator keeps its
steps' θ1 the same way and folds them into each chain's sum once per block,
and before a divergence stops a chain, adding them in step order so the sum
has the bits of a per-step ``+=``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .controllers import Controller
from .errors import ConfigError, DegenerateDiagnosticError, check_bool, check_int, check_real
from .numkit import RngStream, row_sq
from .problems import token_columns, token_rows

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
    track_coupling: bool = False  # also couple a controller that does not need it
    tail_from: int | None = None  # accumulate mean err over k >= tail_from, in 1..n_iters

    def __post_init__(self):
        check_int("n_iters", self.n_iters, 0)
        check_int("batch_size", self.batch_size, 1)
        check_int("trace_stride", self.trace_stride, 1)
        if self.tail_from is not None:
            check_int("tail_from", self.tail_from, 1)
            if self.tail_from > self.n_iters:
                raise ConfigError(f"tail_from={self.tail_from} is past n_iters={self.n_iters}")
        check_real("init_offset_scale", self.init_offset_scale, 0.0)
        check_bool("averaging", self.averaging)
        check_bool("track_coupling", self.track_coupling)


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
    history: deque | None = None  # ring of b+1 auxiliary iterates, newest last; oldest b steps back


@dataclass
class RunTrace:
    """Columnar per-stride records plus the restart log and a summary.

    A record keeps θ1 and the running average by reference; the error
    columns are filled from them per ``CHUNK`` records and are complete once
    ``summarize`` returns.
    """

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
    # the restart log's length at the last record
    _n_logged: int = field(default=0, init=False, repr=False, compare=False)

    def record(self, problem, k: int, gamma: float, stat: float, theta1: np.ndarray,
               avg1: np.ndarray | None, d_sq: float | None = None) -> None:
        """Append one record of the iterate and, when kept, its running average; its
        restart flag is set when the restart log grew since the last record."""
        n_logged = len(self.restart_log)
        restarted = n_logged > self._n_logged
        self._n_logged = n_logged
        self.ks.append(k)
        self.gammas.append(gamma)
        self.stats.append(stat)
        self.d_sqs.append(math.nan if d_sq is None else d_sq)
        self._kept.append((theta1, avg1))
        self.restart_flags.append(restarted)
        if len(self._kept) == CHUNK:
            self._fill(problem)

    def _fill(self, problem) -> None:
        """Fill the error columns of the kept records, at least one, in one stacked pass."""
        thetas, avgs = zip(*self._kept)
        n = len(thetas)
        self._kept = []
        thetas = np.concatenate(thetas).reshape(n, -1)  # the copy np.stack makes, faster
        self.errs.extend(row_sq(thetas - problem.theta_star).tolist())
        if avgs[0] is not None:
            avgs = np.concatenate(avgs).reshape(n, -1)
            self.avg_errs.extend(row_sq(avgs - problem.theta_star).tolist())
            self.avg_fgaps.extend((problem.losses(avgs) - problem.f_star).tolist())

    def summarize(self, problem, cfg: EngineConfig, k: int, final_gamma: float,
                  tail_sum: float, tail_count: int) -> None:
        """Fill the kept records' error columns, then ``summary``; its final errors are
        the last record's, or with no step ||0 - θ*||² = θ*·θ*."""
        if self._kept:
            self._fill(problem)
        start_err = float(problem.theta_star @ problem.theta_star)
        self.summary = {
            "k": k,
            "final_gamma": final_gamma,
            "final_err": self.errs[-1] if self.errs else start_err,
            "n_restarts": len(self.restart_log),
            "first_restart_k": self.restart_log[0].k if self.restart_log else None,
            "diverged": self.failure is not None,
        }
        if cfg.averaging:
            self.summary["final_avg_err"] = self.avg_errs[-1] if self.avg_errs else start_err
        if cfg.tail_from is not None:  # nan when no step reached the tail
            self.summary["tail_mean_err"] = tail_sum / tail_count if tail_count else math.nan


class TokenStreams:
    """The run's streams and their sampler states, drawn one stacked block at a time.

    Set ``sampler_states`` from ``init_sampler`` before the first block.  A
    batch size the problem cannot draw raises ConfigError here, before any
    draw.
    """

    def __init__(self, problem, rngs: list[RngStream], batch: int):
        problem.words_per_token(batch)
        self.problem = problem
        self.rngs = rngs
        self.batch = batch
        self.sampler_states = [None] * len(rngs)
        self._starts = []  # each stream's (counter, sampler state) at the block's start
        self._count = 0  # tokens per stream in the block

    def take(self, active: list[int], count: int):
        """The next ``count`` tokens of each stream in ``active``, stacked: column j
        of each part is stream ``active[j]``'s.  All count as used; a chain that
        stops in mid-block gives the rest of its block back with :meth:`resync`."""
        rngs, states = self.rngs, self.sampler_states
        self._starts = [(rng.counter, state) for rng, state in zip(rngs, states)]
        self._count = count
        block, after = self.problem.draw_tokens(
            [rngs[r] for r in active], [states[r] for r in active], count, self.batch)
        for r, state in zip(active, after):
            states[r] = state
        return block

    def resync(self, r: int, returned: int) -> RngStream:
        """Give back the last ``returned`` tokens of stream r's block; returns the stream.

        The stream goes back to the block's start and redraws the tokens used,
        so its counter and sampler state end where drawing only those would
        have left them, ready for an out-of-band draw.
        """
        rng = self.rngs[r]
        if returned:
            counter, state = self._starts[r]
            rng.seek(counter)
            _, (self.sampler_states[r],) = self.problem.draw_tokens(
                [rng], [state], self._count - returned, self.batch)
        return rng


def coupled_step(state: CoupledState, problem, gamma: float, token):
    """Advance the pair by one iteration with shared noise.

    Returns θ1's update direction and ||θ1 - θ2||² after the step (None
    when uncoupled).  The same token feeds both oracle evaluations, so for
    additive-noise quadratics the difference contracts deterministically.
    Allocates the new θ1 and θ2, both directions, the two products γ·u and
    the difference, and writes into none of its inputs: the returned
    direction is kept by reference (Pflug's ``observe`` keeps it), and so
    are the old iterates, by records and the history ring.
    """
    u1 = problem.step_direction(state.theta1, token)
    state.theta1 = state.theta1 + gamma * u1
    d_sq = None
    if state.theta2 is not None:
        u2 = problem.step_direction(state.theta2, token)
        state.theta2 = state.theta2 + gamma * u2
        state.history.append(state.theta2)
        diff = state.theta1 - state.theta2
        d_sq = float(diff.dot(diff))
    return u1, d_sq


def reinit_auxiliary(state: CoupledState, b: int, gamma: float, tokens: TokenStreams,
                     returned: int = 0) -> tuple[float, bool]:
    """Reset θ2 to its value b steps back, restart its history and return ``(d0_sq, perturbed)``.

    The history is a ring of b+1 entries, so that value is its oldest entry,
    the oldest stored when fewer are; the run's first arm seeds the history
    with θ1 + ``init_offset_scale``·N(0, I) alone and comes here too.
    ``d0_sq`` is the new reference ||θ1 - θ2||².  If the difference is
    degenerate (below 1e-12·max(1, ||θ1||²)), θ2 is instead
    perturbed off θ1 by √γ·N(0, I) — the scale of the stationary fluctuation
    radius — so the diagnostic stays well defined, and ``perturbed`` is True.
    The perturbation is drawn out of band from the run's one stream (a
    coupled run has one), after it is resynced, which gives back the
    ``returned`` tokens of its block not yet used; the caller then takes a
    new block.  If ``REARM_DRAWS`` draws all stay within the floor (γ too
    small for it), DegenerateDiagnosticError is raised.
    """
    theta2 = state.history[0].copy()
    diff = state.theta1 - theta2
    d0_sq = float(diff @ diff)
    floor = D0_REARM_FLOOR_REL * max(1.0, float(state.theta1 @ state.theta1))
    perturbed = d0_sq <= floor
    if perturbed:
        rng = tokens.resync(0, returned)
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
    return d0_sq, perturbed


def run(problem, controller: Controller, cfg: EngineConfig, rng: RngStream) -> RunTrace:
    """Execute n_iters coupled-SGD iterations under one controller.

    :func:`run_replicates` with the one stream ``rng``.  Bit-deterministic
    given (problem, controller params, cfg, stream).  On divergence the
    trace collected so far is returned with ``failure`` set.
    """
    return run_replicates(problem, controller, cfg, [rng])[0]


def _fold_tail(tail_sum: np.ndarray, thetas: list, theta_star: np.ndarray) -> np.ndarray:
    """``tail_sum`` plus each step's per-chain ||θ1 - θ*||², in step order; empties ``thetas``.

    One ``row_sq`` over the (m, R, d) stack of the m steps, then a running
    sum along the steps, which adds them one at a time as a per-step ``+=``.
    """
    if not thetas:
        return tail_sum
    errs = row_sq(np.concatenate(thetas).reshape(len(thetas), len(tail_sum), -1) - theta_star)
    thetas.clear()
    errs[0] += tail_sum
    return np.cumsum(errs, axis=0)[-1]


def _rows(theta1: np.ndarray, avg1: np.ndarray | None, n: int):
    """θ1 and its running average (or None) for each of the ``n`` active streams."""
    if theta1.ndim == 1:
        return (theta1,), (avg1,)
    return theta1, (None,) * n if avg1 is None else avg1


def run_replicates(problem, controller: Controller, cfg: EngineConfig, rngs) -> list[RunTrace]:
    """Run one chain per stream, in lockstep; the one loop, behind :func:`run`.

    One stream steps 1-D iterates on row tokens, several an (R, d) stack
    on stacked token blocks; both take whole blocks from one
    :class:`TokenStreams` and gate the per-row divergence check on one ddot
    (see the module docstring).  Returns one trace per stream, each equal to what
    :func:`run` returns for that stream alone, and leaves each stream's
    counter where ``run`` leaves it.  With several streams the chains are
    uncoupled under one fixed schedule: another controller kind or
    ``track_coupling=True`` raises ConfigError before any draw, and so does
    an empty list of streams or one stream object given twice (two distinct
    streams with the same seed and id are two chains).
    """
    rngs = list(rngs)
    if not rngs:
        raise ConfigError("run_replicates needs at least one stream")
    if len({id(rng) for rng in rngs}) < len(rngs):
        raise ConfigError("run_replicates got one stream object twice; each chain needs its own")
    kind = controller.params.kind
    coupled = controller.needs_coupling or cfg.track_coupling
    single = len(rngs) == 1
    if not single and (kind != "fixed" or coupled):
        raise ConfigError("lockstep replicates run uncoupled under one fixed schedule; "
                          f"got controller {kind!r} with track_coupling={coupled}")
    n_iters, d, b, tail_from = cfg.n_iters, problem.d, controller.params.b, cfg.tail_from
    theta_star = problem.theta_star
    state = CoupledState(theta1=np.zeros(d if single else (len(rngs), d)), theta2=None)
    tokens = TokenStreams(problem, rngs, cfg.batch_size)
    if coupled:  # the first arm re-arms from a history of the offset start alone
        state.history = deque([state.theta1 + cfg.init_offset_scale * rngs[0].normals(d)])
        d0_sq, _ = reinit_auxiliary(state, b, controller.stepsize(1), tokens)
        controller.rearm(d0_sq)
    avg1 = state.theta1 if cfg.averaging else None
    tokens.sampler_states = [problem.init_sampler(rng) for rng in rngs]

    traces = [RunTrace() for _ in rngs]
    active = list(range(len(rngs)))  # the stream of each row of θ1
    phase = controller.phase_index
    tail_sum = np.zeros(len(rngs))
    tail_thetas = []  # θ1 of the tail steps not yet folded into tail_sum
    tail_count = 0
    k = 0
    while k < n_iters and active:
        count = min(CHUNK, n_iters - k)
        block = tokens.take(active, count)
        steps = token_rows(token_columns(block, 0) if single else block)
        for i in range(count):
            k += 1
            gamma = controller.stepsize(k)
            direction, d_sq = coupled_step(state, problem, gamma, steps[i])
            theta1 = state.theta1
            if avg1 is not None:  # a new array, so a record may keep the old one by reference
                new_avg = theta1 - avg1
                new_avg /= k
                new_avg += avg1
                avg1 = new_avg

            # one ddot over the stack sums the rows' squared norms, so no row
            # passes the threshold until the sum comes within rounding of it
            flat = theta1 if single else theta1.ravel()
            if not flat.dot(flat) <= DIVERGENCE_THRESHOLD * (1.0 - 1e-9):
                norms = row_sq(theta1.reshape(-1, d))
                diverged = ~(norms <= DIVERGENCE_THRESHOLD)  # nan diverges too
                if diverged.any():
                    tail_sum = _fold_tail(tail_sum, tail_thetas, theta_star)
                    rows, avgs = _rows(theta1, avg1, len(active))
                    for row in np.flatnonzero(diverged):
                        trace = traces[active[row]]
                        trace.failure = f"divergence at k={k} (||theta1||^2={norms[row]:g})"
                        trace.record(problem, k, gamma, math.nan, rows[row], avgs[row], d_sq)
                        trace.summarize(problem, cfg, k, controller.stepsize(k),
                                        float(tail_sum[row]), tail_count)
                        tokens.resync(active[row], count - 1 - i)
                    keep = np.flatnonzero(~diverged)
                    active = [active[row] for row in keep]
                    if not active:
                        break
                    theta1 = state.theta1 = theta1[keep]
                    tail_sum = tail_sum[keep]
                    if avg1 is not None:
                        avg1 = avg1[keep]
                    block = token_columns(block, keep)
                    steps = token_rows(block)

            stat = controller.observe(k, theta1, d_sq, direction)
            refill = False
            if controller.phase_index != phase:
                if not single:
                    raise ConfigError(
                        f"controller decayed at k={k}; lockstep replicates share one schedule"
                    )
                phase = controller.phase_index
                new_gamma = controller.gamma
                if controller.needs_coupling:  # a perturbed re-arm gave the rest back
                    d0_sq, refill = reinit_auxiliary(state, b, new_gamma, tokens, count - 1 - i)
                    controller.rearm(d0_sq)
                traces[0].restart_log.append(RestartEvent(k, gamma, new_gamma, stat))

            if tail_from is not None and k >= tail_from:
                tail_thetas.append(theta1)
                tail_count += 1

            if k % cfg.trace_stride == 0 or k == n_iters:
                if single:  # directly: the row loop costs ~3% of a step on dense traces
                    traces[0].record(problem, k, gamma, stat, theta1, avg1, d_sq)
                else:
                    for r, row, avg_row in zip(active, *_rows(theta1, avg1, len(active))):
                        traces[r].record(problem, k, gamma, stat, row, avg_row)
            if refill:
                break
        tail_sum = _fold_tail(tail_sum, tail_thetas, theta_star)

    for row, r in enumerate(active):
        traces[r].summarize(problem, cfg, k, controller.stepsize(max(k, 1)),
                            float(tail_sum[row]), tail_count)
    return traces
