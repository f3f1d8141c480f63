"""An executable specification of the coupled SGD loop, held to the engine bit for bit.

:func:`spec_run` is the loop of the coupling diagnostic (arXiv 2412.11341)
written plainly, one token at a time, with none of the engine's fast paths:
no token blocks or cut stacks, no deferred error columns, no folded tail, no
lockstep stacks.  In the paper's terms:

- Two SGD iterates θ₁ and θ₂ start at θ₁ = 0 and θ₂ = θ₁ + ``init_offset_scale``·ξ,
  ξ ~ N(0, I), the stream's first draw.  The run's first arm re-arms θ₂ from
  that start and hands the controller the reference ‖D₀‖² = ‖θ₁ − θ₂‖².
- Step k draws one token, the shared noise of the coupling, and moves both
  iterates with it: θ ← θ + γ_k·u(θ, token), with u the problem's oracle
  ``step_direction`` on one iterate (minus a stochastic gradient).
  ``draw_tokens`` from the sampler state None starts lsa's Markov chain.
- The controller sees θ₁, the coupled distance ‖D_k‖² and u(θ₁); its
  statistic is S_k = ‖D_k‖²/‖D₀‖² for the coupling kinds.  A decay
  (S_k < β after the burn-in) moves to γ·r and, for a coupling kind, re-arms:
  θ₂ restarts from its value b steps back, the oldest of the ring of its last
  b + 1 values, and ‖D₀‖² is re-read.  Should θ₂ land within 1e-12 of θ₁,
  it is perturbed by √γ·ξ, ξ drawn from the run's arm range: the stream's
  key from word ``ARM_COUNTER`` on, which no token reaches, so the tokens
  run on as if no re-arm had drawn.
- A record at every ``trace_stride``-th step and at the last computes the
  errors ‖θ₁ − θ*‖² and ‖θ̄ − θ*‖² by ddot and the f-gap f(θ̄) − f* with
  ``loss``; the tail mean adds ‖θ₁ − θ*‖² per step.  A chain whose ‖θ₁‖²
  passes the divergence threshold stops with a failure record.

Every column of ``run``'s trace, the restart log, the summary, the failure
text and the stream's counter must equal the spec's, floats by their hex.
"""

import math
from collections import deque
from dataclasses import asdict
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csgd.controllers import CONTROLLERS, ControllerParams, make_controller
from csgd.engine import (
    ARM_COUNTER,
    D0_REARM_FLOOR_REL,
    DIVERGENCE_THRESHOLD,
    REARM_DRAWS,
    EngineConfig,
    run,
    run_replicates,
)
from csgd.errors import DegenerateDiagnosticError
from csgd.numkit import RngStream, normal_words
from csgd.problems import make_problem

COLUMNS = ("ks", "gammas", "stats", "errs", "d_sqs", "avg_errs", "avg_fgaps", "restart_flags")


def _sq(v: np.ndarray) -> float:
    return float(v.dot(v))


def spec_run(problem, controller, cfg: EngineConfig, rng: RngStream) -> dict:
    """The coupled loop, one token at a time; returns what ``run`` records, as a dict.

    The tokens and the first arm's offset come from ``rng``, a perturbation ξ
    from the arm range of its key (``ARM_COUNTER`` on)."""
    d, theta_star = problem.d, problem.theta_star
    out = {name: [] for name in COLUMNS}
    out.update(restart_log=[], failure=None, perturbed=0)
    coupled = controller.needs_coupling or cfg.track_coupling
    theta1 = np.zeros(d)
    arm = RngStream(rng.seed, rng.stream_id, ARM_COUNTER)

    def rearm(history, gamma):
        theta2 = history[0].copy()  # b steps back: the ring's oldest entry
        floor = D0_REARM_FLOOR_REL * max(1.0, _sq(theta1))
        d0_sq = _sq(theta1 - theta2)
        if d0_sq <= floor:  # degenerate: perturb off θ1, drawn from the arm range
            out["perturbed"] += 1
            for _ in range(REARM_DRAWS):
                theta2 = theta1 + math.sqrt(gamma) * arm.normals(d)
                d0_sq = _sq(theta1 - theta2)
                if d0_sq > floor:
                    break
            else:
                raise DegenerateDiagnosticError("re-arm perturbations stay within the floor")
        controller.rearm(d0_sq)
        return deque([theta2], maxlen=controller.params.b + 1)

    ring = None
    if coupled:
        ring = rearm([theta1 + cfg.init_offset_scale * rng.normals(d)], controller.stepsize(1))
    avg1 = theta1 if cfg.averaging else None
    state = None  # no chain started yet
    tail_sum, tail_count = 0.0, 0
    phase = controller.phase_index
    restarted = False  # since the last record

    def record(k, gamma, stat, d_sq):
        nonlocal restarted
        for name, value in (("ks", k), ("gammas", gamma), ("stats", stat),
                            ("d_sqs", math.nan if d_sq is None else d_sq),
                            ("errs", _sq(theta1 - theta_star)), ("restart_flags", restarted)):
            out[name].append(value)
        if avg1 is not None:
            out["avg_errs"].append(_sq(avg1 - theta_star))
            out["avg_fgaps"].append(problem.loss(avg1) - problem.f_star)
        restarted = False

    k = 0
    while k < cfg.n_iters:
        k += 1
        steps, (state,) = problem.draw_tokens([rng], [state], 1, cfg.batch_size)
        token = steps[0]
        gamma = controller.stepsize(k)
        u1 = problem.step_direction(theta1, token)
        theta1 = theta1 + gamma * u1
        d_sq = None
        if coupled:
            theta2 = ring[-1] + gamma * problem.step_direction(ring[-1], token)
            ring.append(theta2)
            d_sq = _sq(theta1 - theta2)
        if avg1 is not None:
            avg1 = avg1 + (theta1 - avg1) / k
        norm_sq = _sq(theta1)
        if not norm_sq <= DIVERGENCE_THRESHOLD:
            out["failure"] = f"divergence at k={k} (||theta1||^2={norm_sq:g})"
            record(k, gamma, math.nan, d_sq)
            break
        stat = controller.observe(k, theta1, d_sq, u1)
        if controller.phase_index != phase:  # a decay
            phase = controller.phase_index
            if controller.needs_coupling:
                ring = rearm(ring, controller.gamma)
            out["restart_log"].append((k, gamma, controller.gamma, stat))
            restarted = True
        if cfg.tail_from is not None and k >= cfg.tail_from:
            tail_sum += _sq(theta1 - theta_star)
            tail_count += 1
        if k % cfg.trace_stride == 0 or k == cfg.n_iters:
            record(k, gamma, stat, d_sq)

    log = out["restart_log"]
    out["summary"] = {
        "k": k,
        "final_gamma": controller.stepsize(max(k, 1)),
        "final_err": out["errs"][-1] if out["errs"] else _sq(theta_star),
        "n_restarts": len(log),
        "first_restart_k": log[0][0] if log else None,
        "diverged": out["failure"] is not None,
    }
    if cfg.averaging:
        avg_errs = out["avg_errs"]
        out["summary"]["final_avg_err"] = avg_errs[-1] if avg_errs else _sq(theta_star)
    if cfg.tail_from is not None:
        out["summary"]["tail_mean_err"] = tail_sum / tail_count if tail_count else math.nan
    out["counter"] = rng.counter
    return out


def _hexed(value):
    """``value`` with every float as its hex, so equality is bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    return value


def _engine_record(trace, rng) -> dict:
    out = {name: getattr(trace, name) for name in COLUMNS}
    out.update(restart_log=[tuple(asdict(e).values()) for e in trace.restart_log],
               failure=trace.failure, summary=trace.summary, counter=rng.counter)
    return out


PROBLEMS = {
    "logistic": dict(d=4, n=0, seed=11),
    "least_squares": dict(d=5, n=0, seed=12),
    "svm": dict(d=4, n=40, seed=13),
    "lasso": dict(d=6, n=40, seed=14, sparsity=3),
    "uniformly_convex": dict(d=3, n=0, seed=15),
    "quadratic": dict(d=5, n=0, seed=16),
    "lsa": dict(d=3, n=0, seed=17),
}


@lru_cache(maxsize=None)
def problem(kind):
    return make_problem(kind, **PROBLEMS[kind])


def params_for(ctl, prob):
    base = {
        "coupling_static": dict(beta0=0.3, b=5),
        "coupling_adaptive": dict(beta0=0.5, eta=0.9, r=0.7, b=3),
        "pflug": dict(burn_in=30),
        "distance": dict(),
        "fixed": dict(schedule=("inv_sqrt", prob.default_gamma0())),
    }[ctl]
    return ControllerParams(kind=ctl, **base)


def spec_and_engine(kind, ctl, stream, params=None, seed=7, **cfg):
    """The spec's record and ``run``'s, each from a fresh controller and stream, and the
    number of perturbed re-arms, which only the spec counts."""
    prob = problem(kind)
    params = params or params_for(ctl, prob)
    cfg = EngineConfig(**{"n_iters": 300, "trace_stride": 7, **cfg})
    spec = spec_run(prob, make_controller(params, prob), cfg, RngStream(seed, stream))
    rng = RngStream(seed, stream)
    got = _engine_record(run(prob, make_controller(params, prob), cfg, rng), rng)
    perturbed = spec.pop("perturbed")
    return spec, got, perturbed


GRID = [(kind, ctl) for kind in PROBLEMS for ctl in CONTROLLERS]


@pytest.mark.parametrize("index", range(len(GRID)), ids=[f"{k}/{c}" for k, c in GRID])
def test_run_is_the_spec_on_every_kind_and_controller(index):
    # 300 steps cross a token block; every other case averages, every third
    # tracks the coupling of a controller that does not need it
    kind, ctl = GRID[index]
    spec, got, _ = spec_and_engine(kind, ctl, index, averaging=index % 2 == 0,
                                   track_coupling=index % 3 == 0, tail_from=150)
    assert _hexed(got) == _hexed(spec)


# each case names what it covers, and the test checks that it does
CASES = {
    # b = 0: the re-armed difference shrinks until the perturbation fires, mid-block
    "quadratic/b0/perturbed": dict(
        kind="quadratic", ctl="coupling_static", stream=110, n_iters=600,
        params=ControllerParams(kind="coupling_static", b=0, beta0=1e-3, r=0.9)),
    "lsa/b0/perturbed": dict(
        kind="lsa", ctl="coupling_static", stream=118, n_iters=600, averaging=True,
        trace_stride=1, params=ControllerParams(kind="coupling_static", b=0, beta0=1e-3, r=0.9)),
    "quadratic/zero_offset/perturbed": dict(
        kind="quadratic", ctl="coupling_static", stream=111, init_offset_scale=0.0),
    "quadratic/diverges": dict(
        kind="quadratic", ctl="coupling_static", stream=113, n_iters=400, averaging=True,
        trace_stride=1, tail_from=11,
        params=ControllerParams(kind="coupling_static", gamma0=2.05 / problem("quadratic").L)),
    "least_squares/diverges": dict(
        kind="least_squares", ctl="fixed", stream=114, tail_from=5,
        params=ControllerParams(kind="fixed", schedule=("constant", 2.5))),
    "least_squares/batch3": dict(kind="least_squares", ctl="coupling_adaptive", stream=120,
                                 batch_size=3, averaging=True),
    "quadratic/empty": dict(kind="quadratic", ctl="coupling_static", stream=121, n_iters=0,
                            averaging=True),
    "lsa/empty": dict(kind="lsa", ctl="fixed", stream=122, n_iters=0, tail_from=None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_is_the_spec_on_the_edge_cases(case):
    spec, got, perturbed = spec_and_engine(**CASES[case])
    assert _hexed(got) == _hexed(spec)
    assert (perturbed > 0) == case.endswith("perturbed")
    if case.endswith("diverges"):
        assert spec["failure"] is not None
    if case.endswith("empty"):
        # the coupled first arm's offset draw; lsa starts no chain
        want = normal_words(problem("quadratic").d) if case.startswith("quadratic") else 0
        assert spec["counter"] == want


@st.composite
def drawn_cases(draw):
    """A ``CASES`` entry: a kind, a controller with drawn parameters, the EngineConfig
    fields and a stream."""
    kind = draw(st.sampled_from(sorted(PROBLEMS)))
    ctl = draw(st.sampled_from(sorted(CONTROLLERS)))
    # up to 8x the default γ0, so some runs diverge
    gamma0 = problem(kind).default_gamma0() * draw(st.floats(0.25, 8.0))
    if ctl == "fixed":
        params = ControllerParams(kind=ctl, schedule=(
            draw(st.sampled_from(("constant", "inv_sqrt"))), gamma0))
    else:
        params = ControllerParams(kind=ctl, gamma0=gamma0, beta0=draw(st.floats(0.01, 0.9)),
                                  r=draw(st.floats(0.1, 0.9)), eta=draw(st.floats(0.1, 1.0)),
                                  b=draw(st.integers(0, 12)), burn_in=draw(st.integers(0, 60)))
    n_iters = draw(st.integers(0, 400))
    return dict(
        kind=kind, ctl=ctl, params=params, seed=draw(st.integers(0, 2**64 - 1)),
        stream=draw(st.integers(0, 2**64 - 1)), n_iters=n_iters,
        batch_size=1 if kind == "lsa" else draw(st.integers(1, 3)),
        trace_stride=draw(st.integers(1, 60)), averaging=draw(st.booleans()),
        tail_from=draw(st.none() | st.integers(1, n_iters)) if n_iters else None,
        init_offset_scale=draw(st.sampled_from((0.0, 1e-9)) | st.floats(0.01, 3.0)),
        track_coupling=draw(st.booleans()))


@given(drawn_cases())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_run_is_the_spec_on_drawn_configurations(case):
    # a failing draw joins CASES above as a named case
    spec, got, _ = spec_and_engine(**case)
    assert _hexed(got) == _hexed(spec)


# several streams of seed 7 under one fixed schedule: (the schedule, from the
# problem; the streams; the EngineConfig fields; the streams whose chains
# diverge, at different steps, while the others run on)
LOCKSTEP = {
    "quadratic/averaging": (lambda prob: ("inv_sqrt", prob.default_gamma0()), range(300, 303),
                            dict(n_iters=300, averaging=True, tail_from=100), ()),
    "least_squares/mixed": (lambda prob: ("inv_sqrt", 6.0), range(110, 116),
                            dict(n_iters=300, tail_from=11), (110, 112, 115)),
    # lsa's int tokens: 11 chains diverge across both block boundaries, and
    # stream 115 steps on alone through the cut rest of its block
    "lsa/one_left": (lambda prob: ("constant", 4 * prob.default_gamma0()), range(110, 122),
                     dict(n_iters=600, averaging=True, tail_from=11),
                     tuple(s for s in range(110, 122) if s != 115)),
    # svm's (X, y) tuples: every chain diverges within three steps of the others
    "svm/all_diverge": (lambda prob: ("constant", 25.0), range(110, 122),
                        dict(n_iters=300, averaging=True, tail_from=11), tuple(range(110, 122))),
}


def replicates_and_specs(kind, schedule, streams, seed=7, **fields):
    """``run_replicates``' record of each stream, and the spec's on a fresh stream of that id."""
    prob = problem(kind)
    params = ControllerParams(kind="fixed", schedule=schedule)
    cfg = EngineConfig(**{"trace_stride": 5, **fields})
    rngs = [RngStream(seed, s) for s in streams]
    traces = run_replicates(prob, make_controller(params, prob), cfg, rngs)
    specs = [spec_run(prob, make_controller(params, prob), cfg, RngStream(seed, s))
             for s in streams]
    for spec in specs:
        del spec["perturbed"]
    return [_engine_record(trace, rng) for trace, rng in zip(traces, rngs)], specs


@pytest.mark.parametrize("case", sorted(LOCKSTEP))
def test_each_lockstep_replicate_is_the_spec(case):
    kind = case.split("/")[0]
    schedule, streams, fields, want_diverged = LOCKSTEP[case]
    got, specs = replicates_and_specs(kind, schedule(problem(kind)), streams, **fields)
    assert _hexed(got) == _hexed(specs)
    diverged = tuple(s for s, spec in zip(streams, specs) if spec["failure"] is not None)
    assert diverged == want_diverged


@st.composite
def drawn_lockstep(draw):
    """A lockstep case: a kind, one seed's 2-6 distinct streams, a fixed schedule and the
    EngineConfig fields."""
    kind = draw(st.sampled_from(sorted(PROBLEMS)))
    # up to 8x the default γ0, so some chains diverge
    name = draw(st.sampled_from(("constant", "inv_sqrt")))
    gamma = problem(kind).default_gamma0() * draw(st.floats(0.25, 8.0))
    n_iters = draw(st.integers(0, 600))  # past 256, a second token block
    return dict(
        kind=kind, schedule=(name, gamma),
        seed=draw(st.integers(0, 2**64 - 1)),
        streams=draw(st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=6, unique=True)),
        n_iters=n_iters, batch_size=1 if kind == "lsa" else draw(st.integers(1, 3)),
        # a logistic record scores θ̄ on the 20 000-sample pool: at most 30 a chain
        trace_stride=draw(st.integers(20 if kind == "logistic" else 1, 60)),
        averaging=draw(st.booleans()),
        tail_from=draw(st.none() | st.integers(1, n_iters)) if n_iters else None)


@given(drawn_lockstep())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_each_lockstep_replicate_is_the_spec_on_drawn_configurations(case):
    # a failing draw joins LOCKSTEP above as a named case
    got, specs = replicates_and_specs(**case)
    assert _hexed(got) == _hexed(specs)
