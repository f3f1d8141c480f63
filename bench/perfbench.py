"""Workloads, measurement and outside-in tracing for the csgd benchmark.

The benchmark drives only the public API (``problems.make_problem``,
``controllers.make_controller``, ``engine.run``,
``oracle.stationary_error_estimate``) and changes no package code.  A
traced pass wraps the problem, controller and random stream it hands to the
engine and, for that pass only, rebinds the public names the package looks
up at call time (see :func:`rebound`).  README.md in this directory says why
each workload exists and which end-to-end metric each layer metric moves.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import statistics
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

import csgd.controllers as controllers
import csgd.engine as engine
import csgd.numkit as numkit
import csgd.oracle as oracle
import csgd.problems as problems
from csgd.controllers import ControllerParams

MC_REPS = 10
COUPLING_RTOL = 1e-12  # engine d_sq against the closed-form D_k series


@dataclass(frozen=True)
class RunSpec:
    """One run: build a fresh problem, then ``engine.run`` or a stationary estimate."""

    kind: str
    d: int
    n: int = 0
    problem_seed: int = 1
    controller: ControllerParams | None = None  # None: stationary_error_estimate
    n_iters: int = 5_000  # engine iterations, or the estimator's horizon
    trace_stride: int = 100
    averaging: bool = False

    @property
    def label(self) -> str:
        ctl = self.controller.kind if self.controller else "stationary"
        return f"{self.kind}(d={self.d}, n={self.n})/{ctl}"


_STATIC = ControllerParams(kind="coupling_static")
_ADAPTIVE = ControllerParams(kind="coupling_adaptive", beta0=0.5, eta=0.99, r=0.9, b=5)

# Why each workload exists is written down in README.md.
WORKLOADS: dict[str, tuple[RunSpec, ...]] = {
    "stream_coupled": (
        RunSpec("least_squares", 5, controller=_STATIC),
        RunSpec("least_squares", 100, controller=_STATIC),
        RunSpec("quadratic", 5, controller=_STATIC),
    ),
    "dataset_baselines": (
        RunSpec("logistic", 10, 1000, controller=_STATIC, n_iters=10_000),
        RunSpec("svm", 10, 1000, controller=ControllerParams(kind="pflug", burn_in=None),
                n_iters=10_000),
        RunSpec("lasso", 100, 1000, controller=ControllerParams(kind="distance"),
                n_iters=10_000),
    ),
    "mc_stationary": (
        RunSpec("quadratic", 5, n_iters=1_000),
        RunSpec("least_squares", 5, n_iters=1_000),
    ),
    "trace_dense": (
        RunSpec("lsa", 5, controller=_ADAPTIVE, n_iters=10_000, trace_stride=1, averaging=True),
        RunSpec("quadratic", 5, controller=_ADAPTIVE, n_iters=10_000, trace_stride=1,
                averaging=True),
    ),
}

END_TO_END_UNITS = {"iters_per_s": "1/s", "setup_s": "s", "wall_s": "s"}
PER_LAYER_UNITS = {
    "numkit.self_us_per_iter": "us",
    "numkit.raw_calls_per_iter": "count",
    "numkit.words_per_iter": "count",
    "numkit.normals_per_word": "ratio",
    "problems.token_self_us_per_iter": "us",
    "problems.oracle_us_per_call": "us",
    "problems.oracle_calls_per_iter": "count",
    "problems.build_s": "s",
    "problems.reference_s": "s",
    "problems.constants_s": "s",
    "controllers.observe_us_per_call": "us",
    "controllers.restarts_per_kiter": "count",
    "engine.step_self_us_per_iter": "us",
    "engine.loop_self_us_per_iter": "us",
    "engine.record_us_per_record": "us",
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------- tracing


class Tracer:
    """Nested spans, folded into per-name totals as each one closes.

    A span's self time is its duration minus the durations of the spans it
    directly contains.  Folding on close keeps memory constant however long
    the traced passes run; the totals are written out when the run ends.
    """

    def __init__(self):
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.tally: dict[str, int] = defaultdict(int)

    def enter(self, name: str) -> None:
        self.stack.append([name, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        name, start, children = self.stack.pop()
        duration = end - start
        self.count[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - children
        if self.stack:
            self.stack[-1][2] += duration

    def layer_self(self, prefix: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.startswith(prefix))


def timed(tracer: Tracer, name: str, fn):
    """``fn`` inside a span called ``name``."""

    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


class Delegate:
    """Forwards every attribute to ``inner``; the named methods run inside spans."""

    def __init__(self, inner, tracer: Tracer, spans: dict[str, str]):
        self._inner = inner
        for method, span in spans.items():
            setattr(self, method, timed(tracer, span, getattr(inner, method)))

    def __getattr__(self, name):
        return getattr(self._inner, name)


PROBLEM_SPANS = {
    "next_token": "problems.token",
    "step_direction": "problems.oracle",
    "loss": "problems.loss",
}
CONTROLLER_SPANS = {
    "observe": "controllers.observe",
    "stepsize": "controllers.stepsize",
    "rearm": "controllers.rearm",
}


def traced_stream_class(tracer: Tracer):
    """``RngStream`` subclass that times its draws and counts raw words."""

    base = numkit.RngStream

    class TracedRngStream(base):
        def _span(self, name, method, *args):
            tracer.enter(name)
            try:
                return method(self, *args)
            finally:
                tracer.exit()

        def raw(self, n):
            tracer.tally["raw_calls"] += 1
            tracer.tally["words"] += int(n)
            return self._span("numkit.raw", base.raw, n)

        def normals(self, n):
            before = self.counter
            z = self._span("numkit.normals", base.normals, n)
            tracer.tally["normals"] += int(n)
            tracer.tally["normal_words"] += self.counter - before
            return z

        def uniforms(self, n):
            return self._span("numkit.uniforms", base.uniforms, n)

        def integers(self, n, bound):
            return self._span("numkit.integers", base.integers, n, bound)

    return TracedRngStream


class _RecordStart(list):
    """``RunTrace.ks``: the engine's record step appends here first."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def append(self, item):
        self._tracer.enter("engine.record")
        super().append(item)


class _RecordEnd(list):
    """``RunTrace.restart_flags``: the engine's record step appends here last."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def append(self, item):
        super().append(item)
        self._tracer.exit()


def traced_trace_class(tracer: Tracer):
    """``RunTrace`` whose first and last column mark the span of one record."""

    class TracedRunTrace(engine.RunTrace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.ks = _RecordStart(tracer)
            self.restart_flags = _RecordEnd(tracer)

    return TracedRunTrace


@contextlib.contextmanager
def rebound(tracer: Tracer | None):
    """Rebind the package's public call-time names to traced versions.

    Covers the names one layer reaches through another module's namespace:
    the gaussian draw in ``problems``, the step, re-arm, record and run
    entry points of ``engine``, and the stream class, controller factory and
    engine the oracle imports when called.  Everything is restored on exit.
    """
    if tracer is None:
        yield
        return

    def make_traced_controller(params, problem=None):
        return Delegate(make_controller(params, problem), tracer, CONTROLLER_SPANS)

    make_controller = controllers.make_controller
    new = {
        (problems, "gaussian"): timed(tracer, "numkit.gaussian", numkit.gaussian),
        (numkit, "RngStream"): traced_stream_class(tracer),
        (engine, "coupled_step"): timed(tracer, "engine.step", engine.coupled_step),
        (engine, "reinit_auxiliary"): timed(tracer, "engine.reinit", engine.reinit_auxiliary),
        (engine, "RunTrace"): traced_trace_class(tracer),
        (engine, "run"): timed(tracer, "engine.run", engine.run),
        (controllers, "make_controller"): make_traced_controller,
        (oracle, "stationary_error_estimate"): timed(
            tracer, "oracle.estimate", oracle.stationary_error_estimate),
    }
    saved = {key: getattr(*key) for key in new}
    try:
        for (module, name), value in new.items():
            setattr(module, name, value)
        yield
    finally:
        for (module, name), value in saved.items():
            setattr(module, name, value)


# ----------------------------------------------------------- machine speed

# This host's speed drifts by up to about 2x, in spells of seconds to
# minutes, for every process alike.  A fixed loop in the workloads' style
# (Python calls and small NumPy operations on random rows), timed before
# each run's set-up, between set-up and loop and after the loop, measures
# the drift.  Set-up and loop times are divided by the loop's mean slowdown
# on either side, against NOMINAL_CAL_S, so figures read as if taken at one
# nominal speed.
CAL_LOOPS = 6_000
NOMINAL_CAL_S = 0.02


@dataclass
class _CalStep:
    index: int
    value: float


def calibrate() -> float:
    """Seconds the reference loop takes now."""
    start = perf_counter()
    words = np.random.Philox(key=np.array([1, 2], dtype=np.uint64))
    table = np.linspace(0.0, 1.0, 16 * 64).reshape(64, 16)
    x = np.zeros(16)
    acc = 0.0
    steps = []
    for i in range(CAL_LOOPS):
        row = table[int(words.random_raw(1)[0] % 64)]
        x = x + 0.01 * (1.0 - float(row @ x)) * row
        step = _CalStep(i, math.sqrt(acc + 1.0))
        acc += 0.5 * step.value
        steps.append(step)
    return perf_counter() - start


# ------------------------------------------------------------------ passes


@dataclass
class RunResult:
    """Raw timings, counts and outcome of one run."""

    setup_s: float = 0.0
    run_s: float = 0.0
    stages: dict[str, float] = field(default_factory=dict)
    iters: int = 0
    restarts: int = 0
    digest: str | None = None
    failure: str | None = None
    cal_mid: float | None = None  # reference loop between set-up and the run


def _digest(*parts) -> str:
    text = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _coupling_identity_error(problem, controller, seed: int, index: int, trace) -> float:
    """Largest relative gap between first-phase d_sq and the closed-form D_k series.

    On a quadratic with additive noise the coupled difference evolves as
    D_k = (I - γH)^k D_0 exactly.  D_0 is minus the engine's initial offset,
    the first ``normals(d)`` of the run's stream.  The first restart's
    statistic times ||D_0||² is one more point of the series.
    """
    d0 = numkit.RngStream(seed, index).normals(problem.d)
    d0_sq = float(d0 @ d0)
    first = trace.restart_log[0].k if trace.restart_log else math.inf
    points = [(k, d_sq) for k, d_sq in zip(trace.ks, trace.d_sqs) if k <= first]
    if trace.restart_log:
        points.append((first, trace.restart_log[0].statistic * d0_sq))
    gamma0 = controller.params.gamma0
    want = oracle.dk_closed_form_series(problem.H, gamma0, d0, [k for k, _ in points])
    return max(abs(got - ref) / ref for (_, got), ref in zip(points, want))


def _execute(spec: RunSpec, index: int, seed: int, tracer: Tracer | None,
             res: RunResult) -> None:
    """Set up and run one spec, filling ``res``; a failed check sets ``res.failure``."""
    t0 = perf_counter()
    problem = problems.make_problem(spec.kind, spec.d, spec.n, spec.problem_seed)
    t1 = perf_counter()
    problem.theta_star
    t2 = perf_counter()
    problem.L, problem.mu
    t3 = perf_counter()
    if spec.controller is None:
        gamma = problem.default_gamma0()
    else:
        controller = controllers.make_controller(spec.controller, problem)
    t4 = perf_counter()
    res.stages = {"build": t1 - t0, "reference": t2 - t1, "constants": t3 - t2}
    res.setup_s = t4 - t0
    res.cal_mid = calibrate()

    if tracer is not None:
        problem = Delegate(problem, tracer, PROBLEM_SPANS)
        if spec.controller is not None:
            controller = Delegate(controller, tracer, CONTROLLER_SPANS)
    with rebound(tracer):
        if spec.controller is None:
            start = perf_counter()
            est = oracle.stationary_error_estimate(
                problem, gamma, horizon=spec.n_iters, reps=MC_REPS, seed=seed)
            res.run_s = perf_counter() - start
        else:
            cfg = engine.EngineConfig(
                n_iters=spec.n_iters, trace_stride=spec.trace_stride, averaging=spec.averaging)
            rng = numkit.RngStream(seed, index)
            start = perf_counter()
            trace = engine.run(problem, controller, cfg, rng)
            res.run_s = perf_counter() - start

    if spec.controller is None:
        res.iters = MC_REPS * spec.n_iters
        res.digest = _digest(est.per_rep)
        if not all(math.isfinite(v) and v > 0.0 for v in est.per_rep):
            res.failure = f"stationary estimate not finite and positive: {est.per_rep}"
        return

    summary = trace.summary
    res.iters = summary["k"]
    res.restarts = summary["n_restarts"]
    res.digest = _digest(summary, rng.counter)
    if trace.failure is not None:
        res.failure = trace.failure
    elif not math.isfinite(summary["final_err"]):
        res.failure = f"final_err={summary['final_err']}"
    elif spec.kind == "quadratic" and controller.needs_coupling:
        err = _coupling_identity_error(problem, controller, seed, index, trace)
        if not err <= COUPLING_RTOL:
            res.failure = f"coupling identity off by {err:.3g} relative"


@dataclass
class PassResult:
    """One pass over a workload's runs; times are scaled to nominal speed."""

    setup_s: float = 0.0
    run_s: float = 0.0
    raw_setup_s: float = 0.0
    raw_run_s: float = 0.0
    slowdowns: list[float] = field(default_factory=list)  # one per run's loop
    iters: int = 0
    restarts: int = 0
    stages: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    setup_by_kind: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    digests: list[str | None] = field(default_factory=list)
    failures: dict[int, str] = field(default_factory=dict)  # run index -> reason

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s

    @property
    def raw_wall_s(self) -> float:
        return self.raw_setup_s + self.raw_run_s

    def add(self, kind: str, res: RunResult, before: float, after: float) -> None:
        """Scale set-up and loop by the reference loop timed on either side of each."""
        mid = res.cal_mid if res.cal_mid is not None else 0.5 * (before + after)
        setup_slowdown = (before + mid) / (2.0 * NOMINAL_CAL_S)
        run_slowdown = (mid + after) / (2.0 * NOMINAL_CAL_S)
        self.setup_s += res.setup_s / setup_slowdown
        self.run_s += res.run_s / run_slowdown
        self.raw_setup_s += res.setup_s
        self.raw_run_s += res.run_s
        self.slowdowns.append(run_slowdown)
        self.iters += res.iters
        self.restarts += res.restarts
        for stage, seconds in res.stages.items():
            self.stages[stage] += seconds / setup_slowdown
        self.setup_by_kind[kind] += res.setup_s / setup_slowdown
        self.digests.append(res.digest)


def run_pass(runs: tuple[RunSpec, ...], seed: int, tracer: Tracer | None = None) -> PassResult:
    out = PassResult()
    before = calibrate()
    for index, spec in enumerate(runs):
        res = RunResult()
        try:
            _execute(spec, index, seed, tracer, res)
        except Exception:  # a run that raises is a failed run; the others go on
            if tracer is not None:
                tracer.stack.clear()
            res.failure = traceback.format_exc(limit=4)
        after = calibrate()
        out.add(spec.kind, res, before, after)
        before = after
        if res.failure is not None:
            out.failures[index] = f"{spec.label}: {res.failure}"
    return out


# ------------------------------------------------------------- reporting


@dataclass
class Report:
    workload: str
    seed: int
    attempted: int
    failed: int
    failures: list[str]
    passes: int
    traced_passes: int
    trace_digest: str
    traced_digest: str | None
    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    detail: dict[str, float | None]  # raw figures, and layer figures some workloads lack

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted


def _per_layer(tracer: Tracer, traced: list[PassResult], plain: list[PassResult]):
    iters = max(sum(p.iters for p in traced), 1)  # 0 only when every run failed
    # span times are raw; scale them to nominal speed like the end-to-end figures
    scale = 1.0 / statistics.median(s for p in traced for s in p.slowdowns)
    us = 1e6 * scale

    def per_call(name):
        n = tracer.count.get(name, 0)
        return us * tracer.total[name] / n if n else None

    def median_stage(stage):
        return statistics.median(p.stages[stage] for p in traced + plain)

    layers = {
        "numkit.self_us_per_iter": us * tracer.layer_self("numkit.") / iters,
        "numkit.raw_calls_per_iter": tracer.tally["raw_calls"] / iters,
        "numkit.words_per_iter": tracer.tally["words"] / iters,
        "numkit.normals_per_word": tracer.tally["normals"] / max(tracer.tally["normal_words"], 1),
        "problems.token_self_us_per_iter": us * tracer.self_time["problems.token"] / iters,
        "problems.oracle_us_per_call": per_call("problems.oracle"),
        "problems.oracle_calls_per_iter": tracer.count["problems.oracle"] / iters,
        "problems.build_s": median_stage("build"),
        "problems.reference_s": median_stage("reference"),
        "problems.constants_s": median_stage("constants"),
        "controllers.observe_us_per_call": per_call("controllers.observe"),
        "controllers.restarts_per_kiter": 1e3 * sum(p.restarts for p in traced) / iters,
        "engine.step_self_us_per_iter": us * tracer.self_time["engine.step"] / iters,
        "engine.loop_self_us_per_iter": us * tracer.self_time["engine.run"] / iters,
        "engine.record_us_per_record": per_call("engine.record"),
        "trace.overhead_frac": statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in plain) - 1.0,
    }
    detail = {
        "problems.loss_us_per_record": (
            us * tracer.total["problems.loss"] / tracer.count["engine.record"]
            if tracer.count.get("problems.loss") else None),
        "engine.reinit_us_per_call": per_call("engine.reinit"),
        "controllers.stepsize_us_per_call": per_call("controllers.stepsize"),
        "controllers.rearm_us_per_call": per_call("controllers.rearm"),
        "oracle.estimate_s": (scale * tracer.total["oracle.estimate"] / len(traced)
                              if tracer.count.get("oracle.estimate") else None),
    }
    return layers, detail


def measure(workload: str, seed: int, seconds: float, trace: bool,
            iters_scale: float = 1.0) -> Report:
    """Repeat the workload's passes for ``seconds``; with ``trace`` alternate
    untraced and traced passes so both see the same machine state."""
    runs = WORKLOADS[workload]
    if iters_scale != 1.0:
        runs = tuple(replace(r, n_iters=max(1, round(r.n_iters * iters_scale))) for r in runs)
    tracer = Tracer() if trace else None
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    deadline = perf_counter() + seconds
    while True:
        plain.append(run_pass(runs, seed))
        if tracer is not None:
            traced.append(run_pass(runs, seed, tracer))
        if perf_counter() >= deadline:
            break

    # every pass must reproduce the first one bit for bit, traced or not
    reference = plain[0].digests
    failures = []
    for p in plain + traced:
        for index, digest in enumerate(p.digests):
            if index in p.failures:
                failures.append(p.failures[index])
            elif digest != reference[index]:
                failures.append(f"{runs[index].label}: digest {digest} != {reference[index]}")

    def median(values):
        return statistics.median(list(values))

    end_to_end = {
        "iters_per_s": median(p.iters / p.run_s if p.run_s else 0.0 for p in plain),
        "setup_s": median(p.setup_s for p in plain),
        "wall_s": median(p.wall_s for p in plain),
    }
    per_layer, detail = _per_layer(tracer, traced, plain) if tracer else ({}, {})
    for kind in dict.fromkeys(r.kind for r in runs):
        detail[f"problems.setup_s.{kind}"] = median(p.setup_by_kind[kind] for p in plain)
    detail.update({
        "raw.iters_per_s": median(p.iters / p.raw_run_s if p.raw_run_s else 0.0 for p in plain),
        "raw.setup_s": median(p.raw_setup_s for p in plain),
        "raw.wall_s": median(p.raw_wall_s for p in plain),
        "machine.slowdown": median(s for p in plain for s in p.slowdowns),
    })
    return Report(
        workload=workload,
        seed=seed,
        attempted=len(runs) * (len(plain) + len(traced)),
        failed=len(failures),
        failures=failures,
        passes=len(plain),
        traced_passes=len(traced),
        trace_digest=_digest(reference),
        traced_digest=_digest(traced[0].digests) if traced else None,
        end_to_end=end_to_end,
        per_layer=per_layer,
        detail=detail,
    )
