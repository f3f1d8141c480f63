import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csgd import errors
from csgd.controllers import (
    CONTROLLERS,
    SCHEDULES,
    ControllerParams,
    CouplingController,
    DistanceController,
    FixedScheduleController,
    PflugController,
    make_controller,
    resolve_schedule,
)
from csgd.engine import EngineConfig, RunTrace, run
from csgd.errors import ConfigError, DegenerateDiagnosticError
from csgd.numkit import RngStream
from csgd.problems import make_problem


def observe(ctrl, k, d_sq=None, theta1=None, direction=None):
    """Show ``ctrl`` step k; returns (decayed, statistic)."""
    phase = ctrl.phase_index
    stat = ctrl.observe(k, np.zeros(2) if theta1 is None else theta1, d_sq, direction)
    return ctrl.phase_index == phase + 1, stat


def coupling(adaptive=False, **kw):
    kw.setdefault("kind", "coupling_adaptive" if adaptive else "coupling_static")
    kw.setdefault("gamma0", 0.2)
    d0_sq = kw.pop("d0_sq", 1.0)
    ctrl = CouplingController(ControllerParams(**kw))
    ctrl.rearm(d0_sq)
    return ctrl


# ------------------------------------------------------------------ validation


def test_params_validated():
    for bad in [
        dict(gamma0=-1.0),
        dict(gamma0=0.1, r=1.0),
        dict(gamma0=0.1, beta0=0.0),
        dict(gamma0=0.1, eta=1.5),
        dict(gamma0=0.1, b=-1),
        dict(kind="who"),
        dict(kind="fixed", schedule=("inv_sqrt",)),
        dict(kind="fixed", schedule=("uniform_opt",)),
        dict(kind="fixed", schedule=("constant", 0.1, 0.2)),
        dict(kind="fixed", schedule=("inv_mu_k", 0.0)),
        dict(kind="fixed", schedule=("constant", -1.0)),
        dict(kind="pflug", gamma0=math.nan, burn_in=None),
        dict(kind="distance", gamma0=math.nan),
        dict(gamma0=math.inf),
        dict(gamma0=0.1, b=2.5),
        dict(gamma0=0.1, burn_in=math.nan),
        dict(gamma0=0.1, r="0.5"),
        dict(gamma0=0.1, beta0="0.1"),
        dict(gamma0=0.1, eta=None),
        dict(gamma0=0.1, beta0=True),
        dict(gamma0=True),
        # a schedule that is no sequence, or whose name is unhashable, raised TypeError
        dict(kind="fixed", schedule=5),
        dict(kind="fixed", schedule=(["constant"], 0.1)),
    ]:
        with pytest.raises(ConfigError):
            ControllerParams(**bad).validate()
    with pytest.raises(ConfigError, match="schedule"):
        make_controller(ControllerParams(kind="fixed", schedule=5))
    # with no problem, an unknown kind raised "gamma0 unset" before its kind was checked
    with pytest.raises(ConfigError, match="unknown controller kind"):
        make_controller(ControllerParams(kind="who"))


def test_controller_without_gamma0_fails_with_config_error():
    # make_controller fills gamma0 from a problem; a controller built without
    # one has no stepsize, which surfaced as a TypeError at its first step
    with pytest.raises(ConfigError, match="gamma0"):
        CouplingController(ControllerParams(kind="coupling_static"))


CSGD_ERRORS = tuple(
    v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)
)
_ODD = st.sampled_from([math.nan, math.inf, -math.inf, 2.5, -1.0, 0.0, None, "0.5"])


def _mostly(good):
    """A draw from ``good`` 19 times in 20, else a NaN, an infinity, a non-integer,
    None or a numeric string."""
    return st.tuples(st.integers(0, 19), good, _ODD).map(lambda t: t[2] if t[0] == 0 else t[1])


def _count(lo, hi):
    return _mostly(st.integers(lo, hi))


def _real(lo, hi):
    return _mostly(st.floats(lo, hi, exclude_min=True, exclude_max=True))


@lru_cache(maxsize=None)
def _fuzz_problem():
    return make_problem("quadratic", 3, seed=5)


@given(
    params=st.builds(
        ControllerParams,
        kind=st.sampled_from(tuple(CONTROLLERS)),
        gamma0=st.one_of(st.none(), _real(0.0, 10.0)),
        r=_real(0.0, 1.0),
        b=_count(0, 20),
        beta0=_real(0.0, 1.0),
        eta=_real(0.0, 1.0),
        burn_in=st.one_of(st.none(), _count(0, 60)),
        schedule=st.tuples(st.sampled_from(sorted(SCHEDULES)), _real(0.0, 10.0)),
    ),
    cfg=st.fixed_dictionaries(dict(
        n_iters=_count(0, 50),
        batch_size=_count(1, 3),
        averaging=st.booleans(),
        trace_stride=_count(1, 60),
        init_offset_scale=_real(0.0, 1e3),
        track_coupling=st.booleans(),
        tail_from=st.one_of(st.none(), _count(-5, 60)),
    )),
    seed=st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_fuzzed_configs_fail_with_a_package_error_or_run(params, cfg, seed):
    prob = _fuzz_problem()
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # diverging draws overflow
            trace = run(prob, make_controller(params, prob), EngineConfig(**cfg),
                        RngStream(seed, 0))
    except CSGD_ERRORS:
        return
    assert isinstance(trace, RunTrace)


@given(st.integers(min_value=0, max_value=40))
@settings(max_examples=30, deadline=None)
def test_phase_algebra_exact_powers(m):
    ctrl = coupling(adaptive=True, gamma0=0.7, r=0.5, eta=0.75)
    for k in range(1, m + 1):
        ctrl._decay(k)
    assert ctrl.phase_index == m
    assert ctrl.gamma == 0.7 * 0.5**m  # exact power form, no drift
    assert ctrl.beta == 1e-2 * 0.75**m


# -------------------------------------------------------------------- coupling


def test_coupling_coincident_iterates_decay():
    ctrl = coupling()
    decayed, _ = observe(ctrl, 1, d_sq=0.0)
    assert decayed and ctrl.needs_coupling
    assert ctrl.gamma == pytest.approx(0.1)


def test_coupling_tie_continues():
    # S == β exactly: strict inequality means Continue
    ctrl = coupling(beta0=0.25, d0_sq=1.0)
    decayed, stat = observe(ctrl, 1, d_sq=0.25)
    assert not decayed
    assert stat == 0.25


def test_coupling_first_decay_matches_closed_form():
    # isotropic quadratic: S_k = (1 - γh)^{2k} exactly; with h=0.5, γ=0.2,
    # β=0.01 the first k with S < β is k = 22
    gamma, h, beta = 0.2, 0.5, 1e-2
    contraction = (1.0 - gamma * h) ** 2
    predicted = math.floor(math.log(beta) / math.log(contraction)) + 1
    assert predicted == 22

    ctrl = coupling(beta0=beta, gamma0=gamma)
    fired_at = None
    for k in range(1, 100):
        decayed, _ = observe(ctrl, k, d_sq=contraction**k)
        if decayed:
            fired_at = k
            break
    assert fired_at == predicted


def test_coupling_respects_burn_in():
    ctrl = coupling(burn_in=50)
    fired = []
    for k in range(1, 120):
        if observe(ctrl, k, d_sq=1e-9)[0]:
            fired.append(k)
            break
    assert fired == [51]  # the first step past the burn-in


def test_coupling_burn_in_restarts_with_each_phase():
    ctrl = coupling(burn_in=50)
    fired = []
    for k in range(1, 200):
        if observe(ctrl, k, d_sq=1e-9)[0]:
            fired.append(k)
            ctrl.rearm(1.0)
    # phase 2 starts at k = 51 and waits 50 steps, so it fires at k = 102
    assert fired == [51, 102, 153]


def test_coupling_adaptive_shrinks_threshold():
    ctrl = coupling(adaptive=True, beta0=1e-2, eta=0.5)
    assert ctrl.beta == 1e-2
    decayed, _ = observe(ctrl, 1, d_sq=0.0)
    assert decayed
    ctrl.rearm(1.0)
    assert ctrl.beta == 5e-3


def test_coupling_scale_invariance():
    # scaling D_k and D_0 by a common power of two leaves S bit-identical
    base = coupling(beta0=0.37)
    scaled = coupling(beta0=0.37)
    scaled.rearm(1.0 * 2.0**40)
    seq = [0.9, 0.5, 0.4, 0.36, 0.371, 0.2]
    for k, d in enumerate(seq, start=1):
        decayed1, stat1 = observe(base, k, d_sq=d)
        decayed2, stat2 = observe(scaled, k, d_sq=d * 2.0**40)
        assert stat1 == stat2
        assert decayed1 == decayed2


def test_coupling_degenerate_reference_raises():
    ctrl = CouplingController(ControllerParams(kind="coupling_static", gamma0=0.1))
    with pytest.raises(DegenerateDiagnosticError):
        observe(ctrl, 1, d_sq=0.5)
    ctrl.rearm(0.0)
    with pytest.raises(DegenerateDiagnosticError):
        observe(ctrl, 1, d_sq=0.5)


# ----------------------------------------------------------------------- pflug


def _pflug(**kw):
    kw.setdefault("kind", "pflug")
    kw.setdefault("gamma0", 0.1)
    kw.setdefault("burn_in", 0)
    return PflugController(ControllerParams(**kw))


def test_pflug_positive_products_never_decay():
    ctrl = _pflug()
    g = np.array([1.0, 0.0])
    for k in range(1, 200):
        decayed, _ = observe(ctrl, k, direction=g)
        assert not decayed


def test_pflug_negative_running_mean_decays():
    ctrl = _pflug()
    u = np.array([1.0, 0.0])
    seq = [u, -u, u, -u, -u]  # inner products from k=2: -1, -1, -1, +1
    fired = None
    for k, cur in enumerate(seq, start=1):
        decayed, stat = observe(ctrl, k, direction=cur)
        if k == 1:
            assert math.isnan(stat)  # no earlier step, no inner product
        if decayed:
            fired = k
            break
    assert fired is not None
    assert not ctrl.needs_coupling


def test_pflug_resets_clock_and_sum_on_decay():
    ctrl = _pflug(burn_in=2)
    u = np.array([1.0])
    fired = []
    for k in range(1, 12):
        # alternating directions: every inner product is -1
        if observe(ctrl, k, direction=-u if k % 2 else u)[0]:
            fired.append(k)
    # after each decay the burn-in clock restarts, spacing decays apart
    assert fired
    assert all(b - a > 2 for a, b in zip(fired, fired[1:]))


def test_pflug_auto_burn_in_from_curvature():
    params = ControllerParams(kind="pflug", gamma0=0.5, burn_in=None)
    ctrl = PflugController(params, mu_hint=0.1)
    assert ctrl.params.burn_in == int(2.0 / (0.5 * 0.1))
    ctrl = PflugController(params, mu_hint=1e-9)
    assert ctrl.params.burn_in == 10_000  # capped


# -------------------------------------------------------------------- distance


def test_distance_linear_growth_continues():
    # Ω growing linearly in k: slope ≈ 1 on log-log axes
    ctrl = DistanceController(ControllerParams(kind="distance", gamma0=0.1))
    anchor = np.zeros(1)
    observe(ctrl, 1, theta1=anchor)
    for k in range(2, 400):
        theta = np.array([math.sqrt(k)])  # Ω = k
        assert not observe(ctrl, k, theta1=theta)[0]


def test_distance_frozen_distance_decays():
    ctrl = DistanceController(ControllerParams(kind="distance", gamma0=0.1))
    observe(ctrl, 1, theta1=np.zeros(1))
    fired = None
    for k in range(2, 100):
        theta = np.array([1.0])  # Ω frozen at 1
        if observe(ctrl, k, theta1=theta)[0]:
            fired = k
            break
    assert fired is not None


def test_distance_zero_distance_checkpoint_skipped():
    ctrl = DistanceController(ControllerParams(kind="distance", gamma0=0.1))
    observe(ctrl, 1, theta1=np.zeros(1))
    for k in range(2, 50):
        decayed, _ = observe(ctrl, k, theta1=np.zeros(1))  # Ω = 0 throughout
        assert not decayed  # cannot take log, checkpoints skipped


def test_distance_first_phase_counts_from_anchor():
    # θ moves one unit per step from the anchor at k=1, so Ω = k_rel² and
    # every slope is exactly 2 when k_rel counts steps since the anchor
    ctrl = DistanceController(ControllerParams(kind="distance", gamma0=0.1))
    observe(ctrl, 1, theta1=np.zeros(1))
    slopes = []
    for k in range(2, 60):
        decayed, stat = observe(ctrl, k, theta1=np.array([float(k - 1)]))
        assert not decayed
        if not math.isnan(stat):
            slopes.append(stat)
    assert slopes and slopes == pytest.approx([2.0] * len(slopes), rel=1e-12)


@pytest.mark.parametrize(
    "burn_in, mu_hint, first_slopes",
    [
        # burn-in 30 in both phases: checkpoints at k_rel 31, then 39
        (30, None, [39, 39]),
        # relaxation times 2/(0.1·1) = 20 and 2/(0.05·1) = 40: checkpoints
        # at 21 then 26, and at 41 then 58
        (0, 1.0, [26, 58]),
    ],
)
def test_distance_burn_in_restarts_with_each_phase(burn_in, mu_hint, first_slopes):
    ctrl = DistanceController(
        ControllerParams(kind="distance", gamma0=0.1, r=0.5, burn_in=burn_in),
        mu_hint=mu_hint,
    )
    observe(ctrl, 1, theta1=np.zeros(1))
    phase_start, seen = 1, []
    for k in range(2, 200):
        # one unit from each phase's anchor: Ω = 1 and every slope is 0
        decayed, stat = observe(ctrl, k, theta1=np.array([float(len(seen) + 1)]))
        if not math.isnan(stat):
            assert decayed
            seen.append(k - phase_start)
            phase_start = k
        if len(seen) == len(first_slopes):
            break
    assert seen == first_slopes


# ------------------------------------------------------------- fixed schedules


def test_fixed_schedule_values():
    assert resolve_schedule("inv_sqrt", 1.0)(4) == 0.5
    assert resolve_schedule("inv_mu_k", 0.1)(10) == pytest.approx(1.0)
    assert resolve_schedule("constant", 0.25)(123) == 0.25
    # p = 2.5 gives τ = 0.2 and exponent -1/1.2
    tau = 1.0 - 2.0 / 2.5
    assert resolve_schedule("uniform_opt", tau)(8) == pytest.approx(8 ** (-1.0 / 1.2))


def test_resolve_schedule_rejects_an_unknown_kind():
    with pytest.raises(ConfigError, match="unknown schedule kind"):
        resolve_schedule("who", 1.0)


@pytest.mark.parametrize(
    "kind, formula",
    [("constant", lambda c, k: c), ("inv_sqrt", lambda c, k: c / math.sqrt(k)),
     ("inv_mu_k", lambda c, k: 1.0 / (c * k)), ("uniform_opt", lambda c, k: k ** (-1.0 / (c + 1.0)))],
    ids=["constant", "inv_sqrt", "inv_mu_k", "uniform_opt"],
)
def test_schedules_convert_float32_constants_once(kind, formula):
    # a float32 μ or τ once gave float32 stepsizes: 0.47619045 from inv_mu_k(0.3) at k = 7
    c = np.float32(0.3)
    schedule = resolve_schedule(kind, c)
    for k in (1, 7, 100):
        got = schedule(k)
        assert type(got) is float
        assert got == formula(float(c), k)


def test_fixed_schedule_k_zero_rejected():
    ctrl = FixedScheduleController(ControllerParams(kind="fixed", schedule=("inv_sqrt", 1.0)))
    with pytest.raises(ConfigError):
        ctrl.stepsize(0)


def test_fixed_controller_stepsize_sequence():
    ctrl = FixedScheduleController(
        ControllerParams(kind="fixed", schedule=("inv_sqrt", 2.0))
    )
    assert ctrl.stepsize(1) == 2.0
    assert ctrl.stepsize(16) == 0.5
    assert not observe(ctrl, 3)[0]


def test_make_controller_fills_gamma0_from_problem():
    from csgd.problems import make_problem

    prob = make_problem("least_squares", d=3, n=0, seed=1)
    ctrl = make_controller(ControllerParams(kind="coupling_static"), prob)
    assert ctrl.params.gamma0 == pytest.approx(prob.default_gamma0())
    with pytest.raises(ConfigError):
        make_controller(ControllerParams(kind="coupling_static"))


# ----------------------------------------- paired behavior on real problems


def test_pflug_fires_before_coupling_on_quadratic():
    # premature-restart behavior: majority vote over 10 paired seeds.  A
    # restart is premature when the phase it ends ran fewer steps than one
    # e-folding time 1/(γμ) of the slowest mode of the mean at the outgoing
    # stepsize, i.e. before the chain could equilibrate at that stepsize.
    from csgd.engine import EngineConfig, run
    from csgd.numkit import RngStream
    from csgd.problems import make_problem

    prob = make_problem("quadratic", d=5, seed=60, noise_diag=0.05)
    gamma = 0.1 / prob.L

    def premature_fraction(trace):
        phase_start, premature = 0, 0
        for event in trace.restart_log:
            # product form: 1/(1 - ϱ) divides by zero once ϱ rounds to 1
            if (event.k - phase_start) * event.old_gamma * prob.mu < 1.0:
                premature += 1
            phase_start = event.k
        return premature / max(len(trace.restart_log), 1)

    wins = 0
    for rep in range(10):
        fractions = {}
        for kind in ("pflug", "coupling_static"):
            params = ControllerParams(kind=kind, gamma0=gamma, burn_in=0 if kind != "pflug" else None)
            ctrl = make_controller(params, prob)
            cfg = EngineConfig(n_iters=30_000, trace_stride=30_000)
            trace = run(prob, ctrl, cfg, RngStream(500, rep))
            fractions[kind] = premature_fraction(trace)
        if fractions["pflug"] > fractions["coupling_static"]:
            wins += 1
    assert wins >= 6, wins


def test_distance_first_decay_within_factor_three_of_coupling():
    # consistency check on least squares d=5: same order of magnitude
    from csgd.engine import EngineConfig, run
    from csgd.numkit import RngStream
    from csgd.problems import make_problem

    prob = make_problem("least_squares", d=5, n=0, seed=61)
    gamma = prob.default_gamma0()
    firsts = {}
    for kind in ("distance", "coupling_static"):
        ks = []
        for rep in range(5):
            ctrl = make_controller(ControllerParams(kind=kind, gamma0=gamma), prob)
            cfg = EngineConfig(n_iters=40_000, trace_stride=40_000)
            trace = run(prob, ctrl, cfg, RngStream(600, rep))
            if trace.summary["first_restart_k"]:
                ks.append(trace.summary["first_restart_k"])
        assert ks, f"{kind} never fired"
        firsts[kind] = float(np.median(ks))
    ratio = firsts["distance"] / firsts["coupling_static"]
    assert 1.0 / 3.0 <= ratio <= 3.0, firsts
