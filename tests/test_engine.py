import hashlib
import json
import math
from dataclasses import asdict, is_dataclass
from functools import lru_cache

import numpy as np
import pytest

from csgd.controllers import ControllerParams, make_controller
from csgd.engine import EngineConfig, run
from csgd.numkit import RngStream
from csgd.oracle import stationary_error_estimate
from csgd.problems import make_problem
from csgd.engine import CHUNK, TokenBuffer
from csgd.errors import ConfigError
from csgd.controllers import FixedScheduleController
from csgd.engine import run_replicates
from csgd.oracle import dk_closed_form_series
from collections import deque
from csgd.engine import CoupledState, reinit_auxiliary
from csgd.oracle import gamma0_bound, theorem1_floor
from csgd.problems import token_rows
from csgd import engine
from csgd.engine import RunTrace, token_columns

# ------------------------------------------------------------ golden traces
#
# SHA-256 digests of whole runs, taken before the token path was chunked:
# every RunTrace column, the restart log, the summary, the failure text and
# the stream counter on return.  Any change in the bits a run produces, or
# in the number of raw words it consumes, changes a digest.

PROBLEMS = {
    "logistic": dict(d=4, n=0, seed=11),
    "logistic_data": dict(d=3, n=40, seed=18),
    "least_squares": dict(d=5, n=0, seed=12),
    "svm": dict(d=4, n=40, seed=13),
    "lasso": dict(d=6, n=40, seed=14, sparsity=3),
    "uniformly_convex": dict(d=3, n=0, seed=15),
    "quadratic": dict(d=5, n=0, seed=16),
    "lsa": dict(d=3, n=0, seed=17),
}
KINDS = ("logistic", "least_squares", "svm", "lasso", "uniformly_convex", "quadratic", "lsa")
# streaming kinds that draw a minibatch per token; lsa follows one chain
BATCHED = ("logistic", "least_squares", "uniformly_convex", "quadratic")


@lru_cache(maxsize=None)
def problem(name):
    spec = dict(PROBLEMS[name])
    kind = "logistic" if name == "logistic_data" else name
    return make_problem(kind, **spec)


def controller_params(kind, prob):
    if kind == "coupling_static":
        return ControllerParams(kind=kind, beta0=0.3, b=5)
    if kind == "coupling_adaptive":
        return ControllerParams(kind=kind, beta0=0.5, eta=0.9, r=0.7, b=3)
    if kind == "pflug":
        return ControllerParams(kind=kind, burn_in=30)
    if kind == "distance":
        return ControllerParams(kind=kind)
    return ControllerParams(kind="fixed", schedule=("inv_sqrt", prob.default_gamma0()))


CONTROLLERS = ("coupling_static", "coupling_adaptive", "pflug", "distance", "fixed")


def _canon(v):
    if isinstance(v, dict):
        return {str(k): _canon(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_canon(x) for x in v]
    if is_dataclass(v):
        return _canon(asdict(v))
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    return v


def digest(*parts):
    text = json.dumps(_canon(parts), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest(trace, rng):
    columns = (
        "ks", "gammas", "stats", "errs", "d_sqs", "avg_errs", "avg_fgaps", "restart_flags",
    )
    return digest(
        {name: getattr(trace, name) for name in columns},
        trace.restart_log,
        trace.summary,
        trace.failure,
        rng.counter,
    )


def run_case(name, ctl, stream, n_iters=600, params=None, trace_stride=7, **cfg):
    prob = problem(name)
    params = params or controller_params(ctl, prob)
    controller = make_controller(params, prob)
    rng = RngStream(7, stream)
    cfg = EngineConfig(n_iters=n_iters, trace_stride=trace_stride, **cfg)
    trace = run(prob, controller, cfg, rng)
    return trace_digest(trace, rng)


def _stationary(name):
    prob = problem(name)
    est = stationary_error_estimate(prob, prob.default_gamma0(), horizon=1_000, reps=3, seed=5)
    return digest(est.per_rep, est.mean, est.stderr)


CASES = {}
for _i, _kind in enumerate(KINDS):
    for _j, _ctl in enumerate(CONTROLLERS):
        CASES[f"{_kind}/{_ctl}"] = (lambda n=_kind, c=_ctl, s=10 * _i + _j: run_case(n, c, s))
CASES.update({
    "logistic_data/coupling_static": lambda: run_case("logistic_data", "coupling_static", 100),
    "logistic_data/coupling_static/batch3": lambda: run_case(
        "logistic_data", "coupling_static", 101, batch_size=3),
    "quadratic/coupling_adaptive/averaging": lambda: run_case(
        "quadratic", "coupling_adaptive", 102, averaging=True),
    "lsa/coupling_static/averaging": lambda: run_case(
        "lsa", "coupling_static", 103, averaging=True),
    "logistic/pflug/averaging": lambda: run_case("logistic", "pflug", 104, averaging=True),
    "lasso/distance/averaging": lambda: run_case("lasso", "distance", 105, averaging=True),
    "least_squares/pflug/coupled": lambda: run_case(
        "least_squares", "pflug", 106, track_coupling=True),
    "quadratic/fixed/tail": lambda: run_case("quadratic", "fixed", 107, tail_from=301),
    "quadratic/coupling_static/short": lambda: run_case(
        "quadratic", "coupling_static", 108, n_iters=100),
    "quadratic/coupling_static/empty": lambda: run_case(
        "quadratic", "coupling_static", 109, n_iters=0),
    # b = 0: the re-armed difference keeps shrinking until the perturbation
    # fires, here three times, in the middle of a run of tokens
    "quadratic/coupling_static/b0": lambda: run_case(
        "quadratic", "coupling_static", 110,
        params=ControllerParams(kind="coupling_static", b=0, beta0=1e-3, r=0.9)),
    # the same on lsa: three degenerate re-arms in mid-block, on a Markov
    # token, so the resync must restore the chain state
    "lsa/coupling_static/b0": lambda: run_case(
        "lsa", "coupling_static", 118,
        params=ControllerParams(kind="coupling_static", b=0, beta0=1e-3, r=0.9)),
    "lsa/coupling_static/b0/dense": lambda: run_case(
        "lsa", "coupling_static", 118, averaging=True, trace_stride=1,
        params=ControllerParams(kind="coupling_static", b=0, beta0=1e-3, r=0.9)),
    "quadratic/coupling_static/zero_offset": lambda: run_case(
        "quadratic", "coupling_static", 111, init_offset_scale=0.0),
    "lsa/coupling_adaptive/zero_offset": lambda: run_case(
        "lsa", "coupling_adaptive", 112, init_offset_scale=0.0),
    # γ just above 2/L: ||θ1||² passes 1e12 near k = 300
    "quadratic/coupling_static/diverges": lambda: run_case(
        "quadratic", "coupling_static", 113,
        params=ControllerParams(kind="coupling_static", gamma0=2.05 / problem("quadratic").L)),
    "least_squares/fixed/diverges": lambda: run_case(
        "least_squares", "fixed", 114,
        params=ControllerParams(kind="fixed", schedule=("constant", 2.5))),
    # a record at every step, pinned before records filled their error
    # columns per block: 600 records cross two blocks of CHUNK
    "quadratic/coupling_adaptive/dense": lambda: run_case(
        "quadratic", "coupling_adaptive", 115, averaging=True, trace_stride=1),
    "lsa/coupling_adaptive/dense": lambda: run_case(
        "lsa", "coupling_adaptive", 116, averaging=True, trace_stride=1),
    "lasso/distance/dense": lambda: run_case(
        "lasso", "distance", 117, averaging=True, trace_stride=1),
    # diverges near k = 300, inside the second record block
    "quadratic/coupling_static/diverges/dense": lambda: run_case(
        "quadratic", "coupling_static", 113, averaging=True, trace_stride=1,
        params=ControllerParams(kind="coupling_static", gamma0=2.05 / problem("quadratic").L)),
    "stationary/quadratic": lambda: _stationary("quadratic"),
    "stationary/least_squares": lambda: _stationary("least_squares"),
})
for _i, _kind in enumerate(BATCHED):
    CASES[f"{_kind}/coupling_static/batch3"] = (
        lambda n=_kind, s=200 + _i: run_case(n, "coupling_static", s, batch_size=3))

GOLDEN = {
    "lasso/coupling_adaptive": "fa25956d3a2ad86c2de02331a77cf801349933e4e219a1c4070d126a45055561",
    "lasso/coupling_static": "7bdabe2f60abeae664e6e7cbae19f803ecc0ad21e8fb0974d4d4169da0ea1115",
    "lasso/distance": "954f4a70567407506a4df0d4eba7a4a698830a34e7092682b15091b620c8053a",
    "lasso/distance/averaging": "fbb3e76ca0dc647c386796ea1e840c32dbaed56f027ec43ccedd808842f4c4b5",
    "lasso/distance/dense": "7ceef520669dff6ab65f616aa1ff50b8572fb900ae3c77d2ea638dbaee953925",
    "lasso/fixed": "891ff5b97a881dd75373a6e3bc237d23e6e687bd69321aed5600f03507ca2fae",
    "lasso/pflug": "36e33d32e5bf80eacd87c1f1bf70568ff9f11db754c6cba3de7434d55819afb0",
    "least_squares/coupling_adaptive": "5e494b20d1115533a103df522e0fc159e5f28c573575276f6c542ce871a7b454",
    "least_squares/coupling_static": "967464522af4ab50231ff0dae84baa0cfc237958243b46e9f9b84e8306f47cc5",
    "least_squares/coupling_static/batch3": "1e8bd572ae57ae1b1e6f24c9468967951173beb9c8f4d5ca0d77fd26de32ad8d",
    "least_squares/distance": "b156c5d99552d131c797c2407a702efc2b60c14ef1161a72ab41c23bc82d3539",
    "least_squares/fixed": "af1142600f5c3a7c4b0fd51fc5df47840e2ed69358bfb2261065b3c8a7f2ad6b",
    "least_squares/fixed/diverges": "e19cc46c16bd8b7a253c73001ec19ea58dcdef831d6cbb281c981fdd03900786",
    "least_squares/pflug": "f94f359bd84def5eb9cc9619e787b7c572bc3ced0f1060d89ba7c227dd5f4257",
    "least_squares/pflug/coupled": "a38eb8fbe9b65fbefd961fd6a56ee82f89f73c9c788dad29c7fde0f2bebf26e2",
    "logistic/coupling_adaptive": "c1d0912a9a9b84031e22d4b2a17ebc3119deb65a7c2398fbcde94fb2c4715502",
    "logistic/coupling_static": "86ae99686ba868ab246286555292427a91ecf137bc229f67dcebe04b282ee372",
    "logistic/coupling_static/batch3": "6697fd64be7cfe1ebf114ff215d74a84028302d973879f8a6247b2885e19197d",
    "logistic/distance": "06de5bfdb349946bad5e891c79fa9f6b4c971e66c92835d7cc19ada2ecf0bf9a",
    "logistic/fixed": "04cbb8e73e93e0c6a5ea5da07d63cd3cbda0ffc8dfea1c05d75ccb721bd8ff65",
    "logistic/pflug": "d32a0032e50d1b1f55aea657e930df94419d321742ba219c8d90248b80c910ac",
    "logistic/pflug/averaging": "a0c8de1fdd322a13ce90777a83b26bdb718f29d39591fc1a19397cb8bb8e44c9",
    "logistic_data/coupling_static": "4929e43232bd2ed3941de8d718c35d373a90bf8dae7ecde5c37278b9e8835248",
    "logistic_data/coupling_static/batch3": "842edfc2d2211ffac6b436b1d8e3913d27ea44e7faef1817b2b570c96083609a",
    "lsa/coupling_adaptive": "062cbaa1030c97285f92628c19cd62fd27cfdac0e3d1b952b0b59c4fb0db7c1f",
    "lsa/coupling_adaptive/dense": "dd12a6f89cc4612f2bf44da7a6ab6d9f16317791eacee3183fd5cf0509da0255",
    "lsa/coupling_adaptive/zero_offset": "5ea1fb08bc6accbf3fa638ec97205c35d7d7890125a394a3dddf2054076926e8",
    "lsa/coupling_static": "d21fc0a04b6edda522030703694b6d69c1ef4ed15977721dfdf63c770879b31b",
    "lsa/coupling_static/averaging": "211792421fbebe0eb3d50b7c847ed3e555debcdd7d2d5d21f96f6cb18574a3d6",
    "lsa/coupling_static/b0": "aea51e42bcee6e6ae001eb1c33175dccc08ec731fb8682937579eaf85012e920",
    "lsa/coupling_static/b0/dense": "60bb1a300f28528f26f0ec6976b0a39882c07d8d4ed0309f4a75a8d0d00928ab",
    "lsa/distance": "ca53f78a11d93b0c9e0bfa927499fa85c8990cb929bdf99f3af3c83b8f3b9775",
    "lsa/fixed": "3c6ae92316a349880dbfd1a32210ae9a27c30cb0f017d6b854443e1cd2710a07",
    "lsa/pflug": "6c46db3382ddfab59ba77a49db3cbd5de6a193231b56fce70b19780abe1b6951",
    "quadratic/coupling_adaptive": "6e400ee7e5ea34a2946fb3f70c4f425517ccc85b3903f4bba050480e688fdf25",
    "quadratic/coupling_adaptive/averaging": "164cfa224daf90baefc28afbd05e57d4ddca0bb78d9aafc1e1080a355cbca369",
    "quadratic/coupling_adaptive/dense": "c872186136999b4f659df6f5576fcbba9321308690c335d37da8e84617024b13",
    "quadratic/coupling_static": "4d9d400999dd1cbef3b184c06480ee1bbfda1c3298586545c7ad8e0c48cf082c",
    "quadratic/coupling_static/b0": "74374edfdd4b551b91663a20448e0626a0a0eca34917b00941c843e854c1b39e",
    "quadratic/coupling_static/batch3": "9be5e575f83b91e0990b0c576633a776f088f877d76777e0c4df64231d5309b2",
    "quadratic/coupling_static/diverges": "0780d18395422ec8427fa5a172710dec8d3fad7258a2270c752b8313d32880e8",
    "quadratic/coupling_static/diverges/dense": "2a0b3785cc5b7f3f41b101fb4dff69e7f6e14f70f713db186f18552db3b8cda7",
    "quadratic/coupling_static/empty": "60cc375b1753e88336d73f94e89763a18b43d19801d09eee761c06eb933fb81a",
    "quadratic/coupling_static/short": "039eef473b7e205287a4bb9936296cb834f14857418243b3379a7d2655afedea",
    "quadratic/coupling_static/zero_offset": "4b89f56d8f3c90ebf9624966ea6105b7c03418344c0a0338a6edfe621fe8bd09",
    "quadratic/distance": "4fd23dbe9980fd3db81756f3bb6c3224d7119c23cb5ba6e5e96319f0d508b015",
    "quadratic/fixed": "aa29b2ac61c43a912bad05e610120dbffc39ba4f2c053f181891484733d83ae9",
    "quadratic/fixed/tail": "ee1a3765f158dce9352cc9021da2840ba476a98e95393b25e44bc2f4cc863e33",
    "quadratic/pflug": "c704300d5a7691bdac0dbdfe98a70f92e1d20b8871e6e204e568eb032ad3d1c6",
    "stationary/least_squares": "182bcd1f6450f3201dc5536f189d72a4c2e1e49035a78d590fc533a3bec2da32",
    "stationary/quadratic": "5e21c127fbd4021384640e58ad556bd561aca9efe5f735dd3e35b5a9329ac9cb",
    "svm/coupling_adaptive": "6ed0c95dc7691b1ff6ef9c259c88578882d06a83e691471e03edd72103209272",
    "svm/coupling_static": "c797da8c8e78f2e8668aeeb2d318062a8c1b28d70ea2805c881ca5fd9ae1c75d",
    "svm/distance": "0ef9a6cdf6b31fd0da0f2680cbfc01a00d10aeb7c5cd6b7d57aca376ee79ad5a",
    "svm/fixed": "0340df1e524e1c439a1916ccf5d6f3f4597b03eeebb9b8f36ce2547c6a7c32c0",
    "svm/pflug": "d5049cfbdbc4869453e1bc2684e84be539e667b158baf83ea7f9273ee4d2a197",
    "uniformly_convex/coupling_adaptive": "0071ae655155105ec0cb435733d2bb1f030f0f8abfb916e53c52c1bde351665c",
    "uniformly_convex/coupling_static": "e9baf9c9a3694370d54af079481d90039e71b06267a9067e26162cbd8a553b68",
    "uniformly_convex/coupling_static/batch3": "42dcda6f02a9c6a5504a0c1621ee7afbee244f13927e86e07a5f134b012240ae",
    "uniformly_convex/distance": "94b40937a98f59bd89c1a8b64f65d89b611aaf92d6ee36081bc61a2ec50e2140",
    "uniformly_convex/fixed": "ab666e7a5c4a38d34d0390ba8709c7ebe81ee980211efe750fadaba436cd6677",
    "uniformly_convex/pflug": "c650af5eb4f8d0b3f3396e357b24bbe038f42c351b438d0e2b958136da8d4bbc",
}


def test_golden_cases_are_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_trace(case):
    assert CASES[case]() == GOLDEN.get(case)


# ------------------------------------------------------------ token buffer


@pytest.mark.parametrize("name", ["least_squares", "lsa"])
def test_resync_ends_where_single_draws_end(name):
    prob = problem(name)
    rng, single_rng = RngStream(8, 0), RngStream(8, 0)
    tokens = TokenBuffer(prob, rng, batch=1, remaining=3 * CHUNK)
    tokens.sampler_state = prob.init_sampler(rng)
    state = prob.init_sampler(single_rng)
    for used in (5, CHUNK - 5, 1):  # resync mid-block, then across a refill
        rows = token_rows(token_columns(TokenBuffer.take_stacked([tokens]), 0))
        assert len(rows) == tokens.taken == CHUNK
        for token in rows[:used]:
            single, state = prob.next_token(single_rng, state)
            parts = zip(*(t if isinstance(t, tuple) else (t,) for t in (token, single)))
            assert all(np.array_equal(a, b) for a, b in parts)
        assert tokens.resync(CHUNK - used) is rng
        assert tokens.taken == 0
        assert rng.counter == single_rng.counter
        assert tokens.sampler_state == state
    assert tokens.remaining == 3 * CHUNK - CHUNK - 1


@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize(
    "name, batch",
    [(n, 1) for n in sorted(PROBLEMS)] + [(n, 3) for n in BATCHED + ("logistic_data",)],
)
def test_stacked_token_block_matches_per_stream_draws(name, batch, reps):
    # column r of each stacked block is stream r's own block, and every
    # stream and sampler state ends where its own draws leave it; two
    # blocks, so the second starts from the states the first left
    prob = problem(name)
    count = 11
    rngs = [RngStream(8, s) for s in range(reps)]
    singles = [RngStream(8, s) for s in range(reps)]
    states = [prob.init_sampler(rng) for rng in rngs]
    single_states = [prob.init_sampler(rng) for rng in singles]
    for _ in range(2):
        block, states = prob.draw_token_stack(rngs, states, count, batch)
        for r, rng in enumerate(singles):
            want, single_states[r] = prob.draw_tokens(rng, single_states[r], count, batch)
            got = token_columns(block, r)
            parts = list(zip(*(t if isinstance(t, tuple) else (t,) for t in (got, want))))
            assert parts and all(a.dtype == b.dtype and a.shape == b.shape
                                 and np.array_equal(a, b) for a, b in parts)
            assert rngs[r].counter == rng.counter
            assert states[r] == single_states[r]


@pytest.mark.parametrize("track", [False, True])
def test_track_coupling_leaves_a_coupling_controller_coupled(track):
    # track_coupling only couples a controller that does not need it; the
    # golden case is the same run with the default, False
    digest = run_case("quadratic", "coupling_static", 50, track_coupling=track)
    assert digest == GOLDEN["quadratic/coupling_static"]


@pytest.mark.parametrize(
    "bad", [dict(n_iters=-1), dict(n_iters=10, batch_size=0), dict(n_iters=10, trace_stride=0),
            dict(n_iters=10, tail_from=0), dict(n_iters=10, tail_from=-3),
            dict(n_iters=10, tail_from=11), dict(n_iters=10, tail_from=2.5),
            dict(n_iters=True), dict(n_iters=10, track_coupling=None),
            dict(n_iters=10, averaging="no"), dict(n_iters=10, averaging=None),
            dict(n_iters=10, averaging=1)]
)
def test_engine_config_rejects_bad_values_with_config_error(bad):
    with pytest.raises(ConfigError):
        EngineConfig(**bad)


@pytest.mark.parametrize("lockstep", [False, True])
def test_lsa_batch_fails_before_any_draw(lockstep):
    # one Markov chain has no minibatch; the batch used to be ignored
    prob = problem("lsa")
    cfg = EngineConfig(n_iters=10, batch_size=3)
    rngs = [RngStream(9, 0), RngStream(9, 1)]
    with pytest.raises(ConfigError, match="batch_size"):
        if lockstep:
            run_replicates(prob, make_controller(fixed("lsa", "constant"), prob), cfg, rngs)
        else:
            run(prob, make_controller(controller_params("coupling_static", prob), prob), cfg,
                rngs[0])
    assert all(rng.counter == 0 for rng in rngs)


# ------------------------------------------------------- coupling identity


def test_coupled_distance_follows_the_closed_form_on_quadratic():
    # additive noise cancels in θ1 - θ2, so within the first phase
    # D_k = (I - γH)^k D_0 with D_0 minus the initial offset, the first
    # normals(d) of the run's stream
    prob = problem("quadratic")
    controller = make_controller(ControllerParams(kind="coupling_static", beta0=1e-6), prob)
    trace = run(prob, controller, EngineConfig(n_iters=300, trace_stride=1), RngStream(7, 40))
    first = trace.restart_log[0].k
    assert first >= 20
    d0 = -RngStream(7, 40).normals(prob.d)
    want = dk_closed_form_series(prob.H, controller.params.gamma0, d0, trace.ks[:first])
    got = trace.d_sqs[:first]
    assert max(abs(g - w) / w for g, w in zip(got, want)) <= 1e-12


@pytest.mark.parametrize("seed", [16, 3])
@pytest.mark.parametrize("kind", ["coupling_static", "coupling_adaptive"])
def test_coupled_statistic_stays_above_the_theorem1_floor(kind, seed):
    # at γ ≤ gamma0_bound, S is at least ϱ_m^j j steps into a phase run at
    # γ_m; the statistic recorded at a decay belongs to the phase it ends
    prob = problem("quadratic")
    gamma0 = gamma0_bound(prob.L, prob.mu)
    controller = make_controller(ControllerParams(kind=kind, gamma0=gamma0), prob)
    trace = run(prob, controller, EngineConfig(n_iters=3000, trace_stride=1), RngStream(seed, 0))
    assert trace.failure is None and len(trace.restart_log) >= 5
    starts = [0] + [event.k for event in trace.restart_log]
    for k, gamma, stat in zip(trace.ks, trace.gammas, trace.stats):
        start = max(s for s in starts if s < k)
        assert stat >= theorem1_floor(gamma, prob.L, prob.mu, k - start)


# ------------------------------------------------------------------ re-arm


@pytest.mark.parametrize(
    "stored, b, want", [(10, 3, 6), (5, 0, 4), (4, 3, 0), (3, 3, 0), (2, 5, 0)]
)
def test_reinit_restores_the_iterate_b_steps_back(stored, b, want):
    # history[i] is (i + 1)·1, newest last: with more than b stored θ2 is
    # the iterate b steps back from the newest, with b or fewer the oldest
    prob = problem("quadratic")
    history = deque(np.full(prob.d, i + 1.0) for i in range(stored))
    state = CoupledState(theta1=np.full(prob.d, 0.5), theta2=history[-1], history=history)
    rng = RngStream(9, 0)
    d0_sq = reinit_auxiliary(state, b, 0.1, TokenBuffer(prob, rng, batch=1, remaining=10))
    assert np.array_equal(state.theta2, np.full(prob.d, want + 1.0))
    assert state.theta2 is not history[want]
    assert d0_sq == prob.d * (want + 0.5) ** 2  # ||θ1 - θ2||², exact here
    assert len(state.history) == 1 and state.history[0] is state.theta2
    assert state.history.maxlen == b + 1
    assert rng.counter == 0  # a non-degenerate re-arm draws nothing


# ---------------------------------------------------------------- lockstep


def lockstep_matches_run(name, params, streams=(300, 301, 302), **cfg):
    """Run the streams in lockstep and one by one; the digests must agree."""
    prob = problem(name)
    cfg = EngineConfig(**{"trace_stride": 7, **cfg})
    rngs = [RngStream(7, s) for s in streams]
    traces = run_replicates(prob, make_controller(params, prob), cfg, rngs)
    want = []
    for s in streams:
        rng = RngStream(7, s)
        want.append(trace_digest(run(prob, make_controller(params, prob), cfg, rng), rng))
    assert [trace_digest(t, rng) for t, rng in zip(traces, rngs)] == want
    return traces


def fixed(name, schedule, gamma=None):
    return ControllerParams(
        kind="fixed", schedule=(schedule, gamma or problem(name).default_gamma0())
    )


@pytest.mark.parametrize("n_iters", [0, 257, 600])
@pytest.mark.parametrize("schedule", ["constant", "inv_sqrt"])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_lockstep_traces_equal_run(name, schedule, n_iters):
    lockstep_matches_run(name, fixed(name, schedule), n_iters=n_iters)


LOCKSTEP_VARIANTS = {"tail": dict(tail_from=301), "averaging": dict(averaging=True),
                     "dense": dict(averaging=True, trace_stride=1), "batch3": dict(batch_size=3)}


@pytest.mark.parametrize(
    "name, variant",
    [(n, v) for n in sorted(PROBLEMS) for v in ("tail", "averaging", "dense")]
    + [(n, "batch3") for n in BATCHED + ("logistic_data",)],
)
def test_lockstep_variants_equal_run(name, variant):
    lockstep_matches_run(name, fixed(name, "inv_sqrt"), n_iters=600,
                         **LOCKSTEP_VARIANTS[variant])


@pytest.mark.parametrize("case", ["quadratic", "least_squares", "least_squares/mixed"])
def test_lockstep_divergence_is_per_replicate(case):
    # the fixed-schedule forms of the two diverging golden cases (streams
    # 113 and 114), and a schedule under which only some chains diverge
    if case == "quadratic":
        params, streams = fixed(case, "constant", 2.05 / problem(case).L), range(111, 116)
    elif case == "least_squares":
        params, streams = fixed(case, "constant", 2.5), range(112, 117)
    else:
        params, streams = fixed("least_squares", "inv_sqrt", 6.0), range(110, 122)
    traces = lockstep_matches_run(case.split("/")[0], params, streams, n_iters=600,
                                  tail_from=11)
    diverged = [t.failure is not None for t in traces]
    assert any(diverged)
    assert all(diverged) == (case != "least_squares/mixed")
    assert len({t.summary["k"] for t in traces}) > 1


def test_divergence_precheck_firing_on_the_stack_alone_stops_no_chain(monkeypatch):
    # θ* = 0 here, so errs is ||θ1||²; with the threshold just above every
    # chain's largest, the stack's flat sum of squares passes it while no
    # row does, and the per-row check must let every chain go on
    prob = problem("quadratic")
    assert not prob.theta_star.any()
    params, streams = fixed("quadratic", "constant"), range(300, 312)
    cfg = EngineConfig(n_iters=600, trace_stride=1)
    errs = np.array([run(prob, make_controller(params, prob), cfg, RngStream(7, s)).errs
                     for s in streams])
    threshold = 1.01 * errs.max()
    assert errs.sum(axis=0).max() > threshold
    monkeypatch.setattr(engine, "DIVERGENCE_THRESHOLD", threshold)
    traces = lockstep_matches_run("quadratic", params, streams, n_iters=600, trace_stride=1)
    assert all(trace.failure is None for trace in traces)


def test_tail_mean_is_nan_when_no_step_reaches_the_tail():
    # every chain diverges before k=600, so none has a tail to average; the
    # mean used to read 0.0
    params = fixed("quadratic", "constant", 2.05 / problem("quadratic").L)
    traces = lockstep_matches_run("quadratic", params, range(111, 114), n_iters=600,
                                  tail_from=600)
    for trace in traces:  # equal to run's, as lockstep_matches_run checks
        assert trace.failure is not None and trace.summary["k"] < 600
        assert math.isnan(trace.summary["tail_mean_err"])


TAIL_CASES = {
    "one_stream/quadratic": ("quadratic", "constant", None, (300,)),
    "one_stream/least_squares": ("least_squares", "inv_sqrt", None, (300,)),
    # every chain diverges at k = 276 to 325, inside the second block
    "lockstep/diverges": ("quadratic", "constant", 2.05, range(111, 116)),
    # 7 of 12 chains diverge before the tail starts; the other 5 run on
    "lockstep/mixed": ("least_squares", "inv_sqrt", 6.0, range(110, 122)),
}


@pytest.mark.parametrize("case", sorted(TAIL_CASES))
def test_tail_mean_is_the_step_order_mean_of_the_recorded_errors(case):
    # independent of the golden digests: the tail mean is a plain left to
    # right sum of the errs recorded from tail_from on, over their count; a
    # divergence record is not part of the tail.  From k = 100 to 600 the
    # tail crosses two block boundaries.
    name, schedule, gamma, streams = TAIL_CASES[case]
    prob = problem(name)
    if name == "quadratic" and gamma is not None:
        gamma /= prob.L
    cfg = EngineConfig(n_iters=600, trace_stride=1, tail_from=100)
    traces = run_replicates(prob, make_controller(fixed(name, schedule, gamma), prob), cfg,
                            [RngStream(7, s) for s in streams])
    assert any(t.failure is not None for t in traces) == case.startswith("lockstep")
    for trace in traces:
        ks, errs = trace.ks, trace.errs
        if trace.failure is not None:
            ks, errs = ks[:-1], errs[:-1]
        tail = [e for k, e in zip(ks, errs) if k >= cfg.tail_from]
        total = 0.0
        for e in tail:
            total += e
        want = total / len(tail) if tail else math.nan
        assert trace.summary["tail_mean_err"].hex() == want.hex()


@pytest.mark.parametrize("d", [5, 100])
@pytest.mark.parametrize("name", ["quadratic", "least_squares", "least_squares/data", "lsa"])
def test_stacked_oracle_matches_rows_bitwise(name, d):
    kind, _, data = name.partition("/")
    prob = make_problem(kind, d=d, n=60 if data else 0, seed=d)
    gen = np.random.default_rng(d)
    reps = 9
    for trial in range(20):
        theta = gen.standard_normal((reps, d)) * 10.0 ** gen.uniform(-3, 3, (reps, 1))
        rng = RngStream(trial, d)
        stack, _ = prob.draw_tokens(rng, prob.init_sampler(rng), reps)
        rows = np.stack([prob.step_direction(t, tok) for t, tok in zip(theta, token_rows(stack))])
        assert np.array_equal(prob.step_direction(theta, stack), rows)


def _iterate(prob, n_steps=50):
    """θ after a few SGD steps from 0 at the default stepsize."""
    theta, gamma = np.zeros(prob.d), prob.default_gamma0()
    rng = RngStream(3, 0)
    tokens, _ = prob.draw_tokens(rng, prob.init_sampler(rng), n_steps)
    for token in token_rows(tokens):
        theta = theta + gamma * prob.step_direction(theta, token)
    return theta


@pytest.mark.parametrize("name", sorted(PROBLEMS) + ["quadratic/d100", "lsa/d50"])
def test_stacked_losses_match_loss_bitwise(name):
    kind, _, size = name.partition("/d")
    prob = make_problem(kind, d=int(size), seed=5) if size else problem(name)
    gen = np.random.default_rng(prob.d)
    iterate = _iterate(prob)
    stack = np.vstack([np.zeros(prob.d), iterate, 1e6 * iterate,
                       gen.standard_normal((6, prob.d)) * 10.0 ** gen.uniform(-3, 3, (6, 1))])
    got = prob.losses(stack)
    assert got.shape == (len(stack),)
    assert [float(v).hex() for v in got] == [float(prob.loss(t)).hex() for t in stack]


class _DecaysAtFive(FixedScheduleController):
    def observe(self, k, theta1, d_sq, direction):
        if k == 5:
            self.phase_index += 1
        return super().observe(k, theta1, d_sq, direction)


@pytest.mark.parametrize("case",
                         ["coupling", "pflug", "track_coupling", "no_streams", "same_stream"])
def test_lockstep_rejects_before_any_draw(case):
    prob = problem("quadratic")
    params = fixed("quadratic", "constant")
    cfg = EngineConfig(n_iters=10)
    if case in ("coupling", "pflug"):
        params = controller_params("coupling_static" if case == "coupling" else "pflug", prob)
    if case == "track_coupling":
        cfg = EngineConfig(n_iters=10, track_coupling=True)
    rngs = [] if case == "no_streams" else [RngStream(9, 0), RngStream(9, 1)]
    if case == "same_stream":  # both chains would draw from one stream
        rngs = [rngs[0], rngs[0]]
    with pytest.raises(ConfigError):
        run_replicates(prob, make_controller(params, prob), cfg, rngs)
    assert all(rng.counter == 0 for rng in rngs)


def test_lockstep_takes_two_stream_objects_with_one_seed_and_id():
    lockstep_matches_run("quadratic", fixed("quadratic", "constant"), streams=(300, 300),
                         n_iters=300)


def test_lockstep_rejects_a_decay_decision():
    controller = _DecaysAtFive(fixed("quadratic", "constant"))
    rngs = [RngStream(9, 0), RngStream(9, 1)]
    with pytest.raises(ConfigError, match="k=5"):
        run_replicates(problem("quadratic"), controller, EngineConfig(n_iters=10), rngs)


def test_divergence_record_keeps_the_restart_flag():
    # a restart at k=5, then divergence before the next stride record
    prob = problem("quadratic")
    controller = _DecaysAtFive(fixed("quadratic", "constant", 3.0 / prob.L))
    trace = run(prob, controller, EngineConfig(n_iters=600, trace_stride=100), RngStream(9, 0))
    assert trace.failure is not None
    assert [event.k for event in trace.restart_log] == [5]
    assert trace.ks[-1] < 100 and trace.restart_flags == [True]


# ----------------------------------------------------------------- records


class _OrderedTrace(RunTrace):
    """A trace that logs every append and extend on its columns, per record call.

    The columns are swapped for list subclasses after ``__init__``, as a
    tracer that times each record from ``ks`` to ``restart_flags`` does.
    """

    COLUMNS = ("ks", "gammas", "stats", "errs", "d_sqs", "avg_errs", "avg_fgaps",
               "restart_flags")

    def __init__(self):
        super().__init__()
        self.calls = []  # the (method, column) events of each record call
        self.outside = []  # events outside any record call
        self._log = self.outside
        for name in self.COLUMNS:
            setattr(self, name, _LoggedColumn(name, lambda event: self._log.append(event)))

    def record(self, *args, **kwargs):
        self._log = []
        self.calls.append(self._log)
        try:
            super().record(*args, **kwargs)
        finally:
            self._log = self.outside


class _LoggedColumn(list):
    def __init__(self, name, log):
        super().__init__()
        self.name, self.log = name, log

    def append(self, item):
        self.log(("append", self.name))
        super().append(item)

    def extend(self, items):
        self.log(("extend", self.name))
        super().extend(items)


def _check_record_order(trace):
    fill = {("extend", name) for name in ("errs", "avg_errs", "avg_fgaps")}
    for events in trace.calls:
        appends = [e for e in events if e[0] == "append"]
        assert appends[0] == ("append", "ks") and appends[-1] == ("append", "restart_flags")
        assert appends.count(("append", "ks")) == appends.count(("append", "restart_flags")) == 1
        # a block fill runs after the record's last append, outside its span
        end = events.index(("append", "restart_flags"))
        assert all(e[0] == "append" for e in events[:end])
        assert set(events[end + 1:]) <= fill
    assert set(trace.outside) <= fill
    n = len(trace.ks)
    assert n == len(trace.calls)
    for name in ("gammas", "stats", "errs", "d_sqs", "restart_flags"):
        assert len(getattr(trace, name)) == n, name
    assert len(trace.avg_errs) == len(trace.avg_fgaps) in (0, n)


RECORD_CASES = {
    "dense/averaging": ("quadratic", "coupling_adaptive", dict(trace_stride=1, averaging=True)),
    "dense": ("lsa", "coupling_adaptive", dict(trace_stride=1)),
    "stride7/averaging": ("lasso", "distance", dict(trace_stride=7, averaging=True)),
    # the golden diverging case: k = 294, in the second block
    "diverges/dense/averaging": ("quadratic", "diverges", dict(trace_stride=1, averaging=True)),
}


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_run_records_keep_the_column_contract(case, monkeypatch):
    monkeypatch.setattr(engine, "RunTrace", _OrderedTrace)
    name, ctl, cfg = RECORD_CASES[case]
    prob = problem(name)
    if ctl == "diverges":
        params = ControllerParams(kind="coupling_static", gamma0=2.05 / prob.L)
    else:
        params = controller_params(ctl, prob)
    trace = run(prob, make_controller(params, prob), EngineConfig(n_iters=600, **cfg),
                RngStream(7, 113))
    assert isinstance(trace, _OrderedTrace)
    assert (trace.failure is not None) == (ctl == "diverges")
    _check_record_order(trace)
    # a record that completes a block of CHUNK fills it; summarize fills the rest
    filled = [i for i, events in enumerate(trace.calls) if ("extend", "errs") in events]
    assert filled == list(range(CHUNK - 1, len(trace.ks), CHUNK))


@pytest.mark.parametrize("averaging", [False, True])
@pytest.mark.parametrize("case", ["least_squares", "quadratic"])
def test_lockstep_records_keep_the_column_contract(case, averaging, monkeypatch):
    # least_squares: 7 of 12 chains diverge by k = 66, in the first block, and
    # 5 run to the end; quadratic: all 12 diverge at k = 273 to 355
    monkeypatch.setattr(engine, "RunTrace", _OrderedTrace)
    prob = problem(case)
    if case == "least_squares":
        params = fixed(case, "inv_sqrt", 6.0)
    else:
        params = fixed(case, "constant", 2.05 / prob.L)
    cfg = EngineConfig(n_iters=600, trace_stride=1, averaging=averaging)
    traces = run_replicates(prob, make_controller(params, prob), cfg,
                            [RngStream(7, s) for s in range(110, 122)])
    assert any(t.failure is not None for t in traces)
    for trace in traces:
        _check_record_order(trace)
