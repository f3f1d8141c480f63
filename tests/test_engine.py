import hashlib
import json
import math
from dataclasses import asdict, is_dataclass
from functools import lru_cache

import numpy as np
import pytest

from csgd.controllers import ControllerParams, make_controller
from csgd.engine import EngineConfig, run
from csgd.numkit import RngStream, normal_words
from csgd.oracle import stationary_error_estimate
from csgd.problems import make_problem
from csgd.engine import CHUNK, TokenStreams
from csgd.errors import ConfigError, DegenerateDiagnosticError
from csgd.controllers import FixedScheduleController
from csgd.engine import run_replicates
from csgd.oracle import dk_closed_form_series
from collections import deque
from csgd.engine import CoupledState, reinit_auxiliary
from csgd.oracle import gamma0_bound, theorem1_floor
from csgd.problems import _KIND_CLASSES, Problem, token_columns, token_rows
from csgd import engine
from csgd.engine import RunTrace

# ------------------------------------------------------------ golden traces
#
# SHA-256 digests of whole runs, taken before the token path was chunked:
# every RunTrace column, the restart log, the summary, the failure text and
# the stream counter on return.  Any change in the bits a run produces, or
# in the number of raw words it consumes, changes a digest.  The quadratic
# and lsa digests were re-taken when L and μ moved to one eigh call; DECISIONS
# below shows that no restart, divergence or stream position moved with them.
# The svm digests were re-taken when the active-set finish moved the svm θ*;
# SVM_TRAJECTORIES below shows that only the error columns moved.

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
    "lasso/coupling_adaptive": "546bbb69b50743d0c95a60857b0dd14e0b3799a8eb2f061a7e74bae1e89e6dde",
    "lasso/coupling_static": "ddb8f9e46ebd9173a3e568832dfad1822b31af226b3153b470e5f488fd6357f7",
    "lasso/distance": "c30931f3915e57ce81c7e96553fc6237afbf4e55ef197d883070bcb4c7785843",
    "lasso/distance/averaging": "8cab858a2dc32b5d570798a826134abb51af22e67423eaf0a4590c21fac4a3ff",
    "lasso/distance/dense": "ba7828bcf78d8c4169a77164cfc18a0beb8ea02e8df4078d21b7141fc8953d52",
    "lasso/fixed": "b2e309292572743833687e269072fbe997786ea0345312a475add15892fb6b77",
    "lasso/pflug": "8b6af0f428a2944568d0ffb12bd8dfb6c8ace4c18fd8fe51eb465425142fa7cb",
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
    "lsa/coupling_adaptive": "5b20e9292d1f8b3b4adab9c2071619b9da251764c19b7dbd6d39f5ad63675824",
    "lsa/coupling_adaptive/dense": "816e5f524022658f9c170306fb8f940d8b22cccf777446f5c03cd8a6011f525e",
    "lsa/coupling_adaptive/zero_offset": "a2ef62ed3b8a958de7bf6e278bdadf88659007ebe8c18bfce65819dbffb171a8",
    "lsa/coupling_static": "ef434fcdb102277e977c59dfebd47fcb3e91b69976bd4e898f56701a13a4a329",
    "lsa/coupling_static/averaging": "cfa75c687889c598b9236ef54c146e7f4ed7e890017800a745f84adf8f460ef5",
    "lsa/coupling_static/b0": "4ab63a9b010ca0f561e0869f3a21b684bac6f735acf0126287f409d539fe41ef",
    "lsa/coupling_static/b0/dense": "5c8dac69a6371435d09c90ed738cd933878f3a798e587a53164fd0c3410a799d",
    "lsa/distance": "da1f7c63fe945d833f4bb34dcf9f72637c6f630d7fb023f7094d58ca18df8e43",
    "lsa/fixed": "77bdb231a36671c19b06ef402e2d884239c8a45faf680dcbf27b41e9efd42515",
    "lsa/pflug": "11b6279b5ed8e2a97daa5965eea1d5a4312b5921058be6c60ceaf1133fbe524b",
    "quadratic/coupling_adaptive": "483a577e05c2a73cb443e747cafb74a98a96f8d7272fb15239c5b6dcf9acbb66",
    "quadratic/coupling_adaptive/averaging": "4850849bb68d4a4695d06b93529904e0ad168590579b316f9d62b165bd90995c",
    "quadratic/coupling_adaptive/dense": "11a5b19ea6960814111ec86d66d963e1ad10b1d6473f25f1fa83959b6d20e756",
    "quadratic/coupling_static": "d9c21416f85c0d7f37ed8199a717fe1bfdb62c49cd37f131581271c9d4d3f51e",
    "quadratic/coupling_static/b0": "c4c00571e22b43ce7dc92da502d76a42187523c868483dd802c2fcf7dcbdc3c0",
    "quadratic/coupling_static/batch3": "1a03808d7a3e200351ab19f51a7bbfe448c608aa4ece082d4a4ecdec925f52a8",
    "quadratic/coupling_static/diverges": "8d26108c5d001c467bf22387433bec83d07678b0ed7511974b8b62f915df6d56",
    "quadratic/coupling_static/diverges/dense": "40e137f56d57420545133082111abf6c394a9f97993fd115b0e310a2181927a1",
    "quadratic/coupling_static/empty": "7da89725ba6fab378ee956a6467636e7e4afac60ec9c3117310a942da458eba3",
    "quadratic/coupling_static/short": "719c7f7ebc5ae5ddb6369ad7f64a7466c95ac483519f8f3850eba6af82f38b5d",
    "quadratic/coupling_static/zero_offset": "3ad53c80b605e7b27a0c6b879456347c53a882889e0f0c8b7cc51db5357d3650",
    "quadratic/distance": "f73b2a985e87c55ebd003f62fa4531434dd5390c7e0f66fbfdedab140625e6db",
    "quadratic/fixed": "f7881e33dc2d43c6193b7c09a66ffcaf8e7a3506378e4ca7b92d68316a59c1f1",
    "quadratic/fixed/tail": "6a8bea8f4f0b44d11920d950370924dedbfe77b5a31bc0a42089a3de6aec67f5",
    "quadratic/pflug": "c654a066f9057017dea125a56f5d4c31eb67d89ae333e0d9244438a54b693ef6",
    "stationary/least_squares": "182bcd1f6450f3201dc5536f189d72a4c2e1e49035a78d590fc533a3bec2da32",
    "stationary/quadratic": "4bc09e7ff6156b43993ce630c2c6a8b2afe92f869577d56b359a21c7d988578d",
    "svm/coupling_adaptive": "126f82c69d043f37e2bd91b5a91a068ad8b7c72e71ee699426f0d1efc5fb6b53",
    "svm/coupling_static": "7ae0bc6b1355a181214ed9884854cd7f62085cd5ff698eaa385ea959c79a29be",
    "svm/distance": "3fc8ba4e75529c550d05a5c8cb4518fc6c5650d8676088aeb4f829257d810150",
    "svm/fixed": "996e838e90ba13d904bf23a755870611fcf634df6dad700c711ed6fc803e65ef",
    "svm/pflug": "0a7c318074754e4ded2da5d9cea5ac8689fc3a7fcb58d1aabd5a50b03288b764",
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


def theta_star_free_digest(trace, rng):
    """``trace_digest`` without what the reference solution feeds (the error
    columns, ``final_err``, ``final_avg_err`` and ``tail_mean_err``)."""
    columns = ("ks", "gammas", "stats", "d_sqs", "restart_flags")
    end = ("k", "final_gamma", "n_restarts", "first_restart_k", "diverged")
    return digest(
        {name: getattr(trace, name) for name in columns},
        trace.restart_log,
        {key: trace.summary[key] for key in end},
        trace.failure,
        rng.counter,
    )


# Taken with the proximal-gradient lasso reference solve, before the
# accelerated one moved θ* in its last bits: no lasso run reads θ*, so the
# runs themselves must not move with it.
LASSO_TRAJECTORIES = {
    "lasso/coupling_adaptive": "a31ee93cf1bec07a5f2e82637dd86e86c81682a37269e732e1a675edfe7c685c",
    "lasso/coupling_static": "4e5d6ca9284f812d2e3ad0f3f89499429ce5e5e356a8a9627f0b9a317b739e01",
    "lasso/distance": "f2e1eed2255f23cfa0937167fe958238042cde1270b9f4b784e1bb78a6fd6647",
    "lasso/distance/averaging": "42b3cd373fb9764684306cd854bbfd0ccaa0d78158bf29c57b47a88a39db0b7f",
    "lasso/distance/dense": "137c765f8178f7cc0f16fa2dbefe0f1b88c67474a231a8364f094a98805da5fa",
    "lasso/fixed": "f24e9a9443c44a32968fefcc63df1416bf20bbbe5592d361fc548713da0f9f08",
    "lasso/pflug": "183c03e5279c6e36f03fbb87d9d2d6a31e38c1efc59739859c2a47fec69203b0",
}


@pytest.mark.parametrize("case", [case for case in sorted(CASES) if case.startswith("lasso/")])
def test_lasso_runs_do_not_depend_on_the_reference_solve(case, monkeypatch):
    monkeypatch.setitem(globals(), "trace_digest", theta_star_free_digest)
    assert CASES[case]() == LASSO_TRAJECTORIES.get(case)


# Taken with the dual coordinate ascent stopped at a 1e-9 gap, before the
# active-set finish moved θ* (by 4.4e-9 here): no svm run reads θ* either.
# The dual FISTA solve that replaced the ascent reaches the same finish, to
# the bit, after 17 iterations.
SVM_TRAJECTORIES = {
    "svm/coupling_adaptive": "a06208d039b2e18d8742a4a87b9111d3ea10d4a450c4fde5da2fd95de300fdfa",
    "svm/coupling_static": "4e0ec1dee3949b4c0c27fdf11a575a7519bbf1649a70f70b18e001e1500da538",
    "svm/distance": "4225e7974d2fe00786a0ae3e5e0bdc5509478ba57ef25baee9b450c82f0ff5d6",
    "svm/fixed": "c249c5ab5d86c43ff925d138e65224b4f985f35880345aabb00627828d954b56",
    "svm/pflug": "ddb7ba9dc4f9989c0e3e7d19cd5924fc5beca6f7681e0df994de482fec5d8a88",
}


@pytest.mark.parametrize("case", [case for case in sorted(CASES) if case.startswith("svm/")])
def test_svm_runs_do_not_depend_on_the_reference_solve(case, monkeypatch):
    monkeypatch.setitem(globals(), "trace_digest", theta_star_free_digest)
    assert CASES[case]() == SVM_TRAJECTORIES.get(case)


def decision_digest(trace, rng):
    """What a run decided, with no float in it: the restart steps, the restart
    count, the failure text and the stream counter on return."""
    return digest(
        [event.k for event in trace.restart_log],
        trace.summary["n_restarts"],
        trace.failure,
        rng.counter,
    )


# Taken with L and μ from block power iteration, before one eigh call moved
# them in their last bits: that moves γ₀ and every float of these runs, but
# no restart, stream position or divergence may move with it.
DECISIONS = {
    "lsa/coupling_adaptive": "7c82b3003a2be4e487ab298bc6ab1108e68eb01c640a85757a9d4a6292b12654",
    "lsa/coupling_adaptive/dense": "c48fcd3b31e273f305177ecb8a10db827fcb617c519eabc6a35a3b1fc239b549",
    "lsa/coupling_adaptive/zero_offset": "f0ff2aeb51c73c115275cb599d866fc3fe263441a6d34def464b0d319957b05d",
    "lsa/coupling_static": "a0ca08386b2dd400c2944121e3a32dd4d0214243176789c8ad4bffdbea6dce08",
    "lsa/coupling_static/averaging": "770258a5f482ada569997a11ee01453fda0484a67a221c67e465726c6119ae4a",
    "lsa/coupling_static/b0": "14a84a3c6a33f35f48ed2f7c5b24c5dfebe7ff959f2a3983f376be6e612d5ad7",
    "lsa/coupling_static/b0/dense": "14a84a3c6a33f35f48ed2f7c5b24c5dfebe7ff959f2a3983f376be6e612d5ad7",
    "lsa/distance": "b538b7c302eaa0c5b82fc378bc628efcf793c461c39da5a2ff16a51244e99799",
    "lsa/fixed": "1a95b595f2c1f97445e08fba7ee9a9abc3a59099bde8b525b1fbfeab9291459d",
    "lsa/pflug": "a86739468a66b42f4a170d216d157a1f9d4d4da9ce06c0a8b828e036ecc09b88",
    "quadratic/coupling_adaptive": "032e6d3a95fe138f3397b3f6adc755f11b32345724341e2466ca6c5854219900",
    "quadratic/coupling_adaptive/averaging": "8e791996fc04c5c5378a27c3899b4405e31ca93b434264723abf51c46b469df6",
    "quadratic/coupling_adaptive/dense": "1f2cbffa5caaa81d06e7453c156e152e2510cd0c085322f73fcac6d0786807f8",
    "quadratic/coupling_static": "e2bf371407124bf1bd5e41f4b62752a83908785654893dbf5c28c7442c0b9435",
    "quadratic/coupling_static/b0": "1aa1d579ad0b8645053195ee0cd4a0e89e51930e756fa5634540fd4a5058583f",
    "quadratic/coupling_static/batch3": "cb9b0cd001dfe963bdbfaacff7ca16685e46756c8e49915bd315e1b27fed1a6c",
    "quadratic/coupling_static/diverges": "7e14b94ca1a5e12ca65fa1ce39a0135b9a7963c0dc36bc35fbc3078b4dc14cfd",
    "quadratic/coupling_static/diverges/dense": "7e14b94ca1a5e12ca65fa1ce39a0135b9a7963c0dc36bc35fbc3078b4dc14cfd",
    "quadratic/coupling_static/empty": "dd2de7bb96b1d59150115d3e946897622edb26ff5a9ce056cb652f7b5f915d58",
    "quadratic/coupling_static/short": "81a3f1d6c945faa115fe27d245e60dcb849ef8f9b05397b657c4e41eae90bee4",
    "quadratic/coupling_static/zero_offset": "c169d67dd51cffb94ffcb47b54e3769a51aeb201e2df2e950c5d2cc99e7f4fa8",
    "quadratic/distance": "20b85317b0ec404d557e9e8869b2e32069ae7a14c5c86f299cef1af9d8a00c58",
    "quadratic/fixed": "f5def37b57e41b1948f1182f5db9327539674e17c3da762c29c0057e596f08b8",
    "quadratic/fixed/tail": "f5def37b57e41b1948f1182f5db9327539674e17c3da762c29c0057e596f08b8",
    "quadratic/pflug": "406ff60f91b19632af9408d420752dccb89864fab2897d1e1d486e0ed783169b",
}


@pytest.mark.parametrize("case", [case for case in sorted(CASES)
                                  if case.startswith(("quadratic/", "lsa/"))])
def test_quadratic_and_lsa_runs_keep_their_decisions(case, monkeypatch):
    monkeypatch.setitem(globals(), "trace_digest", decision_digest)
    assert CASES[case]() == DECISIONS.get(case)


# ------------------------------------------------------------ token buffer


@pytest.mark.parametrize("name", ["least_squares", "lsa"])
def test_resync_ends_where_single_draws_end(name):
    prob = problem(name)
    rng, single_rng = RngStream(8, 0), RngStream(8, 0)
    tokens = TokenStreams(prob, [rng], batch=1)
    tokens.sampler_states = [prob.init_sampler(rng)]
    state = prob.init_sampler(single_rng)
    for used in (5, CHUNK - 5, 1):  # resync mid-block, then across a refill
        rows = token_rows(token_columns(tokens.take([0], CHUNK), 0))
        assert len(rows) == CHUNK
        for token in rows[:used]:
            single, state = prob.next_token(single_rng, state)
            parts = zip(*(t if isinstance(t, tuple) else (t,) for t in (token, single)))
            assert all(np.array_equal(a, b) for a, b in parts)
        assert tokens.resync(0, CHUNK - used) is rng
        assert rng.counter == single_rng.counter
        assert tokens.sampler_states[0] == state


@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize("n_iters", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("name", ["least_squares", "lsa"])
def test_streams_stop_at_the_last_iteration(name, n_iters, reps):
    # no block is drawn past n_iters: each stream spends exactly its tokens'
    # words, plus the one word of lsa's init_sampler
    prob = problem(name)
    controller = make_controller(
        ControllerParams(kind="fixed", schedule=("constant", prob.default_gamma0())))
    rngs = [RngStream(8, s) for s in range(reps)]
    run_replicates(prob, controller, EngineConfig(n_iters=n_iters), rngs)
    want = n_iters * prob.words_per_token(1) + (1 if name == "lsa" else 0)
    assert [rng.counter for rng in rngs] == [want] * reps


@pytest.mark.parametrize("name", ["least_squares", "lsa"])
def test_degenerate_reinit_resyncs_the_stream_and_reports_perturbed(name):
    # θ2's history equals θ1, so the re-arm perturbs θ2 out of band: the
    # stream gives back all but 5 tokens of its block, then makes one draw
    prob = problem(name)
    rng, twin = RngStream(9, 0), RngStream(9, 0)
    tokens = TokenStreams(prob, [rng], batch=1)
    tokens.sampler_states = [prob.init_sampler(rng)]
    sampler_state = prob.init_sampler(twin)
    start = rng.counter
    tokens.take([0], CHUNK)
    for _ in range(5):
        _, sampler_state = prob.next_token(twin, sampler_state)
    theta1, gamma = np.full(prob.d, 0.5), 0.1
    state = CoupledState(theta1=theta1, theta2=theta1.copy(), history=deque([theta1.copy()]))
    d0_sq, perturbed = reinit_auxiliary(state, 0, gamma, tokens, CHUNK - 5)
    assert perturbed is True
    assert rng.counter == start + 5 * prob.words_per_token(1) + normal_words(prob.d)
    assert tokens.sampler_states[0] == sampler_state
    want = theta1 + math.sqrt(gamma) * twin.normals(prob.d)
    assert rng.counter == twin.counter
    assert np.array_equal(state.theta2, want)
    assert d0_sq == float((theta1 - want) @ (theta1 - want))
    assert list(state.history) == [state.theta2]


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
        block, states = prob.draw_tokens(rngs, states, count, batch)
        for r, rng in enumerate(singles):
            want, (single_states[r],) = prob.draw_tokens([rng], [single_states[r]], count, batch)
            want, got = token_columns(want, 0), token_columns(block, r)
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
    # iterate i is (i + 1)·1, appended in order to a ring of b + 1 as
    # coupled_step does: with more than b stored θ2 is the iterate b steps
    # back from the newest, with b or fewer the oldest
    prob = problem("quadratic")
    history = deque(maxlen=b + 1)
    for i in range(stored):
        history.append(np.full(prob.d, i + 1.0))
    oldest = history[0]
    state = CoupledState(theta1=np.full(prob.d, 0.5), theta2=history[-1], history=history)
    rng = RngStream(9, 0)
    d0_sq, perturbed = reinit_auxiliary(state, b, 0.1, TokenStreams(prob, [rng], batch=1))
    assert perturbed is False
    assert np.array_equal(state.theta2, np.full(prob.d, want + 1.0))
    assert state.theta2 is not oldest
    assert d0_sq == prob.d * (want + 0.5) ** 2  # ||θ1 - θ2||², exact here
    assert len(state.history) == 1 and state.history[0] is state.theta2
    assert state.history.maxlen == b + 1
    assert rng.counter == 0  # a non-degenerate re-arm draws nothing


def test_rearm_gives_up_after_its_draws():
    # θ2 starts on θ1 = 0, and √γ·N(0, I) at γ = 1e-14 stays within the
    # 1e-12 floor on every one of the REARM_DRAWS draws of the first arm
    prob = make_problem("quadratic", 5, seed=1)
    ctrl = make_controller(ControllerParams(kind="coupling_static", gamma0=1e-14), prob)
    cfg = EngineConfig(n_iters=10, init_offset_scale=0.0)
    with pytest.raises(DegenerateDiagnosticError, match="re-arm: 100 perturbations"):
        run(prob, ctrl, cfg, RngStream(0, 0))


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
        stack, _ = prob.draw_tokens([rng], [prob.init_sampler(rng)], reps)
        stack = token_columns(stack, 0)
        rows = np.stack([prob.step_direction(t, tok) for t, tok in zip(theta, token_rows(stack))])
        assert np.array_equal(prob.step_direction(theta, stack), rows)


def _iterate(prob, n_steps=50):
    """θ after a few SGD steps from 0 at the default stepsize."""
    theta, gamma = np.zeros(prob.d), prob.default_gamma0()
    rng = RngStream(3, 0)
    tokens, _ = prob.draw_tokens([rng], [prob.init_sampler(rng)], n_steps)
    for token in token_rows(token_columns(tokens, 0)):
        theta = theta + gamma * prob.step_direction(theta, token)
    return theta


# The objective of each kind at one iterate, as it was written before the
# stacked ``losses`` became each kind's one statement of it; the reference
# the stacked form is held to, bit for bit.


def _logistic_loss(prob, theta):
    X, y = prob._calibration_data
    return float(np.logaddexp(0.0, -y * (X @ theta)).mean())


def _least_squares_loss(prob, theta):
    if prob.n > 0:
        r = prob._y - prob._X @ theta
        return float(0.5 * (r @ r) / prob.n)
    diff = theta - prob.theta_planted
    return float(0.5 * (prob.h_diag @ diff**2) + 0.5 * prob.noise_sigma**2)


def _svm_loss(prob, theta):
    margins = prob._y * (prob._X @ theta)
    return float(np.maximum(0.0, 1.0 - margins).mean() + 0.5 * prob.lam_reg * float(theta @ theta))


def _lasso_loss(prob, theta):
    resid = prob._y - prob._X @ theta
    return float((resid @ resid) / prob.n + prob.lam_reg * np.abs(theta).sum())


def _uniformly_convex_loss(prob, theta):
    return math.sqrt(theta.dot(theta)) ** prob.p_exp / prob.p_exp


def _quadratic_loss(prob, theta):
    return float(0.5 * theta @ (prob.H @ theta))


def _lsa_loss(prob, theta):
    r = prob.A_bar @ theta + prob.b_bar
    return float(r @ r)


REFERENCE_LOSS = {
    "logistic": _logistic_loss,
    "least_squares": _least_squares_loss,
    "svm": _svm_loss,
    "lasso": _lasso_loss,
    "uniformly_convex": _uniformly_convex_loss,
    "quadratic": _quadratic_loss,
    "lsa": _lsa_loss,
}
# every kind at a second size; the dataset kinds at (d, n) = (10, 1000) and (100, 1000)
LOSS_SIZES = ["logistic/d20", "least_squares/d100", "uniformly_convex/d100", "quadratic/d100",
              "lsa/d50"] + [f"{kind}/d{d}n1000" for kind in ("logistic", "least_squares", "svm",
                                                             "lasso") for d in (10, 100)]


@pytest.mark.parametrize("name", sorted(PROBLEMS) + LOSS_SIZES)
def test_stacked_losses_match_loss_bitwise(name):
    kind, _, size = name.partition("/d")
    if size:
        d, _, n = size.partition("n")
        extra = {"sparsity": 5} if kind == "lasso" and int(d) < 60 else {}
        prob = make_problem(kind, d=int(d), n=int(n or 0), seed=5, **extra)
    else:
        prob = problem(name)
    gen = np.random.default_rng(prob.d)
    iterate = _iterate(prob)
    # 60 random rows: np.power rounds a float power differently in a few percent of them
    stack = np.vstack([np.zeros(prob.d), prob.theta_star, iterate, 1e6 * iterate,
                       gen.standard_normal((60, prob.d)) * 10.0 ** gen.uniform(-3, 3, (60, 1))])
    got = prob.losses(stack)
    assert got.shape == (len(stack),)
    want = [float(REFERENCE_LOSS[prob.kind](prob, t)).hex() for t in stack]
    assert [float(v).hex() for v in got] == want
    assert [float(prob.loss(t)).hex() for t in stack] == want


def test_no_kind_overrides_loss():
    # loss is the one-row case of losses, the one place each kind states its objective
    for cls in _KIND_CLASSES.values():
        assert cls.loss is Problem.loss, cls.__name__


class _DecaysAtFive(FixedScheduleController):
    def observe(self, k, theta1, d_sq, direction):
        if k == 5:
            self._decay(k)
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


def _restart_flags_by_definition(trace):
    """A record is flagged iff some restart k' lies in (the previous record's k, its k]."""
    restarts = [event.k for event in trace.restart_log]
    return [any(lo < k <= hi for k in restarts) for lo, hi in zip([0] + trace.ks[:-1], trace.ks)]


RECORD_CASES = {
    "dense/averaging": ("quadratic", "coupling_adaptive", dict(trace_stride=1, averaging=True)),
    "dense": ("lsa", "coupling_adaptive", dict(trace_stride=1)),
    "stride7/averaging": ("lasso", "distance", dict(trace_stride=7, averaging=True)),
    # the golden diverging case: k = 294, in the second block
    "diverges/dense/averaging": ("quadratic", "diverges", dict(trace_stride=1, averaging=True)),
    # restarts at k = 62 and 93 both fall between the records at 50 and 100
    "stride50/two_restarts": ("lsa", "pflug", dict(trace_stride=50)),
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
    assert trace.restart_flags == _restart_flags_by_definition(trace)
    if case == "stride50/two_restarts":
        assert [event.k for event in trace.restart_log if 50 < event.k <= 100] == [62, 93]
        assert trace.restart_flags[:4] == [True, True, True, False]


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


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_restart_flags_follow_the_log(case, monkeypatch):
    made = []

    class _KeptTrace(RunTrace):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(engine, "RunTrace", _KeptTrace)
    CASES[case]()
    assert made
    for trace in made:
        assert trace.restart_flags == _restart_flags_by_definition(trace)


# ------------------------------------------------------------------- steps


def _snapshot(value):
    """A copy of an iterate, a direction or a token, its arrays copied."""
    if isinstance(value, tuple):
        return tuple(_snapshot(part) for part in value)
    return value.copy() if isinstance(value, np.ndarray) else value


def _same_bits(a, b):
    if isinstance(a, tuple):
        return all(_same_bits(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


@pytest.mark.parametrize("mode", ["coupled", "uncoupled", "lockstep"])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_a_step_leaves_the_arrays_it_keeps_alone(name, mode):
    # records, the history ring and Pflug's observe keep arrays by reference
    # across steps, so a step may write only into arrays it has just made:
    # every earlier iterate, history entry, direction and token keeps its bits
    prob = problem(name)
    reps = 3 if mode == "lockstep" else 1
    rngs = [RngStream(7, 400 + r) for r in range(reps)]
    block, _ = prob.draw_tokens(rngs, [prob.init_sampler(rng) for rng in rngs], 20)
    steps = token_rows(block if mode == "lockstep" else token_columns(block, 0))
    gen = np.random.default_rng(0)
    state = CoupledState(theta1=gen.standard_normal((reps, prob.d) if reps > 1 else prob.d),
                         theta2=None)
    if mode == "coupled":
        state.theta2 = state.theta1 + gen.standard_normal(prob.d)
        state.history = deque([state.theta2], maxlen=4)
    gamma = 0.5 * prob.default_gamma0()
    kept = []  # (array, its bits when kept)
    for token in steps:
        want = prob.step_direction(state.theta1.copy(), _snapshot(token))
        arrays = [state.theta1, token, *(state.history or ())]
        if state.theta2 is not None:
            arrays.append(state.theta2)
        kept += [(a, _snapshot(a)) for a in arrays]
        direction, _ = engine.coupled_step(state, prob, gamma, token)
        kept.append((direction, want))
        assert all(_same_bits(a, bits) for a, bits in kept)
