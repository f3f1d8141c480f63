"""Golden digests of reference solutions, certified constants and oracle values.

SHA-256 digests of the bits each value is made of (array bytes, float hex),
taken before the reference solvers were sped up.  The lasso, logistic, lsa
and oracle digests were re-taken when L, μ, the lasso step and q_max moved
from power iteration to one ``eigh`` call, in their last bits.  Any change
in a reference θ*, f*, residual, constant or closed-form series changes a
digest.  The two svm digests were re-taken when an active-set solve began
to finish the dual solve: θ* moved from the point the 1e-9 duality gap
certified (within √(2·gap/λ) ≈ 1.4e-4 of the optimum) to the optimum
itself, by 1.1e-6 and 2.0e-7, and the gap fell to rounding.  θ* is checked
to be a KKT point and to match a row-by-row coordinate ascent run to a
1e-15 gap.  The svm dual and the lasso share one restarted FISTA loop.
With no active-set point accepted, the svm solve is pinned to a plain svm
dual FISTA loop.  The lasso solve is pinned to a plain reference loop and
checked against proximal gradient (ISTA), the solve it replaced, within
the bound its stopping rule implies.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from csgd.errors import ConfigError, NonConvergenceError
from csgd import problems
from csgd.numkit import RngStream, norm, symmetric_eigs
from csgd.oracle import dk_closed_form_series, proximity_ratio_quadratic
from csgd.problems import _fista_lasso, _svm_dual_fista, make_problem


def _bits(value):
    if isinstance(value, np.ndarray):
        return b"a" + str(value.shape).encode() + np.ascontiguousarray(value, "<f8").tobytes()
    if isinstance(value, (list, tuple)):
        return b"l" + b"".join(_bits(v) for v in value)
    return b"f" + float(value).hex().encode()


def digest(*values):
    return hashlib.sha256(_bits(list(values))).hexdigest()


def _reference(kind, d, n, seed):
    ref = make_problem(kind, d, n, seed).reference
    return ref.theta_star, ref.f_star, ref.grad_norm


def _constants(d, n, seed):
    prob = make_problem("logistic", d, n, seed)
    return prob.L, prob.mu


def _lsa(seed):
    prob = make_problem("lsa", 5, 0, seed)
    return prob.L, prob.mu, prob.A_table, prob.b_table


def _oracle():
    H = make_problem("quadratic", 5, 0, 16).H
    gamma = 0.4  # below 1/λ_max: the spectrum of H lies in [0.2, 1]
    d0 = RngStream(16, 3).normals(5)
    series = dk_closed_form_series(H, gamma, d0, [0, 1, 5, 20, 80])
    return series, proximity_ratio_quadratic(H, gamma, d0, 25)


CASES = {
    "svm_10_1000_s1": (
        lambda: _reference("svm", 10, 1000, 1),
        "abe74239bdd410177a89e8ce80c0e8fcd359c2d826e918d34b61e171903970ee"),
    "svm_20_500_s2": (
        lambda: _reference("svm", 20, 500, 2),
        "f9adb871fcb7d65d5ecaf9d3f04806dc64dafb574d8d5d75a2273f8e090cec07"),
    # 76 free rows: the largest active-set system of the pinned solves
    "svm_100_1000_s1": (
        lambda: _reference("svm", 100, 1000, 1),
        "b9f76ab39914d7cb5a3126598571400a0dbb911fee8856b6c14f68837d1440e6"),
    "lasso_100_1000_s1": (
        lambda: _reference("lasso", 100, 1000, 1),
        "f911afd8f0b15cebcbd78e7588b5346a122d76ca3cb233a9a2fbbe3ecdbdb9df"),
    "lasso_100_300_s3": (
        lambda: _reference("lasso", 100, 300, 3),
        "e0d1050a877ec8f12c590048a2e48944e2f53a83ab91e3eddc85ba107835d786"),
    "logistic_10_1000_s1": (
        lambda: _constants(10, 1000, 1),
        "711bfed85d65d99e2681dad2ab5feb5ddcc06596c0edc9e745b4a18b7e613e1c"),
    "logistic_stream_10": (
        lambda: _constants(10, 0, 0),
        "d840a18e0c36589ee568057d363ae7a0e98f5dcc98784ba8e60d8c69ed4691e4"),
    "lsa_5_s0": (
        lambda: _lsa(0),
        "28f4ca2d68103ce6b7d93642a32262100edb937ad785647f167f951fd250c8aa"),
    "lsa_5_s17": (
        lambda: _lsa(17),
        "f6dec915017a860134f9e21c1dd21fbf3f797f930e9303069d8237609ab674f8"),
    "oracle_quadratic_5": (
        _oracle,
        "addb6eb88f531732f6896ce366169274d4ae424774ee5a69abfd37d470038586"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_reference_digest_is_golden(name):
    compute, want = CASES[name]
    assert digest(*compute()) == want


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_CASES = ("svm_10_1000_s1", "svm_20_500_s2", "svm_100_1000_s1", "lasso_100_1000_s1",
                "lasso_100_300_s3", "logistic_10_1000_s1")


def _digests_on(threads):
    """The THREAD_CASES digests, computed in a fresh interpreter on ``threads`` BLAS threads."""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, str(threads)),
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = ("import test_references as t\n"
            f"for name in {THREAD_CASES!r}: print(t.digest(*t.CASES[name][0]()))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.split()


def test_reference_digests_do_not_depend_on_the_blas_thread_count():
    # the thread count is read when NumPy loads, so each count needs its own process
    assert _digests_on(1) == _digests_on(2) == [CASES[name][1] for name in THREAD_CASES]


def _svm_scalar_loop(X, y, lam, gap_tol_rel=1e-9, max_epochs=4000):
    """Per-coordinate dual ascent, one exact 1-D maximization per row, stopped on
    the relative duality gap: the exact θ* to compare with at a 1e-15 gap."""
    n, d = X.shape
    rows = list(X)
    labels = y.tolist()
    sq = ((X**2).sum(axis=1) / (lam * n)).tolist()
    alpha = [1.0 if sq_i == 0.0 else 0.0 for sq_i in sq]  # a zero row's α/n peaks at α = 1
    theta = np.zeros(d)
    for _ in range(max_epochs):
        for i, (x, yi, sq_i) in enumerate(zip(rows, labels, sq)):
            m = yi * float(x @ theta)
            if sq_i == 0.0:
                continue
            a_new = min(1.0, max(0.0, alpha[i] + (1.0 - m) / sq_i))
            delta = a_new - alpha[i]
            if delta != 0.0:
                theta += (delta * yi / (lam * n)) * x
                alpha[i] = a_new
        margins = y * (X @ theta)
        primal = np.maximum(0.0, 1.0 - margins).mean() + 0.5 * lam * float(theta @ theta)
        dual = np.mean(alpha) - 0.5 * lam * float(theta @ theta)
        gap = primal - dual
        if gap <= gap_tol_rel * max(1.0, abs(primal)):
            return theta, gap
    raise NonConvergenceError(
        f"svm dual coordinate ascent: duality gap {gap:g} after {max_epochs} epochs"
    )


def _svm_fista_reference_loop(X, y, lam, gap_tol_rel=1e-9, max_iters=4000):
    """The restarted FISTA loop on the svm dual that ``_svm_dual_fista`` must
    match bit for bit when it accepts no active-set point, written plainly as
    ``_fista_reference_loop`` is: min over α ∈ [0, 1]ⁿ of (c/2)‖Σ αᵢyᵢxᵢ‖² − Σ αᵢ,
    stopped on the relative duality gap of α and θ = c·Σ αᵢyᵢxᵢ."""
    n, d = X.shape
    c = 1.0 / (lam * n)
    Xy = y[:, None] * X
    _, lam_max, _ = symmetric_eigs(np.stack([Xy.T @ Xy[:, j] for j in range(d)], axis=1))
    t_step = 1.0 / (c * lam_max)

    def prox_grad(a):
        margins = Xy @ (c * (a @ Xy))
        return np.clip(a - t_step * (margins - 1.0), 0.0, 1.0)

    alpha = np.zeros(n)
    mom = alpha.copy()
    t_acc = 1.0
    for _ in range(max_iters):
        alpha_new = prox_grad(mom)
        theta = c * (alpha_new @ Xy)
        margins = Xy @ theta
        primal = np.maximum(0.0, 1.0 - margins).mean() + 0.5 * lam * float(theta @ theta)
        dual = alpha_new.mean() - 0.5 * lam * float(theta @ theta)
        gap = primal - dual
        if gap <= gap_tol_rel * max(1.0, abs(primal)):
            return theta, gap
        if (mom - alpha_new).dot(alpha_new - alpha) > 0.0:  # gradient restart
            mom = alpha_new.copy()
            t_acc = 1.0
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc**2))
            mom = alpha_new + ((t_acc - 1.0) / t_new) * (alpha_new - alpha)
            t_acc = t_new
        alpha = alpha_new
    raise NonConvergenceError(
        f"svm dual FISTA: duality gap {gap:g} after {max_iters} iterations"
    )


def _svm_data(d, n, seed, zero_rows=()):
    prob = make_problem("svm", d, n, seed)
    X = prob._X.copy()
    X[list(zero_rows)] = 0.0
    return X, prob._y, prob.lam_reg


SVM_CASES = {  # (d, n, seed, zero rows); the names recall the 64-row blocks of an earlier solve
    "n_below_chunk": (10, 40, 3, ()),
    "n_not_a_chunk_multiple": (10, 1000, 1, ()),
    "d20": (20, 333, 2, ()),
    "d50": (50, 300, 4, ()),
    # zero rows, which make_problem never produces: first, inner and last
    "zero_rows": (10, 199, 5, (0, 69, 128, 198)),
}


@pytest.mark.parametrize("name", list(SVM_CASES))
def test_svm_solve_rejects_a_candidate_that_fails_the_gap_test(name, monkeypatch):
    # every KKT candidate is θ = α = 0, whose gap is 1: the solve must fall
    # back to the FISTA iterates and stop where the plain loop stops, to the
    # bit, within the strong-convexity bound of the exact θ*
    X, y, lam = _svm_data(*SVM_CASES[name])
    exact, _ = _svm_dual_fista(X, y, lam)
    calls = []

    def zero_point(Xy, c, alpha, seen):
        calls.append(len(alpha))
        return np.zeros(len(alpha)), np.zeros(X.shape[1]), np.zeros(len(alpha))

    monkeypatch.setattr(problems, "_svm_kkt_point", zero_point)
    want_theta, want_gap = _svm_fista_reference_loop(X, y, lam)
    theta, gap = _svm_dual_fista(X, y, lam)
    assert calls
    assert theta.tobytes() == want_theta.tobytes()
    assert float(gap).hex() == float(want_gap).hex()
    assert norm(theta - exact) <= math.sqrt(2.0 * gap / lam)


@pytest.mark.parametrize("max_iters", [1, 3])
def test_svm_fista_fails_to_converge_as_its_reference_loop(max_iters):
    X, y, lam = _svm_data(10, 1000, 1)
    with pytest.raises(NonConvergenceError) as want:
        _svm_fista_reference_loop(X, y, lam, max_iters=max_iters)
    with pytest.raises(NonConvergenceError) as got:
        _svm_dual_fista(X, y, lam, max_iters=max_iters)
    # the last gap reported is the iterate's own, which the plain loop computes too
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith(f"after {max_iters} iterations")


def _svm_primal(X, y, lam, theta):
    return np.maximum(0.0, 1.0 - y * (X @ theta)).mean() + 0.5 * lam * float(theta @ theta)


KKT_CASES = dict(SVM_CASES)
KKT_CASES.update({
    "svm_20_500_s2": (20, 500, 2, ()),  # svm_10_1000_s1 is n_not_a_chunk_multiple
    # the scalar loop needs thousands of epochs to a 1e-15 gap on these two
    "slow_s4": (10, 200, 4, ()),
    "slow_s7": (10, 200, 7, ()),
})


@pytest.mark.parametrize("name", list(KKT_CASES))
def test_svm_reference_is_a_kkt_point(name):
    """θ* = c·Σ αᵢyᵢxᵢ (c = 1/λn) for some α ∈ [0, 1]ⁿ that is 1 where the
    margin is below 1 and 0 where it is above, and the duality gap is at
    rounding.  Rows within 1e-9 of margin 1 take the α that least squares
    finds for them, clipped to [0, 1]."""
    d, n, seed, zero_rows = KKT_CASES[name]
    X, y, lam = _svm_data(d, n, seed, zero_rows)
    theta, gap = _svm_dual_fista(X, y, lam)
    c = 1.0 / (lam * n)
    Xy = y[:, None] * X
    margins = Xy @ theta
    near = np.abs(margins - 1.0) <= 1e-9
    alpha = np.where(margins < 1.0, 1.0, 0.0)
    rest = theta / c - alpha[~near] @ Xy[~near]
    alpha[near] = np.clip(np.linalg.lstsq(Xy[near].T, rest)[0], 0.0, 1.0)
    assert norm(theta - c * (alpha @ Xy)) <= 1e-12 * norm(theta)
    assert abs(gap) <= 1e-12 * max(1.0, abs(_svm_primal(X, y, lam, theta)))
    if not name.startswith("slow"):
        exact, _ = _svm_scalar_loop(X, y, lam, gap_tol_rel=1e-15)
        assert norm(theta - exact) <= 1e-9


@pytest.mark.parametrize("name", ["n_not_a_chunk_multiple", "svm_20_500_s2"])
@pytest.mark.parametrize("moved", [None, "free_to_one", "zero_to_one"])
def test_svm_kkt_point_moves_a_row_back_to_its_side(name, moved):
    """Started from θ*'s partition, the active-set solve returns θ* to the bit:
    its last round solves on the same partition.  Started with a free row, or
    the zero-set row of least margin, put at one, it must move rows back.
    Not every wrong start comes back; a row of A put at zero makes a
    partition repeat here, and the FISTA iterates go on."""
    d, n, seed, zero_rows = KKT_CASES[name]
    X, y, lam = _svm_data(d, n, seed, zero_rows)
    theta, _ = _svm_dual_fista(X, y, lam)
    Xy = y[:, None] * X
    margins = Xy @ theta
    free = np.abs(margins - 1.0) <= 1e-9
    alpha = np.where(free, 0.5, np.where(margins < 1.0, 1.0, 0.0))
    if moved == "free_to_one":
        alpha[np.flatnonzero(free)[0]] = 1.0
    elif moved == "zero_to_one":
        alpha[np.argmin(np.where(alpha == 0.0, margins, np.inf))] = 1.0
    got_alpha, got_theta, got_margins = problems._svm_kkt_point(
        Xy, 1.0 / (lam * n), alpha, set())
    assert got_theta.tobytes() == theta.tobytes()
    assert np.array_equal((got_alpha > 0.0) & (got_alpha < 1.0), free)
    assert got_margins.tobytes() == margins.tobytes()


def test_svm_kkt_point_skips_a_partition_it_has_seen(monkeypatch):
    """The rounds from a partition are fixed, so a second call from one in
    ``seen`` returns None without solving."""
    X, y, lam = _svm_data(*SVM_CASES["n_not_a_chunk_multiple"])
    theta, _ = _svm_dual_fista(X, y, lam)
    Xy = y[:, None] * X
    margins = Xy @ theta
    alpha = np.where(np.abs(margins - 1.0) <= 1e-9, 0.5, np.where(margins < 1.0, 1.0, 0.0))
    seen = set()
    assert problems._svm_kkt_point(Xy, 1.0 / (lam * len(y)), alpha, seen) is not None
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
    assert problems._svm_kkt_point(Xy, 1.0 / (lam * len(y)), alpha, seen) is None
    assert seen and not solves


def test_svm_doubled_rows_take_the_gap_fallback(monkeypatch):
    """Each free row comes with its copy, so every active-set attempt starts
    with more than d free rows and gives up before any solve, and FISTA runs
    to the 1e-9 gap.  The doubled data set has the objective of the original,
    which is λ-strongly convex, so its θ* lies within √(2·gap/λ) of the
    original's."""
    X, y, lam = _svm_data(10, 1000, 1)
    exact, _ = _svm_dual_fista(X, y, lam)
    points = []
    kkt_point = problems._svm_kkt_point
    monkeypatch.setattr(problems, "_svm_kkt_point",
                        lambda *args: points.append(kkt_point(*args)) or points[-1])
    X2, y2 = np.vstack([X, X]), np.concatenate([y, y])
    theta, gap = _svm_dual_fista(X2, y2, lam)
    assert points and all(point is None for point in points)
    assert 0.0 <= gap <= 1e-9 * max(1.0, _svm_primal(X2, y2, lam, theta))
    assert norm(theta - exact) <= math.sqrt(2.0 * gap / lam)


def test_svm_solve_needs_an_iteration():
    X, y, lam = _svm_data(10, 40, 3)
    with pytest.raises(ConfigError, match="max_iters"):
        _svm_dual_fista(X, y, lam, max_iters=0)


# ------------------------------------------------------- solves that give up


def test_newton_logistic_gives_up_when_its_line_search_fails():
    # every step away from 0 costs inf, so no halving of the step is accepted
    prob = make_problem("logistic", 3, 40, 18)
    loss = prob.loss
    prob.loss = lambda theta: loss(theta) if not theta.any() else math.inf
    with pytest.raises(NonConvergenceError, match="line search failed"):
        prob.theta_star


def test_newton_logistic_gives_up_after_its_iteration_cap():
    # a gradient that never shrinks, and a loss that drops on every call, so
    # every line search ends with a step taken and the loop runs out of iterations
    prob = make_problem("logistic", 3, 40, 18)
    calls, grads = iter(range(10**6)), []
    prob.full_grad = lambda theta: grads.append(1) or np.full(3, 1e-3)
    prob.loss = lambda theta: -float(next(calls))
    with pytest.raises(NonConvergenceError, match="did not reach gradient norm"):
        prob.theta_star
    assert len(grads) == 201  # the tolerance's, then one per iteration


def test_lsa_reference_rejects_a_fixed_point_residual():
    prob = make_problem("lsa", 5, 0, 0)
    prob.full_grad = lambda theta: np.full(5, 1e-9)
    with pytest.raises(NonConvergenceError, match="lsa fixed point residual"):
        prob.theta_star


def _lasso_gram(X, y):
    """The lasso solve's gram matrix and linear term, built as ``_fista_lasso`` builds them."""
    n, d = X.shape
    gram = 2.0 * np.stack([X.T @ X[:, j] for j in range(d)], axis=1) / n
    return gram, 2.0 * X.T @ y / n


def _fista_reference_loop(X, y, lam, tol_rel=1e-11, max_iters=200_000):
    """The restarted FISTA loop ``_fista_lasso`` must match bit for bit, written
    plainly: a prox_grad closure, then the restart test or the momentum step."""
    gram, lin = _lasso_gram(X, y)
    _, lam_max, _ = symmetric_eigs(gram)
    t_step = 1.0 / lam_max

    def prox_grad(v):
        z = v - t_step * (gram.dot(v) - lin)
        return np.sign(z) * np.maximum(np.abs(z) - t_step * lam, 0.0)

    theta = np.zeros(X.shape[1])
    mom = theta.copy()
    t_acc = 1.0
    tol = tol_rel * max(1.0, norm(lin))
    for _ in range(max_iters):
        theta_new = prox_grad(mom)
        resid = norm(theta_new - mom) / t_step
        if resid <= tol:
            return theta_new, resid
        if (mom - theta_new).dot(theta_new - theta) > 0.0:  # gradient restart
            mom = theta_new.copy()
            t_acc = 1.0
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc**2))
            mom = theta_new + ((t_acc - 1.0) / t_new) * (theta_new - theta)
            t_acc = t_new
        theta = theta_new
    raise NonConvergenceError(f"lasso reference: gradient mapping {resid:g} > {tol:g}")


def _ista_loop(X, y, lam, tol_rel=1e-11, max_iters=200_000):
    """Plain proximal gradient (ISTA) with the same step and stopping rule."""
    gram, lin = _lasso_gram(X, y)
    _, lam_max, _ = symmetric_eigs(gram)
    t_step = 1.0 / lam_max
    theta = np.zeros(X.shape[1])
    tol = tol_rel * max(1.0, norm(lin))
    for _ in range(max_iters):
        z = theta - t_step * (gram.dot(theta) - lin)
        theta_new = np.sign(z) * np.maximum(np.abs(z) - t_step * lam, 0.0)
        resid = norm(theta_new - theta) / t_step
        theta = theta_new
        if resid <= tol:
            return theta, resid
    raise NonConvergenceError(f"lasso reference: gradient mapping {resid:g} > {tol:g}")


LASSO_CASES = {  # (d, n, seed, sparsity, lam_reg)
    "d100_n1000": (100, 1000, 1, 60, 1e-4),
    "d100_n300": (100, 300, 3, 60, 1e-4),
    "d20_s5": (20, 200, 2, 5, 1e-4),
    "d50_s10": (50, 300, 4, 10, 1e-4),
    # a large λ leaves exact zeros in θ*, negative ones among them, so the
    # loops are also compared on the sign of a zero
    "d100_n1000_lam0.1": (100, 1000, 1, 60, 0.1),
    "d100_n1000_lam1": (100, 1000, 1, 60, 1.0),
    "d20_s5_lam0.1": (20, 200, 2, 5, 0.1),
    "d20_s5_lam1": (20, 200, 2, 5, 1.0),
}


def _lasso_data(d, n, seed, sparsity, lam_reg):
    prob = make_problem("lasso", d, n, seed, sparsity=sparsity, lam_reg=lam_reg)
    return prob._X, prob._y, prob.lam_reg


@pytest.mark.parametrize("name", list(LASSO_CASES))
def test_fista_matches_its_reference_loop(name):
    X, y, lam = _lasso_data(*LASSO_CASES[name])
    want_theta, want_resid = _fista_reference_loop(X, y, lam)
    if lam >= 0.1:
        zeros = want_theta == 0.0
        assert zeros.any() and np.signbit(want_theta[zeros]).any()
    theta, resid = _fista_lasso(X, y, lam)
    assert theta.tobytes() == want_theta.tobytes()
    assert float(resid).hex() == float(want_resid).hex()


@pytest.mark.parametrize("max_iters", [1, 50])
def test_fista_fails_to_converge_as_its_reference_loop(max_iters):
    X, y, lam = _lasso_data(*LASSO_CASES["d100_n300"])
    with pytest.raises(NonConvergenceError) as want:
        _fista_reference_loop(X, y, lam, max_iters=max_iters)
    with pytest.raises(NonConvergenceError) as got:
        _fista_lasso(X, y, lam, max_iters=max_iters)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", list(LASSO_CASES))
def test_fista_agrees_with_ista_within_the_stopping_bound(name):
    """Both loops stop within 2·tol/μ of θ*, so within 4·tol/μ of each other.

    Write f(θ) = ½θᵀGθ − linᵀθ for the smooth part (G the gram matrix),
    g = λ‖·‖₁, F = f + g, t = 1/L with L = λ_max(G), and μ = λ_min(G) > 0
    (every case has n ≥ d).  A loop stops at θ⁺ = prox_tg(v − t∇f(v)) with
    ‖v − θ⁺‖/t ≤ tol, where v is the momentum point (FISTA) or the last
    iterate (ISTA).  The prox's optimality condition gives
    (v − θ⁺)/t − ∇f(v) ∈ ∂g(θ⁺), so s = (v − θ⁺)/t + ∇f(θ⁺) − ∇f(v) is in
    ∂F(θ⁺), and ‖s‖ ≤ ‖v − θ⁺‖/t + L‖θ⁺ − v‖ = 2‖v − θ⁺‖/t ≤ 2·tol.  F is
    μ-strongly convex and 0 ∈ ∂F(θ*), so μ‖θ⁺ − θ*‖² ≤ ⟨s, θ⁺ − θ*⟩ and
    ‖θ⁺ − θ*‖ ≤ ‖s‖/μ ≤ 2·tol/μ.  The triangle inequality gives the bound.
    The rounding in G, in λ_max and in the residual moves it by a relative
    1e-12 or so; the measured distances are at most a quarter of it.
    """
    X, y, lam = _lasso_data(*LASSO_CASES[name])
    theta, _ = _fista_lasso(X, y, lam)
    want, _ = _ista_loop(X, y, lam)
    support = want != 0.0
    assert np.array_equal(theta != 0.0, support)
    assert np.array_equal(np.sign(theta[support]), np.sign(want[support]))
    gram, lin = _lasso_gram(X, y)
    mu = np.linalg.eigvalsh(0.5 * (gram + gram.T))[0]
    tol = 1e-11 * max(1.0, norm(lin))
    assert norm(theta - want) <= 4.0 * tol / mu


def test_fista_needs_an_iteration():
    X, y, lam = _lasso_data(*LASSO_CASES["d20_s5"])
    with pytest.raises(ConfigError, match="max_iters"):
        _fista_lasso(X, y, lam, max_iters=0)


def test_fista_accelerates():
    # restarted FISTA takes 337 iterations here; ISTA takes 2768, and so does
    # FISTA whose restart test compares with the new momentum point, since
    # that test fires on every step
    X, y, lam = _lasso_data(*LASSO_CASES["d100_n1000"])
    _fista_lasso(X, y, lam, max_iters=600)
