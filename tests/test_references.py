"""Golden digests of reference solutions, certified constants and oracle values.

SHA-256 digests of the bits each value is made of (array bytes, float hex),
taken before the reference solvers and the eigen path were sped up.  Any
change in a reference θ*, f*, residual, constant or closed-form series
changes a digest.  The svm solver is also pinned to the row-by-row
coordinate loop it replaced, and the lasso proximal-gradient solve to the
FISTA loop with adaptive restart that it replaced, whose momentum never
left θ; both old loops are kept here as reference implementations.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from csgd.errors import NonConvergenceError
from csgd import problems
from csgd.numkit import RngStream, norm, power_iteration_top
from csgd.oracle import dk_closed_form_series, proximity_ratio_quadratic
from csgd.problems import _ista_lasso, _svm_dual_coordinate_ascent, make_problem


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
        "72be0c17d4de9ee21e6f36b5bdfc3783eefd132247eb75db0f507ed43a750d0a"),
    "svm_20_500_s2": (
        lambda: _reference("svm", 20, 500, 2),
        "e881b9e62a7549afad434d89b35328fba45ca847ee8718a1a7c33ac54cff1dc0"),
    "lasso_100_1000_s1": (
        lambda: _reference("lasso", 100, 1000, 1),
        "9dd17db5e4aac62d0d222e96b86357435d56bd861f3ea8a758b4386b14bcd560"),
    "lasso_100_300_s3": (
        lambda: _reference("lasso", 100, 300, 3),
        "580610995c20d8a2a0c38238937a2e0a5c2bb38b5e2326aecb58d731b52e5760"),
    "logistic_10_1000_s1": (
        lambda: _constants(10, 1000, 1),
        "7af964ee2479e17321f25c2cd701f2eebe9f16fe933631fa400222baa28ef28b"),
    "logistic_stream_10": (
        lambda: _constants(10, 0, 0),
        "e77dd27636654e47e2c9037010d8ab2aa9e747881cae0740af3bbae0d60b3d1b"),
    "lsa_5_s0": (
        lambda: _lsa(0),
        "747cfdb47bb16191c35a546528407197a8c008f3c8bb0551adab28ffacc1a8d1"),
    "lsa_5_s17": (
        lambda: _lsa(17),
        "e55eb4237c40f7bc3dfc6c44cbfca8122ac5d97ff6d2f9a14ddea3aaf4e76a6b"),
    "oracle_quadratic_5": (
        _oracle,
        "d06b1209e888b3e83cd634bbe88d1c0b95d2f62b02e7544ed4981b4b56c8b44c"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_reference_digest_is_golden(name):
    compute, want = CASES[name]
    assert digest(*compute()) == want


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_CASES = ("lasso_100_1000_s1", "lasso_100_300_s3", "logistic_10_1000_s1")


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
    """The per-coordinate dual ascent the block scan must match bit for bit."""
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
        dual = np.array(alpha).mean() - 0.5 * lam * float(theta @ theta)
        gap = primal - dual
        if gap <= gap_tol_rel * max(1.0, abs(primal)):
            return theta, gap
    raise NonConvergenceError(
        f"svm dual coordinate ascent: duality gap {gap:g} after {max_epochs} epochs"
    )


def _svm_data(d, n, seed, zero_rows=()):
    prob = make_problem("svm", d, n, seed)
    X = prob._X.copy()
    X[list(zero_rows)] = 0.0
    return X, prob._y, prob.lam_reg


B = 64  # the cases' edges are drawn on 64-row blocks; 128-row blocks share them
SVM_CASES = {
    "n_below_chunk": (10, B - 24, 3, ()),
    "n_not_a_chunk_multiple": (10, 1000, 1, ()),
    "d20": (20, 5 * B + 13, 2, ()),
    "d50": (50, 300, 4, ()),
    # sq_i == 0, which make_problem never produces: first, mid-block, a block start, last
    "zero_rows": (10, 3 * B + 7, 5, (0, B + 5, 2 * B, 3 * B + 6)),
}


@pytest.mark.parametrize("name", list(SVM_CASES))
def test_svm_block_scan_matches_the_scalar_loop(name):
    d, n, seed, zero_rows = SVM_CASES[name]
    X, y, lam = _svm_data(d, n, seed, zero_rows)
    # both converge at the default tolerance, zero rows included: a zero
    # row's hinge term 1 is matched by its dual term αᵢ = 1
    want_theta, want_gap = _svm_scalar_loop(X, y, lam)
    theta, gap = _svm_dual_coordinate_ascent(X, y, lam)
    assert theta.tobytes() == want_theta.tobytes()
    assert float(gap).hex() == float(want_gap).hex()


@pytest.mark.parametrize("max_epochs", [1, 3])
def test_svm_block_scan_fails_to_converge_as_the_scalar_loop(max_epochs):
    X, y, lam = _svm_data(10, 1000, 1)
    with pytest.raises(NonConvergenceError) as want:
        _svm_scalar_loop(X, y, lam, max_epochs=max_epochs)
    with pytest.raises(NonConvergenceError) as got:
        _svm_dual_coordinate_ascent(X, y, lam, max_epochs=max_epochs)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", ["n_not_a_chunk_multiple", "zero_rows"])
@pytest.mark.parametrize("block", [1, 7, 64, 128, "n + 5"])
def test_svm_scan_bits_do_not_depend_on_the_block_size(name, block, monkeypatch):
    d, n, seed, zero_rows = SVM_CASES[name]
    X, y, lam = _svm_data(d, n, seed, zero_rows)
    monkeypatch.setattr(problems, "SVM_BLOCK", n + 5 if block == "n + 5" else block)
    want_theta, want_gap = _svm_scalar_loop(X, y, lam)
    theta, gap = _svm_dual_coordinate_ascent(X, y, lam)
    assert theta.tobytes() == want_theta.tobytes()
    assert float(gap).hex() == float(want_gap).hex()


def _fista_reference_loop(X, y, lam, tol_rel=1e-11, max_iters=200_000):
    """The FISTA loop ``_ista_lasso`` must match bit for bit: a prox_grad
    closure and a restart test on every iteration."""
    n, d = X.shape
    gram = 2.0 * np.stack([X.T @ X[:, j] for j in range(d)], axis=1) / n
    lin = 2.0 * X.T @ y / n
    lam_max, _ = power_iteration_top(gram, tol=1e-12)
    t_step = 1.0 / lam_max

    def prox_grad(v):
        z = v - t_step * (gram.dot(v) - lin)
        return np.sign(z) * np.maximum(np.abs(z) - t_step * lam, 0.0)

    theta = np.zeros(d)
    mom = theta.copy()
    t_acc = 1.0
    tol = tol_rel * max(1.0, norm(lin))
    for _ in range(max_iters):
        theta_new = prox_grad(mom)
        resid = norm(theta_new - mom) / t_step
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc**2))
        mom = theta_new + ((t_acc - 1.0) / t_new) * (theta_new - theta)
        if (theta_new - theta).dot(mom - theta_new) > 0.0:
            mom = theta_new.copy()  # adaptive restart
            t_new = 1.0
        theta, t_acc = theta_new, t_new
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
def test_ista_matches_the_fista_loop(name):
    X, y, lam = _lasso_data(*LASSO_CASES[name])
    want_theta, want_resid = _fista_reference_loop(X, y, lam)
    if lam >= 0.1:
        zeros = want_theta == 0.0
        assert zeros.any() and np.signbit(want_theta[zeros]).any()
    theta, resid = _ista_lasso(X, y, lam)
    assert theta.tobytes() == want_theta.tobytes()
    assert float(resid).hex() == float(want_resid).hex()


@pytest.mark.parametrize("max_iters", [1, 50])
def test_ista_fails_to_converge_as_the_fista_loop(max_iters):
    X, y, lam = _lasso_data(*LASSO_CASES["d100_n300"])
    with pytest.raises(NonConvergenceError) as want:
        _fista_reference_loop(X, y, lam, max_iters=max_iters)
    with pytest.raises(NonConvergenceError) as got:
        _ista_lasso(X, y, lam, max_iters=max_iters)
    assert str(got.value) == str(want.value)
