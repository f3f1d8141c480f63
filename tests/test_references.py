"""Golden digests of reference solutions, certified constants and oracle values.

SHA-256 digests of the bits each value is made of (array bytes, float hex),
taken before the reference solvers and the eigen path were sped up.  Any
change in a reference θ*, f*, residual, constant or closed-form series
changes a digest.  The svm solver is also pinned to the row-by-row
coordinate loop it replaced, kept here as the reference implementation.
"""

import hashlib

import numpy as np
import pytest

from csgd.errors import NonConvergenceError
from csgd.numkit import RngStream
from csgd.oracle import dk_closed_form_series, proximity_ratio_quadratic
from csgd.problems import CHUNK, _svm_dual_coordinate_ascent, make_problem


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
        "1eeb58e264ad5fec9ba5a9de228bb2c614bfffcb31d8ef708b78fc67633371ce"),
    "lasso_100_300_s3": (
        lambda: _reference("lasso", 100, 300, 3),
        "de4b008923ac7c307e8f6a3e456c0cccb15bea32861dae84a30bec1be8a5b381"),
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


def _svm_scalar_loop(X, y, lam, gap_tol_rel=1e-9, max_epochs=4000):
    """The per-coordinate dual ascent the block scan must match bit for bit."""
    n, d = X.shape
    rows = list(X)
    labels = y.tolist()
    sq = ((X**2).sum(axis=1) / (lam * n)).tolist()
    alpha = [0.0] * n
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


SVM_CASES = {
    "n_below_chunk": (10, CHUNK - 24, 3, ()),
    "n_not_a_chunk_multiple": (10, 1000, 1, ()),
    "d20": (20, 5 * CHUNK + 13, 2, ()),
    "d50": (50, 300, 4, ()),
    # sq_i == 0, which make_problem never produces: first, mid-block, a block start, last
    "zero_rows": (10, 3 * CHUNK + 7, 5, (0, CHUNK + 5, 2 * CHUNK, 3 * CHUNK + 6)),
}


@pytest.mark.parametrize("name", list(SVM_CASES))
def test_svm_block_scan_matches_the_scalar_loop(name):
    d, n, seed, zero_rows = SVM_CASES[name]
    X, y, lam = _svm_data(d, n, seed, zero_rows)
    # a zero row keeps αᵢ = 0 and its hinge at 1, so the gap cannot fall
    # below (zero rows)/n: the tolerance sits 1e-9 above that floor
    tol = 1e-9 + len(zero_rows) / n
    want_theta, want_gap = _svm_scalar_loop(X, y, lam, gap_tol_rel=tol)
    theta, gap = _svm_dual_coordinate_ascent(X, y, lam, gap_tol_rel=tol)
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
