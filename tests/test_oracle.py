import math

import numpy as np
import pytest

from csgd.errors import ConfigError, DegenerateDirectionError, HorizonTooShortError
from csgd.numkit import RngStream
from csgd.oracle import (
    contraction_rate,
    dk_closed_form,
    dk_closed_form_series,
    gamma0_bound,
    lemma1_check,
    proximity_ratio_quadratic,
    stationary_error_estimate,
    theorem1_floor,
)
from csgd.problems import make_problem


def _random_spd(seed, d, lo=0.3, hi=1.5):
    rng = RngStream(seed, 0)
    G = rng.normals(d * d).reshape(d, d)
    Q, R = np.linalg.qr(G)
    Q = Q * np.sign(np.diag(R))
    lams = lo + (hi - lo) * rng.uniforms(d)
    return (Q * lams) @ Q.T


# ---------------------------------------------------------- contraction rate


def test_contraction_rate_small_gamma_limit():
    assert contraction_rate(1e-12, 1.0, 2.0) == pytest.approx(1.0, abs=1e-9)


def test_contraction_rate_at_inverse_L():
    # γ = 1/L gives 1 - μ/L
    assert contraction_rate(0.5, 1.0, 2.0) == pytest.approx(1.0 - 0.5)


def test_contraction_rate_arithmetic():
    assert contraction_rate(0.1, 1.0, 2.0) == pytest.approx(0.82)


def test_contraction_rate_domain():
    with pytest.raises(ValueError):
        contraction_rate(1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        contraction_rate(0.0, 1.0, 2.0)


def test_contraction_rate_below_one_and_minimized_at_inv_L():
    L, mu = 3.0, 0.4
    gammas = np.linspace(1e-6, 2.0 / L - 1e-6, 2001)
    vals = [contraction_rate(g, mu, L) for g in gammas]
    assert all(v < 1.0 for v in vals)
    gmin = gammas[int(np.argmin(vals))]
    cell = gammas[1] - gammas[0]
    assert abs(gmin - 1.0 / L) <= cell + 1e-12


# ------------------------------------------------------------ dk closed form


def test_dk_k0_is_norm():
    H = np.diag([0.5, 1.0])
    D0 = np.array([1.0, 2.0])
    assert dk_closed_form(H, 0.3, D0, 0) == pytest.approx(5.0)


def test_dk_isotropic_one_step():
    # H = I, γ = 0.1, ||D0||² = 4 → 0.81 * 4
    D0 = np.array([2.0, 0.0])
    assert dk_closed_form(np.eye(2), 0.1, D0, 1) == pytest.approx(3.24, rel=1e-12)


def test_dk_matches_spectral_brute_force():
    H = _random_spd(7, 5)
    rng = RngStream(8, 1)
    D0 = rng.normals(5)
    gamma = 0.5 / np.linalg.eigvalsh(H).max()
    lams, Q = np.linalg.eigh(H)
    proj = Q.T @ D0
    for k in (1, 3, 20):
        spectral = float(((1.0 - gamma * lams) ** (2 * k) * proj**2).sum())
        assert dk_closed_form(H, gamma, D0, k) == pytest.approx(spectral, rel=1e-10)


def test_dk_gamma_domain():
    H = np.eye(3)
    with pytest.raises(ValueError):
        dk_closed_form(H, 1.5, np.ones(3), 4)


def test_dk_series_matches_single_calls():
    H = _random_spd(3, 4)
    D0 = RngStream(4, 0).normals(4)
    gamma = 0.4 / np.linalg.eigvalsh(H).max()
    ks = [0, 1, 2, 7, 11]
    series = dk_closed_form_series(H, gamma, D0, ks)
    for k, v in zip(ks, series):
        assert dk_closed_form(H, gamma, D0, k) == pytest.approx(v, rel=1e-12)


def test_dk_sandwich_random_instances():
    # (1-γλmax)^{2k} ||D0||² <= value <= (1-γλmin)^{2k} ||D0||², exactly
    for i in range(20):
        H = _random_spd(100 + i, 5)
        lams = np.linalg.eigvalsh(H)
        lam_min, lam_max = lams[0], lams[-1]
        D0 = RngStream(200 + i, 0).normals(5)
        norm0 = float(D0 @ D0)
        for frac in (0.1, 0.5, 0.9):
            gamma = frac / lam_max
            vals = dk_closed_form_series(H, gamma, D0, list(range(0, 1001, 50)))
            for k, v in zip(range(0, 1001, 50), vals):
                assert (1.0 - gamma * lam_max) ** (2 * k) * norm0 <= v
                assert v <= (1.0 - gamma * lam_min) ** (2 * k) * norm0


# --------------------------------------------------------------- lemma1 grid


def test_lemma1_boundary_gamma_zero():
    rep = lemma1_check(1.0, 0.1, grid_size=3)
    # γ = 0 gives both sides equal to 1
    lhs = (1.0 - 0.0 * 0.1) ** rep.k0
    assert lhs == 1.0


def test_lemma1_example_small():
    rep = lemma1_check(1.0, 0.1, grid_size=10_000)
    assert rep.gamma0 == pytest.approx(0.25)
    assert rep.passed, rep


def test_lemma1_example_equal_L_mu():
    rep = lemma1_check(10.0, 10.0, grid_size=10_000)
    assert rep.gamma0 == pytest.approx(0.025)
    assert rep.passed, rep


def test_lemma1_twenty_random_pairs():
    rng = RngStream(55, 0)
    for _ in range(20):
        L = 10.0 ** (3.0 * float(rng.uniforms(1)[0]))  # up to 1e3
        mu = L * float(rng.uniforms(1)[0])
        mu = max(mu, 1e-9 * L)
        rep = lemma1_check(L, mu, grid_size=10_000)
        assert rep.passed, (L, mu, rep.worst_margin)


# ------------------------------------------------------------ theorem1 floor


def test_theorem1_floor_k0():
    assert theorem1_floor(0.01, 1.0, 0.5, 0) == 1.0


def test_theorem1_floor_quarter_L():
    L, mu = 2.0, 0.3
    gamma = 1.0 / (4.0 * L)
    val = theorem1_floor(gamma, L, mu, 1)
    assert val == pytest.approx(0.5 + mu**2 / (16 * L**2))
    assert val > 0.5


def test_theorem1_floor_domain():
    with pytest.raises(ValueError):
        theorem1_floor(1.0, 1.0, 0.1, 3)  # above gamma0


def test_theorem1_chain_inequality_grid():
    # ϱ^k >= (1-γμ)^{k·τ} with τ = 4L/μ over a grid: the proof's chaining
    for L, mu in [(1.0, 0.1), (5.0, 2.0), (100.0, 1.0)]:
        tau = 4.0 * L / mu
        g0 = gamma0_bound(L, mu)
        for gamma in np.linspace(g0 / 50, g0, 25):
            for k in (1, 2, 5, 17, 60):
                floor = theorem1_floor(gamma, L, mu, k)
                assert floor >= (1.0 - gamma * mu) ** (k * tau) - 1e-15


# ------------------------------------------------------------ proximity ratio


def test_proximity_ratio_eigen_direction():
    H = np.diag([0.2, 0.7, 1.0])
    gamma = 0.5  # I-γH has top eigenvalue 0.9 at e1 (λ_min(H)=0.2)
    D0 = np.array([1.0, 0.0, 0.0])
    for k in (1, 4, 9):
        ratio = proximity_ratio_quadratic(H, gamma, D0, k)
        assert ratio == pytest.approx((1.0 - gamma * 0.2) ** (2 * k), rel=1e-9)


def test_proximity_ratio_orthogonal_rejected():
    H = np.diag([0.2, 0.7, 1.0])
    D0 = np.array([0.0, 1.0, 0.0])  # orthogonal to e1
    with pytest.raises(DegenerateDirectionError):
        proximity_ratio_quadratic(H, 0.5, D0, 3)


def test_proximity_ratio_lower_bound_random():
    for i in range(10):
        H = _random_spd(300 + i, 4)
        lam_min = float(np.linalg.eigvalsh(H)[0])
        lam_max = float(np.linalg.eigvalsh(H)[-1])
        gamma = 0.4 / lam_max
        D0 = RngStream(400 + i, 0).normals(4)
        for k in (1, 5, 20):
            ratio = proximity_ratio_quadratic(H, gamma, D0, k)
            assert ratio >= (1.0 - gamma * lam_min) ** (2 * k) - 1e-12


# ------------------------------------------------------- stationary estimate


def test_stationary_zero_noise_quadratic():
    prob = make_problem("quadratic", d=3, seed=1, H=0.5 * np.eye(3), noise_diag=0.0)
    est = stationary_error_estimate(prob, gamma=0.1, horizon=2000, reps=3, seed=9)
    assert est.mean < 1e-12


def test_stationary_matches_ar1_closed_form():
    h, c = 1.0, 0.5
    d = 4
    prob = make_problem(
        "quadratic", d=d, seed=2, H=h * np.eye(d), noise_diag=np.full(d, c**2)
    )
    gamma = 0.01 / h
    est = stationary_error_estimate(prob, gamma, horizon=20_000, reps=10, seed=11)
    exact = d * gamma * c**2 / (2 * h - gamma * h**2)
    assert abs(est.mean - exact) <= est.ci_halfwidth, (est.mean, exact, est.ci_halfwidth)


def _stationary_error_closed_form(H, noise_cov, gamma):
    """E||θ - θ*||² = tr C for constant-step SGD on ½θᵀHθ with additive noise.

    C = (I - γH)C(I - γH) + γ²Σ; in H's eigenbasis (H = QΛQᵀ, Σ̃ = QᵀΣQ)
    each entry solves alone: C̃ᵢⱼ = γ²Σ̃ᵢⱼ / (1 - (1 - γλᵢ)(1 - γλⱼ)).
    """
    lams, Q = np.linalg.eigh(H)
    contract = 1.0 - gamma * lams
    C_tilde = gamma**2 * (Q.T @ noise_cov @ Q) / (1.0 - np.outer(contract, contract))
    return float(np.trace(C_tilde))


def test_stationary_closed_form_reduces_to_the_ar1_formula():
    h, c, d, gamma = 1.0, 0.5, 4, 0.01
    got = _stationary_error_closed_form(h * np.eye(d), c**2 * np.eye(d), gamma)
    assert got == pytest.approx(d * gamma * c**2 / (2 * h - gamma * h**2), rel=1e-12)


def test_stationary_matches_closed_form_on_a_random_h():
    prob = make_problem("quadratic", d=5, seed=1)
    gamma = prob.default_gamma0()
    est = stationary_error_estimate(prob, gamma, horizon=20_000, reps=10, seed=11)
    exact = _stationary_error_closed_form(prob.H, np.diag(prob.noise_diag), gamma)
    assert abs(est.mean - exact) <= est.ci_halfwidth, (est.mean, exact, est.ci_halfwidth)


def test_stationary_horizon_guard():
    prob = make_problem("quadratic", d=2, seed=3, H=np.eye(2))
    with pytest.raises(HorizonTooShortError):
        stationary_error_estimate(prob, gamma=1e-4, horizon=100, reps=2)


@pytest.mark.parametrize("tail_frac", [0.0, 1.0, -0.5, 1.5, math.nan, 1e-17])
def test_stationary_rejects_a_tail_frac_that_leaves_no_tail(tail_frac):
    # tail_frac=0 used to leave every tail empty and report a mean of 0.0;
    # 1e-17 rounds to the same empty tail
    prob = make_problem("quadratic", d=5, seed=4)
    with pytest.raises(ValueError, match="tail_frac"):
        stationary_error_estimate(prob, prob.default_gamma0(), horizon=2000,
                                  tail_frac=tail_frac, reps=2)


@pytest.mark.parametrize("reps", [0, -1, 2.5, "3", True, None])
def test_stationary_rejects_a_bad_reps_with_config_error(reps):
    # 2.5 and "3" raised a bare TypeError from range, True ran one chain, and 0
    # failed inside run_replicates with a message that did not name reps
    prob = make_problem("quadratic", d=5, seed=4)
    with pytest.raises(ConfigError, match="reps"):
        stationary_error_estimate(prob, prob.default_gamma0(), horizon=2000, reps=reps)


@pytest.mark.parametrize("seed", [-1, 1.5, "abc", True, None])
def test_stationary_rejects_a_bad_seed_with_config_error(seed):
    # 1.5 and True ran the chains of seed 1, and -1 those of seed 2**64 - 1
    prob = make_problem("quadratic", d=5, seed=4)
    with pytest.raises(ConfigError, match="seed"):
        stationary_error_estimate(prob, prob.default_gamma0(), horizon=2000, reps=2, seed=seed)
