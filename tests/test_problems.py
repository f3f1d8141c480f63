import math
from dataclasses import is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csgd.errors import ConfigError
from csgd.numkit import RngStream, box_muller, uniforms_from
from csgd.problems import (
    Lasso,
    LeastSquares,
    LinearStochasticApprox,
    LogisticRegression,
    QuadraticSemiStochastic,
    Svm,
    UniformlyConvex,
    _sigmoid,
    _sigmoid_scalar,
    make_problem,
    token_columns,
    token_rows,
)


# ---------------------------------------------------------------- make_problem


def test_make_problem_least_squares_constants():
    prob = make_problem("least_squares", d=5, n=2000, seed=1)
    # R² is the trace of the input covariance: Σ 1/j
    assert prob.R_sq == pytest.approx(sum(1.0 / j for j in range(1, 6)))
    assert prob.L == pytest.approx(1.0)
    assert prob.mu == pytest.approx(0.2)


def test_make_problem_svm_mu_is_lambda():
    prob = make_problem("svm", d=20, n=500, seed=2, lam_reg=0.1)
    assert prob.mu == 0.1


def test_make_problem_lasso_exact_sparsity():
    prob = make_problem("lasso", d=100, n=300, seed=3, sparsity=60, lam_reg=1e-4)
    assert int(np.count_nonzero(prob.theta_sparse)) == 60


_NAN, _INF = math.nan, math.inf
_ASYMMETRIC = np.array([[1.0, 0.5], [0.0, 1.0]])

# (kind, make_problem arguments, text the ConfigError must contain)
BAD_ARGUMENTS = {
    "unknown_kind": ("nope", dict(d=3), "unknown problem kind"),
    "unhashable_kind": (["quadratic"], dict(d=3), "unknown problem kind"),
    "svm_without_data": ("svm", dict(d=5, n=0), "finite dataset"),
    # the settings that are constants now
    "logistic_h_diag": ("logistic", dict(d=2, h_diag=np.ones(2)), "bad overrides"),
    "logistic_theta_planted": ("logistic", dict(d=2, theta_planted=np.ones(2)), "bad overrides"),
    "least_squares_h_diag": ("least_squares", dict(d=2, h_diag=np.ones(2)), "bad overrides"),
    "least_squares_theta_planted": (
        "least_squares", dict(d=2, theta_planted=np.ones(2)), "bad overrides"),
    "lasso_h_diag": ("lasso", dict(d=2, n=10, sparsity=1, h_diag=np.ones(2)), "bad overrides"),
    "lasso_noise_sigma": ("lasso", dict(d=2, n=10, sparsity=1, noise_sigma=1.0),
                          "bad overrides"),
    "svm_sigma_input": ("svm", dict(d=2, n=10, sigma_input=1.0), "bad overrides"),
    "uniformly_convex_ball_radius": ("uniformly_convex", dict(d=2, ball_radius=4.0),
                                     "bad overrides"),
    "quadratic_a": ("quadratic", dict(d=2, a=np.zeros(2)), "bad overrides"),
    "quadratic_c": ("quadratic", dict(d=2, c=0.0), "bad overrides"),
    "lsa_perturb_scale": ("lsa", dict(d=2, perturb_scale=0.5), "bad overrides"),
    # sizes
    "d_zero": ("quadratic", dict(d=0), "d must be an integer >= 1"),
    "d_fraction": ("uniformly_convex", dict(d=2.5), "d must be an integer >= 1"),
    "d_fraction_glm": ("logistic", dict(d=2.5), "d must be an integer >= 1"),
    "n_negative": ("least_squares", dict(d=2, n=-1), "n must be an integer >= 0"),
    "n_fraction": ("svm", dict(d=2, n=10.5), "n must be an integer >= 0"),
    "lsa_no_states": ("lsa", dict(d=2, n_states=0), "n_states"),
    "lsa_fraction_states": ("lsa", dict(d=2, n_states=2.5), "n_states"),
    "lasso_sparsity_above_d": ("lasso", dict(d=10, n=100, sparsity=60), "sparsity"),
    "lasso_fraction_sparsity": ("lasso", dict(d=4, n=10, sparsity=2.5), "sparsity"),
    "lasso_bool_sparsity": ("lasso", dict(d=4, n=10, sparsity=True), "sparsity"),
    # data shape: lasso and svm need a data set, the population kinds take none
    "lasso_streaming": ("lasso", dict(d=5, n=0), "finite dataset"),
    "uniformly_convex_dataset": ("uniformly_convex", dict(d=5, n=10), "streaming-only"),
    "quadratic_dataset": ("quadratic", dict(d=5, n=10), "streaming-only"),
    "lsa_dataset": ("lsa", dict(d=5, n=10), "streaming-only"),
    # seeds: a float or a bool used to build the seed-1 problem, "abc" raised a
    # bare ValueError and None a ConfigError that blamed the overrides
    "seed_fraction": ("quadratic", dict(d=5, seed=1.5), "seed must be an integer >= 0"),
    "seed_bool": ("quadratic", dict(d=5, seed=True), "seed must be an integer >= 0"),
    "seed_string": ("quadratic", dict(d=5, seed="abc"), "seed must be an integer >= 0"),
    "seed_none": ("quadratic", dict(d=5, seed=None), "seed must be an integer >= 0"),
    "seed_negative": ("logistic", dict(d=2, seed=-1), "seed must be an integer >= 0"),
    # real-valued settings
    "lasso_negative_lam_reg": ("lasso", dict(d=4, n=10, sparsity=2, lam_reg=-1.0), "lam_reg"),
    "lasso_nan_lam_reg": ("lasso", dict(d=4, n=10, sparsity=2, lam_reg=_NAN), "lam_reg"),
    "lasso_bool_lam_reg": ("lasso", dict(d=4, n=10, sparsity=2, lam_reg=True), "lam_reg"),
    "svm_zero_lam_reg": ("svm", dict(d=2, n=10, lam_reg=0.0), "lam_reg"),
    "svm_nan_lam_reg": ("svm", dict(d=2, n=10, lam_reg=_NAN), "lam_reg"),
    "svm_inf_lam_reg": ("svm", dict(d=2, n=10, lam_reg=_INF), "lam_reg"),
    "uniformly_convex_p_exp_two": ("uniformly_convex", dict(d=2, p_exp=2.0), "p_exp"),
    "uniformly_convex_nan_p_exp": ("uniformly_convex", dict(d=2, p_exp=_NAN), "p_exp"),
    "uniformly_convex_inf_p_exp": ("uniformly_convex", dict(d=2, p_exp=_INF), "p_exp"),
    "uniformly_convex_huge_p_exp": ("uniformly_convex", dict(d=2, p_exp=1e4), "p_exp"),
    "uniformly_convex_negative_noise": (
        "uniformly_convex", dict(d=2, noise_scale=-1.0), "noise_scale"),
    "uniformly_convex_nan_noise": ("uniformly_convex", dict(d=2, noise_scale=_NAN), "noise_scale"),
    "least_squares_nan_noise": ("least_squares", dict(d=2, noise_sigma=_NAN), "noise_sigma"),
    "least_squares_negative_noise": ("least_squares", dict(d=2, noise_sigma=-1.0), "noise_sigma"),
    "quadratic_nan_noise": ("quadratic", dict(d=2, noise_diag=_NAN), "noise_diag"),
    "quadratic_negative_noise": ("quadratic", dict(d=2, noise_diag=[0.1, -0.1]), "noise_diag"),
    "quadratic_noise_length": ("quadratic", dict(d=2, noise_diag=[0.1, 0.1, 0.1]), "noise_diag"),
    "quadratic_asymmetric_h": ("quadratic", dict(d=2, H=_ASYMMETRIC), "symmetric"),
    "quadratic_nan_h": ("quadratic", dict(d=2, H=np.full((2, 2), _NAN)), "finite"),
    "quadratic_h_shape": ("quadratic", dict(d=2, H=np.eye(3)), "d x d"),
    "quadratic_indefinite_h": ("quadratic", dict(d=2, H=np.diag([1.0, -1.0])), "definite"),
    # values np.asarray cannot convert: a bare ValueError, or "bad overrides" for object()
    "quadratic_string_h": ("quadratic", dict(d=2, H="abc"), "H must be an array of reals"),
    "quadratic_ragged_h": ("quadratic", dict(d=2, H=[[1, 2], [3]]), "H must be an array of reals"),
    "quadratic_object_h": ("quadratic", dict(d=2, H=object()), "H must be an array of reals"),
    "quadratic_string_noise": ("quadratic", dict(d=5, noise_diag=[1, "x", 1, 1, 1]),
                               "noise_diag must be an array of reals"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_make_problem_rejects_bad_overrides(case):
    kind, kwargs, text = BAD_ARGUMENTS[case]
    with pytest.raises(ConfigError, match=text):
        make_problem(kind, **kwargs)


def _or_odd(good):
    """A draw from ``good``, or a NaN, an infinity, a negative, a zero or a fraction."""
    return st.one_of(good, st.sampled_from([_NAN, _INF, -_INF, -1.0, 0.0, 2.5]))


# each kind's overrides, as strategies given d; the good ranges keep each solve
# under about 50 ms
FUZZED_H = {
    "default": lambda d: None,
    "spd": lambda d: np.diag(np.linspace(0.5, 1.0, d)),
    "indefinite": lambda d: np.diag(np.linspace(-1.0, 1.0, d)),
    "asymmetric": lambda d: np.eye(d) + np.triu(np.ones((d, d)), 1),
    "nan": lambda d: np.full((d, d), _NAN),
    "wrong_shape": lambda d: np.eye(d + 1),
}
FUZZED_OVERRIDES = {
    "logistic": {},
    "least_squares": {"noise_sigma": lambda d: _or_odd(st.floats(0.0, 10.0))},
    "svm": {"lam_reg": lambda d: _or_odd(st.floats(0.1, 10.0))},
    "lasso": {"lam_reg": lambda d: _or_odd(st.floats(0.0, 10.0)),
              "sparsity": lambda d: st.one_of(st.integers(-1, d + 1), _or_odd(st.just(1)))},
    "uniformly_convex": {"p_exp": lambda d: _or_odd(st.floats(2.0, 600.0)),
                         "noise_scale": lambda d: _or_odd(st.floats(0.0, 10.0))},
    "quadratic": {
        "H": lambda d: st.sampled_from(sorted(FUZZED_H)).map(lambda name: FUZZED_H[name](d)),
        "noise_diag": lambda d: st.one_of(
            _or_odd(st.floats(0.0, 1.0)),
            st.lists(_or_odd(st.floats(0.0, 1.0)), min_size=d, max_size=d + 1)),
    },
    "lsa": {"n_states": lambda d: st.one_of(st.integers(-1, 6), _or_odd(st.just(1)))},
}


FUZZED_N = {"logistic": [0, 100], "svm": [100], "lasso": [100]}  # the others: [0]


@st.composite
def _problem_arguments(draw):
    """A kind, d, n, and some of the kind's overrides."""
    kind = draw(st.sampled_from(sorted(FUZZED_OVERRIDES)))
    d = draw(st.integers(1, 4))
    n = draw(st.sampled_from(FUZZED_N.get(kind, [0])))
    strategies = FUZZED_OVERRIDES[kind]
    names = draw(st.sets(st.sampled_from(sorted(strategies)))) if strategies else ()
    return kind, d, n, {name: draw(strategies[name](d)) for name in names}


@given(_problem_arguments(), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_fuzzed_overrides_fail_with_config_error_or_build(arguments, seed):
    kind, d, n, overrides = arguments
    try:
        prob = make_problem(kind, d, n, seed, **overrides)
    except ConfigError:
        return
    assert math.isfinite(prob.L) and math.isfinite(prob.mu)
    assert np.isfinite(prob.theta_star).all()


# ------------------------------------------------------------------- logistic


def test_logistic_zero_input_zero_gradient():
    prob = LogisticRegression(d=3, n=0, seed=4)
    g = -prob.direction(np.ones(3), (np.zeros(3), 1.0))
    assert np.array_equal(g, np.zeros(3))


def test_logistic_sigmoid_half_at_origin():
    prob = LogisticRegression(d=3, n=0, seed=4)
    g = -prob.direction(np.zeros(3), (np.array([1.0, 0.0, 0.0]), 1.0))
    assert g == pytest.approx([-0.5, 0.0, 0.0])


def test_logistic_batch_average_linearity():
    prob = LogisticRegression(d=4, n=500, seed=5)
    rng = RngStream(6, 0)
    idx = rng.integers(16, 500)
    theta = rng.normals(4)
    batch_g = -prob.direction(theta, (prob._X[idx], prob._y[idx]))
    singles = np.mean([-prob.direction(theta, (prob._X[i], prob._y[i])) for i in idx], axis=0)
    assert np.allclose(batch_g, singles, atol=1e-14)


def test_logistic_reference_gradient_norm():
    prob = LogisticRegression(d=5, n=20_000, seed=7)
    ref = prob.reference
    g0 = np.linalg.norm(prob.full_grad(np.zeros(5)))
    assert ref.grad_norm <= 1e-8 * max(1.0, g0)


def test_logistic_streaming_reference_is_planted():
    prob = LogisticRegression(d=4, n=0, seed=8)
    assert np.array_equal(prob.theta_star, prob.theta_planted)


# -------------------------------------------------------------- least squares


def test_ls_fixed_point_no_noise():
    prob = LeastSquares(d=3, n=0, seed=9, noise_sigma=0.0)
    x = RngStream(10, 0).normals(3)
    g = -prob.direction(prob.theta_star, (x, float(x @ prob.theta_star)))
    assert np.allclose(g, 0.0, atol=1e-15)


def test_ls_single_sample_direct():
    prob = LeastSquares(d=2, n=0, seed=11)
    g = -prob.direction(np.zeros(2), (np.array([1.0, 0.0]), 2.0))
    assert g == pytest.approx([-2.0, 0.0])


def test_ls_reference_normal_equations():
    prob = LeastSquares(d=5, n=4000, seed=12)
    X, y = prob._X, prob._y
    direct = np.linalg.solve(X.T @ X, X.T @ y)
    assert np.allclose(prob.theta_star, direct, atol=1e-10)


def test_ls_stochastic_grad_mean_matches_population():
    # E over fresh samples ≈ H(θ - θ*) within 3 standard errors
    prob = LeastSquares(d=4, n=0, seed=13)
    rng = RngStream(14, 0)
    theta = np.array([1.0, -0.5, 0.25, 2.0])
    m = 100_000
    X = rng.normals(m * 4).reshape(m, 4) * np.sqrt(prob.h_diag)
    y = X @ prob.theta_planted + prob.noise_sigma * rng.normals(m)
    per = (X @ theta - y)[:, None] * X
    mean = per.mean(axis=0)
    se = per.std(axis=0, ddof=1) / np.sqrt(m)
    target = prob.h_diag * (theta - prob.theta_planted)
    assert np.all(np.abs(mean - target) <= 3.0 * se + 1e-12)


# ------------------------------------------------------------------------ svm


def test_svm_inactive_hinge():
    prob = Svm(d=3, n=200, seed=15, lam_reg=0.1)
    theta = np.array([5.0, 0.0, 0.0])
    x = np.array([1.0, 0.0, 0.0])
    i = 0
    prob._X[i] = x
    prob._y[i] = 1.0  # margin 5 > 1
    g = -prob.direction(theta, (prob._X[i], prob._y[i]))
    assert np.allclose(g, prob.lam_reg * theta)


def test_svm_active_hinge_at_origin():
    prob = Svm(d=3, n=200, seed=15, lam_reg=0.1)
    prob._X[1] = np.array([1.0, 0.0, 0.0])
    prob._y[1] = 1.0
    g = -prob.direction(np.zeros(3), (prob._X[1], prob._y[1]))
    assert g == pytest.approx([-1.0, 0.0, 0.0])


def test_svm_margin_tie_takes_ridge_branch():
    prob = Svm(d=2, n=100, seed=16, lam_reg=0.5)
    prob._X[2] = np.array([1.0, 0.0])
    prob._y[2] = 1.0
    theta = np.array([1.0, 3.0])  # margin exactly 1
    g = -prob.direction(theta, (prob._X[2], prob._y[2]))
    assert np.allclose(g, prob.lam_reg * theta)


def test_svm_subgradient_inequality_full_batch():
    # f(θ') >= f(θ) + <g, θ'-θ> for the empirical objective
    prob = Svm(d=5, n=400, seed=17, lam_reg=0.1)
    rng = RngStream(18, 0)
    for _ in range(200):
        t1 = rng.normals(5)
        t2 = rng.normals(5)
        g = prob.full_grad(t1)
        assert prob.loss(t2) >= prob.loss(t1) + float(g @ (t2 - t1)) - 1e-10


def test_svm_reference_duality_gap():
    prob = Svm(d=6, n=1500, seed=19, lam_reg=0.1)
    ref = prob.reference
    assert ref.grad_norm <= 1e-8  # duality gap


@pytest.mark.parametrize("seed", [4, 7])
def test_svm_reference_converges_on_slow_seeds(seed):
    # dual coordinate ascent alone needed about 2000 and 800 epochs here to
    # reach the 1e-9 gap; the dual FISTA solve reaches its accepted
    # active-set finish after 158 and 215 iterations
    ref = make_problem("svm", d=10, n=200, seed=seed).reference
    assert ref.grad_norm <= 1e-9 * max(1.0, abs(ref.f_star))  # the solver's gap_tol_rel


# ---------------------------------------------------------------------- lasso


def test_lasso_zero_at_kink():
    prob = Lasso(d=3, n=100, seed=20, lam_reg=0.1, sparsity=2)
    prob._X[0] = np.zeros(3)
    prob._y[0] = 0.0
    g = -prob.direction(np.zeros(3), (prob._X[0], prob._y[0]))
    assert np.array_equal(g, np.zeros(3))


def test_lasso_sign_subgradient():
    prob = Lasso(d=2, n=100, seed=21, lam_reg=0.3, sparsity=1)
    theta = np.array([1.0, -1.0])
    prob._X[0] = np.zeros(2)
    prob._y[0] = 0.0  # zero residual contribution
    g = -prob.direction(theta, (prob._X[0], prob._y[0]))
    assert np.allclose(g, 0.3 * np.array([1.0, -1.0]))


def test_lasso_subgradient_inequality_full_batch():
    prob = Lasso(d=6, n=300, seed=22, lam_reg=1e-2, sparsity=3)
    rng = RngStream(23, 0)
    for _ in range(200):
        t1 = rng.normals(6)
        t2 = rng.normals(6)
        g = prob.full_grad(t1)
        assert prob.loss(t2) >= prob.loss(t1) + float(g @ (t2 - t1)) - 1e-10


def test_lasso_reference_prox_residual():
    prob = Lasso(d=20, n=800, seed=24, lam_reg=1e-3, sparsity=5)
    ref = prob.reference
    # optimality: the prox-gradient mapping vanishes at θ*
    assert ref.grad_norm < 1e-8


# ----------------------------------------------------------- uniformly convex


def test_uconvex_zero_gradient_at_origin():
    prob = UniformlyConvex(d=3, seed=25, noise_scale=0.0)
    g = -prob.direction(np.zeros(3), np.zeros(3))
    assert np.array_equal(g, np.zeros(3))


def test_uconvex_unit_vector():
    prob = UniformlyConvex(d=3, seed=26, p_exp=2.5, noise_scale=0.0)
    e1 = np.array([1.0, 0.0, 0.0])
    assert -prob.direction(e1, np.zeros(3)) == pytest.approx(e1)


def test_uconvex_reference_is_origin():
    prob = UniformlyConvex(d=7, seed=29)
    assert np.array_equal(prob.theta_star, np.zeros(7))
    assert prob.f_star == 0.0


# ------------------------------------------------------------------ quadratic


def test_quadratic_identity_hessian():
    prob = QuadraticSemiStochastic(d=3, seed=30, H=np.eye(3), noise_diag=0.0)
    v = np.array([1.0, 2.0, 3.0])
    assert np.allclose(-prob.direction(v, np.zeros(3)), v)


def test_quadratic_coupling_identity():
    # same token at two points differs exactly by H(θ1 - θ2)
    prob = QuadraticSemiStochastic(d=4, seed=31)
    rng = RngStream(32, 0)
    t1, t2 = rng.normals(4), rng.normals(4)
    token = prob.next_token(rng, None)[0]
    diff = prob.direction(t2, token) - prob.direction(t1, token)
    assert np.allclose(diff, prob.H @ (t1 - t2), atol=1e-12)


def test_quadratic_unbiased():
    prob = QuadraticSemiStochastic(d=3, seed=33, noise_diag=0.04)
    rng = RngStream(34, 0)
    theta = np.array([0.3, -0.2, 0.9])
    m = 100_000
    draws = rng.normals(3 * m).reshape(m, 3) * np.sqrt(prob.noise_diag)
    grads = prob.full_grad(theta)[None, :] + draws
    se = grads.std(axis=0, ddof=1) / np.sqrt(m)
    assert np.all(np.abs(grads.mean(axis=0) - prob.full_grad(theta)) <= 3 * se + 1e-12)


def test_quadratic_mu_on_a_clustered_bottom_spectrum():
    # the two smallest eigenvalues 1% apart: μ is the smaller one
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((20, 20)))
    spectrum = np.concatenate([[0.01, 0.0101], np.linspace(0.5, 1.0, 18)])
    prob = make_problem("quadratic", 20, H=(Q * spectrum) @ Q.T)
    assert prob.mu == pytest.approx(0.01, rel=1e-10)
    assert prob.L == pytest.approx(1.0, rel=1e-10)


def test_quadratic_requires_spd():
    with pytest.raises(ConfigError):
        QuadraticSemiStochastic(d=2, seed=35, H=np.diag([1.0, -1.0]))


# ------------------------------------------------------------------------ lsa


@pytest.fixture(scope="module")
def lsa():
    return LinearStochasticApprox(d=5, seed=36)


def test_lsa_fixed_point(lsa):
    # averaged direction vanishes at θ*
    avg = sum(
        lsa.pi_chain[s] * lsa.direction(lsa.theta_star, s)
        for s in range(lsa.n_states)
    )
    assert np.allclose(avg, 0.0, atol=1e-10)


def test_lsa_single_state_chain():
    prob = LinearStochasticApprox(d=3, seed=37, n_states=1)
    # deterministic linear recursion with fixed point -A⁻¹ b
    expected = np.linalg.solve(prob.A_table[0], -prob.b_table[0])
    assert np.allclose(prob.theta_star, expected, atol=1e-10)


def test_lsa_invariants(lsa):
    assert np.abs(lsa.P.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.all(np.linalg.matrix_power(lsa.P, lsa.n_states) > 0)
    sym = 0.5 * (lsa.A_bar + lsa.A_bar.T)
    assert np.linalg.eigvalsh(sym).max() < -0.1
    assert np.linalg.norm(lsa.A_bar @ lsa.theta_star + lsa.b_bar) <= 1e-10


def test_lsa_occupancy_matches_stationary(lsa):
    rng = RngStream(38, 0)
    steps = 1_000_000
    states, _ = lsa.draw_tokens([rng], [lsa.init_sampler(rng)], steps)
    states = token_columns(states, 0)
    counts = np.bincount(states, minlength=lsa.n_states)
    tv = 0.5 * np.abs(counts / steps - lsa.pi_chain).sum()
    assert tv < 0.01, tv


def test_lsa_invalid_state(lsa):
    with pytest.raises(ValueError):
        lsa.direction(np.zeros(5), 99)


# -------------------------------------------------- spot-check property tests


@pytest.mark.parametrize(
    "factory",
    [
        lambda: LeastSquares(d=5, n=0, seed=40),
        lambda: QuadraticSemiStochastic(d=5, seed=41),
        lambda: LogisticRegression(d=5, n=20_000, seed=42),
    ],
    ids=["least_squares", "quadratic", "logistic"],
)
def test_smoothness_spot_check(factory):
    prob = factory()
    L = prob.L
    rng = RngStream(43, 0)
    for _ in range(1000):
        t1 = rng.normals(prob.d)
        t2 = rng.normals(prob.d)
        lhs = np.linalg.norm(prob.full_grad(t1) - prob.full_grad(t2))
        assert lhs <= L * np.linalg.norm(t1 - t2) * (1 + 1e-12)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: LeastSquares(d=5, n=0, seed=44),
        lambda: QuadraticSemiStochastic(d=5, seed=45),
    ],
    ids=["least_squares", "quadratic"],
)
def test_strong_convexity_spot_check(factory):
    prob = factory()
    mu = prob.mu
    assert mu > 0
    rng = RngStream(46, 0)
    for _ in range(1000):
        t1 = rng.normals(prob.d)
        t2 = rng.normals(prob.d)
        gap = prob.full_grad(t1) - prob.full_grad(t2)
        diff = t1 - t2
        assert float(gap @ diff) >= mu * float(diff @ diff) * (1 - 1e-12)


def test_logistic_local_strong_convexity_on_ball():
    prob = LogisticRegression(d=4, n=20_000, seed=47)
    mu = prob.mu
    assert mu > 0
    center = prob.theta_star
    radius = 2.0 * np.linalg.norm(center)
    rng = RngStream(48, 0)
    for _ in range(300):
        u1 = rng.normals(4)
        u2 = rng.normals(4)
        t1 = center + radius * float(rng.uniforms(1)[0]) * u1 / np.linalg.norm(u1)
        t2 = center + radius * float(rng.uniforms(1)[0]) * u2 / np.linalg.norm(u2)
        gap = prob.full_grad(t1) - prob.full_grad(t2)
        diff = t1 - t2
        assert float(gap @ diff) >= mu * float(diff @ diff) * (1 - 1e-10)


def test_unbiasedness_logistic_dataset():
    prob = LogisticRegression(d=4, n=5000, seed=49)
    rng = RngStream(50, 0)
    theta = rng.normals(4)
    m = 100_000
    idx = rng.integers(m, prob.n)
    X, y = prob._X[idx], prob._y[idx]
    from csgd.problems import _sigmoid

    per = (-y * _sigmoid(-y * (X @ theta)))[:, None] * X
    se = per.std(axis=0, ddof=1) / np.sqrt(m)
    full = prob.full_grad(theta)
    assert np.all(np.abs(per.mean(axis=0) - full) <= 4 * se + 1e-12)


@pytest.mark.parametrize(
    "kind, n, extra",
    [("logistic", 0, {}), ("logistic", 300, {}), ("least_squares", 0, {}),
     ("least_squares", 300, {}), ("svm", 300, {}), ("lasso", 300, {"sparsity": 3}),
     ("quadratic", 0, {}), ("uniformly_convex", 0, {})],
    ids=["logistic", "logistic_data", "least_squares", "least_squares_data", "svm", "lasso",
         "quadratic", "uniformly_convex"],
)
def test_full_grad_is_the_gradient_of_loss(kind, n, extra):
    # lsa is left out: its full_grad is the mean field of a map that is not a gradient
    prob = make_problem(kind, d=5, n=n, seed=3, **extra)
    rng = RngStream(61, 0)
    h = 1e-6
    for _ in range(20):
        theta = rng.normals(5)
        # central differences away from the kinks: svm's hinge at margin 1, lasso's θⱼ = 0
        if kind == "svm":
            assert np.abs(1.0 - prob._y * (prob._X @ theta)).min() > 1e-4
        if kind == "lasso":
            assert np.abs(theta).min() > 1e-4
        fd = np.array([(prob.loss(theta + e) - prob.loss(theta - e)) / (2 * h)
                       for e in h * np.eye(5)])
        g = prob.full_grad(theta)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))


@pytest.mark.parametrize(
    "kind, n, extra",
    [("logistic", 300, {}), ("least_squares", 0, {}), ("svm", 300, {}),
     ("lasso", 300, {"sparsity": 3}), ("uniformly_convex", 0, {}), ("quadratic", 0, {}),
     ("lsa", 0, {})],
    ids=["logistic", "least_squares", "svm", "lasso", "uniformly_convex", "quadratic", "lsa"],
)
def test_f_star_is_the_objective_at_theta_star(kind, n, extra):
    # f* is loss(θ*) bit for bit on every kind: on lsa the squared residual
    # of the fixed-point solve, a rounding-sized positive number, not 0
    for seed in range(3):
        prob = make_problem(kind, d=5, n=n, seed=seed, **extra)
        ref = prob.reference
        assert float(ref.f_star).hex() == float(prob.loss(ref.theta_star)).hex()
        if kind in ("uniformly_convex", "quadratic"):  # θ* = 0 in closed form
            assert float(ref.f_star).hex() == (0.0).hex()


def test_noise_sharing_same_token_identical():
    for prob in [
        LeastSquares(d=3, n=0, seed=51),
        LogisticRegression(d=3, n=100, seed=52),
        QuadraticSemiStochastic(d=3, seed=53),
        UniformlyConvex(d=3, seed=54),
    ]:
        rng = RngStream(55, 0)
        token = prob.next_token(rng, None)[0]
        theta = np.array([0.5, -1.0, 0.25])
        g1 = prob.direction(theta, token)
        g2 = prob.direction(theta, token)
        assert np.array_equal(g1, g2), prob.kind


# -------------------------------------------------------------- token plan


def _same_token(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same_token(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and np.array_equal(a, b)
    return type(a) is type(b) and a == b


TOKEN_FACTORIES = {
    "logistic": lambda: LogisticRegression(d=5, n=0, seed=60),
    "logistic_data": lambda: LogisticRegression(d=4, n=30, seed=61),
    "least_squares": lambda: LeastSquares(d=5, n=0, seed=62),
    "least_squares_data": lambda: LeastSquares(d=4, n=30, seed=63),
    "svm": lambda: Svm(d=3, n=30, seed=64),
    "lasso": lambda: Lasso(d=6, n=30, seed=65, sparsity=2),
    "uniformly_convex": lambda: UniformlyConvex(d=3, seed=66),
    "quadratic": lambda: QuadraticSemiStochastic(d=5, seed=67),
    "lsa": lambda: LinearStochasticApprox(d=3, seed=68),
}


@pytest.mark.parametrize(
    "name, batch",
    [(name, batch) for batch in (1, 3) for name in TOKEN_FACTORIES if (name, batch) != ("lsa", 3)],
)
def test_draw_tokens_match_single_draws(name, batch):
    # one block of count * words_per_token words gives the tokens, sampler
    # state and counter of count single draws, bit for bit
    prob = TOKEN_FACTORIES[name]()
    count = 11
    block_rng, single_rng = RngStream(69, 1), RngStream(69, 1)
    state = prob.init_sampler(block_rng)
    assert prob.init_sampler(single_rng) == state
    block, (block_state,) = prob.draw_tokens([block_rng], [state], count, batch)
    block = token_columns(block, 0)
    assert all(len(part) == count for part in (block if isinstance(block, tuple) else (block,)))
    rows = token_rows(block)
    for i in range(count):
        single, state = prob.next_token(single_rng, state, batch)
        assert _same_token(rows[i], single)
    assert block_state == state
    assert block_rng.counter == single_rng.counter
    assert block_rng.counter - (1 if prob.kind == "lsa" else 0) == count * prob.words_per_token(batch)


def _arrays(value):
    """The ndarrays in ``value`` and in its lists, tuples, dicts and dataclasses."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        yield from _arrays(list(value.values()))
    elif is_dataclass(value):
        yield from _arrays(vars(value))


@pytest.mark.parametrize("stacked", [False, True], ids=["rows", "stacked"])
@pytest.mark.parametrize(
    "name, batch",
    [(name, batch) for batch in (1, 3) for name in TOKEN_FACTORIES if (name, batch) != ("lsa", 3)],
)
def test_step_direction_returns_a_fresh_array(name, batch, stacked):
    # the engine and Pflug's observe keep an oracle's result, and a coupled
    # step calls the oracle twice, so each result is a fresh array: it shares
    # no memory with the iterate, the token or any array the problem keeps
    prob = TOKEN_FACTORIES[name]()
    prob.reference  # solved and cached, so θ* is among the arrays kept
    reps = 3
    rng = RngStream(71, 0)
    block, _ = prob.draw_tokens([rng], [prob.init_sampler(rng)], reps, batch)
    block = token_columns(block, 0)
    thetas = RngStream(72, 0).normals(reps * prob.d).reshape(reps, prob.d)
    calls = [(thetas, block)] if stacked else zip(thetas, token_rows(block))
    kept = [thetas, *_arrays(block), *_arrays(vars(prob))]
    assert len(kept) > 2
    for theta, token in calls:
        result = prob.step_direction(theta, token)
        assert not any(np.shares_memory(result, a) for a in kept)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("d", [5, 100])
@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
def test_label_block_matches_scalar_labels(kind, d, batch):
    # the block's streaming labels equal the per-token forms they replace,
    # bit for bit: a scalar x @ θ per sample at batch 1, X @ θ per token above
    prob = make_problem(kind, d=d, seed=d)
    theta = prob.theta_planted
    count, w = 200, prob.words_per_token(batch)
    split = batch * prob._row_words
    for trial in range(5):
        words = RngStream(trial, 70).raw(count * w).reshape(count, w)
        X = prob.decode_tokens(words, batch)[0].reshape(count, batch, d)
        if batch == 1:
            margins = np.array([[float(x @ theta)] for x in X[:, 0]])
        else:
            margins = np.array([Xt @ theta for Xt in X])
        label_words = [words[:, split:]]
        if kind == "least_squares":
            wants = [margins + prob.noise_sigma * box_muller(label_words[0])[:, :batch]]
        else:
            if batch == 1:
                probs = np.array([[_sigmoid_scalar(m)] for m in margins[:, 0].tolist()])
            else:
                probs = np.array([_sigmoid(m) for m in margins])
            # uniforms on the 2**-53 grid at and just below each probability,
            # where a probability one ulp off flips the label
            k = np.maximum(np.floor(probs * 2.0**53), 1.0).astype(np.uint64)
            label_words += [k << np.uint64(11), (k - np.uint64(1)) << np.uint64(11)]
            wants = [np.where(uniforms_from(lw) < probs, 1.0, -1.0) for lw in label_words]
        for lw, want in zip(label_words, wants):
            _, y = prob.decode_tokens(np.hstack([words[:, :split], lw]), batch)
            assert y.shape == ((count,) if batch == 1 else (count, batch))
            assert np.array_equal(y.reshape(count, batch), want)
