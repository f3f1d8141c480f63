import numpy as np
import pytest

from csgd.numkit import (
    RngStream,
    box_muller,
    gaussian,
    norm,
    power_iteration_extreme_eigs,
    power_iteration_top,
)
from csgd.problems import make_problem


# ----------------------------------------------------------------- RngStream


def test_stream_determinism():
    a = RngStream(42, 7).raw(16)
    b = RngStream(42, 7).raw(16)
    assert np.array_equal(a, b)


def test_stream_counter_reconstruction():
    full = RngStream(42, 7).raw(16)
    for cut in (1, 3, 4, 5, 11):
        tail = RngStream(42, 7, counter=cut).raw(16 - cut)
        assert np.array_equal(full[cut:], tail), f"counter={cut}"


def test_stream_counter_tracks_consumption():
    s = RngStream(1, 2)
    s.uniforms(3)
    s.normals(5)  # 2*ceil(5/2) = 6 raw words
    assert s.counter == 3 + 6


def test_distinct_streams_differ():
    a = RngStream(42, 0).raw(8)
    b = RngStream(42, 1).raw(8)
    assert not np.array_equal(a, b)


def test_interleaving_never_shifts_streams():
    # each normals(n) call consumes 2*ceil(n/2) raw words, so a call's output
    # depends only on the stream counter at call time, never on other streams
    s1, s2 = RngStream(5, 1), RngStream(5, 2)
    mixed1, mixed2 = [], []
    for _ in range(4):
        mixed1.append(s1.normals(3))
        mixed2.append(s2.normals(2))
    iso1_vals = [RngStream(5, 1, counter=4 * i).normals(3) for i in range(4)]
    iso2_vals = [RngStream(5, 2, counter=2 * i).normals(2) for i in range(4)]
    assert np.array_equal(np.concatenate(mixed1), np.concatenate(iso1_vals))
    assert np.array_equal(np.concatenate(mixed2), np.concatenate(iso2_vals))


def test_uniforms_in_unit_interval():
    u = RngStream(3).uniforms(1000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_normals_fixed_consumption():
    for n, spent in [(1, 2), (2, 2), (3, 4), (4, 4), (7, 8)]:
        s = RngStream(11, 0)
        z = s.normals(n)
        assert len(z) == n
        assert s.counter == spent


def test_seek_repositions_like_a_fresh_stream():
    s = RngStream(42, 7)
    s.raw(10)
    for counter in (3, 0, 9, 4):
        s.seek(counter)
        assert s.counter == counter
        assert np.array_equal(s.raw(6), RngStream(42, 7, counter=counter).raw(6))


def test_box_muller_block_matches_row_draws():
    # the chunk contract: one decode over a block of rows gives the bits of
    # one normals() call per row
    rows, width = 37, 6
    block = box_muller(RngStream(12, 3).raw(rows * width).reshape(rows, width))
    s = RngStream(12, 3)
    single = np.stack([s.normals(width) for _ in range(rows)])
    assert np.array_equal(block, single)
    odd = RngStream(12, 3).normals(5)
    assert np.array_equal(odd, single[0, :5])


# ------------------------------------------------------------------ gaussian


def test_gaussian_zero_variance_degenerate():
    s = RngStream(1)
    v = gaussian(s, 4, 0.0)
    assert np.array_equal(v, np.zeros(4))
    assert s.counter == 4  # still consumes the fixed budget


def test_gaussian_same_state_identical():
    a = gaussian(RngStream(8, 3), 5, 1.0)
    b = gaussian(RngStream(8, 3), 5, 1.0)
    assert np.array_equal(a, b)


def test_gaussian_negative_variance_rejected():
    with pytest.raises(ValueError):
        gaussian(RngStream(1), 2, [-1.0, 1.0])


def test_gaussian_covariance_moments():
    # Monte-Carlo moment check: 1e5 samples, cov=diag(1,4), within 5%.
    s = RngStream(1234, 0)
    n = 100_000
    xs = np.stack([gaussian(s, 2, [1.0, 4.0]) for _ in range(n // 100)])
    # batch the bulk draws for speed: same stream, same contract
    more = s.normals(2 * (n - n // 100)).reshape(-1, 2) * np.sqrt([1.0, 4.0])
    xs = np.vstack([xs, more])
    cov = np.cov(xs.T)
    assert abs(cov[0, 0] - 1.0) < 0.05
    assert abs(cov[1, 1] - 4.0) < 0.05 * 4.0
    assert abs(cov[0, 1]) < 0.05 * 2.0


# ---------------------------------------------------------------------- norm


@pytest.mark.parametrize("d", [1, 5, 100, 1000])
@pytest.mark.parametrize("scale", [1.0, 0.0, 1e150, 1e-150])
def test_norm_is_np_linalg_norm_bitwise(d, scale):
    v = scale * RngStream(d, 9).normals(d)
    got = norm(v)
    assert type(got) is float
    assert got.hex() == float(np.linalg.norm(v)).hex()


# -------------------------------------------------------------- eigen extremes


def test_power_iteration_diagonal():
    lam_min, lam_max, q = power_iteration_extreme_eigs(np.diag([1.0, 2.0, 3.0]))
    assert lam_min == pytest.approx(1.0, abs=1e-9)
    assert lam_max == pytest.approx(3.0, abs=1e-9)
    assert abs(q[2]) == pytest.approx(1.0, abs=1e-6)


def test_power_iteration_identity_degenerate():
    lam_min, lam_max, q = power_iteration_extreme_eigs(np.eye(4))
    assert lam_min == pytest.approx(1.0, abs=1e-12)
    assert lam_max == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(q) == pytest.approx(1.0, rel=1e-12)


def test_power_iteration_antidiagonal_symmetry_broken():
    # all-ones start vector would be trapped in an invariant subspace here
    M = np.array([[0.0, -1.0], [-1.0, 0.0]])
    lam_min, lam_max, _ = power_iteration_extreme_eigs(M)
    assert lam_min == pytest.approx(-1.0, abs=1e-8)
    assert lam_max == pytest.approx(1.0, abs=1e-8)


def _charpoly_roots(M):
    """Independent oracle: Faddeev-LeVerrier characteristic polynomial roots."""
    d = M.shape[0]
    coeffs = np.zeros(d + 1)
    coeffs[0] = 1.0
    Mk = np.eye(d)
    for k in range(1, d + 1):
        Mk = M @ Mk
        coeffs[k] = -np.trace(Mk) / k
        if k < d:
            Mk += coeffs[k] * np.eye(d)
    return np.sort(np.roots(coeffs).real)


def test_power_iteration_vs_charpoly_roots():
    rng = RngStream(99, 0)
    A = rng.normals(25).reshape(5, 5)
    M = A @ A.T + 0.5 * np.eye(5)  # SPD
    roots = _charpoly_roots(M)
    lam_min, lam_max, q = power_iteration_extreme_eigs(M, tol=1e-12)
    assert lam_min == pytest.approx(roots[0], abs=1e-8)
    assert lam_max == pytest.approx(roots[-1], abs=1e-8)
    # q is an eigenvector for lam_max
    assert np.linalg.norm(M @ q - lam_max * q) < 1e-6


def test_power_iteration_requires_symmetry():
    with pytest.raises(ValueError):
        power_iteration_extreme_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _lasso_gram():
    prob = make_problem("lasso", d=100, n=1000, seed=1)
    X = prob._X
    return 2.0 * X.T @ X / X.shape[0]


def _random_spd():
    A = RngStream(99, 0).normals(25).reshape(5, 5)
    return A @ A.T + 0.5 * np.eye(5)


@pytest.mark.parametrize(
    "make, tol",
    [
        (lambda: np.diag([1.0, 2.0, 3.0]), 1e-10),
        (lambda: np.eye(4), 1e-10),
        (lambda: np.array([[0.0, -1.0], [-1.0, 0.0]]), 1e-10),
        (_random_spd, 1e-12),
        (_lasso_gram, 1e-12),
    ],
    ids=["diagonal", "identity", "antidiagonal", "random_spd", "lasso_gram"],
)
def test_power_iteration_top_matches_extreme_eigs_bitwise(make, tol):
    M = make()
    lam_max, q_max = power_iteration_top(M, tol=tol)
    _, want_lam, want_q = power_iteration_extreme_eigs(M, tol=tol)
    assert float(lam_max).hex() == float(want_lam).hex()
    assert q_max.tobytes() == want_q.tobytes()


def test_power_iteration_top_requires_symmetry():
    with pytest.raises(ValueError):
        power_iteration_top(np.array([[0.0, 1.0], [0.0, 0.0]]))
