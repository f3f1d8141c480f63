import math
import warnings

import numpy as np
import pytest

from csgd.errors import ConfigError
from csgd.numkit import RngStream, box_muller, gaussian, norm, symmetric_eigs
from csgd.oracle import proximity_ratio_quadratic
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
    for n, spent in [(0, 0), (1, 2), (2, 2), (3, 4), (4, 4), (7, 8)]:
        s = RngStream(11, 0)
        z = s.normals(n)
        assert len(z) == n and z.dtype == np.float64
        assert s.counter == spent


def test_seek_repositions_like_a_fresh_stream():
    s = RngStream(42, 7)
    s.raw(10)
    for counter in (3, 0, 9, 4):
        s.seek(counter)
        assert s.counter == counter
        assert np.array_equal(s.raw(6), RngStream(42, 7, counter=counter).raw(6))


@pytest.mark.parametrize("name", ["seed", "stream_id"])
@pytest.mark.parametrize("bad", [1.5, True, "7", -1, 2**64, None])
def test_stream_rejects_a_bad_seed_or_stream_id_with_config_error(name, bad):
    # 1.5 and True gave the stream of 1, "7" that of 7, and -1 that of 2**64 - 1
    args = {"seed": 3, "stream_id": 4, name: bad}
    with pytest.raises(ConfigError, match=name):
        RngStream(**args)


@pytest.mark.parametrize("bad", [-1, 2.0, True, "3", None])
def test_stream_rejects_a_bad_counter_with_config_error(bad):
    with pytest.raises(ConfigError, match="counter"):
        RngStream(3, 4, counter=bad)


@pytest.mark.parametrize("bad", [-5, 1.5, True, "3"])
def test_seek_rejects_a_bad_counter_and_leaves_the_stream_as_it_was(bad):
    # seek(-5) once left counter -5 on a wrapped Philox position, and 1.5,
    # True and "3" became the counters 1, 1 and 3
    s = RngStream(1, 2)
    s.raw(6)
    with pytest.raises(ConfigError, match="counter"):
        s.seek(bad)
    assert s.counter == 6
    assert np.array_equal(s.raw(4), RngStream(1, 2, counter=6).raw(4))


@pytest.mark.parametrize(
    "seed, stream_id", [(0, 0), (2**64 - 1, 2**64 - 1), (np.uint64(5), np.int64(6))])
def test_stream_takes_every_64_bit_seed_and_stream_id(seed, stream_id):
    s = RngStream(seed, stream_id)
    assert (s.seed, s.stream_id) == (int(seed), int(stream_id))
    assert np.array_equal(s.raw(4), RngStream(int(seed), int(stream_id)).raw(4))


@pytest.mark.parametrize(
    "draw, args",
    [("raw", (-3,)), ("uniforms", (-2,)), ("normals", (2.7,)), ("uniforms", (1.5,)),
     ("normals", (-1,)), ("raw", (True,)), ("integers", (3, 2.5)), ("integers", (3, True)),
     ("integers", (3, 0)), ("integers", (-1, 4)), ("integers", (3, 2**64))],
)
def test_stream_draw_rejects_a_bad_count_before_the_counter_moves(draw, args):
    # raw(-3) once moved the counter to -3, normals(2.7) drew 2 words before
    # failing, uniforms(1.5) drew 1, integers(3, 2.5) drew with bound 2 and
    # integers(3, 2**64) drew 3 words before its uint64 bound overflowed
    s = RngStream(42, 7)
    s.raw(5)
    with pytest.raises(ConfigError):
        getattr(s, draw)(*args)
    assert s.counter == 5
    assert np.array_equal(s.raw(4), RngStream(42, 7, counter=5).raw(4))


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


@pytest.mark.parametrize("cov", [[1.0, 1.0, 1.0], [[1.0, 1.0]], [1.0, -0.5]])
def test_gaussian_rejects_a_bad_covariance_with_config_error(cov):
    # a wrong length or shape, and a negative variance, before any draw
    s = RngStream(1)
    with pytest.raises(ConfigError):
        gaussian(s, 2, cov)
    assert s.counter == 0


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


# ------------------------------------------------------------ product forms


def _hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("layout", ["contiguous", "stack_rows", "block_slice"])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 17, 100, 257])
def test_hot_path_product_forms_match_the_operator_bitwise(d, layout):
    # the oracles, the engine and the controllers take a ddot as a.dot(b), a
    # gemv as M.dot(v) and per-row ddots as np.vecdot; each must give the bits
    # of the @ form it replaced, on every layout the hot path hands it
    gen = np.random.default_rng(d)
    reps = 7
    T = gen.standard_normal((reps, d)) * 10.0 ** gen.uniform(-3, 3, (reps, 1))
    if layout == "block_slice":  # the X[:, 0] of a (count, batch, d) decoded block
        X = gen.standard_normal((reps, 3, d))[:, 0]
    else:
        X = gen.standard_normal((reps, d))
    M = gen.standard_normal((d, d))
    if layout == "contiguous":
        xs, ts = [x.copy() for x in X], [t.copy() for t in T]
    else:
        xs, ts = list(X), list(T)

    assert _hexes(x.dot(t) for x, t in zip(xs, ts)) == _hexes(x @ t for x, t in zip(xs, ts))
    for v in xs + ts:
        assert _hexes(M.dot(v)) == _hexes(M @ v)
    assert _hexes(np.vecdot(X, T)) == _hexes(x @ t for x, t in zip(xs, ts))
    theta = ts[0]
    assert _hexes(np.vecdot(X, theta)) == _hexes(x @ theta for x in xs)


# -------------------------------------------------------------- eigen extremes
# The power-iteration tests that still apply keep their names on symmetric_eigs.


def test_power_iteration_diagonal():
    lam_min, lam_max, q = symmetric_eigs(np.diag([1.0, 2.0, 3.0]))
    assert lam_min == pytest.approx(1.0, abs=1e-12)
    assert lam_max == pytest.approx(3.0, abs=1e-12)
    assert q[2] == pytest.approx(1.0, abs=1e-12)  # signed: the largest component is positive


def test_power_iteration_identity_degenerate():
    lam_min, lam_max, q = symmetric_eigs(np.eye(4))
    assert lam_min == pytest.approx(1.0, abs=1e-12)
    assert lam_max == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(q) == pytest.approx(1.0, rel=1e-12)


def test_power_iteration_antidiagonal_symmetry_broken():
    # eigenvalues ±1 on the diagonals (1, -1) and (1, 1), away from the axes
    M = np.array([[0.0, -1.0], [-1.0, 0.0]])
    lam_min, lam_max, q = symmetric_eigs(M)
    assert lam_min == pytest.approx(-1.0, abs=1e-12)
    assert lam_max == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(M @ q - q) < 1e-12


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
    lam_min, lam_max, q = symmetric_eigs(M)
    assert lam_min == pytest.approx(roots[0], abs=1e-12)
    assert lam_max == pytest.approx(roots[-1], abs=1e-12)
    # q is a unit eigenvector for lam_max, its largest-magnitude component positive
    assert np.linalg.norm(M @ q - lam_max * q) < 1e-12
    assert np.linalg.norm(q) == pytest.approx(1.0, rel=1e-12)
    assert q[np.argmax(np.abs(q))] > 0


def test_symmetric_eigs_clustered_bottom():
    # a gap of 1e-4 at the bottom of the spectrum; eigh and eigvalsh are
    # different LAPACK drivers, so they agree to rounding, not bit for bit
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((20, 20)))
    spectrum = np.concatenate([[0.01, 0.0101], np.linspace(0.5, 1.0, 18)])
    H = (Q * spectrum) @ Q.T
    lam_min, lam_max, _ = symmetric_eigs(H)
    want = np.linalg.eigvalsh(H)
    assert lam_min == pytest.approx(want[0], abs=1e-15)
    assert lam_max == pytest.approx(want[-1], abs=1e-15)


def test_power_iteration_requires_symmetry():
    with pytest.raises(ValueError, match="matrix must be symmetric"):
        symmetric_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _lasso_gram():
    prob = make_problem("lasso", d=100, n=1000, seed=1)
    X = prob._X
    return 2.0 * X.T @ X / X.shape[0]


def _random_spd():
    A = RngStream(99, 0).normals(25).reshape(5, 5)
    return A @ A.T + 0.5 * np.eye(5)


@pytest.mark.parametrize(
    "make",
    [
        lambda: np.diag([1.0, 2.0, 3.0]),
        lambda: np.eye(4),
        lambda: np.array([[0.0, -1.0], [-1.0, 0.0]]),
        _random_spd,
        _lasso_gram,
    ],
    ids=["diagonal", "identity", "antidiagonal", "random_spd", "lasso_gram"],
)
def test_power_iteration_top_matches_extreme_eigs_bitwise(make):
    # the top pair is eigh's last eigenpair, bit for bit, signed so that the
    # largest-magnitude component of q_max is positive
    M = make()
    lam_min, lam_max, q_max = symmetric_eigs(M)
    lams, Q = np.linalg.eigh(M)
    want_q = Q[:, -1] if Q[np.argmax(np.abs(Q[:, -1])), -1] > 0 else -Q[:, -1]
    assert float(lam_min).hex() == float(lams[0]).hex()
    assert float(lam_max).hex() == float(lams[-1]).hex()
    assert q_max.tobytes() == want_q.tobytes()


def test_power_iteration_top_requires_symmetry():
    # the top eigenvector of I - γH in proximity_ratio_quadratic goes
    # through the same check
    H = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="matrix must be symmetric"):
        proximity_ratio_quadratic(H, 0.1, np.ones(2), 3)


def test_symmetric_eigs_symmetry_tolerance_is_relative():
    # 1e-12 of max(1, max|Mᵢⱼ|): a 1e-7 asymmetry passes next to 1e6, 1e-5 does not
    M = np.diag([1e6, 1.0])
    M[0, 1] = 1e-7
    assert symmetric_eigs(M)[1] == pytest.approx(1e6)
    M[0, 1] = 1e-5
    with pytest.raises(ValueError, match="matrix must be symmetric"):
        symmetric_eigs(M)


@pytest.mark.parametrize("M, message", [
    (np.ones(3), "expected 2-D matrix"),
    (np.ones((2, 3)), "matrix must be square"),
], ids=["vector", "not_square"])
def test_symmetric_eigs_rejects_a_bad_shape(M, message):
    with pytest.raises(ValueError, match=message):
        symmetric_eigs(M)


@pytest.mark.parametrize("entry, where", [
    (math.nan, (0, 0)), (math.inf, (0, 0)), (-math.inf, (1, 1)), (math.nan, (0, 1)),
], ids=["nan", "inf", "minus_inf", "nan_off_diagonal"])
def test_symmetric_eigs_rejects_a_non_finite_matrix_before_any_arithmetic(entry, where):
    # the symmetry test alone passes a nan (nan > x is False), and inf - inf
    # in it warns
    M = np.diag([1.0, 2.0])
    M[where] = M[where[::-1]] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="matrix must be finite"):
            symmetric_eigs(M)
