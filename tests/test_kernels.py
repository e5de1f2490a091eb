"""The shared Gegenbauer recurrence kernel and the one-step Gauss-Jacobi
rule, against plain references."""

import numpy as np
import pytest
from scipy.special import roots_jacobi

from centroid_sections import (ConstructionError, gauss_jacobi,
                               spherical_core as sc)

from oracles import (SEED, angle_reduction_error, gauss_jacobi_full_newton,
                     gegenbauer_series_plain, weight_moment)

LD = np.longdouble
B = sc._BLOCK


@pytest.mark.parametrize("dtype", [np.float64, LD])
@pytest.mark.parametrize("shape", [(), (1,), (B - 1,), (B,), (B + 1,),
                                   (3, B // 2 + 1)])
@pytest.mark.parametrize("max_degree", [0, 1, 2, 7])
def test_accumulate_matches_plain_recurrence_bitwise(dtype, shape,
                                                     max_degree):
    rng = np.random.default_rng(SEED)
    coeffs = rng.standard_normal(max_degree + 1).astype(dtype)
    coeffs[3::4] = 0.0
    u = rng.uniform(-1.0, 1.0, shape)
    want = gegenbauer_series_plain(coeffs, 1.5, u, dtype)
    got = sc._rolling_accumulate(coeffs, 1.5, u)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_projection_matches_plain_recurrence_bitwise():
    rng = np.random.default_rng(SEED)
    u = rng.uniform(-1.0, 1.0, 300).astype(LD)
    fw = rng.standard_normal(300).astype(LD)
    max_degree = 40
    norms = sc._norm_ratios(1.5, max_degree)
    want = [fw.sum() / norms[0]]
    for m in range(1, max_degree + 1):
        unit = np.zeros(m + 1)
        unit[m] = 1.0
        want.append((fw @ gegenbauer_series_plain(unit, 1.5, u, LD))
                    / norms[m])
    got = sc._project_onto_basis(fw, 1.5, u, max_degree, norms)
    assert np.array_equal(got, np.array(want, dtype=LD))


@pytest.mark.parametrize("order,beta", [(3392, 1.0), (1728, 0.5)])
def test_one_step_quadrature_at_shipped_orders(order, beta):
    q = gauss_jacobi(order, beta)
    x, w = q.nodes, q.weights
    assert x.dtype == LD and w.dtype == LD
    assert np.all(np.diff(x) > 0)
    assert x[0] > -1.0 and x[-1] < 1.0
    assert np.all(w > 0)

    # a further Newton step, with C_Q' = 2 lam C_{Q-1}^{lam+1} rather than
    # the package's (1 - x^2) C_Q' identity, leaves the nodes in place.
    # The recurrence's rounding noise is absolute, so nodes nearer 0 than
    # 1/2 are held to the ulp of 1/2 instead of their own finer one.
    lam = beta + 0.5
    unit = np.zeros(order + 1)
    unit[order] = 1.0
    cq = gegenbauer_series_plain(unit, lam, x, LD)
    dcq = 2 * LD(lam) * gegenbauer_series_plain(unit[1:], lam + 1, x, LD)
    ulp = np.spacing(np.maximum(np.abs(x), LD(0.5)))
    assert np.all(np.abs(cq / dcq) <= 4 * ulp)

    for j in range(65):  # even moments up to degree 128
        exact = weight_moment(j, beta)
        got = float(w @ x ** (2 * j))
        assert abs(got - exact) <= 1e-14 * exact


def _full_start(order, beta):
    """The package's float64 start, mirrored onto all order nodes."""
    half = sc._gauss_jacobi_start(order, beta)
    return np.concatenate([-half[order % 2:][::-1], half])


@pytest.mark.parametrize("order,beta", [(96, 0.0), (256, 1.0), (257, 1.0),
                                        (1728, 0.5), (1729, 0.5),
                                        (3392, 1.0), (3392, 1.5)])
def test_float64_start_within_two_ulp_of_scipy(order, beta):
    # scipy's Golub-Welsch roots as the oracle; the recurrence's rounding
    # noise is absolute, so nodes nearer 0 than 1/2 are held to the ulp of
    # 1/2 instead of their own finer one
    ref = np.sort(roots_jacobi(order, beta, beta)[0])
    x = _full_start(order, beta)
    assert x.dtype == np.float64 and x.shape == (order,)
    assert np.array_equal(x, -x[::-1])
    if order % 2:
        assert x[order // 2] == 0.0
    ulp = np.spacing(np.maximum(np.abs(ref), 0.5))
    assert np.all(np.abs(x - ref) <= 2 * ulp)


def test_newton_start_outside_basin_raises(monkeypatch):
    x = sc._gauss_jacobi_start(64, 1.0)
    monkeypatch.setattr(sc, "_gauss_jacobi_start",
                        lambda order, beta: x + 1e-9)
    with pytest.raises(ConstructionError, match="Newton basin"):
        sc._gauss_jacobi_cached.__wrapped__(64, 1.0)


def test_float64_start_iteration_cap_raises(monkeypatch):
    # the guess for beta = 1 needs three Newton steps at order 64
    monkeypatch.setattr(sc, "_START_MAX_ITER", 1)
    with pytest.raises(ConstructionError, match="did not converge"):
        sc._gauss_jacobi_start(64, 1.0)


def test_float64_start_merged_nodes_raise(monkeypatch):
    # a float64 function whose only root is 0.5 pulls every guess there:
    # Newton converges, but the nodes do not separate
    real = sc._top_pair

    def one_root(lam, x, order):
        if x.dtype != np.float64:
            return real(lam, x, order)
        return x - 0.5, None, np.ones_like(x)

    monkeypatch.setattr(sc, "_top_pair", one_root)
    with pytest.raises(ConstructionError, match="does not separate"):
        sc._gauss_jacobi_start(64, 1.0)


@pytest.mark.parametrize("order,beta", [(3392, 1.0), (3392, 1.5), (1728, 0.5),
                                        (1728, 1.0), (256, 1.0), (257, 1.0),
                                        (1729, 0.5)])
def test_mirrored_half_step_bit_equal_to_full_node_step(order, beta):
    x, w = gauss_jacobi_full_newton(order, beta, _full_start(order, beta))
    q = gauss_jacobi(order, beta)
    assert np.array_equal(q.nodes, x)
    assert np.array_equal(q.weights, w)


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("shape", [(1000,), (37, 41)])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_folded_series_bit_equal_to_direct_sum(parity, shape, k):
    # an even or odd series is summed once per |u| and mirrored; on random
    # u that are not symmetric, with some exact mirror pairs and signed
    # zeros mixed in, that must change no bit
    rng = np.random.default_rng(SEED)
    coeffs = rng.standard_normal(301)
    coeffs[slice(1 if parity == "even" else 0, None, 2)] = 0.0
    spec = sc.GegenbauerSpectrum(n=5, lambda_index=1.5, coeffs=coeffs,
                                 parity=parity)
    u = rng.uniform(-1.0, 1.0, shape)
    u.flat[:50] = -u.flat[50:100]
    u.flat[100:102] = 0.0, -0.0
    pref = np.prod([2 * (1.5 + j) for j in range(k)])
    want = pref * sc._rolling_accumulate(coeffs[k:], 1.5 + k, u)
    got = sc.eval_spectrum_deriv(spec, u, k)
    assert got.shape == u.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("order", [256, 257])
def test_folded_projection_matches_full_node_projection(parity, order):
    # a declared parity projects on the nonnegative half of the symmetric
    # rule with doubled weights (the middle node of an odd order counts
    # once); the full-node projection is the reference
    def f(u):
        u = np.asarray(u)
        g = np.exp(-3.0 * u * u) + 0.5 * u ** 4
        return g if parity == "even" else u * g

    max_degree = 200
    q = gauss_jacobi(order, 1.0)
    norms = sc._norm_ratios(1.5, max_degree)
    full = sc._project_onto_basis(f(q.nodes) * q.weights, 1.5, q.nodes,
                                  max_degree, norms)
    got = sc.expand(f, 5, max_degree, order=order, parity=parity).coeffs
    wrong = slice(1 if parity == "even" else 0, None, 2)
    assert np.all(got[wrong] == 0)
    keep = slice(0 if parity == "even" else 1, None, 2)
    scale = float(np.max(np.abs(full)))
    assert float(np.max(np.abs(got[keep] - full[keep]))) <= 1e-17 * scale
    assert float(np.max(np.abs(full[wrong]))) <= 1e-17 * scale


def _cosine_series(parity, size=3200):
    # a decaying random cosine series of one parity
    rng = np.random.default_rng(SEED)
    d = rng.standard_normal(size) * np.exp(-np.arange(size) / 400.0)
    d[slice(1 if parity == "even" else 0, None, 2)] = 0.0
    return d


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 129, 3200])
def test_cosine_sum_matches_direct_longdouble_sum(parity, size):
    # block angle addition against sum d_m cos(m theta) term by term in
    # longdouble, theta = arccos |u|, for series lengths around the block
    d = _cosine_series(parity, size)
    rng = np.random.default_rng(SEED)
    u = np.concatenate([rng.uniform(-1.0, 1.0, 200), [-1.0, 1.0, 0.5]])
    theta = np.arccos(np.abs(u).astype(LD))
    want = np.cos(np.outer(theta, np.arange(size, dtype=LD))) @ d.astype(LD)
    if parity == "odd":
        want = np.sign(u) * want
    got = sc._cosine_sum(d, u, parity)
    assert got.shape == u.shape and got.dtype == np.float64
    assert np.max(np.abs(got - want)) <= 1e-15 * np.sum(np.abs(d))


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_cosine_sum_exact_parity_and_zero(parity):
    # folded: an even series is the same at -u and u, an odd one negated,
    # bit for bit, and an odd one is exactly 0 at u = 0 and u = -0
    d = _cosine_series(parity)
    rng = np.random.default_rng(SEED)
    u = rng.uniform(0.0, 1.0, (37, 41))
    u.flat[:3] = 0.0, 1.0, 5e-324
    pos = sc._cosine_sum(d, u, parity)
    neg = sc._cosine_sum(d, -u, parity)
    assert np.array_equal(neg, pos if parity == "even" else -pos)
    if parity == "odd":
        zero = sc._cosine_sum(d, np.array([0.0, -0.0]), parity)
        assert np.array_equal(zero, [0.0, 0.0])
        assert not np.any(np.signbit(zero))
    # the unused entries are not read
    other = d.copy()
    other[slice(1 if parity == "even" else 0, None, 2)] = np.nan
    assert np.array_equal(sc._cosine_sum(other, u, parity), pos)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_cosine_sum_same_bits_however_batched(parity):
    # a grid of more points than one chunk holds, against each point in a
    # call of its own and against a shuffled grid: the summation order of
    # each point is fixed by the kernel, not by its neighbours
    d = _cosine_series(parity)
    u = np.linspace(-1.0, 1.0, 1441)
    got = sc._cosine_sum(d, u, parity)
    one = np.array([sc._cosine_sum(d, u[i:i + 1], parity)[0]
                    for i in range(u.size)])
    assert np.array_equal(got, one)
    perm = np.random.default_rng(SEED).permutation(u.size)
    assert np.array_equal(sc._cosine_sum(d, u[perm], parity), got[perm])
    assert sc._cosine_sum(d, np.array(0.3), parity).shape == ()


def _reduction_points():
    # |u| of the sweep's grids, linspace and mirrored, 1 - 10^-k, 0 and 1
    from centroid_sections.counterexample import _mirrored_grid
    grids = [g(size) for size in (361, 721, 1441)
             for g in (lambda k: np.linspace(-1.0, 1.0, k), _mirrored_grid)]
    near = 1.0 - 10.0 ** -np.arange(1, 17)
    return np.unique(np.abs(np.concatenate([*grids, near, [0.0, 1.0]])))


def _low_bits(x):
    # the 13 low significand bits of float64 values, 0 for 40-bit values
    return np.asarray(x, dtype=np.float64).view(np.uint64) & np.uint64(
        sc._MAX_DEGREE - 1)


def test_theta_split_is_exact():
    # theta_hi has 40 significant bits and theta_hi + theta_lo is the
    # longdouble arccos exactly; so has 2 pi's high part, and the two
    # parts of 2 pi sum to it within 1e-28
    import mpmath
    a = _reduction_points()
    hi, lo = sc._split_theta(a)
    assert np.all(_low_bits(hi) == 0)
    assert np.array_equal(hi.astype(LD) + lo.astype(LD),
                          np.arccos(a.astype(LD)))
    assert _low_bits(sc._TWO_PI_HI) == 0
    with mpmath.workdps(50):
        rest = 2 * mpmath.pi - mpmath.mpf(sc._TWO_PI_HI) - sc._TWO_PI_LO
        assert abs(rest) < 1e-28


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_reduced_angles_within_half_ulp_of_pi(parity, monkeypatch):
    # every angle the kernel forms for a series of the shipped length, at
    # the sweep grids' |u|, 1 - 10^-k, 0 and 1, against k theta mod 2 pi
    # in exact arithmetic: one rounding, so within half an ulp of pi, and
    # in [-pi, pi] up to that rounding
    seen = []
    real = sc._reduced_angles

    def record(hi, lo, k):
        out = real(hi, lo, k)
        seen.append((hi, lo, k, out))
        return out

    monkeypatch.setattr(sc, "_reduced_angles", record)
    d = _cosine_series(parity, 3201)
    sc._cosine_sum(d, _reduction_points(), parity)
    ulp_pi = np.spacing(np.pi)
    k_all = set()
    for hi, lo, k, out in seen:
        assert np.all(np.abs(out) <= np.pi + ulp_pi)
        err = angle_reduction_error(hi, lo, k, out)
        assert err <= 0.5 * ulp_pi * (1 + 1e-6)
        k_all.update(k.tolist())
    assert max(k_all) == 2 * sc._COS_BLOCK * 25 + (parity == "odd")


def test_reduced_angles_every_degree_below_the_bound():
    # all k < 8192, where k theta_hi stays exact, at points whose angles
    # wrap many times, and at theta just above pi / k for the largest k
    a = np.concatenate([[0.0, 0.3, 1.0 - 1e-3, 1.0 - 1e-9],
                        np.cos([np.pi / 8191 * (1 + 1e-12)])])
    hi, lo = sc._split_theta(a)
    k = np.arange(sc._MAX_DEGREE, dtype=np.float64)
    out = sc._reduced_angles(hi[:, None], lo[:, None], k)
    err = angle_reduction_error(hi[:, None], lo[:, None], k, out)
    assert err <= 0.5 * np.spacing(np.pi) * (1 + 1e-6)


def test_cosine_sum_refuses_degrees_beyond_exact_reduction():
    # 8128 terms form outer degrees up to 8064; 8129 would need 8192
    assert np.isfinite(sc._cosine_sum(np.ones(8128), np.array([0.5]), "even"))
    with pytest.raises(ValueError, match="exactly below degree 8192"):
        sc._cosine_sum(np.ones(8129), np.array([0.5]), "even")
