"""The shared Gegenbauer recurrence kernel, the FFT projection and the
cosine-series kernel, against plain references."""

import numpy as np
import pytest
from centroid_sections import spherical_core as sc

from oracles import SEED, angle_reduction_error, gegenbauer_series_plain

LD = np.longdouble


@pytest.mark.parametrize("dtype", [np.float64, LD])
@pytest.mark.parametrize("shape", [(), (1,), (16383,), (16384,), (16385,),
                                   (3, 8193)])
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
    # a declared parity samples f on the nonnegative nodes of the mirrored
    # rule and mirrors the values (the middle node of an even order
    # counts once); the projection of the same f sampled at every node,
    # parity undeclared, is the reference.  Its other-parity coefficients
    # are the rule's rounding alone
    def f(u):
        u = np.asarray(u)
        g = np.exp(-3.0 * u * u) + 0.5 * u ** 4
        return g if parity == "even" else u * g

    max_degree = 200
    full = sc.expand(f, 5, max_degree, order=order, parity="mixed").coeffs
    got = sc.expand(f, 5, max_degree, order=order, parity=parity).coeffs
    wrong = slice(1 if parity == "even" else 0, None, 2)
    assert np.all(got[wrong] == 0)
    keep = slice(0 if parity == "even" else 1, None, 2)
    scale = float(np.max(np.abs(full)))
    assert float(np.max(np.abs(got[keep] - full[keep]))) <= 1e-17 * scale
    assert float(np.max(np.abs(full[wrong]))) <= 1e-17 * scale


@pytest.mark.parametrize("order", [256, 257])
@pytest.mark.parametrize("n", [5, 6])
def test_expansion_matches_plain_recurrence_projection(n, order):
    # the FFT projection against sum_i w_i f(u_i) C_m(u_i) / h_m on the
    # same rule, C_m by the plain three-term recurrence in longdouble and
    # h_m from scipy's gamma function, at every degree up to 200
    from scipy.special import gammaln

    def f(u):
        u = np.asarray(u)
        return np.exp(-3.0 * u * u) + 0.5 * u ** 3

    max_degree, lam = 200, (n - 2) / 2
    q = sc._uniform_rule(order, (n - 3) / 2)
    fw = f(q.nodes) * q.weights
    m = np.arange(max_degree + 1)
    h = np.exp(np.log(np.pi) + (1 - 2 * lam) * np.log(2) + gammaln(m + 2 * lam)
               - gammaln(m + 1) - 2 * gammaln(lam) - np.log(m + lam))
    want = np.empty(max_degree + 1)
    for k in m:
        unit = np.zeros(k + 1)
        unit[k] = 1.0
        want[k] = float(fw @ gegenbauer_series_plain(unit, lam, q.nodes, LD))
    want /= h
    got = sc.expand(f, n, max_degree, order=order).coeffs
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


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
