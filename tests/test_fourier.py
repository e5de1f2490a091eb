import math

import numpy as np
import pytest
from scipy import special

from centroid_sections import (GegenbauerSpectrum, SphereProfile,
                               bochner_multiplier, eval_spectrum,
                               ft_homogeneous, make_base_body,
                               make_oblate_gap_profile, parseval_residual,
                               sphere_area)

from centroid_sections.spherical_core import _bochner_multipliers_ld
from oracles import (SEED, bochner_multiplier_mp, ft_via_radon,
                     longdouble_to_mpf, mc_sphere_mean, mc_subsphere_integral,
                     radon_subsphere, sphere_integral)

C5 = 16.0 * np.pi ** 2


def _even_profile(n, fn):
    return SphereProfile(n, fn, parity="even")


def _const_profile(n):
    return _even_profile(n, lambda u: np.ones_like(np.asarray(u, float)))


def _as_profile(spec):
    return SphereProfile(spec.n, lambda u: eval_spectrum(spec, u),
                         parity=spec.parity)


def _bandlimited(n, rng, degree=20, parity="even"):
    lam = (n - 2) / 2.0
    m = np.arange(degree + 1)
    coeffs = rng.standard_normal(degree + 1) * np.exp(-0.35 * m)
    coeffs[(m % 2 == 1) if parity == "even" else (m % 2 == 0)] = 0.0
    s = GegenbauerSpectrum(n=n, lambda_index=lam, coeffs=coeffs, parity=parity)
    return SphereProfile(n, lambda u: eval_spectrum(s, u), parity=parity)


# multiplier closed forms


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
def test_multiplier_constant_anchor(n):
    expected = 2.0 ** (n - 1) * np.pi ** ((n - 1) / 2.0) * special.gamma((n - 1) / 2.0)
    got = bochner_multiplier(0, 1, n)
    assert abs(got - expected) <= 1e-12 * expected


def test_multiplier_constant_anchor_value_n5():
    assert abs(bochner_multiplier(0, 1, 5) - C5) <= 1e-12 * C5


def test_multiplier_forced_complement():
    expected = (2.0 * np.pi) ** 5 / C5
    assert abs(expected - 2.0 * np.pi ** 3) <= 1e-12
    got = bochner_multiplier(0, 4, 5)
    assert abs(got - expected) <= 1e-12 * expected


@pytest.mark.parametrize("n", [5, 6, 7, 8])
@pytest.mark.parametrize("p", [1, None])
def test_multiplier_complementary_product(n, p):
    p = n - 1 if p is None else p
    target = (2.0 * np.pi) ** n
    for m in range(0, 42, 2):
        prod = bochner_multiplier(m, p, n) * bochner_multiplier(m, n - p, n)
        assert abs(prod - target) <= 1e-10 * target


def test_multiplier_odd_degree_product():
    # the real-valued convention drops one factor of -i per transform,
    # so complementary odd-degree products also land on +(2 pi)^n
    target = (2.0 * np.pi) ** 5
    for m in (1, 3, 7, 21):
        prod = bochner_multiplier(m, 1, 5) * bochner_multiplier(m, 4, 5)
        assert abs(prod - target) <= 1e-10 * abs(target)


@pytest.mark.parametrize("n", [5, 6, 7, 10])
def test_longdouble_multipliers_match_mpmath(n):
    # the multipliers the bump's 3200 degrees are scaled by, against
    # mpmath at 40 digits; a float64 log magnitude leaves them off by up
    # to 2.6e-12 relative
    degrees = [0, 1, 2, 3, 10, 101, 1000, 3199, 3200]
    want = [bochner_multiplier_mp(m, 1, n) for m in degrees]
    got = _bochner_multipliers_ld(n, 1.0, np.arange(3201))[degrees]
    for w, g in zip(want, got):
        assert abs(longdouble_to_mpf(g) - w) <= 1e-17 * abs(w)


@pytest.mark.parametrize("p", [0.0, -1.0, 5.0, 6.0])
def test_multiplier_degree_out_of_range(p):
    with pytest.raises(ValueError):
        bochner_multiplier(0, p, 5)


# sphere integrals


def test_sphere_integral_constant():
    assert abs(sphere_integral(_const_profile(5), 5) - 8.0 * np.pi ** 2 / 3.0) <= 1e-12


def test_sphere_integral_odd_vanishes():
    f = SphereProfile(5, lambda u: np.asarray(u, float), parity="odd")
    assert abs(sphere_integral(f, 5)) <= 1e-14


def test_sphere_integral_u_squared_with_mc_oracle():
    # oracle first: Monte-Carlo mean of u^2 over the sphere
    mean, sigma = mc_sphere_mean(5, lambda u: u * u, samples=10 ** 6)
    area = sphere_area(4)
    got = sphere_integral(_even_profile(5, lambda u: u * u), 5)
    assert abs(got - area / 5.0) <= 1e-12
    assert abs(got - area * mean) <= 3.0 * area * sigma


# homogeneous transform


def test_ft_constant_profile_gives_constant():
    g = ft_homogeneous(_const_profile(5), 1.0)
    assert g.n == 5 and g.coeffs.dtype == np.longdouble
    u = np.linspace(-1.0, 1.0, 101)
    assert np.max(np.abs(eval_spectrum(g, u) - C5)) <= 1e-10 * C5


@pytest.mark.parametrize("p", [0.0, -1.0, 5.0, 6.0])
def test_ft_degree_out_of_range(p):
    with pytest.raises(ValueError, match="homogeneity degree"):
        ft_homogeneous(_const_profile(5), p)


@pytest.mark.parametrize("b", [0.3, 0.5, 2.0])
def test_ft_ellipsoid_profile_closed_form(b):
    def prof(u):
        u = np.asarray(u, float)
        return (1.0 - u * u + (u / b) ** 2) ** -0.5

    def expected(u):
        u = np.asarray(u, float)
        return C5 * b * (1.0 - u * u + (b * u) ** 2) ** -2.0

    g = ft_homogeneous(_even_profile(5, prof), 1.0)
    u = np.linspace(-1.0, 1.0, 1001)
    ref = expected(u)
    assert np.max(np.abs(eval_spectrum(g, u) - ref) / np.abs(ref)) <= 1e-7


def test_ft_base_profile_matches_attached_closed_form():
    body = make_base_body(5, 0.3)
    g = ft_homogeneous(body.rho, 1.0, max_degree=160)
    u = np.linspace(-1.0, 1.0, 1001)
    ref = body.ft_profile(u)
    assert np.max(np.abs(eval_spectrum(g, u) - ref)
                  / np.max(np.abs(ref))) <= 1e-7
    for pole in (-1.0, 1.0):
        assert abs(eval_spectrum(g, pole) + C5) <= 1e-9 * C5


def test_double_ft_recovers_scaled_original():
    rng = np.random.default_rng(SEED)
    f = _bandlimited(5, rng)
    # degree -1 goes to degree -4, whose transform is at p = 4
    gg = ft_homogeneous(_as_profile(ft_homogeneous(f, 1.0)), 4.0)
    u = np.linspace(-0.99, 0.99, 97)
    ref = (2.0 * np.pi) ** 5 * f(u)
    assert np.max(np.abs(eval_spectrum(gg, u) - ref)
                  / np.max(np.abs(ref))) <= 1e-8


# subsphere averages


@pytest.mark.parametrize("u_xi", [-1.0, -0.4, 0.0, 0.7, 1.0])
def test_radon_constant(u_xi):
    got = radon_subsphere(_const_profile(5), 5, u_xi)
    assert abs(got - 2.0 * np.pi ** 2) <= 1e-12 * 2.0 * np.pi ** 2


def test_radon_odd_vanishes():
    f = SphereProfile(5, lambda u: np.asarray(u, float) ** 3, parity="odd")
    assert abs(radon_subsphere(f, 5, 0.37)) <= 1e-14


def test_radon_u_squared_against_subsphere_mc():
    # oracle first: direct Monte-Carlo over the cut subsphere
    est, sigma = mc_subsphere_integral(5, lambda t: t * t, 0.0, samples=10 ** 6)
    got = radon_subsphere(_even_profile(5, lambda u: u * u), 5, 0.0)
    assert abs(got - est) <= 3.0 * sigma


def test_radon_unsupported_dimension():
    with pytest.raises(ValueError):
        radon_subsphere(_const_profile(4), 4, 0.0)


# transform via the subsphere route


def test_ft_via_radon_constant():
    f = _const_profile(5)
    expected = 2.0 * np.pi ** 3
    for u_xi in (-0.8, 0.0, 0.5):
        got = ft_via_radon(f, 4.0, u_xi)
        assert abs(got - expected) <= 1e-10 * expected
    assert abs(ft_via_radon(f, 4.0, 0.0) - bochner_multiplier(0, 4, 5)) <= 1e-10 * expected


def test_ft_via_radon_wrong_degree_raises():
    with pytest.raises(ValueError):
        ft_via_radon(_const_profile(5), 1.0, 0.0)


def test_route_agreement_even_profiles():
    rng = np.random.default_rng(SEED)
    profiles = [_const_profile(5),
                _even_profile(5, lambda u: np.asarray(u, float) ** 2),
                _bandlimited(5, rng)]
    u = np.linspace(-1.0, 1.0, 50)
    for prof in profiles:
        vals = eval_spectrum(ft_homogeneous(prof, 4.0, max_degree=80), u)
        scale = np.max(np.abs(vals))
        for i, u_xi in enumerate(u):
            assert abs(ft_via_radon(prof, 4.0, u_xi) - vals[i]) <= 1e-7 * scale


def test_route_agreement_gap_transform_profile():
    gap = make_oblate_gap_profile(5)
    ghat = ft_homogeneous(gap, 1.0, max_degree=120)
    u = np.linspace(-1.0, 1.0, 50)
    vals = eval_spectrum(ghat, u)
    scale = np.max(np.abs(vals))
    ref = gap.ft_profile(u)
    assert np.max(np.abs(vals - ref)) <= 1e-9 * scale
    # transforming the transform recovers the original profile
    back = (2.0 * np.pi) ** -5
    gmax = np.max(np.abs(gap(u)))
    for i, u_xi in enumerate(u):
        assert abs(ft_via_radon(_as_profile(ghat), 4.0, u_xi) * back
                   - gap(u_xi)) <= 1e-7 * gmax


# the symmetric pairing check


def test_parseval_radially_constant_pair():
    assert parseval_residual(_const_profile(5), _const_profile(5),
                             1.0) <= 1e-10


def test_parseval_base_with_gap_extension():
    body = make_base_body(5, 0.4)
    gap = make_oblate_gap_profile(5)
    assert parseval_residual(body.rho, gap, 1.0, max_degree=160) <= 1e-8
    # the common pairing value is positive
    fhat = ft_homogeneous(body.rho, 1.0, max_degree=160)
    paired = sphere_integral(lambda u: eval_spectrum(fhat, u) * gap(u), 5)
    assert paired > 0.0


def test_parseval_random_bandlimited_pairs():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        f = _bandlimited(5, rng, degree=16)
        g = _bandlimited(5, rng, degree=16)
        r = parseval_residual(f, g, 1.0, max_degree=60)
        assert r <= 1e-8
        # self-consistency at doubled quadrature order
        assert parseval_residual(f, g, 1.0, max_degree=60, order=512) <= 1e-8


def test_parseval_positive_weighted_pair():
    # profiles with strictly positive mean keep both pairing sides away
    # from the floor, exercising the normalization branch
    f = _even_profile(5, lambda u: 1.0 + 0.3 * np.asarray(u, float) ** 2)
    g = _even_profile(5, lambda u: 1.0 - 0.2 * np.asarray(u, float) ** 4)
    assert parseval_residual(f, g, 1.0, max_degree=40) <= 1e-10


def test_sphere_area_closed_values():
    assert abs(sphere_area(4) - 8.0 * np.pi ** 2 / 3.0) <= 1e-13
    assert abs(sphere_area(3) - 2.0 * np.pi ** 2) <= 1e-13
    assert abs(sphere_area(2) - 4.0 * np.pi) <= 1e-13
    assert abs(sphere_area(1) - 2.0 * np.pi) <= 1e-14
