import numpy as np
import pytest
from scipy import integrate

from centroid_sections import (RevolutionBody, SphereProfile, body_to_dict,
                               bochner_multiplier, curvature,
                               intersection_body_test, make_base_body,
                               sphere_area)
from centroid_sections.revolution_bodies import _meridian_nodes

from oracles import (ball_volume, centroid_axis, fd_curvature,
                     mc_membership, mc_subsphere_integral, quad_weighted,
                     section_centroid_axis, section_volume, volume)

C5 = 16.0 * np.pi ** 2


def _custom(n, fn, parity="even", derivs=None):
    return RevolutionBody(n=n, rho=SphereProfile(n, fn, parity=parity,
                                                 derivs=derivs),
                          kind="custom", params={})


def _ball(n, radius=1.0):
    def zero(u):
        return np.zeros_like(np.asarray(u, float))
    return _custom(n, lambda u: np.full_like(np.asarray(u, float), radius),
                   derivs=(zero, zero))


# base body closed forms


def test_base_profile_values():
    body = make_base_body(5, 0.3)
    assert abs(body.rho(1.0) - 0.9838) <= 1e-12
    assert abs(body.rho(-1.0) - 0.9838) <= 1e-12
    assert abs(body.rho(0.0) - 0.946) <= 1e-12


def test_base_attached_transform_pole_values():
    body = make_base_body(5, 0.3)
    for u in (-1.0, 1.0):
        assert abs(body.ft_profile(u) + C5) <= 1e-9 * C5
    # positive at the equator while the flattening is mild
    assert body.ft_profile(0.0) > 0.0


def test_base_small_flattening_approaches_ball():
    a = 0.01
    body = make_base_body(5, a)
    u = np.linspace(-1.0, 1.0, 2001)
    assert np.max(np.abs(body.rho(u) - 1.0)) <= 2.0 * a ** 3 + 1e-15


@pytest.mark.parametrize("n,a", [(5, 0.0), (5, 1.0), (5, -0.2), (5, 1.7), (4, 0.3)])
def test_base_invalid_parameters(n, a):
    with pytest.raises(ValueError):
        make_base_body(n, a)


# curvature


def test_curvature_unit_ball():
    rep = curvature(_ball(5))
    assert abs(rep.kappa_min - 1.0) <= 1e-15
    assert rep.is_convex


def test_curvature_ellipse_of_revolution():
    # classical oracle first: ellipse semi-axes (1, 2), flattest at the
    # pole of the long axis, kappa = minor/major^2
    oracle = 1.0 / 2.0 ** 2

    def prof(u):
        u = np.asarray(u, float)
        return (1.0 - u * u + (u / 2.0) ** 2) ** -0.5

    # closed-form u-derivatives of (1 - 3u^2/4)^{-1/2}
    def prof_du(u):
        u = np.asarray(u, float)
        return 0.75 * u * (1.0 - 0.75 * u * u) ** -1.5

    def prof_du2(u):
        u = np.asarray(u, float)
        A = 1.0 - 0.75 * u * u
        return 0.75 * A ** -1.5 + 1.6875 * u * u * A ** -2.5

    rep = curvature(_custom(5, prof, derivs=(prof_du, prof_du2)))
    assert abs(rep.kappa_min - oracle) <= 1e-15


def test_curvature_refuses_a_nan_node():
    # a profile NaN at one meridian node: kappa_min is NaN, which the guard
    # counts as not convex, whichever jet entry carries it
    u_bad = _meridian_nodes()[1][1234]

    def forged(f):
        def g(u):
            u = np.asarray(u, float)
            return np.where(u == u_bad, np.nan, f(u))
        return g

    ball = _ball(5)
    one, zero = ball.rho, ball.rho.derivs[0]
    for r, d1, d2 in ((forged(one), zero, zero), (one, forged(zero), zero),
                      (one, zero, forged(zero))):
        rep = curvature(_custom(5, r, derivs=(d1, d2)))
        assert np.isnan(rep.kappa_min)
        assert rep.is_convex is False


def test_curvature_base_body_matches_fd_oracle():
    body = make_base_body(5, 0.3)
    thetas = np.linspace(1e-4, np.pi - 1e-4, 100001)
    kappa_fd = fd_curvature(body.rho, thetas, h=1e-4)
    rep = curvature(body)
    assert abs(rep.kappa_min - float(np.min(kappa_fd))) <= 1e-6
    assert rep.kappa_min > 0.0


def test_curvature_shipped_base_golden():
    # recorded after the first verified default run
    rep = curvature(make_base_body(5, 0.4))
    assert abs(rep.kappa_min - 0.26302499789579986) <= 1e-15


def test_flat_enough_profile_fails_convexity():
    rep = curvature(make_base_body(5, 0.55))
    assert not rep.is_convex


# volume


def test_volume_unit_ball_and_scaling():
    expected = ball_volume(5)
    assert abs(expected - 8.0 * np.pi ** 2 / 15.0) <= 1e-13
    assert abs(volume(_ball(5)) - expected) <= 1e-12 * expected
    assert abs(volume(_ball(5, 2.0)) - 32.0 * expected) <= 1e-10 * expected


def test_volume_base_body_bounds_and_mc():
    body = make_base_body(5, 0.3)
    v = volume(body)
    assert ball_volume(5, 0.946) < v < ball_volume(5, 0.9838)
    est, sigma, _, _ = mc_membership(5, body.rho, samples=10 ** 6)
    assert abs(v - est) <= 3.0 * sigma


# body centroid


def test_centroid_symmetric_body_zero():
    assert abs(centroid_axis(make_base_body(5, 0.3))) <= 1e-12


def test_centroid_shifted_ball():
    # unit ball centered at 0.2 on the axis, radial profile about origin
    def prof(u):
        u = np.asarray(u, float)
        return 0.2 * u + np.sqrt(0.04 * u * u + 0.96)

    assert abs(centroid_axis(_custom(5, prof, parity="mixed")) - 0.2) <= 1e-10


def test_centroid_tilted_power_profile():
    # profile with rho^6 = 1 + 0.1 u: closed-form numerator oracle, then
    # quadrature volume, then the membership Monte-Carlo cross-check
    def prof(u):
        u = np.asarray(u, float)
        return (1.0 + 0.1 * u) ** (1.0 / 6.0)

    area = sphere_area(3)
    numerator = (1.0 / 6.0) * area * 0.1 * (4.0 / 15.0)
    vol = (1.0 / 5.0) * area * quad_weighted(lambda u: (1.0 + 0.1 * u) ** (5.0 / 6.0), 1.0)
    expected = numerator / vol
    body = _custom(5, prof, parity="mixed")
    got = centroid_axis(body)
    assert abs(got - expected) <= 1e-10
    assert abs(volume(body) - vol) <= 1e-10 * vol
    _, _, cen, cen_sigma = mc_membership(5, prof, samples=10 ** 7)
    assert abs(got - cen) <= 3.0 * cen_sigma


def test_centroid_reflection_antisymmetry():
    def prof(u):
        u = np.asarray(u, float)
        return (1.0 + 0.1 * u) ** (1.0 / 6.0)

    body = _custom(5, prof, parity="mixed")
    reflected = _custom(5, lambda u: prof(np.negative(u)), parity="mixed")
    assert abs(centroid_axis(reflected) + centroid_axis(body)) <= 1e-14


# hyperplane sections


def test_section_centroid_symmetric_zero():
    body = make_base_body(5, 0.3)
    for u_xi in (-1.0, -0.5, 0.0, 0.4, 1.0):
        assert abs(section_centroid_axis(body, u_xi)) <= 1e-12


def test_section_centroid_even_in_direction():
    def prof(u):
        u = np.asarray(u, float)
        return (1.0 + 0.1 * u) ** (1.0 / 6.0)

    body = _custom(5, prof, parity="mixed")
    for u_xi in (0.15, 0.45, 0.8):
        c_plus = section_centroid_axis(body, u_xi)
        c_minus = section_centroid_axis(body, -u_xi)
        assert abs(c_plus - c_minus) <= 1e-13


def test_section_volume_ball_and_mc():
    # equatorial cut of the unit ball is a unit 4-dimensional ball
    got = section_volume(_ball(5), 0.0)
    assert abs(got - ball_volume(4)) <= 1e-12

    body = make_base_body(5, 0.3)
    u_xi = 0.3
    est, sigma = mc_subsphere_integral(
        5, lambda t: body.rho(np.asarray(t, float)) ** 4 / 4.0, u_xi,
        samples=10 ** 6)
    assert abs(section_volume(body, u_xi) - est) <= 3.0 * sigma


# intersection-body criterion


def test_intersection_unit_ball():
    res = intersection_body_test(_ball(5))
    assert res["is_intersection"]
    anchor = bochner_multiplier(0, 1, 5)
    assert abs(res["min_value"] - anchor) <= 1e-10 * anchor


def test_intersection_base_body_fails_at_poles():
    res = intersection_body_test(make_base_body(5, 0.3))
    assert not res["is_intersection"]
    assert abs(res["min_value"] + C5) <= 1e-7 * C5
    assert abs(abs(res["argmin_u"]) - 1.0) <= 1e-12


def test_intersection_ellipsoid_passes():
    # closed-form oracle first: c_5 * b * (1-u^2+b^2 u^2)^{-2} with
    # b = 0.5 has its minimum c_5 * b at the equator
    b = 0.5
    u = np.linspace(-1.0, 1.0, 2001)
    closed = C5 * b * (1.0 - u * u + (b * u) ** 2) ** -2.0
    assert np.min(closed) == pytest.approx(C5 * b, rel=1e-12)

    def prof(uu):
        uu = np.asarray(uu, float)
        return (1.0 - uu * uu + (uu / b) ** 2) ** -0.5

    res = intersection_body_test(_custom(5, prof))
    assert res["is_intersection"]
    assert res["min_value"] > 0.0
    assert abs(res["min_value"] - C5 * b) <= 1e-6 * C5 * b


# serialization


def test_body_serialization_roundtrip():
    body = make_base_body(5, 0.3)
    d = body_to_dict(body)
    assert d["n"] == 5 and d["kind"] == "base"
    assert d["params"] == {"a": 0.3}
    samples = np.asarray(d["profile_samples"], float)
    assert np.max(np.abs(samples[:, 1] - body.rho(samples[:, 0]))) <= 1e-14

