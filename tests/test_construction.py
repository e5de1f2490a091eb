import copy
import dataclasses
import importlib.util
import json
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from centroid_sections import counterexample, spherical_core
from centroid_sections import (ConstructionError, RunConfig, curvature,
                               eval_spectrum, get_context, make_base_body,
                               make_cap_bump, make_oblate_gap_profile,
                               negativity_threshold, run_construction)

from centroid_sections.spherical_core import (_accumulate_at_zero,
                                              _bochner_multipliers_ld,
                                              _cosine_coeffs, _cosine_sum,
                                              _divide_by_u,
                                              _rolling_accumulate,
                                              _uniform_rule, ft_homogeneous,
                                              sphere_area)
from centroid_sections.revolution_bodies import _log_jet, _meridian_report
import oracles
from oracles import (SEED, bisect_sign_change, cosine_coeffs_full, fd_deriv,
                     gap_quotient_closed, gap_quotient_mp, gap_theta_jet_mp,
                     gegenbauer_moments_full,
                     gegenbauer_projection_gauss_jacobi,
                     gegenbauer_series_ld, kappa_series_route,
                     odd_quotient_difference, odd_quotient_integral,
                     quadrature_lhs, quotient_theta_jet_ld,
                     section_centroid_axis, section_volume, sphere_integral,
                     unfolded_sweep)

C5 = 16.0 * np.pi ** 2


def _bump_coeffs(ctx, order=None):
    """The context's longdouble bump transform coefficients, as its build
    forms them, from the rule of order bump_theta_samples by default."""
    cfg = RunConfig
    return ft_homogeneous(ctx.bump, 1.0, cfg.bump_max_degree,
                          order=order or cfg.bump_theta_samples).coeffs


# negativity region of the base transform


def test_negativity_threshold_against_bisection_oracle():
    # oracle first: locate the transform's sign change by bisection
    body = make_base_body(5, 0.3)
    root = bisect_sign_change(lambda u: float(body.ft_profile(u)), 0.5, 1.0)
    u_star = negativity_threshold(5, 0.3)
    assert abs(u_star - root) <= 1e-12
    assert abs(u_star - 0.97930) <= 5e-6
    assert body.ft_profile(1.0) < 0.0 < body.ft_profile(0.0)


def test_negativity_threshold_requires_sign_change():
    with pytest.raises(ConstructionError):
        negativity_threshold(5, 0.9)


# cap bump


def test_cap_bump_support_and_peak():
    cap_u0 = 0.99
    bump = make_cap_bump(5, cap_u0)
    for u in (-1.0, -cap_u0, 0.0, 0.5, cap_u0, 1.0):
        assert bump(u) == 0.0
    mid = 0.5 * (cap_u0 + 1.0)
    peak = np.exp(-4.0)
    assert abs(peak - 0.0183156) <= 1e-7
    assert abs(bump(mid) - peak) <= 1e-15
    assert bump(-mid) == bump(mid)
    # strictly positive away from the support edges, where the factors
    # exp(-1/s) underflow to zero in double precision
    width = 1.0 - cap_u0
    u = np.linspace(cap_u0 + 0.1 * width, 1.0 - 0.1 * width, 101)
    assert np.all(bump(u) > 0.0)


def test_cap_bump_pairs_negatively_with_base_transform():
    body = make_base_body(5, 0.3)
    bump = make_cap_bump(5, 0.99)
    pairing = sphere_integral(lambda u: body.ft_profile(u) * bump(u), 5)
    assert pairing < 0.0


# oblate gap profile


def test_gap_profile_closed_values():
    gap = make_oblate_gap_profile(5)
    assert abs(gap(0.0) - 0.5) <= 1e-15
    assert gap(1.0) == 0.0 and gap(-1.0) == 0.0
    ft = gap.ft_profile
    assert ft(0.0) == 0.0
    target = C5 * (1.0 - 2.0 ** -4)
    assert abs(target - 15.0 * np.pi ** 2) <= 1e-12
    assert abs(ft(1.0) - target) <= 1e-9 * target
    assert abs(ft(-1.0) - target) <= 1e-9 * target
    u = np.linspace(-1.0, 1.0, 2001)
    assert np.min(ft(u)) >= -1e-9 * C5


# blend


def test_blend_endpoints(ctx5):
    u = np.linspace(-1.0, 1.0, 41)
    for lam, ref in ((0.0, ctx5.bump), (1.0, ctx5.gap)):
        assert np.max(np.abs(ctx5.seed_value(u, lam) - ref(u))) <= 1e-14


def test_blend_transform_linearity(ctx5):
    # profiles.csv's blended transform, (1 - lam) b(0) + u phi with phi
    # the perturbation at lam, is linear in lam, and it is the direct
    # route's (1 - lam) b(u) + lam gap_hat(u), b the Gegenbauer series
    lam = 0.3
    u = np.array([-0.9, -0.4, 0.1, 0.6, 0.999])

    def blend_transform(lam):
        return ((1.0 - lam) * ctx5.bump_ft_at_zero
                + u * ctx5.perturbation(lam)(u))

    ends = (1.0 - lam) * blend_transform(0.0) + lam * blend_transform(1.0)
    direct = ((1.0 - lam) * eval_spectrum(ctx5.bump_ft_spectrum, u)
              + lam * ctx5.gap.ft_profile(u))
    scale = np.max(np.abs(ends))
    for got in (blend_transform(lam), direct):
        assert np.max(np.abs(got - ends)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [5, 6, 7])
def test_perturbation_is_one_cosine_sum(ctx5, n, monkeypatch):
    # phi at lam sums the blended cosine series (1 - lam) quotient_cosine
    # + lam gap_cosine in one _cosine_sum call, within 1e-15 of max|phi|
    # of the two sums of the parts
    ctx = ctx5 if n == 5 else get_context(RunConfig(n=n))
    u = counterexample._mirrored_grid(1001)
    calls = []
    monkeypatch.setattr(counterexample, "_cosine_sum",
                        lambda *a: calls.append(a) or _cosine_sum(*a))
    for lam in (0.0, 0.3, 1.0):
        calls.clear()
        got = ctx.perturbation(lam)(u)
        assert len(calls) == 1
        want = ((1.0 - lam) * _cosine_sum(ctx.quotient_cosine, u, "odd")
                + lam * _cosine_sum(ctx.gap_cosine, u, "odd"))
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_blend_pairing_changes_sign(ctx5):
    base_ft = ctx5.base.ft_profile

    def pairing(lam):
        return sphere_integral(
            lambda u: base_ft(u) * ctx5.seed_value(u, lam), 5)

    assert pairing(0.0) < 0.0 < pairing(1.0)


@pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_equator_vanishing(ctx5, lam):
    assert ctx5.equator_ratio(lam) <= 1e-8


# odd quotient of an even transform


def test_gap_quotient_derivatives_match_finite_differences():
    # the closed-form reference of the gap's quotient (gap_quotient_closed)
    # against the finite differences of its value, on both sides of the
    # switch
    for n in (5, 6):
        fns = gap_quotient_closed(n)
        grid = np.linspace(-1.0, 1.0, 2001)
        scales = [np.max(np.abs(f(grid))) for f in fns]
        switch = oracles.GAP_U_SWITCH
        u = np.array([-0.8, -0.3, -switch, -0.02, 0.0, 0.01, 0.049, 0.051,
                      0.6])
        assert fns[0](0.0) == 0.0
        for k in (1, 2):
            ref = fd_deriv(fns[0], u, k, h=1e-3)
            assert np.max(np.abs(fns[k](u) - ref)) <= 1e-9 * scales[k]


def _gap_test_points():
    # a grid over [-1, 1], random points about the equator, the closed-form
    # reference's switch and its float neighbour, and points near and at
    # the equator
    switch = oracles.GAP_U_SWITCH
    edge = np.nextafter(switch, 0.0)
    rng = np.random.default_rng(SEED)
    return np.concatenate([np.linspace(-1.0, 1.0, 201),
                           rng.uniform(-0.06, 0.06, 100),
                           [switch, -switch, edge, -edge, 1e-8, 1e-300,
                            -1e-300, 0.0]])


@pytest.mark.parametrize("n", [5, 6, 7, 10, 40, 100, 200])
def test_gap_quotient_matches_mpmath(n):
    # against mpmath at 40 digits: the value ft/u of the gap profile's
    # transform, which the section quadrature reads, and phi' and phi'' of
    # the closed-form reference that the u-form curvature route reads.
    # The bounds hold the multiplier c_n as well as the quotient
    u = _gap_test_points()
    want = np.array([gap_quotient_mp(n, float(v)) for v in u]).T
    ft = make_oblate_gap_profile(n).ft_profile
    value = np.asarray(ft(u) / np.where(u == 0, 1.0, u), dtype=float)
    assert np.max(np.abs(value - want[0])) <= 1e-15 * np.max(np.abs(want[0]))
    assert value[-1] == 0.0
    fns = gap_quotient_closed(n)
    for f, w, bound in zip(fns[1:], want[1:], (5e-15, 3e-14)):
        got = np.asarray(f(u), dtype=float)
        assert np.max(np.abs(got - w)) <= bound * np.max(np.abs(w))
    assert fns[2](0.0) == 0.0


@pytest.mark.parametrize("n", [5, 6, 7, 10, 40, 100, 200])
def test_gap_cosine_theta_jets_match_mpmath(n):
    # the theta-jets of the gap quotient's cosine series, sum d_m cos(m
    # theta) and its termwise derivatives over the float64 m^k d_m that
    # the context's FFTs read, summed in longdouble at theta = arccos u,
    # against mpmath's u-derivatives turned into theta-jets
    u = _gap_test_points()
    want = gap_theta_jet_mp(n, u)
    d = counterexample._gap_cosine(n)
    assert d.dtype == np.longdouble
    assert np.all(d[::2] == 0)
    assert d.size == counterexample._GAP_THETA_SAMPLES + 1
    m = np.arange(d.size)
    angles = np.outer(np.arccos(u.astype(np.longdouble)), m)
    cos, sin = np.cos(angles), np.sin(angles)
    got = [sign * (trig @ (m ** k * d).astype(np.float64)
                   .astype(np.longdouble))
           for k, sign, trig in ((0, 1, cos), (1, -1, sin), (2, -1, cos))]
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_gap_theta_jets_at_the_nodes_match_mpmath(n):
    # the context's gap jets, three FFTs of its cosine series, at every
    # tenth node on [0, pi/2] and the last, against mpmath; mirrored onto
    # [pi/2, pi] with q and q_theta_theta odd, q_theta even
    ctx = get_context(RunConfig(n=n))
    half = ctx._x.size // 2 + 1
    at = np.append(np.arange(0, half - 1, 10), half - 1)
    want = gap_theta_jet_mp(n, ctx._x[at])
    for got, ref in zip(ctx._gq, want):
        assert np.max(np.abs(got[at] - ref)) <= 1e-14 * np.max(np.abs(ref))
    for got, sign in zip(ctx._gq, (-1, 1, -1)):
        assert np.array_equal(got[half - 1:], sign * got[half - 1::-1])


def test_odd_perturbation_branch_consistency(monkeypatch):
    # phi' and phi'' of the closed-form reference: its closed-form and
    # series branches hand off across +-GAP_U_SWITCH
    switch = oracles.GAP_U_SWITCH
    for n in (5, 6, 7, 10):
        fns = gap_quotient_closed(n)[1:]
        grid = np.linspace(-1.0, 1.0, 2001)
        scales = [np.max(np.abs(f(grid))) for f in fns]
        edge = np.nextafter(switch, 0.0)
        at = np.array([-switch, -edge, edge, switch])
        for f, scale in zip(fns, scales):
            # the two points either side of each switch, one in each branch
            vals = f(at)
            assert abs(vals[0] - vals[1]) <= 1e-13 * scale
            assert abs(vals[2] - vals[3]) <= 1e-13 * scale
        # both branches over a window around the switch
        window = switch * np.concatenate([np.linspace(0.9, 1.1, 21),
                                          -np.linspace(0.9, 1.1, 21)])
        monkeypatch.setattr(oracles, "GAP_U_SWITCH", 0.8 * switch)
        closed = [f(window) for f in fns]
        monkeypatch.setattr(oracles, "GAP_U_SWITCH", 1.2 * switch)
        series = [f(window) for f in fns]
        monkeypatch.undo()
        for a, b, scale in zip(closed, series, scales):
            assert np.max(np.abs(a - b)) <= 1e-13 * scale


def test_odd_perturbation_rejects_nonvanishing_equator(ctx5, cert5,
                                                       tolerance):
    # the blended transform must vanish at the equator, relative to the
    # package tolerance, which the cached context reads when it runs:
    # certify's check fails, while the perturbation and the body are still
    # formed, so that the failure reaches the certificate
    lam, eps = cert5["lambda0"], cert5["eps0"]
    grid = counterexample._mirrored_grid(41)

    def holds(ctx):
        return ctx.certify(lam, eps, grid)[0]["checks"][
            "equator_within_tolerance"]

    assert holds(ctx5)
    # a transform that does not vanish at the equator, or is NaN there
    for g0 in (0.3 * np.max(np.abs(ctx5._bft_eq)), float("nan")):
        shifted = copy.copy(ctx5)
        shifted.bump_ft_at_zero = g0
        assert not holds(shifted)
        shifted.perturbation(0.5)
    tolerance("equator_rel", 1e-30)
    assert not holds(ctx5)
    ctx5.perturbed_body(lam, eps)


# perturbed body


def test_perturbed_body_zero_eps_is_base(ctx5):
    body = ctx5.perturbed_body(0.5, 0.0)
    u = np.linspace(-1.0, 1.0, 201)
    assert np.max(np.abs(body.rho(u) - ctx5.base.rho(u))) <= 1e-15


def test_perturbed_body_defining_identity(ctx5, cert5):
    lam0, eps0 = cert5["lambda0"], cert5["eps0"]
    body = ctx5.perturbed_body(lam0, eps0)
    phi = ctx5.perturbation(lam0)
    u = np.linspace(-0.999, 0.999, 501)
    lhs = body.rho(u) ** 5 - ctx5.base.rho(u) ** 5
    rhs = eps0 * phi(u)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13
    # the equator radius is untouched
    assert abs(body.rho(0.0) - ctx5.base.rho(0.0)) <= 1e-16


def test_perturbed_body_rejects_huge_eps(ctx5, cert5):
    # eps must be nonnegative and small enough for rho^n + eps phi > 0
    with pytest.raises(ConstructionError, match="eps too large"):
        ctx5.perturbed_body(1.0, 1e3)
    with pytest.raises(ValueError, match="nonnegative"):
        ctx5.perturbed_body(cert5["lambda0"], -cert5["eps0"])


def test_context_perturbed_body_bit_equal_to_public_route(ctx5, cert5):
    # the context gates on its tables; the body it returns must be
    # (rho_base^n + eps phi)^{1/n} of its public base body and
    # perturbation, values only, serialized at the 4001 theta nodes from
    # their tables, which give the body's own values there
    lam, eps = cert5["lambda0"], cert5["eps0"]
    n = ctx5.n
    got = ctx5.perturbed_body(lam, eps)
    nodes, rows = got.samples.T
    assert nodes.size == 4001 and np.array_equal(nodes, -ctx5._x)
    assert np.array_equal(rows, got.rho(nodes))
    assert got.rho.derivs is None
    u = np.linspace(-1.0, 1.0, 1001)
    f = (np.asarray(ctx5.base.rho(u), dtype=float) ** n
         + eps * ctx5.perturbation(lam)(u))
    assert np.array_equal(got.rho(u), f ** (1.0 / n))


# centroid functional


def test_centroid_zero_at_zero_eps(ctx5):
    assert ctx5.centroid(0.5, 0.0) == 0.0


def test_centroid_brackets_zero_at_shipped_eps(ctx5, cert5):
    eps0 = cert5["eps0"]
    assert ctx5.centroid(0.0, eps0) < 0.0 < ctx5.centroid(1.0, eps0)


def test_centroid_nearly_linear_in_eps(ctx5):
    r1 = ctx5.centroid(1.0, 1e-5) / 1e-5
    r2 = ctx5.centroid(1.0, 1e-6) / 1e-6
    assert abs(r1 - r2) <= 0.02 * abs(r2)


def test_centroid_none_for_non_finite_power(ctx5):
    # the positivity guard fails NaN and inf as it fails a value <= 0: a
    # context copy with one NaN node, then one inf node, in rho_b^n
    for bad in (np.nan, np.inf, -1.0):
        ctx = copy.copy(ctx5)
        ctx._rho_n = [p.copy() for p in ctx5._rho_n]
        ctx._rho_n[0][1234] = bad
        assert ctx.centroid(0.3, 1e-5) is None
    assert ctx5.centroid(0.3, 1e-5) is not None


def test_forged_power_node_is_refused(ctx5, cert5):
    # NaN or inf at one node of rho_b^n, and 0 at the equator node, where
    # phi is 0 and so f = rho_b^n + eps phi is 0: kappa_report is not
    # convex there (kappa_min NaN, or 0.0 at inf, where l1 = l2 = 0 and
    # r = inf) and the centroid is None, at both ends of the blend and
    # inside it
    eps = cert5["eps0"]
    mid = ctx5._x.size // 2
    assert ctx5._x[mid] == 0.0
    for bad, node in ((0.0, mid), (np.inf, 1234), (np.nan, 1234)):
        ctx = copy.copy(ctx5)
        ctx._rho_n = [p.copy() for p in ctx5._rho_n]
        ctx._rho_n[0][node] = bad
        for lam in (0.0, cert5["lambda0"], 0.3, 1.0):
            assert ctx.kappa_report(lam, eps).is_convex is False
            assert ctx.centroid(lam, eps) is None
    assert ctx5.kappa_report(0.3, eps).is_convex is True


def test_centroid_functional_wrapper(cert5):
    # the centroid at recorded parameters, through a context for the
    # recorded n and a
    ctx = get_context(RunConfig(n=5, a=0.4))
    val = ctx.centroid(cert5["lambda0"], cert5["eps0"])
    assert abs(val) <= 1e-12


# root finding


def test_bisection_harness_linear_self_test(ctx5):
    with mock.patch.object(type(ctx5), "centroid",
                           lambda self, lam, eps: lam - 0.3):
        res = ctx5.find_root(1e-6)
    assert abs(res["lambda0"] - 0.3) <= 1e-12


def test_eps_selection_shipped(construct_result):
    sel = construct_result["selection"]
    assert sel["eps"] == 2.44140625e-07
    assert sel["halvings"] == 12
    assert sel["centroid_at_0"] < 0.0 < sel["centroid_at_1"]


def test_root_of_default_run(cert5):
    lam0 = cert5["lambda0"]
    assert 0.0 < lam0 < 1.0
    assert abs(cert5["centroid_at_root"]) <= 1e-12
    # recorded after the first verified default run
    assert abs(lam0 - 6.392598152160645e-06) <= 1e-6 * lam0


def test_find_root_module_level_matches(cert5):
    # eps selection and bisection again, on the package-level context
    ctx = get_context(RunConfig())
    sel = ctx.select_eps(RunConfig.eps_start)
    res = ctx.find_root(sel["eps"])
    assert abs(res["lambda0"] - cert5["lambda0"]) <= 1e-15
    assert sel["eps"] == cert5["eps0"]


# section-centroid identity


def test_identity_zero_eps_both_sides_vanish(ctx5):
    sweep = ctx5.identity_sweep(0.5, 0.0,
                                counterexample._mirrored_grid(721))
    assert np.max(np.abs(sweep["lhs"])) <= 1e-12
    assert np.all(sweep["rhs"] == 0.0)


def test_identity_shipped_run(construct_result):
    sweep = construct_result["sweep"]
    assert sweep["max_rel_err"] <= 1e-6
    assert sweep["max_rel_err"] <= 5e-8  # regression band around 1.1e-8
    assert sweep["min_margin"] > 0.0


def test_identity_poles_exactly_zero(construct_result):
    body = construct_result["body"]
    for u_xi in (-1.0, 1.0):
        assert abs(section_centroid_axis(body, u_xi, 3392)) <= 1e-12


def test_identity_at_spec_parameters():
    # fixed mid-range parameters, equatorial direction: the quadrature
    # route and the seed-series route must agree and stay positive
    ctx = get_context(RunConfig(n=5, a=0.3))
    body = ctx.perturbed_body(0.5, 1e-3)
    got = section_centroid_axis(body, 0.0, 3392)
    assert got > 0.0
    seed = ctx.seed_value(0.0, 0.5)
    expected = 1e-3 * (2.0 * np.pi) ** 5 / np.pi * seed / (
        5.0 * section_volume(body, 0.0, 3392))
    assert abs(got - expected) <= 1e-6 * abs(expected)
    # the seed at the equator is the gap value scaled by the blend weight
    assert abs(seed - 0.5 * 0.5) <= 1e-8


def test_identity_check_public_wrapper(construct_result, cert5):
    # the sweep at recorded parameters, through a context for the recorded
    # n and a, which builds the body the construction returned
    ctx = get_context(RunConfig(n=5, a=0.4))
    lam, eps = cert5["lambda0"], cert5["eps0"]
    u = np.linspace(-0.9, 0.9, 7)
    assert np.array_equal(ctx.perturbed_body(lam, eps).rho(u),
                          construct_result["body"].rho(u))
    sweep = ctx.identity_sweep(lam, eps, counterexample._mirrored_grid(721))
    assert sweep["max_rel_err"] <= 1e-6


# the sweep's lhs from the seed's own series (Funk-Hecke), and the
# quadrature route it replaces


def _gamma_half_integer_ld(x):
    # Gamma(x) for x a positive integer or half-integer, by its product
    pi = np.arccos(np.longdouble(-1.0))
    out = np.longdouble(1.0) if x == int(x) else np.sqrt(pi)
    t = np.longdouble(x) - 1
    while t > 0:
        out *= t
        t -= 1
    return out


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_funk_hecke_times_transform_multiplier_is_constant(n):
    # the sweep reads lhs from the seed's series because the Radon
    # transform's Funk-Hecke multiplier |S^{n-2}| C_k(0) / C_k(1) times the
    # transform's mu_k is (2 pi)^n / pi at every even k <= M.  Here
    # C_k(0) / C_k(1) comes from its own ratio recurrence,
    # C_{k+2}(0) / C_k(0) = -(lam + k/2) / (k/2 + 1) and
    # C_{k+2}(1) / C_k(1) = (2 lam + k)(2 lam + k + 1) / ((k + 1)(k + 2)),
    # and |S^{n-2}| = 2 pi^{(n-1)/2} / Gamma((n-1)/2), all in longdouble
    LD = np.longdouble
    pi = np.arccos(LD(-1.0))
    lam = LD(n - 2) / 2
    k = np.arange(0, RunConfig.bump_max_degree + 1, 2)
    j = np.arange(k.size - 1, dtype=LD)
    step = (-(lam + j) / (j + 1) * (2 * j + 1) * (2 * j + 2)
            / ((2 * lam + 2 * j) * (2 * lam + 2 * j + 1)))
    ratio = np.concatenate([[LD(1.0)], np.cumprod(step)])
    area = 2 * pi ** (LD(n - 1) / 2) / _gamma_half_integer_ld((n - 1) / 2)
    got = _bochner_multipliers_ld(n, 1.0, k) * area * ratio * pi / (2 * pi) ** n
    # measured <= 8.8e-18
    assert np.max(np.abs(got - 1)) <= 1e-15


@pytest.mark.parametrize("n", [5, 6, 7])
def test_sweep_lhs_matches_independent_quadrature(ctx5, n):
    # the spectral lhs against the section integral of rho^n + eps phi by
    # scipy's order-1728 Gauss-Jacobi rule, phi from the float64 quotient
    # series, at 45 directions of the default grid: every 18th and the two
    # interior ones nearest each pole.  Measured 9.4e-11, 8.2e-11 and
    # 3.8e-10 of max |rhs| at n = 5, 6 and 7; the rhs itself is 9.2e-9
    # from this lhs at n = 5
    ctx = ctx5 if n == 5 else get_context(RunConfig(n=n))
    eps = ctx.select_eps(RunConfig.eps_start)["eps"]
    lam = ctx.find_root(eps)["lambda0"]
    grid = np.linspace(-1.0, 1.0, RunConfig.alpha_grid)
    scale = np.max(np.abs(ctx.identity_sweep(lam, eps, grid)["rhs"]))
    u = np.concatenate([grid[::18], grid[[1, 2, -3, -2]]])
    got = ctx.identity_sweep(lam, eps, u)["lhs"]
    want = quadrature_lhs(ctx, lam, eps, u, 1728)
    assert np.max(np.abs(got - want)) <= 1e-9 * scale


@pytest.mark.parametrize("n", [5, 6, 7])
def test_pole_plateau_is_the_equator_transform(ctx5, n):
    # b_M(+-1) = pi |S^{n-2}| / (2 pi)^n ghat_b(0): the plateau the sweep
    # subtracts is the bump transform's equator value.  With the longdouble
    # coefficients co / mu it holds to 5.6e-12, 5.6e-10 and 6.0e-12
    # relative; the sweep's float64 cosine series gives it to float64
    # rounding of the bump's peak exp(-4), and exactly alike at both poles
    ctx = ctx5 if n == 5 else get_context(RunConfig(n=n))
    LD = np.longdouble
    want = (np.pi * sphere_area(n - 2) / (2 * np.pi) ** n
            * ctx.bump_ft_at_zero)
    co = _bump_coeffs(ctx)
    series = co / _bochner_multipliers_ld(n, 1.0, np.arange(co.size))
    got = _rolling_accumulate(series, ctx.lam_index, np.ones(1, dtype=LD))[0]
    assert abs(float(got) - want) <= 1e-9 * abs(want)
    poles = _cosine_sum(ctx.bump_cosine, np.array([-1.0, 1.0]), "even")
    assert poles[0] == poles[1]
    assert abs(poles[1] - want) <= 1e-15 * np.exp(-4.0)


def test_identity_sweep_at_a_direction_next_to_the_pole(ctx5, cert5):
    # u = -1 + 1e-10 once raised in the dense table's spot check, whose
    # scale was local ("rel 1.325e-07 > 1.0e-07").  Alone, the direction
    # gives a finite sweep; its own lhs / rhs is 22, the truncation tail's
    # curvature next to the pole, so the identity is held on the default
    # grid with the direction added, and that direction's lhs is the same
    lam, eps = cert5["lambda0"], cert5["eps0"]
    u = -1.0 + 1e-10
    alone = ctx5.identity_sweep(lam, eps, np.array([u]))
    for key in ("lhs", "rhs", "rel_err", "centroid_quadrature"):
        assert np.all(np.isfinite(alone[key]))
    grid = np.sort(np.append(np.linspace(-1.0, 1.0, RunConfig.alpha_grid), u))
    sweep = ctx5.identity_sweep(lam, eps, grid)
    assert sweep["max_rel_err"] <= RunConfig().tolerances["identity_rel"]
    assert sweep["lhs"][grid == u] == alone["lhs"]


def test_default_sweep_grid_mirrored_bit_for_bit(construct_result):
    # linspace(-1, 1, 721) is not mirrored bit for bit (559 distinct |u|);
    # the default grid is linspace(0, 1, 361) and its negated mirror, so
    # the sweep sums the bump series at 361 distinct |u|
    grid = construct_result["sweep"]["u_grid"]
    assert grid.size == RunConfig.alpha_grid
    assert np.array_equal(grid, -grid[::-1])
    assert np.unique(np.abs(grid)).size == 361
    assert np.array_equal(grid[360:], np.linspace(0.0, 1.0, 361))
    # any odd size is mirrored alike; verify's 1441 directions are
    # construct's and one between each pair
    for size in (3, 2 * RunConfig.alpha_grid - 1):
        g = counterexample._mirrored_grid(size)
        assert g.size == size and np.array_equal(g, -g[::-1])
        assert g[0] == -1.0 and np.all(np.diff(g) > 0)
    assert np.array_equal(g[::2], grid)


def test_section_rule_exactly_antisymmetric(ctx5):
    # the sweep's section volumes read rho_b on the nonnegative nodes with
    # doubled weights, which needs every negative node to be a nonnegative
    # one negated and the weights mirrored; the middle node u = 0 of the
    # even order counts once
    q = _uniform_rule(RunConfig.quad_order, (5 - 4) / 2)
    x, w = q.nodes, q.weights
    assert x.size == RunConfig.quad_order + 1
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    half = RunConfig.quad_order // 2 + 1
    ts, tw = ctx5._ts, ctx5._tw
    assert np.array_equal(ts, x[:half].astype(float)) and ts[-1] == 0.0
    assert np.all(ts[:-1] > 0.0)
    assert np.array_equal(tw[:-1], (2 * w[:half - 1]).astype(float))
    assert tw[-1] == float(w[half - 1])


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_section_volumes_match_order_1728_gauss_jacobi(ctx5, cold, n):
    # V(|u|) on the order-256 uniform-angle rule against scipy's order-1728
    # Gauss-Jacobi rule, at the sweep's |u| and near the pole; measured
    # 5.4e-16, 4.5e-16, 4.8e-16 and 8.0e-16 relative at n = 5 to 8
    ctx = ctx5 if n == 5 else get_context(RunConfig(n=n))
    a = np.array([0.0, 0.1, 0.5, 0.9, 0.97, 0.999, 1.0 - 1e-9, 1.0])
    got = cold(ctx)._bump_and_volume(a)[1]
    want = np.array([section_volume(ctx.base, x, 1728) for x in a])
    assert np.max(np.abs(got - want) / want) <= 1e-15


def test_identity_sweep_bit_equal_to_unfolded_sweep(ctx5, cert5, cold):
    # the sweep sums the bump's cosine series once per distinct |u| and
    # mirrors it; a reference that sums it at every direction, one call
    # each, must give the same lhs bit for bit, at the recorded root
    # (n = 5) and at a root of n = 6, on linspace grids and mirrored ones.
    # Each sweep starts from an empty store, so it sums the series itself
    ctx6 = get_context(RunConfig(n=6))
    eps6 = ctx6.select_eps(RunConfig.eps_start)["eps"]
    for ctx, lam, eps in ((ctx5, cert5["lambda0"], cert5["eps0"]),
                          (ctx6, ctx6.find_root(eps6)["lambda0"], eps6)):
        for size in (361, 721, 1441):
            for grid in (np.linspace(-1.0, 1.0, size),
                         counterexample._mirrored_grid(size)):
                got = cold(ctx).identity_sweep(lam, eps, grid)
                assert np.array_equal(got["lhs"],
                                      unfolded_sweep(ctx, lam, eps, grid))
                assert np.all(got["lhs"][[0, -1]] == 0.0)


def test_sweep_centroids_same_bits_one_direction_at_a_time(ctx5, cert5,
                                                          cold):
    # the section centroids, lhs over n times the section volume, of each
    # direction swept alone against the whole mirrored grid of 1441 and
    # linspace(-1, 1, 721): no value depends on which directions share
    # the call.  Every sweep starts from an empty store, so each sums b_M
    # and its section volumes itself
    lam, eps = cert5["lambda0"], cert5["eps0"]
    for grid in (counterexample._mirrored_grid(1441),
                 np.linspace(-1.0, 1.0, 721)):
        whole = cold(ctx5).identity_sweep(lam, eps, grid)
        alone = [cold(ctx5).identity_sweep(lam, eps, grid[i:i + 1])
                 ["centroid_quadrature"][0] for i in range(grid.size)]
        assert np.array_equal(whole["centroid_quadrature"], alone)


def _assert_same_sweep(got, want):
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert np.array_equal(got[key], value, equal_nan=True), key


@pytest.mark.parametrize("n", [5, 6])
def test_warm_sweep_bit_equal_to_cold_sweep(ctx5, cold, n):
    # what a sweep reads of its grid alone, a context tables once per grid
    # and keeps for its later sweeps: linspace and mirrored grids of 361,
    # 721 and 1441 directions, interleaved, at two (lam, eps), on one
    # context whose store fills as it goes, give every key of a sweep that
    # tables them afresh, bit for bit.  Each of the six grids is tabled
    # once, the second round reading all six back
    ctx = cold(ctx5 if n == 5 else get_context(RunConfig(n=n)))
    eps = ctx.select_eps(RunConfig.eps_start)["eps"]
    lam = ctx.find_root(eps)["lambda0"]
    grids = [g for size in (361, 721, 1441)
             for g in (np.linspace(-1.0, 1.0, size),
                       counterexample._mirrored_grid(size))]
    for rnd, (lam_, eps_) in enumerate(((lam, eps), (0.3, 0.5 * eps))):
        for grid in grids[rnd:] + grids[:rnd]:
            _assert_same_sweep(ctx.identity_sweep(lam_, eps_, grid),
                               cold(ctx).identity_sweep(lam_, eps_, grid))
    assert len(ctx._sweep_tables) == len(grids)


def test_repeated_sweep_sums_no_series(ctx5, cert5, cold, monkeypatch):
    # a sweep over a grid whose float64 content an earlier sweep on the
    # context reached, the same array or a copy, reads its tables back: it
    # calls neither _cosine_sum nor the base body's radius.  A sub-grid
    # such as grid[::-3] is another grid, whose tables are summed afresh
    calls = []
    real = counterexample._cosine_sum
    monkeypatch.setattr(counterexample, "_cosine_sum",
                        lambda *a: calls.append("_cosine_sum") or real(*a))
    ctx = cold(ctx5)
    ctx.base = copy.copy(ctx.base)
    rho = ctx.base.rho
    ctx.base.rho = lambda u: calls.append("rho") or rho(u)
    lam, eps = cert5["lambda0"], cert5["eps0"]
    grid = counterexample._mirrored_grid(721)
    first = ctx.identity_sweep(lam, eps, grid)
    assert sorted(set(calls)) == ["_cosine_sum", "rho"]
    calls.clear()
    again = ctx.identity_sweep(0.5 * lam, 2.0 * eps, grid.copy())
    ctx.identity_sweep(lam, eps, grid)
    assert calls == []
    assert np.array_equal(again["lhs"],
                          cold(ctx5).identity_sweep(0.5 * lam, 2.0 * eps,
                                                    grid)["lhs"])
    assert first["max_rel_err"] == cert5["identity_max_relerr"]
    sub = ctx.identity_sweep(lam, eps, grid[::-3])
    assert sorted(set(calls)) == ["_cosine_sum", "rho"]
    assert np.array_equal(sub["lhs"], first["lhs"][::-3])


def test_sweep_grid_changed_in_place_is_tabled_afresh(ctx5, cert5, cold):
    # the tables are kept by the grid's float64 bytes, not by the array:
    # a grid written in place after a sweep is swept as the grid it now
    # is, bit for bit, and with its first value back it reads its first
    # tables again: three grids' tables in all
    lam, eps = cert5["lambda0"], cert5["eps0"]
    ctx = cold(ctx5)
    grid = np.linspace(-1.0, 1.0, 721)
    first = ctx.identity_sweep(lam, eps, grid)
    for value in (0.123, np.nan, grid[100]):
        grid[100] = value
        got = ctx.identity_sweep(lam, eps, grid)
        with np.errstate(invalid="ignore"):
            _assert_same_sweep(got, cold(ctx5).identity_sweep(lam, eps, grid))
    _assert_same_sweep(got, first)
    assert len(ctx._sweep_tables) == 3


def test_sweep_store_keeps_finite_directions_within_its_bound(
        ctx5, cert5, cold, monkeypatch):
    # NaN, inf and |u| > 1 sum to NaN lhs, the first sweep of such a grid
    # and the second, which reads its tables back, alike.  The store keeps
    # at most _SWEEP_DIRECTIONS_MAX directions over all its grids: past the
    # bound the oldest grids are dropped, a grid larger than the bound is
    # swept but not kept, and every sweep still gives a fresh sweep's bits
    lam, eps = cert5["lambda0"], cert5["eps0"]
    ctx = cold(ctx5)
    bad = np.array([np.nan, 0.3, 1.5, -np.inf, -2.0, 0.5, np.inf, -1.0])
    with np.errstate(invalid="ignore"):
        for _ in range(2):
            got = ctx.identity_sweep(lam, eps, bad)
            _assert_same_sweep(got, cold(ctx5).identity_sweep(lam, eps, bad))
    assert np.array_equal(np.isnan(got["lhs"]), ~(np.abs(bad) <= 1.0))
    assert len(ctx._sweep_tables) == 1
    monkeypatch.setattr(counterexample, "_SWEEP_DIRECTIONS_MAX", 1100)
    for size, kept in ((361, [8, 361]), (721, [8, 361, 721]),
                       (101, [721, 101]), (1441, [721, 101]),
                       (361, [101, 361])):
        grid = counterexample._mirrored_grid(size)
        _assert_same_sweep(ctx.identity_sweep(lam, eps, grid),
                           cold(ctx5).identity_sweep(lam, eps, grid))
        assert [shape[0] for shape, _ in ctx._sweep_tables] == kept


def test_theta_table_matches_series_at_knots(ctx5):
    # the bump quotient's FFT samples at every node on [0, pi/2] against
    # the longdouble recurrence at the exact angles i (pi/2) / (K - 1); the
    # sample at u = 0 is exactly 0.  The series has the longdouble quotient
    # coefficients the table is filled from: their float64 casts alone
    # move it by up to 5.5e-14 of max near the poles
    pi = np.arccos(np.longdouble(-1.0))
    for ctx in (ctx5, get_context(RunConfig(n=6))):
        half = ctx._x.size // 2 + 1
        table = ctx._bq[0][:half]
        lam = ctx.lam_index
        coeffs = _divide_by_u(_bump_coeffs(ctx), lam)
        i = np.arange(half)
        want = _rolling_accumulate(coeffs, lam,
                                   np.cos(i * (pi / 2) / (half - 1)))
        scale = float(np.max(np.abs(table)))
        assert np.max(np.abs(table - want)) <= 5e-14 * scale
        assert table[-1] == 0.0


@pytest.mark.parametrize("n", [5, 6])
def test_bump_coefficients_match_order_4992_projection(ctx5, n):
    # the theta-FFT coefficients of the bump transform against a projection
    # that shares no code with the package: scipy's Gauss-Jacobi rule of
    # order 4992, polished by one longdouble Newton step, the plain
    # recurrence and closed-form norms and multipliers (measured 6.0e-14
    # and 5.0e-14 of max at n = 5 and 6; an order-3392 projection is off by
    # 2.2e-10 and 2.9e-11); and against themselves with the theta rule's
    # order doubled (9.5e-16 and 1.3e-14)
    ctx = ctx5 if n == 5 else get_context(RunConfig(n=n))
    want = gegenbauer_projection_gauss_jacobi(ctx.bump, n, 3200, 4992)
    got = _bump_coeffs(ctx)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    doubled = _bump_coeffs(ctx, 2 * RunConfig.bump_theta_samples)
    assert np.max(np.abs(doubled - got)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [5, 6])
def test_bump_quotient_series_matches_oracles(ctx5, n):
    # q_b(u) = (b(u) - b(0)) / u from the synthetic division, against the
    # integral form near the equator and the difference quotient elsewhere
    ctx = ctx5 if n == 5 else get_context(RunConfig(n=n))
    spec = ctx.bump_ft_spectrum
    q = ctx.bump_quotient
    assert q.parity == "odd" and q.max_degree == spec.max_degree - 1
    rng = np.random.default_rng(SEED)
    small = np.concatenate([rng.uniform(-0.05, 0.05, 150),
                            [1e-300, -1e-14, 1e-14]])
    big = np.concatenate([rng.uniform(0.05, 1.0, 300) *
                          rng.choice([-1.0, 1.0], 300), [-1.0, 1.0]])
    want_small = odd_quotient_integral(spec.coeffs, spec.lambda_index, small)
    want_big = odd_quotient_difference(spec.coeffs, spec.lambda_index, big)
    got_small = eval_spectrum(q, small)
    got_big = eval_spectrum(q, big)
    scale = max(np.max(np.abs(want_small)), np.max(np.abs(want_big)))
    assert np.max(np.abs(got_small - want_small)) <= 1e-13 * scale
    assert np.max(np.abs(got_big - want_big)) <= 1e-13 * scale
    assert eval_spectrum(q, 0.0) == 0.0
    assert np.array_equal(eval_spectrum(q, -big), -got_big)


# the float64 sums read cosine series in theta; their longdouble
# conversions, and the longdouble transform at u = 0


def _series_ld(ctx):
    # longdouble Gegenbauer coefficients of b_M = sum (co / mu) C_k and of
    # q_b, the synthetic quotient of co
    co = _bump_coeffs(ctx)
    n, lam = ctx.n, ctx.lam_index
    return (co / _bochner_multipliers_ld(n, 1.0, np.arange(co.size)),
            _divide_by_u(co, lam))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_cosine_sums_match_longdouble_series(ctx5, n):
    # b_M and q_b from their float64 cosine series (_cosine_sum) against
    # their longdouble Gegenbauer series by the plain recurrence, on the
    # mirrored 361, 721 and 1441 grids and at +-(1 - 10^-k).  b_M is held
    # to its scale exp(-4), the bump's peak, and q_b to its max; measured
    # <= 6.7e-16 and <= 9.5e-16.  The float64 recurrence was off by
    # 1.5e-14 to 4.1e-14 (b_M) and 2.5e-14 to 5.2e-12 (q_b)
    ctx = ctx5 if n == 5 else get_context(RunConfig(n=n))
    edge = 1.0 - 10.0 ** -np.arange(1, 16)
    u = np.unique(np.concatenate(
        [counterexample._mirrored_grid(k) for k in (361, 721, 1441)]
        + [edge, -edge]))
    bser, qser = _series_ld(ctx)
    for cos_series, parity, series, scale in (
            (ctx.bump_cosine, "even", bser, np.exp(-4.0)),
            (ctx.quotient_cosine, "odd", qser, None)):
        want = gegenbauer_series_ld(series, ctx.lam_index, u)
        got = _cosine_sum(cos_series, u, parity)
        if scale is None:
            scale = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got - want))) <= 2e-15 * scale


@pytest.mark.parametrize("n", [5, 6, 7])
def test_parity_halved_conversions_bit_equal_to_full_loops(ctx5, n,
                                                           monkeypatch):
    # the Gegenbauer-to-cosine conversions of q_b (odd) and b_M (even), and
    # the transpose that gives the bump's Gegenbauer moments (even), loop
    # only over the degrees of their parity: every such entry keeps its
    # operations, so the results equal the full loops bit for bit, and the
    # other entries are exactly 0
    ctx = ctx5 if n == 5 else get_context(RunConfig(n=n))
    bser, qser = _series_ld(ctx)
    lam = ctx.lam_index
    for series, parity, other in ((qser, "odd", slice(0, None, 2)),
                                  (bser, "even", slice(1, None, 2))):
        got = _cosine_coeffs(series, lam, parity)
        assert np.array_equal(got, cosine_coeffs_full(series, lam))
        assert np.all(got[other] == 0)
    assert np.array_equal(ctx.quotient_cosine,
                          cosine_coeffs_full(qser, lam))
    assert np.array_equal(ctx.bump_cosine, cosine_coeffs_full(bser, lam))
    halved = _bump_coeffs(ctx)
    monkeypatch.setattr(spherical_core, "_gegenbauer_moments",
                        lambda f, lam, parity: gegenbauer_moments_full(f, lam))
    full = _bump_coeffs(ctx)
    assert np.array_equal(halved, full)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_transform_at_zero_bit_equal_to_array_recurrence(ctx5, n):
    # the recurrence's scalar steps at u = 0 against the array recurrence
    # at the one point 0, in longdouble
    ctx = ctx5 if n == 5 else get_context(RunConfig(n=n))
    co = _bump_coeffs(ctx)
    want = _rolling_accumulate(co, ctx.lam_index,
                               np.zeros(1, dtype=co.dtype))[0]
    got = _accumulate_at_zero(co, ctx.lam_index)
    assert got.dtype == co.dtype and got == want
    assert ctx.bump_ft_at_zero == float(want)


def test_context_build_names_a_nonfinite_bump_cosine_series(ctx5,
                                                            monkeypatch):
    # cosine coefficients of b_M beyond float64 are a named failure
    real = counterexample._cosine_coeffs

    def overflowing(coeffs, lam, parity):
        d = real(coeffs, lam, parity)
        if parity == "even":
            d[2] = np.longdouble(1e308) * 10
        return d

    monkeypatch.setattr(counterexample, "_cosine_coeffs", overflowing)
    with pytest.raises(ConstructionError,
                       match="bump series has 1 cosine coefficients"):
        counterexample.ConstructionContext(5, ctx5.a, ctx5.cap_u0)


def _flipped_division(coeffs, lam):
    # the package's synthetic division with one sign flipped
    c = np.asarray(coeffs)
    lam = c.dtype.type(lam)
    top = len(c) - 1
    d = np.zeros(top + 2, dtype=c.dtype)
    for m in range(top, 0, -1):
        d[m - 1] = ((c[m] + d[m + 1] * (m + 2 * lam) / (2 * (m + 1 + lam)))
                    * (2 * (m - 1 + lam)) / m)
    return d[:top]


def _nan_division(coeffs, lam):
    d = np.zeros(len(coeffs) - 1, dtype=np.asarray(coeffs).dtype)
    d[1::2] = np.nan
    return d


@pytest.mark.parametrize("division", [_flipped_division, _nan_division],
                         ids=["flipped_sign", "nan"])
def test_context_build_rejects_a_wrong_quotient_series(ctx5, monkeypatch,
                                                       division):
    monkeypatch.setattr(counterexample, "_divide_by_u", division)
    with pytest.raises(ConstructionError, match="odd quotient series"):
        counterexample.ConstructionContext(5, ctx5.a, ctx5.cap_u0)


def test_context_build_series_work_budget(ctx5, monkeypatch):
    # points x coefficients over every Gegenbauer series sum of one n = 5
    # build; the old value, derivative and quotient tables took ~475 M and
    # the u-grid quotient table 128 M; the theta table, filled by FFT,
    # takes none
    from centroid_sections import spherical_core
    work = []
    real = spherical_core._rolling_accumulate

    def counted(coeffs, lam, u):
        work.append(np.size(u) * len(coeffs))
        return real(coeffs, lam, u)

    monkeypatch.setattr(spherical_core, "_rolling_accumulate", counted)
    assert not hasattr(counterexample, "_rolling_accumulate")
    counterexample.ConstructionContext(5, ctx5.a, ctx5.cap_u0)
    # measured 3.20 M: the bump transform on the equator grid (1001
    # distinct |u|); its quotient there is summed from its cosine series,
    # the transform at u = 0 by scalar steps, and the curvature and
    # diameter tables come from FFTs, so none of them takes any
    assert sum(work) <= 3_300_000


def test_construction_makes_no_derivative_series_call(monkeypatch):
    # a whole n = 5 construction and its body.json: the curvature, the
    # diameter and the served phi read the cosine series' theta tables
    from centroid_sections import revolution_bodies, spherical_core

    def refused(*args, **kwargs):
        raise AssertionError("eval_spectrum_deriv called")

    monkeypatch.setattr(spherical_core, "eval_spectrum_deriv", refused)
    monkeypatch.setattr(counterexample, "_CTX_CACHE", {})
    assert not hasattr(counterexample, "eval_spectrum_deriv")
    res = run_construction(RunConfig())
    revolution_bodies.body_to_dict(res["body"])
    assert res["certificate"]["valid"]


def test_construction_builds_two_uniform_rules(ctx5, monkeypatch):
    # a whole n = 5 construction and its body.json samples: the bump's
    # coefficients come from one FFT on the order-bump_theta_samples rule
    # at beta = (n - 3)/2, the centroid integrates on the theta nodes, the
    # sweep reads lhs from the bump series and body.json reads the node
    # tables, so the only other rule is the section volumes' order 256 at
    # beta = (n - 4)/2; the bump is the one expansion, and no pairing or
    # Gauss-Jacobi rule runs
    from centroid_sections import revolution_bodies
    rules, expansions = set(), []
    real_rule, real_expand = spherical_core._uniform_rule, spherical_core.expand

    def counted_rule(order, beta, **kwargs):
        rules.add((order, beta))
        return real_rule(order, beta, **kwargs)

    def counted_expand(f, *args, **kwargs):
        expansions.append(f)
        return real_expand(f, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("pairing or Gauss-Jacobi rule called")

    for module in (spherical_core, counterexample, revolution_bodies):
        for name, fn in (("_uniform_rule", counted_rule),
                         ("expand", counted_expand),
                         ("parseval_residual", refused),
                         ("gauss_jacobi", refused)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fn)
    monkeypatch.setattr(counterexample, "_CTX_CACHE", {})
    res = run_construction(RunConfig())
    revolution_bodies.body_to_dict(res["body"])
    assert rules == {(RunConfig.bump_theta_samples, 1.0), (256, 0.5)}
    assert len(expansions) == 1 and expansions[0].parity == "even"
    assert res["certificate"]["valid"]


# convexity of the perturbed body


@pytest.mark.parametrize("n,a", [(5, None), (6, None), (7, None), (5, 0.1),
                                 (5, 0.3), (6, 0.2), (9, 0.3), (12, 0.5)])
def test_certify_reads_the_base_convexity_from_the_context(n, a,
                                                           monkeypatch):
    # certify takes the base body's curvature from the context's theta-jet
    # of rho_b at the nodes, and runs no curvature() of its own: the
    # record's kappa_min_base is curvature()'s bit for bit
    from centroid_sections import revolution_bodies
    ctx = get_context(RunConfig(n=n, a=a))
    want = curvature(ctx.base)

    def refused(*args, **kwargs):
        raise AssertionError("curvature called")

    for module in (counterexample, revolution_bodies):
        monkeypatch.setattr(module, "curvature", refused)
    record, _ = ctx.certify(0.5, 0.0, counterexample._mirrored_grid(41))
    assert record["kappa_min_base"] == want.kappa_min
    assert record["checks"]["base_convex"] is want.is_convex is True


def test_kappa_min_tracks_base_as_eps_vanishes(ctx5):
    base_kappa = curvature(ctx5.base).kappa_min
    eps_values = (1e-3, 1e-4, 1e-5)
    devs = [abs(ctx5.kappa_min(1.0, e) - base_kappa) for e in eps_values]
    assert devs[0] > devs[1] > devs[2]
    fitted = devs[0] / eps_values[0]
    for e, d in zip(eps_values[1:], devs[1:]):
        assert d <= 1.5 * fitted * e


def _kappa_per_node(theta, r, l1, l2):
    """The package's curvature at every node, one _meridian_report per
    node, so that no second copy of the formula is needed to read it."""
    margin = RunConfig.tolerances["convexity_margin"]
    return np.array([
        _meridian_report(theta[i:i + 1], r[i:i + 1], l1[i:i + 1],
                         l2[i:i + 1], margin).kappa_min
        for i in range(theta.size)])


def _kappa_reference(n, power):
    """(kappa_ref, bound) per node: the chain rule in fractional powers
    (root_of_power_jet) and the r-form curvature (meridian_kappa_plain)
    run in longdouble on the float64 jet power of f = rho_b^n + eps phi,
    and the bound 8 u (1 + n l1^2 + |l2|) / (r (1 + l1^2)^{3/2}), u =
    2^-53, r, l1, l2 the reference's, that float64 curvature meets."""
    ld = np.longdouble
    r, r_t, r_tt = oracles.root_of_power_jet(ld(n),
                                             [f.astype(ld) for f in power])
    ref = oracles.meridian_kappa_plain(r, r_t, r_tt).astype(float)
    l1, l2 = r_t / r, r_tt / r - (r_t / r) ** 2
    q = 1 + l1 * l1
    return ref, (8 * 2.0 ** -53 * (1 + n * l1 * l1 + abs(l2))
                 / (r * q * np.sqrt(q))).astype(float)


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("eps", [1e-3, 1e-5, 4.6e-8])
def test_kappa_report_bit_equal_to_plain_root_jet(n, lam, eps):
    # kappa_report's jet of f = rho_b^n + eps phi, from the theta-jet of
    # rho_b^n the context formed once, and its root r = f^{1/n} are the
    # plain chain rule's on the theta-jet of rho_b, bit for bit
    # (tests/oracles.py::power_jet_plain, root_jet_plain).  Its curvature,
    # from the log-derivatives l1, l2 of r, is held per node to the chain
    # rule in fractional powers (root_of_power_jet) and the r-form
    # curvature (meridian_kappa_plain) run in longdouble on that float64
    # jet of f, phi blended in float64 as kappa_report blends it:
    #
    #   |kappa - kappa_ref| <= 8 u (1 + n l1^2 + |l2|) / (r (1 + l1^2)^{3/2}),
    #
    # u = 2^-53 and r, l1, l2 the reference's; n l1^2 is the scale of the
    # cancellation in l2 = (f_tt / f - (f_t / f)^2) / n, f_t / f = n l1.
    # The float64 r-form (root_jet_plain, meridian_kappa_plain) meets the
    # same bound, so the bound is no looser than that form's own error.  NaN rows (f < 0, as at n = 6 and eps =
    # 1e-3) sit where the reference's do; the argmin is the reference's
    # node unless its two smallest values are within their bounds
    ctx = get_context(RunConfig(n=n))
    phi = [(1.0 - lam) * b + lam * g for b, g in zip(ctx._bq, ctx._gq)]
    power = ctx._power(lam, eps, 3)
    for got, want in zip(power, oracles.power_jet_plain(n, eps, ctx._rho,
                                                        phi)):
        assert np.array_equal(got, want)
    with np.errstate(invalid="ignore", divide="ignore"):
        plain = oracles.root_jet_plain(n, eps, ctx._rho, phi)
        jet = _log_jet(1.0 / n, *power)
        kappa = _kappa_per_node(ctx._theta, *jet)
        r_form = oracles.meridian_kappa_plain(*plain)
        ref, bound = _kappa_reference(n, power)
    assert np.array_equal(jet[0], plain[0], equal_nan=True)
    nan = np.isnan(ref)
    assert nan.any() == (n == 6 and eps == 1e-3)
    assert np.array_equal(np.isnan(kappa), nan)
    assert np.array_equal(np.isnan(r_form), nan)
    assert np.all(np.abs(kappa - ref)[~nan] <= bound[~nan])
    assert np.all(np.abs(r_form - ref)[~nan] <= bound[~nan])
    rep = ctx.kappa_report(lam, eps)
    i = int(np.argmin(kappa))
    assert np.array_equal(rep.kappa_min, kappa[i], equal_nan=True)
    assert rep.argmin_theta == ctx._theta[i]
    j = int(np.argmin(ref))
    if i != j:
        assert not nan.any()
        assert i == int(np.argsort(ref)[1])
        assert ref[i] - ref[j] <= bound[i] + bound[j]
    margin = RunConfig.tolerances["convexity_margin"]
    assert rep.is_convex == bool(np.isfinite(kappa[i]) and kappa[i] > margin)


# (lambda0, eps0, centroid_at_root, root_iterations, eps_halvings) of the
# shipped certificates, from RunConfig's defaults at each n
_DECISIONS = {
    5: (6.3925981521606445e-06, 2.44140625e-07, 7.333890148860073e-14,
        26, 12),
    6: (2.2277235984802246e-06, 3.0517578125e-08, 2.2082995896518838e-14,
        27, 15),
    7: (1.7881393432617188e-07, 1.9073486328125e-09, -7.740038628952106e-14,
        24, 19),
}


@pytest.mark.parametrize("n", [5, 6, 7])
def test_certificate_keeps_its_decisions(n):
    # a rewrite of the centroid or the curvature that moves eps0's rung or
    # a bisection step fails here, by name, before any reference digest
    cert = run_construction(RunConfig(n=n))["certificate"]
    got = tuple(cert[k] for k in ("lambda0", "eps0", "centroid_at_root",
                                  "root_iterations", "eps_halvings"))
    assert got == _DECISIONS[n]
    assert cert["valid"]


@pytest.mark.parametrize("n", [5, 6, 7])
def test_centroid_bit_equal_to_plain(n):
    # the centroid forms f and the sum of x f^{(n+1)/n} in place, and reads
    # the bump's or the gap's table itself at lam = 0 and 1: the plain
    # expression (tests/oracles.py::centroid_plain) gives the same bits,
    # None (positivity lost) included
    ctx = get_context(RunConfig(n=n))
    rng = np.random.default_rng(SEED + n)
    lams = (0.0, 1.0, 0.3, *rng.uniform(0.0, 1.0, 6))
    nones = 0
    for lam in lams:
        for eps in (1e-3, 1e-5, 4.6e-8, _DECISIONS[n][1]):
            want = oracles.centroid_plain(ctx, lam, eps)
            assert ctx.centroid(lam, eps) == want, (lam, eps)
            nones += want is None
    assert nones > 0 if n in (6, 7) else nones == 0


@pytest.mark.parametrize("n", [5, 6, 7])
def test_kappa_report_at_the_blend_ends_reads_the_tables(n):
    # at lam = 0 and 1 kappa_report reads the bump's or the gap's table as
    # it is; the report from the general blend (1 - lam) B + lam G is the
    # same, bit for bit, NaN minima included
    ctx = get_context(RunConfig(n=n))
    margin = RunConfig.tolerances["convexity_margin"]
    for lam in (0.0, 1.0):
        for eps in (1e-3, 1e-5, 4.6e-8, _DECISIONS[n][1]):
            f = [p + eps * ((1.0 - lam) * b + lam * g)
                 for p, b, g in zip(ctx._rho_n, ctx._bq, ctx._gq)]
            with np.errstate(invalid="ignore", divide="ignore"):
                want = _meridian_report(ctx._theta, *_log_jet(1.0 / n, *f),
                                        margin)
            got = ctx.kappa_report(lam, eps)
            assert np.array_equal(got.kappa_min, want.kappa_min,
                                  equal_nan=True)
            assert (got.argmin_theta, got.is_convex) == (
                want.argmin_theta, want.is_convex)


def _assert_kappa_matches_series_route(ctx, cert):
    # the certificate's curvature comes from the theta-jets at the nodes;
    # the u-form route through the float64 Gegenbauer series must give
    # the same minimum to 1e-13 and the same argmin node (spacing pi/4000)
    lam, eps = cert["lambda0"], cert["eps0"]
    rep = ctx.kappa_report(lam, eps)
    assert rep.kappa_min > 0.0
    assert rep.kappa_min == cert["kappa_min_perturbed"]
    assert rep.argmin_theta == cert["kappa_argmin_theta"]
    kmin, argmin = kappa_series_route(ctx, lam, eps)
    assert abs(rep.kappa_min - kmin) <= 1e-13 * kmin
    assert abs(rep.argmin_theta - argmin) < np.pi / 8000


def test_perturbed_body_convex_at_root(construct_result, cert5):
    _assert_kappa_matches_series_route(construct_result["context"], cert5)


def test_perturbed_curvature_matches_generic_pass_n6():
    res = run_construction(RunConfig(n=6))
    _assert_kappa_matches_series_route(res["context"], res["certificate"])


@pytest.mark.parametrize("n", [5, 6, 7])
def test_bump_theta_jets_match_longdouble_series(n):
    # the bump quotient's theta-jets at the nodes on [0, pi/2], three FFTs
    # of the float64 cosine series, against its
    # longdouble Gegenbauer series at exact angles; the float64 recurrence
    # converted from u was off by 2.0e-13 (n = 6) and 1.3e-11 (n = 7)
    ctx = get_context(RunConfig(n=n))
    half = ctx._x.size // 2 + 1
    qco = _divide_by_u(_bump_coeffs(ctx), ctx.lam_index)
    want = quotient_theta_jet_ld(qco, ctx.lam_index, half)
    for got, ref in zip(ctx._bq, want):
        assert np.max(np.abs(got[:half] - ref)) <= 1e-13 * np.max(np.abs(ref))
    # mirrored onto [pi/2, pi]: q and q_theta_theta odd, q_theta even
    for got, sign in zip(ctx._bq, (-1, 1, -1)):
        assert np.array_equal(got[half - 1:], sign * got[half - 1::-1])


# eps selection fallback


def test_select_eps_raises_after_exhausting_halvings(ctx5):
    cfg_eps = 10.0
    with pytest.raises(ConstructionError, match="eps too large"):
        ctx5.select_eps(cfg_eps)


def test_select_eps_treats_nan_curvature_as_violation(ctx5, monkeypatch):
    # min(1.0, nan) is 1.0, so a NaN at one endpoint must not hide
    monkeypatch.setattr(ctx5, "kappa_min",
                        lambda lam, eps: float("nan") if lam == 1.0 else 1.0)
    with pytest.raises(ConstructionError, match="curvature"):
        ctx5.select_eps(RunConfig.eps_start)


def _select_or_message(select, ctx, eps0):
    try:
        return select(ctx, eps0)
    except ConstructionError as exc:
        return str(exc)


def test_select_eps_matches_the_walk_down_its_ladder():
    # the rung the bracket points to is the walk's first admissible rung,
    # dict for dict, and one fails where the other does, at n = 5, 6, 7, 8
    # and 10 with the automatic a and a = 0.3: from five fixed starts (10
    # fails at every geometry, 1e-300 at every rung) and, where there is a
    # bracket, 100 seeded log-uniform starts in [1e-6, 1] and those whose
    # rung 0, 10 or 20 is eps_ok, the bracket's geometric mean or eps_bad.
    # With no bracket (n = 8 and 10, and 10 at a = 0.3) every start fails
    rng = np.random.default_rng(SEED)
    fixed = [1e-3, 0.1, 3e-5, 10.0, 1e-300]
    for n, a in [(n, a) for n in (5, 6, 7, 8, 10) for a in (None, 0.3)]:
        ctx = get_context(RunConfig(n=n, a=a))
        ok, bad = ctx.eps_bracket["eps_ok"], ctx.eps_bracket["eps_bad"]
        assert (ok is None) == ((n, a) in {(8, None), (10, None), (10, 0.3)})
        starts = fixed + ([] if ok is None else [
            *10.0 ** rng.uniform(-6.0, 0.0, 100),
            *(2.0 ** k * e for k in (0, 10, 20)
              for e in (ok, np.sqrt(ok * bad), bad))])
        for eps0 in starts:
            want = _select_or_message(oracles.select_eps_walk, ctx, eps0)
            got = _select_or_message(type(ctx).select_eps, ctx, eps0)
            if isinstance(want, str) or isinstance(got, str):
                assert isinstance(want, str) and isinstance(got, str), (
                    n, a, eps0, want, got)
            else:
                assert got == want, (n, a, eps0)
            if ok is None:
                assert got.startswith("no eps bracket"), (n, a, eps0)


def test_select_eps_matches_plain_bisection():
    # select_eps probes one rung or two; the dict must be plain bisection's
    # (tests/oracles.py::select_eps_bisect) bit for bit, and one fails
    # where the other does, from seeded log-uniform starts in [1e-6, 1],
    # four fixed ones and three whose rung 10 is eps_ok, inside the bracket
    # and eps_bad at n = 5, 6 and 7, and with no bracket at n = 8 and 10,
    # where every start fails and select_eps names the missing bracket
    rng = np.random.default_rng(SEED)
    fixed = [1e-3, 0.1, 3e-5, 10.0]
    geometries = [(n, a) for n in (5, 6, 7) for a in (None, 0.3)]
    for n, a in geometries + [(8, None), (10, None)]:
        ctx = get_context(RunConfig(n=n, a=a))
        ok, bad = ctx.eps_bracket["eps_ok"], ctx.eps_bracket["eps_bad"]
        assert (ok is None) == (n >= 8), (n, a)
        starts = fixed + ([] if n >= 8 else [
            *10.0 ** rng.uniform(-6.0, 0.0, 100),
            *(2.0 ** 10 * e for e in (ok, np.sqrt(ok * bad), bad))])
        for eps0 in starts:
            want = _select_or_message(oracles.select_eps_bisect, ctx, eps0)
            got = _select_or_message(type(ctx).select_eps, ctx, eps0)
            if isinstance(want, str) or isinstance(got, str):
                assert isinstance(want, str) and isinstance(got, str), (
                    n, a, eps0, want, got)
                assert want.startswith("eps too large"), (n, a, eps0)
            else:
                assert repr(got) == repr(want), (n, a, eps0)
            if n >= 8:
                assert got.startswith("no eps bracket"), (n, eps0)


def test_select_eps_probes_one_rung_or_two(monkeypatch):
    # a walk from RunConfig.eps_start at n = 6 halves 15 times, 32 centroid
    # calls; a probe makes two centroid and at most two curvature calls,
    # and select_eps probes the first rung below eps_bad and, only when
    # that rung lies inside the bracket and fails, the next
    ctx = get_context(RunConfig(n=6))
    ok, bad = ctx.eps_bracket["eps_ok"], ctx.eps_bracket["eps_bad"]
    probes = []
    real = ctx._probe
    monkeypatch.setattr(ctx, "_probe",
                        lambda eps: probes.append(eps) or real(eps))
    assert ctx.select_eps(RunConfig.eps_start)["halvings"] == 15
    assert probes == [RunConfig.eps_start * 0.5 ** 15]
    # rung 10 inside the bracket, and failing there: rungs 10 and 11
    inside = 2.0 ** 10 * np.sqrt(ok * bad)
    probes.clear()
    monkeypatch.setattr(ctx, "_probe", lambda eps: probes.append(eps) or (
        real(eps)[:2] + ("forced",) if eps > ok else real(eps)))
    assert ctx.select_eps(inside)["halvings"] == 11
    assert probes == [inside * 0.5 ** 10, inside * 0.5 ** 11]


@pytest.mark.parametrize("n", [5, 6, 7])
def test_eps_bracket_brackets_admissibility(n, monkeypatch):
    # a fresh probe, the walk down a one-rung ladder, admits eps_ok and
    # refutes eps_bad, 2^(20/4096) apart at most
    ctx = get_context(RunConfig(n=n))
    ok, bad = ctx.eps_bracket["eps_ok"], ctx.eps_bracket["eps_bad"]
    assert ctx.eps_bracket["probes"] == 15
    assert ctx.eps_bracket["reason"] is None
    assert 1.0 < bad / ok <= 1.0034
    monkeypatch.setattr(RunConfig, "eps_max_halvings", 0)
    assert oracles.select_eps_walk(ctx, ok)["eps"] == ok
    with pytest.raises(ConstructionError, match="curvature"):
        oracles.select_eps_walk(ctx, bad)


def test_select_eps_warm_call_probes_only_its_rung(monkeypatch):
    # with no rung of the ladder inside the bracket, select_eps probes the
    # one it returns and no other: two centroid and two curvature calls.
    # find_root then reads c(0) and c(1) back, and still stops where plain
    # bisection does
    ctx = get_context(RunConfig(n=6))
    ok, bad = ctx.eps_bracket["eps_ok"], ctx.eps_bracket["eps_bad"]
    ladder = (RunConfig.eps_start
              * 0.5 ** np.arange(RunConfig.eps_max_halvings + 1))
    assert not np.any((ladder > ok) & (ladder < bad))
    calls = {"centroid": [], "kappa_min": []}
    for name in calls:
        def counted(lam, eps, name=name, method=getattr(ctx, name)):
            calls[name].append(lam)
            return method(lam, eps)
        monkeypatch.setattr(ctx, name, counted)
    eps = ctx.select_eps(RunConfig.eps_start)["eps"]
    assert calls == {"centroid": [0.0, 1.0], "kappa_min": [0.0, 1.0]}
    calls["centroid"].clear()
    root = ctx.find_root(eps)
    assert 0 < len(calls["centroid"]) <= 4
    assert 0.0 not in calls["centroid"] and 1.0 not in calls["centroid"]
    assert root == oracles.find_root_bisect(ctx, eps)


def test_certificate_meta_records_the_eps_bracket(cert5, ctx5):
    # the bracket's ends, probes and seconds go to meta, which verify
    # never reads
    assert cert5["meta"]["eps_bracket"] == ctx5.eps_bracket
    assert cert5["eps0"] <= ctx5.eps_bracket["eps_ok"]


def test_find_root_matches_plain_bisection():
    # the chord bracket settles the bisection's early midpoints without a
    # centroid; lambda0, the iteration count and the centroid at the root
    # must be plain bisection's (tests/oracles.py::find_root_bisect) bit
    # for bit, at the selected eps and at its half and quarter, from
    # RunConfig.eps_start and 20 seeded log-uniform starts at n = 5, 6 and 7,
    # and on a linear centroid
    rng = np.random.default_rng(SEED)
    for n in (5, 6, 7):
        ctx = get_context(RunConfig(n=n))
        starts = 10.0 ** rng.uniform(-4.5, -3.0, 20)
        for eps0 in (RunConfig.eps_start, *starts):
            eps = ctx.select_eps(float(eps0))["eps"]
            for e in (eps, eps / 2, eps / 4):
                assert (ctx.find_root(e)
                        == oracles.find_root_bisect(ctx, e)), (n, eps0, e)
    # a linear centroid, also cut off after 3 midpoints, all of which the
    # bracket settles: the centroid at the root is still evaluated
    ctx = get_context(RunConfig())
    with mock.patch.object(type(ctx), "centroid",
                           lambda self, lam, eps: lam - 0.3):
        assert ctx.find_root(1e-6) == oracles.find_root_bisect(ctx, 1e-6)
        with mock.patch.object(RunConfig, "root_max_iter", 3):
            root = ctx.find_root(1e-6)
            assert root == oracles.find_root_bisect(ctx, 1e-6)
    assert root == {"lambda0": 0.375, "centroid_at_root": 0.375 - 0.3,
                    "iterations": 3}


@pytest.mark.parametrize("n", [5, 6, 7])
def test_find_root_makes_at_most_four_centroid_calls(n, monkeypatch):
    # plain bisection makes 28, 29 and 26 centroid calls at the default
    # eps0; find_root reads both ends back from select_eps, evaluates the
    # chord bracket's 2 and then only the midpoints inside it, where |c|
    # is within tol nearly everywhere
    ctx = get_context(RunConfig(n=n))
    eps = ctx.select_eps(RunConfig.eps_start)["eps"]
    calls = []

    def counted(lam, eps, method=ctx.centroid):
        calls.append(lam)
        return method(lam, eps)
    monkeypatch.setattr(ctx, "centroid", counted)
    root = ctx.find_root(eps)
    assert len(calls) <= 4 < root["iterations"], calls


@pytest.mark.parametrize("n,a", [(5, None), (6, None), (7, None),
                                 (5, 0.3), (6, 0.3)])
def test_find_root_window_never_falls_back(n, a, monkeypatch):
    # the chord's window, 1 + 1/16 times where it predicts |c| <= tol, has
    # c(a) < -tol and c(b) > tol at every seeded warm start, so find_root
    # never bisects (0, 1) with every midpoint evaluated: its first two
    # centroid calls are the window's ends, and it makes at most four.
    # The starts are log-uniform in [1e-4, 2e-3], the benchmark's range
    # cut where n = 7's ladder ends above its bracket
    tol = RunConfig.tolerances["root_abs"]
    ctx = get_context(RunConfig(n=n, a=a))
    calls = []

    def counted(lam, eps, method=ctx.centroid):
        calls.append(method(lam, eps))
        return calls[-1]
    rng = np.random.default_rng(SEED + n)
    for eps0 in 10.0 ** rng.uniform(-4.0, -2.7, 100):
        eps = ctx.select_eps(float(eps0))["eps"]
        calls.clear()
        monkeypatch.setattr(ctx, "centroid", counted)
        ctx.find_root(eps)
        monkeypatch.undo()
        assert calls[0] < -tol and calls[1] > tol, (eps0, calls)
        assert len(calls) <= 4, (eps0, calls)


def test_diameter_nan_fails_the_margin_quietly():
    # at n = 6, lam = 0.3 and eps = 1e-2, rho_b^n + eps phi < 0 at some
    # nodes: the diameter is NaN without a warning, as kappa_report is and
    # as the centroid is None, and the NaN fails margin_positive
    ctx = get_context(RunConfig(n=6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(ctx.diameter(0.3, 1e-2))
        record, sweep = ctx.certify(0.3, 1e-2,
                                    counterexample._mirrored_grid(361))
    assert np.isnan(sweep["min_margin"])
    assert record["checks"]["margin_positive"] is False


def test_benchmark_sweep_operation_matches_the_oracles(cold, monkeypatch):
    # the benchmark's sweep-warm-n6 operation (perfbench/worker.py) on its
    # own inputs (perfbench/inputs.py::sweep_rounds, read without writing
    # under perfbench/): 20 rounds of three operations on one warm n = 6
    # context.  Each passes the benchmark's gates and is held to the slow
    # routes of tests/oracles.py: select_eps to the walk down its ladder,
    # find_root to plain bisection, the centroid at the root to the plain
    # expression, the sweep to a cold context's and its lhs to the series
    # summed one direction at a time, and kappa_min to the longdouble
    # chain rule within its bound
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs",
        Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    ctx = get_context(RunConfig(n=6))
    rounds = inputs.sweep_rounds(1)
    for _ in range(20):
        for size, eps_start in next(rounds):
            sel = ctx.select_eps(eps_start)
            eps = sel["eps"]
            root = ctx.find_root(eps)
            lam = root["lambda0"]
            grid = np.linspace(-1.0, 1.0, size)
            sweep = ctx.identity_sweep(lam, eps, grid)
            kappa_min = ctx.kappa_min(lam, eps)
            assert inputs.sweep_failures(
                {"sweep": sweep, "kappa_min": kappa_min},
                RunConfig.tolerances) == []
            assert sel == oracles.select_eps_walk(ctx, eps_start)
            assert root == oracles.find_root_bisect(ctx, eps)
            assert (oracles.centroid_plain(ctx, lam, eps)
                    == root["centroid_at_root"])
            _assert_same_sweep(sweep, cold(ctx).identity_sweep(lam, eps,
                                                               grid))
            assert np.array_equal(sweep["lhs"],
                                  oracles.unfolded_sweep(ctx, lam, eps, grid))
            phi = [(1.0 - lam) * b + lam * g
                   for b, g in zip(ctx._bq, ctx._gq)]
            ref, bound = _kappa_reference(
                6, oracles.power_jet_plain(6, eps, ctx._rho, phi))
            assert abs(kappa_min - np.min(ref)) <= np.max(bound)


def test_get_context_returns_one_context_per_geometry(ctx5):
    # the context depends on (n, a) alone: the automatic a and the same a
    # asked for by value give one context, neither rebuilt nor copied
    assert get_context(RunConfig()) is get_context(
        RunConfig(n=5, a=ctx5.a)) is ctx5
    assert dataclasses.asdict(RunConfig()) == {"n": 5, "a": None}


def test_get_context_chooses_the_automatic_a_once_per_n(monkeypatch):
    # after one call for n = 5 with a left None, a second makes no
    # curvature pass (auto_select_a takes two) and returns the same context
    ctx = get_context(RunConfig(n=5))

    def refused(*args, **kwargs):
        raise AssertionError("curvature called")

    monkeypatch.setattr(counterexample, "curvature", refused)
    assert get_context(RunConfig(n=5)) is ctx


def test_context_cache_hit_binds_callers_config(ctx5, cert5, tolerance):
    # run_construction hands the package's sweep grid, and the eps
    # ladder's start as it reads it then, to the cached context as arguments
    res = run_construction(RunConfig())
    assert res["context"] is ctx5
    assert res["sweep"]["u_grid"].size == RunConfig.alpha_grid
    with mock.patch.object(RunConfig, "eps_start", 10.0):
        with pytest.raises(ConstructionError, match="after 20 halvings"):
            run_construction(RunConfig())
    assert (ctx5.select_eps(RunConfig.eps_start)["halvings"]
            == cert5["eps_halvings"])
    # and the context reads the package's tolerances when it runs, not
    # when it was built: a root tolerance below the centroid's rounding
    # bisects to root_max_iter
    tolerance("root_abs", 1e-20)
    root = ctx5.find_root(cert5["eps0"])
    assert root["iterations"] == RunConfig.root_max_iter


# certificate


def test_certificate_structure_and_checks(cert5):
    assert cert5["schema"] == "v1"
    assert cert5["valid"] is True
    assert cert5["failures"] == []
    assert all(cert5["checks"].values())
    assert cert5["params"]["n"] == 5
    assert cert5["params"]["a"] == 0.4
    assert 0.0 < cert5["params"]["cap_u0"] < 1.0
    assert "exp(-1/s - 1/(1-s))" in cert5["bump_form"]
    assert "transform_slope_near_equator" not in cert5
    assert "transform_slope_note" not in cert5
    ref = negativity_threshold(5, 0.4)
    assert abs(cert5["negativity_threshold"] - ref) <= 1e-15
    assert cert5["config"] == dataclasses.asdict(RunConfig())
    assert cert5["equator_scan"]["1.00"] == 0.0


# |b_M(+-1)| / max seed and the bump and gap parts of S_M''(0), as
# measured for the sweep's Funk-Hecke form, to two digits; max seed is
# taken with the bump's peaks (_seed_max)
# (at n = 6 and 7 the truncation and the bump part are the projection's
# longdouble rounding amplified by C_k(1): doubling bump_theta_samples
# moves the truncation by 6 % and 0.4 %)
POLE_SERIES = {5: ("8.7e-09", "4.1e-04", "1.9e-05"),
               6: ("6.1e-10", "2.4e-05", "6.7e-06"),
               7: ("4.0e-07", "1.2e-02", "5.4e-07")}


@pytest.mark.parametrize("n", [5, 6, 7])
def test_certificate_records_pole_series(cert5, n):
    # recorded from the longdouble cosine series of b_M, and no check
    cert = cert5 if n == 5 else run_construction(RunConfig(n=n))["certificate"]
    pole = cert["pole_series"]
    got = tuple(f"{pole[k]:.1e}" for k in
                ("truncation_rel", "curvature_bump", "curvature_gap"))
    assert got == POLE_SERIES[n]
    assert pole["curvature_gap"] == 3.0 * cert["lambda0"]
    assert not any("pole_series" in name for name in cert["checks"])


def test_certificate_reproducible_bit_stable(construct_result):
    again = run_construction(RunConfig())["certificate"]
    a = {k: v for k, v in construct_result["certificate"].items() if k != "meta"}
    b = {k: v for k, v in again.items() if k != "meta"}
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_dimension_below_five_rejected():
    with pytest.raises(ValueError, match="n >= 5"):
        RunConfig(n=4).validate()
    with pytest.raises(ValueError, match="n = 3 or 4"):
        run_construction(RunConfig(n=3))
