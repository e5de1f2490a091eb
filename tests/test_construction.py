import json
from unittest import mock

import numpy as np
import pytest

from centroid_sections import (ConstructionError, ConstructionParams,
                               HomogeneousFunction, RunConfig, curvature,
                               find_root, get_context, make_base_body,
                               make_blend, make_cap_bump,
                               make_oblate_gap_profile, make_odd_perturbation,
                               make_perturbed_body, negativity_threshold,
                               run_construction, section_centroid_axis,
                               section_identity_check, section_volume,
                               sphere_integral)

from oracles import SEED, bisect_sign_change, fd_deriv

C5 = 16.0 * np.pi ** 2


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


def test_gap_transform_derivatives_match_fd():
    ft = make_oblate_gap_profile(5).ft_profile
    u = np.array([-0.6, -0.15, 0.2, 0.7])
    for k in (1, 2, 3):
        got = ft.derivs[k - 1](u)
        ref = fd_deriv(ft, u, k, h=1e-3)
        scale = max(float(np.max(np.abs(ref))), 1.0)
        assert np.max(np.abs(got - ref)) <= 1e-5 * scale


# blend


def test_blend_endpoints():
    bump = make_cap_bump(5, 0.98)
    gap = make_oblate_gap_profile(5)
    for lam, ref in ((0.0, bump), (1.0, gap)):
        blend = make_blend(bump, gap, lam)
        u = np.linspace(-1.0, 1.0, 41)
        assert np.max(np.abs(blend.profile(u) - ref(u))) <= 1e-14
        assert blend.degree_p == 1.0


def test_blend_transform_linearity(ctx5):
    lam = 0.3
    u = np.array([-0.9, -0.4, 0.1, 0.6, 0.999])
    mixed = np.array([ctx5.blend_ft_value(v, lam) for v in u])
    ends = np.array([(1.0 - lam) * ctx5.blend_ft_value(v, 0.0)
                     + lam * ctx5.blend_ft_value(v, 1.0) for v in u])
    scale = np.max(np.abs(ends))
    assert np.max(np.abs(mixed - ends)) <= 1e-12 * scale


def test_blend_pairing_changes_sign(ctx5):
    base_ft = ctx5.base.ft_profile

    def pairing(lam):
        blend = ctx5.blend(lam)
        return sphere_integral(lambda u: base_ft(u) * blend.profile(u), 5)

    assert pairing(0.0) < 0.0 < pairing(1.0)


@pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_equator_vanishing(ctx5, lam):
    assert ctx5.equator_ratio(lam) <= 1e-8


# odd perturbation from an even transform


def test_odd_perturbation_polynomial_case():
    # quadratic transform: phi must be exactly the identity map
    from centroid_sections import SphereProfile

    quad = SphereProfile(5, lambda u: np.asarray(u, float) ** 2, parity="even",
                         derivs=(lambda u: 2.0 * np.asarray(u, float),
                                 lambda u: np.full_like(np.asarray(u, float), 2.0),
                                 lambda u: np.zeros_like(np.asarray(u, float))))
    quad.value_at_zero = 0.0
    phi = make_odd_perturbation(quad, u_switch=0.05)
    u = np.array([-0.9, -0.3, -0.04, -1e-4, 0.0, 1e-4, 0.04, 0.3, 0.9])
    assert np.max(np.abs(phi(u) - u)) <= 1e-12
    assert phi(0.0) == 0.0
    d1 = phi.derivs[0](u)
    assert np.max(np.abs(d1 - 1.0)) <= 1e-10


def test_odd_perturbation_branch_consistency(ctx5, cert5):
    # around the shipped switch point 0.05 the difference-quotient and
    # integral branches must hand off seamlessly
    lam0 = cert5["lambda0"]
    ghat = ctx5.blend(lam0).ft
    narrow = make_odd_perturbation(ghat, u_switch=0.04)
    wide = make_odd_perturbation(ghat, u_switch=0.06)
    u = np.concatenate([np.linspace(0.045, 0.055, 21),
                        -np.linspace(0.045, 0.055, 21)])
    a = narrow(u)  # direct branch everywhere here
    b = wide(u)    # integral branch everywhere here
    scale = np.max(np.abs(a))
    assert np.max(np.abs(a - b)) <= 1e-9 * scale


def test_odd_perturbation_rejects_nonvanishing_equator():
    from centroid_sections import SphereProfile

    shifted = SphereProfile(5, lambda u: np.asarray(u, float) ** 2 + 0.3,
                            parity="even",
                            derivs=(lambda u: 2.0 * np.asarray(u, float),
                                    lambda u: np.full_like(np.asarray(u, float), 2.0),
                                    lambda u: np.zeros_like(np.asarray(u, float))))
    shifted.value_at_zero = 0.3
    with pytest.raises(ConstructionError):
        make_odd_perturbation(shifted)


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


def test_perturbed_body_rejects_huge_eps(ctx5):
    with pytest.raises(ConstructionError):
        make_perturbed_body(ctx5.base, ctx5.perturbation(1.0), 1e3)


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


def test_centroid_functional_wrapper(ctx5, cert5):
    params = ConstructionParams(n=5, a=0.4, lam=cert5["lambda0"],
                                eps=cert5["eps0"])
    val = __import__("centroid_sections").centroid_functional(params)
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
    res = find_root(config=RunConfig())
    assert abs(res["lambda0"] - cert5["lambda0"]) <= 1e-15
    assert res["eps"] == cert5["eps0"]


# section-centroid identity


def test_identity_zero_eps_both_sides_vanish(ctx5):
    sweep = ctx5.identity_sweep(0.5, 0.0)
    assert np.max(np.abs(sweep["lhs"])) <= 1e-12
    assert np.all(sweep["rhs"] == 0.0)


def test_identity_shipped_run(construct_result):
    sweep = construct_result["sweep"]
    assert sweep["max_rel_err"] <= 1e-6
    assert sweep["max_rel_err"] <= 5e-8  # regression band around 1.1e-8
    assert sweep["min_margin"] > 0.0
    assert sweep["pole_abs"] == 0.0


def test_identity_poles_exactly_zero(construct_result):
    body = construct_result["body"]
    for u_xi in (-1.0, 1.0):
        assert abs(section_centroid_axis(body, u_xi)) <= 1e-12


def test_identity_at_spec_parameters():
    # fixed mid-range parameters, equatorial direction: the quadrature
    # route and the seed-series route must agree and stay positive
    params = ConstructionParams(n=5, a=0.3, lam=0.5, eps=1e-3)
    ctx = get_context(params=params)
    body = ctx.perturbed_body(0.5, 1e-3)
    got = section_centroid_axis(body, 0.0)
    assert got > 0.0
    seed = ctx.seed_value(0.0, 0.5)
    expected = 1e-3 * (2.0 * np.pi) ** 5 / np.pi * seed / (
        5.0 * section_volume(body, 0.0))
    assert abs(got - expected) <= 1e-6 * abs(expected)
    # the seed at the equator is the gap value scaled by the blend weight
    assert abs(seed - 0.5 * 0.5) <= 1e-8


def test_identity_check_public_wrapper(construct_result, cert5):
    body = construct_result["body"]
    params = ConstructionParams(n=5, a=0.4, cap_u0=cert5["params"]["cap_u0"],
                                lam=cert5["lambda0"], eps=cert5["eps0"])
    err = section_identity_check(body, params)
    assert err <= 1e-6


def test_identity_check_rejects_foreign_body(cert5):
    params = ConstructionParams(n=5, a=0.4, lam=cert5["lambda0"],
                                eps=cert5["eps0"])
    with pytest.raises(ValueError):
        section_identity_check(make_base_body(5, 0.4), params)


# convexity of the perturbed body


def test_kappa_min_tracks_base_as_eps_vanishes(ctx5):
    base_kappa = curvature(ctx5.base).kappa_min
    eps_values = (1e-3, 1e-4, 1e-5)
    devs = [abs(ctx5.kappa_min(1.0, e) - base_kappa) for e in eps_values]
    assert devs[0] > devs[1] > devs[2]
    fitted = devs[0] / eps_values[0]
    for e, d in zip(eps_values[1:], devs[1:]):
        assert d <= 1.5 * fitted * e


def test_perturbed_body_convex_at_root(construct_result, cert5):
    # the certificate's curvature comes from the context tables; the
    # generic pass over the perturbed body must give the same bits
    rep = curvature(construct_result["body"])
    assert rep.kappa_min > 0.0
    assert rep.kappa_min == cert5["kappa_min_perturbed"]
    assert rep.argmin_theta == cert5["kappa_argmin_theta"]


def test_perturbed_curvature_matches_generic_pass_n6():
    res = run_construction(RunConfig(n=6))
    cert = res["certificate"]
    rep = curvature(res["body"])
    assert rep.kappa_min > 0.0
    assert rep.kappa_min == cert["kappa_min_perturbed"]
    assert rep.argmin_theta == cert["kappa_argmin_theta"]


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
        ctx5.select_eps()


def test_context_cache_hit_binds_callers_config(ctx5, cert5):
    cfg = RunConfig(eps_max_halvings=0, seed=7, alpha_grid=361)
    cfg.tolerances["root_abs"] = 1e-20
    ctx = get_context(cfg)
    assert ctx.config is cfg and ctx5.config is not cfg
    # the sweep grid is not a build input: the tables are shared
    assert ctx.bump_ft_spectrum is ctx5.bump_ft_spectrum
    assert ctx._x is ctx5._x
    with pytest.raises(ConstructionError, match="after 0 halvings"):
        ctx.select_eps()
    assert ctx5.select_eps()["halvings"] == cert5["eps_halvings"]


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
    assert cert5["transform_slope_note"] == "grid-verified"
    assert cert5["transform_slope_near_equator"] > 0.0
    ref = negativity_threshold(5, 0.4)
    assert abs(cert5["negativity_threshold"] - ref) <= 1e-15
    assert cert5["config"] == RunConfig().to_dict()
    assert cert5["equator_scan"]["1.00"] == 0.0


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
