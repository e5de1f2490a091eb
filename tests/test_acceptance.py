"""End-to-end acceptance gate.

One test per shipped guarantee; each line of ``pytest -v`` output is the
pass/fail record for that guarantee.  Tolerances and runtime budgets are
spelled out as literals next to the assertions they govern.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import special

from centroid_sections import (GegenbauerSpectrum, SphereProfile,
                               auto_select_a, bochner_multiplier,
                               bisected_chords, eval_spectrum,
                               ft_homogeneous, make_base_body,
                               make_oblate_gap_profile, polygon_body,
                               radial_body)
from centroid_sections.spherical_core import parseval_residual

from oracles import (SEED, ft_via_radon, mc_membership, random_convex_hull,
                     volume)

C5 = 16.0 * np.pi ** 2


def _even(n, fn):
    return SphereProfile(n, fn, parity="even")


def _const(n):
    return _even(n, lambda u: np.ones_like(np.asarray(u, float)))


def _bandlimited(n, rng, degree=16):
    lam = (n - 2) / 2.0
    m = np.arange(degree + 1)
    coeffs = rng.standard_normal(degree + 1) * np.exp(-0.35 * m)
    coeffs[m % 2 == 1] = 0.0
    s = GegenbauerSpectrum(n=n, lambda_index=lam, coeffs=coeffs,
                           parity="even")
    return SphereProfile(n, lambda u: eval_spectrum(s, u), parity="even")


def test_c01_multiplier_constant_anchor():
    """Degree-0 multiplier equals the closed-form surface constant,
    n = 5..10, within 1e-12 relative; under one second."""
    t0 = time.perf_counter()
    for n in range(5, 11):
        expected = (2.0 ** (n - 1) * np.pi ** ((n - 1) / 2.0)
                    * special.gamma((n - 1) / 2.0))
        assert abs(bochner_multiplier(0, 1, n) - expected) <= 1e-12 * expected
    assert abs(bochner_multiplier(0, 1, 5) - C5) <= 1e-12 * C5
    assert time.perf_counter() - t0 < 1.0


def test_c02_base_profile_transform_closed_form():
    """Numeric transform of the shipped flattened-ball profile matches
    its closed form to 1e-7 on 1001 points and hits the exact negative
    pole value to 1e-9 relative; under five seconds."""
    t0 = time.perf_counter()
    body = make_base_body(5, auto_select_a(5))
    g = ft_homogeneous(body.rho, 1.0, max_degree=160)
    u = np.linspace(-1.0, 1.0, 1001)
    ref = body.ft_profile(u)
    assert np.max(np.abs(eval_spectrum(g, u) - ref)
                  / np.max(np.abs(ref))) <= 1e-7
    for pole in (-1.0, 1.0):
        assert abs(eval_spectrum(g, pole) + C5) <= 1e-9 * C5
    assert time.perf_counter() - t0 < 5.0


def test_c03_transform_route_agreement():
    """Subsphere-average route equals the spectral route to 1e-7 on the
    shipped even profiles, and maps the constant to 2*pi^3 within 1e-10;
    under five seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    gap = make_oblate_gap_profile(5)
    ghat = ft_homogeneous(gap, 1.0, max_degree=120)
    profiles = [_const(5),
                _even(5, lambda u: np.asarray(u, float) ** 2),
                _bandlimited(5, rng),
                _even(5, lambda u: eval_spectrum(ghat, u))]
    u = np.linspace(-1.0, 1.0, 50)
    for prof in profiles:
        vals = eval_spectrum(ft_homogeneous(prof, 4.0, max_degree=120), u)
        scale = np.max(np.abs(vals))
        for i, u_xi in enumerate(u):
            assert abs(ft_via_radon(prof, 4.0, u_xi) - vals[i]) <= 1e-7 * scale
    expected = 2.0 * np.pi ** 3
    got = ft_via_radon(_const(5), 4.0, 0.3)
    assert abs(got - expected) <= 1e-10 * expected
    assert time.perf_counter() - t0 < 5.0


def test_c04_parseval_suite():
    """Symmetric-pairing residual at most 1e-8 for the flattened-ball /
    gap-extension pair and for 20 seeded band-limited pairs; under ten
    seconds."""
    t0 = time.perf_counter()
    body = make_base_body(5, auto_select_a(5))
    gap = make_oblate_gap_profile(5)
    assert parseval_residual(body.rho, gap, 1.0, max_degree=160) <= 1e-8
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        f = _bandlimited(5, rng)
        g = _bandlimited(5, rng)
        assert parseval_residual(f, g, 1.0, max_degree=60) <= 1e-8
    assert time.perf_counter() - t0 < 10.0


def test_c05_gap_transform_positive():
    """The gap profile's transform is nonnegative (min over 2001 points
    above -1e-9 * C5), vanishes at the equator, and equals 15*pi^2 at
    the poles to 1e-9 relative."""
    gap = make_oblate_gap_profile(5)
    ghat = ft_homogeneous(gap, 1.0, max_degree=160)
    u = np.linspace(-1.0, 1.0, 2001)
    vals = eval_spectrum(ghat, u)
    assert np.min(vals) >= -1e-9 * C5
    assert abs(eval_spectrum(ghat, 0.0)) <= 1e-9 * C5
    expected = 15.0 * np.pi ** 2
    for pole in (-1.0, 1.0):
        assert abs(eval_spectrum(ghat, pole) - expected) <= 1e-9 * expected


def test_c06_blend_transform_vanishes_at_equator(ctx5):
    """For every blend weight in {0, .25, .5, .75, 1} the blended
    transform at the equator is at most 1e-8 times its sup norm."""
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert ctx5.equator_ratio(lam) <= 1e-8


@pytest.mark.parametrize("n,budget", [(5, 60.0), (6, 120.0), (7, 120.0)])
def test_c07_construction_certificate(n, budget, tmp_path, subprocess_env):
    """A cold-cache CLI construction run succeeds within budget and its
    certificate pins the root inside (0,1), a centroid residual at most
    1e-12, positive curvature, the section identity to 1e-6 over the
    721-point sweep and a positive off-pole margin."""
    out = tmp_path / f"n{n}"
    t0 = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "centroid_sections.cli", "construct",
         "--n", str(n), "--outdir", str(out)], env=subprocess_env,
        capture_output=True, text=True, timeout=budget + 30.0)
    wall = time.perf_counter() - t0
    assert res.returncode == 0, res.stderr
    assert wall <= budget
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["valid"] is True
    assert 0.0 < cert["lambda0"] < 1.0
    assert abs(cert["centroid_at_root"]) <= 1e-12
    assert cert["kappa_min_perturbed"] > 0.0
    assert cert["config"] == {"n": n, "a": None}
    assert cert["grids"]["alpha_grid"] == 721
    assert cert["identity_max_relerr"] <= 1e-6
    assert cert["min_section_margin"] > 0.0


def test_c08_centroid_brackets_zero(ctx5, cert5):
    """At the shipped perturbation size the axis centroid is negative at
    blend weight 0 and positive at blend weight 1."""
    eps0 = cert5["eps0"]
    assert ctx5.centroid(0.0, eps0) < 0.0 < ctx5.centroid(1.0, eps0)
    assert cert5["bracket"]["centroid_at_0"] < 0.0
    assert cert5["bracket"]["centroid_at_1"] > 0.0


def test_c09_planar_suite():
    """Equilateral triangle: exactly three bisected-chord directions,
    each parallel to a side within 1e-8 rad.  Centered ellipse: every
    chord bisected.  100 seeded random convex polygons: odd count, at
    least three.  Under ten seconds."""
    t0 = time.perf_counter()
    tri = polygon_body([(0.0, 0.0), (2.0, 0.0), (1.0, np.sqrt(3.0))])
    res = bisected_chords(tri)
    assert res["count"] == 3
    got = np.sort(np.asarray(res["directions"]))
    want = np.array([0.0, np.pi / 3.0, 2.0 * np.pi / 3.0])
    assert np.max(np.abs(got - want)) <= 1e-8

    def ellipse(t):
        t = np.asarray(t, float)
        return 2.0 / np.sqrt(np.cos(t) ** 2 + 4.0 * np.sin(t) ** 2)

    assert bisected_chords(radial_body(ellipse))["symmetric_all"] is True

    rng = np.random.default_rng(SEED)
    for _ in range(100):
        res = bisected_chords(polygon_body(random_convex_hull(rng)))
        assert res["count"] >= 3 and res["count"] % 2 == 1
    assert time.perf_counter() - t0 < 10.0


def test_c10_monte_carlo_oracle(ctx5):
    """10^7-sample membership Monte-Carlo reproduces the quadrature
    volume and the (zero) axis centroid of the base body within three
    standard errors."""
    body = ctx5.base
    vol, vol_sigma, cen, cen_sigma = mc_membership(5, body.rho,
                                                   samples=10 ** 7)
    assert abs(volume(body) - vol) <= 3.0 * vol_sigma
    assert abs(cen) <= 3.0 * cen_sigma
