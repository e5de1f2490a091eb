"""Construction of a convex body of revolution in R^n, n >= 5, whose
centroid is the centroid of exactly one central hyperplane section.

The construction perturbs the flattened ball (make_base_body) by an odd
profile obtained from a one-parameter family of even seeds.  The family
blends a smooth bump supported in the polar caps with an analytic profile
whose transform vanishes at the equator; the blend weight is tuned by
bisection until the centroid of the perturbed body sits at the origin.
At that weight the signed section-centroid function is proportional to
the (nonnegative) blend seed, so the origin-direction section is the only
one whose centroid hits the body centroid.

All heavy spectral work is done once per parameter set and cached in a
ConstructionContext: the bump's transform is expanded in extended
precision to a few thousand Gegenbauer degrees, then evaluated through
dense-grid cubic splines with direct-series spot checks, which keeps the
section sweep honest without per-point series sums.
"""

import copy
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import roots_legendre

from .config import RunConfig, default_tolerances
from .revolution_bodies import (ConvexityReport, RevolutionBody, curvature,
                                make_base_body)
from .spherical_core import (GegenbauerSpectrum, HomogeneousFunction,
                             SphereProfile, _bochner_multipliers_ld,
                             _rolling_accumulate, eval_spectrum,
                             eval_spectrum_deriv, expand, gauss_jacobi,
                             parseval_residual, sphere_area)

__all__ = [
    "ConstructionError", "ConstructionParams", "negativity_threshold",
    "auto_select_a", "make_cap_bump", "make_oblate_gap_profile",
    "make_blend", "make_odd_perturbation", "make_perturbed_body",
    "centroid_functional", "find_root", "section_identity_check",
    "verify_theorem", "run_construction", "get_context",
    "ConstructionContext", "CERTIFICATE_SCHEMA",
]

CERTIFICATE_SCHEMA = "v1"


class ConstructionError(RuntimeError):
    """A precondition of the construction failed numerically."""


@dataclass
class ConstructionParams:
    """Parameters pinning one instance of the construction.

    lam is the blend weight in [0, 1]; eps the perturbation size.
    cap_u0 defaults to u* + cap_margin (1 - u*) with u* the negativity
    threshold of the base body's transform.
    """

    n: int = 5
    a: float = 0.4
    cap_u0: Optional[float] = None
    cap_margin: float = 0.5
    eps: float = 1e-3
    lam: float = 0.5

    def resolve_cap(self) -> float:
        if self.cap_u0 is not None:
            return float(self.cap_u0)
        us = negativity_threshold(self.n, self.a)
        return us + self.cap_margin * (1.0 - us)

    def to_dict(self) -> dict:
        return {"n": self.n, "a": self.a, "cap_u0": self.resolve_cap(),
                "cap_margin": self.cap_margin, "eps": self.eps,
                "lambda": self.lam}


def negativity_threshold(n: int, a: float) -> float:
    """Smallest u0 such that the base body's transform is negative for
    |u| > u0.  Closed form from setting the transform to zero:

        u0^2 = (1 - 2^{2/(n-1)} a^2) / (1 - a^2).
    """
    if n < 5:
        raise ValueError("construction requires dimension n >= 5")
    if not 0 < a < 1:
        raise ValueError("flattening parameter a must lie in (0, 1)")
    arg = (1.0 - 2.0 ** (2.0 / (n - 1)) * a * a) / (1.0 - a * a)
    if not 0.0 < arg < 1.0:
        raise ConstructionError(
            "transform of the base profile has no sign change on (0, 1); "
            "pick a smaller flattening parameter")
    return float(np.sqrt(arg))


def auto_select_a(n: int, config: Optional[RunConfig] = None) -> float:
    """First candidate flattening parameter whose base body passes the
    convexity margin; larger candidates flatten harder and are tried
    first."""
    cfg = config or RunConfig(n=n)
    margin = cfg.tolerances["convexity_margin"]
    for a in cfg.auto_a_candidates:
        if 1 - 2 * a ** (n - 2) <= 0:
            continue
        try:
            negativity_threshold(n, a)
        except ConstructionError:
            continue
        body = make_base_body(n, a)
        rep = curvature(body, grid=cfg.curvature_grid, margin=margin)
        if rep.kappa_min > margin:
            return float(a)
    raise ConstructionError("no candidate flattening parameter is convex "
                            "with the configured margin")


# ---------------------------------------------------------------------------
# profiles

def make_cap_bump(n: int, cap_u0: float) -> SphereProfile:
    """Even C^infinity profile supported on the polar caps |u| > cap_u0.

    On each cap the profile is exp(-1/s - 1/(1-s)) in the rescaled
    variable s = (|u| - cap_u0) / (1 - cap_u0); it vanishes to all orders
    at |u| = cap_u0 and at the poles, peaking at exp(-4) midway.
    """
    if not 0.0 < cap_u0 < 1.0:
        raise ValueError("cap edge must lie strictly inside (0, 1)")
    cap = float(cap_u0)

    def bump(u):
        uu = np.atleast_1d(np.asarray(u))
        s = (np.abs(uu) - cap) / (1.0 - cap)
        out = np.zeros_like(s)
        m = (s > 0) & (s < 1)
        sm = s[m]
        out[m] = np.exp(-1.0 / sm - 1.0 / (1.0 - sm))
        if np.ndim(u) == 0:
            return float(out[0])
        return out

    prof = SphereProfile(n=n, eval=bump, parity="even",
                         smoothness_note="smooth, compact support in caps")
    prof.cap_u0 = cap
    return prof


def make_oblate_gap_profile(n: int) -> SphereProfile:
    """Even analytic profile 1 - (4 - 3u^2)^{-1/2}: gap between the unit
    ball and the inscribed oblate ellipsoid with polar semi-axis 1/2.

    The degree -1 extension has transform c_n (1 - (1 + 3u^2)^{-(n-1)/2}),
    attached as ft_profile with three closed-form derivatives: zero at the
    equator, positive elsewhere.  This one-sided transform is what lets a
    blend weight move the centroid without touching the equator value.
    """
    if n < 5:
        raise ValueError("gap profile used for n >= 5 only")
    cn = float(_bochner_multipliers_ld(n, 1, 0)[0])
    q = (n - 1) / 2.0

    def gap(u):
        u = np.asarray(u)
        return 1.0 - (4.0 - 3.0 * u * u) ** -0.5

    def gap_du(u):
        u = np.asarray(u)
        return -3.0 * u * (4.0 - 3.0 * u * u) ** -1.5

    def gap_du2(u):
        u = np.asarray(u)
        A = 4.0 - 3.0 * u * u
        return -3.0 * A ** -1.5 - 27.0 * u * u * A ** -2.5

    def ft(u):
        u = np.asarray(u)
        return cn * (1.0 - (1.0 + 3.0 * u * u) ** -q)

    def ft_d1(u):
        u = np.asarray(u)
        return 6.0 * q * cn * u * (1.0 + 3.0 * u * u) ** (-q - 1)

    def ft_d2(u):
        u = np.asarray(u)
        B = 1.0 + 3.0 * u * u
        return 6.0 * q * cn * B ** (-q - 2) * (1.0 - 3.0 * (2 * q + 1) * u * u)

    def ft_d3(u):
        u = np.asarray(u)
        B = 1.0 + 3.0 * u * u
        return (-108.0 * q * (q + 1) * cn * u * B ** (-q - 3)
                * (1.0 - (2 * q + 1) * u * u))

    prof = SphereProfile(n=n, eval=gap, parity="even",
                         smoothness_note="analytic",
                         derivs=(gap_du, gap_du2))
    ftprof = SphereProfile(n=n, eval=ft, parity="even",
                           smoothness_note="closed form transform",
                           derivs=(ft_d1, ft_d2, ft_d3))
    ftprof.value_at_zero = 0.0
    prof.ft_profile = ftprof
    return prof


def make_blend(bump: SphereProfile, gap: SphereProfile, lam: float,
               max_degree: Optional[int] = None,
               order: Optional[int] = None) -> HomogeneousFunction:
    """Seed profile (1-lam) bump + lam gap as a degree -1 extension, with
    its transform attached as .ft (a profile with three derivatives).

    The bump part of the transform is spectral (the bump has no closed
    transform); the gap part uses the closed form when the gap carries
    one.  Expanding the bump honestly takes a few thousand degrees, so
    repeated blends at the same geometry should go through a
    ConstructionContext instead.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("blend weight must lie in [0, 1]")
    n = bump.n
    if gap.n != n:
        raise ValueError("profiles live on spheres of different dimension")
    md = RunConfig().bump_max_degree if max_degree is None else max_degree
    qo = order if order is not None else md + RunConfig().bump_quad_pad
    spec = expand(bump, n, md, order=qo, parity="even")
    mu = _bochner_multipliers_ld(n, 1, md)
    co_ld = np.asarray(spec.coeffs, dtype=mu.dtype) * mu
    value0 = float(_rolling_accumulate(co_ld, (n - 2) / 2.0,
                                       np.zeros(1, dtype=mu.dtype))[0])
    spec_ft = GegenbauerSpectrum(n=n, lambda_index=(n - 2) / 2.0,
                                 coeffs=co_ld.astype(np.float64),
                                 parity="even", tail_rel=spec.tail_rel,
                                 truncation_warning=spec.truncation_warning)
    gap_ft = getattr(gap, "ft_profile", None)
    if gap_ft is None:
        raise ValueError("gap profile must carry a transform profile")

    def seed(u):
        return (1.0 - lam) * bump(u) + lam * gap(u)

    def ft_eval(u):
        return ((1.0 - lam) * eval_spectrum(spec_ft, u)
                + lam * gap_ft(u))

    def ft_d(k):
        def d(u):
            return ((1.0 - lam) * eval_spectrum_deriv(spec_ft, u, k)
                    + lam * gap_ft.derivs[k - 1](u))
        return d

    ftprof = SphereProfile(n=n, eval=ft_eval, parity="even",
                           smoothness_note="spectral bump part plus closed "
                                           "gap part",
                           derivs=(ft_d(1), ft_d(2), ft_d(3)))
    ftprof.value_at_zero = (1.0 - lam) * value0
    out = HomogeneousFunction(
        profile=SphereProfile(n=n, eval=seed, parity="even",
                              smoothness_note="blend of bump and gap"),
        degree_p=1.0)
    out.ft = ftprof
    out.lam = float(lam)
    return out


def make_odd_perturbation(ghat: SphereProfile,
                          u_switch: float = 0.05,
                          gl_order: int = 96,
                          equator_rel: float = 1e-8,
                          equator_grid: int = 2001) -> SphereProfile:
    """Odd profile phi with u * phi(u) equal to the even transform ghat
    minus its equator value.

    Requires |ghat(0)| <= equator_rel * max |ghat|; the subtracted equator
    value is recorded on the returned profile.  Away from the equator phi
    is the difference quotient; for |u| < u_switch it is evaluated as
    int_0^1 ghat'(s u) ds (Gauss-Legendre), which is the same function
    without the 0/0 cancellation.  Derivatives for curvature use the
    matching quotient / integral forms.
    """
    if isinstance(ghat, HomogeneousFunction):
        ghat = getattr(ghat, "ft", None) or ghat.profile
    if ghat.derivs is None or len(ghat.derivs) < 3:
        raise TypeError("transform profile needs three attached "
                        "derivatives for the perturbation")
    n = ghat.n
    ug = np.linspace(-1.0, 1.0, equator_grid)
    vals = np.asarray(ghat(ug), dtype=float)
    scale = float(np.max(np.abs(vals)))
    g0 = getattr(ghat, "value_at_zero", None)
    if g0 is None:
        g0 = float(ghat(0.0))
    if abs(g0) > equator_rel * max(scale, 1e-300):
        raise ConstructionError(
            f"transform does not vanish at the equator: |value| {abs(g0):.3e}"
            f" exceeds {equator_rel:.1e} of max {scale:.3e}")
    s_gl, w_gl = roots_legendre(gl_order)
    s01 = 0.5 * (s_gl + 1.0)
    w01 = 0.5 * w_gl

    def split(u):
        uu = np.atleast_1d(np.asarray(u, dtype=float))
        return uu, np.abs(uu) >= u_switch

    def phi(u):
        uu, big = split(u)
        out = np.empty_like(uu)
        ub = uu[big]
        out[big] = (np.asarray(ghat(ub), dtype=float) - g0) / ub
        us = uu[~big]
        if us.size:
            pts = np.outer(s01, us)
            out[~big] = w01 @ np.asarray(ghat.derivs[0](pts), dtype=float)
        if np.ndim(u) == 0:
            return float(out[0])
        return out

    def phi_d1(u):
        uu, big = split(u)
        out = np.empty_like(uu)
        ub = uu[big]
        g = np.asarray(ghat(ub), dtype=float) - g0
        g1 = np.asarray(ghat.derivs[0](ub), dtype=float)
        out[big] = (g1 * ub - g) / ub ** 2
        us = uu[~big]
        if us.size:
            pts = np.outer(s01, us)
            out[~big] = (w01 * s01) @ np.asarray(ghat.derivs[1](pts),
                                                dtype=float)
        if np.ndim(u) == 0:
            return float(out[0])
        return out

    def phi_d2(u):
        uu, big = split(u)
        out = np.empty_like(uu)
        ub = uu[big]
        g = np.asarray(ghat(ub), dtype=float) - g0
        g1 = np.asarray(ghat.derivs[0](ub), dtype=float)
        g2 = np.asarray(ghat.derivs[1](ub), dtype=float)
        out[big] = (g2 * ub ** 2 - 2 * ub * g1 + 2 * g) / ub ** 3
        us = uu[~big]
        if us.size:
            pts = np.outer(s01, us)
            out[~big] = (w01 * s01 ** 2) @ np.asarray(ghat.derivs[2](pts),
                                                     dtype=float)
        if np.ndim(u) == 0:
            return float(out[0])
        return out

    prof = SphereProfile(n=n, eval=phi, parity="odd",
                         smoothness_note="odd part of transform quotient",
                         derivs=(phi_d1, phi_d2))
    prof.equator_subtracted = g0
    prof.u_switch = float(u_switch)
    return prof


def make_perturbed_body(base: RevolutionBody, phi: SphereProfile,
                        eps: float,
                        quad_order: Optional[int] = None) -> RevolutionBody:
    """Body with radial profile (rho_base^n + eps phi)^{1/n}.

    Chosen so that section and centroid integrands, which involve rho^n,
    are exactly linear in eps.  Positivity of rho_base^n + eps phi is
    checked on a dense grid; convexity is the caller's problem (see
    curvature).
    """
    if base.kind != "base":
        raise ValueError("perturbation is defined over the base body")
    if eps < 0:
        raise ValueError("perturbation size must be nonnegative")
    n = base.n
    rho_b = base.rho

    ug = np.linspace(-1.0, 1.0, 4001)
    fmin = np.min(np.asarray(rho_b(ug), dtype=float) ** n
                  + eps * np.asarray(phi(ug), dtype=float))
    if fmin <= 0:
        raise ConstructionError(
            f"rho^n + eps phi reaches {fmin:.3e} <= 0: eps too large")

    def rho(u):
        f = (np.asarray(rho_b(u), dtype=float) ** n
             + eps * np.asarray(phi(u), dtype=float))
        return f ** (1.0 / n)

    derivs = None
    if rho_b.derivs is not None and phi.derivs is not None:
        b1, b2 = rho_b.derivs[0], rho_b.derivs[1]
        p1, p2 = phi.derivs[0], phi.derivs[1]

        def parts(u):
            rb = np.asarray(rho_b(u), dtype=float)
            f = rb ** n + eps * np.asarray(phi(u), dtype=float)
            f1 = (n * rb ** (n - 1) * np.asarray(b1(u), dtype=float)
                  + eps * np.asarray(p1(u), dtype=float))
            return rb, f, f1

        def rho_du(u):
            _, f, f1 = parts(u)
            return (1.0 / n) * f ** (1.0 / n - 1) * f1

        def rho_du2(u):
            rb, f, f1 = parts(u)
            f2 = (n * (n - 1) * rb ** (n - 2)
                  * np.asarray(b1(u), dtype=float) ** 2
                  + n * rb ** (n - 1) * np.asarray(b2(u), dtype=float)
                  + eps * np.asarray(p2(u), dtype=float))
            return ((1.0 / n) * (1.0 / n - 1) * f ** (1.0 / n - 2) * f1 ** 2
                    + (1.0 / n) * f ** (1.0 / n - 1) * f2)

        derivs = (rho_du, rho_du2)

    prof = SphereProfile(n=n, eval=rho, parity="mixed",
                         smoothness_note="base plus odd perturbation",
                         derivs=derivs)
    qo = quad_order
    if qo is None:
        qo = getattr(phi, "recommended_order", None)
    params = dict(base.params)
    params["eps"] = float(eps)
    return RevolutionBody(n=n, rho=prof, kind="perturbed", params=params,
                          quad_order=qo)


# ---------------------------------------------------------------------------
# cached heavy machinery

_CTX_CACHE: dict = {}


def _clears(kappa: float, margin: float) -> bool:
    """Curvature guard: True only for a finite kappa above the margin, so
    NaN or inf from a degenerate profile counts as a violation."""
    return bool(np.isfinite(kappa) and kappa > margin)


class ConstructionContext:
    """Everything expensive about one geometry (n, a, cap_u0), computed
    once: the bump transform's spectrum, dense-grid splines for sweep
    evaluation, and quadrature-node tables that make the centroid and
    curvature of the perturbed family cheap per (lam, eps).
    """

    def __init__(self, n: int, a: float, cap_u0: float, config: RunConfig):
        t_start = time.perf_counter()
        self.config = config
        self.n = int(n)
        self.a = float(a)
        self.cap_u0 = float(cap_u0)
        self.lam_index = (n - 2) / 2.0
        self.cn = float(_bochner_multipliers_ld(n, 1, 0)[0])
        self.base = make_base_body(n, a)
        self.bump = make_cap_bump(n, cap_u0)
        self.gap = make_oblate_gap_profile(n)
        self.u_switch = config.u_switch

        md = config.bump_max_degree
        self.bump_order = md + config.bump_quad_pad
        spec = expand(self.bump, n, md, order=self.bump_order, parity="even")
        self.bump_spectrum = spec
        mu = _bochner_multipliers_ld(n, 1, md)
        co_ld = np.asarray(spec.coeffs, dtype=mu.dtype) * mu
        # equator value of the bump transform in extended precision; the
        # float64 series at 0 would add ~1e-14 relative noise to a value
        # that must cancel exactly in the odd quotient
        self.bump_ft_at_zero = float(
            _rolling_accumulate(co_ld, self.lam_index,
                                np.zeros(1, dtype=mu.dtype))[0])
        self.bump_ft_spectrum = GegenbauerSpectrum(
            n=n, lambda_index=self.lam_index,
            coeffs=co_ld.astype(np.float64), parity="even",
            tail_rel=spec.tail_rel,
            truncation_warning=spec.truncation_warning)

        self._gap_ft = self.gap.ft_profile
        s_gl, w_gl = roots_legendre(config.gl_order)
        self._s01 = 0.5 * (s_gl + 1.0)
        self._w01 = 0.5 * w_gl

        # dense splines of the bump transform and its first derivative,
        # for bulk evaluation in the section sweep
        ud = np.linspace(-1.0, 1.0, config.dense_eval_grid)
        self._spl = [
            CubicSpline(ud, eval_spectrum(self.bump_ft_spectrum, ud)),
            CubicSpline(ud, eval_spectrum_deriv(self.bump_ft_spectrum, ud, 1)),
        ]

        # centroid quadrature: same nodes as the bump expansion, so every
        # retained harmonic is integrated exactly
        q = gauss_jacobi(self.bump_order, (n - 3) / 2)
        self._x = np.asarray(q.nodes, dtype=np.float64)
        self._w = np.asarray(q.weights, dtype=np.float64)
        # latitude slices of S^{n-1} are spheres of dimension n-2
        self._surf = sphere_area(n - 2)
        rho_x = np.asarray(self.base.rho(self._x), dtype=np.float64)
        self._rho_n_x = rho_x ** n
        self._bft_x = eval_spectrum(self.bump_ft_spectrum, self._x)
        self._gft_x = np.asarray(self._gap_ft(self._x), dtype=np.float64)
        self._big_x = np.abs(self._x) >= config.u_switch
        pts = np.outer(self._s01, self._x[~self._big_x])
        self._bft_d1_small_x = eval_spectrum_deriv(self.bump_ft_spectrum,
                                                   pts, 1)
        self._gft_d1_small_x = np.asarray(self._gap_ft.derivs[0](pts),
                                          dtype=np.float64)

        # curvature tables on an inclusive theta grid
        theta = np.linspace(0.0, np.pi, config.curvature_grid)
        self._theta = theta
        ut = np.cos(theta)
        self._ut = ut
        self._st = np.sin(theta)
        self._rho_t = np.asarray(self.base.rho(ut), dtype=np.float64)
        self._rho_t_d1 = np.asarray(self.base.rho.derivs[0](ut),
                                    dtype=np.float64)
        self._rho_t_d2 = np.asarray(self.base.rho.derivs[1](ut),
                                    dtype=np.float64)
        self._bft_t = [eval_spectrum(self.bump_ft_spectrum, ut),
                       eval_spectrum_deriv(self.bump_ft_spectrum, ut, 1),
                       eval_spectrum_deriv(self.bump_ft_spectrum, ut, 2)]
        self._gft_t = [np.asarray(self._gap_ft(ut), dtype=np.float64),
                       np.asarray(self._gap_ft.derivs[0](ut), dtype=np.float64),
                       np.asarray(self._gap_ft.derivs[1](ut), dtype=np.float64)]
        self._big_t = np.abs(ut) >= config.u_switch
        pts_t = np.outer(self._s01, ut[~self._big_t])
        self._bft_t_small = [eval_spectrum_deriv(self.bump_ft_spectrum,
                                                 pts_t, k) for k in (1, 2, 3)]
        self._gft_t_small = [np.asarray(self._gap_ft.derivs[k - 1](pts_t),
                                        dtype=np.float64) for k in (1, 2, 3)]

        # subsphere quadrature for the section sweep; order chosen so the
        # band-limited integrand is integrated without aliasing
        qs = gauss_jacobi(config.section_quad_order, (n - 4) / 2)
        self._ts = np.asarray(qs.nodes, dtype=np.float64)
        self._tw = np.asarray(qs.weights, dtype=np.float64)
        # slices of the section subsphere S^{n-2} are of dimension n-3
        self._subsurf = sphere_area(n - 3)

        eq = np.linspace(-1.0, 1.0, config.equator_grid)
        self._eq_grid = eq
        self._bft_eq = eval_spectrum(self.bump_ft_spectrum, eq)
        self._gft_eq = np.asarray(self._gap_ft(eq), dtype=np.float64)

        self.build_seconds = time.perf_counter() - t_start

    # -- transform of the blended seed ------------------------------------

    def blend_ft_value(self, u, lam: float, k: int = 0):
        """k-th derivative of the blended transform, direct series route."""
        if k == 0:
            b = eval_spectrum(self.bump_ft_spectrum, u)
            g = self._gap_ft(u)
        else:
            b = eval_spectrum_deriv(self.bump_ft_spectrum, u, k)
            g = self._gap_ft.derivs[k - 1](u)
        return (1.0 - lam) * b + lam * np.asarray(g, dtype=np.float64)

    def blend_ft_at_zero(self, lam: float) -> float:
        return (1.0 - lam) * self.bump_ft_at_zero

    def _blend_ft_spline(self, u, lam: float, k: int = 0):
        """Spline route for bulk points; bump part interpolated."""
        return ((1.0 - lam) * self._spl[k](u)
                + lam * np.asarray(self._gap_ft.derivs[k - 1](u)
                                   if k else self._gap_ft(u),
                                   dtype=np.float64))

    def blend(self, lam: float) -> HomogeneousFunction:
        """Seed profile at weight lam with cached transform attached."""
        bump, gap, ctx = self.bump, self.gap, self

        def seed(u):
            return (1.0 - lam) * bump(u) + lam * gap(u)

        def ft_eval(u):
            return ctx.blend_ft_value(u, lam, 0)

        ftprof = SphereProfile(
            n=self.n, eval=ft_eval, parity="even",
            smoothness_note="spectral bump part plus closed gap part",
            derivs=tuple(
                (lambda kk: lambda u: ctx.blend_ft_value(u, lam, kk))(k)
                for k in (1, 2, 3)))
        ftprof.value_at_zero = self.blend_ft_at_zero(lam)
        out = HomogeneousFunction(
            profile=SphereProfile(n=self.n, eval=seed, parity="even",
                                  smoothness_note="blend of bump and gap"),
            degree_p=1.0)
        out.ft = ftprof
        out.lam = float(lam)
        return out

    def perturbation(self, lam: float) -> SphereProfile:
        tol = self.config.tolerances
        prof = make_odd_perturbation(
            self.blend(lam).ft, u_switch=self.config.u_switch,
            gl_order=self.config.gl_order,
            equator_rel=tol["equator_rel"],
            equator_grid=self.config.equator_grid)
        prof.recommended_order = self.bump_order
        return prof

    def perturbed_body(self, lam: float, eps: float) -> RevolutionBody:
        body = make_perturbed_body(self.base, self.perturbation(lam), eps)
        body.params.update({"lambda": float(lam), "n": self.n,
                            "cap_u0": self.cap_u0})
        return body

    def equator_ratio(self, lam: float) -> float:
        """|transform at equator| relative to its max over the grid."""
        vals = (1.0 - lam) * self._bft_eq + lam * self._gft_eq
        scale = float(np.max(np.abs(vals)))
        return abs(self.blend_ft_at_zero(lam)) / max(scale, 1e-300)

    # -- fast per-(lam, eps) functionals ----------------------------------

    def _phi_nodes(self, lam: float) -> np.ndarray:
        g = ((1.0 - lam) * self._bft_x + lam * self._gft_x
             - self.blend_ft_at_zero(lam))
        out = np.empty_like(self._x)
        out[self._big_x] = g[self._big_x] / self._x[self._big_x]
        out[~self._big_x] = self._w01 @ ((1.0 - lam) * self._bft_d1_small_x
                                         + lam * self._gft_d1_small_x)
        return out

    def centroid(self, lam: float, eps: float) -> Optional[float]:
        """Axis centroid of the perturbed body; None if the radial power
        profile loses positivity at the quadrature nodes."""
        if eps == 0.0:
            # unperturbed body: symmetric, so the centroid is exactly 0
            return 0.0
        f = self._rho_n_x + eps * self._phi_nodes(lam)
        if np.any(f <= 0):
            return None
        n = self.n
        vol = self._surf / n * (self._w @ f)
        num = self._surf / (n + 1) * (
            self._w @ (self._x * f ** ((n + 1.0) / n)))
        return float(num / vol)

    def kappa_min(self, lam: float, eps: float) -> float:
        """Minimum meridian curvature of the perturbed body."""
        return self.kappa_report(lam, eps).kappa_min

    def kappa_report(self, lam: float, eps: float) -> ConvexityReport:
        """Meridian curvature report of the perturbed body, from the
        precomputed theta tables (same formula and grid as curvature()),
        held to the configured convexity margin."""
        n = self.n
        big = self._big_t
        ub = self._ut[big]
        gt = [(1.0 - lam) * self._bft_t[k] + lam * self._gft_t[k]
              for k in range(3)]
        g = gt[0][big] - self.blend_ft_at_zero(lam)
        phi = np.empty_like(self._ut)
        ph1 = np.empty_like(self._ut)
        ph2 = np.empty_like(self._ut)
        phi[big] = g / ub
        ph1[big] = (gt[1][big] * ub - g) / ub ** 2
        ph2[big] = (gt[2][big] * ub ** 2 - 2 * ub * gt[1][big] + 2 * g) / ub ** 3
        gd = [(1.0 - lam) * self._bft_t_small[k] + lam * self._gft_t_small[k]
              for k in range(3)]
        phi[~big] = self._w01 @ gd[0]
        ph1[~big] = (self._w01 * self._s01) @ gd[1]
        ph2[~big] = (self._w01 * self._s01 ** 2) @ gd[2]
        rb, rb1, rb2 = self._rho_t, self._rho_t_d1, self._rho_t_d2
        f = rb ** n + eps * phi
        f1 = n * rb ** (n - 1) * rb1 + eps * ph1
        f2 = (n * (n - 1) * rb ** (n - 2) * rb1 ** 2
              + n * rb ** (n - 1) * rb2 + eps * ph2)
        r = f ** (1.0 / n)
        r1 = (1.0 / n) * f ** (1.0 / n - 1) * f1
        r2 = ((1.0 / n) * (1.0 / n - 1) * f ** (1.0 / n - 2) * f1 ** 2
              + (1.0 / n) * f ** (1.0 / n - 1) * f2)
        st, ut = self._st, self._ut
        rp = -st * r1
        rpp = st * st * r2 - ut * r1
        kap = (r * r + 2 * rp * rp - r * rpp) / (r * r + rp * rp) ** 1.5
        i = int(np.argmin(kap))
        kmin = float(kap[i])
        margin = self.config.tolerances["convexity_margin"]
        return ConvexityReport(kappa_min=kmin,
                               argmin_theta=float(self._theta[i]),
                               is_convex=_clears(kmin, margin), margin=margin)

    def seed_value(self, u, lam: float):
        return (1.0 - lam) * self.bump(u) + lam * self.gap(u)

    # -- root finding ------------------------------------------------------

    def select_eps(self, eps0: Optional[float] = None) -> dict:
        """Halve eps until the centroid brackets zero across lam in [0,1]
        and both endpoint bodies stay convex with margin."""
        cfg = self.config
        margin = cfg.tolerances["convexity_margin"]
        eps = cfg.eps if eps0 is None else float(eps0)
        halvings = 0
        while True:
            c0 = self.centroid(0.0, eps)
            c1 = self.centroid(1.0, eps)
            if c0 is None or c1 is None:
                # a non-positive radial power is the hardest failure of
                # the convexity guard: the body does not exist at this
                # eps, so the same halving rescue applies
                reason = "radial power profile loses positivity"
            elif not c0 < 0.0 < c1:
                reason = f"centroid does not bracket zero ({c0}, {c1})"
            elif not (_clears(self.kappa_min(0.0, eps), margin)
                      and _clears(self.kappa_min(1.0, eps), margin)):
                reason = "meridian curvature margin violated"
            else:
                return {"eps": eps, "halvings": halvings,
                        "centroid_at_0": c0, "centroid_at_1": c1}
            if halvings >= cfg.eps_max_halvings:
                raise ConstructionError(
                    f"eps too large: no admissible value after "
                    f"{halvings} halvings (last {eps:.3e}: {reason})")
            eps *= 0.5
            halvings += 1

    def find_root(self, eps: float,
                  bracket: Sequence[float] = (0.0, 1.0)) -> dict:
        """Bisect the blend weight until the centroid is below the root
        tolerance.  The centroid is monotone enough in lam for plain
        bisection; no derivative information is required."""
        cfg = self.config
        tol = cfg.tolerances["root_abs"]
        lo, hi = float(bracket[0]), float(bracket[1])
        clo = self.centroid(lo, eps)
        chi = self.centroid(hi, eps)
        if clo is None or chi is None or not clo < 0.0 < chi:
            raise ConstructionError(
                f"centroid does not change sign over the bracket: "
                f"{clo} vs {chi}")
        mid, cm = lo, clo
        iters = 0
        for iters in range(1, cfg.root_max_iter + 1):
            mid = 0.5 * (lo + hi)
            cm = self.centroid(mid, eps)
            if cm is None:
                raise ConstructionError("positivity lost inside bracket")
            if abs(cm) <= tol:
                break
            if (cm < 0.0) == (clo < 0.0):
                lo, clo = mid, cm
            else:
                hi = mid
        return {"lambda0": float(mid), "centroid_at_root": float(cm),
                "iterations": iters}

    # -- section sweep ------------------------------------------------------

    def identity_sweep(self, lam: float, eps: float,
                       u_grid: Optional[np.ndarray] = None) -> dict:
        """Compare n |section| <centroid, axis> against the closed-form
        multiple of the seed over a grid of section directions.

        Left side: subsphere quadrature of the axis coordinate times
        rho^n over the unit subsphere orthogonal to the direction.  Right
        side: eps (2 pi)^n / pi times the seed at the direction's axis
        coordinate.  Bulk profile values come from the dense splines; a
        random subset is re-evaluated by direct series summation and must
        agree, else the sweep aborts.
        """
        cfg = self.config
        if u_grid is None:
            u_grid = np.linspace(-1.0, 1.0, cfg.alpha_grid)
        u_grid = np.asarray(u_grid, dtype=float)
        n = self.n
        r = np.sqrt(np.maximum(0.0, 1.0 - u_grid ** 2))
        V = r[:, None] * self._ts[None, :]
        flat = V.ravel()
        phi_flat = self._phi_bulk(flat, lam)
        self._spot_check(flat, phi_flat, lam)
        phi_V = phi_flat.reshape(V.shape)
        rho_V = np.asarray(self.base.rho(flat), dtype=np.float64)
        rho_n_V = (rho_V ** n).reshape(V.shape)
        f_V = rho_n_V + eps * phi_V
        lhs = self._subsurf * (((r[:, None] * self._ts[None, :]) * f_V)
                               @ self._tw)
        seed = np.asarray(self.seed_value(u_grid, lam), dtype=float)
        rhs = eps * (2.0 * np.pi) ** n / np.pi * seed
        scale = max(float(np.max(np.abs(rhs))), 1e-300)
        rel = np.abs(lhs - rhs) / scale
        # section centroids for reporting: lhs / (n |section|)
        sec_vol = self._subsurf / (n - 1) * (f_V ** ((n - 1.0) / n)
                                             @ self._tw)
        centroids = lhs / (n * sec_vol)
        centroids_analytic = rhs / (n * sec_vol)
        inner = np.abs(u_grid) < 1.0
        pole = ~inner
        diam = self.diameter(lam, eps)
        margin = float(np.min(centroids[inner]) / diam) if inner.any() else np.nan
        return {
            "u_grid": u_grid,
            "lhs": lhs, "rhs": rhs, "rel_err": rel,
            "centroid_quadrature": centroids,
            "centroid_analytic": centroids_analytic,
            "max_rel_err": float(np.max(rel)),
            "min_margin": margin,
            "pole_abs": float(np.max(np.abs(centroids[pole]))) if pole.any() else 0.0,
            "near_pole_abs": float(min(abs(centroids[1]), abs(centroids[-2])))
                             if u_grid.size > 2 else np.nan,
        }

    def _phi_bulk(self, u: np.ndarray, lam: float) -> np.ndarray:
        out = np.empty_like(u)
        big = np.abs(u) >= self.config.u_switch
        ub = u[big]
        out[big] = (self._blend_ft_spline(ub, lam, 0)
                    - self.blend_ft_at_zero(lam)) / ub
        us = u[~big]
        if us.size:
            pts = np.outer(self._s01, us)
            out[~big] = self._w01 @ self._blend_ft_spline(pts, lam, 1)
        return out

    def _spot_check(self, u: np.ndarray, phi_bulk: np.ndarray, lam: float):
        """Re-evaluate a random subset by direct series summation; the
        spline route must agree to a tenth of the identity tolerance."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        k = min(200, u.size)
        idx = rng.choice(u.size, size=k, replace=False)
        direct = self._phi_direct(u[idx], lam)
        scale = max(float(np.max(np.abs(phi_bulk))), 1e-300)
        err = float(np.max(np.abs(phi_bulk[idx] - direct))) / scale
        tol = cfg.tolerances["identity_rel"] / 10.0
        if err > tol:
            raise ConstructionError(
                f"spline evaluation disagrees with direct series: "
                f"rel {err:.3e} > {tol:.1e}")

    def _phi_direct(self, u: np.ndarray, lam: float) -> np.ndarray:
        out = np.empty_like(u)
        big = np.abs(u) >= self.config.u_switch
        ub = u[big]
        out[big] = (self.blend_ft_value(ub, lam, 0)
                    - self.blend_ft_at_zero(lam)) / ub
        us = u[~big]
        if us.size:
            pts = np.outer(self._s01, us)
            out[~big] = self._w01 @ self.blend_ft_value(pts, lam, 1)
        return out

    def diameter(self, lam: float, eps: float) -> float:
        """Max over the theta grid of rho(u) + rho(-u) (axial symmetry
        makes antipodal pairs along meridians the extremal chords)."""
        phi_t = self._phi_theta_values(lam)
        f = self._rho_t ** self.n + eps * phi_t
        r = f ** (1.0 / self.n)
        return float(np.max(r + r[::-1]))

    def _phi_theta_values(self, lam: float) -> np.ndarray:
        big = self._big_t
        gt0 = (1.0 - lam) * self._bft_t[0] + lam * self._gft_t[0]
        g = gt0[big] - self.blend_ft_at_zero(lam)
        out = np.empty_like(self._ut)
        out[big] = g / self._ut[big]
        gd = ((1.0 - lam) * self._bft_t_small[0]
              + lam * self._gft_t_small[0])
        out[~big] = self._w01 @ gd
        return out


def get_context(config: Optional[RunConfig] = None,
                params: Optional[ConstructionParams] = None) -> ConstructionContext:
    """Context for (n, a, cap_u0) bound to the given configuration.

    The tables are cached across calls, keyed on the settings they are
    built from; a cache hit returns a shallow copy that shares them but
    carries the caller's configuration for everything read per call
    (eps, halving budget, tolerances, sweep grid, spot-check seed).
    """
    cfg = config or RunConfig()
    cfg.validate()
    if params is not None:
        n, a = params.n, params.a
        cap = params.resolve_cap()
    else:
        n = cfg.n
        a = cfg.a if cfg.a is not None else auto_select_a(n, cfg)
        us = negativity_threshold(n, a)
        cap = us + cfg.cap_margin * (1.0 - us)
    key = (n, a, cap, cfg.bump_max_degree, cfg.bump_quad_pad,
           cfg.dense_eval_grid, cfg.section_quad_order, cfg.u_switch,
           cfg.gl_order, cfg.curvature_grid, cfg.equator_grid)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        ctx = _CTX_CACHE[key] = ConstructionContext(n, a, cap, cfg)
        return ctx
    ctx = copy.copy(ctx)
    ctx.config = cfg
    return ctx


# ---------------------------------------------------------------------------
# public functionals

def centroid_functional(params: ConstructionParams,
                        config: Optional[RunConfig] = None) -> float:
    """Axis centroid of the perturbed body at the given parameters.

    Odd perturbations move the centroid along the axis only; this scalar
    is the full story.  Raises if eps breaks positivity.
    """
    ctx = get_context(config, params)
    c = ctx.centroid(params.lam, params.eps)
    if c is None:
        raise ConstructionError("radial power profile loses positivity: "
                                "eps too large")
    return c


def find_root(params: Optional[ConstructionParams] = None,
              config: Optional[RunConfig] = None) -> dict:
    """Blend weight at which the centroid vanishes, with the eps used.

    Halves eps first if the sign bracket or the convexity margin fails at
    the endpoints, then bisects.  Returns lambda0, centroid_at_root,
    iterations, eps, halvings and the endpoint centroids.
    """
    if params is None:
        ctx = get_context(config)
        eps_start = (config or RunConfig()).eps
    else:
        ctx = get_context(config, params)
        eps_start = params.eps
    sel = ctx.select_eps(eps_start)
    root = ctx.find_root(sel["eps"])
    root.update(eps=sel["eps"], halvings=sel["halvings"],
                centroid_at_0=sel["centroid_at_0"],
                centroid_at_1=sel["centroid_at_1"])
    return root


def section_identity_check(body: RevolutionBody,
                           params: ConstructionParams,
                           u_grid: Optional[np.ndarray] = None,
                           config: Optional[RunConfig] = None) -> float:
    """Max relative gap between quadrature section centroids of the
    perturbed body and their closed-form prediction over a direction grid.

    The body must be the perturbed body for params (checked on a sample);
    the sweep itself re-derives profile values from the cached spectral
    data, with direct-series spot checks.
    """
    if body.kind != "perturbed":
        raise ValueError("identity holds for the perturbed body")
    ctx = get_context(config, params)
    us = np.linspace(-0.9, 0.9, 7)
    mine = ctx.perturbed_body(params.lam, params.eps).rho(us)
    theirs = np.asarray(body.rho(us), dtype=float)
    if np.max(np.abs(mine - theirs)) > 1e-12 * np.max(np.abs(theirs)):
        raise ValueError("body does not match the given parameters")
    sweep = ctx.identity_sweep(params.lam, params.eps, u_grid)
    return sweep["max_rel_err"]


def verify_theorem(config: Optional[RunConfig] = None,
                   return_context: bool = False):
    """Run the full construction and return a certificate dict.

    Pipeline: pick the geometry, expand the bump transform, halve eps to
    an admissible size, bisect the blend weight to put the centroid at
    the origin, then check everything the claim needs: convexity of base
    and perturbed bodies, the section-centroid identity along the sweep,
    equator residuals, a transform-pairing residual, and pole sections.
    The certificate records every residual with the tolerance it was held
    to, and valid is True only if all of them pass.
    """
    res = run_construction(config)
    if return_context:
        return res["certificate"], res["context"]
    return res["certificate"]


def run_construction(config: Optional[RunConfig] = None) -> dict:
    """verify_theorem plus the intermediate objects (context, sweep,
    perturbed body) for callers that emit data files."""
    t0 = time.perf_counter()
    cfg = config or RunConfig()
    cfg.validate()
    ctx = get_context(cfg)
    tol = cfg.tolerances

    sel = ctx.select_eps(cfg.eps)
    eps0 = sel["eps"]
    root = ctx.find_root(eps0)
    lam0 = root["lambda0"]

    sweep = ctx.identity_sweep(lam0, eps0)

    body = ctx.perturbed_body(lam0, eps0)
    rep_base = curvature(ctx.base, grid=cfg.curvature_grid,
                         margin=tol["convexity_margin"])
    rep_pert = ctx.kappa_report(lam0, eps0)

    eq_scan = {lam: ctx.equator_ratio(lam)
               for lam in (0.0, 0.25, 0.5, 0.75, 1.0)}
    eq_rel0 = ctx.equator_ratio(lam0)
    eq_abs0 = abs(ctx.blend_ft_at_zero(lam0))

    ext_base = HomogeneousFunction(profile=ctx.base.rho, degree_p=1.0)
    ext_gap = HomogeneousFunction(profile=ctx.gap, degree_p=float(ctx.n - 1))
    pv = parseval_residual(ext_base, ext_gap, max_degree=cfg.max_degree,
                           order=cfg.quad_order)

    # observed slope of the blended transform near the equator (recorded,
    # not asserted; the construction only needs grid values)
    ueq = np.linspace(-0.1, 0.1, 201)
    slope_max = float(np.max(np.abs(ctx.blend_ft_value(ueq, lam0, 1))))

    diam = ctx.diameter(lam0, eps0)
    params = ConstructionParams(n=ctx.n, a=ctx.a, cap_u0=ctx.cap_u0,
                                cap_margin=cfg.cap_margin, eps=eps0,
                                lam=lam0)

    checks = {
        "lambda0_interior": 0.0 < lam0 < 1.0,
        "root_within_tolerance": abs(root["centroid_at_root"]) <= tol["root_abs"],
        "bracket_sign_change": sel["centroid_at_0"] < 0.0 < sel["centroid_at_1"],
        "base_convex": _clears(rep_base.kappa_min, tol["convexity_margin"]),
        "perturbed_convex": rep_pert.is_convex,
        "identity_within_tolerance": sweep["max_rel_err"] <= tol["identity_rel"],
        "margin_positive": sweep["min_margin"] > 0.0,
        "pole_sections_zero": sweep["pole_abs"] <= tol["pole_section_abs"],
        "equator_within_tolerance": eq_rel0 <= tol["equator_rel"],
        "pairing_within_tolerance": pv <= tol["parseval_rel"],
    }
    failures = sorted(name for name, ok in checks.items() if not ok)

    cert = {
        "schema": CERTIFICATE_SCHEMA,
        "params": params.to_dict(),
        "bump_form": "exp(-1/s - 1/(1-s)) on s = (|u| - cap_u0)/(1 - cap_u0)",
        "lambda0": lam0,
        "eps0": eps0,
        "centroid_at_root": root["centroid_at_root"],
        "root_iterations": root["iterations"],
        "eps_halvings": sel["halvings"],
        "bracket": {"centroid_at_0": sel["centroid_at_0"],
                    "centroid_at_1": sel["centroid_at_1"]},
        "kappa_min_base": rep_base.kappa_min,
        "kappa_min_perturbed": rep_pert.kappa_min,
        "kappa_argmin_theta": rep_pert.argmin_theta,
        "min_section_margin": sweep["min_margin"],
        "diameter": diam,
        "equator_residual": eq_abs0,
        "equator_residual_rel": eq_rel0,
        "equator_scan": {f"{k:.2f}": v for k, v in eq_scan.items()},
        "parseval_residual": pv,
        "identity_max_relerr": sweep["max_rel_err"],
        "pole_section_abs": sweep["pole_abs"],
        "near_pole_section_abs": sweep["near_pole_abs"],
        "transform_slope_near_equator": slope_max,
        "transform_slope_note": "grid-verified",
        "negativity_threshold": negativity_threshold(ctx.n, ctx.a),
        "config": cfg.to_dict(),
        "grids": {
            "bump_max_degree": cfg.bump_max_degree,
            "bump_quad_order": ctx.bump_order,
            "dense_eval_grid": cfg.dense_eval_grid,
            "section_quad_order": cfg.section_quad_order,
            "alpha_grid": cfg.alpha_grid,
            "curvature_grid": cfg.curvature_grid,
            "equator_grid": cfg.equator_grid,
            "gl_order": cfg.gl_order,
            "u_switch": cfg.u_switch,
        },
        "tolerances": dict(tol),
        "checks": checks,
        "valid": not failures,
        "failures": failures,
        "meta": {
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "runtime_seconds": round(time.perf_counter() - t0
                                     + ctx.build_seconds, 3),
        },
    }
    return {"certificate": cert, "context": ctx, "sweep": sweep,
            "body": body, "root": root, "selection": sel}
