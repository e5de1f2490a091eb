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
precision to a few thousand Gegenbauer degrees, from one FFT of its
samples in theta, and divided by u once.  That quotient, and the bump's
own series, whose coefficients are the transform's over its multipliers,
are converted in extended precision into cosine series in theta =
arccos u, which every float64 sum reads: the perturbed body's centroid
and curvature by FFTs on theta nodes, the perturbation phi and the
section sweep by block angle addition (spherical_core._cosine_sum).  The
sweep needs no section quadrature: by Funk-Hecke its left side is a
multiple of the bump's own series (identity_sweep).  The gap's transform
has a closed form, and so has its quotient by u (_gap_quotient).
get_context returns the context; its methods are the
per-(lam, eps) functionals (centroid, kappa_report, select_eps,
find_root, identity_sweep, certify), and run_construction chains them
into the certificate.  The context is also the only producer of the odd
perturbation phi = (ghat(u) - ghat(0)) / u of the blended transform ghat
and of the perturbed body (rho_base^n + eps phi)^{1/n}: perturbation and
perturbed_body.
"""

import time
from dataclasses import asdict
from functools import partial
from typing import Optional

import numpy as np

from .config import ConstructionError, RunConfig
from .revolution_bodies import (ConvexityReport, RevolutionBody, _clears,
                                _meridian_report, _theta_jet, curvature,
                                make_base_body)
from .spherical_core import (LD, GegenbauerSpectrum, SphereProfile,
                             _accumulate_at_zero, _bochner_multipliers_ld,
                             _cosine_coeffs, _cosine_sum, _divide_by_u,
                             _uniform_rule, bochner_multiplier, eval_spectrum,
                             ft_homogeneous, sphere_area)

__all__ = [
    "ConstructionError", "negativity_threshold",
    "auto_select_a", "make_cap_bump", "make_oblate_gap_profile",
    "run_construction", "get_context", "ConstructionContext",
    "CERTIFICATE_SCHEMA",
]

CERTIFICATE_SCHEMA = "v1"

# the derivatives of the gap's odd quotient are summed as a series of
# _GAP_SERIES_TERMS terms for |u| < _U_SWITCH (see _gap_quotient)
_U_SWITCH = 0.05
_GAP_SERIES_TERMS = 20

# the most distinct |u| whose b_M and section volume a context keeps for
# its sweeps (ConstructionContext._bump_and_volume); 400 KB of tables
_SWEPT_MAX = 1 << 14

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


def auto_select_a(n: int) -> float:
    """First candidate flattening parameter whose base body passes the
    convexity margin; larger candidates flatten harder and are tried
    first."""
    for a in RunConfig.auto_a_candidates:
        if 1 - 2 * a ** (n - 2) <= 0:
            continue
        try:
            negativity_threshold(n, a)
        except ConstructionError:
            continue
        if curvature(make_base_body(n, a)).is_convex:
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

    return SphereProfile(n=n, eval=bump, parity="even")


def make_oblate_gap_profile(n: int) -> SphereProfile:
    """Even analytic profile 1 - (4 - 3u^2)^{-1/2}: gap between the unit
    ball and the inscribed oblate ellipsoid with polar semi-axis 1/2.

    The degree -1 extension has transform c_n (1 - (1 + 3u^2)^{-(n-1)/2}),
    attached as ft_profile: zero at the equator, positive elsewhere.  This
    one-sided transform is what lets a blend weight move the centroid
    without touching the equator value.  Its odd quotient is
    _gap_quotient's.
    """
    if n < 5:
        raise ValueError("gap profile used for n >= 5 only")
    cn = bochner_multiplier(0, 1, n)
    q = (n - 1) / 2.0

    def gap(u):
        u = np.asarray(u)
        return 1.0 - (4.0 - 3.0 * u * u) ** -0.5

    def ft(u):
        u = np.asarray(u)
        return cn * (1.0 - (1.0 + 3.0 * u * u) ** -q)

    prof = SphereProfile(n=n, eval=gap, parity="even")
    prof.ft_profile = SphereProfile(n=n, eval=ft, parity="even")
    return prof


def _gap_quotient(n: int) -> tuple:
    """(q_g, q_g', q_g''): the gap's transform c_n E divided by u, where
    E = 1 - B^{-q}, B = 1 + 3u^2 and q = (n - 1)/2, and its first two
    derivatives.

    q_g is -c_n expm1(-q log1p(3u^2)) / u, 0 at u = 0, at every u.  For
    |u| >= _U_SWITCH the derivatives are the closed forms

        q_g'  = c_n (6q B^{-q-1} - E / u^2),
        q_g'' = c_n (2E / u^3 - 6q B^{-q-1} / u - 36q(q+1) u B^{-q-2});

    below it, where those terms cancel, they are the termwise derivatives
    of q_g = sum_{k>=1} a_k u^{2k-1}, a_k = c_n (-1)^{k+1}
    binom(q+k-1, k) 3^k, by Horner in u^2.  The term ratio there is
    3u^2 (q+k)/(k+1) <= 0.0075 (q+k)/(k+1), so with _GAP_SERIES_TERMS
    terms the first omitted term of each of the three series is below
    3e-18 of its first for every n up to 228, where c_n reaches the
    float64 limit (16 terms left 4.4e-14 in q_g'' at n = 200).  Against
    mpmath the three are within 5e-16, 5e-16 and 4e-15 of their max over
    [-1, 1] at n = 5 to 200.  A
    Gegenbauer quotient series, as for the bump, is no substitute: at
    degree 120 and n = 5 its second derivative is off by 2.2e-9 of max at
    the poles.
    """
    cn = bochner_multiplier(0, 1, n)
    q = (n - 1) / 2.0
    a = [3.0 * q * cn]
    for k in range(1, _GAP_SERIES_TERMS):
        a.append(-a[-1] * 3.0 * (q + k) / (k + 1))
    # coefficients of q_g' and of q_g'' / u, by power of u^2
    d1 = [(2 * k + 1) * ak for k, ak in enumerate(a)]
    d2 = [(2 * k + 3) * (2 * k + 2) * ak for k, ak in enumerate(a[1:])]
    polyval = np.polynomial.polynomial.polyval

    def value(u):
        u = np.asarray(u)
        return (-cn * np.expm1(-q * np.log1p(3.0 * u * u))
                / np.where(u == 0, 1.0, u))

    def derivative(u, k):
        u = np.asarray(u, dtype=np.float64)
        small = np.abs(u) < _U_SWITCH
        us = np.where(small, u, 0.0)
        ub = np.where(small, _U_SWITCH, u)
        log_b = np.log1p(3.0 * ub * ub)
        e = -np.expm1(-q * log_b)
        b1 = 6.0 * q * np.exp(-(q + 1) * log_b)
        if k == 1:
            series = polyval(us * us, d1)
            closed = cn * (b1 - e / ub ** 2)
        else:
            series = us * polyval(us * us, d2)
            closed = cn * (2.0 * e / ub ** 3 - b1 / ub - 36.0 * q * (q + 1)
                           * ub * np.exp(-(q + 2) * log_b))
        return np.where(small, series, closed)

    return value, partial(derivative, k=1), partial(derivative, k=2)


def _root_jet(n: int, eps: float, base, phi, powers=None) -> list:
    """r = (rho_b^n + eps phi)^{1/n} and its u-derivatives, to the order
    that base (rho_b, rho_b', rho_b'') and phi (phi, phi', phi'') carry:
    one entry each gives [r], all three give [r, r', r''].  powers, when
    given, holds rho_b^n, rho_b^{n-1} and rho_b^{n-2} (as many as the
    order needs), as rho_b ** (n - i) forms them; f^{1/n - 1} is formed
    once, so the jet takes three fractional powers of f and none of
    rho_b."""
    rb, p = base[0], phi[0]
    if powers is None:
        powers = [rb ** (n - i) for i in range(len(base))]
    f = powers[0] + eps * p
    out = [f ** (1.0 / n)]
    if len(base) > 1:
        g1 = f ** (1.0 / n - 1)
        f1 = n * powers[1] * base[1] + eps * phi[1]
        out.append((1.0 / n) * g1 * f1)
    if len(base) > 2:
        f2 = (n * (n - 1) * powers[2] * base[1] ** 2
              + n * powers[1] * base[2] + eps * phi[2])
        out.append((1.0 / n) * (1.0 / n - 1) * f ** (1.0 / n - 2) * f1 ** 2
                   + (1.0 / n) * g1 * f2)
    return out


def _mirrored_grid(size: int) -> np.ndarray:
    """size points uniform in u on [-1, 1], ascending and mirrored bit for
    bit (grid == -grid[::-1]): linspace(0, 1, (size + 1) // 2) and its
    negation for an odd size; the nonnegative half of linspace(-1, 1,
    size) and its negation for an even one.  A series of definite parity
    is then summed once per distinct |u|."""
    if size % 2:
        half = np.linspace(0.0, 1.0, (size + 1) // 2)
    else:
        half = np.linspace(-1.0, 1.0, size)[size // 2:]
    return np.concatenate([-half[::-1][:size // 2], half])


def _mirror(half: np.ndarray, sign: int) -> np.ndarray:
    """Values on [0, pi/2] extended to [0, pi] by f(pi - t) = sign f(t)."""
    return np.concatenate([half, sign * half[-2::-1]])


# ---------------------------------------------------------------------------
# cached heavy machinery

_CTX_CACHE: dict = {}


class ConstructionContext:
    """Everything expensive about one geometry (n, a, cap_u0), computed
    once at the build: the bump transform's spectrum, its odd quotient
    series, and the cosine series in theta of that quotient and of the
    bump's own series that the transform coefficients stand for; the node
    tables that make the centroid and curvature of the perturbed family
    cheap per (lam, eps), and the section rule of the sweep's volumes.
    What depends on a sweep direction's |u| alone, the bump series b_M and
    the base body's section volume, is computed the first time a sweep
    reaches that |u| and kept for the later sweeps (_bump_and_volume).
    The settings it reads are RunConfig's class constants alone, so one
    context serves every caller of its geometry.
    """

    # the settings the context is built and checked to, RunConfig's class
    # constants, under the name the benchmark (perfbench) reads them by
    config = RunConfig

    def __init__(self, n: int, a: float, cap_u0: float):
        t_start = time.perf_counter()
        self.n = int(n)
        self.a = float(a)
        self.cap_u0 = float(cap_u0)
        self.lam_index = (n - 2) / 2.0
        self.base = make_base_body(n, a)
        self.bump = make_cap_bump(n, cap_u0)
        self.gap = make_oblate_gap_profile(n)
        # c_n outgrows float64 from n = 229: named here, not warned about
        if not np.isfinite(bochner_multiplier(0, 1, n)):
            raise ConstructionError(
                f"transform constant c_n overflows float64 at n = {n}")

        # the bump transform's coefficients co (ft_homogeneous, by one FFT
        # in theta); one degree lower, those of its odd quotient q_b(u) =
        # (b(u) - b(0)) / u, by synthetic division of the extended
        # precision coefficients, so b(0) is never subtracted.  The float64
        # sums read cosine series in theta, converted in longdouble:
        # quotient_cosine, q_b's, and bump_cosine, that of the degree-M
        # bump series b_M = sum (co/mu) C_k, mu the transform's
        # multipliers, which the sweep reads.  At large n they outgrow
        # float64, which is named here, not warned about
        lam = self.lam_index
        with np.errstate(over="ignore", invalid="ignore"):
            co_ld = ft_homogeneous(self.bump, 1.0, RunConfig.bump_max_degree,
                                   order=RunConfig.bump_theta_samples).coeffs
            qco_ld = _divide_by_u(co_ld, lam)
            self.quotient_cosine = _cosine_coeffs(qco_ld, lam, "odd")
            self.bump_cosine = _cosine_coeffs(
                co_ld / _bochner_multipliers_ld(n, 1.0,
                                                np.arange(co_ld.size)),
                lam, "even")
            co, qco, bcos = (c.astype(np.float64)
                             for c in (co_ld, qco_ld, self.bump_cosine))
        for name, kind, c in (("bump transform", "Gegenbauer", co),
                              ("odd quotient series", "Gegenbauer", qco),
                              ("bump series", "cosine", bcos)):
            bad = int(np.count_nonzero(~np.isfinite(c)))
            if bad:
                raise ConstructionError(
                    f"{name} has {bad} {kind} coefficients that are not "
                    f"finite in float64 at n = {n}")
        self.bump_ft_spectrum = GegenbauerSpectrum(
            n=n, lambda_index=lam, coeffs=co, parity="even")
        self.bump_quotient = GegenbauerSpectrum(
            n=n, lambda_index=lam, coeffs=qco, parity="odd")
        # equator value of the bump transform in extended precision; the
        # float64 series at 0 would add ~1e-14 relative noise to a value
        # that must cancel exactly in the odd quotient
        self.bump_ft_at_zero = float(_accumulate_at_zero(co_ld, lam))
        # the gap part: the closed-form quotient of its transform
        self._gap_q = _gap_quotient(n)

        eq = _mirrored_grid(RunConfig.equator_grid)
        # at large n, C_m^lam near the poles outgrows float64: a series that
        # overflows is named below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            self._bft_eq = eval_spectrum(self.bump_ft_spectrum, eq)
            # the division, and the quotient's conversion to its cosine
            # series, must give back b(u) - b(0) on the equator grid, b the
            # transform's own Gegenbauer series
            resid = float(np.max(np.abs(
                eq * _cosine_sum(self.quotient_cosine, eq, "odd")
                - (self._bft_eq - self.bump_ft_at_zero))))
        bad = int(np.count_nonzero(~np.isfinite(self._bft_eq)))
        if bad:
            raise ConstructionError(
                f"bump transform series is not finite in float64 at {bad} "
                f"of {eq.size} equator-grid points (n = {n})")
        self._gft_eq = np.asarray(self.gap.ft_profile(eq), dtype=np.float64)
        resid /= max(float(np.max(np.abs(self._bft_eq))), 1e-300)
        tol = RunConfig.tolerances["identity_rel"] / 10.0
        if not resid <= tol:
            raise ConstructionError(
                f"odd quotient series does not reproduce the transform: "
                f"rel {resid:.3e} > {tol:.1e}")

        # the perturbed body's nodes, which the centroid, the curvature, the
        # diameter and the positivity guard all read: theta_i = i pi /
        # (curvature_grid - 1) on [0, pi/2], mirrored onto [pi/2, pi].
        # Their tables are theta-jets (f, f_theta, f_theta_theta).  The
        # bump's are q_b(cos theta) = sum d_m cos(m theta), d the cosine
        # series quotient_cosine, and its termwise derivatives
        # -sum m d_m sin(m theta) and -sum m^2 d_m cos(m theta): three real
        # FFTs of length 4 (K - 1), K nodes on [0, pi/2].  The first and
        # the third are odd about pi/2 (u = 0), where an FFT may leave
        # rounding noise: their samples there are set to exactly 0
        half = (RunConfig.curvature_grid + 1) // 2
        # the angles rounded as every 20th point of a 20-fold finer
        # linspace rounds them: the node bits that certificates carry
        theta = np.linspace(0.0, np.pi / 2, 20 * (half - 1) + 1)[::20]
        m = np.arange(self.quotient_cosine.size)
        bq0, bq1, bq2 = (np.fft.rfft((m ** k * self.quotient_cosine)
                                     .astype(np.float64),
                                     4 * (half - 1))[:half] for k in range(3))
        bq0[-1] = bq2[-1] = 0.0
        x = np.cos(theta)
        # cos(pi/2) rounds to 6e-17; the last node is u = 0 exactly
        x[-1] = 0.0
        self._theta = np.concatenate([theta, np.pi - theta[-2::-1]])
        self._x = _mirror(x, -1)
        s = _mirror(np.sin(theta), 1)
        self._bq = (_mirror(bq0.real, -1), _mirror(bq1.imag, 1),
                    _mirror(-bq2.real, -1))
        self._gq = _theta_jet(self._x, s, *(g(self._x) for g in self._gap_q))
        self._rho = _theta_jet(
            self._x, s, *(np.asarray(f(self._x), dtype=np.float64)
                          for f in (self.base.rho, *self.base.rho.derivs)))
        # rho_b^n, rho_b^{n-1} and rho_b^{n-2}, which every jet reads
        self._rho_pow = [self._rho[0] ** (n - i) for i in range(3)]
        # centroid quadrature: the trapezoid rule in theta on the nodes.
        # The weight of S^{n-1} in theta is sin^{n-2} theta; the integrands
        # are periodic and band-limited far below the rule's aliasing degree
        self._w = s ** (n - 2) * (np.pi / (2 * (half - 1)))
        # latitude slices of S^{n-1} are spheres of dimension n-2
        self._surf = sphere_area(n - 2)

        # subsphere rule for the sweep's section volumes, which are the
        # base body's: rho_b^{n-1} is analytic, and order 256 is within
        # 1e-15 of order-1728 Gauss-Jacobi at n = 5 to 8.  rho_b is even
        # and the rule mirrored, so it is folded onto its nonnegative
        # nodes, the weights doubled but at the middle node u = 0
        qs = _uniform_rule(RunConfig.quad_order, (n - 4) / 2)
        half = RunConfig.quad_order // 2 + 1
        self._ts = qs.nodes[:half].astype(np.float64)
        self._tw = (qs.weights[:half]
                    * np.where(self._ts > 0, 2, 1)).astype(np.float64)
        # slices of the section subsphere S^{n-2} are of dimension n-3
        self._subsurf = sphere_area(n - 3)
        # rows |u|, b_M and the section volume at each |u| <= 1 a sweep has
        # reached, ascending in |u|
        self._swept = np.empty((3, 0))

        self.build_seconds = time.perf_counter() - t_start

    # -- the blended seed's perturbation ----------------------------------

    def perturbation(self, lam: float) -> SphereProfile:
        """Odd profile phi = (ghat(u) - ghat(0)) / u of the blended
        transform ghat, values only: the bump's quotient from its cosine
        series (quotient_cosine, _cosine_sum) and the gap's closed form
        (_gap_quotient), both in float64.  Raises unless ghat vanishes at
        the equator to the package tolerance, relative to its max over the
        equator grid."""
        ratio = self.equator_ratio(lam)
        tol = RunConfig.tolerances["equator_rel"]
        if not ratio <= tol:
            raise ConstructionError(
                f"transform does not vanish at the equator: |value| is "
                f"{ratio:.3e} of its max, above {tol:.1e}")

        def phi(u):
            u = np.asarray(u, dtype=np.float64)
            return ((1.0 - lam) * _cosine_sum(self.quotient_cosine, u, "odd")
                    + lam * self._gap_q[0](u))

        return SphereProfile(n=self.n, eval=phi, parity="odd")

    def perturbed_body(self, lam: float, eps: float) -> RevolutionBody:
        """Body with radial profile (rho_base^n + eps phi)^{1/n}, phi the
        perturbation at lam, so that the section and centroid integrands,
        which involve rho^n, are exactly linear in eps.  Raises unless
        rho_base^n + eps phi > 0 at the nodes (NaN or inf fails).  Values
        only: convexity is kappa_report's.  Its samples are its (u, rho)
        rows at the nodes, from their tables, ascending in u."""
        if eps < 0:
            raise ValueError("perturbation size must be nonnegative")
        f = self._power(lam, eps)
        if not np.min(f) > 0:
            raise ConstructionError(f"rho^n + eps phi reaches "
                                    f"{np.min(f):.3e} <= 0: eps too large")
        n, rho, phi = self.n, self.base.rho, self.perturbation(lam)

        def value(u):
            return _root_jet(n, eps, (np.asarray(rho(u), dtype=float),),
                             (phi(u),))[0]

        params = dict(self.base.params, eps=float(eps), n=n,
                      cap_u0=self.cap_u0)
        params["lambda"] = float(lam)
        samples = np.stack([self._x, f ** (1.0 / n)], axis=1)[::-1]
        return RevolutionBody(n=n, rho=SphereProfile(n=n, eval=value),
                              kind="perturbed", params=params,
                              samples=samples)

    def equator_ratio(self, lam: float) -> float:
        """|transform at equator| relative to its max over the grid."""
        vals = (1.0 - lam) * self._bft_eq + lam * self._gft_eq
        scale = float(np.max(np.abs(vals)))
        return abs((1.0 - lam) * self.bump_ft_at_zero) / max(scale, 1e-300)

    # -- fast per-(lam, eps) functionals ----------------------------------

    def centroid(self, lam: float, eps: float) -> Optional[float]:
        """Axis centroid of the perturbed body; None if the radial power
        profile is not positive and finite at the quadrature nodes."""
        if eps == 0.0:
            # unperturbed body: symmetric, so the centroid is exactly 0
            return 0.0
        f = self._power(lam, eps)
        # NaN fails the first test, inf the second
        if not (f.min() > 0 and f.max() < np.inf):
            return None
        n = self.n
        vol = self._surf / n * (self._w @ f)
        num = self._surf / (n + 1) * (
            self._w @ (self._x * f ** ((n + 1.0) / n)))
        return float(num / vol)

    def _power(self, lam: float, eps: float) -> np.ndarray:
        """rho_base^n + eps phi at the nodes."""
        return self._rho_pow[0] + eps * ((1.0 - lam) * self._bq[0]
                                         + lam * self._gq[0])

    def kappa_min(self, lam: float, eps: float) -> float:
        """Minimum meridian curvature of the perturbed body."""
        return self.kappa_report(lam, eps).kappa_min

    def kappa_report(self, lam: float, eps: float) -> ConvexityReport:
        """Meridian curvature report of the perturbed body from the
        theta-jets at the nodes, held to the package's convexity margin."""
        phi = [(1.0 - lam) * b + lam * g for b, g in zip(self._bq, self._gq)]
        # where rho^n + eps phi < 0 the root is NaN, and so is kappa_min,
        # which the report's guard (_clears) counts as not convex
        with np.errstate(invalid="ignore"):
            r = _root_jet(self.n, eps, self._rho, phi, self._rho_pow)
            return _meridian_report(
                self._theta, *r, RunConfig.tolerances["convexity_margin"])

    def seed_value(self, u, lam: float):
        return (1.0 - lam) * self.bump(u) + lam * self.gap(u)

    # -- root finding ------------------------------------------------------

    def select_eps(self, eps0: float) -> dict:
        """Halve eps from eps0 until the centroid brackets zero across lam
        in [0,1] and both endpoint bodies stay convex with margin."""
        margin = RunConfig.tolerances["convexity_margin"]
        eps = float(eps0)
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
            if halvings >= RunConfig.eps_max_halvings:
                raise ConstructionError(
                    f"eps too large: no admissible value after "
                    f"{halvings} halvings (last {eps:.3e}: {reason})")
            eps *= 0.5
            halvings += 1

    def find_root(self, eps: float) -> dict:
        """Bisect the blend weight over [0, 1] until the centroid is below
        the root tolerance.  The centroid is monotone enough in lam for
        plain bisection; no derivative information is required."""
        tol = RunConfig.tolerances["root_abs"]
        lo, hi = 0.0, 1.0
        clo = self.centroid(lo, eps)
        chi = self.centroid(hi, eps)
        if clo is None or chi is None or not clo < 0.0 < chi:
            raise ConstructionError(
                f"centroid does not change sign over the bracket: "
                f"{clo} vs {chi}")
        mid, cm = lo, clo
        iters = 0
        for iters in range(1, RunConfig.root_max_iter + 1):
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
                       u_grid: np.ndarray) -> dict:
        """Compare n |section| <centroid, axis> against the closed-form
        multiple of the seed over the section directions u_grid.

        Left side: the integral of s (rho_b^n + eps phi)(s), s = <eta, e_n>,
        over the unit subsphere orthogonal to the direction.  The rho_b^n
        part is odd and drops out, and s phi(s) = ghat(s) - ghat(0), so what
        remains is eps times the spherical Radon transform of
        ghat - ghat(0).  By Funk-Hecke that transform multiplies degree k by
        |S^{n-2}| C_k(0) / C_k(1), which times the transform's multiplier
        mu_k is (2 pi)^n / pi at every even k.  So, for the body as built,

            lhs(u) = eps (2 pi)^n / pi [(1 - lam)(b_M(u) - b_M(1))
                                        + lam gap(u)],

        b_M the bump series at the grid's distinct |u| and 1, summed the
        first time a sweep on the context reaches a |u| and read back
        after (_bump_and_volume), so that a sweep at a later (lam, eps)
        only forms this combination; the poles' lhs is exactly 0, b_M(1)
        cancelling itself and gap(+-1) being 0.  Right
        side: eps (2 pi)^n / pi times the seed, so the two differ by the
        bump's truncation b_M - b alone; rel_err is their difference over
        rhs_max, that multiple of _seed_max.  The reported section
        centroids divide lhs by n times the base body's section volume,
        read back like b_M: the perturbation's first-order term is odd
        over the section and adds nothing to it.
        """
        u_grid = np.asarray(u_grid, dtype=float)
        n = self.n
        scale = eps * (2.0 * np.pi) ** n / np.pi
        a, inv = np.unique(np.append(np.abs(u_grid), 1.0),
                           return_inverse=True)
        b, vol = self._bump_and_volume(a)
        sec_vol = vol[inv[:-1]]
        lhs = scale * ((1.0 - lam) * (b[inv[:-1]] - b[inv[-1]])
                       + lam * np.asarray(self.gap(u_grid), dtype=float))
        rhs = scale * np.asarray(self.seed_value(u_grid, lam), dtype=float)
        rhs_max = scale * self._seed_max(lam, u_grid)
        rel = np.abs(lhs - rhs) / max(rhs_max, 1e-300)
        centroids = lhs / (n * sec_vol)
        inner = np.abs(u_grid) < 1.0
        diam = self.diameter(lam, eps)
        margin = float(np.min(centroids[inner]) / diam) if inner.any() else np.nan
        return {
            "u_grid": u_grid,
            "lhs": lhs, "rhs": rhs, "rel_err": rel, "rhs_max": rhs_max,
            "centroid_quadrature": centroids,
            "centroid_analytic": rhs / (n * sec_vol),
            "max_rel_err": float(np.max(rel)),
            "min_margin": margin,
            "near_pole_abs": float(min(abs(centroids[1]), abs(centroids[-2])))
                             if u_grid.size > 2 else np.nan,
        }

    def _bump_and_volume(self, a: np.ndarray) -> tuple:
        """(b_M, V) at the ascending distinct |u| a: the bump series, summed
        from its cosine series bump_cosine (_cosine_sum), and the base
        body's section volume, both of which depend on |u| alone.  They are
        read back where an earlier sweep stored them; the rest are summed
        and stored, ascending in |u|, if |u| <= 1 (NaN is not), while
        fewer than _SWEPT_MAX are.  Either way a value has the same bits,
        since both sums give each point its bits in any batch."""
        known = self._swept
        at = np.searchsorted(known[0], a)
        hit = at < known.shape[1]
        hit[hit] = known[0, at[hit]] == a[hit]
        b, vol = np.empty(a.size), np.empty(a.size)
        b[hit], vol[hit] = known[1:, at[hit]]
        new = ~hit
        if new.any():
            b[new] = _cosine_sum(self.bump_cosine, a[new], "even")
            # the section volumes on the folded subsphere rule, each the
            # pairwise sum of its own row (np.sum along the nodes), so it
            # has the same bits whichever directions share the call (a BLAS
            # product does not fix that, and np.einsum's running sum is
            # about twice as far from the longdouble sum)
            n = self.n
            r = np.sqrt(np.maximum(0.0, 1.0 - a[new] ** 2))
            rho = np.asarray(self.base.rho(r[:, None] * self._ts),
                             dtype=float)
            vol[new] = self._subsurf / (n - 1) * np.sum(
                rho ** (n - 1) * self._tw, axis=1)
            # NaN fails a <= 1; a new |u| goes in before known[0, at]
            keep = (new & (a <= 1.0)).nonzero()[0]
            keep = keep[:_SWEPT_MAX - known.shape[1]]
            if keep.size:
                self._swept = np.insert(known, at[keep],
                                        np.stack([a, b, vol])[:, keep],
                                        axis=1)
        return b, vol

    def _seed_max(self, lam: float, u) -> float:
        """max |seed| over the directions u, the equator and the bump's
        peaks +-(1 + cap_u0)/2: the scale of the sweep's rel_err and of
        the pole truncation, which a grid that misses the caps' interior
        would understate."""
        peak = 0.5 * (1.0 + self.cap_u0)
        u = np.append(u, [0.0, -peak, peak])
        return float(np.max(np.abs(self.seed_value(u, lam))))

    def quadrature_lhs(self, lam: float, eps: float, u) -> np.ndarray:
        """The sweep's lhs at directions u by the other route: the section
        rule of order section_quad_order (_uniform_rule) over (rho_b^n +
        eps phi) at the rule's nodes, phi's bump part from the quotient's
        Gegenbauer series by the three-term recurrence (eval_spectrum), so
        that this route shares no summation code with identity_sweep's.
        verify compares the two."""
        n = self.n
        qs = _uniform_rule(RunConfig.section_quad_order, (n - 4) / 2)
        ts, tw = qs.nodes.astype(np.float64), qs.weights.astype(np.float64)
        v = np.sqrt(np.maximum(0.0, 1.0 - np.asarray(u) ** 2))[:, None] * ts
        phi = ((1.0 - lam) * eval_spectrum(self.bump_quotient, v)
               + lam * self._gap_q[0](v))
        f = np.asarray(self.base.rho(v), dtype=np.float64) ** n + eps * phi
        return self._subsurf * ((v * f) @ tw)

    def pole_report(self, lam: float, seed_max: float) -> dict:
        """The sweep's S_M = (1 - lam)(b_M - b_M(1)) + lam gap at the
        poles, from the longdouble cosine series e of b_M: the truncation
        |b_M(+-1)| = |sum e_m| relative to seed_max, and the two parts of
        S_M's curvature in theta there, S_M''(0) = curvature_bump +
        curvature_gap, with curvature_bump = -(1 - lam) sum m^2 e_m and
        curvature_gap = 3 lam (the gap's d^2/dtheta^2 at the pole is 3).
        The sum of m^2 e_m cancels by five orders, which longdouble
        holds."""
        e = self.bump_cosine
        m2 = np.arange(e.size, dtype=LD) ** 2
        return {"truncation_rel": float(abs(np.sum(e))) / seed_max,
                "curvature_bump": float(-(1 - LD(lam)) * np.sum(m2 * e)),
                "curvature_gap": 3.0 * lam}

    def diameter(self, lam: float, eps: float) -> float:
        """Max over the nodes of rho(u) + rho(-u) (axial symmetry makes
        antipodal pairs along meridians the extremal chords)."""
        r = self._power(lam, eps) ** (1.0 / self.n)
        return float(np.max(r + r[::-1]))

    def certify(self, lam: float, eps: float, u_grid: np.ndarray) -> tuple:
        """(record, sweep): every certificate entry that (lam, eps)
        determine, with the checks that hold them to the package's
        tolerances, and the identity sweep over u_grid behind them.  A
        centroid that is None (positivity lost) fails its checks.  The
        base body's convexity is read from the context's theta-jet of
        rho_b at the nodes, as the perturbed body's is.  No check bounds
        the poles' section centroids: the sweep's lhs is exactly 0 there
        (identity_sweep)."""
        tol = RunConfig.tolerances
        c, c0, c1 = (self.centroid(x, eps) for x in (lam, 0.0, 1.0))
        sweep = self.identity_sweep(lam, eps, u_grid)
        base = _meridian_report(self._theta, *self._rho,
                                tol["convexity_margin"])
        pert = self.kappa_report(lam, eps)
        eq_rel = self.equator_ratio(lam)
        checks = {
            "lambda0_interior": 0.0 < lam < 1.0,
            "root_within_tolerance": c is not None
                                     and abs(c) <= tol["root_abs"],
            "bracket_sign_change": None not in (c0, c1) and c0 < 0.0 < c1,
            "base_convex": base.is_convex,
            "perturbed_convex": pert.is_convex,
            "identity_within_tolerance":
                sweep["max_rel_err"] <= tol["identity_rel"],
            "margin_positive": sweep["min_margin"] > 0.0,
            "equator_within_tolerance": eq_rel <= tol["equator_rel"],
        }
        record = {
            "lambda0": lam, "eps0": eps, "centroid_at_root": c,
            "bracket": {"centroid_at_0": c0, "centroid_at_1": c1},
            "kappa_min_base": base.kappa_min,
            "kappa_min_perturbed": pert.kappa_min,
            "kappa_argmin_theta": pert.argmin_theta,
            "min_section_margin": sweep["min_margin"],
            "diameter": self.diameter(lam, eps),
            "equator_residual": abs((1.0 - lam) * self.bump_ft_at_zero),
            "equator_residual_rel": eq_rel,
            "equator_scan": {f"{x:.2f}": self.equator_ratio(x)
                             for x in (0.0, 0.25, 0.5, 0.75, 1.0)},
            "identity_max_relerr": sweep["max_rel_err"],
            "near_pole_section_abs": sweep["near_pole_abs"],
            "pole_series": self.pole_report(
                lam, self._seed_max(lam, sweep["u_grid"])),
            "checks": checks,
        }
        return record, sweep


def get_context(config: Optional[RunConfig] = None,
                cap_u0: Optional[float] = None) -> ConstructionContext:
    """The context for the geometry (n, a, cap_u0) of the configuration,
    built on first use and cached, so every call for one geometry returns
    the same context.  Of the configuration only n and a are read; what
    else a caller sets (eps, alpha_grid) goes to the context's methods as
    arguments.

    cap_u0 defaults to u* + cap_margin (1 - u*), u* the negativity
    threshold of the base body's transform.
    """
    cfg = config or RunConfig()
    cfg.validate()
    n = cfg.n
    a = cfg.a if cfg.a is not None else auto_select_a(n)
    if cap_u0 is None:
        us = negativity_threshold(n, a)
        cap_u0 = us + cfg.cap_margin * (1.0 - us)
    key = (n, a, float(cap_u0))
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = ConstructionContext(n, a, cap_u0)
    return _CTX_CACHE[key]


def run_construction(config: Optional[RunConfig] = None) -> dict:
    """The certificate dict, with the context, sweep, perturbed body, root
    and eps selection behind it: halve eps to an admissible size
    (select_eps), bisect the blend weight to put the centroid at the
    origin (find_root), and record and check at that (lambda0, eps0)
    everything the claim needs (certify).  valid only if every check
    passes."""
    t0 = time.perf_counter()
    cfg = config or RunConfig()
    ctx = get_context(cfg)

    sel = ctx.select_eps(cfg.eps)
    eps0 = sel["eps"]
    root = ctx.find_root(eps0)
    lam0 = root["lambda0"]
    record, sweep = ctx.certify(lam0, eps0, _mirrored_grid(cfg.alpha_grid))
    failures = sorted(name for name, ok in record["checks"].items() if not ok)

    cert = {
        "schema": CERTIFICATE_SCHEMA,
        "params": {"n": ctx.n, "a": ctx.a, "cap_u0": ctx.cap_u0,
                   "cap_margin": cfg.cap_margin, "eps": eps0,
                   "lambda": lam0},
        "bump_form": "exp(-1/s - 1/(1-s)) on s = (|u| - cap_u0)/(1 - cap_u0)",
        **record,
        "root_iterations": root["iterations"],
        "eps_halvings": sel["halvings"],
        "negativity_threshold": negativity_threshold(ctx.n, ctx.a),
        "config": asdict(cfg),
        "grids": {k: getattr(cfg, k) for k in (
            "bump_max_degree", "bump_theta_samples", "section_quad_order",
            "alpha_grid", "curvature_grid", "equator_grid")},
        "tolerances": dict(cfg.tolerances),
        "valid": not failures,
        "failures": failures,
        "meta": {
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "runtime_seconds": round(time.perf_counter() - t0
                                     + ctx.build_seconds, 3),
        },
    }
    return {"certificate": cert, "context": ctx, "sweep": sweep,
            "body": ctx.perturbed_body(lam0, eps0), "root": root,
            "selection": sel}
