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
has a closed form, and its quotient by u goes the bump quotient's way, as
a cosine series in theta from one FFT of its samples (_gap_cosine).
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
from typing import Optional

import numpy as np

from .config import ConstructionError, RunConfig
from .revolution_bodies import (ConvexityReport, RevolutionBody, _clears,
                                _log_jet, _meridian_nodes, _meridian_report,
                                _mirror, _theta_jet, curvature,
                                make_base_body)
from .spherical_core import (LD, _PI_LD, GegenbauerSpectrum, SphereProfile,
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

# samples of the gap's odd quotient on [0, pi] in theta behind its cosine
# series (_gap_cosine), whose coefficients end below 1e-17 of their max by
# degree 77 at n = 5 and by degree 227 at n = 200
_GAP_THETA_SAMPLES = 512

# the most sweep directions, over all its grids, whose tables a context
# keeps (ConstructionContext._grid_tables): about 700 KB of tables
_SWEEP_DIRECTIONS_MAX = 1 << 14

# halvings of the log2-eps interval, eps_max_halvings wide, in which a
# context looks for select_eps's bracket: it leaves the bracket a factor
# 2^(20/4096), 0.34 %, wide (_find_eps_bracket)
_EPS_BRACKET_STEPS = 12

# the certificate's checks, in order: the record entry each reads, and its
# test of that value alone, which None and NaN fail; _clears and the other
# tests read their margin and tolerances from RunConfig.tolerances
_CHECKS = {
    "lambda0_interior": ("lambda0", lambda x: 0.0 < x < 1.0),
    "root_within_tolerance": ("centroid_at_root", lambda x: x is not None
                              and abs(x) <= RunConfig.tolerances["root_abs"]),
    "bracket_sign_change": ("bracket", lambda x: None not in x.values()
                            and x["centroid_at_0"] < 0 < x["centroid_at_1"]),
    "base_convex": ("kappa_min_base", _clears),
    "perturbed_convex": ("kappa_min_perturbed", _clears),
    "identity_within_tolerance": ("identity_max_relerr", lambda x:
                                  x <= RunConfig.tolerances["identity_rel"]),
    "margin_positive": ("min_section_margin", lambda x: x > 0.0),
    "equator_within_tolerance": ("equator_residual_rel", lambda x:
                                 x <= RunConfig.tolerances["equator_rel"]),
}


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
    attached as ft_profile in the form -c_n expm1(-q log1p(3u^2)), q =
    (n-1)/2, which keeps its relative accuracy near the equator: zero
    there, positive elsewhere.  This one-sided transform is what lets a
    blend weight move the centroid without touching the equator value.
    Its odd quotient by u is _gap_cosine's cosine series.  RunConfig.validate
    holds n.
    """
    RunConfig(n=n).validate()
    cn = bochner_multiplier(0, 1, n)
    q = (n - 1) / 2.0

    def gap(u):
        u = np.asarray(u)
        return 1.0 - (4.0 - 3.0 * u * u) ** -0.5

    def ft(u):
        u = np.asarray(u)
        return -cn * np.expm1(-q * np.log1p(3.0 * u * u))

    prof = SphereProfile(n=n, eval=gap, parity="even")
    prof.ft_profile = SphereProfile(n=n, eval=ft, parity="even")
    return prof


def _gap_cosine(ft: SphereProfile) -> np.ndarray:
    """Longdouble coefficients d of the gap transform's odd quotient,
    q_g(cos theta) = sum_m d_m cos(m theta), q_g = ft/u (ft the context's
    gap.ft_profile): the trapezoid rule (a type-I cosine transform) over
    its samples at theta_i = i pi / N, N = _GAP_THETA_SAMPLES, from one
    real FFT of them extended evenly to the full period.  The samples on
    (pi/2, pi] are those on [0, pi/2) negated, with 0 at pi/2 (u = 0),
    and the even degrees are set to exactly 0: q_g is odd.  q_g is
    analytic in a strip around the real theta-axis, so the coefficients
    fall geometrically and the samples alias nothing float64 holds."""
    u = np.cos(np.arange(_GAP_THETA_SAMPLES // 2, dtype=LD)
               * (_PI_LD / _GAP_THETA_SAMPLES))
    half = ft(u) / u
    f = np.concatenate([half, [LD(0)], -half[::-1]])
    d = np.fft.rfft(np.concatenate([f, f[-2:0:-1]])).real / _GAP_THETA_SAMPLES
    d[::2] = 0
    return d


def _mirrored_grid(size: int) -> np.ndarray:
    """size points, size odd, uniform in u on [-1, 1], ascending and
    mirrored bit for bit (grid == -grid[::-1]): linspace(0, 1, (size + 1)
    // 2) and its negation.  A series of definite parity is then summed
    once per distinct |u|."""
    half = np.linspace(0.0, 1.0, (size + 1) // 2)
    return np.concatenate([-half[:0:-1], half])


# ---------------------------------------------------------------------------
# cached heavy machinery

_CTX_CACHE: dict = {}
# n -> auto_select_a(n): the automatic choice, made once per n
_AUTO_A: dict = {}


class ConstructionContext:
    """Everything about one request (n, a), derived once at the build: the
    negativity threshold u* of the base body's transform, the cap edge
    cap_u0 = u* + cap_margin (1 - u*), the bump transform's spectrum, its
    odd quotient series, and the cosine series in theta of that quotient,
    of the gap transform's and of the bump's own series that the transform
    coefficients stand for; the meridian nodes, curvature()'s, and the
    tables on them that make the centroid and curvature of the perturbed
    family cheap per (lam, eps), the section rule of the sweep's volumes,
    and select_eps's eps bracket.  What a sweep reads of its grid alone is
    tabled on the first sweep of that grid and kept for the later sweeps
    of its content (_grid_tables).  The settings it reads are RunConfig's
    class constants alone, so one context serves every caller of (n, a).
    """

    # the settings the context is built and checked to, RunConfig's class
    # constants, under the name the benchmark (perfbench) reads them by
    config = RunConfig

    def __init__(self, n: int, a: float):
        t_start = time.perf_counter()
        self.n = int(n)
        self.a = float(a)
        self.base = make_base_body(n, a)
        self.u_star = negativity_threshold(n, a)
        self.cap_u0 = self.u_star + RunConfig.cap_margin * (1.0 - self.u_star)
        self.lam_index = (n - 2) / 2.0
        self.bump = make_cap_bump(n, self.cap_u0)
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
        # the gap part: its transform's quotient as a cosine series too
        self.gap_cosine = _gap_cosine(self.gap.ft_profile)

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

        # the perturbed body's nodes (_meridian_nodes, curvature()'s), which
        # the centroid, the curvature, the diameter and the positivity guard
        # all read.  Their tables are theta-jets (f, f_theta, f_theta_theta).
        # The bump's and the gap's quotients are q(cos theta) = sum d_m
        # cos(m theta), d their cosine series quotient_cosine and
        # gap_cosine, and their jets the termwise derivatives -sum m d_m
        # sin(m theta) and -sum m^2 d_m cos(m theta): three real FFTs of
        # length 4 (K - 1) each, K nodes on [0, pi/2].  The first and the
        # third are odd about pi/2 (u = 0), where an FFT may leave rounding
        # noise: their samples there are set to exactly 0
        self._theta, self._x, s = _meridian_nodes()
        half = self._x.size // 2 + 1

        def jets(d):
            m = np.arange(d.size)
            f0, f1, f2 = (np.fft.rfft((m ** k * d).astype(np.float64),
                                      4 * (half - 1))[:half]
                          for k in range(3))
            f0[-1] = f2[-1] = 0.0
            return (_mirror(f0.real, -1), _mirror(f1.imag, 1),
                    _mirror(-f2.real, -1))

        self._bq, self._gq = jets(self.quotient_cosine), jets(self.gap_cosine)
        # max |phi| over the nodes at lam = 0 and 1 (_sign_failure)
        self._phi_max = [np.max(np.abs(d[0])) for d in (self._bq, self._gq)]
        self._rho = _theta_jet(
            self._x, s, *(np.asarray(f(self._x), dtype=np.float64)
                          for f in (self.base.rho, *self.base.rho.derivs)))
        # the theta-jet of rho_b^n, which every jet reads: (P, P', P'') =
        # (rho^n, n rho^{n-1} rho', n (n-1) rho^{n-2} rho'^2 + n rho^{n-1}
        # rho''), formed once; kappa_report adds eps phi's jet to it and
        # takes the 1/n-th power's log-derivatives (_log_jet)
        r = self._rho
        rn1 = r[0] ** (n - 1)
        self._rho_n = (r[0] ** n, n * rn1 * r[1],
                       n * (n - 1) * r[0] ** (n - 2) * r[1] ** 2
                       + n * rn1 * r[2])
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
        # the tables of each grid swept, by its float64 bytes, oldest first
        self._sweep_tables = {}
        # (eps, c(0), c(1)) of the rung select_eps accepted last, which
        # find_root and certify read back (_end_centroids)
        self._last_rung = (None, None, None)
        # select_eps's bracket, found last, as it reads the tables above
        t_bracket = time.perf_counter()
        ok, bad, probes, reason = self._find_eps_bracket()
        self.eps_bracket = {"eps_ok": ok, "eps_bad": bad, "probes": probes,
                            "reason": reason,
                            "seconds": time.perf_counter() - t_bracket}

        self.build_seconds = time.perf_counter() - t_start

    # -- the blended seed's perturbation ----------------------------------

    def perturbation(self, lam: float) -> SphereProfile:
        """Odd profile phi = (ghat(u) - ghat(0)) / u of the blended
        transform ghat, values only: one cosine series, (1 - lam) times
        the bump's quotient_cosine plus lam times the gap's gap_cosine,
        zero-padded, summed by _cosine_sum in float64.  It holds nothing to
        the equator: that ghat vanishes there is certify's
        equator_within_tolerance check."""
        q, g = self.quotient_cosine, self.gap_cosine
        d = np.zeros(max(q.size, g.size))
        d[:q.size] += (1.0 - lam) * q
        d[:g.size] += lam * g

        def phi(u):
            return _cosine_sum(d, np.asarray(u, dtype=np.float64), "odd")

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
        f = self._power(lam, eps)[0]
        if not np.min(f) > 0:
            raise ConstructionError(f"rho^n + eps phi reaches "
                                    f"{np.min(f):.3e} <= 0: eps too large")
        n, rho, phi = self.n, self.base.rho, self.perturbation(lam)

        def value(u):
            return (np.asarray(rho(u), dtype=float) ** n
                    + eps * phi(u)) ** (1.0 / n)

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
        f, g = self._power(lam, eps, 1, 1)
        # NaN fails the first test, inf the second
        if not (f.min() > 0 and f.max() < np.inf):
            return None
        n = self.n
        vol = self._surf / n * (self._w @ f)
        # f^{(n+1)/n} itself: the root's centroid sits on a cancellation,
        # which f f^{1/n} would move by 1e-5 to 9e-5 of itself
        np.power(f, (n + 1.0) / n, out=g)
        g *= self._x
        return float(self._surf / (n + 1) * (self._w @ g) / vol)

    def _power(self, lam: float, eps: float, order: int = 1,
               spare: int = 0) -> np.ndarray:
        """Rows of one fresh block: the theta-jet of rho_base^n + eps phi at
        the nodes to order, then spare rows of scratch.  phi's jet is (1 -
        lam) B + lam G (_bq, _gq), blended in the row past the jet, and B
        or G itself at lam = 0 or 1, up to the sign of a zero that nothing
        after reads (rho_b^n > 0 is added, and f_theta enters squared)."""
        block = np.empty((order + max(spare, 1), self._x.size))
        scratch = block[order]
        for i, f in enumerate(block[:order]):
            if lam == 0.0 or lam == 1.0:
                np.multiply((self._gq if lam else self._bq)[i], eps, out=f)
            else:
                np.multiply(self._gq[i], lam, out=f)
                f += np.multiply(self._bq[i], 1.0 - lam, out=scratch)
                f *= eps
            f += self._rho_n[i]
        return block[:order + spare]

    def kappa_min(self, lam: float, eps: float) -> float:
        """Minimum meridian curvature of the perturbed body."""
        return self.kappa_report(lam, eps).kappa_min

    def kappa_report(self, lam: float, eps: float) -> ConvexityReport:
        """Meridian curvature report of the perturbed body, held to the
        package's convexity margin: r = f^{1/n} and the theta-derivatives
        of log r from the theta-jet of f = rho_b^n + eps phi at the nodes
        (_log_jet), one fractional power of f in all."""
        # where f < 0 the root is NaN, and so is kappa_min, which _clears
        # counts as not convex; f = 0 makes the log-derivatives infinite,
        # and a huge eps or lambda overflows their squares to inf
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            jet = _log_jet(1.0 / self.n, *self._power(lam, eps, 3))
            return _meridian_report(self._theta, *jet)

    def seed_value(self, u, lam: float):
        return (1.0 - lam) * self.bump(u) + lam * self.gap(u)

    # -- root finding ------------------------------------------------------

    def _convex_at_ends(self, eps: float) -> bool:
        """Whether both endpoint bodies, lam = 0 and 1, are convex with the
        package's margin at eps (NaN or inf fails)."""
        return (_clears(self.kappa_min(0.0, eps))
                and _clears(self.kappa_min(1.0, eps)))

    def _probe(self, eps: float) -> tuple:
        """(c(0), c(1), reason) at eps, reason None when eps is admissible:
        both centroids exist, c(0) < 0 < c(1), each above its rounding
        floor (_sign_failure), and both endpoint bodies convex with margin,
        tested in that order; else the first test that fails."""
        c0, c1 = self.centroid(0.0, eps), self.centroid(1.0, eps)
        if c0 is None or c1 is None:
            # no body at this eps: the hardest convexity failure
            reason = "radial power profile loses positivity"
        elif sign := (self._sign_failure(0, eps, c0)
                      or self._sign_failure(1, eps, c1)):
            reason = f"centroid does not bracket zero: {sign}"
        elif not self._convex_at_ends(eps):
            reason = "meridian curvature margin violated"
        else:
            reason = None
        return c0, c1, reason

    def _sign_failure(self, end: int, eps: float, c: float) -> Optional[str]:
        """Why the centroid c at lam = end, 0 or 1, fails its end of the
        bracket, or None: |c| within its rounding floor, where its sign is
        noise, or the wrong sign.  The floor is 8 u (|S^{n-2}| / (n + 1))
        (w . |x f^{(n+1)/n}|) / vol, u = 2^-53, of the centroid's own sums,
        formed only when |c| is not above the bound 8 u n / (n + 1) (1 +
        eps max|phi|)^{1/n} that |x| <= 1 and rho_b <= 1 give."""
        n = self.n
        scale = 8 * 2.0 ** -53 * n / (n + 1)
        floor = scale * (1.0 + eps * self._phi_max[end]) ** (1.0 / n)
        if not abs(c) > floor:
            f, g = self._power(end, eps, 1, 1)
            np.power(f, (n + 1.0) / n, out=g)
            g *= self._x
            floor = scale * (self._w @ np.abs(g, out=g)) / (self._w @ f)
        if not abs(c) > floor:
            return (f"c({end}) = {c:.3e} lies within its rounding floor "
                    f"{floor:.3e}")
        wrong = (c > 0.0) == (end == 0)
        return f"c({end}) = {c:.3e} {'><'[end]}= 0" if wrong else None

    def _find_eps_bracket(self) -> tuple:
        """(eps_ok, eps_bad, probes, reason): eps_ok, which _probe admits,
        eps_bad, which it does not, the probes made, and why there is no
        bracket (else None).  The search runs in log eps, from eps_pos
        2^-eps_max_halvings up to eps_pos, the least rho_b^n / -D over the
        nodes where D, the bump's or the gap's table of phi, is negative.
        There is no bracket when the bottom end is not admissible (as from
        n = 8 on with the automatic a) or both endpoint bodies are convex
        at the top end.  Else the exponent is halved _EPS_BRACKET_STEPS
        times on the curvature test alone (_convex_at_ends), which fails
        first in that range at n = 5 to 7 and fails _probe with it, and
        eps_ok is probed in full at the end (no bracket if it fails)."""
        rn = self._rho_n[0]
        eps_pos = min((float(np.min(rn[d < 0] / -d[d < 0]))
                       for d in (self._bq[0], self._gq[0]) if (d < 0).any()),
                      default=np.inf)
        if not np.isfinite(eps_pos):
            return None, None, 0, "no eps bracket: phi's tables never negative"
        top = RunConfig.eps_max_halvings
        lo, hi = -float(top), 0.0                           # exponents of 2
        bottom = eps_pos * 2.0 ** lo
        reason = self._probe(bottom)[2]
        if reason is not None:
            return None, None, 1, (
                f"no eps bracket: eps_pos 2^-{top} = {bottom:.3e}, the bottom "
                f"end, fails: {reason}")
        if self._convex_at_ends(eps_pos):
            return None, None, 2, (
                f"no eps bracket: both endpoint bodies are convex at the "
                f"top end, eps_pos = {eps_pos:.3e}")
        for _ in range(_EPS_BRACKET_STEPS):
            mid = 0.5 * (lo + hi)
            if self._convex_at_ends(eps_pos * 2.0 ** mid):
                lo = mid
            else:
                hi = mid
        ok, probes = eps_pos * 2.0 ** lo, _EPS_BRACKET_STEPS + 3
        reason = self._probe(ok)[2]
        if reason is not None:
            return None, None, probes, (
                f"no eps bracket: eps_ok = {ok:.3e} fails: {reason}")
        return ok, eps_pos * 2.0 ** hi, probes, None

    def select_eps(self, eps0: float) -> dict:
        """The admissible rung (_probe) of the ladder eps0 2^-k, k =
        0..eps_max_halvings, halvings of float(eps0), that the context's
        eps_bracket points to: rung j, the first below eps_bad, or, when
        rung j lies above eps_ok and fails, rung j + 1.  Every rung it
        returns has passed its own probe.  With no bracket it raises the
        bracket's reason; else it names eps_ok below the last rung, or the
        rung that failed its probe."""
        ok, bad = self.eps_bracket["eps_ok"], self.eps_bracket["eps_bad"]
        if ok is None:
            raise ConstructionError(self.eps_bracket["reason"])
        top = RunConfig.eps_max_halvings
        eps, k = float(eps0), 0
        while eps >= bad and k < top:
            eps, k = eps * 0.5, k + 1
        if eps >= bad:
            raise ConstructionError(
                f"eps too large: eps_ok = {ok:.3e} lies below the last rung, "
                f"{eps:.3e} after {top} halvings of {eps0:.3e}")
        c0, c1, reason = self._probe(eps)
        if reason is not None and eps > ok and k < top:
            eps, k = eps * 0.5, k + 1
            c0, c1, reason = self._probe(eps)
        if reason is not None:
            raise ConstructionError(
                f"eps {eps:.3e}, rung {k} of the ladder from "
                f"{eps0:.3e}, fails: {reason}")
        self._last_rung = (eps, c0, c1)
        return {"eps": eps, "halvings": k,
                "centroid_at_0": c0, "centroid_at_1": c1}

    def _end_centroids(self, eps: float) -> tuple:
        """(c(0), c(1)) at eps: those select_eps found when eps is the rung
        it accepted last, evaluated otherwise."""
        rung, c0, c1 = self._last_rung
        if rung == eps:
            return c0, c1
        return self.centroid(0.0, eps), self.centroid(1.0, eps)

    def find_root(self, eps: float) -> dict:
        """Bisect the blend weight over [0, 1] until the centroid c is
        within the root tolerance tol.

        c = eps c_1(lam) + O(eps^2) with c_1 affine in lam, so the chord
        through (0, c(0)) and (1, c(1)) predicts where |c| <= tol, and
        that window widened by 1/16 gives (a, b) (|c| at the chord's guess
        stayed under 5e-4 tol over 300 warm starts each at n = 5, 6, 7 and
        at a = 0.3).  When c(a) < -tol and c(b) > tol, a midpoint at or
        below a moves the lower end, one at or above b the upper end, and
        only midpoints inside (a, b) are evaluated; when not, (a, b) is
        (0, 1) and every midpoint is.  So the midpoints, the one it stops
        at and the iteration count are those of a bisection that evaluates
        every midpoint, bit for bit, whenever c increases at the scale of
        tol between a midpoint and the bracket's end."""
        tol = RunConfig.tolerances["root_abs"]
        lo, hi = 0.0, 1.0
        clo, chi = self._end_centroids(eps)
        if clo is None or chi is None or not clo < 0.0 < chi:
            raise ConstructionError(
                f"centroid does not change sign over the bracket: "
                f"{clo} vs {chi}")
        guess = -clo / (chi - clo)
        half = (1.0 + 1.0 / 16) * tol / (chi - clo)
        a, b = guess - half, guess + half
        ca, cb = self.centroid(a, eps), self.centroid(b, eps)
        if ca is None or cb is None or not (ca < -tol and cb > tol):
            a, b = 0.0, 1.0
        mid, cm = lo, clo
        iters = 0
        for iters in range(1, RunConfig.root_max_iter + 1):
            mid = 0.5 * (lo + hi)
            if a < mid < b:
                cm = self.centroid(mid, eps)
                if cm is None:
                    raise ConstructionError("positivity lost inside bracket")
                if abs(cm) <= tol:
                    break
                below = cm < 0.0
            else:
                # c(mid) has the sign of c(a) < 0 or of c(b) > 0
                cm, below = None, mid <= a
            if below:
                lo = mid
            else:
                hi = mid
        if cm is None:
            # root_max_iter ran out on a midpoint the bracket settled
            cm = self.centroid(mid, eps)
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

        b_M the bump series, tabled per grid with all else a sweep reads
        of the grid alone (_grid_tables), so that a later sweep of it only
        forms this combination; the poles' lhs is exactly 0.  Right side:
        eps (2 pi)^n / pi times the seed, so the two differ by the bump's
        truncation b_M - b alone; rel_err is their difference over
        rhs_max, that multiple of seed_max, max |seed| over the grid, the
        equator and the bump's peaks +-(1 + cap_u0)/2, which a grid that
        misses the caps' interior would understate.  The section centroids
        divide lhs by n times the base body's section volume: the
        perturbation's first-order term is odd over the section.
        """
        u_grid = np.asarray(u_grid, dtype=float)
        size, n = u_grid.size, self.n
        scale = eps * (2.0 * np.pi) ** n / np.pi
        bump_diff, n_vol, bump, gap, inner = self._grid_tables(u_grid)
        # the seed's gap part, which lhs shares; seed_max reads 3 past size
        lam_gap = lam * gap
        lhs = (1.0 - lam) * bump_diff
        lhs += lam_gap[:size]
        lhs *= scale
        seed = (1.0 - lam) * bump
        seed += lam_gap
        seed_max = float(np.max(np.abs(seed)))
        rhs = scale * seed[:size]
        rhs_max = scale * seed_max
        rel = np.abs(lhs - rhs) / max(rhs_max, 1e-300)
        centroids = lhs / n_vol
        diam = self.diameter(lam, eps)
        margin = (float(np.min(centroids[inner]) / diam) if inner.any()
                  else np.nan)
        return {
            "u_grid": u_grid,
            "lhs": lhs, "rhs": rhs, "rel_err": rel, "rhs_max": rhs_max,
            "centroid_quadrature": centroids,
            "centroid_analytic": rhs / n_vol,
            "seed_max": seed_max, "max_rel_err": float(np.max(rel)),
            "min_margin": margin, "diameter": diam,
            "near_pole_abs": float(min(abs(centroids[1]), abs(centroids[-2])))
                             if size > 2 else np.nan,
        }

    def _grid_tables(self, u_grid: np.ndarray) -> tuple:
        """identity_sweep's tables of u_grid alone: per direction b_M(|u|)
        - b_M(1) and n V(|u|), from the sums at the distinct |u|
        (_bump_and_volume), the bump and the gap, then at seed_max's three
        points, and the mask |u| < 1.  They are kept by the grid's float64
        bytes, so a grid changed in place is tabled afresh, the oldest
        dropped first past _SWEEP_DIRECTIONS_MAX directions in all."""
        key, kept = (u_grid.shape, u_grid.tobytes()), self._sweep_tables
        if key in kept:
            return kept[key]
        a, inv = np.unique(np.append(np.abs(u_grid), 1.0),
                           return_inverse=True)
        b, vol = self._bump_and_volume(a)
        extra = 0.5 * (1.0 + self.cap_u0) * np.array([0.0, -1.0, 1.0])
        tables = (b[inv[:-1]] - b[inv[-1]], self.n * vol[inv[:-1]],
                  *(np.concatenate([np.asarray(f(u_grid), dtype=float),
                                    f(extra)]) for f in (self.bump, self.gap)),
                  np.abs(u_grid) < 1.0)
        if u_grid.size <= _SWEEP_DIRECTIONS_MAX:
            while (u_grid.size + sum(t[0].size for t in kept.values())
                   > _SWEEP_DIRECTIONS_MAX):
                del kept[next(iter(kept))]
            kept[key] = tables
        return tables

    def _bump_and_volume(self, a: np.ndarray) -> tuple:
        """(b_M, V) at |u| a: the bump series (_cosine_sum), and the base
        body's section volume on the folded subsphere rule, each the
        pairwise sum of its own row, so each point has its bits in any
        batch (a BLAS product does not, and np.einsum's running sum is
        about twice as far from the longdouble sum)."""
        n = self.n
        r = np.sqrt(np.maximum(0.0, 1.0 - a ** 2))
        rho = np.asarray(self.base.rho(r[:, None] * self._ts), dtype=float)
        return (_cosine_sum(self.bump_cosine, a, "even"),
                self._subsurf / (n - 1) * np.sum(rho ** (n - 1) * self._tw,
                                                 axis=1))

    def quadrature_lhs(self, lam: float, eps: float, u) -> np.ndarray:
        """The sweep's lhs at directions u by the other route: the section
        rule of order section_quad_order (_uniform_rule) over (rho_b^n +
        eps phi) at the rule's nodes, phi's bump part from the quotient's
        Gegenbauer series by the three-term recurrence (eval_spectrum) and
        its gap part the gap's closed-form transform over u (0 at u = 0),
        so that this route shares no summation code with identity_sweep's.
        verify compares the two."""
        n = self.n
        qs = _uniform_rule(RunConfig.section_quad_order, (n - 4) / 2)
        ts, tw = qs.nodes.astype(np.float64), qs.weights.astype(np.float64)
        v = np.sqrt(np.maximum(0.0, 1.0 - np.asarray(u) ** 2))[:, None] * ts
        phi = ((1.0 - lam) * eval_spectrum(self.bump_quotient, v)
               + lam * (self.gap.ft_profile(v) / np.where(v == 0, 1.0, v)))
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
        r, chord = self._power(lam, eps, 1, 1)
        # NaN where rho_b^n + eps phi < 0, which fails the sweep's margin
        with np.errstate(invalid="ignore"):
            np.power(r, 1.0 / self.n, out=r)
        return float(np.max(np.add(r, r[::-1], out=chord)))

    def certify(self, lam: float, eps: float, u_grid: np.ndarray) -> tuple:
        """(record, sweep): the claim (lam, eps), the entries that _CHECKS
        reads, the checks on them and, under "meta", the values that no
        check reads; and the identity sweep over u_grid behind them.  A
        centroid that is None (positivity lost) fails its checks.  The
        base body's convexity is read from the context's theta-jet of rho_b
        at the nodes, as the perturbed body's is.  No check bounds the
        poles' section centroids: the sweep's lhs is exactly 0 there
        (identity_sweep)."""
        c, (c0, c1) = self.centroid(lam, eps), self._end_centroids(eps)
        sweep = self.identity_sweep(lam, eps, u_grid)
        base = _meridian_report(self._theta, *_log_jet(1, *self._rho))
        pert = self.kappa_report(lam, eps)
        record = {
            "lambda0": lam, "eps0": eps, "centroid_at_root": c,
            "bracket": {"centroid_at_0": c0, "centroid_at_1": c1},
            "kappa_min_base": base.kappa_min,
            "kappa_min_perturbed": pert.kappa_min,
            "min_section_margin": sweep["min_margin"],
            "equator_residual_rel": self.equator_ratio(lam),
            "identity_max_relerr": sweep["max_rel_err"],
        }
        record["checks"] = {name: test(record[key])
                            for name, (key, test) in _CHECKS.items()}
        record["meta"] = {
            "kappa_argmin_theta": pert.argmin_theta,
            "diameter": sweep["diameter"],
            "equator_residual": abs((1.0 - lam) * self.bump_ft_at_zero),
            "equator_scan": {f"{x:.2f}": self.equator_ratio(x)
                             for x in (0.0, 0.25, 0.5, 0.75, 1.0)},
            "near_pole_section_abs": sweep["near_pole_abs"],
            "pole_series": self.pole_report(lam, sweep["seed_max"]),
        }
        return record, sweep


def get_context(config: Optional[RunConfig] = None) -> ConstructionContext:
    """The context for the geometry (n, a) of the configuration, built on
    first use and cached, so every call for one geometry returns the same
    context.  An a left None is auto_select_a's, chosen on the first
    such call for n and kept.  The context derives the rest of the
    geometry, u* and the cap edge among it, from (n, a).
    """
    cfg = (config or RunConfig()).validate()
    n, a = cfg.n, cfg.a
    if a is None:
        if n not in _AUTO_A:
            _AUTO_A[n] = auto_select_a(n)
        a = _AUTO_A[n]
    if (n, a) not in _CTX_CACHE:
        _CTX_CACHE[n, a] = ConstructionContext(n, a)
    return _CTX_CACHE[n, a]


def run_construction(config: Optional[RunConfig] = None) -> dict:
    """The certificate dict, with the context, sweep, perturbed body and
    root behind it: halve RunConfig.eps_start to an admissible size
    (select_eps), bisect the blend weight to put the centroid at the
    origin (find_root), and record and check at that
    (lambda0, eps0) everything the claim needs (certify).  valid only if
    every check passes.  verify reproduces all but meta, the run's report
    and the values that no check reads."""
    t0 = time.perf_counter()
    cfg = config or RunConfig()
    ctx = get_context(cfg)

    sel = ctx.select_eps(RunConfig.eps_start)
    eps0 = sel["eps"]
    root = ctx.find_root(eps0)
    lam0 = root["lambda0"]
    record, sweep = ctx.certify(lam0, eps0,
                                 _mirrored_grid(RunConfig.alpha_grid))
    failures = sorted(name for name, ok in record["checks"].items() if not ok)
    unchecked = record.pop("meta")

    cert = {
        "schema": CERTIFICATE_SCHEMA,
        "config": asdict(cfg),
        "params": {"a": ctx.a, "cap_u0": ctx.cap_u0},
        **record,
        "valid": not failures,
        "failures": failures,
        "grids": {k: getattr(cfg, k) for k in (
            "bump_max_degree", "bump_theta_samples", "section_quad_order",
            "alpha_grid", "curvature_grid", "equator_grid")},
        "tolerances": dict(cfg.tolerances),
        # the run's report, then certify's values that no check reads
        "meta": {
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "runtime_seconds": round(time.perf_counter() - t0
                                     + ctx.build_seconds, 3),
            "eps_bracket": dict(ctx.eps_bracket),
            "root_iterations": root["iterations"],
            "eps_halvings": sel["halvings"],
            "negativity_threshold": ctx.u_star,
            **unchecked,
        },
    }
    return {"certificate": cert, "context": ctx, "sweep": sweep,
            "body": ctx.perturbed_body(lam0, eps0), "root": root}
