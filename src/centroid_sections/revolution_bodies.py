"""Star and convex bodies of revolution: profiles, convexity, the
intersection-body test and serialization."""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .config import ConstructionError, RunConfig
from .spherical_core import (
    SphereProfile, bochner_multiplier, eval_spectrum, ft_homogeneous,
)

__all__ = [
    "RevolutionBody", "ConvexityReport", "make_base_body", "curvature",
    "intersection_body_test", "body_to_dict",
]


@dataclass
class RevolutionBody:
    """Body invariant under rotations about the last axis.

    rho is the radial profile as a function of u = <xi, e_n>.  kind is one
    of "base" (closed-form flattened ball), "perturbed" (base plus odd
    perturbation), "custom".  samples, when set, holds (u, rho) rows of
    the profile, ascending in u, that body_to_dict writes.
    """

    n: int
    rho: SphereProfile
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    ft_profile: Optional[SphereProfile] = None
    samples: Optional[np.ndarray] = None


@dataclass
class ConvexityReport:
    kappa_min: float
    argmin_theta: float
    is_convex: bool
    margin: float


def make_base_body(n: int, a: float) -> RevolutionBody:
    """Origin-symmetric convex body of revolution used as the base of the
    construction: the unit ball flattened near the axis poles.

    Radial profile rho(u) = 1 - 2 a^{n-2} (1 - u^2 + u^2/a^2)^{-1/2}.
    The degree -1 extension has the closed-form transform
    c_n (1 - 2 a^{n-1} (1 - u^2 + a^2 u^2)^{-(n-1)/2}), attached as
    ft_profile; it is negative in caps around u = +-1, so the body is not
    an intersection body.
    """
    if n < 5:
        raise ValueError("base body defined for n >= 5")
    if not 0 < a < 1:
        raise ValueError("flattening parameter a must lie in (0, 1)")
    # subtracted term peaks at u = 0 with value 2 a^{n-2}
    if 1 - 2 * a ** (n - 2) <= 0:
        raise ValueError("profile not positive: a too large for this n")
    an2 = a ** (n - 2)
    an1 = a ** (n - 1)
    inv_a2 = 1.0 / (a * a)

    def rho(u):
        u = np.asarray(u)
        return 1.0 - 2 * an2 / np.sqrt(1 - u * u + u * u * inv_a2)

    def rho_du(u):
        u = np.asarray(u)
        D = 1 - u * u + u * u * inv_a2
        return 2 * an2 * (inv_a2 - 1) * u * D ** (-1.5)

    def rho_du2(u):
        u = np.asarray(u)
        g = inv_a2 - 1
        D = 1 - u * u + u * u * inv_a2
        return 2 * an2 * (g * D ** (-1.5) - 3 * g * g * u * u * D ** (-2.5))

    cn = bochner_multiplier(0, 1, n)

    def ft(u):
        u = np.asarray(u)
        return cn * (1.0 - 2 * an1 * (1 - u * u + a * a * u * u) ** (-(n - 1) / 2.0))

    prof = SphereProfile(n=n, eval=rho, parity="even",
                         derivs=(rho_du, rho_du2))
    ftprof = SphereProfile(n=n, eval=ft, parity="even")
    return RevolutionBody(n=n, rho=prof, kind="base", params={"a": a},
                          ft_profile=ftprof)


def curvature(body: RevolutionBody) -> ConvexityReport:
    """Minimum meridian curvature over RunConfig.curvature_grid angles
    theta on [0, pi], from the u-derivatives rho.derivs[0] and
    rho.derivs[1], which the profile must carry (see _meridian_report),
    held to the package's convexity margin.  The coordinate poles are
    regular points of the formula (even extension in theta), so the
    inclusive endpoint grid covers them.
    """
    theta = np.linspace(0.0, np.pi, RunConfig.curvature_grid)
    u = np.cos(theta)
    r, r_u, r_uu = (np.asarray(f(u), dtype=float)
                    for f in (body.rho, *body.rho.derivs[:2]))
    jet = _theta_jet(u, np.sin(theta), r, r_u, r_uu)
    return _meridian_report(theta, *jet,
                            RunConfig.tolerances["convexity_margin"])


def _clears(kappa: float, margin: float) -> bool:
    """Curvature guard: True only for a finite kappa above the margin, so
    NaN or inf from a degenerate profile counts as a violation."""
    return bool(np.isfinite(kappa) and kappa > margin)


def _theta_jet(u, s, f, f_u, f_uu) -> tuple:
    """(f, f_theta, f_theta_theta) at u = cos theta, s = sin theta, from f
    and its u-derivatives: d/dtheta = -s d/du."""
    return f, -s * f_u, s * s * f_uu - u * f_u


def _meridian_report(theta, r, r_t, r_tt, margin: float) -> ConvexityReport:
    """ConvexityReport of the meridian theta -> r (sin theta, cos theta),
    r_t and r_tt its theta-derivatives: its curvature is (r^2 + 2 r_t^2 -
    r r_tt) / (r^2 + r_t^2)^{3/2}, and the body is convex iff it is."""
    kappa = (r * r + 2 * r_t * r_t - r * r_tt) / (r * r + r_t * r_t) ** 1.5
    i = int(np.argmin(kappa))
    kmin = float(kappa[i])
    return ConvexityReport(kappa_min=kmin, argmin_theta=float(theta[i]),
                           is_convex=_clears(kmin, margin), margin=margin)


def intersection_body_test(body: RevolutionBody) -> dict:
    """Criterion for smooth origin-symmetric bodies: the body is an
    intersection body iff the transform of the degree -1 extension of its
    radial profile is nonnegative, down to the package's intersection_rel
    of its max.

    Always evaluates the numerical spectral transform, to degree
    M = RunConfig.max_degree by the order-RunConfig.quad_order rule, on
    RunConfig.equator_grid points (an attached closed form, when present,
    is deliberately not consulted here so that test bodies and constructed
    bodies share one code path).  No verdict rests on an unresolved
    transform: a ConstructionError unless every value is finite and the
    largest gap between the degree-M and degree-M/2 transforms on the grid
    is below the distance of the minimum from the threshold.
    """
    fhat = ft_homogeneous(body.rho, 1.0, order=RunConfig.quad_order)
    u = np.linspace(-1.0, 1.0, RunConfig.equator_grid)
    half = replace(fhat, coeffs=fhat.coeffs[:fhat.max_degree // 2 + 1])
    with np.errstate(over="ignore", invalid="ignore"):
        vals = eval_spectrum(fhat, u)
        gap = float(np.max(np.abs(vals - eval_spectrum(half, u))))
    i = int(np.argmin(vals))
    scale = float(np.max(np.abs(vals)))
    min_value = float(vals[i])
    threshold = -RunConfig.tolerances["intersection_rel"] * max(scale, 1e-300)
    if not (np.all(np.isfinite(vals)) and abs(min_value - threshold) > gap):
        raise ConstructionError(
            f"intersection test unresolved at n = {body.n}: the degree "
            f"{fhat.max_degree} and {half.max_degree} transforms differ by "
            f"up to {gap:.3e} against a minimum of {min_value:.3e}")
    return {
        "min_value": min_value,
        "argmin_u": float(u[i]),
        "is_intersection": bool(min_value >= threshold),
    }


# ---------------------------------------------------------------------------
# serialization

def body_to_dict(body: RevolutionBody) -> dict:
    """The body's parameters and its radial profile: the body's own
    samples, or for a body without them its values at the N points
    u = -cos(i pi / (N - 1)), N = RunConfig.quad_order, ascending."""
    rows = body.samples
    if rows is None:
        u = -np.cos(np.linspace(0.0, np.pi, RunConfig.quad_order))
        rows = np.stack([u, np.asarray(body.rho(u), dtype=float)], axis=1)
    return {
        "n": body.n,
        "kind": body.kind,
        "params": {k: float(v) for k, v in body.params.items()},
        "profile_samples": np.asarray(rows, dtype=float).tolist(),
    }

