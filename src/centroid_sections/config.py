"""Run configuration shared by the construction pipeline and the CLI."""

from dataclasses import dataclass
from types import MappingProxyType
from typing import ClassVar, Optional

__all__ = ["ConstructionError", "RunConfig"]


class ConstructionError(RuntimeError):
    """A precondition of the construction failed numerically."""


@dataclass
class RunConfig:
    """Numerical parameters for one end-to-end run.

    The fields are the request: the dimension ``n`` and the flattening
    parameter ``a`` of the base body, ``None`` selecting the largest
    candidate whose convexity certificate passes with margin.  The class
    constants are the package's resolution, tolerances and eps ladder: no
    caller sets them, so a context built for one geometry serves every
    caller, and verify holds every certificate to them.  A certificate
    records the grids and tolerances in its ``grids`` and ``tolerances``
    blocks, not in its configuration.
    """

    n: int = 5
    a: Optional[float] = None

    tolerances: ClassVar = MappingProxyType({
        "equator_rel": 1e-8,
        "identity_rel": 1e-6,
        "root_abs": 1e-13,
        "convexity_margin": 1e-6,
        "intersection_rel": 1e-9,
    })

    # the polar caps start this far from the negativity threshold u* of the
    # base transform towards the pole: cap_u0 = u* + cap_margin (1 - u*)
    cap_margin: ClassVar[float] = 0.5

    # order of the uniform-angle rule (spherical_core._uniform_rule) and
    # degree of the analytic profiles' expansions (intersection-body test),
    # the body.json samples of a body that carries none, and the order of
    # the rule for the sweep's section volumes
    quad_order: ClassVar[int] = 256
    max_degree: ClassVar[int] = 120

    # spectral resolution for the compactly supported cap bump; its Gegenbauer
    # coefficients decay sub-geometrically, so it needs far more degrees than
    # the analytic profiles covered by max_degree
    bump_max_degree: ClassVar[int] = 3200
    # order of the uniform-angle rule whose weighted samples, one longdouble
    # FFT, give the bump's cosine moments (expand)
    bump_theta_samples: ClassVar[int] = 8192

    # order N = M + 256 of the subsphere rule of verify's quadrature route,
    # over s (rho^n + eps phi)(s), s phi of degree M = bump_max_degree.  At
    # k = n - 3 the rule is exact to degree N - k + 1 for odd k (2N - k - 1
    # for even k), so N is exact to degree M + n for n <= 130
    section_quad_order: ClassVar[int] = bump_max_degree + 256

    # directions of construct's sweep (verify's: 2 alpha_grid - 1), uniform
    # in u; the claim is about every direction, so their count is the
    # package's resolution and no part of the request
    alpha_grid: ClassVar[int] = 721
    curvature_grid: ClassVar[int] = 4001
    equator_grid: ClassVar[int] = 2001
    # the ladder eps_start 2^-k, k = 0..eps_max_halvings, from which
    # run_construction takes eps0 (ConstructionContext.select_eps)
    eps_start: ClassVar[float] = 1e-3
    eps_max_halvings: ClassVar[int] = 20
    root_max_iter: ClassVar[int] = 200

    auto_a_candidates: ClassVar[tuple] = (0.5, 0.4, 0.3, 0.2, 0.1, 0.05)

    def validate(self):
        if self.n < 5:
            raise ValueError(
                "construction requires dimension n >= 5; no body of this kind "
                "exists for n = 3 or 4")
        if self.a is not None and not 0 < self.a < 1:
            raise ValueError("a must lie in (0, 1)")
        if self.a is not None and 1 - 2 * self.a ** (self.n - 2) <= 0:
            raise ValueError("profile not positive: a too large for this n")
        return self
