"""Planar bodies and chords through the centroid that it bisects.

For a convex body in the plane with centroid at the origin, the chord
length function rho(theta) - rho(theta + pi) integrates to zero against
both cos and sin; that forces at least three sign changes mod pi, i.e.
at least three chords through the centroid are bisected by it, and the
count is odd unless every chord is bisected (central symmetry).  This
module finds those directions numerically for polygons and for smooth
radial profiles, with no body re-parametrised about its centroid c: the
chord through c that ends at the boundary point P is bisected exactly
when the reflection 2c - P lies on the boundary.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import ConstructionError

__all__ = ["PlanarBody", "polygon_body", "radial_body", "planar_centroid",
           "bisected_chords"]

# uniform angles of a radial body's centroid quadrature on [0, 2 pi); its
# chord scan on [0, 2 pi) takes twice as many
_GRID = 4096
# a radial body's rescans of clustered crossings (see bisected_chords)
_REFINE = 64
_REFINE_LEVELS = 6
_SCAN_MAX = 8 * _GRID
# angles at which a radial profile is checked and a body's size is read
_CHECK_GRID = 720
# largest accepted |coordinate| of a polygon vertex: the centroid sums are
# cubic in the coordinates and must not overflow
_COORD_MAX = 1e100


def _cross2(a, b):
    """z-component of the cross product of stacked 2-vectors."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


@dataclass
class PlanarBody:
    """Convex planar region, either a CCW polygon or a positive radial
    profile about the origin.  Exactly one of vertices / radial_fn is set.
    """

    vertices: Optional[np.ndarray] = None
    radial_fn: Optional[Callable] = None

    def __post_init__(self):
        if (self.vertices is None) == (self.radial_fn is None):
            raise ValueError("provide exactly one of vertices, radial_fn")

    @property
    def is_polygon(self) -> bool:
        return self.vertices is not None

    def radius(self, theta):
        """Boundary distance from the origin in direction theta; the
        origin must be interior."""
        if self.radial_fn is not None:
            return np.asarray(self.radial_fn(np.asarray(theta, dtype=float)),
                              dtype=float)
        return _polygon_radius(self.vertices, np.asarray(theta, dtype=float))


def polygon_body(vertices) -> PlanarBody:
    """Validate and orient a convex polygon.

    Clockwise input is reversed; a vertex within 1e-8 of the polygon's size
    of its predecessor, cyclically, is dropped; consecutive collinear
    vertices are tolerated, reflex angles, non-finite coordinates and
    coordinates above _COORD_MAX in magnitude are not.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
        raise ValueError("need at least three planar vertices")
    if not np.all(np.isfinite(v)):
        raise ValueError("polygon vertices must be finite")
    if np.max(np.abs(v)) > _COORD_MAX:
        raise ValueError(f"polygon coordinates must be at most "
                         f"{_COORD_MAX:.0e} in magnitude")
    # a vertex that repeats its predecessor, the closing one included, to a
    # tolerance relative to the size; fewer than 3 left is degenerate
    step = np.max(np.abs(v - np.roll(v, 1, axis=0)), axis=1)
    v = v[step > 1e-8 * np.max(np.ptp(v, axis=0))]
    area2 = float(np.sum(_cross2(v, np.roll(v, -1, axis=0))))
    if area2 == 0.0:
        raise ValueError("degenerate polygon")
    if area2 < 0:
        v = v[::-1]
    e = np.roll(v, -1, axis=0) - v
    turn = _cross2(e, np.roll(e, -1, axis=0))
    scale = float(np.max(np.abs(e))) ** 2
    if np.any(turn < -1e-12 * scale):
        raise ValueError("polygon is not convex")
    return PlanarBody(vertices=v)


def radial_body(fn: Callable) -> PlanarBody:
    """Wrap a positive 2 pi periodic radial profile."""
    th = np.linspace(0.0, 2 * np.pi, _CHECK_GRID, endpoint=False)
    r = np.asarray(fn(th), dtype=float)
    if r.shape != th.shape:
        raise ValueError("radial profile must evaluate elementwise")
    if np.any(~np.isfinite(r)) or np.any(r <= 0):
        raise ValueError("radial profile must be positive and finite")
    per = np.max(np.abs(np.asarray(fn(th + 2 * np.pi), dtype=float) - r))
    if per > 1e-9 * np.max(r):
        raise ValueError("radial profile must be 2 pi periodic")
    return PlanarBody(radial_fn=fn)


def _polygon_radius(v: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Distance from the origin to the boundary along each direction: ray
    s*d meets the line of edge p + t e at s = (p x e)/(d x e), and with
    the origin strictly interior (p x e > 0) it leaves the intersection of
    the edges' half-planes at the nearest line ahead, least s, d x e > 0."""
    e = np.roll(v, -1, axis=0) - v
    pxe = _cross2(v, e)
    if np.any(pxe <= 0):
        raise ValueError("origin is not strictly interior to the polygon")
    th = np.atleast_1d(theta)
    dxe = np.cos(th)[:, None] * e[:, 1] - np.sin(th)[:, None] * e[:, 0]
    with np.errstate(divide="ignore"):
        out = np.min(np.where(dxe > 0, pxe / dxe, np.inf), axis=1)
    return float(out[0]) if np.ndim(theta) == 0 else out


def planar_centroid(body: PlanarBody) -> np.ndarray:
    """Centroid of the region.  Polygons use the exact shoelace sums;
    radial profiles use the trapezoid rule on 4096 uniform angles, which
    converges spectrally for smooth boundaries.  A radial profile it does
    not resolve raises ConstructionError: the rule on every other angle,
    2048 of the same samples, must agree to 1e-10 of the largest radius
    (the scale of bisected_chords' symmetry test)."""
    if body.is_polygon:
        v = body.vertices
        w = np.roll(v, -1, axis=0)
        cr = _cross2(v, w)
        area = 0.5 * np.sum(cr)
        c = np.sum((v + w) * cr[:, None], axis=0) / (6.0 * area)
        return c

    def trapezoid(th, r):
        area = 0.5 * np.mean(r ** 2) * 2 * np.pi
        cx = np.mean(r ** 3 * np.cos(th)) * 2 * np.pi / 3.0
        cy = np.mean(r ** 3 * np.sin(th)) * 2 * np.pi / 3.0
        return np.array([cx, cy]) / area

    th = np.linspace(0.0, 2 * np.pi, _GRID, endpoint=False)
    r = body.radius(th)
    c = trapezoid(th, r)
    # NaN fails the test
    gap = float(np.max(np.abs(c - trapezoid(th[::2], r[::2]))))
    if not gap <= 1e-10 * float(np.max(r)):
        raise ConstructionError(
            f"radial profile not resolved by the centroid rule: {_GRID} "
            f"and {_GRID // 2} angles differ by {gap:.3e}")
    return c


def _chord_defect(body: PlanarBody, c: np.ndarray, theta):
    """For 1-d theta, a value with the sign of |P - c| less the distance
    from c to the other end of the chord through c and the boundary point
    P at theta.  About c = 0 it is rho(theta) - rho(theta + pi), from one
    radius call on both ends; otherwise |Q| - rho(arg Q), Q = 2c - P, from
    two (the body is star-shaped about the origin, and Q lies in it exactly
    when that other end is at least as far from c as P).  A direction's
    value does not depend on the others that share the call."""
    theta = np.asarray(theta)
    if not np.any(c):
        r = body.radius(np.concatenate([theta, theta + np.pi]))
        return r[:theta.size] - r[theta.size:]
    r = body.radius(theta)
    qx, qy = 2.0 * c[0] - r * np.cos(theta), 2.0 * c[1] - r * np.sin(theta)
    return np.hypot(qx, qy) - body.radius(np.arctan2(qy, qx))


def bisected_chords(body: PlanarBody) -> dict:
    """Directions in [0, pi) of the chords through the centroid c that c
    bisects: an odd count >= 3, or {"symmetric_all": True, ...} when the
    defect stays within 1e-10 of the largest radius (central symmetry).

    A polygon is translated so that c = 0 and scanned at its vertex
    directions mod pi alone: between two of these both chord ends lie on
    fixed edges, where the defect has at most one zero, a simple one, so
    each sign change is one chord, at a sinusoid's root.
    A radial body keeps its origin and is scanned over the boundary angles
    [0, 2 pi) at 8192 angles: its 2m sign changes are both ends of each
    chord, crossing i and i + m of one chord, and the first m give the
    directions of P - c.  There, crossings fewer than 3 intervals apart
    (all of them, while m is not odd and >= 3) are rescanned _REFINE times
    finer with their neighbours, up to _REFINE_LEVELS times and _SCAN_MAX
    angles a rescan, a miscount left raising ConstructionError, and each
    of the first m is bisected to 1e-10 and placed by a secant.
    """
    c = planar_centroid(body)
    if body.is_polygon:
        body = PlanarBody(vertices=body.vertices - c[None, :])
        c = np.zeros(2)
        period, ends = np.pi, 1
        vertex = np.arctan2(body.vertices[:, 1], body.vertices[:, 0]) % np.pi
        # % rounds a direction just below 0 up to pi: read it as 0
        th = np.sort(np.where(vertex < np.pi, vertex, 0.0))
    else:
        period, ends = 2 * np.pi, 2
        th = np.linspace(0.0, period, 2 * _GRID, endpoint=False)
    scale = float(np.max(body.radius(np.linspace(0, 2 * np.pi, _CHECK_GRID,
                                                 endpoint=False))))
    f = _chord_defect(body, c, th)
    if float(np.max(np.abs(f))) <= 1e-10 * scale:
        return {"symmetric_all": True, "count": None, "directions": []}
    # the defect a period past the first angle closes the scan: -f(th_0)
    # on a polygon's, f(0) on a radial body's [0, 2 pi); w is the width of
    # the interval that starts at each angle
    th = np.append(th, th[0] + period)
    g = np.append(f, f[0] if ends == 2 else -f[0])
    w = np.diff(th, append=th[-1])
    for level in range(_REFINE_LEVELS + 1):
        # a zero takes the sign before it (+ first), so a grid hit is not
        # counted twice
        sign = np.sign(g)
        sign[0] = sign[0] or 1.0
        last = np.maximum.accumulate(np.where(sign, np.arange(g.size), 0))
        sign = sign[last]
        idx = np.nonzero(sign[1:] != sign[:-1])[0]
        near = np.diff(np.append(idx, idx[:1] + th.size - 1)) < 3
        m, odd = divmod(idx.size, ends)
        miscount = odd or m < 3 or m % 2 == 0
        if not miscount and (body.is_polygon or not near.any()):
            break
        flagged = idx if miscount else idx[near | np.roll(near, 1)]
        refine = np.unique((flagged[:, None] + [-1, 0, 1]) % (th.size - 1))
        if (body.is_polygon or not refine.size or level == _REFINE_LEVELS
                or refine.size * (_REFINE - 1) > _SCAN_MAX):
            raise ConstructionError(
                "could not resolve an odd number (>= 3) of bisected chords; "
                "boundary may be non-convex or degenerate")
        w[refine] /= _REFINE
        new = (th[refine, None] + w[refine, None] * np.arange(1, _REFINE))
        order = np.argsort(np.append(th, new), kind="stable")
        th = np.append(th, new)[order]
        g = np.append(g, _chord_defect(body, c, new.ravel()))[order]
        w = np.append(w, np.repeat(w[refine], _REFINE - 1))[order]
    # a radial body's first m crossings are its chords' ends P
    idx = idx[:m]
    lo, hi, flo, fhi = th[idx], th[idx + 1], g[idx], g[idx + 1]
    if body.is_polygon:
        # 1/rho(theta) is the largest of the sinusoids (d x e)/(p x e) over
        # the edges (_polygon_radius), 1/rho(theta + pi) minus the least;
        # between two scan angles both are at fixed edges, so the defect
        # has the sign of the sinusoid -(largest + least), whose root is
        # placed from its magnitudes a, b at the bracket's ends
        v, t = body.vertices, np.stack([lo, hi])[..., None]
        e = np.roll(v, -1, axis=0) - v
        s = (np.cos(t) * e[:, 1] - np.sin(t) * e[:, 0]) / _cross2(v, e)
        a, b = np.abs(s.max(axis=2) + s.min(axis=2))
        roots = lo + np.arctan2(a * np.sin(hi - lo), a * np.cos(hi - lo) + b)
    else:
        # sharpen every crossing at once, each stopping on its own rule; a
        # zero defect at the left end is the root, which the side test
        # below would count as positive
        hi[flo == 0.0] = lo[flo == 0.0]
        k = np.arange(idx.size)
        for _ in range(200):
            k = k[hi[k] - lo[k] > 1e-10]
            if not k.size:
                break
            mid = 0.5 * (lo[k] + hi[k])
            fm = _chord_defect(body, c, mid)
            hit = fm == 0.0
            lo[k[hit]] = hi[k[hit]] = mid[hit]
            left = ~hit & ((fm < 0) == (flo[k] < 0))
            lo[k[left]], flo[k[left]] = mid[left], fm[left]
            right = ~hit & ~left
            hi[k[right]], fhi[k[right]] = mid[right], fm[right]
        # the secant through the ends of each bracket, whose signs differ
        roots = lo + (hi - lo) * (flo / (flo - fhi))
        r = body.radius(roots)
        roots = np.arctan2(r * np.sin(roots) - c[1], r * np.cos(roots) - c[0])
    # mod pi, a direction just below 0 rounds to pi
    roots = roots % np.pi
    roots = sorted(float(t) for t in np.where(roots < np.pi, roots, 0.0))
    return {"symmetric_all": False, "count": len(roots),
            "directions": roots}
