"""Independent reference computations used as oracles.

Everything here deliberately avoids the package's own quadrature,
recurrences, and transform code: scipy special functions and quadrature
rules, Monte-Carlo sampling, finite differences, and brute-force scans
only.  Tests compute the oracle value first, then compare the package
against it.
"""

import math

import mpmath
import numpy as np
from scipy import integrate, special

SEED = 0x5EED

_BALL_VOL = {k: np.pi ** (k / 2.0) / special.gamma(k / 2.0 + 1.0) for k in range(2, 12)}


def ball_volume(n, radius=1.0):
    return _BALL_VOL[n] * radius ** n


def surface_area(n):
    """|S^{n-1}|, the boundary area of the unit ball in R^n."""
    return n * _BALL_VOL[n]


def weight_moment(j, beta):
    """Closed form of int_{-1}^1 u^{2j} (1-u^2)^beta du."""
    return float(special.beta(j + 0.5, beta + 1.0))


def gegenbauer_value(m, lam, u):
    # scipy ufuncs reject longdouble input
    return special.eval_gegenbauer(m, lam, np.asarray(u, dtype=float))


def gegenbauer_series_plain(coeffs, lam, u, dtype):
    """Sum_m coeffs[m] C_m^lam(u) in the given dtype by the textbook
    three-term recurrence, one degree at a time over the whole array.

    Same operation order as the package kernel, which must reproduce it
    bit for bit; zero coefficients are skipped, as there.
    """
    u = np.asarray(u).astype(dtype)
    lam = dtype(lam)
    c = np.asarray(coeffs, dtype=dtype)
    acc = np.full(u.shape, c[0], dtype=dtype)
    if len(c) == 1:
        return acc
    pm1 = np.ones_like(u)
    p = 2 * lam * u
    if c[1] != 0:
        acc += c[1] * p
    for m in range(2, len(c)):
        pm1, p = p, (2 * u * (m + lam - 1) * p - (m + 2 * lam - 2) * pm1) / m
        if c[m] != 0:
            acc += c[m] * p
    return acc


def u_squared_coeffs(lam, nodes=(0.3, 0.7)):
    """Coefficients (c0, c2) with u^2 = c0*C_0 + c2*C_2 in the
    Gegenbauer basis, from a 2x2 collocation solve."""
    u1, u2 = nodes
    A = np.array([[1.0, special.eval_gegenbauer(2, lam, u1)],
                  [1.0, special.eval_gegenbauer(2, lam, u2)]])
    b = np.array([u1 ** 2, u2 ** 2])
    return np.linalg.solve(A, b)


def quad_weighted(f, beta, limit=200):
    """Adaptive int_{-1}^1 f(u) (1-u^2)^beta du via scipy."""
    val, _ = integrate.quad(lambda u: f(u) * (1.0 - u * u) ** beta,
                            -1.0, 1.0, limit=limit)
    return val


def bisect_sign_change(f, lo, hi, iters=200):
    flo = f(lo)
    if not flo * f(hi) < 0:
        raise ValueError("no sign change on bracket")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def mc_sphere_mean(n, f, samples=10 ** 6, seed=SEED):
    """(mean, sigma) of f(x_n/|x|) over the uniform measure on S^{n-1}."""
    rng = np.random.default_rng(seed)
    vals = np.empty(samples)
    done = 0
    while done < samples:
        chunk = min(10 ** 6, samples - done)
        x = rng.standard_normal((chunk, n))
        u = x[:, -1] / np.linalg.norm(x, axis=1)
        vals[done:done + chunk] = f(u)
        done += chunk
    return vals.mean(), vals.std(ddof=1) / np.sqrt(samples)


def mc_subsphere_integral(n, f, u_xi, samples=10 ** 6, seed=SEED):
    """(estimate, sigma) of the integral of f(x_n) over the unit
    (n-2)-sphere S^{n-1} cut by the hyperplane normal to
    xi = (sin a, 0,...,0, cos a), cos a = u_xi.

    A uniform point of the cut has x_n = t * sqrt(1-u_xi^2) with t the
    first coordinate of a uniform point on S^{n-2}.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, n - 1))
    t = g[:, 0] / np.linalg.norm(g, axis=1)
    vals = f(t * np.sqrt(1.0 - u_xi ** 2))
    area = surface_area(n - 1)
    return area * vals.mean(), area * vals.std(ddof=1) / np.sqrt(samples)


def mc_membership(n, rho_fn, samples=10 ** 7, seed=SEED, radius=None):
    """Membership Monte-Carlo for a star body given by its radial
    profile rho(u), u = x_n/|x|.

    Returns (volume, vol_sigma, centroid_n, cen_sigma): points are drawn
    uniformly from the enclosing ball, membership is |x| <= rho(u).
    """
    if radius is None:
        uu = np.linspace(-1.0, 1.0, 20001)
        radius = float(np.max(rho_fn(uu))) * (1.0 + 1e-12)
    rng = np.random.default_rng(seed)
    hits = 0
    s1 = 0.0
    s2 = 0.0
    done = 0
    while done < samples:
        chunk = min(10 ** 6, samples - done)
        x = rng.standard_normal((chunk, n))
        r = np.linalg.norm(x, axis=1)
        # uniform radius in the ball: r_ball = radius * U^{1/n}
        scale = radius * rng.random(chunk) ** (1.0 / n) / r
        x *= scale[:, None]
        rr = np.linalg.norm(x, axis=1)
        inside = rr <= rho_fn(x[:, -1] / rr)
        hits += int(inside.sum())
        zn = x[inside, -1]
        s1 += zn.sum()
        s2 += (zn ** 2).sum()
        done += chunk
    vol_ball = ball_volume(n, radius)
    p = hits / samples
    vol = vol_ball * p
    vol_sigma = vol_ball * np.sqrt(max(p * (1.0 - p), 1e-300) / samples)
    mean = s1 / hits
    var = max(s2 / hits - mean ** 2, 0.0)
    cen_sigma = np.sqrt(var / hits)
    return vol, vol_sigma, mean, cen_sigma


def fd_curvature(rho_fn, thetas, h=1e-5):
    """Finite-difference planar curvature of the meridian curve
    theta -> rho(cos theta) (sin theta, cos theta)."""
    def xy(t):
        r = rho_fn(np.cos(t))
        return r * np.sin(t), r * np.cos(t)

    x0, y0 = xy(thetas)
    xp, yp = xy(thetas + h)
    xm, ym = xy(thetas - h)
    dx = (xp - xm) / (2.0 * h)
    dy = (yp - ym) / (2.0 * h)
    ddx = (xp - 2.0 * x0 + xm) / h ** 2
    ddy = (yp - 2.0 * y0 + ym) / h ** 2
    # the meridian runs clockwise as theta grows, so the standard signed
    # formula is negated to make convex bodies positive
    return (dy * ddx - dx * ddy) / (dx * dx + dy * dy) ** 1.5


def fd_deriv(f, u, k=1, h=1e-4):
    """Central finite differences, fourth order, for k in {1, 2, 3}."""
    u = np.asarray(u, dtype=float)
    if k == 1:
        return (-f(u + 2 * h) + 8 * f(u + h) - 8 * f(u - h) + f(u - 2 * h)) / (12 * h)
    if k == 2:
        return (-f(u + 2 * h) + 16 * f(u + h) - 30 * f(u) + 16 * f(u - h)
                - f(u - 2 * h)) / (12 * h ** 2)
    if k == 3:
        # Fornberg order-4 weights; note the inner signs flip relative
        # to the first-derivative stencil
        return (f(u - 3 * h) - 8 * f(u - 2 * h) + 13 * f(u - h) - 13 * f(u + h)
                + 8 * f(u + 2 * h) - f(u + 3 * h)) / (8 * h ** 3)
    raise ValueError("k must be 1, 2, or 3")


def count_antipodal_sign_changes(radius_fn, resolution=1 << 16):
    """Brute-force count of sign changes of rho(t) - rho(t+pi) over
    [0, pi), with the antiperiodic wrap-around crossing included."""
    t = np.linspace(0.0, np.pi, resolution, endpoint=False)
    f = radius_fn(t) - radius_fn(t + np.pi)
    g = np.append(f, -f[0])
    s = np.sign(g)
    s[s == 0] = 1
    return int(np.sum(s[1:] != s[:-1]))


def chord_defect_orthogonality(radius_fn, resolution=4096):
    """Integrals of rho(t)^3 - rho(t+pi)^3 against cos and sin over
    [0, pi), normalized by the profile scale.

    Both vanish when the centroid is at the origin: they are the two
    components of the centroid written as boundary integrals, which is
    the mechanism behind the minimum of three bisected chords.
    """
    t = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    r3 = radius_fn(t) ** 3
    ic = np.mean(r3 * np.cos(t)) * 2 * np.pi
    is_ = np.mean(r3 * np.sin(t)) * 2 * np.pi
    return np.array([ic, is_]) / (3.0 * np.max(r3))


def shifted_radius_loop(fn, c, alpha):
    """Radius about center c in the direction alpha (a float) of the curve
    with radial profile fn about the origin, one scalar bisection per
    direction: the per-angle loop that planar.recenter vectorizes.

    Same bracket widening, stop rule and operation order as the package,
    so with the same fn values the result is bit-equal.
    """
    ca, sa = np.cos(alpha), np.sin(alpha)

    def h(theta):
        r = float(fn(theta))
        return ca * (r * np.sin(theta) - c[1]) - sa * (r * np.cos(theta) - c[0])

    lo, hi = alpha - np.pi / 2, alpha + np.pi / 2
    flo, fhi = h(lo), h(hi)
    k = 0
    while flo * fhi > 0 and k < 20:
        lo -= np.pi / 16
        hi += np.pi / 16
        flo, fhi = h(lo), h(hi)
        k += 1
    if flo * fhi > 0:
        raise ValueError("failed to bracket the shifted boundary point")
    for _ in range(100):
        if hi - lo < 1e-14:
            break
        mid = 0.5 * (lo + hi)
        fm = h(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    r = float(fn(theta))
    return float(np.hypot(r * np.cos(theta) - c[0], r * np.sin(theta) - c[1]))


def random_convex_hull(rng, points=20):
    """Vertices of the convex hull of random points, counterclockwise."""
    from scipy.spatial import ConvexHull
    pts = rng.random((points, 2)) * 2.0 - 1.0
    hull = ConvexHull(pts)
    return pts[hull.vertices]


def gauss_jacobi_full_newton(order, beta, x64):
    """Gauss-Jacobi rule for (1-u^2)^beta: one longdouble Newton step from
    the float64 start x64 (all order nodes), taken at every node, and the
    weights 2 (lam + Q - 1) / Q * h_{Q-1} / (C_{Q-1} C_Q') at the refined
    nodes.

    The full-node form of the package's step, in its operation order
    (plain three-term recurrence, the (1 - x^2) C_Q' identity, the norm
    ratio recurrence from math.lgamma's h_0), so the package's mirrored
    half must match it bit for bit when both start from the same nodes.
    """
    LD = np.longdouble
    lam = LD(beta + 0.5)
    x = np.sort(np.asarray(x64, dtype=np.float64)).astype(LD)

    def top_pair(x):
        pm1, p = np.ones_like(x), 2 * lam * x
        for m in range(2, order + 1):
            pm1, p = p, (2 * x * (m + lam - 1) * p - (m + 2 * lam - 2) * pm1) / m
        dcq = ((-order * x * p + (order + 2 * lam - 1) * pm1)
               / ((1 - x) * (1 + x)))
        return p, pm1, dcq

    cq, _, dcq = top_pair(x)
    x = x - cq / dcq
    _, cqm1, dcq = top_pair(x)
    h = LD(np.sqrt(np.pi) * np.exp(math.lgamma(float(lam) + 0.5)
                                   - math.lgamma(float(lam) + 1.0)))
    for m in range(1, order):
        h = h * (m - 1 + 2 * lam) * (m - 1 + lam) / ((m + lam) * m)
    return x, 2 * (lam + order - 1) / order * h / (cqm1 * dcq)


def gegenbauer_projection_gauss_jacobi(profile, n, max_degree, order):
    """Gegenbauer coefficients, degrees 0..max_degree, of the transform of
    the degree -1 extension of profile: scipy's Gauss-Jacobi rule of the
    given order for (1-u^2)^{(n-3)/2}, polished by one longdouble Newton
    step at every node (gauss_jacobi_full_newton), sum_i w_i f(u_i) C_m(u_i)
    by the textbook three-term recurrence in longdouble, over the norm h_m =
    pi 2^{1-2 lam} Gamma(m + 2 lam) / (m! (m + lam) Gamma(lam)^2) and times
    the multiplier bochner_multiplier_mp(m, 1, n), both by mpmath.  Shares
    no code with the package."""
    LD = np.longdouble
    beta = (n - 3) / 2.0
    x, w = gauss_jacobi_full_newton(
        order, beta, special.roots_jacobi(order, beta, beta)[0])
    fw = np.asarray(profile(x), dtype=LD) * w
    lam = LD(n - 2) / 2
    out = np.empty(max_degree + 1, dtype=LD)
    pm1, p = np.ones_like(x), 2 * lam * x
    out[0], out[1] = fw.sum(), fw @ p
    for m in range(2, max_degree + 1):
        pm1, p = p, (2 * x * (m + lam - 1) * p - (m + 2 * lam - 2) * pm1) / m
        out[m] = fw @ p
    with mpmath.workdps(30):
        lm = mpmath.mpf(n - 2) / 2
        c = mpmath.pi * 2 ** (1 - 2 * lm) / mpmath.gamma(lm) ** 2
        factor = [float(bochner_multiplier_mp(m, 1, n) * mpmath.factorial(m)
                        * (m + lm) / (c * mpmath.gamma(m + 2 * lm)))
                  for m in range(max_degree + 1)]
    return out * np.array(factor, dtype=LD)


def odd_quotient_integral(coeffs, lam, u, order=96):
    """(f(u) - f(0)) / u for f = sum_m coeffs[m] C_m^lam as the integral
    int_0^1 f'(s u) ds by order-point Gauss-Legendre, with
    f' = 2 lam sum_m coeffs[m] C_{m-1}^{lam+1} by the plain recurrence.
    Accurate near u = 0, where the difference quotient cancels."""
    s, w = special.roots_legendre(order)
    pts = np.outer(0.5 * (s + 1.0), np.asarray(u, dtype=float))
    d1 = 2 * lam * gegenbauer_series_plain(
        np.asarray(coeffs, dtype=float)[1:], lam + 1, pts, np.float64)
    return (0.5 * w) @ d1


def gap_quotient_mp(n, u):
    """(phi, phi', phi'') at u for phi(t) = -c_n expm1(-q log1p(3t^2)) / t,
    q = (n-1)/2 and c_n = pi^{n/2} 2^{n-1} Gamma(q) / Gamma(1/2): the gap
    transform's odd quotient, by mpmath's Taylor coefficients at 40 digits.
    At u = 0 the exact values 0, 3q c_n and 0."""
    with mpmath.workdps(40):
        q = mpmath.mpf(n - 1) / 2
        cn = (mpmath.pi ** (mpmath.mpf(n) / 2) * 2 ** (n - 1)
              * mpmath.gamma(q) / mpmath.gamma(mpmath.mpf(1) / 2))
        if u == 0:
            return 0.0, float(3 * q * cn), 0.0
        c = mpmath.taylor(
            lambda t: -cn * mpmath.expm1(-q * mpmath.log1p(3 * t * t)) / t,
            mpmath.mpf(u), 2)
        return float(c[0]), float(c[1]), float(2 * c[2])


def bochner_multiplier_mp(m, p, n):
    """(-1)^{floor(m/2)} pi^{n/2} 2^{n-p} Gamma((n-p+m)/2) / Gamma((p+m)/2)
    by mpmath at 40 digits, as an mpf."""
    with mpmath.workdps(40):
        sign = 1 if (m // 2) % 2 == 0 else -1
        return +(sign * mpmath.pi ** (mpmath.mpf(n) / 2)
                 * mpmath.mpf(2) ** (n - p)
                 * mpmath.gamma(mpmath.mpf(n - p + m) / 2)
                 / mpmath.gamma(mpmath.mpf(p + m) / 2))


def longdouble_to_mpf(x):
    """The exact value of a longdouble as an mpf: its 64-bit significand
    times a power of two."""
    mant, exp = np.frexp(np.longdouble(x))
    with mpmath.workdps(40):
        return mpmath.ldexp(mpmath.mpf(int(np.ldexp(mant, 64))),
                            int(exp) - 64)


def odd_quotient_difference(coeffs, lam, u):
    """(f(u) - f(0)) / u for f = sum_m coeffs[m] C_m^lam, summed by the
    plain recurrence in longdouble.  Accurate away from u = 0."""
    LD = np.longdouble
    c = np.asarray(coeffs, dtype=float)
    u = np.asarray(u, dtype=float).astype(LD)
    f = gegenbauer_series_plain(c, lam, u, LD)
    f0 = gegenbauer_series_plain(c, lam, np.zeros(1, dtype=LD), LD)[0]
    return ((f - f0) / u).astype(float)


def radon_subsphere(f, n, u_xi, order=256):
    """Integral of f(x_n) over the great subsphere of S^{n-1} orthogonal
    to a direction xi with <xi, e_n> = u_xi.

    With r = sqrt(1-u_xi^2) this is
    |S^{n-3}| int_{-1}^{1} f(t r) (1-t^2)^{(n-4)/2} dt, summed by scipy's
    float64 Gauss-Jacobi rule.  Requires n >= 5 so the weight exponent is
    at least 1/2.
    """
    if n < 5:
        raise ValueError("subsphere reduction implemented for n >= 5 only")
    if not -1 <= u_xi <= 1:
        raise ValueError("u_xi must lie in [-1, 1]")
    beta = (n - 4) / 2.0
    t, w = special.roots_jacobi(order, beta, beta)
    r = np.sqrt(max(0.0, 1.0 - float(u_xi) ** 2))
    return float(surface_area(n - 2) * (w @ np.asarray(f(t * r), dtype=float)))


def ft_via_radon(profile, p, u_xi, order=256):
    """Pointwise transform of the degree -p homogeneous extension of a
    profile on S^{n-1} (profile.n = n) by the subsphere route, which needs
    p = n - 1: pi times the great-subsphere integral of the profile."""
    if abs(p - (profile.n - 1)) > 1e-9:
        raise ValueError("subsphere transform route needs degree n-1")
    return np.pi * radon_subsphere(profile, profile.n, u_xi, order=order)


def sphere_integral(f, n, order=256):
    """Integral over S^{n-1} of a rotationally invariant function:
    |S^{n-2}| int_{-1}^{1} f(u) (1-u^2)^{(n-3)/2} du."""
    beta = (n - 3) / 2.0
    u, w = special.roots_jacobi(order, beta, beta)
    return float(surface_area(n - 1) * (w @ np.asarray(f(u), dtype=float)))


def volume(body, order=256):
    """|K| = (|S^{n-2}| / n) int rho^n (1-u^2)^{(n-3)/2} du for a body of
    revolution with radial profile body.rho."""
    n = body.n
    return sphere_integral(lambda u: np.asarray(body.rho(u), float) ** n,
                           n, order) / n


def centroid_axis(body, order=256):
    """Axis component of the centroid of a body of revolution:
    |K| <c, e_n> = (|S^{n-2}| / (n+1)) int u rho^{n+1} (1-u^2)^{(n-3)/2} du.
    """
    n = body.n
    beta = (n - 3) / 2.0
    u, w = special.roots_jacobi(order, beta, beta)
    rho = np.asarray(body.rho(u), dtype=float)
    return ((w @ (u * rho ** (n + 1))) / (n + 1)) / ((w @ rho ** n) / n)


def _section_parts(body, u_xi, order):
    """(integral of x_n over the section, |section|) for the central
    section orthogonal to a direction xi with <xi, e_n> = u_xi; on its
    unit subsphere x_n = t sqrt(1 - u_xi^2)."""
    n = body.n
    if n < 5:
        raise ValueError("section reduction implemented for n >= 5 only")
    beta = (n - 4) / 2.0
    t, w = special.roots_jacobi(order, beta, beta)
    r = np.sqrt(max(0.0, 1.0 - float(u_xi) ** 2))
    rho = np.asarray(body.rho(t * r), dtype=float)
    sub = surface_area(n - 2)
    return (sub / n * (w @ (t * r * rho ** n)),
            sub / (n - 1) * (w @ rho ** (n - 1)))


def section_volume(body, u_xi, order=256):
    """(n-1)-volume of the central hyperplane section orthogonal to a
    direction xi with <xi, e_n> = u_xi."""
    return float(_section_parts(body, u_xi, order)[1])


def section_centroid_axis(body, u_xi, order=256):
    """Axis component of the centroid of that section; by rotational
    symmetry any xi with the same <xi, e_n> gives a congruent section."""
    num, vol = _section_parts(body, u_xi, order)
    return float(num / vol)


def unfolded_sweep(ctx, lam, eps, u_grid):
    """lhs of ctx.identity_sweep with the bump's cosine series summed at
    every direction and at 1 by its own call, where the sweep sums it once
    per distinct |u| of one call and mirrors it.  Same kernel and
    operation order, so the two must agree bit for bit."""
    from centroid_sections.spherical_core import _cosine_sum
    b = np.array([_cosine_sum(ctx.bump_cosine, np.array([x]), "even")[0]
                  for x in np.append(u_grid, 1.0)])
    scale = eps * (2.0 * np.pi) ** ctx.n / np.pi
    return scale * ((1.0 - lam) * (b[:-1] - b[-1])
                    + lam * np.asarray(ctx.gap(u_grid), dtype=float))


def gegenbauer_series_ld(coeffs, lam, u):
    """Sum_m coeffs[m] C_m^lam(u) by the plain three-term recurrence in
    longdouble, at the float64 points u taken exactly; returned in
    longdouble."""
    LD = np.longdouble
    return gegenbauer_series_plain(np.asarray(coeffs, dtype=LD), lam,
                                   np.asarray(u, dtype=np.float64).astype(LD),
                                   LD)


def cosine_coeffs_full(coeffs, lam):
    """The Gegenbauer-to-cosine conversion d_m = 2 sum_s coeffs[m+2s] g_s
    g_{m+s} (d_0 without the 2) over every degree, whatever the parity:
    the package's loop before it skipped the degrees a definite parity
    leaves 0, in its operation order, so the entries of that parity must
    agree bit for bit."""
    c = np.asarray(coeffs)
    size = len(c)
    t = c.dtype.type
    j = np.arange(1, size, dtype=t)
    g = np.concatenate([np.ones(1, dtype=t), np.cumprod((t(lam) + j - 1) / j)])
    d = np.zeros(size, dtype=c.dtype)
    for s in range((size + 1) // 2):
        top = size - 2 * s
        d[:top] += g[s] * (c[2 * s:] * g[s:s + top])
    d[1:] *= 2
    return d


def gegenbauer_moments_full(moments, lam):
    """The transpose of cosine_coeffs_full, P_m = sum_j g_j g_{m-j}
    F_{|m-2j|} over every degree m: the package's loop before it skipped
    the degrees of the other parity, in its operation order."""
    f = np.array(moments)
    size = len(f)
    t = f.dtype.type
    j = np.arange(1, size, dtype=t)
    g = np.concatenate([np.ones(1, dtype=t), np.cumprod((t(lam) + j - 1) / j)])
    f[1:] *= 2
    p = np.zeros(size, dtype=f.dtype)
    for s in range((size + 1) // 2):
        top = size - 2 * s
        p[2 * s:] += g[s] * (f[:top] * g[s:s + top])
    return p


def quadrature_lhs(ctx, lam, eps, u_grid, order):
    """lhs of the section identity, the integral of s (rho_b^n + eps phi)(s)
    over the unit subsphere orthogonal to each direction, by scipy's
    Gauss-Jacobi rule of the given order; phi from the float64 bump
    quotient's Gegenbauer series (three-term recurrence) and the gap
    quotient's closed form."""
    from centroid_sections import eval_spectrum
    n = ctx.n
    beta = (n - 4) / 2.0
    t, w = special.roots_jacobi(order, beta, beta)
    v = np.sqrt(1.0 - np.asarray(u_grid) ** 2)[:, None] * t
    phi = ((1.0 - lam) * eval_spectrum(ctx.bump_quotient, v)
           + lam * ctx._gap_q[0](v))
    f = np.asarray(ctx.base.rho(v), dtype=float) ** n + eps * phi
    return surface_area(n - 2) * ((v * f) @ w)


def quotient_theta_jet_ld(coeffs, lam, nodes):
    """(q, q_theta, q_theta_theta) at theta_i = i (pi/2) / (nodes - 1),
    i < nodes, for the series q(u) = sum_m coeffs[m] C_m^lam(u),
    u = cos theta, all in longdouble: the angles exact to longdouble, the
    plain recurrence for q and, through d/du C_m^lam = 2 lam
    C_{m-1}^{lam+1}, for q' and q'', then d/dtheta = -sin theta d/du.
    Returned in float64."""
    LD = np.longdouble
    c = np.asarray(coeffs, dtype=LD)
    pi = np.arccos(LD(-1))
    theta = np.arange(nodes, dtype=LD) * (pi / (2 * (nodes - 1)))
    u, s = np.cos(theta), np.sin(theta)
    q = gegenbauer_series_plain(c, lam, u, LD)
    q1 = 2 * LD(lam) * gegenbauer_series_plain(c[1:], lam + 1, u, LD)
    q2 = (4 * LD(lam) * (LD(lam) + 1)
          * gegenbauer_series_plain(c[2:], lam + 2, u, LD))
    return tuple(np.asarray(j, dtype=float)
                 for j in (q, -s * q1, s * s * q2 - u * q1))


def kappa_series_route(ctx, lam, eps):
    """(kappa_min, argmin theta) of the perturbed body of a construction
    context by the u-form route: on theta_i = i pi / 4000, the bump
    quotient's derivatives from its float64 Gegenbauer series
    (eval_spectrum_deriv), the gap quotient's from its closed forms, the
    chain rule for r = (rho^n + eps phi)^{1/n} in u, and the meridian
    curvature written in u-derivatives,

        kappa = (r^2 + 2 s^2 r'^2 - r (s^2 r'' - u r'))
                / (r^2 + s^2 r'^2)^{3/2},  s = sin theta."""
    from centroid_sections.spherical_core import eval_spectrum_deriv
    n = ctx.n
    theta = np.linspace(0.0, np.pi, 4001)
    u, s = np.cos(theta), np.sin(theta)
    phi = [(1.0 - lam) * eval_spectrum_deriv(ctx.bump_quotient, u, k)
           + lam * ctx._gap_q[k](u) for k in range(3)]
    rb, rb1, rb2 = (np.asarray(f(u), dtype=float)
                    for f in (ctx.base.rho, *ctx.base.rho.derivs))
    f = rb ** n + eps * phi[0]
    f1 = n * rb ** (n - 1) * rb1 + eps * phi[1]
    f2 = (n * (n - 1) * rb ** (n - 2) * rb1 ** 2 + n * rb ** (n - 1) * rb2
          + eps * phi[2])
    r = f ** (1.0 / n)
    r1 = f ** (1.0 / n - 1) * f1 / n
    r2 = ((1.0 / n - 1) * f ** (1.0 / n - 2) * f1 ** 2 / n
          + f ** (1.0 / n - 1) * f2 / n)
    kappa = ((r * r + 2 * s * s * r1 * r1 - r * (s * s * r2 - u * r1))
             / (r * r + s * s * r1 * r1) ** 1.5)
    i = int(np.argmin(kappa))
    return float(kappa[i]), float(theta[i])


def angle_reduction_error(hi, lo, k, reduced, shift=300):
    """max |reduced - (k theta mod 2 pi)| over the entries, theta = hi + lo
    the exact sum of two float64 columns and k a row of integers, as a
    float: exact integer arithmetic on the grid 2^-shift, on which every
    float64 of magnitude above 2^-shift lies, with 2 pi rounded to it (by
    mpmath).  A reduced angle a multiple of 2 pi away counts as equal."""
    from fractions import Fraction
    with mpmath.workprec(shift + 16):
        two_pi = int(mpmath.nint(mpmath.ldexp(2 * mpmath.pi, shift)))
    scale = Fraction(2) ** shift

    def fixed(x):
        q = Fraction(float(x)) * scale
        assert q.denominator == 1
        return q.numerator

    hi, lo, reduced = (np.broadcast_to(x, np.broadcast(hi, k).shape)
                       for x in (hi, lo, reduced))
    worst = 0
    for h, l, kk, r in zip(hi.ravel(), lo.ravel(),
                           np.broadcast_to(k, hi.shape).ravel(),
                           reduced.ravel()):
        d = fixed(r) - int(kk) * (fixed(h) + fixed(l))
        d = (d + two_pi // 2) % two_pi - two_pi // 2
        worst = max(worst, abs(d))
    return float(Fraction(worst) / scale)


def chord_defect_two_calls(body, theta):
    """rho(theta) - rho(theta + pi) from two radius calls, one per end."""
    return body.radius(theta) - body.radius(np.asarray(theta) + np.pi)
