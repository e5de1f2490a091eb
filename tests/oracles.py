"""Independent reference computations used as oracles.

Everything here deliberately avoids the package's own quadrature,
recurrences, and transform code: scipy special functions, Monte-Carlo
sampling, finite differences, and brute-force scans only.  Tests
compute the oracle value first, then compare the package against it.
"""

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


def random_convex_hull(rng, points=20):
    """Vertices of the convex hull of random points, counterclockwise."""
    from scipy.spatial import ConvexHull
    pts = rng.random((points, 2)) * 2.0 - 1.0
    hull = ConvexHull(pts)
    return pts[hull.vertices]
