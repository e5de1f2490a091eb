"""Seeded inputs and correctness gates for the benchmark workloads.

Every input the program receives is generated here from the workload seed,
except the fixed n = 5 and the CLI's built-in planar demos.  The gates
recompute what they check with code of their own (shoelace and trapezoid
centroids, ray distances, brentq), never with the program's.
"""

import hashlib
import json
import math

import numpy as np
from scipy.optimize import brentq
from scipy.spatial import ConvexHull

SWEEP_GRIDS = (361, 721, 1441)
# a returned chord direction must sit within this of the oracle's root
DIRECTION_TOL = 1e-8
# half-width of the window in which the oracle looks for that root
DIRECTION_WINDOW = 1e-6


# ---------------------------------------------------------------------------
# certify-n5

def certify_inputs(seed):
    """Per chain: construct's --seed (it only picks the spline spot-check
    sample) and the vertices of a random convex polygon for planar."""
    rng = np.random.default_rng(seed)
    while True:
        pts = rng.normal(size=(int(rng.integers(6, 25)), 2))
        pts *= [1.0, rng.uniform(0.4, 1.0)]
        yield int(rng.integers(0, 2 ** 31)), pts[ConvexHull(pts).vertices]


def polygon_csv(vertices) -> str:
    return "x,y\n" + "".join(f"{float(x)!r},{float(y)!r}\n"
                              for x, y in vertices)


def certificate_digest(cert: dict) -> str:
    """sha256 of the certificate outside meta and config.seed."""
    body = {k: v for k, v in cert.items() if k != "meta"}
    body["config"] = {k: v for k, v in cert["config"].items() if k != "seed"}
    text = json.dumps(body, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def certificate_failures(cert: dict, ref: dict) -> list:
    """Gate failures of a construct certificate against the reference."""
    out = []
    if cert.get("valid") is not True:
        out.append(f"certificate not valid: {cert.get('failures')}")
    rtol = ref["rel_tol"]
    for key in ("lambda0", "eps0"):
        got, want = cert.get(key), ref[key]
        if not (isinstance(got, float) and math.isfinite(got)
                and abs(got - want) <= rtol * abs(want)):
            out.append(f"{key} = {got!r}, reference {want!r}")
    return out


# ---------------------------------------------------------------------------
# sweep-warm-n6

def sweep_rounds(seed):
    """Rounds of three operations, one per grid size in seeded order, each
    with a log-uniform starting eps in [1e-4, 1e-2]."""
    rng = np.random.default_rng(seed)
    while True:
        grids = rng.permutation(SWEEP_GRIDS)
        starts = 10.0 ** rng.uniform(-4.0, -2.0, size=3)
        yield [(int(g), float(e)) for g, e in zip(grids, starts)]


def sweep_failures(result: dict, tol: dict) -> list:
    out = []
    sweep, kappa = result["sweep"], result["kappa_min"]
    if not sweep["max_rel_err"] <= tol["identity_rel"]:
        out.append(f"identity rel err {sweep['max_rel_err']!r}")
    if not sweep["min_margin"] > 0.0:
        out.append(f"section margin {sweep['min_margin']!r}")
    if not kappa > tol["convexity_margin"]:
        out.append(f"kappa_min {kappa!r}")
    return out


# ---------------------------------------------------------------------------
# planar steps of certify-n5

class FourierProfile:
    """r(theta) = 1 + sum_k a_k cos(k theta) + b_k sin(k theta)."""

    def __init__(self, coeffs: dict):
        self.coeffs = coeffs            # k -> (a_k, b_k)

    def __call__(self, theta):
        r = 1.0
        for k, (a, b) in self.coeffs.items():
            r = r + a * np.cos(k * theta) + b * np.sin(k * theta)
        return r

    def derivatives(self, theta):
        r, r1, r2 = 1.0 + 0 * theta, 0 * theta, 0 * theta
        for k, (a, b) in self.coeffs.items():
            c, s = np.cos(k * theta), np.sin(k * theta)
            r = r + a * c + b * s
            r1 = r1 + k * (b * c - a * s)
            r2 = r2 - k * k * (a * c + b * s)
        return r, r1, r2


# the profile of the CLI's "planar --demo blob", as documented there
BLOB = FourierProfile({1: (0.3, 0.0), 2: (0.0, 0.1)})


def input_failures(kind, data) -> list:
    """Convexity of a planar input: a polygon's vertices or a profile."""
    if kind == "polygon":
        e = np.roll(data, -1, axis=0) - data
        turn = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] \
            - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        return [] if np.all(turn > 0) else ["polygon input is not convex"]
    th = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    r, r1, r2 = data.derivatives(th)
    ok = np.all(r > 0) and np.all(r * r + 2 * r1 * r1 - r * r2 > 0)
    return [] if ok else ["radial input is not convex"]


def _oracle_centroid(kind, data):
    if kind == "polygon":
        x, y = data[:, 0], data[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        cr = x * yn - xn * y
        area = cr.sum() / 2.0
        return np.array([((x + xn) * cr).sum(), ((y + yn) * cr).sum()]) \
            / (6.0 * area)
    th = np.linspace(0.0, 2 * np.pi, 8192, endpoint=False)
    r = data(th)
    area = np.mean(r ** 2) * np.pi
    return np.array([np.mean(r ** 3 * np.cos(th)),
                     np.mean(r ** 3 * np.sin(th))]) * (2 * np.pi / 3) / area


def _oracle_distance(kind, data, c, theta):
    """Distance from c to the boundary along direction theta."""
    d = np.array([math.cos(theta), math.sin(theta)])
    if kind == "polygon":
        p, q = data, np.roll(data, -1, axis=0)
        e = q - p
        den = d[0] * e[:, 1] - d[1] * e[:, 0]
        w = p - c
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (w[:, 0] * e[:, 1] - w[:, 1] * e[:, 0]) / den
            s = (w[:, 0] * d[1] - w[:, 1] * d[0]) / den
        hit = (t > 0) & (s >= -1e-12) & (s <= 1 + 1e-12)
        return float(np.min(t[hit]))

    def outside(t):
        x, y = c + t * d
        return math.hypot(x, y) - float(data(math.atan2(y, x)))
    return brentq(outside, 0.0, 4.0, xtol=1e-15, rtol=1e-15)


def planar_failures(kind, data, payload) -> list:
    """Check the planar.json of a CLI planar run against the oracle; kind
    "control" is a centrally symmetric body."""
    count, dirs = payload["count"], payload["directions"]
    if kind == "control":
        return [] if count == "symmetric_all" else \
            [f"symmetric control got count {count}"]
    fails = input_failures(kind, data)
    if count == "symmetric_all":
        return fails + ["non-symmetric body reported symmetric_all"]
    if not (count >= 3 and count % 2 == 1 and len(dirs) == count):
        return fails + [f"bad count {count}"]
    c = _oracle_centroid(kind, data)

    def defect(t):
        return (_oracle_distance(kind, data, c, t)
                - _oracle_distance(kind, data, c, t + np.pi))
    for t in dirs:
        lo, hi = t - DIRECTION_WINDOW, t + DIRECTION_WINDOW
        if defect(lo) * defect(hi) >= 0:
            fails.append(f"direction {t!r} is not a bisected chord")
            continue
        root = brentq(defect, lo, hi, xtol=1e-14)
        if abs(root - t) > DIRECTION_TOL:
            fails.append(f"direction {t!r} off the oracle root {root!r}")
    return fails
