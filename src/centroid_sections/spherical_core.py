"""Spectral machinery for rotationally invariant functions on the sphere.

A function on S^{n-1} that is invariant under rotations about the last
coordinate axis is a function of u = <xi, e_n>.  Everything here works with
that one-dimensional representation:

  - Gauss-Jacobi quadrature against the weight (1-u^2)^beta,
  - expansion in Gegenbauer polynomials C_m^lambda with lambda = (n-2)/2,
  - the diagonal multiplier action realizing the Fourier transform of
    homogeneous extensions |x|^{-p} f(x/|x|) for 0 < p < n,
  - the great-subsphere (Radon) integral and the transform route through it,
  - a Parseval-type pairing residual.

Convention: forward transform kernel e^{-i<x,y>} with no 2*pi factor, so a
double transform of an even function multiplies by (2*pi)^n.  For odd
profiles the transform carries an extra factor -i which is dropped here; the
returned multiplier is real and composes to (2*pi)^n under double
application just like the even case.

Internal arithmetic runs in extended precision (numpy longdouble).  The
multiplier grows like m^{(n-2)/2} relative to c_n, which amplifies
coefficient noise near u = +-1; 64-bit coefficients would cap pole accuracy
near 1e-9 while extended precision reaches ~1e-13.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.special import gammaln, roots_jacobi

LD = np.longdouble

__all__ = [
    "GegenbauerSpectrum", "SphereProfile", "SpectrumProfile",
    "HomogeneousFunction", "Quadrature", "gauss_jacobi", "sphere_area",
    "sphere_integral", "expand", "eval_spectrum", "eval_spectrum_deriv",
    "bochner_multiplier", "ft_homogeneous", "radon_subsphere",
    "ft_via_radon", "parseval_residual", "spectrum_to_dict",
    "spectrum_from_dict",
]


# ---------------------------------------------------------------------------
# domain types

@dataclass
class SphereProfile:
    """Restriction of a rotationally invariant sphere function to u in [-1,1].

    parity is one of "even", "odd", "mixed".  derivs, when present, holds
    callables for d/du, d2/du2, ... and is used by curvature code instead of
    spectral differentiation.
    """

    n: int
    eval: Callable
    parity: str = "mixed"
    smoothness_note: str = ""
    derivs: Optional[Sequence[Callable]] = None

    def __call__(self, u):
        return self.eval(u)

    def check_parity(self, u_samples, rtol=1e-10):
        u = np.asarray(u_samples, dtype=float)
        a = np.asarray(self.eval(u), dtype=float)
        b = np.asarray(self.eval(-u), dtype=float)
        scale = max(float(np.max(np.abs(a))), 1e-300)
        if self.parity == "even":
            return float(np.max(np.abs(a - b))) <= rtol * scale
        if self.parity == "odd":
            return float(np.max(np.abs(a + b))) <= rtol * scale
        return True


@dataclass
class GegenbauerSpectrum:
    n: int
    lambda_index: float
    coeffs: np.ndarray
    parity: str = "mixed"
    tail_rel: float = 0.0
    truncation_warning: bool = False

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs)
        if self.parity == "even" and np.any(self.coeffs[1::2] != 0):
            raise ValueError("even parity requires zero odd coefficients")
        if self.parity == "odd" and np.any(self.coeffs[0::2] != 0):
            raise ValueError("odd parity requires zero even coefficients")

    @property
    def max_degree(self) -> int:
        return len(self.coeffs) - 1


class SpectrumProfile(SphereProfile):
    """SphereProfile backed by a GegenbauerSpectrum."""

    def __init__(self, spectrum: GegenbauerSpectrum, smoothness_note=""):
        self.spectrum = spectrum
        super().__init__(n=spectrum.n, eval=self._eval,
                         parity=spectrum.parity,
                         smoothness_note=smoothness_note,
                         derivs=(lambda u: self.deriv(u, 1),
                                 lambda u: self.deriv(u, 2)))

    def _eval(self, u):
        return eval_spectrum(self.spectrum, u)

    def deriv(self, u, k: int):
        return eval_spectrum_deriv(self.spectrum, u, k)


@dataclass
class HomogeneousFunction:
    """Profile extended to R^n minus origin as |x|^{-p} profile(x/|x|)."""

    profile: SphereProfile
    degree_p: float

    def __post_init__(self):
        n = self.profile.n
        if not 0 < self.degree_p < n:
            raise ValueError("homogeneity degree must lie in (0, n)")

    @property
    def n(self) -> int:
        return self.profile.n


@dataclass
class Quadrature:
    order: int
    beta: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


# ---------------------------------------------------------------------------
# Gegenbauer recurrences

# points per block of the recurrence sweep: the four work buffers of a block
# stay in a per-core cache while the sweep walks every degree
_BLOCK = 1 << 14


def _gegenbauer_sweep(lam, u, max_degree, dtype):
    """Walk the three-term recurrence for C_m^lam over the flattened u.

    Yields (block, m, values) for each block of at most _BLOCK points and,
    inside it, for m = 0..max_degree; values holds C_m^lam(u[block]) in a
    work buffer that the next step overwrites, so consumers read it at
    once and never write to it.  Each step computes
    ((2u * (m + lam - 1)) * C_{m-1} - (m + 2 lam - 2) * C_{m-2}) / m in
    exactly that operation order, which every caller relies on for
    bit-stable results.
    """
    dtype = np.dtype(dtype).type
    u = np.asarray(u, dtype=dtype).reshape(-1)
    lam = dtype(lam)
    m = np.arange(max_degree + 1).astype(dtype)
    a = m + lam - 1
    b = m + 2 * lam - 2
    two_lam = 2 * lam
    size = min(u.size, _BLOCK)
    u2_buf, pm1_buf, p_buf, t_buf = (np.empty(size, dtype) for _ in range(4))
    for start in range(0, u.size, _BLOCK):
        block = slice(start, min(start + _BLOCK, u.size))
        k = block.stop - start
        u2, pm1, p, t = u2_buf[:k], pm1_buf[:k], p_buf[:k], t_buf[:k]
        pm1.fill(1)
        yield block, 0, pm1
        if max_degree == 0:
            continue
        np.multiply(u[block], two_lam, out=p)
        yield block, 1, p
        np.multiply(u[block], 2, out=u2)
        for j in range(2, max_degree + 1):
            np.multiply(u2, a[j], out=t)
            t *= p
            pm1 *= b[j]
            t -= pm1
            t /= m[j]
            pm1, p, t = p, t, pm1
            yield block, j, p


def _norm_ratios(lam, max_degree, dtype=LD):
    """Norms h_m = integral of C_m^2 against (1-u^2)^(lam-1/2), by ratio
    recurrence from h_0 so only one gamma evaluation enters."""
    lam_f = float(lam)
    h = np.empty(max_degree + 1, dtype=dtype)
    h0 = np.sqrt(np.pi) * np.exp(gammaln(lam_f + 0.5) - gammaln(lam_f + 1.0))
    h[0] = dtype(h0)
    lam = dtype(lam)
    for m in range(1, max_degree + 1):
        h[m] = h[m - 1] * (m - 1 + 2 * lam) * (m - 1 + lam) / ((m + lam) * m)
    return h


def _rolling_accumulate(coeffs, lam, u, dtype=None):
    """Sum_m coeffs[m] C_m^lam(u), shaped like u, without a value table."""
    u = np.asarray(u)
    if dtype is None:
        dtype = np.result_type(coeffs.dtype, u.dtype, np.float64)
    c = np.asarray(coeffs, dtype=dtype)
    acc = np.full(u.size, c[0], dtype=dtype)
    term = np.empty(min(u.size, _BLOCK), dtype=dtype)
    for block, m, p in _gegenbauer_sweep(lam, u, len(c) - 1, dtype):
        if m and c[m] != 0:
            tm = term[:p.size]
            np.multiply(c[m], p, out=tm)
            acc[block] += tm
    return acc.reshape(u.shape)


def _project_onto_basis(fw, lam, u, max_degree, norms, dtype=LD):
    """Coefficients <f, C_m>/h_m from weighted samples fw = f(u)*w."""
    fw = np.asarray(fw, dtype=dtype)
    out = np.zeros(max_degree + 1, dtype=dtype)
    for block, m, p in _gegenbauer_sweep(lam, u, max_degree, dtype):
        out[m] += fw[block].sum() if m == 0 else fw[block] @ p
    return out / norms


def _top_pair(lam, x, order):
    """C_Q^lam and its derivative at x (Q = order), from one recurrence
    pass that also yields C_{Q-1}, through
    (1 - x^2) C_Q' = -Q x C_Q + (Q + 2 lam - 1) C_{Q-1}.
    Returns (C_Q, C_{Q-1}, C_Q')."""
    cq = np.empty_like(x)
    cqm1 = np.empty_like(x)
    for block, m, p in _gegenbauer_sweep(lam, x, order, LD):
        if m == order - 1:
            cqm1[block] = p
        elif m == order:
            cq[block] = p
    lam = LD(lam)
    dcq = ((-order * x * cq + (order + 2 * lam - 1) * cqm1)
           / ((1 - x) * (1 + x)))
    return cq, cqm1, dcq


# ---------------------------------------------------------------------------
# quadrature

# scipy's float64 roots sit within a few 1e-16 of the true nodes, inside
# Newton's quadratic basin; a larger first step means that start failed
_NEWTON_STEP_MAX = 1e-14


@lru_cache(maxsize=64)
def _gauss_jacobi_cached(order: int, beta: float):
    lam = beta + 0.5
    x64, w64 = roots_jacobi(order, beta, beta)
    x = x64.astype(LD)
    if lam > 0.05:
        # one Newton step in extended precision from the float64 roots;
        # float64 nodes would reintroduce the 1e-16 noise floor that the
        # longdouble pipeline exists to avoid
        cq, _, dcq = _top_pair(lam, x, order)
        step = cq / dcq
        if not np.all(np.abs(step) <= _NEWTON_STEP_MAX):
            raise ValueError(
                f"Gauss-Jacobi start outside the Newton basin at order "
                f"{order}, beta {beta}: largest step "
                f"{float(np.max(np.abs(step))):.3e}")
        x = x - step
        _, cqm1, dcq = _top_pair(lam, x, order)
        h = _norm_ratios(lam, order)
        kratio = 2 * (LD(lam) + order - 1) / order
        w = kratio * h[order - 1] / (cqm1 * dcq)
    else:
        w = w64.astype(LD)
    idx = np.argsort(x)
    return x[idx], w[idx]


def gauss_jacobi(order: int, beta: float) -> Quadrature:
    """Nodes and weights for the weight (1-u^2)^beta on (-1, 1).

    Exact for polynomials up to degree 2*order-1.  Nodes and weights are
    longdouble; downstream float64 consumers may cast freely.
    """
    if order < 2:
        raise ValueError("quadrature order must be at least 2")
    if beta <= -1:
        raise ValueError("Jacobi exponent must exceed -1")
    x, w = _gauss_jacobi_cached(int(order), float(beta))
    return Quadrature(order=order, beta=beta, nodes=x, weights=w)


def sphere_area(k: int) -> float:
    """Surface area of the unit sphere S^k in R^{k+1}."""
    return float(2 * np.pi ** ((k + 1) / 2) / np.exp(gammaln((k + 1) / 2)))


def sphere_integral(f, n: int, order: int = 256) -> float:
    """Integral over S^{n-1} of a rotationally invariant function.

    Reduces to |S^{n-2}| * int_{-1}^{1} f(u) (1-u^2)^{(n-3)/2} du.
    """
    if n < 3:
        raise ValueError("need ambient dimension n >= 3")
    q = gauss_jacobi(order, (n - 3) / 2)
    vals = np.asarray(f(q.nodes), dtype=LD)
    return float(sphere_area(n - 2) * (q.weights @ vals))


# ---------------------------------------------------------------------------
# expansion and evaluation

def expand(f, n: int, max_degree: int, order: Optional[int] = None,
           parity: Optional[str] = None,
           tail_warn_rel: float = 1e-6) -> GegenbauerSpectrum:
    """Expand a profile in C_m^{(n-2)/2} against the S^{n-1} surface weight.

    The tail estimate is the largest coefficient among the last 10% of
    degrees relative to the overall largest; a slowly decaying tail flags
    truncation_warning on the result rather than failing.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    lam = (n - 2) / 2
    if parity is None:
        parity = getattr(f, "parity", "mixed")
    if order is None:
        order = max(256, max_degree + 64)
    q = gauss_jacobi(order, (n - 3) / 2)
    vals = np.asarray(f(q.nodes), dtype=LD)
    norms = _norm_ratios(lam, max_degree)
    co = _project_onto_basis(vals * q.weights, lam, q.nodes, max_degree, norms)
    if parity == "even":
        co[1::2] = 0
    elif parity == "odd":
        co[0::2] = 0
    amax = float(np.max(np.abs(co.astype(np.float64))))
    ntail = max(1, (max_degree + 1) // 10)
    tail = float(np.max(np.abs(co[-ntail:].astype(np.float64))))
    tail_rel = tail / amax if amax > 0 else 0.0
    return GegenbauerSpectrum(
        n=n, lambda_index=lam, coeffs=co, parity=parity, tail_rel=tail_rel,
        truncation_warning=bool(tail_rel > tail_warn_rel))


def eval_spectrum(s: GegenbauerSpectrum, u):
    """Evaluate the expansion at u via the three-term recurrence."""
    scalar = np.isscalar(u) or np.ndim(u) == 0
    out = _rolling_accumulate(s.coeffs, s.lambda_index, np.atleast_1d(u))
    out = out.astype(np.float64)
    return float(out[0]) if scalar else out


def eval_spectrum_deriv(s: GegenbauerSpectrum, u, k: int = 1):
    """k-th derivative d^k/du^k of the expansion.

    Uses d/du C_m^lam = 2 lam C_{m-1}^{lam+1}: the derivative series is the
    degree-shifted coefficient vector evaluated at parameter lam + k.
    """
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if k == 0:
        return eval_spectrum(s, u)
    scalar = np.isscalar(u) or np.ndim(u) == 0
    lam = s.lambda_index
    co = s.coeffs
    if len(co) <= k:
        z = np.zeros(np.atleast_1d(u).shape)
        return 0.0 if scalar else z
    pref = np.prod([2 * (lam + j) for j in range(k)])
    out = pref * _rolling_accumulate(co[k:], lam + k, np.atleast_1d(u))
    out = out.astype(np.float64)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Fourier side

def _bochner_multipliers_ld(n: int, p: float, m_max: int) -> np.ndarray:
    """Multiplier vector for degrees 0..m_max in extended precision.

    Same values as bochner_multiplier but kept in longdouble so that
    coefficient-by-coefficient products do not round twice.
    """
    m_all = np.arange(m_max + 1)
    half = np.where(m_all % 2 == 0, m_all // 2, (m_all - 1) // 2)
    sign = np.where(half % 2 == 0, 1.0, -1.0).astype(LD)
    logmag = ((n / 2) * np.log(np.pi) + (n - p) * np.log(2.0)
              + gammaln((n - p + m_all) / 2) - gammaln((p + m_all) / 2))
    return sign * np.exp(logmag.astype(LD))


def bochner_multiplier(m, p: float, n: int):
    """Scalar action of the transform on harmonic degree m for |x|^{-p}.

    mu(m,p,n) = sign * pi^{n/2} 2^{n-p} Gamma((n-p+m)/2) / Gamma((p+m)/2)
    with sign (-1)^{m/2} for even m and (-1)^{(m-1)/2} for odd m (the odd
    case drops a factor -i, see module docstring).  Satisfies
    mu(m,p,n) * mu(m,n-p,n) = (2 pi)^n.
    """
    if not 0 < p < n:
        raise ValueError("need 0 < p < n for the distributional transform")
    m_arr = np.atleast_1d(np.asarray(m))
    if np.any(m_arr < 0):
        raise ValueError("harmonic degree must be nonnegative")
    half = np.where(m_arr % 2 == 0, m_arr // 2, (m_arr - 1) // 2)
    sign = np.where(half % 2 == 0, 1.0, -1.0)
    logmag = ((n / 2) * np.log(np.pi) + (n - p) * np.log(2.0)
              + gammaln((n - p + m_arr) / 2) - gammaln((p + m_arr) / 2))
    out = sign * np.exp(logmag.astype(LD))
    if np.isscalar(m) or np.ndim(m) == 0:
        return float(out[0])
    return out.astype(np.float64)


def _as_homogeneous(f):
    if isinstance(f, HomogeneousFunction):
        return f
    raise TypeError("expected a HomogeneousFunction")


def ft_homogeneous(f: HomogeneousFunction, max_degree: int = 120,
                   order: Optional[int] = None) -> HomogeneousFunction:
    """Transform of the degree -p extension, returned at degree -(n-p).

    Diagonal in the Gegenbauer expansion: coefficient m picks up
    bochner_multiplier(m, p, n).
    """
    f = _as_homogeneous(f)
    n = f.n
    p = f.degree_p
    spec = expand(f.profile, n, max_degree, order=order)
    mu = _bochner_multipliers_ld(n, p, max_degree)
    out = GegenbauerSpectrum(
        n=n, lambda_index=spec.lambda_index, coeffs=spec.coeffs * mu,
        parity=spec.parity, tail_rel=spec.tail_rel,
        truncation_warning=spec.truncation_warning)
    prof = SpectrumProfile(out, smoothness_note="spectral transform")
    return HomogeneousFunction(profile=prof, degree_p=n - p)


def radon_subsphere(f, n: int, u_xi: float, order: int = 256) -> float:
    """Integral of f over the great subsphere orthogonal to xi.

    With r = sqrt(1-u_xi^2), equals
    |S^{n-3}| int_{-1}^{1} f(t r) (1-t^2)^{(n-4)/2} dt.  Requires n >= 5 so
    the weight exponent is at least 1/2; lower dimensions need a different
    reduction and are rejected.
    """
    if n < 5:
        raise ValueError("subsphere reduction implemented for n >= 5 only")
    if not -1 <= u_xi <= 1:
        raise ValueError("u_xi must lie in [-1, 1]")
    q = gauss_jacobi(order, (n - 4) / 2)
    r = np.sqrt(max(0.0, 1.0 - float(u_xi) ** 2))
    vals = np.asarray(f(q.nodes * LD(r)), dtype=LD)
    return float(sphere_area(n - 3) * (q.weights @ vals))


def ft_via_radon(f: HomogeneousFunction, u_xi: float,
                 order: int = 256) -> float:
    """Pointwise transform of a degree -(n-1) extension via the subsphere
    route: pi times the great-subsphere integral of the profile."""
    f = _as_homogeneous(f)
    if abs(f.degree_p - (f.n - 1)) > 1e-9:
        raise ValueError("subsphere transform route needs degree n-1")
    return float(np.pi) * radon_subsphere(f.profile, f.n, u_xi, order=order)


def parseval_residual(f: HomogeneousFunction, g: HomogeneousFunction,
                      max_degree: int = 120, order: int = 256,
                      floor: float = 1e-30) -> float:
    """Residual of the sphere pairing identity for complementary degrees.

    For declared degrees p and n-p the transform acts at degree p on both
    profiles; the identity compared is
        int (T_p f) g  =  int f (T_p g)
    over S^{n-1}, each side computed by quadrature from pointwise values.
    Residual is |A - B| / max(|A|, |B|, floor).
    """
    f = _as_homogeneous(f)
    g = _as_homogeneous(g)
    n = f.n
    if g.n != n:
        raise ValueError("dimension mismatch")
    if abs((f.degree_p + g.degree_p) - n) > 1e-9:
        raise ValueError("degrees must be complementary: p and n - p")
    p = f.degree_p
    fhat = ft_homogeneous(f, max_degree=max_degree, order=order)
    ghat = ft_homogeneous(HomogeneousFunction(g.profile, p),
                          max_degree=max_degree, order=order)
    q = gauss_jacobi(order, (n - 3) / 2)
    x = q.nodes
    area = LD(sphere_area(n - 2))
    A = area * (q.weights @ (np.asarray(fhat.profile(x), dtype=LD)
                             * np.asarray(g.profile(x), dtype=LD)))
    B = area * (q.weights @ (np.asarray(f.profile(x), dtype=LD)
                             * np.asarray(ghat.profile(x), dtype=LD)))
    # difference taken before any float64 cast: for analytic pairs the
    # residual sits at the longdouble noise floor, well under 1e-16
    return float(abs(A - B) / max(abs(A), abs(B), LD(floor)))


# ---------------------------------------------------------------------------
# serialization

def spectrum_to_dict(s: GegenbauerSpectrum) -> dict:
    return {"n": s.n, "parity": s.parity,
            "coeffs": [float(c) for c in s.coeffs]}


def spectrum_from_dict(d: dict) -> GegenbauerSpectrum:
    n = int(d["n"])
    return GegenbauerSpectrum(
        n=n, lambda_index=(n - 2) / 2,
        coeffs=np.asarray(d["coeffs"], dtype=float), parity=d["parity"])
