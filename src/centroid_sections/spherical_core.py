"""Spectral machinery for rotationally invariant functions on the sphere.

A function on S^{n-1} that is invariant under rotations about the last
coordinate axis is a function of u = <xi, e_n>.  Everything here works with
that one-dimensional representation:

  - quadrature against the weight (1-u^2)^beta on the angles i pi / N,
    weights from one FFT of closed-form moments (_uniform_rule),
  - expansion in Gegenbauer polynomials C_m^lambda with lambda = (n-2)/2,
    projected by one FFT of weighted samples (expand) and summed by their
    three-term recurrence,
  - the conversion of a Gegenbauer series into a cosine series in
    theta = arccos u, and the float64 sum of such a series at many points
    by two-sided block angle addition (_cosine_sum), whose summation order
    is fixed point by point and whose angles are reduced by 2 pi in
    float64 with one rounding, from theta formed in longdouble once per
    point (_split_theta, _reduced_angles),
  - the diagonal multiplier action realizing the Fourier transform of
    homogeneous extensions |x|^{-p} f(x/|x|) for 0 < p < n,
  - a Parseval-type pairing residual.

Convention: forward transform kernel e^{-i<x,y>} with no 2*pi factor, so a
double transform of an even function multiplies by (2*pi)^n.  For odd
profiles the transform carries an extra factor -i which is dropped here; the
returned multiplier is real and composes to (2*pi)^n under double
application just like the even case.

Internal arithmetic runs in extended precision (numpy longdouble).  The
multiplier grows like m^{(n-2)/2} relative to c_n, which amplifies
coefficient noise near u = +-1; 64-bit coefficients would cap pole accuracy
near 1e-9 while extended precision reaches ~1e-13.  The cosine sums are
the exception: their coefficients are cast once, and everything per angle
is float64.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .config import RunConfig

LD = np.longdouble
_PI_LD = np.arccos(LD(-1))

# the parities of a series of definite parity, by the parity of its degrees
_PARITIES = ("even", "odd")

# gauss_jacobi, eval_spectrum_deriv and parseval_residual are no longer
# public and nothing in the package calls them; they stay module attributes
# only because the benchmark's tracer (perfbench/tracer.py) looks them up,
# until the tracer reads a run's own record (see ROADMAP)
__all__ = [
    "GegenbauerSpectrum", "SphereProfile", "sphere_area", "expand",
    "eval_spectrum", "bochner_multiplier", "ft_homogeneous",
]


# ---------------------------------------------------------------------------
# domain types

@dataclass
class SphereProfile:
    """Restriction of a rotationally invariant sphere function to u in [-1,1].

    parity is one of "even", "odd", "mixed".  derivs, when present, holds
    closed-form callables for d/du, d2/du2, ...; curvature() reads the
    first two and needs them.
    """

    n: int
    eval: Callable
    parity: str = "mixed"
    derivs: Optional[Sequence[Callable]] = None

    def __call__(self, u):
        return self.eval(u)


@dataclass
class GegenbauerSpectrum:
    n: int
    lambda_index: float
    coeffs: np.ndarray
    parity: str = "mixed"

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs)
        if self.parity == "even" and np.any(self.coeffs[1::2] != 0):
            raise ValueError("even parity requires zero odd coefficients")
        if self.parity == "odd" and np.any(self.coeffs[0::2] != 0):
            raise ValueError("odd parity requires zero even coefficients")

    @property
    def max_degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass
class Quadrature:
    order: int
    beta: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


# ---------------------------------------------------------------------------
# Gegenbauer recurrences

def _norm_ratios(lam, max_degree, dtype=LD):
    """Norms h_m = integral of C_m^2 against (1-u^2)^(lam-1/2), by ratio
    recurrence from h_0 so only one gamma evaluation enters."""
    lam_f = float(lam)
    h = np.empty(max_degree + 1, dtype=dtype)
    h0 = np.sqrt(np.pi) * np.exp(math.lgamma(lam_f + 0.5)
                                 - math.lgamma(lam_f + 1.0))
    h[0] = dtype(h0)
    lam = dtype(lam)
    for m in range(1, max_degree + 1):
        h[m] = h[m - 1] * (m - 1 + 2 * lam) * (m - 1 + lam) / ((m + lam) * m)
    return h


def _rolling_accumulate(coeffs, lam, u, dtype=None):
    """Sum_m coeffs[m] C_m^lam(u), shaped like u, without a value table:
    the three-term recurrence for C_m^lam walks the degrees over every
    point at once, each step ((2u * (m + lam - 1)) * C_{m-1} - (m + 2 lam
    - 2) * C_{m-2}) / m in exactly that operation order, which every
    caller relies on for bit-stable results."""
    u = np.asarray(u)
    if dtype is None:
        dtype = np.result_type(coeffs.dtype, u.dtype, np.float64)
    dtype = np.dtype(dtype).type
    c = np.asarray(coeffs, dtype=dtype)
    x = np.asarray(u, dtype=dtype).reshape(-1)
    lam = dtype(lam)
    m = np.arange(len(c)).astype(dtype)
    a, b = m + lam - 1, m + 2 * lam - 2
    acc = np.full(x.size, c[0], dtype=dtype)
    pm1, p, u2 = np.ones_like(x), x * (2 * lam), x * 2
    t, term = np.empty_like(x), np.empty_like(x)
    for j in range(1, len(c)):
        if j > 1:
            np.multiply(u2, a[j], out=t)
            t *= p
            pm1 *= b[j]
            t -= pm1
            t /= m[j]
            pm1, p, t = p, t, pm1
        if c[j] != 0:
            np.multiply(c[j], p, out=term)
            acc += term
    return acc.reshape(u.shape)


def _accumulate_at_zero(coeffs, lam):
    """_rolling_accumulate of an even series at u = 0, bit for bit, as one
    longdouble (or coeffs' dtype) scalar: at u = 0 the recurrence's step
    is C_j(0) = -((j + 2 lam - 2) C_{j-2}(0)) / j, the odd C_j(0) vanish,
    and the terms are added in the same order."""
    c = np.asarray(coeffs)
    t = c.dtype.type
    lam = t(lam)
    acc, p = c[0], t(1)
    for j in range(2, len(c), 2):
        p = -(p * (t(j) + 2 * lam - 2)) / t(j)
        if c[j] != 0:
            acc += c[j] * p
    return acc


def _divide_by_u(coeffs, lam):
    """Coefficients of (f(u) - f(0)) / u, one degree lower, for the series
    f = sum_m coeffs[m] C_m^lam: synthetic division from the top degree
    through u C_k = [(k+1) C_{k+1} + (k+2 lam-1) C_{k-1}] / (2 (k+lam)).
    The remainder f(0) is never formed, so nothing cancels near u = 0."""
    c = np.asarray(coeffs)
    lam = c.dtype.type(lam)
    top = len(c) - 1
    d = np.zeros(top + 2, dtype=c.dtype)
    for m in range(top, 0, -1):
        d[m - 1] = ((c[m] - d[m + 1] * (m + 2 * lam) / (2 * (m + 1 + lam)))
                    * (2 * (m - 1 + lam)) / m)
    return d[:top]


def _connection_weights(lam, size: int, dtype) -> np.ndarray:
    """g_j = (lam)_j / j! for j < size, in dtype: the weights of
    C_k^lam(cos theta) = sum_j g_j g_{k-j} cos((k - 2j) theta) (Szego,
    Orthogonal Polynomials, 4.9).  Every g_j is positive."""
    j = np.arange(1, size, dtype=dtype)
    return np.concatenate([np.ones(1, dtype=dtype),
                           np.cumprod((dtype(lam) + j - 1) / j)])


def _cosine_coeffs(coeffs, lam, parity):
    """Coefficients d of sum_m d[m] cos(m theta) = f(cos theta) for the
    series f = sum_k coeffs[k] C_k^lam of the given parity ("even" or
    "odd"), in the dtype of coeffs:
    d_m = 2 sum_s coeffs[m+2s] g_s g_{m+s} for m >= 1, g the connection
    weights.  Only the degrees of that parity are formed; the others are
    exactly 0.  They are positive combinations, so the conversion adds no
    cancellation of its own; for the bump quotient sum |d_m| is about
    twice max |f|."""
    c = np.asarray(coeffs)
    size = len(c)
    p = _PARITIES.index(parity)
    g = _connection_weights(lam, size, c.dtype.type)
    d = np.zeros(size, dtype=c.dtype)
    for s in range((size + 1) // 2):
        top = size - 2 * s
        d[p:top:2] += g[s] * (c[2 * s + p::2] * g[s + p:s + top:2])
    d[1:] *= 2
    return d


def _gegenbauer_moments(moments, lam, parity):
    """The transpose of _cosine_coeffs: from the cosine moments
    F_k = int f(cos theta) cos(k theta) dtheta of a function, its moments
    P_m = int f(cos theta) C_m^lam(cos theta) dtheta
        = sum_j g_j g_{m-j} F_{|m-2j|},
    m < len(moments), in the dtype of moments, for the degrees m of the
    given parity; the others are left 0."""
    f = np.array(moments)
    size = len(f)
    q = _PARITIES.index(parity)
    g = _connection_weights(lam, size, f.dtype.type)
    f[1:] *= 2
    p = np.zeros(size, dtype=f.dtype)
    for s in range((size + 1) // 2):
        top = size - 2 * s
        p[2 * s + q::2] += g[s] * (f[q:top:2] * g[s + q:s + top:2])
    return p


def _folded_accumulate(coeffs, lam, u, parity):
    """_rolling_accumulate over u, a series of definite parity once per
    distinct |u| and mirrored: IEEE rounding is sign-symmetric, so the
    recurrence is exactly even or odd in u and the fold moves no bit."""
    u = np.asarray(u)
    if parity not in ("even", "odd"):
        return _rolling_accumulate(coeffs, lam, u)
    a, inv = np.unique(np.abs(u).ravel(), return_inverse=True)
    out = _rolling_accumulate(coeffs, lam, a)[inv].reshape(u.shape)
    if parity == "odd":
        np.negative(out, out=out, where=u < 0)
    return out


# degrees per block of _cosine_sum, and the bytes that the temporaries of
# one chunk of its points may take
_COS_BLOCK = 64
_COS_CHUNK_BYTES = 1 << 19

# theta's high part keeps _THETA_BITS significant bits, so k theta_hi is
# exact in float64 for every degree k < _MAX_DEGREE = 2^(53 - _THETA_BITS)
_THETA_BITS = 40
_MAX_DEGREE = 1 << (53 - _THETA_BITS)
_THETA_MASK = ~np.uint64(_MAX_DEGREE - 1)
# 2 pi = _TWO_PI_HI + _TWO_PI_LO + O(5e-29): the high part has 40
# significant bits, so n _TWO_PI_HI is exact for n < 2^13
_TWO_PI_HI = float.fromhex("0x1.921fb54442000p+2")
_TWO_PI_LO = float.fromhex("0x1.a308d313198a3p-39")


def _split_theta(a):
    """theta = arccos a for float64 a in [0, 1], in longdouble, as two
    float64 parts: theta_hi, theta rounded to float64 and cut to
    _THETA_BITS significant bits, and theta_lo = theta - theta_hi, which
    has at most 25 significant bits and so is exact."""
    theta = np.arccos(a.astype(LD))
    hi = (theta.astype(np.float64).view(np.uint64) & _THETA_MASK).view(
        np.float64)
    return hi, (theta - hi).astype(np.float64)


def _reduced_angles(hi, lo, k):
    """k theta - 2 pi n, n = rint(k theta_hi / 2 pi), in float64 for the
    split theta = hi + lo (columns) and the integer degrees k < 8192 (a
    row): within one rounding of the exact angle, so within half an ulp
    of pi of k theta mod 2 pi.

    Cody and Waite's reduction.  k hi is exact (40 + 13 bits), and so is
    n _TWO_PI_HI (n <= 4096).  n >= 1 only when k hi >= pi, so hi >=
    pi / k > 2^-12: k hi and n _TWO_PI_HI are then both multiples of
    2^(e - 39) >= 2^-51, e the exponent of hi, and k hi - n _TWO_PI_HI,
    below pi + 1e-8 in magnitude, is fewer than 2^53 of those units, so
    exact too (with n = 0 it is k hi itself).  The small part k lo -
    n _TWO_PI_LO is below 3e-8 and off by about 1e-24; the one rounding
    left is their sum's.
    """
    x = hi * k
    n = np.rint(x * (1 / (2 * np.pi)))
    x -= n * _TWO_PI_HI
    x += lo * k - n * _TWO_PI_LO
    return x


def _cosine_sum(d, u, parity):
    """sum_m d[m] cos(m theta), theta = arccos |u|, for a cosine series d
    of the given parity ("even" or "odd"; its other entries are not read),
    summed in float64 and shaped like u.  It is folded: an odd series
    changes sign with u and is exactly 0 at u = 0.

    Two-sided block angle addition: write each degree as m = O_a + 2b,
    O_a = 2aB + p, B = _COS_BLOCK, p the parity and b in [-B/2, B/2).
    The degrees O_a +- 2b share
        cos((O_a +- 2b) theta) = cos(O_a theta) cos(2b theta)
                                 -+ sin(O_a theta) sin(2b theta),
    so per point the series is sum_a cos(O_a theta) x_a - sin(O_a theta)
    y_a with
        x_a = sum_{b=0}^{B/2} (c+_ab + c-_ab) cos(2b theta),
        y_a = sum_{b=1}^{B/2} (c+_ab - c-_ab) sin(2b theta),
    c+_ab and c-_ab the coefficients of degrees O_a + 2b and O_a - 2b in
    block a (0 where the block or the series has none): B/2 + 1 inner
    angles, A outer ones and two A x (B/2 + 1) contractions, half the
    products of one-sided blocks.  theta = arccos |u| is formed in
    longdouble once per point and split into two float64 parts, from
    which every angle is formed and reduced by 2 pi in float64 with one
    rounding (_reduced_angles).  The contractions are np.einsum's, whose
    summation order depends on the operand shapes alone, not on BLAS
    threads or on which points share the call: a point's value has the
    same bits however it is batched.  Each distinct |u| is summed once, in
    chunks whose temporaries stay under _COS_CHUNK_BYTES.
    """
    p = _PARITIES.index(parity)
    c = np.asarray(d, dtype=np.float64)[p::2]
    half = _COS_BLOCK // 2
    rows = (c.size - 1 + half) // _COS_BLOCK + 1
    # c_j, the coefficient of degree 2j + p, at j + half of a zero-padded
    # copy; block a's offset b is at j = aB + b.  b = B/2 belongs to the
    # next block and b = 0 has no c-
    padded = np.zeros((rows + 1) * _COS_BLOCK)
    padded[half:half + c.size] = c
    zero = _COS_BLOCK * np.arange(rows)[:, None] + half
    b = np.arange(half + 1)
    cp, cm = padded[zero + b], padded[zero - b]
    cp[:, half] = cm[:, 0] = 0.0
    csum, cdiff = cp + cm, (cp - cm)[:, 1:]
    k = np.concatenate([2 * np.arange(half + 1),
                        2 * _COS_BLOCK * np.arange(rows) + p]).astype(
                            np.float64)
    if k[-1] >= _MAX_DEGREE:
        raise ValueError(f"cosine series of {len(d)} terms: _cosine_sum "
                         f"reduces angles exactly below degree {_MAX_DEGREE}")
    u = np.asarray(u, dtype=np.float64)
    a, inv = np.unique(np.abs(u).ravel(), return_inverse=True)
    hi, lo = _split_theta(a)
    hi, lo = hi[:, None], lo[:, None]
    out = np.empty(a.size)
    # about 12 float64 temporaries per angle of a point
    chunk = max(1, _COS_CHUNK_BYTES // (96 * k.size))
    for start in range(0, a.size, chunk):
        part = slice(start, start + chunk)
        t = _reduced_angles(hi[part], lo[part], k)
        cos, sin = np.cos(t), np.sin(t)
        x = np.einsum("pb,ab->pa", cos[:, :half + 1], csum)
        y = np.einsum("pb,ab->pa", sin[:, 1:half + 1], cdiff)
        out[part] = (np.einsum("pa,pa->p", cos[:, half + 1:], x)
                     - np.einsum("pa,pa->p", sin[:, half + 1:], y))
    out = out[inv].reshape(u.shape)
    if p:
        out[u == 0] = 0.0
        np.negative(out, out=out, where=u < 0)
    return out


# ---------------------------------------------------------------------------
# quadrature

def _uniform_rule(order: int, beta: float, unit: bool = False) -> Quadrature:
    """The rule for the weight (1 - u^2)^beta, k = 2 beta + 1 a
    nonnegative integer, on the order + 1 nodes u_i = cos(i pi / order):
    longdouble, ordered by angle (u descends) and mirrored bit for bit, an
    even order's middle node exactly 0.

    In psi = arccos u the integral is int_0^pi F(cos psi) sin^k psi dpsi;
    with p = k mod 2 the weights are (pi / order) h_i sum''_j (M_j / pi)
    cos(i j pi / order) sin^{k-p} psi_i, M_j = int_0^pi cos(j psi) sin^p psi
    dpsi and h_i = 1/2 at the ends, from one real FFT (Clenshaw-Curtis for
    p = 1, the trapezoid rule for p = 0; Waldvogel, BIT 46, 2006).  Exact
    for polynomial F of degree up to order - k + 1 (p = 1) or 2 order - k
    - 1 (p = 0).  unit=True leaves out the factor pi / order of every
    weight, for a caller that applies it once to an FFT's result.
    """
    k = 2 * beta + 1
    if order < 2:
        raise ValueError("quadrature order must be at least 2")
    if not (k >= 0 and k == int(k)):
        raise ValueError("the rule needs 2 beta + 1 a nonnegative integer")
    k, p = int(k), int(k) % 2
    moments = np.zeros(order + 1, dtype=LD)
    if p:
        j = np.arange(0, order + 1, 2, dtype=LD)
        moments[::2] = 2 / (_PI_LD * (1 - j * j))
    else:
        moments[0] = 1
    half = order // 2 + 1
    w = np.fft.rfft(np.concatenate([moments, moments[-2:0:-1]])).real[:half]
    w[0] /= 2
    psi = np.arange(half, dtype=LD) * (_PI_LD / order)
    w *= np.sin(psi) ** (k - p)
    if not unit:
        w *= _PI_LD / order
    x = np.cos(psi)
    if order % 2 == 0:
        x[-1] = 0
    m = order - order // 2
    return Quadrature(order=order, beta=beta,
                      nodes=np.concatenate([x, -x[:m][::-1]]),
                      weights=np.concatenate([w, w[:m][::-1]]))


def gauss_jacobi(order: int, beta: float) -> Quadrature:
    """Gauss-Jacobi rule for (1-u^2)^beta on (-1, 1), float64, ascending,
    by Golub and Welsch (Math. Comp. 23, 1969): exact to degree 2*order-1.
    The package integrates on _uniform_rule; the benchmark's tracer looks
    this name up."""
    if order < 2:
        raise ValueError("quadrature order must be at least 2")
    if beta <= -1:
        raise ValueError("Jacobi exponent must exceed -1")
    k = np.arange(1, order)
    lam = beta + 0.5
    off = np.sqrt(k * (k + 2 * lam - 1) / (4 * (k + lam) * (k + lam - 1)))
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return Quadrature(order=order, beta=beta, nodes=x,
                      weights=float(_norm_ratios(lam, 0)[0]) * v[0] ** 2)


def sphere_area(k: int) -> float:
    """Surface area of the unit sphere S^k in R^{k+1}."""
    return float(2 * np.pi ** ((k + 1) / 2) / np.exp(math.lgamma((k + 1) / 2)))


# ---------------------------------------------------------------------------
# expansion and evaluation

def expand(f, n: int, max_degree: int, order: Optional[int] = None,
           parity: Optional[str] = None) -> GegenbauerSpectrum:
    """Expand a profile in C_m^{(n-2)/2} against the S^{n-1} surface weight.

    f is sampled on the order-`order` uniform-angle rule for that weight
    (_uniform_rule), on its nonnegative nodes only and mirrored if f
    declares itself even or odd.  One real FFT of the weighted samples
    gives the cosine moments, _gegenbauer_moments those against C_m for
    each parity, and a coefficient is that over the norm h_m.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    lam = (n - 2) / 2
    if parity is None:
        parity = getattr(f, "parity", "mixed")
    if order is None:
        order = max(256, max_degree + 64)
    if order < max_degree:
        raise ValueError("the rule's order must reach max_degree")
    q = _uniform_rule(order, (n - 3) / 2, unit=True)
    x = q.nodes
    if parity in ("even", "odd"):
        v = np.asarray(f(x[:order // 2 + 1]), dtype=LD)
        sign = 1 if parity == "even" else -1
        vals = np.concatenate([v, sign * v[:order - order // 2][::-1]])
        parities = [parity]
    else:
        vals = np.asarray(f(x), dtype=LD)
        parities = list(_PARITIES)
    # sum_i y_i cos(j psi_i) is half the FFT of the samples mirrored to
    # the full period, the two ends counted twice; the rule's common factor
    # pi / order comes in once, on the moments
    y = vals * q.weights
    y = np.concatenate([y, y[-2:0:-1]])
    y[[0, order]] *= 2
    moments = np.fft.rfft(y).real[:max_degree + 1] * (_PI_LD / (2 * order))
    co = sum(_gegenbauer_moments(moments, lam, p) for p in parities)
    co /= _norm_ratios(lam, max_degree)
    return GegenbauerSpectrum(n=n, lambda_index=lam, coeffs=co,
                              parity=parity)


def eval_spectrum(s: GegenbauerSpectrum, u):
    """Evaluate the expansion at u via the three-term recurrence; an even
    or odd expansion is summed once per distinct |u|."""
    scalar = np.isscalar(u) or np.ndim(u) == 0
    out = _folded_accumulate(s.coeffs, s.lambda_index, np.atleast_1d(u),
                             s.parity)
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
    # an odd derivative swaps the parity of the series
    parity = s.parity
    if k % 2:
        parity = {"even": "odd", "odd": "even"}.get(parity)
    out = pref * _folded_accumulate(co[k:], lam + k, np.atleast_1d(u), parity)
    out = out.astype(np.float64)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Fourier side

def _gamma_ld(x: float):
    """Gamma(x) in longdouble.  When 2x is a positive integer it is the
    product (x - 1)(x - 2)... down to 1 or 1/2, times sqrt(pi) for a
    half-integer; otherwise exp of the float64 lgamma."""
    if not (x > 0 and 2 * x == int(2 * x)):
        return np.exp(LD(math.lgamma(x)))
    out = LD(1) if x == int(x) else np.sqrt(_PI_LD)
    t = LD(x) - 1
    while t > 0:
        out *= t
        t -= 1
    return out


def _bochner_multipliers_ld(n: int, p: float, m) -> np.ndarray:
    """bochner_multiplier at the nonnegative integer degrees of the array
    m, in longdouble: mu(0) and mu(1) from _gamma_ld, then the running
    product mu(m + 2) = -mu(m) (n - p + m) / (p + m), so that no float64
    log magnitude rounds them and coefficient-by-coefficient products do
    not round twice.  Beyond longdouble (c_n is from n = 2611) they are
    inf or NaN, without a warning: callers name that."""
    m = np.asarray(m).astype(np.intp)
    top = int(np.max(m, initial=1))
    mu = np.empty(top + 1, dtype=LD)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = _PI_LD ** (LD(n) / 2) * LD(2) ** (n - p)
        for start in (0, 1):
            mu[start] = (scale * _gamma_ld((n - p + start) / 2)
                         / _gamma_ld((p + start) / 2))
            k = np.arange(start, top - 1, 2, dtype=LD)
            mu[start + 2::2] = mu[start] * np.cumprod(-(n - p + k) / (p + k))
    return mu[m]


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
    out = _bochner_multipliers_ld(n, p, m_arr)
    if np.isscalar(m) or np.ndim(m) == 0:
        return float(out[0])
    return out.astype(np.float64)


def ft_homogeneous(profile: SphereProfile, p: float,
                   max_degree: int = RunConfig.max_degree,
                   order: Optional[int] = None) -> GegenbauerSpectrum:
    """Transform of the degree -p extension |x|^{-p} profile(x/|x|), a
    function of degree -(n-p), as its Gegenbauer spectrum.

    Diagonal in the Gegenbauer expansion: coefficient m picks up
    bochner_multiplier(m, p, n).  The coefficients stay in longdouble.
    """
    n = profile.n
    if not 0 < p < n:
        raise ValueError("homogeneity degree must lie in (0, n)")
    spec = expand(profile, n, max_degree, order=order)
    mu = _bochner_multipliers_ld(n, p, np.arange(max_degree + 1))
    return replace(spec, coeffs=spec.coeffs * mu)


def parseval_residual(f: SphereProfile, g: SphereProfile, p: float,
                      max_degree: int = RunConfig.max_degree,
                      order: int = RunConfig.quad_order) -> float:
    """Residual of the sphere pairing identity for complementary degrees.

    f is extended at degree -p and g at degree -(n-p); the transform acts
    at degree p on both profiles, and the identity compared is
        int (T_p f) g  =  int f (T_p g)
    over S^{n-1}, each side computed by quadrature from pointwise values.
    Residual is |A - B| / max(|A|, |B|, 1e-30).
    """
    n = f.n
    if g.n != n:
        raise ValueError("dimension mismatch")
    fhat = ft_homogeneous(f, p, max_degree=max_degree, order=order)
    ghat = ft_homogeneous(g, p, max_degree=max_degree, order=order)
    q = _uniform_rule(order, (n - 3) / 2)
    x = q.nodes
    area = LD(sphere_area(n - 2))
    A = area * (q.weights @ (np.asarray(eval_spectrum(fhat, x), dtype=LD)
                             * np.asarray(g(x), dtype=LD)))
    B = area * (q.weights @ (np.asarray(f(x), dtype=LD)
                             * np.asarray(eval_spectrum(ghat, x), dtype=LD)))
    # difference taken before any float64 cast: for analytic pairs the
    # residual sits at the longdouble noise floor, well under 1e-16
    return float(abs(A - B) / max(abs(A), abs(B), LD(1e-30)))
