"""The shared Gegenbauer recurrence kernel and the one-step Gauss-Jacobi
rule, against plain references."""

import numpy as np
import pytest
from scipy.special import roots_jacobi

from centroid_sections import gauss_jacobi, spherical_core as sc

from oracles import SEED, gegenbauer_series_plain, weight_moment

LD = np.longdouble
B = sc._BLOCK


@pytest.mark.parametrize("dtype", [np.float64, LD])
@pytest.mark.parametrize("shape", [(), (1,), (B - 1,), (B,), (B + 1,),
                                   (3, B // 2 + 1)])
@pytest.mark.parametrize("max_degree", [0, 1, 2, 7])
def test_accumulate_matches_plain_recurrence_bitwise(dtype, shape,
                                                     max_degree):
    rng = np.random.default_rng(SEED)
    coeffs = rng.standard_normal(max_degree + 1).astype(dtype)
    coeffs[3::4] = 0.0
    u = rng.uniform(-1.0, 1.0, shape)
    want = gegenbauer_series_plain(coeffs, 1.5, u, dtype)
    got = sc._rolling_accumulate(coeffs, 1.5, u)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_projection_matches_plain_recurrence_bitwise():
    rng = np.random.default_rng(SEED)
    u = rng.uniform(-1.0, 1.0, 300).astype(LD)
    fw = rng.standard_normal(300).astype(LD)
    max_degree = 40
    norms = sc._norm_ratios(1.5, max_degree)
    want = [fw.sum() / norms[0]]
    for m in range(1, max_degree + 1):
        unit = np.zeros(m + 1)
        unit[m] = 1.0
        want.append((fw @ gegenbauer_series_plain(unit, 1.5, u, LD))
                    / norms[m])
    got = sc._project_onto_basis(fw, 1.5, u, max_degree, norms)
    assert np.array_equal(got, np.array(want, dtype=LD))


@pytest.mark.parametrize("order,beta", [(3392, 1.0), (1728, 0.5)])
def test_one_step_quadrature_at_shipped_orders(order, beta):
    q = gauss_jacobi(order, beta)
    x, w = q.nodes, q.weights
    assert x.dtype == LD and w.dtype == LD
    assert np.all(np.diff(x) > 0)
    assert x[0] > -1.0 and x[-1] < 1.0
    assert np.all(w > 0)

    # a further Newton step, with C_Q' = 2 lam C_{Q-1}^{lam+1} rather than
    # the package's (1 - x^2) C_Q' identity, leaves the nodes in place.
    # The recurrence's rounding noise is absolute, so nodes nearer 0 than
    # 1/2 are held to the ulp of 1/2 instead of their own finer one.
    lam = beta + 0.5
    unit = np.zeros(order + 1)
    unit[order] = 1.0
    cq = gegenbauer_series_plain(unit, lam, x, LD)
    dcq = 2 * LD(lam) * gegenbauer_series_plain(unit[1:], lam + 1, x, LD)
    ulp = np.spacing(np.maximum(np.abs(x), LD(0.5)))
    assert np.all(np.abs(cq / dcq) <= 4 * ulp)

    for j in range(65):  # even moments up to degree 128
        exact = weight_moment(j, beta)
        got = float(w @ x ** (2 * j))
        assert abs(got - exact) <= 1e-14 * exact


def test_newton_start_outside_basin_raises(monkeypatch):
    x, w = roots_jacobi(64, 1.0, 1.0)
    monkeypatch.setattr(sc, "roots_jacobi", lambda n, a, b: (x + 1e-9, w))
    with pytest.raises(ValueError, match="Newton basin"):
        sc._gauss_jacobi_cached.__wrapped__(64, 1.0)
