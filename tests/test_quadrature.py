import numpy as np
import pytest

from centroid_sections.spherical_core import _uniform_rule, gauss_jacobi

from oracles import weight_moment


@pytest.mark.parametrize("order,beta", [(8, 0.0), (16, 0.5), (32, 1.0),
                                        (12, 1.5), (64, 0.5), (7, 2.0)])
def test_even_moments_match_beta_function(order, beta):
    q = gauss_jacobi(order, beta)
    for j in range(order):  # u^{2j} has degree 2j <= 2*order - 2
        exact = weight_moment(j, beta)
        got = float(q.weights @ q.nodes ** (2 * j))
        assert abs(got - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("order,beta", [(8, 0.0), (16, 0.5), (32, 1.0)])
def test_odd_moments_vanish(order, beta):
    q = gauss_jacobi(order, beta)
    for j in range(order):
        assert abs(float(q.weights @ q.nodes ** (2 * j + 1))) <= 1e-14


def test_flat_weight_total_length():
    q = gauss_jacobi(8, 0.0)
    assert abs(float(q.weights.sum()) - 2.0) <= 1e-13


def test_half_power_weight_total():
    q = gauss_jacobi(16, 0.5)
    assert abs(float(q.weights.sum()) - np.pi / 2.0) <= 1e-13


def test_square_integrand_weighted_once():
    # oracle: B(3/2, 2) evaluated independently, then the known fraction
    exact = weight_moment(1, 1.0)
    assert abs(exact - 4.0 / 15.0) <= 1e-15
    q = gauss_jacobi(32, 1.0)
    got = float(q.weights @ q.nodes ** 2)
    assert abs(got - exact) <= 1e-13


@pytest.mark.parametrize("order,beta", [(8, 0.0), (16, 0.5), (48, 1.0),
                                        (256, 1.0), (96, 0.02)])
def test_nodes_interior_sorted_weights_positive(order, beta):
    q = gauss_jacobi(order, beta)
    assert q.nodes.shape == (order,) and q.weights.shape == (order,)
    assert np.all(np.diff(q.nodes) > 0)
    assert q.nodes[0] > -1.0 and q.nodes[-1] < 1.0
    assert np.all(q.weights > 0)


def test_nodes_symmetric_about_origin():
    q = gauss_jacobi(33, 0.5)
    assert np.allclose(q.nodes, -q.nodes[::-1], atol=1e-15)
    assert np.allclose(q.weights, q.weights[::-1], rtol=1e-14)


@pytest.mark.parametrize("order,beta", [(1, 0.5), (0, 0.5), (-3, 0.5),
                                        (8, -1.0), (8, -1.5)])
def test_invalid_parameters_raise(order, beta):
    with pytest.raises(ValueError):
        gauss_jacobi(order, beta)


def test_non_polynomial_converges_with_order():
    # exp(u) against the half-power weight; adaptive scipy as reference
    from oracles import quad_weighted
    ref = quad_weighted(np.exp, 0.5)
    got = [float(gauss_jacobi(o, 0.5).weights @ np.exp(gauss_jacobi(o, 0.5).nodes))
           for o in (4, 8, 16)]
    err = [abs(g - ref) for g in got]
    assert err[1] < err[0] and err[2] <= 1e-13


# the uniform-angle rule that the package integrates on


def _exact_degree(order, k):
    # the largest degree of a polynomial F that the rule integrates exactly
    # against (1 - u^2)^beta, k = 2 beta + 1
    return order - k + 1 if k % 2 else 2 * order - k - 1


@pytest.mark.parametrize("order", [16, 33, 64])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_uniform_rule_exact_on_weight_moments(k, order):
    # u^{2j} (1 - u^2)^beta for every even 2j up to the rule's degree,
    # against the beta function; measured <= 8.1e-16 relative.  (At order
    # 256 and degree 340 scipy's float64 beta function is the less accurate
    # of the two: 8.0e-14 from mpmath, against 6.2e-17 for the rule)
    beta = (k - 1) / 2
    q = _uniform_rule(order, beta)
    x, w = q.nodes, q.weights
    for j in range(_exact_degree(order, k) // 2 + 1):
        exact = weight_moment(j, beta)
        assert abs(float(w @ x ** (2 * j)) - exact) <= 2e-15 * exact


@pytest.mark.parametrize("order", [8, 9, 256, 3456])
@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_uniform_rule_mirrored_bit_for_bit(k, order):
    # nodes cos(i pi / order) from 1 down to -1, odd about the middle and
    # weights even, bit for bit; an even order has its middle node at 0
    q = _uniform_rule(order, (k - 1) / 2)
    x, w = q.nodes, q.weights
    assert x.dtype == np.longdouble and x.shape == w.shape == (order + 1,)
    assert x[0] == 1.0 and np.all(np.diff(x) < 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    if order % 2 == 0:
        assert x[order // 2] == 0.0
    assert np.all(w[1:-1] > 0)
    # the ends carry weight only when sin^k does not vanish there
    assert (w[0] == 0.0) == (k >= 2)


@pytest.mark.parametrize("order,beta", [(1, 0.5), (8, -1.5), (8, 0.25),
                                        (8, -0.45)])
def test_uniform_rule_rejects_invalid_parameters(order, beta):
    with pytest.raises(ValueError):
        _uniform_rule(order, beta)
