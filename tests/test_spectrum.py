import numpy as np
import pytest

from centroid_sections import (GegenbauerSpectrum, eval_spectrum,
                               eval_spectrum_deriv, expand, make_base_body)

from oracles import SEED, fd_deriv, gegenbauer_value, u_squared_coeffs


def test_constant_profile_single_coefficient():
    s = expand(lambda u: np.ones_like(u), 5, 20)
    assert abs(s.coeffs[0] - 1.0) <= 1e-14
    assert np.max(np.abs(s.coeffs[1:])) <= 1e-14


@pytest.mark.parametrize("n", [5, 6, 7])
def test_basis_element_isolated(n):
    lam = (n - 2) / 2.0
    s = expand(lambda u: gegenbauer_value(2, lam, u), n, 20)
    assert abs(s.coeffs[2] - 1.0) <= 1e-13
    other = np.delete(s.coeffs, 2)
    assert np.max(np.abs(other)) <= 1e-13


def test_u_squared_two_coefficients_against_collocation():
    # oracle first: 2x2 collocation solve in scipy's Gegenbauer basis
    c0, c2 = u_squared_coeffs(1.5)
    assert abs(c0 - 0.2) <= 1e-14
    assert abs(c2 - 2.0 / 15.0) <= 1e-14
    s = expand(lambda u: u * u, 5, 30)
    assert abs(s.coeffs[0] - c0) <= 1e-13
    assert abs(s.coeffs[2] - c2) <= 1e-13
    mask = np.ones(len(s.coeffs), dtype=bool)
    mask[[0, 2]] = False
    assert np.max(np.abs(s.coeffs[mask])) <= 1e-13


def test_eval_constant_spectrum():
    s = GegenbauerSpectrum(n=5, lambda_index=1.5,
                           coeffs=np.array([1.0]), parity="even")
    for u in (-1.0, -0.3, 0.0, 0.3, 1.0):
        assert abs(float(eval_spectrum(s, u)) - 1.0) <= 1e-15


@pytest.mark.parametrize("n", [5, 6])
def test_roundtrip_smooth_even_profile(n, rng=None):
    rng = np.random.default_rng(SEED)

    def f(u):
        return np.exp(-u * u) + 0.3 * np.cos(2.0 * u)

    s = expand(f, n, 60, parity="even")
    u = rng.uniform(-1.0, 1.0, 100)
    vals = eval_spectrum(s, u)
    assert np.max(np.abs(vals - f(u)) / np.abs(f(u))) <= 1e-8


def test_roundtrip_coefficientwise():
    rng = np.random.default_rng(SEED)
    coeffs = np.zeros(24)
    coeffs[::2] = rng.standard_normal(12) * np.exp(-0.4 * np.arange(12))
    s = GegenbauerSpectrum(n=5, lambda_index=1.5, coeffs=coeffs, parity="even")
    s2 = expand(lambda u: eval_spectrum(s, u), 5, 23, parity="even")
    assert np.max(np.abs(s2.coeffs - coeffs)) <= 1e-9


def test_base_profile_spectrum_at_pole():
    # closed profile value at the pole: 1 - 2a^{n-2} scaled by 1/a
    a = 0.3
    body = make_base_body(5, a)
    expected = 1.0 - 2.0 * a ** 4
    assert abs(expected - 0.9838) <= 1e-12
    s = expand(body.rho, 5, 120)
    assert abs(float(eval_spectrum(s, 1.0)) - expected) <= 1e-9


def test_parity_zeroes_complementary_coefficients():
    s = expand(lambda u: u ** 4, 5, 20, parity="even")
    assert np.all(s.coeffs[1::2] == 0.0)
    s = expand(lambda u: u ** 3, 5, 20, parity="odd")
    assert np.all(s.coeffs[0::2] == 0.0)


def test_kink_profile_reports_truncation():
    s = expand(np.abs, 5, 40)
    assert s.truncation_warning
    assert s.tail_rel > 1e-6
    smooth = expand(lambda u: np.cos(u), 5, 40)
    assert not smooth.truncation_warning


def test_derivatives_match_finite_differences():
    def f(u):
        return np.exp(-u * u) + 0.3 * np.cos(2.0 * u)

    s = expand(f, 5, 60, parity="even")
    u = np.array([-0.7, -0.2, 0.1, 0.55])
    d1 = eval_spectrum_deriv(s, u, 1)
    d2 = eval_spectrum_deriv(s, u, 2)
    assert np.max(np.abs(d1 - fd_deriv(f, u, 1))) <= 1e-9
    assert np.max(np.abs(d2 - fd_deriv(f, u, 2))) <= 1e-7

