"""Checks for harmonic evaluation, quadrature, and spectral projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import sph_harm_y

from rotorsusy import (
    BasisIndex,
    ContractViolation,
    HarmonicSpace,
    StateVector,
    assoc_legendre,
    build_grid,
    evaluate_on_grid,
    harmonic_values,
    inner_product,
    project,
    ylm_eval,
)


def _legendre_derivative_route(j, m, x):
    # Independent oracle: differentiate the Legendre polynomial m times
    # using numpy's polynomial module, then attach the (1-x^2)^{m/2} factor
    # and Condon-Shortley sign.
    coeffs = np.zeros(j + 1)
    coeffs[j] = 1.0
    if m:
        coeffs = np.polynomial.legendre.legder(coeffs, m)
    val = np.polynomial.legendre.legval(x, coeffs)
    return (-1.0) ** m * (1.0 - x * x) ** (m / 2.0) * val


def test_assoc_legendre_matches_derivative_route():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, size=25)
    for j in range(9):
        for m in range(j + 1):
            assert_allclose(
                assoc_legendre(j, m, x),
                _legendre_derivative_route(j, m, x),
                atol=1e-11,
                err_msg=f"j={j} m={m}",
            )


def test_assoc_legendre_closed_forms():
    x = np.linspace(-1.0, 1.0, 11)
    assert_allclose(assoc_legendre(2, 2, x), 3.0 * (1.0 - x * x), atol=1e-14)
    assert_allclose(assoc_legendre(3, 2, x), 15.0 * x * (1.0 - x * x), atol=1e-14)
    assert_allclose(assoc_legendre(2, 1, x), -3.0 * x * np.sqrt(1.0 - x * x), atol=1e-14)
    assert isinstance(assoc_legendre(4, 2, 0.3), float)


def test_assoc_legendre_argument_validation():
    with pytest.raises(ValueError):
        assoc_legendre(2, 3, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre(2, -1, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre(2, 1, 1.5)


def test_lowest_harmonics_pointwise():
    assert_allclose(ylm_eval(BasisIndex(0, 0), 0.7, 1.3), 1.0 / np.sqrt(4.0 * np.pi))
    theta, phi = 0.9, 0.4
    assert_allclose(
        ylm_eval(BasisIndex(1, 0), theta, 2.0),
        np.sqrt(3.0 / (4.0 * np.pi)) * np.cos(theta),
    )
    assert_allclose(
        ylm_eval(BasisIndex(1, 1), theta, phi),
        -np.sqrt(3.0 / (8.0 * np.pi)) * np.sin(theta) * np.exp(1j * phi),
    )


def test_matches_scipy_on_random_angles():
    rng = np.random.default_rng(3)
    theta = rng.uniform(0.05, np.pi - 0.05, size=12)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=12)
    for j in range(7):
        for m in range(-j, j + 1):
            ours = ylm_eval(BasisIndex(j, m), theta, phi)
            ref = sph_harm_y(j, m, theta, phi)
            assert_allclose(ours, ref, atol=1e-12, err_msg=f"j={j} m={m}")


@settings(max_examples=40, deadline=None)
@given(
    j=st.integers(min_value=0, max_value=8),
    theta=st.floats(min_value=0.01, max_value=3.13),
    phi=st.floats(min_value=-10.0, max_value=10.0),
)
def test_conjugation_symmetry(j, theta, phi):
    # Y_j^{-m} = (-1)^m conj(Y_j^m) holds for every admissible order.
    for m in range(j + 1):
        plus = ylm_eval(BasisIndex(j, m), theta, phi)
        minus = ylm_eval(BasisIndex(j, -m), theta, phi)
        assert_allclose(minus, (-1.0) ** m * np.conj(plus), atol=1e-12)


def test_minimal_grid_integrates_constants():
    grid = build_grid(0)
    assert grid.theta_nodes.shape == (1,)
    assert grid.n_phi >= 2
    assert_allclose(grid.integrate(np.ones(grid.weight_mesh.shape)), 4.0 * np.pi)


def test_gram_matrix_is_identity():
    space = HarmonicSpace(5)
    grid = build_grid(5)
    vals = harmonic_values(space, grid)
    gram = np.einsum("atp,btp,tp->ab", vals, np.conj(vals), grid.weight_mesh)
    assert_allclose(gram, np.eye(space.dim), atol=1e-12)


@pytest.mark.parametrize("j", [0, 1, 7, 30])
def test_grid_values_match_scattered_points(j):
    space = HarmonicSpace(j)
    grid = build_grid(j)
    theta, phi = grid.mesh()
    assert_array_equal(harmonic_values(space, grid), harmonic_values(space, theta=theta, phi=phi))


def test_unit_norm_of_single_harmonic():
    grid = build_grid(2)
    theta, phi = grid.mesh()
    vals = ylm_eval(BasisIndex(2, 1), theta, phi)
    assert_allclose(grid.integrate(np.abs(vals) ** 2), 1.0)


def test_cross_degree_orthogonality():
    grid = build_grid(10)
    theta, phi = grid.mesh()
    a = ylm_eval(BasisIndex(3, 2), theta, phi)
    b = ylm_eval(BasisIndex(7, 2), theta, phi)
    assert abs(grid.integrate(a * np.conj(b))) < 1e-12


def test_projection_reproduces_coefficients():
    space = HarmonicSpace(4)
    rng = np.random.default_rng(11)
    c = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    grid = build_grid(8)
    vals = harmonic_values(space, grid)
    f = np.tensordot(c, vals, axes=(0, 0))
    out = project(f, 4, grid)
    assert_allclose(out.coeffs, c, atol=1e-12)


def test_projection_is_linear():
    grid = build_grid(6)
    theta, phi = grid.mesh()
    f = ylm_eval(BasisIndex(3, 1), theta, phi)
    g = ylm_eval(BasisIndex(3, -2), theta, phi)
    combo = project(2.0 * f + 1j * g, 3, grid)
    expected = 2.0 * project(f, 3, grid).coeffs + 1j * project(g, 3, grid).coeffs
    assert_allclose(combo.coeffs, expected, atol=1e-13)


def test_projection_of_cross_degree_content_vanishes():
    grid = build_grid(9)
    theta, phi = grid.mesh()
    f = ylm_eval(BasisIndex(6, -4), theta, phi)
    out = project(f, 3, grid)
    assert_allclose(out.coeffs, np.zeros(7), atol=1e-12)


def test_projection_raises_instead_of_returning_non_finite_coefficients():
    # j = 152 is the smallest degree whose harmonics overflow on the
    # build_grid(j) nodes; the check sits in StateVector
    j = 152
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="not all finite"):
        project(lambda theta, phi: np.sin(theta) ** j * np.exp(1j * j * phi), j, build_grid(j))


def test_polar_angles_outside_zero_to_pi_are_rejected():
    with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
        harmonic_values(HarmonicSpace(1), theta=[-0.5, 4.0], phi=[0.3, 0.3])
    with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
        ylm_eval(BasisIndex(1, 0), [np.nan], 0.3)


def test_projection_needs_enough_quadrature_degree():
    grid = build_grid(2)
    f = np.ones(grid.weight_mesh.shape)
    with pytest.raises(ContractViolation):
        project(f, 3, grid)


def test_evaluate_on_grid_matches_mesh():
    grid = build_grid(1)
    vals = evaluate_on_grid(lambda t, p: np.cos(t) + 0.0 * p, grid)
    theta, _ = grid.mesh()
    assert_allclose(vals, np.cos(theta))
    with pytest.raises(ValueError):
        evaluate_on_grid(lambda t, p: np.array(1.0), grid)


def test_inner_product_conjugates_second_argument():
    grid = build_grid(3)
    theta, phi = grid.mesh()
    f = ylm_eval(BasisIndex(2, 1), theta, phi)
    g = ylm_eval(BasisIndex(2, -1), theta, phi)
    assert_allclose(inner_product(f, f, grid), 1.0)
    assert abs(inner_product(f, g, grid)) < 1e-13
    h = f + 0.5 * g
    assert_allclose(inner_product(1j * f, h, grid), 1j * inner_product(f, h, grid))
    assert_allclose(inner_product(f, 1j * h, grid), -1j * inner_product(f, h, grid))


def test_basis_index_validation():
    with pytest.raises(ValueError):
        BasisIndex(2, 3)
    with pytest.raises(ValueError):
        BasisIndex(-1, 0)
    assert BasisIndex(3, -1).flat == 2


def test_state_vector_shape_and_norm_flag():
    space = HarmonicSpace(1)
    v = StateVector(space, np.array([1.0, 0.0, 0.0]), normalized=True)
    assert_allclose(v.norm(), 1.0)
    with pytest.raises(ValueError):
        StateVector(space, np.array([2.0, 0.0, 0.0]), normalized=True)
    with pytest.raises(ValueError):
        StateVector(space, np.array([1.0, 0.0]))
    for normalized in (False, True):
        with pytest.raises(ValueError, match="not all finite"):
            StateVector(HarmonicSpace(0), [np.nan], normalized=normalized)


def test_space_validation():
    with pytest.raises(ValueError):
        HarmonicSpace(-1)
    assert HarmonicSpace(3).dim == 7
    assert list(HarmonicSpace(1).m_values()) == [-1, 0, 1]
