"""Checks for harmonic evaluation, quadrature, and spectral projection."""

from fractions import Fraction
from math import factorial, lgamma, log, log2, pi, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import sph_harm_y

from rotorsusy import (
    ContractViolation,
    HarmonicSpace,
    StateVector,
    build_grid,
    evaluate_on_grid,
    harmonic_values,
    project,
)
from rotorsusy.antikrawtchouk import _permuted_blocks
from rotorsusy.harmonics import _from_log2, _gauss_legendre, _legendre_degrees, _legendre_steps, _legendre_table
from rotorsusy.verification import _ylm_direct


def _ylm(j, m, theta, phi):
    """Y_j^m at (theta, phi): row m + j of harmonic_values."""
    return harmonic_values(HarmonicSpace(j), theta=theta, phi=phi)[m + j]


def _exact_assoc_legendre(j, m, z):
    # P_j^m at the exact binary value of z, even m so that (1-z^2)^{m/2} is rational
    z = Fraction(z)
    p = (-1) ** m * prod(range(1, 2 * m, 2)) * (1 - z * z) ** (m // 2)
    p_prev, p_cur = 0, p
    for l in range(m + 1, j + 1):
        p_prev, p_cur = p_cur, (z * (2 * l - 1) * p_cur - (l + m - 1) * p_prev) / (l - m)
    return float(p_cur)


@pytest.mark.parametrize(
    "j, m, z",
    [
        # 399!! (1-z^2)^100 is about 5e33, while Pbar_200^200(z) is about 1e-400
        (200, 200, 0.99995),
        # P about 8e-199, Pbar about 1e-385
        (100, 100, 0.99999999),
        # away from the sectoral row: P about 2e-8, Pbar about 1e-406
        (200, 180, 0.99999),
    ],
)
def test_assoc_legendre_where_the_normalized_value_underflows(j, m, z):
    # P_j^m from degree j's (mantissa, scale) of _legendre_steps: dividing Pbar_j^m by its
    # normalization sqrt((2j+1)/(4 pi) (j-m)!/(j+m)!) is a shift of the base-2 scale,
    # made before the one rounding to a double
    *_, (mantissa, scale) = _legendre_steps(j, np.array([z]))
    shift = -0.5 * (log2((2 * j + 1) / (4 * pi)) + (lgamma(j - m + 1) - lgamma(j + m + 1)) / log(2))
    got = _from_log2(mantissa[m], scale[m] + shift)[0]
    assert_allclose(got, _exact_assoc_legendre(j, m, z), rtol=1e-11, atol=0)


def test_lowest_harmonics_pointwise():
    assert_allclose(_ylm(0, 0, 0.7, 1.3), 1.0 / np.sqrt(4.0 * np.pi))
    theta, phi = 0.9, 0.4
    assert_allclose(
        _ylm(1, 0, theta, 2.0),
        np.sqrt(3.0 / (4.0 * np.pi)) * np.cos(theta),
    )
    assert_allclose(
        _ylm(1, 1, theta, phi),
        -np.sqrt(3.0 / (8.0 * np.pi)) * np.sin(theta) * np.exp(1j * phi),
    )


def test_matches_scipy_on_random_angles():
    rng = np.random.default_rng(3)
    theta = rng.uniform(0.05, np.pi - 0.05, size=12)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=12)
    for j in range(7):
        for m in range(-j, j + 1):
            ours = _ylm(j, m, theta, phi)
            ref = sph_harm_y(j, m, theta, phi)
            assert_allclose(ours, ref, atol=1e-12, err_msg=f"j={j} m={m}")


def test_harmonic_values_match_series_oracle():
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.0, np.pi, size=30)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=30)
    for j in range(11):
        vals = harmonic_values(HarmonicSpace(j), theta=theta, phi=phi)
        for m in range(-j, j + 1):
            assert_allclose(vals[m + j], _ylm_direct(j, m, theta, phi), rtol=0, atol=1e-10,
                            err_msg=f"j={j} m={m}")


@pytest.mark.parametrize("j", [90, 200, 400, 1000])
def test_addition_theorem_at_large_degree(j):
    # sum_m |Y_j^m|^2 = (2j+1)/(4 pi) at every point, the poles included
    rng = np.random.default_rng(j)
    theta = np.concatenate(([0.0, np.pi], rng.uniform(0.0, np.pi, size=48)))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=50)
    vals = harmonic_values(HarmonicSpace(j), theta=theta, phi=phi)
    assert np.all(np.isfinite(vals))
    total = np.sum(np.abs(vals) ** 2, axis=0)
    assert_allclose(total, (2 * j + 1) / (4.0 * np.pi), rtol=1e-12, atol=0)


def test_harmonics_stay_finite_where_unscaled_mantissas_would_overflow():
    # without the table's rescaling its mantissas pass 2^1024 by j = 1500
    j = 1500
    rng = np.random.default_rng(j)
    theta = rng.uniform(0.0, np.pi, size=50)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=50)
    vals = harmonic_values(HarmonicSpace(j), theta=theta, phi=phi)
    assert np.all(np.isfinite(vals))
    total = np.sum(np.abs(vals) ** 2, axis=0)
    assert_allclose(total, (2 * j + 1) / (4.0 * np.pi), rtol=1e-12, atol=0)


@pytest.mark.parametrize("j", [1000, 2000])
def test_legendre_table_pole_values_are_exact(j):
    # the degree recurrence alone is off by 8.5e-12 at j = 1000 and 5.0e-11 at j = 2000
    table = _legendre_table(j, np.array([1.0, -1.0]))
    expected = np.sqrt((2 * j + 1) / (4.0 * np.pi)) * np.array([1.0, (-1.0) ** j])
    assert_allclose(table[0], expected, rtol=1e-14, atol=0)
    assert_array_equal(table[1:], 0.0)


@pytest.mark.parametrize("j", [90, 152, 200, 400, 500, 1000])
def test_legendre_table_is_normalized_on_the_grid(j):
    # 2 pi sum_t w_t Pbar_j^m(z_t)^2 = 1 for every order: j = 90 and 152 are
    # where the unnormalized recurrence first gave zero and NaN rows.  With
    # numpy's leggauss weights j = 500 and 1000 read 5.1e-12 and 2.3e-11.
    # Pbar^2 is even in z and the rule mirror-symmetric, so the table runs on
    # the nodes z >= 0 only, each z > 0 counted twice
    grid = build_grid(j)
    z, w = grid.theta_nodes[(j + 1) // 2:], grid.theta_weights[(j + 1) // 2:]
    table = _legendre_table(j, z)
    norms = 2.0 * np.pi * (table**2 @ (w * np.where(z == 0.0, 1.0, 2.0)))
    assert_allclose(norms, np.ones(j + 1), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 76, 401, 1001])
def test_gauss_legendre_rule_integrates_even_powers_and_is_mirror_symmetric(n):
    # sum_t w_t z_t^2k = 2/(2k+1) for every k < n; numpy's leggauss weights
    # are off by 5.2e-11 (relative) at n = 401 and 4.3e-9 at n = 1001
    z, w = _gauss_legendre(n)
    assert np.all(np.diff(z) > 0) and np.all(w > 0)
    assert_array_equal(z, -z[::-1])
    assert_array_equal(w, w[::-1])
    if n % 2:
        assert z[n // 2] == 0.0 and not np.signbit(z[n // 2])
    k = np.arange(n)
    assert_allclose(z ** (2 * k[:, None]) @ w, 2.0 / (2 * k + 1), rtol=0, atol=1e-14)


def test_gauss_legendre_rule_agrees_with_numpy_where_numpy_is_accurate():
    # numpy's companion-matrix rule is right to about 1e-12 in the weights up to n = 50
    for n in range(1, 51):
        z, w = _gauss_legendre(n)
        nz, nw = np.polynomial.legendre.leggauss(n)
        assert_allclose(z, nz, rtol=0, atol=np.finfo(float).eps, err_msg=f"n={n}")
        assert_allclose(w, nw, rtol=2e-12, atol=0, err_msg=f"n={n}")


@settings(max_examples=40, deadline=None)
@given(
    j=st.integers(min_value=0, max_value=8),
    theta=st.floats(min_value=0.01, max_value=3.13),
    phi=st.floats(min_value=-10.0, max_value=10.0),
)
def test_conjugation_symmetry(j, theta, phi):
    # Y_j^{-m} = (-1)^m conj(Y_j^m) holds for every admissible order.
    for m in range(j + 1):
        plus = _ylm(j, m, theta, phi)
        minus = _ylm(j, -m, theta, phi)
        assert_allclose(minus, (-1.0) ** m * np.conj(plus), atol=1e-12)


def test_minimal_grid_integrates_constants():
    grid = build_grid(0)
    assert grid.theta_nodes.shape == (1,)
    assert grid.n_phi >= 2
    assert_allclose(np.sum(grid.weight_mesh), 4.0 * np.pi)


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


@pytest.mark.parametrize("j", [0, 1, 7, 30])
@pytest.mark.parametrize("theta_shape", [(-1, 1), (8, -1, 1)])
def test_separable_angles_equal_the_full_mesh_call(j, theta_shape):
    # the Legendre table runs on theta's points and exp(i m phi) on phi's
    rng = np.random.default_rng(j)
    theta = rng.uniform(0.0, np.pi, size=40).reshape(theta_shape)
    phi = rng.uniform(-7.0, 7.0, size=(1, 9))
    space, mesh = HarmonicSpace(j), np.broadcast_shapes(theta.shape, phi.shape)
    assert_array_equal(harmonic_values(space, theta=theta, phi=phi),
                       harmonic_values(space, theta=np.broadcast_to(theta, mesh),
                                       phi=np.broadcast_to(phi, mesh)))


def test_all_degree_rows_equal_the_single_degree_tables():
    z = np.concatenate((np.polynomial.legendre.leggauss(65)[0], [1.0, -1.0, 0.0]))
    table = _legendre_degrees(64, z)
    for l in range(65):
        assert_array_equal(table[l, :l + 1], _legendre_table(l, z), err_msg=f"l={l}")
        assert_array_equal(table[l, l + 1:], 0.0)


def test_all_degree_rows_hold_their_bits_across_a_rescale():
    # near the poles the mantissas first pass 2^512, and are rescaled, at degree 768
    z = np.array([1.0 - 2.0**-53, -(1.0 - 1e-12), 0.999, -1.0])
    steps = _legendre_steps(800, z)
    first = next(steps)[1].copy()
    assert any(np.any(scale != first) for _, scale in steps)
    table = _legendre_degrees(800, z)
    for l in (767, 768, 769, 800):
        assert_array_equal(table[l, :l + 1], _legendre_table(l, z), err_msg=f"l={l}")


def _mirrored(l, z):
    """(-1)^(l+m) times _legendre_table(l, z), row m."""
    table = _legendre_table(l, z)
    return table * (-1.0) ** (l + np.arange(l + 1)).reshape((-1,) + (1,) * z.ndim)


def test_legendre_rows_at_minus_z_are_signed_rows_bit_for_bit():
    # negation is exact and (1 - z)(1 + z) commutes, so every step of the recurrence mirrors
    z = np.concatenate((np.polynomial.legendre.leggauss(65)[0], [1.0, -1.0]))
    for l in range(65):
        assert_array_equal(_legendre_table(l, -z), _mirrored(l, z), err_msg=f"l={l}")
    # near the poles the mantissas are first rescaled by 2^-512 at degree 768
    z = np.array([1.0 - 2.0**-53, 1.0 - 1e-12, 0.999, 0.3])
    for l in (767, 768, 769):
        assert_array_equal(_legendre_table(l, -z), _mirrored(l, z), err_msg=f"l={l}")


@pytest.mark.parametrize("N", [1, 2, 7, 30, 31])
def test_permuted_mesh_rows_equal_direct_tables_at_every_point(N):
    # the integral route's Legendre rows, shared across the mesh's mirror symmetries
    quad, n = build_grid(N), N + 1
    theta, phi = quad.mesh()
    x1, x2, x3 = np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)
    seen = []
    for rings, z, phi_p, rows in _permuted_blocks(N, quad):
        assert_array_equal(rows, _legendre_table(N, z))
        # ring t and its mirror n-1-t: the same z, and phi negated
        s = np.sqrt((1.0 - z) * (1.0 + z))
        for t, sign in ((rings, 1.0), (n - 1 - rings, -1.0)):
            point = np.stack((s * np.cos(sign * phi_p), s * np.sin(sign * phi_p), z))
            assert_allclose(point, np.stack((x2[t], x3[t], (-1.0) ** (N + 1) * x1[t])),
                            rtol=0, atol=2e-15)
        seen.extend(rings.tolist() + (n - 1 - rings).tolist())
    assert sorted(set(seen)) == list(range(n))


def test_unit_norm_of_single_harmonic():
    grid = build_grid(2)
    theta, phi = grid.mesh()
    vals = _ylm(2, 1, theta, phi)
    assert_allclose(np.sum(np.abs(vals) ** 2 * grid.weight_mesh), 1.0)


def test_cross_degree_orthogonality():
    grid = build_grid(10)
    theta, phi = grid.mesh()
    a = _ylm(3, 2, theta, phi)
    b = _ylm(7, 2, theta, phi)
    assert abs(np.sum(a * np.conj(b) * grid.weight_mesh)) < 1e-12


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
    f = _ylm(3, 1, theta, phi)
    g = _ylm(3, -2, theta, phi)
    combo = project(2.0 * f + 1j * g, 3, grid)
    expected = 2.0 * project(f, 3, grid).coeffs + 1j * project(g, 3, grid).coeffs
    assert_allclose(combo.coeffs, expected, atol=1e-13)


def test_projection_of_cross_degree_content_vanishes():
    grid = build_grid(9)
    theta, phi = grid.mesh()
    f = _ylm(6, -4, theta, phi)
    out = project(f, 3, grid)
    assert_allclose(out.coeffs, np.zeros(7), atol=1e-12)


@pytest.mark.parametrize("j", [90, 152, 200])
def test_projection_matches_closed_form_at_large_degree(j):
    # (x+iy)^j = (-1)^j mu_j Y_j^j and (x-iy)^j = mu_j Y_j^{-j}, with
    # mu_j^2 = 4 pi 4^j (j!)^2 / (2j+1)! taken from integers
    mu = np.sqrt(4.0 * np.pi * float(Fraction(4**j * factorial(j) ** 2, factorial(2 * j + 1))))
    a, b = 0.7 - 1.1j, -1.3 + 0.4j

    def f(theta, phi):
        s = np.sin(theta) ** j
        return a * s * np.exp(1j * j * phi) + b * s * np.exp(-1j * j * phi)

    want = np.zeros(2 * j + 1, dtype=complex)
    want[2 * j] = a * (-1) ** j * mu
    want[0] = b * mu
    got = project(f, j, build_grid(j)).coeffs
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_projection_raises_instead_of_returning_non_finite_coefficients():
    # the check sits in StateVector
    grid = build_grid(4)

    def f(theta, phi):
        return np.where(theta > 2.0, np.nan, 1.0) + 0.0 * phi

    with pytest.raises(ValueError, match="not all finite"):
        project(f, 4, grid)


def test_projection_rejects_values_off_the_grid_shape():
    grid = build_grid(3)
    with pytest.raises(ValueError, match="does not match grid"):
        project(np.ones((grid.theta_nodes.size, grid.n_phi - 1)), 2, grid)


def test_polar_angles_outside_zero_to_pi_are_rejected():
    with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
        harmonic_values(HarmonicSpace(1), theta=[-0.5, 4.0], phi=[0.3, 0.3])
    with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
        harmonic_values(HarmonicSpace(1), theta=[np.nan], phi=0.3)


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


def test_state_vector_shape_and_norm_flag():
    space = HarmonicSpace(1)
    assert not StateVector(space, [2.0, 0.0, 0.0]).coeffs.flags.writeable
    # a vector holds its coefficients as given: there is no flag that asks for unit norm
    with pytest.raises(TypeError):
        StateVector(space, np.array([1.0, 0.0, 0.0]), normalized=True)
    with pytest.raises(ValueError):
        StateVector(space, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="not all finite"):
        StateVector(HarmonicSpace(0), [np.nan])


def test_space_validation():
    with pytest.raises(ValueError):
        HarmonicSpace(-1)
    assert HarmonicSpace(3).dim == 7
    assert list(HarmonicSpace(1).m_values()) == [-1, 0, 1]
