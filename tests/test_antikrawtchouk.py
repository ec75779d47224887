"""Recurrence data, weights, the permuted eigenbasis, and overlap duality."""

import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from rotorsusy import (
    ContractViolation,
    HarmonicSpace,
    OverlapMatrix,
    VerificationError,
    bannai_ito_params,
    closed_form_tridiagonal,
    eval_monic,
    f_basis,
    monic_table,
    overlaps_via_integral,
    overlaps_via_recurrence,
    recurrence_coeffs,
    supercharge,
    symmetry_generators,
    weights,
    z_basis,
)
from rotorsusy import antikrawtchouk as ak
from rotorsusy.antikrawtchouk import QUAD_TOL, grid
from rotorsusy.harmonics import build_grid, harmonic_values
from rotorsusy.verification import _exact_weights, _rotation


def test_recurrence_table_small_cases():
    t = recurrence_coeffs(2)
    assert_allclose(t.A, [-0.5, 1.25, 0.0])
    assert_allclose(t.C, [0.0, -1.0, 0.25])
    assert_allclose(t.monic_c, [0.5, 0.3125])

    t = recurrence_coeffs(1)
    assert_allclose(t.A, [0.75, 0.0])
    assert_allclose(t.C, [0.0, 0.25])
    assert_allclose(t.monic_b, [-0.75, -0.25])
    assert_allclose(t.monic_c, [0.1875])


def test_recurrence_rejects_degenerate_size():
    with pytest.raises(ValueError):
        recurrence_coeffs(0)
    with pytest.raises(ValueError):
        grid(-1)


@pytest.mark.parametrize("build", [recurrence_coeffs, grid, weights, z_basis, overlaps_via_integral,
                                   overlaps_via_recurrence, bannai_ito_params])
@pytest.mark.parametrize("N", [0, -1, 2.0, "3"])
def test_every_function_of_n_refuses_a_size_that_is_no_positive_integer(build, N):
    # one check: overlaps_via_integral(0) returned a 1 x 1 matrix, and
    # overlaps_via_integral(2.0) raised with HarmonicSpace's message on "degree j"
    with pytest.raises(ValueError, match=r"^N must be a positive integer, got "):
        build(N)


def test_truncation_structure():
    for N in (1, 2, 5, 9):
        t = recurrence_coeffs(N)
        assert t.A[N] == 0.0
        assert t.C[0] == 0.0
        assert np.all(t.monic_c > 0)
        assert_allclose(t.monic_b, -(t.A + t.C))


def test_grid_values():
    g = grid(2)
    assert_allclose(g.x, [0.0, -1.0, 1.0])
    assert_allclose(g.y, [0.5, -1.5, 2.5])
    assert_allclose(g.y, 2.0 * g.x + 0.5)
    # nodes are pairwise distinct (they interlace around zero)
    for N in (1, 4, 13):
        x = grid(N).x
        assert len(np.unique(x)) == N + 1


def test_monic_evaluation_frozen_values():
    t = recurrence_coeffs(2)
    assert eval_monic(t, 0, 0.3) == 1.0
    assert_allclose(eval_monic(t, 1, 0.0), -0.5)
    x = np.array([0.0, -1.0, 1.0])
    assert_allclose(eval_monic(t, 2, x), x**2 - x / 4.0 - 0.625)
    # degree N+1 vanishes on every grid node
    assert_allclose(eval_monic(t, 3, x), np.zeros(3), atol=1e-15)
    assert_allclose(eval_monic(t, 3, 0.5), 0.5**3 - 0.5)


def test_monic_evaluation_range_check():
    t = recurrence_coeffs(2)
    with pytest.raises(ValueError):
        eval_monic(t, 4, 0.0)
    with pytest.raises(ValueError):
        eval_monic(t, -1, 0.0)
    with pytest.raises(ValueError, match="2.5 is not an integer in 0..3"):
        eval_monic(t, 2.5, 0.0)


def test_monic_values_that_are_not_finite_raise():
    # on the grid P_{N+1} stays finite to N = 177 and overflows from 178
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no overflow warning on the way
        assert np.all(np.isfinite(monic_table(recurrence_coeffs(177), 178, grid(177).x)))
        with pytest.raises(ContractViolation, match=r"^monic values P_0\.\.P_179 at N=178 are not finite"):
            monic_table(recurrence_coeffs(178), 179, grid(178).x)
        with pytest.raises(ContractViolation, match=r"P_0\.\.P_50 at N=50 are not finite"):
            eval_monic(recurrence_coeffs(50), 50, 1e100)
        with pytest.raises(ContractViolation, match=r"P_0\.\.P_3 at N=2 are not finite"):
            eval_monic(recurrence_coeffs(2), 3, [0.0, np.nan])


@pytest.mark.parametrize("N", [1, 2, 5, 40])
def test_monic_table_rows_match_pointwise_evaluation(N):
    t = recurrence_coeffs(N)
    x = grid(N).x
    rows = monic_table(t, N + 1, x)
    assert rows.shape == (N + 2, N + 1)
    for n in range(N + 2):
        assert_array_equal(rows[n], [eval_monic(t, n, xk) for xk in x])
    # the same recurrence written with plain floats, one point at a time
    b, c = t.monic_b.tolist(), [0.0] + t.monic_c.tolist()
    for k, xk in enumerate(x.tolist()):
        prev, cur = 0.0, 1.0
        for i in range(N + 1):
            cur, prev = (xk - b[i]) * cur - c[i] * prev, cur
        assert rows[N + 1, k] == cur


def test_weights_frozen_small_cases():
    wt = weights(2)
    assert_allclose(wt.derived, [0.25, 0.125, 0.625])
    assert_allclose(wt.log2_norms, np.log2([0.5, 0.15625]))

    wt = weights(1)
    assert_allclose(wt.derived, [0.25, 0.75])


@pytest.mark.parametrize("N", [1, 2, 3, 7, 12])
def test_weights_properties(N):
    wt = weights(N)
    assert np.all(wt.derived > 0)
    assert_allclose(wt.derived.sum(), 1.0, atol=1e-12)
    assert_allclose(wt.derived, np.array(_exact_weights(N), dtype=float), atol=1e-10)
    # first monic norm comes straight out of the weighted sum
    t = recurrence_coeffs(N)
    p1 = eval_monic(t, 1, wt.x)
    assert_allclose(np.sum(wt.derived * p1 * p1), t.monic_c[0], atol=1e-12)


def _rising(a, i):
    out = Fraction(1)
    for n in range(i):
        out *= a + n
    return out


def _closed_form_weights(N):
    """The closed form of antikrawtchouk.weights, term by term in Fraction."""
    M, half = N // 2, Fraction(1, 2)

    def c(a):
        return Fraction(math.comb(2 * a, a), 4**a)

    if N % 2 == 0:
        w1 = c(M) ** 2 * Fraction(M, M + 1)
        even = [c(M) ** 2 * _rising(-M, i) * _rising(M + 3 * half, i)
                / (_rising(M + 1, i) * _rising(half - M, i)) for i in range(M + 1)]
        odd = [w1 * _rising(1 - M, i) * _rising(M + 3 * half, i)
               / (_rising(M + 2, i) * _rising(half - M, i)) for i in range(M)]
    else:
        w1 = c(M + 1) ** 2 * Fraction(N + 2, N)
        even = [c(M + 1) ** 2 * _rising(-M, i) * _rising(M + 3 * half, i)
                / (_rising(M + 2, i) * _rising(-half - M, i)) for i in range(M + 1)]
        odd = [w1 * _rising(-M, i) * _rising(M + 5 * half, i)
               / (_rising(M + 2, i) * _rising(half - M, i)) for i in range(M + 1)]
    out = [None] * (N + 1)
    out[0::2], out[1::2] = even, odd
    return out


def test_closed_form_equals_the_exact_weights():
    for N in range(1, 61):
        assert _closed_form_weights(N) == _exact_weights(N), N


@pytest.mark.parametrize("N", [*range(1, 41), 60, 100, 115, 200])
def test_weights_match_exact_oracle_at_large_size(N):
    wt = weights(N)
    assert_allclose(wt.derived, np.array(_exact_weights(N), dtype=float), rtol=1e-14, atol=0)
    assert abs(wt.derived.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("N", [400, 2000])
def test_weights_are_the_squared_first_row_of_w(N):
    # the twisted factorizations of _jacobi: 1.1e-14 at N = 400 and 1.9e-14
    # at 2000 (a dense eigh of the Jacobi matrix read 2.0e-13 and 5.3e-13)
    amp = np.abs(overlaps_via_recurrence(N).W[0]) ** 2
    assert_allclose(amp, weights(N).derived, rtol=1e-13, atol=0)


def _exact_log2_norms(N):
    """log2 u_n for n = 1..N from the exact integers U_n = 16^n u_n."""
    out, u16 = [], 1
    for n, c16 in enumerate(16 * recurrence_coeffs(N).monic_c, 1):
        u16 *= int(c16)
        out.append(math.log2(u16) - 4 * n)
    return np.array(out)


@pytest.mark.parametrize("N, tol", [*((n, 1e-12) for n in (1, 2, 5, 20, 41, 60)), (400, 1e-11)])
def test_log2_norms_match_the_exact_norms(N, tol):
    assert_allclose(weights(N).log2_norms, _exact_log2_norms(N), rtol=0, atol=tol)


@pytest.mark.parametrize("N", [116, 150, 2000])
def test_weights_hold_past_the_float_range_of_the_norms(N):
    # the plain norms u_n overflow a float from N = 116 on; their logs do not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wt = weights(N)
    assert np.all(wt.derived > 0) and abs(wt.derived.sum() - 1.0) <= 1e-12
    assert np.all(np.isfinite(wt.log2_norms)) and wt.log2_norms[-1] > 1024


def test_exact_weights_small_cases():
    assert _exact_weights(2) == [Fraction(1, 4), Fraction(1, 8), Fraction(5, 8)]
    w = _exact_weights(5)
    assert [w[k + 2] / w[k] for k in range(4)] == [
        Fraction(7, 10), Fraction(3, 2), Fraction(3, 5), Fraction(11, 5)
    ]
    for N in range(1, 21):
        assert sum(_exact_weights(N)) == 1


def test_monic_reduction_of_operator_data():
    # the operator tridiagonal (B, U) and the polynomial recurrence (b, c)
    # describe the same Jacobi matrix after y = 2x + 1/2
    for N in (1, 2, 6, 11):
        t = recurrence_coeffs(N)
        diag_b, off_u = closed_form_tridiagonal("F", N)
        assert_allclose(t.monic_b, (diag_b - 0.5) / 2.0, atol=1e-12)
        assert_allclose(t.monic_c, off_u**2 / 4.0, atol=1e-12)


def test_permuted_basis_is_orthonormal_eigenbasis():
    N = 2
    zb = z_basis(N)
    assert len(zb) == N + 1
    assert zb.family == "Z"
    assert zb.orthonormality_residual() < 1e-9
    space = HarmonicSpace(N)
    k1, _, _ = symmetry_generators(space)
    q = supercharge(space)
    for lbl, vec in zip(zb.labels, zb.coeffs.T):
        assert_allclose(k1.matrix @ vec, lbl["k1"] * vec, atol=1e-9)
        assert_allclose(q.matrix @ vec, -(N + 0.5) * vec, atol=1e-9)
    got = sorted(lbl["k1"] for lbl in zb.labels)
    assert_allclose(got, [-1.5, 0.5, 2.5])


def test_permuted_basis_spectrum_matches_grid():
    # N = 90 and 200 lie past the range of the spherical harmonics; Z = F W
    # reaches them with no quadrature
    for N in (1, 3, 5, 90, 200):
        zb = z_basis(N)
        assert_allclose(sorted(lbl["k1"] for lbl in zb.labels), sorted(grid(N).y))


def test_second_generator_tridiagonal_on_permuted_basis():
    from rotorsusy import tridiagonal_extract

    N = 3
    space = HarmonicSpace(N)
    _, k2, _ = symmetry_generators(space)
    tri = tridiagonal_extract(k2, z_basis(N))
    diag_b, off_u = closed_form_tridiagonal("F", N)
    assert_allclose(tri.diag, diag_b, atol=1e-9)
    assert_allclose(tri.offdiag, off_u, atol=1e-9)


@pytest.mark.parametrize("N", [*range(1, 13), 30, 39])
def test_overlap_duality(N):
    wi = overlaps_via_integral(N)
    wr = overlaps_via_recurrence(N)
    assert (wi.method, wr.method) == ("integral", "recurrence")
    assert wi.unitarity_residual < 1e-9
    assert wr.unitarity_residual < 1e-9
    assert_allclose(wi.W, wr.W, atol=1e-8)
    # row zero is the weight row: |omega_k|^2 = w_k
    wt = weights(N)
    assert_allclose(np.abs(wi.W[0]) ** 2, wt.derived, atol=1e-8)


def _dense_integral_w(N):
    """W by the dense formula: the F matrix contracted with the harmonic
    values on the grid and at the permuted points, then the three-operand
    weighted sum over the mesh."""
    space, quad = HarmonicSpace(N), build_grid(N)
    theta, phi = quad.mesh()
    x1, x2, x3 = np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)
    permuted = harmonic_values(space, theta=np.arccos(np.clip((-1.0) ** (N + 1) * x1, -1.0, 1.0)),
                               phi=np.arctan2(x3, x2))
    f = f_basis(space).coeffs
    zvals = np.einsum("ak,a...->k...", f, permuted)
    fvals = np.einsum("ak,a...->k...", f, harmonic_values(space, quad))
    return np.einsum("ntp,ktp,tp->nk", fvals, np.conj(zvals), quad.weight_mesh)


@pytest.mark.parametrize("N", [*range(1, 13), 30, 40, 60])
def test_integral_overlaps_equal_the_dense_f_formula(N):
    assert_allclose(overlaps_via_integral(N).W, _dense_integral_w(N), rtol=0, atol=1e-14)


def test_integral_route_reads_no_recurrence_data(monkeypatch):
    # the route is the oracle of the closed forms, so it must not read them
    def refuse(*args, **kwargs):
        raise AssertionError("the integral route read recurrence data")

    expect = overlaps_via_recurrence(7).W
    for name in ("_jacobi", "recurrence_coeffs", "grid", "weights", "overlaps_via_recurrence"):
        monkeypatch.setattr(ak, name, refuse)
    assert_allclose(overlaps_via_integral(7).W, expect, rtol=0, atol=1e-14)


def test_overlap_rows_follow_recurrence():
    N = 4
    wm = overlaps_via_integral(N)
    t = recurrence_coeffs(N)
    g = grid(N)
    diag_b, off_u = closed_form_tridiagonal("F", N)
    for n in range(1, N + 1):
        scale = 2.0**n / np.prod(off_u[:n])
        expect = wm.W[0] * scale * np.array([eval_monic(t, n, x) for x in g.x])
        assert_allclose(wm.W[n], expect, atol=1e-8)


def test_recurrence_overlaps_match_integral_at_size_40():
    wi = overlaps_via_integral(40)
    wr = overlaps_via_recurrence(40)
    assert_allclose(wr.W, wi.W, rtol=0, atol=1e-8)
    assert wr.unitarity_residual < 1e-9


@pytest.mark.parametrize("N", [100, 400, 1000])
def test_recurrence_overlaps_are_finite_and_unitary_past_the_quadrature(N):
    wr = overlaps_via_recurrence(N)
    assert np.all(np.isfinite(wr.W))
    assert wr.unitarity_residual <= QUAD_TOL


@pytest.mark.parametrize("N", [4, 8, 12, 33])
def test_exact_zero_pivots_give_the_krawtchouk_w(N):
    # P_n(x_k) = 0 exactly for some 1 <= n <= N, so a pivot of _jacobi's
    # forward run is 0 (P_1(x_2) = 0 at N = 4); taken as -sqrt(tiny), it
    # divides with no warning, and W[n, k] comes out about 1e-155 where the
    # zero pivot sets it, 2.5e-17 at most elsewhere
    zeros = np.argwhere(monic_table(recurrence_coeffs(N), N, grid(N).x)[1:] == 0.0) + [1, 0]
    assert len(zeros) > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = overlaps_via_recurrence(N).W
    assert np.max(np.abs(w[tuple(zeros.T)])) <= 1e-16
    f = f_basis(HarmonicSpace(N)).coeffs
    assert_allclose(w, f.conj().T @ (_rotation(N) @ f), rtol=0, atol=1e-15)


@pytest.mark.parametrize("N, node", [(5, 3), (40, 0), (40, 40)])
def test_a_grid_node_off_the_spectrum_fails_the_jacobi_gate(monkeypatch, N, node):
    # x_k moved by 1e-6 is no eigenvalue of the Jacobi matrix: the twisted
    # factorization at it leaves a residual |T z - x_k z| near 1e-6
    right = grid(N)
    x = right.x.copy()
    x[node] += 1e-6
    monkeypatch.setattr(ak, "grid", lambda n: ak.SpectralGrid(N=n, x=x, y=2.0 * x + 0.5))
    with pytest.raises(VerificationError, match=rf"^Jacobi eigenvectors at the grid fail at N={N}: residual"):
        overlaps_via_recurrence(N)


def test_the_unitarity_residual_is_computed_not_passed():
    w = overlaps_via_recurrence(5).W
    with pytest.raises(TypeError, match="unitarity_residual"):
        OverlapMatrix(N=5, W=w, method="recurrence", unitarity_residual=0.0)
    residual = OverlapMatrix(N=5, W=w, method="recurrence").unitarity_residual
    assert residual == float(np.max(np.abs(w.conj().T @ w - np.eye(6)))) > 0.0


def test_tables_reject_non_finite_entries():
    with pytest.raises(VerificationError):
        OverlapMatrix(N=1, W=np.full((2, 2), np.nan), method="x")
    wt = weights(2)
    with pytest.raises(VerificationError, match="derived"):
        replace(wt, derived=np.array([0.25, np.nan, 0.625]))


def test_bannai_ito_parameter_map():
    assert bannai_ito_params(2) == {"rho1": 0.0, "rho2": 1.5, "r1": 0.0, "r2": 1.5}
    p = bannai_ito_params(3)
    assert p["rho2"] == -2.0
    assert p["r2"] == -2.0
    assert p["rho1"] == 0.0 and p["r1"] == 0.0
    # the two nonzero parameters coincide for every N
    for N in range(1, 9):
        p = bannai_ito_params(N)
        assert p["rho2"] == p["r2"]


@settings(max_examples=12, deadline=None)
@given(N=st.integers(min_value=1, max_value=12))
def test_recurrence_defines_consistent_family(N):
    t = recurrence_coeffs(N)
    g = grid(N)
    wt = weights(N)
    # weights are a probability vector
    assert np.all(wt.derived > 0)
    assert_allclose(wt.derived.sum(), 1.0, atol=1e-12)
    # the Jacobi matrix of (b, c) has the grid as its spectrum
    jac = np.diag(t.monic_b) + np.diag(np.sqrt(t.monic_c), 1) + np.diag(np.sqrt(t.monic_c), -1)
    assert_allclose(np.sort(np.linalg.eigvalsh(jac)), np.sort(g.x), atol=1e-10)
    # the characteristic polynomial of the family kills the grid
    top = np.array([eval_monic(t, N + 1, x) for x in g.x])
    hull = np.max(np.abs([eval_monic(t, N + 1, x) for x in np.linspace(g.x.min(), g.x.max(), 101)]))
    assert np.max(np.abs(top)) <= 1e-10 * max(hull, 1.0)
