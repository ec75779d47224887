"""Recurrence data, weights, the permuted eigenbasis, and overlap duality."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from rotorsusy import (
    ContractViolation,
    HarmonicSpace,
    bannai_ito_params,
    build_grid,
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
from rotorsusy.antikrawtchouk import grid
from rotorsusy.verification import _exact_weights


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
    assert_allclose(wt.closed_form, [1.0, -1.0, 10.0])
    assert wt.discrepant is True
    assert_allclose(wt.norms, [0.5, 0.15625])

    wt = weights(1)
    assert_allclose(wt.derived, [0.25, 0.75])
    assert_allclose(wt.closed_form, [1.0, -1.0])


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


@pytest.mark.parametrize("N", [30, 60, 100])
def test_weights_match_exact_oracle_at_large_size(N):
    wt = weights(N)
    assert_allclose(wt.derived, np.array(_exact_weights(N), dtype=float), rtol=0, atol=1e-13)
    assert abs(wt.derived.sum() - 1.0) <= 1e-12


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
    for lbl, vec in zip(zb.labels, zb.vectors):
        assert_allclose(k1.matrix @ vec.coeffs, lbl["k1"] * vec.coeffs, atol=1e-9)
        assert_allclose(q.matrix @ vec.coeffs, -(N + 0.5) * vec.coeffs, atol=1e-9)
    got = sorted(lbl["k1"] for lbl in zb.labels)
    assert_allclose(got, [-1.5, 0.5, 2.5])


def test_permuted_basis_spectrum_matches_grid():
    for N in (1, 3, 5):
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


def test_z_basis_rejects_underresolved_grid():
    N = 3
    with pytest.raises(ContractViolation):
        z_basis(N, grid=build_grid(N - 1))


@pytest.mark.parametrize("N", [1, 2, 4, 7])
def test_overlap_duality(N):
    wi = overlaps_via_integral(N)
    wr = overlaps_via_recurrence(N)
    assert wi.unitarity_residual < 1e-9
    assert wr.unitarity_residual < 1e-9
    assert_allclose(wi.W, wr.W, atol=1e-8)
    # row zero is the weight row: |omega_k|^2 = w_k
    wt = weights(N)
    assert_allclose(np.abs(wi.W[0]) ** 2, wt.derived, atol=1e-8)


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
    wr = overlaps_via_recurrence(40, omega=wi.W[0])
    assert_allclose(wr.W, wi.W, rtol=0, atol=1e-8)
    assert wr.unitarity_residual < 1e-9


def test_overlap_omega_override():
    N = 2
    wi = overlaps_via_integral(N)
    wr = overlaps_via_recurrence(N, omega=wi.W[0])
    assert_allclose(wi.W, wr.W, atol=1e-10)
    assert wr.method == "recurrence"
    assert wi.method == "integral"
    # only omega's phases enter, so a zero entry cannot fix W
    with pytest.raises(ValueError):
        overlaps_via_recurrence(N, omega=np.array([1.0, 0.0, 1.0]))


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
