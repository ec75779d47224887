"""Acceptance gate: nine library-level guarantees, one test per criterion.

Each test prints a single [PASS]/[FAIL] line with the measured evidence
before asserting, so a full run always shows the status of every
criterion regardless of which ones fail.
"""

import time

import numpy as np
from numpy.testing import assert_allclose

from rotorsusy import (
    HarmonicSpace,
    anticommutator,
    build_grid,
    closed_form_tridiagonal,
    commutator,
    eval_monic,
    f_basis,
    g_basis,
    hamiltonian,
    harmonic_values,
    joint_diagonalize,
    op_norm,
    overlaps_via_integral,
    overlaps_via_recurrence,
    recurrence_coeffs,
    reflection,
    run_verification,
    spectrum,
    supercharge,
    susy_operators,
    symmetry_generators,
    tridiagonal_extract,
    weights,
)
from rotorsusy.antikrawtchouk import grid as poly_grid
from rotorsusy.verification import _REFLECTED_ANGLES


def announce(capsys, ok, n, text):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {text}")


def test_criterion_1_supercharge_squares(capsys):
    start = time.perf_counter()
    worst = 0.0
    for j in range(31):
        space = HarmonicSpace(j)
        ops = susy_operators(space)
        scale = 2 * j + 1
        worst = max(worst, op_norm(ops.q @ ops.q - ops.h) / scale)
        worst = max(worst, op_norm(ops.q_alt @ ops.q_alt - ops.h) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed <= 5.0
    announce(
        capsys, ok, 1,
        f"both supercharges square to H for j <= 30 "
        f"(scaled residual {worst:.3e} <= 1e-12, {elapsed:.2f}s <= 5s)",
    )
    assert worst <= 1e-12
    assert elapsed <= 5.0


def test_criterion_2_anticommutator_algebra(capsys):
    worst = 0.0
    for j in range(31):
        space = HarmonicSpace(j)
        ks = symmetry_generators(space)
        for a in range(3):
            b, c = (a + 1) % 3, (a + 2) % 3
            dev = op_norm(anticommutator(ks[a], ks[b]) - ks[c])
            worst = max(worst, dev / (2 * j + 1))
    ok = worst <= 1e-12
    announce(
        capsys, ok, 2,
        f"anticommutators of K1, K2, K3 close cyclically for j <= 30 "
        f"(scaled residual {worst:.3e} <= 1e-12)",
    )
    assert worst <= 1e-12


def test_criterion_3_commutant_and_casimir(capsys):
    worst = 0.0
    for j in range(31):
        space = HarmonicSpace(j)
        ops = susy_operators(space)
        scale = 2 * j + 1
        for k in (ops.k1, ops.k2, ops.k3):
            worst = max(worst, op_norm(commutator(k, ops.q)) / scale)
        worst = max(worst, op_norm(ops.c - ops.q @ ops.q + ops.q) / scale)
    ok = worst <= 1e-12
    announce(
        capsys, ok, 3,
        f"[K_i, Q] = 0 and C = Q^2 - Q for j <= 30 "
        f"(scaled residual {worst:.3e} <= 1e-12)",
    )
    assert worst <= 1e-12


def test_criterion_4_spectra(capsys):
    worst = 0.0
    structure_ok = True
    for j in range(31):
        space = HarmonicSpace(j)
        rep = spectrum(supercharge(space))
        if j == 0:
            expect_vals = np.array([-0.5])
            expect_mult = [1]
        else:
            expect_vals = np.array([-(j + 0.5), j + 0.5])
            expect_mult = [j + 1, j]
        if list(rep.multiplicities) != expect_mult:
            structure_ok = False
            continue
        worst = max(worst, float(np.max(np.abs(rep.eigenvalues - expect_vals))))
        hrep = spectrum(hamiltonian(space))
        if list(hrep.multiplicities) != [2 * j + 1]:
            structure_ok = False
            continue
        worst = max(worst, abs(float(hrep.eigenvalues[0]) - (j + 0.5) ** 2))
    ok = structure_ok and worst <= 1e-8
    announce(
        capsys, ok, 4,
        f"Q splits into multiplicities (j+1, j) at -(j+1/2), +(j+1/2) and H is "
        f"(j+1/2)^2 with full multiplicity, j <= 30 (deviation {worst:.3e} <= 1e-8)",
    )
    assert structure_ok
    assert worst <= 1e-8


def test_criterion_5_decomposition(capsys):
    worst_eig = 0.0
    worst_overlap = 0.0
    worst_tri = 0.0
    for j in range(21):
        space = HarmonicSpace(j)
        q = supercharge(space)
        k1, _, k3 = symmetry_generators(space)
        oracle = joint_diagonalize(q, k3)
        oracle_map = {
            (round(lbl["q"], 6), lbl["k"]): vec.coeffs
            for lbl, vec in zip(oracle.labels, oracle.vectors)
        }
        for basis in (f_basis(space), g_basis(space)):
            for lbl, vec in zip(basis.labels, basis.vectors):
                worst_eig = max(
                    worst_eig,
                    float(np.linalg.norm(q.matrix @ vec.coeffs - lbl["q"] * vec.coeffs)),
                    float(np.linalg.norm(k3.matrix @ vec.coeffs - lbl["k3"] * vec.coeffs)),
                )
                partner = oracle_map[(round(lbl["q"], 6), lbl["k"])]
                worst_overlap = max(
                    worst_overlap, abs(abs(np.vdot(partner, vec.coeffs)) - 1.0)
                )
            tri = tridiagonal_extract(k1, basis) if len(basis) else None
            if tri is not None:
                exp_d, exp_o = closed_form_tridiagonal(basis.family, j)
                worst_tri = max(
                    worst_tri,
                    float(np.max(np.abs(tri.diag - exp_d))),
                    float(np.max(np.abs(tri.offdiag - exp_o))) if tri.N > 1 else 0.0,
                )
    ok = worst_eig <= 1e-10 and worst_overlap <= 1e-10 and worst_tri <= 1e-10
    announce(
        capsys, ok, 5,
        f"closed-form F/G bases for j <= 20: eigen residual {worst_eig:.3e}, "
        f"oracle overlap defect {worst_overlap:.3e}, tridiagonal deviation "
        f"{worst_tri:.3e} (all <= 1e-10)",
    )
    assert worst_eig <= 1e-10
    assert worst_overlap <= 1e-10
    assert worst_tri <= 1e-10


def test_criterion_6_polynomial_consistency(capsys):
    worst_vanish = 0.0
    worst_orth = 0.0
    worst_reduction = 0.0
    for N in range(1, 21):
        t = recurrence_coeffs(N)
        g = poly_grid(N)
        wt = weights(N)
        # characteristic vanishing, scaled by the polynomial's size on the hull
        hull = np.max(
            np.abs([eval_monic(t, N + 1, x) for x in np.linspace(g.x.min(), g.x.max(), 201)])
        )
        top = np.max(np.abs([eval_monic(t, N + 1, x) for x in g.x]))
        worst_vanish = max(worst_vanish, top / max(hull, 1.0))
        # discrete orthogonality, relative: orthonormalized Gram against the
        # identity plus the monic diagonal against u_n = c_1 ... c_n
        a = np.sqrt(t.monic_c)
        v = np.zeros((N + 1, N + 1))
        v[0] = 1.0
        v[1] = (g.x - t.monic_b[0]) / a[0]
        for n in range(1, N):
            v[n + 1] = ((g.x - t.monic_b[n]) * v[n] - a[n - 1] * v[n - 1]) / a[n]
        gram = (v * wt.derived) @ v.T
        worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(N + 1)))))
        u = np.concatenate(([1.0], wt.norms))
        for n in range(N + 1):
            pn = np.array([eval_monic(t, n, x) for x in g.x])
            diag = float(np.sum(wt.derived * pn * pn))
            worst_orth = max(worst_orth, abs(diag - u[n]) / u[n])
        # monic reduction against the operator tridiagonal
        diag_b, off_u = closed_form_tridiagonal("F", N)
        worst_reduction = max(
            worst_reduction,
            float(np.max(np.abs(t.monic_b - (diag_b - 0.5) / 2.0))),
            float(np.max(np.abs(t.monic_c - off_u**2 / 4.0))),
        )
    ok = worst_vanish <= 1e-8 and worst_orth <= 1e-9 and worst_reduction <= 1e-12
    announce(
        capsys, ok, 6,
        f"polynomial family for N <= 20: scaled characteristic vanishing "
        f"{worst_vanish:.3e} <= 1e-8, relative orthogonality {worst_orth:.3e} "
        f"<= 1e-9, monic reduction {worst_reduction:.3e} <= 1e-12",
    )
    assert worst_vanish <= 1e-8
    assert worst_orth <= 1e-9
    assert worst_reduction <= 1e-12


def test_criterion_7_overlap_duality(capsys):
    start = time.perf_counter()
    worst_dev = 0.0
    worst_unitary = 0.0
    worst_weight = 0.0
    for N in range(1, 11):
        wi = overlaps_via_integral(N)
        wr = overlaps_via_recurrence(N)
        worst_dev = max(worst_dev, float(np.max(np.abs(wi.W - wr.W))))
        worst_unitary = max(worst_unitary, wi.unitarity_residual, wr.unitarity_residual)
        wt = weights(N)
        worst_weight = max(
            worst_weight, float(np.max(np.abs(np.abs(wi.W[0]) ** 2 - wt.derived)))
        )
    elapsed = time.perf_counter() - start
    ok = (
        worst_dev <= 1e-8
        and worst_unitary <= 1e-9
        and worst_weight <= 1e-8
        and elapsed <= 60.0
    )
    announce(
        capsys, ok, 7,
        f"overlap duality for N <= 10: integral vs recurrence {worst_dev:.3e} "
        f"<= 1e-8, unitarity {worst_unitary:.3e} <= 1e-9, weight row "
        f"{worst_weight:.3e} <= 1e-8, {elapsed:.1f}s <= 60s",
    )
    assert worst_dev <= 1e-8
    assert worst_unitary <= 1e-9
    assert worst_weight <= 1e-8
    assert elapsed <= 60.0


def test_criterion_8_quadrature_oracle(capsys):
    # reflections recomputed here directly: evaluate each harmonic at the
    # transformed angles and project back by quadrature
    worst_reflection = 0.0
    grid = build_grid(8)
    th, ph = grid.mesh()
    for j in range(9):
        space = HarmonicSpace(j)
        yv = harmonic_values(space, grid)
        for axis in (1, 2, 3):
            tt, pp = _REFLECTED_ANGLES[axis](th, ph)
            moved = harmonic_values(space, theta=np.abs(tt), phi=pp)
            got = np.einsum("btp,atp,tp->ba", np.conj(yv), moved, grid.weight_mesh)
            dev = float(np.max(np.abs(got - reflection(axis, space).matrix)))
            worst_reflection = max(worst_reflection, dev)
    # the derivative (ladder and J3) side runs through the library oracle
    report = run_verification(j_max=8, suite_filter="operators")
    check = {c.name: c for c in report.checks}["operators.quadrature_matrix_elements"]
    ok = worst_reflection <= 1e-8 and check.passed and check.residual <= 1e-8
    announce(
        capsys, ok, 8,
        f"quadrature cross-validation for j <= 8: reflection matrices "
        f"{worst_reflection:.3e} <= 1e-8, derivative oracle residual "
        f"{check.residual:.3e} <= 1e-8",
    )
    assert worst_reflection <= 1e-8
    assert check.passed
    assert check.residual <= 1e-8


def test_criterion_9_documented_weight_discrepancy(capsys):
    wt = weights(2)
    ratio = wt.closed_form / wt.derived
    spread = float(ratio.max() - ratio.min())
    report = run_verification(j_max=2, suite_filter="polynomials")
    ok = wt.discrepant and spread > 1.0 and report.all_passed
    announce(
        capsys, ok, 9,
        f"closed-form weight column at N=2 is flagged non-proportional "
        f"(ratio spread {spread:.2f}) and the polynomial suite still passes",
    )
    assert wt.discrepant is True
    assert spread > 1.0
    assert_allclose(wt.closed_form, [1.0, -1.0, 10.0], atol=1e-12)
    assert report.all_passed
