import numpy as np
import pytest
from numpy.testing import assert_allclose

from rotorsusy import (
    DegreeStack,
    HarmonicSpace,
    LabeledBasis,
    Operator,
    TridiagonalData,
    VerificationError,
    adjoint,
    closed_form_tridiagonal,
    decompose,
    f_basis,
    g_basis,
    identity,
    m_basis,
    q_action_on_m,
    supercharge,
    symmetry_generator,
    symmetry_generators,
    tridiagonal_extract,
    z_basis,
)
from rotorsusy.eigenbases import _fg_build, _fg_operator, _tridiagonal_blocks, _tridiagonal_data
from rotorsusy.operators import _transpose_apply
from rotorsusy.verification import _joint_oracle


def test_m_basis_order_and_eigenvalues():
    basis = m_basis(HarmonicSpace(1))
    assert [lbl["m"] for lbl in basis.labels] == [0, 1, 1]
    assert [lbl["epsilon"] for lbl in basis.labels] == [1, 1, -1]
    assert [lbl["k3"] for lbl in basis.labels] == [0.5, 0.5, -1.5]
    assert basis.orthonormality_residual() < 1e-14


def test_m_basis_diagonalizes_third_generator():
    for j in (1, 4, 9):
        space = HarmonicSpace(j)
        basis = m_basis(space)
        _, _, k3 = symmetry_generators(space)
        v = basis.coeffs
        t = v.conj().T @ k3.matrix @ v
        expected = np.diag([lbl["k3"] for lbl in basis.labels])
        assert_allclose(t, expected, atol=1e-13)


def test_m_basis_explicit_degree_one_vector():
    basis = m_basis(HarmonicSpace(1))
    # m=1, eps=+1: (Y^{-1} + i Y^{1}) / sqrt(2)
    assert_allclose(basis.coeffs[:, 1], [1 / np.sqrt(2), 0, 1j / np.sqrt(2)])


def test_supercharge_closed_form_on_m_basis():
    mat = q_action_on_m(HarmonicSpace(1))
    # the m=0 state only feels the -1/2 diagonal plus one raising entry
    assert mat[0, 0] == -0.5
    for j in (1, 2, 3, 7, 10):
        space = HarmonicSpace(j)
        v = m_basis(space).coeffs
        direct = v.conj().T @ supercharge(space).matrix @ v
        assert_allclose(q_action_on_m(space), direct, atol=1e-12)


def test_supercharge_chain_entries_vanish_exactly():
    # each eps chain splits into closed 2x2 blocks: on the eps=+1 chain an
    # even m can only move up and an odd m only down, and the forbidden
    # entries are zero by the coefficient itself, not by roundoff
    mat = q_action_on_m(HarmonicSpace(4))
    assert mat[1, 2] == 0.0  # (m=2,+1) -> (m=1,+1)
    assert mat[3, 2] != 0.0  # (m=2,+1) -> (m=3,+1)
    assert mat[2, 1] == 0.0  # (m=1,+1) -> (m=2,+1)
    assert mat[0, 1] != 0.0  # (m=1,+1) -> (m=0,+1)
    # the eps=-1 chain pairs the other way around
    assert mat[7, 6] == 0.0  # (m=2,-1) -> (m=3,-1)
    assert mat[5, 6] != 0.0  # (m=2,-1) -> (m=1,-1)


def test_f_basis_structure():
    space = HarmonicSpace(1)
    fb = f_basis(space)
    assert len(fb) == 2
    # F_1^1 has no upper term, so it is a pure M^{1,-1} state
    m_mat = m_basis(space).coeffs
    overlap = np.abs(m_mat.conj().T @ fb.coeffs[:, 1])
    assert_allclose(overlap, [0.0, 0.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("j", [1, 2, 5, 10])
def test_f_and_g_bases_are_joint_eigenvectors(j):
    space = HarmonicSpace(j)
    q = supercharge(space)
    _, _, k3 = symmetry_generators(space)
    for basis, q_eig in ((f_basis(space), -(j + 0.5)), (g_basis(space), j + 0.5)):
        for lbl, vec in zip(basis.labels, basis.coeffs.T):
            assert lbl["q"] == q_eig
            assert_allclose(q.matrix @ vec, q_eig * vec, atol=1e-10)
            assert_allclose(k3.matrix @ vec, lbl["k3"] * vec, atol=1e-10)


@pytest.mark.parametrize("j", [1, 3, 8])
def test_f_and_g_bases_span_everything(j):
    space = HarmonicSpace(j)
    fb, gb = f_basis(space), g_basis(space)
    assert (len(fb), len(gb)) == (j + 1, j)
    t = np.column_stack([fb.coeffs, gb.coeffs])
    assert_allclose(t.conj().T @ t, np.eye(space.dim), atol=1e-12)


def test_g_basis_empty_on_trivial_degree():
    gb = g_basis(HarmonicSpace(0))
    assert len(gb) == 0
    assert gb.coeffs.shape == (1, 0)


def test_closed_form_tridiagonal_values():
    diag, off = closed_form_tridiagonal("F", 1)
    assert_allclose(diag, [-1.0, 0.0])
    assert_allclose(off, [np.sqrt(3.0) / 2.0])
    diag, off = closed_form_tridiagonal("G", 2)
    assert_allclose(diag, [-1.0, 0.0])
    assert_allclose(off, [np.sqrt(3.0) / 2.0])
    with pytest.raises(ValueError):
        closed_form_tridiagonal("Q", 3)


@pytest.mark.parametrize("j", [1, 2, 6, 11])
def test_first_generator_is_tridiagonal_in_both_blocks(j):
    space = HarmonicSpace(j)
    k1, _, _ = symmetry_generators(space)
    f_tri = tridiagonal_extract(k1, f_basis(space))
    assert f_tri.N == j + 1
    assert np.all(f_tri.offdiag > 0)
    g_tri = tridiagonal_extract(k1, g_basis(space))
    assert g_tri.N == j
    # the smaller block repeats the larger block's pattern one degree down
    lower_diag, lower_off = closed_form_tridiagonal("F", j - 1)
    assert_allclose(g_tri.diag, lower_diag, atol=1e-12)
    assert_allclose(g_tri.offdiag, lower_off, atol=1e-12)


def test_tridiagonal_extract_rejects_wrong_family():
    space = HarmonicSpace(2)
    k1, _, _ = symmetry_generators(space)
    with pytest.raises(ValueError):
        tridiagonal_extract(k1, m_basis(space))


def test_tridiagonal_extract_rejects_non_tridiagonal_operator():
    space = HarmonicSpace(3)
    _, _, k3 = symmetry_generators(space)
    fb = f_basis(space)
    # K3 is diagonal in the F-basis, so extraction against the K1 closed
    # form must fail the entry comparison
    with pytest.raises(VerificationError):
        tridiagonal_extract(k3, fb)


def test_tridiagonal_data_validation():
    with pytest.raises(VerificationError):
        TridiagonalData(diag=np.zeros(3), offdiag=np.array([1.0, -0.5]), N=3)
    with pytest.raises(ValueError):
        TridiagonalData(diag=np.zeros(3), offdiag=np.array([1.0]), N=3)
    with pytest.raises(VerificationError):
        TridiagonalData(diag=np.array([0.0, np.nan, 0.0]), offdiag=np.ones(2), N=3)
    with pytest.raises(VerificationError):
        TridiagonalData(diag=np.zeros(3), offdiag=np.array([1.0, np.nan]), N=3)


@pytest.mark.parametrize("column", [[1.0, 1.0], [np.nan, 0.0]])
def test_labeled_basis_rejects_columns_off_the_unit_sphere(column):
    coeffs = np.eye(3, dtype=complex)
    coeffs[:2, 1] = column
    with pytest.raises(ValueError, match="unit norm"):
        LabeledBasis(space=HarmonicSpace(1), family="M", coeffs=coeffs, labels=[{}] * 3)
    basis = LabeledBasis(space=HarmonicSpace(1), family="M", coeffs=np.eye(3), labels=[{}] * 3)
    assert not basis.coeffs.flags.writeable


def test_labeled_basis_rejects_an_unknown_family():
    # "joint" named the output of the eigh oracle, which returns no LabeledBasis
    with pytest.raises(ValueError, match="unknown basis family 'joint'"):
        LabeledBasis(space=HarmonicSpace(1), family="joint", coeffs=np.eye(3), labels=[{}] * 3)


def test_labeled_basis_keeps_a_read_only_complex_array_and_copies_any_other():
    frozen = np.eye(3, dtype=complex)
    frozen.setflags(write=False)
    assert LabeledBasis(space=HarmonicSpace(1), family="M", coeffs=frozen, labels=[{}] * 3).coeffs is frozen
    writeable = np.eye(3, dtype=complex)
    basis = LabeledBasis(space=HarmonicSpace(1), family="M", coeffs=writeable, labels=[{}] * 3)
    writeable[:, 0] = [0.0, 1j, 0.0]
    assert basis.coeffs is not writeable and not basis.coeffs.flags.writeable
    assert np.array_equal(basis.coeffs, np.eye(3))
    # the builders hand over the array they wrote, already read-only
    for b in (m_basis(HarmonicSpace(4)), f_basis(HarmonicSpace(4)), g_basis(HarmonicSpace(4)),
              z_basis(4)):
        assert not b.coeffs.flags.writeable and b.coeffs.base is None


def test_decomposition_report_degree_three():
    report = decompose(HarmonicSpace(3))
    assert report["dims"] == [4, 3]
    assert report["q_eigenvalues"] == [-3.5, 3.5]
    assert report["completeness_residual"] < 1e-12
    assert all(v < 1e-12 for v in report["offblock_residuals"].values())
    assert_allclose(report["f_block"]["diag"], [-2.0, 0.0, 0.0, 0.0])
    assert_allclose(
        report["f_block"]["offdiag"],
        [np.sqrt(15.0) / 2.0, np.sqrt(3.0), np.sqrt(7.0) / 2.0],
    )
    assert report["offdiag_positive"] is True
    assert report["g_matches_f_pattern_one_degree_lower"] is True


def test_decomposition_report_trivial_degree():
    report = decompose(HarmonicSpace(0))
    assert report["dims"] == [1, 0]
    assert "g_block" not in report
    assert_allclose(report["f_block"]["diag"], [0.5])


@pytest.mark.parametrize("j", [2, 5, 10])
def test_closed_forms_agree_with_numerical_diagonalization(j):
    space = HarmonicSpace(j)
    q = supercharge(space)
    _, _, k3 = symmetry_generators(space)
    vecs, labels = _joint_oracle(q, k3)
    fb, gb = f_basis(space), g_basis(space)
    for basis in (fb, gb):
        for lbl, vec in zip(basis.labels, basis.coeffs.T):
            match = [
                o_vec
                for (o_q, o_k3), o_vec in zip(labels, vecs.T)
                if abs(o_q - lbl["q"]) < 1e-8 and abs(o_k3 - lbl["k3"]) < 1e-8
            ]
            assert len(match) == 1
            overlap = abs(np.vdot(match[0], vec))
            assert_allclose(overlap, 1.0, atol=1e-10)


def test_eigen_verification_reports_the_first_failing_vector():
    space = HarmonicSpace(2)
    k3 = symmetry_generator(3, space)
    # -Q has the F vectors on its +(j+1/2) branch, so every one fails
    with pytest.raises(VerificationError, match=r"^F-basis closed form failed eigen-verification at j=2, "
                       r"k=0: \|Qv - qv\| = \S+, \|K3v - k3v\| = \S+ \(tolerance 1e-10\)$"):
        _fg_build(space, "F", -supercharge(space), k3)
    passed = _fg_build(space, "F", supercharge(space), k3)
    np.testing.assert_array_equal(passed.matrix[:, 2:], f_basis(space).coeffs)


def test_block_faults_raise_while_the_blocks_are_read():
    # so decompose's offdiag_positive and g_matches_f_pattern_one_degree_lower
    # are True in every report it returns
    diag, off = closed_form_tridiagonal("F", 3)
    for bad in (np.r_[off[:-1], 0.0], -off):
        with pytest.raises(VerificationError, match="strictly positive"):
            TridiagonalData(diag=diag, offdiag=bad, N=4)
    for j in range(1, 40):
        g, f_lower = closed_form_tridiagonal("G", j), closed_form_tridiagonal("F", j - 1)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(g, f_lower))
    g_diag, g_off = closed_form_tridiagonal("G", 4)
    assert _tridiagonal_data(g_diag, g_off, 0.0, 0.0, "G", 4).N == 4
    with pytest.raises(VerificationError, match=r"deviate from the closed form .*\(G-basis, j=4\)"):
        _tridiagonal_data(g_diag, g_off + 1e-9, 0.0, 0.0, "G", 4)


@pytest.mark.parametrize("j", [0, 1, 2, 7, 30])
def test_keyed_f_transpose_is_the_dense_product(j):
    space = HarmonicSpace(j)
    f = _fg_operator(space, "F")
    rng = np.random.default_rng(j)
    for shape in ((2 * j + 1,), (2 * j + 1, 3, 2)):
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        expect = np.tensordot(f_basis(space).coeffs, v, axes=(0, 0))
        assert_allclose(_transpose_apply(f, v, j + 1, 0), expect, rtol=0, atol=1e-14)


def _dense_decompose(space):
    """The residuals and K1 blocks of decompose, from dense products
    T^H O T over the stacked F+G basis T and from tridiagonal_extract."""
    q = supercharge(space)
    k1, k2, k3 = symmetry_generators(space)
    fb, gb = f_basis(space), g_basis(space)
    t = np.column_stack([fb.coeffs, gb.coeffs])
    nf = len(fb)
    offblock = {}
    for name, op in (("Q", q), ("K1", k1), ("K2", k2), ("K3", k3)):
        full = t.conj().T @ op.matrix @ t
        offblock[name] = max(np.max(np.abs(full[:nf, nf:]), initial=0.0),
                             np.max(np.abs(full[nf:, :nf]), initial=0.0))
    blocks = {"f_block": tridiagonal_extract(k1, fb)}
    if len(gb):
        blocks["g_block"] = tridiagonal_extract(k1, gb)
    completeness = np.max(np.abs(t.conj().T @ t - np.eye(space.dim)))
    return completeness, offblock, blocks


@pytest.mark.parametrize("j", [0, 1, 2, 5, 20, 64, 256, 2000])
def test_decompose_matches_dense_products(j):
    report = decompose(HarmonicSpace(j))
    if j == 2000:
        # dense products take seconds here: the closed forms and the bound only
        assert report["completeness_residual"] <= 1e-10
        assert all(r <= 1e-10 for r in report["offblock_residuals"].values())
        for key, family in (("f_block", "F"), ("g_block", "G")):
            diag, off = closed_form_tridiagonal(family, j)
            assert_allclose(report[key]["diag"], diag, rtol=0, atol=1e-10)
            assert_allclose(report[key]["offdiag"], off, rtol=0, atol=1e-10)
        return
    completeness, offblock, blocks = _dense_decompose(HarmonicSpace(j))
    assert abs(report["completeness_residual"] - completeness) <= 1e-13
    assert report["offblock_residuals"].keys() == offblock.keys()
    for name, residual in offblock.items():
        assert abs(report["offblock_residuals"][name] - residual) <= 1e-13
    assert ("g_block" in report) == ("g_block" in blocks)
    for key, tri in blocks.items():
        assert_allclose(report[key]["diag"], tri.diag, rtol=1e-13, atol=1e-13)
        assert_allclose(report[key]["offdiag"], tri.offdiag, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("j", range(13))
def test_keyed_fg_columns_are_the_basis_columns(j):
    space = HarmonicSpace(j)
    for which, build, n in (("F", f_basis, j + 1), ("G", g_basis, j)):
        dense = _fg_operator(space, which).matrix
        # vector k is column j + k, byte for byte; every other column is zero
        assert dense[:, j:j + n].tobytes() == build(space).coeffs.tobytes()
        assert not np.any(np.delete(dense, np.s_[j:j + n], axis=1))


def test_stacked_eigen_verification_reports_the_first_failing_degree():
    stack = DegreeStack(5)
    q, k3 = supercharge(stack), symmetry_generator(3, stack)
    # Q shifted by 1e-6 at degree 3 alone: degrees 0..2 pass, 3 is reported
    shift = np.zeros((6, 11))
    shift[3] = 1e-6
    shifted = q + Operator(stack, {(1, 0): shift})
    with pytest.raises(VerificationError, match=r"F-basis closed form failed "
                       r"eigen-verification at j=3, k=0: \|Qv - qv\| = 1\.000e-06, "):
        _fg_build(stack, "F", shifted, k3)
    # K3 + 1e-9 fails through its own residual; G is empty at j = 0
    with pytest.raises(VerificationError, match=r"G-basis .* at j=1, k=0: .*\|K3v - k3v\| = 1\.000e-09"):
        _fg_build(stack, "G", q, k3 + 1e-9 * identity(stack))


@pytest.mark.parametrize("space", [HarmonicSpace(6), DegreeStack(6)], ids=["one degree", "stack"])
def test_keyed_k1_blocks_reject_stray_and_imaginary_entries(space):
    q, k1, k3 = supercharge(space), symmetry_generator(1, space), symmetry_generator(3, space)
    f = _fg_build(space, "F", q, k3)
    t = adjoint(f) @ (k1 @ f)
    last = _tridiagonal_blocks(t, "F")[-1]
    assert_allclose(last.diag, closed_form_tridiagonal("F", 6)[0], rtol=0, atol=1e-13)
    assert_allclose(last.offdiag, closed_form_tridiagonal("F", 6)[1], rtol=0, atol=1e-13)
    # an entry two off the band from j = 2 on, then an imaginary diagonal
    m, j = space.m_values(), space.degrees
    stray = Operator(space, {(1, 2): np.where((m >= 0) & (m + 2 <= j), 1e-6, 0.0)})
    with pytest.raises(VerificationError, match=r"not real tridiagonal in the F-basis "
                       r"\(stray 1\.000e-06, imaginary [0-9.]+e[-+][0-9]+\)"):
        _tridiagonal_blocks(t + stray, "F")
    imaginary = Operator(space, {(1, 0): np.where(m >= 0, 1e-6j, 0.0)})
    with pytest.raises(VerificationError, match=r"\(stray 0\.000e\+00, imaginary 1\.000e-06\)"):
        _tridiagonal_blocks(t + imaginary, "F")
