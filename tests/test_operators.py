import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from rotorsusy import (
    ContractViolation,
    HarmonicSpace,
    Operator,
    adjoint,
    anticommutator,
    commutator,
    hamiltonian,
    identity,
    j1,
    j2,
    j3,
    jminus,
    jplus,
    op_norm,
    reflection,
    spectrum,
)
from rotorsusy.operators import from_column_action


def test_j3_matrix_entries():
    op = j3(HarmonicSpace(1))
    assert_allclose(op.matrix, np.diag([-1.0, 0.0, 1.0]))
    assert_allclose(np.trace(j3(HarmonicSpace(7)).matrix), 0.0)


def test_ladder_matrix_elements():
    space = HarmonicSpace(1)
    up = jplus(space)
    # raising the m = -1 state lands on m = 0 with amplitude sqrt(2)
    assert_allclose(up.matrix[1, 0], np.sqrt(2.0))
    # the top of the chain is annihilated
    top = np.zeros(3, dtype=complex)
    top[2] = 1.0
    assert_allclose(up.matrix @ top, np.zeros(3))
    assert_allclose(jminus(space).matrix, up.matrix.conj().T)


def test_ladder_commutator():
    space = HarmonicSpace(6)
    lhs = commutator(jplus(space), jminus(space))
    assert_allclose(lhs.matrix, 2.0 * j3(space).matrix, atol=1e-12)


def test_cyclic_angular_momentum_commutators():
    space = HarmonicSpace(4)
    ops = [j1(space), j2(space), j3(space)]
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        got = commutator(ops[a], ops[b])
        assert_allclose(got.matrix, 1j * ops[c].matrix, atol=1e-13)


def test_total_angular_momentum_is_casimir():
    for j in (0, 1, 5):
        space = HarmonicSpace(j)
        total = j1(space) @ j1(space) + j2(space) @ j2(space) + j3(space) @ j3(space)
        assert_allclose(total.matrix, j * (j + 1) * np.eye(space.dim), atol=1e-12)


def test_reflections_square_to_identity():
    space = HarmonicSpace(3)
    for axis in (1, 2, 3):
        r = reflection(axis, space)
        assert_allclose((r @ r).matrix, np.eye(space.dim), atol=1e-14)
        assert_allclose(adjoint(r).matrix, r.matrix)


def test_reflection_signs_on_degree_one():
    space = HarmonicSpace(1)
    e = np.eye(3, dtype=complex)
    # Y_1^0 maps to itself under the first two reflections, flips under the third
    assert_allclose(reflection(1, space).matrix @ e[1], e[1])
    assert_allclose(reflection(2, space).matrix @ e[1], e[1])
    assert_allclose(reflection(3, space).matrix @ e[1], -e[1])
    # Y_1^1 -> Y_1^{-1} for axis 1, -Y_1^{-1} for axis 2
    assert_allclose(reflection(1, space).matrix @ e[2], e[0])
    assert_allclose(reflection(2, space).matrix @ e[2], -e[0])


def test_reflection_axis_validation():
    with pytest.raises(ValueError):
        reflection(0, HarmonicSpace(1))
    with pytest.raises(ValueError):
        reflection(4, HarmonicSpace(1))


def test_mixed_commutation_rules():
    space = HarmonicSpace(5)
    js = {1: j1(space), 2: j2(space), 3: j3(space)}
    rs = {1: reflection(1, space), 2: reflection(2, space), 3: reflection(3, space)}
    for i in (1, 2, 3):
        assert op_norm(commutator(js[i], rs[i])) < 1e-12
        for k in (1, 2, 3):
            if k != i:
                assert op_norm(anticommutator(js[i], rs[k])) < 1e-12


def test_hamiltonian_values():
    assert_allclose(hamiltonian(HarmonicSpace(0)).matrix, [[0.25]])
    assert_allclose(hamiltonian(HarmonicSpace(1)).matrix, 2.25 * np.eye(3))

    space = HarmonicSpace(3)
    built = (
        j1(space) @ j1(space)
        + j2(space) @ j2(space)
        + j3(space) @ j3(space)
        + 0.25 * identity(space)
    )
    assert_allclose(hamiltonian(space).matrix, built.matrix, atol=1e-13)


def test_algebra_helpers():
    space = HarmonicSpace(2)
    a = j1(space)
    assert op_norm(commutator(a, a)) == 0.0
    assert_allclose(anticommutator(identity(space), a).matrix, 2.0 * a.matrix)
    assert_allclose((a + a).matrix, (2.0 * a).matrix)
    assert_allclose((a @ identity(space)).matrix, a.matrix)
    assert_allclose((-a).matrix, -a.matrix)


def test_space_mismatch_rejected():
    a = j1(HarmonicSpace(1))
    b = j1(HarmonicSpace(2))
    with pytest.raises(ValueError):
        commutator(a, b)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(TypeError):
        a @ np.eye(3)


def test_operator_shape_validation():
    with pytest.raises(ValueError):
        Operator(HarmonicSpace(1), np.eye(4))


def test_spectrum_examples():
    rep = spectrum(j3(HarmonicSpace(1)))
    assert_allclose(rep.eigenvalues, [-1.0, 0.0, 1.0])
    assert list(rep.multiplicities) == [1, 1, 1]
    assert rep.dim == 3

    rep = spectrum(hamiltonian(HarmonicSpace(2)))
    assert_allclose(rep.eigenvalues, [6.25])
    assert list(rep.multiplicities) == [5]

    rep = spectrum(reflection(1, HarmonicSpace(1)))
    assert_allclose(rep.eigenvalues, [-1.0, 1.0])
    assert list(rep.multiplicities) == [1, 2]


def test_spectrum_self_adjoint_gate():
    up = jplus(HarmonicSpace(2))
    with pytest.raises(ContractViolation):
        spectrum(up)
    rep = spectrum(up, self_adjoint=False)
    # a strictly triangular matrix only has the eigenvalue zero
    assert_allclose(rep.eigenvalues, [0.0], atol=1e-12)
    assert rep.dim == 5


_SPACE = HarmonicSpace(2)
_ENTRY = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
_MATRIX = arrays(np.float64, (_SPACE.dim, _SPACE.dim), elements=_ENTRY)


@settings(max_examples=25, deadline=None)
@given(are=_MATRIX, aim=_MATRIX, bre=_MATRIX, bim=_MATRIX, cre=_MATRIX, cim=_MATRIX)
def test_commutator_product_identity(are, aim, bre, bim, cre, cim):
    # [A, BC] = {A, B}C - B{A, C} for arbitrary complex matrices
    a = Operator(_SPACE, are + 1j * aim)
    b = Operator(_SPACE, bre + 1j * bim)
    c = Operator(_SPACE, cre + 1j * cim)
    lhs = commutator(a, b @ c)
    rhs = anticommutator(a, b) @ c - b @ anticommutator(a, c)
    assert_allclose(lhs.matrix, rhs.matrix, atol=1e-12)


def test_column_action_assembles_terms_and_rejects_lost_weight():
    space = HarmonicSpace(1)
    m = space.m_values()
    # J+ plus a diagonal: two terms, each writing one entry per column
    op = from_column_action(space, [(np.sqrt((1 - m) * (2 + m)), m + 1), (2.0, m)])
    assert_allclose(op.matrix, jplus(space).matrix + 2.0 * np.eye(3))
    # a nonzero coefficient on a target outside -j..j would be dropped silently
    with pytest.raises(ValueError, match="outside"):
        from_column_action(space, [(1.0, m + 1)])
