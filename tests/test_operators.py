import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

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
from rotorsusy import (casimir, f_basis, g_basis, operators, supercharge, supercharge_alt, susy,
                       symmetry_generators)
from rotorsusy.eigenbases import _fg_terms
from rotorsusy.operators import _act, _act_adjoint, _ladder, from_column_action


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


def test_spectrum_self_adjoint_gate_covers_every_row_block():
    space = HarmonicSpace(40)  # 81 rows: two blocks of the Hermitian check
    q = supercharge(space).matrix.copy()
    assert spectrum(Operator(space, q)).dim == space.dim
    q[70, 75] += 1e-6
    with pytest.raises(ContractViolation):
        spectrum(Operator(space, q))


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


def _recorded_term_lists(space, monkeypatch):
    """Every (terms, operator) pair the library builds on one degree: H, Q,
    Q', K1-K3, C, J+, J3, R1-R3, J+ again inside J-, and J-."""
    built = []

    def recording(space, terms):
        terms = list(terms)
        built.append((terms, from_column_action(space, terms)))
        return built[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(operators, "from_column_action", recording)
        patch.setattr(susy, "from_column_action", recording)
        for build in (hamiltonian, supercharge, supercharge_alt, symmetry_generators, casimir,
                      jplus, j3):
            build(space)
        for axis in (1, 2, 3):
            reflection(axis, space)
        # J- is built as the adjoint of J+; its action is Y_j^m -> b(m) Y_j^{m-1}
        m, _, down = _ladder(space)
        built.append(([(down, m - 1)], jminus(space)))
    assert len(built) == 14
    return built


def _looped_columns(space, terms, n):
    """The (2j+1, n) array of a column action, entry by entry."""
    out = np.zeros((space.dim, n), dtype=complex)
    for coef, target in terms:
        coef = np.broadcast_to(coef, (n,))
        for i in range(n):
            if abs(target[i]) <= space.j:
                out[target[i] + space.j, i] += coef[i]
    return out


@pytest.mark.parametrize("j", [0, 1, 2, 3, 4, 5, 6, 64])
def test_act_matches_the_dense_column_action(j, monkeypatch):
    space = HarmonicSpace(j)
    built = _recorded_term_lists(space, monkeypatch)
    eye = np.eye(space.dim)
    for terms, op in built:
        assert_array_equal(_act(space, terms, eye), op.matrix)
        # a 1-d vector and a 3-d stack act column by column like the 2-d identity
        assert_array_equal(_act(space, terms, eye[:, 0]), op.matrix[:, 0])
        assert_array_equal(_act(space, terms, eye[:, :, None])[..., 0], op.matrix)


@pytest.mark.parametrize("j", [0, 1, 2, 3, 4, 5, 6, 64, 256])
def test_slice_kernels_match_a_looped_reference(j, monkeypatch):
    space = HarmonicSpace(j)
    rng = np.random.default_rng(j)
    v = rng.normal(size=(space.dim, 3)) + 1j * rng.normal(size=(space.dim, 3))
    for terms, op in _recorded_term_lists(space, monkeypatch):
        dense = _looped_columns(space, terms, space.dim)
        assert_array_equal(from_column_action(space, terms).matrix, dense)
        assert_array_equal(_act(space, terms, np.eye(space.dim)), dense)
        # term by term, row by row: the same products and sums as the slices
        want = np.zeros_like(v)
        for coef, target in terms:
            coef = np.broadcast_to(coef, (space.dim,))
            for i in range(space.dim):
                if abs(target[i]) <= j:
                    want[target[i] + j] += coef[i] * v[i]
        assert_array_equal(_act(space, terms, v), want)


def test_kernels_reject_bad_targets_and_lost_coefficients():
    space = HarmonicSpace(3)
    m = space.m_values()
    permuted = m.copy()
    permuted[[2, 4]] = permuted[[4, 2]]
    v = np.ones((space.dim, 2))
    for terms in ([(1.0, permuted)], [(1.0, 2 * m)], [(1.0, np.zeros_like(m))]):
        with pytest.raises(ValueError, match="form"):
            from_column_action(space, terms)
        with pytest.raises(ValueError, match="form"):
            _act(space, terms, v)
        with pytest.raises(ValueError, match="form"):
            _act_adjoint(space, terms, space.dim)
    # a nonzero coefficient may not meet a target outside -j..j, on either side
    for target in (m + 1, m - 1, -m - 1, -m + 1, m + 7):
        for coef in (0.5, np.full(space.dim, 0.5)):
            with pytest.raises(ValueError, match="outside"):
                _act(space, [(coef, target)], v)
            with pytest.raises(ValueError, match="outside"):
                _act_adjoint(space, [(coef, target)], space.dim)
    # a coefficient that vanishes where the target leaves -j..j is fine
    assert_array_equal(_act(space, [(np.where(m < 3, 1.0, 0.0), m + 1)], v)[0], 0.0)


@pytest.mark.parametrize("j", [0, 1, 2, 5, 256])
def test_fg_adjoint_equals_the_dense_bra(j):
    space = HarmonicSpace(j)
    rng = np.random.default_rng(j)
    x = rng.normal(size=(space.dim, 4)) + 1j * rng.normal(size=(space.dim, 4))
    for which, n in (("F", j + 1), ("G", j)):
        terms, size = _fg_terms(space, which)
        assert size == n
        b = _looped_columns(space, terms, n)
        assert_array_equal(b, {"F": f_basis, "G": g_basis}[which](space).matrix())
        got = _act_adjoint(space, terms, n)(x)
        assert_allclose(got, b.conj().T @ x, rtol=0, atol=1e-14 * np.abs(x).max())
        # bit for bit the dense contraction with einsum's unfused complex products
        assert_array_equal(got, np.einsum("rn,rc->nc", b.conj(), x))
        assert_allclose(_act_adjoint(space, terms, n)(b), np.eye(n), atol=1e-15)
