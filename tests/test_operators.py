import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from rotorsusy import (
    ContractViolation,
    DegreeStack,
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
from rotorsusy import (casimir, f_basis, g_basis, operators, supercharge, supercharge_alt,
                       symmetry_generators, verification)
from rotorsusy.eigenbases import _fg_operator


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
    # keys that cancel drop out, so later products skip them
    assert not commutator(a, a).terms
    zero = Operator(space, {})
    assert not (zero @ a).terms and not (a @ zero).terms and not (zero + zero).terms
    assert op_norm(zero) == 0.0 and not zero.matrix.any()
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
        Operator(HarmonicSpace(1), {(1, 0): np.ones(4)})
    # a dense matrix is not a mapping of keys
    with pytest.raises(TypeError, match="keys"):
        Operator(HarmonicSpace(1), np.eye(3))


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
    with pytest.raises(ContractViolation, match=r"^matrix is not self-adjoint \(deviation \S+\)$"):
        spectrum(up)


def test_spectrum_self_adjoint_gate_catches_a_perturbed_key():
    space = HarmonicSpace(40)
    q = supercharge(space)
    assert spectrum(q).dim == space.dim
    coef = q.terms[1, 1].copy()
    coef[70] += 1e-6
    with pytest.raises(ContractViolation):
        spectrum(Operator(space, {**q.terms, (1, 1): coef}))


# the deviations the gate reported at j = 3 when it formed a - a^H as keyed
# operators and took its op_norm: read from the entries, they print the same
@pytest.mark.parametrize("name, build, deviation", [
    ("J+", jplus, "1.058e+01"),
    ("J3 + i R1 / 4 + J+", lambda s: j3(s) + 0.25j * reflection(1, s) + jplus(s), "1.067e+01"),
    ("(-1, 1) alone", lambda s: Operator(s, {(-1, 1): (np.arange(7.0) + 0.5j) * (s.m_values() >= -2)}),
     "8.718e+00")])
def test_spectrum_gate_reports_the_deviation_of_the_keyed_gate(name, build, deviation):
    with pytest.raises(ContractViolation, match=rf"\(deviation {re.escape(deviation)}\)"):
        spectrum(build(HarmonicSpace(3)))


@pytest.mark.parametrize("j", [0, 2, 256])
def test_spectrum_gate_passes_q_h_and_c(j):
    space = HarmonicSpace(j)
    for a in (supercharge(space), hamiltonian(space), casimir(space)):
        assert spectrum(a).dim == space.dim


def _keyed_operators(space):
    """The 15 operators the library builds on one degree: J+, J-, J1-J3,
    R1-R3, H, Q, Q', K1-K3 and C."""
    return {"J+": jplus(space), "J-": jminus(space), "J1": j1(space), "J2": j2(space),
            "J3": j3(space), **{f"R{i}": reflection(i, space) for i in (1, 2, 3)},
            "H": hamiltonian(space), "Q": supercharge(space), "Q'": supercharge_alt(space),
            **dict(zip(("K1", "K2", "K3"), symmetry_generators(space))), "C": casimir(space)}


@pytest.mark.parametrize("j", range(9))
def test_keyed_algebra_matches_dense_numpy(j):
    space = HarmonicSpace(j)
    ops = _keyed_operators(space)
    dense = {name: op.matrix for name, op in ops.items()}
    tol = 1e-13 * space.dim ** 2
    for name, a in ops.items():
        assert_array_equal(adjoint(a).matrix, dense[name].conj().T, err_msg=name)
        assert_allclose(op_norm(a), np.linalg.norm(dense[name]), rtol=1e-14, err_msg=name)
        for other, b in ops.items():
            x, y = dense[name], dense[other]
            for got, want in ((a + b, x + y), (a - b, x - y), (a @ b, x @ y),
                              (commutator(a, b), x @ y - y @ x),
                              (anticommutator(a, b), x @ y + y @ x)):
                assert_allclose(got.matrix, want, rtol=0, atol=tol, err_msg=f"{name}, {other}")
                assert_allclose(op_norm(got), np.linalg.norm(want), rtol=1e-13, atol=tol,
                                err_msg=f"{name}, {other}")


@pytest.mark.parametrize("j", [0, 1, 2, 3, 8])
def test_op_norm_counts_a_crossing_entry_once(j):
    space = HarmonicSpace(j)
    # J3 (key (1, 0)) and R1 (key (-1, 0)) share the entry of Y_j^0 -> Y_j^0
    for a in (j3(space) + reflection(1, space), hamiltonian(space) - 2.0 * reflection(2, space)):
        assert_allclose(op_norm(a), np.linalg.norm(a.matrix), rtol=1e-15)
    e0 = np.where(space.m_values() == 0, 3.0, 0.0)
    cancel = Operator(space, {(1, 0): e0, (-1, 0): -e0})
    assert op_norm(cancel) == 0.0
    assert not np.any(cancel.matrix)


_SPACE = HarmonicSpace(3)
_ENTRY = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
_KEYS = st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(-5, 5)),
                 min_size=1, max_size=4, unique=True)
_COEFS = arrays(np.float64, (2, _SPACE.dim), elements=_ENTRY)


@st.composite
def _keyed_operator(draw):
    """A random keyed operator: each drawn key (s, c) gets a random complex
    coefficient wherever its target s m + c lies in -j..j."""
    m, terms = _SPACE.m_values(), {}
    for s, c in draw(_KEYS):
        re, im = draw(_COEFS)
        terms[s, c] = np.where(np.abs(s * m + c) <= _SPACE.j, re + 1j * im, 0.0)
    return Operator(_SPACE, terms)


@settings(max_examples=25, deadline=None)
@given(a=_keyed_operator(), b=_keyed_operator(), c=_keyed_operator())
def test_commutator_product_identity(a, b, c):
    # [A, BC] = {A, B}C - B{A, C} for arbitrary keyed operators
    lhs = commutator(a, b @ c)
    rhs = anticommutator(a, b) @ c - b @ anticommutator(a, c)
    assert_allclose(lhs.matrix, rhs.matrix, atol=1e-12)
    assert op_norm(lhs - rhs) <= 1e-12


def test_column_action_assembles_terms_and_rejects_lost_weight():
    space = HarmonicSpace(1)
    m = space.m_values()
    # J+ plus a diagonal: two keys, each writing one entry per column
    op = Operator(space, {(1, 1): np.sqrt((1 - m) * (2 + m)), (1, 0): 2.0})
    assert_allclose(op.matrix, jplus(space).matrix + 2.0 * np.eye(3))
    # a nonzero coefficient on a target outside -j..j would be dropped silently
    with pytest.raises(ValueError, match="outside"):
        Operator(space, {(1, 1): 1.0})


def _looped_columns(space, terms, n, first):
    """The (2j+1, n) array of keyed columns, column i standing for first + i,
    entry by entry."""
    out = np.zeros((space.dim, n), dtype=complex)
    for (s, c), coef in terms:
        coef = np.broadcast_to(coef, (n,))
        for i in range(n):
            target = s * (first + i) + c
            if abs(target) <= space.j:
                out[target + space.j, i] += coef[i]
    return out


@pytest.mark.parametrize("j", [0, 1, 2, 3, 4, 5, 6, 64])
def test_act_matches_the_dense_column_action(j):
    space = HarmonicSpace(j)
    eye = np.eye(space.dim)
    for name, op in _keyed_operators(space).items():
        dense = op.matrix
        assert_array_equal(op.apply(eye), dense, err_msg=name)
        # a 1-d vector and a 3-d stack act column by column like the 2-d identity
        assert_array_equal(op.apply(eye[:, 0]), dense[:, 0], err_msg=name)
        assert_array_equal(op.apply(eye[:, :, None])[..., 0], dense, err_msg=name)
    with pytest.raises(ValueError, match="dim"):
        j3(space).apply(np.ones(space.dim + 1))


@pytest.mark.parametrize("j", [0, 1, 2, 3, 4, 5, 6, 64, 256])
def test_slice_kernels_match_a_looped_reference(j):
    space = HarmonicSpace(j)
    rng = np.random.default_rng(j)
    v = rng.normal(size=(space.dim, 3)) + 1j * rng.normal(size=(space.dim, 3))
    for name, op in _keyed_operators(space).items():
        dense = _looped_columns(space, op.terms.items(), space.dim, -j)
        assert_array_equal(op.matrix, dense, err_msg=name)
        # key by key, row by row: the same products and sums as the slices
        want = np.zeros_like(v)
        for (s, c), coef in op.terms.items():
            for i, m in enumerate(space.m_values()):
                if abs(s * m + c) <= j:
                    want[s * m + c + j] += coef[i] * v[i]
        assert_array_equal(op.apply(v), want, err_msg=name)


def test_kernels_reject_bad_targets_and_lost_coefficients():
    space = HarmonicSpace(3)
    m = space.m_values()
    # a key is (s, c) with s = +1 or -1 and c an integer
    for key in ((2, 0), (0, 1), (-2, 1), (1, 0.5), (-1, 1.5)):
        with pytest.raises(ValueError, match="not"):
            Operator(space, {key: 1.0})
    # a nonzero coefficient may not meet a target outside -j..j, on either side
    for key in ((1, 1), (1, -1), (-1, -1), (-1, 1), (1, 7), (-1, 7)):
        for coef in (0.5, np.full(space.dim, 0.5)):
            with pytest.raises(ValueError, match="outside"):
                Operator(space, {key: coef})
    # a coefficient that vanishes where the target leaves -j..j is fine
    op = Operator(space, {(1, 1): np.where(m < 3, 1.0, 0.0), (1, 9): np.zeros(space.dim)})
    assert_array_equal(op.apply(np.ones((space.dim, 2)))[0], 0.0)
    assert_array_equal(op.matrix, np.eye(space.dim, k=-1))


@pytest.mark.parametrize("j", [0, 1, 2, 5, 256])
def test_fg_adjoint_equals_the_dense_bra(j):
    space = HarmonicSpace(j)
    rng = np.random.default_rng(j)
    x = rng.normal(size=(space.dim, 4)) + 1j * rng.normal(size=(space.dim, 4))
    for which, n in (("F", j + 1), ("G", j)):
        keyed = _fg_operator(space, which)
        b = _looped_columns(space, [(key, coef[j:j + n]) for key, coef in keyed.terms.items()], n, 0)
        assert_array_equal(b, {"F": f_basis, "G": g_basis}[which](space).coeffs)
        # the keyed adjoint acts as the dense bra b^H on the rows of the
        # family's columns j..j+n-1, and sends x nowhere else
        got = adjoint(keyed).apply(x)
        assert_allclose(got[j:j + n], b.conj().T @ x, rtol=0, atol=1e-14 * np.abs(x).max())
        assert_array_equal(np.delete(got, np.s_[j:j + n], axis=0), 0.0)
        projector = np.diag(np.r_[np.zeros(j), np.ones(n), np.zeros(j + 1 - n)])
        assert_allclose((adjoint(keyed) @ keyed).matrix, projector, atol=1e-15)


_REAL = ("H", "Q", "Q'", "K1", "K2", "K3", "C", "R1", "R2", "R3")
_PRODUCT_FIELDS = ("h", "q", "q_alt", "k1", "k2", "k3", "c")


# the largest block of each operator in the K3-adapted basis; those that
# commute with K3 split into blocks of size 1 or 2, and K1, K2 stay whole
_LARGEST_BLOCK = {"H": 1, "K3": 1, "R3": 1, "h": 1, "k3": 1, "Q": 2, "Q'": 2, "C": 2, "R1": 2, "R2": 2,
                  "q": 2, "q_alt": 2, "c": 2}


def _even(a):
    return operators._conjugation_even(*operators._entries(a))


def _k3_apply(j, v):
    """U v for the K3-adapted basis U Y^mu = B^mu of the operators module,
    B^0 = Y^0, B^m = ((1-i) Y^{-m} + (-1)^m (1+i) Y^m)/2 and
    B^{-m} = ((1+i) Y^{-m} + (-1)^m (1-i) Y^m)/2, m > 0, pair by pair."""
    m, out = np.arange(1, j + 1), np.array(v, dtype=complex)
    t = ((-1.0) ** m).reshape((-1,) + (1,) * (np.ndim(v) - 1))
    out[j - m] = ((1 - 1j) * v[j + m] + (1 + 1j) * v[j - m]) / 2
    out[j + m] = t * ((1 + 1j) * v[j + m] + (1 - 1j) * v[j - m]) / 2
    return out


def _k3_adjoint_apply(j, w):
    """U^H w, pair by pair: row mu is the inner product <B^mu, w>."""
    m, out = np.arange(1, j + 1), np.array(w, dtype=complex)
    t = ((-1.0) ** m).reshape((-1,) + (1,) * (np.ndim(w) - 1))
    out[j + m] = ((1 + 1j) * w[j - m] + t * (1 - 1j) * w[j + m]) / 2
    out[j - m] = ((1 - 1j) * w[j - m] + t * (1 + 1j) * w[j + m]) / 2
    return out


def _assert_exact_real_blocks(a, name):
    """B = U^H A U, as spectrum forms it, is exactly real; it equals the
    dense U^H A U to 1e-15 ||A|| (512 columns at a time); its blocks are no
    larger than _LARGEST_BLOCK[name] and, up to j = 256, hold every entry."""
    space = a.space
    stacked = isinstance(space, DegreeStack)
    uh, u = operators._per_degree(operators._k3_basis, space)
    b = uh @ (a @ u)
    assert not np.any(operators._entries(b)[1].imag), name
    blocks = operators._k3_blocks(a, np.ones(space.j + 1 if stacked else 1, dtype=bool))
    largest = max(nodes.shape[1] for nodes, _ in blocks)
    assert largest <= _LARGEST_BLOCK.get(name, largest), name
    if name in ("K1", "K2", "k1", "k2"):  # one block per degree
        assert sum(len(nodes) for nodes, _ in blocks) == (space.j + 1 if stacked else 1), name
    top = 2 * space.j + 1
    for r, j in enumerate(range(space.j + 1) if stacked else [space.j]):
        one, b_one, n = (a.at(j), b.at(j), 2 * j + 1) if stacked else (a, b, top)
        for lo in range(0, n, 512):
            eye = np.eye(n, min(512, n - lo), -lo)
            want = _k3_adjoint_apply(j, one.apply(_k3_apply(j, eye)))
            assert np.max(np.abs(b_one.apply(eye) - want)) <= 1e-15 * op_norm(one), name
        if n > 513:
            continue
        whole = np.zeros((n, n))
        for nodes, mats in blocks:
            mine = nodes[:, 0] // top == r
            slots = nodes[mine] % top - space.j + j
            whole[slots[:, :, None], slots[:, None, :]] = mats[mine]
        assert_array_equal(whole, b_one.matrix.real, err_msg=name)


@pytest.mark.parametrize("space", [HarmonicSpace(j) for j in (0, 1, 2, 7, 10, 64)] + [DegreeStack(30)],
                         ids=str)
def test_the_conjugation_identity_holds_exactly_for_the_real_operators(space):
    ops = _keyed_operators(space)
    product = verification._product_operators(space)
    assert all(np.all(_even(ops[name])) for name in _REAL)
    assert all(np.all(_even(getattr(product, field))) for field in _PRODUCT_FIELDS)
    # the J_k anticommute with conjugation, and J+ lacks the mirror key
    # (1, -1); at j = 0 all four are zero.  A zero key needs no mirror
    degrees = range(space.j + 1) if isinstance(space, DegreeStack) else [space.j]
    for name in ("J1", "J2", "J3", "J+"):
        assert _even(ops[name]).tolist() == [j == 0 for j in degrees], name
    assert np.all(_even(Operator(space, {**ops["Q"].terms, (1, 2 * space.j + 1): 0.0})))
    for name in _REAL:
        _assert_exact_real_blocks(ops[name], name)
    for field in _PRODUCT_FIELDS:
        _assert_exact_real_blocks(getattr(product, field), field)


@pytest.mark.parametrize("j", [256, 1000])
def test_the_supercharge_splits_into_exact_real_blocks_at_large_degree(j):
    _assert_exact_real_blocks(supercharge(HarmonicSpace(j)), "Q")


@pytest.mark.parametrize("j", [256, 1000])
def test_the_supercharge_spectrum_is_accurate_to_a_few_ulps_at_large_degree(j):
    # solved as one dense real symmetric matrix, the spectrum read
    # -256.50000000000205 at j = 256 (about 16 ulps off) and was 6.9e-12 off
    # at j = 1000
    rep = spectrum(supercharge(HarmonicSpace(j)))
    assert list(rep.multiplicities) == [j + 1, j]
    assert np.all(np.abs(rep.eigenvalues - [-(j + 0.5), j + 0.5]) <= 4 * np.finfo(float).eps * (j + 0.5))


def _clustered(vals):
    """The rule of spectrum: a value within CLUSTER_TOL of the last kept one joins its cluster."""
    uniq, mult = [], []
    for v in vals:
        if uniq and abs(v - uniq[-1]) <= operators.CLUSTER_TOL:
            mult[-1] += 1
        else:
            uniq.append(v)
            mult.append(1)
    return np.array(uniq), mult


@pytest.mark.parametrize("j", [0, 1, 2, 5, 20, 64, "stack"])
@pytest.mark.parametrize("name", ["H", "Q", "Qalt", "K1", "K2", "K3", "C", "J1", "J2", "J3", "R1", "R2", "R3"])
def test_spectrum_agrees_with_the_dense_complex_solve(name, j, monkeypatch):
    stacked = j == "stack"  # one report per degree of DegreeStack(30)
    space = DegreeStack(30) if stacked else HarmonicSpace(j)
    a = {**_keyed_operators(space), "Qalt": supercharge_alt(space)}[name]
    degrees = range(31) if stacked else [j]
    wants = [_clustered(np.linalg.eigvalsh((a.at(d) if stacked else a).matrix)) for d in degrees]

    def refuse(self):
        raise AssertionError("spectrum wrote a dense matrix")

    # every operator takes the exact blocks: spectrum writes no dense matrix
    monkeypatch.setattr(Operator, "matrix", property(refuse))
    reports = spectrum(a)
    for j, rep, (want, mult) in zip(degrees, reports if stacked else [reports], wants):
        assert list(rep.multiplicities) == mult
        if name == "J3":  # exact integers, as the dense solve of its diagonal matrix gives them
            assert rep.eigenvalues.tobytes() == want.tobytes()
        else:
            assert_allclose(rep.eigenvalues, want, rtol=0, atol=1e-12 * (j + 1) ** 2)


def test_the_j3_spectrum_is_exact_at_large_degree():
    # blocks of size 1 and 2: O(j), where the dense complex solve was O(j^3)
    rep = spectrum(j3(HarmonicSpace(1000)))
    assert rep.eigenvalues.tolist() == list(range(-1000, 1001))
    assert rep.multiplicities.tolist() == [1] * 2001


def _looped_components(n, u, v):
    """The least node of each node's component, by a union-find loop."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a, b in zip(u, v):
        ra, rb = find(a), find(b)
        root[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(n)]


@pytest.mark.parametrize("seed", range(6))
def test_components_match_a_looped_union_find(seed):
    # random graphs, a long chain in scrambled order and isolated nodes
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    u, v = rng.integers(0, n, size=(2, int(rng.integers(0, n + 1))))
    chain = rng.permutation(n)
    for a, b in ((u, v), (chain[:-1], chain[1:])):
        assert operators._components(n, a, b).tolist() == _looped_components(n, a, b)


def test_the_block_split_has_no_tolerance():
    # K1 couples every slot of B, however small its weight, while Q alone
    # splits into blocks of size 1 and 2
    space = HarmonicSpace(5)
    q, k1 = supercharge(space), symmetry_generators(space)[0]
    for weight in (1e-16, 1e-9):
        a = q + weight * k1
        assert [nodes.shape for nodes, _ in operators._k3_blocks(a, _even(a))] == [(1, 11)]
        want, mult = _clustered(np.linalg.eigvalsh(a.matrix))
        rep = spectrum(a)
        assert list(rep.multiplicities) == mult
        assert_allclose(rep.eigenvalues, want, rtol=0, atol=1e-13)


def test_an_imaginary_part_in_the_k3_adapted_basis_raises(monkeypatch):
    # B of a conjugation-even operator is real to the last bit; a basis off
    # by one rounding leaves imaginary parts, which spectrum refuses
    space = HarmonicSpace(3)
    u = operators._k3_basis(space)[1]
    skewed = Operator(space, {key: coef * (1 + 1e-15j) for key, coef in u.terms.items()})
    monkeypatch.setattr(operators, "_k3_basis", lambda s: (adjoint(skewed), skewed))
    with pytest.raises(ContractViolation, match="not real"):
        spectrum(supercharge(space))
