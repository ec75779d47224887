"""Operators on a DegreeStack: one keyed operator holds degrees 0..J, and
each degree behaves exactly as the operator built on that degree alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from rotorsusy import (
    DegreeStack,
    HarmonicSpace,
    Operator,
    adjoint,
    casimir,
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
    supercharge,
    supercharge_alt,
    symmetry_generator,
)
from rotorsusy import ContractViolation, operators
from rotorsusy.eigenbases import _fg_build

_BUILDERS = {"J+": jplus, "J-": jminus, "J1": j1, "J2": j2, "J3": j3,
             **{f"R{i}": (lambda space, i=i: reflection(i, space)) for i in (1, 2, 3)},
             "I": identity, "H": hamiltonian, "Q": supercharge, "Q'": supercharge_alt,
             **{f"K{i}": (lambda space, i=i: symmetry_generator(i, space)) for i in (1, 2, 3)},
             "C": casimir,
             **{which: (lambda space, which=which: _fg_build(
                 space, which, supercharge(space), symmetry_generator(3, space))) for which in "FG"}}


def _assert_same_bits(got: Operator, want: Operator, msg=""):
    """The same space, the same keys in the same order, and the same bits in
    every coefficient, down to the sign of each zero."""
    assert got.space == want.space, msg
    assert list(got.terms) == list(want.terms), msg
    for key in want.terms:
        assert got.terms[key].tobytes() == want.terms[key].tobytes(), f"{msg} {key}"


@pytest.mark.parametrize("name", list(_BUILDERS))
def test_every_builder_on_the_stack_equals_its_single_degree_build(name):
    build = _BUILDERS[name]
    stacked = build(DegreeStack(12))
    for j in range(13):
        _assert_same_bits(stacked.at(j), build(HarmonicSpace(j)), f"{name} at j={j}")
    # padding is zero: no coefficient of degree j sits at |m| > j
    m = DegreeStack(12).m_values()
    for coef in stacked.terms.values():
        assert not np.any(coef[np.abs(m) > np.arange(13)[:, None]])


def test_a_coefficient_on_a_target_in_the_padding_raises():
    stack = DegreeStack(4)
    coef = np.zeros((5, 9))
    coef[2, 2 + 4] = 1.0  # degree 2, m = 2: J+ sends it to m = 3, padding at j = 2
    with pytest.raises(ValueError, match="outside"):
        Operator(stack, {(1, 1): coef})
    # a coefficient at |m| > j is padding itself and is zeroed, not an error
    coef[2] = 0.0
    coef[2, 3 + 4] = 1.0
    assert not np.any(Operator(stack, {(1, 1): coef}).terms[1, 1])


def test_op_norm_gives_one_norm_per_degree_and_at_checks_its_degree():
    stack = DegreeStack(5)
    q = supercharge(stack)
    norms = op_norm(q)
    assert norms.shape == (6,)
    assert_array_equal(norms, [op_norm(supercharge(HarmonicSpace(j))) for j in range(6)])
    assert_array_equal(stack.dim, 2 * np.arange(6) + 1)
    with pytest.raises(ValueError, match="not in the stack"):
        q.at(6)
    with pytest.raises(ValueError, match="not in the stack"):
        supercharge(HarmonicSpace(2)).at(2)
    # upto(j) is degrees 0..j on DegreeStack(j), as views of the stack
    low = q.upto(3)
    assert low.space == DegreeStack(3)
    for j in range(4):
        _assert_same_bits(low.at(j), q.at(j))
    assert all(np.shares_memory(low.terms[key], q.terms[key]) for key in q.terms)
    _assert_same_bits(q.upto(5), q)
    for bad in (-1, 6):
        with pytest.raises(ValueError, match="not in the stack"):
            q.upto(bad)
    with pytest.raises(ValueError, match="not in the stack"):
        supercharge(HarmonicSpace(2)).upto(2)
    with pytest.raises(ValueError, match="mismatch"):
        q + supercharge(DegreeStack(4))
    # a stack has no single matrix: apply and .matrix take one degree
    for one_degree in (lambda: q.apply(np.ones(11)), lambda: q.matrix):
        with pytest.raises(ValueError, match=r"take \.at\(j\)"):
            one_degree()
    # a column scales each degree by its own number; a wrong shape is refused
    signs = (-1.0) ** stack.degrees
    _assert_same_bits(signs * q, supercharge_alt(stack))
    with pytest.raises(ValueError, match="scale"):
        q * np.ones(6)


_STACK = DegreeStack(3)
_ENTRY = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
_KEYS = st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(-5, 5)),
                 min_size=1, max_size=4, unique=True)
_COEFS = arrays(np.float64, (2, _STACK.j + 1, 2 * _STACK.j + 1), elements=_ENTRY)


@st.composite
def _stacked_operator(draw):
    """A random keyed operator on the stack: each drawn key (s, c) gets a
    random complex coefficient wherever m and its target s m + c both lie in
    -j..j of their degree j."""
    m, j, terms = _STACK.m_values(), _STACK.degrees, {}
    for s, c in draw(_KEYS):
        re, im = draw(_COEFS)
        terms[s, c] = np.where((np.abs(m) <= j) & (np.abs(s * m + c) <= j), re + 1j * im, 0.0)
    return Operator(_STACK, terms)


@settings(max_examples=25, deadline=None)
@given(a=_stacked_operator(), b=_stacked_operator())
def test_stacked_algebra_matches_the_algebra_degree_by_degree(a, b):
    # sums, differences and adjoints are exact; numpy's complex multiply may
    # fuse a multiply-add on one memory layout and not on another, so a
    # product of general complex coefficients may differ in its last bit
    for stacked, single, atol in ((a + b, lambda x, y: x + y, 0.0), (a - b, lambda x, y: x - y, 0.0),
                                  (adjoint(a), lambda x, y: adjoint(x), 0.0),
                                  (a @ b, lambda x, y: x @ y, 1e-15)):
        norms = op_norm(stacked)
        for j in range(_STACK.j + 1):
            want = single(a.at(j), b.at(j))
            assert_allclose(stacked.at(j).matrix, want.matrix, rtol=0, atol=atol)
            assert norms[j] == op_norm(stacked.at(j))
            assert_allclose(norms[j], np.linalg.norm(want.matrix), rtol=1e-14)


# entries far from underflow, where a norm of squares would vanish; -0.0 included
_NORMAL_ENTRY = _ENTRY.filter(lambda x: x == 0.0 or abs(x) >= 1e-100)
_KEYS_UP_TO_6 = st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(-5, 5)),
                         min_size=1, max_size=6, unique=True)


@st.composite
def _keyed_operator(draw, space):
    """A random keyed operator on one degree or a stack, as _stacked_operator
    draws it, with up to 6 keys; entries may be -0.0."""
    m, j, terms = space.m_values(), space.degrees, {}
    shape = np.shape(np.abs(m) <= j)
    for s, c in draw(_KEYS_UP_TO_6):
        re, im = draw(arrays(np.float64, (2,) + shape, elements=_NORMAL_ENTRY))
        terms[s, c] = np.where((np.abs(m) <= j) & (np.abs(s * m + c) <= j), re + 1j * im, 0.0)
    return Operator(space, terms)


def _reduceat_product(a, b):
    """a @ b as the keyed product once summed it: the pair products of each
    key of the product in pair order (key y of b, then key x of a), formed as
    the library forms them and added by one np.add.reduceat per key."""
    j, groups = a.space.j, {}
    coefs = np.array(list(a.terms.values()))
    for (sb, cb), coef in b.terms.items():
        cols, rows = operators._slices(j, sb, cb, 2 * j + 1, -j)
        pairs = np.zeros(coefs.shape, dtype=complex)
        pairs[..., cols] = coefs[..., rows] * coef[..., cols]
        for (sa, ca), pair in zip(a.terms, pairs):
            groups.setdefault((sa * sb, sa * cb + ca), []).append(pair)
    return {key: np.add.reduceat(np.reshape(p, (len(p), -1)), [0], axis=0).reshape(p[0].shape)
            for key, p in groups.items()}


def _assert_reduceat_bits(got, a, b):
    want = _reduceat_product(a, b)
    assert list(got.terms) == list(want)
    for key, coef in want.items():
        assert got.terms[key].tobytes() == coef.tobytes(), key


@pytest.mark.parametrize("space", [HarmonicSpace(3), _STACK], ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_keyed_products_match_the_dense_product_in_the_reduceat_order(space, data):
    a, b = data.draw(_keyed_operator(space)), data.draw(_keyed_operator(space))
    got = a @ b
    _assert_reduceat_bits(got, a, b)
    stacked = isinstance(space, DegreeStack)
    for x, y, p in ([(a.at(j), b.at(j), got.at(j)) for j in range(space.j + 1)] if stacked else [(a, b, got)]):
        bound = 1e-15 * np.linalg.norm(x.matrix) * np.linalg.norm(y.matrix)
        assert np.max(np.abs(p.matrix - x.matrix @ y.matrix)) <= bound


def test_a_product_of_many_keys_adds_each_key_in_the_reduceat_order():
    # up to 81 pairs land on one key: numpy's pairwise sum runs four running
    # sums from 5 terms on and splits in halves past 65
    space, rng = HarmonicSpace(40), np.random.default_rng(7)
    m = space.m_values()

    def many_keys():
        keys = [(1, c) for c in range(-40, 41)] + [(-1, c) for c in range(-40, 41, 3)]
        return Operator(space, {(s, c): np.where(np.abs(s * m + c) <= 40, rng.standard_normal(m.size)
                                                 + 1j * rng.standard_normal(m.size), 0.0) for s, c in keys})

    a, b = many_keys(), many_keys()
    _assert_reduceat_bits(a @ b, a, b)


@pytest.mark.parametrize("space", [HarmonicSpace(3), _STACK], ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_adjoint_gap_is_the_norm_of_the_dense_difference(space, data):
    # spectrum's self-adjoint gate and SusyOperators read a - a^H from the entries
    a = data.draw(_keyed_operator(space))
    gap = operators._adjoint_gap(a)[2]
    degrees = [a.at(j) for j in range(space.j + 1)] if isinstance(space, DegreeStack) else [a]
    for r, one in enumerate(degrees):
        dense = one.matrix
        assert_allclose(gap[r], np.linalg.norm(dense - dense.conj().T), rtol=1e-14, atol=1e-15)


def _assert_same_reports(got, want, msg=""):
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes(), msg
    assert got.multiplicities.tobytes() == want.multiplicities.tobytes(), msg


@pytest.mark.parametrize("name", ["J1", "J2", "J3", "R1", "R2", "R3", "I", "H", "Q", "Q'", "K1", "K2",
                                  "K3", "C"])
def test_spectrum_on_a_stack_gives_each_degree_the_bits_of_its_own_call(name):
    stacked = _BUILDERS[name](DegreeStack(12))
    reports = spectrum(stacked)
    assert isinstance(reports, tuple) and len(reports) == 13
    for j, rep in enumerate(reports):
        _assert_same_reports(rep, spectrum(stacked.at(j)), f"{name} at j={j}")
        _assert_same_reports(rep, spectrum(_BUILDERS[name](HarmonicSpace(j))), f"{name} at j={j}")
        assert rep.dim == 2 * j + 1


def test_spectrum_on_a_stack_mixes_the_block_and_the_dense_solves():
    # J3 added at degree 2 alone breaks the conjugation identity there: that
    # degree's blocks are solved as complex matrices, the others as real ones
    stacked = supercharge(_STACK) + j3(_STACK) * (_STACK.degrees == 2)
    assert operators._conjugation_even(*operators._entries(stacked)).tolist() == [True, True, False, True]
    for j, rep in enumerate(spectrum(stacked)):
        _assert_same_reports(rep, spectrum(stacked.at(j)), f"j={j}")


@pytest.mark.parametrize("space", [HarmonicSpace(0), HarmonicSpace(5), DegreeStack(4)], ids=str)
def test_spectrum_of_a_zero_operator_is_zero_with_full_multiplicity(space):
    for zero in (Operator(space, {}), 0.0 * supercharge(space)):
        reports = spectrum(zero)
        for j, rep in enumerate(reports if isinstance(space, DegreeStack) else [reports]):
            j = j if isinstance(space, DegreeStack) else space.j
            assert rep.eigenvalues.tolist() == [0.0]
            assert rep.multiplicities.tolist() == [2 * j + 1]


def test_spectrum_on_a_stack_refuses_a_degree_that_is_not_self_adjoint():
    q = supercharge(_STACK)
    coef = q.terms[1, 1].copy()
    coef[3, _STACK.j] += 1e-6  # degree 3, m = 0
    faulty = Operator(_STACK, {**q.terms, (1, 1): coef})
    with pytest.raises(ContractViolation, match=r"^matrix is not self-adjoint \(deviation \S+\) at j=3$"):
        spectrum(faulty)
    assert spectrum(faulty.upto(2))[2].dim == 5
