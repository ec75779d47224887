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
from rotorsusy.eigenbases import _fg_operator

_BUILDERS = {"J+": jplus, "J-": jminus, "J1": j1, "J2": j2, "J3": j3,
             **{f"R{i}": (lambda space, i=i: reflection(i, space)) for i in (1, 2, 3)},
             "I": identity, "H": hamiltonian, "Q": supercharge, "Q'": supercharge_alt,
             **{f"K{i}": (lambda space, i=i: symmetry_generator(i, space)) for i in (1, 2, 3)},
             "C": casimir,
             **{which: (lambda space, which=which: _fg_operator(
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
    # a stack has no single matrix: apply, .matrix and spectrum take one degree
    for one_degree in (lambda: q.apply(np.ones(11)), lambda: q.matrix, lambda: spectrum(q)):
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
