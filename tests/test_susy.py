"""The supercharge, its square root property, and the anticommutator algebra."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dataclasses import replace

from rotorsusy import (
    HarmonicSpace,
    Operator,
    VerificationError,
    anticommutator,
    casimir,
    commutator,
    hamiltonian,
    non_symmetry_report,
    op_norm,
    spectrum,
    supercharge,
    supercharge_alt,
    susy_operators,
    symmetry_generator,
    symmetry_generators,
)
from rotorsusy.verification import _product_operators


def test_supercharge_on_trivial_degree():
    assert_allclose(supercharge(HarmonicSpace(0)).matrix, [[-0.5]])
    assert_allclose(supercharge_alt(HarmonicSpace(0)).matrix, [[-0.5]])


@pytest.mark.parametrize("j", [0, 1, 2, 5, 12])
def test_supercharge_squares_to_hamiltonian(j):
    space = HarmonicSpace(j)
    q = supercharge(space)
    h = hamiltonian(space)
    assert_allclose((q @ q).matrix, h.matrix, atol=1e-12 * space.dim)
    assert_allclose(q.matrix, q.matrix.conj().T)


@pytest.mark.parametrize("j", [0, 1, 2, 5, 12])
def test_alternative_supercharge_squares_to_hamiltonian(j):
    space = HarmonicSpace(j)
    q = supercharge_alt(space)
    assert_allclose((q @ q).matrix, hamiltonian(space).matrix, atol=1e-12 * space.dim)


def test_supercharge_spectrum_split():
    rep = spectrum(supercharge(HarmonicSpace(2)))
    assert_allclose(rep.eigenvalues, [-2.5, 2.5])
    # j + 1 states on the negative branch, j on the positive one
    assert list(rep.multiplicities) == [3, 2]


@pytest.mark.parametrize("j,expected", [(1, [1, 2]), (2, [3, 2]), (3, [3, 4])])
def test_alternative_supercharge_split_alternates(j, expected):
    # The trace of the triple reflection product is (-1)^j (2j+1), which
    # pins the branch imbalance of the alternative supercharge to -(-1)^j:
    # the larger branch swaps sides as the degree parity flips.
    rep = spectrum(supercharge_alt(HarmonicSpace(j)))
    assert_allclose(rep.eigenvalues, [-(j + 0.5), j + 0.5])
    assert list(rep.multiplicities) == expected


@pytest.mark.parametrize("j", [1, 2, 6])
def test_generators_commute_with_supercharge(j):
    space = HarmonicSpace(j)
    q = supercharge(space)
    for k in symmetry_generators(space):
        assert op_norm(commutator(k, q)) < 1e-12 * space.dim


@pytest.mark.parametrize("j", [1, 2, 6])
def test_generator_anticommutators_close_cyclically(j):
    space = HarmonicSpace(j)
    ks = symmetry_generators(space)
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        got = anticommutator(ks[a], ks[b])
        assert_allclose(got.matrix, ks[c].matrix, atol=1e-12 * space.dim)


def test_symmetry_generator_rejects_an_index_other_than_1_2_3():
    for i in (0, 4, "1"):
        with pytest.raises(ValueError, match="1, 2 or 3"):
            symmetry_generator(i, HarmonicSpace(2))


def test_third_generator_action_on_degree_one():
    _, _, k3 = symmetry_generators(HarmonicSpace(1))
    # column of the m = +1 basis state, coefficient order m = -1, 0, +1
    assert_allclose(k3.matrix[:, 2], [-1j, 0.0, -0.5])
    # m = 0 state picks up only the +1/2 diagonal piece
    assert_allclose(k3.matrix[:, 1], [0.0, 0.5, 0.0])


@pytest.mark.parametrize("j", [0, 1, 3, 8])
def test_casimir_closes_on_supercharge(j):
    space = HarmonicSpace(j)
    q = supercharge(space)
    c = casimir(space)
    assert_allclose(c.matrix, (q @ q - q).matrix, atol=1e-12 * space.dim)


def test_casimir_on_trivial_degree():
    assert_allclose(casimir(HarmonicSpace(0)).matrix, [[0.75]])


def test_casimir_commutes_with_generators():
    space = HarmonicSpace(4)
    c = casimir(space)
    for k in symmetry_generators(space):
        assert op_norm(commutator(c, k)) < 1e-12 * space.dim


def test_bundle_is_self_adjoint_and_consistent():
    ops = susy_operators(HarmonicSpace(3))
    assert_allclose((ops.q @ ops.q).matrix, ops.h.matrix, atol=1e-12)
    assert_allclose(ops.c.matrix, (ops.q @ ops.q - ops.q).matrix, atol=1e-12)
    assert ops.space.j == 3


def test_bundle_rejects_a_non_finite_operator():
    ops = susy_operators(HarmonicSpace(1))
    coef = ops.k2.terms[-1, 0].copy()
    coef[1] = np.nan
    with pytest.raises(VerificationError, match="self-adjoint"):
        replace(ops, k2=Operator(ops.space, {**ops.k2.terms, (-1, 0): coef}))


def test_rotations_and_reflections_do_not_commute_with_supercharge():
    report = non_symmetry_report(supercharge(HarmonicSpace(1)))
    assert report["j"] == 1
    norms = report["commutator_with_q"]
    assert set(norms) == {"J1", "J2", "J3", "R1", "R2", "R3"}
    for name, value in norms.items():
        assert value > 0.1, f"[{name}, Q] unexpectedly small: {value}"


def test_non_symmetry_degenerates_on_trivial_degree():
    report = non_symmetry_report(supercharge(HarmonicSpace(0)))
    for value in report["commutator_with_q"].values():
        assert value < 1e-14


@pytest.mark.parametrize("j", list(range(13)) + [40])
def test_closed_forms_equal_the_reflection_products(j):
    space = HarmonicSpace(j)
    closed, products = susy_operators(space), _product_operators(space)
    # every entry of the products is one exact product of 1/2, sqrt and signs
    for name in ("q", "q_alt", "k1", "k2", "k3"):
        assert_array_equal(getattr(closed, name).matrix, getattr(products, name).matrix,
                           err_msg=name)
    # H and C sum squares of the J_i and K_i, so they round
    for name in ("h", "c"):
        assert_allclose(getattr(closed, name).matrix, getattr(products, name).matrix,
                        rtol=0, atol=1e-12 * space.dim, err_msg=name)
    assert_array_equal(casimir(space).matrix, closed.c.matrix)
