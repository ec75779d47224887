"""Reflection-built supercharges and the anticommutator spin algebra.

The supercharge Q squares to the shifted rotor Hamiltonian H = J^2 + 1/4,
so its spectrum consists of the two square roots +-(j + 1/2), split
asymmetrically: multiplicity j+1 on the negative branch, j on the positive
one.  Three reflection-dressed generators K1, K2, K3 close under
anticommutation ({K1,K2} = K3 and cyclic), commute with Q, and have
Casimir K1^2 + K2^2 + K3^2 = Q^2 - Q.

The paper defines every operator here as a product of J_i and R_i.  Each
one is built from its closed-form action on Y_j^m instead, as a keyed
operators.Operator with at most six keys, with

    a(m) = sqrt((j-m)(j+m+1)),  b(m) = sqrt((j+m)(j-m+1)),
    s = (-1)^j,  t = (-1)^m.

Every builder takes one HarmonicSpace or an operators.DegreeStack, where
j and s are a column over the degrees.  The product formulas live in
verification.py, where they are evaluated on the same keyed algebra and
serve as the oracle of every closed form below.

supercharge and symmetry_generator keep what they build on one degree
(operators._per_degree): it is O(j) and read-only, so one build serves every caller.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import VerificationError
from .harmonics import HarmonicSpace
from .operators import (Operator, _adjoint_gap, _ladder, _per_degree, commutator, hamiltonian, j1, j2, j3,
                        op_norm, reflection)

__all__ = [
    "SusyOperators",
    "supercharge",
    "supercharge_alt",
    "symmetry_generator",
    "symmetry_generators",
    "casimir",
    "susy_operators",
    "non_symmetry_report",
]


def supercharge(space: HarmonicSpace) -> Operator:
    """The supercharge Q = -i J1 R3 + i J2 R2 R3 - i J3 R2 - 1/2.

    Built from its action

        Q Y_j^m = -i s t (a Y^{m+1} + b Y^{m-1}) / 2 + s (b Y^{1-m} - a Y^{-1-m}) / 2
                  + i t m Y^{-m} - Y^m / 2.

    Self-adjoint, squares to the shifted Hamiltonian (j + 1/2)^2.  Kept per
    degree (see the module docstring).
    """
    return _per_degree(_supercharge, space)


@lru_cache(maxsize=64)
def _supercharge(space):
    m, a, b = _ladder(space)
    s, t = (-1.0) ** space.degrees, (-1.0) ** m
    return Operator(space, {(1, 1): -0.5j * s * t * a, (1, -1): -0.5j * s * t * b,
                            (-1, 1): 0.5 * s * b, (-1, -1): -0.5 * s * a,
                            (-1, 0): 1j * t * m, (1, 0): -0.5})


def supercharge_alt(space: HarmonicSpace) -> Operator:
    """A second supercharge -i J1 R1 R2 + i J2 R1 - i J3 R1 R3 - R1 R2 R3 / 2.

    Its action

        Q' Y_j^m = -i t (a Y^{m+1} + b Y^{m-1}) / 2 + (b Y^{1-m} - a Y^{-1-m}) / 2
                   + i s t m Y^{-m} - s Y^m / 2

    is s times that of Q, key by key, and Q' is built so.  It also squares
    to the shifted Hamiltonian, and its larger branch swaps sign with s.
    """
    return (-1.0) ** space.degrees * supercharge(space)


def symmetry_generator(i: int, space: HarmonicSpace) -> Operator:
    """The generator K_i, i in {1, 2, 3}, of the anticommutator spin algebra.

    K1 = i J1 R2 + R2 R3 / 2,  K2 = -i J2 R1 R2 + R1 R3 / 2,
    K3 = i J3 R1 + R1 R2 / 2, built from their actions

        K1 Y_j^m = i t (b Y^{1-m} + a Y^{-1-m}) / 2 + s Y^{-m} / 2,
        K2 Y_j^m = -t (a Y^{m+1} - b Y^{m-1}) / 2 + s t Y^{-m} / 2,
        K3 Y_j^m = -i m Y^{-m} + t Y^m / 2.

    The sign of the J3 term in K3 is pinned by the algebra itself:
    {K1, K2} = K3 and [K3, Q] = 0 both fail for the opposite sign.  Kept per
    degree (see the module docstring).
    """
    if i not in (1, 2, 3):
        raise ValueError(f"i must be 1, 2 or 3, got {i!r}")
    return _per_degree(_symmetry_generator, i, space)


@lru_cache(maxsize=64)
def _symmetry_generator(i, space):
    m, a, b = _ladder(space)
    s, t = (-1.0) ** space.degrees, (-1.0) ** m
    if i == 1:
        return Operator(space, {(-1, 1): 0.5j * t * b, (-1, -1): 0.5j * t * a, (-1, 0): 0.5 * s})
    if i == 2:
        return Operator(space, {(1, 1): -0.5 * t * a, (1, -1): 0.5 * t * b, (-1, 0): 0.5 * s * t})
    return Operator(space, {(-1, 0): -1j * m, (1, 0): 0.5 * t})


def symmetry_generators(space: HarmonicSpace):
    """The three generators (K1, K2, K3); see symmetry_generator."""
    return tuple(symmetry_generator(i, space) for i in (1, 2, 3))


def casimir(space: HarmonicSpace) -> Operator:
    """C = K1^2 + K2^2 + K3^2, built as Q^2 - Q = H - Q:

        C Y_j^m = (j + 1/2)^2 Y^m - Q Y^m.
    """
    return hamiltonian(space) - supercharge(space)


@dataclass(frozen=True)
class SusyOperators:
    """Bundle of the Hamiltonian, both supercharges, generators and Casimir,
    each checked self-adjoint at every degree."""

    space: HarmonicSpace
    h: Operator
    q: Operator
    q_alt: Operator
    k1: Operator
    k2: Operator
    k3: Operator
    c: Operator

    def __post_init__(self):
        tol = 1e-12 * self.space.dim
        for name in ("h", "q", "q_alt", "k1", "k2", "k3", "c"):
            dev = _adjoint_gap(getattr(self, name))[2]
            if not np.all(dev <= tol):
                raise VerificationError(f"{name} is not self-adjoint (deviation {np.max(dev):.3e})")


def susy_operators(space: HarmonicSpace) -> SusyOperators:
    """Construct and validate the full bundle on one degree or a DegreeStack.

    H and Q are built once, and Q' = s Q and C = H - Q are formed from them
    as supercharge_alt and casimir form them: a DegreeStack's Q, which no
    cache keeps, is built once per bundle.
    """
    k1, k2, k3 = symmetry_generators(space)
    h, q = hamiltonian(space), supercharge(space)
    return SusyOperators(space=space, h=h, q=q, q_alt=(-1.0) ** space.degrees * q,
                         k1=k1, k2=k2, k3=k3, c=h - q)


def non_symmetry_report(q: Operator) -> dict:
    """Frobenius norms showing J_i and R_i do NOT commute with the
    supercharge q = supercharge(space), which the caller passes as built.

    All six norms are strictly positive for j >= 1 (and vanish at j = 0,
    where every operator is a scalar).  On a DegreeStack each is an array
    of one norm per degree.
    """
    space = q.space
    js = {"J1": j1(space), "J2": j2(space), "J3": j3(space)}
    rs = {f"R{i}": reflection(i, space) for i in (1, 2, 3)}
    return {
        "j": space.j,
        "commutator_with_q": {
            name: op_norm(commutator(op, q)) for name, op in {**js, **rs}.items()
        },
    }
