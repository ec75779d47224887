"""Reflection-built supercharges and the anticommutator spin algebra.

The supercharge Q squares to the shifted rotor Hamiltonian H = J^2 + 1/4,
so its spectrum consists of the two square roots +-(j + 1/2), split
asymmetrically: multiplicity j+1 on the negative branch, j on the positive
one.  Three reflection-dressed generators K1, K2, K3 close under
anticommutation ({K1,K2} = K3 and cyclic), commute with Q, and have
Casimir K1^2 + K2^2 + K3^2 = Q^2 - Q.

The paper defines every operator here as a product of J_i and R_i.  Each
one is built from its closed-form action on Y_j^m instead (at most six
terms per column, see operators.from_column_action), with

    a(m) = sqrt((j-m)(j+m+1)),  b(m) = sqrt((j+m)(j-m+1)),
    s = (-1)^j,  t = (-1)^m.

The product formulas live in verification.py, where they are evaluated
as dense matmuls and serve as the oracle of every closed form below.
"""

from dataclasses import dataclass

import numpy as np

from .errors import VerificationError
from .harmonics import HarmonicSpace
from .operators import (
    Operator,
    _ladder,
    commutator,
    from_column_action,
    hamiltonian,
    j1,
    j2,
    j3,
    op_norm,
    reflection,
)

__all__ = [
    "SusyOperators",
    "supercharge",
    "supercharge_alt",
    "symmetry_generators",
    "casimir",
    "susy_operators",
    "non_symmetry_report",
]


def _supercharge_terms(space: HarmonicSpace):
    m, a, b = _ladder(space)
    s, t = (-1.0) ** space.j, (-1.0) ** m
    return [
        (-0.5j * s * t * a, m + 1),
        (-0.5j * s * t * b, m - 1),
        (0.5 * s * b, 1 - m),
        (-0.5 * s * a, -1 - m),
        (1j * t * m, -m),
        (-0.5, m),
    ]


def supercharge(space: HarmonicSpace) -> Operator:
    """The supercharge Q = -i J1 R3 + i J2 R2 R3 - i J3 R2 - 1/2.

    Built from its action

        Q Y_j^m = -i s t (a Y^{m+1} + b Y^{m-1}) / 2 + s (b Y^{1-m} - a Y^{-1-m}) / 2
                  + i t m Y^{-m} - Y^m / 2.

    Self-adjoint, squares to the shifted Hamiltonian (j + 1/2)^2.
    """
    return from_column_action(space, _supercharge_terms(space))


def supercharge_alt(space: HarmonicSpace) -> Operator:
    """A second supercharge -i J1 R1 R2 + i J2 R1 - i J3 R1 R3 - R1 R2 R3 / 2.

    Built from its action

        Q' Y_j^m = -i t (a Y^{m+1} + b Y^{m-1}) / 2 + (b Y^{1-m} - a Y^{-1-m}) / 2
                   + i s t m Y^{-m} - s Y^m / 2.

    Also squares to the shifted Hamiltonian; its spectral multiplicities are
    measured, not prescribed.
    """
    m, a, b = _ladder(space)
    s, t = (-1.0) ** space.j, (-1.0) ** m
    return from_column_action(space, [
        (-0.5j * t * a, m + 1),
        (-0.5j * t * b, m - 1),
        (0.5 * b, 1 - m),
        (-0.5 * a, -1 - m),
        (1j * s * t * m, -m),
        (-0.5 * s, m),
    ])


def symmetry_generators(space: HarmonicSpace):
    """The three generators K1, K2, K3 of the anticommutator spin algebra.

    K1 = i J1 R2 + R2 R3 / 2,  K2 = -i J2 R1 R2 + R1 R3 / 2,
    K3 = i J3 R1 + R1 R2 / 2, built from their actions

        K1 Y_j^m = i t (b Y^{1-m} + a Y^{-1-m}) / 2 + s Y^{-m} / 2,
        K2 Y_j^m = -t (a Y^{m+1} - b Y^{m-1}) / 2 + s t Y^{-m} / 2,
        K3 Y_j^m = -i m Y^{-m} + t Y^m / 2.

    The sign of the J3 term in K3 is pinned by the algebra itself:
    {K1, K2} = K3 and [K3, Q] = 0 both fail for the opposite sign.

    Returns
    -------
    (Operator, Operator, Operator)
    """
    m, a, b = _ladder(space)
    s, t = (-1.0) ** space.j, (-1.0) ** m
    k1 = from_column_action(space, [
        (0.5j * t * b, 1 - m),
        (0.5j * t * a, -1 - m),
        (0.5 * s, -m),
    ])
    k2 = from_column_action(space, [
        (-0.5 * t * a, m + 1),
        (0.5 * t * b, m - 1),
        (0.5 * s * t, -m),
    ])
    k3 = from_column_action(space, [(-1j * m, -m), (0.5 * t, m)])
    return k1, k2, k3


def casimir(space: HarmonicSpace) -> Operator:
    """C = K1^2 + K2^2 + K3^2, built as Q^2 - Q = H - Q:

        C Y_j^m = (j + 1/2)^2 Y^m - Q Y^m.
    """
    diag = ((space.j + 0.5) ** 2, space.m_values())
    return from_column_action(
        space, [diag] + [(-coef, target) for coef, target in _supercharge_terms(space)]
    )


@dataclass(frozen=True)
class SusyOperators:
    """Bundle of the Hamiltonian, both supercharges, generators and Casimir."""

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
            op = getattr(self, name)
            dev = np.linalg.norm(op.matrix - op.matrix.conj().T)
            if dev > tol:
                raise VerificationError(f"{name} is not self-adjoint (deviation {dev:.3e})")


def susy_operators(space: HarmonicSpace) -> SusyOperators:
    """Construct and validate the full bundle on one degree."""
    k1, k2, k3 = symmetry_generators(space)
    return SusyOperators(
        space=space,
        h=hamiltonian(space),
        q=supercharge(space),
        q_alt=supercharge_alt(space),
        k1=k1,
        k2=k2,
        k3=k3,
        c=casimir(space),
    )


def non_symmetry_report(space: HarmonicSpace) -> dict:
    """Frobenius norms showing J_i and R_i do NOT commute with Q.

    All six norms are strictly positive for j >= 1 (and vanish at j = 0,
    where every operator is a scalar).
    """
    q = supercharge(space)
    js = {"J1": j1(space), "J2": j2(space), "J3": j3(space)}
    rs = {f"R{i}": reflection(i, space) for i in (1, 2, 3)}
    return {
        "j": space.j,
        "commutator_with_q": {
            name: op_norm(commutator(op, q)) for name, op in {**js, **rs}.items()
        },
    }
