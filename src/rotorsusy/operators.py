"""so(3) generators, coordinate reflections and operator algebra on one degree.

Matrices act on coefficient vectors ordered by ascending m (flat index
i = m + j).  All norms are Frobenius norms.

Every operator here is built from its closed-form action on the basis
states by from_column_action, which writes O(j) entries of a dense matrix
(_act applies the same action to a stack of vectors, with no matrix):

    J3 Y_j^m = m Y_j^m
    J+ Y_j^m = a(m) Y_j^{m+1},  a(m) = sqrt((j-m)(j+m+1))
    R1 Y_j^m = Y_j^{-m},  R2 Y_j^m = (-1)^m Y_j^{-m},  R3 Y_j^m = (-1)^{j+m} Y_j^m
    H  Y_j^m = (j+1/2)^2 Y_j^m

J- is the adjoint of J+, J1 = (J+ + J-)/2 and J2 = (J+ - J-)/(2i).  The
product formula H = J1^2 + J2^2 + J3^2 + 1/4 lives in verification.py,
where it serves as the oracle of the closed form.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .harmonics import HarmonicSpace

__all__ = [
    "Operator",
    "SpectrumReport",
    "from_column_action",
    "identity",
    "j3",
    "jplus",
    "jminus",
    "j1",
    "j2",
    "reflection",
    "hamiltonian",
    "commutator",
    "anticommutator",
    "adjoint",
    "op_norm",
    "spectrum",
]

CLUSTER_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Operator:
    """A linear operator on one harmonic space, stored as a dense matrix."""

    space: HarmonicSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        d = self.space.dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match dim {d}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def _check_space(self, other):
        if not isinstance(other, Operator):
            raise TypeError(f"expected Operator, got {type(other).__name__}")
        if other.space != self.space:
            raise ValueError(
                f"operator space mismatch: j={self.space.j} vs j={other.space.j}"
            )

    def __add__(self, other):
        self._check_space(other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other):
        self._check_space(other)
        return Operator(self.space, self.matrix - other.matrix)

    def __neg__(self):
        return Operator(self.space, -self.matrix)

    def __mul__(self, c):
        return Operator(self.space, self.matrix * complex(c))

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check_space(other)
        return Operator(self.space, self.matrix @ other.matrix)


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Eigenvalues (ascending) with multiplicities, clustered at CLUSTER_TOL."""

    eigenvalues: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self):
        ev = np.array(self.eigenvalues)
        mult = np.array(self.multiplicities, dtype=int)
        if ev.shape != mult.shape or ev.ndim != 1:
            raise ValueError("eigenvalues and multiplicities must be 1-d of equal length")
        ev.setflags(write=False)
        mult.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "multiplicities", mult)

    @property
    def dim(self) -> int:
        return int(self.multiplicities.sum())


def _ladder(space: HarmonicSpace):
    """Arrays (m, up, down) over m = -j..j: up = sqrt((j-m)(j+m+1)) is the
    J+ coefficient and down = sqrt((j+m)(j-m+1)) the J- coefficient of Y_j^m.

    Note up(-m) = down(m), so down is also the J+ coefficient of Y_j^{-m}.
    """
    j = space.j
    m = space.m_values()
    return m, np.sqrt((j - m) * (j + m + 1.0)), np.sqrt((j + m) * (j - m + 1.0))


def _kept_terms(space: HarmonicSpace, terms):
    """Each (coef, target) term as (coef, rows, cols) over the columns whose
    target lies inside -j..j; ValueError if another target's coef is not 0."""
    j = space.j
    cols = np.arange(space.dim)
    for coef, target in terms:
        coef = np.broadcast_to(coef, cols.shape)
        keep = np.abs(target) <= j
        if np.any(coef[~keep] != 0):
            raise ValueError(f"nonzero coefficient on a target outside |m| <= {j}")
        yield coef[keep], target[keep] + j, cols[keep]


def from_column_action(space: HarmonicSpace, terms) -> Operator:
    """The dense operator sending Y_j^m to sum over terms of coef(m) Y_j^target(m).

    terms is a sequence of (coef, target) pairs: coef is a scalar or an
    array over m = -j..j (ascending), target an integer array over m whose
    entries are distinct.  Each term writes at most 2j+1 entries.  Targets
    outside -j..j are dropped; their coefficients must vanish, else
    ValueError.
    """
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for coef, rows, cols in _kept_terms(space, terms):
        out[rows, cols] += coef
    return Operator(space, out)


def _act(space: HarmonicSpace, terms, v) -> np.ndarray:
    """from_column_action(space, terms).matrix @ v without the dense matrix:
    v has shape (2j+1, ...), and the cost is O(len(terms) * v.size)."""
    out = np.zeros(np.shape(v), dtype=complex)
    for coef, rows, cols in _kept_terms(space, terms):
        out[rows] += coef.reshape((-1,) + (1,) * (out.ndim - 1)) * v[cols]
    return out


def identity(space: HarmonicSpace) -> Operator:
    """Identity operator."""
    return Operator(space, np.eye(space.dim, dtype=complex))


def j3(space: HarmonicSpace) -> Operator:
    """J3 Y_j^m = m Y_j^m."""
    m = space.m_values()
    return from_column_action(space, [(m, m)])


def jplus(space: HarmonicSpace) -> Operator:
    """Raising operator, J+ Y_j^m = sqrt((j-m)(j+m+1)) Y_j^{m+1}."""
    m, up, _ = _ladder(space)
    return from_column_action(space, [(up, m + 1)])


def jminus(space: HarmonicSpace) -> Operator:
    """Lowering operator, the adjoint of jplus."""
    return adjoint(jplus(space))


def j1(space: HarmonicSpace) -> Operator:
    """J1 = (J+ + J-)/2."""
    p = jplus(space)
    return 0.5 * (p + adjoint(p))


def j2(space: HarmonicSpace) -> Operator:
    """J2 = (J+ - J-)/(2i)."""
    p = jplus(space)
    return (1.0 / 2j) * (p - adjoint(p))


def reflection(axis: int, space: HarmonicSpace) -> Operator:
    """Coordinate reflection R_axis, axis in {1, 2, 3}.

    R1 Y_j^m = Y_j^{-m};  R2 Y_j^m = (-1)^m Y_j^{-m};
    R3 Y_j^m = (-1)^{j+m} Y_j^m.
    """
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis!r}")
    m = space.m_values()
    term = {1: (1.0, -m), 2: ((-1.0) ** m, -m), 3: ((-1.0) ** (space.j + m), m)}[axis]
    return from_column_action(space, [term])


def hamiltonian(space: HarmonicSpace) -> Operator:
    """H = J1^2 + J2^2 + J3^2 + 1/4, built as the scalar (j + 1/2)^2 on degree j."""
    m = space.m_values()
    return from_column_action(space, [((space.j + 0.5) ** 2, m)])


def commutator(a: Operator, b: Operator) -> Operator:
    """[a, b] = ab - ba."""
    return a @ b - b @ a


def anticommutator(a: Operator, b: Operator) -> Operator:
    """{a, b} = ab + ba."""
    return a @ b + b @ a


def adjoint(a: Operator) -> Operator:
    """Hermitian adjoint."""
    return Operator(a.space, a.matrix.conj().T)


def op_norm(a: Operator) -> float:
    """Frobenius norm of the matrix."""
    return float(np.linalg.norm(a.matrix))


def spectrum(a: Operator, self_adjoint: bool = True) -> SpectrumReport:
    """Eigenvalues of an operator, grouped into clusters of width CLUSTER_TOL.

    With self_adjoint=True (the default) the matrix must be Hermitian within
    1e-10 (relative to its norm); violation raises ContractViolation.
    """
    m = a.matrix
    if self_adjoint:
        herm = np.linalg.norm(m - m.conj().T)
        if herm > 1e-10 * max(1.0, np.linalg.norm(m)):
            raise ContractViolation(
                f"matrix is not self-adjoint (deviation {herm:.3e}) but self_adjoint=True"
            )
        vals = np.linalg.eigvalsh(m)
    else:
        raw = np.linalg.eigvals(m)
        order = np.lexsort((raw.imag, raw.real))
        raw = raw[order]
        vals = raw.real if np.max(np.abs(raw.imag)) < 1e-10 else raw

    uniq, mult = [], []
    for v in vals:
        if uniq and abs(v - uniq[-1]) <= CLUSTER_TOL:
            mult[-1] += 1
        else:
            uniq.append(v)
            mult.append(1)
    return SpectrumReport(eigenvalues=np.array(uniq), multiplicities=np.array(mult))
