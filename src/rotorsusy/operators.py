"""so(3) generators, coordinate reflections and operator algebra on one degree.

Matrices act on coefficient vectors ordered by ascending m (flat index
i = m + j).  All norms are Frobenius norms.

Every operator here is built from its closed-form action on the basis
states, Y_j^m -> sum over terms of coef(m) Y_j^target(m) with target =
+-m + c, so each term fills one slice of rows and one of columns
(from_column_action writes the matrix, _act applies it with no matrix):

    J3 Y_j^m = m Y_j^m
    J+ Y_j^m = a(m) Y_j^{m+1},  a(m) = sqrt((j-m)(j+m+1))
    R1 Y_j^m = Y_j^{-m},  R2 Y_j^m = (-1)^m Y_j^{-m},  R3 Y_j^m = (-1)^{j+m} Y_j^m
    H  Y_j^m = (j+1/2)^2 Y_j^m

J- is the adjoint of J+, J1 = (J+ + J-)/2 and J2 = (J+ - J-)/(2i).  The
product formula H = J1^2 + J2^2 + J3^2 + 1/4 lives in verification.py,
where it serves as the oracle of the closed form.
"""

from dataclasses import dataclass
from math import sqrt

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


def _span(start: int, step: int, count: int) -> slice:
    """The slice start, start + step, ... of count indices (step may be < 0)."""
    stop = start + step * count
    return slice(start, stop if stop >= 0 else None, step)


def _kept_terms(space: HarmonicSpace, terms):
    """Each (coef, target) term, target = s*i + c over columns i with s = +-1,
    as (coef, cols, rows): the slice cols of columns whose target lies in
    -j..j, their coefficients, and the slice rows of their rows target + j
    (backwards for s = -1).  ValueError for a target of another form or a
    nonzero coefficient of a target outside -j..j."""
    j = space.j
    for coef, target in terms:
        n = len(target)
        s = 1 if n < 2 or target[1] > target[0] else -1
        if n > 1 and np.count_nonzero(target[1:] - target[:-1] - s):
            raise ValueError("target is not of the form +-m + c")
        r0 = int(target[0]) + j if n else 0
        lo = max(0, -r0 if s == 1 else r0 - 2 * j)
        hi = max(lo, min(n, 2 * j + 1 - r0 if s == 1 else r0 + 1))
        coef = np.full(n, coef) if np.ndim(coef) == 0 else coef
        if np.count_nonzero(coef[:lo]) or np.count_nonzero(coef[hi:]):
            raise ValueError(f"nonzero coefficient on a target outside |m| <= {j}")
        if hi > lo:
            yield coef[lo:hi], slice(lo, hi), _span(r0 + s * lo, s, hi - lo)


def _columns(space: HarmonicSpace, terms, n: int) -> np.ndarray:
    """The (2j+1, n) array whose column i is the sum over terms of
    coef(i) Y_j^target(i), each term written as one strided slice of it."""
    out = np.zeros((space.dim, n), dtype=complex)
    for coef, cols, rows in _kept_terms(space, terms):
        out.reshape(-1)[_span(rows.start * n + cols.start, rows.step * n + 1, len(coef))] += coef
    return out


def from_column_action(space: HarmonicSpace, terms) -> Operator:
    """The dense operator sending Y_j^m to sum over terms of coef(m) Y_j^target(m).

    terms is a sequence of (coef, target) pairs: coef is a scalar or an
    array over m = -j..j (ascending), target the integer array s*m + c
    with s = +1 or -1.  Each term is one strided slice of the flat matrix.
    Targets outside -j..j are dropped; ValueError on a nonzero coefficient
    there, or on a target of another form.
    """
    return Operator(space, _columns(space, terms, space.dim))


def _act(space: HarmonicSpace, terms, v) -> np.ndarray:
    """from_column_action(space, terms).matrix @ v without the dense matrix:
    each term adds coef * v[cols] to the rows out[rows] of v's shape
    (2j+1, ...), in O(len(terms) * v.size)."""
    out = np.zeros(np.shape(v), dtype=complex)
    for coef, cols, rows in _kept_terms(space, terms):
        out[rows] += coef.reshape((-1,) + (1,) * (out.ndim - 1)) * v[cols]
    return out


def _act_adjoint(space: HarmonicSpace, terms, n: int):
    """x -> b^H x for b = _columns(space, terms, n), without b: each term adds
    conj(coef) * x[rows] to out[cols].  einsum rounds each real product (numpy's
    multiply may fuse them): the bits of np.einsum("rn,rc->nc", b.conj(), x)."""
    kept = [(coef.conj(), cols, rows) for coef, cols, rows in _kept_terms(space, terms)]

    def apply(x):
        out = np.zeros((n,) + np.shape(x)[1:], dtype=complex)
        for coef, cols, rows in kept:
            out[cols] += np.einsum("n,n...->n...", coef, x[rows])
        return out

    return apply


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
        # m - m^H by blocks of 64 rows: no second (2j+1)^2 temporary at large degree
        herm = sqrt(sum(np.linalg.norm(m[i:i + 64] - m[:, i:i + 64].conj().T) ** 2
                        for i in range(0, len(m), 64)))
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
