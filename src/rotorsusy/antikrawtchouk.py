"""Anti-Krawtchouk polynomials and the F/Z overlap duality.

The K1 tridiagonal action on the (j+1)-dimensional eigenblock, rewritten
through y = 2x + 1/2, is the Jacobi matrix of a family of discrete
orthogonal polynomials supported on the sign-alternating grid

    x_k = (-1)^k (k/2 + 1/4) - 1/4,        k = 0..N.

Their recurrence data come in Bannai-Ito form

    A_n = ((-1)^{n+N+1}(N+1) + n + 1) / 4,
    C_0 = 0,   C_n = ((-1)^{N+n}(N+1) - n) / 4,

with monic coefficients b_n = -(A_n + C_n), c_n = A_{n-1} C_n > 0.
One eigendecomposition of the Jacobi matrix of (b_n, sqrt(c_n)) serves
the whole numerical side: its eigenvectors, ordered by the grid, give the
weights as squared first components (Golub-Welsch) and, up to one phase
per column, the recurrence overlaps.  The exact rational weights in
verification.py are its oracle.  The hypergeometric-style closed form
shipped alongside disagrees with the derived weights and is reported
with a `discrepant` flag rather than asserted.

Z_N^k is the image of F_N^k under the cyclic coordinate permutation
(x1,x2,x3) -> (x2,x3,(-1)^{N+1} x1); the overlap matrix between the two
eigenbases is unitary and reproduces the polynomials evaluated on the
spectral grid.
"""

from dataclasses import dataclass, field

import numpy as np

from .eigenbases import LabeledBasis, f_basis
from .errors import VerificationError
from .harmonics import (
    HarmonicSpace,
    StateVector,
    _require_degree,
    build_grid,
    harmonic_values,
)
from .susy import supercharge, symmetry_generators

__all__ = [
    "RecurrenceTable",
    "SpectralGrid",
    "WeightTable",
    "OverlapMatrix",
    "recurrence_coeffs",
    "grid",
    "eval_monic",
    "monic_table",
    "weights",
    "z_basis",
    "overlaps_via_integral",
    "overlaps_via_recurrence",
    "bannai_ito_params",
]

QUAD_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RecurrenceTable:
    """Recurrence data A_n, C_n (n = 0..N) and monic b_n, c_n for one N."""

    N: int
    A: np.ndarray
    C: np.ndarray
    monic_b: np.ndarray
    monic_c: np.ndarray

    def __post_init__(self):
        for name in ("A", "C", "monic_b", "monic_c"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.N
        if self.A.shape != (n + 1,) or self.C.shape != (n + 1,) or self.monic_b.shape != (n + 1,):
            raise ValueError("A, C and monic_b must have length N+1")
        if self.monic_c.shape != (n,):
            raise ValueError("monic_c must have length N")
        if self.C[0] != 0.0:
            raise VerificationError("C_0 must vanish")
        if self.A[n] != 0.0:
            raise VerificationError("A_N must vanish (finite-family truncation)")
        if np.any(self.monic_c <= 0):
            raise VerificationError("monic c_n must be strictly positive")


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Polynomial grid x_k and the matching operator spectrum y_k = 2 x_k + 1/2."""

    N: int
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.shape != (self.N + 1,) or y.shape != (self.N + 1,):
            raise ValueError("grid arrays must have length N+1")


@dataclass(frozen=True, eq=False)
class WeightTable:
    """Derived orthogonality weights against the closed-form candidate.

    derived holds the weights obtained from the recurrence (normalized to
    sum 1, all positive); closed_form holds the Pochhammer-ratio
    expression evaluated on the same grid.  The two are NOT proportional
    (the closed form even changes sign), so `discrepant` is True and only
    the derived column participates in orthogonality statements.  norms
    holds u_n = c_1 ... c_n for n = 1..N, the squared monic norms under
    the derived weights (u_0 = 1 is implicit).
    """

    N: int
    x: np.ndarray
    derived: np.ndarray
    closed_form: np.ndarray
    norms: np.ndarray
    discrepant: bool

    def __post_init__(self):
        for name in ("x", "derived", "closed_form", "norms"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class OverlapMatrix:
    """Unitary change of basis W[n, k] = <F_N^n, Z_N^k>.

    Construction validates unitarity at QUAD_TOL and records the residual.
    """

    N: int
    W: np.ndarray
    method: str
    unitarity_residual: float = field(default=0.0)

    def __post_init__(self):
        w = np.array(self.W, dtype=complex)
        if w.shape != (self.N + 1, self.N + 1):
            raise ValueError("overlap matrix must be square of size N+1")
        w.setflags(write=False)
        object.__setattr__(self, "W", w)
        res = float(np.max(np.abs(w.conj().T @ w - np.eye(self.N + 1))))
        object.__setattr__(self, "unitarity_residual", res)
        if res > QUAD_TOL:
            raise VerificationError(
                f"overlap matrix ({self.method}) fails unitarity: residual {res:.3e}"
            )


def recurrence_coeffs(N: int) -> RecurrenceTable:
    """Recurrence table for the size-(N+1) family; N must be a positive int."""
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    n = np.arange(N + 1)
    A = ((-1.0) ** (n + N + 1) * (N + 1) + n + 1) / 4.0
    C = ((-1.0) ** (N + n) * (N + 1) - n) / 4.0
    C[0] = 0.0
    b = -(A + C)
    c = A[:-1] * C[1:]
    return RecurrenceTable(N=int(N), A=A, C=C, monic_b=b, monic_c=c)


def grid(N: int) -> SpectralGrid:
    """Spectral grid: x_k = (-1)^k (k/2 + 1/4) - 1/4 and y_k = (-1)^k (k + 1/2)."""
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    k = np.arange(N + 1)
    x = (-1.0) ** k * (k / 2.0 + 0.25) - 0.25
    y = (-1.0) ** k * (k + 0.5)
    return SpectralGrid(N=int(N), x=x, y=y)


def monic_table(table: RecurrenceTable, n: int, x) -> np.ndarray:
    """Values of the monic polynomials P_0..P_n at x, 0 <= n <= N+1.

    One pass of the three-term recurrence over all points; returns an array
    of shape (n+1,) + x.shape whose row i holds P_i(x).  Cost O(n * x.size).
    """
    if not 0 <= n <= table.N + 1:
        raise ValueError(f"polynomial index {n} outside 0..{table.N + 1}")
    x = np.asarray(x, dtype=float)
    rows = np.empty((n + 1,) + x.shape)
    prev = np.zeros_like(x)
    rows[0] = 1.0
    for i in range(n):
        c_i = table.monic_c[i - 1] if i >= 1 else 0.0
        rows[i + 1] = (x - table.monic_b[i]) * rows[i] - c_i * prev
        prev = rows[i]
    return rows


def eval_monic(table: RecurrenceTable, n: int, x):
    """Evaluate the monic polynomial P_n at x (scalar or array), 0 <= n <= N+1.

    P_{N+1} is the characteristic polynomial of the Jacobi matrix and
    vanishes identically on the spectral grid.
    """
    cur = monic_table(table, n, x)[n]
    return cur if cur.ndim else float(cur)


def _pochhammer(a: float, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= a + i
    return out


def _jacobi(N: int) -> np.ndarray:
    """Orthonormal eigenvectors of the Jacobi matrix of (b_n, sqrt(c_n)).

    Column k belongs to the grid node x_k (the eigenvalues must match the
    grid to 1e-8, else VerificationError) and is signed so that its first
    component is positive.  V[n, k] = sqrt(w_k) p-hat_n(x_k), with p-hat_n
    the orthonormal polynomials, so V[0]**2 are the weights (Golub-Welsch).
    """
    table = recurrence_coeffs(N)
    x = grid(N).x
    off = np.sqrt(table.monic_c)
    vals, vecs = np.linalg.eigh(np.diag(table.monic_b) + np.diag(off, 1) + np.diag(off, -1))
    order = np.argsort(x)
    miss = float(np.max(np.abs(vals - x[order])))
    if miss > 1e-8:
        raise VerificationError(f"Jacobi spectrum misses the grid at N={N} by {miss:.3e}")
    V = np.empty_like(vecs)
    V[:, order] = vecs
    return V * np.where(V[0] < 0, -1.0, 1.0)


def weights(N: int) -> WeightTable:
    """Orthogonality weights derived from the recurrence, plus the closed form.

    The derived weights are the squared first components of the Jacobi
    eigenvectors (_jacobi), validated positive.  Tested against the exact
    rational weights for N <= 100.
    """
    table = recurrence_coeffs(N)
    g = grid(N)
    w = _jacobi(N)[0] ** 2
    if np.any(w <= 0):
        raise VerificationError(f"derived weights are not all positive at N={N}: {w}")

    alpha = (-1.0) ** N * (N + 1)
    closed = np.empty(N + 1)
    for k in range(N + 1):
        kk = k if k % 2 == 0 else k - 1
        closed[k] = (-1.0) ** k * _pochhammer(1 + alpha, kk) / _pochhammer(1 - alpha, kk)
    ratio = closed / w
    discrepant = bool(np.max(np.abs(ratio - ratio[0])) > 1e-9 * max(1.0, np.max(np.abs(ratio))))

    norms = np.cumprod(table.monic_c)
    return WeightTable(
        N=int(N), x=g.x, derived=w, closed_form=closed, norms=norms, discrepant=discrepant
    )


def _permuted_f_values(N: int, quad) -> np.ndarray:
    """Point values of Z_N^k: the F-basis functions evaluated at the
    cyclically permuted point (x2, x3, (-1)^{N+1} x1), shape (N+1,) + mesh."""
    space = HarmonicSpace(N)
    theta_mesh, phi_mesh = quad.mesh()
    st = np.sin(theta_mesh)
    p1 = st * np.cos(phi_mesh)
    p2 = st * np.sin(phi_mesh)
    p3 = np.cos(theta_mesh)
    q3 = (-1.0) ** (N + 1) * p1
    theta_p = np.arccos(np.clip(q3, -1.0, 1.0))
    phi_p = np.arctan2(p3, p2)
    yv = harmonic_values(space, theta=theta_p, phi=phi_p)
    return np.einsum("ak,a...->k...", f_basis(space).matrix(), yv)


def z_basis(N: int, grid=None) -> LabeledBasis:
    """The permuted eigenbasis Z_N^k as coefficient vectors over Y_N^m.

    Each Z_N^k is obtained by quadrature projection of the permuted F_N^k
    point values (one harmonic stack and one contraction for all k; the
    grid degree must be at least 2N, else ContractViolation) and verified
    to satisfy, at QUAD_TOL,

        K1 Z_N^k = (-1)^k (k + 1/2) Z_N^k,
        Q  Z_N^k = -(N + 1/2) Z_N^k,

    together with orthonormality of the family.
    """
    space = HarmonicSpace(N)
    quad = grid if grid is not None else build_grid(N)
    _require_degree(quad, N)
    zvals = _permuted_f_values(N, quad)
    basis = harmonic_values(space, quad)
    mat = np.einsum("ktp,atp,tp->ak", zvals, np.conj(basis), quad.weight_mesh)

    gram_res = float(np.max(np.abs(mat.conj().T @ mat - np.eye(N + 1))))
    if gram_res > QUAD_TOL:
        raise VerificationError(f"projected Z family is not orthonormal: {gram_res:.3e}")
    k1_op, _, _ = symmetry_generators(space)
    q_op = supercharge(space)
    k = np.arange(N + 1)
    k1_eigs = (-1.0) ** k * (k + 0.5)
    r1 = float(np.max(np.abs(k1_op.matrix @ mat - mat * k1_eigs)))
    r2 = float(np.max(np.abs(q_op.matrix @ mat - mat * (-(N + 0.5)))))
    if max(r1, r2) > QUAD_TOL:
        raise VerificationError(
            f"Z family fails eigen-verification at N={N}: K1 residual {r1:.3e}, "
            f"Q residual {r2:.3e}"
        )

    vectors = [StateVector(space, mat[:, i] / np.linalg.norm(mat[:, i]), normalized=True)
               for i in range(N + 1)]
    labels = [{"k": int(i), "k1": float(k1_eigs[i]), "q": -(N + 0.5)} for i in range(N + 1)]
    return LabeledBasis(space=space, family="Z", vectors=vectors, labels=labels)


def overlaps_via_integral(N: int, grid=None) -> OverlapMatrix:
    """Overlap matrix W[n, k] = integral of F_N^n conj(Z_N^k) by quadrature.

    Both families enter as point values (the Z functions are the permuted
    F functions evaluated directly, not re-projected coefficients).
    """
    space = HarmonicSpace(N)
    quad = grid if grid is not None else build_grid(N)
    zvals = _permuted_f_values(N, quad)
    fvals = np.einsum("ak,a...->k...", f_basis(space).matrix(), harmonic_values(space, quad))
    W = np.einsum("ntp,ktp,tp->nk", fvals, np.conj(zvals), quad.weight_mesh)
    return OverlapMatrix(N=int(N), W=W, method="integral")


def overlaps_via_recurrence(N: int, grid=None, omega=None) -> OverlapMatrix:
    """Overlap matrix from the polynomial recurrence instead of integration.

    Column k of W is the Jacobi eigenvector of x_k (_jacobi) times the
    phase of the boundary entry omega_k = W[0, k]: W[n, k] =
    omega_k / |omega_k| sqrt(w_k) p-hat_n(x_k).  omega defaults to the
    quadrature overlaps of F_N^0 on the quadrature grid `grid` (pass omega
    to skip that one integration); only its phases enter.  Tested against
    the integral route for N <= 40.
    """
    if omega is None:
        space = HarmonicSpace(N)
        quad = grid if grid is not None else build_grid(N)
        zvals = _permuted_f_values(N, quad)
        f0 = np.einsum("a,a...->...", f_basis(space).matrix()[:, 0],
                       harmonic_values(space, quad))
        omega = np.array([quad.integrate(f0 * np.conj(zvals[k])) for k in range(N + 1)])
    else:
        omega = np.asarray(omega, dtype=complex)
        if omega.shape != (N + 1,):
            raise ValueError("omega must have length N+1")
        if np.any(omega == 0):
            raise ValueError("omega must have no zero entry (its phases fix W)")
    W = _jacobi(N) * (omega / np.abs(omega))
    return OverlapMatrix(N=int(N), W=W, method="recurrence")


def bannai_ito_params(N: int) -> dict:
    """Parameter quadruple (rho1, rho2, r1, r2) of the family at size N+1."""
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    half = (-1.0) ** N * (N + 1) / 2.0
    return {"rho1": 0.0, "rho2": half, "r1": 0.0, "r2": half}
