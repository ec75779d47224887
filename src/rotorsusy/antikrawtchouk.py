"""Anti-Krawtchouk polynomials and the F/Z overlap duality.

The K1 tridiagonal action on the (j+1)-dimensional eigenblock, rewritten
through y = 2x + 1/2, is the Jacobi matrix of a family of discrete
orthogonal polynomials supported on the sign-alternating grid

    x_k = (-1)^k (k/2 + 1/4) - 1/4,        k = 0..N.

Their recurrence data come in Bannai-Ito form

    A_n = ((-1)^{n+N+1}(N+1) + n + 1) / 4,
    C_0 = 0,   C_n = ((-1)^{N+n}(N+1) - n) / 4,

with monic coefficients b_n = -(A_n + C_n), c_n = A_{n-1} C_n > 0.
The orthogonality weights have a closed form, the Bannai-Ito weight at
bannai_ito_params(N) (Tsujimoto, Vinet and Zhedanov 2012): with
c(a) = C(2a, a) / 4^a, M = N // 2 and (x)_i the rising factorial,

    N = 2M:    w_{2i}   = c(M)^2 (-M)_i (M+3/2)_i / ((M+1)_i (1/2-M)_i),
               w_{2i+1} = w_1 (1-M)_i (M+3/2)_i / ((M+2)_i (1/2-M)_i),
               w_1 = c(M)^2 M / (M+1);
    N = 2M+1:  w_{2i}   = c(M+1)^2 (-M)_i (M+3/2)_i / ((M+2)_i (-1/2-M)_i),
               w_{2i+1} = w_1 (-M)_i (M+5/2)_i / ((M+2)_i (1/2-M)_i),
               w_1 = c(M+1)^2 (N+2) / N.

The exact rational weights in verification.py are its oracle.  The
Jacobi matrix of (b_n, sqrt(c_n)) has the grid as its spectrum, known in
advance, so each eigenvector comes from one twisted factorization at its
node, with no eigensolver (_jacobi).  Signed, the eigenvectors are the
orthonormal polynomials on the grid scaled by sqrt(w_k), and they give the
overlaps.

Z_N^k is the image of F_N^k under the cyclic coordinate permutation
(x1,x2,x3) -> (x2,x3,(-1)^{N+1} x1).  The overlap matrix
W[n, k] = <F_N^n, Z_N^k> is real orthogonal: column k is the Jacobi
eigenvector of x_k times the sign

    s_k = (-1)^(N/2)              for even N,
    s_k = (-1)^((N+1)/2 + k)      for odd N,

so W reproduces the orthonormal polynomials on the spectral grid, and
Z = F W gives the permuted basis with no quadrature.

On degree N the permutation acts on the coefficients over Y_N^m as

    U = d diag(i^-m)  for odd N,     U = d diag(i^m)  for even N,

with d = d^N(pi/2) = exp(-i (pi/2) J2), so Z = U F and W = F^H U F.  The
entries of d^N(pi/2) are symmetric Krawtchouk values (Koornwinder 1982,
SIAM J. Math. Anal. 13:1011):

    d[m', m] = (-1)^(N+m') 2^-N sqrt(C(2N, N+m') / C(2N, N+m)) k_(N+m)(N+m'),
    k_n(x) = sum_i (-1)^i C(x, i) C(2N-x, n-i),

integers that the recurrence (n+1) k_(n+1) = (2N-2x) k_n - (2N-n+1) k_(n-1)
gives with exact divisions.  F has four entries per column, so each
anti-Krawtchouk overlap W[n, k] is a sum of at most 16 symmetric Krawtchouk
values.  PAPER.md holds only the paper's abstract, which does not state
this identity.  verification._rotation builds U from the integers; with
no Jacobi matrix, recurrence or quadrature, it is the oracle of
overlaps_via_recurrence and z_basis.  overlaps_via_integral, which
evaluates the permuted F functions and integrates over the sphere, is a
third route, O(N^4), kept for the overlaps command.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import pi

import numpy as np

from .eigenbases import LabeledBasis, _fg_operator
from .errors import ContractViolation, VerificationError
from .harmonics import HarmonicSpace, _legendre_table, _orders, build_grid
from .operators import _transpose_apply
from .susy import supercharge, symmetry_generator

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
_PIVMIN = np.sqrt(np.finfo(float).tiny)  # the smallest pivot _jacobi divides by
_BLOCK_POINTS = 1536  # mesh points per block of theta-rings in overlaps_via_integral


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
        if not np.all(self.monic_c > 0):
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
    """Orthogonality weights w_k on the grid x_k, and the monic norms.

    derived holds the closed-form weights (positive, summing to 1);
    log2_norms holds log2 u_n for n = 1..N, with u_n = c_1 ... c_n the
    squared monic norms (u_0 = 1 is implicit), in log form so that no N
    overflows them.
    """

    N: int
    x: np.ndarray
    derived: np.ndarray
    log2_norms: np.ndarray

    def __post_init__(self):
        for name in ("x", "derived", "log2_norms"):
            arr = np.array(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise VerificationError(f"weight table column {name!r} is not finite")
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
    unitarity_residual: float = field(init=False)

    def __post_init__(self):
        w = np.array(self.W, dtype=complex)
        if w.shape != (self.N + 1, self.N + 1):
            raise ValueError("overlap matrix must be square of size N+1")
        w.setflags(write=False)
        object.__setattr__(self, "W", w)
        res = float(np.max(np.abs(w.conj().T @ w - np.eye(self.N + 1))))
        object.__setattr__(self, "unitarity_residual", res)
        if not res <= QUAD_TOL:
            raise VerificationError(
                f"overlap matrix ({self.method}) fails unitarity: residual {res:.3e}"
            )


def recurrence_coeffs(N: int) -> RecurrenceTable:
    """Recurrence table for the size-(N+1) family; N must be a positive int.
    Built once per N and kept, as grid is: both are O(N) and read-only."""
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    return _recurrence_coeffs(int(N))


@lru_cache(maxsize=128)
def _recurrence_coeffs(N):
    n = np.arange(N + 1)
    A = ((-1.0) ** (n + N + 1) * (N + 1) + n + 1) / 4.0
    C = ((-1.0) ** (N + n) * (N + 1) - n) / 4.0
    C[0] = 0.0
    b = -(A + C)
    c = A[:-1] * C[1:]
    return RecurrenceTable(N=N, A=A, C=C, monic_b=b, monic_c=c)


def grid(N: int) -> SpectralGrid:
    """Spectral grid: x_k = (-1)^k (k/2 + 1/4) - 1/4 and y_k = (-1)^k (k + 1/2)."""
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    return _grid(int(N))


@lru_cache(maxsize=128)
def _grid(N):
    k = np.arange(N + 1)
    x = (-1.0) ** k * (k / 2.0 + 0.25) - 0.25
    y = (-1.0) ** k * (k + 0.5)
    return SpectralGrid(N=N, x=x, y=y)


def monic_table(table: RecurrenceTable, n: int, x) -> np.ndarray:
    """Values of the monic polynomials P_0..P_n at x, 0 <= n <= N+1.

    One pass of the three-term recurrence over all points; returns an array
    of shape (n+1,) + x.shape whose row i holds P_i(x).  Cost O(n * x.size).
    Supported range: finite values, on grid(N).x every N <= 177 (P_{N+1}
    overflows from N = 178); one that is not finite raises ContractViolation.
    """
    if not 0 <= n <= table.N + 1:
        raise ValueError(f"polynomial index {n} outside 0..{table.N + 1}")
    x = np.asarray(x, dtype=float)
    rows = np.empty((n + 1,) + x.shape)
    prev = np.zeros_like(x)
    rows[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        for i in range(n):
            c_i = table.monic_c[i - 1] if i >= 1 else 0.0
            rows[i + 1] = (x - table.monic_b[i]) * rows[i] - c_i * prev
            prev = rows[i]
    if not np.isfinite(rows).all():
        raise ContractViolation(f"monic values P_0..P_{n} at N={table.N} are not finite in float64")
    return rows


def eval_monic(table: RecurrenceTable, n: int, x):
    """Evaluate the monic polynomial P_n at x (scalar or array), 0 <= n <= N+1.

    P_{N+1} is the characteristic polynomial of the Jacobi matrix and
    vanishes identically on the spectral grid.  Range and raise: monic_table's.
    """
    cur = monic_table(table, n, x)[n]
    return cur if cur.ndim else float(cur)


def _jacobi(N: int) -> np.ndarray:
    """Orthonormal eigenvectors of the Jacobi matrix T of (b_n, sqrt(c_n)).

    T's spectrum is the grid, known exactly, so column k comes from one
    twisted factorization of T - x_k (Fernando 1997, SIAM J. Matrix Anal.
    Appl. 18:1013; Dhillon and Parlett 2004, Linear Algebra Appl. 387:1),
    every column at once and with no eigensolver:

        d+_i = (b_i - x_k) - c_{i-1} / d+_{i-1},   d-_i = (b_i - x_k) - c_i / d-_{i+1},

    a pivot under sqrt(tiny) in size taken as -sqrt(tiny) (Parlett's pivmin;
    exact zeros occur, P_1(x_2) = 0 at N = 4); the twist r = argmin_i
    |d+_i + d-_i - (b_i - x_k)|; and from z_r = 1, z_i = -sqrt(c_i) / d+_i z_{i+1}
    above r and z_{i+1} = -sqrt(c_i) / d-_{i+1} z_i below it.  Each column is
    normalized and signed so that its first component is positive, and
    max |T z - x_k z| must stay under 1e-8, else VerificationError.
    V[n, k] = sqrt(w_k) p-hat_n(x_k), with p-hat_n the orthonormal
    polynomials, so V[0]**2 are the weights (Golub-Welsch).  O(N^2) work in
    three (N+1)-square arrays.
    """
    table, x = recurrence_coeffs(N), grid(N).x
    b, c, e = table.monic_b, table.monic_c, np.sqrt(table.monic_c)[:, None]
    # T - x_k read from the top and from the bottom, overwritten row by row
    # with the pivots of both runs at once
    piv = np.empty((2, N + 1, N + 1))
    np.subtract.outer(b, x, out=piv[0])
    piv[1] = piv[0, ::-1]
    both = np.stack([c, c[::-1]])[:, :, None]
    for i in range(N):
        np.copyto(piv[:, i], -_PIVMIN, where=np.abs(piv[:, i]) < _PIVMIN)
        piv[:, i + 1] -= both[:, i] / piv[:, i]
    fwd, bwd = piv[0], piv[1, ::-1]
    gamma = np.subtract.outer(b, x)
    np.subtract(fwd, gamma, out=gamma)
    gamma += bwd
    np.abs(gamma, out=gamma)
    twist = np.argmax(gamma == gamma.min(axis=0), axis=0)  # argmin, with no transposed copy
    # the ratios z_i / z_{i+1} above the twist and z_{i+1} / z_i below it,
    # 1 elsewhere, so that two running products give z
    rows = np.arange(N + 1)[:, None]
    np.divide(-e, fwd[:-1], out=fwd[:-1])
    fwd[rows >= twist] = 1.0
    np.divide(-e, bwd[1:], out=bwd[1:])
    bwd[rows <= twist] = 1.0
    np.cumprod(fwd[::-1], axis=0, out=fwd[::-1])
    z = np.multiply(fwd, np.cumprod(bwd, axis=0, out=bwd), out=gamma)
    norm = np.sqrt(np.einsum("ik,ik->k", z, z))
    z /= np.where(z[0] < 0, -norm, norm)
    res = np.multiply(np.subtract.outer(b, x, out=piv[0]), z, out=piv[0])
    res[:-1] += np.multiply(e, z[1:], out=piv[1, 1:])
    res[1:] += np.multiply(e, z[:-1], out=piv[1, 1:])
    miss = float(np.max(np.abs(res, out=res)))
    if not miss <= 1e-8:
        raise VerificationError(f"Jacobi eigenvectors at the grid fail at N={N}: residual {miss:.3e}")
    return z


def weights(N: int) -> WeightTable:
    """Orthogonality weights of the size-(N+1) family, in closed form.

    Each parity of k is a running product of the rational step factors of
    the Pochhammer ratios in the module docstring, after w_0 = c(M + N%2)^2
    and w_1; O(N) work with no Jacobi matrix.  Supported range: every
    N >= 1; within 2e-15 relative of the exact rational weights for
    N <= 115 and 4e-15 at N = 400.
    """
    table = recurrence_coeffs(N)
    M, p = N // 2, N % 2
    a = np.arange(1, M + p + 1)
    w0 = np.prod((2 * a - 1) / (2 * a)) ** 2

    def run(first, num, den, count):
        i = np.arange(count - 1)
        steps = (num[0] + i) * (num[1] + i) / ((den[0] + i) * (den[1] + i))
        return first * np.cumprod(np.concatenate(([1.0], steps)))

    # with p = N % 2 both parities of N take one form: w_0 = c(M+p)^2,
    # w_1 = w_0 ((N+2)/N)^(2p-1), and the step factors' shifts move with p
    w = np.empty(N + 1)
    w[0::2] = run(w0, (-M, M + 1.5), (M + 1 + p, 0.5 - M - p), M + 1)
    w[1::2] = run(w0 * ((N + 2) / N) ** (2 * p - 1), (1 - M - p, M + 1.5 + p),
                  (M + 2, 0.5 - M), N - M)
    return WeightTable(N=int(N), x=grid(N).x, derived=w,
                       log2_norms=np.cumsum(np.log2(table.monic_c)))


def _permuted_blocks(N: int, quad):
    """The rings t <= n-1-t of the mesh of quad in blocks, with the Legendre rows of
    degree N at their cyclically permuted points (x2, x3, (-1)^{N+1} x1).

    Yields (rings, z, phi, rows): the ring indices, z = cos theta' and phi =
    arctan2(x3, x2) of shape (rings, n_phi), and rows[m] = Pbar_N^m(z), m = 0..N.
    The points come from mirror-symmetric parts: s_t = sqrt((1 - z_t)(1 + z_t)),
    equal on the rings t and n-1-t of the exactly symmetric Gauss nodes, and
    cos phi_p = +-cos(pi q / h) for h = n_phi / 2 (odd) and q <= h // 2.  So ring
    n-1-t has ring t's z and -phi, and |z| = s_t cos(pi q / h) repeats along each
    ring: one recurrence per block runs on its distinct |z|, and
    Pbar_N^m(-z) = (-1)^(N+m) Pbar_N^m(z), which holds bit for bit, gives the
    rest.  A block holds about _BLOCK_POINTS mesh points of ring pairs, at least
    one pair.
    """
    z, n_phi = quad.theta_nodes, quad.n_phi
    s, h, n = np.sqrt((1.0 - z) * (1.0 + z)), n_phi // 2, z.size
    r = np.arange(n_phi) % h
    q = np.minimum(r, h - r)
    # the sign of z at node p: cos(phi + pi) = cos(pi - phi) = -cos(phi), times (-1)^(N+1)
    negative = ((np.arange(n_phi) >= h) != (r > h // 2)) != (N % 2 == 0)
    sign = np.where(negative, -1.0, 1.0)
    flip = np.where(negative, (-1.0) ** (N + np.arange(N + 1))[:, None], 1.0)[:, None]
    c, sin_phi = np.cos(pi * np.arange(h // 2 + 1) / h), np.sin(quad.phi)
    step = max(1, _BLOCK_POINTS // (2 * n_phi))
    for first in range(0, (n + 1) // 2, step):
        rings = np.arange(first, min(first + step, (n + 1) // 2))
        rows = _legendre_table(N, s[rings, None] * c)[:, :, q]
        rows *= flip
        yield (rings, sign * (s[rings, None] * c[q]),
               np.arctan2(z[rings, None], s[rings, None] * sin_phi), rows)


def z_basis(N: int) -> LabeledBasis:
    """The permuted eigenbasis Z_N^k as coefficient vectors over Y_N^m.

    Z = F W: the keyed F (the closed form of f_basis, eigen-verified) applied
    to the closed-form overlap matrix W of overlaps_via_recurrence, padded to
    the rows m = -N..N (zero for m < 0), in O(N^2) with no dense F; no
    harmonics, quadrature or eigensolver enter.  The family is verified
    orthonormal and to satisfy, at QUAD_TOL,

        K1 Z_N^k = (-1)^k (k + 1/2) Z_N^k,
        Q  Z_N^k = -(N + 1/2) Z_N^k,

    else VerificationError.  Both eigen-checks apply the closed-form
    actions of K1 and Q (Operator.apply) in O(N^2), with no dense operator.
    Supported range: every N >= 1, with no bound in principle; tested to
    N = 200.  verify compares it with U F, the Krawtchouk route of the
    module docstring, for N <= 10.
    """
    return _z_basis(overlaps_via_recurrence(N))


def _z_basis(w: OverlapMatrix) -> LabeledBasis:
    """z_basis from its overlap matrix w."""
    N = w.N
    space = HarmonicSpace(N)
    padded = np.zeros((2 * N + 1, N + 1), dtype=complex)
    padded[N:] = w.W
    mat = _fg_operator(space, "F").apply(padded)

    gram_res = float(np.max(np.abs(mat.conj().T @ mat - np.eye(N + 1))))
    if not gram_res <= QUAD_TOL:
        raise VerificationError(f"Z family is not orthonormal: {gram_res:.3e}")
    k = np.arange(N + 1)
    k1_eigs = (-1.0) ** k * (k + 0.5)
    r1 = float(np.max(np.abs(symmetry_generator(1, space).apply(mat) - mat * k1_eigs)))
    r2 = float(np.max(np.abs(supercharge(space).apply(mat) - mat * (-(N + 0.5)))))
    if not (r1 <= QUAD_TOL and r2 <= QUAD_TOL):
        raise VerificationError(
            f"Z family fails eigen-verification at N={N}: K1 residual {r1:.3e}, "
            f"Q residual {r2:.3e}"
        )

    labels = [{"k": int(i), "k1": float(k1_eigs[i]), "q": -(N + 0.5)} for i in range(N + 1)]
    mat.setflags(write=False)
    return LabeledBasis(space=space, family="Z", coeffs=mat, labels=labels)


def overlaps_via_integral(N: int) -> OverlapMatrix:
    """Overlap matrix W[n, k] = integral of F_N^n conj(Z_N^k) by quadrature.

    The route of overlaps --method integral|both: both families enter as
    point values of harmonics and the closed-form F, with no Jacobi, recurrence
    or rotation data.  The mesh is streamed in blocks of theta-rings
    (_permuted_blocks): Z = F^T Y at the block's permuted points (_transpose_apply),
    its phi sums against an exp(-i m phi_p) table, and the Gauss-weighted theta
    sum add into acc[k, m] = integral of Z_N^k conj(Y_N^m); then W = F^T conj(acc)^T.
    No stack spans the mesh.  Supported range: every N >= 1, bounded by time,
    not memory: the work is O(N^4) and the memory O(N^2) per block.
    """
    space, quad = HarmonicSpace(N), build_grid(N)
    f = _fg_operator(space, "F")
    m = np.arange(-N, N + 1)
    # conj(Y_N^m) on the mesh: (-1)^m Pbar_N^|m|(z_t) exp(-i m phi_p) for m < 0, times the weights
    theta_part = _legendre_table(N, quad.theta_nodes)[np.abs(m)].T * np.where(m < 0, (-1.0) ** m, 1.0)
    theta_part *= quad.theta_weights[:, None] * (2.0 * pi / quad.n_phi)
    phi_part = np.exp(-1j * np.outer(quad.phi, m))
    acc, n = np.zeros((N + 1, 2 * N + 1), dtype=complex), quad.theta_nodes.size
    for rings, _, phi, rows in _permuted_blocks(N, quad):
        values = _orders(rows, phi)
        # ring n-1-t holds the conjugate values; the middle ring of odd n is its own mirror
        for t, keep in ((rings, 1.0), (n - 1 - rings, (2 * rings < n - 1)[:, None])):
            sums = _transpose_apply(f, values, N + 1, 0).reshape(-1, quad.n_phi) @ phi_part
            acc += np.einsum("krm,rm->km", sums.reshape(N + 1, rings.size, -1), theta_part[t] * keep)
            np.conj(values, out=values)
    return OverlapMatrix(N=int(N), W=_transpose_apply(f, acc.conj().T, N + 1, 0), method="integral")


def overlaps_via_recurrence(N: int) -> OverlapMatrix:
    """Overlap matrix in closed form, from the Jacobi eigenvectors at the grid.

    W[n, k] = s_k sqrt(w_k) p-hat_n(x_k): column k is the Jacobi
    eigenvector of x_k, one twisted factorization at the known node
    (_jacobi, no eigensolver), times the sign s_k = (-1)^(N/2) for even N
    and s_k = (-1)^((N+1)/2 + k) for odd N.  O(N^2) work before the O(N^3)
    unitarity check of OverlapMatrix.  Supported range: every N >= 1, with
    no bound in principle; tested unitary to N = 1000, equal to F^H U F
    (the Krawtchouk route of the module docstring), signs included, within
    1e-15 for N = 1..60, 100 and 200, and against overlaps_via_integral
    for N = 1..12, 39 and 40.
    """
    V = _jacobi(N)
    V *= (-1.0) ** (N // 2) if N % 2 == 0 else (-1.0) ** ((N + 1) // 2 + np.arange(N + 1))
    return OverlapMatrix(N=int(N), W=V, method="recurrence")


def bannai_ito_params(N: int) -> dict:
    """Parameter quadruple (rho1, rho2, r1, r2) of the family at size N+1."""
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    half = (-1.0) ** N * (N + 1) / 2.0
    return {"rho1": 0.0, "rho2": half, "r1": 0.0, "r2": half}
