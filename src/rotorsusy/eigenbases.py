"""Joint eigenbases of the supercharge and the K3 generator.

Three labeled bases of each degree-j space:

* M-basis: M_j^{m,eps} = (Y_j^{-m} + i eps Y_j^m) / sqrt(2), m = 0..j,
  eps = +-1 (only eps = +1 at m = 0).  Diagonalizes K3 with eigenvalue
  eps m + (-1)^m / 2.  Canonical order: the eps = +1 chain (m = 0..j)
  followed by the eps = -1 chain (m = 1..j).
* F-basis: j+1 joint eigenvectors with Q = -(j+1/2), K3 = (-1)^k (k+1/2).
* G-basis: j   joint eigenvectors with Q = +(j+1/2), K3 = (-1)^k (k+1/2).

K1 is real tridiagonal in each of the F- and G-bases; the two blocks carry
the same closed-form coefficients at sizes j+1 and j.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import ContractViolation, VerificationError
from .harmonics import HarmonicSpace
from .operators import Operator, _columns, _columns_adjoint, commutator, op_norm
from .susy import supercharge, symmetry_generator

__all__ = [
    "LabeledBasis",
    "TridiagonalData",
    "m_basis",
    "q_action_on_m",
    "joint_diagonalize",
    "f_basis",
    "g_basis",
    "tridiagonal_extract",
    "decompose",
]

EIGEN_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class LabeledBasis:
    """An ordered orthonormal basis: a read-only (2j+1, n) array whose
    column i holds the coefficients of vector i over Y_j^m, and one label
    dict per column.  Every column must have unit norm (to 1e-10).

    family is one of "M", "F", "G", "Z" for the named bases, or "joint"
    for the output of joint_diagonalize.
    """

    space: HarmonicSpace
    family: str
    coeffs: np.ndarray
    labels: tuple

    def __post_init__(self):
        if self.family not in ("M", "F", "G", "Z", "joint"):
            raise ValueError(f"unknown basis family {self.family!r}")
        c = np.array(self.coeffs, dtype=complex)
        if c.shape != (self.space.dim, len(self.labels)):
            raise ValueError(
                f"expected {self.space.dim} x {len(self.labels)} coefficients, got shape {c.shape}"
            )
        dev = float(np.max(np.abs(np.linalg.norm(c, axis=0) - 1.0), initial=0.0))
        if not dev <= 1e-10:
            raise ValueError(f"basis vectors must have unit norm; worst deviation {dev!r}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self):
        return len(self.labels)

    def matrix(self):
        """Coefficients stacked column-wise, shape (2j+1, len(self))."""
        return self.coeffs

    def orthonormality_residual(self) -> float:
        v = self.coeffs
        return float(np.max(np.abs(v.conj().T @ v - np.eye(len(self))), initial=0.0))


@dataclass(frozen=True, eq=False)
class TridiagonalData:
    """Real symmetric tridiagonal data (diag, offdiag) of size N."""

    diag: np.ndarray
    offdiag: np.ndarray
    N: int

    def __post_init__(self):
        d = np.array(self.diag, dtype=float)
        e = np.array(self.offdiag, dtype=float)
        if d.shape != (self.N,) or e.shape != (max(self.N - 1, 0),):
            raise ValueError("inconsistent tridiagonal shapes")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e)) and np.all(e > 0)):
            raise VerificationError("entries must be finite, off-diagonal entries strictly positive")
        d.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)


def _m_labels(j: int):
    """(i, m, eps) of the M-basis in canonical order: the eps = +1 chain
    (m = 0..j) at positions i = 0..j, then the eps = -1 chain (m = 1..j)."""
    i = np.arange(2 * j + 1)
    return i, np.where(i <= j, i, i - j), np.where(i <= j, 1, -1)


def m_basis(space: HarmonicSpace) -> LabeledBasis:
    """The K3 eigenbasis M_j^{m,eps} in canonical order."""
    j = space.j
    i, m, eps = _m_labels(j)
    labels = [{"m": a, "epsilon": e, "k3": e * a + (-1.0) ** a / 2.0}
              for a, e in zip(m.tolist(), eps.tolist())]
    chain = [np.where(eps == e, 1.0 / sqrt(2.0), 0.0) for e in (1, -1)]
    # M^{m,eps} = (Y^{-m} + i eps Y^m) / sqrt(2); m = i on the first chain, i - j on the second
    terms = [((-1, 0), chain[0]), ((-1, j), chain[1]), ((1, 0), 1j * chain[0]),
             ((1, -j), -1j * chain[1])]
    return LabeledBasis(space=space, family="M", coeffs=_columns(space, terms, space.dim),
                        labels=labels)


def q_action_on_m(space: HarmonicSpace):
    """Matrix of the supercharge in the M-basis, from its closed-form action.

    Q couples M^{m,eps} only to M^{m+-1,eps} and itself:

        up   coefficient  (-1)^j i ((-1)^{m+1} - eps)/2 * sqrt((j-m)(j+m+1))
        diag coefficient  -(1 + 2 (-1)^m eps m)/2
        down coefficient  (-1)^j i (eps - (-1)^m)/2 * sqrt((j+m)(j-m+1))

    and the up/down coefficients vanish exactly where the target label
    leaves the basis, so each eps chain splits into closed 2x2 blocks
    (checked: VerificationError otherwise).
    """
    j = space.j
    i, m, eps = _m_labels(j)
    sign_j, t = (-1.0) ** j, (-1.0) ** m
    diag = -(1.0 + 2.0 * t * eps * m) / 2.0
    up = sign_j * 1j * (-t - eps) / 2.0 * np.sqrt((j - m) * (j + m + 1.0))
    down = sign_j * 1j * (eps - t) / 2.0 * np.sqrt((j + m) * (j - m + 1.0))
    lost = np.r_[up[m == j], down[(m == 0) | ((m == 1) & (eps == -1))]]
    if np.any(lost != 0):
        raise VerificationError(f"Q leaves the M-basis chains (coefficients {lost[lost != 0]})")
    return _columns(space, [((1, -j), diag), ((1, 1 - j), up), ((1, -1 - j), down)], space.dim)


def joint_diagonalize(q_op: Operator, k3_op: Operator) -> LabeledBasis:
    """Numerically joint-diagonalize the commuting pair (Q, K3).

    Eigenvectors are grouped by clustered Q eigenvalue, rotated inside each
    cluster to diagonalize K3, and phase-fixed so that the first nonzero
    coefficient in the M-basis expansion is positive real.  Labels carry
    (k, q, k3) with k recovered from k3 = (-1)^k (k + 1/2).

    Raises ContractViolation if the inputs do not commute.
    """
    if q_op.space != k3_op.space:
        raise ValueError("operators live on different spaces")
    space = q_op.space
    tol = 1e-10 * space.dim
    if not op_norm(commutator(q_op, k3_op)) <= tol:
        raise ContractViolation("inputs do not commute; joint eigenbasis undefined")

    q_vals, q_vecs = np.linalg.eigh(q_op.matrix)
    m_mat = m_basis(space).matrix()

    entries = []
    start = 0
    for i in range(1, len(q_vals) + 1):
        if i == len(q_vals) or q_vals[i] - q_vals[start] > 1e-8:
            block = q_vecs[:, start:i]
            qv = float(np.mean(q_vals[start:i]))
            sub = block.conj().T @ k3_op.apply(block)
            k3_vals, rot = np.linalg.eigh((sub + sub.conj().T) / 2.0)
            vecs = block @ rot
            for col in range(vecs.shape[1]):
                v = vecs[:, col]
                coeffs_m = m_mat.conj().T @ v
                nz = np.flatnonzero(np.abs(coeffs_m) > 1e-6)
                if nz.size:
                    phase = coeffs_m[nz[0]] / abs(coeffs_m[nz[0]])
                    v = v * np.conj(phase)
                k3v = float(k3_vals[col])
                k = round(abs(k3v) - 0.5)
                if abs((-1.0) ** k * (k + 0.5) - k3v) > 1e-8:
                    raise VerificationError(
                        f"K3 eigenvalue {k3v} is not of the form (-1)^k (k+1/2)"
                    )
                entries.append((qv, k, k3v, v))
            start = i

    entries.sort(key=lambda t: (t[0], t[1]))
    labels = [{"k": k, "q": qv, "k3": k3v} for (qv, k, k3v, _) in entries]
    return LabeledBasis(space=space, family="joint",
                        coeffs=np.column_stack([v for (_, _, _, v) in entries]), labels=labels)


def _fg_terms(space: HarmonicSpace, which: str):
    """(terms, n) for the n F or G vectors (see f_basis, g_basis) as keyed
    columns over k (operators._columns): vector k is upper M_j^{k+1,eps} + lower
    M_j^{k,eps}, eps = (-1)^k, with four entries on Y_j^{-k-1}, Y_j^{-k},
    Y_j^k and Y_j^{k+1}, added into one zeroed (4, n) array (no -0.0
    parts); at k = 0 the two Y_j^0 entries are one, on the second term."""
    j = space.j
    k = np.arange(j + 1 if which == "F" else j)
    if which == "F":
        upper = np.sqrt((j - k) / (2 * j + 1))
        lower = 1j * (-1.0) ** (j + k + 1) * np.sqrt((j + k + 1) / (2 * j + 1))
    else:
        upper = np.sqrt((j + k + 1) / (2 * j + 1))
        lower = 1j * (-1.0) ** (k + j) * np.sqrt((j - k) / (2 * j + 1))
    minus = np.full(k.size, 1.0 / sqrt(2.0), dtype=complex)  # Y^{-m} entry of M^{m,eps}
    plus = 1j * (-1) ** k / sqrt(2.0)                        # Y^{+m} entry of M^{m,eps}
    minus_0, plus_0 = minus.copy(), plus.copy()
    minus_0[:1] += plus[:1]
    plus_0[:1] = 0.0
    vals = np.zeros((4, k.size), dtype=complex)
    vals += [minus * upper, minus_0 * lower, plus_0 * lower, plus * upper]
    return [((-1, -1), vals[0]), ((-1, 0), vals[1]), ((1, 0), vals[2]), ((1, 1), vals[3])], k.size


def _verified_fg_basis(space: HarmonicSpace, which: str, q: Operator, k3: Operator) -> LabeledBasis:
    """The F or G family, eigen-verified against the closed-form actions of
    the given Q and K3 (Operator.apply), in O(j^2) with no dense operator."""
    j = space.j
    q_eig = -(j + 0.5) if which == "F" else (j + 0.5)
    terms, n = _fg_terms(space, which)
    v, k = _columns(space, terms, n), np.arange(n)
    k3_eigs = (-1.0) ** k * (k + 0.5)

    rq = np.linalg.norm(q.apply(v) - q_eig * v, axis=0)
    rk = np.linalg.norm(k3.apply(v) - v * k3_eigs, axis=0)
    bad = np.flatnonzero(~(np.maximum(rq, rk) <= EIGEN_TOL))
    if bad.size:
        kb = int(bad[0])
        oracle = joint_diagonalize(q, k3)
        overlaps = np.abs(oracle.matrix().conj().T @ v[:, kb])
        raise VerificationError(
            f"{which}-basis closed form failed eigen-verification at j={j}, k={kb}: "
            f"|Qv - qv| = {rq[kb]:.3e}, |K3v - k3v| = {rk[kb]:.3e} (tolerance {EIGEN_TOL}); "
            f"best oracle overlap modulus {overlaps.max():.6f}"
        )
    labels = [{"k": int(i), "q": q_eig, "k3": float(k3_eigs[i])} for i in k]
    return LabeledBasis(space=space, family=which, coeffs=v, labels=labels)


def f_basis(space: HarmonicSpace) -> LabeledBasis:
    """Closed-form joint eigenbasis on the Q = -(j+1/2) branch (j+1 vectors).

    F_j^k = sqrt((j-k)/(2j+1)) M_j^{k+1,(-1)^k}
            + i (-1)^{j+k+1} sqrt((j+k+1)/(2j+1)) M_j^{k,(-1)^k}.

    Every vector is eigen-verified against Q and K3 before being returned,
    by applying their closed-form actions: O(j^2) time and memory, with no
    dense operator.  Failure raises VerificationError with a diagnostic
    against the joint-diagonalization oracle.
    """
    return _verified_fg_basis(space, "F", supercharge(space), symmetry_generator(3, space))


def g_basis(space: HarmonicSpace) -> LabeledBasis:
    """Closed-form joint eigenbasis on the Q = +(j+1/2) branch (j vectors).

    G_j^k = sqrt((j+k+1)/(2j+1)) M_j^{k+1,(-1)^k}
            + i (-1)^{j+k} sqrt((j-k)/(2j+1)) M_j^{k,(-1)^k}.

    Eigen-verified as f_basis is, in O(j^2).  Empty at j = 0.
    """
    return _verified_fg_basis(space, "G", supercharge(space), symmetry_generator(3, space))


def closed_form_tridiagonal(family: str, j: int):
    """Closed-form K1 tridiagonal data for the F (size n = j+1) or G (size n = j) block.

    Both follow one pattern in n: diag (-1)^{n-1} n/2 at k=0 else 0, and
    offdiag sqrt((n+k)(n-k))/2, k = 1..n-1; that is U_k =
    sqrt((j+k+1)(j+1-k))/2 on F and V_k = sqrt((j+k)(j-k))/2 on G.

    The Z family reuses the F pattern (same coefficients, K2 in that basis).
    """
    if family not in ("F", "G", "Z"):
        raise ValueError(f"no closed-form tridiagonal for family {family!r}")
    n = j if family == "G" else j + 1
    diag, k = np.zeros(n), np.arange(1, n)
    diag[:1] = (-1.0) ** (n - 1) * n / 2.0
    return diag, np.sqrt((n + k) * (n - k)) / 2.0


def tridiagonal_extract(k1_op: Operator, basis: LabeledBasis) -> TridiagonalData:
    """Matrix elements of an operator in a labeled basis, validated tridiagonal.

    Checks that the matrix <b_k' | op | b_k> is real symmetric tridiagonal
    within EIGEN_TOL and that its entries equal the closed-form coefficients
    for the basis family; mismatch raises VerificationError.
    """
    if basis.family not in ("F", "G", "Z"):
        raise ValueError(f"tridiagonal extraction expects an F/G/Z basis, got {basis.family!r}")
    v = basis.matrix()
    if v.shape[1] == 0:
        raise ValueError("cannot extract tridiagonal data from an empty basis")
    return _tridiagonal_data(v.conj().T @ k1_op.apply(v), basis.family, basis.space.j)


def _tridiagonal_data(t, family: str, j: int) -> TridiagonalData:
    """The matrix elements t of K1 in the family's basis, checked real
    tridiagonal and equal to closed_form_tridiagonal (see tridiagonal_extract)."""
    n = t.shape[0]
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > 1
    stray = float(np.max(np.abs(t[mask]), initial=0.0))
    imag = float(np.max(np.abs(t.imag)))
    if not (stray <= EIGEN_TOL and imag <= EIGEN_TOL):
        raise VerificationError(
            f"matrix is not real tridiagonal in the {family}-basis "
            f"(stray {stray:.3e}, imaginary {imag:.3e})"
        )
    diag = t.diagonal().real.copy()
    off = t.diagonal(1).real.copy()

    exp_diag, exp_off = closed_form_tridiagonal(family, j)
    dev = float(np.max(np.abs(np.concatenate((diag - exp_diag, off - exp_off)))))
    if not dev <= EIGEN_TOL:
        raise VerificationError(
            f"extracted tridiagonal data deviate from the closed form by {dev:.3e} "
            f"({family}-basis, j={j})"
        )
    return TridiagonalData(diag=diag, offdiag=off, N=n)


def decompose(space: HarmonicSpace) -> dict:
    """Split degree j into the two irreducible blocks and report the evidence.

    Returns a JSON-able report: block dimensions (j+1, j), the K1
    tridiagonal data of each block, off-block residuals of Q, K1, K2, K3
    in the combined F+G basis, and the check that the G-block data equal
    the F-block pattern one dimension lower.

    O(j^2) time and memory, with no dense operator: Q and the K_i act on F
    and G by their closed-form actions (Operator.apply), and F^H X, G^H X
    apply the adjoint of the F and G closed forms (operators._columns_adjoint),
    all on contiguous slices.  Q and the K_i are built once, and F and G are
    eigen-verified against the same Q and K3.  F is treated first, then G.
    """
    j = space.j
    fg = {which: _fg_terms(space, which) for which in ("F", "G")}

    def bra(which, x):
        return _columns_adjoint(space, *fg[which], x)

    def max_abs(x):
        return float(np.max(np.abs(x), initial=0.0))

    ops = {"Q": supercharge(space), **{f"K{i}": symmetry_generator(i, space) for i in (1, 2, 3)}}
    completeness, offblock, k1 = 0.0, dict.fromkeys(ops, 0.0), {}
    for which, other in (("F", "G"), ("G", "F")):
        b = _verified_fg_basis(space, which, ops["Q"], ops["K3"]).matrix()
        completeness = max(completeness, max_abs(bra(which, b) - np.eye(b.shape[1])),
                           max_abs(bra(other, b)))
        for name, o in ops.items():
            x = o.apply(b)
            if name == "K1":
                k1[which] = bra(which, x)
            offblock[name] = max(offblock[name], max_abs(bra(other, x)))
            del x  # one action at a time
        del b  # F's vectors are freed before G's are built

    f_tri = _tridiagonal_data(k1["F"], "F", j)
    report = {
        "j": j,
        "dims": [j + 1, j],
        "q_eigenvalues": [-(j + 0.5), j + 0.5],
        "completeness_residual": completeness,
        "offblock_residuals": offblock,
        "f_block": {"diag": f_tri.diag.tolist(), "offdiag": f_tri.offdiag.tolist()},
        "offdiag_positive": bool(np.all(f_tri.offdiag > 0)),
        "block_label": (
            "blocks are labeled by the supercharge eigenvalue: -(j+1/2) on the "
            "(j+1)-dimensional block, +(j+1/2) on the j-dimensional block; the "
            "-(N+1/2) label used on the polynomial side is this same supercharge "
            "eigenvalue, not a separate operator"
        ),
    }
    if j:
        g_tri = _tridiagonal_data(k1["G"], "G", j)
        lower_diag, lower_off = closed_form_tridiagonal("F", j - 1)
        report["g_block"] = {"diag": g_tri.diag.tolist(), "offdiag": g_tri.offdiag.tolist()}
        report["offdiag_positive"] &= bool(np.all(g_tri.offdiag > 0))
        report["g_matches_f_pattern_one_degree_lower"] = bool(
            np.allclose(g_tri.diag, lower_diag, atol=EIGEN_TOL)
            and np.allclose(g_tri.offdiag, lower_off, atol=EIGEN_TOL))
    return report
