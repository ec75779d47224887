"""Joint eigenbases of the supercharge and the K3 generator.

Three labeled bases of each degree-j space:

* M-basis: M_j^{m,eps} = (Y_j^{-m} + i eps Y_j^m) / sqrt(2), m = 0..j,
  eps = +-1 (only eps = +1 at m = 0).  Diagonalizes K3 with eigenvalue
  eps m + (-1)^m / 2.  Canonical order: the eps = +1 chain (m = 0..j)
  followed by the eps = -1 chain (m = 1..j).
* F-basis: j+1 joint eigenvectors with Q = -(j+1/2), K3 = (-1)^k (k+1/2).
* G-basis: j   joint eigenvectors with Q = +(j+1/2), K3 = (-1)^k (k+1/2).

K1 is real tridiagonal in each of the F- and G-bases; the two blocks carry
the same closed-form coefficients at sizes j+1 and j.  F and G are keyed
operators (Y_j^k -> vector k, four entries each), so their eigen-checks and
decompose are keyed algebra in O(j), on one degree or a DegreeStack; dense
columns are written only where a LabeledBasis is returned.  No eigensolver
runs here: the eigh oracle of F and G lives in verification.py.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .errors import VerificationError
from .harmonics import HarmonicSpace, _own
from .operators import DegreeStack, Operator, _columns, _entries, adjoint
from .susy import supercharge, symmetry_generator

__all__ = [
    "LabeledBasis",
    "TridiagonalData",
    "m_basis",
    "q_action_on_m",
    "f_basis",
    "g_basis",
    "closed_form_tridiagonal",
    "tridiagonal_extract",
    "decompose",
]

EIGEN_TOL = 1e-10


def _unit_norm_gate(squared_norms) -> None:
    """ValueError unless every squared norm is that of a unit vector (norm within 1e-10 of 1)."""
    dev = float(np.max(np.abs(np.sqrt(squared_norms) - 1.0), initial=0.0))
    if not dev <= 1e-10:
        raise ValueError(f"basis vectors must have unit norm; worst deviation {dev!r}")


@dataclass(frozen=True, eq=False)
class LabeledBasis:
    """An ordered orthonormal basis: a read-only (2j+1, n) array whose
    column i holds the coefficients of vector i over Y_j^m, and one label
    dict per column.  Every column must have unit norm (to 1e-10).

    coeffs is owned by harmonics._own's rule: a read-only complex128 ndarray
    is kept as given, anything else copied into one.

    family is one of the closed-form families "M", "F", "G" and "Z" (z_basis).
    """

    space: HarmonicSpace
    family: str
    coeffs: np.ndarray
    labels: tuple

    def __post_init__(self):
        if self.family not in ("M", "F", "G", "Z"):
            raise ValueError(f"unknown basis family {self.family!r}")
        c = _own(self, "coeffs", complex)
        if c.shape != (self.space.dim, len(self.labels)):
            raise ValueError(
                f"expected {self.space.dim} x {len(self.labels)} coefficients, got shape {c.shape}"
            )
        # squared norms from the real and imaginary views: no complex |c|^2 copy
        _unit_norm_gate(np.einsum("ij,ij->j", c.real, c.real) + np.einsum("ij,ij->j", c.imag, c.imag))
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self):
        return len(self.labels)

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
        d, e = _own(self, "diag", float), _own(self, "offdiag", float)
        if d.shape != (self.N,) or e.shape != (max(self.N - 1, 0),):
            raise ValueError("inconsistent tridiagonal shapes")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e)) and np.all(e > 0)):
            raise VerificationError("entries must be finite, off-diagonal entries strictly positive")


def _m_labels(j: int):
    """(i, m, eps) of the M-basis in canonical order: the eps = +1 chain
    (m = 0..j) at positions i = 0..j, then the eps = -1 chain (m = 1..j)."""
    i = np.arange(2 * j + 1)
    return i, np.where(i <= j, i, i - j), np.where(i <= j, 1, -1)


def _m_keyed(space: HarmonicSpace):
    """(b, -j, labels): M as the keyed Operator b that sends Y_j^m to the M
    vector of canonical index m + j, and the labels in canonical order."""
    j = space.j
    i, m, eps = _m_labels(j)
    labels = [{"m": a, "epsilon": e, "k3": e * a + (-1.0) ** a / 2.0}
              for a, e in zip(m.tolist(), eps.tolist())]
    chain = [np.where(eps == e, 1.0 / sqrt(2.0), 0.0) for e in (1, -1)]
    # M^{m,eps} = (Y^{-m} + i eps Y^m) / sqrt(2): from column mu = i - j, the first chain
    # (m = i) sends to -mu - j and mu + j, the second (m = i - j) to -mu and mu; at j = 0,
    # where the keys meet, the second chain is empty and the first is written last
    b = Operator._keyed(space, {(-1, 0): chain[1], (1, 0): -1j * chain[1],
                                (-1, -j): chain[0], (1, j): 1j * chain[0]})
    return b, -j, labels


def m_basis(space: HarmonicSpace) -> LabeledBasis:
    """The K3 eigenbasis M_j^{m,eps} in canonical order."""
    b, first, labels = _m_keyed(space)
    coeffs = _keyed_columns(b, first, 0, space.dim)
    coeffs.setflags(write=False)
    return LabeledBasis(space=space, family="M", coeffs=coeffs, labels=labels)


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


def _max_abs(a: Operator) -> np.ndarray:
    """The largest entry modulus of a, per degree (operators._entries)."""
    return np.max(np.abs(_entries(a)[1]), axis=(0, 2), initial=0.0)


@lru_cache(maxsize=128)
def _fg_operator(space: HarmonicSpace, which: str) -> Operator:
    """_fg_build on one degree against supercharge and symmetry_generator(3),
    kept as they are (bounded lru_cache, read-only and O(j)), so f_basis,
    g_basis, decompose, z_basis and the integral route build and verify F or
    G once per degree.  verify builds its stacked F and G once per run."""
    return _fg_build(space, which, supercharge(space), symmetry_generator(3, space))


def _fg_build(space: HarmonicSpace, which: str, q: Operator, k3: Operator) -> Operator:
    """F or G as a keyed Operator, eigen-verified against the given Q and K3.

    It sends Y_j^k to vector k (f_basis, g_basis), k = 0..n-1, and every
    other Y_j^m to 0.  Vector k is upper M_j^{k+1,eps} + lower M_j^{k,eps},
    eps = (-1)^k, on the keys (-1, -1), (-1, 0), (1, 0), (1, 1), each added
    into one zeroed array (no -0.0 parts); at k = 0 the two Y_j^0 entries
    are one, on (-1, 0).  The keys do not depend on j, so one build serves a
    HarmonicSpace and a DegreeStack.  The column norms of Q B - q B and
    K3 B - B diag(k3) verify it in O(j) per degree; the first failing
    vector, by degree and k, raises VerificationError naming both residuals.
    """
    j, m = space.degrees, space.m_values()
    inside = (m >= 0) & (m < (j + 1 if which == "F" else j))
    k = np.where(inside, m, 0)
    wide, narrow = np.sqrt((j + k + 1) / (2 * j + 1)), np.sqrt((j - k) / (2 * j + 1))
    upper, lower = ((narrow, 1j * (-1.0) ** (j + k + 1) * wide) if which == "F"
                    else (wide, 1j * (-1.0) ** (k + j) * narrow))
    minus = np.full(k.shape, 1.0 / sqrt(2.0), dtype=complex)  # Y^{-m} entry of M^{m,eps}
    plus = 1j * (-1) ** k / sqrt(2.0)                         # Y^{+m} entry of M^{m,eps}
    minus_0, plus_0 = np.where(k == 0, minus + plus, minus), np.where(k == 0, 0.0, plus)
    vals = np.zeros((4,) + k.shape, dtype=complex)
    vals += [minus * upper, minus_0 * lower, plus_0 * lower, plus * upper]
    # every target lies in -j..j: upper vanishes at k = j, and G stops at k = j - 1
    b = Operator._keyed(space, dict(zip(((-1, -1), (-1, 0), (1, 0), (1, 1)), np.where(inside, vals, 0.0))))

    q_eig = (-1.0 if which == "F" else 1.0) * (j + 0.5)
    # B diag(k3): column m of every key times its K3 eigenvalue (-1)^m (m + 1/2)
    b_k3 = Operator._keyed(space, {key: coef * (-1.0) ** m * (m + 0.5) for key, coef in b.terms.items()})
    rq, rk = (np.sqrt(np.sum(np.abs(_entries(r)[1]) ** 2, axis=0))
              for r in (q @ b - q_eig * b, k3 @ b - b_k3))
    bad = np.argwhere(~(np.maximum(rq, rk) <= EIGEN_TOL))
    if bad.size:
        r, col = bad[0]
        raise VerificationError(
            f"{which}-basis closed form failed eigen-verification at j={np.ravel(j)[r]}, k={col - space.j}: "
            f"|Qv - qv| = {rq[r, col]:.3e}, |K3v - k3v| = {rk[r, col]:.3e} (tolerance {EIGEN_TOL})")
    return b


def _fg_labels(j: int, which: str) -> list:
    """The labels (k, q, k3) of the F or G vectors of degree j."""
    n, q_eig = (j + 1, -(j + 0.5)) if which == "F" else (j, j + 0.5)
    return [{"k": k, "q": q_eig, "k3": (-1.0) ** k * (k + 0.5)} for k in range(n)]


def _fg_basis(b: Operator, which: str) -> LabeledBasis:
    """The (2j+1, n) columns and labels of a keyed F or G of one degree."""
    labels = _fg_labels(b.space.j, which)
    coeffs = _keyed_columns(b, 0, 0, len(labels))
    coeffs.setflags(write=False)
    return LabeledBasis(space=b.space, family=which, coeffs=coeffs, labels=labels)


def _keyed_columns(b: Operator, first: int, lo: int, hi: int) -> np.ndarray:
    """Vectors lo..hi-1 of a keyed family, vector i = b Y_j^(first + i), as
    the (2j+1, hi - lo) array of their columns (operators._columns)."""
    j = b.space.j
    terms = [(key, c[j + first + lo:j + first + hi]) for key, c in b.terms.items()]
    return _columns(b.space, terms, hi - lo, first + lo)


def _keyed_family(space: HarmonicSpace, family: str):
    """(b, first, labels) of the M, F or G family on one degree, vector i
    = b Y_j^(first + i), with every vector checked to unit norm as
    LabeledBasis checks, here from the entries of b (operators._entries):
    no column is written."""
    b, first, labels = (_m_keyed(space) if family == "M"
                        else (_fg_operator(space, family), 0, _fg_labels(space.j, family)))
    coefs = _entries(b)[1][:, 0, space.j + first:][:, :len(labels)]
    _unit_norm_gate(np.sum(coefs.real ** 2 + coefs.imag ** 2, axis=0))
    return b, first, labels


def f_basis(space: HarmonicSpace) -> LabeledBasis:
    """Closed-form joint eigenbasis on the Q = -(j+1/2) branch (j+1 vectors).

    F_j^k = sqrt((j-k)/(2j+1)) M_j^{k+1,(-1)^k}
            + i (-1)^{j+k+1} sqrt((j+k+1)/(2j+1)) M_j^{k,(-1)^k}.

    Every vector is eigen-verified against Q and K3 before being returned,
    in keyed algebra on the four entries of each vector (O(j) time and
    memory); only the returned (2j+1, j+1) columns are dense.  Failure
    raises VerificationError naming the failing vector.
    """
    return _fg_basis(_fg_operator(space, "F"), "F")


def g_basis(space: HarmonicSpace) -> LabeledBasis:
    """Closed-form joint eigenbasis on the Q = +(j+1/2) branch (j vectors).

    G_j^k = sqrt((j+k+1)/(2j+1)) M_j^{k+1,(-1)^k}
            + i (-1)^{j+k} sqrt((j-k)/(2j+1)) M_j^{k,(-1)^k}.

    Eigen-verified as f_basis is.  Empty at j = 0.
    """
    return _fg_basis(_fg_operator(space, "G"), "G")


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
    for the basis family; mismatch raises VerificationError.  It reads the
    basis columns densely, in O(j^2): the Z basis (F W) has no keyed form,
    and decompose reads the F and G blocks from their keys instead.
    """
    if basis.family not in ("F", "G", "Z"):
        raise ValueError(f"tridiagonal extraction expects an F/G/Z basis, got {basis.family!r}")
    v = basis.coeffs
    if v.shape[1] == 0:
        raise ValueError("cannot extract tridiagonal data from an empty basis")
    t = v.conj().T @ k1_op.apply(v)
    stray = np.abs(np.subtract.outer(np.arange(len(t)), np.arange(len(t)))) > 1
    return _tridiagonal_data(t.diagonal().real.copy(), t.diagonal(1).real.copy(),
                             float(np.max(np.abs(t[stray]), initial=0.0)),
                             float(np.max(np.abs(t.imag))), basis.family, basis.space.j)


def _tridiagonal_data(diag, off, stray, imag, family: str, j: int) -> TridiagonalData:
    """K1 in the family's basis from its diagonal, its off-diagonal
    <b_k|K1|b_{k+1}>, its largest entry off the band and its largest
    imaginary part: checked real tridiagonal and equal to the closed form."""
    if not (stray <= EIGEN_TOL and imag <= EIGEN_TOL):
        raise VerificationError(
            f"matrix is not real tridiagonal in the {family}-basis "
            f"(stray {stray:.3e}, imaginary {imag:.3e})"
        )
    exp_diag, exp_off = closed_form_tridiagonal(family, j)
    dev = float(np.max(np.abs(np.concatenate((diag - exp_diag, off - exp_off)))))
    if not dev <= EIGEN_TOL:
        raise VerificationError(
            f"extracted tridiagonal data deviate from the closed form by {dev:.3e} "
            f"({family}-basis, j={j})"
        )
    return TridiagonalData(diag=diag, offdiag=off, N=len(diag))


def _tridiagonal_blocks(t: Operator, family: str) -> list:
    """_tridiagonal_data of t = B^H K1 B for the keyed F or G vectors B, read
    from its keys in O(j): the diagonal is the key (1, 0), <b_k|K1|b_{k+1}>
    the key (1, -1) at column k+1, and every other key is off the band.  One
    per degree, None where the family is empty (G at j = 0)."""
    keys, coefs = _entries(t, diagonals=(-1, 0, 1))
    band = [keys.index((1, c)) for c in (-1, 0, 1)]
    stray = np.max(np.abs(np.delete(coefs, band, axis=0)), axis=(0, 2), initial=0.0)
    imag = np.max(np.abs(coefs.imag), axis=(0, 2), initial=0.0)
    off, diag, top = coefs[band[0]].real, coefs[band[1]].real, t.space.j
    return [_tridiagonal_data(diag[r, top:top + n], off[r, top + 1:top + n], stray[r], imag[r], family, j)
            if (n := j + 1 if family == "F" else j) else None
            for r, j in enumerate(np.ravel(t.space.degrees).tolist())]


def _decomposition(ops: dict, f: Operator, g: Operator) -> list:
    """decompose's report for every degree of the space of ops = {"Q", "K1",
    "K2", "K3"}, from one round of keyed algebra on that space's keyed F and
    G (_fg_build, eigen-verified against Q and K3).  Completeness is the
    largest entry of F^H F - P_F, G^H G - P_G and G^H F (P the (1, 0)
    projector onto a family's columns); the off-block residual of O is that
    of G^H O F and F^H O G; the K1 blocks are F^H K1 F and G^H K1 G."""
    space, m = ops["Q"].space, ops["Q"].space.m_values()
    fh, gh = adjoint(f), adjoint(g)
    p_f, p_g = (Operator(space, {(1, 0): np.where((m >= 0) & (m < n), 1.0, 0.0)})
                for n in (space.degrees + 1, space.degrees))
    completeness = np.maximum.reduce([_max_abs(fh @ f - p_f), _max_abs(gh @ g - p_g), _max_abs(gh @ f)])
    offblock = {}
    for name, o in ops.items():
        of, og = o @ f, o @ g
        offblock[name] = np.maximum(_max_abs(gh @ of), _max_abs(fh @ og))
        if name == "K1":
            blocks = zip(_tridiagonal_blocks(fh @ of, "F"), _tridiagonal_blocks(gh @ og, "G"))
    reports = []
    for r, (f_tri, g_tri) in enumerate(blocks):
        j = r if isinstance(space, DegreeStack) else space.j
        report = {"j": j, "dims": [j + 1, j], "q_eigenvalues": [-(j + 0.5), j + 0.5],
                  "completeness_residual": float(completeness[r]),
                  "offblock_residuals": {name: float(res[r]) for name, res in offblock.items()},
                  "f_block": {"diag": f_tri.diag.tolist(), "offdiag": f_tri.offdiag.tolist()},
                  "offdiag_positive": bool(np.all(f_tri.offdiag > 0)),
                  "block_label": "blocks are labeled by the supercharge eigenvalue: -(j+1/2) on the "
                                 "(j+1)-dimensional block, +(j+1/2) on the j-dimensional block; the "
                                 "-(N+1/2) label used on the polynomial side is this same supercharge "
                                 "eigenvalue, not a separate operator"}
        if j:
            lower_diag, lower_off = closed_form_tridiagonal("F", j - 1)
            report["g_block"] = {"diag": g_tri.diag.tolist(), "offdiag": g_tri.offdiag.tolist()}
            report["offdiag_positive"] &= bool(np.all(g_tri.offdiag > 0))
            report["g_matches_f_pattern_one_degree_lower"] = bool(
                np.allclose(g_tri.diag, lower_diag, atol=EIGEN_TOL)
                and np.allclose(g_tri.offdiag, lower_off, atol=EIGEN_TOL))
        reports.append(report)
    return reports


def decompose(space: HarmonicSpace) -> dict:
    """Split degree j into the two irreducible blocks and report the evidence.

    Returns a JSON-able report: block dimensions (j+1, j), the K1
    tridiagonal data of each block, off-block residuals of Q, K1, K2, K3
    in the combined F+G basis, and the check that the G-block data equal
    the F-block pattern one dimension lower.

    O(j) time and memory, with no dense array: F and G are keyed operators
    with four entries per vector, eigen-verified against the same Q and K3,
    and every residual is read from the keys of a product such as G^H Q F
    (_decomposition, which verify runs on a stack of degrees).
    """
    return _decomposition({"Q": supercharge(space),
                           **{f"K{i}": symmetry_generator(i, space) for i in (1, 2, 3)}},
                          _fg_operator(space, "F"), _fg_operator(space, "G"))[0]
