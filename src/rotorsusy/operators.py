"""so(3) generators, coordinate reflections and operator algebra on one
degree, or on every degree 0..J at once.

An Operator is its closed-form action on the basis states: each key
(s, c), s = +1 or -1, holds a coefficient array over m = -j..j
(ascending, flat index i = m + j), and the operator sends

    Y_j^m -> sum over keys of coef(m) Y_j^{s m + c}.

    J3 Y_j^m = m Y_j^m
    J+ Y_j^m = a(m) Y_j^{m+1},  a(m) = sqrt((j-m)(j+m+1))
    R1 Y_j^m = Y_j^{-m},  R2 Y_j^m = (-1)^m Y_j^{-m},  R3 Y_j^m = (-1)^{j+m} Y_j^m
    H  Y_j^m = (j+1/2)^2 Y_j^m

Such maps are closed under +, scaling, composition and the adjoint, so the
algebra works on the keys: (s_a, c_a) o (s_b, c_b) = (s_a s_b, s_a c_b + c_a)
with coefficient coef_a(s_b m + c_b) coef_b(m), and the adjoint of (s, c) is
(s, -s c).  Because every target is +-m + c, a key's columns and its rows
are each one contiguous range, so apply, composition and the dense matrix
(written only when asked for) all work on slices.  All norms are Frobenius
norms.

An Operator on a DegreeStack(J) holds the degrees 0..J together: each
coefficient array is (J+1, 2J+1), row j being degree j over the shared
orders m = -J..J, zero where |m| > j.  The algebra indexes coefficients as
coef[..., cols], so one code path and one set of builders serve both; op_norm
and spectrum give one result per degree, and Operator.at(j) is degree j alone.

J- is the adjoint of J+, J1 = (J+ + J-)/2 and J2 = (J+ - J-)/(2i).  The
product formula H = J1^2 + J2^2 + J3^2 + 1/4 lives in verification.py,
where it serves as the oracle of the closed form.

Complex conjugation of functions, Theta Y_j^m = (-1)^m Y_j^{-m}, commutes
with the reflections and with -i J_k, so with Q, Q', K1-K3, H and C (not
with J1, J2 or J3).  On the keys that is one exact identity,
coef_(s,-c)(-m) = (-1)^c conj(coef_(s,c)(m)), and such an operator is a
real matrix in the K3-adapted basis B^0 = Y^0 and, for m > 0,

    B^{+-m} = ((1 -+ i) Y^{-m} + (-1)^m (1 +- i) Y^m) / 2,

a unit phase times an eigenvector M_j^{m,eps} of K3, so an operator that
commutes with K3 (Q, Q', H, C) splits there into blocks of size at most 2,
as J3 does.  spectrum forms U^H A U (U Y^mu = B^mu) of any operator with the
keyed product and splits it on its exact nonzero pattern; each stage adds two
terms, exact in binary, so for the operators above every entry is real.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractViolation
from .harmonics import HarmonicSpace

__all__ = [
    "DegreeStack",
    "Operator",
    "SpectrumReport",
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


@dataclass(frozen=True)
class DegreeStack:
    """The degrees 0..j at once (see the module docstring): j is the top
    degree, degrees the column 0..j and dim the dimension 2d+1 of each."""

    j: int
    m_values = HarmonicSpace.m_values

    def __post_init__(self):
        HarmonicSpace(self.j)  # the same check of j

    @property
    def degrees(self) -> np.ndarray:
        return np.arange(self.j + 1)[:, None]

    @property
    def dim(self) -> np.ndarray:
        return 2 * np.arange(self.j + 1) + 1


@dataclass(frozen=True, eq=False)
class Operator:
    """A linear operator on one harmonic space or on a DegreeStack, stored
    as its action: terms maps each key (s, c) to the read-only coefficient
    array over m of Y_j^m -> coef(m) Y_j^{s m + c}.

    The constructor checks its input: s is +1 or -1, c an integer, coef a
    scalar or an array that broadcasts over m (and over the degrees of a
    stack), and no nonzero coefficient of degree j meets a target outside
    -j..j (ValueError otherwise); it zeroes the padding of a stack.  Results
    of the algebra are built by _keyed and skip the check; a key whose
    coefficients cancel to zero in a sum drops out.
    """

    space: HarmonicSpace
    terms: Mapping

    __array_ufunc__ = None  # array * Operator scales by the array (Operator.__rmul__)

    def __post_init__(self):
        if not isinstance(self.terms, Mapping):
            raise TypeError(f"terms must map keys (s, c) to coefficients, got "
                            f"{type(self.terms).__name__}")
        pad = np.abs(self.space.m_values()) > self.space.degrees  # all False on one degree
        checked = {}
        for (s, c), coef in self.terms.items():
            if s not in (1, -1) or c != int(c):
                raise ValueError(f"key ({s!r}, {c!r}) is not (+-1, integer)")
            coef = np.full(pad.shape, coef, dtype=complex)
            coef[pad] = 0.0
            if np.count_nonzero(coef[_stray(self.space, int(s), int(c))]):
                raise ValueError(f"nonzero coefficient of key ({s}, {c}) on a target outside -j..j")
            checked[int(s), int(c)] = coef
        object.__setattr__(self, "terms", _frozen(checked))

    @classmethod
    def _keyed(cls, space, terms):
        """The operator with these terms, taken as checked: the algebra's
        results are built from checked operators and skip the check."""
        op = object.__new__(cls)
        object.__setattr__(op, "space", space)
        object.__setattr__(op, "terms", _frozen(terms))
        return op

    def at(self, j: int) -> "Operator":
        """Degree j of an operator on a DegreeStack, on HarmonicSpace(j)."""
        return self._window(j, j, HarmonicSpace)

    def upto(self, j: int) -> "Operator":
        """Degrees 0..j of an operator on a DegreeStack, on DegreeStack(j), as views."""
        return self._window(slice(j + 1), j, DegreeStack)

    def _window(self, rows, j, space):
        top = self.space.j
        if not (isinstance(self.space, DegreeStack) and 0 <= j <= top):
            raise ValueError(f"degree {j!r} is not in the stack {self.space}")
        return Operator._keyed(space(j), {k: v[rows, top - j:top + j + 1] for k, v in self.terms.items()})

    def _one_degree(self):
        """(j, 2j+1) of an operator on one degree; ValueError on a DegreeStack."""
        if isinstance(self.space, DegreeStack):
            raise ValueError(f"an operator on {self.space} has no single matrix; take .at(j)")
        return self.space.j, self.space.dim

    @property
    def matrix(self) -> np.ndarray:
        """The dense (2j+1, 2j+1) matrix, written anew on each call."""
        j, d = self._one_degree()
        return _columns(self.space, self.terms.items(), d, -j)

    def apply(self, v) -> np.ndarray:
        """self.matrix @ v without the matrix, for v of shape (2j+1, ...):
        each key adds coef * v[cols] to the rows out[rows], in O(keys * v.size)."""
        j, d = self._one_degree()
        if np.shape(v)[:1] != (d,):
            raise ValueError(f"vector shape {np.shape(v)} does not start with dim {d}")
        out = np.zeros(np.shape(v), dtype=complex)
        for (s, c), coef in self.terms.items():
            cols, rows = _slices(j, s, c, d, -j)
            out[rows] += coef[cols].reshape((-1,) + (1,) * (out.ndim - 1)) * v[cols]
        return out

    def _check_space(self, other):
        if not isinstance(other, Operator):
            raise TypeError(f"expected Operator, got {type(other).__name__}")
        if other.space != self.space:
            raise ValueError(f"operator space mismatch: {self.space} vs {other.space}")

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def _combine(self, other, op):
        """self + other or self - other (op = np.add or np.subtract), key by
        key; a key that cancels to zero drops out of later products."""
        self._check_space(other)
        out = dict(self.terms)
        for key, coef in other.terms.items():
            if key not in out:
                out[key] = coef if op is np.add else -coef
            elif np.count_nonzero(total := op(out[key], coef)):
                out[key] = total
            else:
                del out[key]
        return Operator._keyed(self.space, out)

    def __neg__(self):
        return Operator._keyed(self.space, {k: -v for k, v in self.terms.items()})

    def __mul__(self, c):
        """Scaling by a number, or on a stack by a column of one per degree."""
        c = np.asarray(c, dtype=complex)
        if c.shape not in ((), np.shape(self.space.degrees)):
            raise ValueError(f"cannot scale by an array of shape {c.shape}")
        return Operator._keyed(self.space, {k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check_space(other)
        j = self.space.j
        keys, slots, blocks = _product_plan(tuple(self.terms), tuple(other.terms))
        if not keys:
            return Operator._keyed(self.space, {})
        a = np.array(list(self.terms.values()))
        prod = np.zeros((slots.size,) + a.shape[1:], dtype=complex)
        for y, ((sb, cb), b) in enumerate(other.terms.items()):
            cols, rows = _slices(j, sb, cb, 2 * j + 1, -j)
            prod[slots[y], ..., cols] = a[..., rows] * b[..., cols]
        sums = {}
        for start, n, groups in blocks:
            part = prod[start:start + n * len(groups)].reshape((n, len(groups)) + a.shape[1:])
            if n > 1:  # the order of np.add.reduceat: the first pair plus the pairwise sum of the rest
                _pairwise(part[1:])
            sums.update(zip(groups, part[0] + part[1] if n > 1 else part[0]))
        return Operator._keyed(self.space, {key: sums[g] for g, key in enumerate(keys)})


@lru_cache(maxsize=1024)
def _product_plan(a_keys: tuple, b_keys: tuple):
    """How a @ b sums its key pairs: the keys (s_a s_b, s_a c_b + c_a) of the
    product, in order of first appearance; slots[y, x], the row of the pair
    of key y of b and key x of a in the stack of pair products; and its
    blocks (start, n, groups), one per count n of pairs, whose row start +
    i len(groups) + g holds pair i, in pair order, of the key groups[g]."""
    keys, pairs = {}, []
    for y, (sb, cb) in enumerate(b_keys):
        for x, (sa, ca) in enumerate(a_keys):
            g = keys.setdefault((sa * sb, sa * cb + ca), len(keys))
            if g == len(pairs):
                pairs.append([])
            pairs[g].append(y * len(a_keys) + x)
    slots, blocks, start = np.empty(len(a_keys) * len(b_keys), dtype=int), [], 0
    for n in sorted({len(p) for p in pairs}):
        groups = [g for g, p in enumerate(pairs) if len(p) == n]
        for i in range(n):
            slots[[pairs[g][i] for g in groups]] = range(start + i * len(groups), start + (i + 1) * len(groups))
        blocks.append((start, n, tuple(groups)))
        start += n * len(groups)
    slots = slots.reshape(len(b_keys), len(a_keys))
    slots.setflags(write=False)
    return tuple(keys), slots, tuple(blocks)


def _pairwise(p: np.ndarray):
    """p[0] += p[1:] in the order of numpy's pairwise sum of r = len(p)
    complex terms: in sequence for r < 4; for r <= 64, four running sums of
    every fourth term to the last multiple of 4, added as (s0 + s1) +
    (s2 + s3), then the rest in sequence; above, two halves summed so."""
    r, tail = len(p), 1
    if r > 64:
        half = r // 2 - r // 2 % 4
        _pairwise(p[:half])
        _pairwise(p[half:])
        p[0] += p[half]
        return
    if r >= 4:
        tail = r - r % 4
        for i in range(4, tail):
            p[i % 4] += p[i]
        p[0] += p[1]
        p[2] += p[3]
        p[0] += p[2]
    for i in range(tail, r):
        p[0] += p[i]


def _frozen(terms: dict) -> dict:
    """terms, with each coefficient array made read-only."""
    for coef in terms.values():
        coef.setflags(write=False)
    return terms


@lru_cache(maxsize=1024)
def _stray(space, s: int, c: int) -> np.ndarray:
    """The read-only mask of the orders m, padding aside, whose target s m + c
    of the key (s, c) lies outside -j..j."""
    m, j = space.m_values(), space.degrees
    mask = (np.abs(m) <= j) & (np.abs(s * m + c) > j)
    mask.setflags(write=False)
    return mask


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Eigenvalues (ascending) with multiplicities, clustered at CLUSTER_TOL."""

    eigenvalues: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self):
        ev, mult = np.array(self.eigenvalues), np.array(self.multiplicities, dtype=int)
        if ev.shape != mult.shape or ev.ndim != 1:
            raise ValueError("eigenvalues and multiplicities must be 1-d of equal length")
        for name, arr in (("eigenvalues", ev), ("multiplicities", mult)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return int(self.multiplicities.sum())


def _ladder(space: HarmonicSpace):
    """Arrays (m, up, down) over m = -j..j: up = sqrt((j-m)(j+m+1)) is the
    J+ coefficient and down = sqrt((j+m)(j-m+1)) the J- coefficient of Y_j^m
    (0 on the padding of a stack).

    Note up(-m) = down(m), so down is also the J+ coefficient of Y_j^{-m}.
    """
    j, m = space.degrees, space.m_values()
    return (m, np.sqrt(np.maximum((j - m) * (j + m + 1.0), 0.0)),
            np.sqrt(np.maximum((j + m) * (j - m + 1.0), 0.0)))


def _span(start: int, step: int, count: int) -> slice:
    """The slice start, start + step, ... of count indices (step may be < 0)."""
    stop = start + step * count
    return slice(start, stop if stop >= 0 else None, step)


@lru_cache(maxsize=4096)
def _slices(j: int, s: int, c: int, n: int, first: int):
    """(cols, rows) of the key (s, c) over n columns, column i standing for
    first + i: the contiguous columns whose target s (first + i) + c lies in
    -j..j, and the rows target + j they land on (backwards for s = -1)."""
    r0 = s * first + c + j  # the row of column 0
    lo = max(0, -r0 if s == 1 else r0 - 2 * j)
    hi = min(n, 2 * j + 1 - r0 if s == 1 else r0 + 1)
    if hi <= lo:
        return slice(0, 0), slice(0, 0, 1)
    return slice(lo, hi), _span(r0 + s * lo, s, hi - lo)


def _columns(space: HarmonicSpace, terms, n: int, first: int = 0) -> np.ndarray:
    """The (2j+1, n) array whose column i is the sum over ((s, c), coef) in
    terms of coef[i] Y_j^{s (first + i) + c}, each key written as one strided
    slice of the flat array; targets outside -j..j are dropped.  It writes
    Operator.matrix (first = -j) and the closed-form basis columns."""
    out = np.zeros((space.dim, n), dtype=complex)
    for (s, c), coef in terms:
        cols, rows = _slices(space.j, s, c, n, first)
        # flat step 0 only for s = -1 at n = 1, where a key has at most one entry
        span = _span(rows.start * n + cols.start, rows.step * n + 1 or 1, cols.stop - cols.start)
        out.reshape(-1)[span] += coef[cols]
    return out


def _transpose_apply(a: Operator, values, n: int, first: int) -> np.ndarray:
    """Rows m = first..first+n-1 of a^T values, for a on one degree and values of
    shape (2j+1, ...): row i is the sum over the keys (s, c) of
    coef(first + i) values[s (first + i) + c + j], one view of values per key,
    in O(keys * n * values[0].size)."""
    j = a.space.j
    out = np.zeros((n,) + np.shape(values)[1:], dtype=complex)
    for (s, c), coef in a.terms.items():
        cols, rows = _slices(j, s, c, n, first)
        out[cols] += coef[first + j:][cols].reshape((-1,) + (1,) * (out.ndim - 1)) * values[rows]
    return out


def identity(space: HarmonicSpace) -> Operator:
    """Identity operator."""
    return Operator(space, {(1, 0): 1.0})


def j3(space: HarmonicSpace) -> Operator:
    """J3 Y_j^m = m Y_j^m."""
    return Operator(space, {(1, 0): space.m_values()})


def jplus(space: HarmonicSpace) -> Operator:
    """Raising operator, J+ Y_j^m = sqrt((j-m)(j+m+1)) Y_j^{m+1}."""
    return Operator(space, {(1, 1): _ladder(space)[1]})


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
    key, coef = {1: ((-1, 0), 1.0), 2: ((-1, 0), (-1.0) ** m),
                 3: ((1, 0), (-1.0) ** (space.degrees + m))}[axis]
    return Operator(space, {key: coef})


def hamiltonian(space: HarmonicSpace) -> Operator:
    """H = J1^2 + J2^2 + J3^2 + 1/4, built as the scalar (j + 1/2)^2 on degree j."""
    return Operator(space, {(1, 0): (space.degrees + 0.5) ** 2})


def commutator(a: Operator, b: Operator) -> Operator:
    """[a, b] = ab - ba."""
    return a @ b - b @ a


def anticommutator(a: Operator, b: Operator) -> Operator:
    """{a, b} = ab + ba."""
    return a @ b + b @ a


def adjoint(a: Operator) -> Operator:
    """Hermitian adjoint: the key (s, c) becomes (s, -s c), and the
    coefficient of each kept column moves, conjugated, to its row."""
    j = a.space.j
    out = {}
    for (s, c), coef in a.terms.items():
        cols, rows = _slices(j, s, c, 2 * j + 1, -j)
        new = np.zeros(coef.shape, dtype=complex)
        # + 0.0 makes a conjugated zero +0.0: on a stack a padding column lands
        # in the window, and the degree alone has +0.0 there
        new[..., rows] = coef[..., cols].conj() + 0.0
        out[s, -s * c] = new
    return Operator._keyed(a.space, out)


def _entries(a: Operator, diagonals=()):
    """(keys, coefs): the keys of a and the diagonal keys (1, c), c in
    diagonals, that it lacks, and a (keys, degrees, 2j+1) copy of their
    coefficients that holds every entry once.  Keys of one sign never share
    an entry; (1, c) and (-1, c') share the entry of column m = (c' - c)/2,
    which moves into (1, c).  So entry (r, k) is coef_(1,r-k)[k] +
    coef_(-1,r+k)[k], read once."""
    j, shape = a.space.j, (np.size(a.space.degrees), 2 * a.space.j + 1)
    keys = list(a.terms) + [(1, c) for c in diagonals if (1, c) not in a.terms]
    coefs = np.zeros((len(keys),) + shape, dtype=complex)
    coefs[:len(a.terms)] = np.reshape(list(a.terms.values()), (-1,) + shape)
    plus, anti, cols = _crossings(tuple(keys), j)
    if cols.size:
        coefs[plus, :, cols] += coefs[anti, :, cols]
        coefs[anti, :, cols] = 0.0
    return keys, coefs


@lru_cache(maxsize=1024)
def _crossings(keys: tuple, j: int):
    """(plus, anti, cols): the keys (1, c) at plus[i] and (-1, c') at anti[i]
    share the entry of column cols[i]; no (key, column) occurs twice."""
    plan = np.array([(x, y, (c_anti - c) // 2 + j) for x, (s, c) in enumerate(keys) if s == 1
                     for y, (s_anti, c_anti) in enumerate(keys)
                     if s_anti == -1 and (c_anti - c) % 2 == 0 and abs(c_anti - c) // 2 <= j], dtype=int)
    plan = plan.reshape(-1, 3).T
    plan.setflags(write=False)
    return plan


def _frobenius(coefs: np.ndarray) -> np.ndarray:
    """Per row r of coefs (keys, rows, n), the Frobenius norm of coefs[:, r],
    its squares added in sequence (np.cumsum) in the order (m, key): the zero
    padding of a stack adds 0, so each row has the bits of its degree alone."""
    sq = coefs.real ** 2 + coefs.imag ** 2
    flat = sq.transpose(1, 2, 0).reshape(sq.shape[1], -1)
    return np.sqrt(np.cumsum(flat, axis=1)[:, -1]) if flat.size else np.zeros(sq.shape[1])


def op_norm(a: Operator):
    """Frobenius norm, read from the keys with every entry once (_entries):
    a float, or on a DegreeStack an array of one norm per degree, with the
    bits of the norm on that degree alone (_frobenius)."""
    norms = _frobenius(_entries(a)[1])
    return norms if np.ndim(a.space.degrees) else float(norms[0])


def _adjoint_gap(a: Operator):
    """(keys, coefs, gap): the entries of a (_entries) with the key (1, -c)
    of each of its keys (1, c), and from them the Frobenius norm of a - a^H
    per degree.  Entry (r, k) is held by (1, r - k) if a has that key, else
    by (-1, r + k), and (k, r) by (1, k - r) or (-1, r + k); so with both of
    (1, +-c) at hand the transpose of (s, c) is the key (s, -s c)."""
    keys, coefs = _entries(a, diagonals=[-c for s, c in a.terms if s == 1])
    where, j = {key: x for x, key in enumerate(keys)}, a.space.j
    diff = coefs.copy()
    for x, (s, c) in enumerate(keys):
        cols, rows = _slices(j, s, c, 2 * j + 1, -j)
        diff[x, :, cols] -= coefs[where[s, -s * c], :, rows].conj()
    return keys, coefs, _frobenius(diff)


@lru_cache(maxsize=256)
def _mirrors(keys: tuple):
    """(mirror, sign) for the conjugation identity on these keys: the index
    of each key's mirror (s, -c), or len(keys) where it has none, and the
    sign (-1)^c of each key, shaped to scale a stack of coefficients."""
    where = {key: x for x, key in enumerate(keys)}
    plan = (np.array([where.get((s, -c), len(keys)) for s, c in keys], dtype=int),
            np.array([1 - 2 * (c % 2) for _, c in keys], dtype=float).reshape(-1, 1, 1))
    for a in plan:
        a.setflags(write=False)
    return plan


def _conjugation_even(keys, coefs) -> np.ndarray:
    """Per degree, whether the entries (keys, coefs) of _entries satisfy
    coef_(s,-c)(-m) = (-1)^c conj(coef_(s,c)(m)) exactly, with no tolerance
    (see the module docstring); a key without its mirror must be zero."""
    mirror, sign = _mirrors(tuple(keys))
    mirrors = np.concatenate([coefs, np.zeros_like(coefs[:1])])[mirror, :, ::-1]  # a zero row stands in
    return np.all(mirrors == sign * coefs.conj(), axis=(0, 2))


def _per_degree(kept, *args):
    """kept(*args): from its bounded lru_cache on one degree args[-1], built anew on a DegreeStack."""
    return (kept if isinstance(args[-1], HarmonicSpace) else kept.__wrapped__)(*args)


@lru_cache(maxsize=64)
def _k3_basis(space):
    """(U^H, U), U Y^mu = B^mu (module docstring); called through _per_degree."""
    m, t = space.m_values(), (-1.0) ** space.m_values()
    u = Operator(space, {(1, 0): np.where(m == 0, 1.0, np.where(m > 0, t, 1.0) * (0.5 + 0.5j)),
                         (-1, 0): np.where(m == 0, 0.0, np.where(m < 0, t, 1.0) * (0.5 - 0.5j))})
    return adjoint(u), u


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The least node of the component of each node 0..n-1 in the graph of
    the edges (u, v): union-find, hooking roots and jumping pointers."""
    root = np.arange(n)
    while (join := root[u] != root[v]).any():
        np.minimum.at(root, np.maximum(root[u], root[v])[join], np.minimum(root[u], root[v])[join])
        while not np.array_equal(up := root[root], root):
            root = up
    return root


def _k3_blocks(a: Operator, even: np.ndarray):
    """The blocks of B = U^H A U, the components of its off-diagonal nonzero
    entries (no tolerance), as (nodes, mats) per block size k: the flat nodes
    degree (2j+1) + mu + j of each block, ascending, in (count, k), and its
    entries in (count, k, k), real if all are.  An imaginary part where even holds raises."""
    j, n, (uh, u) = a.space.j, 2 * a.space.j + 1, _per_degree(_k3_basis, a.space)
    keys, b = _entries(uh @ (a @ u))
    if np.any(b.imag[:, even]):
        raise ContractViolation("an entry in the K3-adapted basis is not real")
    x, deg, col = np.nonzero(b)
    s, c = np.array(keys, dtype=int).reshape(-1, 2).T
    row, col, val = deg * n + s[x] * (col - j) + c[x] + j, deg * n + col, b[x, deg, col]
    root = _components(even.size * n, row[row != col], col[row != col])
    node = np.flatnonzero(np.abs(a.space.m_values()) <= a.space.degrees)
    size = np.bincount(root[node], minlength=root.size)[root]
    node = node[np.lexsort((node, root[node], size[node]))]  # by block size, block, slot
    rank = np.zeros(root.size, dtype=int)
    rank[node] = np.arange(node.size)
    out, start = [], 0
    for k in np.flatnonzero(np.bincount(size[node])):
        nodes, hit = node[size[node] == k].reshape(-1, k), size[col] == k
        ri, ci = rank[row[hit]] - start, rank[col[hit]] - start
        mats = np.zeros((len(nodes), k, k), dtype=complex)
        mats[ci // k, ri % k, ci % k] = val[hit]
        out.append((nodes, mats if mats.imag.any() else mats.real))
        start += nodes.size
    return out


def spectrum(a: Operator):
    """Eigenvalues of a self-adjoint operator in clusters of width
    CLUSTER_TOL: a SpectrumReport, or on a DegreeStack a tuple of one per
    degree with the bits of spectrum(a.at(j)).  Any j >= 0.

    One path for every operator, with no dense matrix: the exact blocks of
    _k3_blocks, one eigvalsh call per block size.  O(j) where the blocks have
    size 1 or 2 (Q, Q', H, C, K3, J3, R1-R3), O(j^3) for one block (K1, K2,
    J1, J2).  ContractViolation for a degree not Hermitian within 1e-10 of its
    norm (naming its deviation) or conjugation-even with a block not real."""
    keys, coefs, herm = _adjoint_gap(a)
    stacked = isinstance(a.space, DegreeStack)
    bad = np.flatnonzero(herm > 1e-10 * np.maximum(1.0, _frobenius(coefs)))
    if bad.size:
        raise ContractViolation(f"matrix is not self-adjoint (deviation {herm[bad[0]]:.3e})"
                                + f" at j={bad[0]}" * stacked)
    blocks = _k3_blocks(a, _conjugation_even(keys, coefs))
    degs = np.concatenate([nodes.ravel() for nodes, _ in blocks]) // (2 * a.space.j + 1)
    vals = np.concatenate([np.linalg.eigvalsh(mats).ravel() for _, mats in blocks])
    parts = np.split(vals[np.lexsort((vals, degs))], np.cumsum(np.bincount(degs))[:-1])
    reports = tuple(_clustered(part) for part in parts)
    return reports if stacked else reports[0]


def _clustered(vals) -> SpectrumReport:
    """Ascending values in clusters: one within CLUSTER_TOL of a cluster's first value joins it."""
    firsts, floats = [], vals.tolist()  # Python floats: the same sums, compared faster
    for i, v in enumerate(floats):
        if not (firsts and abs(v - floats[firsts[-1]]) <= CLUSTER_TOL):
            firsts.append(i)
    return SpectrumReport(eigenvalues=np.take(vals, firsts), multiplicities=np.diff(firsts + [len(vals)]))
