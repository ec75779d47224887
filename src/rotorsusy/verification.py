"""Invariant suites over all modules, aggregated into one report.

Each check is declared once, by @_check on its body: its name, the cap of
its degree range, its first degree, its base tolerance, its detail
template, and whether its residual is a lower bound.  The body is a
generator body(range, run) that yields residuals, one per degree or per
item (run is the _Run that all checks of one run share).  It raises
_Broken on a structural failure (a broken split, pattern, label or
control: residual inf).  One runner, _run_check, alone decides pass or
fail: it clamps the range, writes the empty-range row, reduces the
residuals with a max (a min for a lower bound) that carries a NaN
through, and scales the tolerance.  A crash inside one check is reported
as a failure of that check rather than aborting the run.

The library builds H, Q, Q', K1..K3 and C from their closed-form actions
on Y_j^m.  The paper's reflection-product formulas live here instead, in
_product_operators, as the independent oracle: every check that reads one
of those operators also measures its distance from the product formula.
The operator and susy algebra checks run once on an operators.DegreeStack
of all their degrees and yield one residual per degree; op_norm takes each
degree's norm over that degree's own block, so the residuals have the bits
of a run degree by degree.

One run builds each object once.  What is O(j) and read-only is memoized
process-wide behind the library's builders: the keyed closed forms of
supercharge and symmetry_generator on one degree and the tables of
recurrence_coeffs and grid and the keyed F and G of eigenbases._fg_operator,
each eigen-verified once per degree (bounded lru_caches).  The rest, the
dense objects (O(j^2) per degree or more) and the stack's operators and
its F and G (O(J^2)), are shared only inside the run's _Run and go with
it: held past the run, they would raise the resident memory of every
later call.
"""

import random
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, factorial, inf, isnan, nan, pi, sqrt

import numpy as np

from . import antikrawtchouk as ak
from . import eigenbases as eb
from . import operators as op
from .harmonics import HarmonicSpace, _legendre_degrees, _orders, build_grid, harmonic_values
from . import susy

__all__ = ["CheckResult", "VerificationReport", "run_verification", "SUITES"]

SUITES = ("harmonics", "operators", "susy", "eigenbases", "polynomials", "overlaps")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    elapsed: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    j_max: int
    tolerance_scale: float
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def n_failed(self) -> int:
        return sum(not c.passed for c in self.checks)

    def as_dict(self) -> dict:
        """JSON-able summary.  Timing is excluded so exports are
        deterministic across runs; it stays in the rendered table."""
        return {
            "j_max": self.j_max,
            "tolerance_scale": self.tolerance_scale,
            "all_passed": self.all_passed,
            "checks": [
                {
                    "name": c.name,
                    "status": "pass" if c.passed else "fail",
                    "residual": c.residual,
                    "tolerance": c.tolerance,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }

    def table_lines(self):
        width = max((len(c.name) for c in self.checks), default=4)
        head = f"{'check':<{width}}  {'status':<6}  {'residual':>12}  {'tolerance':>12}  {'time':>8}"
        lines = [head, "-" * len(head)]
        for c in self.checks:
            lines.append(
                f"{c.name:<{width}}  {'pass' if c.passed else 'FAIL':<6}  "
                f"{c.residual:>12.3e}  {c.tolerance:>12.3e}  {c.elapsed:>7.3f}s"
            )
        lines.append(
            f"j_max={self.j_max} scale={self.tolerance_scale} "
            f"=> {len(self.checks) - self.n_failed}/{len(self.checks)} passed"
        )
        return lines


# ---------------------------------------------------------------------------
# independent point-evaluation oracle (explicit series, no recurrences)

def _ylm_prefactor(j: int, am: int) -> float:
    # exact integer ratio (j-am)!/(j+am)!, correctly rounded by int division; it turns
    # subnormal past j + am = 170 and 0 from 178, far above the oracle's j <= 10
    ratio = factorial(j - am) / factorial(j + am)
    return sqrt((2 * j + 1) / (4.0 * pi) * ratio)


def _ylm_direct(j, m, theta, phi):
    """Direct-summation Y_j^m from the explicit Legendre series.

    P_j(z) = 2^-j sum_k (-1)^k C(j,k) C(2j-2k,j) z^(j-2k), differentiated
    term-by-term |m| times.  Exact integer combinatorics, independent of
    the production recurrence path.
    """
    am = abs(m)
    z = np.cos(theta)
    series = np.zeros_like(z)
    for k in range(j // 2 + 1):
        p = j - 2 * k
        if p < am:
            continue
        coef = (-1.0) ** k * comb(j, k) * comb(2 * j - 2 * k, j)
        coef *= factorial(p) / factorial(p - am)
        series = series + coef * z ** (p - am)
    assoc = (-1.0) ** am * (1 - z * z) ** (am / 2.0) * series / 2.0 ** j
    val = _ylm_prefactor(j, am) * assoc * np.exp(1j * m * phi)
    if m < 0:
        val = val * (-1.0) ** am
    return val


# ---------------------------------------------------------------------------
# order-8 finite-difference angular derivatives for the quadrature oracle

_FD = ((1, 4.0 / 5.0), (2, -1.0 / 5.0), (3, 4.0 / 105.0), (4, -1.0 / 280.0))
_FD_H = 0.01


def _derivative(shifted):
    """The stencil's derivative from shifted[:, i], the values at the angle moved by _FD_H times
    the i-th of the offsets (1, 2, 3, 4, -1, -2, -3, -4)."""
    acc = 0.0
    for i, (_, w) in enumerate(_FD):
        acc = acc + w * (shifted[:, i] - shifted[:, i + len(_FD)])
    return acc / _FD_H


def _reflected(values, axis):
    """Values on a build_grid mesh (last two axes theta, phi) at the points
    reflected by R_axis, as an index permutation.  The Gauss nodes are
    symmetric, so theta -> pi - theta reverses them; n_phi is even, so
    phi_p -> -phi_p is p -> -p and phi_p -> pi - phi_p is p -> n_phi/2 - p,
    mod n_phi."""
    if axis == 3:
        return values[..., ::-1, :]
    n = values.shape[-1]
    return values[..., (n // 2 * (axis == 1) - np.arange(n)) % n]


def _theta_grams(grid):
    """Per order m = 0..top, the Gram 2 pi sum_t w_t Pbar_l^m(z_t) Pbar_l'^m(z_t)
    of the degrees l, l' = m..top (entry [l-m, l'-m]) on grid = build_grid(top),
    read from one all-degree Legendre table; 2 pi is the phi integral."""
    top = grid.theta_nodes.size - 1
    table = _legendre_degrees(top, grid.theta_nodes)
    return [2 * pi * (table[m:, m] * grid.theta_weights) @ table[m:, m].T for m in range(top + 1)]


# ---------------------------------------------------------------------------
# the oracles of the closed-form operators and of F and G

def _product_operators(space):
    """The paper's product formulas, evaluated literally on the keyed algebra.

    H = J1^2 + J2^2 + J3^2 + 1/4,
    Q = -i J1 R3 + i J2 R2 R3 - i J3 R2 - 1/2,
    Q' = -i J1 R1 R2 + i J2 R1 - i J3 R1 R3 - R1 R2 R3 / 2,
    K1 = i J1 R2 + R2 R3 / 2,  K2 = -i J2 R1 R2 + R1 R3 / 2,
    K3 = i J3 R1 + R1 R2 / 2,  C = K1^2 + K2^2 + K3^2.
    """
    a, b, c = op.j1(space), op.j2(space), op.j3(space)
    r1, r2, r3 = (op.reflection(i, space) for i in (1, 2, 3))
    ident = op.identity(space)
    k1 = 1j * (a @ r2) + 0.5 * (r2 @ r3)
    k2 = -1j * (b @ (r1 @ r2)) + 0.5 * (r1 @ r3)
    k3 = 1j * (c @ r1) + 0.5 * (r1 @ r2)
    return susy.SusyOperators(
        space=space,
        h=a @ a + b @ b + c @ c + 0.25 * ident,
        q=-1j * (a @ r3) + 1j * (b @ (r2 @ r3)) - 1j * (c @ r2) - 0.5 * ident,
        q_alt=(-1j * (a @ (r1 @ r2)) + 1j * (b @ r1) - 1j * (c @ (r1 @ r3))
               - 0.5 * (r1 @ (r2 @ r3))),
        k1=k1,
        k2=k2,
        k3=k3,
        c=k1 @ k1 + k2 @ k2 + k3 @ k3,
    )


def _joint_oracle(q, k3):
    """The eigh oracle of F and G on one degree: eigh of Q, cut where its eigenvalues jump by > 1e-8,
    then eigh of K3 per cluster.  The columns (eigh's phases), ordered by (q, |k3|), and their (q, k3)."""
    q_vals, q_vecs = np.linalg.eigh(q.matrix)
    cuts = np.flatnonzero(np.diff(q_vals) > 1e-8) + 1
    vecs, labels = [], []
    for vals, block in zip(np.split(q_vals, cuts), np.split(q_vecs, cuts, axis=1)):
        sub = block.conj().T @ k3.apply(block)
        k3_vals, rot = np.linalg.eigh((sub + sub.conj().T) / 2.0)
        vecs.append(block @ rot)
        labels += [(round(float(np.mean(vals)), 6), round(v, 6)) for v in k3_vals.tolist()]
    order = sorted(range(len(labels)), key=lambda i: (labels[i][0], abs(labels[i][1])))
    return np.hstack(vecs)[:, order], [labels[i] for i in order]


def _fold(values, lower=False):
    """max of values (min if lower), NaN if any is NaN, 0.0 if none: Python's
    max(0.0, nan) is 0.0.  It stays in Python: a numpy array per fold kept
    about 4 MiB more heap resident after verify --jmax 30."""
    values = list(values)
    return nan if any(map(isnan, values)) else float((min if lower else max)(values, default=0.0))


class _Run:
    """What the checks of one run share, each built on first use: the
    tolerance scale, the stack of degrees 0..top with the closed-form bundle
    s and the product oracle o on it (.at(j) is one degree), the views
    upto(name, top) of s and the distances of the closed forms from the
    oracle (gap), the stacked F and G fg(top), and the grids grid(n), the
    overlap matrices w(N) and wr(N) of both routes, the M-bases m(j) and the
    theta-Grams grams(top).  No cache refers back to the run, so all of it
    goes when run_verification returns."""

    def __init__(self, scale, top):
        self.scale, self.stack, self._kept = scale, op.DegreeStack(top), {}
        grid = self.grid = lru_cache(maxsize=None)(build_grid)
        self.w = lru_cache(maxsize=None)(lambda n: ak._overlaps_via_integral(n, grid(n)))
        self.wr = lru_cache(maxsize=None)(ak.overlaps_via_recurrence)
        self.m = lru_cache(maxsize=None)(lambda j: eb.m_basis(HarmonicSpace(j)))
        self.grams = lru_cache(maxsize=None)(lambda top: _theta_grams(grid(top)))

    def _once(self, key, build):
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    @cached_property
    def s(self):
        return susy.susy_operators(self.stack)

    @cached_property
    def o(self):
        return _product_operators(self.stack)

    def upto(self, name, top):
        """Degrees 0..top of the closed form name, one object per run."""
        return self._once((name, top), lambda: getattr(self.s, name).upto(top))

    def fg(self, top):
        """The keyed F and G on degrees 0..top, eigen-verified once per run
        against upto("q", top) and upto("k3", top) (eigenbases._fg_build)."""
        q, k3 = self.upto("q", top), self.upto("k3", top)
        return self._once(("FG", top), lambda: [eb._fg_build(q.space, which, q, k3) for which in "FG"])

    def gap(self, *names):
        """Per degree, the largest Frobenius distance of the named closed forms from the oracle."""
        return np.max([self._once(n, lambda n=n: op.op_norm(getattr(self.s, n) - getattr(self.o, n)))
                       for n in names], axis=0)


# ---------------------------------------------------------------------------
# exact rational oracle of the closed-form weights

def _integers(values):
    """Exact Python ints from floats that must hold integers."""
    out = [int(v) for v in values]
    if any(o != v for o, v in zip(out, values)):
        raise ValueError("expected integer-valued data")
    return out


def _exact_weights(N, ratio=None):
    """Exact weights w_k = 1 / sum_n P_n(x_k)^2 / u_n as fractions.Fraction, or as
    ratio(numerator, denominator) of their integers: verify passes int division,
    correctly rounded, and so never loads fractions or decimal.

    With Q_n = 4^n P_n and U_n = prod_{i<=n} 16 c_i (so P_n^2 / u_n =
    Q_n^2 / U_n) every quantity is an integer, because 4 x_k, 4 b_n and
    16 c_n are: w_k = U_N / sum_n Q_n(x_k)^2 (U_N / U_n).  Independent of
    the production closed form, antikrawtchouk.weights.
    """
    if ratio is None:
        from fractions import Fraction as ratio
    table, g = ak.recurrence_coeffs(N), ak.grid(N)
    b4, c16, x4 = _integers(4 * table.monic_b), _integers(16 * table.monic_c), _integers(4 * g.x)
    tail = [1] * (N + 1)  # tail[n] = U_N / U_n
    for n in range(N - 1, -1, -1):
        tail[n] = tail[n + 1] * c16[n]
    out = []
    for x in x4:
        prev, cur, total = 0, 1, tail[0]
        for n in range(N):
            prev, cur = cur, (x - b4[n]) * cur - (c16[n - 1] * prev if n else 0)
            total += cur * cur * tail[n + 1]
        out.append(ratio(tail[0], total))
    return out


# ---------------------------------------------------------------------------
# the check registry: one declared row per check, one runner for all of them

class _Broken(Exception):
    """A structural failure (a broken split, weight, label or control): the
    check fails with residual inf and the message as its detail."""


@dataclass(frozen=True)
class _Check:
    name: str
    cap: int  # the range is first..cap, cut short at j_max
    tol: float  # before the tolerance scale
    detail: str  # formatted with top, the last degree
    body: object
    first: int = 0
    lower: bool = False  # the residual is a floor the run must exceed


_CHECKS = []


def _check(name, cap, tol, detail, first=0, lower=False):
    """Declare the decorated generator as a check; declaration order is report order."""
    def declare(body):
        _CHECKS.append(_Check(name, cap, tol, detail, body, first, lower))
        return body
    return declare


def _scaled(js, *residuals):
    """Per-degree residuals on the run's stack, cut to the degrees js and each
    divided by its dimension 2j+1."""
    js = np.array(js)
    for r in residuals:
        yield from r[js] / (2 * js + 1)


def _run_check(check, j_max, run):
    t0 = time.perf_counter()
    top, tolerance = min(j_max, check.cap), check.tol * run.scale
    try:
        if top < check.first:
            passed, residual, detail = True, 0.0, f"empty range (j_max < {check.first})"
        else:
            residual = _fold(check.body(range(check.first, top + 1), run), check.lower)
            detail = check.detail.format(top=top)
            passed = residual > tolerance if check.lower else residual <= tolerance
    except _Broken as exc:
        passed, residual, detail = False, inf, str(exc)
    except Exception as exc:  # noqa: BLE001 - report, do not abort the run
        passed, residual, detail = False, inf, f"check raised {type(exc).__name__}: {exc}"
    return CheckResult(check.name, passed, residual, tolerance, time.perf_counter() - t0, detail)


# ---------------------------------------------------------------------------
# the checks, in report order

@_check("harmonics.gram_identity", 20, 1e-12, "Gram vs identity, j <= {top}")
def _gram_identity(js, run):
    # the theta-Gram diagonals hold every degree and order; one full-mesh
    # Gram at the top degree tests the phi factor and the negative orders
    for g in run.grams(js[-1]):
        yield float(np.max(np.abs(np.diagonal(g) - 1.0)))
    grid, j = run.grid(js[-1]), js[-1]
    yv = harmonic_values(HarmonicSpace(j), grid).reshape(2 * j + 1, -1)
    yield float(np.max(np.abs((yv * grid.weight_mesh.ravel()) @ yv.conj().T - np.eye(2 * j + 1))))


@_check("harmonics.reflection_point_parity", 8, 1e-10, "pointwise R_i vs matrix, j <= {top}")
def _reflection_point_parity(js, run):
    grid = run.grid(max(js[-1], 1))
    for j in js:
        space = HarmonicSpace(j)
        yv = harmonic_values(space, grid)
        for axis in (1, 2, 3):
            # R^T Y from the keys: a sign per order, and m reversed for R1 and R2
            combo = op._transpose_apply(op.reflection(axis, space), yv, space.dim, -j)
            yield float(np.max(np.abs(_reflected(yv, axis) - combo)))


@_check("harmonics.direct_evaluation", 6, 1e-10, "recurrence vs series, j <= {top}")
def _direct_evaluation(js, run):
    rng = random.Random(12345)
    theta = np.array([rng.uniform(0.1, pi - 0.1) for _ in range(20)])
    phi = np.array([rng.uniform(0.0, 2 * pi) for _ in range(20)])
    for j in js:
        values = harmonic_values(HarmonicSpace(j), theta=theta, phi=phi)
        for m in range(-j, j + 1):
            yield float(np.max(np.abs(values[m + j] - _ylm_direct(j, m, theta, phi))))


@_check("harmonics.cross_degree_orthogonality", 20, 1e-12, "cross-degree overlaps, j <= {top}")
def _cross_degree(js, run):
    # the theta-Gram entries off the diagonal: two degrees of one order m
    for g in run.grams(js[-1]):
        yield float(np.max(np.abs(g - np.diag(np.diagonal(g)))))


@_check("operators.so3_commutators", 30, 1e-12, "scaled by dim, j <= {top}")
def _so3_commutators(js, run):
    a, b, c = op.j1(run.stack), op.j2(run.stack), op.j3(run.stack)
    yield from _scaled(js, *(op.op_norm(op.commutator(x, y) - 1j * z)
                             for x, y, z in ((a, b, c), (b, c, a), (c, a, b))))


@_check("operators.ladder_relations", 30, 1e-12, "[J+,J-]=2J3, J-=J+^, Casimir, j <= {top}")
def _ladder_relations(js, run):
    space = run.stack
    p, mi, m3 = op.jplus(space), op.jminus(space), op.j3(space)
    a, b = op.j1(space), op.j2(space)
    cas = a @ a + b @ b + m3 @ m3
    j = space.degrees
    yield from _scaled(js, op.op_norm(op.commutator(p, mi) - 2.0 * m3),
                       op.op_norm(op.adjoint(p) - mi),
                       op.op_norm(cas - j * (j + 1.0) * op.identity(space)))


@_check("operators.reflection_algebra", 30, 1e-12, "involutive, commuting, j <= {top}")
def _reflection_algebra(js, run):
    rs = [op.reflection(i, run.stack) for i in (1, 2, 3)]
    ident = op.identity(run.stack)
    yield from _scaled(js, *(op.op_norm(r @ r - ident) for r in rs),
                       *(op.op_norm(op.adjoint(r) - r) for r in rs),
                       *(op.op_norm(op.commutator(rs[a], rs[b])) for a, b in ((0, 1), (0, 2), (1, 2))))


@_check("operators.mixed_commutation", 30, 1e-12, "[J_i,R_i]=0, {{J_i,R_j}}=0, j <= {top}")
def _mixed_commutation(js, run):
    gens = [op.j1(run.stack), op.j2(run.stack), op.j3(run.stack)]
    rs = [op.reflection(i, run.stack) for i in (1, 2, 3)]
    yield from _scaled(js, *(op.op_norm(op.commutator(g, r) if a == b else op.anticommutator(g, r))
                             for a, g in enumerate(gens) for b, r in enumerate(rs)))


@_check("operators.hamiltonian_identity", 30, 1e-12, "H=(j+1/2)^2 I and symmetries, j <= {top}")
def _hamiltonian_identity(js, run):
    space, h = run.stack, run.o.h
    others = (op.j1(space), op.j2(space), op.j3(space),
              op.reflection(1, space), op.reflection(2, space), op.reflection(3, space))
    yield from _scaled(js, run.gap("h"), *(op.op_norm(op.commutator(h, x)) for x in others))


# the cap of 8 is the limit of the FD oracle, not of the library: the
# stencil alone is off by 3.1e-6 at j = 30 and 4.0e-5 at 40
@_check("operators.quadrature_matrix_elements", 8, 1e-8, "derivative/parity oracle, j <= {top}")
def _quadrature_matrix_elements(js, run):
    # J3, J+ and J- act on Y_j^m = Pbar_j^|m|(cos theta) exp(i m phi) (times (-1)^m,
    # conjugated, for m < 0) as differential operators, with the stencil on the separable
    # parts: theta on one all-degree Legendre table at the 8 shifted theta sets, and phi on
    # exp(i m phi), where it is one factor per order
    grid = run.grid(max(js[-1], 1))
    theta, phi, w = grid.theta[:, None], grid.phi[None, :], grid.weight_mesh.ravel()
    steps = _FD_H * np.array([off for off, _ in _FD] + [-off for off, _ in _FD])
    z = np.cos(grid.theta + steps[:, None])
    table = _legendre_degrees(js[-1], z.ravel()).reshape(js[-1] + 1, js[-1] + 1, *z.shape)
    for j in js:
        space = HarmonicSpace(j)
        yv = harmonic_values(space, grid)
        dt = _orders(_derivative(table[j, :j + 1])[..., None], phi)
        dp = yv * _derivative(np.exp(1j * np.outer(space.m_values(), steps)))[:, None, None]
        cot_dp = 1j * (np.cos(theta) / np.sin(theta)) * dp
        moved = {"J3": -1j * dp, "J+": np.exp(1j * phi) * (dt + cot_dp), "J-": np.exp(-1j * phi) * (-dt + cot_dp)}
        # bra @ moved.T is the quadrature of conj(Y_j^b) times each moved harmonic
        bra = np.conj(yv.reshape(space.dim, -1)) * w
        mats = {"J3": op.j3(space), "J+": op.jplus(space), "J-": op.jminus(space)}
        for axis in (1, 2, 3):
            moved[axis], mats[axis] = _reflected(yv, axis), op.reflection(axis, space)
        for which, values in moved.items():
            got = bra @ values.reshape(space.dim, -1).T
            yield float(np.max(np.abs(got - mats[which].matrix)))


@_check("susy.square_identity", 30, 1e-12, "both supercharges square to H, j <= {top}")
def _square_identity(js, run):
    s = run.s
    yield from _scaled(js, op.op_norm(s.q @ s.q - s.h), op.op_norm(s.q_alt @ s.q_alt - s.h),
                       run.gap("q", "q_alt", "h"))


@_check("susy.anticommutator_algebra", 30, 1e-12, "{{K_i,K_j}}=K_k cyclic, j <= {top}")
def _anticommutator_algebra(js, run):
    s = run.s
    yield from _scaled(js, *(op.op_norm(op.anticommutator(x, y) - z)
                             for x, y, z in ((s.k1, s.k2, s.k3), (s.k2, s.k3, s.k1), (s.k3, s.k1, s.k2))),
                       run.gap("k1", "k2", "k3"))


@_check("susy.commutant", 30, 1e-12, "[K_i,Q]=0, j <= {top}")
def _commutant(js, run):
    s = run.s
    yield from _scaled(js, *(op.op_norm(op.commutator(k, s.q)) for k in (s.k1, s.k2, s.k3)),
                       run.gap("q", "k1", "k2", "k3"))


@_check("susy.casimir_identity", 30, 1e-12, "C=Q^2-Q and centrality, j <= {top}")
def _casimir_identity(js, run):
    s = run.s
    # the closed form C = H - Q is central iff Q is; the claim is
    # that the sum of squares K1^2 + K2^2 + K3^2 is
    yield from _scaled(js, op.op_norm(s.c - s.q @ s.q + s.q),
                       *(op.op_norm(op.commutator(run.o.c, k)) for k in (s.k1, s.k2, s.k3)),
                       run.gap("c", "q", "k1", "k2", "k3"))


@_check("susy.q_spectrum", 30, 1e-8, "split (j+1, j) at -(j+1/2), +(j+1/2), j <= {top}")
def _q_spectrum(js, run):
    yield from _scaled(js, run.gap("q"))
    # the closed-form H is exactly scalar; its product formula is not
    reps = zip(op.spectrum(run.upto("q", js[-1])), op.spectrum(run.o.h.upto(js[-1])))
    for j, (rep, hrep) in enumerate(reps):
        if list(rep.multiplicities) != [j + 1] + ([j] if j else []):
            raise _Broken(f"multiplicity split broken at j={j}")
        yield float(np.max(np.abs(rep.eigenvalues - [-(j + 0.5), j + 0.5][:1 + bool(j)])))
        if list(hrep.multiplicities) != [2 * j + 1]:
            raise _Broken(f"H degeneracy broken at j={j}")
        yield float(np.max(np.abs(hrep.eigenvalues - (j + 0.5) ** 2)))


@_check("susy.non_symmetry", 30, 1e-6, "lower bound: residual must EXCEED tolerance",
        first=1, lower=True)
def _non_symmetry(js, run):
    s = run.s
    for norms in susy.non_symmetry_report(s.q)["commutator_with_q"].values():
        yield from norms[js[0]:js[-1] + 1]
    control = np.max([*(op.op_norm(op.commutator(run.o.h, k)) for k in (s.k1, s.k2, s.k3)),
                      run.gap("q", "k1", "k2", "k3")], axis=0)
    for j in js:
        if not control[j] <= 1e-12 * run.scale * (2 * j + 1):
            raise _Broken(f"[H,K_i] control failed at j={j}")


@_check("eigenbases.m_basis", 20, 1e-10, "orthonormal, invertible, K3-diagonal, j <= {top}")
def _m_basis(js, run):
    for j in js:
        basis = run.m(j)
        v = basis.coeffs
        yield basis.orthonormality_residual()
        yield float(np.max(np.abs(v @ v.conj().T - np.eye(2 * j + 1))))
        k3v = np.array([lab["k3"] for lab in basis.labels])
        yield float(np.max(np.abs(run.o.k3.at(j).apply(v) - v * k3v)))


@_check("eigenbases.q_in_m_basis", 20, 1e-12, "closed-form three-term action, j <= {top}")
def _q_in_m_basis(js, run):
    for j in js:
        v = run.m(j).coeffs
        conj = v.conj().T @ run.o.q.at(j).apply(v)
        yield float(np.max(np.abs(conj - eb.q_action_on_m(HarmonicSpace(j))))) / (2 * j + 1)


@_check("eigenbases.closed_form_eigen", 20, 1e-10, "matches joint-diagonalization oracle, j <= {top}")
def _closed_form_eigen(js, run):
    f, g = run.fg(js[-1])
    for j in js:
        fb, gb = eb._fg_basis(f.at(j), "F"), eb._fg_basis(g.at(j), "G")
        vecs, labels = _joint_oracle(run.o.q.at(j), run.o.k3.at(j))
        t = np.column_stack([fb.coeffs, gb.coeffs])
        yield float(np.max(np.abs(t.conj().T @ t - np.eye(2 * j + 1))))
        if labels != [(lab["q"], lab["k3"]) for lab in fb.labels + gb.labels]:
            raise _Broken(f"oracle label mismatch at j={j}")
        # the modulus of each overlap: the oracle's phases are arbitrary
        overlap = np.abs(np.sum(vecs.conj() * t, axis=0))
        yield float(np.max(np.abs(overlap - 1.0)))


@_check("eigenbases.tridiagonal_data", 20, 1e-10, "matches closed forms, j <= {top}")
def _tridiagonal_data(js, run):
    # F and G eigen-verified against the closed forms, K1 from the product oracle
    k1 = run.o.k1.upto(js[-1])
    for which, b in zip("FG", run.fg(js[-1])):
        for j, data in enumerate(eb._tridiagonal_blocks(op.adjoint(b) @ (k1 @ b), which)):
            if data is not None:
                exp_d, exp_o = eb.closed_form_tridiagonal(which, j)
                yield float(np.max(np.abs(np.concatenate((data.diag - exp_d, data.offdiag - exp_o)))))


@_check("eigenbases.block_structure", 20, 1e-10, "invariant blocks, sizes (j+1, j), j <= {top}")
def _block_structure(js, run):
    # a non-positive off-diagonal or a G block off the F pattern raises in _decomposition
    ops = {name: run.upto(name.lower(), js[-1]) for name in ("Q", "K1", "K2", "K3")}
    for report in eb._decomposition(ops, *run.fg(js[-1])):
        yield report["completeness_residual"]
        yield from report["offblock_residuals"].values()


@_check("polynomials.characteristic_vanishing", 20, 1e-8, "P_(N+1) vanishes on grid, N <= {top}",
        first=1)
def _characteristic_vanishing(ns, run):
    for n in ns:
        table = ak.recurrence_coeffs(n)
        g = ak.grid(n)
        vals = np.abs(ak.eval_monic(table, n + 1, g.x))
        hull = np.linspace(g.x.min(), g.x.max(), 201)
        scale = float(np.max(np.abs(ak.eval_monic(table, n + 1, hull))))
        yield float(np.max(vals)) / max(scale, 1.0)


@_check("polynomials.discrete_orthogonality", 20, 1e-9, "relative to norms u_n, N <= {top}",
        first=1)
def _discrete_orthogonality(ns, run):
    for n in ns:
        table = ak.recurrence_coeffs(n)
        g = ak.grid(n)
        wt = ak.weights(n)
        u = np.cumprod(np.concatenate(([1.0], table.monic_c)))
        # Gram of the orthonormalized family: the symmetric relative
        # residual (entry (n,m) scaled by sqrt(u_n u_m)); monic values at
        # mixed degrees span ~18 orders of magnitude, so a row-wise
        # scaling is not reachable in double precision.
        p = ak.monic_table(table, n, g.x)
        v = p / np.sqrt(u)[:, None]
        gram = np.einsum("k,ak,bk->ab", wt.derived, v, v)
        yield float(np.max(np.abs(gram - np.eye(n + 1))))
        diag = np.einsum("k,ak,ak->a", wt.derived, p, p)
        yield float(np.max(np.abs(diag - u) / u))


@_check("polynomials.weight_consistency", 30, 1e-10,
        "closed form vs exact rational weights, N <= {top}", first=1)
def _weight_consistency(ns, run):
    for n in ns:
        wt = ak.weights(n)
        if np.any(wt.derived <= 0):
            raise _Broken(f"nonpositive weight at N={n}")
        yield abs(float(np.sum(wt.derived)) - 1.0)
        exact = np.array(_exact_weights(n, lambda a, b: a / b))
        yield float(np.max(np.abs(wt.derived - exact)))


@_check("polynomials.monic_reduction", 20, 1e-12,
        "recurrence data vs tridiagonal block, N <= {top}", first=1)
def _monic_reduction(ns, run):
    for n in ns:
        table = ak.recurrence_coeffs(n)
        diag_b, off_u = eb.closed_form_tridiagonal("F", n)
        yield float(np.max(np.abs(-(table.A + table.C) - (diag_b - 0.5) / 2.0)))
        yield float(np.max(np.abs(table.monic_c - off_u ** 2 / 4.0)))


@_check("overlaps.unitarity", 10, 1e-9,
        "both W constructions, three-term residual, N <= {top}", first=1)
def _unitarity(ns, run):
    for n in ns:
        wi, wr = run.w(n), run.wr(n)
        yield wi.unitarity_residual
        yield wr.unitarity_residual
        # W diagonalizes the K1 block: J W = W diag(y)
        diag_b, off_u = eb.closed_form_tridiagonal("F", n)
        jac = np.diag(diag_b) + np.diag(off_u, 1) + np.diag(off_u, -1)
        yield float(np.max(np.abs(wi.W * ak.grid(n).y - jac @ wi.W)))


@_check("overlaps.duality", 10, 1e-8,
        "integral vs recurrence, |omega_k|^2 = w_k, N <= {top}", first=1)
def _duality(ns, run):
    for n in ns:
        wi, wr = run.w(n), run.wr(n)
        yield float(np.max(np.abs(wi.W - wr.W)))
        amp = np.abs(wi.W[0]) ** 2
        yield float(np.max(np.abs(amp - ak.weights(n).derived)))


@_check("overlaps.z_block_spectrum", 10, 1e-9,
        "permuted block mirrors the original, N <= {top}", first=1)
def _z_block_spectrum(ns, run):
    for n in ns:
        zb = ak._z_basis(run.wr(n))
        k1_on_z = np.sort(np.array([lab["k1"] for lab in zb.labels]))
        k3_on_f = np.sort(np.array([lab["k3"] for lab in eb._fg_labels(n, "F")]))
        yield float(np.max(np.abs(k1_on_z - k3_on_f)))
        data = eb.tridiagonal_extract(run.o.k2.at(n), zb)
        exp_d, exp_o = eb.closed_form_tridiagonal("F", n)
        yield float(np.max(np.abs(data.diag - exp_d)))
        yield float(np.max(np.abs(data.offdiag - exp_o)))


def run_verification(j_max=20, suite_filter=None, tolerance_scale=1.0) -> VerificationReport:
    """Run every invariant check up to degree j_max (polynomial size N <= j_max).

    suite_filter restricts to one of SUITES; tolerance_scale multiplies
    every stated tolerance (including lower bounds).  Each check is
    timed; an exception inside a check marks it failed instead of
    propagating.
    """
    if not isinstance(j_max, (int, np.integer)) or j_max < 0:
        raise ValueError(f"j_max must be a non-negative integer, got {j_max!r}")
    if not (isinstance(tolerance_scale, (int, float)) and tolerance_scale > 0):
        raise ValueError(f"tolerance_scale must be positive, got {tolerance_scale!r}")
    if suite_filter is not None and suite_filter not in SUITES:
        raise ValueError(f"unknown suite {suite_filter!r}; choose from {SUITES}")
    prefix = "" if suite_filter is None else suite_filter + "."
    checks = [c for c in _CHECKS if c.name.startswith(prefix)]
    # one stack holds every degree that any of the checks covers
    run = _Run(tolerance_scale, min(int(j_max), max(c.cap for c in checks)))
    return VerificationReport(j_max=int(j_max), tolerance_scale=float(tolerance_scale), checks=tuple(
        _run_check(c, int(j_max), run) for c in checks))
