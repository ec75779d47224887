"""Invariant suites over all modules, aggregated into one report.

run_verification sweeps every library-level identity over a degree range
and records residual, tolerance and outcome per check.  Checks are pure
and independent; a crash inside one check is caught and reported as a
failure of that check rather than aborting the run.

The library builds H, Q, Q', K1..K3 and C from their closed-form actions
on Y_j^m.  The paper's reflection-product formulas live here instead, in
_product_operators, as the independent oracle: every check that reads one
of those operators also measures its distance from the product formula.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, pi, sqrt

import numpy as np

from . import antikrawtchouk as ak
from . import eigenbases as eb
from . import operators as op
from .harmonics import (
    BasisIndex,
    HarmonicSpace,
    build_grid,
    harmonic_values,
    ylm_eval,
)
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
    # exact rational (j-am)!/(j+am)! -> correctly rounded double; it turns
    # subnormal past j + am = 170 and 0 from 178, far above the oracle's j <= 10
    ratio = float(Fraction(factorial(j - am), factorial(j + am)))
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


def _ladder_pointwise(space, theta, phi):
    """J3, J+ and J- applied to every Y_j^m of one degree as differential
    operators, each stacked over m like harmonic_values.  The theta and phi
    derivatives are taken once and shared by all three."""
    steps = _FD_H * np.array([off for off, _ in _FD] + [-off for off, _ in _FD])[:, None, None]

    def derivative(shifted):
        # shifted[:, i] holds the values at the angle moved by steps[i]
        acc = 0.0
        for i, (_, w) in enumerate(_FD):
            acc = acc + w * (shifted[:, i] - shifted[:, i + len(_FD)])
        return acc / _FD_H

    dt = derivative(harmonic_values(space, theta=theta + steps, phi=phi))
    dp = derivative(harmonic_values(space, theta=theta, phi=phi + steps))
    cot_dp = 1j * (np.cos(theta) / np.sin(theta)) * dp
    return {
        "J3": -1j * dp,
        "J+": np.exp(1j * phi) * (dt + cot_dp),
        "J-": np.exp(-1j * phi) * (-dt + cot_dp),
    }


_REFLECTED_ANGLES = {
    1: lambda th, ph: (th, pi - ph),
    2: lambda th, ph: (th, -ph),
    3: lambda th, ph: (pi - th, ph),
}


# ---------------------------------------------------------------------------
# reflection-product oracle of the closed-form operators

def _product_operators(space):
    """The paper's product formulas, evaluated literally as dense matmuls.

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


class _Degree:
    """One degree: its closed-form bundle s, its product oracle o and the
    integral-route overlap matrix w (N = j), each built on first use and
    then shared by every check of one run."""

    def __init__(self, j):
        self.space = HarmonicSpace(j)

    @cached_property
    def s(self):
        return susy.susy_operators(self.space)

    @cached_property
    def o(self):
        return _product_operators(self.space)

    @cached_property
    def w(self):
        return ak.overlaps_via_integral(self.space.j)

    def gap(self, *names):
        """Largest Frobenius distance of the named closed forms from the oracle."""
        return max(op.op_norm(getattr(self.s, n) - getattr(self.o, n)) for n in names)


def _sweep(degrees, j_top, residual_of):
    """Worst residual_of(degree) / (2j+1) over j = 0..j_top."""
    return max(residual_of(degrees(j)) / (2 * j + 1) for j in range(j_top + 1))


# ---------------------------------------------------------------------------
# exact rational oracle of the derived weights

def _integers(values):
    """Exact Python ints from floats that must hold integers."""
    out = [int(v) for v in values]
    if any(o != v for o, v in zip(out, values)):
        raise ValueError("expected integer-valued data")
    return out


def _exact_weights(N):
    """Exact weights w_k = 1 / sum_n P_n(x_k)^2 / u_n as fractions.Fraction.

    With Q_n = 4^n P_n and U_n = prod_{i<=n} 16 c_i (so P_n^2 / u_n =
    Q_n^2 / U_n) every quantity is an integer, because 4 x_k, 4 b_n and
    16 c_n are: w_k = U_N / sum_n Q_n(x_k)^2 (U_N / U_n).  Independent of
    the production eigendecomposition.
    """
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
        out.append(Fraction(tail[0], total))
    return out


# ---------------------------------------------------------------------------
# suite definitions; each check returns (passed, residual, tolerance, detail)

def _checks_harmonics(j_max, tol, degrees):
    j_top = min(j_max, 20)

    def gram_identity():
        grid = build_grid(j_top)
        w = grid.weight_mesh.ravel()
        worst = 0.0
        for j in range(j_top + 1):
            yv = harmonic_values(HarmonicSpace(j), grid).reshape(2 * j + 1, -1)
            g = (yv * w) @ yv.conj().T
            worst = max(worst, float(np.max(np.abs(g - np.eye(2 * j + 1)))))
        return worst <= tol(1e-12), worst, tol(1e-12), f"Gram vs identity, j <= {j_top}"

    def reflection_point_parity():
        j_top8 = min(j_max, 8)
        grid = build_grid(max(j_top8, 1))
        th, ph = grid.mesh()
        worst = 0.0
        for j in range(j_top8 + 1):
            space = HarmonicSpace(j)
            yv = harmonic_values(space, grid)
            for axis in (1, 2, 3):
                tt, pp = _REFLECTED_ANGLES[axis](th, ph)
                moved = harmonic_values(space, theta=np.abs(tt), phi=pp)
                r = op.reflection(axis, space).matrix
                combo = np.einsum("ba,btp->atp", r, yv)
                worst = max(worst, float(np.max(np.abs(moved - combo))))
        return worst <= tol(1e-10), worst, tol(1e-10), f"pointwise R_i vs matrix, j <= {j_top8}"

    def direct_evaluation():
        j_top6 = min(j_max, 6)
        rng = np.random.default_rng(12345)
        theta = rng.uniform(0.1, pi - 0.1, size=20)
        phi = rng.uniform(0.0, 2 * pi, size=20)
        worst = 0.0
        for j in range(j_top6 + 1):
            for m in range(-j, j + 1):
                a = ylm_eval(BasisIndex(j, m), theta, phi)
                b = _ylm_direct(j, m, theta, phi)
                worst = max(worst, float(np.max(np.abs(a - b))))
        return worst <= tol(1e-10), worst, tol(1e-10), f"recurrence vs series, j <= {j_top6}"

    def cross_degree():
        j_top10 = min(j_max, 10)
        grid = build_grid(j_top10)
        vals = [harmonic_values(HarmonicSpace(j), grid).reshape(2 * j + 1, -1)
                for j in range(j_top10 + 1)]
        w = grid.weight_mesh.ravel()
        worst = 0.0
        for j in range(j_top10 + 1):
            for jp in range(j + 1, j_top10 + 1):
                g = (vals[j] * w) @ vals[jp].conj().T
                worst = max(worst, float(np.max(np.abs(g))))
        return worst <= tol(1e-12), worst, tol(1e-12), f"cross-degree overlaps, j <= {j_top10}"

    return [
        ("harmonics.gram_identity", gram_identity),
        ("harmonics.reflection_point_parity", reflection_point_parity),
        ("harmonics.direct_evaluation", direct_evaluation),
        ("harmonics.cross_degree_orthogonality", cross_degree),
    ]


def _checks_operators(j_max, tol, degrees):
    j_top = min(j_max, 30)

    def sweep(residual_of):
        return _sweep(degrees, j_top, lambda d: residual_of(d.space))

    def so3_commutators():
        def res(space):
            a, b, c = op.j1(space), op.j2(space), op.j3(space)
            return max(
                op.op_norm(op.commutator(a, b) - 1j * c),
                op.op_norm(op.commutator(b, c) - 1j * a),
                op.op_norm(op.commutator(c, a) - 1j * b),
            )
        worst = sweep(res)
        return worst <= tol(1e-12), worst, tol(1e-12), f"scaled by dim, j <= {j_top}"

    def ladder_relations():
        def res(space):
            p, m3 = op.jplus(space), op.j3(space)
            mi = op.jminus(space)
            jj = space.j
            a, b = op.j1(space), op.j2(space)
            cas = a @ a + b @ b + m3 @ m3
            return max(
                op.op_norm(op.commutator(p, mi) - 2.0 * m3),
                op.op_norm(op.adjoint(p) - mi),
                op.op_norm(cas - jj * (jj + 1.0) * op.identity(space)),
            )
        worst = sweep(res)
        return worst <= tol(1e-12), worst, tol(1e-12), f"[J+,J-]=2J3, J-=J+^, Casimir, j <= {j_top}"

    def reflection_algebra():
        def res(space):
            rs = [op.reflection(i, space) for i in (1, 2, 3)]
            ident = op.identity(space)
            worst = 0.0
            for r in rs:
                worst = max(worst, op.op_norm(r @ r - ident))
                worst = max(worst, op.op_norm(op.adjoint(r) - r))
            for a in range(3):
                for b in range(a + 1, 3):
                    worst = max(worst, op.op_norm(op.commutator(rs[a], rs[b])))
            return worst
        worst = sweep(res)
        return worst <= tol(1e-12), worst, tol(1e-12), f"involutive, commuting, j <= {j_top}"

    def mixed_commutation():
        def res(space):
            js = [op.j1(space), op.j2(space), op.j3(space)]
            rs = [op.reflection(i, space) for i in (1, 2, 3)]
            worst = 0.0
            for a in range(3):
                for b in range(3):
                    pair = op.commutator(js[a], rs[b]) if a == b else op.anticommutator(
                        js[a], rs[b]
                    )
                    worst = max(worst, op.op_norm(pair))
            return worst
        worst = sweep(res)
        return worst <= tol(1e-12), worst, tol(1e-12), f"[J_i,R_i]=0, {{J_i,R_j}}=0, j <= {j_top}"

    def hamiltonian_identity():
        def res(d):
            space, h = d.space, d.o.h
            worst = d.gap("h")
            for other in (op.j1(space), op.j2(space), op.j3(space),
                          op.reflection(1, space), op.reflection(2, space),
                          op.reflection(3, space)):
                worst = max(worst, op.op_norm(op.commutator(h, other)))
            return worst
        worst = _sweep(degrees, j_top, res)
        return worst <= tol(1e-12), worst, tol(1e-12), f"H=(j+1/2)^2 I and symmetries, j <= {j_top}"

    def quadrature_matrix_elements():
        j_top8 = min(j_max, 8)
        grid = build_grid(max(j_top8, 1))
        th, ph = grid.mesh()
        w = grid.weight_mesh.ravel()
        worst = 0.0
        for j in range(j_top8 + 1):
            space = HarmonicSpace(j)
            # bra @ moved.T is the quadrature of conj(Y_j^b) times each moved harmonic
            bra = np.conj(harmonic_values(space, grid).reshape(space.dim, -1)) * w
            mats = {"J3": op.j3(space), "J+": op.jplus(space), "J-": op.jminus(space)}
            for which, moved in _ladder_pointwise(space, th, ph).items():
                got = bra @ moved.reshape(space.dim, -1).T
                worst = max(worst, float(np.max(np.abs(got - mats[which].matrix))))
            for axis in (1, 2, 3):
                tt, pp = _REFLECTED_ANGLES[axis](th, ph)
                moved = harmonic_values(space, theta=np.abs(tt), phi=pp)
                got = bra @ moved.reshape(space.dim, -1).T
                worst = max(worst, float(np.max(np.abs(got - op.reflection(axis, space).matrix))))
        return worst <= tol(1e-8), worst, tol(1e-8), f"derivative/parity oracle, j <= {j_top8}"

    return [
        ("operators.so3_commutators", so3_commutators),
        ("operators.ladder_relations", ladder_relations),
        ("operators.reflection_algebra", reflection_algebra),
        ("operators.mixed_commutation", mixed_commutation),
        ("operators.hamiltonian_identity", hamiltonian_identity),
        ("operators.quadrature_matrix_elements", quadrature_matrix_elements),
    ]


def _checks_susy(j_max, tol, degrees):
    j_top = min(j_max, 30)

    def square_identity():
        def res(d):
            s = d.s
            return max(
                op.op_norm(s.q @ s.q - s.h),
                op.op_norm(s.q_alt @ s.q_alt - s.h),
                d.gap("q", "q_alt", "h"),
            )
        worst = _sweep(degrees, j_top, res)
        return worst <= tol(1e-12), worst, tol(1e-12), f"both supercharges square to H, j <= {j_top}"

    def anticommutator_algebra():
        def res(d):
            s = d.s
            return max(
                op.op_norm(op.anticommutator(s.k1, s.k2) - s.k3),
                op.op_norm(op.anticommutator(s.k2, s.k3) - s.k1),
                op.op_norm(op.anticommutator(s.k3, s.k1) - s.k2),
                d.gap("k1", "k2", "k3"),
            )
        worst = _sweep(degrees, j_top, res)
        return worst <= tol(1e-12), worst, tol(1e-12), f"{{K_i,K_j}}=K_k cyclic, j <= {j_top}"

    def commutant():
        def res(d):
            s = d.s
            worst = max(op.op_norm(op.commutator(k, s.q)) for k in (s.k1, s.k2, s.k3))
            return max(worst, d.gap("q", "k1", "k2", "k3"))
        worst = _sweep(degrees, j_top, res)
        return worst <= tol(1e-12), worst, tol(1e-12), f"[K_i,Q]=0, j <= {j_top}"

    def casimir_identity():
        def res(d):
            s = d.s
            worst = op.op_norm(s.c - s.q @ s.q + s.q)
            # the closed form C = H - Q is central iff Q is; the claim is
            # that the sum of squares K1^2 + K2^2 + K3^2 is
            for k in (s.k1, s.k2, s.k3):
                worst = max(worst, op.op_norm(op.commutator(d.o.c, k)))
            return max(worst, d.gap("c", "q", "k1", "k2", "k3"))
        worst = _sweep(degrees, j_top, res)
        return worst <= tol(1e-12), worst, tol(1e-12), f"C=Q^2-Q and centrality, j <= {j_top}"

    def q_spectrum():
        worst = 0.0
        for j in range(j_top + 1):
            d = degrees(j)
            rep = op.spectrum(d.s.q)
            expected_vals = [-(j + 0.5)] + ([j + 0.5] if j else [])
            expected_mult = [j + 1] + ([j] if j else [])
            if list(rep.multiplicities) != expected_mult:
                return False, float("inf"), tol(1e-8), f"multiplicity split broken at j={j}"
            worst = max(worst, float(np.max(np.abs(rep.eigenvalues - expected_vals))))
            worst = max(worst, d.gap("q") / (2 * j + 1))
            # the closed-form H is exactly scalar; its product formula is not
            hrep = op.spectrum(d.o.h)
            if list(hrep.multiplicities) != [2 * j + 1]:
                return False, float("inf"), tol(1e-8), f"H degeneracy broken at j={j}"
            worst = max(worst, float(np.max(np.abs(hrep.eigenvalues - (j + 0.5) ** 2))))
        return worst <= tol(1e-8), worst, tol(1e-8), f"split (j+1, j) at -(j+1/2), +(j+1/2), j <= {j_top}"

    def non_symmetry():
        bound = tol(1e-6)
        smallest = float("inf")
        for j in range(1, j_top + 1):
            d = degrees(j)
            rep = susy.non_symmetry_report(d.space)
            smallest = min(smallest, min(rep["commutator_with_q"].values()))
            control = max(op.op_norm(op.commutator(d.o.h, k)) for k in (d.s.k1, d.s.k2, d.s.k3))
            control = max(control, d.gap("q", "k1", "k2", "k3"))
            if control > tol(1e-12) * (2 * j + 1):
                return False, control, tol(1e-12), f"[H,K_i] control failed at j={j}"
        if j_top < 1:
            return True, 0.0, bound, "empty range (j_max < 1)"
        return smallest > bound, smallest, bound, "lower bound: residual must EXCEED tolerance"

    return [
        ("susy.square_identity", square_identity),
        ("susy.anticommutator_algebra", anticommutator_algebra),
        ("susy.commutant", commutant),
        ("susy.casimir_identity", casimir_identity),
        ("susy.q_spectrum", q_spectrum),
        ("susy.non_symmetry", non_symmetry),
    ]


def _checks_eigenbases(j_max, tol, degrees):
    j_top = min(j_max, 20)

    def m_basis_check():
        worst = 0.0
        for j in range(j_top + 1):
            space = HarmonicSpace(j)
            basis = eb.m_basis(space)
            v = basis.matrix()
            worst = max(worst, basis.orthonormality_residual())
            worst = max(worst, float(np.max(np.abs(v @ v.conj().T - np.eye(space.dim)))))
            k3v = np.array([lab["k3"] for lab in basis.labels])
            worst = max(worst, float(np.max(np.abs(degrees(j).o.k3.matrix @ v - v * k3v))))
        return worst <= tol(1e-10), worst, tol(1e-10), f"orthonormal, invertible, K3-diagonal, j <= {j_top}"

    def q_in_m_basis():
        worst = 0.0
        for j in range(j_top + 1):
            space = HarmonicSpace(j)
            v = eb.m_basis(space).matrix()
            conj = v.conj().T @ degrees(j).o.q.matrix @ v
            closed = eb.q_action_on_m(space)
            worst = max(worst, float(np.max(np.abs(conj - closed))) / (2 * j + 1))
        return worst <= tol(1e-12), worst, tol(1e-12), f"closed-form three-term action, j <= {j_top}"

    def closed_form_eigen():
        worst = 0.0
        for j in range(j_top + 1):
            space = HarmonicSpace(j)
            o = degrees(j).o
            fb, gb = eb.f_basis(space), eb.g_basis(space)
            oracle = eb.joint_diagonalize(o.q, o.k3)
            t = np.column_stack([fb.matrix(), gb.matrix()])
            worst = max(worst, float(np.max(np.abs(t.conj().T @ t - np.eye(space.dim)))))
            # the oracle orders its columns by (q, k), as F then G are ordered
            if ([(round(lab["q"], 6), lab["k"]) for lab in oracle.labels]
                    != [(lab["q"], lab["k"]) for lab in fb.labels + gb.labels]):
                return False, float("inf"), tol(1e-10), f"oracle label mismatch at j={j}"
            overlap = np.abs(np.sum(oracle.matrix().conj() * t, axis=0))
            worst = max(worst, float(np.max(np.abs(overlap - 1.0))))
        return worst <= tol(1e-10), worst, tol(1e-10), f"matches joint-diagonalization oracle, j <= {j_top}"

    def tridiagonal_data():
        worst = 0.0
        for j in range(j_top + 1):
            space = HarmonicSpace(j)
            for basis in (eb.f_basis(space), eb.g_basis(space)):
                if not len(basis):
                    continue
                data = eb.tridiagonal_extract(degrees(j).o.k1, basis)
                exp_d, exp_o = eb.closed_form_tridiagonal(basis.family, j)
                worst = max(worst, float(np.max(np.abs(data.diag - exp_d))))
                if len(exp_o):
                    worst = max(worst, float(np.max(np.abs(data.offdiag - exp_o))))
        return worst <= tol(1e-10), worst, tol(1e-10), f"matches closed forms, j <= {j_top}"

    def block_structure():
        worst = 0.0
        for j in range(j_top + 1):
            report = eb.decompose(HarmonicSpace(j))
            worst = max(worst, report["completeness_residual"])
            worst = max(worst, max(report["offblock_residuals"].values()))
            if not report["offdiag_positive"]:
                return False, float("inf"), tol(1e-10), f"off-diagonal positivity failed at j={j}"
            if j >= 1 and not report["g_matches_f_pattern_one_degree_lower"]:
                return False, float("inf"), tol(1e-10), f"block pattern mismatch at j={j}"
        return worst <= tol(1e-10), worst, tol(1e-10), f"invariant blocks, sizes (j+1, j), j <= {j_top}"

    return [
        ("eigenbases.m_basis", m_basis_check),
        ("eigenbases.q_in_m_basis", q_in_m_basis),
        ("eigenbases.closed_form_eigen", closed_form_eigen),
        ("eigenbases.tridiagonal_data", tridiagonal_data),
        ("eigenbases.block_structure", block_structure),
    ]


def _checks_polynomials(j_max, tol, degrees):
    n_top = min(j_max, 20)
    n_range = range(1, n_top + 1)

    def characteristic_vanishing():
        worst = 0.0
        for n in n_range:
            table = ak.recurrence_coeffs(n)
            g = ak.grid(n)
            vals = np.abs(ak.eval_monic(table, n + 1, g.x))
            hull = np.linspace(g.x.min(), g.x.max(), 201)
            scale = float(np.max(np.abs(ak.eval_monic(table, n + 1, hull))))
            worst = max(worst, float(np.max(vals)) / max(scale, 1.0))
        if n_top < 1:
            return True, 0.0, tol(1e-8), "empty range"
        return worst <= tol(1e-8), worst, tol(1e-8), f"P_(N+1) vanishes on grid, N <= {n_top}"

    def discrete_orthogonality():
        worst = 0.0
        for n in n_range:
            table = ak.recurrence_coeffs(n)
            g = ak.grid(n)
            wt = ak.weights(n)
            u = np.concatenate(([1.0], wt.norms))
            # Gram of the orthonormalized family: the symmetric relative
            # residual (entry (n,m) scaled by sqrt(u_n u_m)); monic values at
            # mixed degrees span ~18 orders of magnitude, so a row-wise
            # scaling is not reachable in double precision.
            p = ak.monic_table(table, n, g.x)
            v = p / np.sqrt(u)[:, None]
            gram = np.einsum("k,ak,bk->ab", wt.derived, v, v)
            worst = max(worst, float(np.max(np.abs(gram - np.eye(n + 1)))))
            diag = np.einsum("k,ak,ak->a", wt.derived, p, p)
            worst = max(worst, float(np.max(np.abs(diag - u) / u)))
        if n_top < 1:
            return True, 0.0, tol(1e-9), "empty range"
        return worst <= tol(1e-9), worst, tol(1e-9), f"relative to norms u_n, N <= {n_top}"

    def weight_consistency():
        worst = 0.0
        for n in n_range:
            wt = ak.weights(n)
            if np.any(wt.derived <= 0):
                return False, float("inf"), tol(1e-10), f"nonpositive weight at N={n}"
            worst = max(worst, abs(float(np.sum(wt.derived)) - 1.0))
            exact = np.array(_exact_weights(n), dtype=float)
            worst = max(worst, float(np.max(np.abs(wt.derived - exact))))
        if n_top < 1:
            return True, 0.0, tol(1e-10), "empty range"
        return worst <= tol(1e-10), worst, tol(1e-10), f"Jacobi vs exact rational weights, N <= {n_top}"

    def monic_reduction():
        worst = 0.0
        for n in n_range:
            table = ak.recurrence_coeffs(n)
            diag_b, off_u = eb.closed_form_tridiagonal("F", n)
            worst = max(worst, float(np.max(np.abs(-(table.A + table.C) - (diag_b - 0.5) / 2.0))))
            worst = max(worst, float(np.max(np.abs(table.monic_c - off_u ** 2 / 4.0))))
        if n_top < 1:
            return True, 0.0, tol(1e-12), "empty range"
        return worst <= tol(1e-12), worst, tol(1e-12), f"recurrence data vs tridiagonal block, N <= {n_top}"

    def closed_form_column():
        if n_top < 2:
            return True, 0.0, 0.0, "N=2 outside range; nothing to report"
        wt = ak.weights(2)
        ratio = wt.closed_form / wt.derived
        spread = float(np.max(np.abs(ratio - ratio[0])))
        detail = (
            "closed-form weight column is NOT proportional to the derived weights "
            f"(ratio spread {spread:.3g} at N=2, including a sign flip); the flag "
            "is required to be set; the column is informational, never asserted"
        )
        return bool(wt.discrepant), 0.0, 0.0, detail

    return [
        ("polynomials.characteristic_vanishing", characteristic_vanishing),
        ("polynomials.discrete_orthogonality", discrete_orthogonality),
        ("polynomials.weight_consistency", weight_consistency),
        ("polynomials.monic_reduction", monic_reduction),
        ("polynomials.closed_form_column", closed_form_column),
    ]


def _checks_overlaps(j_max, tol, degrees):
    n_top = min(j_max, 10)
    n_range = range(1, n_top + 1)

    def unitarity():
        worst = 0.0
        for n in n_range:
            wi = degrees(n).w
            wr = ak.overlaps_via_recurrence(n)
            worst = max(worst, wi.unitarity_residual, wr.unitarity_residual)
            # W diagonalizes the K1 block: J W = W diag(y)
            diag_b, off_u = eb.closed_form_tridiagonal("F", n)
            jac = np.diag(diag_b) + np.diag(off_u, 1) + np.diag(off_u, -1)
            worst = max(worst, float(np.max(np.abs(wi.W * ak.grid(n).y - jac @ wi.W))))
        if n_top < 1:
            return True, 0.0, tol(1e-9), "empty range"
        return worst <= tol(1e-9), worst, tol(1e-9), f"both W constructions, three-term residual, N <= {n_top}"

    def duality():
        worst = 0.0
        for n in n_range:
            wi = degrees(n).w
            wr = ak.overlaps_via_recurrence(n)
            worst = max(worst, float(np.max(np.abs(wi.W - wr.W))))
            amp = np.abs(wi.W[0]) ** 2
            worst = max(worst, float(np.max(np.abs(amp - ak.weights(n).derived))))
        if n_top < 1:
            return True, 0.0, tol(1e-8), "empty range"
        return worst <= tol(1e-8), worst, tol(1e-8), f"integral vs recurrence, |omega_k|^2 = w_k, N <= {n_top}"

    def z_block_spectrum():
        worst = 0.0
        for n in n_range:
            space = HarmonicSpace(n)
            zb = ak.z_basis(n)
            fb = eb.f_basis(space)
            k1_on_z = np.sort(np.array([lab["k1"] for lab in zb.labels]))
            k3_on_f = np.sort(np.array([lab["k3"] for lab in fb.labels]))
            worst = max(worst, float(np.max(np.abs(k1_on_z - k3_on_f))))
            data = eb.tridiagonal_extract(degrees(n).o.k2, zb)
            exp_d, exp_o = eb.closed_form_tridiagonal("F", n)
            worst = max(worst, float(np.max(np.abs(data.diag - exp_d))))
            worst = max(worst, float(np.max(np.abs(data.offdiag - exp_o))))
        if n_top < 1:
            return True, 0.0, tol(1e-9), "empty range"
        return worst <= tol(1e-9), worst, tol(1e-9), f"permuted block mirrors the original, N <= {n_top}"

    return [
        ("overlaps.unitarity", unitarity),
        ("overlaps.duality", duality),
        ("overlaps.z_block_spectrum", z_block_spectrum),
    ]


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

    def tol(base):
        return base * tolerance_scale

    groups = dict(zip(SUITES, (_checks_harmonics, _checks_operators, _checks_susy,
                               _checks_eigenbases, _checks_polynomials, _checks_overlaps)))
    selected = SUITES if suite_filter is None else (suite_filter,)

    degrees = lru_cache(maxsize=None)(_Degree)
    results = []
    for suite in selected:
        for name, fn in groups[suite](int(j_max), tol, degrees):
            t0 = time.perf_counter()
            try:
                passed, residual, tolerance, detail = fn()
            except Exception as exc:  # noqa: BLE001 - report, do not abort the run
                passed, residual, tolerance = False, float("inf"), 0.0
                detail = f"check raised {type(exc).__name__}: {exc}"
            results.append(CheckResult(name, bool(passed), float(residual), float(tolerance),
                                       time.perf_counter() - t0, detail))
    return VerificationReport(j_max=int(j_max), tolerance_scale=float(tolerance_scale),
                              checks=tuple(results))
