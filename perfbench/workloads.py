"""The benchmark's workloads: op lists built from a seed, with their checks.

Every workload is a closed loop in one fresh interpreter: one op after the
other, no threads of its own.  No two ops of a pass share a (function,
size) pair, so only caching inside one call can pay off.

A workload chains two of four op lists ("parts"), so that each run spans
enough passes of several seconds to average out the speed swings of a
shared machine, within the time the whole benchmark may take:

* ``verify``: the library's own proof run; thousands of tiny dense matmuls
  and repeated operator rebuilds, so per-call overhead and memoization show.
* ``large-degree``: the operators layer the other way round (few, large
  matmuls) plus the CLI's JSON export, over j = 64, 128, 256.
* ``quadrature``: harmonics on grids and scattered points: the Z basis,
  overlaps of both routes, and projections on quadrature grids.
* ``poly-tables``: the polynomial recurrence: value tables, weights and
  recurrence coefficients.

Ops the library gets wrong today are marked ``known_defect``.  They are not
part of the timed passes, which hold only ops that must pass their checks;
``known_defects`` returns them, and the benchmark runs and checks them once
per run, untimed, and reports each one that still fails:

* ``overlaps --N 40``: the recurrence route fails unitarity (exit 1);
* the projection at j=100 is silently all zero (no error raised);
* ``weights`` at N = 30, 60 and 100 fail the moment solve (exit 1).

``verify-large-degree`` is dense operators, matmuls and JSON export, with
little harmonics and almost no polynomial work; ``quadrature-poly-tables``
is harmonics and polynomial recurrences, with few matmuls and small exports.
``LADDERS`` names the op kinds whose sizes form each workload's ladder for
the per-layer scaling exponents; the two ladders of ``quadrature-poly-tables``
fall on different layers (harmonics and antikrawtchouk / cli).
"""

import cmath
import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

import checks

WORKLOADS = ("verify-large-degree", "quadrature-poly-tables")


@dataclass(frozen=True)
class Op:
    """One benchmark op.

    A CLI op has ``argv`` and is run as ``rotorsusy.cli.main(argv + ["--output", path])``;
    its check receives the parsed JSON file.  A library op has ``call``,
    which receives the ``rotorsusy`` package; its check receives the result.
    """

    label: str
    kind: str
    size: int
    check: Callable
    argv: Optional[list] = None
    call: Optional[Callable] = None
    part: str = ""
    known_defect: bool = False


def _cli(args, kind, size, check, known_defect=False):
    return Op(label="rotorsusy " + " ".join(args), kind=kind, size=size, check=check,
              argv=list(args) + ["--format", "json"], known_defect=known_defect)


def _verify_ops():
    return [_cli(["verify", "--jmax", "30"], "verify", 30, checks.verify)]


def _large_degree_ops():
    ops = []
    for j in (64, 128, 256):
        ops.append(_cli(["spectrum", "--op", "Q", "--j", str(j)], "spectrum", j,
                        lambda doc, j=j: checks.spectrum(doc, j)))
        ops.append(_cli(["basis", "--family", "F", "--j", str(j)], "basis", j,
                        lambda doc, j=j: checks.basis(doc, "F", j)))
        ops.append(Op(label=f"decompose(HarmonicSpace({j}))", kind="decompose", size=j,
                      check=lambda rep, j=j: checks.decompose(rep, j),
                      call=lambda rs, j=j: rs.decompose(rs.HarmonicSpace(j))))
    return ops


def projection_coefficients(seed, j):
    """The seeded complex coefficients (a, b) of a (x+iy)^j + b (x-iy)^j.

    Moduli lie in [0.5, 2], so the relative check is never against a tiny value.
    """
    rng = random.Random(f"{seed}:{j}")
    return tuple(cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * cmath.pi))
                 for _ in range(2))


def _quadrature_ops(seed):
    ops = [
        _cli(["basis", "--family", "Z", "--j", "30"], "basis", 30,
             lambda doc: checks.basis(doc, "Z", 30)),
        _cli(["overlaps", "--N", "30", "--method", "both"], "overlaps", 30, checks.overlaps),
        _cli(["overlaps", "--N", "40", "--method", "both"], "overlaps", 40, checks.overlaps,
             known_defect=True),
    ]
    for j in (50, 75, 100):
        a, b = projection_coefficients(seed, j)

        def call(rs, j=j, a=a, b=b):
            def f(theta, phi):
                # (x + iy)^j = sin^j(theta) e^{i j phi} on the unit sphere
                s = np.sin(theta) ** j
                return a * s * np.exp(1j * j * phi) + b * s * np.exp(-1j * j * phi)
            return rs.project(f, j, rs.build_grid(j)).coeffs

        ops.append(Op(label=f"project(a(x+iy)^{j} + b(x-iy)^{j}, {j}, build_grid({j}))",
                      kind="project", size=j, call=call, known_defect=j == 100,
                      check=lambda c, j=j, a=a, b=b: checks.projection(c, j, a, b)))
    return ops


def _poly_ops():
    ops = [_cli(["poly", "--what", "values", "--N", str(n)], "values", n,
                lambda doc, n=n: checks.values(doc, n)) for n in (40, 80, 120)]
    ops += [_cli(["poly", "--what", "weights", "--N", str(n)], "weights", n,
                 lambda doc, n=n: checks.weights(doc, n), known_defect=n >= 30)
            for n in (10, 20, 30, 60, 100)]
    ops.append(_cli(["poly", "--what", "coeffs", "--N", "120"], "coeffs", 120,
                    lambda doc: checks.coeffs(doc, 120)))
    return ops


def _all_ops(workload, seed):
    parts = {
        "verify-large-degree": (("verify", _verify_ops()), ("large-degree", _large_degree_ops())),
        "quadrature-poly-tables": (("quadrature", _quadrature_ops(seed)),
                                   ("poly-tables", _poly_ops())),
    }
    if workload not in parts:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return [replace(op, part=name) for name, ops in parts[workload] for op in ops]


def build(workload, seed):
    """The timed op list of one pass of ``workload``; the seed draws only projection coefficients."""
    return [op for op in _all_ops(workload, seed) if not op.known_defect]


def known_defects(workload, seed):
    """The ops of ``workload`` that the library gets wrong today; run untimed, once per run."""
    return [op for op in _all_ops(workload, seed) if op.known_defect]


# op kinds whose sizes form each workload's ladder for the exponent fits
LADDERS = {
    "verify-large-degree": ("spectrum", "basis", "decompose"),
    "quadrature-poly-tables": ("project", "values"),
}
