"""The rotor Hamiltonian has a square root built from reflections.

The supercharge Q mixes angular momentum components with parity operators,
squares exactly to H, and splits each (2j+1)-dimensional level into a
(j+1)-dimensional branch at -(j+1/2) and a j-dimensional branch at +(j+1/2).
None of the individual rotations or reflections commute with Q; the operators
that do form an anticommutator version of the spin algebra.
"""

import numpy as np

from rotorsusy import (
    HarmonicSpace,
    commutator,
    non_symmetry_report,
    op_norm,
    spectrum,
    susy_operators,
)


def main():
    for j in (1, 3, 6):
        ops = susy_operators(HarmonicSpace(j))
        sq_residual = op_norm(ops.q @ ops.q - ops.h)
        rep = spectrum(ops.q)
        branches = ", ".join(
            f"{v:+.1f} (x{m})" for v, m in zip(rep.eigenvalues, rep.multiplicities)
        )
        print(f"j={j}: |Q^2 - H| = {sq_residual:.2e}, Q spectrum {branches}")

    print()
    j = 2
    ops = susy_operators(HarmonicSpace(j))
    print(f"symmetries of Q at j={j} (commutator norms):")
    for name, k in (("K1", ops.k1), ("K2", ops.k2), ("K3", ops.k3)):
        print(f"  [{name}, Q] = {op_norm(commutator(k, ops.q)):.2e}")
    print(f"  Casimir check |C - (Q^2 - Q)| = {op_norm(ops.c - (ops.q @ ops.q - ops.q)):.2e}")

    print()
    print("what does NOT commute with Q (the hidden part of the symmetry):")
    report = non_symmetry_report(ops.q)
    for name, value in report["commutator_with_q"].items():
        print(f"  |[{name}, Q]| = {value:.3f}")


if __name__ == "__main__":
    main()
