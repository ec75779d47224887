"""Two routes to the same unitary matrix.

Permuting the coordinate axes maps the F eigenbasis onto a second eigenbasis
Z of the same branch.  The overlap matrix between them can be computed by
spherical quadrature, or written in closed form from the eigenvectors of the
polynomial recurrence's Jacobi matrix times one sign per column.  The two
constructions agree to machine precision, and the squared moduli of the
first row reproduce the closed-form orthogonality weights.
"""

import numpy as np

from rotorsusy import overlaps_via_integral, overlaps_via_recurrence, weights, z_basis


def main():
    N = 3
    zb = z_basis(N)
    print(f"Z-basis labels at N={N}:")
    for lbl in zb.labels:
        print(f"  k={lbl['k']}  K1 = {lbl['k1']:+.1f}  Q = {lbl['q']:+.1f}")

    wi = overlaps_via_integral(N)
    wr = overlaps_via_recurrence(N)
    print()
    print("overlap matrix from quadrature (real part):")
    print(np.array2string(wi.W.real, precision=5, suppress_small=True))
    print("max |integral - recurrence| =", np.max(np.abs(wi.W - wr.W)))
    print("unitarity residuals:", wi.unitarity_residual, wr.unitarity_residual)

    wt = weights(N)
    print()
    print("|first row|^2 vs closed-form weights:")
    print(" ", np.array2string(np.abs(wi.W[0]) ** 2, precision=8))
    print(" ", np.array2string(wt.derived, precision=8))


if __name__ == "__main__":
    main()
