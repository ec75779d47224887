# The discrete orthogonal polynomials hiding in the K1 tridiagonal block.
#
# Substituting y = 2x + 1/2 turns the block's closed-form coefficients into
# a three-term recurrence whose Jacobi matrix has the sign-alternating grid
# x_k = (-1)^k (k/2 + 1/4) - 1/4 as its spectrum.  The weights below come
# from their closed form, a running product of Pochhammer ratios per parity
# of k, and equal the exact rational weights derived from the recurrence.

import numpy as np

from rotorsusy import bannai_ito_params, eval_monic, recurrence_coeffs, weights
from rotorsusy.antikrawtchouk import grid
from rotorsusy.verification import _exact_weights

N = 4
table = recurrence_coeffs(N)
g = grid(N)
wt = weights(N)

print(f"N = {N}")
print("n    A_n      C_n      b_n      c_n")
for n in range(N + 1):
    c = f"{table.monic_c[n - 1]:8.4f}" if n else "       -"
    print(f"{n}  {table.A[n]:7.4f}  {table.C[n]:7.4f}  {table.monic_b[n]:7.4f}  {c}")

print()
print("grid x_k:", np.array2string(g.x, precision=4))
print("closed-form weights:", np.array2string(wt.derived, precision=6),
      " (sum = %.1f)" % wt.derived.sum())
print("exact rational weights:", " ".join(str(w) for w in _exact_weights(N)))
print("squared monic norms u_n:", np.array2string(2.0 ** wt.log2_norms, precision=6))

print()
print("orthogonality check sum_k w_k P_m P_n on a few pairs:")
for m, n in ((0, 1), (1, 2), (2, 2), (3, 3)):
    pm = np.array([eval_monic(table, m, x) for x in g.x])
    pn = np.array([eval_monic(table, n, x) for x in g.x])
    print(f"  ({m},{n}): {np.sum(wt.derived * pm * pn): .3e}")

print()
print("degree N+1 vanishes on the grid:",
      max(abs(eval_monic(table, N + 1, x)) for x in g.x))
print("family parameters:", bannai_ito_params(N))
