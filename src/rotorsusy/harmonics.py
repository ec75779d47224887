"""Complex spherical harmonics and spherical quadrature.

Conventions used throughout the package
---------------------------------------

The degree-j harmonic space carries the orthonormal complex basis

    Y_j^m(theta, phi) = sqrt((2j+1)/(4 pi) * (j-m)!/(j+m)!)
                        * P_j^m(cos theta) * exp(i m phi),

with the Condon-Shortley phase inside the associated Legendre function
P_j^m.  Negative orders follow from Y_j^{-m} = (-1)^m conj(Y_j^m).
Coefficient vectors are ordered by ascending m, flat index i = m + j.

Integrals over the unit sphere use a tensor-product rule: Gauss-Legendre
in cos theta crossed with a uniform (trapezoidal) grid in phi, which is
exact for spherical polynomials up to the grid's stated degree.  The
Gauss-Legendre rule is the package's own (_gauss_legendre): Newton steps on
P_n from Tricomi's initial guess, O(n^2) work, nodes within about one ulp of
the roots, weights within 1.2e-11 relative at n = 1001 (numpy's companion-
matrix rule: 4.3e-9), mirror-symmetric bit for bit.
"""

from dataclasses import dataclass
from functools import cached_property
from math import pi

import numpy as np

from .errors import ContractViolation, VerificationError

__all__ = [
    "HarmonicSpace",
    "StateVector",
    "QuadratureGrid",
    "build_grid",
    "harmonic_values",
    "evaluate_on_grid",
    "project",
]


@dataclass(frozen=True)
class HarmonicSpace:
    """The (2j+1)-dimensional space of degree-j spherical harmonics."""

    j: int

    def __post_init__(self):
        if not isinstance(self.j, (int, np.integer)) or self.j < 0:
            raise ValueError(f"degree j must be a non-negative integer, got {self.j!r}")

    @property
    def dim(self) -> int:
        return 2 * self.j + 1

    @property
    def degrees(self) -> int:
        """j, which is a column of degrees on an operators.DegreeStack."""
        return self.j

    def m_values(self):
        """Orders m = -j..j in the canonical (ascending) coefficient order."""
        return np.arange(-self.j, self.j + 1)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Coefficient vector over the Y_j^m basis of one harmonic space."""

    space: HarmonicSpace
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.shape != (self.space.dim,):
            raise ValueError(
                f"expected {self.space.dim} coefficients for j={self.space.j}, got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError(f"coefficients for j={self.space.j} are not all finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Tensor-product spherical quadrature rule.

    Parameters
    ----------
    theta_nodes : ndarray
        Gauss-Legendre abscissae in cos(theta), ascending in cos(theta).
    theta_weights : ndarray
        Gauss-Legendre weights (sum to 2).
    n_phi : int
        Number of uniform azimuthal nodes phi_p = 2 pi p / n_phi.
    degree : int
        Largest spherical-polynomial degree integrated exactly.
    """

    theta_nodes: np.ndarray
    theta_weights: np.ndarray
    n_phi: int
    degree: int

    def __post_init__(self):
        z = np.array(self.theta_nodes, dtype=float)
        w = np.array(self.theta_weights, dtype=float)
        if z.ndim != 1 or z.shape != w.shape:
            raise ValueError("theta_nodes and theta_weights must be 1-d arrays of equal length")
        if self.n_phi < 2:
            raise ValueError("need at least 2 azimuthal nodes")
        z.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "theta_nodes", z)
        object.__setattr__(self, "theta_weights", w)

    @cached_property
    def theta(self):
        """Polar angles theta = arccos of the nodes."""
        return np.arccos(self.theta_nodes)

    @cached_property
    def phi(self):
        return 2.0 * pi * np.arange(self.n_phi) / self.n_phi

    @cached_property
    def weight_mesh(self):
        """Combined weights, shape (n_theta, n_phi); sums to 4 pi."""
        return np.outer(self.theta_weights, np.full(self.n_phi, 2.0 * pi / self.n_phi))

    def mesh(self):
        """(theta, phi) meshes of shape (n_theta, n_phi)."""
        return np.meshgrid(self.theta, self.phi, indexing="ij")


def _legendre_steps(j: int, z: np.ndarray):
    """After each degree l = 0..j, the live (mantissa, scale) arrays of shape
    (j+1, z.size) whose rows m <= l hold Pbar_l^m(z) = mantissa * 2^scale
    at the 1-d z, poles aside (_at_poles); see _legendre_table.

    Order m starts from the sectoral value
    Pbar_m^m = (-1)^m sqrt((2m+1)/(4 pi) prod_{i<=m} (2i-1)/(2i)) s^m,
    s = sqrt(1-z^2), held as a base-2 logarithm; the degree recurrence
    (Holmes & Featherstone 2002, J. Geodesy 76:279)

        Pbar_l^m = a_lm z Pbar_{l-1}^m - b_lm Pbar_{l-2}^m,

    runs for all m at once on mantissas that start at (-1)^m.  Nothing under-
    or overflows on the way.  Rounding stays near 1e-13 relative to j = 2000
    away from the poles.  Rows m > l are 0, so rows m <= l have the bits of
    a run to degree l.
    """
    s = np.sqrt((1.0 - z) * (1.0 + z))
    m = np.arange(j + 1)
    seed = 0.5 * np.log2((2 * m + 1) / (4 * pi))
    seed[1:] += 0.5 * np.cumsum(np.log2(1.0 - 0.5 / m[1:]))
    # m log2(s) at s = 1 in place of the poles avoids 0 * log(0); _at_poles overwrites them
    scale = np.multiply(m[:, None], np.log2(np.where(s == 0.0, 1.0, s)))
    scale += seed[:, None]
    cur = np.zeros((j + 1, z.size))
    prev = np.zeros_like(cur)
    tmp = np.empty_like(cur)  # reused: a new, larger temporary every step fragments the heap
    cur[0] = 1.0
    yield cur, scale
    for l in range(1, j + 1):
        # rows m < l step from degree l-1 to l; b vanishes for m = l-1, whose prev row is 0
        k = m[:l, None]
        a = np.sqrt((4 * l * l - 1) / (l * l - k * k))
        b = np.sqrt(((l - 1) ** 2 - k * k) * (2 * l + 1) / ((l * l - k * k) * (2 * l - 3)))
        prev[:l] *= -b
        np.multiply(cur[:l], z, out=tmp[:l])
        tmp[:l] *= a
        prev[:l] += tmp[:l]
        prev, cur = cur, prev
        cur[l] = (-1.0) ** l
        if l % 32 == 0:
            # in 32 steps a mantissa grows by far less than the 2^511 left above 2^512
            big = np.abs(cur, out=tmp) > 2.0**512
            cur[big] *= 2.0**-512
            prev[big] *= 2.0**-512
            scale[big] += 512
        yield cur, scale


def _at_poles(l: int, mantissa: np.ndarray, scale: np.ndarray, z: np.ndarray):
    """Degree l's rows m <= l with the pole columns set in place: 0 for m > 0,
    and for m = 0, where the recurrence is only neutrally stable and would
    lose about l^2 eps, the closed form (+-1)^l sqrt((2l+1)/(4 pi))."""
    pole = (1.0 - z) * (1.0 + z) == 0.0
    mantissa[1:, pole] = 0.0
    mantissa[0, pole] = z[pole] ** l
    scale[0, pole] = 0.5 * np.log2((2 * l + 1) / (4 * pi))
    return mantissa, scale


def _legendre_degrees(j: int, z: np.ndarray) -> np.ndarray:
    """Pbar_l^m(z) of every degree l <= j at the 1-d z from one run of the
    recurrence, shape (j+1, j+1, z.size): entry [l, m] equals row m of
    _legendre_table(l, z) bit for bit, and is 0 for m > l."""
    out = np.zeros((j + 1, j + 1, z.size))
    for l, (mantissa, scale) in enumerate(_legendre_steps(j, z)):
        out[l, :l + 1] = _from_log2(*_at_poles(l, mantissa[:l + 1].copy(), scale[:l + 1].copy(), z))
    return out


def _from_log2(mantissa: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """mantissa * 2^scale as a double: 0 or subnormal below the normal range, inf above.
    Computed in place: scale is overwritten and the result is mantissa."""
    e = np.floor(scale)
    scale -= e
    mantissa *= np.exp2(scale, out=scale)
    return np.ldexp(mantissa, e.astype(np.int32), out=mantissa)


def _legendre_table(j: int, z) -> np.ndarray:
    """Fully normalized Legendre functions of degree j, shape (j+1,) + z.shape.

    Row m holds Pbar_j^m(z) = sqrt((2j+1)/(4 pi) (j-m)!/(j+m)!) P_j^m(z),
    Condon-Shortley phase included, so Y_j^m = Pbar_j^m(cos theta) e^{i m phi}
    and 2 pi * integral of Pbar_j^m(z)^2 dz = 1.  z must lie in [-1, 1].
    Computed by the last step of _legendre_steps, poles set by _at_poles; a
    value below the double range comes out 0 (or subnormal), which no
    orthonormal sum can notice.
    """
    z = np.asarray(z, dtype=float)
    *_, (mantissa, scale) = _legendre_steps(j, z.reshape(-1))
    del _  # it holds the other step buffer: free it before _from_log2 allocates
    return _from_log2(*_at_poles(j, mantissa, scale, z.reshape(-1))).reshape((j + 1,) + z.shape)


def _polar(theta) -> np.ndarray:
    """theta as a float array; ValueError unless every entry lies in [0, pi]."""
    theta_arr = np.asarray(theta, dtype=float)
    if not np.all((theta_arr >= -1e-12) & (theta_arr <= pi + 1e-12)):
        raise ValueError("theta must lie in [0, pi]")
    return theta_arr


def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1]: nodes ascending, and weights.

    The nonnegative roots of P_n start from Tricomi's asymptotic guess
    (1 - 1/(8n^2) + 1/(8n^3)) cos(pi (4k-1)/(4n+2)) and take Newton steps
    on P_n until a step is at most eps = 2^-52, one ulp at 1 (Hale &
    Townsend 2013, SIAM J. Sci. Comput. 35:A652).  A fixed number of steps
    is not enough: two leave the nodes off by up to 1.6e-12 at n = 2..6.
    P_n and P_n' = n (P_{n-1} - x P_n)/(1-x^2) come from Bonnet's recurrence
    (l+1) P_{l+1} = (2l+1) x P_l - l P_{l-1}, O(n) per node.  Every n from 2
    to 1,200 takes three or four passes.  The weights are
    w = 2/((1-x^2) P_n'(x)^2) at the final nodes: the last pass's P_n',
    moved by the last step s as P_n'(x - s) = P_n'(x) (1 - 2 x s/(1-x^2)) to
    O(s^2), since (1-x^2) P_n'' = 2x P_n' at a root (Legendre's equation).
    The negative half is the mirror, so nodes and weights are symmetric bit
    for bit and the middle node of odd n is exactly 0.0.
    """
    n = int(n)

    def bonnet(x):
        prev, p = np.ones_like(x), x
        for l in map(float, range(1, n)):  # numpy takes a float scalar faster than an int
            prev, p = p, ((2.0 * l + 1.0) * x * p - l * prev) / (l + 1.0)
        return p, n * (prev - x * p) / ((1.0 - x) * (1.0 + x))

    k = np.arange(n // 2, 0, -1)
    x = np.cos(pi * (4 * k - 1) / (4 * n + 2)) * (1.0 - (n - 1) / (8.0 * n**3))
    x = np.concatenate(([0.0], x)) if n % 2 else x
    for _ in range(10):
        p, dp = bonnet(x)
        step = p / dp
        if np.all(np.abs(step) <= np.finfo(float).eps):
            break
        x = x - step
    else:
        raise VerificationError(f"Newton steps on P_{n} did not settle within 10 passes")
    dp *= 1.0 - 2.0 * x * step / ((1.0 - x) * (1.0 + x))
    x = x - step
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)
    return np.concatenate((-x[::-1][:n // 2], x)), np.concatenate((w[::-1][:n // 2], w))


def build_grid(j_max: int) -> QuadratureGrid:
    """Quadrature grid exact for all products of harmonics up to degree j_max.

    Uses j_max + 1 Gauss-Legendre nodes in cos(theta) (exact through
    polynomial degree 2 j_max + 1) and 4 j_max + 2 uniform phi nodes
    (exact for azimuthal Fourier modes up to 4 j_max + 1).  The theta rule
    is _gauss_legendre's Newton-polished one: its nodes and weights are
    mirror-symmetric bit for bit, its weights sum to 2 and integrate every
    even power z^2k, k <= j_max, within 1e-14 up to j_max = 1000, and it
    costs O(j_max^2): 12-27 ms at j_max = 1000 on a shared 2-core x86-64 VM.
    """
    if not isinstance(j_max, (int, np.integer)) or j_max < 0:
        raise ValueError(f"j_max must be a non-negative integer, got {j_max!r}")
    z, wz = _gauss_legendre(j_max + 1)
    return QuadratureGrid(
        theta_nodes=z,
        theta_weights=wz,
        n_phi=max(2, 4 * j_max + 2),
        degree=2 * j_max,
    )


def harmonic_values(space: HarmonicSpace, grid=None, theta=None, phi=None):
    """Values of all Y_j^m of one degree, stacked over m.

    Either pass a QuadratureGrid (values on its mesh, shape
    (2j+1, n_theta, n_phi)) or explicit broadcastable theta/phi arrays
    (shape (2j+1,) + broadcast shape); theta must lie in [0, pi], else
    ValueError.

    The values are one normalized Legendre table (_legendre_table) on
    theta's own shape times exp(i m phi) on phi's, both padded to a common
    ndim, so they are finite and orthonormal at every degree; only the
    product is broadcast, and the cost is O(j^2) per distinct polar angle.
    The grid stack is dense complex, 16 (2j+1) n_theta n_phi bytes: 55 MB on
    build_grid(75) and 1.0 GiB on build_grid(200).  project does not build it.
    """
    j = space.j
    if grid is not None:
        theta, phi = grid.theta[:, None], grid.phi[None, :]
    elif theta is None or phi is None:
        raise ValueError("pass either a grid or both theta and phi")
    theta, phi = _polar(theta), np.asarray(phi, dtype=float)
    nd = max(theta.ndim, phi.ndim)
    p = _legendre_table(j, np.cos(theta.reshape((1,) * (nd - theta.ndim) + theta.shape)))
    return _orders(p, phi.reshape((1,) * (nd - phi.ndim) + phi.shape))


def _orders(p: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The (2j+1,) + shape stack of Y_j^m = Pbar_j^|m| exp(i m phi), m = -j..j, from
    the Legendre rows p of shape (j+1, ...) and phi broadcastable against p[0]."""
    j = p.shape[0] - 1
    out = np.empty((2 * j + 1,) + np.broadcast_shapes(p.shape[1:], phi.shape), dtype=complex)
    # exp(i m phi) and the product with p formed in place, with no stack-sized temporary
    np.multiply(1j * np.arange(j + 1).reshape((-1,) + (1,) * phi.ndim), phi, out=out[j:])
    np.exp(out[j:], out=out[j:])
    out[j:] *= p
    # Y_j^{-m} = (-1)^m conj(Y_j^m), written to rows j-1 down to 0
    negative = out[:j][::-1]
    np.conj(out[j + 1:], out=negative)
    negative[::2] *= -1.0
    return out


def evaluate_on_grid(f, grid: QuadratureGrid):
    """Evaluate a callable f(theta, phi) on the grid mesh.

    The callable must accept array arguments and broadcast (all evaluators
    in this package do).
    """
    theta_mesh, phi_mesh = grid.mesh()
    values = np.asarray(f(theta_mesh, phi_mesh), dtype=complex)
    if values.shape != theta_mesh.shape:
        raise ValueError(
            f"evaluator returned shape {values.shape}, expected {theta_mesh.shape}"
        )
    return values


def project(f, j: int, grid: QuadratureGrid) -> StateVector:
    """Project a band-limited function onto the degree-j harmonic basis.

    Parameters
    ----------
    f : callable or ndarray
        Point evaluator f(theta, phi) accepting arrays, or precomputed
        values on the grid mesh.
    j : int
        Target degree; requires grid.degree >= 2 j so that products
        f * conj(Y_j^m) are integrated exactly.
    grid : QuadratureGrid

    Returns
    -------
    StateVector
        Coefficients c_m = integral of f * conj(Y_j^m) over the sphere.

    The phi sums of all orders are one FFT of the values along phi; then
    c_m = sum_t w_t Pbar_j^|m|(z_t) F[t, m mod n_phi], times (-1)^m for
    m < 0.  No harmonic stack is built: memory is O(n_theta n_phi + j
    n_theta), and the coefficients are right at every degree the grid
    resolves.  Non-finite values raise ValueError (through StateVector).
    """
    space = HarmonicSpace(j)
    if grid.degree < 2 * j:
        raise ContractViolation(
            f"grid degree {grid.degree} insufficient to project onto j={j} (need >= {2 * j})"
        )
    values = f if isinstance(f, np.ndarray) else evaluate_on_grid(f, grid)
    mesh_shape = (grid.theta_nodes.size, grid.n_phi)
    if values.shape != mesh_shape:
        raise ValueError(f"values shape {values.shape} does not match grid {mesh_shape}")
    # F[t, k] = sum_p (2 pi / n_phi) f(theta_t, phi_p) exp(-i k phi_p); exp(-i m phi_p)
    # depends on m only through m mod n_phi, so the sum is exact for every order
    F = np.fft.fft(values, axis=1) * (2.0 * pi / grid.n_phi)
    m = np.arange(-j, j + 1)
    # conj(Y_j^m) = (-1)^m Pbar_j^{-m} exp(-i m phi) for m < 0
    legendre = _legendre_table(j, grid.theta_nodes)[np.abs(m)] * grid.theta_weights
    legendre[:j] *= (-1.0) ** m[:j, None]
    coeffs = np.einsum("mt,tm->m", legendre, F[:, m % grid.n_phi])
    return StateVector(space=space, coeffs=coeffs)
