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
exact for spherical polynomials up to the grid's stated degree.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, pi, sqrt

import numpy as np

from .errors import ContractViolation

__all__ = [
    "HarmonicSpace",
    "BasisIndex",
    "StateVector",
    "QuadratureGrid",
    "assoc_legendre",
    "ylm_eval",
    "build_grid",
    "harmonic_values",
    "evaluate_on_grid",
    "project",
    "inner_product",
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

    def m_values(self):
        """Orders m = -j..j in the canonical (ascending) coefficient order."""
        return np.arange(-self.j, self.j + 1)


@dataclass(frozen=True)
class BasisIndex:
    """A single basis label (j, m) with |m| <= j."""

    j: int
    m: int

    def __post_init__(self):
        if self.j < 0:
            raise ValueError(f"degree j must be non-negative, got {self.j}")
        if abs(self.m) > self.j:
            raise ValueError(f"order m={self.m} out of range for j={self.j}")

    @property
    def flat(self) -> int:
        """Position of this basis vector in a coefficient array (m ascending)."""
        return self.m + self.j


@dataclass(frozen=True, eq=False)
class StateVector:
    """Coefficient vector over the Y_j^m basis of one harmonic space."""

    space: HarmonicSpace
    coeffs: np.ndarray
    normalized: bool = False

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
        if self.normalized:
            nrm = np.linalg.norm(c)
            if abs(nrm - 1.0) > 1e-10:
                raise ValueError(f"vector flagged normalized but has norm {nrm!r}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


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

    def integrate(self, values) -> complex:
        """Integrate point values of shape (n_theta, n_phi) over the sphere."""
        values = np.asarray(values)
        if values.shape != self.weight_mesh.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid {self.weight_mesh.shape}"
            )
        return complex(np.sum(values * self.weight_mesh))


def assoc_legendre(j: int, m: int, z):
    """Associated Legendre function P_j^m(z) with Condon-Shortley phase.

    Uses the standard stable upward recurrence in the degree: the seed is
    P_m^m(z) = (-1)^m (2m-1)!! (1-z^2)^{m/2}, then
    (l-m) P_l^m = z (2l-1) P_{l-1}^m - (l+m-1) P_{l-2}^m.

    Parameters
    ----------
    j, m : int
        Degree and order, 0 <= m <= j.
    z : float or ndarray
        Argument(s) in [-1, 1].

    Returns
    -------
    float or ndarray
        P_j^m evaluated at z (scalar in, scalar out).
    """
    if not (0 <= m <= j):
        raise ValueError(f"order must satisfy 0 <= m <= j, got j={j}, m={m}")
    z_arr = np.asarray(z, dtype=float)
    if np.any(np.abs(z_arr) > 1.0 + 1e-12):
        raise ValueError("argument of assoc_legendre must lie in [-1, 1]")
    z_arr = np.clip(z_arr, -1.0, 1.0)

    s = np.sqrt(1.0 - z_arr * z_arr)
    p = np.ones_like(z_arr)
    for i in range(1, m + 1):
        p = p * (-(2 * i - 1)) * s
    if j == m:
        return p if np.ndim(z) else float(p)
    p_prev, p_cur = p, z_arr * (2 * m + 1) * p
    for l in range(m + 2, j + 1):
        p_prev, p_cur = p_cur, (z_arr * (2 * l - 1) * p_cur - (l + m - 1) * p_prev) / (l - m)
    return p_cur if np.ndim(z) else float(p_cur)


def _ylm_prefactor(j: int, am: int) -> float:
    # exact rational (j-am)!/(j+am)! -> correctly rounded double
    ratio = float(Fraction(factorial(j - am), factorial(j + am)))
    return sqrt((2 * j + 1) / (4.0 * pi) * ratio)


def _polar(theta) -> np.ndarray:
    """theta as a float array; ValueError unless every entry lies in [0, pi]."""
    theta_arr = np.asarray(theta, dtype=float)
    if not np.all((theta_arr >= -1e-12) & (theta_arr <= pi + 1e-12)):
        raise ValueError("theta must lie in [0, pi]")
    return theta_arr


def ylm_eval(idx: BasisIndex, theta, phi):
    """Evaluate the spherical harmonic Y_j^m at angles (theta, phi).

    Parameters
    ----------
    idx : BasisIndex
        Degree and order.
    theta, phi : float or ndarray
        Polar angle in [0, pi] and azimuthal angle (any real, 2 pi periodic).
        Arrays broadcast together.

    Returns
    -------
    complex or ndarray
        Y_j^m values; orthonormal on the unit sphere.
    """
    theta_arr = _polar(theta)
    am = abs(idx.m)
    base = _ylm_prefactor(idx.j, am) * assoc_legendre(idx.j, am, np.cos(theta_arr))
    if idx.m >= 0:
        out = base * np.exp(1j * idx.m * np.asarray(phi, dtype=float))
    else:
        out = (-1.0) ** am * base * np.exp(-1j * am * np.asarray(phi, dtype=float))
    if np.ndim(theta) == 0 and np.ndim(phi) == 0:
        return complex(out)
    return out


def build_grid(j_max: int) -> QuadratureGrid:
    """Quadrature grid exact for all products of harmonics up to degree j_max.

    Uses j_max + 1 Gauss-Legendre nodes in cos(theta) (exact through
    polynomial degree 2 j_max + 1) and 4 j_max + 2 uniform phi nodes
    (exact for azimuthal Fourier modes up to 4 j_max + 1).
    """
    if not isinstance(j_max, (int, np.integer)) or j_max < 0:
        raise ValueError(f"j_max must be a non-negative integer, got {j_max!r}")
    z, wz = np.polynomial.legendre.leggauss(j_max + 1)
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

    On a grid the Legendre factors are evaluated on the n_theta nodes only
    and broadcast against exp(i m phi) on the n_phi nodes, so the cost is
    O(j^3); on scattered points it is O(j^2) per point.
    """
    j = space.j
    if grid is not None:
        theta_mesh, phi_mesh = grid.theta[:, None], grid.phi
    else:
        if theta is None or phi is None:
            raise ValueError("pass either a grid or both theta and phi")
        theta_mesh, phi_mesh = np.broadcast_arrays(_polar(theta), np.asarray(phi, dtype=float))
    z = np.cos(theta_mesh)
    out = np.empty((2 * j + 1,) + np.broadcast_shapes(z.shape, phi_mesh.shape), dtype=complex)
    for m in range(0, j + 1):
        base = _ylm_prefactor(j, m) * assoc_legendre(j, m, z)
        e = np.exp(1j * m * phi_mesh)
        out[j + m] = base * e
        if m > 0:
            out[j - m] = (-1.0) ** m * base * np.conj(e)
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
    """
    space = HarmonicSpace(j)
    if grid.degree < 2 * j:
        raise ContractViolation(
            f"grid degree {grid.degree} insufficient to project onto j={j} (need >= {2 * j})"
        )
    values = f if isinstance(f, np.ndarray) else evaluate_on_grid(f, grid)
    basis = harmonic_values(space, grid)
    # conj(sum conj(f) Y w) = sum f conj(Y) w, with no conjugated copy of the stack
    coeffs = np.einsum("tp,atp->a", np.conj(values) * grid.weight_mesh, basis).conj()
    return StateVector(space=space, coeffs=coeffs)


def inner_product(f, g, grid: QuadratureGrid) -> complex:
    """Hermitian inner product <f, g> = integral of f * conj(g) by quadrature."""
    fv = f if isinstance(f, np.ndarray) else evaluate_on_grid(f, grid)
    gv = g if isinstance(g, np.ndarray) else evaluate_on_grid(g, grid)
    return complex(np.sum(fv * np.conj(gv) * grid.weight_mesh))
