"""Quantum rigid rotor supersymmetry toolkit.

Finite-dimensional realization of the rotor's hidden supersymmetry on
spherical-harmonic spaces: the supercharge and its symmetry algebra,
joint eigenbases with their tridiagonal data, the anti-Krawtchouk
orthogonal polynomials, and the overlap duality between the direct and
coordinate-permuted eigenbases.  Every closed-form claim is checked
against an independent numerical oracle at construction or in the
verification suite.
"""

from .errors import *
from .harmonics import *
from .operators import *
from .susy import *
from .eigenbases import *
from .antikrawtchouk import *
from .verification import *
from . import errors, harmonics, operators, susy, eigenbases, antikrawtchouk, verification

__version__ = "0.1.0"

# the package's public names are its submodules' __all__ lists
__all__ = [name for module in (errors, harmonics, operators, susy, eigenbases, antikrawtchouk, verification)
           for name in module.__all__] + ["__version__"]
