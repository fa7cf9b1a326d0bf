"""Numerical toolkit for thermal Debye screening of static potentials.

The package computes the square Debye mass of a relativistic thermal
fermion gas by independent routes (spectral series, momentum integral,
closed massless form), scans the static polarization kernels behind it,
solves the screened potential of smooth classical sources by spectral
division, and verifies the exponential / cubic decay envelopes of the
underlying imaginary-time kernels. A CLI (``debye-screen``) drives the
same machinery from flat key=value configs and emits CSV/JSON artifacts
with embedded manifests.
"""

from . import debye, decay, errors, maxwell, polarization, quadrature, specfun
from .debye import *
from .decay import *
from .errors import *
from .maxwell import *
from .polarization import *
from .quadrature import *
from .specfun import *

__version__ = "0.1.0"

# the package namespace is the union of the modules' own __all__
__all__ = ["__version__", *specfun.__all__, *quadrature.__all__, *debye.__all__,
           *polarization.__all__, *maxwell.__all__, *decay.__all__, *errors.__all__]
