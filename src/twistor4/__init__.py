"""Twistor lifts, Gauss maps and isotropy classification for surfaces in E^4.

Surfaces are given by closed-form expressions F = (f1, f2, f3, f4)(u, v).
The package computes exact second-order jets, the classical pointwise
geometry (fundamental forms, shape operators, mean curvature, normal
connection), the algebra of orthogonal complex structures of E^4 with the
oriented-2-plane correspondence and the SO(4) double covers, twistor lifts
with stereographic charts, structure-equation residuals and the five-way
isotropy classification of minimal surfaces.

The top level is each module's __all__, its submodules and errors.
"""

__version__ = "0.1.0"

from . import errors
from .catalog import *
from .complex_structures import *
from .geometry import *
from .linalg4 import *
from .surface_expr import *
from .twistor import *

__all__ = [name for name in dir() if not name.startswith("_")]
