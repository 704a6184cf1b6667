"""Scattering, poles, thresholds, and dynamics of gain/loss-balanced chains.

A finite periodic tight-binding chain whose unit cell carries one gain and
one loss site (strength ``gamma``) supports unusual scattering: non-unitary
transmission, anisotropic reflection, and — beyond a size-dependent critical
gain — bound states that grow exponentially in time and invalidate every
stationary coefficient. This package computes the stationary quantities in
closed form, locates the complex-wavenumber poles that decide physicality,
and cross-validates both against direct wave-packet propagation.

The public API is the union of the modules' ``__all__`` lists, each of which
is the one declaration of what its module makes public.
"""

from . import dynamics, errors, model, poles, relevance, scattering
from .errors import *
from .model import *
from .scattering import *
from .poles import *
from .dynamics import *
from .relevance import *

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (errors, model, scattering, poles, dynamics, relevance):
    __all__ += _module.__all__
del _module
