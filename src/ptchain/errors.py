"""Exception hierarchy for numerical failure modes.

Every exception that signals a *numerical* failure (as opposed to a usage
error) derives from :class:`NumericalFailure`, so callers — in particular the
command-line front end — can map the whole family to a single exit status.
"""

from __future__ import annotations

__all__ = [
    "PtChainError",
    "OutOfRange",
    "NumericalFailure",
    "SingularBasis",
    "SpectralSingularityError",
    "MissedRoots",
    "BranchLost",
    "DecompositionFailed",
    "InsufficientGrowth",
]


class PtChainError(Exception):
    """Base class for all package-specific errors."""


class OutOfRange(PtChainError, ValueError):
    """A parameter lies outside its documented domain."""


class NumericalFailure(PtChainError):
    """Base class for runtime numerical failures (CLI exit status 3)."""


class SingularBasis(NumericalFailure):
    """The plane-wave basis transformation is singular (sin k too small)."""


class SpectralSingularityError(NumericalFailure):
    """Scattering coefficients diverge: the denominator M22 vanishes at real k."""


class MissedRoots(NumericalFailure):
    """Two independent routes disagree on a set of roots.

    Raised when a threshold-ladder value parks no root at ``k = pi/2``, or
    when the closed-form growing-state count differs from the number of
    first-quadrant pencil eigenvalues.
    """


class BranchLost(NumericalFailure):
    """A trajectory branch inside its window matched no census pole after three
    step halvings, or its Im k changed sign with no root on the real axis."""


class DecompositionFailed(NumericalFailure):
    """The propagator's spectral decomposition cannot be used.

    Raised when the dense eigensolver does not converge, when it returns
    non-finite eigenvalues, or when the decomposition does not reassemble the
    Hamiltonian (relative residual ``||H R - R diag(E)|| / ||H||`` above 1e-8).
    """


class InsufficientGrowth(NumericalFailure):
    """An intensity series spans too small a dynamic range for a reliable fit."""
