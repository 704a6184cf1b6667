"""Exception hierarchy for numerical failure modes.

Every exception that signals a *numerical* failure (as opposed to a usage
error) derives from :class:`NumericalFailure`, so callers — in particular the
command-line front end — can map the whole family to a single exit status.
"""

from __future__ import annotations


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


class NonConvergence(NumericalFailure):
    """Iterative refinement failed to converge.

    Raised by no routine at present: every pole census is taken from the
    outgoing-wave pencil's eigenvalues, and a seed Newton fails from is dropped.
    """


class BranchLost(NumericalFailure):
    """A trajectory branch inside its window matched no census pole after three step halvings."""


class DecompositionFailed(NumericalFailure):
    """The dense eigensolver did not converge."""


class InsufficientGrowth(NumericalFailure):
    """An intensity series spans too small a dynamic range for a reliable fit."""
