"""Lattice conventions, dispersion relation, and the chain's on-site profile.

The physical system is a one-dimensional tight-binding chain with hopping
``J = 1`` (and ``hbar = a = 1``, never configurable) whose central region is a
periodic arrangement of ``n_cells`` two-site unit cells: a gain site with
on-site potential ``+i*gamma`` followed by a loss site with ``-i*gamma``.
The profile is PT symmetric, ``eps_j == conj(eps_{2N-1-j})``; its one writer
is :func:`_onsite`, from which the pencil's chain block and
:func:`~ptchain.dynamics.build_hamiltonian` each write their own matrix.

Everything downstream (transfer matrices, pole finding, wave-packet dynamics)
consumes the conventions fixed here:

* lead dispersion ``E = -2 cos k`` with real scattering states at
  ``k in (0, pi)``;
* complex wavenumbers canonicalized to the strip ``Re k in (-pi, pi]``;
* the Bloch regime of a real energy, from the sign of
  ``E**2 + gamma**2 - 4``: the effective band index ``mu`` of the periodic
  region (``cos 2mu = (E**2 + gamma**2 - 2)/2``) is real below it and
  imaginary above. No branch of ``mu`` is ever chosen: the transfer matrix
  is a function of the branch-free ``cos 2mu``.
"""

from __future__ import annotations

import cmath
import enum
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange

__all__ = [
    "ChainSpec",
    "ComplexWavenumber",
    "BlochRegime",
    "REGIME_TOL",
    "dispersion_energy",
    "energy_to_wavenumber",
    "classify_bloch_regime",
]

#: Absolute tolerance on ``E**2 + gamma**2 - 4`` separating the propagating,
#: band-edge, and evanescent regimes of the Bloch index.
REGIME_TOL = 1e-12

#: Largest gain/loss strength whose square is a finite float.
_GAMMA_MAX = math.sqrt(sys.float_info.max)
#: Largest chain size, ``sys.float_info.max`` as an integer: every accepted
#: ``n_cells`` converts to a finite double.
_N_CELLS_MAX = int(sys.float_info.max)


def _chain_size(n_cells) -> int:
    """The one check of a chain size: ``n_cells`` as an ``int``, ``1 <= N <= sys.float_info.max``.

    Any integer type is accepted (``operator.index``: ``int``, ``bool`` and
    NumPy integers); a ``float`` is refused even where it is integral.

    Raises
    ------
    OutOfRange
        For a non-integer, ``n_cells < 1`` or ``n_cells > sys.float_info.max``.
    """
    try:
        n = operator.index(n_cells)
    except TypeError:
        raise OutOfRange(f"n_cells must be an integer, got {n_cells!r}") from None
    if n < 1:
        raise OutOfRange(f"n_cells must be >= 1, got {n_cells!r}")
    if n > _N_CELLS_MAX:
        raise OutOfRange("n_cells must be at most sys.float_info.max (~1.8e308)")
    return n


@dataclass(frozen=True)
class ChainSpec:
    """Immutable description of the scattering region.

    Parameters
    ----------
    n_cells : int
        Number of two-site unit cells, ``1 <= N <= sys.float_info.max``, of
        any integer type; stored as an ``int``.
    gamma : float
        Gain/loss strength ``gamma >= 0`` in units of the hopping, with a
        finite ``gamma**2``: at most ``sqrt(sys.float_info.max)``, ~1.34e154.
    """

    n_cells: int
    gamma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_cells", _chain_size(self.n_cells))
        if not 0.0 <= self.gamma <= _GAMMA_MAX:
            raise OutOfRange(f"gamma must lie in [0, {_GAMMA_MAX!r}], got {self.gamma!r}")

    @property
    def n_sites(self) -> int:
        """Number of sites in the scattering region (``2 N``)."""
        return 2 * self.n_cells


def _onsite(spec: ChainSpec) -> np.ndarray:
    """The chain's on-site profile ``eps_j = (-1)**j * i*gamma``, ``j = 0 .. 2N-1``.

    Gain on even ``j``, loss on odd, every real part +0.0; the hopping is -1.
    The pencil's companion and the lattice Hamiltonian are written from it.
    """
    eps = np.zeros(spec.n_sites, dtype=complex)
    eps.imag = spec.gamma * (-1.0) ** np.arange(spec.n_sites)
    return eps


def _canonical_strip(re: float) -> float:
    """Map a real part into the physical strip ``(-pi, pi]``."""
    re = math.remainder(re, 2.0 * math.pi)  # (-pi, pi], except -pi maps to -pi
    if re <= -math.pi:
        re += 2.0 * math.pi
    return re


@dataclass(frozen=True)
class ComplexWavenumber:
    """A complex wavenumber ``k = re + i*im`` canonicalized to ``Re k in (-pi, pi]``."""

    re: float
    im: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _canonical_strip(float(self.re)))
        object.__setattr__(self, "im", float(self.im))

    @classmethod
    def from_complex(cls, k: complex) -> "ComplexWavenumber":
        return cls(k.real, k.imag)

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


class BlochRegime(enum.Enum):
    """Reality class of the effective band index at real energy."""

    PROPAGATING = "Propagating"
    BAND_EDGE = "BandEdge"
    EVANESCENT = "Evanescent"


def dispersion_energy(k: complex) -> complex:
    """Lead dispersion ``E = -2 cos k``.

    For real ``k`` in ``(0, pi)`` the result is real and increases strictly
    from -2 to 2. For complex ``k`` the imaginary part obeys the identity
    ``Im E = 2 sin(Re k) sinh(Im k)``, the growth rate of the state attached
    to a pole at ``k``.
    """
    return -2.0 * cmath.cos(k)


def energy_to_wavenumber(energy: float) -> float:
    """Inverse dispersion for real energies: ``k = arccos(-E/2) in (0, pi)``.

    Raises
    ------
    OutOfRange
        If ``|energy| >= 2`` (outside the open lead band).
    """
    if not -2.0 < energy < 2.0:
        raise OutOfRange(f"energy must lie in (-2, 2), got {energy!r}")
    return math.acos(-0.5 * energy)


def classify_bloch_regime(energy: float, spec: ChainSpec) -> BlochRegime:
    """Classify a real energy by the reality of the band index.

    ``Propagating`` (``mu`` real) for ``E**2 + gamma**2 < 4 - REGIME_TOL``,
    ``BandEdge`` within :data:`REGIME_TOL` of the boundary, ``Evanescent`` (``mu``
    imaginary) above it.

    Raises
    ------
    OutOfRange
        For a non-finite ``energy``.
    """
    if not math.isfinite(energy):
        raise OutOfRange(f"energy must be finite, got {energy!r}")
    s = energy * energy + spec.gamma**2 - 4.0
    if abs(s) <= REGIME_TOL:
        return BlochRegime.BAND_EDGE
    return BlochRegime.PROPAGATING if s < 0 else BlochRegime.EVANESCENT
