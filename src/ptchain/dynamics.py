"""Finite-lattice wave-packet dynamics: the time-dependent oracle.

A hard-wall tight-binding lattice of ``L`` sites embeds the gain/loss region
in its center. Its non-Hermitian Hamiltonian is the sparse
:func:`~ptchain.model.chain_operator` with leads; only
:func:`prepare_propagator` densifies it, as the input of the dense
eigensolver. Time evolution expands the state in right eigenmodes with
left-eigenmode coefficients (biorthogonal expansion) and multiplies by
``exp(-i E t)``. Near-defective spectra (mode-overlap conditioning above a
threshold) fall back to ``scipy.sparse.linalg.expm_multiply`` on the sparse
Hamiltonian (Al-Mohy & Higham 2011).

Site indexing: ``j`` is relative to the first gain site, so the scattering
region occupies ``j = 0 .. 2N-1``, the left lead has ``j < 0``, and
"transmitted" means everything at ``j >= 2N``.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DecompositionFailed, InsufficientGrowth, NumericalFailure, OutOfRange
from .model import ChainSpec, chain_operator

if TYPE_CHECKING:
    from scipy.sparse import csr_array

__all__ = [
    "LatticeLayout",
    "WaveState",
    "PropagatorBundle",
    "IntensitySplit",
    "build_hamiltonian",
    "gaussian_packet",
    "prepare_propagator",
    "evolve",
    "transmitted_intensity",
    "intensity_split",
    "growth_rate_fit",
    "validity_horizon",
]

_log = logging.getLogger(__name__)

#: Condition estimate (inverse smallest left-right mode overlap) above which
#: a propagator bundle is near-defective and :func:`evolve` uses ``expm_multiply``.
NEAR_DEFECTIVE_CONDITION = 1e8


@dataclass(frozen=True)
class LatticeLayout:
    """Geometry of the finite lattice hosting the scattering region."""

    total_sites: int
    n_cells: int
    scatter_start: int  # global array index of site j = 0

    def __post_init__(self) -> None:
        if self.lead_left_len < 0 or self.lead_right_len < 0:
            raise OutOfRange(f"scattering region does not fit: {self!r}")

    @property
    def lead_left_len(self) -> int:
        return self.scatter_start

    @property
    def lead_right_len(self) -> int:
        return self.total_sites - self.scatter_start - 2 * self.n_cells

    @classmethod
    def centered(cls, total_sites: int, n_cells: int) -> "LatticeLayout":
        """Default layout: leads as equal as possible (1200/3 -> 597 + 6 + 597)."""
        return cls(total_sites, n_cells, (total_sites - 2 * n_cells) // 2)

    def global_index(self, j: int) -> int:
        return self.scatter_start + j

    def site_offsets(self) -> np.ndarray:
        """Relative index j for every lattice site."""
        return np.arange(self.total_sites) - self.scatter_start


@dataclass(frozen=True)
class WaveState:
    """Snapshot of the lattice wavefunction at one time (immutable by convention)."""

    amplitudes: np.ndarray
    time: float


def build_hamiltonian(layout: LatticeLayout, spec: ChainSpec) -> "csr_array":
    """Sparse (CSR) tridiagonal Hamiltonian with hard-wall boundaries.

    The :func:`~ptchain.model.chain_operator` of ``spec`` with the layout's
    leads: hopping -1 on both off-diagonals; diagonal zero in the leads and
    alternating ``+i gamma, -i gamma`` on the ``2N`` scattering sites (gain
    first). The trace vanishes for every (N, gamma).
    """
    if layout.n_cells != spec.n_cells:
        raise OutOfRange(
            f"layout is for N={layout.n_cells} but spec has N={spec.n_cells}"
        )
    return chain_operator(spec, layout.lead_left_len, layout.lead_right_len)


def gaussian_packet(layout: LatticeLayout, j0: int, sigma: float, k0: float) -> WaveState:
    """Normalized Gaussian wave packet ``exp(-(j-j0)^2/2 sigma^2) exp(i k0 j)``.

    ``j0`` should sit well inside a lead: a warning is emitted when it is
    within 3 sigma of a lattice edge or of the scattering region. A packet
    with no finite nonzero norm on the lattice raises :class:`OutOfRange`.
    """
    if not 0.0 < sigma < math.inf:
        raise OutOfRange(f"sigma must be positive and finite, got {sigma!r}")
    left_edge_j = -layout.lead_left_len
    right_edge_j = 2 * layout.n_cells + layout.lead_right_len - 1
    clearance = min(
        j0 - left_edge_j,
        right_edge_j - j0,
        abs(j0) if j0 < 0 else abs(j0 - (2 * layout.n_cells - 1)),
    )
    if clearance < 3 * sigma:
        warnings.warn(
            f"packet center j0={j0} is within 3 sigma of an edge or the "
            f"scattering region (clearance {clearance}, sigma {sigma})",
            stacklevel=2,
        )
    j = layout.site_offsets()
    with np.errstate(divide="ignore", invalid="ignore"):  # caught by the norm check
        psi = np.exp(-((j - j0) ** 2) / (2.0 * sigma**2) + 1j * k0 * j)
    norm = np.linalg.norm(psi)
    if not 0.0 < norm < math.inf:
        raise OutOfRange(f"packet (j0={j0}, sigma={sigma}) has no finite norm on the lattice")
    psi /= norm
    return WaveState(amplitudes=psi, time=0.0)


@dataclass(frozen=True)
class PropagatorBundle:
    """Spectral decomposition of a finite non-Hermitian Hamiltonian.

    ``left_modes`` are normalized so that ``left_modes.conj().T @ right_modes``
    is the identity (biorthogonal pairs); ``condition_estimate`` is the
    inverse of the smallest raw left-right overlap and flags near-defective
    spectra. ``spectral_residual`` records ``||H R - R diag(E)|| / ||H||``
    (Frobenius norms). ``hamiltonian`` is ``H`` in CSR form, the operator
    :func:`evolve` steps by ``expm_multiply`` when the bundle is
    near-defective.
    """

    eigenvalues: np.ndarray
    right_modes: np.ndarray
    left_modes: np.ndarray
    condition_estimate: float
    spectral_residual: float
    near_defective: bool
    hamiltonian: "csr_array"


def prepare_propagator(h: "csr_array | np.ndarray") -> PropagatorBundle:
    """Full spectral decomposition with biorthogonal left/right mode pairs.

    ``h`` is converted to CSR once. A dense copy exists only as the input of
    the dense eigensolver, which overwrites it; the residual is formed with
    the CSR, which the bundle keeps.

    Above a condition estimate of :data:`NEAR_DEFECTIVE_CONDITION` the
    bundle is flagged near-defective, with a DEBUG event under
    ``ptchain.dynamics``, and :func:`evolve` steps by ``expm_multiply`` on the
    sparse Hamiltonian instead of the spectral path.

    Parameters
    ----------
    h : csr_array or ndarray
        Square complex matrix, such as :func:`build_hamiltonian` returns.

    Raises
    ------
    DecompositionFailed
        If the dense eigensolver does not converge or the spectral assembly
        residual is out of tolerance.
    """
    # imported here so that ``import ptchain`` does not load scipy.linalg or scipy.sparse
    import scipy.linalg
    from scipy.sparse import csr_array

    h = csr_array(h)
    try:
        w, vl, vr = scipy.linalg.eig(
            h.toarray(order="F"), left=True, right=True, overwrite_a=True
        )
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - solver hiccup
        raise DecompositionFailed(f"dense eigensolver failed: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise DecompositionFailed("eigensolver returned non-finite eigenvalues")

    # H R - R diag(E), one column at a time into the one matrix R diag(E)
    resid = vr * w
    for i in range(len(w)):
        np.subtract(h @ vr[:, i], resid[:, i], out=resid[:, i])
    residual = float(np.linalg.norm(resid) / np.linalg.norm(h.data))
    del resid  # before the copy ``vl.conj()`` below, not beside it
    if residual > 1e-8:
        raise DecompositionFailed(f"spectral assembly residual {residual:.3e} > 1e-8")

    overlaps = np.einsum("ij,ij->j", vl.conj(), vr)
    min_overlap = float(np.min(np.abs(overlaps)))
    condition = math.inf if min_overlap == 0.0 else 1.0 / min_overlap
    near_defective = condition > NEAR_DEFECTIVE_CONDITION
    if near_defective:
        _log.debug(
            "near-defective spectrum (condition estimate %.3g > %.3g): "
            "evolve steps by expm_multiply",
            condition, NEAR_DEFECTIVE_CONDITION,
        )
    else:
        vl /= overlaps.conj()[None, :]
    return PropagatorBundle(
        eigenvalues=w,
        right_modes=vr,
        left_modes=vl,
        condition_estimate=condition,
        spectral_residual=residual,
        near_defective=near_defective,
        hamiltonian=h,
    )


def evolve(bundle: PropagatorBundle, psi0: WaveState, t: float) -> WaveState:
    """Propagate a state by time ``t`` under ``exp(-i H t)``.

    Spectral path: expand in right modes with left-mode coefficients and
    multiply by ``exp(-i E_n t)``. Near-defective bundles route to
    ``expm_multiply`` automatically, with a DEBUG event under ``ptchain.dynamics``.
    A state whose total intensity is not finite (grown beyond the double
    range) raises :class:`NumericalFailure`.
    """
    if not 0.0 <= t < math.inf:
        raise OutOfRange(f"t must be finite and nonnegative, got {t!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        if bundle.near_defective:
            _log.debug(
                "stepping by expm_multiply to t=%r: near-defective bundle "
                "(condition estimate %.3g)",
                t, bundle.condition_estimate,
            )
            from scipy.sparse.linalg import expm_multiply

            psi_t = expm_multiply(-1j * t * bundle.hamiltonian, psi0.amplitudes)
        else:
            coeff = bundle.left_modes.conj().T @ psi0.amplitudes
            psi_t = bundle.right_modes @ (coeff * np.exp(-1j * bundle.eigenvalues * t))
    if not math.isfinite(np.vdot(psi_t, psi_t).real):
        raise NumericalFailure(f"the intensity of the state propagated to t={t!r} is not finite")
    return WaveState(amplitudes=psi_t, time=psi0.time + t)


@dataclass(frozen=True)
class IntensitySplit:
    """Intensity partitioned by region; the three parts sum to the total."""

    reflected: float  # left lead, j < 0
    central: float    # scattering region, 0 <= j < 2N
    transmitted: float  # right lead, j >= 2N

    @property
    def total(self) -> float:
        return self.reflected + self.central + self.transmitted


def intensity_split(state: WaveState, layout: LatticeLayout) -> IntensitySplit:
    """Intensity in the left lead / scattering region / right lead."""
    density = np.abs(state.amplitudes) ** 2
    lo = layout.scatter_start
    hi = layout.scatter_start + 2 * layout.n_cells
    return IntensitySplit(
        reflected=float(np.sum(density[:lo])),
        central=float(np.sum(density[lo:hi])),
        transmitted=float(np.sum(density[hi:])),
    )


def transmitted_intensity(state: WaveState, layout: LatticeLayout) -> float:
    """Total intensity strictly right of the scattering region (``j >= 2N``)."""
    return intensity_split(state, layout).transmitted


def growth_rate_fit(
    intensity_series: list[tuple[float, float]], min_decades: float = 2.0
) -> float:
    """Amplitude growth rate from a total-intensity time series.

    Least-squares slope of ``ln I(t)`` divided by 2 (amplitude = sqrt of
    intensity), comparable to ``Im E`` of the dominant growing mode.

    Parameters
    ----------
    intensity_series : list of (t, intensity)
    min_decades : float
        Required dynamic range of the series; the default 2 decades rejects
        fits on noise. Pass 0 to fit flat series (e.g. marginal lasing at
        threshold).

    Raises
    ------
    InsufficientGrowth
        When the series spans fewer than ``min_decades`` decades.
    """
    if len(intensity_series) < 2:
        raise OutOfRange("need at least two samples to fit a growth rate")
    times = np.array([t for t, _ in intensity_series], dtype=float)
    values = np.array([v for _, v in intensity_series], dtype=float)
    if np.any(values <= 0):
        raise OutOfRange("intensity series must be strictly positive")
    decades = math.log10(float(np.max(values) / np.min(values)))
    if decades < min_decades:
        raise InsufficientGrowth(
            f"series spans {decades:.2f} decades < required {min_decades}"
        )
    slope = np.polyfit(times, np.log(values), 1)[0]
    return float(0.5 * slope)


def validity_horizon(layout: LatticeLayout, j0: int, k0: float) -> float:
    """Time before hard-wall reflections can contaminate observables.

    The packet moves right at ``v_g = 2 sin k0``; the horizon is the earlier
    of (a) the transmitted front reaching the right wall and (b) the
    reflected front (packet -> scatterer -> left wall) reaching the left
    wall, both measured from the packet center.
    """
    v_g = 2.0 * math.sin(k0)
    if v_g <= 0:
        return math.inf
    g0 = layout.global_index(j0)
    right_path = (layout.total_sites - 1) - g0
    reflect_path = 2 * layout.scatter_start - g0
    return min(right_path, reflect_path) / v_g
