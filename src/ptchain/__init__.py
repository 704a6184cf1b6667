"""Scattering, poles, thresholds, and dynamics of gain/loss-balanced chains.

A finite periodic tight-binding chain whose unit cell carries one gain and
one loss site (strength ``gamma``) supports unusual scattering: non-unitary
transmission, anisotropic reflection, and — beyond a size-dependent critical
gain — bound states that grow exponentially in time and invalidate every
stationary coefficient. This package computes the stationary quantities in
closed form, locates the complex-wavenumber poles that decide physicality,
and cross-validates both against direct wave-packet propagation.
"""

from .errors import (
    BranchLost,
    DecompositionFailed,
    InsufficientGrowth,
    MissedRoots,
    NonConvergence,
    NumericalFailure,
    OutOfRange,
    PtChainError,
    SingularBasis,
    SpectralSingularityError,
)
from .model import (
    BlochIndex,
    BlochRegime,
    ChainSpec,
    ComplexWavenumber,
    OnsitePotential,
    bloch_index,
    chain_operator,
    classify_bloch_regime,
    dispersion_energy,
    energy_to_wavenumber,
    onsite_profile,
)
from .scattering import (
    Matrix2C,
    ScatterResult,
    chebyshev_tu,
    plane_wave_transfer,
    scatter,
    scatter_at_energy,
    transmission_closed_form,
)
from .poles import (
    AxisCrossing,
    BranchPath,
    PoleClass,
    PoleRecord,
    SearchRegion,
    ThresholdLadder,
    Trajectory,
    critical_size,
    find_poles,
    first_quadrant_region,
    pole_residual,
    tgbs_count,
    threshold_ladder,
    trace_trajectories,
)
from .dynamics import (
    IntensitySplit,
    LatticeLayout,
    PropagatorBundle,
    WaveState,
    build_hamiltonian,
    evolve,
    gaussian_packet,
    growth_rate_fit,
    intensity_split,
    prepare_propagator,
    transmitted_intensity,
    validity_horizon,
)
from .relevance import (
    RelevanceRegime,
    RelevanceVerdict,
    SizeScan,
    SizeScanRow,
    SpecialPoint,
    SpecialPointKind,
    band_edge_points,
    cpa_laser_points,
    evanescent_decay_reference,
    fabry_perot_points,
    transmission_vs_size,
    verdict,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PtChainError",
    "OutOfRange",
    "NumericalFailure",
    "SingularBasis",
    "SpectralSingularityError",
    "MissedRoots",
    "NonConvergence",
    "BranchLost",
    "DecompositionFailed",
    "InsufficientGrowth",
    # model
    "ChainSpec",
    "OnsitePotential",
    "ComplexWavenumber",
    "BlochRegime",
    "BlochIndex",
    "onsite_profile",
    "chain_operator",
    "dispersion_energy",
    "energy_to_wavenumber",
    "bloch_index",
    "classify_bloch_regime",
    # scattering
    "Matrix2C",
    "ScatterResult",
    "chebyshev_tu",
    "plane_wave_transfer",
    "transmission_closed_form",
    "scatter",
    "scatter_at_energy",
    # poles
    "PoleClass",
    "PoleRecord",
    "SearchRegion",
    "ThresholdLadder",
    "BranchPath",
    "AxisCrossing",
    "Trajectory",
    "pole_residual",
    "find_poles",
    "threshold_ladder",
    "critical_size",
    "first_quadrant_region",
    "tgbs_count",
    "trace_trajectories",
    # dynamics
    "LatticeLayout",
    "WaveState",
    "PropagatorBundle",
    "IntensitySplit",
    "build_hamiltonian",
    "gaussian_packet",
    "prepare_propagator",
    "evolve",
    "intensity_split",
    "transmitted_intensity",
    "growth_rate_fit",
    "validity_horizon",
    # relevance
    "RelevanceRegime",
    "RelevanceVerdict",
    "SpecialPointKind",
    "SpecialPoint",
    "SizeScanRow",
    "SizeScan",
    "verdict",
    "band_edge_points",
    "fabry_perot_points",
    "cpa_laser_points",
    "transmission_vs_size",
    "evanescent_decay_reference",
]
