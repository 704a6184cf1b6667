"""Physical relevance of stationary results, and special scattering points.

A chain with at least one first-quadrant pole hosts a time-growing bound
state: every time-independent scattering coefficient is then formally
computable but physically meaningless. This module packages that verdict and
the derived analyses: band-edge anisotropic transmission resonances,
Fabry-Perot (bidirectional reflectionless) resonances, CPA-laser points, and
transmission-vs-size regime scans. The verdict's count of growing states is
the closed form of :func:`~ptchain.poles.tgbs_count`; the scans classify regimes
by the sign of ``E**2 + gamma**2 - 4`` and never evaluate a branch of the
band index ``mu``.

Formulas are always evaluated; results carry a ``physical`` flag rather than
being suppressed.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .model import BlochRegime, ChainSpec, classify_bloch_regime, energy_to_wavenumber
from .poles import _ladder_count, gamma_critical, threshold_ladder
from .scattering import transmission_closed_form

__all__ = [
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
]

class RelevanceRegime(enum.Enum):
    RELEVANT = "Relevant"
    CRITICAL_SINGULARITY = "CriticalSingularity"
    UNPHYSICAL = "Unphysical"


@dataclass(frozen=True)
class RelevanceVerdict:
    """Whether stationary scattering results are physically meaningful."""

    regime: RelevanceRegime
    gamma_critical: float
    tgbs_count: int
    margin: float  # gamma_critical - gamma


def _regime(gamma: float, gamma_critical: float) -> RelevanceRegime:
    """The side of ``gamma_critical``, the last ladder value, that ``gamma`` lies on: so
    ``Unphysical`` holds exactly when a state grows, and equality is critical."""
    if gamma < gamma_critical:
        return RelevanceRegime.RELEVANT
    if gamma > gamma_critical:
        return RelevanceRegime.UNPHYSICAL
    return RelevanceRegime.CRITICAL_SINGULARITY


def verdict(spec: ChainSpec) -> RelevanceVerdict:
    """Classify ``gamma`` against the critical threshold of this chain size."""
    gc = gamma_critical(spec.n_cells)
    return RelevanceVerdict(
        regime=_regime(spec.gamma, gc),
        gamma_critical=gc,
        tgbs_count=_ladder_count(spec),
        margin=gc - spec.gamma,
    )


class SpecialPointKind(enum.Enum):
    BAND_EDGE_ATR = "BandEdgeATR"
    FABRY_PEROT = "FabryPerot"
    CPA_LASER = "CpaLaser"


@dataclass(frozen=True)
class SpecialPoint:
    """A distinguished scattering point with its physicality flag.

    ``energy``/``k`` locate the point on the real axis; ``gamma`` is the
    gain/loss strength it belongs to (the chain's own for band-edge and
    Fabry-Perot points, the ladder value for CPA-laser points);
    ``n_index`` is the resonance/ladder index where applicable.
    """

    kind: SpecialPointKind
    energy: float
    k: float
    gamma: float
    physical: bool
    n_index: int | None = None


def band_edge_points(spec: ChainSpec) -> list[SpecialPoint]:
    """Anisotropic transmission resonances at the band edges ``E = ±sqrt(4-g^2)``.

    At these points ``T = 1`` with right reflection exactly zero and left
    reflection ``4 N^2 gamma^2``; ``sin k = gamma/2`` gives their ``k``, which
    ``E`` (±2 to rounding for tiny ``gamma``) does not. None exist at ``gamma
    = 0`` (``k in {0, pi}``, off the open axis) or ``gamma >= 2``.
    """
    g = spec.gamma
    if not 0.0 < g < 2.0:
        return []
    physical = verdict(spec).regime is RelevanceRegime.RELEVANT
    out = []
    for sign, k in ((+1.0, math.pi - math.asin(0.5 * g)), (-1.0, math.asin(0.5 * g))):
        out.append(
            SpecialPoint(
                kind=SpecialPointKind.BAND_EDGE_ATR,
                energy=sign * math.sqrt(4.0 - g * g),
                k=k,
                gamma=g,
                physical=physical,
            )
        )
    return out


def fabry_perot_points(spec: ChainSpec) -> list[SpecialPoint]:
    """Bidirectional reflectionless resonances ``E = ±sqrt(4 cos^2(m pi/2N) - g^2)``.

    Exist for ``m = 1..N-1`` whenever the radicand is positive; both
    reflections vanish identically and ``T = 1``. ``N = 1`` has none. ``k``
    is the angle of ``(-E/2, sqrt(sin^2(m pi/2N) + g^2/4))``, as ``acos(-E/2)``
    is not near ``k = 0, pi`` nor ``asin`` near ``pi/2``.

    A radicand ``c - g^2`` (``c = 4 cos^2 theta``, ``theta = m pi/2N``) within
    ``8 eps (theta sin 2theta + c)`` lists no point: the rounding of ``theta``
    (1.2 eps relative) moves ``c`` by up to ``4.8 eps theta sin 2theta``, and
    the cosine, its square and ``g * g`` add up to ``3 eps c`` where ``g^2 <
    c``. At ``N = 3``, ``g = 1`` it drops ``m = 2``, a 4.4e-16 rounding of 0.
    """
    n, g = spec.n_cells, spec.gamma
    physical = verdict(spec).regime is RelevanceRegime.RELEVANT
    out = []
    for m in range(1, n):
        theta = m * math.pi / (2 * n)
        c = 4.0 * math.cos(theta) ** 2
        allowance = 8 * sys.float_info.epsilon * (theta * math.sin(2 * theta) + c)
        if c - g * g <= allowance:
            continue  # evanescent or degenerate: no real resonance energy
        sin_k = math.hypot(math.sin(theta), 0.5 * g)
        for sign in (+1.0, -1.0):
            e = sign * math.sqrt(c - g * g)
            out.append(
                SpecialPoint(
                    kind=SpecialPointKind.FABRY_PEROT,
                    energy=e,
                    k=math.atan2(sin_k, -0.5 * e),
                    gamma=g,
                    physical=physical,
                    n_index=m,
                )
            )
    return out


def cpa_laser_points(n_cells: int) -> list[SpecialPoint]:
    """The N simultaneous coherent-perfect-absorber/laser points at ``k = pi/2``.

    One per ladder value; only the lowest (``gamma = gamma_c``, the last
    index) is physically reachable — all others are masked by time-growing
    bound states.
    """
    ladder = threshold_ladder(n_cells)
    last = len(ladder.gamma_values) - 1
    return [
        SpecialPoint(
            kind=SpecialPointKind.CPA_LASER,
            energy=0.0,
            k=0.5 * math.pi,
            gamma=g,
            physical=(n == last),
            n_index=n,
        )
        for n, g in enumerate(ladder.gamma_values)
    ]


@dataclass(frozen=True)
class SizeScanRow:
    n_cells: int
    transmission: float
    regime: BlochRegime
    physical: bool


@dataclass(frozen=True)
class SizeScan:
    """Transmission vs chain size at fixed (gamma, energy).

    ``quasiperiod`` is the mean spacing (in cells) of the T(N) minima in the
    propagating regime; ``log_slope`` is the fitted asymptotic slope of
    ``ln T(N)`` in the evanescent regime (approaches ``-4 Im mu``). Either is
    None when not applicable or not measurable from the scanned range.
    """

    rows: list[SizeScanRow]
    quasiperiod: float | None
    log_slope: float | None


def _oscillation_quasiperiod(t_values: np.ndarray) -> float | None:
    """Mean spacing of local minima, refined by parabolic interpolation."""
    positions = []
    for i in range(1, len(t_values) - 1):
        if t_values[i] < t_values[i - 1] and t_values[i] <= t_values[i + 1]:
            a, b, c = t_values[i - 1], t_values[i], t_values[i + 1]
            denom = a - 2 * b + c
            shift = 0.5 * (a - c) / denom if denom != 0 else 0.0
            positions.append(i + shift)
    if len(positions) < 2:
        return None
    return float(np.mean(np.diff(positions)))


def transmission_vs_size(gamma: float, energy: float, n_max: int) -> SizeScan:
    """Scan ``T(N)`` for ``N = 1..n_max`` at fixed gamma and energy.

    The Bloch regime (shared by all N) decides which summary statistic is
    computed: the oscillation quasiperiod when propagating, the asymptotic
    log-slope when evanescent. The slope is fitted on the upper 60% of the
    sizes whose ``T`` is positive (``T`` underflows to 0.0 on long
    evanescent chains), and is None when fewer than two such sizes are left.
    Each ``T(N)`` is :func:`~ptchain.scattering.transmission_closed_form` at
    that size, which costs O(1), so the scan costs O(n_max).
    """
    if not 0.0 < gamma:
        raise OutOfRange(f"gamma must be positive, got {gamma!r}")
    if n_max < 1:
        raise OutOfRange(f"n_max must be >= 1, got {n_max}")
    k = energy_to_wavenumber(energy)
    regime = classify_bloch_regime(energy, ChainSpec(1, gamma))
    rows = [
        SizeScanRow(
            n_cells=n,
            transmission=transmission_closed_form(ChainSpec(n, gamma), k),
            regime=regime,
            physical=_regime(gamma, gamma_critical(n)) is RelevanceRegime.RELEVANT,
        )
        for n in range(1, n_max + 1)
    ]
    t_values = np.array([r.transmission for r in rows])

    quasiperiod = None
    log_slope = None
    if regime is BlochRegime.PROPAGATING:
        quasiperiod = _oscillation_quasiperiod(t_values)
    elif regime is BlochRegime.EVANESCENT and n_max >= 10:
        # long chains underflow T to 0.0, whose logarithm carries no slope
        ns = np.flatnonzero(t_values > 0.0) + 1
        ns = ns[max(int(0.4 * len(ns)), 1) - 1 :]
        if len(ns) >= 2:
            log_slope = float(np.polyfit(ns.astype(float), np.log(t_values[ns - 1]), 1)[0])
    return SizeScan(
        rows=rows,
        quasiperiod=quasiperiod,
        log_slope=log_slope,
    )
