"""S-matrix poles in the complex wavenumber strip.

Poles are the zeros of the common scattering denominator ``M22(k)``. This
module locates them numerically, evaluates the closed-form threshold ladder
at which they cross the real axis, classifies them physically, and tracks
their motion as the gain/loss strength varies. Every census is the set of
eigenvalues of the outgoing-wave pencil in a region, one eigensolve each:
:func:`find_poles`, the trajectory sweep and the verified TGBS count. Newton
on ``M22`` runs in two places. :func:`find_poles` runs it once per
eigenvalue, from the point of a fixed seed lattice nearest it; the root
stands in for the eigenvalue when the two agree to 1e-12. The trajectory
sweep's :func:`_refine_crossing` runs it at each bisection step of a
real-axis crossing. Every census refuses ``gamma > CENSUS_GAMMA_MAX`` with
:class:`OutOfRange`.

The pencil rests on the outgoing-wave (Siegert) boundary conditions
``psi_{-1} = z psi_0`` and ``psi_{2N} = z psi_{2N-1}`` with ``z = e^{ik}``,
which close the scattering region into the quadratic eigenproblem
``z^2 (I - P) + z H_c + I = 0`` (``H_c`` the 2N x 2N chain block, ``P`` the
projector on its two end sites). Its finite eigenvalues are the poles, all of
them at once (Tisseur & Meerbergen, SIAM Rev. 43, 235 (2001)).

Conventions: the physical strip is ``Re k in (-pi, pi]``; a thin margin
around the singular verticals ``Re k in {-pi, 0, pi}`` (where ``cot k``
blows up on the real axis) is excluded from every census.
"""

from __future__ import annotations

import cmath
import enum
import logging
import math
import struct
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BranchLost,
    MissedRoots,
    OutOfRange,
    SingularBasis,
)
from .model import (
    _N_CELLS_MAX,
    ChainSpec,
    ComplexWavenumber,
    _chain_size,
    _onsite,
    dispersion_energy,
)
from .scattering import _transfer_terms

_log = logging.getLogger(__name__)

__all__ = [
    "PoleClass",
    "PoleRecord",
    "SearchRegion",
    "ThresholdLadder",
    "Trajectory",
    "BranchPath",
    "AxisCrossing",
    "DEFAULT_REGION",
    "pole_residual",
    "find_poles",
    "threshold_ladder",
    "critical_size",
    "gamma_critical",
    "tgbs_count",
    "first_quadrant_region",
    "trace_trajectories",
]

#: Largest |Im k| of a pole classed as on the real axis.
CLASS_TOL = 1e-8
#: Converged roots must reach this residual.
RESIDUAL_TOL = 1e-10
#: Newton's last iterate: a run that has not stopped early is judged there.
NEWTON_MAX_ITER = 60
#: Step of the central difference that gives Newton the residual's derivative.
DERIVATIVE_STEP = 1e-6
#: Exclusion margin around the singular verticals Re k in {-pi, 0, pi}.
EDGE_MARGIN = 1e-4
#: A grid root stands for a pencil eigenvalue only when closer than this (in k).
GRID_ROOT_TOL = 1e-12
#: Largest gamma the pole census accepts. Through gamma = 1e14 every size
#: mapped from N = 1 to 200 gives the ladder's first-quadrant count and an
#: empty default strip; at 2e14 a spurious pole enters the strip at N = 110.
CENSUS_GAMMA_MAX = 1e12
#: Largest |Delta k| between consecutive points of one trajectory branch: a
#: census pole farther than this from a branch is not matched to it. Also the
#: depth inside the window beyond which a branch unmatched at the finest gamma
#: step is lost rather than gone out of the window.
CONTINUATION_STEP_BOUND = 0.3


class PoleClass(enum.Enum):
    """Physical classification of a pole by its strip position."""

    TGBS = "TGBS"
    DECAYING_BOUND = "DecayingBound"
    LASING_SINGULARITY = "LasingSingularity"
    ABSORBING_SINGULARITY = "AbsorbingSingularity"
    RESONANCE = "Resonance"


def _classify(k: complex) -> PoleClass:
    """Class by the sign of ``Im k`` (within :data:`CLASS_TOL`) and of ``Re k``, which every
    census pole keeps :data:`EDGE_MARGIN` away from 0 (a polished one within 1e-12 of it)."""
    if k.imag < -CLASS_TOL:
        return PoleClass.RESONANCE
    if abs(k.imag) <= CLASS_TOL:
        return PoleClass.LASING_SINGULARITY if k.real > 0 else PoleClass.ABSORBING_SINGULARITY
    # upper half plane: time-growing for Re k > 0, decaying bound otherwise
    return PoleClass.TGBS if k.real > 0 else PoleClass.DECAYING_BOUND


@dataclass(frozen=True)
class PoleRecord:
    """One located pole of the scattering denominator: its wavenumber ``k`` and its chain ``spec``.

    Everything else is derived from those two on first read, and cached.
    ``energy`` is ``E = -2 cos k``. ``growth_rate`` is ``Im E`` of the
    attached outgoing (Siegert) state, which equals
    ``2 sin(Re k) sinh(Im k)`` identically; first-quadrant poles have
    positive growth rate and invalidate stationary scattering results.
    ``classification`` is the class of :func:`_classify`, and ``residual``
    is ``|M22(k)|`` of that chain. A census whose records are read only for
    their ``k`` (a trajectory sweep's) computes none of them. Equality and
    hashing compare ``k`` and ``spec``.
    """

    k: ComplexWavenumber
    spec: ChainSpec

    @cached_property
    def energy(self) -> complex:
        return dispersion_energy(self.k.as_complex())

    @cached_property
    def growth_rate(self) -> float:
        return self.energy.imag

    @cached_property
    def classification(self) -> PoleClass:
        return _classify(self.k.as_complex())

    @cached_property
    def residual(self) -> float:
        return abs(pole_residual(self.spec, self.k.as_complex()))


@dataclass(frozen=True)
class SearchRegion:
    """Axis-aligned rectangle in the complex k strip."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self) -> None:
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(map(math.isfinite, bounds)):
            raise OutOfRange(f"search region bounds must be finite, got {self!r}")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise OutOfRange(f"degenerate search region {self!r}")
        if self.re_min < -math.pi - 1e-12 or self.re_max > math.pi + 1e-12:
            raise OutOfRange(f"region must lie within Re k in (-pi, pi], got {self!r}")

    def contains(self, k: complex | np.ndarray, pad: float = 1e-9) -> bool | np.ndarray:
        """Whether ``k`` lies in the rectangle widened by ``pad``; elementwise on an array."""
        return (
            (self.re_min - pad <= k.real) & (k.real <= self.re_max + pad)
            & (self.im_min - pad <= k.imag) & (k.imag <= self.im_max + pad)
        )


DEFAULT_REGION = SearchRegion(
    -math.pi + EDGE_MARGIN, math.pi - EDGE_MARGIN, -1.5, 1.5
)


# ---------------------------------------------------------------------------
# residual evaluation
# ---------------------------------------------------------------------------

def pole_residual(spec: ChainSpec, k: complex) -> complex:
    """The pole condition residual ``M22(k)`` (zero exactly at poles).

    Evaluates ``cos(2N mu) - i cot(k) tan(mu) sin(2N mu)`` in its branch-free
    Chebyshev form, through the scalar evaluator that
    :func:`~ptchain.scattering.scatter` takes ``M22`` from. It raises
    :class:`SingularBasis` at ``sin k = 0``, and a residual beyond the
    double range is NaN.
    """
    t_n, diag, _, _, _, _, _ = _transfer_terms(spec, complex(k))
    finite = cmath.isfinite(t_n) and cmath.isfinite(diag)
    return t_n - diag if finite else complex(math.nan, math.nan)


def _residual_derivative(spec: ChainSpec, k: complex) -> complex:
    """Central-difference derivative of the analytic residual, of step :data:`DERIVATIVE_STEP`."""
    h = DERIVATIVE_STEP
    return (pole_residual(spec, k + h) - pole_residual(spec, k - h)) / (2 * h)


def _newton(spec: ChainSpec, seed: complex) -> complex | None:
    """Damped Newton iteration on the residual; None when not converged.

    ``scale`` is the magnitude ``|T_N| + |diag|`` of the cancelling terms:
    deep in the strip they grow like cosh(2N Im k) and cancel at a root, so
    the achievable residual floor is the term scale times machine epsilon.
    The iteration stops early at the first iterate with
    ``|f| <= max(1e-13, 1e-15 * scale)``, and returns it. Otherwise it stops
    at iterate :data:`NEWTON_MAX_ITER` and accepts that one on the looser
    ``|f| <= max(1e-10, 5e-15 * scale)``; an iterate that stops early passes
    that too.

    Each iterate is a function of the one before and of nothing else, and so
    is the decision to stop before the last iterate. An iterate equal to an
    earlier one, bit for bit with signed zeros, therefore makes the run
    periodic from there to the last iterate: it ends on the iterate of the same
    phase in the period, with that iterate's acceptance, which is what the
    iterations left out would reach. Runs that stall on the axis
    ``Re k = ±pi/2`` of a long chain repeat after about ten iterations.
    """
    k = complex(seed)
    first_at: dict[bytes, int] = {}  # an iterate's bits -> its index
    ends: list[complex | None] = []  # per iterate: what the run returns if it stops there
    for it in range(NEWTON_MAX_ITER + 1):
        first = first_at.setdefault(struct.pack("<2d", k.real, k.imag), it)
        if first < it:  # periodic from ``first``, with period ``it - first``
            return ends[first + (NEWTON_MAX_ITER - first) % (it - first)]
        try:
            t_n, diag, _, _, _, _, _ = _transfer_terms(spec, k)
        except SingularBasis:
            return None
        if not (cmath.isfinite(t_n) and cmath.isfinite(diag)):  # beyond the double range
            return None
        f, scale = t_n - diag, abs(t_n) + abs(diag)
        ends.append(k if abs(f) <= max(RESIDUAL_TOL, 5e-15 * scale) else None)
        if it == NEWTON_MAX_ITER or abs(f) <= max(1e-13, 1e-15 * scale):
            return ends[-1]
        df = _residual_derivative(spec, k)
        if df == 0 or not cmath.isfinite(df):
            return None
        step = f / df
        if abs(step) > 0.5:  # damping: never jump across the strip
            step *= 0.5 / abs(step)
        k -= step
    return None  # unreachable: the last pass returns


# ---------------------------------------------------------------------------
# the finder
# ---------------------------------------------------------------------------

#: Seed-lattice points per unit k length along each axis (the fig2 presets' value).
SEED_DENSITY = 90


def _near_singular_vertical(k: complex | np.ndarray) -> bool | np.ndarray:
    """Whether ``Re k`` lies within :data:`EDGE_MARGIN` of -pi, 0 or pi; elementwise on an array."""
    re = k.real
    return (
        (abs(re + math.pi) < EDGE_MARGIN) | (abs(re) < EDGE_MARGIN)
        | (abs(re - math.pi) < EDGE_MARGIN)
    )


def _polish(spec: ChainSpec, region: SearchRegion, pencil: list[complex]) -> list[complex]:
    """Each eigenvalue in ``pencil`` as a Newton root of ``M22`` where one stands in for it.

    The seed lattice spans ``region`` with :data:`SEED_DENSITY` points per unit
    length along each axis, at ``lo + j * (hi - lo) / (n - 1)`` as
    ``np.linspace`` places them. Newton runs once per eigenvalue, from the
    lattice point nearest it, wherever that point lies, and its root replaces
    the eigenvalue when it lands within :data:`GRID_ROOT_TOL` of it. The
    eigenvalue is kept as it is otherwise, also where :func:`_newton` fails
    (at a singular basis, among others). The eigenvalues kept as they are
    make one DEBUG event under ``ptchain.poles`` with their count and the
    first of them.
    """
    axes = []
    for lo, hi in ((region.re_min, region.re_max), (region.im_min, region.im_max)):
        n = max(4, int(math.ceil((hi - lo) * SEED_DENSITY)) + 1)
        axes.append((lo, (hi - lo) / (n - 1)))
    polished, unpolished = [], []
    for k in pencil:
        seed = complex(*(lo + round((x - lo) / step) * step
                         for x, (lo, step) in zip((k.real, k.imag), axes)))
        root = _newton(spec, seed)
        if root is not None and abs(root - k) <= GRID_ROOT_TOL:
            polished.append(root)
        else:
            polished.append(k)
            unpolished.append(k)
    if unpolished:
        _log.debug(
            "%d of %d pole(s) reported unpolished, with no Newton root within %g, "
            "the first k=%r (N=%d, gamma=%r)",
            len(unpolished), len(pencil), GRID_ROOT_TOL, unpolished[0], spec.n_cells, spec.gamma,
        )
    return polished


def _companion(spec: ChainSpec) -> np.ndarray:
    """The 4N x 4N companion ``[[0, I], [-(I - P), -H_c]]`` of the monic pencil in ``w = 1/z``.

    ``H_c`` is the leadless chain, hopping -1 and the profile of
    :func:`~ptchain.model._onsite`; its negation is written entry by entry
    into a matrix of plain zeros.
    """
    n = spec.n_sites
    companion = np.zeros((2 * n, 2 * n), dtype=complex)
    sites = np.arange(n)
    companion[sites, n + sites] = 1.0
    companion[n + sites[1:-1], sites[1:-1]] = -1.0
    chain = n + sites
    companion[chain, chain] = -_onsite(spec)
    # the negated hopping -(-1 + 0j), imaginary part -0.0: a plain 1.0 moves the
    # last bits of the eigenvalues of 10 of 399 chains sampled (N <= 89, gamma <= 1e12)
    companion[chain[1:], chain[:-1]] = companion[chain[:-1], chain[1:]] = complex(1.0, -0.0)
    return companion


def _pencil_wavenumbers(spec: ChainSpec) -> np.ndarray:
    """Wavenumbers of the finite eigenvalues of the outgoing-wave pencil.

    With ``w = 1/z`` the problem ``z^2 (I - P) + z H_c + I = 0`` becomes the
    monic ``w^2 I + w H_c + (I - P) = 0``, whose 4N x 4N companion matrix
    (:func:`_companion`) is an ordinary eigenproblem. ``I - P`` has rank
    2N - 2, so at least two eigenvalues ``w`` vanish (``z`` infinite); they
    are dropped. The finite count is therefore at most 4N - 2, and fewer at
    exceptional points (none at N = 1, gamma = 1). NumPy's LAPACK solves the
    companion, so the census loads no SciPy.

    Raises :class:`OutOfRange` above :data:`CENSUS_GAMMA_MAX`, where the
    companion's entries of size gamma leave its eigenvalues unverified.
    """
    if spec.gamma > CENSUS_GAMMA_MAX:
        raise OutOfRange(
            f"gamma={spec.gamma!r} exceeds the pole census bound {CENSUS_GAMMA_MAX:g}"
        )
    w = np.linalg.eigvals(_companion(spec))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = 1.0 / w
    return -1j * np.log(z[np.isfinite(z)])


def _pencil_poles(spec: ChainSpec, region: SearchRegion) -> list[complex]:
    """The pencil eigenvalues whose ``k`` lies in ``region`` and off the singular verticals.

    None at ``gamma = 0``, where ``M22 = e^{-2iNk}`` has no zeros but the pencil
    still puts eigenvalues in the strip (74 in the default one at N = 20).
    """
    if spec.gamma == 0.0:
        return []
    k = _pencil_wavenumbers(spec)
    return k[region.contains(k) & ~_near_singular_vertical(k)].tolist()


def _records(spec: ChainSpec, roots: list[complex]) -> list[PoleRecord]:
    records = (PoleRecord(ComplexWavenumber.from_complex(r), spec) for r in roots)
    return sorted(records, key=lambda p: (p.k.re, p.k.im))


def _census(spec: ChainSpec, region: SearchRegion) -> list[PoleRecord]:
    """The poles in ``region`` as the outgoing-wave pencil gives them, sorted.

    The eigenvalues of :func:`_pencil_poles` as they are: no grid, no Newton.
    """
    return _records(spec, _pencil_poles(spec, region))


def find_poles(spec: ChainSpec, region: SearchRegion | None = None) -> list[PoleRecord]:
    """Locate every pole of the scattering denominator inside ``region``.

    The poles are the census of :func:`_census`, the in-region eigenvalues
    of the outgoing-wave pencil, each polished by :func:`_polish`: reported
    as the damped Newton root of ``M22`` from the nearest point of a lattice
    of :data:`SEED_DENSITY` points per unit length when that root lies
    within :data:`GRID_ROOT_TOL` of it, and as it is otherwise. The polish
    adds no pole; it only reproduces the last bits of the fig2 presets' ``k``
    and ``residual`` columns, which ``perfbench/reference/paper_figures.json``
    pins. Each pole is a :class:`PoleRecord` of its ``k`` and ``spec``,
    whose energy, class and residual are computed when first read.

    Parameters
    ----------
    spec : ChainSpec
    region : SearchRegion, optional
        Defaults to the full strip with ``Im k in [-1.5, 1.5]`` (minus the
        singular-vertical margins).

    Raises
    ------
    OutOfRange
        For ``gamma`` above :data:`CENSUS_GAMMA_MAX`, before any eigensolve.
    """
    if region is None:
        region = DEFAULT_REGION
    return _records(spec, _polish(spec, region, _pencil_poles(spec, region)))


# ---------------------------------------------------------------------------
# closed-form threshold ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdLadder:
    """Gain/loss values at which successive poles reach the real axis.

    ``gamma_values[n] = 2 cos((2n+1) pi / (4N))`` for ``n = 0..N-1`` (strictly
    descending), evaluated as ``2 sin((2j-1) pi / (4N))``, ``j = N - n``; the last,
    ``gamma_critical``, is the onset of the first time-growing bound state.
    All real-axis crossings happen at ``k = pi/2``.
    """

    gamma_values: tuple[float, ...]
    gamma_critical: float


def gamma_critical(n_cells: int) -> float:
    """The lowest ladder value ``2 sin(pi/(4N))`` of an ``n_cells`` chain: the ladder's last
    entry bit for bit, and the one float every onset decision compares ``gamma`` with.

    Raises
    ------
    OutOfRange
        For a non-integer ``n_cells``, below 1 or above ``sys.float_info.max``:
        the check of :class:`ChainSpec`.
    """
    return _ladder_value(1, _chain_size(n_cells))


def _ladder_value(j: int, n_cells: int) -> float:
    """``2 sin((2j-1) pi / (4N))``, ascending in ``j = 1..N``. Scaling by powers of two is exact:
    this rounds as ``(2j-1) * pi / 4 / N`` wherever half the angle is a normal double
    (N up to ~1.7e307), and stays finite for every ``j <= N <= sys.float_info.max``."""
    return 2.0 * math.sin((2 * j - 1) / 8 * math.pi / n_cells * 2)


def threshold_ladder(n_cells: int, verify_numeric: bool = False) -> ThresholdLadder:
    """Evaluate the closed-form threshold ladder for an ``n_cells`` chain.

    With ``verify_numeric=True``, additionally requires at every ladder value
    a pole condition residual at ``k = pi/2`` within what the rounding of the
    ladder value allows, ``|M22| <= 32 eps N |U_{N-1}(x)|``; otherwise
    :class:`MissedRoots` is raised. The allowance: at ``k = pi/2`` the
    ``cot k`` term vanishes (``cos(pi/2)`` rounds to 6e-17), so ``M22`` is
    ``T_N(x)`` with ``x = gamma**2/2 - 1``, exactly zero at a ladder value
    ``2 sin theta``. The angle is off by ~1.2 eps (relative) and the sine by
    1 eps, so ``gamma |dgamma| <= 2.4 eps theta sin 2theta + 4 eps <= 6.2 eps``,
    ``|dx| <= 9 eps`` and ``T_N(x + dx)`` by ``N |U_{N-1}(x)| |dx|``. The
    closed-form terms of the real-axis evaluator add ``N`` times a few eps, no
    more since ``|U_{N-1}| = 1/sin(2mu) >= 1`` at a ladder value. The worst
    ratio measured over N = 1..200, 300, 500, 1000, 2000, 5000 and 10**4 is
    3.23 of the 32. Between two ladder values ``|T_N|`` is of order one,
    against an allowance of at most ``64 eps N**2 / pi``, 4.5e-7 at N = 10**4.
    """
    n_cells = _chain_size(n_cells)
    gammas = tuple(_ladder_value(j, n_cells) for j in range(n_cells, 0, -1))
    if verify_numeric:
        for g in gammas:
            _check_ladder_value(n_cells, g)
    return ThresholdLadder(gamma_values=gammas, gamma_critical=gammas[-1])


def _check_ladder_value(n_cells: int, gamma: float) -> None:
    """Raise :class:`MissedRoots` unless ``|M22(pi/2)| <= 32 eps N |U_{N-1}(x)|``.

    The allowance is derived in :func:`threshold_ladder`. A real ``k`` takes
    the O(1) closed-form terms, which share one power-of-two scale.
    """
    t_n, diag, u_nm1, _, _, _, _ = _transfer_terms(ChainSpec(n_cells, gamma), 0.5 * math.pi)
    if not abs(t_n - diag) <= 32 * sys.float_info.epsilon * n_cells * abs(u_nm1):
        raise MissedRoots(
            f"no real-axis root at k=pi/2 for N={n_cells}, gamma={gamma!r}: "
            f"|M22| = {abs(t_n - diag):.3g}"
        )


def _prefix_count(n: int, holds) -> int:
    """How many of ``1..n`` satisfy ``holds``, which holds on a prefix of them: a bisection."""
    lo, hi = 0, n  # holds on 1..lo, fails on hi+1..n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid - 1)
    return lo


def critical_size(gamma: float) -> int | None:
    """Smallest chain length at which a time-growing bound state exists.

    Returns the least ``N`` with ``gamma_critical(N) < gamma`` (strict: at
    equality the pole sits exactly on the real axis and is a spectral
    singularity, not yet a growing state), and None at ``gamma = 0``. It is
    exact for every ``gamma``: the sizes with ``gamma_critical(N) >= gamma``
    are counted by bisection, below an upper end found by doubling.

    Raises
    ------
    OutOfRange
        For negative or non-finite ``gamma``, and for ``gamma`` so small
        (subnormal) that the size exceeds the double range.
    """
    if not 0.0 <= gamma < math.inf:
        raise OutOfRange(f"gamma must be non-negative and finite, got {gamma!r}")
    if gamma == 0.0:
        return None
    top = 1
    while not gamma_critical(top) < gamma:
        if top == _N_CELLS_MAX:
            raise OutOfRange(
                f"gamma={gamma!r} is too small: the critical size exceeds the double range"
            )
        top = min(2 * top, _N_CELLS_MAX)
    return _prefix_count(top, lambda n: gamma_critical(n) >= gamma) + 1


def first_quadrant_region(gamma: float) -> SearchRegion:
    """First-quadrant census window guaranteed to contain all growing poles.

    On the crossing line ``Re k = pi/2`` the residual has no roots once
    ``cos 2mu < -1``, which bounds ``Im k`` by ``acosh(gamma**2/2 + 1)/2``;
    a margin is added and a floor of 1.5 keeps the window generous.
    """
    im_max = 1.5
    if gamma > 0:
        im_max = max(im_max, 0.5 * math.acosh(0.5 * gamma * gamma + 1.0) + 0.25)
    return SearchRegion(EDGE_MARGIN, math.pi - EDGE_MARGIN, CLASS_TOL, im_max)


def _ladder_count(spec: ChainSpec) -> int:
    """Number of ladder values strictly below ``gamma``: at equality the pole is on the axis.

    The one count rule, a bisection over the ascending :func:`_ladder_value`.
    :func:`tgbs_count` returns it, and ``relevance.verdict`` calls it directly,
    so that a traced run counts only explicit ``tgbs_count`` calls.
    """
    n = spec.n_cells
    return _prefix_count(n, lambda j: _ladder_value(j, n) < spec.gamma)


def tgbs_count(spec: ChainSpec, verify: bool = False) -> int:
    """Number of time-growing bound states: ladder values below ``gamma``.

    The closed form counts ``#{n : gamma_n < gamma}``. With ``verify=True``
    the count is cross-checked against the number of first-quadrant poles
    among the eigenvalues of the outgoing-wave pencil; a mismatch raises
    :class:`MissedRoots`, and ``gamma`` above :data:`CENSUS_GAMMA_MAX` raises
    :class:`OutOfRange`. The closed form alone takes any ``gamma``.
    """
    count = _ladder_count(spec)
    if verify:
        pencil = _pencil_poles(spec, first_quadrant_region(spec.gamma))
        numeric = sum(_classify(k) is PoleClass.TGBS for k in pencil)
        if numeric != count:
            raise MissedRoots(
                f"closed-form TGBS count {count} != first-quadrant pole count "
                f"{numeric} (N={spec.n_cells}, gamma={spec.gamma})"
            )
    return count


# ---------------------------------------------------------------------------
# trajectories over gamma
# ---------------------------------------------------------------------------

@dataclass
class BranchPath:
    """One continuously tracked root: (gamma, record) pairs in sweep order."""

    branch_id: int
    points: list[tuple[float, PoleRecord]] = field(default_factory=list)
    lost: bool = False

    @property
    def last_k(self) -> complex:
        return self.points[-1][1].k.as_complex()


@dataclass(frozen=True)
class AxisCrossing:
    """A branch crossing the real k axis (a spectral singularity)."""

    branch_id: int
    gamma: float
    k: complex


@dataclass
class Trajectory:
    """Pole trajectories over an ascending gamma sweep.

    ``gamma_samples`` holds the midpoints of halved steps too, in order.
    """

    gamma_samples: list[float]
    branches: list[BranchPath]
    crossings: list[AxisCrossing]


def _refine_crossing(
    spec_base: ChainSpec,
    g_lo: float,
    k_lo: complex,
    g_hi: float,
    k_hi: complex,
) -> tuple[float, complex] | None:
    """Bisection in gamma for the Im k = 0 crossing of a tracked root.

    ``(gamma, k)`` where Newton's root reaches ``|Im k| <= 1e-9``; None when
    Newton fails, the interval shrinks to 1e-12 first, or 80 halvings pass.
    """
    hi_sign = k_hi.imag > 0
    for _ in range(80):
        g_mid = 0.5 * (g_lo + g_hi)
        seed = k_lo + (k_hi - k_lo) * ((g_mid - g_lo) / (g_hi - g_lo))
        root = _newton(ChainSpec(spec_base.n_cells, g_mid), seed)
        if root is not None and abs(root.imag) <= 1e-9:
            return g_mid, root
        if root is None or (g_hi - g_lo) <= 1e-12:
            return None
        if (root.imag > 0) == hi_sign:
            g_hi, k_hi = g_mid, root
        else:
            g_lo, k_lo = g_mid, root
    return None


def _match(last: np.ndarray, found: np.ndarray) -> dict[int, int]:
    """Greedy nearest-first matching of branches to census poles: branch index -> pole index.

    ``last`` holds each live branch's last ``k``, ``found`` the census poles.
    The pairs within :data:`CONTINUATION_STEP_BOUND` are taken in ascending
    ``(distance, branch, pole)`` order, each when neither of its two is
    taken yet; ties thus go to the older branch, then to the earlier pole.
    ``np.hypot`` of the differences is Python's ``abs`` of the complex
    difference, bit for bit.
    """
    d = np.hypot(found.real - last.real[:, None], found.imag - last.imag[:, None])
    bi, ri = np.nonzero(d <= CONTINUATION_STEP_BOUND)
    order = np.lexsort((ri, bi, d[bi, ri]))
    matched: dict[int, int] = {}
    taken: set[int] = set()
    for b, r in zip(bi[order].tolist(), ri[order].tolist()):
        if b not in matched and r not in taken:
            matched[b] = r
            taken.add(r)
    return matched


def trace_trajectories(
    spec_base: ChainSpec,
    gamma_min: float,
    gamma_max: float,
    steps: int,
    region: SearchRegion | None = None,
    strict: bool = True,
) -> Trajectory:
    """Track every pole inside ``region`` while gamma sweeps upward.

    At each gamma sample the in-region eigenvalues of the outgoing-wave
    pencil, every pole at once with no grid and no Newton, are matched
    to the live branches nearest-first within :data:`CONTINUATION_STEP_BOUND`;
    unmatched poles start new branches (poles rise into the window from below
    as gamma grows — at gamma = 0 the window is empty), so every branch point
    is a census record. When every census pole is matched and each unmatched
    branch lies within the bound of the window's edge, those branches end at
    once: their poles left the window. The exception is a branch below the
    real axis within the bound of a top edge at or above it, which may have
    crossed the axis on its way out. Any other unmatched branch makes the
    sweep retry the sample after a census at the step's midpoint, at most
    three halvings deep. A branch still unmatched then ends if it lies
    within the bound of the window's edge, and is marked lost otherwise
    (``strict=True`` raises :class:`BranchLost` instead).

    A branch's rise of Im k through zero is refined in gamma by
    :func:`_refine_crossing` and reported only where the root is on the real
    axis, at ``Re k = ±pi/2`` and a ladder value. A sign change with no root
    on the axis means the branch swapped poles: it ends at the sample before
    the change and is lost the same way, and its points from the sample after
    it become a new branch, which is scanned too. Each loss makes one DEBUG
    event under ``ptchain.poles``. With the default region, a sweep reaching
    gamma = 2 warns unless 2N - 1 of the branches reaching its last sample
    lie at ``Re k > 0``. A ``gamma_max`` above :data:`CENSUS_GAMMA_MAX`
    raises :class:`OutOfRange` before the first census.
    """
    if not (0.0 <= gamma_min <= gamma_max):
        raise OutOfRange(f"need 0 <= gamma_min <= gamma_max, got {gamma_min!r}, {gamma_max!r}")
    if gamma_min < gamma_max and steps < 10:
        raise OutOfRange(f"steps must be >= 10, got {steps}")
    if gamma_max > CENSUS_GAMMA_MAX:
        raise OutOfRange(
            f"gamma_max={gamma_max!r} exceeds the pole census bound {CENSUS_GAMMA_MAX:g}"
        )
    if region is None:
        region = DEFAULT_REGION

    if gamma_min == gamma_max:
        # degenerate sweep: emit the pole set of the single gamma
        gammas = [gamma_min]
    else:
        gammas = [gamma_min + (gamma_max - gamma_min) * i / steps for i in range(steps + 1)]
    # stack of (gamma, halvings, census or None), the next sample last
    todo = [(g, 0, None) for g in reversed(gammas)]
    samples: list[float] = []
    branches: list[BranchPath] = []
    live: list[BranchPath] = []  # creation order, so that ties match the older branch

    def lose(b: BranchPath, where: str) -> None:
        if strict:
            raise BranchLost(f"branch {b.branch_id} lost {where}")
        _log.debug("branch %d lost %s (N=%d)", b.branch_id, where, spec_base.n_cells)
        b.lost = True

    while todo:
        g, halvings, found = todo[-1]
        if found is None:
            found = _census(ChainSpec(spec_base.n_cells, g), region)

        matched = _match(
            np.array([b.last_k for b in live], dtype=complex),
            np.array([r.k.as_complex() for r in found], dtype=complex),
        )
        matched_r = set(matched.values())

        unmatched = [b for bi, b in enumerate(live) if bi not in matched]
        # unmatched branches farther than the bound inside the window
        inside = [
            b for b in unmatched if region.contains(b.last_k, pad=-CONTINUATION_STEP_BOUND)
        ]
        # edge branches end at once when no census pole is left for them,
        # unless one may cross the real axis on its way out through the top
        settled = len(matched_r) == len(found) and not any(
            b.last_k.imag < 0.0 <= region.im_max
            and region.im_max - b.last_k.imag <= CONTINUATION_STEP_BOUND
            for b in unmatched
        )
        if unmatched and halvings < 3 and (inside or not settled):
            mid = 0.5 * (samples[-1] + g)
            _log.debug(
                "branches %s unmatched at gamma=%r: halving the step to gamma=%r (N=%d)",
                [b.branch_id for b in unmatched], g, mid, spec_base.n_cells,
            )
            todo[-1] = (g, halvings + 1, found)
            todo.append((mid, halvings + 1, None))
            continue
        todo.pop()
        samples.append(g)
        # an unmatched branch within the bound of the window's edge has left
        # the window; one farther inside is lost
        for b in inside:
            lose(b, f"near gamma={g!r} (last k={b.last_k!r})")
        for bi, ri in matched.items():
            live[bi].points.append((g, found[ri]))
        live = [b for bi, b in enumerate(live) if bi in matched]

        # unmatched found roots: new branches are born
        for ri, r in enumerate(found):
            if ri not in matched_r:
                b = BranchPath(branch_id=len(branches), points=[(g, r)])
                branches.append(b)
                live.append(b)

    # refine real-axis crossings; the scan reaches the branches it appends too
    crossings: list[AxisCrossing] = []
    for b in branches:
        for i, ((g0, p0), (g1, p1)) in enumerate(zip(b.points[:-1], b.points[1:])):
            k0, k1 = p0.k.as_complex(), p1.k.as_complex()
            if k0.imag < 0 <= k1.imag:
                ref = _refine_crossing(spec_base, g0, k0, g1, k1)
                if ref is not None:
                    crossings.append(AxisCrossing(b.branch_id, ref[0], ref[1]))
                    continue
                # the branch swapped poles: it ends at g0, its points from g1 on are a new branch
                branches.append(BranchPath(len(branches), b.points[i + 1 :], lost=b.lost))
                del b.points[i + 1 :]
                lose(b, f"between gamma={g0!r} and {g1!r}: Im k changes sign "
                        "with no root on the real axis")
                break

    n_positive = sum(b.points[-1][1].k.re > 0 for b in branches if b.points[-1][0] == samples[-1])
    expected = 2 * spec_base.n_cells - 1
    if region == DEFAULT_REGION and gamma_max >= 2.0 and n_positive != expected:
        warnings.warn(
            f"observed {n_positive} branches with Re k > 0, expected {expected} "
            f"(soft structural check for N={spec_base.n_cells})",
            stacklevel=2,
        )
    return Trajectory(gamma_samples=samples, branches=branches, crossings=crossings)
