"""S-matrix poles in the complex wavenumber strip.

Poles are the zeros of the common scattering denominator ``M22(k)``. This
module locates them numerically, evaluates the closed-form threshold ladder
at which they cross the real axis, classifies them physically, and tracks
their motion as the gain/loss strength varies. Every census is the set of
eigenvalues of the outgoing-wave pencil in a region, one eigensolve each:
:func:`find_poles`, the trajectory sweep and the verified TGBS count. Only
:func:`find_poles` also runs Newton on ``M22``, from the local minima of
``|M22|`` on a fixed seed lattice within a few cells of each eigenvalue; a
Newton root stands in for the eigenvalue it agrees with to 1e-12.

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
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BranchLost,
    MissedRoots,
    OutOfRange,
    SingularBasis,
)
from .model import ChainSpec, ComplexWavenumber, chain_operator, dispersion_energy
from .scattering import _transfer_terms, chebyshev_tu

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

#: Sign tolerance for classifying a pole's quadrant / axis proximity.
CLASS_TOL = 1e-8
#: Converged roots must reach this residual.
RESIDUAL_TOL = 1e-10
#: Exclusion margin around the singular verticals Re k in {-pi, 0, pi}.
EDGE_MARGIN = 1e-4
#: A grid root stands for a pencil eigenvalue only when closer than this (in k).
GRID_ROOT_TOL = 1e-12
#: Largest |Delta k| between consecutive points of one trajectory branch: a
#: census pole farther than this from a branch is not matched to it. Also the
#: depth inside the window beyond which a branch unmatched at the finest gamma
#: step is lost rather than gone out of the window.
CONTINUATION_STEP_BOUND = 0.3


class PoleClass(enum.Enum):
    """Physical classification of a pole by its strip position."""

    TGBS = "TGBS"
    DECAYING_BOUND = "DecayingBound"
    SPECTRAL_SINGULARITY = "SpectralSingularity"
    LASING_SINGULARITY = "LasingSingularity"
    ABSORBING_SINGULARITY = "AbsorbingSingularity"
    RESONANCE = "Resonance"


def _classify(k: complex, tol: float = CLASS_TOL) -> PoleClass:
    if k.imag < -tol:
        return PoleClass.RESONANCE
    if abs(k.imag) <= tol:
        if k.real > tol:
            return PoleClass.LASING_SINGULARITY
        if k.real < -tol:
            return PoleClass.ABSORBING_SINGULARITY
        return PoleClass.SPECTRAL_SINGULARITY
    # upper half plane: time-growing for Re k > 0, decaying bound otherwise
    if k.real > tol:
        return PoleClass.TGBS
    if k.real < -tol:
        return PoleClass.DECAYING_BOUND
    return PoleClass.SPECTRAL_SINGULARITY


@dataclass(frozen=True)
class PoleRecord:
    """One located pole of the scattering denominator.

    ``growth_rate`` is ``Im E`` of the attached outgoing (Siegert) state,
    which equals ``2 sin(Re k) sinh(Im k)`` identically; first-quadrant poles
    have positive growth rate and invalidate stationary scattering results.
    """

    k: ComplexWavenumber
    energy: complex
    growth_rate: float
    classification: PoleClass
    residual: float


def _record(spec: ChainSpec, k: complex) -> PoleRecord:
    e = dispersion_energy(k)
    return PoleRecord(
        k=ComplexWavenumber.from_complex(k),
        energy=e,
        growth_rate=e.imag,
        classification=_classify(k),
        residual=abs(pole_residual(spec, k)),
    )


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

    def contains(self, k: complex, pad: float = 1e-9) -> bool:
        return (
            self.re_min - pad <= k.real <= self.re_max + pad
            and self.im_min - pad <= k.imag <= self.im_max + pad
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
    :func:`~ptchain.scattering.plane_wave_transfer` builds ``M22`` from. It
    raises :class:`SingularBasis` at ``sin k = 0``, and a residual beyond the
    double range is NaN.
    """
    t_n, diag, _, _, _, _ = _transfer_terms(spec, complex(k))
    finite = cmath.isfinite(t_n) and cmath.isfinite(diag)
    return t_n - diag if finite else complex(math.nan, math.nan)


def _residual_derivative(spec: ChainSpec, k: complex, step: float = 1e-6) -> complex:
    """Central-difference derivative of the analytic residual."""
    return (pole_residual(spec, k + step) - pole_residual(spec, k - step)) / (2 * step)


def _newton(spec: ChainSpec, seed: complex, max_iter: int = 60) -> complex | None:
    """Damped Newton iteration on the residual; None when not converged.

    Acceptance is ``|f| <= max(1e-10, 5e-15 * scale)`` where ``scale`` is the
    magnitude ``|T_N| + |diag|`` of the cancelling terms: deep in the strip
    they grow like cosh(2N Im k) and cancel at a root, so the achievable
    residual floor is the term scale times machine epsilon.
    """
    k = complex(seed)
    for it in range(max_iter + 1):
        try:
            t_n, diag, _, _, _, _ = _transfer_terms(spec, k)
        except SingularBasis:
            return None
        if not (cmath.isfinite(t_n) and cmath.isfinite(diag)):  # beyond the double range
            return None
        f, scale = t_n - diag, abs(t_n) + abs(diag)
        if it == max_iter or abs(f) <= max(1e-13, 1e-15 * scale):
            return k if abs(f) <= max(RESIDUAL_TOL, 5e-15 * scale) else None
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
#: Half-width, in lattice cells along each axis, of the window around each
#: in-region pencil eigenvalue within which a seed-lattice point may seed Newton.
SEED_WINDOW = 2


def _window_seeds(
    spec: ChainSpec, region: SearchRegion, pencil: list[complex]
) -> list[list[complex]]:
    """Each eigenvalue's seeds: the local minima of ``|M22|`` in its window, deepest first.

    The lattice spans ``region`` with :data:`SEED_DENSITY` points per unit
    length. The window of an eigenvalue in ``pencil`` holds the lattice
    points within :data:`SEED_WINDOW` cells of it along each axis, off the
    lattice's border; a seed is a window point whose ``|M22|`` is no larger
    than at any of its eight neighbours. ``|M22|`` is evaluated, for all
    eigenvalues at once, on each window and its neighbours only, by the plain
    array expression with :func:`chebyshev_tu`, and counts as ``inf`` where it
    is not finite. Equal depths keep lattice (row-major) order. The seeds and
    their order are therefore those of the whole lattice's local minima that
    fall in the window.
    """
    nr = max(4, int(math.ceil((region.re_max - region.re_min) * SEED_DENSITY)) + 1)
    ni = max(4, int(math.ceil((region.im_max - region.im_min) * SEED_DENSITY)) + 1)
    re = np.linspace(region.re_min, region.re_max, nr)
    im = np.linspace(region.im_min, region.im_max, ni)
    p = np.array(pencil, dtype=complex)
    # fractional lattice indices of each eigenvalue
    i = (p.imag - region.im_min) / (region.im_max - region.im_min) * (ni - 1)
    j = (p.real - region.re_min) / (region.re_max - region.re_min) * (nr - 1)
    # each eigenvalue's block: its window's rows and columns, and one more on each side
    span = np.arange(-1, 2 * SEED_WINDOW + 2)
    rows = np.ceil(i - SEED_WINDOW).astype(int)[:, None] + span
    cols = np.ceil(j - SEED_WINDOW).astype(int)[:, None] + span
    in_rows = (rows <= np.floor(i + SEED_WINDOW)[:, None]) & (rows >= 1) & (rows <= ni - 2)
    in_cols = (cols <= np.floor(j + SEED_WINDOW)[:, None]) & (cols >= 1) & (cols <= nr - 2)
    window = in_rows[:, 1:-1, None] & in_cols[:, None, 1:-1]
    # clipped indices only stand in next to points outside the window
    k = re[np.clip(cols, 0, nr - 1)][:, None, :] + 1j * im[np.clip(rows, 0, ni - 1)][:, :, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.cos(2 * k) + 0.5 * spec.gamma**2
        t_n, u_nm1 = chebyshev_tu(spec.n_cells, x)
        m22 = t_n - 1j * (np.cos(k) / np.sin(k)) * (1.0 - x) * u_nm1
    a = np.where(np.isfinite(m22), np.abs(m22), np.inf)
    depth, w = a[:, 1:-1, 1:-1], 2 * SEED_WINDOW + 1
    is_min = window & np.logical_and.reduce([
        depth <= a[:, 1 + di : 1 + di + w, 1 + dj : 1 + dj + w]
        for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj
    ])
    # each eigenvalue's seeds by depth, first in its row: the other points' NaN sorts last
    order = np.argsort(np.where(is_min, depth, np.nan).reshape(len(p), w * w), axis=1, kind="stable")
    seeds = np.take_along_axis(k[:, 1:-1, 1:-1].reshape(len(p), w * w), order, axis=1)
    return [row[:n] for row, n in zip(seeds.tolist(), is_min.sum(axis=(1, 2)).tolist())]


def _near_singular_vertical(k: complex) -> bool:
    return any(abs(k.real - s) < EDGE_MARGIN for s in (-math.pi, 0.0, math.pi))


def _polish(spec: ChainSpec, region: SearchRegion, pencil: list[complex]) -> list[complex]:
    """Each eigenvalue in ``pencil`` as a Newton root of ``M22`` where one stands in for it.

    An eigenvalue is replaced by the first damped Newton root, from its own
    seeds (:func:`_window_seeds`) in order, that lands within
    :data:`GRID_ROOT_TOL` of it, and is kept as it is otherwise. Newton runs
    at most once per seed, which overlapping windows share, and never from a
    seed near a singular vertical. The eigenvalues kept as they are make one
    DEBUG event under ``ptchain.poles`` with their count and the first of them.
    """
    roots: dict[complex, complex | None] = {}
    polished, unpolished = [], []
    for k, seeds in zip(pencil, _window_seeds(spec, region, pencil)):
        for seed in seeds:
            if seed not in roots:
                roots[seed] = None if _near_singular_vertical(seed) else _newton(spec, seed)
            root = roots[seed]
            if root is not None and abs(root - k) <= GRID_ROOT_TOL:
                polished.append(root)
                break
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


def _pencil_wavenumbers(spec: ChainSpec) -> np.ndarray:
    """Wavenumbers of the finite eigenvalues of the outgoing-wave pencil.

    With ``w = 1/z`` the problem ``z^2 (I - P) + z H_c + I = 0`` becomes the
    monic ``w^2 I + w H_c + (I - P) = 0``, whose 4N x 4N companion matrix is
    an ordinary eigenproblem. ``I - P`` has rank 2N - 2, so at least two
    eigenvalues ``w`` vanish (``z`` infinite); they are dropped. The finite
    count is therefore at most 4N - 2, and fewer at exceptional points (none
    at N = 1, gamma = 1). ``H_c`` is the leadless :func:`chain_operator`,
    densified for the eigensolver.
    """
    # imported here so that ``import ptchain`` does not load scipy.linalg
    import scipy.linalg

    n = spec.n_sites
    h_c = chain_operator(spec).toarray()
    open_ends = np.eye(n)
    open_ends[0, 0] = open_ends[-1, -1] = 0.0
    companion = np.block([[np.zeros((n, n)), np.eye(n)], [-open_ends, -h_c]])
    w = scipy.linalg.eigvals(companion, overwrite_a=True, check_finite=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = 1.0 / w
    return -1j * np.log(z[np.isfinite(z)])


def _pencil_poles(spec: ChainSpec, region: SearchRegion) -> list[complex]:
    """The pencil eigenvalues whose ``k`` lies in ``region`` and off the singular verticals."""
    return [
        k for k in map(complex, _pencil_wavenumbers(spec))
        if region.contains(k) and not _near_singular_vertical(k)
    ]


def _records(spec: ChainSpec, roots: list[complex]) -> list[PoleRecord]:
    return sorted((_record(spec, r) for r in roots), key=lambda p: (p.k.re, p.k.im))


def _census(spec: ChainSpec, region: SearchRegion) -> list[PoleRecord]:
    """The poles in ``region`` as the outgoing-wave pencil gives them, sorted.

    The eigenvalues of :func:`_pencil_poles` as they are: no grid, no Newton. Empty
    at ``gamma = 0``, where ``M22 = e^{-2iNk}`` has no zeros but the pencil
    still puts eigenvalues in the strip (74 in the default one at N = 20).
    """
    if spec.gamma == 0.0:
        return []
    return _records(spec, _pencil_poles(spec, region))


def find_poles(spec: ChainSpec, region: SearchRegion | None = None) -> list[PoleRecord]:
    """Locate every pole of the scattering denominator inside ``region``.

    The poles are the census of :func:`_census`, the in-region eigenvalues
    of the outgoing-wave pencil, each polished by :func:`_polish`: reported
    as a damped Newton root of ``M22`` within :data:`GRID_ROOT_TOL` of it,
    seeded at the local minima of ``|M22|`` on a lattice of
    :data:`SEED_DENSITY` points per unit length within :data:`SEED_WINDOW`
    cells of it, and as it is where no such root exists. The polish adds no
    pole; it only reproduces the last bits of the fig2 presets' ``k`` and
    ``residual`` columns, which ``perfbench/reference/paper_figures.json``
    pins.

    Parameters
    ----------
    spec : ChainSpec
    region : SearchRegion, optional
        Defaults to the full strip with ``Im k in [-1.5, 1.5]`` (minus the
        singular-vertical margins).
    """
    if region is None:
        region = DEFAULT_REGION
    if spec.gamma == 0.0:
        return []
    return _records(spec, _polish(spec, region, _pencil_poles(spec, region)))


# ---------------------------------------------------------------------------
# closed-form threshold ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdLadder:
    """Gain/loss values at which successive poles reach the real axis.

    ``gamma_values[n] = 2 cos((2n+1) pi / (4N))`` for ``n = 0..N-1``
    (strictly descending); the smallest one, ``gamma_critical =
    2 sin(pi/(4N))``, is the onset of the first time-growing bound state.
    All real-axis crossings happen at ``k = pi/2``.
    """

    n_cells: int
    gamma_values: tuple[float, ...]
    gamma_critical: float
    mu_values: tuple[float, ...]


def gamma_critical(n_cells: int) -> float:
    """The lowest ladder value ``2 sin(pi/(4N))`` of an ``n_cells`` chain."""
    return 2.0 * math.sin(math.pi / (4 * n_cells))


def threshold_ladder(n_cells: int, verify_numeric: bool = False) -> ThresholdLadder:
    """Evaluate the closed-form threshold ladder for an ``n_cells`` chain.

    With ``verify_numeric=True``, additionally runs one Newton solve of the
    pole condition from ``k = pi/2`` at every ladder value and requires it to
    converge to a real-axis root at ``pi/2`` (within 1e-7 in ``Re k`` and
    1e-8 in ``Im k``); otherwise :class:`MissedRoots` is raised.
    """
    if n_cells < 1:
        raise OutOfRange(f"n_cells must be >= 1, got {n_cells}")
    mu = tuple((2 * n + 1) * math.pi / (4 * n_cells) for n in range(n_cells))
    gammas = tuple(2.0 * math.cos(m) for m in mu)
    ladder = ThresholdLadder(
        n_cells=n_cells,
        gamma_values=gammas,
        gamma_critical=gamma_critical(n_cells),
        mu_values=mu,
    )
    if verify_numeric:
        for g in gammas:
            root = _newton(ChainSpec(n_cells, g), 0.5 * math.pi)
            if root is None or abs(root.real - 0.5 * math.pi) > 1e-7 or abs(root.imag) > 1e-8:
                raise MissedRoots(
                    f"no real-axis root at k=pi/2 for N={n_cells}, gamma={g!r}"
                )
    return ladder


def critical_size(gamma: float) -> int:
    """Smallest chain length at which a time-growing bound state exists.

    Returns the least ``N`` with ``2 sin(pi/(4N)) < gamma`` (strict: at
    equality the pole sits exactly on the real axis and is a spectral
    singularity, not yet a growing state). For ``gamma >= 2`` every ``N``
    qualifies and 1 is returned.

    Raises
    ------
    OutOfRange
        For ``gamma <= 0`` (no threshold is ever crossed), non-finite
        ``gamma``, and ``gamma`` so small (subnormal) that the size exceeds
        the double range.
    """
    if not 0.0 < gamma < math.inf:
        raise OutOfRange(f"gamma must be positive and finite, got {gamma!r}")
    if gamma >= 2.0:
        return 1
    # N > pi / (4 asin(gamma/2)); the epsilon keeps exact-equality cases
    # (gamma == gamma_c(m) to rounding) on the strict side.
    try:
        x = math.pi / (4.0 * math.asin(0.5 * gamma))
        return int(math.floor(x + 1e-12)) + 1
    except (ZeroDivisionError, OverflowError):
        raise OutOfRange(
            f"gamma={gamma!r} is too small: the critical size exceeds the double range"
        ) from None


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


def tgbs_count(spec: ChainSpec, verify: bool = False) -> int:
    """Number of time-growing bound states: ladder values below ``gamma``.

    The closed form counts ``#{n : gamma_n < gamma}``. With ``verify=True``
    the count is cross-checked against the number of first-quadrant poles
    among the eigenvalues of the outgoing-wave pencil; a mismatch raises
    :class:`MissedRoots`.
    """
    ladder = threshold_ladder(spec.n_cells)
    count = sum(1 for g in ladder.gamma_values if g < spec.gamma)
    if verify:
        recs = _census(spec, first_quadrant_region(spec.gamma))
        numeric = sum(r.classification is PoleClass.TGBS for r in recs)
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
    """Bisection in gamma for the Im k = 0 crossing of a tracked root."""
    hi_sign = k_hi.imag > 0
    g_mid, root = g_lo, k_lo
    for _ in range(80):
        g_mid = 0.5 * (g_lo + g_hi)
        seed = k_lo + (k_hi - k_lo) * ((g_mid - g_lo) / (g_hi - g_lo) if g_hi > g_lo else 0.5)
        root = _newton(ChainSpec(spec_base.n_cells, g_mid), seed)
        if root is None:
            return None
        if abs(root.imag) <= 1e-9 or (g_hi - g_lo) <= 1e-12:
            return g_mid, root
        if (root.imag > 0) == hi_sign:
            g_hi, k_hi = g_mid, root
        else:
            g_lo, k_lo = g_mid, root
    return g_mid, root


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

    Real-axis crossings of every branch are refined in gamma by bisection
    with Newton on ``M22`` and reported; they land on ``Re k = ±pi/2`` at
    the ladder values. With the default region, a sweep reaching gamma = 2
    warns unless it ends with 2N - 1 branches at ``Re k > 0``.
    """
    if not (0.0 <= gamma_min <= gamma_max):
        raise OutOfRange(f"need 0 <= gamma_min <= gamma_max, got {gamma_min!r}, {gamma_max!r}")
    if gamma_min < gamma_max and steps < 10:
        raise OutOfRange(f"steps must be >= 10, got {steps}")
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

    while todo:
        g, halvings, found = todo[-1]
        if found is None:
            found = _census(ChainSpec(spec_base.n_cells, g), region)

        # greedy nearest-neighbor matching, closest pairs first
        found_k = [r.k.as_complex() for r in found]
        pairs: list[tuple[float, int, int]] = []
        for bi, b in enumerate(live):
            last_k = b.last_k
            for ri, r in enumerate(found_k):
                d = abs(r - last_k)
                if d <= CONTINUATION_STEP_BOUND:
                    pairs.append((d, bi, ri))
        pairs.sort()
        matched: dict[int, int] = {}
        matched_r: set[int] = set()
        for d, bi, ri in pairs:
            if bi not in matched and ri not in matched_r:
                matched[bi] = ri
                matched_r.add(ri)

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
            if strict:
                raise BranchLost(
                    f"branch {b.branch_id} lost near gamma={g!r} (last k = {b.last_k!r})"
                )
            _log.debug(
                "branch %d lost near gamma=%r (last k=%r, N=%d)",
                b.branch_id, g, b.last_k, spec_base.n_cells,
            )
            b.lost = True
        for bi, ri in matched.items():
            live[bi].points.append((g, found[ri]))
        live = [b for bi, b in enumerate(live) if bi in matched]

        # unmatched found roots: new branches are born
        for ri, r in enumerate(found):
            if ri not in matched_r:
                b = BranchPath(branch_id=len(branches), points=[(g, r)])
                branches.append(b)
                live.append(b)

    # refine real-axis crossings
    crossings: list[AxisCrossing] = []
    for b in branches:
        for (g0, p0), (g1, p1) in zip(b.points[:-1], b.points[1:]):
            k0, k1 = p0.k.as_complex(), p1.k.as_complex()
            if k0.imag == 0.0:
                crossings.append(AxisCrossing(b.branch_id, g0, k0))
                continue
            if (k0.imag < 0) and (k1.imag >= 0):
                ref = _refine_crossing(spec_base, g0, k0, g1, k1)
                if ref is not None:
                    crossings.append(AxisCrossing(b.branch_id, ref[0], ref[1]))

    n_positive = sum(b.points[-1][1].k.re > 0 for b in branches)
    expected = 2 * spec_base.n_cells - 1
    if region == DEFAULT_REGION and gamma_max >= 2.0 and n_positive != expected:
        warnings.warn(
            f"observed {n_positive} branches with Re k > 0, expected {expected} "
            f"(soft structural check for N={spec_base.n_cells})",
            stacklevel=2,
        )
    return Trajectory(gamma_samples=samples, branches=branches, crossings=crossings)
