"""S-matrix poles in the complex wavenumber strip.

Poles are the zeros of the common scattering denominator ``M22(k)``. This
module locates them numerically, evaluates the closed-form threshold ladder
at which they cross the real axis, classifies them physically, and tracks
their motion as the gain/loss strength varies. Every census is the set of
eigenvalues of the outgoing-wave pencil in a region, one eigensolve each:
:func:`find_poles`, the trajectory sweep and the verified TGBS count. Only
:func:`find_poles` also runs a seed grid with Newton on ``M22``, whose roots
stand in for the eigenvalues they agree with to 1e-12.

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
import scipy.linalg

from .errors import (
    BranchLost,
    MissedRoots,
    OutOfRange,
    SingularBasis,
)
from .model import ChainSpec, ComplexWavenumber, chain_operator, dispersion_energy
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
    t_n, diag, _, _, exp, _ = _transfer_terms(spec, complex(k))
    return t_n - diag if not exp else complex(math.nan, math.nan)


#: Number of work arrays :func:`_m22_array` takes.
_M22_WORK = 6


def _m22_array(spec: ChainSpec, cos2k: np.ndarray, icot: np.ndarray, work: list) -> np.ndarray:
    """``M22`` on an array of ``k`` from its gamma-independent factors.

    ``cos2k`` is ``cos 2k`` and ``icot`` is ``1j * cot k``; ``work`` holds
    :data:`_M22_WORK` arrays of their shape, all overwritten, and the result
    is returned in one of them. The Chebyshev recurrence runs in place, N
    passes over the work arrays; :func:`_seed_lattice` therefore calls it on
    blocks of lattice rows small enough to stay in cache. Each element's
    operations do not depend on the array it sits in, so a block gives the
    bits the whole lattice gives.

    Every operation, and the order of its operands, is the one the plain
    expression ``t_n - 1j * (cos k / sin k) * (1 - x) * u_nm1`` with
    ``chebyshev_tu`` performs: numpy's complex multiply is not bitwise
    commutative, so swapping two factors moves the last bit of ``|M22|``, and
    with it the grid seeds and the polished roots.
    """
    two_x, scratch, t_prev, t_cur, u_prev, u_cur = work
    shift = 0.5 * spec.gamma**2
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.add(cos2k, shift, out=scratch)
        # T_0 = x*0 + 1, U_{-1} = x*0, T_1 = x*T_0, U_0 = T_0, as chebyshev_tu builds them
        np.multiply(x, 0, out=u_prev)
        np.add(u_prev, 1.0, out=t_prev)
        np.multiply(x, t_prev, out=t_cur)
        np.copyto(u_cur, t_prev)
        np.multiply(2, x, out=two_x)
        for _ in range(spec.n_cells - 1):
            np.multiply(two_x, t_cur, out=scratch)
            np.subtract(scratch, t_prev, out=t_prev)
            t_prev, t_cur = t_cur, t_prev
            np.multiply(two_x, u_cur, out=scratch)
            np.subtract(scratch, u_prev, out=u_prev)
            u_prev, u_cur = u_cur, u_prev
        # x once more, into the spent T_{N-1}: the same sum gives the same bits
        m = np.add(cos2k, shift, out=t_prev)
        np.subtract(1.0, m, out=m)
        np.multiply(icot, m, out=m)
        np.multiply(m, u_cur, out=m)
        return np.subtract(t_cur, m, out=m)


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
            t_n, diag, _, _, exp, _ = _transfer_terms(spec, k)
        except SingularBasis:
            return None
        if exp:  # M22 beyond the double range
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

#: Lattice points per block of the seed grid's recurrence. A block's six
#: complex work arrays then take about 0.8 MB and stay in a core's L2 cache
#: through the N passes of the recurrence; the whole default lattice (68,418
#: points, 6.6 MB of work arrays) streams from L3 on every pass.
_BLOCK = 8192


def _seed_lattice(
    spec: ChainSpec, region: SearchRegion, grid_density: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The seed lattice's axes ``re`` and ``im``, and ``|M22|`` on it.

    ``|M22|`` comes from the gamma-independent factors ``cos 2k`` and
    ``1j * cot k`` (from :func:`_lattice_cos_sin`, bit for bit ``np.cos`` and
    ``np.sin`` of the lattice) through :func:`_m22_array`, run over blocks of
    whole lattice rows, about :data:`_BLOCK` points each, so that its work
    arrays stay in cache. Every point goes through the same elementwise
    operations whatever block it falls in, so ``|M22|`` is the plain array
    expression's to the bit.
    """
    nr = max(4, int(math.ceil((region.re_max - region.re_min) * grid_density)) + 1)
    ni = max(4, int(math.ceil((region.im_max - region.im_min) * grid_density)) + 1)
    re = np.linspace(region.re_min, region.re_max, nr)
    im = np.linspace(region.im_min, region.im_max, ni)
    cos2k, _ = _lattice_cos_sin(2 * re, 2 * im)
    cos_k, sin_k = _lattice_cos_sin(re, im)
    with np.errstate(divide="ignore", invalid="ignore"):
        icot = 1j * (cos_k / sin_k)
    del cos_k, sin_k  # before the work arrays exist: they would raise a census's peak memory
    block_rows = max(1, _BLOCK // nr)
    work = [np.empty((min(block_rows, ni), nr), dtype=complex) for _ in range(_M22_WORK)]
    abs_m22 = np.empty((ni, nr))
    for start in range(0, ni, block_rows):
        rows = slice(start, start + block_rows)
        block = cos2k[rows]
        m22 = _m22_array(spec, block, icot[rows], [w[: len(block)] for w in work])
        np.abs(m22, out=abs_m22[rows])
    return re, im, abs_m22


def _grid_seeds(spec: ChainSpec, region: SearchRegion, grid_density: int) -> list[complex]:
    """Interior local minima of ``|M22|`` on the seed lattice, deepest first."""
    re, im, a = _seed_lattice(spec, region, grid_density)
    a[~np.isfinite(a)] = np.inf
    inner = a[1:-1, 1:-1]
    ii, jj = np.nonzero(_interior_minima(a))
    order = np.argsort(inner[ii, jj])
    ii, jj = ii[order] + 1, jj[order] + 1
    return [complex(k) for k in re[jj] + 1j * im[ii]]


def _lattice_cos_sin(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``cos`` and ``sin`` of the lattice ``re[None, :] + 1j * im[:, None]``.

    Built from ``cos(a + ib) = cos a cosh b - i sin a sinh b`` and
    ``sin(a + ib) = sin a cosh b + i cos a sinh b`` with the real libm
    functions, which takes ``len(re) + len(im)`` real transcendentals instead
    of one complex one per lattice point. The C library's complex ``cos`` and
    ``sin``, which ``np.cos`` and ``np.sin`` call, form each entry as the same
    products of the same real libm values, so the arrays equal ``np.cos`` and
    ``np.sin`` of the lattice bit for bit (the tests compare their bytes).
    Doubling a lattice is exact, so ``2 * re`` and ``2 * im`` give the
    lattice ``2k``.
    """
    cos_a, sin_a = (np.array([f(a) for a in re]) for f in (math.cos, math.sin))
    cosh_b, sinh_b = (np.array([f(b) for b in im])[:, None] for f in (math.cosh, math.sinh))
    cos, sin = (np.empty((len(im), len(re)), dtype=complex) for _ in range(2))
    cos.real, cos.imag = cosh_b * cos_a, -(sinh_b * sin_a)
    sin.real, sin.imag = cosh_b * sin_a, sinh_b * cos_a
    return cos, sin


def _interior_minima(a: np.ndarray) -> np.ndarray:
    """Mask of the interior points of ``a`` no larger than any of their eight neighbours.

    The 3x3 window minimum is taken separably, first along rows and then
    along columns. Since the window holds the point itself, ``inner <=
    window`` says exactly that the point is no larger than each neighbour,
    ties included, provided ``a`` holds no NaN (the seed grid sets non-finite
    values to ``inf`` first).
    """
    across = np.minimum(np.minimum(a[:, :-2], a[:, 1:-1]), a[:, 2:])
    window = np.minimum(np.minimum(across[:-2], across[1:-1]), across[2:])
    return a[1:-1, 1:-1] <= window


def _near_singular_vertical(k: complex) -> bool:
    return any(abs(k.real - s) < EDGE_MARGIN for s in (-math.pi, 0.0, math.pi))


def _collect_roots(spec: ChainSpec, region: SearchRegion, grid_density: int) -> list[complex]:
    """Newton roots from the off-vertical grid seeds, in seed order; a failed seed gives none."""
    roots = (
        _newton(spec, seed)
        for seed in _grid_seeds(spec, region, grid_density)
        if not _near_singular_vertical(seed)
    )
    return [r for r in roots if r is not None]


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


def find_poles(
    spec: ChainSpec,
    region: SearchRegion | None = None,
    grid_density: int = 60,
) -> list[PoleRecord]:
    """Locate every pole of the scattering denominator inside ``region``.

    The poles are the census of :func:`_census`, the in-region eigenvalues
    of the outgoing-wave pencil, except that an eigenvalue is reported as the
    first grid root, in seed order, within :data:`GRID_ROOT_TOL` of it where
    there is one. A grid root near no eigenvalue is dropped, with a DEBUG
    event under ``ptchain.poles``.

    The grid roots are damped Newton roots of ``M22`` seeded at the local
    minima of ``|M22|`` on a lattice of ``grid_density`` points per unit
    length. They add no pole; they only reproduce the last bits of the fig2
    presets' ``k`` and ``residual`` columns, which
    ``perfbench/reference/paper_figures.json`` pins.

    Parameters
    ----------
    spec : ChainSpec
    region : SearchRegion, optional
        Defaults to the full strip with ``Im k in [-1.5, 1.5]`` (minus the
        singular-vertical margins).
    grid_density : int
        Seed-grid points per unit k length (minimum 50).
    """
    if region is None:
        region = DEFAULT_REGION
    if grid_density < 50:
        raise OutOfRange(f"grid_density must be at least 50 per unit length, got {grid_density}")
    if spec.gamma == 0.0:
        return []

    pencil = _pencil_poles(spec, region)
    roots = _collect_roots(spec, region, grid_density)
    near = np.abs(np.subtract.outer(pencil, roots)) <= GRID_ROOT_TOL
    for r, matched in zip(roots, near.any(axis=0)):
        if not matched:
            _log.debug(
                "grid root k=%r lies within %g of no pencil eigenvalue: dropped "
                "(N=%d, gamma=%r)", r, GRID_ROOT_TOL, spec.n_cells, spec.gamma,
            )
    return _records(spec, [
        roots[row.argmax()] if row.any() else k for k, row in zip(pencil, near)
    ])


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
        gamma_critical=2.0 * math.sin(math.pi / (4 * n_cells)),
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
        For ``gamma <= 0`` (no threshold is ever crossed) and non-finite
        ``gamma``.
    """
    if not 0.0 < gamma < math.inf:
        raise OutOfRange(f"gamma must be positive and finite, got {gamma!r}")
    if gamma >= 2.0:
        return 1
    # N > pi / (4 asin(gamma/2)); the epsilon keeps exact-equality cases
    # (gamma == gamma_c(m) to rounding) on the strict side.
    x = math.pi / (4.0 * math.asin(0.5 * gamma))
    return int(math.floor(x + 1e-12)) + 1


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
