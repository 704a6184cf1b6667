"""Transfer-matrix routes: the package's closed form and oracles for it.

The package evaluates the plane-wave transfer matrix one way, from the
Chebyshev polynomials of the branch-free ``x = cos 2k + gamma**2/2``, and
assembles from it only what ``scatter`` divides by. ``closed_form_transfer``
assembles the whole matrix from the same ``_transfer_terms`` and
``_assemble``, so the invariants tested on it test the arithmetic that
``scatter`` runs. The routes here reach the same entries by other means, so
tests can pin the closed form against them:

- the literal site-basis products ``single_site_matrix`` and
  ``unit_cell_matrix``, the Chebyshev identity ``n_cell_matrix`` for the
  N-cell product, and the basis change ``Q^{-1} cell^N Q``
  (``product_transfer``);
- ``transfer_matrix_from_branch``, which uses an explicit band-index branch
  ``mu`` instead of ``x``; ``bloch_index`` picks that branch (``BlochIndex``)
  and ``evanescent_decay_reference`` predicts from it the decay ``4 Im mu``
  of ``ln T`` per cell in the evanescent regime;
- ``imaginary_branch_excluded``, the evanescent-regime argument that no pole
  sits on the real axis when ``mu`` is imaginary.

Four more are bit references rather than independent routes:
``plain_chebyshev_tu`` is the Chebyshev recurrence with ``2 * x`` formed
inside its loop, one step per pass, which the package's rearranged loop must
match bit for bit, and ``plain_m22_array`` is the array residual ``M22`` as
one numpy expression over the whole array. ``eight_neighbour_minima`` is
the local-minimum test over a whole lattice as eight shifted comparisons.
``full_lattice_seeds`` builds from ``plain_m22_array`` and
``eight_neighbour_minima`` the earlier seed rule of the Newton polish over
the whole lattice: every interior local minimum of ``|M22|``, deepest
first. It stays the bit oracle of the fig2 poles.

Two more are dense references for the chain's sparse operators, the
lattice Hamiltonian ``build_hamiltonian`` and the pencil's chain block:
``dense_hamiltonian`` writes the finite lattice's
Hamiltonian entry by entry into a zero matrix, and ``dense_pencil_companion``
assembles the outgoing-wave pencil's companion matrix from ``np.diag`` and
``np.eye``. Both take the gain/loss profile from ``gain_loss_profile``
here, not from the package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from ptchain import (
    ChainSpec,
    LatticeLayout,
    NumericalFailure,
    OutOfRange,
    SingularBasis,
    dispersion_energy,
    energy_to_wavenumber,
)
from ptchain.scattering import SIN_K_TOL, _assemble, _transfer_terms, chebyshev_tu


@dataclass(frozen=True)
class Matrix2:
    """A 2x2 complex matrix with exact multiply, difference and determinant."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    def scaled(self, factor: complex) -> "Matrix2":
        return Matrix2(
            factor * self.m11, factor * self.m12, factor * self.m21, factor * self.m22
        )

    def __sub__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.m11 - other.m11,
            self.m12 - other.m12,
            self.m21 - other.m21,
            self.m22 - other.m22,
        )

    def max_abs(self) -> float:
        return max(abs(self.m11), abs(self.m12), abs(self.m21), abs(self.m22))

    @classmethod
    def identity(cls) -> "Matrix2":
        return cls(1.0, 0.0, 0.0, 1.0)

    def power(self, n: int) -> "Matrix2":
        """Iterated product (the brute-force oracle for ``n_cell_matrix``)."""
        out = Matrix2.identity()
        for _ in range(n):
            out = out @ self
        return out


def closed_form_transfer(spec: ChainSpec, k: complex) -> Matrix2:
    """The plane-wave-basis transfer matrix from the package's own closed-form terms.

    ``M11 = T_N + diag`` and ``M22 = T_N - diag`` from ``_transfer_terms``,
    ``M12`` and ``M21`` from ``_assemble``: the arithmetic of ``scatter``. A
    real ``k`` (not a ``complex`` instance) takes the closed-form terms of the
    real axis, a complex one the recurrence.

    Raises :class:`SingularBasis` at ``|sin k| < 1e-12``, and
    :class:`NumericalFailure` where the terms are rescaled (long chains with
    ``|cos 2k + gamma**2/2| > 1``, or at real ``k`` a chain size near the
    largest double) or are not finite (a NaN ``k``).
    """
    t_n, diag, u_nm1, sink, exp, _, cosk = _transfer_terms(spec, k)
    if exp or not (cmath.isfinite(t_n) and cmath.isfinite(diag)):
        raise NumericalFailure(
            f"transfer matrix entries overflow or are not finite at k={k!r} "
            f"(N={spec.n_cells}, gamma={spec.gamma})"
        )
    m12, m21 = _assemble(spec, u_nm1, sink, cosk)
    return Matrix2(t_n + diag, m12, m21, t_n - diag)


def single_site_matrix(eps: complex, energy: complex) -> Matrix2:
    """Site-basis transfer matrix ``[[eps - E, -1], [1, 0]]`` of one site."""
    return Matrix2(eps - energy, -1.0, 1.0, 0.0)


def unit_cell_matrix(spec: ChainSpec, energy: complex) -> Matrix2:
    """Transfer matrix of one gain+loss cell in the site basis.

    Equals ``single_site_matrix(-i*gamma, E) @ single_site_matrix(+i*gamma, E)``
    and evaluates to ``[[E**2 + gamma**2 - 1, E + i*gamma],
    [-E + i*gamma, -1]]`` with unit determinant.
    """
    g = spec.gamma
    e = energy
    return Matrix2(e * e + g * g - 1.0, e + 1j * g, -e + 1j * g, -1.0)


def n_cell_matrix(spec: ChainSpec, energy: complex) -> Matrix2:
    """Transfer matrix of the full N-cell region in the site basis.

    Uses the Chebyshev identity ``cell**N = cell * U_{N-1}(x) - I * U_{N-2}(x)``
    with ``x = (E**2 + gamma**2 - 2)/2`` (half the cell trace).
    """
    x = 0.5 * (energy * energy + spec.gamma**2 - 2.0)
    _, u_nm1 = chebyshev_tu(spec.n_cells, x)
    _, u_nm2 = chebyshev_tu(spec.n_cells - 1, x)
    cell = unit_cell_matrix(spec, energy)
    return Matrix2(
        cell.m11 * u_nm1 - u_nm2,
        cell.m12 * u_nm1,
        cell.m21 * u_nm1,
        cell.m22 * u_nm1 - u_nm2,
    )


def product_transfer(spec: ChainSpec, k: complex) -> Matrix2:
    """Plane-wave-basis entries via the explicit product ``Q^{-1} cell^N Q``."""
    e = dispersion_energy(k)
    mn = unit_cell_matrix(spec, e).power(spec.n_cells)
    eik = cmath.exp(1j * k)
    emik = cmath.exp(-1j * k)
    det_q = eik - emik  # 2i sin k
    q_inv = Matrix2(eik, -1.0, -emik, 1.0).scaled(1.0 / det_q)
    q = Matrix2(1.0, 1.0, emik, eik)
    return q_inv @ mn @ q


def verified_transfer(spec: ChainSpec, k: complex) -> Matrix2:
    """:func:`closed_form_transfer`, required to match :func:`product_transfer`.

    Raises :class:`NumericalFailure` unless the two agree entrywise to 1e-10
    relative to the larger entry (or 1).
    """
    m = closed_form_transfer(spec, k)
    ref = product_transfer(spec, k)
    scale = max(m.max_abs(), ref.max_abs(), 1.0)
    if (m - ref).max_abs() > 1e-10 * scale:
        raise NumericalFailure(
            f"closed-form and product transfer matrices disagree at k={k!r}: "
            f"|diff| = {(m - ref).max_abs():.3e} (scale {scale:.3e})"
        )
    return m


@dataclass(frozen=True)
class BlochIndex:
    """Effective band index of the periodic scattering region.

    ``cos2mu`` is the primitive, branch-free quantity; ``mu`` is one
    representative branch value (principal ``arccos``, with the imaginary part
    normalized to be >= 0). Every formula that uses it must be invariant under
    ``mu -> -mu`` and ``mu -> mu + pi``.
    """

    cos2mu: complex
    mu: complex = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.mu is None:
            mu = 0.5 * cmath.acos(self.cos2mu)
            # acos maps arguments > 1 to negative-imaginary values; pick the
            # +Im representative (allowed by the mu -> -mu invariance).
            if mu.imag < 0.0:
                mu = -mu
            object.__setattr__(self, "mu", mu)


def bloch_index(k: complex, spec: ChainSpec) -> BlochIndex:
    """Effective band index at wavenumber ``k``.

    Computes ``cos 2mu = (E**2 + gamma**2 - 2)/2`` with ``E = -2 cos k``
    (half the trace of the unit-cell transfer matrix) and one representative
    branch value of ``mu``.
    """
    e = dispersion_energy(k)
    cos2mu = 0.5 * (e * e + spec.gamma**2 - 2.0)
    return BlochIndex(cos2mu=cos2mu)


def evanescent_decay_reference(gamma: float, energy: float) -> float:
    """The predicted asymptotic decay ``4 Im mu`` of ``ln T`` per unit cell."""
    mu = bloch_index(energy_to_wavenumber(energy), ChainSpec(1, gamma)).mu
    return 4.0 * mu.imag


def transfer_matrix_from_branch(spec: ChainSpec, k: complex, mu: complex) -> Matrix2:
    """Plane-wave-basis entries from an explicit band-index branch ``mu``.

    ``mu`` must satisfy ``cos 2mu = cos 2k + gamma**2/2``; any branch works,
    and the output is invariant under ``mu -> -mu`` and ``mu -> mu + pi``.
    Near ``sin 2mu = 0`` the ratio ``sin(2N mu)/sin(2 mu)`` is replaced by its
    finite limit ``±N``.
    """
    if abs(cmath.sin(k)) < SIN_K_TOL:
        raise SingularBasis(f"plane-wave basis is singular at k = {k!r} (sin k ~ 0)")
    n, g = spec.n_cells, spec.gamma
    sink = cmath.sin(k)
    cotk = cmath.cos(k) / sink
    sin2mu = cmath.sin(2 * mu)
    cos2nmu = cmath.cos(2 * n * mu)
    sin2nmu = cmath.sin(2 * n * mu)
    if abs(sin2mu) < 1e-8:
        # Removable singularity: sin(2N mu)/sin(2 mu) -> ±N at cos 2mu = ±1.
        sign = 1.0 if abs(cmath.cos(2 * mu) - 1.0) < abs(cmath.cos(2 * mu) + 1.0) else (-1.0) ** (n - 1)
        ratio = n * sign
        tanmu_sin2nmu = (1.0 - cmath.cos(2 * mu)) * ratio
    else:
        ratio = sin2nmu / sin2mu
        tanmu_sin2nmu = cmath.tan(mu) * sin2nmu
    diag = 1j * cotk * tanmu_sin2nmu
    off = 1j * g * ratio / (2.0 * sink)
    return Matrix2(
        cos2nmu + diag,
        off * cmath.exp(1j * k) * (2.0 * sink - g),
        off * cmath.exp(-1j * k) * (2.0 * sink + g),
        cos2nmu - diag,
    )


def imaginary_branch_excluded(spec: ChainSpec, phi: float, k: float = 0.5 * math.pi) -> bool:
    """Executable check that an imaginary band index admits no real-axis pole.

    For ``mu = i*phi`` (``phi > 0``) at real ``k``, the real part of the
    residual is ``cosh(2N phi)``, which is strictly positive — so the
    denominator cannot vanish on the real axis in the evanescent regime.
    Returns True when the evaluated real part matches ``cosh(2N phi)`` and is
    positive.
    """
    if phi <= 0:
        raise OutOfRange(f"phi must be positive, got {phi!r}")
    if abs(math.sin(k)) < 1e-12:
        raise SingularBasis(f"check undefined at k = {k!r} (sin k ~ 0)")
    mu = 1j * phi
    n = spec.n_cells
    cotk = math.cos(k) / math.sin(k)
    m22 = cmath.cos(2 * n * mu) - 1j * cotk * cmath.tan(mu) * cmath.sin(2 * n * mu)
    expected = math.cosh(2 * n * phi)
    return abs(m22.real - expected) <= 1e-12 * expected and m22.real > 0.0


def plain_chebyshev_tu(n: int, x):
    """``(T_n(x), U_{n-1}(x))`` with ``2 * x`` formed inside the loop."""
    one = x * 0 + 1.0
    zero = x * 0
    if n == 0:
        return one, zero
    t_prev, u_prev = one, zero
    t_cur, u_cur = x * one, one
    for _ in range(n - 1):
        t_prev, t_cur = t_cur, 2 * x * t_cur - t_prev
        u_prev, u_cur = u_cur, 2 * x * u_cur - u_prev
    return t_cur, u_cur


def plain_m22_array(spec: ChainSpec, k: np.ndarray) -> np.ndarray:
    """``M22`` on an array of ``k`` as one expression, allocating every term."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.cos(2 * k) + 0.5 * spec.gamma**2
        t_n, u_nm1 = plain_chebyshev_tu(spec.n_cells, x)
        return t_n - 1j * (np.cos(k) / np.sin(k)) * (1.0 - x) * u_nm1


def eight_neighbour_minima(a: np.ndarray) -> np.ndarray:
    """Mask of the interior points of ``a`` no larger than each of their eight neighbours."""
    inner = a[1:-1, 1:-1]
    is_min = np.ones_like(inner, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            is_min &= inner <= a[1 + di : a.shape[0] - 1 + di, 1 + dj : a.shape[1] - 1 + dj]
    return is_min


def full_lattice_seeds(spec: ChainSpec, region, grid_density: int) -> list[complex]:
    """Interior local minima of ``|M22|`` over the whole seed lattice of ``region``.

    Deepest first, equal depths in lattice (row-major) order: ``|M22|`` is
    exactly 0.0 at many lattice points at ``gamma = 1e-8``.
    """
    nr = max(4, int(math.ceil((region.re_max - region.re_min) * grid_density)) + 1)
    ni = max(4, int(math.ceil((region.im_max - region.im_min) * grid_density)) + 1)
    re = np.linspace(region.re_min, region.re_max, nr)
    im = np.linspace(region.im_min, region.im_max, ni)
    a = np.abs(plain_m22_array(spec, re[None, :] + 1j * im[:, None]))
    a[~np.isfinite(a)] = np.inf
    ii, jj = np.nonzero(eight_neighbour_minima(a))
    order = np.argsort(a[ii + 1, jj + 1], kind="stable")
    ii, jj = ii[order] + 1, jj[order] + 1
    return [complex(k) for k in re[jj] + 1j * im[ii]]


def gain_loss_profile(spec: ChainSpec) -> list[complex]:
    """``eps_j = (-1)**j * i*gamma`` for ``j = 0 .. 2N-1``: gain first, then loss."""
    return [complex(0.0, (-1) ** j * spec.gamma) for j in range(spec.n_sites)]


def dense_hamiltonian(layout: LatticeLayout, spec: ChainSpec) -> np.ndarray:
    """The lattice Hamiltonian: hopping -1 and the gain/loss profile written into zeros."""
    size = layout.total_sites
    h = np.zeros((size, size), dtype=complex)
    idx = np.arange(size - 1)
    h[idx, idx + 1] = -1.0
    h[idx + 1, idx] = -1.0
    for j, eps in enumerate(gain_loss_profile(spec)):
        h[layout.global_index(j), layout.global_index(j)] = eps
    return h


def dense_pencil_companion(spec: ChainSpec) -> np.ndarray:
    """Companion matrix ``[[0, I], [-(I - P), -H_c]]`` of the outgoing-wave pencil."""
    n = spec.n_sites
    h_c = np.diag(gain_loss_profile(spec)) - np.eye(n, k=1) - np.eye(n, k=-1)
    open_ends = np.eye(n)
    open_ends[0, 0] = open_ends[-1, -1] = 0.0
    return np.block([[np.zeros((n, n)), np.eye(n)], [-open_ends, -h_c]])
