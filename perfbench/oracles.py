"""Independent output checks for the benchmark's operations.

Nothing here calls into ``ptchain``: the transfer matrix is rebuilt from the
site recurrence ``psi[j+1] = (eps[j] - E) psi[j] - psi[j-1]`` as an explicit
product of 2x2 matrices, and the threshold ladder, critical gain and special
points come from their closed forms. Each check returns ``None`` when the
output passes and a one-line reason when it does not.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

#: Largest scaled |M22| a reported pole may have (``|M22| / max(1, max|M|)``).
POLE_RESIDUAL_TOL = 1e-10
#: Distance within which a pole's partner ``-conj(k)`` must be reported.
PAIRING_TOL = 1e-6
#: Crossing positions must sit this close to ``Re k = ±pi/2`` and a ladder value.
CROSSING_TOL = 1e-6
#: Criterion 06 of the acceptance suite: packet transmission vs stationary T.
WAVE_PACKET_BAND = 0.02


def transfer_matrix(n_cells: int, gamma: float, k: complex) -> np.ndarray:
    """Plane-wave-basis transfer matrix of the N-cell chain at wavenumber k.

    Builds the site-basis product cell by cell (gain site ``+i gamma`` first)
    and changes basis with ``Q = [[1, 1], [e^{-ik}, e^{ik}]]``, so that
    ``t = 1 / M[1, 1]`` and the poles are the zeros of ``M[1, 1]``.
    """
    energy = -2.0 * cmath.cos(k)
    gain = np.array([[1j * gamma - energy, -1.0], [1.0, 0.0]], dtype=complex)
    loss = np.array([[-1j * gamma - energy, -1.0], [1.0, 0.0]], dtype=complex)
    cell = loss @ gain
    product = np.eye(2, dtype=complex)
    for _ in range(n_cells):
        product = cell @ product
    q = np.array([[1.0, 1.0], [cmath.exp(-1j * k), cmath.exp(1j * k)]], dtype=complex)
    return np.linalg.solve(q, product @ q)


def transmission(n_cells: int, gamma: float, k: float) -> float:
    """Transmission coefficient ``1/|M22|**2`` from the explicit product."""
    with np.errstate(over="ignore"):  # a long evanescent chain: T underflows to 0
        return 1.0 / abs(transfer_matrix(n_cells, gamma, k)[1, 1]) ** 2


def size_scan_transmissions(gamma: float, k: float, n_max: int) -> list[float]:
    """``T(N)`` for ``N = 1..n_max`` from one running product."""
    energy = -2.0 * math.cos(k)
    gain = np.array([[1j * gamma - energy, -1.0], [1.0, 0.0]], dtype=complex)
    loss = np.array([[-1j * gamma - energy, -1.0], [1.0, 0.0]], dtype=complex)
    cell = loss @ gain
    q = np.array([[1.0, 1.0], [cmath.exp(-1j * k), cmath.exp(1j * k)]], dtype=complex)
    q_inv = np.linalg.inv(q)
    product = np.eye(2, dtype=complex)
    out = []
    for _ in range(n_max):
        product = cell @ product
        out.append(1.0 / abs((q_inv @ product @ q)[1, 1]) ** 2)
    return out


def ladder(n_cells: int) -> list[float]:
    """Closed-form threshold ladder ``2 cos((2n+1) pi / 4N)``, descending."""
    return [2.0 * math.cos((2 * n + 1) * math.pi / (4 * n_cells)) for n in range(n_cells)]


def growing_state_count(n_cells: int, gamma: float) -> int:
    """Number of ladder values below ``gamma``: the first-quadrant pole count."""
    return sum(1 for g in ladder(n_cells) if g < gamma)


def _close(a: float, b: float, rtol: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= rtol * max(abs(b), scale)


# --------------------------------------------------------------------------
# per-operation checks
# --------------------------------------------------------------------------

def check_scatter_point(n_cells: int, gamma: float, k: float, result) -> str | None:
    """The law ``|T - 1| = sqrt(R_L R_R)`` within ``1e-9 max(1, T)``."""
    t, r_l, r_r = result.T, result.R_left, result.R_right
    if not all(math.isfinite(v) for v in (t, r_l, r_r)):
        return f"non-finite coefficients at k={k!r} (T={t!r})"
    gap = abs(abs(t - 1.0) - math.sqrt(r_l * r_r))
    if gap > 1e-9 * max(1.0, t):
        return f"|T-1| != sqrt(R_L R_R) at k={k!r}: gap {gap:.3e}, T={t!r}"
    return None


def check_transmission(n_cells: int, gamma: float, k: float, value: float) -> str | None:
    """T against the explicit product; the allowance grows like T**2 near poles."""
    ref = transmission(n_cells, gamma, k)
    if not math.isfinite(value) or abs(value - ref) > 1e-8 * max(1.0, ref) + 1e-12 * ref * ref:
        return f"T={value!r} vs product oracle {ref!r} at N={n_cells}, k={k!r}"
    return None


def check_poles(n_cells: int, gamma: float, poles: list[complex], full_strip: bool) -> str | None:
    """Residual, ``k <-> -conj(k)`` pairing and (full strip) first-quadrant count."""
    for p in poles:
        m = transfer_matrix(n_cells, gamma, p)
        scaled = abs(m[1, 1]) / max(1.0, float(np.max(np.abs(m))))
        if scaled > POLE_RESIDUAL_TOL:
            return f"pole {p!r} has scaled residual {scaled:.3e}"
    if full_strip:
        for p in poles:
            partner = complex(-p.real, p.imag)
            if not any(abs(q - partner) <= PAIRING_TOL for q in poles):
                return f"pole {p!r} has no partner -conj(k)"
        quadrant = sum(1 for p in poles if p.real > 1e-8 and p.imag > 1e-8)
        expected = growing_state_count(n_cells, gamma)
        if quadrant != expected:
            return f"{quadrant} first-quadrant poles, closed-form ladder gives {expected}"
    return None
