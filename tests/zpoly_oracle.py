"""The z-polynomial oracle: every pole of the scattering denominator at once.

``2i * M22(k) * sin(k) * z**(2N+1)`` with ``z = exp(ik)`` is a polynomial
``q(u)`` in ``u = z**2``, of degree at most 2N - 1. Its coefficients are
built from the Chebyshev recurrences in high-precision ``mpmath`` arithmetic
and its roots polished there, so each root ``u`` gives the two poles
``z = ±sqrt(u)`` — no grids, no Newton on ``M22``, no pencil shared with the
implementation under test.

Tests import it by name (``tests`` is on their path); a script adds the
``tests`` directory to ``sys.path`` first.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from ptchain import ChainSpec

#: Working precision of the z-polynomial oracle. At N = 50 its coefficients
#: span ~30 decades and its roots are ill-conditioned in double precision.
ZPOLY_DPS = 60
#: Leading coefficients below this fraction of the largest are cancellation
#: residue (~10**-ZPOLY_DPS); genuine ones stay above 1e-36 for N <= 50 and
#: gamma <= 1.9.
ZPOLY_TRIM = 1e-45


def zpoly_coefficients(spec: ChainSpec) -> list:
    """Coefficients of ``q(u)``, highest power first, as mpmath numbers.

    With ``x = cos 2k + gamma**2/2 = (u + 1/u)/2 + gamma**2/2``,
    ``q(u) = (u - 1) u^N T_N(x) + (u + 1) u (1 - x) u^(N-1) U_(N-1)(x)``.
    The two leading coefficients cancel identically; cancelled ones are
    trimmed, so the list length is one more than the true degree.
    """
    n = spec.n_cells
    with mp.workdps(ZPOLY_DPS):
        g2 = mp.mpf(spec.gamma) ** 2
        two_xu = np.array([1, g2, 1], dtype=object)  # 2 u x
        u2 = np.array([1, 0, 0], dtype=object)
        t_prev, t_cur = np.array([1], dtype=object), two_xu / 2  # u^j T_j(x)
        u_prev, u_cur = np.array([0], dtype=object), np.array([1], dtype=object)  # u^j U_j(x)
        for _ in range(n - 1):
            t_prev, t_cur = t_cur, np.polysub(np.polymul(two_xu, t_cur), np.polymul(u2, t_prev))
            u_prev, u_cur = u_cur, np.polysub(np.polymul(two_xu, u_cur), np.polymul(u2, u_prev))
        u_one_minus_x = np.array([-0.5, 1 - g2 / 2, -0.5], dtype=object)
        q = list(np.polyadd(
            np.polymul([1, -1], t_cur), np.polymul([1, 1], np.polymul(u_one_minus_x, u_cur))
        ))
        scale = max(abs(c) for c in q)
        while q and abs(q[0]) <= ZPOLY_TRIM * scale:
            q.pop(0)
    return q


def zpoly_roots(spec: ChainSpec) -> list[complex]:
    """All poles ``k`` (``Re k`` in ``(-pi, pi]``) via the z-polynomial.

    Double-precision companion roots seed an Aberth iteration carried out at
    :data:`ZPOLY_DPS` digits.
    """
    q = zpoly_coefficients(spec)
    with mp.workdps(ZPOLY_DPS):
        us = [mp.mpc(complex(u)) for u in np.roots(np.array([complex(c) for c in q]))]
        for _ in range(200):
            worst = mp.mpf(0)
            for i, ui in enumerate(us):
                f, df = mp.polyval(q, ui, derivative=True)
                ratio = f / df
                w = ratio / (1 - ratio * mp.fsum(1 / (ui - uj) for j, uj in enumerate(us) if j != i))
                us[i] = ui - w
                worst = max(worst, abs(w))
            if worst <= mp.mpf(10) ** -30:
                break
        else:
            raise AssertionError(f"z-polynomial oracle did not converge for {spec!r}")
        return [complex(-1j * mp.log(s * mp.sqrt(u))) for u in us for s in (1, -1)]
