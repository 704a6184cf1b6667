"""The large-N scaling law of the onset poles, an oracle for the census of long chains.

With ``k = pi/2 + i y/N`` and ``gamma = g/N``, ``M22`` tends as ``N -> oo``
to ``(-1)**N [cos r + 2 y sin(r)/r]`` with ``r = sqrt(g**2 - 4 y**2)``. So a
growing pole of a long chain sits at a depth ``y = N Im k`` that solves
``r cos r + 2 y sin r = 0``, a function of ``g = gamma N`` alone. For
``2y > g`` (``r`` imaginary) the left side is ``i (s cosh s + 2y sinh s)``,
``s = |r|``, which has no zero at ``y > 0``; every root has ``0 < 2y < g``.
"""

import math

from scipy.optimize import brentq


def onset_law(g: float, y: float) -> float:
    """``r cos r + 2 y sin r`` with ``r = sqrt(g**2 - 4 y**2)``, for ``2|y| <= g``."""
    r = math.sqrt(g * g - 4.0 * y * y)
    return r * math.cos(r) + 2.0 * y * math.sin(r)


def law_roots(f, lo: float, hi: float, points: int = 4001) -> list[float]:
    """The roots of ``f`` in ``[lo, hi]``, one per sign change on a uniform grid, refined by ``brentq``."""
    xs = [lo + (hi - lo) * j / (points - 1) for j in range(points)]
    values = [f(x) for x in xs]
    return [
        brentq(f, a, b, xtol=1e-15)
        for a, b, fa, fb in zip(xs, xs[1:], values, values[1:])
        if fa * fb < 0.0
    ]


def onset_depths(g: float) -> list[float]:
    """The depths ``y = N Im k`` of the law's growing poles at ``g = gamma N``, ascending.

    ``r = 0`` at ``y = g/2`` is a root of the left side that is no pole (there
    ``M22`` tends to ``1 + g``), so the search stops a relative 1e-9 short of it.
    """
    return law_roots(lambda y: onset_law(g, y), 0.0, 0.5 * g * (1.0 - 1e-9))
