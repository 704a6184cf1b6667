"""Argument-principle root count: an independent oracle for the pole census.

The winding number of ``M22`` along a closed contour counts the poles inside
it. It shares nothing with the finder beyond the residual itself, so tests
compare the located set against it on small chains. It is not reliable at
large ``N``: on the half-strip slab of the default region it counts 53, -21
and -1 poles at N = 35, 40 and 50 (gamma = 1.545, 0.465, 0.285), where 69, 79
and 99 lie.
"""

from __future__ import annotations

import cmath
import math

from ptchain import MissedRoots, SearchRegion, pole_residual
from ptchain.poles import EDGE_MARGIN


def _winding_number(spec, region: SearchRegion, max_depth: int = 44) -> int:
    """Winding number of the residual along the region boundary.

    The boundary is walked counterclockwise; each segment is bisected until
    the phase step is below pi/2, which guarantees the correct branch of the
    argument increment. Raises :class:`MissedRoots` if refinement cannot
    stabilize (e.g. a zero sits on the boundary).
    """
    corners = [
        complex(region.re_min, region.im_min),
        complex(region.re_max, region.im_min),
        complex(region.re_max, region.im_max),
        complex(region.re_min, region.im_max),
    ]
    total = 0.0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        # initial sampling proportional to segment length
        n0 = max(8, int(16 * abs(b - a)))
        ts = [i / n0 for i in range(n0 + 1)]
        vals = [pole_residual(spec, a + (b - a) * t) for t in ts]
        stack = list(zip(ts[:-1], ts[1:], vals[:-1], vals[1:], [0] * n0))
        while stack:
            t0, t1, f0, f1, depth = stack.pop()
            if f0 == 0 or f1 == 0:
                raise MissedRoots("winding audit: zero on the region boundary")
            dphi = cmath.phase(f1 / f0)
            if abs(dphi) < 0.5 * math.pi:
                total += dphi
                continue
            if depth >= max_depth:
                raise MissedRoots(
                    f"winding audit failed to stabilize on segment [{a}, {b}]"
                )
            tm = 0.5 * (t0 + t1)
            fm = pole_residual(spec, a + (b - a) * tm)
            stack.append((t0, tm, f0, fm, depth + 1))
            stack.append((tm, t1, fm, f1, depth + 1))
    w = total / (2 * math.pi)
    wi = round(w)
    if abs(w - wi) > 1e-3:
        raise MissedRoots(f"winding audit returned a non-integer count {w!r}")
    return int(wi)


def _audit_slabs(region: SearchRegion) -> list[SearchRegion]:
    """Split a region into slabs avoiding the singular verticals.

    Bands of half-width ``EDGE_MARGIN`` around ``Re k in {-pi, 0, pi}``
    are removed; the scattering denominator has its only non-zero
    singularities (simple poles from ``cot k``) at ``k = 0, ±pi``, which
    would corrupt the argument-principle count.
    """
    cuts: list[float] = [region.re_min, region.re_max]
    for s in (-math.pi, 0.0, math.pi):
        for edge in (s - EDGE_MARGIN, s + EDGE_MARGIN):
            if region.re_min < edge < region.re_max:
                cuts.append(edge)
    cuts = sorted(set(cuts))
    slabs = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        center = 0.5 * (lo + hi)
        if any(abs(center - s) <= EDGE_MARGIN for s in (-math.pi, 0.0, math.pi)):
            continue  # the excluded thin band itself
        slabs.append(SearchRegion(lo, hi, region.im_min, region.im_max))
    return slabs
