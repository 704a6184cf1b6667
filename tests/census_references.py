"""Bit references for the pole census: the earlier loops that the package's
faster ones must reproduce bit for bit.

- ``full_newton`` is the damped Newton iteration as it ran before it
  learnt to stop at a repeated iterate: every run that does not converge
  early takes all ``max_iter`` steps, three ``M22`` evaluations each.
- ``nested_loop_match`` is the trajectory sweep's greedy matcher as a
  Python double loop: every (branch, pole) pair within the bound, with its
  distance ``abs`` of the complex difference, sorted as tuples.

The companion matrix's reference is ``dense_pencil_companion`` in
``transfer_oracles``.
"""

from __future__ import annotations

import cmath

from ptchain import ChainSpec, SingularBasis, poles


def full_newton(spec: ChainSpec, seed: complex, max_iter: int = 60) -> complex | None:
    """Damped Newton on ``M22`` from ``seed``, every step of it; None when not converged.

    It evaluates through ``poles._transfer_terms`` and ``poles.pole_residual``
    as the package's loop does, so a test that counts those calls counts
    both loops alike.
    """
    k = complex(seed)
    for it in range(max_iter + 1):
        try:
            t_n, diag, _, _, _, _, _ = poles._transfer_terms(spec, k)
        except SingularBasis:
            return None
        if not (cmath.isfinite(t_n) and cmath.isfinite(diag)):
            return None
        f, scale = t_n - diag, abs(t_n) + abs(diag)
        if it == max_iter or abs(f) <= max(1e-13, 1e-15 * scale):
            return k if abs(f) <= max(poles.RESIDUAL_TOL, 5e-15 * scale) else None
        h = 1e-6  # the central difference of ``poles._residual_derivative``
        df = (poles.pole_residual(spec, k + h) - poles.pole_residual(spec, k - h)) / (2 * h)
        if df == 0 or not cmath.isfinite(df):
            return None
        step = f / df
        if abs(step) > 0.5:
            step *= 0.5 / abs(step)
        k -= step
    return None


def nested_loop_match(last: list[complex], found: list[complex]) -> dict[int, int]:
    """Branch index -> pole index, closest pairs first, ties to the lower (branch, pole)."""
    pairs: list[tuple[float, int, int]] = []
    for bi, last_k in enumerate(last):
        for ri, r in enumerate(found):
            d = abs(r - last_k)
            if d <= poles.CONTINUATION_STEP_BOUND:
                pairs.append((d, bi, ri))
    pairs.sort()
    matched: dict[int, int] = {}
    matched_r: set[int] = set()
    for d, bi, ri in pairs:
        if bi not in matched and ri not in matched_r:
            matched[bi] = ri
            matched_r.add(ri)
    return matched
