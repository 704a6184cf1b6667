"""The benchmark's workloads: seeded operation lists with their output checks.

An :class:`Op` is one call a user would make, paired with an independent
check of its result. :func:`build` turns a workload name and a seed into the
list of operations; the package sees only the inputs generated here.

The draws are stratified: each chain size is paired with a fixed stratum of
``gamma`` in ``U(0.1, 1.9)`` and the seed picks ``gamma`` inside it, so every
seed runs the same mix of fast, slow and failing cases. The seed also
shuffles the order.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import ptchain
from ptchain import cli, poles, relevance, scattering
from ptchain.presets import preset_names

from . import oracles
from .reference import compare_outputs

GAMMA_MIN, GAMMA_MAX = 0.1, 1.9

#: pole_census: the seed picks one gamma per entry from its fixed options.
#: The options of an entry lie in one stratum of U(0.1, 1.9) and share one
#: cost class: the finder's cost jumps tenfold within 0.03 in gamma (when its
#: audit re-densifies), so continuous draws would make wall time a property
#: of the seed. N = 25 is the slow class; N = 35, 40 and 50 raise MissedRoots
#: at the seed. The six fast sizes are drawn twice, from two strata.
CENSUS_DRAWS = (
    (3, (1.725, 1.755, 1.795, 1.865)),
    (3, (0.105, 0.135, 0.175, 0.245)),
    (5, (0.825, 0.855, 0.895, 0.965)),
    (5, (0.285, 0.315, 0.355, 0.425)),
    (10, (1.365, 1.395, 1.435)),
    (10, (0.465, 0.495, 0.535, 0.605)),
    (15, (1.185, 1.215, 1.255, 1.325)),
    (15, (0.645, 0.675, 0.715, 0.785)),
    (20, (0.645, 0.675, 0.715, 0.785)),
    (20, (1.005, 1.025, 1.105, 1.145)),
    (25, (1.005, 1.035, 1.075, 1.145)),
    (30, (0.105, 0.135, 0.175, 0.245)),
    (30, (0.285, 0.315, 0.355, 0.425)),
    (35, (1.545, 1.575, 1.615, 1.685)),
    (40, (0.465, 0.495, 0.535, 0.605)),
    (50, (0.285, 0.315, 0.355, 0.425)),
)
#: pole_census: (N, gamma steps) of the trajectory sweeps over gamma in [0, 2].
TRAJECTORIES = ((4, 100), (8, 100))

#: stationary_sweeps: gamma stratum (out of 16) for each of the 16 sizes, from
#: small N to large. The sizes are fixed and log-spaced, nine in [1, 50] and
#: seven in (50, 1000], so the windowed pole checks cost the same for every
#: seed; the seed draws gamma inside each stratum and the energy of the size
#: scan. The largest size gets a high gamma, where the sweep's T overflows.
SWEEP_GAMMA_STRATA = (10, 3, 0, 15, 14, 2, 12, 8, 5, 6, 9, 11, 1, 7, 4, 13)
SWEEP_SMALL_STRATA = 9
SWEEP_POINTS = 2001
SIZE_SCAN_N_MAX = 200
#: Every this-many sweep points is also checked against the product oracle.
SWEEP_ORACLE_STRIDE = 250


@dataclass(frozen=True)
class Op:
    label: str
    kind: str
    n_cells: int | None
    gamma: float | None
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _gamma_in(stratum: int, strata: int, u: float) -> float:
    width = (GAMMA_MAX - GAMMA_MIN) / strata
    return GAMMA_MIN + width * (stratum + u)


# --------------------------------------------------------------------------
# paper_figures
# --------------------------------------------------------------------------

def _figure_op(name: str, workdir: Path, reference: dict[str, Any]) -> Op:
    stem = workdir / name

    def run() -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["figure", "--preset", name, "--out", str(stem)])

    def check(status: int) -> str | None:
        if status != 0:
            return f"exit status {status}"
        problem = compare_outputs(workdir, name, reference[name])
        if problem is None and name == "fig5d":
            problem = _wave_packet_check(workdir / "fig5d.json")
        return problem

    return Op(name, "figure", None, None, run, check)


def _wave_packet_check(summary_path: Path) -> str | None:
    """Criterion 06: packet transmission at t=300 within 0.02 of T(pi/2)."""
    summary = json.loads(summary_path.read_text())
    final = max(summary["snapshots"], key=lambda s: s["time"])
    stationary = oracles.transmission(summary["n_cells"], summary["gamma"], 0.5 * math.pi)
    if abs(final["transmitted"] - stationary) > oracles.WAVE_PACKET_BAND:
        return f"packet transmission {final['transmitted']!r} vs stationary T {stationary!r}"
    return None


def _paper_figures(rng: np.random.Generator, workdir: Path, reference: dict[str, Any]) -> list[Op]:
    names = preset_names()
    return [_figure_op(names[i], workdir, reference) for i in rng.permutation(len(names))]


# --------------------------------------------------------------------------
# pole_census
# --------------------------------------------------------------------------

def _census_op(n: int, gamma: float) -> Op:
    spec = ptchain.ChainSpec(n, gamma)

    def check(records) -> str | None:
        return oracles.check_poles(n, gamma, [r.k.as_complex() for r in records], full_strip=True)

    return Op(f"find_poles N={n} gamma={gamma:.4f}", "find_poles", n, gamma,
              lambda: poles.find_poles(spec), check)


def _trajectory_op(n: int, steps: int) -> Op:
    def run():
        return poles.trace_trajectories(ptchain.ChainSpec(n, 0.0), 0.0, 2.0, steps, strict=False)

    def check(traj) -> str | None:
        ladder = oracles.ladder(n)
        for c in traj.crossings:
            if abs(abs(c.k.real) - 0.5 * math.pi) > oracles.CROSSING_TOL:
                return f"crossing at k={c.k!r} is off Re k = ±pi/2"
            if min(abs(c.gamma - g) for g in ladder) > oracles.CROSSING_TOL:
                return f"crossing at gamma={c.gamma!r} matches no ladder value"
        for g in ladder:
            sides = {c.k.real > 0 for c in traj.crossings if abs(c.gamma - g) <= oracles.CROSSING_TOL}
            if sides != {True, False}:
                return f"ladder value {g!r} is not crossed on both sides of the strip"
        for b in traj.branches:
            for g, rec in b.points:
                problem = oracles.check_poles(n, g, [rec.k.as_complex()], full_strip=False)
                if problem:
                    return f"branch {b.branch_id} at gamma={g!r}: {problem}"
        return None

    return Op(f"trace_trajectories N={n} steps={steps}", "trace_trajectories", n, None, run, check)


def _pole_census(rng: np.random.Generator, workdir: Path, reference: dict[str, Any]) -> list[Op]:
    ops = [_census_op(n, options[rng.integers(len(options))]) for n, options in CENSUS_DRAWS]
    ops += [_trajectory_op(n, steps) for n, steps in TRAJECTORIES]
    return [ops[i] for i in rng.permutation(len(ops))]


# --------------------------------------------------------------------------
# stationary_sweeps
# --------------------------------------------------------------------------

SWEEP_KS = tuple(math.pi * (j + 1) / (SWEEP_POINTS + 1) for j in range(SWEEP_POINTS))


def _sweep_op(n: int, gamma: float) -> Op:
    spec = ptchain.ChainSpec(n, gamma)

    def run() -> list:
        out = []
        for k in SWEEP_KS:
            try:
                out.append(scattering.scatter(spec, k))
            except ptchain.SpectralSingularityError:
                out.append(None)
        return out

    def check(results) -> str | None:
        for j, (k, res) in enumerate(zip(SWEEP_KS, results)):
            if res is None:
                continue
            problem = oracles.check_scatter_point(n, gamma, k, res)
            if problem is None and j % SWEEP_ORACLE_STRIDE == 0:
                problem = oracles.check_transmission(n, gamma, k, res.T)
            if problem:
                return problem
        return None

    return Op(f"scatter sweep N={n} gamma={gamma:.4f}", "scatter_sweep", n, gamma, run, check)


def _relevance_op(n: int, gamma: float) -> Op:
    spec = ptchain.ChainSpec(n, gamma)

    def run():
        return (
            relevance.verdict(spec),
            relevance.band_edge_points(spec),
            relevance.fabry_perot_points(spec),
            relevance.cpa_laser_points(n),
        )

    def check(result) -> str | None:
        v, edges, fabry, cpa = result
        ladder = oracles.ladder(n)
        gamma_c = 2.0 * math.sin(math.pi / (4 * n))
        if abs(v.gamma_critical - gamma_c) > 1e-12 * gamma_c:
            return f"gamma_c {v.gamma_critical!r} vs closed form {gamma_c!r}"
        if v.tgbs_count != oracles.growing_state_count(n, gamma):
            return f"verdict counts {v.tgbs_count} growing states"
        if abs(gamma - gamma_c) > 1e-6 and (v.regime.value == "Relevant") != (gamma < gamma_c):
            return f"regime {v.regime.value} at gamma={gamma!r}, gamma_c={gamma_c!r}"
        edge = math.sqrt(4.0 - gamma * gamma)
        if not _same_values([p.energy for p in edges], [edge, -edge]):
            return "band-edge energies differ from ±sqrt(4 - gamma^2)"
        fp = [s * math.sqrt(c - gamma * gamma)
              for c in (4.0 * math.cos(m * math.pi / (2 * n)) ** 2 for m in range(1, n))
              if c > gamma * gamma for s in (1.0, -1.0)]
        if not _same_values([p.energy for p in fabry], fp):
            return "Fabry-Perot energies differ from their closed form"
        if not _same_values([p.gamma for p in cpa], ladder):
            return "CPA-laser gammas differ from the ladder"
        return None

    return Op(f"relevance N={n} gamma={gamma:.4f}", "relevance", n, gamma, run, check)


def _same_values(got: list[float], want: list[float]) -> bool:
    return len(got) == len(want) and all(
        abs(a - b) <= 1e-12 * max(1.0, abs(b)) for a, b in zip(sorted(got), sorted(want))
    )


def _size_scan_op(n: int, gamma: float, energy: float) -> Op:
    def check(scan) -> str | None:
        k = math.acos(-0.5 * energy)
        ref = oracles.size_scan_transmissions(gamma, k, SIZE_SCAN_N_MAX)
        if len(scan.rows) != SIZE_SCAN_N_MAX:
            return f"{len(scan.rows)} rows instead of {SIZE_SCAN_N_MAX}"
        for row, t in zip(scan.rows, ref):
            if not abs(row.transmission - t) <= 1e-8 * max(1.0, t) + 1e-12 * t * t:
                return f"T({row.n_cells})={row.transmission!r} vs product oracle {t!r}"
        return None

    return Op(f"transmission_vs_size gamma={gamma:.4f} E={energy:.4f}", "size_scan", n, gamma,
              lambda: relevance.transmission_vs_size(gamma, energy, SIZE_SCAN_N_MAX), check)


def _tgbs_op(n: int, gamma: float) -> Op:
    expected = oracles.growing_state_count(n, gamma)

    def check(count: int) -> str | None:
        return None if count == expected else f"count {count}, closed-form ladder gives {expected}"

    return Op(f"tgbs_count(verify) N={n} gamma={gamma:.4f}", "tgbs_count", n, gamma,
              lambda: poles.tgbs_count(ptchain.ChainSpec(n, gamma), verify=True), check)


def _ladder_op(n: int) -> Op:
    def check(lad) -> str | None:
        if not _same_values(list(lad.gamma_values), oracles.ladder(n)):
            return "ladder values differ from 2 cos((2n+1) pi / 4N)"
        return None

    return Op(f"threshold_ladder(verify) N={n}", "threshold_ladder", n, None,
              lambda: poles.threshold_ladder(n, verify_numeric=True), check)


def _sweep_sizes() -> list[int]:
    """Fixed log-spaced sizes: the centres of the strata of log N."""
    small, large = SWEEP_SMALL_STRATA, len(SWEEP_GAMMA_STRATA) - SWEEP_SMALL_STRATA
    mid, hi = math.log10(50.0), 3.0
    sizes = [round(10 ** (mid * (i + 0.5) / small)) for i in range(small)]
    sizes += [round(10 ** (mid + (hi - mid) * (i + 0.5) / large)) for i in range(large)]
    return sizes


def _stationary_sweeps(rng: np.random.Generator, workdir: Path, reference: dict[str, Any]) -> list[Op]:
    ops: list[Op] = []
    strata = len(SWEEP_GAMMA_STRATA)
    for n, s in zip(_sweep_sizes(), SWEEP_GAMMA_STRATA):
        gamma = _gamma_in(s, strata, rng.uniform())
        energy = rng.uniform(-1.95, 1.95)
        ops += [_sweep_op(n, gamma), _relevance_op(n, gamma), _size_scan_op(n, gamma, energy)]
        if n <= 50:
            ops += [_tgbs_op(n, gamma), _ladder_op(n)]
    return [ops[i] for i in rng.permutation(len(ops))]


_BUILDERS = {
    "paper_figures": _paper_figures,
    "pole_census": _pole_census,
    "stationary_sweeps": _stationary_sweeps,
}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int, workdir: Path, reference: dict[str, Any]) -> list[Op]:
    """The operation list of ``workload`` for ``seed``; same seed, same list."""
    return _BUILDERS[workload](np.random.default_rng(seed), workdir, reference)
