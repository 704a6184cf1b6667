"""Run the pole census over a grid of chain sizes and gains and report each cell's outcome.

Usage::

    python scripts/failure_map.py SRC
    python scripts/failure_map.py SRC --against OTHER_SRC

``SRC`` is the ``src`` directory of the checkout to run (its ``ptchain``
package is imported, not the installed one). For every cell of
``N in N_VALUES`` and ``gamma in GAMMAS`` the script calls
``find_poles(ChainSpec(N, gamma), region)`` and prints ``ok`` with the pole
count, or the class of the ``NumericalFailure`` it raised. Any other
exception ends the run with a traceback. The region is the default strip up
to ``ORACLE_MAX_GAMMA``. Above it the default strip is empty (the poles
climb to ``Im k ~ ln(gamma)``), so the region is the upper half of the strip
up to the top of ``first_quadrant_region(gamma)``: that region and its
mirror image ``-conj(k)``.

A passing cell also prints its error. For ``N <= ORACLE_MAX_N`` and
``gamma <= ORACLE_MAX_GAMMA`` that is the largest distance of a reported
pole from the nearest root of the z-polynomial oracle of
``tests/zpoly_oracle.py`` (``err``). Elsewhere no independent pole list is
at hand (the oracle's arithmetic breaks down at large gamma), so the cell
prints two checks instead: the largest distance of a reported pole from the
nearest wavenumber of the complex companion ``dense_pencil_companion`` of
``tests/transfer_oracles.py``, solved by NumPy's complex eigensolver
(``cross``), and the number of first-quadrant poles against the closed-form
ladder count ``tgbs_count`` (``ladder``). The package solves the real
companion, similar to that one, whose census is closed under
``k -> -conj(k)`` by construction, so a mirror-pairing check would read 0
and show nothing; ``cross`` measures how far two eigensolvers of the same
pencil disagree. A cell whose error exceeds ``ACCURACY_TOL``, or whose
first-quadrant count is not the ladder's, is marked ``inaccurate``. The
script exits 1 when any cell raises.

The lower half of the strip gets report-only cells, at ``N in N_VALUES`` and
``gamma in LOWER_GAMMAS``, on ``-top <= Im k <= -1e-8`` with the same
``top``. Its deep resonances lose accuracy as gamma grows. A cell prints its
pole count against the ``2N - 2`` that the pencil's ``4N - 2`` poles leave
below the axis once all ``2N`` above it have risen (``count``), and its
``cross`` distance. It is marked ``inaccurate`` above ``LOWER_CROSS_TOL``
or on a count mismatch. These cells never change the exit
status.

With ``--against``, both checkouts run, each in its own interpreter (both
import the name ``ptchain``), and every cell prints both outcomes. A cell
differs when it passes on one side only, or when the two pole lists, as
``(Re k, Im k, residual)`` triples, are not equal bit for bit. The script
exits 1 when a cell of the map (not of the lower half strip, whose cells are
compared and counted but only reported) differs or raises on ``SRC``, or
when the pole layer differs (below). A cell that
fails on both sides with different exception classes is marked ``changed``
but is not a difference: there is no pole list to compare. A differing cell
that passes on both sides also prints how far apart its lists are: the
largest distance from any pole to the nearest pole of the other side
(``moved``), and the largest ratio of a ``SRC`` pole's residual to that of
the nearest ``OTHER_SRC`` pole (``res x``). The summary line gives the
largest ``moved`` over all cells.

``--against`` also compares the pole layer bit for bit, every float as
``float.hex``: ``find_poles`` on the default strip at every option of
``perfbench.workloads.CENSUS_DRAWS`` (each pole's ``k``, ``residual``,
energy, growth rate and class), and ``trace_trajectories`` at
``N in LAYER_SWEEP_SIZES`` from gamma = 0 to 2 in 200 steps, non-strict (the
samples, every branch point with its class, ``lost``, and the crossings).
It prints each differing entry, and any difference makes the exit status 1.

``--against`` compares the scattering layer in the same way, by ``repr`` of
each result or by the type and message of the exception raised: ``scatter``
and ``transmission_closed_form`` at the ``EXTREME_POINTS`` and
``SCATTER_DRAWS`` seeded ``extreme_inputs`` of ``tests/transfer_oracles.py``,
and ``pole_residual`` at those of ``N <= RESIDUAL_MAX_N``, with an imaginary
part uniform in [-1, 1] added to ``k``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import warnings

N_VALUES = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144)
GAMMAS = (1e-8, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 1.5, 1.99, 2.0, 2.5, 4.0,
          10.0, 1e2, 1e4, 1e8, 1e12)
#: Largest N whose poles are checked against the z-polynomial oracle.
ORACLE_MAX_N = 21
#: Largest gamma whose cells take the default strip and, up to ORACLE_MAX_N, the oracle.
ORACLE_MAX_GAMMA = 4.0
#: A passing cell with a larger pole error is marked ``inaccurate``.
ACCURACY_TOL = 1e-10
#: Gammas of the report-only cells on the lower half strip.
LOWER_GAMMAS = (10.0, 1e2, 1e4, 1e8, 1e12)
#: A lower-half cell with a larger ``cross`` distance is marked ``inaccurate``.
LOWER_CROSS_TOL = 1e-12
#: Chain sizes of the pole layer's trajectory sweeps.
LAYER_SWEEP_SIZES = (3, 4, 8, 20)
#: Seed and count of the scattering layer's draws.
SCATTER_SEED = 34001
SCATTER_DRAWS = 40000
#: Largest N of the scattering layer's ``pole_residual`` entries.
RESIDUAL_MAX_N = 3000
REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TESTS_DIR = os.path.join(REPO, "tests")


def _import(src: str):
    """The ``ptchain`` package of ``src`` (and the oracles of ``tests``) on ``sys.path``."""
    sys.path.insert(0, os.path.abspath(src))
    sys.path.insert(1, TESTS_DIR)
    import ptchain

    return ptchain


def _cross_distance(spec, found: list[complex]) -> float:
    """The largest distance from a pole of ``found`` to the nearest wavenumber of the
    finite eigenvalues of ``dense_pencil_companion(spec)``."""
    import numpy as np
    from transfer_oracles import dense_pencil_companion

    with np.errstate(divide="ignore", invalid="ignore"):
        z = 1.0 / np.linalg.eigvals(dense_pencil_companion(spec))
    k = -1j * np.log(z[np.isfinite(z)])
    return max((float(np.abs(k - m).min(initial=math.inf)) for m in found), default=0.0)


def census_map(src: str) -> tuple[list[dict], list[dict]]:
    """The cells of the map and the report-only cells of the lower half strip.

    Each cell has ``n``, ``gamma``, ``outcome``, ``poles``, ``error`` and
    ``ladder``, a lower-half cell ``count`` in place of ``ladder``.
    ``outcome`` is ``"ok"`` or the exception class name and ``poles`` the
    list of ``[Re k, Im k, residual]``. ``error`` is the oracle distance or
    the ``cross`` distance; ``ladder`` is None or, with the ``cross`` distance, the
    first-quadrant pole count and the ladder count, and ``count`` the pole
    count and ``2N - 2``. All but ``outcome`` are None when the cell raised.
    """
    pc = _import(src)
    from zpoly_oracle import zpoly_roots

    def run(n: int, gamma: float, region, check: str) -> dict:
        cell = {"n": n, "gamma": gamma, "outcome": "ok", "poles": None, "error": None, check: None}
        try:
            records = pc.find_poles(pc.ChainSpec(n, gamma), region)
        except pc.NumericalFailure as exc:
            cell["outcome"] = type(exc).__name__
            return cell
        cell["poles"] = [[r.k.re, r.k.im, r.residual] for r in records]
        found = [r.k.as_complex() for r in records]
        if check == "count":
            cell["error"] = _cross_distance(pc.ChainSpec(n, gamma), found)
            cell["count"] = [len(found), 2 * n - 2]
        elif n <= ORACLE_MAX_N and gamma <= ORACLE_MAX_GAMMA:
            oracle = zpoly_roots(pc.ChainSpec(n, gamma))
            cell["error"] = max(
                (min((abs(m - k) for k in oracle), default=math.inf) for m in found), default=0.0
            )
        else:
            quadrant = sum(r.classification is pc.PoleClass.TGBS for r in records)
            cell["error"] = _cross_distance(pc.ChainSpec(n, gamma), found)
            cell["ladder"] = [quadrant, pc.tgbs_count(pc.ChainSpec(n, gamma))]
        return cell

    cells, lower = [], []
    for n in N_VALUES:
        for gamma in GAMMAS:
            region = None
            if gamma > ORACLE_MAX_GAMMA:
                top = pc.first_quadrant_region(gamma)
                region = pc.SearchRegion(-top.re_max, top.re_max, top.im_min, top.im_max)
            cells.append(run(n, gamma, region, "ladder"))
    for n in N_VALUES:
        for gamma in LOWER_GAMMAS:
            top = pc.first_quadrant_region(gamma).im_max
            region = pc.SearchRegion(-math.pi + 1e-4, math.pi - 1e-4, -top, -1e-8)
            lower.append(run(n, gamma, region, "count"))
    return cells, lower


def pole_layer(src: str) -> dict[str, object]:
    """The pole layer's outputs, every float as ``float.hex``, keyed by what produced them."""
    pc = _import(src)
    sys.path.insert(0, REPO)
    from perfbench.workloads import CENSUS_DRAWS

    layer: dict[str, object] = {}
    for n, options in CENSUS_DRAWS:
        for gamma in options:
            try:
                records = pc.find_poles(pc.ChainSpec(n, gamma))
            except pc.NumericalFailure as exc:
                layer[f"find_poles N={n} gamma={gamma!r}"] = type(exc).__name__
                continue
            layer[f"find_poles N={n} gamma={gamma!r}"] = [
                [r.k.re.hex(), r.k.im.hex(), r.residual.hex(), r.energy.real.hex(),
                 r.energy.imag.hex(), r.growth_rate.hex(), r.classification.value]
                for r in records
            ]
    for n in LAYER_SWEEP_SIZES:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the soft branch-count check; the dump records it all
            traj = pc.trace_trajectories(pc.ChainSpec(n, 0.0), 0.0, 2.0, 200, strict=False)
        layer[f"trace_trajectories N={n}"] = {
            "samples": [g.hex() for g in traj.gamma_samples],
            "branches": [
                [b.branch_id, b.lost,
                 [[g.hex(), r.k.re.hex(), r.k.im.hex(), r.classification.value] for g, r in b.points]]
                for b in traj.branches
            ],
            "crossings": [
                [c.branch_id, c.gamma.hex(), c.k.real.hex(), c.k.imag.hex()] for c in traj.crossings
            ],
        }
    return layer


def scattering_layer(src: str) -> list[list[str]]:
    """The scattering layer as ``[entry, outcome]`` rows, an outcome a ``repr`` or ``"Type: message"``."""
    pc = _import(src)
    import numpy as np
    from transfer_oracles import EXTREME_POINTS, extreme_inputs

    def outcome(route, *args) -> str:
        try:
            return repr(route(*args))
        except Exception as exc:  # an untyped failure is an outcome too
            return f"{type(exc).__name__}: {exc}"

    rng = np.random.default_rng(SCATTER_SEED)
    rows = []
    for spec, k in [*EXTREME_POINTS, *extreme_inputs(rng, SCATTER_DRAWS)]:
        entry = f"N={spec.n_cells} gamma={spec.gamma!r} k={k!r}"
        rows.append([f"scatter {entry}", outcome(pc.scatter, spec, k)])
        rows.append([f"transmission_closed_form {entry}",
                     outcome(pc.transmission_closed_form, spec, k)])
        im = float(rng.uniform(-1.0, 1.0))
        if spec.n_cells <= RESIDUAL_MAX_N:
            rows.append([f"pole_residual {entry} im={im!r}",
                         outcome(pc.pole_residual, spec, complex(k, im))])
    return rows


def _is_inaccurate(cell: dict) -> bool:
    if cell["outcome"] != "ok":
        return False
    if "count" in cell:
        return cell["error"] > LOWER_CROSS_TOL or cell["count"][0] != cell["count"][1]
    ladder = cell["ladder"]
    return cell["error"] > ACCURACY_TOL or (ladder is not None and ladder[0] != ladder[1])


def _describe(cell: dict) -> str:
    if cell["outcome"] != "ok":
        return cell["outcome"]
    text = f"ok {len(cell['poles'])}"
    if "count" in cell:
        text += f" cross {cell['error']:.1e} count {cell['count'][0]}/{cell['count'][1]}"
    elif cell["ladder"] is None:
        text += f" err {cell['error']:.1e}"
    else:
        text += f" cross {cell['error']:.1e} ladder {cell['ladder'][0]}/{cell['ladder'][1]}"
    return text + (" inaccurate" if _is_inaccurate(cell) else "")


def _inaccurate(cells: list[dict]) -> int:
    return sum(map(_is_inaccurate, cells))


def _passing(cells: list[dict]) -> int:
    return sum(c["outcome"] == "ok" for c in cells)


def _raised(cells: list[dict]) -> bool:
    return _passing(cells) < len(cells)


def _run_elsewhere(src: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), src, "--json"],
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def _nearest(k: complex, poles: list[list[float]]) -> tuple[float, float]:
    """Distance from ``k`` to the nearest ``[Re k, Im k, residual]`` in ``poles``, and its residual."""
    return min(((abs(k - complex(re, im)), res) for re, im, res in poles), default=(math.inf, math.nan))


def _moved(ours: list[list[float]], theirs: list[list[float]]) -> tuple[float, float]:
    """The largest distance from a pole to the other list, and the largest residual ratio ours / theirs."""
    moved, ratio = 0.0, 0.0
    for side, other in ((ours, theirs), (theirs, ours)):
        for re, im, res in side:
            d, other_res = _nearest(complex(re, im), other)
            moved = max(moved, d)
            if side is ours:
                ratio = max(ratio, res / other_res if other_res else math.inf)
    return moved, ratio


def _compare_cells(theirs: list[dict], ours: list[dict], title: str, sides: str) -> int:
    """Print both outcomes of each cell and a summary line; the number of differing cells."""
    differing = changed = 0
    worst = 0.0
    for other, cell in zip(theirs, ours):
        mark = ""
        if other["poles"] != cell["poles"]:
            differing += 1
            mark = "  DIFFERS"
            if other["poles"] is not None and cell["poles"] is not None:
                moved, ratio = _moved(cell["poles"], other["poles"])
                worst = max(worst, moved)
                mark += f" moved {moved:.1e} res x{ratio:.3g}"
        elif other["outcome"] != cell["outcome"]:
            changed += 1
            mark = "  changed"
        print(f"N={cell['n']:<4d} gamma={cell['gamma']!r:<6}  "
              f"{_describe(other):<44} | {_describe(cell)}{mark}")
    print(f"{title}ok in {_passing(theirs)} | {_passing(ours)} of {len(ours)} cells, inaccurate in "
          f"{_inaccurate(theirs)} | {_inaccurate(ours)} ({sides}); "
          f"{differing} differing (poles moved by at most {worst:.1e}), "
          f"{changed} failing with another class")
    return differing


def compare(src: str, against: str) -> int:
    theirs, ours = _run_elsewhere(against), _run_elsewhere(src)
    sides = f"{against} | {src}"
    differing = _compare_cells(theirs["cells"], ours["cells"], "", sides)
    _compare_cells(theirs["lower"], ours["lower"], "lower half strip, report only: ", sides)
    layer = [name for name in ours["layer"] if ours["layer"][name] != theirs["layer"].get(name)]
    for name in layer:
        print(f"pole layer DIFFERS: {name}")
    print(f"pole layer: {len(layer)} of {len(ours['layer'])} entries differing bit for bit")
    scattering = [(mine, other) for mine, other in zip(ours["scattering"], theirs["scattering"])
                  if mine != other]
    for (entry, mine), (_, other) in scattering:
        print(f"scattering layer DIFFERS: {entry}: {other} | {mine}")
    print(f"scattering layer: {len(scattering)} of {len(ours['scattering'])} entries differing")
    return 1 if differing or layer or scattering or _raised(ours["cells"]) else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        epilog="See the module docstring for the comparison mode.")
    parser.add_argument("src", help="src directory of the checkout to run")
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="src directory of a second checkout to compare against")
    parser.add_argument("--json", action="store_true",
                        help="print the cells, pole lists included, and the pole and "
                             "scattering layers as JSON")
    args = parser.parse_args(argv)
    if args.against:
        return compare(args.src, args.against)
    cells, lower = census_map(args.src)
    if args.json:
        json.dump({"cells": cells, "lower": lower, "layer": pole_layer(args.src),
                   "scattering": scattering_layer(args.src)}, sys.stdout)
        return 0
    for title, side in (("", cells), ("lower half strip, report only: ", lower)):
        for cell in side:
            print(f"N={cell['n']:<4d} gamma={cell['gamma']!r:<6}  {_describe(cell)}")
        print(f"{title}ok in {_passing(side)} of {len(side)} cells, inaccurate in {_inaccurate(side)}")
    return 1 if _raised(cells) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
