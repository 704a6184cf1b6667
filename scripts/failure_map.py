"""Run the pole census over a grid of chain sizes and gains and report each cell's outcome.

Usage::

    python scripts/failure_map.py SRC
    python scripts/failure_map.py SRC --against OTHER_SRC

``SRC`` is the ``src`` directory of the checkout to run (its ``ptchain``
package is imported, not the installed one). For every cell of
``N in N_VALUES`` and ``gamma in GAMMAS`` the script calls
``find_poles(ChainSpec(N, gamma))`` on the default strip and prints ``ok``
with the pole count, or the class of the ``NumericalFailure`` it raised.
Any other exception ends the run with a traceback.

A passing cell also prints its error. For ``N <= ORACLE_MAX_N`` that is the
largest distance of a reported pole from the nearest root of the
z-polynomial oracle of ``tests/zpoly_oracle.py`` (``err``). Above it no
independent pole list is at hand (the pencil's eigenvalues are what
``find_poles`` reports), so the cell prints two structural checks instead:
the largest distance of a pole's mirror ``-conj(k)`` from the nearest
reported pole (``pair``), and the number of first-quadrant poles against
the closed-form ladder count ``tgbs_count`` (``ladder``). A cell whose
error exceeds ``ACCURACY_TOL``, or whose first-quadrant count is not the
ladder's, is marked ``inaccurate``. The script exits 1 when any cell
raises.

With ``--against``, both checkouts run, each in its own interpreter (both
import the name ``ptchain``), and every cell prints both outcomes. A cell
differs when it passes on one side only, or when the two pole lists, as
``(Re k, Im k, residual)`` triples, are not equal bit for bit; the script
exits 1 when any cell differs or any cell of ``SRC`` raises. A cell that
fails on both sides with different exception classes is marked ``changed``
but is not a difference: there is no pole list to compare. A differing cell
that passes on both sides also prints how far apart its lists are: the
largest distance from any pole to the nearest pole of the other side
(``moved``), and the largest ratio of a ``SRC`` pole's residual to that of
the nearest ``OTHER_SRC`` pole (``res x``). The summary line gives the
largest ``moved`` over all cells.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

N_VALUES = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144)
GAMMAS = (1e-8, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 1.5, 1.99, 2.0, 2.5, 4.0)
#: Largest N whose poles are checked against the z-polynomial oracle.
ORACLE_MAX_N = 21
#: A passing cell with a larger pole error is marked ``inaccurate``.
ACCURACY_TOL = 1e-10
TESTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests")


def census_map(src: str) -> list[dict]:
    """One entry per cell: ``n``, ``gamma``, ``outcome``, ``poles``, ``error``, ``ladder``.

    ``outcome`` is ``"ok"`` or the exception class name and ``poles`` the
    list of ``[Re k, Im k, residual]``. ``error`` is the oracle distance or,
    above ``ORACLE_MAX_N``, the pairing defect; ``ladder`` is None or, above
    ``ORACLE_MAX_N``, the first-quadrant pole count and the ladder count.
    All but ``outcome`` are None when the cell raised.
    """
    sys.path.insert(0, os.path.abspath(src))
    sys.path.insert(1, TESTS_DIR)
    from ptchain import ChainSpec, NumericalFailure, PoleClass, find_poles, tgbs_count
    from zpoly_oracle import zpoly_roots

    cells = []
    for n in N_VALUES:
        for gamma in GAMMAS:
            spec = ChainSpec(n, gamma)
            cell = {"n": n, "gamma": gamma, "outcome": "ok", "poles": None,
                    "error": None, "ladder": None}
            try:
                records = find_poles(spec)
            except NumericalFailure as exc:
                cell["outcome"] = type(exc).__name__
                cells.append(cell)
                continue
            cell["poles"] = [[r.k.re, r.k.im, r.residual] for r in records]
            found = [r.k.as_complex() for r in records]
            if n <= ORACLE_MAX_N:
                reference, mirrors = zpoly_roots(spec), found
            else:
                reference, mirrors = found, [-k.conjugate() for k in found]
                quadrant = sum(r.classification is PoleClass.TGBS for r in records)
                cell["ladder"] = [quadrant, tgbs_count(spec)]
            cell["error"] = max(
                (min((abs(m - k) for k in reference), default=math.inf) for m in mirrors),
                default=0.0,
            )
            cells.append(cell)
    return cells


def _is_inaccurate(cell: dict) -> bool:
    ladder = cell["ladder"]
    return cell["outcome"] == "ok" and (
        cell["error"] > ACCURACY_TOL or (ladder is not None and ladder[0] != ladder[1]))


def _describe(cell: dict) -> str:
    if cell["outcome"] != "ok":
        return cell["outcome"]
    text = f"ok {len(cell['poles'])}"
    if cell["ladder"] is None:
        text += f" err {cell['error']:.1e}"
    else:
        text += f" pair {cell['error']:.1e} ladder {cell['ladder'][0]}/{cell['ladder'][1]}"
    return text + (" inaccurate" if _is_inaccurate(cell) else "")


def _inaccurate(cells: list[dict]) -> int:
    return sum(map(_is_inaccurate, cells))


def _raised(cells: list[dict]) -> bool:
    return any(c["outcome"] != "ok" for c in cells)


def _run_elsewhere(src: str) -> list[dict]:
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


def compare(src: str, against: str) -> int:
    theirs, ours = _run_elsewhere(against), _run_elsewhere(src)
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
    passing = [sum(c["outcome"] == "ok" for c in side) for side in (theirs, ours)]
    print(f"ok in {passing[0]} | {passing[1]} of {len(ours)} cells, inaccurate in "
          f"{_inaccurate(theirs)} | {_inaccurate(ours)} ({against} | {src}); "
          f"{differing} differing (poles moved by at most {worst:.1e}), "
          f"{changed} failing with another class")
    return 1 if differing or _raised(ours) else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        epilog="See the module docstring for the comparison mode.")
    parser.add_argument("src", help="src directory of the checkout to run")
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="src directory of a second checkout to compare against")
    parser.add_argument("--json", action="store_true",
                        help="print the cells, pole lists included, as JSON")
    args = parser.parse_args(argv)
    if args.against:
        return compare(args.src, args.against)
    cells = census_map(args.src)
    if args.json:
        json.dump(cells, sys.stdout)
        return 0
    for cell in cells:
        print(f"N={cell['n']:<4d} gamma={cell['gamma']!r:<6}  {_describe(cell)}")
    print(f"ok in {sum(c['outcome'] == 'ok' for c in cells)} of {len(cells)} cells, "
          f"inaccurate in {_inaccurate(cells)}")
    return 1 if _raised(cells) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
