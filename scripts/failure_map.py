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

With ``--against``, both checkouts run, each in its own interpreter (both
import the name ``ptchain``), and every cell prints both outcomes. A cell
differs when it passes on one side only, or when the two pole lists, as
``(Re k, Im k, residual)`` triples, are not equal bit for bit; the script
exits 1 when any cell differs. A cell that fails on both sides with
different exception classes is marked ``changed`` but is not a difference:
there is no pole list to compare.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

N_VALUES = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144)
GAMMAS = (1e-8, 1e-4, 0.01, 0.1, 0.5, 1.0, 1.5, 1.99, 2.0, 2.5, 4.0)


def census_map(src: str) -> list[dict]:
    """One entry per cell: ``n``, ``gamma``, ``outcome`` and ``poles``.

    ``outcome`` is ``"ok"`` or the exception class name; ``poles`` is the
    list of ``[Re k, Im k, residual]`` or None.
    """
    sys.path.insert(0, os.path.abspath(src))
    from ptchain import ChainSpec, NumericalFailure, find_poles

    cells = []
    for n in N_VALUES:
        for gamma in GAMMAS:
            try:
                records = find_poles(ChainSpec(n, gamma))
            except NumericalFailure as exc:
                outcome, poles = type(exc).__name__, None
            else:
                outcome = "ok"
                poles = [[r.k.re, r.k.im, r.residual] for r in records]
            cells.append({"n": n, "gamma": gamma, "outcome": outcome, "poles": poles})
    return cells


def _describe(cell: dict) -> str:
    return f"ok {len(cell['poles'])}" if cell["outcome"] == "ok" else cell["outcome"]


def _run_elsewhere(src: str) -> list[dict]:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), src, "--json"],
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def compare(src: str, against: str) -> int:
    theirs, ours = _run_elsewhere(against), _run_elsewhere(src)
    differing = changed = 0
    for other, cell in zip(theirs, ours):
        mark = ""
        if other["poles"] != cell["poles"]:
            differing += 1
            mark = "  DIFFERS"
        elif other["outcome"] != cell["outcome"]:
            changed += 1
            mark = "  changed"
        print(f"N={cell['n']:<4d} gamma={cell['gamma']!r:<6}  "
              f"{_describe(other):<16} | {_describe(cell)}{mark}")
    passing = [sum(c["outcome"] == "ok" for c in side) for side in (theirs, ours)]
    print(f"ok in {passing[0]} | {passing[1]} of {len(ours)} cells ({against} | {src}); "
          f"{differing} differing, {changed} failing with another class")
    return 1 if differing else 0


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
    print(f"ok in {sum(c['outcome'] == 'ok' for c in cells)} of {len(cells)} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
