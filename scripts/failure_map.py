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

A passing cell also prints its error: the largest distance of a reported
pole from the nearest reference pole. The reference is the z-polynomial
oracle of ``tests/zpoly_oracle.py`` for ``N <= ORACLE_MAX_N``, and above
that the in-region eigenvalues of the outgoing-wave pencil. A cell whose
error exceeds ``ACCURACY_TOL`` is marked ``inaccurate``.

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
    """One entry per cell: ``n``, ``gamma``, ``outcome``, ``poles`` and ``error``.

    ``outcome`` is ``"ok"`` or the exception class name; ``poles`` is the
    list of ``[Re k, Im k, residual]`` and ``error`` the largest distance of
    a pole from its reference, or both None.
    """
    sys.path.insert(0, os.path.abspath(src))
    sys.path.insert(1, TESTS_DIR)
    from ptchain import ChainSpec, NumericalFailure, find_poles
    from ptchain.poles import DEFAULT_REGION, _pencil_wavenumbers
    from zpoly_oracle import zpoly_roots

    cells = []
    for n in N_VALUES:
        for gamma in GAMMAS:
            spec = ChainSpec(n, gamma)
            try:
                records = find_poles(spec)
            except NumericalFailure as exc:
                outcome, poles, error = type(exc).__name__, None, None
            else:
                outcome = "ok"
                poles = [[r.k.re, r.k.im, r.residual] for r in records]
                if n <= ORACLE_MAX_N:
                    reference = zpoly_roots(spec)
                else:
                    reference = [
                        k for k in map(complex, _pencil_wavenumbers(spec))
                        if DEFAULT_REGION.contains(k)
                    ]
                error = max(
                    (min((abs(r.k.as_complex() - k) for k in reference), default=math.inf)
                     for r in records),
                    default=0.0,
                )
            cells.append({"n": n, "gamma": gamma, "outcome": outcome, "poles": poles,
                          "error": error})
    return cells


def _describe(cell: dict) -> str:
    if cell["outcome"] != "ok":
        return cell["outcome"]
    verdict = " inaccurate" if cell["error"] > ACCURACY_TOL else ""
    return f"ok {len(cell['poles'])} err {cell['error']:.1e}{verdict}"


def _inaccurate(cells: list[dict]) -> int:
    return sum(c["outcome"] == "ok" and c["error"] > ACCURACY_TOL for c in cells)


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
              f"{_describe(other):<32} | {_describe(cell)}{mark}")
    passing = [sum(c["outcome"] == "ok" for c in side) for side in (theirs, ours)]
    print(f"ok in {passing[0]} | {passing[1]} of {len(ours)} cells, inaccurate in "
          f"{_inaccurate(theirs)} | {_inaccurate(ours)} ({against} | {src}); "
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
    print(f"ok in {sum(c['outcome'] == 'ok' for c in cells)} of {len(cells)} cells, "
          f"inaccurate in {_inaccurate(cells)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
