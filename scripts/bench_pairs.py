"""Run the benchmark in two checkouts, in alternating pairs, and compare them.

Usage::

    python scripts/bench_pairs.py PARENT_ROOT --workload pole_census --pairs 10 --seed0 101

``PARENT_ROOT`` is the root of the checkout to compare against; the other
side is the checkout holding this script. Pair ``i`` runs
``perfbench/run.py --workload W --seed SEED0+i --seconds S --trace 0`` once
in each checkout, each in its own process, the parent first in even pairs
and this checkout first in odd ones. ``S`` is ``run_seconds`` from this
checkout's ``BENCHMARK.json``, so both sides run for the same time.

Each run's result line is printed as it arrives. At the end, for every
end-to-end metric of ``BENCHMARK.json``, the script prints each side's
median and quartiles, the ratio of the medians, the pairs the change won
(ties count for neither), and whether a gain could be claimed: the change
wins at least nine tenths of the pairs and the medians differ by more than
the distance between the parent's quartiles. It also prints ``correct`` and
the failed operations per side. It exits 1 when a run fails or prints no
result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``root``; its final JSON line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(name: str, better: str, parent: list[float], change: list[float]) -> str:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    claim = wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1
    return (f"{name}: parent {pm:.4g} ({p1:.4g}-{p3:.4g})  change {cm:.4g} ({c1:.4g}-{c3:.4g})"
            f"  ratio {cm / pm:.3f}  change {better} in {wins}/{len(parent)} pairs"
            f"  gain claimable: {'yes' if claim else 'no'}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        epilog="See the module docstring for the pairing and the claim rule.")
    parser.add_argument("parent_root", type=Path, help="root of the checkout to compare against")
    parser.add_argument("--workload", required=True,
                        choices=("paper_figures", "pole_census", "stationary_sweeps"))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)

    bench = json.loads((HERE / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent_root.resolve(), "change": HERE}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            try:
                result = run_once(sides[side], args.workload, seed, bench["run_seconds"])
            except (RuntimeError, json.JSONDecodeError) as exc:
                print(f"pair {i} seed {seed} {side}: no result: {exc}", file=sys.stderr)
                return 1
            results[side].append(result)
            values = {n: round(m["value"], 4) for n, m in result["metrics"].items()}
            print(f"pair {i} seed {seed} {side}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} {values}", flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs, seeds {args.seed0}-{args.seed0 + args.pairs - 1}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent, change = ([r["metrics"][name]["value"] for r in results[s]] for s in sides)
        print(summary(name, metric["better"], parent, change))
    for side, runs in results.items():
        print(f"{side}: correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs, "
              f"failed operations {[r['failed'] for r in runs]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
