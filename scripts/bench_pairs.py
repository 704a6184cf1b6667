"""Run the benchmark in two checkouts, in alternating pairs, and compare them.

Usage::

    python scripts/bench_pairs.py PARENT_ROOT --workload pole_census --pairs 10 --seed0 101
    python scripts/bench_pairs.py PARENT_ROOT --workload paper_figures pole_census \
        --pairs 10 --seed0 101 --json BENCH.json

``PARENT_ROOT`` is the root of the checkout to compare against; the other
side is the checkout holding this script. Pair ``i`` runs
``perfbench/run.py --workload W --seed SEED0+i --seconds S --trace 0`` once
in each checkout, each in its own process, the parent first in even pairs
and this checkout first in odd ones. ``S`` is ``run_seconds`` from this
checkout's ``BENCHMARK.json``, so both sides run for the same time.

Each run's result line is printed as it arrives, with two facts about the
host beside it: the one-minute load average as the run starts
(``os.getloadavg()[0]``) and the steal time the host's CPUs reported while
it ran (the ``steal`` column of the ``cpu`` line of ``/proc/stat``, in
seconds; ``None`` where that file is missing). Neither is a threshold: they
say whether other work shared the machine. At the end, for every
end-to-end metric of ``BENCHMARK.json``, the script prints each side's
median and quartiles, the ratio of the medians, the pairs the change won
(ties count for neither), and whether a gain could be claimed: the change
wins at least nine tenths of the pairs and the medians differ by more than
the distance between the parent's quartiles. It also prints ``correct`` and
the failed operations per side. Several workloads run one after another,
each with ``--pairs`` pairs from seed ``SEED0``. It exits 1 when a run fails
or prints no result.

With ``--json PATH`` it also writes, per workload, every run's result line,
machine facts and host facts (under ``host``: ``loadavg_1m``, ``steal_s``)
and the printed summary as numbers: each metric's medians,
quartiles, ratio, pair wins and claim, and each side's ``correct`` count and
failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def steal_ticks() -> int | None:
    """The steal time summed over the host's CPUs since boot, in clock ticks, from
    ``/proc/stat``; None where the file or its ``steal`` column is missing."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8])


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``root``: its final JSON line, with its
    machine facts under ``machine`` and the host's load and steal time under
    ``host``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    load, steal = os.getloadavg()[0], steal_ticks()
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    steal_end = steal_ticks()
    host = {"loadavg_1m": load, "steal_s": None if steal is None or steal_end is None
            else (steal_end - steal) / os.sysconf("SC_CLK_TCK")}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    machine = [line for line in lines if line.startswith("machine ")]
    if machine:
        result["machine"] = json.loads(machine[-1][len("machine "):])
    result["host"] = host
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(better: str, parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles, ratio, pair wins and the claim rule for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    return {
        "better": better,
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "ratio": cm / pm,
        "change_wins": wins,
        "pairs": len(parent),
        "gain_claimable": wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1,
    }


def summary_line(name: str, s: dict) -> str:
    p, c = s["parent"], s["change"]
    return (f"{name}: parent {p['median']:.4g} ({p['q1']:.4g}-{p['q3']:.4g})"
            f"  change {c['median']:.4g} ({c['q1']:.4g}-{c['q3']:.4g})"
            f"  ratio {s['ratio']:.3f}  change {s['better']} in {s['change_wins']}/{s['pairs']} pairs"
            f"  gain claimable: {'yes' if s['gain_claimable'] else 'no'}")


def run_pairs(sides: dict[str, Path], workload: str, pairs: int, seed0: int,
              seconds: float) -> dict[str, list[dict]] | None:
    """Every run's result per side, or None when a run fails."""
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        seed = seed0 + i
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            try:
                result = run_once(sides[side], workload, seed, seconds)
            except (RuntimeError, json.JSONDecodeError) as exc:
                print(f"pair {i} seed {seed} {side}: no result: {exc}", file=sys.stderr)
                return None
            results[side].append(result)
            values = {n: round(m["value"], 4) for n, m in result["metrics"].items()}
            host = result["host"]
            steal = "-" if host["steal_s"] is None else f"{host['steal_s']:.2f} s"
            print(f"pair {i} seed {seed} {side}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} {values} "
                  f"load {host['loadavg_1m']:.2f} steal {steal}", flush=True)
    return results


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        epilog="See the module docstring for the pairing and the claim rule.")
    parser.add_argument("parent_root", type=Path, help="root of the checkout to compare against")
    parser.add_argument("--workload", required=True, nargs="+",
                        choices=("paper_figures", "pole_census", "stationary_sweeps"))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="write the runs and the summary to PATH")
    args = parser.parse_args(argv)

    bench = json.loads((HERE / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent_root.resolve(), "change": HERE}
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workload:
        results = run_pairs(sides, workload, args.pairs, args.seed0, bench["run_seconds"])
        if results is None:
            return 1
        seeds = [args.seed0, args.seed0 + args.pairs - 1]
        print(f"\n{workload}, {args.pairs} pairs, seeds {seeds[0]}-{seeds[1]}")
        metrics = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent, change = ([r["metrics"][name]["value"] for r in results[s]] for s in sides)
            metrics[name] = summary(metric["better"], parent, change)
            print(summary_line(name, metrics[name]))
        outcome = {side: {"correct": sum(r["correct"] for r in runs), "runs": len(runs),
                          "failed": [r["failed"] for r in runs]}
                   for side, runs in results.items()}
        for side, o in outcome.items():
            print(f"{side}: correct in {o['correct']}/{o['runs']} runs, "
                  f"failed operations {o['failed']}")
        report["workloads"][workload] = {"pairs": args.pairs, "seeds": seeds, "metrics": metrics,
                                         "outcome": outcome, "runs": results}
    if args.json:
        args.json.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
