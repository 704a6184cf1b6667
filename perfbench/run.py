"""ptchain benchmark: three workloads, closed loop, outputs checked by oracles.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pole_census --seed 1 --seconds 25 --trace 0

One caller runs one operation at a time (a closed loop, one client) in this
process, with the BLAS thread count capped at ``nproc``. The package is
imported from ``src/`` of the checkout; the run stops with exit status 2 when
that source is missing. Every operation's output is checked by an
independent oracle (``perfbench/oracles.py``, ``perfbench/reference.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric with its unit and sample count, the failing operations and
the machine facts.

Workloads (the seed generates every input; see ``perfbench/workloads.py``)
--------------------------------------------------------------------------
paper_figures
    All 21 ``ptchain figure`` presets through ``ptchain.cli.main``, writing
    CSV into a scratch directory of the checkout; the seed only permutes the
    order. This is what a reader reproducing the paper runs. About three
    quarters of it is the dense eigendecomposition behind fig5d-f.
pole_census
    Full-strip ``find_poles`` at N in {3, 5, 10, 15, 20, 25, 30, 35, 40, 50}
    (the six fast sizes twice), gamma picked by the seed from fixed options
    in one stratum of U(0.1, 1.9) per draw, plus ``trace_trajectories`` over
    gamma in [0, 2] at N = 4 and 8 (100 steps). Nearly all the time is in
    ``poles``, including the sizes where the finder is slow (N = 25) or
    raises MissedRoots (N = 35, 40, 50).
stationary_sweeps
    16 fixed sizes log-spaced over 1..1000, gamma drawn by the seed in one
    stratum of U(0.1, 1.9) per size: a 2001-point ``scatter`` k-sweep,
    ``verdict`` with the special points, and ``transmission_vs_size`` to
    n_max = 200 at a seeded energy; for N <= 50 also ``tgbs_count(verify=True)``
    and ``threshold_ladder(verify_numeric=True)``. Mostly ``scattering``;
    ``poles`` only in small windows; no ``dynamics``.

End-to-end metrics (``--trace 0``; same names on every workload)
----------------------------------------------------------------
setup_s       s    median over fresh processes of: import ptchain, generate
                   the inputs, load the reference data
wall_s        s    median over passes of one pass's summed operation time
                   (failed operations included, output checks excluded)
peak_rss_mb   MB   peak resident set size of this process after the passes

Printed with their sample counts but not in the JSON result, so not bounded:

op_p50_ms     ms   median operation latency over all passes. Its median
                   operations last 15-50 ms, and single operations that short
                   vary by +-25% on a shared host, so across seeds it spreads
                   as wide as the largest allowed bound.
fail_ratio    1    failed / attempted, also carried by the JSON keys
                   ``failed`` and ``attempted``; it is 0 on paper_figures, and
                   a bounded metric must never be 0.

Per-layer metrics (``--trace 1``: one traced pass, then one untraced pass)
-------------------------------------------------------------------------
Named ``<module>.<public function>.<stat>``; spans are recorded around the
package's public functions from outside (``perfbench/tracing.py``). The
prediction each later change is judged against: layer metric -> the
end-to-end metric it should move, on which workload.

dynamics.prepare_propagator.{calls,busy_s,peak_rss_delta_mb,near_defective},
dynamics.evolve.{calls,ms_per_call}
    -> wall_s and peak_rss_mb on paper_figures. No change on pole_census
    and stationary_sweeps, which never call dynamics.
poles.find_poles.{calls,busy_s,p50_ms,failures,poles_returned}
    -> wall_s and fail_ratio on pole_census; op_p50_ms on paper_figures,
    where a fig2 census is the median operation.
poles.trace_trajectories.{calls,busy_s,self_s,branches,crossings,lost_branches}
    -> wall_s on pole_census and paper_figures. ``self_s`` is busy time
    minus the child find_poles spans: continuation and crossing refinement.
poles.tgbs_count.{calls,busy_s,failures},
poles.threshold_ladder.{calls,busy_s,failures}
    -> wall_s and fail_ratio on stationary_sweeps (the windowed use of the
    pole finder).
scattering.scatter.{calls,busy_s,singular,crosscheck_failures,
us_per_call_n_le_10,us_per_call_n_ge_100},
scattering.transmission_closed_form.{calls,busy_s}
    -> wall_s and op_p50_ms on stationary_sweeps. No visible change on
    paper_figures, where they cost under 1%.
relevance.verdict.busy_s, relevance.transmission_vs_size.busy_s
    -> wall_s on stationary_sweeps.
cli.main.self_s, cli.main.bytes_written
    -> wall_s on paper_figures. ``self_s`` is the preset span minus its
    child layer spans: argument parsing, formatting and file writing. A
    single table emitter must keep both flat.
trace.overhead_s
    traced minus untraced summed operation time, same workload and seed.

Known failures at the seed are listed in ``perfbench/baseline.json``. They
count in ``failed``; ``correct`` turns false only for a failure outside that
list, so a later fix shows as a drop in ``failed`` and a new failure as
``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
BASELINE_FILE = HERE / "baseline.json"
#: Scratch space for the presets' output files, inside the checkout.
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def limit_blas_threads() -> None:
    """Cap every BLAS thread variable at ``nproc``; call before numpy loads."""
    cap = _nproc()
    for var in _BLAS_VARS:
        try:
            wanted = int(os.environ.get(var, cap))
        except ValueError:
            wanted = cap
        os.environ[var] = str(max(1, min(wanted, cap)))


def use_checkout_source() -> None:
    """Import ``ptchain`` from this checkout's ``src/`` and nothing else."""
    if not (SOURCE / "ptchain" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SOURCE}/ptchain", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(ROOT), str(SOURCE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def setup(workload: str, seed: int, workdir: Path):
    """Import the package, generate the inputs, load the reference data."""
    from perfbench import reference, workloads

    ref = reference.load_reference() if workload == "paper_figures" else {}
    return workloads.build(workload, seed, workdir, ref)


def _setup_sample(workload: str, seed: int) -> float:
    """Set-up time in a fresh interpreter, so imports are not cached."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------

@dataclass
class Outcome:
    """One attempted operation: its latency and why it failed, if it did."""

    op: Any
    seconds: float
    failure: str | None
    detail: str = ""


def run_pass(ops, workdir: Path) -> list[Outcome]:
    """Run every operation once, timing the call and then checking its output."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    outcomes = []
    for op in ops:
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raise fails this operation, not the run
            outcomes.append(Outcome(op, time.perf_counter() - start, type(exc).__name__, str(exc)))
            continue
        elapsed = time.perf_counter() - start
        try:
            problem = op.check(result)
        except Exception as exc:  # malformed output, e.g. a file not written
            problem = f"output check raised {exc!r}"
        outcomes.append(Outcome(op, elapsed, "check" if problem else None, problem or ""))
    return outcomes


def pass_wall(outcomes: list[Outcome]) -> float:
    return sum(o.seconds for o in outcomes)


def is_known(outcome: Outcome, known: list[dict]) -> bool:
    """Whether a failure lies in a region of the recorded seed baseline."""
    op = outcome.op
    for entry in known:
        if entry["kind"] != op.kind or entry["outcome"] != outcome.failure:
            continue
        if not entry["n_min"] <= op.n_cells <= entry["n_max"]:
            continue
        if op.gamma is not None and not entry["gamma_min"] <= op.gamma <= entry["gamma_max"]:
            continue
        return True
    return False


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------

def _host_steal_s() -> float:
    """CPU time taken from this machine by its hypervisor, summed over CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):  # not Linux, or no steal column
        return 0.0


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:  # not a git checkout
        pass
    return "unknown"


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning
        pass
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_VARS},
        "seed": seed,
        "git_commit": _git_commit(),
    }


def _metric_line(name: str, value: float, unit: str, samples: str) -> str:
    return f"{name:<52} {value:>16.6g} {unit:<6} ({samples})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_figures", "pole_census", "stationary_sweeps"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    limit_blas_threads()
    use_checkout_source()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        start = time.perf_counter()
        ops = setup(args.workload, args.seed, workdir / "out")
        setup_first = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_first}))
            return 0
        return _measure(args, ops, workdir / "out", setup_first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass


def _measure(args, ops, workdir: Path, setup_first: float) -> int:
    from perfbench import tracing

    baseline = json.loads(BASELINE_FILE.read_text())[args.workload]
    outcomes: list[Outcome] = []
    steal_start = _host_steal_s()
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            traced = run_pass(ops, workdir)
        untraced = run_pass(ops, workdir)
        outcomes = traced + untraced
        steal = _host_steal_s() - steal_start
        metrics = tracing.layer_metrics(tracer.spans, pass_wall(traced), pass_wall(untraced))
        samples = {name: "1 traced pass" for name in metrics}
    else:
        walls: list[float] = []
        budget_end = time.perf_counter() + args.seconds
        while True:
            one = run_pass(ops, workdir)
            outcomes += one
            walls.append(pass_wall(one))
            if time.perf_counter() + walls[-1] > budget_end:
                break
        steal = _host_steal_s() - steal_start
        setups = [setup_first] + [_setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        samples = {
            "setup_s": f"n={len(setups)} processes",
            "wall_s": f"n={len(walls)} passes",
            "peak_rss_mb": "n=1 process",
        }

    failed = [o for o in outcomes if o.failure]
    unexpected = [o for o in failed if not is_known(o, baseline["known_failures"])]
    print(f"workload {args.workload}: {len(ops)} operations per pass, "
          f"{len(outcomes) // len(ops)} passes, trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(_metric_line(name, value, unit, samples[name]))
    if not args.trace:
        p50 = 1e3 * statistics.median(o.seconds for o in outcomes)
        print(_metric_line("op_p50_ms", p50, "ms", f"n={len(outcomes)} operations"))
    print(_metric_line("fail_ratio", len(failed) / len(outcomes), "1", f"n={len(outcomes)} operations"))
    for o in sorted({(o.op.label, o.failure, o.detail[:160]) for o in failed}):
        print(f"failed: {o[0]}: {o[1]}: {o[2]}")
    for label, failure in sorted({(o.op.label, o.failure) for o in unexpected}):
        print(f"UNEXPECTED failure (not in perfbench/baseline.json): {label}: {failure}")
    print(f"host steal time during the passes: {steal:.2f} s (time the hypervisor ran other guests)")
    print("machine " + json.dumps(machine_facts(args.seed), sort_keys=True))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
