"""Write every ``ptchain figure`` preset in both formats, for a byte-identity gate.

Usage::

    python scripts/preset_outputs.py SRC OUTDIR
    python scripts/preset_outputs.py SRC OUTDIR --against OTHER_SRC
    python scripts/preset_outputs.py SRC OUTDIR --time

``SRC`` is the ``src`` directory of the checkout to run (its ``ptchain``
package is imported, not the installed one); ``OUTDIR`` receives
``<preset>.csv`` and ``<preset>.json`` for each preset. Evolve presets write
the same snapshot files in either format, so they run once.

The evolve summaries record their snapshot paths, so two checkouts are
compared by writing both to the same ``OUTDIR``. With ``--against``, the
script does that itself: it runs ``OTHER_SRC`` into ``OUTDIR``, moves that
tree aside to ``OUTDIR.against``, runs ``SRC`` into ``OUTDIR`` and compares
the two trees byte for byte. For each CSV that differs it also prints
whether the headers, the row counts and the non-numeric cells match, and the
largest absolute and relative difference in each numeric column (relative to
the larger magnitude of the two cells). For each JSON file that differs it
prints whether the leaf paths and the non-numeric leaves match, and, per
differing numeric path with its list indices dropped, the number of
differing leaves and their largest absolute and relative difference. It
exits 1 on any
difference or missing file, and 2 when ``OUTDIR`` or ``OUTDIR.against``
already exists (stale files would enter the comparison).

With ``--time``, ``ptchain --help`` and each preset (default format) run
instead in a fresh interpreter each, ``TIME_REPEATS`` times. One line per
command gives the least wall time around the child process, which includes
interpreter start-up and imports as a user's shell sees them, the largest
peak resident set size of the child processes (their own ``ru_maxrss``, in
MB of 1024 KiB as ``perfbench`` counts them), and the public SciPy
subpackages in ``sys.modules`` when ``main`` returned (``-`` for none). To
compare two checkouts, run it on each.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import filecmp
import io
import json
import math
import os
import re
import subprocess
import sys
import time

TIME_REPEATS = 5

_TIMED_CHILD = """
import contextlib, io, resource, sys
from ptchain.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:  # --help leaves through argparse
        code = exc.code
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, " ".join(sorted(
    name for name, module in list(sys.modules.items())
    if name.count(".") == 1 and name.startswith("scipy.")
    and not name.split(".")[1].startswith("_") and hasattr(module, "__path__")
)) or "-", file=sys.stderr)
sys.exit(code)
"""


def write_presets(src: str, outdir: str) -> int:
    sys.path.insert(0, os.path.abspath(src))
    from ptchain.cli import main as cli_main
    from ptchain.presets import get_preset, preset_names

    os.makedirs(outdir, exist_ok=True)
    for name in preset_names():
        formats = ("csv",) if get_preset(name)["mode"] == "evolve" else ("csv", "json")
        for fmt in formats:
            argv_cli = ["figure", "--preset", name, "--format", fmt,
                        "--out", os.path.join(outdir, name)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv_cli)
            if code != 0:
                print(f"{name} ({fmt}) exited {code}", file=sys.stderr)
                return code
    print(f"wrote {len(os.listdir(outdir))} files -> {outdir}")
    return 0


def time_presets(src: str, outdir: str) -> int:
    sys.path.insert(0, os.path.abspath(src))
    from ptchain.presets import preset_names

    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    os.makedirs(outdir, exist_ok=True)
    print("command\tmin s\tpeak MB\tscipy")
    for name in ["--help", *preset_names()]:
        argv_cli = [name] if name == "--help" else [
            "figure", "--preset", name, "--out", os.path.join(outdir, name)]
        times, peaks, loaded = [], [], set()
        for _ in range(TIME_REPEATS):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", _TIMED_CHILD, *argv_cli],
                                  env=env, capture_output=True, text=True)
            times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(f"{name} exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return proc.returncode
            maxrss_kib, modules = proc.stderr.strip().splitlines()[-1].split(" ", 1)
            peaks.append(int(maxrss_kib) / 1024.0)
            loaded.add(modules)
        print(f"{name}\t{min(times):.3f}\t{max(peaks):.1f}\t{' | '.join(sorted(loaded))}",
              flush=True)
    return 0


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _difference(x: float, y: float) -> tuple[float, float]:
    """Absolute and relative (to the larger magnitude) difference of two numbers."""
    d = 0.0 if x == y or (math.isnan(x) and math.isnan(y)) else abs(x - y)
    return d, d / max(abs(x), abs(y)) if d else 0.0


def _csv_summary(left: str, right: str) -> list[str]:
    """How two CSV files differ: structure, non-numeric cells, numeric columns."""
    tables = []
    for path in (left, right):
        with open(path, newline="") as fh:
            tables.append(list(csv.reader(fh)) or [[]])
    (head_a, *rows_a), (head_b, *rows_b) = tables
    text_same, worst, worst_rel = True, {}, {}
    for row_a, row_b in zip(rows_a, rows_b):
        if len(row_a) != len(row_b):
            text_same = False
        for col, (a, b) in enumerate(zip(row_a, row_b)):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                text_same = text_same and a == b
            else:
                d, rel = _difference(x, y)
                worst[col] = max(worst.get(col, 0.0), d)
                worst_rel[col] = max(worst_rel.get(col, 0.0), rel)
    same = {True: "same", False: "DIFFER"}

    def per_column(table: dict[int, float]) -> str:
        return ", ".join(f"{head_b[col] if col < len(head_b) else col} {d:.3g}"
                         for col, d in sorted(table.items()))

    return [
        f"  headers {same[head_a == head_b]}, rows {len(rows_a)} vs {len(rows_b)},"
        f" non-numeric cells {same[text_same]}",
        f"  largest |difference| per column: {per_column(worst)}",
        f"  largest relative difference per column: {per_column(worst_rel)}",
    ]


def _flatten(node, path: str = "") -> dict[str, object]:
    """The leaves of a JSON document by path, list indices written ``[i]``."""
    if isinstance(node, dict):
        items = ((f"{path}.{key}" if path else key, value) for key, value in node.items())
    elif isinstance(node, list):
        items = ((f"{path}[{i}]", value) for i, value in enumerate(node))
    else:
        return {path: node}
    return {leaf: value for key, child in items for leaf, value in _flatten(child, key).items()}


def _json_number(value: object) -> float | None:
    return None if isinstance(value, bool) or not isinstance(value, (int, float)) else float(value)


def _json_summary(left: str, right: str) -> list[str]:
    """How two JSON files differ: paths, non-numeric leaves, numeric leaves.

    Numeric differences are grouped by path with the list indices dropped
    (``rows[].transmission``), each group with its count of differing leaves
    and its largest absolute and relative difference.
    """
    leaves = []
    for path in (left, right):
        with open(path) as fh:
            leaves.append(_flatten(json.load(fh)))
    a, b = leaves
    text_same, groups = True, {}
    for path in a.keys() & b.keys():
        x, y = _json_number(a[path]), _json_number(b[path])
        if x is None or y is None:
            text_same = text_same and a[path] == b[path]
            continue
        d, rel = _difference(x, y)
        if d:
            group = re.sub(r"\[\d+\]", "[]", path)
            count, worst, worst_rel = groups.get(group, (0, 0.0, 0.0))
            groups[group] = (count + 1, max(worst, d), max(worst_rel, rel))
    same = {True: "same", False: "DIFFER"}
    lines = [f"  paths {same[a.keys() == b.keys()]} ({len(a)} vs {len(b)} leaves),"
             f" non-numeric leaves {same[text_same]}"]
    lines += [f"  {path}: {count} differ, largest |difference| {worst:.3g},"
              f" relative {worst_rel:.3g}"
              for path, (count, worst, worst_rel) in sorted(groups.items())]
    return lines


def _differences(cmp: filecmp.dircmp, prefix: str = "") -> list[str]:
    """Files that differ in content or exist on one side only, recursively."""
    found = [f"only in {side}: {prefix}{name}"
             for side, names in (("against", cmp.left_only), ("src", cmp.right_only))
             for name in names]
    _, mismatch, errors = filecmp.cmpfiles(cmp.left, cmp.right, cmp.common_files, shallow=False)
    found += [f"differs: {prefix}{name}" for name in mismatch + errors]
    for name, sub in cmp.subdirs.items():
        found += _differences(sub, f"{prefix}{name}/")
    return found


def compare(src: str, outdir: str, against: str) -> int:
    aside = outdir.rstrip(os.sep) + ".against"
    for path in (outdir, aside):
        if os.path.exists(path):
            print(f"{path} exists; remove it or pick another OUTDIR", file=sys.stderr)
            return 2
    def run(checkout: str) -> int:
        # its own interpreter: both checkouts import the name ptchain
        return subprocess.call([sys.executable, os.path.abspath(__file__), checkout, outdir])

    code = run(against)
    if code != 0:
        return code
    os.rename(outdir, aside)
    code = run(src)
    if code != 0:
        return code
    diffs = _differences(filecmp.dircmp(aside, outdir))
    for line in diffs:
        print(line)
        name = line.removeprefix("differs: ")
        summary = {".csv": _csv_summary, ".json": _json_summary}.get(os.path.splitext(name)[1])
        if name != line and summary:
            for detail in summary(os.path.join(aside, name), os.path.join(outdir, name)):
                print(detail)
    count = sum(len(files) for _, _, files in os.walk(outdir))
    print(f"{len(diffs)} differences in {count} files ({aside} vs {outdir})")
    return 1 if diffs else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        epilog="See the module docstring for the comparison and timing modes.")
    parser.add_argument("src", help="src directory of the checkout to run")
    parser.add_argument("outdir", help="directory receiving the preset files")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--against", metavar="OTHER_SRC",
                      help="src directory of a second checkout to compare against")
    mode.add_argument("--time", action="store_true",
                      help="time --help and each preset in fresh interpreters instead")
    args = parser.parse_args(argv)
    if args.time:
        return time_presets(args.src, args.outdir)
    if args.against:
        return compare(args.src, args.outdir, args.against)
    return write_presets(args.src, args.outdir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
