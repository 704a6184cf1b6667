"""Numeric summaries of the figure presets' output files, and their comparison.

The committed reference (``reference/paper_figures.json``) holds, per output
file, the CSV header and row count and each column's sum, absolute sum, extremes and nine
evenly spaced samples, or the value counts of a text column; and each JSON
scalar by path. Comparison is by tolerance, not by hash: the dense
eigensolver's last digits depend on the BLAS thread count. The fields
``schema_version``, ``near_defective`` and ``condition_estimate`` are not
compared.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path
from typing import Any

REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "paper_figures.json"

#: Relative tolerance of every numeric comparison (against the larger of the
#: value and its column's scale).
RTOL = 1e-9
SKIPPED_FIELDS = frozenset({"schema_version", "near_defective", "condition_estimate"})
_SAMPLES = 9


def load_reference() -> dict[str, Any]:
    return json.loads(REFERENCE_FILE.read_text())


def _number(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _summarize_csv(path: Path) -> dict[str, Any]:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *body = list(csv.reader(fh))
    columns: dict[str, Any] = {}
    for i, name in enumerate(header):
        cells = [row[i] for row in body]
        try:
            values = [_number(c) for c in cells]
        except ValueError:
            columns[name] = {"counts": dict(sorted(Counter(cells).items()))}
            continue
        present = [v for v in values if v is not None]
        picks = sorted({round(j * (len(values) - 1) / (_SAMPLES - 1)) for j in range(_SAMPLES)}) if values else []
        columns[name] = {
            "empty": len(values) - len(present),
            "sum": math.fsum(present),
            "abs_sum": math.fsum(abs(v) for v in present),
            "min": min(present, default=None),
            "max": max(present, default=None),
            "samples": [values[j] for j in picks],
        }
    return {"header": header, "rows": len(body), "columns": columns}


def _flatten(value: Any, path: str, out: dict[str, Any]) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            if key not in SKIPPED_FIELDS:
                _flatten(item, f"{path}/{key}", out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{path}/{i}", out)
    elif path.endswith("/file"):
        out[path] = Path(value).name  # written paths differ by output directory
    else:
        out[path] = value


def summarize_outputs(workdir: Path, stem: str) -> dict[str, Any]:
    """Summaries of every file a preset wrote under ``workdir/stem*``."""
    summary: dict[str, Any] = {}
    for path in sorted(workdir.glob(stem + "*")):
        if path.suffix == ".csv":
            summary[path.name] = _summarize_csv(path)
        elif path.suffix == ".json":
            flat: dict[str, Any] = {}
            _flatten(json.loads(path.read_text()), "", flat)
            summary[path.name] = {"fields": flat}
    return summary


def _differs(got: Any, want: Any, scale: float) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return not abs(got - want) <= RTOL * max(abs(want), scale)
    return got != want


def _compare_csv(got: dict[str, Any], want: dict[str, Any]) -> str | None:
    if got["rows"] != want["rows"] or got["header"] != want["header"]:
        return f"{got['rows']} rows of {got['header']}, expected {want['rows']} of {want['header']}"
    for name, ref in want["columns"].items():
        col = got["columns"][name]
        if "counts" in ref:
            if col != ref:
                return f"column {name}: values {col} != {ref}"
            continue
        scale = max(abs(ref["min"] or 0.0), abs(ref["max"] or 0.0))
        for key in ("empty", "min", "max"):
            if _differs(col.get(key), ref[key], scale):
                return f"column {name}: {key} {col.get(key)!r} != {ref[key]!r}"
        for key in ("sum", "abs_sum"):
            if _differs(col.get(key), ref[key], ref["abs_sum"]):
                return f"column {name}: {key} {col.get(key)!r} != {ref[key]!r}"
        if len(col.get("samples", [])) != len(ref["samples"]) or any(
            _differs(a, b, scale) for a, b in zip(col["samples"], ref["samples"])
        ):
            return f"column {name}: samples {col.get('samples')} != {ref['samples']}"
    return None


def compare_outputs(workdir: Path, stem: str, reference: dict[str, Any]) -> str | None:
    """``None`` when the files match ``reference``, else the first difference."""
    got = summarize_outputs(workdir, stem)
    if sorted(got) != sorted(reference):
        return f"wrote {sorted(got)}, expected {sorted(reference)}"
    for name, want in reference.items():
        if "columns" in want:
            problem = _compare_csv(got[name], want)
        else:
            fields, ref = got[name]["fields"], want["fields"]
            problem = None
            if sorted(fields) != sorted(ref):
                problem = f"fields {sorted(fields)} != {sorted(ref)}"
            else:
                bad = [k for k in ref if _differs(fields[k], ref[k], 0.0)]
                if bad:
                    problem = f"field {bad[0]}: {fields[bad[0]]!r} != {ref[bad[0]]!r}"
        if problem:
            return f"{name}: {problem}"
    return None
