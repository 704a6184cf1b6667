"""Regenerate ``reference/paper_figures.json`` from the package in ``src/``.

Run from the root of a checkout, only when a change to the figure outputs is
intended and reviewed::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (sets the BLAS cap before numpy loads)


def main() -> int:
    run.limit_blas_threads()
    run.use_checkout_source()
    from perfbench import reference, workloads

    run.WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK_ROOT))
    try:
        summaries = {}
        for op in workloads.build("paper_figures", 0, workdir, {}):
            status = op.run()
            if status != 0:
                print(f"preset {op.label} exited with {status}", file=sys.stderr)
                return 1
            summaries[op.label] = reference.summarize_outputs(workdir, op.label)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        run.WORK_ROOT.rmdir()
    reference.REFERENCE_FILE.parent.mkdir(exist_ok=True)
    reference.REFERENCE_FILE.write_text(json.dumps(dict(sorted(summaries.items())), indent=1, sort_keys=True) + "\n")
    print(f"wrote {reference.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
