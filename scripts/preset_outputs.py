"""Write every ``ptchain figure`` preset in both formats, for a byte-identity gate.

Usage::

    python scripts/preset_outputs.py SRC OUTDIR

``SRC`` is the ``src`` directory of the checkout to run (its ``ptchain``
package is imported, not the installed one); ``OUTDIR`` receives
``<preset>.csv`` and ``<preset>.json`` for each preset. Evolve presets write
the same snapshot files in either format, so they run once.

The evolve summaries record their snapshot paths, so to compare two
checkouts, run both to the same ``OUTDIR``, moving the first run's files
aside in between, then ``diff -r`` the two trees.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, outdir = argv
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


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
