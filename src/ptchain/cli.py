"""Command-line interface.

Subcommands
-----------
scatter     stationary transmission/reflection over a k or energy sweep
poles       complex-k pole census of the scattering denominator
threshold   gain/loss onset thresholds vs chain size
trajectory  pole trajectories over an ascending gamma sweep
evolve      wave-packet propagation snapshots and intensity bookkeeping
relevance   physicality verdict and special scattering points
figure      canned parameter presets (fig2a..fig8) for the above

Each subcommand and preset mode is one runner ``runner(fmt, out, **params)``
in ``_RUNNERS``. A subcommand passes the options it was given (under their
``dest`` names), a preset its entries in :mod:`ptchain.presets`.

Exit status: 0 success, 2 bad usage, out-of-range parameters or an output
file that cannot be written, 3 numerical failure (missed roots,
non-convergence, eigendecomposition failure, ...).

Output is deterministic: identical inputs produce byte-identical files.
Floats are written with 17 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Any, Sequence

import numpy as np

from .dynamics import (
    LatticeLayout,
    build_hamiltonian,
    gaussian_packet,
    growth_rate_fit,
    intensity_split,
    prepare_propagator,
    evolve as evolve_state,
    validity_horizon,
)
from .errors import (
    InsufficientGrowth,
    NumericalFailure,
    OutOfRange,
    SpectralSingularityError,
)
from .model import ChainSpec, energy_to_wavenumber
from .poles import (
    SearchRegion,
    critical_size,
    find_poles,
    threshold_ladder,
    trace_trajectories,
)
from .presets import get_preset, preset_names
from .relevance import (
    RelevanceRegime,
    band_edge_points,
    cpa_laser_points,
    fabry_perot_points,
    transmission_vs_size,
    verdict,
)
from .scattering import scatter, transmission_closed_form

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


#==== formatting and file helpers ===========================================

def _fmt(value: Any) -> str:
    """One CSV cell. Floats use 17 significant digits; None is empty."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _write_json(path: str, payload: dict[str, Any]) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=True)
        fh.write("\n")


def _stem(path: str) -> str:
    """``path`` without a trailing ``.csv`` or ``.json``: the base of side files."""
    return path.rsplit(".", 1)[0] if path.endswith((".csv", ".json")) else path


def _emit(
    fmt: str,
    out: str,
    header: Sequence[str],
    rows: Sequence[Sequence[Any]],
    key: str = "rows",
    json_only: Sequence[str] = (),
    side: tuple[str, Sequence[str], Sequence[Sequence[Any]]] | None = None,
    **fields: Any,
) -> None:
    """Write a table and report it on stdout.

    CSV gets the columns ``header``; JSON gets ``fields`` plus, under ``key``,
    one object per row. ``json_only`` names trailing row cells that only the
    JSON objects carry. ``side`` is an optional second table ``(key, header,
    rows)``: JSON carries it under its key, CSV writes it to
    ``<stem>_<key>.csv``.
    """
    if fmt == "json":
        names = (*header, *json_only)
        payload = {**fields, key: [dict(zip(names, row)) for row in rows]}
        if side is not None:
            payload[side[0]] = [dict(zip(side[1], row)) for row in side[2]]
        _write_json(out, payload)
    else:
        _write_csv(out, header, [row[: len(header)] for row in rows])
    print(f"wrote {len(rows)} {key} -> {out}")
    if side is not None:
        side_key, side_header, side_rows = side
        side_out = out
        if fmt == "csv":
            side_out = f"{_stem(out)}_{side_key}.csv"
            _write_csv(side_out, side_header, side_rows)
        print(f"wrote {len(side_rows)} {side_key} -> {side_out}")


def _finite_or_none(x: float) -> float | None:
    return float(x) if math.isfinite(x) else None


def _parse_region(text: str | None) -> SearchRegion | None:
    if text is None:
        return None
    try:
        a, b, c, d = (float(p) for p in text.split(","))
    except ValueError:
        raise OutOfRange(
            f"--region wants four numbers 're_min,re_max,im_min,im_max', got {text!r}"
        ) from None
    return SearchRegion(a, b, c, d)


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    if steps < 1:
        raise OutOfRange(f"steps must be >= 1, got {steps}")
    if not lo < hi:
        raise OutOfRange(f"need min < max, got {lo!r} >= {hi!r}")
    return [lo + (hi - lo) * i / steps for i in range(steps + 1)]


#==== runners: one per subcommand and preset mode ===========================

_SCATTER_HEADER = (
    "energy",
    "k",
    "transmission",
    "reflection_left",
    "reflection_right",
    "physical",
    "singular",
)


def _run_scatter(
    fmt: str, out: str, n_cells: int, gamma: float, k: float | None = None,
    e_min: float = -1.99, e_max: float = 1.99, steps: int = 400,
    k_min: float | None = None, k_max: float | None = None,
) -> int:
    """One ``k``, a ``k`` sweep (presets only) or an energy sweep."""
    spec = ChainSpec(n_cells, gamma)
    if k is not None:
        if not 0.0 < k < math.pi:
            raise OutOfRange(f"--k must lie in (0, pi), got {k!r}")
        ks = [k]
    elif k_min is not None:
        ks = _grid(k_min, k_max, steps)
    else:
        if not (-2.0 < e_min < e_max < 2.0):
            raise OutOfRange(
                f"energy sweep must satisfy -2 < e_min < e_max < 2, got {e_min!r}, {e_max!r}"
            )
        ks = [energy_to_wavenumber(e) for e in _grid(e_min, e_max, steps)]
    physical = verdict(spec).regime is RelevanceRegime.RELEVANT
    rows: list[list[Any]] = []
    for kv in ks:
        energy = -2.0 * math.cos(kv)
        try:
            res = scatter(spec, kv)
            rows.append([energy, kv, res.T, res.R_left, res.R_right, physical, False])
        except SpectralSingularityError:
            rows.append([energy, kv, None, None, None, physical, True])
    _emit(fmt, out, _SCATTER_HEADER, rows,
          n_cells=spec.n_cells, gamma=spec.gamma, physical=physical)
    return EXIT_OK


_POLES_HEADER = (
    "k_re",
    "k_im",
    "energy_re",
    "energy_im",
    "growth_rate",
    "classification",
    "residual",
)


def _run_poles(
    fmt: str, out: str, n_cells: int, gamma: float, region: str | None = None
) -> int:
    spec = ChainSpec(n_cells, gamma)
    records = find_poles(spec, _parse_region(region))
    rows = [
        [r.k.re, r.k.im, r.energy.real, r.energy.imag, r.growth_rate,
         r.classification.value, r.residual]
        for r in records
    ]
    _emit(fmt, out, _POLES_HEADER, rows, key="poles",
          n_cells=spec.n_cells, gamma=spec.gamma, count=len(rows))
    return EXIT_OK


_THRESHOLD_HEADER = ("n_cells", "gamma_critical", "asymptote_ratio")


def _run_threshold(
    fmt: str, out: str, n_cells: int | None = None, n_min: int | None = None,
    n_max: int | None = None,
) -> int:
    if n_cells is not None:
        if n_min is not None or n_max is not None:
            raise OutOfRange("give either --n or --n-min/--n-max, not both")
        ns: Sequence[int] = [n_cells]
    elif n_min is not None and n_max is not None:
        if not 1 <= n_min <= n_max:
            raise OutOfRange(f"need 1 <= n_min <= n_max, got {n_min}, {n_max}")
        ns = range(n_min, n_max + 1)
    else:
        raise OutOfRange("threshold needs --n or both --n-min and --n-max")
    rows: list[list[Any]] = []
    for n in ns:
        ladder = threshold_ladder(n)
        # gamma_c ~ pi/(2N) for large N; the ratio tends to 1 from below
        ratio = ladder.gamma_critical * 2 * n / math.pi
        rows.append([n, ladder.gamma_critical, ratio, list(ladder.gamma_values)])
    _emit(fmt, out, _THRESHOLD_HEADER, rows, json_only=("ladder",))
    return EXIT_OK


_TRAJECTORY_HEADER = ("branch_id", "gamma", "k_re", "k_im", "classification", "lost")
_CROSSING_HEADER = ("branch_id", "gamma", "k_re", "k_im")


def _run_trajectory(
    fmt: str, out: str, n_cells: int, gamma_max: float, gamma_min: float = 0.0,
    steps: int = 200, region: str | None = None,
) -> int:
    spec_base = ChainSpec(n_cells, 0.0)
    traj = trace_trajectories(
        spec_base, gamma_min, gamma_max, steps,
        region=_parse_region(region), strict=False,
    )

    rows: list[list[Any]] = []
    recorded = 0
    lost_remaining = 0
    for branch in traj.branches:
        recorded += len(branch.points)
        for i, (g, rec) in enumerate(branch.points):
            is_last = i == len(branch.points) - 1
            rows.append([branch.branch_id, g, rec.k.re, rec.k.im,
                         rec.classification.value, branch.lost and is_last])
        if branch.lost and branch.points:
            g_last = branch.points[-1][0]
            trailing = sum(1 for g in traj.gamma_samples if g > g_last)
            lost_remaining += trailing
    cross_rows = [
        [c.branch_id, c.gamma, c.k.real, c.k.imag] for c in traj.crossings
    ]
    _emit(fmt, out, _TRAJECTORY_HEADER, rows, key="branches",
          side=("crossings", _CROSSING_HEADER, cross_rows),
          n_cells=spec_base.n_cells, gamma_min=gamma_min, gamma_max=gamma_max,
          samples=len(traj.gamma_samples))

    total = recorded + lost_remaining
    traced = recorded / total if total else 1.0
    if traced < 0.9:
        print(
            f"error: branches were lost: {recorded} branch points recorded against "
            f"{lost_remaining} gamma samples missing after lost branches "
            f"({100 * traced:.1f}% recorded)",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


def _run_evolve(
    fmt: str, out: str, n_cells: int, gamma: float, total_sites: int = 1200,
    j0: int = -300, sigma: float = 60.0, k0: float = 0.5 * math.pi,
    times: Sequence[float] = (0.0, 60.0, 150.0, 225.0, 300.0),
) -> int:
    """Snapshots ``<stem>_t<T>.csv`` and the summary ``<stem>.json``; ``fmt`` is unused."""
    spec = ChainSpec(n_cells, gamma)
    if not 0.0 < k0 < math.pi:
        raise OutOfRange(f"--k0 must lie in (0, pi), got {k0!r}")
    if not 0.0 < sigma < math.inf:
        raise OutOfRange(f"--sigma must be positive and finite, got {sigma!r}")
    if not all(0.0 <= t < math.inf for t in times):
        raise OutOfRange(f"--times must be finite and nonnegative, got {times!r}")
    out_stem = _stem(out)
    layout = LatticeLayout.centered(total_sites, spec.n_cells)
    h = build_hamiltonian(layout, spec)
    psi0 = gaussian_packet(layout, j0, sigma, k0)
    horizon = validity_horizon(layout, j0, k0)
    late = [t for t in times if t > horizon]
    if late:
        print(
            f"warning: times {sorted(late)} exceed the validity horizon "
            f"{horizon:.1f}; boundary reflections may contaminate them",
            file=sys.stderr,
        )

    bundle = prepare_propagator(h)
    offsets = layout.site_offsets()
    snapshots = []
    series: list[tuple[float, float]] = []
    for t in sorted(set(float(t) for t in times)):
        state = evolve_state(bundle, psi0, t)
        split = intensity_split(state, layout)
        snap_path = f"{out_stem}_t{t:g}.csv"
        density = np.abs(state.amplitudes) ** 2
        _write_csv(snap_path, ("site", "intensity"), list(zip(offsets, density)))
        snapshots.append(
            {
                "time": t,
                "file": snap_path,
                "reflected": split.reflected,
                "central": split.central,
                "transmitted": split.transmitted,
                "total": split.total,
            }
        )
        series.append((t, split.total))
        print(f"t={t:g}: wrote {snap_path} (total intensity {split.total:.6g})")

    growth: float | None = None
    if verdict(spec).regime is RelevanceRegime.UNPHYSICAL and len(series) >= 2:
        try:
            growth = growth_rate_fit(series, min_decades=1.0)
        except InsufficientGrowth as exc:
            print(f"warning: growth fit skipped: {exc}", file=sys.stderr)

    summary = {
        "n_cells": spec.n_cells,
        "gamma": spec.gamma,
        "total_sites": total_sites,
        "j0": j0,
        "sigma": sigma,
        "k0": k0,
        "validity_horizon": _finite_or_none(horizon),
        "near_defective": bool(bundle.near_defective),
        "condition_estimate": _finite_or_none(bundle.condition_estimate),
        "amplitude_growth_rate": growth,
        "snapshots": snapshots,
    }
    summary_path = f"{out_stem}.json"
    _write_json(summary_path, summary)
    print(f"wrote summary -> {summary_path}")
    return EXIT_OK


_SPECIAL_HEADER = ("kind", "energy", "k", "gamma", "n_index", "physical")

_VERDICT_HEADER = (
    "n_cells",
    "gamma",
    "regime",
    "gamma_critical",
    "margin",
    "tgbs_count",
    "critical_size",
)


def _run_relevance(
    fmt: str, out: str, n_cells: int, gamma: float, special_points: bool = False
) -> int:
    spec = ChainSpec(n_cells, gamma)
    v = verdict(spec)
    n_c = critical_size(spec.gamma) if spec.gamma > 0 else None
    print(
        f"N={spec.n_cells} gamma={spec.gamma:g}: {v.regime.value} "
        f"(gamma_c={v.gamma_critical:.6g}, margin={v.margin:.6g}, "
        f"growing states: {v.tgbs_count})"
    )
    verdict_row = [
        spec.n_cells, spec.gamma, v.regime.value,
        v.gamma_critical, v.margin, v.tgbs_count, n_c,
    ]
    rows = None
    if special_points:
        points = band_edge_points(spec) if 0.0 < spec.gamma < 2.0 else []
        points += fabry_perot_points(spec) + cpa_laser_points(spec.n_cells)
        rows = [[p.kind.value, p.energy, p.k, p.gamma, p.n_index, p.physical] for p in points]
    if fmt == "csv":
        _write_csv(out, _VERDICT_HEADER, [verdict_row])
        if rows is not None:
            points_path = f"{_stem(out)}_points.csv"
            _write_csv(points_path, _SPECIAL_HEADER, rows)
            print(f"wrote {len(rows)} special points -> {points_path}")
    else:
        payload = dict(zip(_VERDICT_HEADER, verdict_row))
        if rows is not None:
            payload["special_points"] = [dict(zip(_SPECIAL_HEADER, row)) for row in rows]
            print(f"listing {len(rows)} special points")
        _write_json(out, payload)
    print(f"wrote verdict -> {out}")
    return EXIT_OK


def _run_size_scan(
    fmt: str, out: str, gamma: float, energies: Sequence[float], n_max: int
) -> int:
    header = ("energy", "n_cells", "transmission", "regime", "physical")
    rows: list[list[Any]] = []
    curves = []
    for e in energies:
        scan = transmission_vs_size(gamma, e, n_max)
        for r in scan.rows:
            rows.append([e, r.n_cells, r.transmission, r.regime.value, r.physical])
        curves.append(
            {
                "energy": e,
                "quasiperiod": scan.quasiperiod,
                "log_slope": scan.log_slope,
            }
        )
    _emit(fmt, out, header, rows, gamma=gamma, n_max=n_max, curves=curves)
    return EXIT_OK


def _run_gamma_scan(
    fmt: str, out: str, n_cells: int, k: float, gamma_min: float, gamma_max: float,
    steps: int,
) -> int:
    header = ("gamma", "transmission", "physical", "singular")
    rows: list[list[Any]] = []
    for g in _grid(gamma_min, gamma_max, steps):
        spec = ChainSpec(n_cells, g)
        try:
            t_val: float | None = transmission_closed_form(spec, k)
            singular = False
        except SpectralSingularityError:
            t_val, singular = None, True
        physical = verdict(spec).regime is RelevanceRegime.RELEVANT
        rows.append([g, t_val, physical, singular])
    _emit(fmt, out, header, rows, n_cells=n_cells, k=k)
    return EXIT_OK


_RUNNERS = {
    "scatter": _run_scatter,
    "poles": _run_poles,
    "threshold": _run_threshold,
    "trajectory": _run_trajectory,
    "evolve": _run_evolve,
    "relevance": _run_relevance,
    "size_scan": _run_size_scan,
    "gamma_scan": _run_gamma_scan,
}


#==== parser ================================================================

def build_parser() -> argparse.ArgumentParser:
    """Options are named after their runner's keywords; defaults live there."""
    parser = argparse.ArgumentParser(
        prog="ptchain",
        description=(
            "Scattering coefficients, pole structure, onset thresholds, and "
            "wave-packet dynamics of finite gain/loss-balanced periodic chains."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp: argparse.ArgumentParser, default_fmt: str = "csv") -> None:
        sp.add_argument(
            "--format", choices=("csv", "json"), default=default_fmt,
            help=f"output format (default: {default_fmt})",
        )
        sp.add_argument("--out", help="output path (default: ./ptchain_<command>.<ext>)")

    def add_chain(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--n", dest="n_cells", metavar="N", type=int, required=True,
            help="number of unit cells",
        )
        sp.add_argument("--gamma", type=float, required=True, help="gain/loss strength")

    p = sub.add_parser("scatter", help="transmission/reflection sweep")
    add_chain(p)
    p.add_argument("--e-min", type=float, help="sweep start energy (default -1.99)")
    p.add_argument("--e-max", type=float, help="sweep end energy (default 1.99)")
    p.add_argument("--steps", type=int, help="sweep intervals (default 400)")
    p.add_argument("--k", type=float, help="single wavenumber in (0, pi) instead of a sweep")
    add_io(p)

    p = sub.add_parser("poles", help="complex-k pole census")
    add_chain(p)
    p.add_argument(
        "--region", help="search window 're_min,re_max,im_min,im_max' (default full strip)"
    )
    add_io(p)

    p = sub.add_parser("threshold", help="onset thresholds vs chain size")
    p.add_argument("--n", dest="n_cells", metavar="N", type=int, help="single chain size")
    p.add_argument("--n-min", type=int, help="start of a size range")
    p.add_argument("--n-max", type=int, help="end of a size range (inclusive)")
    add_io(p)

    p = sub.add_parser("trajectory", help="pole trajectories over a gamma sweep")
    p.add_argument(
        "--n", dest="n_cells", metavar="N", type=int, required=True,
        help="number of unit cells",
    )
    p.add_argument("--gamma-min", type=float)
    p.add_argument("--gamma-max", type=float, required=True)
    p.add_argument("--steps", type=int, help="sweep intervals (default 200)")
    p.add_argument("--region", help="tracking window 're_min,re_max,im_min,im_max'")
    add_io(p)

    p = sub.add_parser("evolve", help="wave-packet propagation snapshots")
    add_chain(p)
    p.add_argument(
        "--l", dest="total_sites", metavar="L", type=int,
        help="total lattice sites (default 1200)",
    )
    p.add_argument(
        "--j0", type=int, help="packet center, relative to the first gain site (default -300)",
    )
    p.add_argument("--sigma", type=float, help="packet width (default 60)")
    p.add_argument("--k0", type=float, help="carrier wavenumber in (0, pi) (default pi/2)")
    p.add_argument(
        "--times", type=_csv_floats,
        help="comma-separated snapshot times (default 0,60,150,225,300)",
    )
    p.add_argument("--out", help="output stem (default ./ptchain_evolve)")

    p = sub.add_parser("relevance", help="physicality verdict and special points")
    add_chain(p)
    p.add_argument(
        "--special-points", action="store_true",
        help="append band-edge/Fabry-Perot/CPA-laser listings",
    )
    add_io(p, default_fmt="json")

    p = sub.add_parser("figure", help="run a canned preset")
    p.add_argument(
        "--preset", required=True, choices=preset_names(),
        help="preset name (fig2a..fig2i, fig3, fig4, fig5a..fig5f, fig6, fig7a, fig7b, fig8)",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output stem (default ./ptchain_<preset>)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    params = {name: value for name, value in vars(args).items() if value is not None}
    mode = params.pop("command")
    fmt = params.pop("format", "csv")
    out = params.pop("out", None)
    if mode == "figure":
        # a preset is its mode's runner called with the preset's parameters
        name = params.pop("preset")
        params = get_preset(name)
        mode = params.pop("mode")
        out = f"{_stem(out or f'ptchain_{name}')}.{fmt}"
    try:
        return _RUNNERS[mode](fmt, out or f"ptchain_{mode}.{fmt}", **params)
    except (OutOfRange, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalFailure as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
