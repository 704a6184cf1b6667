"""Spans around the package's public functions, recorded from outside.

:func:`traced` rebinds every name under which a listed function is reachable
in ``ptchain`` and its submodules (``from .poles import find_poles`` makes a
second binding in ``cli``) to a wrapper that records one :class:`Span` per
call, and restores the original bindings on exit. Nothing in the package
changes. Spans stay in memory; :func:`layer_metrics` reduces them to the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

#: Functions wrapped per layer. Inner helpers called in tight loops
#: (``chebyshev_tu``, ``pole_residual``) are left out: a span there would
#: cost more than the work it measures.
LAYER_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "scattering": ("scatter", "transmission_closed_form"),
    "poles": (
        "find_poles",
        "trace_trajectories",
        "tgbs_count",
        "threshold_ladder",
        "critical_size",
    ),
    "dynamics": (
        "build_hamiltonian",
        "gaussian_packet",
        "prepare_propagator",
        "evolve",
        "intensity_split",
        "growth_rate_fit",
        "validity_horizon",
    ),
    "relevance": (
        "verdict",
        "band_edge_points",
        "fabry_perot_points",
        "cpa_laser_points",
        "transmission_vs_size",
    ),
    "cli": ("main",),
}

_MB = 1024.0 * 1024.0


def _rss_bytes() -> int:
    """Current resident set size of this process."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            pages = int(fh.read().split()[1])
        return pages * resource.getpagesize()
    except OSError:  # no procfs: fall back to the peak, which makes deltas 0
        return _peak_rss_bytes()


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start_ns: int = 0
    end_ns: int = 0
    child_ns: int = 0
    error: str | None = None
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9

    @property
    def self_seconds(self) -> float:
        return (self.end_ns - self.start_ns - self.child_ns) * 1e-9


# --------------------------------------------------------------------------
# what each span records besides its duration
# --------------------------------------------------------------------------

def _before_prepare(args, kwargs) -> int:
    return _rss_bytes()


def _after_prepare(args, kwargs, result, rss_before) -> dict[str, Any]:
    return {
        "rss_delta_mb": (_peak_rss_bytes() - rss_before) / _MB,
        "near_defective": bool(result.near_defective),
    }


def _after_scatter(args, kwargs, result, _) -> dict[str, Any]:
    spec = args[0] if args else kwargs["spec"]
    return {"n_cells": spec.n_cells}


def _after_find_poles(args, kwargs, result, _) -> dict[str, Any]:
    return {"poles": len(result)}


def _after_trajectories(args, kwargs, result, _) -> dict[str, Any]:
    return {
        "branches": len(result.branches),
        "crossings": len(result.crossings),
        "lost": sum(1 for b in result.branches if b.lost),
    }


def _after_cli_main(args, kwargs, result, _) -> dict[str, Any]:
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" not in argv:
        return {"bytes": 0}
    stem = Path(argv[argv.index("--out") + 1])
    written = sum(p.stat().st_size for p in stem.parent.glob(stem.name + "*") if p.is_file())
    return {"bytes": written}


_HOOKS: dict[str, tuple[Callable | None, Callable | None]] = {
    "dynamics.prepare_propagator": (_before_prepare, _after_prepare),
    "scattering.scatter": (None, _after_scatter),
    "poles.find_poles": (None, _after_find_poles),
    "poles.trace_trajectories": (None, _after_trajectories),
    "cli.main": (None, _after_cli_main),
}


class Tracer:
    """Collects spans; one tracer per traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent)
            state = before(args, kwargs) if before else None
            self._stack.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
                if parent is not None:
                    parent.child_ns += span.end_ns - span.start_ns
                self.spans.append(span)
            if after:
                span.info = after(args, kwargs, result, state)
            return result

        return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Route every binding of the listed functions through ``tracer``."""
    wrappers: dict[int, Callable] = {}
    for layer, names in LAYER_FUNCTIONS.items():
        home = importlib.import_module(f"ptchain.{layer}")
        for name in names:
            fn = getattr(home, name)
            wrappers[id(fn)] = tracer.wrap(f"{layer}.{name}", fn)
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "ptchain"]
    patched: list[tuple[Any, str, Callable]] = []
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        yield tracer
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)


# --------------------------------------------------------------------------
# reduction to per-layer metrics
# --------------------------------------------------------------------------

def layer_metrics(
    spans: list[Span], traced_wall_s: float, untraced_wall_s: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``; absent work reads 0."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def of(name: str) -> list[Span]:
        return by_name.get(name, [])

    def busy(name: str) -> float:
        return sum(s.seconds for s in of(name))

    def failures(name: str) -> int:
        return sum(1 for s in of(name) if s.error)

    def total(name: str, key: str) -> float:
        return sum(s.info.get(key, 0) for s in of(name))

    def per_call(selected: list[Span], scale: float) -> float:
        return scale * sum(s.seconds for s in selected) / len(selected) if selected else 0.0

    prep, ev = of("dynamics.prepare_propagator"), of("dynamics.evolve")
    fp, tr = of("poles.find_poles"), of("poles.trace_trajectories")
    sc = of("scattering.scatter")
    sc_ok = [s for s in sc if not s.error]
    m: dict[str, tuple[float, str]] = {
        "dynamics.prepare_propagator.calls": (len(prep), "count"),
        "dynamics.prepare_propagator.busy_s": (busy("dynamics.prepare_propagator"), "s"),
        "dynamics.prepare_propagator.peak_rss_delta_mb": (
            max((s.info.get("rss_delta_mb", 0.0) for s in prep), default=0.0), "MB"),
        "dynamics.prepare_propagator.near_defective": (
            total("dynamics.prepare_propagator", "near_defective"), "count"),
        "dynamics.evolve.calls": (len(ev), "count"),
        "dynamics.evolve.ms_per_call": (per_call(ev, 1e3), "ms"),
        "poles.find_poles.calls": (len(fp), "count"),
        "poles.find_poles.busy_s": (busy("poles.find_poles"), "s"),
        "poles.find_poles.p50_ms": (
            1e3 * statistics.median(s.seconds for s in fp) if fp else 0.0, "ms"),
        "poles.find_poles.failures": (failures("poles.find_poles"), "count"),
        "poles.find_poles.poles_returned": (total("poles.find_poles", "poles"), "count"),
        "poles.trace_trajectories.calls": (len(tr), "count"),
        "poles.trace_trajectories.busy_s": (busy("poles.trace_trajectories"), "s"),
        "poles.trace_trajectories.self_s": (sum(s.self_seconds for s in tr), "s"),
        "poles.trace_trajectories.branches": (total("poles.trace_trajectories", "branches"), "count"),
        "poles.trace_trajectories.crossings": (total("poles.trace_trajectories", "crossings"), "count"),
        "poles.trace_trajectories.lost_branches": (total("poles.trace_trajectories", "lost"), "count"),
    }
    for name in ("poles.tgbs_count", "poles.threshold_ladder"):
        m[f"{name}.calls"] = (len(of(name)), "count")
        m[f"{name}.busy_s"] = (busy(name), "s")
        m[f"{name}.failures"] = (failures(name), "count")
    m.update({
        "scattering.scatter.calls": (len(sc), "count"),
        "scattering.scatter.busy_s": (busy("scattering.scatter"), "s"),
        "scattering.scatter.singular": (
            sum(1 for s in sc if s.error == "SpectralSingularityError"), "count"),
        "scattering.scatter.crosscheck_failures": (
            sum(1 for s in sc if s.error == "NumericalFailure"), "count"),
        "scattering.scatter.us_per_call_n_le_10": (
            per_call([s for s in sc_ok if s.info["n_cells"] <= 10], 1e6), "us"),
        "scattering.scatter.us_per_call_n_ge_100": (
            per_call([s for s in sc_ok if s.info["n_cells"] >= 100], 1e6), "us"),
        "scattering.transmission_closed_form.calls": (
            len(of("scattering.transmission_closed_form")), "count"),
        "scattering.transmission_closed_form.busy_s": (
            busy("scattering.transmission_closed_form"), "s"),
        "relevance.verdict.busy_s": (busy("relevance.verdict"), "s"),
        "relevance.transmission_vs_size.busy_s": (busy("relevance.transmission_vs_size"), "s"),
        "cli.main.self_s": (sum(s.self_seconds for s in of("cli.main")), "s"),
        "cli.main.bytes_written": (total("cli.main", "bytes"), "bytes"),
        "trace.overhead_s": (traced_wall_s - untraced_wall_s, "s"),
    })
    return m
