"""Tests of the benchmark itself: it runs, it catches bad output, tracing is inert."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import pytest

from perfbench import run

run.use_checkout_source()

from perfbench import reference, tracing, workloads  # noqa: E402


def _tiny_ops(workdir: Path) -> list[workloads.Op]:
    ref = reference.load_reference()
    return [
        workloads._census_op(3, 0.7),
        workloads._sweep_op(2, 0.4),
        workloads._relevance_op(5, 0.9),
        workloads._size_scan_op(3, 0.3, 1.2),
        workloads._tgbs_op(4, 1.3),
        workloads._ladder_op(4),
        workloads._figure_op("fig2a", workdir, ref),
    ]


def test_tiny_op_list_runs_and_passes_its_checks(tmp_path):
    outcomes = run.run_pass(_tiny_ops(tmp_path / "out"), tmp_path / "out")
    assert [(o.op.label, o.failure) for o in outcomes if o.failure] == []
    assert all(o.seconds > 0 for o in outcomes)


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 7, tmp_path, {})
        b = workloads.build(name, 7, tmp_path, {})
        assert [(o.label, o.n_cells, o.gamma) for o in a] == [(o.label, o.n_cells, o.gamma) for o in b]


def test_corrupted_pole_is_counted_as_failed(tmp_path):
    good = workloads._census_op(3, 0.7)

    def shifted():
        records = good.run()
        first = records[0]
        moved = dataclasses.replace(first.k, re=first.k.re + 1e-4)
        return [dataclasses.replace(first, k=moved)] + records[1:]

    bad = dataclasses.replace(good, run=shifted)
    outcomes = run.run_pass([good, bad], tmp_path / "out")
    assert [o.failure for o in outcomes] == [None, "check"]
    assert "scaled residual" in outcomes[1].detail


def test_corrupted_figure_file_is_counted_as_failed(tmp_path):
    workdir = tmp_path / "out"
    good = workloads._figure_op("fig2a", workdir, reference.load_reference())

    def corrupting():
        status = good.run()
        path = workdir / "fig2a.csv"
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[3].split(",")
        cells[0] = repr(float(cells[0]) * (1 + 1e-6))
        lines[3] = ",".join(cells)
        path.write_text("".join(lines))
        return status

    outcomes = run.run_pass([dataclasses.replace(good, run=corrupting)], workdir)
    assert outcomes[0].failure == "check"


def test_corrupted_scatter_point_breaks_the_conservation_law():
    import ptchain

    res = ptchain.scatter(ptchain.ChainSpec(3, 0.3), 1.0)
    assert workloads.oracles.check_scatter_point(3, 0.3, 1.0, res) is None
    bad = dataclasses.replace(res, T=res.T * (1 + 1e-6))
    assert workloads.oracles.check_scatter_point(3, 0.3, 1.0, bad) is not None
    nan = dataclasses.replace(res, T=math.nan)
    assert workloads.oracles.check_scatter_point(3, 0.3, 1.0, nan) is not None


def test_traced_and_untraced_passes_give_the_same_outputs(tmp_path):
    import ptchain
    from ptchain import cli, poles

    original = (poles.find_poles, cli.find_poles, ptchain.find_poles, cli.main)
    for sub in ("plain", "traced"):
        (tmp_path / sub).mkdir()
    ops = _tiny_ops(tmp_path / "plain")
    plain = [op.run() for op in ops]
    plain_csv = (tmp_path / "plain" / "fig2a.csv").read_bytes()

    tracer = tracing.Tracer()
    traced_ops = _tiny_ops(tmp_path / "traced")
    with tracing.traced(tracer):
        assert poles.find_poles is not original[0] and cli.find_poles is not original[1]
        traced = [op.run() for op in traced_ops]
    assert (poles.find_poles, cli.find_poles, ptchain.find_poles, cli.main) == original

    assert traced[:-1] == plain[:-1]
    assert (tmp_path / "traced" / "fig2a.csv").read_bytes() == plain_csv
    names = {s.name for s in tracer.spans}
    assert {"poles.find_poles", "scattering.scatter", "cli.main", "poles.tgbs_count"} <= names
    metrics = tracing.layer_metrics(tracer.spans, 1.0, 0.5)
    assert metrics["poles.tgbs_count.calls"] == (1, "count")
    assert metrics["cli.main.bytes_written"][0] > 0
    assert metrics["trace.overhead_s"] == (0.5, "s")


def test_known_failure_regions_match_only_their_operations():
    known = [{"kind": "find_poles", "n_min": 40, "n_max": 50, "gamma_min": 0.1,
              "gamma_max": 1.9, "outcome": "MissedRoots"}]
    op = workloads._census_op(40, 0.5)
    assert run.is_known(run.Outcome(op, 1.0, "MissedRoots"), known)
    assert not run.is_known(run.Outcome(op, 1.0, "check"), known)
    assert not run.is_known(run.Outcome(workloads._census_op(30, 0.5), 1.0, "MissedRoots"), known)


def test_missing_package_source_stops_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SOURCE", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.use_checkout_source()
    assert exc.value.code == 2
