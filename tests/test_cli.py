"""End-to-end CLI checks: exit codes, file formats, determinism, presets."""

import csv
import inspect
import json
import math

import pytest

from ptchain import BranchPath, ChainSpec, MissedRoots, Trajectory, cli, find_poles, threshold_ladder
from ptchain.cli import main
from ptchain.presets import get_preset, preset_names


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---- exit codes -------------------------------------------------------------

def test_usage_errors_exit_2(workdir):
    assert main([]) == 2
    assert main(["scatter"]) == 2  # missing --n/--gamma
    assert main(["nonsense"]) == 2
    assert main(["scatter", "--n", "0", "--gamma", "0.3"]) == 2
    assert main(["scatter", "--n", "3", "--gamma", "0.3", "--k", "4.0"]) == 2
    assert main(["poles", "--n", "3", "--gamma", "0.3", "--region", "1,2,3"]) == 2
    assert main(["threshold"]) == 2
    assert main(["evolve", "--n", "1", "--gamma", "0.1", "--sigma", "-1"]) == 2
    # non-finite gain, search bounds, packet width and snapshot times
    assert main(["scatter", "--n", "3", "--gamma", "inf", "--k", "1"]) == 2
    assert main(["relevance", "--n", "3", "--gamma", "inf"]) == 2
    assert main(["poles", "--n", "3", "--gamma", "0.3", "--region", "0.1,1,0,inf"]) == 2
    evolve = ["evolve", "--n", "1", "--gamma", "0.1", "--l", "120", "--j0", "-30"]
    assert main(evolve + ["--sigma", "nan"]) == 2
    assert main(evolve + ["--sigma", "8", "--times", "0,nan"]) == 2
    # packets without a finite nonzero norm on the lattice
    small = ["evolve", "--n", "1", "--gamma", "0.1", "--l", "40", "--times", "0"]
    with pytest.warns(UserWarning):
        assert main(small + ["--j0", "500", "--sigma", "3"]) == 2
    assert main(small + ["--j0", "-10", "--sigma", "1e-300"]) == 2
    # a gain too small for a critical size in the double range
    assert main(["relevance", "--n", "3", "--gamma", "1e-310"]) == 2
    # the seed lattice is fixed: there is no density to choose
    assert main(["poles", "--n", "3", "--gamma", "0.3", "--grid-density", "90"]) == 2


def test_unwritable_output_exits_2(workdir, capsys):
    """An output file that cannot be opened is an error message and exit 2, not a traceback."""
    missing = str(workdir / "missing" / "x.csv")
    assert main(["scatter", "--n", "3", "--gamma", "0.3", "--out", missing]) == 2
    assert main(["figure", "--preset", "fig4", "--out", missing]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 2 and "No such file or directory" in err
    assert not (workdir / "missing").exists()


def test_numerical_failures_exit_3(workdir, monkeypatch):
    import ptchain.cli as cli_mod

    def boom(*args, **kwargs):
        raise MissedRoots("synthetic: 2 expected, 1 found")

    monkeypatch.setattr(cli_mod, "find_poles", boom)
    assert main(["poles", "--n", "3", "--gamma", "0.3"]) == 3


# ---- scatter ----------------------------------------------------------------

def test_scatter_single_point(workdir):
    k = repr(0.5 * math.pi)
    assert main(["scatter", "--n", "3", "--gamma", "0.3", "--k", k]) == 0
    header, rows = _read_csv(workdir / "ptchain_scatter.csv")
    assert header == [
        "energy", "k", "transmission", "reflection_left",
        "reflection_right", "physical", "singular",
    ]
    assert len(rows) == 1
    assert float(rows[0][2]) == pytest.approx(2.6104129, abs=1e-6)
    assert rows[0][5] == "true" and rows[0][6] == "false"


def test_scatter_singular_row_has_empty_cells(workdir):
    gamma_c = threshold_ladder(3).gamma_critical
    code = main(
        ["scatter", "--n", "3", "--gamma", repr(gamma_c), "--k", repr(0.5 * math.pi)]
    )
    assert code == 0
    _, rows = _read_csv(workdir / "ptchain_scatter.csv")
    assert rows[0][2] == "" and rows[0][3] == "" and rows[0][4] == ""
    assert rows[0][6] == "true"
    assert rows[0][5] == "false"  # at gamma_c the verdict is not Relevant


def test_scatter_sweep_and_17_digit_floats(workdir):
    assert main(
        ["scatter", "--n", "2", "--gamma", "0.4", "--e-min", "-1.5",
         "--e-max", "1.5", "--steps", "6"]
    ) == 0
    _, rows = _read_csv(workdir / "ptchain_scatter.csv")
    assert len(rows) == 7
    assert rows[0][0] == f"{-1.5:.17g}"
    # energies ascend across the sweep
    energies = [float(r[0]) for r in rows]
    assert energies == sorted(energies)


def test_scatter_json_schema(workdir):
    assert main(
        ["scatter", "--n", "1", "--gamma", "0.5", "--k", "1.0",
         "--format", "json", "--out", "s.json"]
    ) == 0
    payload = json.loads((workdir / "s.json").read_text())
    assert payload["schema_version"] == "1"
    assert payload["n_cells"] == 1
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["singular"] is False


def test_determinism_byte_identical(workdir):
    argv = ["scatter", "--n", "3", "--gamma", "0.7", "--steps", "25", "--out", "a.csv"]
    assert main(argv) == 0
    first = (workdir / "a.csv").read_bytes()
    assert main(argv) == 0
    assert (workdir / "a.csv").read_bytes() == first


# ---- poles / threshold ------------------------------------------------------

def test_poles_csv_and_window(workdir):
    assert main(
        ["poles", "--n", "3", "--gamma", "0.7", "--region", "0.9,2.2,0.01,0.6"]
    ) == 0
    header, rows = _read_csv(workdir / "ptchain_poles.csv")
    assert header[:2] == ["k_re", "k_im"]
    assert len(rows) == 1
    assert float(rows[0][0]) == pytest.approx(0.5 * math.pi, abs=1e-9)
    assert rows[0][5] == "TGBS"


def test_poles_without_gain_and_loss_is_an_empty_census(workdir):
    assert main(["poles", "--n", "10", "--gamma", "0"]) == 0
    header, rows = _read_csv(workdir / "ptchain_poles.csv")
    assert header[:2] == ["k_re", "k_im"] and rows == []


def test_threshold_single_and_range(workdir):
    assert main(["threshold", "--n", "3", "--format", "json", "--out", "t.json"]) == 0
    payload = json.loads((workdir / "t.json").read_text())
    row = payload["rows"][0]
    assert row["gamma_critical"] == pytest.approx(0.51763809, abs=1e-8)
    assert row["ladder"] == pytest.approx([1.9318516, 1.4142135, 0.5176380], abs=1e-6)

    assert main(["threshold", "--n-min", "1", "--n-max", "4"]) == 0
    _, rows = _read_csv(workdir / "ptchain_threshold.csv")
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4]
    assert float(rows[0][1]) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # the large-N ratio column approaches 1 from below
    ratios = [float(r[2]) for r in rows]
    assert ratios == sorted(ratios)
    assert all(0.85 < x < 1.0 for x in ratios)


# ---- trajectory ---------------------------------------------------------------

def test_trajectory_degenerate_range(workdir):
    assert main(
        ["trajectory", "--n", "3", "--gamma-min", "0", "--gamma-max", "0",
         "--steps", "0"]
    ) == 0
    _, rows = _read_csv(workdir / "ptchain_trajectory.csv")
    assert rows == []


def test_trajectory_single_cell_crossing(workdir):
    assert main(
        ["trajectory", "--n", "1", "--gamma-min", "1.0", "--gamma-max", "2.0",
         "--steps", "10", "--region", "0.8,2.4,-1.2,1.2"]
    ) == 0
    _, rows = _read_csv(workdir / "ptchain_trajectory.csv")
    assert rows, "expected at least one tracked point"
    assert all(float(r[2]) == pytest.approx(0.5 * math.pi, abs=1e-7) for r in rows)
    _, crossings = _read_csv(workdir / "ptchain_trajectory_crossings.csv")
    assert len(crossings) == 1
    assert float(crossings[0][1]) == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_trajectory_branch_leaving_the_window_ends(workdir):
    """Branch 0 leaves the window's top near gamma = 1.6: it ends, it is not lost."""
    assert main(
        ["trajectory", "--n", "2", "--gamma-max", "2.5", "--steps", "60",
         "--region", "0.05,3.0,-1.0,0.6"]
    ) == 0
    _, rows = _read_csv(workdir / "ptchain_trajectory.csv")
    assert [r for r in rows if r[5] != "false"] == []
    _, crossings = _read_csv(workdir / "ptchain_trajectory_crossings.csv")
    gammas = sorted(float(c[1]) for c in crossings)
    assert gammas == pytest.approx(sorted(threshold_ladder(2).gamma_values), abs=1e-6)


def test_trajectory_with_branches_lost_exits_3(workdir, monkeypatch, capsys):
    """Under 90% of the branch points recorded, counting the samples after a lost branch's end."""
    record = find_poles(ChainSpec(3, 0.1))[0]
    samples = [0.1 * i for i in range(11)]
    lost = BranchPath(0, [(samples[0], record), (samples[1], record)], lost=True)

    def trace(*args, **kwargs):
        return Trajectory(samples, [lost], [])

    monkeypatch.setattr(cli, "trace_trajectories", trace)
    assert main(["trajectory", "--n", "3", "--gamma-max", "1"]) == 3
    err = capsys.readouterr().err
    assert "2 branch points recorded against 9 gamma samples missing after lost branches" in err
    assert "(18.2% recorded)" in err
    _, rows = _read_csv(workdir / "ptchain_trajectory.csv")
    assert [r[5] for r in rows] == ["false", "true"]


# ---- evolve -------------------------------------------------------------------

def test_evolve_writes_snapshots_and_summary(workdir, capsys):
    # gamma = 0 keeps the evolution unitary, so the totals are pinned exactly
    assert main(
        ["evolve", "--n", "2", "--gamma", "0.0", "--l", "160", "--j0", "-40",
         "--sigma", "10", "--k0", repr(0.5 * math.pi), "--times", "0,30",
         "--out", "run"]
    ) == 0
    for t in (0, 30):
        header, rows = _read_csv(workdir / f"run_t{t}.csv")
        assert header == ["site", "intensity"]
        assert len(rows) == 160
    summary = json.loads((workdir / "run.json").read_text())
    assert summary["schema_version"] == "1"
    assert summary["amplitude_growth_rate"] is None  # Relevant regime: no fit
    times = [s["time"] for s in summary["snapshots"]]
    assert times == [0.0, 30.0]
    for snap in summary["snapshots"]:
        assert snap["total"] == pytest.approx(1.0, abs=1e-9)


def test_evolve_warns_beyond_horizon(workdir, capsys):
    assert main(
        ["evolve", "--n", "1", "--gamma", "0.1", "--l", "120", "--j0", "-30",
         "--sigma", "8", "--times", "0,500", "--out", "h"]
    ) == 0
    err = capsys.readouterr().err
    assert "validity horizon" in err


def test_evolve_beyond_the_double_range_exits_3(workdir, capsys):
    """A state whose intensity overflows ends the run with exit 3, before a summary holding NaN is written."""
    assert main(
        ["evolve", "--n", "3", "--gamma", "0.7", "--l", "200", "--j0", "-50",
         "--sigma", "10", "--times", "0,100,100000", "--out", "big"]
    ) == 3
    assert "NumericalFailure" in capsys.readouterr().err
    assert not (workdir / "big.json").exists()


# ---- relevance ----------------------------------------------------------------

def test_relevance_verdict_json(workdir):
    assert main(["relevance", "--n", "3", "--gamma", "1.5", "--out", "v.json"]) == 0
    payload = json.loads((workdir / "v.json").read_text())
    assert payload["regime"] == "Unphysical"
    assert payload["tgbs_count"] == 2
    assert payload["critical_size"] == 1  # gamma = 1.5 > gamma_c(1)
    assert "special_points" not in payload


def test_relevance_special_points(workdir):
    assert main(
        ["relevance", "--n", "2", "--gamma", "1.0", "--special-points",
         "--out", "v.json"]
    ) == 0
    payload = json.loads((workdir / "v.json").read_text())
    points = payload["special_points"]
    fp = [p for p in points if p["kind"] == "FabryPerot"]
    assert sorted(p["energy"] for p in fp) == pytest.approx([-1.0, 1.0])
    assert all(p["physical"] is False for p in fp)
    cpa = [p for p in points if p["kind"] == "CpaLaser"]
    assert len(cpa) == 2
    assert sum(p["physical"] for p in cpa) == 1


def test_relevance_csv_writes_points_file(workdir):
    assert main(
        ["relevance", "--n", "3", "--gamma", "0.3", "--special-points",
         "--format", "csv", "--out", "rel.csv"]
    ) == 0
    header, rows = _read_csv(workdir / "rel.csv")
    assert header[0] == "n_cells" and rows[0][2] == "Relevant"
    _, point_rows = _read_csv(workdir / "rel_points.csv")
    kinds = {r[0] for r in point_rows}
    assert kinds == {"BandEdgeATR", "FabryPerot", "CpaLaser"}


# ---- figure presets -------------------------------------------------------------

def test_preset_catalog_complete():
    names = preset_names()
    expected = (
        [f"fig2{c}" for c in "abcdefghi"]
        + ["fig3", "fig4"]
        + [f"fig5{c}" for c in "abcdef"]
        + ["fig6", "fig7a", "fig7b", "fig8"]
    )
    assert names == sorted(expected)


def test_figure_rejects_unknown_preset(workdir):
    assert main(["figure", "--preset", "fig99"]) == 2


@pytest.mark.parametrize("name", preset_names())
def test_preset_parameters_bind_to_its_runner(name):
    params = get_preset(name)
    runner = cli._RUNNERS[params.pop("mode")]
    inspect.signature(runner).bind("csv", "out.csv", **params)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "preset, argv",
    [
        ("fig2a", ["poles", "--n", "3", "--gamma", "0.3"]),
        ("fig4", ["threshold", "--n-min", "1", "--n-max", "50"]),
        ("fig7a", ["scatter", "--n", "1", "--gamma", "1.0", "--e-min", "-1.999",
                   "--e-max", "1.999", "--steps", "801"]),
    ],
)
def test_preset_writes_what_its_subcommand_writes(workdir, fmt, preset, argv):
    assert main(["figure", "--preset", preset, "--format", fmt, "--out", "a"]) == 0
    assert main(argv + ["--format", fmt, "--out", f"b.{fmt}"]) == 0
    assert (workdir / f"a.{fmt}").read_bytes() == (workdir / f"b.{fmt}").read_bytes()


def test_figure_fig7a_right_reflection_zeros(workdir):
    assert main(["figure", "--preset", "fig7a"]) == 0
    _, rows = _read_csv(workdir / "ptchain_fig7a.csv")
    assert len(rows) == 802
    # R_R dips towards zero at E = +-sqrt(3) while R_L stays one-sided large
    for target in (-math.sqrt(3.0), math.sqrt(3.0)):
        near = [r for r in rows if abs(float(r[0]) - target) < 0.01]
        assert near
        assert min(float(r[4]) for r in near) < 1e-4
        assert max(float(r[3]) for r in near) > 1.0
    # physical everywhere: gamma = 1 < gamma_c(1)
    assert all(r[5] == "true" for r in rows)


def test_figure_fig2b_lasing_singularity(workdir):
    assert main(["figure", "--preset", "fig2b", "--format", "json"]) == 0
    payload = json.loads((workdir / "ptchain_fig2b.json").read_text())
    classes = [p["classification"] for p in payload["poles"]]
    assert classes.count("LasingSingularity") == 1
    lasing = next(
        p for p in payload["poles"] if p["classification"] == "LasingSingularity"
    )
    assert lasing["k_re"] == pytest.approx(0.5 * math.pi, abs=1e-7)
    assert abs(lasing["k_im"]) <= 1e-8


def test_figure_fig8_divergences_at_ladder(workdir):
    assert main(["figure", "--preset", "fig8"]) == 0
    _, rows = _read_csv(workdir / "ptchain_fig8.csv")
    ladder = threshold_ladder(3).gamma_values
    # transmission blows up approaching every ladder value
    for g_star in ladder:
        near = [
            float(r[1]) for r in rows
            if r[1] != "" and abs(float(r[0]) - g_star) < 0.02
        ]
        assert near and max(near) > 1e3
    physical_flags = {r[0]: r[2] for r in rows}
    # flags flip exactly at gamma_c
    gc = threshold_ladder(3).gamma_critical
    for g_text, flag in physical_flags.items():
        assert flag == ("true" if float(g_text) < gc else "false")


# ---- csv and json carry the same rows ------------------------------------------

def _csv_cell(value):
    """A JSON value as the CSV writer renders it (17 significant digits)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@pytest.mark.parametrize(
    "argv, keys",
    [
        # the sweep ends on the N=3 singularity at pi/2, so a row has empty cells
        (["scatter", "--n", "3", "--gamma", repr(threshold_ladder(3).gamma_critical),
          "--e-min", "-1.5", "--e-max", "0.0", "--steps", "6"], ("rows",)),
        (["poles", "--n", "3", "--gamma", "0.7"], ("poles",)),
        (["figure", "--preset", "fig6"], ("rows",)),
        (["figure", "--preset", "fig8"], ("rows",)),
        # a second table: CSV writes it to table_crossings.csv
        (["trajectory", "--n", "1", "--gamma-min", "1.0", "--gamma-max", "2.0",
          "--steps", "10", "--region", "0.8,2.4,-1.2,1.2"],
         ("branches", "crossings")),
    ],
    ids=lambda value: "+".join(value) if isinstance(value, tuple) else None,
)
def test_json_rows_equal_csv_rows(workdir, argv, keys):
    assert main(argv + ["--format", "csv", "--out", "table.csv"]) == 0
    assert main(argv + ["--format", "json", "--out", "table.json"]) == 0
    payload = json.loads((workdir / "table.json").read_text())
    paths = ["table.csv"] + [f"table_{key}.csv" for key in keys[1:]]
    for key, path in zip(keys, paths):
        header, rows = _read_csv(workdir / path)
        objects = payload[key]
        assert rows
        assert [[_csv_cell(obj[name]) for name in header] for obj in objects] == rows
