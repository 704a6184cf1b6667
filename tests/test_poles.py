"""Pole census, threshold ladder, and trajectory tracking.

The heavy cross-check here is the z-polynomial oracle (``zpoly_oracle``), an
independent high-precision route to the full pole set: no grids, no Newton
on ``M22``, no pencil shared with the implementation under test. Census
poles must lie within :data:`POLE_TOL` of its roots.
"""

import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptchain import (
    BranchLost,
    ChainSpec,
    OutOfRange,
    PoleClass,
    SearchRegion,
    chebyshev_tu,
    critical_size,
    find_poles,
    first_quadrant_region,
    gamma_critical,
    pole_residual,
    tgbs_count,
    threshold_ladder,
    trace_trajectories,
)
from ptchain import poles
from ptchain.poles import DEFAULT_REGION, EDGE_MARGIN
from ptchain.presets import PRESETS
from transfer_oracles import (
    full_lattice_seeds,
    imaginary_branch_excluded,
    plain_m22_array,
)
from zpoly_oracle import zpoly_coefficients, zpoly_roots

PI = math.pi

#: Largest distance of a census pole from its z-polynomial oracle root.
POLE_TOL = 1e-10


def _assert_census_matches(found: list[complex], expected: list[complex]) -> None:
    """As many poles as oracle roots, each root within :data:`POLE_TOL` of one."""
    assert len(found) == len(expected)
    for z in expected:
        assert min(abs(z - f) for f in found) < POLE_TOL


def _strip_margin(z: complex) -> float:
    """Signed distance of z inside the default region minus the vertical bands."""
    r = DEFAULT_REGION
    edges = (z.real - r.re_min, r.re_max - z.real, z.imag - r.im_min, r.im_max - z.imag)
    vertical = min(abs(z.real - s) for s in (-PI, 0.0, PI)) - EDGE_MARGIN
    return min(*edges, vertical)


@pytest.mark.parametrize(
    "n, gamma",
    [(1, 0.5), (2, 1.3), (3, 0.7), (5, 1.7), (8, 0.4)],
)
def test_find_poles_matches_z_polynomial_oracle(n, gamma):
    spec = ChainSpec(n, gamma)
    region = SearchRegion(-PI + 1e-4, PI - 1e-4, -1.2, 1.2)
    expected = [
        z
        for z in zpoly_roots(spec)
        if abs(z.imag) <= 1.2 - 1e-3
        and min(abs(z.real), abs(abs(z.real) - PI)) > 2e-4
    ]
    for census in (find_poles(spec, region), poles._census(spec, region)):
        _assert_census_matches([r.k.as_complex() for r in census], expected)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 2.9])
def test_imaginary_depth_bound(gamma):
    """No pole sits above Im k = acosh(gamma^2/2 + 1)/2 (oracle-enumerated)."""
    bound = 0.5 * math.acosh(gamma**2 / 2.0 + 1.0)
    for n in (1, 2, 4):
        roots = zpoly_roots(ChainSpec(n, gamma))
        top = max(z.imag for z in roots)
        assert top <= bound + 1e-9
        assert first_quadrant_region(gamma).im_max >= bound


def _check_census_symmetries(spec: ChainSpec, found: list[complex]) -> None:
    """``k <-> -conj(k)`` pairing, and first-quadrant count = ladder count."""
    for k in found:
        assert min(abs(q + k.conjugate()) for q in found) <= 1e-7
    quadrant = sum(1 for k in found if k.real > 1e-8 and k.imag > 1e-8)
    assert quadrant == sum(1 for g in threshold_ladder(spec.n_cells).gamma_values if g < spec.gamma)


@pytest.mark.parametrize("n, gamma", [(35, 1.545), (35, 1.685), (40, 0.465), (50, 0.285)])
def test_full_strip_census_is_complete_at_large_n(n, gamma):
    """Every root of the z-polynomial is found (gamma from the census strata)."""
    spec = ChainSpec(n, gamma)
    found = [r.k.as_complex() for r in find_poles(spec)]
    # each root u of q gives the two poles z = ±sqrt(u)
    assert len(found) == 2 * (len(zpoly_coefficients(spec)) - 1) == 4 * n - 2
    assert min(abs(a - b) for i, a in enumerate(found) for b in found[i + 1 :]) > 1e-6
    _check_census_symmetries(spec, found)


@pytest.mark.parametrize("n, gamma", [(8, 1e-8), (89, 2.5), (89, 4.0), (144, 1.99)])
def test_full_strip_census_at_known_failing_cells(n, gamma):
    """Cells where Newton on M22 used to fail: a spurious grid root at
    gamma = 1e-8, and pencil eigenvalues on Re k = ±pi/2 near x = -1 at
    N = 89 and 144 that Newton could not polish."""
    spec = ChainSpec(n, gamma)
    _check_census_symmetries(spec, [r.k.as_complex() for r in find_poles(spec)])


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 20), gamma=st.floats(0.1, 1.9))
def test_full_strip_census_matches_z_polynomial_property(n, gamma):
    spec = ChainSpec(n, gamma)
    oracle = zpoly_roots(spec)
    # a root within rounding of the region's edge may fall either side of it
    assume(all(abs(_strip_margin(z)) > 1e-6 for z in oracle))
    reported, census = find_poles(spec), poles._census(spec, DEFAULT_REGION)
    for records in (reported, census):
        found = [r.k.as_complex() for r in records]
        _assert_census_matches(found, [z for z in oracle if _strip_margin(z) > 0])
        _check_census_symmetries(spec, found)
    # each reported pole is its pencil eigenvalue or a grid root standing in for it
    assert len(reported) == len(census)
    for r in reported:
        k = r.k.as_complex()
        assert min(abs(k - c.k.as_complex()) for c in census) <= poles.GRID_ROOT_TOL


@pytest.mark.parametrize("n, gamma", [
    (5, 1e-2), (8, 1e-2), (5, 1e-4), (8, 1e-4), (5, 1e-5),
])
def test_small_gamma_census_matches_z_polynomial_oracle(n, gamma):
    """The default-strip census at small gain/loss, against the oracle."""
    spec = ChainSpec(n, gamma)
    oracle = zpoly_roots(spec)
    found = [r.k.as_complex() for r in find_poles(spec)]
    _assert_census_matches(found, [z for z in oracle if _strip_margin(z) > 0])


@pytest.mark.parametrize("n, gamma, region", [
    (3, 0.3, DEFAULT_REGION),
    (8, 1.2, DEFAULT_REGION),
    (5, 1e-4, DEFAULT_REGION),
    (4, 2.0, first_quadrant_region(2.0)),
], ids=["3-0.3", "8-1.2", "5-1e-4", "4-2.0-first-quadrant"])
def test_find_poles_without_grid_roots_is_the_census(n, gamma, region, monkeypatch):
    """With no Newton root to stand in for them, the reported poles are the pencil's."""
    spec = ChainSpec(n, gamma)
    monkeypatch.setattr(poles, "_newton", lambda spec, seed: None)
    assert find_poles(spec, region) == poles._census(spec, region)


@pytest.mark.parametrize("preset", [f"fig2{c}" for c in "abcdefghi"])
def test_fig2_poles_are_grid_roots_bitwise(preset):
    """Each fig2 pole is, bit for bit, a Newton root from its own eigenvalue's seeds, within 1e-12 of it."""
    params = PRESETS[preset]
    spec = ChainSpec(params["n_cells"], params["gamma"])
    pencil = poles._pencil_poles(spec, DEFAULT_REGION)
    found = [r.k.as_complex() for r in find_poles(spec)]
    assert len(found) == len(pencil) == 4 * spec.n_cells - 2
    for k, seeds in zip(pencil, poles._window_seeds(spec, DEFAULT_REGION, pencil)):
        roots = [poles._newton(spec, s) for s in seeds]
        (pole,) = [f for f in found if abs(f - k) <= poles.GRID_ROOT_TOL]
        assert pole != k and pole in roots


def test_unpolished_poles_are_one_event(caplog):
    """At (8, 1e-4) no Newton root lands within 1e-12 of any eigenvalue: one DEBUG event counts all 26."""
    spec = ChainSpec(8, 1e-4)
    with caplog.at_level(logging.DEBUG, logger="ptchain.poles"):
        found = find_poles(spec)
    assert found == poles._census(spec, DEFAULT_REGION)
    (event,) = [r for r in caplog.records if r.name == "ptchain.poles"]
    assert event.levelno == logging.DEBUG
    first = poles._pencil_poles(spec, DEFAULT_REGION)[0]
    message = event.getMessage()
    assert message.startswith("26 of 26 pole(s) reported unpolished")
    assert f"within {poles.GRID_ROOT_TOL:g}" in message and f"k={first!r}" in message


def _in_window(seeds: list[complex], k: complex, region: SearchRegion) -> list[complex]:
    """The seeds within SEED_WINDOW lattice cells of ``k`` along each axis."""
    density = poles.SEED_DENSITY
    cell_re = (region.re_max - region.re_min) / math.ceil((region.re_max - region.re_min) * density)
    cell_im = (region.im_max - region.im_min) / math.ceil((region.im_max - region.im_min) * density)
    return [
        s for s in seeds
        if abs(s.real - k.real) <= poles.SEED_WINDOW * cell_re
        and abs(s.imag - k.imag) <= poles.SEED_WINDOW * cell_im
    ]


#: (N, gamma, region) of the windowed-seed identity tests.
SEED_CASES = [
    *((3, PRESETS[f"fig2{c}"]["gamma"], DEFAULT_REGION) for c in "abcdefghi"),
    (8, 1e-4, DEFAULT_REGION),
    (5, 1e-5, DEFAULT_REGION),
    (20, 1.9, DEFAULT_REGION),
    (13, 0.9, SearchRegion(-0.3, 2.9, -1.2, 0.7)),
    (4, 2.0, first_quadrant_region(2.0)),
]
SEED_IDS = [
    *(f"fig2{c}" for c in "abcdefghi"), "8-1e-4", "5-1e-5", "20-1.9", "13-0.9-window", "4-2.0-first-quadrant",
]


@pytest.mark.parametrize("n, gamma, region", [
    *SEED_CASES, (8, 1e-8, DEFAULT_REGION), (50, 0.285, DEFAULT_REGION),
], ids=[*SEED_IDS, "8-1e-8", "50-0.285"])
def test_grid_seeds_are_the_full_lattice_seeds_in_the_windows(n, gamma, region):
    """Each eigenvalue's seeds are the whole lattice's local minima in its window, in the same order.

    At gamma = 1e-8 |M22| is exactly 0.0 at many lattice points, so the
    order among equal depths counts too.
    """
    spec = ChainSpec(n, gamma)
    pencil = poles._pencil_poles(spec, region)
    windows = poles._window_seeds(spec, region, pencil)
    full = full_lattice_seeds(spec, region, poles.SEED_DENSITY)
    assert len(windows) == len(pencil) and any(windows)
    assert windows == [_in_window(full, k, region) for k in pencil]


@pytest.mark.parametrize("n, gamma, region", SEED_CASES, ids=SEED_IDS)
def test_find_poles_equals_the_full_lattice_rule_bitwise(n, gamma, region, monkeypatch):
    """Polishing from the windowed seeds reports what the per-pole rule on the whole lattice's seeds does, to the bit."""
    spec = ChainSpec(n, gamma)
    windowed = find_poles(spec, region)
    full = full_lattice_seeds(spec, region, poles.SEED_DENSITY)
    monkeypatch.setattr(
        poles, "_window_seeds", lambda spec, region, pencil: [_in_window(full, k, region) for k in pencil]
    )
    assert windowed == find_poles(spec, region)


def test_failed_grid_seed_loses_no_pole(monkeypatch):
    """A seed Newton fails from is not retried; its eigenvalue is reported as it is."""
    spec = ChainSpec(3, 0.3)
    expected = find_poles(spec)
    pencil = poles._pencil_poles(spec, DEFAULT_REGION)
    windows = poles._window_seeds(spec, DEFAULT_REGION, pencil)
    assert [len(w) for w in windows] == [1] * len(pencil)  # one chance per eigenvalue here
    newton, attempts = poles._newton, []

    def first_fails(spec, seed):
        attempts.append(seed)
        return None if len(attempts) == 1 else newton(spec, seed)

    monkeypatch.setattr(poles, "_newton", first_fails)
    found = find_poles(spec)
    assert attempts == [w[0] for w in windows]  # each seed once, in order, and no other Newton run
    assert [r.classification for r in found] == [r.classification for r in expected]
    for a, b in zip(found, expected):
        assert abs(a.k.as_complex() - b.k.as_complex()) <= poles.GRID_ROOT_TOL
    assert pencil[0] in [r.k.as_complex() for r in found]


def test_overlapping_windows_share_their_newton_runs(monkeypatch):
    """Newton runs at most once per distinct seed, although windows share seeds at (8, 4.0)."""
    spec = ChainSpec(8, 4.0)
    pencil = poles._pencil_poles(spec, DEFAULT_REGION)
    seeds = [s for w in poles._window_seeds(spec, DEFAULT_REGION, pencil) for s in w]
    assert len(set(seeds)) < len(seeds)
    newton, attempts = poles._newton, []

    def counted(spec, seed):
        attempts.append(seed)
        return newton(spec, seed)

    monkeypatch.setattr(poles, "_newton", counted)
    find_poles(spec)
    assert attempts and len(set(attempts)) == len(attempts) and set(attempts) <= set(seeds)


def test_tall_region_allocates_no_lattice_array():
    """Only each eigenvalue's window is evaluated, so a 300-deep region costs well under 1 MB."""
    spec, region = ChainSpec(3, 0.7), SearchRegion(0.05, 3.0, -1.5, 300.0)
    expected = find_poles(spec, region)  # loads the eigensolver before tracing
    tracemalloc.start()
    try:
        assert find_poles(spec, region) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert expected and peak < 1_000_000


@pytest.mark.parametrize("n", [1, 3, 9, 10, 50])
def test_census_is_empty_without_gain_and_loss(n):
    """At gamma = 0, M22 = e^{-2iNk} has no zeros."""
    assert find_poles(ChainSpec(n, 0.0)) == []


def test_pencil_census_is_empty_without_gain_and_loss():
    """At N = 20, gamma = 0, the pencil puts 74 eigenvalues in the default strip; none is a pole."""
    spec = ChainSpec(20, 0.0)
    in_strip = [
        k for k in map(complex, poles._pencil_wavenumbers(spec))
        if DEFAULT_REGION.contains(k) and not poles._near_singular_vertical(k)
    ]
    assert len(in_strip) == 74
    assert poles._census(spec, DEFAULT_REGION) == []


def test_find_poles_census_is_sorted_and_converged():
    recs = find_poles(ChainSpec(3, 0.3))
    keys = [(r.k.re, r.k.im) for r in recs]
    assert keys == sorted(keys)
    assert all(r.residual < 1e-10 for r in recs)


def test_tgbs_pole_location_n3():
    """The first growing state of N=3, gamma=0.7 sits at pi/2 + 0.1395i."""
    recs = find_poles(ChainSpec(3, 0.7), first_quadrant_region(0.7))
    assert len(recs) == 1
    (rec,) = recs
    assert rec.classification is PoleClass.TGBS
    assert rec.k.re == pytest.approx(0.5 * PI, abs=1e-9)
    assert rec.k.im == pytest.approx(0.13953928457328146, abs=1e-9)
    assert rec.growth_rate == pytest.approx(0.27998511760441513, abs=1e-9)
    assert rec.energy.real == pytest.approx(0.0, abs=1e-9)


def test_three_growing_states_at_gamma_two():
    recs = find_poles(ChainSpec(3, 2.0), first_quadrant_region(2.0))
    assert len(recs) == 3
    assert all(r.classification is PoleClass.TGBS for r in recs)
    assert all(r.k.re == pytest.approx(0.5 * PI, abs=1e-9) for r in recs)
    kappas = sorted(r.k.im for r in recs)
    for got, want in zip(kappas, (0.2463, 0.6140, 0.8171)):
        assert got == pytest.approx(want, abs=1e-3)


def test_search_region_validation():
    with pytest.raises(OutOfRange):
        SearchRegion(1.0, 1.0, -1.0, 1.0)
    with pytest.raises(OutOfRange):
        SearchRegion(-4.0, 1.0, -1.0, 1.0)  # leaves the strip
    with pytest.raises(OutOfRange):
        SearchRegion(0.1, 1.0, 0.0, float("inf"))
    r = SearchRegion(0.1, 1.0, -1.0, 1.0)
    assert r.contains(0.5 + 0.5j)
    assert not r.contains(2.0 + 0.5j)


# ---- threshold ladder --------------------------------------------------------

def test_ladder_matches_chebyshev_root_derivation():
    """gamma_n from the T_N zeros x = cos((2n+1)pi/2N): gamma = sqrt(2+2x)."""
    for n_cells in range(1, 12):
        ladder = threshold_ladder(n_cells)
        for idx, g in enumerate(ladder.gamma_values):
            x = math.cos((2 * idx + 1) * PI / (2 * n_cells))
            assert g == pytest.approx(math.sqrt(2.0 + 2.0 * x), abs=1e-12)
        assert ladder.gamma_critical == pytest.approx(min(ladder.gamma_values), abs=1e-15)
        assert ladder.gamma_critical == pytest.approx(
            2.0 * math.sin(PI / (4 * n_cells)), abs=1e-15
        )


def test_gamma_critical_is_the_ladder_value():
    """The public lowest ladder value is the one the ladder reports, and its smallest entry."""
    for n_cells in range(1, 201):
        ladder = threshold_ladder(n_cells)
        assert gamma_critical(n_cells) == ladder.gamma_critical
        assert gamma_critical(n_cells) == pytest.approx(min(ladder.gamma_values), rel=1e-12)


def test_ladder_is_strictly_descending():
    values = threshold_ladder(9).gamma_values
    assert all(a > b for a, b in zip(values, values[1:]))


def test_ladder_numeric_verification_runs():
    threshold_ladder(2, verify_numeric=True)  # raises MissedRoots on failure


@pytest.mark.parametrize("n_cells", [9, 11, 17, 26, 40])
def test_ladder_numeric_verification_at_larger_n(n_cells):
    threshold_ladder(n_cells, verify_numeric=True)


def test_ladder_residual_vanishes_at_pi_over_2():
    for n_cells in (1, 3, 5):
        for g in threshold_ladder(n_cells).gamma_values:
            residual = pole_residual(ChainSpec(n_cells, g), 0.5 * PI)
            assert abs(residual) < 1e-12


@pytest.mark.parametrize(
    "gamma, expected",
    [(1.5, 1), (2.0, 1), (2.5, 1), (1.0, 2), (0.3, 6), (0.05, 32)],
)
def test_critical_size(gamma, expected):
    assert critical_size(gamma) == expected
    if gamma < 2.0:
        # the returned size is the first one whose threshold lies below gamma
        assert threshold_ladder(expected).gamma_critical < gamma
        if expected > 1:
            assert threshold_ladder(expected - 1).gamma_critical >= gamma


def test_critical_size_exact_threshold_is_not_yet_growing():
    g4 = threshold_ladder(4).gamma_critical
    assert critical_size(g4) == 5


def test_critical_size_rejects_nonpositive():
    with pytest.raises(OutOfRange):
        critical_size(0.0)
    with pytest.raises(OutOfRange):
        critical_size(-0.5)
    with pytest.raises(OutOfRange):
        critical_size(float("nan"))
    with pytest.raises(OutOfRange):
        critical_size(float("inf"))


@pytest.mark.parametrize("gamma", [5e-324, 1e-310])
def test_critical_size_rejects_a_subnormal_gamma(gamma):
    """pi / (4 asin(gamma/2)) divides by zero at 5e-324 and is inf at 1e-310."""
    with pytest.raises(OutOfRange, match="double range"):
        critical_size(gamma)


@pytest.mark.parametrize(
    "gamma, expected", [(0.3, 0), (0.7, 1), (1.5, 2), (2.0, 3)]
)
def test_tgbs_count_closed_form(gamma, expected):
    assert tgbs_count(ChainSpec(3, gamma)) == expected


def test_tgbs_count_numeric_verification():
    assert tgbs_count(ChainSpec(3, 0.7), verify=True) == 1


@pytest.mark.parametrize("n, gamma", [(17, 1.5062), (26, 1.0562), (40, 0.7187)])
def test_tgbs_count_numeric_verification_at_larger_n(n, gamma):
    assert tgbs_count(ChainSpec(n, gamma), verify=True) == 9


# ---- trajectories -------------------------------------------------------------

def test_single_cell_trajectory_crosses_at_sqrt2():
    region = SearchRegion(1e-4, PI - 1e-4, -1.2, 1.2)
    traj = trace_trajectories(
        ChainSpec(1, 0.0), 0.0, 2.0, steps=25, region=region
    )
    live = [b for b in traj.branches if len(b.points) >= 2]
    assert len(live) == 1
    (branch,) = live
    assert not branch.lost
    # the single right-half branch rides Re k = pi/2 upward
    assert all(p.k.re == pytest.approx(0.5 * PI, abs=1e-7) for _, p in branch.points)
    kappas = [p.k.im for _, p in branch.points]
    assert all(b >= a - 1e-12 for a, b in zip(kappas, kappas[1:]))

    assert len(traj.crossings) == 1
    crossing = traj.crossings[0]
    assert crossing.gamma == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert crossing.k.real == pytest.approx(0.5 * PI, abs=1e-7)


@pytest.mark.parametrize("n, steps", [(3, 50), (3, 20), (3, 10), (4, 20), (4, 10)])
def test_trajectory_passes_the_branch_count_check(n, steps):
    """2N-1 right-half branches and every ladder crossing, even on coarse sweeps.

    A step too coarse for the matching is halved, so the 10- and 20-step
    sweeps split no branch and miss no crossing.
    """
    region = SearchRegion(1e-4, PI - 1e-4, -1.5, 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = trace_trajectories(ChainSpec(n, 0.0), 0.0, 2.0, steps=steps, region=region)
    assert sum(1 for b in traj.branches if b.points[-1][1].k.re > 0) == 2 * n - 1
    ladder = threshold_ladder(n).gamma_values
    assert sorted(c.gamma for c in traj.crossings) == pytest.approx(sorted(ladder), abs=1e-6)


def test_windowed_sweep_skips_the_branch_count_check():
    """The 2N-1 count holds for the full strip only: a window holds fewer branches."""
    region = SearchRegion(-0.33, 0.90, -1.5, 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = trace_trajectories(ChainSpec(6, 0.0), 0.0, 2.5, steps=30, region=region)
    assert 0 < sum(1 for b in traj.branches if b.points[-1][1].k.re > 0) < 11


def test_trajectory_points_match_z_polynomial_oracle():
    """The fig3 sweep's branch points lie on the oracle's roots, at every 6th sample past gamma = 0."""
    traj = trace_trajectories(ChainSpec(3, 0.0), 0.0, 2.0, 200)
    points: dict[float, list[complex]] = {}
    for b in traj.branches:
        for g, p in b.points:
            points.setdefault(g, []).append(p.k.as_complex())
    for g in traj.gamma_samples[1::6]:
        oracle = zpoly_roots(ChainSpec(3, g))
        assert points[g]
        for k in points[g]:
            assert min(abs(k - z) for z in oracle) <= 1e-12


def test_degenerate_sweep_emits_single_sample():
    traj = trace_trajectories(ChainSpec(3, 0.0), 0.0, 0.0, steps=0)
    assert traj.gamma_samples == [0.0]
    assert traj.branches == []  # gamma = 0: no poles anywhere
    assert traj.crossings == []


@pytest.mark.parametrize("n", [3, 4])
def test_sweep_censuses_equal_fresh_censuses(n, monkeypatch):
    """Each census of a sweep is a fresh pencil census's.

    Every branch point is a record of the census at its gamma, and the
    samples are the census gammas in ascending order, each censused once
    (a halved step's midpoint is censused after the sample it precedes).
    """
    region = SearchRegion(1e-4, PI - 1e-4, -1.5, 1.5)
    census = poles._census
    seen = []

    def spy(spec, *args, **kwargs):
        seen.append((spec.gamma, census(spec, *args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(poles, "_census", spy)
    traj = trace_trajectories(ChainSpec(n, 0.0), 0.0, 2.0, steps=20, region=region)
    assert traj.gamma_samples == sorted(g for g, _ in seen)
    for g, records in seen:
        assert records == census(ChainSpec(n, g), region)
    census_at = dict(seen)
    for b in traj.branches:
        assert all(any(p is r for r in census_at[g]) for g, p in b.points)


def _census_once(record):
    """A census stand-in that returns ``[record]`` on its first call and ``[]`` after."""
    calls = iter([[record]])
    return lambda spec, *args, **kwargs: next(calls, [])


def test_lost_branch_is_logged(monkeypatch, caplog):
    """A pole that vanishes mid-window: three halved steps, then the branch is lost."""
    (tgbs,) = find_poles(ChainSpec(3, 0.7), first_quadrant_region(0.7))
    monkeypatch.setattr(poles, "_census", _census_once(tgbs))
    with caplog.at_level(logging.DEBUG, logger="ptchain"):
        traj = trace_trajectories(ChainSpec(3, 0.0), 0.7, 0.8, steps=10, strict=False)
    assert [b.lost for b in traj.branches] == [True]
    assert traj.gamma_samples[:5] == pytest.approx([0.7, 0.70125, 0.7025, 0.705, 0.71])
    assert len(traj.gamma_samples) == 14
    messages = [r.getMessage() for r in caplog.records]
    assert sum("halving the step" in m for m in messages) == 3
    assert any(f"branch 0 lost near gamma={traj.gamma_samples[1]!r}" in m for m in messages)


def test_lost_branch_raises_when_strict(monkeypatch):
    (tgbs,) = find_poles(ChainSpec(3, 0.7), first_quadrant_region(0.7))
    monkeypatch.setattr(poles, "_census", _census_once(tgbs))
    with pytest.raises(BranchLost, match="branch 0 lost"):
        trace_trajectories(ChainSpec(3, 0.0), 0.7, 0.8, steps=10)


def test_branch_leaving_the_window_ends(monkeypatch, caplog):
    """Unmatched within the matching bound of the window's edge, with no census
    pole left for it, a branch ends at once, without halving the step."""
    (tgbs,) = find_poles(ChainSpec(3, 0.7), first_quadrant_region(0.7))
    monkeypatch.setattr(poles, "_census", _census_once(tgbs))
    region = SearchRegion(1e-4, PI - 1e-4, -1.0, tgbs.k.im + 0.1)
    with caplog.at_level(logging.DEBUG, logger="ptchain"):
        traj = trace_trajectories(ChainSpec(3, 0.0), 0.7, 0.8, steps=10, region=region)
    assert [(b.lost, len(b.points)) for b in traj.branches] == [(False, 1)]
    assert len(traj.gamma_samples) == 11
    messages = [r.getMessage() for r in caplog.records]
    assert sum("halving the step" in m for m in messages) == 0
    assert not any("lost" in m for m in messages)


def test_branch_leaving_through_the_top_keeps_its_crossing():
    """A pole that crosses the real axis and leaves a low window within one step.

    Its last point lies below the axis within the matching bound of the top
    edge, so the step is halved until a sample catches it above the axis.
    """
    region = SearchRegion(1e-4, PI - 1e-4, -0.3, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = trace_trajectories(ChainSpec(1, 0.0), 0.0, 2.0, steps=10, region=region)
    assert [b.lost for b in traj.branches] == [False]
    (crossing,) = traj.crossings
    assert crossing.gamma == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert crossing.k.real == pytest.approx(0.5 * PI, abs=1e-9)


def test_pole_entering_fast_stays_one_branch():
    """At N=1 a pole rises 0.35 in k in one of 100 steps just after entering the strip.

    Its first point lies within the matching bound of the window's bottom;
    the halved step matches it instead of ending the branch and starting
    another.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = trace_trajectories(ChainSpec(1, 0.0), 0.0, 2.5, steps=100, strict=True)
    assert [len(b.points) for b in traj.branches] == [61, 61]
    assert len(traj.gamma_samples) == 102


def test_trajectory_validation():
    with pytest.raises(OutOfRange):
        trace_trajectories(ChainSpec(2, 0.0), -0.1, 1.0, steps=20)
    with pytest.raises(OutOfRange):
        trace_trajectories(ChainSpec(2, 0.0), 0.0, 1.0, steps=5)
    with pytest.raises(OutOfRange):
        trace_trajectories(ChainSpec(2, 0.0), 1.0, 0.5, steps=20)


# ---- residual evaluation ------------------------------------------------------

def test_plain_array_residual_matches_scalar_residual(rng):
    """The array expression the seed grid equals bitwise and the scalar evaluator agree to rounding."""
    for _ in range(60):
        spec = ChainSpec(int(rng.integers(1, 21)), float(rng.uniform(0.0, 2.2)))
        ks = rng.uniform(-PI, PI, 8) + 1j * rng.uniform(-1.5, 1.5, 8)
        ks[:2] = ks[:2].real  # real k takes the scalar path's real arithmetic
        ks = ks[np.abs(np.sin(ks)) > 1e-3]
        array = plain_m22_array(spec, ks)
        x = np.cos(2 * ks) + 0.5 * spec.gamma**2
        t_n, u_nm1 = chebyshev_tu(spec.n_cells, x)
        scale = np.abs(t_n) + np.abs(np.cos(ks) / np.sin(ks) * (1.0 - x) * u_nm1)
        for k, value, s in zip(ks, array, scale):
            assert abs(value - pole_residual(spec, complex(k))) <= 1e-13 * s


# ---- imaginary-axis exclusion --------------------------------------------------

def test_imaginary_branch_excluded_everywhere():
    for gamma in (0.4, 1.0, 2.2):
        spec = ChainSpec(3, gamma)
        for phi in np.linspace(0.05, 3.0, 25):
            assert imaginary_branch_excluded(spec, float(phi))


def test_imaginary_branch_requires_positive_phi():
    with pytest.raises(OutOfRange):
        imaginary_branch_excluded(ChainSpec(2, 0.5), 0.0)
