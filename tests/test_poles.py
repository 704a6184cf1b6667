"""Pole census, threshold ladder, and trajectory tracking.

The heavy cross-check here is the z-polynomial oracle (``zpoly_oracle``), an
independent high-precision route to the full pole set: no grids, no Newton
on ``M22``, no pencil shared with the implementation under test. Census
poles must lie within :data:`POLE_TOL` of its roots.
"""

import cmath
import dataclasses
import logging
import math
import re
import struct
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptchain import (
    BranchLost,
    ChainSpec,
    MissedRoots,
    OutOfRange,
    PoleClass,
    PoleRecord,
    SearchRegion,
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
from ptchain.scattering import chebyshev_tu
from census_references import full_newton, nested_loop_match
from onset_law import law_roots, onset_depths, onset_law
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


def _nearest_seed(k: complex, region: SearchRegion) -> complex | None:
    """The seed-lattice point nearest ``k``, or None when it lies on the lattice's border."""
    nr = max(4, int(math.ceil((region.re_max - region.re_min) * poles.SEED_DENSITY)) + 1)
    ni = max(4, int(math.ceil((region.im_max - region.im_min) * poles.SEED_DENSITY)) + 1)
    re, im = np.linspace(region.re_min, region.re_max, nr), np.linspace(region.im_min, region.im_max, ni)
    j, i = int(np.argmin(np.abs(re - k.real))), int(np.argmin(np.abs(im - k.imag)))
    return complex(re[j], im[i]) if 0 < j < len(re) - 1 and 0 < i < len(im) - 1 else None


FIG2 = [f"fig2{c}" for c in "abcdefghi"]


def _fig2_spec(preset: str) -> ChainSpec:
    return ChainSpec(PRESETS[preset]["n_cells"], PRESETS[preset]["gamma"])


@pytest.mark.parametrize("preset", FIG2)
def test_fig2_poles_are_grid_roots_bitwise(preset):
    """Each fig2 pole is, bit for bit, the Newton root from its eigenvalue's nearest lattice point, within 1e-12 of it."""
    spec = _fig2_spec(preset)
    pencil = poles._pencil_poles(spec, DEFAULT_REGION)
    found = [r.k.as_complex() for r in find_poles(spec)]
    assert len(found) == len(pencil) == 4 * spec.n_cells - 2
    for k in pencil:
        (pole,) = [f for f in found if abs(f - k) <= poles.GRID_ROOT_TOL]
        assert pole != k and pole == poles._newton(spec, _nearest_seed(k, DEFAULT_REGION))


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


#: Half-width, in lattice cells along each axis, of the full-lattice rule's window.
FULL_RULE_WINDOW = 2


@pytest.mark.parametrize("spec", [
    *map(_fig2_spec, FIG2), ChainSpec(8, 1e-4), ChainSpec(5, 1e-5),
], ids=[*FIG2, "8-1e-4", "5-1e-5"])
def test_find_poles_equals_the_full_lattice_rule_bitwise(spec):
    """Each pole is, to the bit, what the earlier full-lattice rule reports.

    That rule takes the interior local minima of ``|M22|`` on the whole seed
    lattice (``full_lattice_seeds``), deepest first, keeps those within two
    lattice cells of the eigenvalue along each axis and off the singular
    verticals, and reports the first Newton root from them that lands within
    1e-12 of it, or the eigenvalue. ``perfbench`` pins the fig2 bits, so they
    keep an oracle of their own; at (8, 1e-4) and (5, 1e-5) neither rule
    polishes any eigenvalue. Elsewhere the two rules may run Newton from
    different seeds and end on different last bits.
    """
    region = DEFAULT_REGION
    cell_re = (region.re_max - region.re_min) / math.ceil((region.re_max - region.re_min) * poles.SEED_DENSITY)
    cell_im = (region.im_max - region.im_min) / math.ceil((region.im_max - region.im_min) * poles.SEED_DENSITY)
    full = full_lattice_seeds(spec, region, poles.SEED_DENSITY)
    expected = []
    for k in poles._pencil_poles(spec, region):
        seeds = [
            s for s in full
            if abs(s.real - k.real) <= FULL_RULE_WINDOW * cell_re
            and abs(s.imag - k.imag) <= FULL_RULE_WINDOW * cell_im
            and not poles._near_singular_vertical(s)
        ]
        roots = (poles._newton(spec, s) for s in seeds)
        expected.append(next((r for r in roots if r is not None and abs(r - k) <= 1e-12), k))
    assert find_poles(spec) == poles._records(spec, expected)


@pytest.mark.parametrize("n, gamma", [(3, 0.3), (8, 4.0)])
def test_newton_runs_once_per_eigenvalue_from_its_nearest_lattice_point(n, gamma, monkeypatch):
    """One Newton run per pencil eigenvalue, in order, from the lattice point nearest it."""
    spec = ChainSpec(n, gamma)
    pencil = poles._pencil_poles(spec, DEFAULT_REGION)
    nearest = [_nearest_seed(k, DEFAULT_REGION) for k in pencil]
    assert pencil and None not in nearest
    newton, attempts = poles._newton, []

    def counted(spec, seed):
        attempts.append(seed)
        return newton(spec, seed)

    monkeypatch.setattr(poles, "_newton", counted)
    find_poles(spec)
    assert attempts == nearest


def test_failed_grid_seed_loses_no_pole(monkeypatch):
    """A seed Newton fails from is not retried; its eigenvalue is reported as it is."""
    spec = ChainSpec(3, 0.3)
    expected = find_poles(spec)
    pencil = poles._pencil_poles(spec, DEFAULT_REGION)
    newton, attempts = poles._newton, []

    def first_fails(spec, seed):
        attempts.append(seed)
        return None if len(attempts) == 1 else newton(spec, seed)

    monkeypatch.setattr(poles, "_newton", first_fails)
    found = find_poles(spec)
    # one chance per eigenvalue, from its nearest lattice point, and no other Newton run
    assert attempts == [_nearest_seed(k, DEFAULT_REGION) for k in pencil]
    assert [r.classification for r in found] == [r.classification for r in expected]
    for a, b in zip(found, expected):
        assert abs(a.k.as_complex() - b.k.as_complex()) <= poles.GRID_ROOT_TOL
    assert pencil[0] in [r.k.as_complex() for r in found]


def test_tall_region_allocates_no_lattice_array():
    """Newton runs from one lattice point per eigenvalue, so a 300-deep region costs well under 1 MB."""
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
        assert ladder.gamma_critical == min(ladder.gamma_values)
        assert ladder.gamma_critical == pytest.approx(
            2.0 * math.sin(PI / (4 * n_cells)), abs=1e-15
        )


def test_gamma_critical_is_the_ladder_value():
    """The public lowest ladder value is the one the ladder reports, and its last entry."""
    for n_cells in range(1, 201):
        ladder = threshold_ladder(n_cells)
        assert gamma_critical(n_cells) == ladder.gamma_critical
        assert gamma_critical(n_cells) == min(ladder.gamma_values)
    for n_cells in (*range(1, 2001), 10_000, 100_000):
        assert threshold_ladder(n_cells).gamma_values[-1] == gamma_critical(n_cells)


@pytest.mark.parametrize("n_cells", [0, -3])
def test_gamma_critical_rejects_sizes_below_one(n_cells):
    """Below one cell there is no ladder: ``2 sin(pi/4N)`` divides by zero at N = 0 and is negative below."""
    with pytest.raises(OutOfRange, match="n_cells must be >= 1"):
        gamma_critical(n_cells)
    with pytest.raises(OutOfRange, match="n_cells must be >= 1"):
        threshold_ladder(n_cells)


def test_ladder_is_strictly_descending():
    values = threshold_ladder(9).gamma_values
    assert all(a > b for a, b in zip(values, values[1:]))


def test_ladder_numeric_verification_runs():
    threshold_ladder(2, verify_numeric=True)  # raises MissedRoots on failure


@pytest.mark.parametrize("n_cells", [9, 11, 17, 26, 40])
def test_ladder_numeric_verification_at_larger_n(n_cells):
    threshold_ladder(n_cells, verify_numeric=True)


#: Every size to 200, then the large sizes where Newton's allowance rejected ladder values.
LADDER_SIZES = [*range(1, 201), 300, 500, 1000, 2000, 5000, 10_000]


def test_every_ladder_value_passes_the_residual_test():
    """All 38,900 ladder values at these sizes pass; a Newton run from pi/2 rejected 24, at N >= 2000."""
    for n_cells in LADDER_SIZES:
        threshold_ladder(n_cells, verify_numeric=True)


@pytest.mark.parametrize("n_cells", [3, 50, 10_000])
def test_ladder_midpoints_fail_the_residual_test(n_cells):
    """Halfway between consecutive ladder values no root sits at pi/2, and the test says so."""
    values = threshold_ladder(n_cells).gamma_values
    for a, b in zip(values, values[1:]):
        with pytest.raises(MissedRoots):
            poles._check_ladder_value(n_cells, 0.5 * (a + b))


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
    """At gamma_c(N) the size N is not yet growing; one ulp above, it is the critical size."""
    g4 = threshold_ladder(4).gamma_critical
    assert critical_size(g4) == 5
    for n_cells in (*range(1, 3001), 10**6, 10**7):
        g_c = gamma_critical(n_cells)
        assert critical_size(g_c) == n_cells + 1
        assert critical_size(math.nextafter(g_c, 3.0)) == n_cells


def test_critical_size_rejects_nonpositive():
    assert critical_size(0.0) is None  # no size is ever unphysical without gain
    with pytest.raises(OutOfRange):
        critical_size(-0.5)
    with pytest.raises(OutOfRange):
        critical_size(float("nan"))
    with pytest.raises(OutOfRange):
        critical_size(float("inf"))


def test_critical_size_is_the_least_unphysical_size(rng):
    """Over log-uniform gamma in [1e-12, 2): gamma_c(c) < gamma <= gamma_c(c - 1)."""
    for gamma in np.exp(rng.uniform(math.log(1e-12), math.log(2.0), 20_000)):
        c = critical_size(float(gamma))
        assert gamma_critical(c) < gamma
        assert c == 1 or gamma_critical(c - 1) >= gamma


@pytest.mark.parametrize("gamma", [1e-100, 1e-300, 1e-308, 2.2250738585072014e-308])
def test_critical_size_of_a_tiny_gamma_is_prompt(gamma):
    """Sizes up to ~1e308 take one doubling and one bisection, each of about 1000 steps."""
    start = time.perf_counter()
    c = critical_size(gamma)
    assert time.perf_counter() - start < 0.01
    assert isinstance(c, int) and c > 1e99
    assert gamma_critical(c) < gamma <= gamma_critical(c - 1)


@pytest.mark.parametrize("gamma", [1e-17, 1e-20, 3e-45])
def test_critical_size_is_exact_where_sizes_share_a_float(gamma):
    """Beyond N ~ 2**53 consecutive sizes share one float of gamma_critical; the
    answer is still the least size below gamma."""
    c = critical_size(gamma)
    assert gamma_critical(c) < gamma <= gamma_critical(c - 1)


@pytest.mark.parametrize("gamma", [5e-324, 1e-310])
def test_critical_size_rejects_a_subnormal_gamma(gamma):
    """The least size at these gammas exceeds the size bound, sys.float_info.max."""
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


def test_tgbs_count_verification_raises_on_a_census_missing_a_pole(monkeypatch):
    """A first-quadrant census one growing pole short of the closed form raises ``MissedRoots``."""
    spec = ChainSpec(3, 1.5)
    assert tgbs_count(spec, verify=True) == 2
    pencil = poles._pencil_poles
    monkeypatch.setattr(poles, "_pencil_poles",
                        lambda s, r: sorted(pencil(s, r), key=lambda k: k.imag)[:-1])
    assert tgbs_count(spec) == 2
    with pytest.raises(MissedRoots, match="count 2 != first-quadrant pole count 1"):
        tgbs_count(spec, verify=True)


def test_newton_returns_none_at_a_singular_basis():
    """A Newton run seeded where ``sin k = 0`` returns None rather than raise ``SingularBasis``."""
    spec = ChainSpec(3, 0.5)
    for seed in (0j, complex(PI, 0.0), complex(-PI, 0.0)):
        assert poles._newton(spec, seed) is None


@pytest.mark.parametrize("n", [3, 7])
def test_census_refuses_gamma_above_its_bound(n, monkeypatch):
    """At gamma = 1e50 the pencil returned spurious TGBS poles: every census raises before an eigensolve."""
    def no_eigensolve(a):
        raise AssertionError("eigensolve above the census bound")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigensolve)
    spec = ChainSpec(n, 1e50)
    for census in (
        lambda: find_poles(spec),
        lambda: find_poles(spec, first_quadrant_region(spec.gamma)),
        lambda: tgbs_count(spec, verify=True),
        lambda: trace_trajectories(ChainSpec(n, 0.0), 0.0, spec.gamma, steps=20),
        lambda: find_poles(ChainSpec(n, math.nextafter(poles.CENSUS_GAMMA_MAX, math.inf))),
    ):
        with pytest.raises(OutOfRange, match="census bound"):
            census()
    assert tgbs_count(spec) == n  # the closed form keeps the full range


@pytest.mark.parametrize("n", [3, 55, 200])
def test_census_verifies_the_ladder_count_at_its_bound(n):
    assert tgbs_count(ChainSpec(n, poles.CENSUS_GAMMA_MAX), verify=True) == n


# ---- large-N scaling law ------------------------------------------------------

@pytest.mark.parametrize("y", [1e-2, 1e-4, 1e-6])
def test_onset_law_roots_tend_to_the_ladder(y):
    """As y -> 0 the law's roots in g are ``(2m+1) pi/2``, the large-N ladder ``gamma N``,
    displaced by ``2y/g`` to first order."""
    roots = law_roots(lambda g: onset_law(g, y), 0.5, 20.0)
    ladder = [(2 * m + 1) * 0.5 * PI for m in range(6)]
    assert len(roots) == len(ladder)
    for g, g_m in zip(roots, ladder):
        assert abs(g - g_m) <= 2.0 * y / g_m + y * y


@pytest.mark.parametrize("n", [50, 100])
def test_census_follows_the_onset_law(n):
    """At gamma N = 10 the three growing poles' depths ``N Im k`` approach the law's
    roots as 1/N**2: within 20/N**2 (17.7/N**2 measured at N = 50, 100 and 200)."""
    depths = onset_depths(10.0)
    assert depths == pytest.approx([2.694886, 4.115416, 4.792289], abs=1e-6)
    spec = ChainSpec(n, 10.0 / n)
    tgbs = [r for r in find_poles(spec, first_quadrant_region(spec.gamma))
            if r.classification is PoleClass.TGBS]
    found = sorted(n * r.k.im for r in tgbs)
    assert len(found) == len(depths) == tgbs_count(spec)
    for y, law in zip(found, depths):
        assert abs(y - law) <= 20.0 / n**2


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


def test_default_strip_sweep_warns_when_a_branch_is_missing(monkeypatch):
    """On the default strip to gamma = 2, a last census one pole short warns: 2N-2 branches, not 2N-1."""
    spec = ChainSpec(3, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace_trajectories(spec, 0.0, 2.0, steps=20)
    census = poles._census
    monkeypatch.setattr(poles, "_census",
                        lambda s, r: census(s, r)[:-1] if s.gamma == 2.0 else census(s, r))
    with pytest.warns(UserWarning, match="observed 4 branches with Re k > 0, expected 5"):
        trace_trajectories(spec, 0.0, 2.0, steps=20, strict=False)


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


def test_crossings_lie_on_the_axis_at_n20(caplog):
    """Near gamma = 2 at N = 20, poles at k = ±pi/2 lie ~pi/2N apart, closer than
    the matching bound: a branch can swap poles between samples.

    Its Im k then changes sign with no root on the real axis. Each reported
    crossing is a verified root on the axis at a ladder value, and each such
    swap marks its branch lost with one DEBUG event. How many branches swap is
    the matching rule's business and is not pinned.
    """
    ladder = threshold_ladder(20).gamma_values
    with caplog.at_level(logging.DEBUG, logger="ptchain.poles"):
        traj = trace_trajectories(ChainSpec(20, 0.0), 1.9, 2.0, 10, strict=False)
    assert traj.crossings
    for c in traj.crossings:
        assert abs(c.k.imag) <= 1e-9
        assert abs(c.k.real) == 0.5 * PI
        assert min(abs(c.gamma - g) for g in ladder) <= 1e-8
    lost = [b.branch_id for b in traj.branches if b.lost]
    assert lost
    events = [r.getMessage() for r in caplog.records if "no root on the real axis" in r.getMessage()]
    assert sorted(int(m.split()[1]) for m in events) == lost
    with pytest.raises(BranchLost, match="no root on the real axis"):
        trace_trajectories(ChainSpec(20, 0.0), 1.9, 2.0, 10)


def test_swapped_branch_ends_at_the_swap(caplog):
    """At N = 20 a branch that swaps poles ends at the lower end of its DEBUG
    event's interval; a new branch starts above the axis at the upper end."""
    with caplog.at_level(logging.DEBUG, logger="ptchain.poles"):
        traj = trace_trajectories(ChainSpec(20, 0.0), 1.9, 2.0, 10, strict=False)
    events = [re.match(r"branch (\d+) lost between gamma=(\S+) and (\S+):", r.getMessage())
              for r in caplog.records]
    ends = {int(m[1]): (float(m[2]), float(m[3])) for m in events if m}
    lost = {b.branch_id: b for b in traj.branches if b.lost}
    assert lost and sorted(ends) == sorted(lost)
    starts = [(b.points[0][0], b.points[0][1].k.im >= 0.0) for b in traj.branches]
    for branch_id, (g0, g1) in ends.items():
        assert lost[branch_id].points[-1][0] == g0 < g1
        assert (g1, True) in starts
    assert [b.branch_id for b in traj.branches] == list(range(len(traj.branches)))


def test_trajectory_validation():
    with pytest.raises(OutOfRange):
        trace_trajectories(ChainSpec(2, 0.0), -0.1, 1.0, steps=20)
    with pytest.raises(OutOfRange):
        trace_trajectories(ChainSpec(2, 0.0), 0.0, 1.0, steps=5)
    with pytest.raises(OutOfRange):
        trace_trajectories(ChainSpec(2, 0.0), 1.0, 0.5, steps=20)


# ---- residual evaluation ------------------------------------------------------

def test_plain_array_residual_matches_scalar_residual(rng):
    """The full-lattice oracle's array expression and the scalar evaluator agree to rounding."""
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


# ---- repeated work -------------------------------------------------------------

def _bits(k: complex | None) -> bytes | None:
    return None if k is None else struct.pack("<2d", k.real, k.imag)


def _counted(monkeypatch, name: str) -> list[tuple]:
    """Replace ``poles.<name>`` by a wrapper that records each call's arguments."""
    calls, real = [], getattr(poles, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(poles, name, counted)
    return calls


@pytest.mark.parametrize("n, gamma", [(3, 0.7), (15, 1.185), (35, 1.545), (50, 0.285)])
def test_newton_ends_where_its_full_loop_ends(n, gamma, monkeypatch):
    """From seeds near every pencil pole, Newton returns what all its steps reach, bit for bit.

    The seeds are the lattice point nearest each eigenvalue, two seeded
    points within 0.02 of it, and its real part with Im k = +0.0 and -0.0.
    At (15, 1.185), (35, 1.545) and (50, 0.285) some runs stall on
    Re k = ±pi/2: the full loop takes all 60 steps, 181 evaluations, and the
    package's stops at a repeated iterate.
    """
    spec = ChainSpec(n, gamma)
    rng = np.random.default_rng(3100 + n)
    evaluations = _counted(monkeypatch, "_transfer_terms")
    stalled = 0
    for k in poles._pencil_poles(spec, DEFAULT_REGION):
        seeds = [k + complex(*rng.uniform(-0.02, 0.02, 2)) for _ in range(2)]
        seeds += [complex(k.real, 0.0), complex(k.real, -0.0)]
        nearest = _nearest_seed(k, DEFAULT_REGION)
        seeds += [] if nearest is None else [nearest]
        for seed in seeds:
            evaluations.clear()
            root = poles._newton(spec, seed)
            early = len(evaluations)
            assert _bits(root) == _bits(full_newton(spec, seed))
            stalled += len(evaluations) - early == 181 > early
    assert (stalled > 0) == (n >= 15)


def test_newton_stops_at_a_repeated_iterate(monkeypatch):
    """At (35, 1.545) fourteen lattice seeds run the full loop's 60 steps; stopping
    at the first repeated iterate halves the census's M22 evaluations (2,146
    against 4,224) and changes no pole."""
    spec = ChainSpec(35, 1.545)
    evaluations = _counted(monkeypatch, "_transfer_terms")
    found = find_poles(spec)
    early = len(evaluations)
    evaluations.clear()
    monkeypatch.setattr(poles, "_newton", full_newton)
    assert find_poles(spec) == found
    assert early < 0.6 * len(evaluations)


def test_sweep_evaluates_m22_only_inside_newton(monkeypatch):
    """A 100-step sweep at N = 8 reads no record's residual: every ``pole_residual``
    call comes from the Newton runs of its crossing refinement."""
    depth, newton = [0], poles._newton

    def tracked(*args):
        depth[0] += 1
        try:
            return newton(*args)
        finally:
            depth[0] -= 1

    inside, real = [], poles.pole_residual
    monkeypatch.setattr(poles, "_newton", tracked)
    monkeypatch.setattr(poles, "pole_residual", lambda *args: inside.append(depth[0] > 0) or real(*args))
    traj = trace_trajectories(ChainSpec(8, 0.0), 0.0, 2.0, 100, strict=False)
    assert traj.crossings and inside and all(inside)


def test_residual_is_evaluated_on_first_read_only(monkeypatch):
    """``residual`` is |M22| at the record's own k and spec, evaluated once; equality
    compares ``spec`` and ignores whether ``residual`` was read."""
    spec = ChainSpec(3, 0.7)
    calls = _counted(monkeypatch, "pole_residual")
    (pole,) = poles._census(spec, first_quadrant_region(0.7))
    assert calls == []
    residual = pole.residual
    assert pole.residual == residual and calls == [(spec, pole.k.as_complex())]
    assert residual == abs(pole_residual(spec, pole.k.as_complex()))
    (twin,) = poles._census(spec, first_quadrant_region(0.7))
    assert twin == pole and hash(twin) == hash(pole)
    assert PoleRecord(pole.k, ChainSpec(3, 0.71)) != pole


def test_record_is_its_wavenumber_and_chain(monkeypatch):
    """A record's fields are ``k`` and ``spec``; its energy, growth rate and class
    are derived from them on first read, so a sweep, which reads only ``k``, computes none."""
    assert [f.name for f in dataclasses.fields(PoleRecord)] == ["k", "spec"]
    energies = _counted(monkeypatch, "dispersion_energy")
    classes = _counted(monkeypatch, "_classify")
    assert trace_trajectories(ChainSpec(4, 0.0), 0.0, 2.0, 50).crossings
    assert energies == [] and classes == []
    (pole,) = find_poles(ChainSpec(3, 0.7), first_quadrant_region(0.7))
    k = pole.k.as_complex()
    energy = -2.0 * cmath.cos(k)
    assert (pole.energy, pole.growth_rate, pole.classification) == (energy, energy.imag, PoleClass.TGBS)
    assert energies == [(k,)] and classes == [(k,)]  # one evaluation each, cached


def test_matcher_equals_the_nested_loop(rng):
    """The array matcher pairs exactly as the nested-loop reference, ties included.

    Half the draws put branches and poles on a lattice of step 1/16, where
    equal offsets give bit-equal distances; the other half are continuous.
    ``np.hypot`` of the parts equals ``abs`` of the complex difference.
    """
    ties = 0
    for trial in range(400):
        sizes = rng.integers(0, 12, 2)
        if trial % 2:
            last, found = ((rng.integers(-5, 6, m) + 1j * rng.integers(-5, 6, m)) / 16 for m in sizes)
        else:
            last, found = (rng.uniform(-0.5, 0.5, m) + 1j * rng.uniform(-0.5, 0.5, m) for m in sizes)
        expected = nested_loop_match(last.tolist(), found.tolist())
        assert list(poles._match(last, found).items()) == list(expected.items())
        diff = (found[None, :] - last[:, None]).ravel()
        distances = np.hypot(diff.real, diff.imag)
        assert distances.tobytes() == np.array([abs(z) for z in diff.tolist()]).tobytes()
        near = distances[distances <= poles.CONTINUATION_STEP_BOUND]
        ties += len(near) - len(set(near.tolist()))
    assert ties > 0
    wide = rng.uniform(-1, 1, 2000) * 10.0 ** rng.uniform(-300, 300, 2000)
    parts = wide.reshape(2, -1)
    assert np.hypot(*parts).tobytes() == np.array([abs(complex(a, b)) for a, b in parts.T]).tobytes()


def test_region_tests_take_arrays(rng):
    """``SearchRegion.contains`` and ``_near_singular_vertical`` give on an array what
    they give on each element, and a ``bool`` on a scalar."""
    region = SearchRegion(-2.5, 3.0, -1.0, 1.5)
    edges = [region.re_min, region.re_max, -PI, 0.0, PI, -PI + EDGE_MARGIN, EDGE_MARGIN, -EDGE_MARGIN]
    re = np.concatenate([rng.uniform(-PI, PI, 300), np.repeat(edges, 3) + [-1e-9, 0.0, 1e-9] * len(edges)])
    im = np.concatenate([rng.uniform(-2.0, 2.0, 300), np.tile([region.im_min, region.im_max, -1.0 - 1e-9], len(edges))])
    ks = re + 1j * im
    for pad in (1e-9, 0.0, -poles.CONTINUATION_STEP_BOUND):
        expected = [
            region.re_min - pad <= k.real <= region.re_max + pad
            and region.im_min - pad <= k.imag <= region.im_max + pad
            for k in ks.tolist()
        ]
        assert region.contains(ks, pad).tolist() == expected
        assert [region.contains(k, pad) for k in ks.tolist()] == expected
    expected = [any(abs(k.real - s) < EDGE_MARGIN for s in (-PI, 0.0, PI)) for k in ks.tolist()]
    assert poles._near_singular_vertical(ks).tolist() == expected
    assert [poles._near_singular_vertical(k) for k in ks.tolist()] == expected
    assert type(region.contains(0.5 + 0.5j)) is bool and type(poles._near_singular_vertical(0.5j)) is bool
