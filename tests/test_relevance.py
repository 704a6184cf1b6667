"""Physicality verdicts, special scattering points, and size scans."""

import math
import sys
import warnings

import mpmath
import pytest

from ptchain import (
    BlochRegime,
    ChainSpec,
    OutOfRange,
    RelevanceRegime,
    SpecialPointKind,
    SpectralSingularityError,
    band_edge_points,
    cpa_laser_points,
    energy_to_wavenumber,
    fabry_perot_points,
    gamma_critical,
    scatter,
    tgbs_count,
    threshold_ladder,
    transmission_closed_form,
    transmission_vs_size,
    verdict,
)
from ptchain.poles import _ladder_value
from transfer_oracles import evanescent_decay_reference


def test_verdict_regimes():
    assert verdict(ChainSpec(3, 0.3)).regime is RelevanceRegime.RELEVANT
    assert verdict(ChainSpec(3, 0.7)).regime is RelevanceRegime.UNPHYSICAL
    assert verdict(ChainSpec(10, 0.1)).regime is RelevanceRegime.RELEVANT
    gc = threshold_ladder(3).gamma_critical
    assert verdict(ChainSpec(3, gc)).regime is RelevanceRegime.CRITICAL_SINGULARITY
    # at gamma_c the pole is on the axis and nothing grows; one ulp above, one state grows
    for n_cells in (*range(1, 3001), 10**4, 10**5, 10**6, 10**7):
        g_c = gamma_critical(n_cells)
        at = verdict(ChainSpec(n_cells, g_c))
        above = verdict(ChainSpec(n_cells, math.nextafter(g_c, 3.0)))
        assert (at.regime, at.tgbs_count) == (RelevanceRegime.CRITICAL_SINGULARITY, 0)
        assert (above.regime, above.tgbs_count) == (RelevanceRegime.UNPHYSICAL, 1)


def test_verdict_counts_at_every_accepted_size():
    """The ladder count is a bisection, exact at sizes no ``range`` can hold."""
    assert verdict(ChainSpec(10**20, 0.1)).tgbs_count == 3184426647332068608
    largest = int(sys.float_info.max)
    for n_cells in (2**63, 10**300, largest):
        assert verdict(ChainSpec(n_cells, 2.5)).tgbs_count == n_cells
        for gamma in (1e-300, 0.1, 1.9):
            count = verdict(ChainSpec(n_cells, gamma)).tgbs_count
            assert _ladder_value(count, n_cells) < gamma <= _ladder_value(count + 1, n_cells)


def test_verdict_counts_and_margin():
    v = verdict(ChainSpec(3, 1.5))
    assert v.regime is RelevanceRegime.UNPHYSICAL
    assert v.tgbs_count == 2
    assert v.margin == pytest.approx(threshold_ladder(3).gamma_critical - 1.5)
    assert verdict(ChainSpec(3, 0.3)).tgbs_count == 0


@pytest.mark.parametrize("n_cells", [1, 3, 8])
def test_verdict_counts_as_tgbs_count(n_cells):
    """The verdict's count is the ladder count, ladder values themselves (on the axis) excluded."""
    for g in (*threshold_ladder(n_cells).gamma_values, 0.0, 0.3, 1.0, 1.99, 2.5):
        for gamma in (g, math.nextafter(g, 0.0), math.nextafter(g, 3.0)):
            spec = ChainSpec(n_cells, gamma)
            assert verdict(spec).tgbs_count == tgbs_count(spec)


def test_band_edge_points_predictions():
    spec = ChainSpec(1, 1.0)
    points = band_edge_points(spec)
    assert len(points) == 2
    energies = sorted(p.energy for p in points)
    assert energies == pytest.approx([-math.sqrt(3.0), math.sqrt(3.0)], abs=1e-12)
    for p in points:
        assert p.kind is SpecialPointKind.BAND_EDGE_ATR
        assert p.physical  # gamma = 1 < gamma_c(1) = sqrt(2)
        res = scatter(spec, p.k)
        assert res.T == pytest.approx(1.0, abs=1e-9)
        assert res.R_right <= 1e-18
        # one-sided reflection 4 N^2 gamma^2
        assert res.R_left == pytest.approx(4.0, abs=1e-6)


def test_band_edge_gamma_window():
    """No band-edge point lies on the open axis at gamma = 0 or gamma >= 2: none is listed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gamma in (0.0, 2.0, 3.0):
            assert band_edge_points(ChainSpec(2, gamma)) == []


def _wavenumber_40_digits(energy_squared: mpmath.mpf, sign: float) -> mpmath.mpf:
    """``acos(-E/2)`` of ``E = sign * sqrt(energy_squared)`` in 40 digits."""
    return mpmath.acos(-sign * mpmath.sqrt(energy_squared) / 2)


@pytest.mark.parametrize("gamma", [1e-12, 1e-8, 1e-5, 0.5, 1.9])
def test_band_edge_wavenumbers_are_correctly_rounded(gamma):
    """``k`` within 2 ulp of 40 digits, also where ``E = ±sqrt(4 - gamma^2)`` rounds to ±2."""
    with mpmath.workdps(40):
        for p in band_edge_points(ChainSpec(3, gamma)):
            want = _wavenumber_40_digits(4 - mpmath.mpf(gamma) ** 2, math.copysign(1.0, p.energy))
            assert abs(p.k - want) <= 2 * math.ulp(p.k), (p.energy, p.k)


def test_fabry_perot_wavenumbers_are_correctly_rounded():
    """At N = 20000 the outermost resonances (``k`` near 0, pi) and the innermost (near pi/2)."""
    n, gamma = 20000, 1e-6
    points = [p for p in fabry_perot_points(ChainSpec(n, gamma)) if p.n_index in (1, n - 1)]
    assert len(points) == 4
    with mpmath.workdps(40):
        for p in points:
            radicand = 4 * mpmath.cos(p.n_index * mpmath.pi / (2 * n)) ** 2 - mpmath.mpf(gamma) ** 2
            want = _wavenumber_40_digits(radicand, math.copysign(1.0, p.energy))
            assert abs(p.k - want) <= 2 * math.ulp(p.k), (p.n_index, p.energy, p.k)


def test_fabry_perot_points_joint_zeros():
    spec = ChainSpec(2, 1.0)
    points = fabry_perot_points(spec)
    assert sorted(p.energy for p in points) == pytest.approx([-1.0, 1.0], abs=1e-12)
    for p in points:
        assert p.kind is SpecialPointKind.FABRY_PEROT
        assert p.n_index == 1
        assert not p.physical  # gamma = 1 > gamma_c(2) ~ 0.765
        res = scatter(spec, p.k)
        assert res.T == pytest.approx(1.0, abs=1e-9)
        assert res.R_left <= 1e-18 and res.R_right <= 1e-18


def test_fabry_perot_count_drops_in_evanescent_window():
    # N=4: m = 1..3 exist at gamma = 0.2; large gamma removes outer ones
    assert len(fabry_perot_points(ChainSpec(4, 0.2))) == 6
    points = fabry_perot_points(ChainSpec(4, 1.6))
    ms = sorted({p.n_index for p in points})
    assert ms == [1]  # 4 cos^2(m pi/8) < gamma^2 already for m = 2
    assert fabry_perot_points(ChainSpec(1, 0.5)) == []
    # N = 3, gamma = 1: m = 2 sits at the degeneracy 4 cos^2(pi/3) = gamma^2,
    # though its rounded radicand is 4.4e-16
    points = fabry_perot_points(ChainSpec(3, 1.0))
    assert [p.n_index for p in points] == [1, 1]
    assert sorted(p.energy for p in points) == pytest.approx([-math.sqrt(2), math.sqrt(2)], abs=1e-15)


def test_cpa_laser_points_ladder():
    points = cpa_laser_points(3)
    assert len(points) == 3
    assert all(p.k == pytest.approx(0.5 * math.pi) for p in points)
    assert all(p.energy == 0.0 for p in points)
    gammas = [p.gamma for p in points]
    assert gammas == pytest.approx(list(threshold_ladder(3).gamma_values))
    physical = [p for p in points if p.physical]
    assert len(physical) == 1
    assert physical[0].gamma == pytest.approx(threshold_ladder(3).gamma_critical)


def test_transmission_vs_size_propagating_quasiperiod():
    scan = transmission_vs_size(0.3, 1.93, 60)
    assert scan.rows[0].regime is BlochRegime.PROPAGATING
    assert scan.log_slope is None
    assert scan.quasiperiod == pytest.approx(7.26, abs=0.15)
    # physicality flips once N reaches the critical size 6
    flags = [r.physical for r in scan.rows]
    assert flags[:5] == [True] * 5
    assert not any(flags[5:])


def test_transmission_vs_size_evanescent_slope():
    scan = transmission_vs_size(0.3, 1.98, 80)
    assert scan.rows[0].regime is BlochRegime.EVANESCENT
    assert scan.quasiperiod is None
    reference = evanescent_decay_reference(0.3, 1.98)
    assert reference == pytest.approx(4 * 0.0509682, abs=1e-5)
    assert scan.log_slope == pytest.approx(-reference, rel=0.01)


def _per_size_rows(gamma, energy, n_max):
    """``(N, T, physical)`` of a size scan from its definition, one chain at a time."""
    k = energy_to_wavenumber(energy)
    rows = []
    for n in range(1, n_max + 1):
        spec = ChainSpec(n, gamma)
        physical = verdict(spec).regime is RelevanceRegime.RELEVANT
        rows.append((n, transmission_closed_form(spec, k), physical))
    return rows


def _rows(scan):
    return [(r.n_cells, r.transmission, r.physical) for r in scan.rows]


@pytest.mark.parametrize(
    "gamma, energy, n_max",
    [
        (0.3, 1.93, 60),  # propagating, physicality flips at N = 6
        (threshold_ladder(6).gamma_critical, 1.0, 20),  # critical at N = 6
        (1.5, 1.9, 1000),  # evanescent: U_{N-1} overflows, T = 0.0 from N = 279
        (1e-3, -1.2, 400),
    ],
)
def test_transmission_vs_size_equals_the_per_size_definition(gamma, energy, n_max):
    assert _rows(transmission_vs_size(gamma, energy, n_max)) == _per_size_rows(gamma, energy, n_max)


def test_transmission_vs_size_raises_at_the_first_singular_size():
    gamma = threshold_ladder(3).gamma_values[0]  # T diverges at k = pi/2 for N = 3, not N < 3
    assert _rows(transmission_vs_size(gamma, 0.0, 2)) == _per_size_rows(gamma, 0.0, 2)
    with pytest.raises(SpectralSingularityError) as want:
        _per_size_rows(gamma, 0.0, 10)
    with pytest.raises(SpectralSingularityError) as got:
        transmission_vs_size(gamma, 0.0, 10)
    assert str(got.value) == str(want.value)


def test_transmission_vs_size_slope_skips_underflowed_sizes():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scan = transmission_vs_size(1.5, 1.9, 1000)
    assert sum(r.transmission == 0.0 for r in scan.rows) == 722
    assert scan.log_slope == pytest.approx(-evanescent_decay_reference(1.5, 1.9), abs=1e-6)


def test_transmission_vs_size_validation():
    with pytest.raises(OutOfRange):
        transmission_vs_size(0.0, 1.5, 10)
    with pytest.raises(OutOfRange):
        transmission_vs_size(0.3, 2.5, 10)
    for energy in (2.0, math.nan):
        with pytest.raises(OutOfRange, match=r"energy must lie in \(-2, 2\)"):
            transmission_vs_size(0.3, energy, 10)
    with pytest.raises(OutOfRange):
        transmission_vs_size(0.3, 1.5, 0)
