"""Lattice layout, Hamiltonian assembly, and wave-packet propagation."""

import logging
import math

import numpy as np
import pytest

import scipy.linalg
from scipy.sparse.linalg import expm_multiply

from ptchain import (
    ChainSpec,
    DecompositionFailed,
    InsufficientGrowth,
    LatticeLayout,
    NumericalFailure,
    OutOfRange,
    PoleClass,
    build_hamiltonian,
    evolve,
    find_poles,
    gamma_critical,
    gaussian_packet,
    growth_rate_fit,
    intensity_split,
    prepare_propagator,
    validity_horizon,
)
from ptchain import dynamics


def test_layout_centered_indexing():
    layout = LatticeLayout.centered(1200, 3)
    assert layout.scatter_start == 597
    assert layout.lead_right_len == 597
    assert layout.global_index(0) == 597
    assert layout.global_index(-300) == 297
    offsets = layout.site_offsets()
    assert offsets[0] == -597 and offsets[-1] == 602
    assert len(offsets) == 1200


def test_layout_validation():
    with pytest.raises(OutOfRange):
        LatticeLayout(total_sites=8, n_cells=4, scatter_start=1)  # no room
    with pytest.raises(OutOfRange):
        LatticeLayout.centered(5, 3)
    with pytest.raises(OutOfRange):
        LatticeLayout(total_sites=8, n_cells=2, scatter_start=-1)  # a negative left lead


def test_hamiltonian_structure():
    layout = LatticeLayout.centered(20, 2)
    spec = ChainSpec(2, 0.9)
    h = build_hamiltonian(layout, spec).toarray()
    assert h.shape == (20, 20)
    # hopping -1 on the two off-diagonals, nothing further out
    assert np.allclose(np.diag(h, 1), -1.0)
    assert np.allclose(np.diag(h, -1), -1.0)
    assert np.count_nonzero(h - np.diag(np.diag(h)) - np.diag(np.diag(h, 1), 1) - np.diag(np.diag(h, -1), -1)) == 0
    diag = np.diag(h)
    s = layout.scatter_start
    assert np.allclose(diag[:s], 0.0)
    assert np.allclose(diag[s + 4 :], 0.0)
    assert diag[s] == 0.9j and diag[s + 1] == -0.9j
    assert diag[s + 2] == 0.9j and diag[s + 3] == -0.9j


def test_hamiltonian_hermitian_when_gamma_zero():
    layout = LatticeLayout.centered(30, 3)
    h = build_hamiltonian(layout, ChainSpec(3, 0.0)).toarray()
    assert np.allclose(h, h.conj().T)


def test_hamiltonian_layout_mismatch():
    layout = LatticeLayout.centered(30, 3)
    with pytest.raises(OutOfRange):
        build_hamiltonian(layout, ChainSpec(4, 0.1))


def test_gaussian_packet_is_normalized():
    layout = LatticeLayout.centered(400, 3)
    psi = gaussian_packet(layout, j0=-100, sigma=20.0, k0=0.5 * math.pi)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    # intensity-weighted center sits at j0
    density = np.abs(psi) ** 2
    center = float(density @ layout.site_offsets())
    assert center == pytest.approx(-100.0, abs=0.5)


def test_gaussian_packet_clearance_warning():
    """A packet near the scattering region warns, and so does one inside it."""
    for total_sites, n_cells, j0, sigma in ((200, 3, -10, 30.0), (1200, 100, 10, 3.0)):
        layout = LatticeLayout.centered(total_sites, n_cells)
        with pytest.warns(UserWarning):
            gaussian_packet(layout, j0=j0, sigma=sigma, k0=0.5 * math.pi)


def test_propagator_biorthogonality():
    layout = LatticeLayout.centered(80, 3)
    h = build_hamiltonian(layout, ChainSpec(3, 0.3))
    bundle = prepare_propagator(h)
    assert not bundle.near_defective
    assert bundle.spectral_residual <= 1e-8
    gram = bundle.left_modes.conj().T @ bundle.right_modes
    assert np.allclose(gram, np.eye(80), atol=1e-8)


def test_propagator_accepts_a_dense_hamiltonian():
    """A dense ``h`` gives the bundle of its CSR form, bit for bit."""
    layout = LatticeLayout.centered(40, 2)
    h = build_hamiltonian(layout, ChainSpec(2, 0.7))
    sparse, dense = prepare_propagator(h), prepare_propagator(h.toarray())
    assert sparse.eigenvalues.tobytes() == dense.eigenvalues.tobytes()
    assert sparse.right_modes.tobytes() == dense.right_modes.tobytes()
    assert sparse.spectral_residual == dense.spectral_residual
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(dense.hamiltonian, part), getattr(h, part))


def test_evolve_identity_at_t_zero():
    layout = LatticeLayout.centered(60, 2)
    h = build_hamiltonian(layout, ChainSpec(2, 0.5))
    bundle = prepare_propagator(h)
    psi0 = gaussian_packet(layout, j0=-16, sigma=4.0, k0=1.2)
    out = evolve(bundle, psi0, 0.0)
    assert np.allclose(out, psi0, atol=1e-10)


def test_evolve_rejects_negative_time():
    layout = LatticeLayout.centered(40, 1)
    bundle = prepare_propagator(build_hamiltonian(layout, ChainSpec(1, 0.1)))
    psi0 = gaussian_packet(layout, j0=-10, sigma=3.0, k0=1.0)
    with pytest.raises(OutOfRange):
        evolve(bundle, psi0, -1.0)
    for t in (float("nan"), float("inf")):
        with pytest.raises(OutOfRange):
            evolve(bundle, psi0, t)
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(OutOfRange):
            gaussian_packet(layout, j0=-10, sigma=sigma, k0=1.0)
    # packets without a finite nonzero norm on the lattice: off the lattice
    # (every amplitude underflows to 0) and a width whose exponent is 0/0
    with pytest.warns(UserWarning), pytest.raises(OutOfRange):
        gaussian_packet(layout, j0=500, sigma=3.0, k0=1.0)
    with pytest.raises(OutOfRange):
        gaussian_packet(layout, j0=-10, sigma=1e-300, k0=1.0)


def test_evolve_raises_when_the_intensity_leaves_the_double_range():
    """N = 3, gamma = 0.7 grows like e^{0.28 t}: finite at t = 100, beyond the double range at 1e5."""
    layout = LatticeLayout.centered(200, 3)
    bundle = prepare_propagator(build_hamiltonian(layout, ChainSpec(3, 0.7)))
    psi0 = gaussian_packet(layout, j0=-50, sigma=10.0, k0=0.5 * math.pi)
    assert math.isfinite(intensity_split(evolve(bundle, psi0, 100.0), layout).total)
    for t in (1500.0, 1e5):  # finite amplitudes whose intensity overflows, then none finite
        with pytest.raises(NumericalFailure, match="not finite"):
            evolve(bundle, psi0, t)


def test_unitary_evolution_without_gain_loss():
    layout = LatticeLayout.centered(120, 3)
    h = build_hamiltonian(layout, ChainSpec(3, 0.0))
    bundle = prepare_propagator(h)
    psi0 = gaussian_packet(layout, j0=-30, sigma=8.0, k0=0.5 * math.pi)
    state = evolve(bundle, psi0, 40.0)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)


def test_spectral_path_matches_forced_fallback(monkeypatch):
    layout = LatticeLayout.centered(60, 3)
    h = build_hamiltonian(layout, ChainSpec(3, 0.5))
    psi0 = gaussian_packet(layout, j0=-12, sigma=4.0, k0=1.3)
    spectral = evolve(prepare_propagator(h), psi0, 6.0)
    monkeypatch.setattr(dynamics, "NEAR_DEFECTIVE_CONDITION", 0.0)
    bundle = prepare_propagator(h)
    assert bundle.near_defective
    direct = evolve(bundle, psi0, 6.0)
    assert np.max(np.abs(spectral - direct)) < 1e-12


def test_near_defective_falls_back_to_expm_multiply(caplog):
    # 2x2 Jordan block: exp(-iHt) = I - iHt exactly (H nilpotent)
    h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    caplog.set_level(logging.DEBUG, logger="ptchain.dynamics")
    bundle = prepare_propagator(h)
    assert bundle.near_defective
    psi0 = np.array([0.3 + 0.0j, 0.7 + 0.0j])
    out = evolve(bundle, psi0, 2.0)
    expected = psi0 - 2.0j * (h @ psi0)
    assert np.allclose(out, expected, atol=1e-10)
    messages = [r.getMessage() for r in caplog.records if r.name == "ptchain.dynamics"]
    assert len(messages) == 2
    assert "near-defective spectrum (condition estimate" in messages[0]
    assert "stepping by expm_multiply to t=2.0" in messages[1]


def test_intensity_split_partitions_norm():
    layout = LatticeLayout.centered(50, 2)
    h = build_hamiltonian(layout, ChainSpec(2, 0.4))
    bundle = prepare_propagator(h)
    psi0 = gaussian_packet(layout, j0=-10, sigma=3.0, k0=1.4)
    state = evolve(bundle, psi0, 12.0)
    split = intensity_split(state, layout)
    assert split.total == pytest.approx(
        float(np.sum(np.abs(state) ** 2)), rel=1e-12
    )
    assert split.reflected >= 0 and split.central >= 0 and split.transmitted >= 0


def test_intensity_split_region_boundaries():
    layout = LatticeLayout.centered(20, 2)
    amps = np.zeros(20, dtype=complex)
    amps[layout.global_index(-1)] = 1.0  # last left-lead site
    amps[layout.global_index(0)] = 1.0  # first scattering site
    amps[layout.global_index(4)] = 1.0  # first right-lead site (j = 2N)
    split = intensity_split(amps, layout)
    assert split.reflected == pytest.approx(1.0)
    assert split.central == pytest.approx(1.0)
    assert split.transmitted == pytest.approx(1.0)


def test_growth_rate_fit_recovers_exponent():
    times = np.linspace(0.0, 30.0, 16)
    series = [(float(t), float(math.exp(2 * 0.28 * t))) for t in times]
    assert growth_rate_fit(series) == pytest.approx(0.28, rel=1e-12)


def test_growth_rate_fit_guards():
    flat = [(0.0, 1.0), (1.0, 1.01), (2.0, 1.02)]
    with pytest.raises(InsufficientGrowth):
        growth_rate_fit(flat)
    # explicit opt-out for marginal (threshold) series
    assert growth_rate_fit(flat, min_decades=0.0) == pytest.approx(0.00497, abs=1e-4)
    with pytest.raises(OutOfRange):
        growth_rate_fit([(0.0, 1.0)])
    with pytest.raises(OutOfRange):
        growth_rate_fit([(0.0, 1.0), (1.0, -2.0)], min_decades=0.0)
    # a NaN intensity is not <= 0, and would fit a NaN rate
    for bad in (math.nan, math.inf):
        with pytest.raises(OutOfRange, match="finite"):
            growth_rate_fit([(0.0, 1.0), (1.0, bad)], min_decades=0.0)
        with pytest.raises(OutOfRange, match="finite"):
            growth_rate_fit([(0.0, 1.0), (bad, 2.0)], min_decades=0.0)


def test_validity_horizon_reference_packet():
    layout = LatticeLayout.centered(1200, 3)
    assert validity_horizon(layout, -300, 0.5 * math.pi) == pytest.approx(448.5)
    # slower carrier -> longer horizon
    assert validity_horizon(layout, -300, 0.4) > 448.5


def _eig_returning(monkeypatch, change):
    """Make ``scipy.linalg.eig`` return ``change(w, vl, vr)`` of its true output."""
    eig = scipy.linalg.eig
    monkeypatch.setattr(scipy.linalg, "eig", lambda *a, **kw: change(*eig(*a, **kw)))


def test_decomposition_failed_has_three_causes(monkeypatch):
    """A solver error, a non-finite eigenvalue and a residual above 1e-8 each raise it."""
    h = build_hamiltonian(LatticeLayout.centered(40, 3), ChainSpec(3, 0.4))
    prepare_propagator(h)

    def unconverged(*args, **kwargs):
        raise scipy.linalg.LinAlgError("eig algorithm did not converge")

    monkeypatch.setattr(scipy.linalg, "eig", unconverged)
    with pytest.raises(DecompositionFailed, match="did not converge"):
        prepare_propagator(h)
    monkeypatch.undo()

    def one_nan(w, vl, vr):
        w[7] = complex(math.nan, 0.0)
        return w, vl, vr

    _eig_returning(monkeypatch, one_nan)
    with pytest.raises(DecompositionFailed, match="non-finite"):
        prepare_propagator(h)
    monkeypatch.undo()

    # one eigenvalue off by 1e-6: the residual is ~1e-7 of ||H||, above 1e-8
    def shifted(w, vl, vr):
        w[7] += 1e-6
        return w, vl, vr

    _eig_returning(monkeypatch, shifted)
    with pytest.raises(DecompositionFailed, match="residual"):
        prepare_propagator(h)


def _site_intensities(n_cells: int, gamma: float, t_end: float) -> list[tuple[float, float]]:
    """Total intensity at 41 times on ``[0, t_end]`` of a state that starts on the first gain site.

    Each lead holds ``ceil(1.1 * 2 t_end)`` sites: a front moves at most at
    speed 2, so none returns from a wall. One ``expm_multiply`` run gives
    all 41 states; ``evolve`` is not involved.
    """
    lead = math.ceil(1.1 * 2.0 * t_end)
    layout = LatticeLayout(2 * lead + 2 * n_cells, n_cells, lead)
    h = build_hamiltonian(layout, ChainSpec(n_cells, gamma))
    psi0 = np.zeros(layout.total_sites, dtype=complex)
    psi0[layout.global_index(0)] = 1.0
    states = expm_multiply(-1j * h, psi0, start=0.0, stop=t_end, num=41, endpoint=True)
    times = np.linspace(0.0, t_end, 41)
    return [(float(t), float(np.vdot(s, s).real)) for t, s in zip(times, states)]


def _census_rate(n_cells: int, gamma: float) -> float:
    """The largest growth rate of a time-growing bound state in the pole census."""
    poles = find_poles(ChainSpec(n_cells, gamma))
    return max(p.growth_rate for p in poles if p.classification is PoleClass.TGBS)


def _ten_decades(rate: float) -> float:
    """The time in which an intensity growing at amplitude rate ``rate`` gains ten decades."""
    return 10.0 * math.log(10.0) / (2.0 * rate)


@pytest.mark.parametrize("ratio", [1.2, 2.0])
def test_census_growth_rate_is_the_wave_packet_rate_at_ten_cells(ratio):
    """Above threshold at N = 10, a state on the first gain site grows at the census pole's rate.

    The rate is fitted over the last 9 of 41 points, the last fifth of ten
    decades of growth. The relative gap is 7.8e-8 at 1.2 gamma_c (1,088
    sites) and 4.3e-7 at 2 gamma_c (258 sites).
    """
    gamma = ratio * gamma_critical(10)
    rate = _census_rate(10, gamma)
    tail = _site_intensities(10, gamma, _ten_decades(rate))[-9:]
    fitted = growth_rate_fit(tail, min_decades=1.0)
    assert abs(fitted - rate) <= 1e-5 * rate


@pytest.mark.parametrize("ratio", [0.8, 1.0])
def test_no_growth_at_or_below_threshold_at_ten_cells(ratio):
    """At and below gamma_c the same run, for the time of 1.2 gamma_c, grows by less than a decade.

    Its last fifth spans 0.00 decades at 0.8 gamma_c and 0.08 at gamma_c.
    """
    t_end = _ten_decades(_census_rate(10, 1.2 * gamma_critical(10)))
    tail = _site_intensities(10, ratio * gamma_critical(10), t_end)[-9:]
    with pytest.raises(InsufficientGrowth):
        growth_rate_fit(tail, min_decades=1.0)
