"""Lattice layout, Hamiltonian assembly, and wave-packet propagation."""

import logging
import math

import numpy as np
import pytest

from ptchain import (
    ChainSpec,
    InsufficientGrowth,
    LatticeLayout,
    NumericalFailure,
    OutOfRange,
    build_hamiltonian,
    evolve,
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
