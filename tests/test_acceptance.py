"""End-to-end acceptance gate.

Each test here covers one numbered headline check of the package and emits a
single ``[criterion NN] PASS/FAIL`` line, collected into the terminal summary
by the hook in ``conftest.py``.  Tolerances are pinned inline; they are part
of the contract and must not be loosened casually.
"""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

import ptchain as pc
from transfer_oracles import bloch_index, transfer_matrix_from_branch, verified_transfer
from winding import _audit_slabs, _winding_number

PI = math.pi

#: filled by the ``criterion`` context manager, printed by conftest at exit
_CRITERION_LINES: list[str] = []


@contextlib.contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        line = f"[criterion {num:02d}] FAIL - {label}"
        _CRITERION_LINES.append(line)
        print(line)
        raise
    line = f"[criterion {num:02d}] PASS - {label}"
    _CRITERION_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def propagation():
    """Cached (layout, bundle, psi0) triples for the shared L=1200 lattice.

    The dense eigendecomposition is the expensive part (~5 s per gamma), so
    the three wave-packet criteria share one cache keyed by gamma.
    """
    layout = pc.LatticeLayout.centered(1200, 3)
    psi0 = pc.gaussian_packet(layout, -300, 60.0, 0.5 * PI)
    cache: dict[float, pc.PropagatorBundle] = {}

    def get(gamma: float):
        if gamma not in cache:
            h = pc.build_hamiltonian(layout, pc.ChainSpec(3, gamma))
            cache[gamma] = pc.prepare_propagator(h)
        return layout, cache[gamma], psi0

    return get


def test_criterion_01_threshold_ladder_closed_forms():
    with criterion(1, "threshold ladder closed forms, exact and cheap"):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            l1 = pc.threshold_ladder(1)
            l3 = pc.threshold_ladder(3)
            l10 = pc.threshold_ladder(10)
            best = min(best, time.perf_counter() - t0)

        assert abs(l1.gamma_critical - math.sqrt(2.0)) <= 1e-12
        assert abs(l3.gamma_critical - 0.5 * (math.sqrt(6.0) - math.sqrt(2.0))) <= 1e-12
        # 2 sin(pi/40) = 0.156918...; the quoted 4-digit value is rounded
        assert abs(l10.gamma_critical - 0.1568) <= 2e-4
        assert abs(l10.gamma_critical - 2.0 * math.sin(PI / 40.0)) <= 1e-12

        for got, want in zip(l3.gamma_values, (1.932, 1.414, 0.518)):
            assert abs(got - want) <= 5e-4
        exact = tuple(2.0 * math.cos((2 * n + 1) * PI / 12.0) for n in range(3))
        for got, want in zip(l3.gamma_values, exact):
            assert abs(got - want) <= 1e-12

        assert best < 1e-3  # closed form, not a numerical search


def test_criterion_02_every_ladder_value_parks_a_pole_on_the_axis():
    with criterion(2, "each ladder gamma puts a pole on the real axis (N=1..8)"):
        t0 = time.perf_counter()
        window = pc.SearchRegion(0.5 * PI - 0.3, 0.5 * PI + 0.3, -0.05, 0.05)
        for n in range(1, 9):
            for g in pc.threshold_ladder(n).gamma_values:
                recs = pc.find_poles(pc.ChainSpec(n, g), window)
                hits = [
                    r
                    for r in recs
                    if abs(r.k.re - 0.5 * PI) <= 1e-7 and abs(r.k.im) <= 1e-8
                ]
                assert hits, f"no real-axis pole at N={n}, gamma={g}"
        assert time.perf_counter() - t0 < 30.0


def test_criterion_03_first_growing_bound_state():
    with criterion(3, "single growing bound state at N=3, gamma=0.7"):
        spec = pc.ChainSpec(3, 0.7)
        recs = pc.find_poles(spec, pc.first_quadrant_region(0.7))
        assert len(recs) == 1
        rec = recs[0]
        assert rec.classification is pc.PoleClass.TGBS
        assert abs(rec.k.re - 1.571) <= 1e-3
        assert abs(rec.k.im - 0.140) <= 1e-3
        assert abs(rec.energy.real) <= 1e-3
        assert abs(rec.energy.imag - 0.280) <= 1e-3
        assert rec.growth_rate > 0.0


def test_criterion_04_full_pole_census():
    with criterion(4, "pole census at N=3, gamma=0.3: ten, paired, all decaying"):
        region = pc.SearchRegion(-PI + 1e-4, PI - 1e-4, -1.5, 1.0)
        recs = pc.find_poles(pc.ChainSpec(3, 0.3), region)
        ks = [r.k.as_complex() for r in recs]

        assert len(ks) == 10
        assert all(k.imag < 0.0 for k in ks)
        # PT symmetry: the set is invariant under k -> -conj(k)
        for k in ks:
            assert min(abs(kp - (-k.conjugate())) for kp in ks) <= 1e-7
        assert sum(1 for k in ks if k.real > 0.0) == 5
        assert sum(1 for k in ks if abs(k.real - 0.5 * PI) <= 1e-7) == 1
        assert all(r.residual <= 1e-10 for r in recs)


def test_criterion_05_band_center_transmission_two_routes():
    with criterion(5, "anomalous band-center transmission, two independent routes"):
        spec = pc.ChainSpec(3, 0.3)
        k = 0.5 * PI
        t_closed = pc.transmission_closed_form(spec, k)
        m = verified_transfer(spec, k)
        t_entry = 1.0 / abs(m.m22) ** 2
        assert abs(t_closed - 2.61) <= 5e-3
        assert abs(t_entry - 2.61) <= 5e-3
        assert abs(t_closed - t_entry) <= 1e-10 * t_closed
        assert t_closed > 1.0  # gain-assisted, not unitary


def test_criterion_06_wave_packet_matches_stationary_transmission(propagation):
    with criterion(6, "wave-packet transmission reproduces the stationary value"):
        t0 = time.perf_counter()
        layout, bundle, psi0 = propagation(0.3)
        state = pc.evolve(bundle, psi0, 300.0)
        transmitted = pc.intensity_split(state, layout).transmitted
        elapsed = time.perf_counter() - t0

        stationary = pc.transmission_closed_form(pc.ChainSpec(3, 0.3), 0.5 * PI)
        assert abs(transmitted - 2.60) <= 0.02
        assert abs(transmitted - stationary) <= 0.02
        assert elapsed < 180.0


def test_criterion_07_growth_rate_matches_dominant_mode(propagation):
    with criterion(7, "supercritical growth rate matches the dominant mode"):
        layout, bundle, psi0 = propagation(0.7)
        series = [
            (float(t), pc.intensity_split(pc.evolve(bundle, psi0, float(t)), layout).total)
            for t in np.arange(100.0, 201.0, 10.0)
        ]
        fitted = pc.growth_rate_fit(series)
        assert abs(fitted - 0.280) <= 0.02 * 0.280

        imag = bundle.eigenvalues.imag
        assert abs(float(np.max(imag)) - 0.280) <= 1e-3
        assert int(np.sum(imag > 0.1)) == 1  # a single dominant growing mode


def test_criterion_08_critical_chain_steady_beam(propagation):
    with criterion(8, "critical chain: no net growth, steady outgoing beam"):
        gamma_c = pc.threshold_ladder(3).gamma_critical
        layout, bundle, psi0 = propagation(gamma_c)
        horizon = pc.validity_horizon(layout, -300, 0.5 * PI)
        assert horizon > 440.0

        series = [
            (float(t), pc.intensity_split(pc.evolve(bundle, psi0, float(t)), layout).total)
            for t in np.arange(250.0, 441.0, 10.0)
        ]
        slope = pc.growth_rate_fit(series, min_decades=0.0)
        assert abs(slope) <= 5e-3

        # the transmitted beam is steady: two probe sites in the right lead
        for offset in (36, 66):  # 2N + 30 and 2N + 60
            idx = layout.global_index(offset)
            vals = [
                abs(pc.evolve(bundle, psi0, float(t))[idx]) ** 2
                for t in (260.0, 320.0, 380.0, 440.0)
            ]
            mean = float(np.mean(vals))
            assert mean >= 1.0
            assert (max(vals) - min(vals)) <= 0.02 * mean


def test_criterion_09_reflectionless_points():
    with criterion(9, "band-edge one-sided anomaly and two-sided joint zeros"):
        edge = pc.ChainSpec(1, 1.0)
        for energy in (math.sqrt(3.0), -math.sqrt(3.0)):
            res = pc.scatter(edge, pc.energy_to_wavenumber(energy))
            assert abs(res.T - 1.0) <= 1e-9
            assert res.R_right <= 1e-18
            assert abs(res.R_left - 4.0) <= 1e-6  # 4 N^2 gamma^2

        joint = pc.ChainSpec(2, 1.0)
        for energy in (1.0, -1.0):
            res = pc.scatter(joint, pc.energy_to_wavenumber(energy))
            assert abs(res.T - 1.0) <= 1e-9
            assert res.R_left <= 1e-18
            assert res.R_right <= 1e-18
        assert pc.verdict(joint).regime is pc.RelevanceRegime.UNPHYSICAL


def test_criterion_10_size_scan_quasiperiod_and_decay():
    with criterion(10, "size scan: quasiperiod, evanescent slope, critical size"):
        scan = pc.transmission_vs_size(0.3, 1.93, 120)
        assert scan.quasiperiod is not None
        assert abs(scan.quasiperiod - 7.2) <= 0.2

        decay = pc.transmission_vs_size(0.3, 1.98, 80)
        k = pc.energy_to_wavenumber(1.98)
        phi = bloch_index(k, pc.ChainSpec(3, 0.3)).mu.imag
        assert phi > 0.0
        assert decay.log_slope is not None
        assert abs(decay.log_slope + 4.0 * phi) <= 0.01 * 4.0 * phi

        assert pc.critical_size(0.3) == 6


def test_criterion_11_independent_axis_scan_matches_ladder():
    with criterion(11, "independent real-axis root scan reproduces the ladder"):
        def denominator(gamma: float) -> float:
            return pc.pole_residual(pc.ChainSpec(3, gamma), 0.5 * PI).real

        grid = np.arange(0.05, 1.99 + 1e-12, 0.02)
        values = [denominator(float(g)) for g in grid]
        roots = []
        for a, b, fa, fb in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
            if fa == 0.0:
                roots.append(float(a))
            elif fa * fb < 0.0:
                roots.append(brentq(denominator, float(a), float(b), xtol=1e-14))

        ladder = sorted(pc.threshold_ladder(3).gamma_values)
        assert len(roots) == 3
        for root, expected in zip(sorted(roots), ladder):
            assert abs(root - expected) <= 1e-10
            assert abs(pc.pole_residual(pc.ChainSpec(3, root), 0.5 * PI)) < 1e-8

        points = pc.cpa_laser_points(3)
        physical = [p for p in points if p.physical]
        assert len(physical) == 1
        assert abs(physical[0].gamma - min(ladder)) <= 1e-12


def test_criterion_12_algebraic_invariants():
    with criterion(12, "algebraic invariants hold on random samples"):
        rng = np.random.default_rng(20260815)

        # determinant one and closed-form/product agreement, complex k
        for _ in range(40):
            n = int(rng.integers(1, 7))
            g = float(rng.uniform(0.05, 2.5))
            k = complex(rng.uniform(0.05, PI - 0.05), rng.uniform(-0.8, 0.8))
            m = verified_transfer(pc.ChainSpec(n, g), k)
            scale = max(abs(m.m11), abs(m.m12), abs(m.m21), abs(m.m22), 1.0)
            det = m.m11 * m.m22 - m.m12 * m.m21
            assert abs(det - 1.0) <= 1e-12 * scale**2

        # real-axis pairing and pseudo-unitarity
        for _ in range(40):
            n = int(rng.integers(1, 7))
            g = float(rng.uniform(0.05, 2.5))
            k = float(rng.uniform(0.05, PI - 0.05))
            m = pc.plane_wave_transfer(pc.ChainSpec(n, g), k)
            scale = max(abs(m.m11), abs(m.m12), abs(m.m21), abs(m.m22), 1.0)
            assert abs(m.m11 - m.m22.conjugate()) <= 1e-11 * scale
            assert abs((m.m12 * m.m21).imag) <= 1e-11 * scale**2
            assert abs(abs(m.m11) ** 2 - (m.m12 * m.m21).real - 1.0) <= 1e-9 * scale**2

        # branch invariance of the band-index route
        for _ in range(25):
            n = int(rng.integers(1, 7))
            g = float(rng.uniform(0.05, 2.5))
            k = complex(rng.uniform(0.05, PI - 0.05), rng.uniform(-0.8, 0.8))
            spec = pc.ChainSpec(n, g)
            mu = bloch_index(k, spec).mu
            base = transfer_matrix_from_branch(spec, k, mu)
            sb = max(abs(base.m11), abs(base.m12), abs(base.m21), abs(base.m22), 1.0)
            for alt in (-mu, mu + PI, -mu - PI):
                other = transfer_matrix_from_branch(spec, k, alt)
                pairs = (
                    (base.m11, other.m11),
                    (base.m12, other.m12),
                    (base.m21, other.m21),
                    (base.m22, other.m22),
                )
                for ours, theirs in pairs:
                    assert abs(ours - theirs) <= 1e-9 * sb

        # generalized flux conservation |T - 1| = sqrt(R_L R_R)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            g = float(rng.uniform(0.05, 1.9))
            k = float(rng.uniform(0.05, PI - 0.05))
            try:
                res = pc.scatter(pc.ChainSpec(n, g), k)
            except pc.SpectralSingularityError:
                continue
            lhs = abs(res.T - 1.0)
            rhs = math.sqrt(res.R_left * res.R_right)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, res.T)

        # Hermitian limit: unitary and left-right symmetric
        for _ in range(25):
            n = int(rng.integers(1, 7))
            k = float(rng.uniform(0.05, PI - 0.05))
            res = pc.scatter(pc.ChainSpec(n, 0.0), k)
            assert abs(res.T + res.R_left - 1.0) <= 1e-10
            assert abs(res.R_left - res.R_right) <= 1e-10

        # growth identity Im E = 2 sin(Re k) sinh(Im k)
        for _ in range(300):
            k = complex(rng.uniform(-PI, PI), rng.uniform(-1.5, 1.5))
            e = pc.dispersion_energy(k)
            ident = 2.0 * math.sin(k.real) * math.sinh(k.imag)
            assert abs(e.imag - ident) <= 1e-12 * max(1.0, abs(e))

        # winding completeness: boundary counts equal the located set
        for n, g in ((2, 0.9), (3, 1.2)):
            spec = pc.ChainSpec(n, g)
            region = pc.SearchRegion(-PI + 1e-4, PI - 1e-4, -1.2, 1.2)
            recs = pc.find_poles(spec, region)
            total = sum(_winding_number(spec, slab) for slab in _audit_slabs(region))
            assert total == len(recs)
