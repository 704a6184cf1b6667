"""Oracles for the preset fields that only rounding decides.

The benchmark reference pins these fields of today's algorithms to 1e-9
relative, which against their own magnitudes is bit identity. Each test here
checks the package's output for the field against the truth it approximates
instead: the residual against the rounding floor of ``M22`` at the pole, a
crossing against its closed-form ladder value, and a t = 0 snapshot against
the initial packet itself, each to the accuracy that the output's own
arithmetic allows.
"""

import math
import sys

import pytest

import ptchain as pc
from ptchain.presets import PRESETS
from ptchain.scattering import _transfer_terms

EPS = sys.float_info.epsilon


@pytest.mark.parametrize("preset", [f"fig2{c}" for c in "abcdefghi"])
def test_fig2_residuals_lie_at_the_rounding_floor(preset):
    """Each pole's residual is at most ``256 eps max(1, |T_N| + |diag|)`` at its own k.

    ``|T_N| + |diag|`` is the size of the two terms that cancel at a pole
    (the worst pole, in fig2d, reaches 218 of the 256). The floor of 1 is
    needed: at k = ±pi/2 on the real axis (fig2b, fig2e and fig2h) both
    terms vanish, to a scale of 1e-14 to 1e-15, below the residual's own
    rounding.
    """
    params = PRESETS[preset]
    spec = pc.ChainSpec(params["n_cells"], params["gamma"])
    records = pc.find_poles(spec)
    assert len(records) == 4 * spec.n_cells - 2
    for r in records:
        t_n, diag, *_ = _transfer_terms(spec, r.k.as_complex())
        assert r.residual <= 256 * EPS * max(1.0, abs(t_n) + abs(diag)), r.k


def test_fig3_crossings_lie_at_their_ladder_values():
    """Every crossing of the fig3 sweep sits at ``Re k = ±pi/2`` exactly, within 1e-9
    of the real axis, and within 1e-9 of a ladder value in gamma (5.5e-10 measured)."""
    params = PRESETS["fig3"]
    traj = pc.trace_trajectories(
        pc.ChainSpec(params["n_cells"], 0.0), params["gamma_min"], params["gamma_max"],
        params["steps"], strict=False,
    )
    ladder = pc.threshold_ladder(params["n_cells"]).gamma_values
    assert len(traj.crossings) == 2 * len(ladder)
    for c in traj.crossings:
        assert abs(c.k.real) == 0.5 * math.pi
        assert abs(c.k.imag) <= 1e-9
        assert min(abs(c.gamma - g) for g in ladder) <= 1e-9


@pytest.mark.parametrize("preset", ["fig5d", "fig5e", "fig5f"])
def test_fig5_snapshot_at_t0_is_the_initial_packet(preset, propagation):
    """At t = 0 each region's intensity ``I`` is the packet's within ``512 eps sqrt(I)``.

    An amplitude error ``d`` of the propagated state moves ``I`` by about
    ``2 sqrt(I) |d|``, so the bound allows ``|d| <= 256 eps`` of the unit
    packet. The worst case, fig5e's transmitted intensity, reaches 256 of the
    512; fig5e (gamma_c, the worst-conditioned propagator) is 4.4e-8 off in
    ``central`` and 1.0e-7 in ``transmitted``, relative, so a bound of 1e-8
    relative would fail it. The propagator is the session's cached one, on
    the preset's lattice and packet.
    """
    params = PRESETS[preset]
    layout, bundle, psi0 = propagation(params["gamma"])
    assert layout == pc.LatticeLayout.centered(params["total_sites"], params["n_cells"])
    packet = pc.gaussian_packet(layout, params["j0"], params["sigma"], params["k0"])
    assert (psi0 == packet).all()
    got = pc.intensity_split(pc.evolve(bundle, psi0, 0.0), layout)
    want = pc.intensity_split(packet, layout)
    for field in ("reflected", "central", "transmitted"):
        intensity = getattr(want, field)
        assert abs(getattr(got, field) - intensity) <= 512 * EPS * math.sqrt(intensity), field
