"""Chain description, wavenumber canonicalization, and Bloch-index regimes."""

import ast
import cmath
import json
import math
import os
import pickle
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_array

import ptchain
from ptchain import (
    BlochRegime,
    ChainSpec,
    ComplexWavenumber,
    LatticeLayout,
    NumericalFailure,
    OutOfRange,
    build_hamiltonian,
    classify_bloch_regime,
    dispersion_energy,
    energy_to_wavenumber,
    scatter,
    tgbs_count,
    transmission_closed_form,
)
from ptchain import cli, dynamics, errors, model, poles, relevance, scattering
from transfer_oracles import (
    bloch_index,
    closed_form_transfer,
    dense_hamiltonian,
    dense_pencil_companion,
)


def test_chain_spec_validation():
    ChainSpec(1, 0.0)
    ChainSpec(50, 2.5)
    with pytest.raises(OutOfRange):
        ChainSpec(0, 0.3)
    with pytest.raises(OutOfRange):
        ChainSpec(-2, 0.3)
    with pytest.raises(OutOfRange):
        ChainSpec(3, -0.1)
    with pytest.raises(OutOfRange):
        ChainSpec(3, float("nan"))
    with pytest.raises(OutOfRange):
        ChainSpec(3, float("inf"))


_SIZE_ROUTES = {
    "ChainSpec": lambda n: ChainSpec(n, 0.3).n_cells,
    "gamma_critical": poles.gamma_critical,
    "threshold_ladder": poles.threshold_ladder,
    "cpa_laser_points": relevance.cpa_laser_points,
}


@pytest.mark.parametrize("route", _SIZE_ROUTES, ids=str)
@pytest.mark.parametrize("size", [3.5, 3.0, "3", None, 0, -2, 0.0], ids=repr)
def test_every_route_refuses_what_chain_spec_refuses(route, size):
    """A chain size is checked once, in ``model``: a float, even an integral one, is refused."""
    with pytest.raises(OutOfRange, match="n_cells must be"):
        _SIZE_ROUTES[route](size)


@pytest.mark.parametrize("route", _SIZE_ROUTES, ids=str)
@pytest.mark.parametrize("size", [np.int64(3), np.int32(3), np.uint8(3)], ids=repr)
def test_every_route_takes_any_integer_type_as_an_int(route, size):
    """A NumPy integer gives what the ``int`` of its value gives, to the type of every part."""
    got, want = _SIZE_ROUTES[route](size), _SIZE_ROUTES[route](int(size))
    assert pickle.dumps(got) == pickle.dumps(want)


def test_size_bound_keeps_n_a_finite_double():
    """``n_cells`` up to ``sys.float_info.max`` is accepted; above it ``ChainSpec``
    and ``gamma_critical`` raise ``OutOfRange``, not a bare ``OverflowError``."""
    largest = int(sys.float_info.max)
    ChainSpec(largest, 0.1)
    assert 0.0 < poles.gamma_critical(largest) < 1e-307
    for n in (largest + 1, 10**400):
        with pytest.raises(OutOfRange, match="sys.float_info.max"):
            ChainSpec(n, 0.1)
        with pytest.raises(OutOfRange, match="sys.float_info.max"):
            poles.gamma_critical(n)


def test_gamma_bound_keeps_gamma_squared_finite():
    """Past ``sqrt(float max)`` gamma is refused; at it every route answers or raises a NumericalFailure,
    and the verified count refuses it as beyond the pole census bound."""
    largest = math.sqrt(sys.float_info.max)
    above = math.nextafter(largest, math.inf)
    assert math.isfinite(largest * largest) and above * above == math.inf
    for gamma in (above, 1e200, sys.float_info.max):
        with pytest.raises(OutOfRange):
            ChainSpec(1, gamma)
    for n in (1, 3, 7):
        spec = ChainSpec(n, largest)
        result = scatter(spec, 1.0)
        assert 0.0 <= result.T < math.inf
        assert 0.0 <= transmission_closed_form(spec, 1.0) < math.inf
        try:
            closed_form_transfer(spec, 1.0)
        except NumericalFailure:
            pass
        with pytest.raises(OutOfRange):
            tgbs_count(spec, verify=True)


def test_n_sites():
    assert ChainSpec(1, 0.1).n_sites == 2
    assert ChainSpec(7, 0.1).n_sites == 14


def test_onsite_entries_alternate_and_are_pt_symmetric():
    spec = ChainSpec(4, 0.9)
    eps = build_hamiltonian(LatticeLayout(8, 4, 0), spec).diagonal()
    assert eps[0] == 0.9j  # gain first
    assert eps[1] == -0.9j
    assert all(eps[j] == (-1) ** j * 0.9j for j in range(8))
    # PT: eps_j = conj(eps_{2N-1-j})
    assert all(eps[j] == eps[7 - j].conjugate() for j in range(8))


CHAIN_SIZES = [1, 2, 3, 8, 50]
#: (left, right) lead lengths; the last are those of fig5d-f
LEADS = [(0, 0), (1, 0), (0, 3), (5, 4), (597, 597)]


@pytest.mark.parametrize("n", CHAIN_SIZES)
@pytest.mark.parametrize("left, right", LEADS)
def test_chain_operator_equals_the_dense_builder(n, left, right):
    """Byte-equal densified, and the CSR arrays of the dense matrix, for gamma > 0."""
    for gamma in (0.3, 1.7, 2.5):
        spec = ChainSpec(n, gamma)
        layout = LatticeLayout(left + 2 * n + right, n, left)
        op = build_hamiltonian(layout, spec)
        dense = dense_hamiltonian(layout, spec)
        assert op.toarray().tobytes() == dense.tobytes()
        ref = csr_array(dense)
        assert op.indptr.tobytes() == ref.indptr.tobytes()
        assert op.indices.tobytes() == ref.indices.tobytes()
        assert op.data.tobytes() == ref.data.tobytes()


@pytest.mark.parametrize("n", CHAIN_SIZES)
def test_chain_operator_without_gain_and_loss_has_the_dense_values(n):
    """At gamma = 0 the values agree, and only the hoppings are stored: SciPy's
    diagonal constructor keeps no zero of the on-site profile."""
    spec = ChainSpec(n, 0.0)
    for left, right in LEADS:
        layout = LatticeLayout(left + 2 * n + right, n, left)
        op = build_hamiltonian(layout, spec)
        dense = dense_hamiltonian(layout, spec)
        assert np.array_equal(op.toarray(), dense)
        assert op.nnz == 2 * (op.shape[0] - 1)


@pytest.mark.parametrize("n", CHAIN_SIZES)
def test_pencil_companion_equals_the_dense_builder(n, monkeypatch):
    """The companion handed to NumPy's eigensolver has the oracle's values, also
    without gain and loss and at the census bound, and wherever a census solves it
    (``gamma > 0``) the same eigenvalues byte for byte. Its zeros are plain ones,
    where the oracle's negated blocks hold ``-0.0``; at ``gamma = 0``, which every
    census answers without an eigensolve, that moves N = 2's eigenvalues by 9e-16."""
    seen = []
    eigvals = np.linalg.eigvals

    def capture(a):
        seen.append((a.copy(), eigvals(a)))
        return seen[-1][1]

    monkeypatch.setattr(np.linalg, "eigvals", capture)
    for gamma in (0.0, 0.3, 1.7, 2.5, poles.CENSUS_GAMMA_MAX):
        spec = ChainSpec(n, gamma)
        poles._pencil_wavenumbers(spec)
        companion, w = seen.pop()
        dense = dense_pencil_companion(spec)
        assert np.array_equal(companion, dense)
        assert gamma == 0.0 or w.tobytes() == eigvals(dense).tobytes()


def _fresh_python(code, *args, cwd=None):
    """Run ``code`` in a fresh interpreter that imports this checkout's ``ptchain``."""
    src = str(Path(ptchain.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", code, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, cwd=cwd,
    )
    assert run.returncode == 0, run.stderr
    return run


def test_package_exports_the_union_of_the_module_all_lists():
    """Each public name is declared in one module's ``__all__`` and re-exported as the same object."""
    modules = (errors, model, scattering, poles, dynamics, relevance)
    names = [name for module in modules for name in module.__all__]
    assert ptchain.__all__ == ["__version__", *names]
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(ptchain, name) is getattr(module, name)
    assert {"DEFAULT_REGION", "REGIME_TOL", "gamma_critical"} <= set(names)
    assert "annotations" not in vars(ptchain)


def test_readme_imports_only_public_names():
    """Each name that a ``python`` block of README.md imports from ``ptchain`` is in ``ptchain.__all__``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    imported = {
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "ptchain"
        for alias in node.names
    }
    assert {"scatter", "evolve"} <= imported  # both quick starts were parsed
    assert sorted(imported - set(ptchain.__all__)) == []


def test_readme_command_lines_parse():
    """Each ``ptchain`` line of README.md's ``bash`` blocks parses; none is executed."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```bash\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("ptchain ")]
    assert len(lines) >= 8
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_import_does_not_load_scipy_sparse():
    """``import ptchain`` in a fresh interpreter leaves scipy.sparse unloaded."""
    _fresh_python("import sys, ptchain; assert 'scipy.sparse' not in sys.modules, 'loaded'")


_COLD_START = """
import contextlib, io, json, sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import ptchain, ptchain.cli
loaded = {"import": scipy_modules()}
for preset in ("fig5a", "fig8", "fig2a", "fig3"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = ptchain.cli.main(["figure", "--preset", preset, "--out", preset])
    assert code == 0, (preset, code)
    loaded[preset] = scipy_modules()
Path(sys.argv[1]).write_text(json.dumps(loaded))
"""


def test_cold_start_loads_scipy_only_for_an_eigensolve(tmp_path):
    """Stationary presets and the pole-census presets fig2a and fig3 load no scipy module."""
    _fresh_python(_COLD_START, "loaded.json", cwd=tmp_path)
    loaded = json.loads((tmp_path / "loaded.json").read_text())
    assert loaded == {"import": [], "fig5a": [], "fig8": [], "fig2a": [], "fig3": []}


_CENSUS_ROUTES = """
import sys
from ptchain import ChainSpec, find_poles, tgbs_count, trace_trajectories

assert len(find_poles(ChainSpec(3, 0.7))) > 0
assert trace_trajectories(ChainSpec(3, 0.0), 0.0, 2.0, 40).branches
assert tgbs_count(ChainSpec(8, 1.5), verify=True) > 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert loaded == [], loaded
"""


def test_pole_census_routes_load_no_scipy():
    """``find_poles``, ``trace_trajectories`` and ``tgbs_count(verify=True)`` solve on NumPy alone."""
    _fresh_python(_CENSUS_ROUTES)


@pytest.mark.parametrize(
    "raw, expected",
    [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),  # seam maps to +pi
        (3 * math.pi, math.pi),
        (math.pi + 0.1, -math.pi + 0.1),
        (-0.4, -0.4),
        (2 * math.pi, 0.0),
    ],
)
def test_wavenumber_canonical_strip(raw, expected):
    assert ComplexWavenumber(raw, 0.2).re == pytest.approx(expected, abs=1e-12)


def test_wavenumber_roundtrip():
    k = ComplexWavenumber.from_complex(1.25 - 0.375j)
    assert k.as_complex() == 1.25 - 0.375j


def test_dispersion_identity_random(rng):
    """Im E = 2 sin(Re k) sinh(Im k) for any complex k."""
    for _ in range(300):
        k = complex(rng.uniform(-math.pi, math.pi), rng.uniform(-2, 2))
        e = dispersion_energy(k)
        assert e == pytest.approx(-2 * cmath.cos(k), abs=1e-14)
        assert e.imag == pytest.approx(
            2 * math.sin(k.real) * math.sinh(k.imag), abs=1e-12
        )


def test_energy_to_wavenumber_roundtrip(rng):
    for e in rng.uniform(-1.999, 1.999, size=100):
        k = energy_to_wavenumber(float(e))
        assert 0.0 < k < math.pi
        assert -2.0 * math.cos(k) == pytest.approx(e, abs=1e-12)


@pytest.mark.parametrize("bad", [-2.0, 2.0, -2.5, 3.0])
def test_energy_to_wavenumber_rejects_band_exterior(bad):
    with pytest.raises(OutOfRange):
        energy_to_wavenumber(bad)


def test_bloch_index_real_energy_is_real_cos(rng):
    """cos 2mu = (E^2 + gamma^2 - 2)/2 stays real for real energy."""
    spec = ChainSpec(3, 0.8)
    for e in rng.uniform(-1.9, 1.9, size=50):
        k = energy_to_wavenumber(float(e))
        idx = bloch_index(k, spec)
        expected = (e * e + 0.64 - 2.0) / 2.0
        assert complex(idx.cos2mu).imag == pytest.approx(0.0, abs=1e-12)
        assert complex(idx.cos2mu).real == pytest.approx(expected, abs=1e-12)


def test_bloch_index_evanescent_branch_sign():
    # E = 1.98, gamma = 0.3: cos 2mu > 1, mu = i*phi with phi > 0
    idx = bloch_index(energy_to_wavenumber(1.98), ChainSpec(3, 0.3))
    assert complex(idx.cos2mu).real > 1.0
    assert idx.mu.real == pytest.approx(0.0, abs=1e-12)
    assert idx.mu.imag == pytest.approx(0.0509682, abs=1e-6)


def test_classify_bloch_regime():
    spec = ChainSpec(3, 0.3)
    assert classify_bloch_regime(1.93, spec) is BlochRegime.PROPAGATING
    assert classify_bloch_regime(1.98, spec) is BlochRegime.EVANESCENT
    edge = math.sqrt(4.0 - 0.09)
    assert classify_bloch_regime(edge, spec) is BlochRegime.BAND_EDGE
    assert classify_bloch_regime(-edge, spec) is BlochRegime.BAND_EDGE
    assert classify_bloch_regime(0.0, spec) is BlochRegime.PROPAGATING
    for energy in (math.nan, math.inf, -math.inf):  # NaN fails every comparison: "Evanescent"
        with pytest.raises(OutOfRange, match="finite"):
            classify_bloch_regime(energy, spec)


def test_band_edge_tolerance_window():
    spec = ChainSpec(2, 0.5)
    edge = math.sqrt(4.0 - 0.25)
    assert classify_bloch_regime(edge * (1 + 1e-14), spec) is BlochRegime.BAND_EDGE
    assert classify_bloch_regime(edge + 1e-3, spec) is BlochRegime.EVANESCENT
