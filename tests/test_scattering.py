"""Transfer-matrix routes, closed forms, and scattering coefficients.

The package evaluates the transfer matrix's terms by branch-free Chebyshev
polynomials, in closed form at real ``k`` and by recurrence at complex ``k``;
these tests pin them, through the whole matrix ``closed_form_transfer``
assembles from them, against the oracle routes in ``transfer_oracles``
(explicit band-index parameterization and the literal 2x2 cell product),
against 60-digit ``mpmath`` and against the analytic structure
(determinant, PT pairing, conservation relation).
"""

import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptchain import (
    ChainSpec,
    NumericalFailure,
    OutOfRange,
    SingularBasis,
    SpectralSingularityError,
    pole_residual,
    scatter,
    threshold_ladder,
    transmission_closed_form,
)
from ptchain import scattering
from ptchain.scattering import _chebyshev_real, chebyshev_tu
from transfer_oracles import (
    Matrix2,
    bloch_index,
    closed_form_transfer,
    n_cell_matrix,
    plain_chebyshev_tu,
    product_transfer,
    single_site_matrix,
    transfer_matrix_from_branch,
    unit_cell_matrix,
    verified_transfer,
)


def _rand_k(rng, complex_im=True):
    re = rng.uniform(0.05, math.pi - 0.05)
    im = rng.uniform(-1.0, 1.0) if complex_im else 0.0
    return complex(re, im)


# ---- Chebyshev evaluation --------------------------------------------------

def test_chebyshev_matches_trig_definition(rng):
    for n in range(0, 9):
        theta = rng.uniform(0.1, math.pi - 0.1, size=20)
        x = np.cos(theta)
        t, u = chebyshev_tu(n, x)
        np.testing.assert_allclose(t, np.cos(n * theta), atol=1e-12)
        np.testing.assert_allclose(u, np.sin(n * theta) / np.sin(theta), atol=1e-11)


def test_chebyshev_matches_cosh_definition(rng):
    for n in range(1, 7):
        s = rng.uniform(0.1, 2.0, size=10)
        x = np.cosh(s)
        t, u = chebyshev_tu(n, x)
        np.testing.assert_allclose(t, np.cosh(n * s), rtol=1e-12)
        np.testing.assert_allclose(u, np.sinh(n * s) / np.sinh(s), rtol=1e-11)


def test_chebyshev_scalar_and_edge_orders():
    t, u = chebyshev_tu(0, 0.3)
    assert (t, u) == (1.0, 0.0)  # T_0 = 1, U_{-1} = 0
    t, u = chebyshev_tu(1, 0.3)
    assert (t, u) == (0.3, 1.0)
    with pytest.raises(OutOfRange):
        chebyshev_tu(-1, 0.5)


def test_chebyshev_equals_the_plain_recurrence_bitwise(rng):
    """Forming ``2 * x`` once and taking two steps per pass moves no bit.

    Every order up to 13 covers both parities of the two-step loop; the
    orders from 400 up overflow for ``|x| > 1``.
    """
    reals = [float(v) for v in rng.uniform(-3.0, 3.0, 6)]
    complexes = [complex(a, b) for a, b in rng.uniform(-2.0, 2.0, (6, 2))]
    arrays = [rng.uniform(-3.0, 3.0, 40), rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in (*range(14), 57, 400, 807, 2000):
            for x in reals + complexes + arrays:
                got = chebyshev_tu(n, x)
                want = plain_chebyshev_tu(n, x)
                for a, b in zip(got, want):
                    assert type(a) is type(b)
                    assert np.array_equal(a, b, equal_nan=True)


def _mp_chebyshev(n: int, x: float):
    """``(T_n(x), U_{n-1}(x), sqrt|1 - x**2|)`` of a float or ``mpf`` ``x``, in 60 digits."""
    with mpmath.workdps(60):
        xm = mpmath.mpf(x)
        a = abs(xm)
        if a == 1:
            t, u = mpmath.mpf(1), mpmath.mpf(n)
        elif a < 1:
            theta = mpmath.acos(a)
            t, u = mpmath.cos(n * theta), mpmath.sin(n * theta) / mpmath.sin(theta)
        else:
            theta = mpmath.acosh(a)
            t, u = mpmath.cosh(n * theta), mpmath.sinh(n * theta) / mpmath.sinh(theta)
        if xm < 0:
            t, u = (-1) ** n * t, (-1) ** (n - 1) * u
        return t, u, mpmath.sqrt(abs(1 - xm * xm))


_SIGN = st.sampled_from((-1.0, 1.0))
#: the bulk; within 1e-12..1e-1 of ±1 on either side; and |x| up to 5.5, where
#: the terms at N ~ 10**4 leave the double range and carry an exponent
_REAL_X = st.one_of(
    st.floats(-1.0, 1.0),
    st.builds(lambda sign, side, p: sign * (1.0 + side * 10.0**p), _SIGN, _SIGN,
              st.floats(-12.0, -1.0)),
    st.builds(lambda sign, a: sign * a, _SIGN, st.floats(1.0, 5.5)),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 10_000), x=_REAL_X)
def test_real_axis_terms_match_mpmath(n, x):
    """The closed forms of ``_chebyshev_real`` stay within 4 N eps of ``|T| + s|U|``.

    Each of ``T_N`` and ``s U_{N-1}`` (``s = sqrt|1 - x**2|``) is compared
    with 60-digit ``mpmath`` at the same float ``x``, also next to ``x = ±1``,
    where the recurrence loses hundreds of ``N eps``.
    """
    t, u, e = _chebyshev_real(n, 1.0 - x, 1.0 + x)
    want_t, want_u, s = _mp_chebyshev(n, x)
    with mpmath.workdps(60):
        scale = abs(want_t) + s * abs(want_u)
        bound = 4 * n * 2.0**-52 * scale
        assert abs(mpmath.ldexp(t, e) - want_t) <= bound
        assert s * abs(mpmath.ldexp(u, e) - want_u) <= bound
    if e:  # the terms are factored only beyond the double range
        assert scale > 2.0**1000


def test_pell_identity(rng):
    """T_N(x)^2 - (x^2 - 1) U_{N-1}(x)^2 = 1 for every order."""
    x = rng.uniform(-3.0, 3.0, size=50)
    for n in range(1, 10):
        t, u = chebyshev_tu(n, x)
        # outside [-1, 1] both terms grow ~ e^(2 n acosh|x|), so the identity
        # holds only relative to that scale
        scale = np.maximum(1.0, t * t + np.abs(x * x - 1.0) * u * u)
        residual = np.abs(t * t - (x * x - 1.0) * u * u - 1.0)
        assert np.all(residual <= 5e-13 * scale)


# ---- transfer-matrix structure ---------------------------------------------

def test_unit_cell_is_two_site_product(rng):
    for _ in range(40):
        spec = ChainSpec(1, rng.uniform(0.0, 2.2))
        e = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        gain = single_site_matrix(1j * spec.gamma, e)
        loss = single_site_matrix(-1j * spec.gamma, e)
        prod = loss @ gain  # wave crosses the gain site first
        cell = unit_cell_matrix(spec, e)
        assert (prod - cell).max_abs() < 1e-12 * max(1.0, cell.max_abs())


def test_n_cell_matrix_equals_iterated_product(rng):
    for _ in range(30):
        n = int(rng.integers(1, 9))
        spec = ChainSpec(n, rng.uniform(0.0, 2.2))
        e = complex(rng.uniform(-2.5, 2.5), rng.uniform(-0.8, 0.8))
        direct = unit_cell_matrix(spec, e).power(n)
        cheb = n_cell_matrix(spec, e)
        scale = max(1.0, direct.max_abs())
        assert (direct - cheb).max_abs() < 1e-10 * scale


def test_determinant_is_one(rng):
    for _ in range(60):
        n = int(rng.integers(1, 7))
        spec = ChainSpec(n, rng.uniform(0.0, 2.0))
        m = closed_form_transfer(spec, _rand_k(rng))
        assert abs(m.det() - 1.0) < 1e-9 * max(1.0, m.max_abs() ** 2)


def test_pt_entry_pairing_on_real_axis(rng):
    """M11 = conj(M22) and M12*M21 real for real k."""
    for _ in range(60):
        n = int(rng.integers(1, 7))
        spec = ChainSpec(n, rng.uniform(0.05, 1.9))
        k = rng.uniform(0.05, math.pi - 0.05)
        m = closed_form_transfer(spec, k)
        scale = max(1.0, m.max_abs())
        assert m.m11 == pytest.approx(m.m22.conjugate(), abs=1e-10 * scale)
        assert (m.m12 * m.m21).imag == pytest.approx(0.0, abs=1e-10 * scale**2)
        # with det = 1 this forces |M11|^2 - M12 M21 = 1
        assert abs(m.m11) ** 2 - (m.m12 * m.m21).real == pytest.approx(
            1.0, abs=1e-9 * scale**2
        )


def test_closed_form_agrees_with_plane_wave_product(rng):
    """The release route must equal the literal Q^-1 (cell product) Q route."""
    for _ in range(50):
        n = int(rng.integers(1, 9))
        spec = ChainSpec(n, rng.uniform(0.0, 2.0))
        verified_transfer(spec, _rand_k(rng))  # raises on mismatch


def test_branch_parameterization_invariance(rng):
    """M is invariant under mu -> -mu and mu -> mu + pi."""
    for _ in range(40):
        n = int(rng.integers(1, 7))
        spec = ChainSpec(n, rng.uniform(0.05, 1.9))
        k = _rand_k(rng)
        mu = bloch_index(k, spec).mu
        base = transfer_matrix_from_branch(spec, k, mu)
        scale = max(1.0, base.max_abs())
        for alt in (-mu, mu + math.pi, -mu - math.pi):
            m = transfer_matrix_from_branch(spec, k, alt)
            assert (m - base).max_abs() < 1e-9 * scale


def test_branch_route_equals_recurrence_route(rng):
    for _ in range(40):
        n = int(rng.integers(1, 7))
        spec = ChainSpec(n, rng.uniform(0.05, 1.9))
        k = _rand_k(rng)
        mu = bloch_index(k, spec).mu
        a = transfer_matrix_from_branch(spec, k, mu)
        b = closed_form_transfer(spec, k)
        assert (a - b).max_abs() < 1e-9 * max(1.0, b.max_abs())


def test_matrix2c_power_and_identity():
    eye = Matrix2.identity()
    m = Matrix2(1.0, 2.0, 3.0, 4.0)
    assert (m.power(0) - eye).max_abs() == 0.0
    m2 = m.power(2)
    assert m2.m11 == 7.0 and m2.m12 == 10.0 and m2.m21 == 15.0 and m2.m22 == 22.0


# ---- scattering coefficients -----------------------------------------------

def test_generalized_conservation(rng):
    """|T - 1| = sqrt(R_L * R_R) replaces unitarity."""
    for _ in range(120):
        n = int(rng.integers(1, 8))
        spec = ChainSpec(n, rng.uniform(0.01, 1.95))
        k = rng.uniform(0.05, math.pi - 0.05)
        try:
            res = scatter(spec, k)
        except SpectralSingularityError:
            continue
        assert abs(res.T - 1.0) == pytest.approx(
            math.sqrt(res.R_left * res.R_right), abs=1e-9 * max(1.0, res.T)
        )


def test_hermitian_limit_is_unitary(rng):
    for _ in range(60):
        n = int(rng.integers(1, 9))
        spec = ChainSpec(n, 0.0)
        k = rng.uniform(0.05, math.pi - 0.05)
        res = scatter(spec, k)
        assert res.T + res.R_left == pytest.approx(1.0, abs=1e-10)
        assert res.R_left == pytest.approx(res.R_right, abs=1e-10)


def test_transmission_closed_form_equals_m22_route(rng):
    for _ in range(80):
        n = int(rng.integers(1, 8))
        spec = ChainSpec(n, rng.uniform(0.01, 1.95))
        k = rng.uniform(0.05, math.pi - 0.05)
        m = closed_form_transfer(spec, k)
        try:
            t_closed = transmission_closed_form(spec, k)
        except SpectralSingularityError:
            continue
        assert t_closed == pytest.approx(1.0 / abs(m.m22) ** 2, rel=1e-10)


def test_amplitudes_follow_matrix_entries(rng):
    for _ in range(40):
        spec = ChainSpec(int(rng.integers(1, 6)), rng.uniform(0.05, 1.8))
        k = rng.uniform(0.1, math.pi - 0.1)
        m = closed_form_transfer(spec, k)
        res = scatter(spec, k)
        assert res.t == pytest.approx(1.0 / m.m22, rel=1e-12)
        assert res.r_left == pytest.approx(-m.m21 / m.m22, rel=1e-12)
        assert res.r_right == pytest.approx(m.m12 / m.m22, rel=1e-12)


def test_scatter_equals_the_quotients_of_plane_wave_transfer(rng):
    """``t``, ``r_left`` and ``r_right`` are the quotients of the literal cell product's entries.

    ``product_transfer``, ``Q^{-1} cell^N Q`` in the plane-wave basis, shares
    no arithmetic with ``scatter``. Its entries are off by a few ``N eps`` of
    the largest entry, so a quotient by ``M22`` is off by that times
    ``cond = max|M| / |M22|``; the worst of these draws reaches 14 of the 256
    allowed, and of 4,000 further draws 42. The coefficients are the squared
    moduli of the amplitudes, bit for bit.
    """
    compared = 0
    for _ in range(400):
        spec = ChainSpec(int(rng.integers(1, 61)), rng.uniform(0.05, 1.8))
        k = rng.uniform(0.1, math.pi - 0.1)
        try:
            res = scatter(spec, k)
        except SpectralSingularityError:
            continue
        p = product_transfer(spec, k)
        cond = p.max_abs() / abs(p.m22)
        quotients = (1.0 / p.m22, -p.m21 / p.m22, p.m12 / p.m22)
        for got, want in zip((res.t, res.r_left, res.r_right), quotients):
            bound = 256 * spec.n_cells * sys.float_info.epsilon * cond
            assert abs(got - want) <= bound * max(abs(want), abs(quotients[0]))
        assert (res.T, res.R_left, res.R_right) == (
            abs(res.t) ** 2, abs(res.r_left) ** 2, abs(res.r_right) ** 2
        )
        compared += 1
    assert compared > 390


@pytest.mark.parametrize("k", [0.0016, 0.01, 0.1])
def test_scatter_stays_finite_where_the_recurrence_overflows(k):
    """At N=807, gamma=1.62, U_{N-1} ~ 1e519 exceeds the double range."""
    spec = ChainSpec(807, 1.62)
    res = scatter(spec, k)
    assert all(math.isfinite(v) for v in (res.T, res.R_left, res.R_right))
    assert res.T < 1e-300
    assert abs(res.T - 1.0) == pytest.approx(
        math.sqrt(res.R_left * res.R_right), abs=1e-9
    )
    assert transmission_closed_form(spec, k) == 0.0
    with pytest.raises(NumericalFailure):
        closed_form_transfer(spec, k)


def test_scatter_is_continuous_where_the_terms_leave_the_double_range():
    """At gamma=2, k=0.01 the terms are rescaled from N=203 on, and carry their own exponent from 403.

    From N=203 ``U_{N-1}`` exceeds ``2**512`` and the terms are scaled by
    ``2**-512``; between N=402 and 403 ``U_{N-1}`` itself leaves the double
    range. T falls to 0.0 and the reflections do not notice, and
    ``closed_form_transfer`` raises exactly where the terms are scaled.
    """
    exps = []
    for n in (*range(200, 207), *range(398, 407)):
        spec = ChainSpec(n, 2.0)
        exps.append(scattering._transfer_terms(spec, 0.01)[4])
        res = scatter(spec, 0.01)
        assert (res.T == 0.0) if n >= 398 else (res.T < 1e-300)
        assert res.R_left == pytest.approx(1.0202016801024276, rel=1e-13)
        assert res.R_right == pytest.approx(0.98019834656575, rel=1e-13)
        if exps[-1]:
            with pytest.raises(NumericalFailure):
                closed_form_transfer(spec, 0.01)
        else:
            closed_form_transfer(spec, 0.01)
    assert exps[:3] == [0, 0, 0] and set(exps[3:12]) == {512} and min(exps[12:]) > 1000


def test_plane_wave_transfer_rejects_a_nan_wavenumber():
    for k in (math.nan, complex(math.nan, 0.0)):
        with pytest.raises(NumericalFailure):
            closed_form_transfer(ChainSpec(3, 0.3), k)


def test_scatter_cross_checks_against_the_closed_form_value(rng, monkeypatch):
    """The reference ``scatter`` checks against is ``transmission_closed_form`` to the bit.

    Both routes take ``1 - x`` and ``U_{N-1}`` from the same real-axis
    evaluation, so the matrix route's are reused, also at a gamma where
    ``0.5*g**2 != 0.5*g*g``; where ``U_{N-1}`` leaves the double range the
    reference is 0.0. The closed form never evaluates the terms again.
    """
    odd_gamma = 0.8862418894599235
    assert 0.5 * odd_gamma**2 != 0.5 * odd_gamma * odd_gamma
    cases = [(ChainSpec(5, odd_gamma), 1.1), (ChainSpec(5, 0.8862), 1.1),
             (ChainSpec(807, 1.62), 0.01)]
    for _ in range(200):
        spec = ChainSpec(int(rng.integers(1, 60)), float(rng.uniform(0.0, 2.0)))
        cases.append((spec, float(rng.uniform(0.01, math.pi - 0.01))))
    closed_form, tail = scattering.transmission_closed_form, scattering._closed_form_transmission
    for spec, k in cases:
        references, own_runs = [], []
        monkeypatch.setattr(scattering, "_closed_form_transmission",
                            lambda *a: references.append(tail(*a)) or references[-1])
        monkeypatch.setattr(scattering, "transmission_closed_form",
                            lambda *a: own_runs.append(a) or closed_form(*a))
        try:
            scatter(spec, k)
        except SpectralSingularityError:
            continue
        finally:
            monkeypatch.undo()
        assert references == [closed_form(spec, k)]
        assert own_runs == []


def test_scatter_reference_is_the_closed_form_wherever_the_terms_rescale(rng, monkeypatch):
    """Where ``_transfer_terms`` rescales, ``scatter``'s reference is still the closed form to the bit.

    The rescale by ``2**-512`` is undone exactly where ``U_{N-1}`` fits the
    double range, and the reference is 0.0 where it does not: the factored
    terms of long chains, and the points whose ``diag`` overflows, where the
    closed form overflows to 0.0 too. A reference of 0.0 wherever the terms
    rescale would fail the cross-check where ``2**512 < |U_{N-1}|`` and T is
    a normal double, as at the first two cases, with T ~ 2.7e-305 and
    1.7e-306.
    """
    cases = [(ChainSpec(26294, 0.3), 0.15041770450390934),
             (ChainSpec(6463, 1.9), 1.2519826616058716)]
    for _ in range(2000):
        n = int(np.exp(rng.uniform(math.log(50), math.log(5000))))
        spec = ChainSpec(n, float(rng.uniform(0.0, 2.5)))
        cases.append((spec, float(rng.uniform(0.005, math.pi - 0.005))))
    tail = scattering._closed_form_transmission
    references = []
    monkeypatch.setattr(scattering, "_closed_form_transmission",
                        lambda *a: references.append(tail(*a)) or references[-1])
    rescaled = kinds = 0
    for spec, k in cases:
        exp = scattering._transfer_terms(spec, k)[4]
        if not exp:
            continue
        try:
            want = transmission_closed_form(spec, k)
            references.clear()
            scatter(spec, k)
        except SpectralSingularityError:
            continue
        assert references == [want]
        assert math.copysign(1.0, references[0]) == math.copysign(1.0, want)  # signed zeros too
        if exp > 512:
            assert want == 0.0
        rescaled += 1
        kinds |= 1 if want > 2.0**-1022 else 2
    assert scatter(*cases[0]).T > 1e-305 and scatter(*cases[1]).T > 1e-306
    assert rescaled > 100 and kinds == 3


def test_scatter_cross_check_catches_a_perturbed_matrix_route(rng, monkeypatch):
    """M22 off by one part in 1e6 moves T by 2e-6 of itself, far outside the allowance.

    The allowance is 1e-9 of T, whether T is of order one, as on short,
    weakly non-Hermitian chains, or far below it, as on the long high-gain
    chains of the first two cases (T ~ 1e-52 and 5e-29). It widens
    quadratically only far above T = 1.
    """
    terms = scattering._transfer_terms

    def perturbed(*args):
        t_n, diag, *rest = terms(*args)
        return (t_n * (1.0 + 1e-6), diag * (1.0 + 1e-6), *rest)

    monkeypatch.setattr(scattering, "_transfer_terms", perturbed)
    cases = [(ChainSpec(40, 1.9), 0.5), (ChainSpec(20, 1.9), 0.3)]
    for _ in range(20):
        spec = ChainSpec(int(rng.integers(1, 9)), float(rng.uniform(0.05, 0.5)))
        cases.append((spec, float(rng.uniform(0.3, math.pi - 0.3))))
    for spec, k in cases:
        with pytest.raises(NumericalFailure):
            scatter(spec, k)


@pytest.mark.parametrize(
    "n_cells, gamma",
    [(int(sys.float_info.max), 0.1), (int(sys.float_info.max), 2.5), (10**300, 2.5)],
    ids=["max-0.1", "max-2.5", "1e300-2.5"],
)
@pytest.mark.parametrize(
    "route", [scatter, transmission_closed_form, closed_form_transfer], ids=lambda f: f.__name__
)
def test_real_axis_terms_beyond_the_double_range_raise_a_numerical_failure(n_cells, gamma, route):
    """At the largest sizes ``N theta`` overflows or cannot be factored: a typed failure.

    At ``N = sys.float_info.max`` the phase ``N theta`` is inf in both
    branches (``math.cos(inf)`` raised ``ValueError``, the factoring of
    ``cosh`` an ``OverflowError``). At ``N = 10**300`` and ``gamma = 2.5``
    (``x > 1``) it is finite, but the factored ``cosh`` underflowed to 0
    and ``scatter`` divided by zero.
    """
    with pytest.raises(NumericalFailure, match="beyond the double range"):
        route(ChainSpec(n_cells, gamma), 1.0)


def test_scatter_near_the_band_edge_of_a_long_chain():
    """At N=807, x = cos 2k + gamma**2/2 = 0.9999981, T is right to 1e-10.

    The reference is 60-digit ``1/|M22|**2`` at the same float ``x``. The
    recurrence's terms were 8.8e-9 off in T here, and the cross-check raised.
    """
    spec, k = ChainSpec(807, 1.5944743777718202), 0.9227055346207784
    x = math.cos(2 * k) + 0.5 * spec.gamma**2
    t_n, u_nm1, _ = _mp_chebyshev(spec.n_cells, x)
    with mpmath.workdps(60):
        m22 = t_n - 1j * mpmath.cot(mpmath.mpf(k)) * (1 - mpmath.mpf(x)) * u_nm1
        want = 1 / abs(m22) ** 2
        assert abs(scatter(spec, k).T - want) <= 1e-10 * want


@pytest.mark.parametrize("n", [91, 169, 1594])
def test_scatter_next_to_the_lowest_ladder_values(n):
    """At k = pi/2, within 2e-7 of the two lowest ladder gammas, T is right to 1e-8.

    There ``x = -1 + gamma**2/2`` lies next to -1, and ``1 + x`` is taken
    from ``gamma`` directly. Formed from the rounded ``x``, it set the
    matrix route and the closed form apart beyond the cross-check's
    allowance at many of these points, and ``scatter`` raised
    ``NumericalFailure``. Now each point either returns ``T`` within 1e-8 of
    60-digit ``1/|M22|**2`` at the same float ``k`` and ``gamma``, or raises
    ``SpectralSingularityError`` (next to the lowest value ``T`` exceeds
    1e13 throughout).
    """
    k, compared = 0.5 * math.pi, 0
    for gamma0 in threshold_ladder(n).gamma_values[-2:]:
        for j in range(-200, 201):
            gamma = gamma0 * (1.0 + j * 1e-9)
            try:
                big_t = scatter(ChainSpec(n, gamma), k).T
            except SpectralSingularityError:
                continue
            with mpmath.workdps(60):
                km, gm = mpmath.mpf(k), mpmath.mpf(gamma)
                x = mpmath.cos(2 * km) + gm * gm / 2
                t_n, u_nm1, _ = _mp_chebyshev(n, x)
                want = 1 / abs(t_n - 1j * mpmath.cot(km) * (1 - x) * u_nm1) ** 2
                assert abs(big_t - want) <= 1e-8 * want
            compared += 1
    assert compared > 250


def test_scatter_rejects_wavenumber_outside_open_interval():
    spec = ChainSpec(3, 0.3)
    for bad in (0.0, -0.5, math.pi, 4.0):
        with pytest.raises(OutOfRange):
            scatter(spec, bad)
        with pytest.raises(OutOfRange):
            transmission_closed_form(spec, bad)
    # inside (0, pi) but with sin k below 1e-12: the plane-wave basis degenerates
    with pytest.raises(SingularBasis):
        scatter(spec, 1e-13)
    with pytest.raises(SingularBasis):
        pole_residual(spec, 1e-13)


def test_scatter_raises_at_spectral_singularity():
    # exact ladder values: M22(pi/2) = 0 to rounding. At N=787's first one,
    # 2 cos(pi/3148), the recurrence's terms left |M22| just above 1e-10 and
    # the routes 6.8e19 against 7.4e11 apart, so the cross-check raised instead
    for n, gamma in ((3, threshold_ladder(3).gamma_critical),
                     (787, threshold_ladder(787).gamma_values[0])):
        with pytest.raises(SpectralSingularityError):
            scatter(ChainSpec(n, gamma), 0.5 * math.pi)
        with pytest.raises(SpectralSingularityError):
            transmission_closed_form(ChainSpec(n, gamma), 0.5 * math.pi)


def test_transmission_exceeds_unity_between_gain_thresholds():
    # gamma below gamma_c but nonzero: T > 1 at band center for N = 3
    assert transmission_closed_form(ChainSpec(3, 0.3), 0.5 * math.pi) > 1.0
    # Hermitian chain transmits perfectly at every k
    assert transmission_closed_form(ChainSpec(3, 0.0), 1.1) == pytest.approx(1.0, abs=1e-12)
