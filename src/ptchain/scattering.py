"""Stationary scattering coefficients from the transfer matrix's closed form.

The scattering region is ``N`` repetitions of a gain/loss unit cell embedded
in a tight-binding lead. Wave amplitudes on either side are connected by a
2x2 transfer matrix ``M`` with ``det M = 1``; the transmission and reflection
amplitudes are

    t = 1 / M22,   r_left = -M21 / M22,   r_right = M12 / M22.

The entries come from the Chebyshev polynomials ``T_N(x)`` and
``U_{N-1}(x)`` of the branch-free variable ``x = cos 2k + gamma**2 / 2``
(which equals ``cos 2mu``), so no band-index branch is ever chosen. At real
``k`` they are evaluated in closed form by :func:`_real_terms`,
``cos(N theta)`` and ``sin(N theta)/sin theta`` with
``theta = atan2(sqrt((1-x)(1+x)), |x|)`` (``cosh``, ``sinh`` and ``asinh``
for ``|x| > 1``) and the factors ``1 ± x`` taken from ``k`` and ``gamma``
directly, at O(1) cost per point and within a few ``N`` ulp; the removable
singularity of the ratio at the band edges ``x = ±1`` is taken as its exact
limit ``±N``. At complex ``k`` they come from the three-term recurrence, in
which no such singularity arises. One scalar evaluator,
:func:`_transfer_terms`, supplies ``T_N``, ``U_{N-1}`` and the diagonal term
to :func:`scatter` and to the pole finder, whose zeros of
``M22 = T_N - diag`` are the S-matrix poles; it also makes the one decision
to rescale them by a power of two. It returns ``sin k`` and ``cos k`` with
them, taken once at real ``k``, from which :func:`_assemble` builds the
off-diagonal entries. The whole matrix is assembled only in the tests, as
an oracle.

The closed-form transmission (real arithmetic only)

    1/T = 1 - gamma**2 (1 - x) U_{N-1}(x)**2 / (2 sin^2 k)

is used as a permanent cross-check inside :func:`scatter`, and is the one
rule that declares a spectral singularity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import NumericalFailure, OutOfRange, SingularBasis, SpectralSingularityError
from .model import ChainSpec

__all__ = [
    "ScatterResult",
    "transmission_closed_form",
    "scatter",
]

#: Below this |sin k| the plane-wave basis is declared singular.
SIN_K_TOL = 1e-12

#: Resolution floor of the real-arithmetic 1/T formula: it is computed as an
#: O(1) difference, so magnitudes below a few hundred ulp are noise.
CLOSED_FORM_FLOOR = 1e-13


@dataclass(slots=True)
class ScatterResult:
    """Stationary scattering amplitudes and coefficients at one real wavenumber.

    A plain slotted record, neither frozen nor hashable: it costs little to
    build beside the O(1) evaluation that fills it.

    Attributes
    ----------
    t, r_left, r_right : complex
        Transmission amplitude (identical for both incidence directions) and
        the left/right reflection amplitudes.
    T, R_left, R_right : float
        The corresponding coefficients ``|t|**2``, ``|r_left|**2``,
        ``|r_right|**2``. They obey the generalized conservation relation
        ``|T - 1| = sqrt(R_left * R_right)`` instead of unitarity.
    """

    t: complex
    r_left: complex
    r_right: complex
    T: float
    R_left: float
    R_right: float


def chebyshev_tu(n: int, x):
    """Evaluate ``(T_n(x), U_{n-1}(x))`` by the joint three-term recurrence.

    Works for Python scalars and numpy arrays alike (only ``*`` and ``-`` are
    used). ``U_{-1} = 0`` by convention, so ``n = 0`` returns ``(1, 0)``.
    """
    if n < 0:
        raise OutOfRange(f"Chebyshev order must be nonnegative, got {n}")
    one = x * 0 + 1.0
    zero = x * 0
    if n == 0:
        return one, zero
    t_prev, u_prev = one, zero  # T_0, U_{-1}
    t_cur, u_cur = x * one, one  # T_1, U_0
    two_x = 2 * x  # ``2 * x * t`` parses as ``(2 * x) * t``: hoisting moves no bit
    # two steps per pass, each term overwriting the older one: no tuple swaps
    for _ in range((n - 1) // 2):
        t_prev = two_x * t_cur - t_prev
        u_prev = two_x * u_cur - u_prev
        t_cur = two_x * t_prev - t_cur
        u_cur = two_x * u_prev - u_cur
    if (n - 1) % 2:
        t_cur = two_x * t_cur - t_prev
        u_cur = two_x * u_cur - u_prev
    return t_cur, u_cur


#: ``ln 2`` split for exact argument reduction (Cody & Waite): ``e * _LN2_HI``
#: is exact for ``|e| < 2**21``, and ``_LN2_HI + _LN2_LO`` is ``ln 2`` to ~1e-26.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
#: Largest ``y`` whose ``exp(y) / 2`` is factored as ``t 2**e``. The reduced
#: argument ``(y - e _LN2_HI) - e _LN2_LO`` falls with ``e _LN2_LO``, to -605
#: here: ``t`` stays a normal double, which from ``y ~ 2.6e12`` it would not.
_Y_FACTORED_MAX = 2.0**41


def _phase_overflow(n: int, y: float) -> NumericalFailure:
    """The failure of a phase ``y = n theta`` too large to evaluate the terms from."""
    return NumericalFailure(
        f"Chebyshev terms beyond the double range at N = {n:.4g} (N theta = {y!r})"
    )


def _chebyshev_real(n: int, one_minus_x: float, one_plus_x: float) -> tuple[float, float, int]:
    """``(T_n(x), U_{n-1}(x))`` of a real ``x`` as ``(t, u, e)``: ``T_n = t 2**e``.

    ``x`` is given by its factors ``1 - x`` and ``1 + x``, which next to
    ``x = ±1`` can be far more accurate than ``x``; ``x`` is their
    half-difference. Closed forms in ``s = sqrt|(1 - x)(1 + x)|``.
    Where their product is not negative, ``theta = atan2(s, |x|)`` gives
    ``T_n = cos(n theta)`` and ``U_{n-1} = sin(n theta) / s``; where it is
    negative (``|x| > 1``), ``theta = asinh(s)`` gives ``cosh`` and ``sinh``.
    Branch and ``theta`` follow the factors, not ``x``: ``acosh`` of a
    rounded ``|x| = 1`` would give ``theta = 0`` beside a nonzero ``s``.
    ``x < 0`` follows by parity, and at ``s == 0`` the limits ``(±1, ±n)``
    are exact. Each term costs O(1). The phase ``y = n theta`` carries
    ``n`` times theta's rounding and its own, and ``cos``, ``sin``, ``cosh``
    and ``sinh`` pass that error of order ``y`` ulp on to the terms, so
    against 60-digit arithmetic the error is under ``n + y`` ulp of
    ``|T_n| + s |U_{n-1}|`` (at most 0.62 of it over 13,000 draws, also
    next to ``x = ±1``, where the recurrence of :func:`chebyshev_tu` is off
    by hundreds of ``n`` ulp). For ``|x| <= 1``, ``y <= n pi/2``, and the
    worst error measured is 0.99 ``n`` ulp; beyond, ``y`` grows like
    ``n ln(2|x|)``: about 100 ulp at ``n = 1``, ``|x| = 1e308``, and 1,260
    at ``n = 3``. ``e`` is 0 unless ``T_n`` or ``U_{n-1}`` exceeds
    the double range; then ``exp(n theta) / 2 = t 2**e`` is factored, and
    ``U_{n-1} = u 2**e`` too.

    Raises
    ------
    NumericalFailure
        When ``n theta`` overflows, at ``n`` near the largest double, or is
        too large for the factoring, which keeps ``t`` a normal double only
        up to ``n theta = 2**41``.
    """
    x = 0.5 * (one_plus_x - one_minus_x)
    e = 0
    if one_minus_x * one_plus_x < 0.0:  # |x| > 1
        # the roots apart: the product overflows for |x| > 1e154
        s = math.sqrt(abs(one_minus_x)) * math.sqrt(abs(one_plus_x))
        y = n * math.asinh(s)
        t = u = math.inf
        if y < 710.0:  # math.cosh raises OverflowError beyond ~710.48
            t, u = math.cosh(y), math.sinh(y) / s
        if u == math.inf:  # U_{n-1}, and maybe T_n, beyond the double range
            if not y <= _Y_FACTORED_MAX:  # also inf
                raise _phase_overflow(n, y)
            # cosh y = sinh y = exp(y) / 2 to the last bit here
            e = int(y / _LN2_HI)
            t = 0.5 * math.exp((y - e * _LN2_HI) - e * _LN2_LO)
            u = t / s
    else:  # also NaN factors, whose terms come out NaN
        s = math.sqrt(one_minus_x * one_plus_x)
        if s == 0.0:
            t, u = 1.0, float(n)
        else:
            y = n * math.atan2(s, abs(x))
            try:
                t, u = math.cos(y), math.sin(y) / s
            except ValueError:  # math.cos(inf); a NaN y gives NaN terms
                raise _phase_overflow(n, y) from None
    if x < 0.0:  # T_n(-x) = (-1)**n T_n(x), U_{n-1}(-x) = (-1)**(n-1) U_{n-1}(x)
        if n % 2:
            t = -t
        else:
            u = -u
    return t, u, e


def _real_terms(spec: ChainSpec, sink: float, cosk: float) -> tuple[float, float, int, float]:
    """``(T_N, U_{N-1}, e, 1 - x)`` at real ``k``, the one evaluation of the real-axis terms.

    ``1 + x = 2 cos^2 k + gamma**2/2`` and ``1 - x = 2 sin^2 k - gamma**2/2``
    come from ``sin k`` and ``cos k`` and ``gamma``, not from a rounded ``x``:
    at the small ``gamma`` of the threshold ladder (``k = pi/2``, ``x`` next
    to -1) the sum ``1 + x`` keeps a few ulp of itself.
    """
    half_g2 = 0.5 * spec.gamma * spec.gamma
    one_minus_x, one_plus_x = 2.0 * sink * sink - half_g2, 2.0 * cosk * cosk + half_g2
    t_n, u_nm1, exp = _chebyshev_real(spec.n_cells, one_minus_x, one_plus_x)
    return t_n, u_nm1, exp, one_minus_x


def _transfer_terms(
    spec: ChainSpec, k: complex
) -> tuple[complex, complex, complex, complex, int, complex, complex]:
    """Chebyshev terms of the plane-wave transfer matrix at wavenumber ``k``.

    Returns ``(T_N(x), diag, U_{N-1}(x), sin k, e, 1 - x, cos k)`` with the
    branch-free ``x = cos 2k + gamma**2/2`` and
    ``diag = i cot k (1 - x) U_{N-1}(x)``, so that ``M22 = (T_N - diag) 2**e``
    and ``M11 = (T_N + diag) 2**e``.

    At real ``k`` (any ``k`` that is not a ``complex`` instance) ``sin k``
    and ``cos k`` are taken once, and the terms come from
    :func:`_real_terms`. This is the one place the terms are rescaled: where
    ``|U_{N-1}| > 2**512`` or ``diag`` overflows, all three are multiplied by
    the exact ``2**-512`` and ``e`` grows by 512, which leaves the entries
    and their quotients headroom. ``e`` is 0 otherwise, unless ``U_{N-1}``
    exceeds the double range itself, where :func:`_chebyshev_real` factors
    it with an exponent above 512. At complex ``k`` (also with ``Im k = 0``)
    the terms come from the recurrence of :func:`chebyshev_tu` and ``e`` is
    0; on long chains they can be non-finite, which the callers report.

    Raises
    ------
    SingularBasis
        When ``|sin k| < 1e-12`` (the plane-wave basis degenerates).
    NumericalFailure
        At real ``k``, when ``N theta`` is beyond the double range (see
        :func:`_chebyshev_real`).
    """
    complex_k = isinstance(k, complex)
    sink = cmath.sin(k) if complex_k else math.sin(k)
    if abs(sink) < SIN_K_TOL:
        raise SingularBasis(f"plane-wave basis is singular at k = {k!r} (sin k ~ 0)")
    # cot k * tan(mu) * sin(2N mu) == cot k * (1 - cos 2mu) * U_{N-1}(cos 2mu)
    if complex_k:
        x = cmath.cos(2 * k) + 0.5 * spec.gamma**2
        t_n, u_nm1 = chebyshev_tu(spec.n_cells, x)
        cosk = cmath.cos(k)
        return t_n, 1j * (cosk / sink) * (1.0 - x) * u_nm1, u_nm1, sink, 0, 1.0 - x, cosk
    cosk = math.cos(k)
    t_n, u_nm1, exp, one_minus_x = _real_terms(spec, sink, cosk)
    cot_factor = cosk / sink * one_minus_x
    if abs(u_nm1) > 2.0**512 or math.isinf(cot_factor * u_nm1):
        t_n, u_nm1, exp = t_n * 2.0**-512, u_nm1 * 2.0**-512, exp + 512
    return t_n, 1j * (cot_factor * u_nm1), u_nm1, sink, exp, one_minus_x, cosk


def _assemble(
    spec: ChainSpec, u_nm1: complex, sink: complex, cosk: complex
) -> tuple[complex, complex]:
    """The off-diagonal entries ``(M12, M21)`` from the terms of :func:`_transfer_terms`.

    They carry the same factor ``2**-e`` as the terms. ``e^{±ik}`` is
    ``complex(cos k, ±sin k)``, from the ``sin k`` and ``cos k`` the terms
    came with: at real ``k`` it equals ``cmath.exp(±1j*k)`` bit for bit, and
    at complex ``k`` it is ``cos k ± i sin k`` with one rounding per part.
    """
    g = spec.gamma
    off = 1j * g * u_nm1 / (2.0 * sink)
    return (
        off * complex(cosk, sink) * (2.0 * sink - g),
        off * complex(cosk, -sink) * (2.0 * sink + g),
    )


def transmission_closed_form(spec: ChainSpec, k: float) -> float:
    """Transmission coefficient from the real-arithmetic closed form.

    ``1/T = 1 - gamma**2 (1 - x) U_{N-1}(x)**2 / (2 sin^2 k)`` with
    ``x = cos 2k + gamma**2/2``, and ``1 - x`` and ``U_{N-1}(x)`` from
    :func:`_real_terms` in O(1). Valid at real ``k`` in ``(0, pi)``; diverges
    exactly at spectral singularities. Where ``U_{N-1}(x)`` exceeds the double
    range (long chains with ``x > 1``), the exact ``T`` lies far below it and
    0.0 is returned.

    Raises
    ------
    SpectralSingularityError
        When ``|1/T|`` falls below the formula's rounding resolution
        (``1/T`` is an O(1) difference, so values under ~1e-13 cannot be
        distinguished from a true zero and the transmission has diverged
        for any practical purpose).
    NumericalFailure
        When ``N theta`` is beyond the double range (see
        :func:`_chebyshev_real`).
    """
    if not 0.0 < k < math.pi:
        raise OutOfRange(f"real scattering requires k in (0, pi), got {k!r}")
    sink = math.sin(k)
    _, u_nm1, exp, one_minus_x = _real_terms(spec, sink, math.cos(k))
    return _closed_form_transmission(spec.gamma, k, sink, one_minus_x, u_nm1, exp)


def _closed_form_transmission(
    gamma: float, k: float, sink: float, one_minus_x: float, u_nm1: float, exp: int
) -> float:
    """The closed form from ``sin k``, ``1 - x`` and ``U_{N-1} = u_nm1 2**exp``; 0.0 past the double range.

    ``U_{N-1}`` is past the double range where ``exp > 512`` (a factored
    term) or ``u_nm1`` is not finite. ``exp == 512`` is the rescale of
    :func:`_transfer_terms` alone, which is undone exactly here, so the
    value is that of :func:`transmission_closed_form` at every ``k``.
    """
    if exp > 512 or not math.isfinite(u_nm1):
        return 0.0
    if exp:
        u_nm1 *= 2.0**exp
    inv_t = 1.0 - gamma * gamma * one_minus_x * u_nm1 * u_nm1 / (2.0 * sink * sink)
    if abs(inv_t) < CLOSED_FORM_FLOOR:
        raise SpectralSingularityError(
            f"transmission diverges at k = {k!r} (spectral singularity)"
        )
    return 1.0 / inv_t


def scatter(spec: ChainSpec, k: float) -> ScatterResult:
    """Stationary scattering amplitudes and coefficients at real ``k``.

    ``t = 1/M22``, ``r_left = -M21/M22``, ``r_right = M12/M22``, with the
    Chebyshev terms in the closed form of :func:`_chebyshev_real`: each call
    costs O(1) whatever the chain length. On every call the transmission is
    cross-checked against the real-arithmetic closed form of
    :func:`transmission_closed_form`, evaluated from the matrix route's own
    ``1 - x`` and ``U_{N-1}(x)``: the check tests the assembly of ``M22`` and
    the division by it, not the terms, which the tests compare with 60-digit
    ``mpmath``. It allows 1e-9 relative also where ``T << 1``, widened by the
    closed form's own quadratic error floor near singularities, and by the
    smallest normal double, where both underflow. Where ``U_{N-1}`` exceeds
    the double range the reference is 0.0, as the closed form returns there.
    On long chains whose entries approach or exceed the double range, they
    are evaluated rescaled by a power of two (see :func:`_transfer_terms`):
    ``T`` underflows toward 0 while ``R_left`` and ``R_right`` stay finite,
    or the call raises where they cannot (below).

    Raises
    ------
    OutOfRange
        If ``k`` is not inside the open interval ``(0, pi)``.
    SpectralSingularityError
        Where the closed form raises it, ``|1/T| < 1e-13``: the coefficients
        diverge, and the caller receives the classification instead of
        meaningless huge numbers. At real ``k``, ``|M22|**2 = 1/T`` exactly,
        so this is also the rule on ``M22``: a point that passes it has
        ``|M22|`` near or above ``sqrt(1e-13)``.
    NumericalFailure
        When the transmission cross-check fails, or ``N theta`` is beyond
        the double range (see :func:`_chebyshev_real`), or the reflections
        are: a reflection amplitude is not finite (the entries overflow, as
        at ``N = 1`` and the largest ``gamma``), or a factored ``U_{N-1}``
        has underflowed below ``2**-1042``, keeping fewer than 32 bits. So
        every result returned is finite and obeys
        ``|T - 1| = sqrt(R_left R_right)``.
    """
    if not 0.0 < k < math.pi:
        raise OutOfRange(f"real scattering requires k in (0, pi), got {k!r}")
    t_n, diag, u_nm1, sink, exp, one_minus_x, cosk = _transfer_terms(spec, k)
    reference = _closed_form_transmission(spec.gamma, k, sink, one_minus_x, u_nm1, exp)
    # the entries are divided by 2**exp: the ratios r are unaffected, t = 2**-exp / M22
    m12, m21 = _assemble(spec, u_nm1, sink, cosk)
    m22 = t_n - diag
    t = 2.0**-exp / m22
    r_left = -m21 / m22
    r_right = m12 / m22
    big_t = abs(t) ** 2
    # relative, widened by the closed form's absolute error ~ ulp * T^2 near
    # singularities (1/T is an O(1) difference); the floor lets an underflowed
    # T match the 0.0 reference of an overflowed U
    allowance = 1e-9 * abs(reference) + 1e-13 * reference * reference + 2.0**-1022
    if not abs(big_t - reference) <= allowance:  # NaN fails too
        raise NumericalFailure(
            f"transmission cross-check failed at k={k!r}: "
            f"matrix route {big_t!r} vs closed form {reference!r}"
        )
    # the check on T passes a NaN reflection of overflowing entries, and the
    # reflections of a U_{N-1} that underflowed to fewer than 32 bits
    if not (cmath.isfinite(r_left) and cmath.isfinite(r_right) and abs(u_nm1) >= 2.0**-1042):
        raise NumericalFailure(
            f"reflection amplitudes beyond the double range at k={k!r}: r_left {r_left!r}, "
            f"r_right {r_right!r} from U_(N-1) = {u_nm1!r} 2**{exp}"
        )
    return ScatterResult(t, r_left, r_right, big_t, abs(r_left) ** 2, abs(r_right) ** 2)
