"""Phase arithmetic: exact rational reduction, fixed-point times, guards."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import circ_dist, irrational_phase, mp_half_phase, mp_value
from thetareg.contfrac import DecimalLiteral, Rational
from thetareg.errors import DomainError, InsufficientPrecisionError
from thetareg.exactnum import (GUARD_BITS, FixedReal, fixed_of_time,
                               half_phase_splits, linear_phase_array,
                               quadratic_phase_array, rational_phase,
                               rational_phase_array)


# ---------------------------------------------------------------- rational

def test_rational_phase_hand_values():
    assert rational_phase(3, 2, 3) == 0               # 9*2/6 = 3 == 0 (mod 1)
    assert rational_phase(1, 1, 2) == Fraction(1, 4)
    assert rational_phase(5, 1, 3) == Fraction(1, 6)   # 25/6 mod 1
    assert rational_phase(-5, 1, 3) == Fraction(1, 6)  # even in n
    assert rational_phase(0, 7, 13) == 0


def test_rational_phase_rejects_bad_input():
    with pytest.raises(DomainError):
        rational_phase(1, 2, 4)       # not lowest terms
    with pytest.raises(DomainError):
        rational_phase(1, 1, 0)
    with pytest.raises(DomainError):
        rational_phase_array(np.arange(3), 2, 6)


@given(n=st.integers(-10**6, 10**6), p=st.integers(-20, 20),
       q=st.integers(1, 30))
def test_rational_phase_periodic_and_in_range(n, p, q):
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if q < 0:
        p, q = -p, -q
    ph = rational_phase(n, p, q)
    assert 0 <= ph < 1
    assert rational_phase(n + 2 * q, p, q) == ph


@given(p=st.integers(-9, 9), q=st.integers(1, 40),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_rational_phase_array_matches_scalar(p, q, seed):
    g = math.gcd(p, q)
    p, q = p // g, q // g
    rng = np.random.default_rng(seed)
    n = rng.integers(-10**6, 10**6, size=17)
    got = rational_phase_array(n, p, q)
    want = np.array([float(rational_phase(int(k), p, q)) for k in n])
    assert np.max(np.abs(got - want)) <= 1e-15


def test_rational_phase_array_bigint_fallback():
    # denominator 2q above the int64-safe range: Python-int route
    q = (1 << 31) + 11    # prime-ish odd, gcd(1, q) = 1
    n = np.array([3, -7, 123456789, 2**40 + 5])
    got = rational_phase_array(n, 1, q)
    want = np.array([float(rational_phase(int(k), 1, q)) for k in n])
    assert np.max(np.abs(got - want)) <= 1e-15


# q = 2^30 - 1 is the largest q on the int64 route (L = 2q = 2^31 - 2; L is
# even, so 2^31 - 1 itself never occurs); 2^30 is the first past it.
_EDGE_Q = (1 << 30) - 1, 1 << 30, (1 << 30) + 1


@given(p=st.integers(-10**6, 10**6),
       q=st.one_of(st.integers(1, 10**40), st.sampled_from(_EDGE_Q)),
       shape=st.sampled_from([(), (9,), (3, 4)]),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=80)
def test_rational_phase_array_equals_scalar_exactly(p, q, shape, seed):
    assume(math.gcd(p, q) == 1)
    n = np.random.default_rng(seed).integers(-(1 << 21), 1 << 21, size=shape)
    kept = n.copy()
    got = rational_phase_array(n, p, q)
    want = np.array([float(rational_phase(int(k), p, q))
                     for k in np.ravel(n)]).reshape(shape)
    assert np.array_equal(got, want)
    assert np.array_equal(n, kept)      # the in-place reduction leaves n alone


def test_rational_phase_array_edge_routes():
    # both sides of the int64 / Python-int boundary, negative and 2-D n
    n = np.array([[0, -1, 2], [(1 << 21) - 1, -(1 << 21), 12345]])
    for q in ((1 << 30) - 1, 1 << 30, 10**40 + 1):
        got = rational_phase_array(n, 5, q)
        want = [[float(rational_phase(int(k), 5, q)) for k in row] for row in n]
        assert np.array_equal(got, np.array(want))


# ------------------------------------------------------------- fixed point

def test_fixed_real_validation_and_bounds():
    t = FixedReal(341, 10, 1)
    assert Fraction(t.mantissa, 1 << t.scale_bits) == Fraction(341, 1024)
    with pytest.raises(DomainError):
        FixedReal(1, 0)
    with pytest.raises(DomainError):
        FixedReal(1, 8, -1)


def test_fixed_of_time_golden_frozen(golden):
    # floor(2^16 (sqrt(5)-1)/2) = 40503: 0.61803398875 * 65536 = 40503.55...
    t = fixed_of_time(golden, 16)
    assert t.mantissa == 40503
    assert t.err_ulp <= 1
    exact = mp_value(golden)
    got = Fraction(t.mantissa, 1 << t.scale_bits)
    assert abs(float(exact) - float(got)) <= 2.0 ** -15  # within 2 ulp
    # independent recomputation of the mantissa at high precision
    with mp.workdps(50):
        assert int(mp.floor(exact * 2 ** 16)) in (t.mantissa, t.mantissa + 1)


def test_fixed_of_time_sqrt2_frozen(sqrt2m1):
    # floor(2^20 (sqrt(2)-1)) = 434334: 0.41421356... * 1048576 = 434334.3
    t = fixed_of_time(sqrt2m1, 20)
    assert t.mantissa == 434334
    assert t.err_ulp <= 1
    with mp.workdps(50):
        v = mp.sqrt(2) - 1
        got = Fraction(t.mantissa, 1 << t.scale_bits)
        assert abs(float(v) - float(got)) <= 2.0 ** -19


def test_fixed_of_time_rational_rounding():
    # a rational time is never rounded to fixed point, not even a dyadic one
    # that would be exact: its phases are exact rationals
    for t, bits in ((Rational(1, 3), 10), (Rational(1, 2), 4)):
        with pytest.raises(DomainError):
            fixed_of_time(t, bits)
    assert rational_phase(1, 1, 3) == Fraction(1, 6)


def test_fixed_of_time_decimal_resolution_gate(golden):
    # a decimal literal is refused whatever its resolution against 2^-bits
    # (10^-3 is coarser than 2^-10, finer than 2^-8); bits <= 0 is refused
    # for an irrational time too
    for lit, bits in ((DecimalLiteral("0.414"), 8), (DecimalLiteral("0.414"), 10),
                      (DecimalLiteral("0.5"), 8)):
        with pytest.raises(DomainError):
            fixed_of_time(lit, bits)
    with pytest.raises(DomainError):
        fixed_of_time(golden, 0)


# ------------------------------------------------------------ guard policy

def test_irrational_phase_guard_refusal(golden):
    t = fixed_of_time(golden, 40)
    n = 2 ** 17            # n^2 = 2^34 > 2^(40-30)
    with pytest.raises(InsufficientPrecisionError):
        quadratic_phase_array(np.array([n]), t)
    # the guard admits exactly n^2 <= 2^(40 - GUARD_BITS)
    assert GUARD_BITS == 30
    ph, err = quadratic_phase_array(np.array([2 ** 5]), t)
    assert 0.0 <= ph[0] < 1.0 and err < 2.0 ** -20
    with pytest.raises(InsufficientPrecisionError):
        quadratic_phase_array(np.array([2 ** 5 + 1]), t)


def test_irrational_phase_vs_mpmath(golden):
    # the bigint reference of the phase-array tests, against mpmath
    t = fixed_of_time(golden, 64)
    exact = mp_value(golden, dps=60)
    for n in (1, 517, 9001, 100003):
        ph, err = irrational_phase(n, t)
        ref = mp_half_phase(n, exact)
        # err covers the fixed-point budget; mpmath's own error is ~1e-55
        assert circ_dist(ph, ref) <= err + 1e-14
        assert err <= 1e-9


# --------------------------------------------------------- vectorised path

def test_half_phase_splits_is_exact(golden):
    t = fixed_of_time(golden, 76)
    hi, lo, leftover = half_phase_splits(t)
    assert Fraction(hi) + Fraction(lo) + leftover == Fraction(
        t.mantissa, 1 << (t.scale_bits + 1))
    assert abs(float(leftover)) <= 2.0 ** -100


def test_quadratic_phase_array_matches_bigint_route(golden):
    t = fixed_of_time(golden, 76)
    rng = np.random.default_rng(7)
    n = rng.integers(-(2**21), 2**21, size=300)
    frac, bound = quadratic_phase_array(n, t)
    # budget: n^2 * (1 ulp at 2^-77) ~ 2^-35 plus the double-double tail
    assert bound < 1e-10
    assert np.all((frac >= 0.0) & (frac < 1.0))
    for i in range(0, 300, 13):
        ref, referr = irrational_phase(int(n[i]), t)
        assert circ_dist(float(frac[i]), ref) <= bound + referr


def test_quadratic_phase_array_vs_mpmath(sqrt2m1):
    t = fixed_of_time(sqrt2m1, 76)
    exact = mp_value(sqrt2m1, dps=60)
    n = np.array([3, 1000, 65537, 2**20 + 1])
    frac, bound = quadratic_phase_array(n, t)
    for i, k in enumerate(n):
        ref = mp_half_phase(int(k), exact)
        # the fixed value itself sits within 2^-76 of the true time
        slack = bound + (int(k) ** 2) * 2.0 ** -76
        assert circ_dist(float(frac[i]), ref) <= slack


def test_quadratic_phase_array_refuses_inexact_squares(golden):
    t = fixed_of_time(golden, 150)
    with pytest.raises(DomainError):
        quadratic_phase_array(np.array([1 << 26]), t)


def test_quadratic_phase_array_scalar_shape(golden):
    t = fixed_of_time(golden, 76)
    frac, _ = quadratic_phase_array(np.int64(12345), t)
    assert np.shape(frac) == ()
    assert 0.0 <= float(frac) < 1.0


@given(seed=st.integers(0, 2**31 - 1),
       x=st.floats(-4.0, 4.0, allow_nan=False))
@settings(max_examples=60)
def test_linear_phase_array_vs_fraction(seed, x):
    rng = np.random.default_rng(seed)
    n = rng.integers(-(2**21), 2**21, size=11)
    got = linear_phase_array(n, x)
    X = Fraction(x)
    for i, k in enumerate(n):
        ref = Fraction(int(k)) * X
        ref = ref - (ref.numerator // ref.denominator)
        assert circ_dist(float(got[i]), float(ref)) <= 2.0 ** -48
    assert np.all((got >= 0.0) & (got < 1.0))
