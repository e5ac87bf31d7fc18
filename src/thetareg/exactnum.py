"""Exact and error-tracked arithmetic for quadratic exponential phases.

Everything downstream evaluates sums whose terms are e(n^2 t/2 + n x),
e(z) = exp(2 pi i z), so the only thing that matters about a phase is its
value mod 1, to a small fraction of a cycle. Two regimes:

* rational t = p/q: n^2 p/(2q) is an exact rational; reduce the numerator
  mod the denominator 2q in integer arithmetic and divide once at the end.
  No rounding at all before the final binary64 quotient.

* irrational t: double precision alone is useless once n^2 t has a large
  integer part (the fractional bits are the ones that got rounded away).
  t is therefore carried as a fixed-point integer ``mantissa * 2^-scale_bits``
  with an explicit error budget in units in the last place, and phases are
  produced together with a rigorous bound. The vectorised path splits the
  product n^2 * (t/2) into an exact double-double (Veltkamp/Dekker two
  product), subtracts the nearest integer from the exact high part, and
  only then lets rounding happen, so the result is good to ~2^-51 even
  though n^2 * t may be ~2^40.

Precision is refused, never degraded: if n^2 * ulp(t) is not at least
GUARD_BITS bits below a full cycle, the phase functions raise instead of
returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, InsufficientPrecisionError

__all__ = [
    "FixedReal",
    "GUARD_BITS",
    "rational_phase",
    "rational_phase_array",
    "fixed_of_time",
    "quadratic_phase_array",
    "linear_phase_array",
]

# Headroom (in bits) that n^2 * ulp must leave below a full cycle.
GUARD_BITS = 30

# 2^27 + 1, the Veltkamp splitter for binary64.
_SPLIT = 134217729.0

# Elements per pass of quadratic_phase_array: its float temporaries stay
# at about 1 MiB in all, whatever the array's length.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class FixedReal:
    """A real number as mantissa * 2^-scale_bits with |error| <= err_ulp ulp."""

    mantissa: int
    scale_bits: int
    err_ulp: int = 0

    def __post_init__(self) -> None:
        if self.scale_bits <= 0:
            raise DomainError("scale_bits must be positive")
        if self.err_ulp < 0:
            raise DomainError("err_ulp must be non-negative")


def rational_phase(n: int, p: int, q: int) -> Fraction:
    """Exact (n^2 p/(2q)) mod 1 as a Fraction in [0, 1).

    The map n -> phase is periodic with period dividing 2q; tests and the
    residue-class probe exploit that. No floating point is involved.
    """
    if q <= 0:
        raise DomainError("q must be positive")
    if math.gcd(p, q) != 1:
        raise DomainError(f"{p}/{q} is not in lowest terms")
    return Fraction(n * n * p % (2 * q), 2 * q)


def rational_phase_array(n: np.ndarray, p: int, q: int) -> np.ndarray:
    """Vectorised ``rational_phase`` as float64 in [0, 1).

    The numerator n^2 p is reduced mod L = 2q exactly and divided once, so
    each value is the correctly rounded quotient, equal to
    ``float(rational_phase(...))``. The reduction runs in int64, in place
    on one array, while products of residues fit (L < 2^31); past that it
    runs on an object array of Python ints, whose int / int true division
    is correctly rounded too. ``n`` itself is never written.
    """
    if q <= 0:
        raise DomainError("q must be positive")
    if math.gcd(p, q) != 1:
        raise DomainError(f"{p}/{q} is not in lowest terms")
    L = 2 * q
    if L > (1 << 31) - 1:
        nn = np.asarray(n).astype(object)
        return np.asarray((nn * nn * p) % L / L, dtype=np.float64)
    nn = np.asarray(n, dtype=np.int64) % L     # a new array: n is not written
    nn *= nn
    nn %= L
    nn *= p % L
    nn %= L
    return nn / L


def fixed_of_time(spec, bits: int) -> FixedReal:
    """Fixed-point approximation of an irrational time, total error < 1 ulp.

    ``spec`` is a time parameter whose ``exact_value()`` is None. Its
    ``value_bracket`` at width 2^-(bits+2) closes on the first convergent
    pair with q_k q_{k+1} >= 2^(bits+2); the value is replaced by the end
    with the smaller denominator, p_k/q_k, whose distance to t is below
    1/4 ulp, for a total budget under 1 ulp.

    A time with an exact value is refused with DomainError: its phases are
    exact rationals (``rational_phase_array``), never fixed point. Raises
    PrecisionExhaustedError when the quotient source dries up.
    """
    if bits <= 0:
        raise DomainError("bits must be positive")
    if spec.exact_value() is not None:
        raise DomainError("fixed point is for irrational times; an exact "
                          "time has rational phases")
    p, q = min(spec.value_bracket(Fraction(1, 1 << (bits + 2))),
               key=lambda end: end[1])
    mantissa, rem = divmod(p << bits, q)
    if 2 * rem > q or (2 * rem == q and mantissa % 2):   # half to even, as round
        mantissa += 1
    return FixedReal(mantissa, bits, 1)


def _check_guard(n_max: int, t: FixedReal) -> None:
    if n_max == 0:
        return
    # need n^2 * 2^-scale_bits <= 2^-GUARD_BITS
    room = t.scale_bits - GUARD_BITS
    if room <= 0 or n_max * n_max > (1 << room):
        raise InsufficientPrecisionError(
            f"scale_bits = {t.scale_bits} leaves less than {GUARD_BITS} guard "
            f"bits at |n| = {n_max}; re-derive the time with more bits")


def _two_prod(a: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact elementwise product a*b = p + e (Dekker), away from overflow."""
    p = a * b
    big = _SPLIT * a
    ah = big - (big - a)
    al = a - ah
    bigb = _SPLIT * b
    bh = bigb - (bigb - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def half_phase_splits(t: FixedReal) -> tuple[float, float, Fraction]:
    """t/2 as a double-double (hi, lo) plus the exact leftover.

    hi + lo + leftover == t/2 exactly; |leftover| <= 2^-105 roughly.
    """
    theta = Fraction(t.mantissa, 1 << (t.scale_bits + 1))
    hi = float(theta)
    rem = theta - Fraction(hi)
    lo = float(rem)
    return hi, lo, rem - Fraction(lo)


def quadratic_phase_array(n: np.ndarray, t: FixedReal) -> tuple[np.ndarray, float]:
    """((n^2 t / 2) mod 1 elementwise, one error bound for the whole array).

    Requires |n| < 2^26 so n^2 is exact in binary64 (the block budget tops
    out at 2^21). The integer part of n^2 * (t/2) is removed from the exact
    high product before any rounding can touch the fractional bits. It
    runs in passes of _CHUNK elements, so its temporaries stay small next
    to the result.
    """
    nn = np.asarray(n)
    n_max = int(np.max(np.abs(nn))) if nn.size else 0
    _check_guard(n_max, t)
    if n_max >= (1 << 26):
        raise DomainError("|n| >= 2^26 would make n^2 inexact in binary64")
    hi, lo, leftover = half_phase_splits(t)
    frac = np.empty(nn.shape)
    flat_n, flat = nn.reshape(-1), frac.reshape(-1)
    for i in range(0, flat.size, _CHUNK):
        u = flat_n[i:i + _CHUNK].astype(np.float64)
        u *= u
        p, e = _two_prod(u, hi)
        r = p - np.round(p)
        tot = r + (e + u * lo)
        f = tot - np.floor(tot)
        f[f >= 1.0] = 0.0                # subtraction may round up to 1.0
        flat[i:i + _CHUNK] = f
    model = n_max * n_max * (
        t.err_ulp / float(1 << (t.scale_bits + 1)) + abs(float(leftover)))
    return frac, model + 2.0 ** -51


def linear_phase_array(n: np.ndarray, x: float) -> np.ndarray:
    """(n x) mod 1 elementwise, accurate to ~2^-52 via an exact two-product."""
    a = np.asarray(n, dtype=np.float64)
    p, e = _two_prod(a, float(x))
    r = p - np.round(p)
    tot = r + e
    frac = tot - np.floor(tot)
    return np.where(frac >= 1.0, 0.0, frac)
