"""Independent brute-force oracles the tests compare the library against.

Everything here is deliberately naive: exact Fraction phases, per-term
cmath exponentials, O(L^2) transforms. Slow but with no shared code path
(no numpy vectorisation, no FFT, no residue folding), so agreement with
the fast routes is evidence, not tautology.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from thetareg.contfrac import QuadraticIrrational

TAU = 2.0 * math.pi


def e_frac(ph: Fraction) -> complex:
    """e(ph) for an exact rational phase."""
    ph = ph - (ph.numerator // ph.denominator)
    return cmath.exp(1j * TAU * float(ph))


def _smooth_step(u: np.ndarray) -> np.ndarray:
    """g(u) = exp(-1/u) for u > 0, else 0; infinitely flat at 0."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def phi(x: np.ndarray) -> np.ndarray:
    """1 on x <= 1, 0 on x >= 2, g(2 - x) / (g(2 - x) + g(x - 1)) between."""
    x = np.asarray(x, dtype=np.float64)
    out = np.ones_like(x)
    out[x >= 2.0] = 0.0
    mid = (x > 1.0) & (x < 2.0)
    if np.any(mid):
        a = _smooth_step(2.0 - x[mid])
        b = _smooth_step(x[mid] - 1.0)
        out[mid] = a / (a + b)
    return out


def chi(x: np.ndarray) -> np.ndarray:
    """The smooth bump as its definition composes it, phi(x) - phi(2x), for
    every x: the reference for the closed form smooth_weights uses."""
    return phi(x) - phi(2.0 * np.asarray(x, dtype=np.float64))


def half_line(weights) -> np.ndarray:
    """w_n for n = 0..N: M zeros, then the weights of the window M..N (ones
    for a sharp block, which stores none)."""
    w = np.ones(weights.N - weights.M + 1) if weights.w is None else weights.w
    return np.concatenate((np.zeros(weights.M), w))


def brute_sum_at(p: int, q: int, weights, num: int, den: int) -> complex:
    """S(num/den) = sum w_n e(n^2 p/(2q) + n num/den), term by term.

    Phases are reduced as exact Fractions before any float enters.
    """
    half = half_line(weights)
    total = 0.0 + 0.0j
    for m in range(-weights.N, weights.N + 1):
        w = half[abs(m)]
        if w == 0.0:
            continue
        ph = Fraction(m * m * p, 2 * q) + Fraction(m * num, den)
        total += w * e_frac(ph)
    return total


def irrational_phase(n: int, t) -> tuple[float, float]:
    """((n^2 t/2) mod 1, an absolute error bound) for a fixed-point time
    t = mantissa * 2^-scale_bits, by exact integer arithmetic on the
    mantissa: the bound is the input's err_ulp budget at n plus one final
    rounding of the integer quotient."""
    modulus = 1 << (t.scale_bits + 1)
    rem = (n * n * t.mantissa) % modulus
    return rem / modulus, n * n * t.err_ulp / modulus + 2.0 ** -52


def brute_probe_max(p: int, q: int, weights) -> float:
    """max over h of |S(h/(2q))| by direct evaluation."""
    return max(abs(brute_sum_at(p, q, weights, h, 2 * q))
               for h in range(2 * q))


def slow_comb_masses(p: int, q: int) -> list[complex]:
    """Masses of the rational-time comb at l/(2q), l = 0..2q-1, via the
    plain O(L^2) discrete transform of the quadratic character sum."""
    L = 2 * q
    out = []
    for l in range(L):
        acc = 0.0 + 0.0j
        for r in range(L):
            acc += e_frac(Fraction(r * r * p, L) + Fraction(r * l, L))
        out.append(acc / L)
    return out


def determinant_alternates(exp) -> bool:
    """p_k q_{k-1} - p_{k-1} q_k == (-1)^(k+1) for every k >= 0 of a
    CFExpansion, k = -1 being the seed (1, 0)."""
    pairs = [(1, 0), *exp.convergents()]
    return all(p * q_prev - p_prev * q == (-1) ** (k + 1)
               for k, ((p_prev, q_prev), (p, q)) in enumerate(zip(pairs, pairs[1:])))


def variation(weights, k: int) -> float:
    """sum of |(Delta^k w)_n| over the whole line, w zero off M <= |n| <= N:
    k rounds of differences b - a over n = -N-k..N+k, one term at a time,
    and one correctly rounded sum (math.fsum)."""
    half = half_line(weights).tolist()
    line = [0.0] * k + half[:0:-1] + half + [0.0] * k
    for _ in range(k):
        line = [b - a for a, b in zip(line, line[1:])]
    return math.fsum(abs(d) for d in line)


def count_nonzero(weights) -> int:
    """Integer frequencies with nonzero weight, both sides, n = 0 once."""
    half = half_line(weights)
    return int((half != 0).sum() + (half[1:] != 0).sum())


def mp_value(timespec, dps: int = 60) -> mp.mpf:
    """High-precision value of a time parameter via mpmath."""
    with mp.workdps(dps):
        ex = timespec.exact_value()
        if ex is not None:
            return mp.mpf(ex.numerator) / mp.mpf(ex.denominator)
        if isinstance(timespec, QuadraticIrrational):
            return ((timespec.a + timespec.b * mp.sqrt(timespec.c))
                    / timespec.d)
        lo, hi = (Fraction(*end) for end in
                  timespec.value_bracket(Fraction(1, 10 ** (dps + 5))))
        mid = (lo + hi) / 2
        return mp.mpf(mid.numerator) / mp.mpf(mid.denominator)


def mp_half_phase(n: int, t: mp.mpf, dps: int = 60) -> float:
    """frac(n^2 t / 2) at high precision, returned as float."""
    with mp.workdps(dps):
        return float(mp.frac(mp.mpf(n) ** 2 * t / 2))


def circ_dist(a: float, b: float) -> float:
    """Distance of two phases on the circle R/Z."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def frac_le_sqrt(f: Fraction, c: int) -> bool:
    """Exact predicate f <= sqrt(c) for rational f and non-square c > 0."""
    if f <= 0:
        return True
    return f * f <= c
