"""Evaluation of weighted quadratic exponential sums.

    S(x) = sum_n w_n e(n^2 t/2 + n x),      e(z) = exp(2 pi i z),

with w from one dyadic block or window. Both w_n and e(n^2 t/2) are even
in n, so every such sum is even in x: S(-x) = S(x). Three deterministic
routes:

* direct: term-by-term summation at a single x, correctly rounded by
  math.fsum (so results are reproducible bit for bit);
* grid: the values of S on the K points x = k/K see only n mod K, so they
  are one inverse FFT of the coefficients summed over residues mod K
  (each c_n placed at n mod K once K >= 2N+1). That is exact evaluation,
  not an approximation, for every K;
* probe: for rational t = p/q the grid of the 2q points x = h/(2q). This
  is the grid on which the quadratic Gauss sum lower bounds are
  guaranteed, and the probe records those floors next to the measured
  maximum.

The sup norm over x is reported as a bracket [value, upper] of which only
upper is certified: value is the maximum over one dense grid (default 8x
past the polynomial degree), as computed, and Bernstein's inequality plus
a rounding term turn it into a closed-form upper end.

Also here: the two-time stability comparison under |t - t1| < K/N^2,
which certifies its hypothesis with exact rational brackets before
touching floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import exactnum
from .contfrac import TimeSpec
from .cutoff import WeightVector
from .errors import (BudgetError, DomainError, HypothesisError,
                     PrecisionExhaustedError)

__all__ = [
    "PhaseVector",
    "phase_vector",
    "SumSpec",
    "SupNormResult",
    "ProbeResult",
    "eval_sum",
    "grid_values",
    "sup_norm",
    "rational_probe",
    "probe_floors",
    "stability_ratio",
    "StabilityResult",
    "mean_square_on_grid",
]

MAX_PROBE_Q = 10_000
MAX_GRID = 1 << 26           # points of one sup grid, however it is split

# fixed-point sizing for irrational times: enough for n^2 * ulp << 2^-guard
_SCALE_MARGIN_BITS = 32


@functools.lru_cache(maxsize=1 << 14)
def _fft_len(target: int) -> int:
    """Smallest 11-smooth integer >= target: the sizes pocketfft runs fastest.

    Such an s > 1 is f * s' for a prime factor f <= 11 of it, and then s' is
    the smallest 11-smooth integer >= ceil(target / f); so minimising over
    f is exact. The cache makes that a few thousand small calls: every grid
    size of every block j <= 20 at oversample 2, 4 and 8 together fills 1,607
    entries (about 250 kB), and its bound caps the memory at ten times that.
    """
    if target <= 1:
        return 1
    return min(f * _fft_len(-(-target // f)) for f in (2, 3, 5, 7, 11))


def scale_bits_for(n_max: int) -> int:
    """Mantissa bits so that n_max^2 * ulp stays ~2^-32 or smaller."""
    return 2 * max(int(n_max).bit_length(), 1) + _SCALE_MARGIN_BITS


@dataclass(frozen=True)
class PhaseVector:
    """unit[n] = e(n^2 t/2) for n = 0..N, each phase off by at most error cycles.

    The quadratic phase depends on the time and N alone, so every weight
    family of one scale, and the comb probe, can share one vector.
    """

    unit: np.ndarray
    error: float


def phase_vector(time: TimeSpec, N: int) -> PhaseVector:
    """The phase vector of a time for n = 0..N: exact for rational values
    (one final rounding), error-tracked fixed point otherwise.

    Refuses a digit-limited literal whose resolution cannot pin the top
    phase: it moves that phase by about N^2 * resolution.
    """
    res = time.resolution()
    if res is not None and N > 0 \
            and res * N ** 2 > Fraction(1, 1 << exactnum.GUARD_BITS):
        raise PrecisionExhaustedError(
            f"literal resolution {res} cannot pin phases at "
            f"|n| = {N}; supply more digits")
    n = np.arange(N + 1)
    rational = time.exact_value()
    if rational is not None:
        phase = exactnum.rational_phase_array(
            n, rational.numerator, rational.denominator)
        err = 2.0 ** -52
    else:
        phase, err = exactnum.quadratic_phase_array(
            n, exactnum.fixed_of_time(time, scale_bits_for(N)))
    del n
    unit = np.multiply(phase, 2j * np.pi)
    del phase
    return PhaseVector(unit=np.exp(unit, out=unit), error=err)


class SumSpec:
    """One weighted sum: a time parameter plus a weight block.

    ``phases``, when given, must be ``phase_vector(time, weights.N)``; it
    lets sums over several weight blocks of one scale share that vector.
    Everything derived is deterministic, so two SumSpecs built from equal
    inputs agree exactly.
    """

    def __init__(self, time: TimeSpec, weights: WeightVector,
                 phases: PhaseVector | None = None):
        if phases is None:
            phases = phase_vector(time, weights.N)
        if phases.unit.shape != (weights.N + 1,):
            raise DomainError(
                f"{phases.unit.size} phases for a window reaching |n| = {weights.N}")
        self.weights = weights
        self.phases = phases
        self._coeffs: np.ndarray | None = None

    def phase_error_bound(self) -> float:
        return self.phases.error

    def coefficient_arrays(self) -> np.ndarray:
        """c_n = w_n e(n^2 t/2) for n = 0..N, which is also c_{-n}: the
        weights and the quadratic phase are both even in n."""
        if self._coeffs is None:
            self._coeffs = self.weights.w * self.phases.unit
        return self._coeffs


def eval_sum(spec: SumSpec, x: float) -> complex:
    """S(x) by direct summation, each part rounded once (math.fsum)."""
    c = spec.coefficient_arrays()
    n = np.arange(spec.weights.N + 1)
    unit = np.exp((2j * np.pi) * exactnum.linear_phase_array(n, float(x)))
    terms = c * unit
    if spec.weights.N >= 1:
        terms[1:] += c[1:] * np.conj(unit[1:])
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def _check_grid(K: int) -> None:
    if K > MAX_GRID:
        raise BudgetError(f"grid of {K} points exceeds the {MAX_GRID} budget")


def grid_values(spec: SumSpec, K: int,
                twist: np.ndarray | None = None) -> np.ndarray:
    """S(k/K + d) for k = 0..K-1, exactly, via one inverse FFT.

    ``twist``, when given, is e(n d) for n = 0..N: c_n is multiplied by it
    and c_{-n} by its conjugate, which shifts every grid point by d.
    Without it d = 0.

    At x = k/K the term n reads e(n k/K), which depends on n mod K only, so
    the transform takes the coefficients summed per residue mod K: each c_n
    is placed at n mod K alone for K >= 2N+1, and for fewer points the
    n >= 0 side is summed and the n < 0 side added to it. Only untwisted
    coefficients fold. Placement is kept as the cheaper copy: an all-fold
    route gave the same bits at 11% fewer spectrum_deep items/s (2 cores).
    """
    N = spec.weights.N
    if K < 1:
        raise DomainError(f"a grid needs K >= 1 points, not {K}")
    _check_grid(K)
    c = spec.coefficient_arrays()
    if K < 2 * N + 1:
        if twist is not None:
            raise DomainError(f"a twist needs K >= 2N+1 = {2 * N + 1}, not {K}")
        n = np.arange(N + 1)
        buf = _residue_sum(n % K, c, K)
        buf += _residue_sum(-n[1:] % K, c[1:], K)
    elif twist is None:
        buf = np.zeros(K, dtype=np.complex128)
        buf[:N + 1] = c
        if N >= 1:
            buf[K - N:] = c[1:][::-1]
    else:
        if twist.shape != c.shape:
            raise DomainError(f"{twist.size} twist factors for {N + 1} coefficients")
        buf = np.zeros(K, dtype=np.complex128)
        np.multiply(c, twist, out=buf[:N + 1])
        if N >= 1:
            tail = buf[K - N:]
            np.conjugate(twist[:0:-1], out=tail)
            tail *= c[:0:-1]
    vals = np.fft.ifft(buf, out=buf)
    vals *= K
    return vals


def _residue_sum(res: np.ndarray, c: np.ndarray, K: int) -> np.ndarray:
    """The sum of c[i] over each residue res[i] = 0..K-1."""
    return (np.bincount(res, weights=c.real, minlength=K)
            + 1j * np.bincount(res, weights=c.imag, minlength=K))


@dataclass(frozen=True)
class SupNormResult:
    """sup_x |S(x)| <= upper, certified (see sup_norm); value is the largest
    computed grid sample, up to the rounding term above an exact one."""

    value: float
    upper: float
    argmax_x: float
    grid_size: int

    @property
    def refinement_gain(self) -> float:
        """Always 1.0; kept because perfbench/spans.py reads it per sup_norm."""
        return 1.0


def _coset_count(K: int, N: int) -> int:
    """How many cosets sup_norm splits its K-point grid into: the largest
    divisor m of K with K/m >= 2N+1, so that no coset transform folds, as
    _rounding_term's ||y||_2 = sqrt(L) ||c||_2 assumes, and K/m >= m, so
    that a huge oversample on a short window runs at most sqrt(K)
    transforms, not K/(2N+1) of a few points each (1 when no split keeps
    both). At oversample 8 that is m = 5 to 8 at every block scale.
    """
    top = min(K // (2 * N + 1), math.isqrt(K))
    return max(d for d in range(1, max(top, 1) + 1) if K % d == 0)


def _rounding_term(spec: SumSpec, K: int) -> float:
    """Bound on |computed - exact| for each value sup_norm takes from its
    K-point grid: the m//2 + 1 transforms of L = K/m points that it runs
    of the m = _coset_count(K, N) cosets.

    Input: each c_n is off by at most |w_n| (2 pi phase_error_bound() +
    32u), the phase error times 2 pi plus a few ulps u for the argument,
    exp, product, 1/L normalisation, rescale and abs. For m > 1 coset s
    multiplies c_n by a twist built as e(n/K)^s by the recurrence
    tw_s = tw_(s-1) e(n/K), and then by one product with c_n: for the
    c = m//2 + 1 cosets run, s + 1 <= c steps of one exp or one product,
    each within the same 32u as a coefficient's own phase (|tw_s| stays
    within (1 + 32u)^c of 1), so the twist adds 32 c u per coefficient,
    and nothing at m = 1. The input
    errors move every output by at most their l1 sum. Transform: an FFT of
    P passes, each of relative 2-norm error eta, errs by at most
    P eta / (1 - P eta) ||y||_2 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 24.2, argued pass by pass).
    11-smooth sizes L take P <= log2 L passes of radix r <= 11, each
    forming length-r sums after one twiddle product, so eta <=
    gamma_(r+3) (sqrt(r) + u) < 64u and P eta < 1/2. One entry is at most
    the 2-norm, and ||y||_2 = sqrt(L) ||c||_2 <= sqrt(L) ||w||_1, as the
    twist has modulus 1.
    """
    w = spec.weights
    m = _coset_count(K, w.N)
    L = K // m
    l1 = float(np.abs(w.w).sum() + np.abs(w.w[1:]).sum())
    twist = 0 if m == 1 else 32 * (m // 2 + 1)
    ulps = 32 + twist + 2 * math.log2(L) * 64 * math.sqrt(L)
    return l1 * (2 * math.pi * spec.phase_error_bound() + ulps * 2.0 ** -53)


def sup_norm(spec: SumSpec, oversample: int = 8) -> SupNormResult:
    """[value, upper] around sup_x |S(x)| from one FFT grid; upper is certified.

    value is the maximum over the K = _fft_len(oversample * (2N+1)) points
    x = k/K and upper = (value + r) / (1 - pi^2 N^2 / (2 K^2)), r from
    _rounding_term.

    The grid is evaluated in m = _coset_count(K, N) cosets, each one
    transform of K/m >= 2N+1 points, the fewest that need no fold: coset
    s holds x = (s + m k)/K, the values of one transform of K/m points
    whose coefficients are twisted by e(n s/K) (grid_values with a
    twist). These are the same K points, and value and argmax_x are
    their maximum, ties going to the smallest k as one argmax over the
    whole grid would. S is even, S(-x) = S(x): the substitution n -> -n
    maps the sum at -x onto the sum at x, as w_n and e(n^2 t/2) are even
    in n. The mirror of x = (s + m k)/K is (K - s - m k)/K mod 1, a point
    of coset (m - s) mod m, so cosets 0..m//2 hold a mirror of every grid
    point. Only they are transformed (all m while m <= 2), and argmax_x
    is folded into [0, 1/2], where the mirror point -x has the same exact
    value.

    Proof: let |S| peak at x* with sup M and f = Re(e^(-i theta) S) for
    theta = arg S(x*). f is a real trigonometric polynomial of degree N
    with f <= |S| <= M = f(x*), so f'(x*) = 0 and, by Bernstein's
    inequality, |f''| <= (2 pi N)^2 M; Taylor at x* gives |S(x* + d)| >=
    f(x* + d) >= M (1 - 2 pi^2 N^2 d^2). Some grid point has |d| <= 1/(2K),
    so the exact grid maximum is at least M (1 - pi^2 N^2 / (2 K^2)). As
    S is even, the grid point -k/K holds the same exact value as k/K and
    lies in an evaluated coset, so the exact maximum over
    the evaluated cosets is the exact maximum over all K points. Each
    computed value is within r of its exact one, so the computed maximum
    is at least the exact grid maximum minus r, and the bracket holds as
    for the whole grid. K >= 4N + 2 (oversample 2) keeps the factor
    positive; at oversample 8 it is <= 1/(1 - pi^2/512).
    """
    if oversample < 2:
        raise DomainError("oversample below 2 voids the sup bracket's grid bound")
    N = max(spec.weights.N, 1)
    K = _fft_len(oversample * (2 * N + 1))
    _check_grid(K)
    m = _coset_count(K, spec.weights.N)
    best = (-1.0, 0)                    # (value, -k): ties go to the smallest k
    twist = None
    for s in range(m // 2 + 1):
        if s == 1:
            step = np.exp((2j * np.pi) * (np.arange(spec.weights.N + 1) / K))
            twist = step.copy()
        elif s > 1:
            twist *= step
        mags = np.abs(grid_values(spec, K // m, twist))
        k = int(np.argmax(mags))
        best = max(best, (float(mags[k]), -(s + m * k)))
        del mags                        # freed before the next transform
    value, k0 = best[0], -best[1]
    k0 = min(k0, K - k0)                # S(-x) = S(x)
    upper = (value + _rounding_term(spec, K)) / (1 - (math.pi * N / K) ** 2 / 2)
    return SupNormResult(value=value, upper=upper, argmax_x=k0 / K, grid_size=K)


def mean_square_on_grid(spec: SumSpec) -> tuple[float, float]:
    """(grid mean of |S|^2, exact sum of |w_n|^2 over both sides).

    On any grid of K >= 2N+1 points the mean of |S|^2 equals the
    coefficient power exactly (discrete Parseval), so the pair should agree
    to rounding; the Parseval tests (criterion 5) check it.
    """
    N = max(spec.weights.N, 1)
    K = _fft_len(4 * (2 * N + 1))
    vals = grid_values(spec, K)
    mean = float(np.mean(np.abs(vals) ** 2))
    return mean, spec.weights.l2_squared()


def probe_floors(weights: WeightVector, q: int,
                 window: tuple[int, int]) -> dict[str, float]:
    """Guaranteed lower bounds for max_h |S(h/(2q))| at t = p/q.

    Which floor applies depends on how the denominator compares with the
    window length L = N - M + 1 (per side):

      q >= L  (sparse case): the residues n mod 2q are distinct inside the
        window, so the energy is at least the diagonal;
      q < L   (saturated case): Cauchy-Schwarz over the 2q residue classes.

    Unit windows additionally get the sharper combinatorial forms. All
    floors are per the mass over both signs, sum_{M<=|n|<=N} w_n.
    """
    M, N = window
    if M < 1 or N <= M:
        raise DomainError("floors need a window 1 <= M < N")
    L = N - M + 1
    mass = weights.window_mass()
    is_unit = weights.mode in ("unit", "rough")
    floors: dict[str, float] = {}
    if q >= L:
        floors["mass_sparse"] = mass / (math.sqrt(2.0) * math.sqrt(N - M))
        if is_unit:
            floors["unit_sparse"] = math.sqrt(2.0) * math.sqrt(N - M)
    else:
        floors["mass_saturated"] = mass / math.sqrt(2.0 * q)
        if is_unit:
            floors["unit_saturated"] = math.sqrt(2.0) * (N - M) / math.sqrt(q)
    return floors


@dataclass(frozen=True)
class ProbeResult:
    p: int
    q: int
    max_abs: float
    argmax_h: int          # the maximum sits at x = argmax_h / (2q)
    window: tuple[int, int]
    floors: tuple[tuple[str, float], ...]
    satisfied: bool

    def floor_margin(self) -> float:
        """max_abs / (largest applicable floor); > 1 means all floors met."""
        top = max((v for _, v in self.floors), default=0.0)
        return self.max_abs / top if top > 0 else math.inf


def rational_probe(p: int, q: int, spec: SumSpec,
                   window: tuple[int, int] | None = None) -> ProbeResult:
    """Exact maximum of |S| over the comb grid x = h/(2q), h = 0..2q-1.

    ``spec`` is the sum at t = p/q; the comb grid is grid_values at K = 2q,
    cost O(N + q log q). Records the floors over ``window`` (default (M, N)
    of the weights; one holding n = 0 is refused) and whether they are met.
    """
    if q <= 0:
        raise DomainError("q must be positive")
    if math.gcd(p, q) != 1:
        raise DomainError(f"{p}/{q} is not in lowest terms")
    if q > MAX_PROBE_Q:
        raise BudgetError(f"q = {q} exceeds probe budget {MAX_PROBE_Q}")
    weights = spec.weights
    mags = np.abs(grid_values(spec, 2 * q))     # |S(h / (2q))|
    h = int(np.argmax(mags))
    max_abs = float(mags[h])
    win = window if window is not None else (weights.M, weights.N)
    floors = probe_floors(weights, q, win)
    ok = all(max_abs >= f * (1.0 - 1e-12) for f in floors.values())
    return ProbeResult(p=p, q=q, max_abs=max_abs, argmax_h=h,
                       window=win, floors=tuple(sorted(floors.items())),
                       satisfied=ok)


def _certify_distance(a: TimeSpec, b: TimeSpec, radius: Fraction) -> bool:
    """Exact certificate that |a - b| < radius.

    Brackets both sides, starting at eps = radius/16 and tightening until
    the comparison is decided. An exact time brackets to its own value, so
    two exact values decide at once.
    """
    eps = radius / 16
    for _ in range(64):
        lo_a, hi_a = (Fraction(*end) for end in a.value_bracket(eps))
        lo_b, hi_b = (Fraction(*end) for end in b.value_bracket(eps))
        worst = max(hi_a - lo_b, hi_b - lo_a)
        best = max(lo_a - hi_b, lo_b - hi_a, 0)
        if worst < radius:
            return True
        if best >= radius:
            return False
        eps /= 16
    raise HypothesisError("could not decide the distance certificate")


@dataclass(frozen=True)
class StabilityResult:
    sup_a: float
    sup_b: float
    ratio: float
    bound: Fraction        # the certified |t_a - t_b| bound that was checked


def stability_ratio(time_a: TimeSpec, time_b: TimeSpec,
                    weights: WeightVector, k_bound: float = 1.0,
                    oversample: int = 8) -> StabilityResult:
    """Block sup at two nearby times, with the closeness hypothesis certified.

    Requires |t_a - t_b| < k_bound / N^2 exactly (via rational brackets);
    refuses otherwise, because the comparison would not be meaningful.
    """
    N = weights.N
    radius = Fraction(k_bound) / (N * N)
    if not _certify_distance(time_a, time_b, radius):
        raise HypothesisError(
            f"|t - t1| is not certified below {k_bound}/N^2 for N = {N}")
    sup_a = sup_norm(SumSpec(time_a, weights), oversample=oversample).value
    sup_b = sup_norm(SumSpec(time_b, weights), oversample=oversample).value
    return StabilityResult(sup_a=sup_a, sup_b=sup_b,
                           ratio=sup_a / sup_b if sup_b else math.inf,
                           bound=radius)


def merged_block_sup(time: TimeSpec, weights: WeightVector, oversample: int = 8,
                     phases: PhaseVector | None = None
                     ) -> tuple[SupNormResult, ProbeResult | None]:
    """sup_norm, with the exact comb-grid probe merged in for rational times.

    The FFT grid does not necessarily contain the points x = h/(2q); for
    rational t those carry the Gauss-sum peaks, so the probe maximum is
    taken into account (the reported value is the max of the two). The
    probe samples S too, so it only raises value; the grid's upper end
    still bounds the sup. ``phases`` is passed on to SumSpec, and the probe
    reads that sum's coefficients. A block holding n = 0 (M = 0) is not
    probed: no floor's window 1..N covers w_0.
    """
    spec = SumSpec(time, weights, phases)
    result = sup_norm(spec, oversample=oversample)
    probe: ProbeResult | None = None
    exact = time.exact_value()
    if exact is not None and exact.denominator <= MAX_PROBE_Q \
            and 1 <= weights.M < weights.N:
        probe = rational_probe(exact.numerator, exact.denominator, spec)
        if probe.max_abs > result.value:
            result = replace(
                result, value=probe.max_abs,
                argmax_x=probe.argmax_h / (2.0 * exact.denominator))
    return result, probe
