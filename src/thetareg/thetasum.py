"""Evaluation of weighted quadratic exponential sums.

    S(x) = sum_n w_n e(n^2 t/2 + n x),      e(z) = exp(2 pi i z),

with w from one dyadic block or window. Three deterministic routes:

* direct: term-by-term summation at a single x, correctly rounded by
  math.fsum (so results are reproducible bit for bit);
* grid: S is a trigonometric polynomial of degree N, so its values on a
  uniform grid of K >= 2N+1 points are one inverse FFT of the coefficient
  array placed at n mod K. That is exact evaluation (no aliasing), not an
  approximation;
* probe: for rational t = p/q the coefficient phases are periodic in n
  with period dividing 2q, so the values on the grid x = h/(2q) come from
  a length-2q DFT of residue-class mass. This is the grid on which the
  quadratic Gauss sum lower bounds are guaranteed, and the probe records
  those floors next to the measured maximum.

The sup norm over x is reported as a certified bracket: the maximum over
one dense grid (default 8x past the polynomial degree) is the lower end,
and Bernstein's inequality turns it into a closed-form upper end.

Also here: the growing-window constant monitor for the near-rational
upper bound sup_{M<n<=M+L} ~ C (L/sqrt(q) + sqrt(q)) under the hypothesis
|t - p/q| <= 1/q^2, and the two-time stability comparison under
|t - t1| < K/N^2, both of which certify their hypotheses with exact
rational brackets before touching floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import exactnum
from .contfrac import Rational, TimeSpec
from .cutoff import MAX_BLOCK_N, WeightVector, one_sided_unit
from .errors import (AliasingError, BudgetError, DomainError, HypothesisError,
                     PrecisionExhaustedError)

__all__ = [
    "SumSpec",
    "SupNormResult",
    "ProbeResult",
    "eval_sum",
    "grid_values",
    "sup_norm",
    "rational_probe",
    "probe_floors",
    "hl_constant_monitor",
    "HLRecord",
    "stability_ratio",
    "StabilityResult",
    "mean_square_on_grid",
]

MAX_PROBE_Q = 10_000
MAX_GRID = 1 << 26

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


class SumSpec:
    """One weighted sum: a time parameter plus a weight block.

    Owns the phase/coefficient cache; everything derived from it is
    deterministic, so two SumSpecs built from equal inputs agree exactly.
    """

    def __init__(self, time: TimeSpec, weights: WeightVector):
        if weights.N > MAX_BLOCK_N:
            raise BudgetError(
                f"window reaches |n| = {weights.N} > {MAX_BLOCK_N}")
        res = time.resolution()
        if res is not None and weights.N > 0:
            # a digit-limited literal moves the top phase by ~N^2 * res;
            # refuse unless that stays under the precision guard
            if res * weights.N ** 2 > Fraction(1, 1 << exactnum.guard_bits()):
                raise PrecisionExhaustedError(
                    f"literal resolution {res} cannot pin phases at "
                    f"|n| = {weights.N}; supply more digits")
        self.time = time
        self.weights = weights
        self._coeffs: tuple[np.ndarray, np.ndarray] | None = None
        self._phase_err = 0.0
        self._fixed: exactnum.FixedReal | None = None

    def fixed_time(self) -> exactnum.FixedReal:
        """Fixed-point form of the time, sized for this window."""
        if self._fixed is None:
            self._fixed = exactnum.fixed_of_time(
                self.time, scale_bits_for(self.weights.N))
        return self._fixed

    def phase_error_bound(self) -> float:
        self.coefficient_arrays()
        return self._phase_err

    def coefficient_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(c_n for n = 0..N, c_{-n} for n = 0..N) with c_n = w_n e(n^2 t/2).

        The quadratic phase is even in n, so both arrays share one phase
        vector; they differ only through asymmetric weights.
        """
        if self._coeffs is not None:
            return self._coeffs
        n = np.arange(self.weights.N + 1)
        rational = self.time.exact_value()
        if rational is not None:
            phase = exactnum.rational_phase_array(
                n, rational.numerator, rational.denominator)
            self._phase_err = 2.0 ** -52
        else:
            phase, err = exactnum.quadratic_phase_array(n, self.fixed_time())
            self._phase_err = err
        unit = np.exp((2j * np.pi) * phase)
        cpos = self.weights.w_pos * unit
        cneg = self.weights.neg() * unit
        self._coeffs = (cpos, cneg)
        return self._coeffs


def eval_sum(spec: SumSpec, x: float) -> complex:
    """S(x) by direct summation, each part rounded once (math.fsum)."""
    cpos, cneg = spec.coefficient_arrays()
    n = np.arange(spec.weights.N + 1)
    unit = np.exp((2j * np.pi) * exactnum.linear_phase_array(n, float(x)))
    terms = cpos * unit
    if spec.weights.N >= 1:
        terms[1:] += cneg[1:] * np.conj(unit[1:])
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def grid_values(spec: SumSpec, K: int) -> np.ndarray:
    """S(k/K) for k = 0..K-1, exactly, via one inverse FFT.

    Needs K >= 2N+1 so distinct frequencies occupy distinct residues
    (otherwise the values would alias and the result would be a different
    polynomial's values; that case is refused).
    """
    N = spec.weights.N
    if K < 2 * N + 1:
        raise AliasingError(f"K = {K} < 2N+1 = {2 * N + 1}")
    if K > MAX_GRID:
        raise BudgetError(f"grid of {K} points exceeds the {MAX_GRID} budget")
    cpos, cneg = spec.coefficient_arrays()
    buf = np.zeros(K, dtype=np.complex128)
    buf[:N + 1] = cpos
    if N >= 1:
        buf[K - N:] = cneg[1:][::-1]
    vals = np.fft.ifft(buf, out=buf)
    vals *= K
    return vals


@dataclass(frozen=True)
class SupNormResult:
    """Certified bracket value <= sup_x |S(x)| <= upper (see sup_norm)."""

    value: float
    upper: float
    argmax_x: float
    grid_size: int

    @property
    def refinement_gain(self) -> float:
        """Always 1.0; kept because perfbench/spans.py reads it per sup_norm."""
        return 1.0


def _rounding_term(spec: SumSpec, K: int) -> float:
    """Bound on |computed - exact| for each value of grid_values(spec, K).

    Input: each c_n is off by at most |w_n| (2 pi phase_error_bound() +
    32u), the phase error times 2 pi plus a few ulps u for the argument,
    exp, product, 1/K normalisation, rescale and abs; that moves every
    output by at most the l1 sum. Transform: an FFT of L passes, each of
    relative 2-norm error eta, errs by at most L eta / (1 - L eta) ||y||_2
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm
    24.2, argued pass by pass). 11-smooth sizes take L <= log2 K passes of
    radix r <= 11, each forming length-r sums after one twiddle product,
    so eta <= gamma_(r+3) (sqrt(r) + u) < 64u and L eta < 1/2. One entry
    is at most the 2-norm, and ||y||_2 = sqrt(K) ||c||_2 <= sqrt(K) ||w||_1.
    """
    w = spec.weights
    l1 = float(np.abs(w.w_pos).sum() + np.abs(w.neg()[1:]).sum())
    ulps = 32 + 2 * math.log2(K) * 64 * math.sqrt(K)
    return l1 * (2 * math.pi * spec.phase_error_bound() + ulps * 2.0 ** -53)


def sup_norm(spec: SumSpec, oversample: int = 8) -> SupNormResult:
    """sup_x |S(x)| as a certified bracket [value, upper] from one FFT grid.

    value is the maximum over K = _fft_len(oversample * (2N+1)) points and
    upper = (value + r) / (1 - pi^2 N^2 / (2 K^2)), r from _rounding_term.

    Proof: let |S| peak at x* with sup M and f = Re(e^(-i theta) S) for
    theta = arg S(x*). f is a real trigonometric polynomial of degree N
    with f <= |S| <= M = f(x*), so f'(x*) = 0 and, by Bernstein's
    inequality, |f''| <= (2 pi N)^2 M; Taylor at x* gives |S(x* + d)| >=
    f(x* + d) >= M (1 - 2 pi^2 N^2 d^2). Some grid point has |d| <= 1/(2K),
    so the exact grid maximum is at least M (1 - pi^2 N^2 / (2 K^2)) and
    the computed one at least that minus r. K >= 4N + 2 (oversample 2)
    keeps the factor positive; at oversample 8 it is <= 1/(1 - pi^2/512).
    """
    if oversample < 2:
        raise DomainError("oversample below 2 voids the sup bracket's grid bound")
    N = max(spec.weights.N, 1)
    K = _fft_len(oversample * (2 * N + 1))
    mags = np.abs(grid_values(spec, K))
    k0 = int(np.argmax(mags))
    value = float(mags[k0])
    upper = (value + _rounding_term(spec, K)) / (1 - (math.pi * N / K) ** 2 / 2)
    return SupNormResult(value=value, upper=upper, argmax_x=k0 / K, grid_size=K)


def mean_square_on_grid(spec: SumSpec, oversample: int = 4) -> tuple[float, float]:
    """(grid mean of |S|^2, exact sum of |w_n|^2 over both sides).

    On any grid of K >= 2N+1 points the mean of |S|^2 equals the
    coefficient power exactly (discrete Parseval), so the pair should agree
    to rounding; tests and the l2 reporting rely on it.
    """
    N = max(spec.weights.N, 1)
    K = _fft_len(oversample * (2 * N + 1))
    vals = grid_values(spec, K)
    mean = float(np.mean(np.abs(vals) ** 2))
    return mean, spec.weights.l2_squared()


def probe_floors(weights: WeightVector, q: int,
                 window: tuple[int, int] | None = None) -> dict[str, float]:
    """Guaranteed lower bounds for max_h |S(h/(2q))| at t = p/q.

    Which floor applies depends on how the denominator compares with the
    window length L = N - M + 1 (per side):

      q >= L  (sparse case): the residues n mod 2q are distinct inside the
        window, so the energy is at least the diagonal;
      q < L   (saturated case): Cauchy-Schwarz over the 2q residue classes.

    Unit windows additionally get the sharper combinatorial forms. All
    floors are per the two-sided mass sum_{M<=n<=N} (w_n + w_{-n}).
    """
    M, N = window if window is not None else (weights.M, weights.N)
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


def rational_probe(p: int, q: int, weights: WeightVector,
                   window: tuple[int, int] | None = None) -> ProbeResult:
    """Exact maximum of |S| over the comb grid x = h/(2q), h = 0..2q-1.

    Folds the coefficients onto residue classes mod 2q (the phase period)
    and takes one small DFT; cost O(N + q log q). Records the guaranteed
    floors and whether the measured maximum meets them.
    """
    if q <= 0:
        raise DomainError("q must be positive")
    if math.gcd(p, q) != 1:
        raise DomainError(f"{p}/{q} is not in lowest terms")
    if q > MAX_PROBE_Q:
        raise BudgetError(f"q = {q} exceeds probe budget {MAX_PROBE_Q}")
    if weights.N > MAX_BLOCK_N:
        raise BudgetError(f"window reaches |n| = {weights.N} > {MAX_BLOCK_N}")
    L = 2 * q
    n = np.arange(weights.N + 1)
    phase = exactnum.rational_phase_array(n, p, q)
    unit = np.exp((2j * np.pi) * phase)
    cpos = weights.w_pos * unit
    cneg = weights.neg() * unit
    res_pos = (n % L).astype(np.intp)
    res_neg = ((-n) % L).astype(np.intp)
    acc = (np.bincount(res_pos, weights=cpos.real, minlength=L)
           + 1j * np.bincount(res_pos, weights=cpos.imag, minlength=L))
    if weights.N >= 1:
        acc += (np.bincount(res_neg[1:], weights=cneg[1:].real, minlength=L)
                + 1j * np.bincount(res_neg[1:], weights=cneg[1:].imag, minlength=L))
    vals = np.fft.ifft(acc) * L          # S(h / (2q)), h = 0..2q-1
    mags = np.abs(vals)
    h = int(np.argmax(mags))
    max_abs = float(mags[h])
    win = window if window is not None else (max(weights.M, 1), weights.N)
    floors = probe_floors(weights, q, win)
    ok = all(max_abs >= f * (1.0 - 1e-12) for f in floors.values())
    return ProbeResult(p=p, q=q, max_abs=max_abs, argmax_h=h,
                       window=win, floors=tuple(sorted(floors.items())),
                       satisfied=ok)


def _certify_distance(time: TimeSpec, center: Fraction, radius: Fraction,
                      strict: bool) -> bool:
    """Exact certificate that |t - center| < radius (or <= when not strict).

    Tightens the rational bracket of t until the comparison is decided.
    """
    eps = radius / 8
    for _ in range(64):
        lo, hi = time.value_bracket(eps)
        worst = max(abs(lo - center), abs(hi - center))
        best = 0 if lo <= center <= hi else min(abs(lo - center), abs(hi - center))
        if strict:
            if worst < radius:
                return True
            if best >= radius:
                return False
        else:
            if worst <= radius:
                return True
            if best > radius:
                return False
        eps /= 16
    raise HypothesisError("could not decide the distance certificate")


@dataclass(frozen=True)
class HLRecord:
    length: int            # window length L, sum over M < n <= M + L
    sup: float
    envelope: float        # L / sqrt(q) + sqrt(q)
    ratio: float


def hl_constant_monitor(time: TimeSpec, p: int, q: int,
                        lengths: list[int], start: int = 0,
                        oversample: int = 8) -> list[HLRecord]:
    """Growing one-sided windows against the L/sqrt(q) + sqrt(q) envelope.

    Valid only under |t - p/q| <= 1/q^2, which is certified exactly first
    (HypothesisError otherwise). Returns one record per window length; the
    interesting output is how flat the ratio stays.
    """
    if q <= 0 or math.gcd(p, q) != 1:
        raise DomainError(f"bad reference rational {p}/{q}")
    center = Fraction(p, q)
    exact = time.exact_value()
    if exact is not None:
        if abs(exact - center) > Fraction(1, q * q):
            raise HypothesisError(
                f"|t - {p}/{q}| > 1/q^2; the envelope has no backing here")
    elif not _certify_distance(time, center, Fraction(1, q * q), strict=False):
        raise HypothesisError(
            f"|t - {p}/{q}| > 1/q^2; the envelope has no backing here")
    out = []
    for L in lengths:
        if L < 2:
            raise DomainError("window length must be >= 2")
        w = one_sided_unit(start + 1, start + L)
        sup = sup_norm(SumSpec(time, w), oversample=oversample).value
        env = L / math.sqrt(q) + math.sqrt(q)
        out.append(HLRecord(length=L, sup=sup, envelope=env, ratio=sup / env))
    return out


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
    ea, eb = time_a.exact_value(), time_b.exact_value()
    if ea is not None and eb is not None:
        ok = abs(ea - eb) < radius
    elif ea is not None:
        ok = _certify_distance(time_b, ea, radius, strict=True)
    elif eb is not None:
        ok = _certify_distance(time_a, eb, radius, strict=True)
    else:
        # bracket one side tightly and compare against the other's bracket
        eps = radius / 16
        lo_a, hi_a = time_a.value_bracket(eps)
        lo_b, hi_b = time_b.value_bracket(eps)
        ok = max(abs(hi_a - lo_b), abs(hi_b - lo_a)) < radius
    if not ok:
        raise HypothesisError(
            f"|t - t1| is not certified below {k_bound}/N^2 for N = {N}")
    sup_a = sup_norm(SumSpec(time_a, weights), oversample=oversample).value
    sup_b = sup_norm(SumSpec(time_b, weights), oversample=oversample).value
    return StabilityResult(sup_a=sup_a, sup_b=sup_b,
                           ratio=sup_a / sup_b if sup_b else math.inf,
                           bound=radius)


def merged_block_sup(time: TimeSpec, weights: WeightVector,
                     oversample: int = 8) -> tuple[SupNormResult, ProbeResult | None]:
    """sup_norm, with the exact comb-grid probe merged in for rational times.

    The FFT grid does not necessarily contain the points x = h/(2q); for
    rational t those carry the Gauss-sum peaks, so the probe maximum is
    taken into account (the reported value is the max of the two). The
    probe samples S too, so it only raises the lower end; the grid's
    upper end still bounds the sup.
    """
    spec = SumSpec(time, weights)
    result = sup_norm(spec, oversample=oversample)
    probe: ProbeResult | None = None
    exact = time.exact_value()
    if exact is not None and exact.denominator <= MAX_PROBE_Q \
            and weights.N > max(weights.M, 1):
        probe = rational_probe(exact.numerator, exact.denominator, weights)
        if probe.max_abs > result.value:
            result = replace(
                result, value=probe.max_abs,
                argmax_x=probe.argmax_h / (2.0 * exact.denominator))
    return result, probe
