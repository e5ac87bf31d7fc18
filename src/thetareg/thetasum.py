"""Evaluation of weighted quadratic exponential sums.

    S(x) = sum_n w_n e(n^2 t/2 + n x),      e(z) = exp(2 pi i z),

with w from one dyadic block or window. Both w_n and e(n^2 t/2) are even
in n, so every such sum is even in x: S(-x) = S(x). Four deterministic
routes:

* direct: term-by-term summation at a single x, correctly rounded by
  math.fsum (so results are reproducible bit for bit);
* grid: the values of S on the K points x = k/K see only n mod K, so they
  are one inverse FFT of the coefficients summed over residues mod K (rows
  of c viewed K wide, each row of a coset with its factor): exact
  evaluation, not an approximation, for every K;
* probe: for rational t = p/q the grid of the 2q points x = h/(2q). This
  is the grid on which the quadratic Gauss sum lower bounds are
  guaranteed, and the probe records those floors next to the measured
  maximum;
* closed comb bracket: at t = p/q the sum is a comb of q shifted copies
  of one t-free kernel W, S(x) = sum_h G_h W(x + h/(2q)) with |G_h| =
  1/sqrt(q), so [(W(0) - T)/sqrt(q), (W(0) + T)/sqrt(q)] brackets its sup
  with no grid at all, T a summation-by-parts tail (_comb_bracket).

A sum holds one complex array, its coefficients over the window M <= |n|
<= N of its weights (SumSpec); a dyadic block has M = N/4 + 1. The terms
with |n| < M are exact zeros, so no route forms or reads them.

The sup norm over x is reported as a bracket [value, upper] of which
upper is certified: value is the maximum over one dense grid (default 8x
past the polynomial degree), as computed, and Bernstein's inequality plus
a rounding term turn it into a closed-form upper end. The grid runs as
cosets, each one shorter transform of the coefficients folded in place
by Horner's rule and twisted from two small tables (grid_values); from
j = 12 on up to 2, 4 or 8 terms fold onto a residue (_coset_count), and
the cosets run in two lanes (sup_norm): the calling thread and one
worker thread per process, made on first use and kept, which take items
from one shared counter (_map_cosets). An irrational phase vector from
j = 13 on is built on them too, in chunks (phase_vector). A rational
block whose closed comb bracket is at least as tight settles from it
instead (merged_block_sup): its value is the larger of the probe maximum
and the certified lower end.

Also here: the two-time stability comparison under |t - t1| < K/N^2,
which certifies its hypothesis with exact rational brackets before
touching floats.
"""

from __future__ import annotations

import functools
import math
import os
import threading
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
    "check_phase_resolution",
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
]

MAX_PROBE_Q = 10_000
MAX_GRID = 1 << 26           # points of one sup grid, however it is split

# Windows reaching |n| >= _FOLD_N split their sup grid into folded cosets
# of about N+1 points, from _FOLD4_N on of about N/2 and from _FOLD8_N on
# of about N/4, in two lanes (measured crossovers, see sup_norm).
_FOLD_N = 1 << 13
_FOLD4_N = 1 << 15
_FOLD8_N = 1 << 17
_CHUNK = 1 << 14             # elements per _peak pass
_PHASE_CHUNK = 1 << 13       # phases per pass of an irrational phase_vector

# fixed-point sizing for irrational times: enough for n^2 * ulp << 2^-guard
_SCALE_MARGIN_BITS = 32


@functools.lru_cache(maxsize=1 << 14)
def _fft_len(target: int) -> int:
    """Smallest 11-smooth integer >= target: the sizes pocketfft runs fastest.

    Such an s > 1 is f * s' for a prime factor f <= 11 of it, and then s' is
    the smallest 11-smooth integer >= ceil(target / f); so minimising over
    f is exact. The cache makes that a few thousand small calls.
    """
    if target <= 1:
        return 1
    return min(f * _fft_len(-(-target // f)) for f in (2, 3, 5, 7, 11))


def scale_bits_for(n_max: int) -> int:
    """Mantissa bits so that n_max^2 * ulp stays ~2^-32 or smaller."""
    return 2 * max(int(n_max).bit_length(), 1) + _SCALE_MARGIN_BITS


class PhaseVector:
    """unit[i] = e(n^2 t/2) for n = M + i, the window M <= n <= N of one
    block, each phase off by at most error cycles.

    The quadratic phase depends on the time and the window alone, so every
    weight family of one scale, and the comb probe, can share one vector.
    hand_over() passes its array to one owner, which may write it: from
    then on reading unit raises, and so does every sum still sharing it.
    """

    __slots__ = ("_unit", "error")

    def __init__(self, unit: np.ndarray, error: float):
        self._unit = unit
        self.error = error

    @property
    def unit(self) -> np.ndarray:
        if self._unit is None:
            raise RuntimeError("the phase vector was handed over to a weighted sum")
        return self._unit

    def hand_over(self) -> np.ndarray:
        """The array, for its one new owner; the vector reads no more."""
        unit, self._unit = self.unit, None
        return unit


def check_phase_resolution(time: TimeSpec, N: int) -> None:
    """Refuse a digit-limited literal whose resolution cannot pin the phase
    at |n| = N: it moves that phase by about N^2 * resolution."""
    res = time.resolution()
    if res is not None and N > 0 \
            and res * N ** 2 > Fraction(1, 1 << exactnum.GUARD_BITS):
        raise PrecisionExhaustedError(
            f"literal resolution {res} cannot pin phases at "
            f"|n| = {N}; supply more digits")


def _unit(phase: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """e(phase), elementwise, in one complex array: a new one, or out."""
    unit = np.multiply(phase, 2j * np.pi, out=out)
    return np.exp(unit, out=unit)


def phase_vector(time: TimeSpec, N: int, M: int) -> PhaseVector:
    """The phase vector of a time on the window M <= n <= N: exact for
    rational values (one final rounding), error-tracked fixed point
    otherwise. Refused by check_phase_resolution where a literal's digits
    cannot pin it.

    Only the window's phases are formed: for a dyadic block (M = N/4 + 1)
    a quarter fewer than n = 0..N. At t = p/q the phase n^2 p/(2q) mod 1
    depends on n mod 2q alone, so the first min(2q, N - M + 1) unit values
    are formed once and tiled to the window's length: the same bits as
    forming each entry.

    An irrational time's window is one complex array, filled in chunks of
    _PHASE_CHUNK entries, each its own n range, phases and e(phase) written
    into its slice; a window of more than one chunk (j >= 13) fills them on
    both lanes (_map_cosets). Every step is elementwise, so the bits are
    those of one pass over the window. The error is the largest chunk's
    bound, the one of the chunk holding n = N: that of the whole range, as
    the largest |n| is still N.
    """
    check_phase_resolution(time, N)
    rational = time.exact_value()
    if rational is not None:
        p, q, size = rational.numerator, rational.denominator, N - M + 1
        one = _unit(exactnum.rational_phase_array(
            np.arange(M, M + min(2 * q, size)), p, q))
        unit = one if one.size == size else np.tile(one, -(-size // one.size))[:size]
        return PhaseVector(unit=unit, error=2.0 ** -52)
    fixed = exactnum.fixed_of_time(time, scale_bits_for(N))
    unit = np.empty(N - M + 1, dtype=np.complex128)

    def chunk(a: int, _) -> float:
        part = unit[a:a + _PHASE_CHUNK]
        phase, err = exactnum.quadratic_phase_array(
            np.arange(M + a, M + a + part.size), fixed)
        _unit(phase, out=part)
        return err

    starts = range(0, unit.size, _PHASE_CHUNK)
    errors = _map_cosets(chunk, starts, 0, threaded=len(starts) > 1)
    return PhaseVector(unit=unit, error=max(errors))


class SumSpec:
    """One weighted sum: a time parameter plus a weight block.

    The sum holds one complex array, its coefficients over the window
    M <= n <= N only, and the phase error of the vector they came from.
    ``phases``, when given, must be ``phase_vector(time, weights.N,
    weights.M)``; it lets sums over several weight blocks of one scale
    share that vector. A sharp block, 1 on its window, reads the vector
    itself as its coefficients. Any other takes the vector over
    (PhaseVector.hand_over) and multiplies its weights into it in place,
    so a scale holds one window-length complex array: build it once every
    sum sharing the vector is done, as a later read of those raises.
    Everything derived is deterministic, so two SumSpecs built from equal
    inputs agree exactly.
    """

    def __init__(self, time: TimeSpec, weights: WeightVector,
                 phases: PhaseVector | None = None):
        M, N = weights.M, weights.N
        if phases is None:
            phases = phase_vector(time, N, M)
        if phases.unit.shape != (N - M + 1,):
            raise DomainError(f"{phases.unit.size} phases for the window "
                              f"{M} <= |n| <= {N}")
        self.time = time
        self.weights = weights
        self._phase_error = phases.error
        if weights.mode == "rough":
            self._shared, self._coeffs = phases, None
        else:
            unit = phases.hand_over()
            self._shared, self._coeffs = None, np.multiply(weights.w, unit, out=unit)

    def phase_error_bound(self) -> float:
        return self._phase_error

    def coefficient_arrays(self) -> np.ndarray:
        """c_n = w_n e(n^2 t/2) for n = M..N, at index n - M, which is also
        c_{-n}: the weights and the quadratic phase are both even in n.
        Every c_n with 0 < |n| < M is 0, and c_0 too unless M = 0. A rough
        sum reads its shared vector, so this raises once that is handed
        over."""
        return self._coeffs if self._shared is None else self._shared.unit


def eval_sum(spec: SumSpec, x: float) -> complex:
    """S(x) by direct summation, each part rounded once (math.fsum)."""
    c = spec.coefficient_arrays()
    M = spec.weights.M
    n = np.arange(M, spec.weights.N + 1)
    unit = np.exp((2j * np.pi) * exactnum.linear_phase_array(n, float(x)))
    terms = c * unit
    pos = 1 if M == 0 else 0            # n = 0 is counted once
    terms[pos:] += c[pos:] * np.conj(unit[pos:])
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def _check_grid(K: int) -> None:
    if K > MAX_GRID:
        raise BudgetError(f"grid of {K} points exceeds the {MAX_GRID} budget")


@functools.lru_cache(maxsize=512)
def _coset_twist(L: int, m: int, s: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, turns) for coset s of an m L-point grid, K = m L:
    e(r s/K) = rows[r // C] cols[r % C] for r = 0..L-1, C the divisor of L
    nearest sqrt(L) from below, and turns[g] = e(g s/m) for g = 0..m-1:
    grid_values's Horner step e(-s/m) = turns[m - 1] and its top row's
    factor turns[j_top % m]. Each entry e(n/M) is one exp of n reduced mod
    M exactly in int64 and divided by M once (M = K or m). Cached
    read-only: both families of a scale, every time at that scale and
    every scan item share them. The bound of 512 holds one key (L, m, s)
    per coset s = 1..m//2 of every block j <= 20 at oversamples 2, 4 and 8
    together; a key's tables are 2 sqrt(L) + m entries of 16 bytes."""
    K, C = m * L, next(d for d in range(math.isqrt(L), 0, -1) if L % d == 0)
    rows, cols, turns = (np.exp((2j * np.pi) * (n % M / M)) for n, M in (
        (np.arange(0, L, C) * s, K), (np.arange(C) * s, K),
        (np.arange(m) * s, m)))
    for table in (rows, cols, turns):
        table.flags.writeable = False
    return rows, cols, turns


def grid_values(spec: SumSpec, K: int, s: int = 0, m: int = 1,
                out: np.ndarray | None = None) -> np.ndarray:
    """S((s + m k)/(m K)) for k = 0..K-1, exactly, via one inverse FFT: the
    K-point grid x = k/K at m = 1, else coset s of the m K-point grid.

    At x = k/K the term n reads e(n k/K), which depends on n mod K only, so
    the transform takes the coefficients summed per residue mod K. Only the
    window M <= |n| <= N is read (SumSpec.coefficient_arrays); the terms
    outside it are exact zeros, so each residue adds the same nonzero terms
    in the same order, n rising on either side, as a sum over all |n| <= N
    would, and gets the same bits.

    A whole grid below K = N+1 (m = 1: the comb probe's short grids, of up
    to millions of rows) is summed with no N-length temporary: the n > 0
    side, from n0 = max(M, 1), is the rows of the coefficients viewed K
    wide from n0, summed, plus one partial row; the sum of column i is that
    of residue n0 + i, rotated into slots 1..K of K + 1, slot K holding
    residue 0. As c_{-n} = c_n, the n < 0 side's sum at residue r is the
    n > 0 side's at -r, so it is added as a mirror, and residue 0 gets c_0
    once.

    Every other grid, a coset of any length K included, is the four-step
    factorisation (D. H. Bailey, "FFTs in external or hierarchical memory",
    J. Supercomputing 4, 1990): the term n = r + j K, 0 <= r < K, |n| <= N,
    reads e(n (s + m k)/(m K)) = e(r s/(m K)) e(j s/m) e(r k/K), so the
    transform's input is

        b[r] = e(r s/(m K)) sum_j e(j s/m) c_(r + j K),

    each row j of the coefficients, of either sign, taken over the part of
    it in the window with its row factor e(j s/m) = turns[j % m]
    (_coset_twist). For K >= 2N+1 each term sits alone (rows -1 and 0);
    below it residues fold up to ceil((2N+1)/K) terms. The rows are
    folded in by Horner's rule in e(s/m), rising from row -ceil(N/K),
    which holds n = -N, to row j_top = N // K: the first is written times
    e(-s/m) and the residues it leaves are zeroed; each later row is added
    over the part of it in the window (none for a row in the gap |n| < M)
    and, below the top row, the whole buffer is multiplied in place by
    e(-s/m). So row j ends with e((j - j_top) s/m), and the missing
    e(j_top s/m), 1 unless N >= K, multiplies the row table of the twist
    e(r s/(m K)): two broadcast products of b viewed (K/C, C) by
    _coset_twist's tables. No temporary grows with N or with the number
    of rows, and two rows, as every coset at j <= 13 has, take one
    product and one sum per term. Coset 0 takes no product. ``out``, when
    given, is a K-point complex buffer that receives the values, so a
    caller running many cosets reuses one.
    """
    M, N = spec.weights.M, spec.weights.N
    if K < 1:
        raise DomainError(f"a grid needs K >= 1 points, not {K}")
    _check_grid(K)
    if not 0 <= s < m:
        raise DomainError(f"no coset {s} of {m}")
    c = spec.coefficient_arrays()       # c[i] = c_(M + i)
    n0 = max(M, 1)                      # the least n > 0 of the window
    if K <= N and m == 1:
        pos = c[n0 - M:]                # n = n0..N
        rows = pos.size // K
        cols = pos[:rows * K].reshape(rows, K).sum(axis=0)
        part = pos[rows * K:]
        cols[:part.size] += part
        sums = np.empty(K + 1, dtype=np.complex128)
        sums[1:] = np.roll(cols, (n0 - 1) % K)   # column i: slot (n0 + i - 1) % K + 1
        buf = sums[:K]
        buf[1:] += buf[K - 1:0:-1]          # numpy reads the overlap before writing
        buf[0] = (c[0] if M == 0 else 0) + 2 * sums[K]
        if out is not None:
            out[:] = buf
            buf = out
    else:
        buf = np.empty(K, dtype=np.complex128) if out is None else out
        tw_rows, tw_cols, turns = _coset_twist(K, m, s) if s else (None,) * 3

        def row(j: int) -> tuple[slice, np.ndarray]:
            """Row j over the window, n = jK .. jK + K - 1 at r = n - jK, as
            (its residues, its c_n read at |n|); empty in the gap |n| < M."""
            if j >= 0:
                lo = max(j * K, M)
                hi = max(min(j * K + K, N + 1), lo)
                return slice(lo - j * K, hi - j * K), c[lo - M:hi - M]
            lo = max((-j - 1) * K + 1, n0)
            top = max(min(-j * K, N), lo - 1)
            return slice(-j * K - top, -j * K - lo + 1), c[lo - M:top - M + 1][::-1]

        top = N // K                        # Horner's rule, rows rising
        span, terms = row(-N // K)
        if s and top > -N // K:
            np.multiply(terms, turns[-1], out=buf[span])
        else:
            buf[span] = terms
        buf[:span.start] = 0
        buf[span.stop:] = 0
        for j in range(-N // K + 1, top + 1):
            span, terms = row(j)
            buf[span] += terms
            if s and j < top:
                buf *= turns[-1]
        if s:
            view = buf.reshape(-1, tw_cols.size)
            view *= (tw_rows * turns[top % m] if top * s % m else tw_rows)[:, None]
            view *= tw_cols
    return np.fft.ifft(buf, out=buf, norm="forward")


@dataclass(frozen=True)
class SupNormResult:
    """sup_x |S(x)| <= upper, certified (see sup_norm); value is the largest
    computed grid sample, up to the rounding term above an exact one. A
    block settled from its comb bracket (merged_block_sup) has grid_size
    2q, the probe's grid, and upper the bracket's closed end."""

    value: float
    upper: float
    argmax_x: float
    grid_size: int

    @property
    def refinement_gain(self) -> float:
        """Always 1.0; kept because perfbench/spans.py reads it per sup_norm."""
        return 1.0


def _grid_size(N: int, oversample: int) -> int:
    """sup_norm's K = _fft_len(oversample * (2N+1)) for a window reaching
    N >= 1; refuses oversample < 2 and grids past MAX_GRID."""
    if oversample < 2:
        raise DomainError("oversample below 2 voids the sup bracket's grid bound")
    K = _fft_len(oversample * (2 * N + 1))
    _check_grid(K)
    return K


def _grid_shrink(N: int, K: int) -> float:
    """1 - pi^2 N^2 / (2 K^2): the least exact K-point grid maximum of a
    degree-N sum over its sup (see sup_norm)."""
    return 1 - (math.pi * N / K) ** 2 / 2


def _coset_count(K: int, N: int) -> int:
    """How many cosets sup_norm splits its K-point grid into: the largest
    divisor m of K with K/m >= m, so that a huge oversample on a short
    window runs at most sqrt(K) transforms, not K/(2N+1) of a few points
    each, and with K/m at least

    * 2N+1 for a window reaching N < _FOLD_N: no coset transform folds;
    * N+1 for _FOLD_N <= N < _FOLD4_N: each residue mod K/m takes at most
      two of the 2N+1 terms (the fold), and a coset transform is about
      half as long, so two run at once in the memory of one;
    * ceil((2N+1)/4), N/2 + 1 for even N, for _FOLD4_N <= N < _FOLD8_N:
      at most four terms on a residue, and two transforms about a quarter
      as long run at once in half the memory of one;
    * ceil((2N+1)/8), N/4 + 1 for even N, from _FOLD8_N on: at most eight
      terms on a residue, and the two lanes' buffers, plans and scratch
      halve again.

    1 when no split keeps both.
    """
    terms = (1 if N < _FOLD_N else 2 if N < _FOLD4_N else 4 if N < _FOLD8_N
             else 8)
    width = -(-(2 * N + 1) // terms)
    top = min(K // width, math.isqrt(K))
    return max(d for d in range(1, max(top, 1) + 1) if K % d == 0)


def _rounding_term(spec: SumSpec, K: int) -> float:
    """Bound on |computed - exact| for each value sup_norm takes from its
    K-point grid: the m//2 + 1 transforms of L = K/m points that it runs
    of the m = _coset_count(K, N) cosets.

    Input: each c_n is off by at most |w_n| (2 pi phase_error_bound() +
    32u), the phase error times 2 pi plus a few ulps u for the argument,
    exp, product and abs. For m > 1 coset s folds the R = ceil(N/L) +
    floor(N/L) + 1 rows of the coefficients by Horner's rule
    (grid_values): a coefficient of the lowest row takes R - 1 computed
    factors e(-s/m), one per later row, then the top row's factor
    e(j_top s/m) inside the row table, and every residue's sum the table
    entries rows[r // C] and cols[r % C] (_coset_twist). Each factor is
    one exp of an argument below 2 pi formed in three roundings, so
    within 24u of exact, and each product adds at most sqrt(5) u < 3u
    (Brent, Percival and Zimmermann, Math. Comp. 76, 2007): 27u a factor,
    and 32u covers the second-order terms of the F = R + 2 factors, or
    R + 1 where the top row is row 0 (N < L), whose factor is 1 and is
    not applied. Every coset at j <= 13 has R = 2 and F = 3: 96u.
    sup_norm's splits have L >= (2N+1)/8, so R <= 8 and F <= 10: 192u at
    j = 14 and 15, 320u from j = 16 on. Nothing at m = 1, where every factor
    is 1 and no twist is applied. A folded coset (L < 2N+1) adds the f =
    ceil((2N+1)/L) or fewer terms of a residue in f - 1 roundings, within
    (f - 1)u of their moduli's sum to first order: f u per coefficient
    covers it with their own errors, as gamma_(f-1) = (f-1)u / (1 - (f-1)u)
    < f u for f <= 8, the most on sup_norm's split, where L >= (2N+1)/8:
    8u from N = 2^17 on. The terms outside the window M <= |n| <= N are
    exact zeros that grid_values skips, so they add no rounding. The input
    errors move every output by at most their l1 sum. Transform: an FFT of
    P passes, each of relative 2-norm error eta, errs by at most P eta /
    (1 - P eta) ||y||_2 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 24.2, argued pass by pass).
    11-smooth sizes L take P <= log2 L passes of radix r <= 11, each
    forming length-r sums after one twiddle product, so eta <=
    gamma_(r+3) (sqrt(r) + u) < 64u and P eta < 1/2. One entry is at most
    the 2-norm, and ||y||_2 = sqrt(L) ||b||_2 <= sqrt(L) ||b||_1 <=
    sqrt(L) ||w||_1 for the transform's input b, folded or not, as the
    twist has modulus 1.
    """
    N = spec.weights.N
    m = _coset_count(K, N)
    L = K // m
    l1 = spec.weights.window_mass()     # w >= 0
    rows = N // L - (-N // L) + 1       # -ceil(N/L) .. N // L
    twist = 0 if m == 1 else 32 * (rows + 1 + (N >= L))
    terms = -(-(2 * N + 1) // L)
    fold = terms if terms > 1 else 0
    ulps = 32 + twist + fold + 2 * math.log2(L) * 64 * math.sqrt(L)
    return l1 * (2 * math.pi * spec.phase_error_bound() + ulps * 2.0 ** -53)


def _peak(vals: np.ndarray) -> tuple[float, int]:
    """(max |vals|, the smallest k attaining it), pass by pass, so no
    array of |vals| is made and at most one pass's is held."""
    best, at = -1.0, 0
    for a in range(0, vals.size, _CHUNK):
        mags = np.abs(vals[a:a + _CHUNK])
        k = int(mags.argmax())
        v = float(mags[k])
        del mags                        # before the next pass's is made
        if v > best:
            best, at = v, a + k
    return best, at


# The second lane of _map_cosets, (busy, go, done, job): made on its first
# threaded call and kept; a forked child drops it and makes its own.
_lane = None


def _drop_lane() -> None:
    global _lane
    _lane = None


os.register_at_fork(after_in_child=_drop_lane)


def _map_cosets(fn, items: range, L: int, threaded: bool) -> list:
    """[fn(s, out) for s in items], in item order, each lane reusing one
    L-point buffer out: the cosets of a sup or the chunks of a phase vector
    (L = 0).

    Threaded, two lanes take the items from one shared counter: the
    calling thread and the process's one worker thread, a daemon made on
    the first threaded call and kept for every later one (numpy's FFT and
    array loops release the GIL). Each writes its results by item index,
    so the list is the same on one core, whichever lane took an item. The
    first exception of either lane stops both, as neither takes another
    item after it, and is raised here once, after both have stopped. A
    call made while the worker serves another thread's call runs on its
    calling thread alone.
    """
    global _lane
    results: list = [None] * len(items)
    failed: list[BaseException] = []
    taken = [0]                         # the shared counter, under lock
    lock = threading.Lock()

    def lane() -> None:
        out = np.empty(L, dtype=np.complex128)
        while True:
            with lock:
                if failed or taken[0] == len(items):
                    return
                k = taken[0]
                taken[0] += 1
            try:
                results[k] = fn(items[k], out)
            except BaseException as exc:    # raised again in the caller
                with lock:
                    failed.append(exc)
                return

    if threaded and _lane is None:
        go, done, job = threading.Semaphore(0), threading.Semaphore(0), []

        def serve() -> None:
            while True:
                go.acquire()
                job.pop()()
                done.release()

        threading.Thread(target=serve, name="thetareg-lane", daemon=True).start()
        _lane = (threading.Lock(), go, done, job)
    if threaded and _lane[0].acquire(blocking=False):
        busy, go, done, job = _lane
        job.append(lane)
        go.release()
        try:
            lane()
            done.acquire()
        except BaseException as exc:    # interrupted: the worker stops after
            failed.append(exc)          # its item, and the next call makes
            _lane = None                # a new one
            raise
        busy.release()
    else:
        lane()
    if failed:
        raise failed[0]
    return results


def sup_norm(spec: SumSpec, oversample: int = 8) -> SupNormResult:
    """[value, upper] around sup_x |S(x)| from one FFT grid; upper is certified.

    value is the maximum over the K = _fft_len(oversample * (2N+1)) points
    x = k/K and upper = (value + r) / (1 - pi^2 N^2 / (2 K^2)), r from
    _rounding_term.

    The grid is evaluated in m = _coset_count(K, N) cosets, each one
    transform of L = K/m points: coset s holds x = (s + m k)/K,
    grid_values(spec, L, s, m). These are the same K points, and value and
    argmax_x are their maximum, ties going to the smallest k as one argmax
    over the whole grid would. S is even, S(-x) = S(x): the substitution
    n -> -n maps the sum at -x onto the sum at x, as w_n and e(n^2 t/2) are
    even in n. The mirror of x = (s + m k)/K is (K - s - m k)/K mod 1, a
    point of coset (m - s) mod m, so cosets 0..m//2 hold a mirror of every
    grid point. Only they are transformed (all m while m <= 2), and
    argmax_x is folded into [0, 1/2], where the mirror point -x has the
    same exact value.

    The coefficients are the sum's one window-length array, built with it
    (SumSpec). Below N = _FOLD_N (j <= 11) K/m >= 2N+1 and the cosets run
    one after another through one L-point buffer. From it on each coset
    folds its rows in place by Horner's rule (grid_values) and the cosets
    run in two lanes, one of them on a second thread (_map_cosets), two
    transforms in flight in at most the memory of one whole-length one
    (_coset_count). The second lane is one worker thread per process, kept
    from call to call, and the lanes take cosets from one shared counter,
    so neither idles while a coset is left. The window's size alone picks
    the route, and no route makes an array of |S|. The N+1 and N/2 splits
    are measured crossovers; the N/4 split is taken for memory, not speed
    (BENCH_16, BENCH_21, BENCH_22 and BENCH_24.json).

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
    N = max(spec.weights.N, 1)
    K = _grid_size(N, oversample)
    m = _coset_count(K, spec.weights.N)
    L = K // m
    cosets = range(m // 2 + 1)

    def peak(s: int, out: np.ndarray) -> tuple[float, int]:
        return _peak(grid_values(spec, L, s, m, out))

    peaks = _map_cosets(peak, cosets, L, threaded=L < 2 * spec.weights.N + 1)
    # (value, -k) over the cosets: ties go to the smallest k
    value, k0 = max((v, -(s + m * k)) for s, (v, k) in zip(cosets, peaks))
    k0 = min(-k0, K + k0)               # S(-x) = S(x)
    upper = (value + _rounding_term(spec, K)) / _grid_shrink(N, K)
    return SupNormResult(value=value, upper=upper, argmax_x=k0 / K, grid_size=K)


def probe_floors(weights: WeightVector, q: int,
                 window: tuple[int, int]) -> dict[str, float]:
    """Guaranteed lower bounds for max_h |S(h/(2q))| at t = p/q.

    Which floor applies depends on how the denominator compares with the
    window length L = N - M + 1 (per side):

      q >= L  (sparse case): the residues n mod 2q are distinct inside the
        window, so the energy is at least the diagonal;
      q < L   (saturated case): Cauchy-Schwarz over the 2q residue classes.

    Each floor is per the mass over both signs, sum_{M<=|n|<=N} w_n. For a
    sharp window (mass 2L) the combinatorial forms sqrt(2 (N - M)) and
    sqrt(2) (N - M)/sqrt(q) are the mass floors times (N - M)/L < 1, so
    they are not recorded.
    """
    M, N = window
    if M < 1 or N <= M:
        raise DomainError("floors need a window 1 <= M < N")
    mass = weights.window_mass()
    if q >= N - M + 1:
        return {"mass_sparse": mass / (math.sqrt(2.0) * math.sqrt(N - M))}
    return {"mass_saturated": mass / math.sqrt(2.0 * q)}


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
    max_abs, h = _peak(grid_values(spec, 2 * q))    # |S(h / (2q))|
    win = window if window is not None else (weights.M, weights.N)
    floors = probe_floors(weights, q, win)
    ok = all(max_abs >= f * (1.0 - 1e-12) for f in floors.values())
    return ProbeResult(p=p, q=q, max_abs=max_abs, argmax_h=h,
                       window=win, floors=tuple(sorted(floors.items())),
                       satisfied=ok)


_U = 2.0 ** -53              # unit roundoff of a float64


def _comb_sine_sum(q: int, k: int) -> float:
    """An upper bound on sum_{i=1}^{q-1} (2 sin(pi d_i))^-k for k <= 3,
    d_i = (min(i, q-i) - 1/2)/q, the comb-point distances of _comb_bracket.

    Each argument pi d_i is formed within 3u of exact (u = 2^-53) and, as
    x cot x <= 1 on (0, pi/2], libm's sin (within one ulp) then errs by at
    most 5u relatively; the k - 1 products and the reciprocal bring a term
    to within (6k + 3) u <= 21u of exact, math.fsum rounds the sum once,
    and the factor 1 + 64u covers all of it.
    """
    terms = []
    for i in range(1, q):
        d = 2.0 * math.sin(math.pi * (min(i, q - i) - 0.5) / q)
        terms.append(1.0 / math.prod([d] * k))
    return math.fsum(terms) * (1 + 64 * _U)


def _comb_bracket(q: int, weights: WeightVector, settles=None
                  ) -> tuple[float, float] | None:
    """Certified [lower, upper] around sup_x |S(x)| at t = p/q, gcd(p, q) = 1,
    from the comb identity alone: no grid, O(N) array work for a smooth
    block and none for a sharp one, plus an O(q) sine sum.

    Comb: u_n = e(n^2 p/(2q)) has period 2q in n, so u_n = sum_h G_h
    e(n h/(2q)) over h = 0..2q-1, and

        S(x) = sum_h G_h W(x + h/(2q)),    W(x) = sum_n w_n e(n x).

    In |G_h|^2 = (2q)^-2 sum_{r,s} u_r conj(u_s) e(-(r-s) h/(2q)), put
    r = s + d: the sum over s mod 2q of e(s d p/q) is 2q when q | d and 0
    otherwise, so |G_h|^2 = (1 + (-1)^(qp+h)) / (2q). Exactly q of the G_h
    are nonzero, each of modulus 1/sqrt(q), at every other h: their points
    lie 1/q apart.

    Kernel: w >= 0 and w is even, so W is real and even and |W| <= W(0) =
    sum w over both sides. k summations by parts, (1 - e(x))^k W(x) =
    sum_n (Delta^k w)_n e(n x), give |W(x)| <= B_k / |2 sin(pi x)|^k with
    B_k = ||Delta^k w||_1 over both sides: k = 3 for smooth blocks, else
    k = 1, where a sharp block has B_1 = 4 and W(0) = 2 (N - M + 1), both
    exact (WeightVector).

    Bracket: for any x the q comb points x + h/(2q) with G_h != 0 are
    y_0 + i/q, i = 0..q-1, with y_0 the one nearest an integer, so y_i is
    within 1/(2q) of i/q and at least d_i = (min(i, q-i) - 1/2)/q from
    every integer. Hence

        |S(x)| <= (W(0) + T)/sqrt(q),    T = B_k sum_{i=1}^{q-1} (2 sin(pi d_i))^-k.

    At the x that puts y_0 on 0, a point h/(2q) of the probe's comb grid,
    y_i = i/q, so |S(x)| >= (W(0) - T)/sqrt(q) there.

    Rounding: a sharp block's W(0) and B_1 are exact, and the widening
    below only loosens its ends. A smooth block's W(0) and B_k are twice
    sums over the window (window_mass, variation) of N - M + 1 and
    N - M + k + 1 <= N + 3 float terms, and in any order such a sum is
    within gamma_(N+5) <= nu = (N + 8) u of its terms' absolute sum
    (u = 2^-53; Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 4.2). So the exact W(0) is within
    2 nu of the computed one, relatively. An entry of Delta^k w, k rounded
    differences deep, is within gamma_k sum_i C(k, i) |w_(n-i)| of exact,
    which over all n is gamma_k 2^k W(0); so B_k is at most the computed
    one times 1 + 2 nu, plus k 2^(k+2) u W(0).
    _comb_sine_sum bounds the sine sum from above. The dozen operations
    that combine these err by at most u each, and 1 +- 64u on the ends
    covers them, the lower end's cancellation included while 3T <= W(0);
    past that the lower end is 0.

    ``settles(lower, upper)``, when given, is the caller's rule: None is
    returned unless the bracket passes it, and before the sine sum when the
    two nearest comb points alone break it (both ends only widen as T
    grows), and for a block with 2M <= k, which variation refuses: of the
    package's blocks only those at j = 0, which no caller brackets.
    """
    k = 3 if weights.mode == "smooth" else 1
    if 2 * weights.M <= k:
        return None
    B, W = weights.variation(k), weights.window_mass()
    nu = (weights.N + 8) * _U
    W_lo, W_hi = W * (1 - 2 * nu), W * (1 + 2 * nu)
    B_hi = B * (1 + 2 * nu) + k * 2 ** (k + 2) * _U * W_hi
    root = math.sqrt(q)

    def ends(T: float) -> tuple[float, float]:
        upper = (W_hi + T) * (1 + 64 * _U) / root
        lower = (W_lo - T) * (1 - 64 * _U) / root if 3 * T <= W_lo else 0.0
        return lower, upper

    if settles is not None and q > 1:
        d = 2.0 * math.sin(math.pi * 0.5 / q)           # i = 1 and q - 1
        if not settles(*ends(B_hi * min(2, q - 1) / math.prod([d] * k))):
            return None
    bracket = ends(B_hi * _comb_sine_sum(q, k))
    if settles is not None and not settles(*bracket):
        return None
    return bracket


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


def merged_block_sup(spec: SumSpec, oversample: int = 8
                     ) -> tuple[SupNormResult, ProbeResult | None]:
    """The block sup with the exact comb-grid probe merged in for rational times.

    A rational block with 1 <= M < N and q <= MAX_PROBE_Q is probed first:
    the points x = h/(2q) carry its Gauss-sum peaks, and the probe samples
    S, so it can only raise the reported value. A block holding n = 0
    (M = 0) is not probed: no floor's window 1..N covers w_0.

    Settle rule: the probed block then takes _comb_bracket's closed
    [lower, upper], and skips sup_norm, when upper / max(probe, lower) is
    within the grid's own a priori factor 1 / (1 - pi^2 N^2 / (2 K^2)),
    K the grid sup_norm would use. It reports value = max(probe, lower),
    that upper, the probe's argmax and grid_size = 2q. Every other block
    takes sup_norm, with a larger probe value merged into its value and
    argmax; the grid's upper end still bounds the sup. The grid refusals
    (oversample < 2, K past MAX_GRID) hold on both routes. The probe reads
    the sum's own coefficients.
    """
    time, weights = spec.time, spec.weights
    probe: ProbeResult | None = None
    exact = time.exact_value()
    if exact is not None and exact.denominator <= MAX_PROBE_Q \
            and 1 <= weights.M < weights.N:
        q = exact.denominator
        probe = rational_probe(exact.numerator, q, spec)
        shrink = _grid_shrink(weights.N, _grid_size(weights.N, oversample))
        bracket = _comb_bracket(
            q, weights, lambda lo, hi: hi * shrink <= max(probe.max_abs, lo))
        if bracket is not None:
            return SupNormResult(value=max(probe.max_abs, bracket[0]),
                                 upper=bracket[1],
                                 argmax_x=probe.argmax_h / (2.0 * q),
                                 grid_size=2 * q), probe
    result = sup_norm(spec, oversample=oversample)
    if probe is not None and probe.max_abs > result.value:
        result = replace(result, value=probe.max_abs,
                         argmax_x=probe.argmax_h / (2.0 * exact.denominator))
    return result, probe
