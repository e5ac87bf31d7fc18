"""Weighted quadratic exponential sums: evaluation, grids, probes, monitors."""

import functools
import math
import os
import select
import signal
import sys
import threading
import tracemalloc
from fractions import Fraction
from time import sleep

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from oracles import brute_probe_max, brute_sum_at, chi, variation
from thetareg import exactnum, thetasum
from thetareg.contfrac import QuadraticIrrational, Rational, parse_timespec
from thetareg.cutoff import (MAX_BLOCK_J, MAX_BLOCK_N, WeightVector,
                             block_bounds, rough_weights, smooth_weights)
from thetareg.errors import BudgetError, DomainError, HypothesisError
from thetareg.besov import block_spectrum
from thetareg.thetasum import (SumSpec, _comb_bracket, _coset_count, _fft_len,
                               _rounding_term, eval_sum, grid_values,
                               merged_block_sup, probe_floors, rational_probe,
                               scale_bits_for, stability_ratio, sup_norm)


def test_scale_bits_for():
    assert scale_bits_for(1) == 34
    assert scale_bits_for(2**21) == 76
    assert scale_bits_for(1000) == 52


def test_hand_zero_sum():
    # t = 1: e(n^2/2) = (-1)^n, so the 1 <= |n| <= 4 sum vanishes at x = 0
    spec = SumSpec(Rational(1, 1), WeightVector(1, 4))
    assert abs(eval_sum(spec, 0.0)) < 1e-13


def test_eval_sum_matches_bruteforce():
    for (p, q) in ((1, 3), (2, 5), (5, 7)):
        for w in (WeightVector(1, 12), smooth_weights(3), rough_weights(2)):
            spec = SumSpec(Rational(p, q), w)
            for (num, den) in ((0, 1), (1, 7), (3, 4), (5, 11)):
                got = eval_sum(spec, num / den)
                want = brute_sum_at(p, q, w, num, den)
                # x as float vs exact rational differ by the float rounding
                # of num/den times the sum's derivative, well below 1e-8
                assert abs(got - want) < 1e-8


def test_grid_values_match_pointwise_eval(golden):
    for time in (Rational(2, 7), golden):
        spec = SumSpec(time, rough_weights(4))
        K = 128                           # N = 32 needs K >= 65
        vals = grid_values(spec, K)
        assert vals.shape == (K,)
        for k in (0, 1, 13, 40, 127):
            assert abs(vals[k] - eval_sum(spec, k / K)) < 1e-9


def test_grid_values_guards():
    spec = SumSpec(Rational(1, 3), rough_weights(4))  # N = 32
    # K < 2N+1 = 65 folds the coefficients onto n mod K: still the exact
    # values at x = k/K, down to K = 1 (the sum at x = 0) and across every
    # shape of the fold: whole rows or none, a partial row or none, and a
    # mirror that overlaps itself (K = 40); K >= 65 places each c_n alone
    w = spec.weights
    for K in (1, 2, 7, 16, 31, 32, 33, 40, 64, 65):
        vals = grid_values(spec, K)
        assert vals.shape == (K,)
        for k in range(K):
            assert abs(vals[k] - eval_sum(spec, k / K)) < 1e-9
            assert abs(vals[k] - brute_sum_at(1, 3, w, k, K)) < 1e-9
    # coset s of an m L-point grid, any L: term n = r + jL lands on
    # residue r with its row factor e(j s/m). L = 7..32 folds 1 to 5 rows
    # of each sign onto every residue, L = 33..64 two terms onto the
    # residues L-N..N, and from L = 65 on each term sits alone; the values
    # are S at (s + m k)/(m L), for every coset of m, and an out buffer
    # receives them
    for L in (*range(7, 33), 33, 40, 64, 65, 80):
        for m in (2, 3, 5):
            out = np.empty(L, dtype=np.complex128)
            for s in range(m):
                vals = grid_values(spec, L, s, m, out)
                assert vals is out
                for k in range(L):
                    want = eval_sum(spec, (s + m * k) / (m * L))
                    assert abs(vals[k] - want) < 1e-9, (L, m, s, k)
                    want = brute_sum_at(1, 3, w, s + m * k, m * L)
                    assert abs(vals[k] - want) < 1e-9, (L, m, s, k)
    # a whole grid below N+1 fills an out buffer too
    out = np.empty(32, dtype=np.complex128)
    assert grid_values(spec, 32, out=out) is out
    assert np.array_equal(out, grid_values(spec, 32))
    for s, m in ((2, 2), (-1, 3), (0, 0)):
        with pytest.raises(DomainError):
            grid_values(spec, 65, s, m)
    with pytest.raises(DomainError):
        grid_values(spec, 0)
    with pytest.raises(BudgetError):
        grid_values(spec, 1 << 27)


def test_probe_makes_no_n_length_temporary():
    # the fold sums rows of the coefficients where they lie: a probe of
    # N = 2^17 coefficients allocates less than one N-length int64 array
    spec = SumSpec(Rational(1, 3), rough_weights(16))
    spec.coefficient_arrays()
    tracemalloc.start()
    try:
        rational_probe(1, 3, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (spec.weights.N + 1), peak


def _traced(fn) -> int:
    """tracemalloc peak, in bytes, of one call of fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_folded_coset_makes_no_row_product(golden):
    # Horner's rule folds each of a coset's rows into its buffer in place:
    # a j = 16 coset of 32,805 points, eight rows -4 .. 3, makes no
    # temporary of a row, for s = 1 as for the top s. numpy buffers the
    # twist's two broadcast products on its own (128 kB in numpy 2.4);
    # the same products alone on the same view set the baseline
    spec = SumSpec(golden, smooth_weights(16))
    N = spec.weights.N
    K = _fft_len(8 * (2 * N + 1))
    m = _coset_count(K, N)
    L = K // m
    assert (m, L, -(-N // L), N // L) == (64, 32_805, 4, 3)    # rows -4 .. 3
    buf = np.empty(L, dtype=np.complex128)
    rows, cols, _ = thetasum._coset_twist(L, m, 1)
    view = buf.reshape(-1, cols.size)

    def twist():
        view.__imul__(rows[:, None])
        view.__imul__(cols)

    twist()
    base = _traced(twist)
    for s in (1, m // 2):
        grid_values(spec, L, s, m, out=buf)         # fills the twist cache
        peak = _traced(lambda: grid_values(spec, L, s, m, out=buf))
        assert peak < base + (64 << 10), (s, peak, base)


def _force_cosets(monkeypatch, m):
    """Make sup_norm and _rounding_term split every grid into m cosets."""
    monkeypatch.setattr(thetasum, "_coset_count", lambda K, N: m)


def _whole_grid_term(spec, K):
    """_rounding_term for one transform of all K points (m = 1)."""
    with pytest.MonkeyPatch.context() as mp:
        _force_cosets(mp, 1)
        return _rounding_term(spec, K)


def test_coset_grids_interleave_to_the_full_grid(golden, monkeypatch):
    # every split of the grid that keeps K/m >= N+1: the twisted transforms,
    # interleaved, are the one big transform's values within both bounds;
    # past K/(2N+1) = 8 the cosets fold, two terms on some residues
    spec = SumSpec(golden, WeightVector(3, 40))           # 2N+1 = 81
    N = spec.weights.N
    K = 720
    full = grid_values(spec, K)
    r1 = _whole_grid_term(spec, K)
    splits = [m for m in range(2, K // (N + 1) + 1) if K % m == 0]
    assert splits == [2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16]
    assert _coset_count(K, N) == 8                        # the largest unfolded
    for m in splits:
        _force_cosets(monkeypatch, m)
        r = _rounding_term(spec, K)
        got = np.empty(K, dtype=np.complex128)
        for s in range(m):
            got[s::m] = grid_values(spec, K // m, s, m)
        assert np.max(np.abs(got - full)) <= r + r1, m
    # sup_norm's own split finds the same maximum, folded (m = 9, 12) or not
    _force_cosets(monkeypatch, 1)
    base = sup_norm(spec)
    K = base.grid_size
    assert K == 648 and _coset_count(K, N) == 8
    r1 = _rounding_term(spec, K)
    for m in (2, 3, 4, 6, 8, 9, 12):
        _force_cosets(monkeypatch, m)
        res = sup_norm(spec)
        assert (res.grid_size, res.argmax_x) == (K, base.argmax_x), m
        assert abs(res.value - base.value) <= _rounding_term(spec, K) + r1, m


def test_coset_count_rule():
    # grids of block j = 6..20: the largest divisor m of K that keeps
    # K/m >= 2N+1 below N = 2^13 (j <= 11), at most the oversample,
    # K/m >= N+1 below N = 2^15 (j = 12, 13), at most two terms on a
    # residue, K/m >= N/2 + 1 below N = 2^17 (j = 14, 15), at most four,
    # and K/m >= N/4 + 1 from it on (j >= 16), at most eight
    want = {2: [1, 1, 2, 2, 2, 2, 3, 3, 6, 8, 16, 16, 16, 16, 16],
            4: [3, 3, 4, 4, 4, 3, 6, 6, 15, 16, 32, 32, 32, 32, 32],
            8: [7, 7, 8, 8, 5, 6, 15, 15, 30, 32, 64, 64, 64, 64, 64]}
    for oversample, ms in want.items():
        for j, m in zip(range(6, 21), ms):
            N = rough_weights(j).N
            K = _fft_len(oversample * (2 * N + 1))
            terms = 1 if j <= 11 else 2 if j <= 13 else 4 if j <= 15 else 8
            width = -(-(2 * N + 1) // terms)
            assert width == (2 * N + 1, N + 1, N // 2 + 1, N // 4 + 1)[
                terms.bit_length() - 1]
            assert _coset_count(K, N) == m, (oversample, j)
            assert K % m == 0 and K // m >= width
            assert not any(K % d == 0 for d in range(m + 1, K // width + 1))
            assert -(-(2 * N + 1) // (K // m)) <= terms
    # j = 16 at oversample 8: 64 cosets of 32,805 points
    assert _fft_len(8 * (2 * 2 ** 17 + 1)) // 64 == 32_805
    # the crossovers read the window alone: one grid, N either side of
    # 2^13, of 2^15 and of 2^17
    assert (_coset_count(131_220, 2 ** 13 - 1),
            _coset_count(131_220, 2 ** 13)) == (6, 15)
    assert (_coset_count(524_880, 2 ** 15 - 1),
            _coset_count(524_880, 2 ** 15)) == (16, 30)
    assert (_coset_count(2_099_520, 2 ** 17 - 1),
            _coset_count(2_099_520, 2 ** 17)) == (32, 64)
    assert _coset_count(100, 60) == 1            # aliasing grid: no split
    # oversample 10^6 on N = 2: 2,000 cosets of 2,500 points, not 10^6 of 5
    assert _coset_count(5_000_000, 2) == 2000


def test_coset_twist_cache_holds_every_scale():
    # sups at oversamples 2, 4 and 8 over the blocks j = 0..20 ask for one
    # twist key (L, m, s) per transformed coset s >= 1: the cache's bound
    # holds all of them, so none is evicted and rebuilt
    keys = {oversample: set() for oversample in (2, 4, 8)}
    for oversample, found in keys.items():
        for j in range(MAX_BLOCK_J + 1):
            N = rough_weights(j).N
            K = _fft_len(oversample * (2 * N + 1))
            m = _coset_count(K, N)
            found.update((K // m, m, s) for s in range(1, m // 2 + 1))
    assert len(keys[8]) == 243
    every = set().union(*keys.values())
    assert len(every) == 383
    assert len(every) <= thetasum._coset_twist.cache_info().maxsize


def _forced_splits(spec, monkeypatch):
    """(m, K) for m = 1..8, each m forced through _coset_count, on the
    840-point grid of a window reaching N = 52 (840 = 8 * 105 has every
    divisor 1..8, and K/8 = 2N+1 still does not alias)."""
    K = sup_norm(spec).grid_size
    assert K == 840 and spec.weights.N == 52
    assert _coset_count(K, spec.weights.N) == 8
    for m in range(1, 9):
        assert K % m == 0 and K // m >= 2 * spec.weights.N + 1
        _force_cosets(monkeypatch, m)
        yield m, K


@pytest.mark.parametrize("make", [
    pytest.param(lambda: rough_weights(8), id="rough"),
    pytest.param(lambda: smooth_weights(8), id="smooth"),
    pytest.param(lambda: WeightVector(3, 52), id="unit"),
])
def test_sup_norm_transforms_half_the_cosets_of_an_even_sum(
        golden, monkeypatch, make):
    spec = SumSpec(golden, make())
    N = spec.weights.N
    K = sup_norm(spec).grid_size
    # every split that keeps K/m >= 2N+1, up to 7 or 8 cosets
    splits = [m for m in range(1, K // (2 * N + 1) + 1) if K % m == 0]
    assert max(splits) >= 7
    calls = []
    real = thetasum.grid_values

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(thetasum, "grid_values", counting)
    for m in splits:
        _force_cosets(monkeypatch, m)
        calls.clear()
        sup_norm(spec)
        assert calls == [K // m] * (m // 2 + 1), m


def test_even_sum_sup_matches_all_cosets_and_folds_argmax(golden, monkeypatch):
    # the cosets left out mirror ones transformed: the same maximum, within
    # the rounding bounds, at a point folded into [0, 1/2]
    spec = SumSpec(golden, WeightVector(3, 52))
    full = np.abs(grid_values(spec, 840))
    g = int(np.argmax(full))
    r1 = _whole_grid_term(spec, 840)
    for m, K in _forced_splits(spec, monkeypatch):
        res = sup_norm(spec)
        assert abs(res.value - full[g]) <= _rounding_term(spec, K) + r1, m
        assert 0.0 <= res.argmax_x <= 0.5, m
        assert res.argmax_x == min(g, K - g) / K, m


def test_block_budget():
    with pytest.raises(BudgetError):
        SumSpec(Rational(1, 3), WeightVector(1, MAX_BLOCK_N + 1))


def test_block_budget_is_one_limit():
    # the top scale still builds a sum (no FFT is run here); one past it, or
    # a window past its top, is refused before any weights exist
    assert MAX_BLOCK_N == 2 ** (MAX_BLOCK_J + 1)
    for make in (rough_weights, smooth_weights):
        w = make(MAX_BLOCK_J)
        assert w.N == MAX_BLOCK_N
        SumSpec(Rational(1, 3), w)
        with pytest.raises(BudgetError):
            make(MAX_BLOCK_J + 1)
    assert WeightVector(1, MAX_BLOCK_N).N == MAX_BLOCK_N
    # weights built by hand meet the same limit where they are made
    with pytest.raises(BudgetError):
        WeightVector(1, MAX_BLOCK_N + 1)
    with pytest.raises(BudgetError):
        WeightVector(M=1, N=MAX_BLOCK_N + 1, w=np.ones(MAX_BLOCK_N + 1))


def test_fft_len_matches_scipy():
    for target in range(1, 2 ** 17 + 1):
        assert _fft_len(target) == next_fast_len(target), target
    # every grid size sup_norm asks for, up to the top block
    for j in range(MAX_BLOCK_J + 1):
        N = rough_weights(j).N
        for oversample in (2, 4, 8):
            target = oversample * (2 * N + 1)
            assert _fft_len(target) == next_fast_len(target), (j, oversample)
    _fft_len.cache_clear()


def test_parseval_identity(golden):
    # on any grid of K >= 2N+1 points the mean of |S|^2 is the coefficient
    # power sum |w_n|^2 over both sides exactly (discrete Parseval)
    for time in (Rational(1, 3), golden):
        for w in (rough_weights(9), smooth_weights(9), WeightVector(3, 250)):
            vals = grid_values(SumSpec(time, w), _fft_len(4 * (2 * w.N + 1)))
            mean = float(np.mean(np.abs(vals) ** 2))
            assert mean == pytest.approx(w.l2_squared(), rel=1e-10)


def test_probe_matches_bruteforce():
    # at N = 16 (2N+1 = 33) the comb grid folds up to q = 16 and places
    # at q = 17
    for q in (2, 3, 5, 7, 12, 16, 17):
        p = 1 if q != 12 else 5
        for w in (WeightVector(1, 16), smooth_weights(3), WeightVector(2, 9)):
            pr = rational_probe(p, q, SumSpec(Rational(p, q), w))
            want = brute_probe_max(p, q, w)
            assert pr.max_abs == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert 0 <= pr.argmax_h < 2 * q


def test_probe_argmax_attains_max():
    w = WeightVector(1, 16)
    pr = rational_probe(3, 7, SumSpec(Rational(3, 7), w))
    direct = abs(brute_sum_at(3, 7, w, pr.argmax_h, 14))
    assert direct == pytest.approx(pr.max_abs, rel=1e-12)


def test_probe_floors_branches():
    # one floor, from the mass: a sharp window's combinatorial forms are
    # these times (N - M)/(N - M + 1), so never the larger
    w = WeightVector(1, 16)
    sat = probe_floors(w, 3, (1, 16))       # q = 3 < window length
    assert set(sat) == {"mass_saturated"}
    assert sat["mass_saturated"] == pytest.approx(32 / math.sqrt(6))
    sparse = probe_floors(w, 17, (1, 16))    # q = 17 >= window length
    assert set(sparse) == {"mass_sparse"}
    assert sparse["mass_sparse"] == pytest.approx(32 / (math.sqrt(2) * math.sqrt(15)))
    sm = probe_floors(smooth_weights(3), 17, (1, 16))
    assert set(sm) == {"mass_sparse"}
    with pytest.raises(DomainError):
        probe_floors(w, 3, (0, 16))
    for (M, N), q in (((5, 200), 7), ((3, 4), 1), ((1, 16), 3), ((1, 16), 17)):
        combinatorial = (math.sqrt(2) * (N - M) / math.sqrt(q) if q < N - M + 1
                         else math.sqrt(2 * (N - M)))
        floor, = probe_floors(WeightVector(M, N), q, (M, N)).values()
        assert combinatorial < floor, (M, N, q)


def test_probe_floor_satisfaction_spot_checks():
    for q, win in ((17, (1, 16)), (101, (16, 128)), (3, (1, 16))):
        pr = rational_probe(1, q, SumSpec(Rational(1, q), WeightVector(*win)),
                            window=win)
        assert pr.satisfied
        assert pr.floor_margin() >= 1.0


def test_probe_refuses_a_block_holding_n0():
    # the j = 0 block has M = 0: no floor's window 1..N covers w_0
    with pytest.raises(DomainError):
        rational_probe(1, 4, SumSpec(Rational(1, 4), rough_weights(0)))


def test_probe_budget():
    with pytest.raises(BudgetError):
        rational_probe(1, 10_001, SumSpec(Rational(1, 10_001), WeightVector(1, 16)))


def test_sup_norm_dominates_samples(golden):
    for time in (Rational(3, 5), golden):
        spec = SumSpec(time, smooth_weights(6))
        res = sup_norm(spec)
        rng = np.random.default_rng(3)
        for x in rng.uniform(0.0, 1.0, 25):
            sample = abs(eval_sum(spec, float(x)))
            assert sample <= res.value * (1 + 1e-12)
            assert sample <= res.upper
        # sup >= rms: mean |S|^2 equals the weight l2 mass
        assert res.value >= math.sqrt(spec.weights.l2_squared())


_BRACKET_TIMES = {
    "rat": "rat:1234/7919",
    "quad": "quad:(-1+1*sqrt(5))/2",
    "class": "class:sigma=1,seed=0,2",
    "dec": "dec:0.414213562373095048801688724209698",
}


@functools.lru_cache(maxsize=None)
def _oracle_sup(text: str, family: str, j: int, grid: int = 256) -> float:
    """sup |S| from a grid x oversampled grid plus a 60-step ternary refine
    by eval_sum.

    A lower estimate like the grid maximum, but far tighter: the bracket
    must contain it.
    """
    weights = rough_weights(j) if family == "rough" else smooth_weights(j)
    spec = SumSpec(parse_timespec(text), weights)
    K = _fft_len(grid * (2 * weights.N + 1))
    mags = np.abs(grid_values(spec, K))
    k0 = int(np.argmax(mags))
    best = float(mags[k0])
    a, b = (k0 - 1) / K, (k0 + 1) / K
    for _ in range(60):
        m1, m2 = a + (b - a) / 3.0, b - (b - a) / 3.0
        f1, f2 = abs(eval_sum(spec, m1)), abs(eval_sum(spec, m2))
        best = max(best, f1, f2)
        if f1 >= f2:
            b = m2
        else:
            a = m1
    return best


@pytest.mark.parametrize("oversample", [2, 4, 8])
@pytest.mark.parametrize("kind", sorted(_BRACKET_TIMES))
def test_sup_bracket_contains_refined_sup(kind, oversample):
    text = _BRACKET_TIMES[kind]
    # K >= oversample (2N + 1) > 2 oversample N bounds the closed-form factor
    factor = 1.0 / (1.0 - math.pi ** 2 / (8 * oversample ** 2))
    for family in ("rough", "smooth"):
        for j in (4, 8, 12):
            weights = rough_weights(j) if family == "rough" else smooth_weights(j)
            spec = SumSpec(parse_timespec(text), weights)
            res = sup_norm(spec, oversample=oversample)
            r = _rounding_term(spec, res.grid_size)
            oracle = _oracle_sup(text, family, j)
            where = (family, j, res.value, oracle, res.upper)
            assert res.value - r <= oracle <= res.upper, where
            assert res.upper / res.value <= factor * (1 + r / res.value), where


@pytest.mark.parametrize("j", [13, 14])
@pytest.mark.parametrize("kind", ["quad", "rat"])
def test_sup_bracket_holds_across_cosets(kind, j):
    # j = 13 splits the oversample-8 grid into 15 cosets folding two terms
    # onto a residue, and j = 14 into 30 folding four
    text = _BRACKET_TIMES[kind]
    factor = 1.0 / (1.0 - math.pi ** 2 / (8 * 8 ** 2))
    for family in ("rough", "smooth"):
        weights = rough_weights(j) if family == "rough" else smooth_weights(j)
        spec = SumSpec(parse_timespec(text), weights)
        res = sup_norm(spec)
        m = _coset_count(res.grid_size, weights.N)
        assert m == (15 if j == 13 else 30)
        L = res.grid_size // m
        assert -(-(2 * weights.N + 1) // L) == (2 if j == 13 else 4)
        r = _rounding_term(spec, res.grid_size)
        oracle = _oracle_sup(text, family, j, grid=32)
        where = (family, res.value, oracle, res.upper)
        assert res.value - r <= oracle <= res.upper, where
        assert res.upper / res.value <= factor * (1 + r / res.value), where


@pytest.mark.parametrize("text", ["rat:1234/7919", "quad:(-1+1*sqrt(5))/2"])
def test_split_sup_matches_one_whole_grid_transform(text):
    # j = 6..11 split the oversample-8 grid into 5 to 8 cosets, j = 12, 13
    # into 15 folding two terms, j = 14 and 15 into 30 and 32 folding four
    # and j = 16 into 64 folding eight by Horner's rule over eight rows,
    # an even sum transforming about half of them: the maximum is the one
    # transform's, within both rounding terms, at its argmax folded into
    # [0, 1/2]
    for family in (rough_weights, smooth_weights):
        for j in range(6, 17):
            spec = SumSpec(parse_timespec(text), family(j))
            res = sup_norm(spec)
            K = res.grid_size
            assert _coset_count(K, spec.weights.N) >= 5, j
            full = np.abs(grid_values(spec, K))
            g = int(np.argmax(full))
            r = _rounding_term(spec, K) + _whole_grid_term(spec, K)
            assert abs(res.value - full[g]) <= r, (family.__name__, j)
            assert res.argmax_x == min(g, K - g) / K, (family.__name__, j)


_SMALL_WINDOWS = st.one_of(
    st.integers(1, 6).map(rough_weights),
    st.integers(1, 6).map(smooth_weights),
    st.tuples(st.integers(1, 30), st.integers(1, 34)).map(
        lambda mn: WeightVector(mn[0], mn[0] + mn[1])),
)
_SMALL_TIMES = st.one_of(
    st.tuples(st.integers(0, 99), st.integers(1, 50)).map(
        lambda pq: "rat:{}/{}".format(*(v // math.gcd(*pq) for v in pq))),
    st.tuples(st.integers(-5, 5), st.sampled_from([-2, -1, 1, 2]),
              st.integers(2, 99), st.integers(1, 9))
    .filter(lambda t: math.isqrt(t[2]) ** 2 != t[2])
    .map(lambda t: f"quad:({t[0]}{t[1]:+d}*sqrt({t[2]}))/{t[3]}"),
)


@given(text=_SMALL_TIMES, weights=_SMALL_WINDOWS,
       oversample=st.sampled_from([2, 4, 8]))
@settings(max_examples=80, deadline=None)
def test_every_coset_split_matches_one_whole_grid_transform(
        text, weights, oversample):
    # every divisor m of the grid with K/m >= ceil((2N+1)/8), folding up to
    # eight terms onto a residue or none, forced through _coset_count:
    # sup_norm's maximum is the one whole-grid
    # transform's within both rounding terms, at its argmax folded into
    # [0, 1/2]. Comb peaks of a rational time can tie exactly (rat:5/3
    # peaks at x = 1/6 and 1/2 alike), and then rounding picks the point:
    # the split's argmax must hold the maximum, and be the one point that
    # does where no other grid point comes within the terms of it
    spec = SumSpec(parse_timespec(text), weights)
    N = weights.N
    with pytest.MonkeyPatch.context() as mp:
        _force_cosets(mp, 1)
        K = sup_norm(spec, oversample).grid_size
        r1 = _rounding_term(spec, K)
        full = np.abs(grid_values(spec, K))
        g = int(np.argmax(full))
        for m in range(2, K // -(-(2 * N + 1) // 8) + 1):
            if K % m:
                continue
            _force_cosets(mp, m)
            res = sup_norm(spec, oversample)
            r = _rounding_term(spec, K)
            assert abs(res.value - full[g]) <= r + r1, (m, res.value, full[g])
            k = round(res.argmax_x * K)
            assert full[k] >= full[g] - 2 * (r + r1), (m, k, g)
            near = np.flatnonzero(full >= full[g] - 2 * (r + r1))
            if {min(i, K - i) for i in near.tolist()} == {min(g, K - g)}:
                assert res.argmax_x == min(g, K - g) / K, m


def test_sup_norm_deterministic(golden):
    for j in (7, 14):                   # seven cosets, then thirty folded
        spec = SumSpec(golden, rough_weights(j))
        a = sup_norm(spec)
        b = sup_norm(spec)              # the sum's arrays are untouched
        c = sup_norm(SumSpec(golden, rough_weights(j)))
        key = lambda res: (res.value, res.argmax_x, res.grid_size)
        assert key(a) == key(b) == key(c)


def _serial_map(fn, cosets, L, threaded):
    out = np.empty(L, dtype=np.complex128)
    return [fn(s, out) for s in cosets]


@pytest.mark.parametrize("j", [13, 14])
def test_threaded_cosets_match_a_serial_map(golden, monkeypatch, j):
    # the folded cosets of j = 13, 14 run in two lanes, the calling thread
    # and one kept worker thread, which take cosets from a shared counter;
    # the result is the same with a serial map, and on every call. Each
    # coset sleeps a millisecond, so the woken worker surely takes some
    threads = []                        # per call: the threads that ran cosets
    real = thetasum.grid_values

    def tracking(*args):
        threads[-1].add(threading.get_ident())
        sleep(1e-3)
        return real(*args)

    def traced_sup(spec):
        threads.append(set())
        return sup_norm(spec)

    monkeypatch.setattr(thetasum, "grid_values", tracking)
    for make in (rough_weights, smooth_weights):
        spec = SumSpec(golden, make(j))
        pooled = [traced_sup(spec) for _ in range(3)]
        with monkeypatch.context() as mp:
            mp.setattr(thetasum, "_map_cosets", _serial_map)
            serial = traced_sup(spec)
        assert pooled == [serial] * 3, make.__name__
        assert threads[-1] == {threading.get_ident()}
        workers = {frozenset(ran - {threading.get_ident()})
                   for ran in threads[-4:-1]}
        assert all(threading.get_ident() in ran for ran in threads[-4:-1])
        assert len(workers) == 1 and len(next(iter(workers))) == 1


def test_concurrent_sups_agree_under_fast_switching(golden):
    # four sups at once, each running its two lanes over one shared sum,
    # with the interpreter switching threads every microsecond and the
    # twist tables built while they race: every result is the one computed
    # alone (the lanes write disjoint slots, the tables are read-only)
    alone = sup_norm(SumSpec(golden, rough_weights(12)))
    spec = SumSpec(golden, rough_weights(12))
    thetasum._coset_twist.cache_clear()
    got = []

    def run():
        for _ in range(3):
            got.append(sup_norm(spec))

    threads = [threading.Thread(target=run) for _ in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert got == [alone] * 12


@pytest.mark.parametrize("bad", ["calling_lane", "worker_lane"])
def test_a_failing_coset_reaches_the_caller(golden, monkeypatch, bad):
    # a coset that raises on either lane is raised once, from sup_norm:
    # no thread reports it, neither lane starts another coset after it, no
    # lane is left running, and the next sup has the bits of the one before
    spec = SumSpec(golden, rough_weights(13))
    want = sup_norm(spec)               # and the worker lane is up
    caller, real = threading.get_ident(), thetasum.grid_values
    log = []

    def failing(spec, L, s, m, out):
        log.append(("start", s))
        if (threading.get_ident() == caller) == (bad == "calling_lane"):
            log.append(("raise", s))
            raise DomainError(f"coset {s} failed")
        sleep(5e-3)                     # the other lane is mid-coset
        return real(spec, L, s, m, out)

    reported = []
    monkeypatch.setattr(threading, "excepthook", reported.append)
    before = threading.active_count()
    with monkeypatch.context() as mp:
        mp.setattr(thetasum, "grid_values", failing)
        with pytest.raises(DomainError, match="coset .* failed"):
            sup_norm(spec)
    assert threading.active_count() == before and not reported
    failure = log.index(next(e for e in log if e[0] == "raise"))
    assert [e for e in log if e[0] == "raise"] == [log[failure]]
    assert ("start", log[failure][1]) in log[:failure]
    assert all(e[0] != "start" for e in log[failure + 1:]), log
    assert sup_norm(spec) == want


def test_the_worker_lane_is_kept_across_sups(golden):
    # the second lane is one worker thread per process, made on first use:
    # twenty folded sups start at most that one
    spec = SumSpec(golden, rough_weights(13))
    before = threading.active_count()
    for _ in range(20):
        sup_norm(spec)
    assert threading.active_count() <= before + 1


def test_a_forked_child_makes_its_own_lane(golden):
    # the worker thread is not copied by fork: the child drops the parent's
    # lane and makes its own, so its folded sup finishes, with the same bits
    spec = SumSpec(golden, rough_weights(13))
    want = sup_norm(spec)
    assert thetasum._lane is not None
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:                        # the child reports one byte, and exits
        try:
            fresh = thetasum._lane is None
            ok = sup_norm(spec) == want and fresh and thetasum._lane is not None
            os.write(write, b"1" if ok else b"0")
        finally:
            os._exit(0)
    os.close(write)
    try:
        ready, _, _ = select.select([read], [], [], 60)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        assert ready and os.read(read, 1) == b"1"
    finally:
        os.close(read)


@pytest.mark.parametrize("mapper", [thetasum._map_cosets, _serial_map],
                         ids=["lanes", "serial"])
def test_exact_tie_across_cosets_goes_to_the_smallest_k(
        golden, monkeypatch, mapper):
    # every coset peaks at 1.0; the peak at k = 1 of coset s sits at grid
    # index s + m, and coset 0's own peak (k = 3) at 3m: the smallest grid
    # index, s = 1 + m, wins, whichever thread finished first
    spec = SumSpec(golden, rough_weights(13))
    K = sup_norm(spec).grid_size
    m = _coset_count(K, spec.weights.N)

    def flat(spec, L, s, m, out):
        vals = np.full(L, 0.5, dtype=np.complex128)
        vals[3 if s == 0 else 1] = 1.0
        vals[L - 1] = 1.0
        return vals

    monkeypatch.setattr(thetasum, "grid_values", flat)
    monkeypatch.setattr(thetasum, "_map_cosets", mapper)
    res = sup_norm(spec)
    assert res.value == 1.0 and res.argmax_x == (1 + m) / K


def test_merged_block_sup_rational_merges_probe():
    res, probe = merged_block_sup(SumSpec(Rational(1, 3), rough_weights(8)))
    assert probe is not None and probe.satisfied
    count = 3 * 2**8
    assert res.value >= count / math.sqrt(3) - 1e-9
    assert res.value <= (count / math.sqrt(3)) * 1.001


_COMB_TIMES = ("rat:1/3", "rat:2/11", "rat:5/97", "rat:1234/7919")
_FAMILIES = {"rough": rough_weights, "smooth": smooth_weights}


def _bracket_of(text: str, family: str, j: int) -> tuple[float, float]:
    return _comb_bracket(parse_timespec(text).exact_value().denominator,
                         _FAMILIES[family](j))


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("text", _COMB_TIMES)
def test_comb_bracket_contains_refined_sup(text, family):
    # the 256x grid at j <= 12 and the 32x grid at the 8-coset scales, called
    # as the grid bracket's tests call them, so the cache serves 1234/7919
    for j in (4, 8, 12, 13, 14):
        lower, upper = _bracket_of(text, family, j)
        oracle = (_oracle_sup(text, family, j) if j <= 12
                  else _oracle_sup(text, family, j, grid=32))
        assert lower <= oracle <= upper, (j, lower, oracle, upper)


# (p, q, j) -> upper/lower - 1 of the rough and the smooth block, 4 digits;
# None where 3T > W(0) leaves the lower end at 0
_COMB_WIDTHS = {
    (1, 3, 8): ("0.02105", "6.253e-05"),
    (1, 3, 12): ("0.001303", "1.528e-08"),
    (1, 3, 16): ("8.138e-05", "6.2e-11"),
    (2, 11, 12): ("0.008625", "7.013e-07"),
    (5, 97, 16): ("0.007656", "1.169e-07"),
    (1234, 7919, 16): (None, "0.06563"),
    (1234, 7919, 20): ("0.06958", "0.0007462"),
}


@pytest.mark.parametrize("case", sorted(_COMB_WIDTHS))
def test_comb_bracket_widths_are_pinned(case):
    p, q, j = case
    for family, want in zip(("rough", "smooth"), _COMB_WIDTHS[case]):
        lower, upper = _bracket_of(f"rat:{p}/{q}", family, j)
        got = None if lower == 0.0 else f"{upper / lower - 1:.4g}"
        assert got == want, (family, lower, upper)
    # a sharp block: W(0) = 3 * 2^j and B_1 = 4 over q - 1 = 2 points at
    # distance >= 1/6, so T = 8
    if q == 3:
        W = 3 * 2 ** j
        lower, upper = _bracket_of("rat:1/3", "rough", j)
        assert upper == pytest.approx((W + 8) / math.sqrt(3), rel=1e-9)
        assert lower == pytest.approx((W - 8) / math.sqrt(3), rel=1e-9)


@pytest.mark.parametrize("k", [1, 3])
def test_block_variation_matches_the_whole_line(k):
    # B_k = ||Delta^k w||_1 over both sides, taken as twice one pass over
    # the window padded by k zeros, against k rounds of differences over
    # the whole line and one correctly rounded sum: the entries agree bit
    # for bit, and each side's sum of at most N + 4 terms is within
    # gamma_(N+5) of its terms, so within nu = (N + 8) u of the oracle
    blocks = [make(j) for j in range(1, 13)
              for make in (rough_weights, smooth_weights)]
    if k == 1:
        blocks.append(WeightVector(1, 64))
    for w in blocks:
        want = variation(w, k)
        assert abs(w.variation(k) - want) <= (w.N + 8) * 2.0 ** -53 * want, \
            (w.mode, w.N, k)
    # the two sides of a j = 0 block overlap in Delta^3: no closed bracket
    assert _comb_bracket(3, smooth_weights(0)) is None
    with pytest.raises(DomainError):
        smooth_weights(0).variation(3)


def test_far_denominator_goes_to_the_grid(monkeypatch):
    # q = 7919 against N <= 2^17: no block at j <= 16 settles, and the grid
    # result takes the probe's value and argmax wherever the probe is larger
    real, grids = thetasum.sup_norm, []

    def counting(spec, oversample=8):
        grids.append(real(spec, oversample))
        return grids[-1]

    monkeypatch.setattr(thetasum, "sup_norm", counting)
    time, merged = Rational(1234, 7919), 0
    for j in range(1, 17):
        for make in (rough_weights, smooth_weights):
            res, probe = merged_block_sup(SumSpec(time, make(j)))
            grid = grids[-1]
            assert probe is not None and res.grid_size == grid.grid_size
            assert res.upper == grid.upper, (j, make)
            assert res.value == max(grid.value, probe.max_abs), (j, make)
            if probe.max_abs > grid.value:
                merged += 1
                assert res.argmax_x == probe.argmax_h / (2 * 7919), (j, make)
            else:
                assert res.argmax_x == grid.argmax_x, (j, make)
    assert len(grids) == 32
    assert merged >= 8          # rough j = 3..10 at least: the probe wins by 1e-3..0.25


def test_settled_blocks_run_only_the_probe_transform(monkeypatch):
    # every block of rat:1/3 at j >= 8 settles: one 2q-point transform, the
    # probe's, and no coset transform; the settle rule keeps the bracket
    # within the grid's factor, below 1/(1 - pi^2/512) at oversample 8
    calls = []
    real = thetasum.grid_values

    def counting(spec, K, s=0, m=1, out=None):
        calls.append((K, m))
        return real(spec, K, s, m, out)

    monkeypatch.setattr(thetasum, "grid_values", counting)
    records = block_spectrum(Rational(1, 3), j_min=8, j_max=16)
    assert calls == [(6, 1)] * (2 * len(records))
    for rec in records:
        for value, upper in ((rec.rough_sup, rec.rough_sup_upper),
                             (rec.smooth_sup, rec.smooth_sup_upper)):
            assert value <= upper <= value / (1 - math.pi ** 2 / 512), rec.j


@given(q=st.integers(1, 50), p=st.integers(0, 99), j=st.integers(1, 10),
       family=st.sampled_from(sorted(_FAMILIES)))
@settings(max_examples=150, deadline=None)
def test_settled_bracket_meets_the_grid_bracket(q, p, j, family):
    p %= 2 * q
    if math.gcd(p, q) != 1:
        p = 1
    time = Rational(p, q)
    weights = _FAMILIES[family](j)
    res, probe = merged_block_sup(SumSpec(time, weights))
    if res.grid_size != 2 * q:
        return                               # the grid route
    spec = SumSpec(time, weights)
    grid = sup_norm(spec)
    r = _rounding_term(spec, grid.grid_size)
    assert max(res.value, grid.value - r) <= min(res.upper, grid.upper)
    assert res.value >= probe.max_abs
    assert res.argmax_x == probe.argmax_h / (2 * q)


def test_merged_block_sup_irrational_has_no_probe(golden):
    res, probe = merged_block_sup(SumSpec(golden, rough_weights(6)))
    assert probe is None
    assert res.value > 0


def test_phase_error_bound_small(golden):
    spec = SumSpec(golden, rough_weights(16))
    assert spec.phase_error_bound() < 1e-8
    spec_r = SumSpec(Rational(1, 3), rough_weights(16))
    # exact modular reduction leaves only the final float division
    assert spec_r.phase_error_bound() <= 2.0 ** -50


def _traced_unit(time, N: int, M: int) -> tuple[np.ndarray, int]:
    """(phase_vector(time, N, M).unit, tracemalloc peak of building it)."""
    tracemalloc.start()
    try:
        unit = thetasum.phase_vector(time, N, M).unit
        return unit, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _direct_rational_unit(p: int, q: int, N: int, M: int) -> np.ndarray:
    """e(n^2 p/(2q)) for n = M..N, one correctly rounded int / int each."""
    L = 2 * q
    frac = np.array([k * k * p % L / L for k in range(M, N + 1)])
    return np.exp((2j * np.pi) * frac)


def test_phase_vector_memory_and_bits(golden):
    # the window M..N of a block only: irrational phases are built in
    # passes, rational ones reduced in place on one array or taken from one
    # period, and both exponentiated in place: the peak stays below two
    # results' worth, and the bits are the one-pass formula's
    N = 2 ** 18
    M = N // 4 + 1
    unit, peak = _traced_unit(golden, N, M)
    assert unit.shape == (N - M + 1,)
    assert peak <= 2 * unit.nbytes, (peak, unit.nbytes)
    t = exactnum.fixed_of_time(golden, scale_bits_for(N))
    hi, lo, _ = exactnum.half_phase_splits(t)
    u = np.arange(M, N + 1).astype(np.float64)
    u *= u
    p, e = exactnum._two_prod(u, hi)
    r = p - np.round(p)
    tot = r + (e + u * lo)
    frac = tot - np.floor(tot)
    frac = np.where(frac >= 1.0, 0.0, frac)
    assert unit.tobytes() == np.exp((2j * np.pi) * frac).tobytes()
    # the window's error bound is the whole range's: the largest |n| is N
    assert thetasum.phase_vector(golden, N, M).error == \
        thetasum.phase_vector(golden, N, 0).error
    # t = 1234/7919: the exact route is Python's correctly rounded int / int
    unit, peak = _traced_unit(Rational(1234, 7919), N, M)
    assert peak <= 2 * unit.nbytes, (peak, unit.nbytes)
    assert unit.tobytes() == _direct_rational_unit(1234, 7919, N, M).tobytes()


@pytest.mark.parametrize("text", ["quad:(-1+1*sqrt(5))/2",
                                  "quad:(0-1*sqrt(74))/9",
                                  "class:sigma=1,seed=0,1",
                                  "dec:0.41421356237309504880168"])
def test_chunked_phase_vector_is_one_pass(text):
    # an irrational window is filled in chunks, on both lanes from j = 13
    # on; every step is elementwise, so the bits are those of one pass over
    # the window, and the error is the one pass's: the chunk holding n = N
    # has its largest |n|. A decimal literal is exact, and keeps the
    # rational route
    time = parse_timespec(text)
    exact = time.exact_value()
    for j in range(12, MAX_BLOCK_J + 1):
        M, N = block_bounds(j)
        n = np.arange(M, N + 1)
        if exact is None:
            fixed = exactnum.fixed_of_time(time, scale_bits_for(N))
            phase, err = exactnum.quadratic_phase_array(n, fixed)
        else:
            phase, err = exactnum.rational_phase_array(
                n, exact.numerator, exact.denominator), 2.0 ** -52
        one_pass = thetasum._unit(phase)
        del phase
        vec = thetasum.phase_vector(time, N, M)
        assert vec.unit.tobytes() == one_pass.tobytes(), (text, j)
        assert vec.error == err, (text, j)


@pytest.mark.parametrize("p, q", [(1, 3), (5, 97), (7, 9973), (1, 1), (3, 4),
                                  (1234, 49999)])
def test_rational_phase_vector_from_one_period(p, q):
    # e(n^2 p/(2q)) depends on n mod 2q alone: a window longer than 2q
    # repeats one period's unit values, rotated to start at M, and gets
    # the bits of forming each entry; 2q = 99,998 is longer than the
    # window 2^15 + 1 .. 2^17, and 7/9973's period splits it unevenly
    M, N = 2 ** 15 + 1, 2 ** 17
    calls = []
    real = exactnum.rational_phase_array

    def counted(n, *args):
        calls.append(len(n))
        return real(n, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactnum, "rational_phase_array", counted)
        unit = thetasum.phase_vector(Rational(p, q), N, M).unit
    assert calls == [min(2 * q, N - M + 1)]
    assert unit.tobytes() == _direct_rational_unit(p, q, N, M).tobytes()


def test_coefficient_arrays_symmetric_weights(golden):
    # e((-n)^2 t/2) = e(n^2 t/2) and w_{-n} = w_n: one array holds c_n and
    # c_{-n} over the window M <= n <= N. A rough block's weights are 1
    # there, so its coefficients are the window's phase vector itself; a
    # smooth block takes that vector over and multiplies its weights into
    # it in place, after which neither the vector nor the rough sum reads
    for time in (golden, Rational(5, 97)):
        for j in (0, 5, 9):
            M, N = block_bounds(j)
            phases = thetasum.phase_vector(time, N, M)
            unit = phases.unit
            before = unit.copy()
            rough = SumSpec(time, rough_weights(j), phases)
            c = rough.coefficient_arrays()
            assert c is unit and c.shape == (N - M + 1,)
            assert rough.coefficient_arrays() is c
            smooth = SumSpec(time, smooth_weights(j), phases)
            w = smooth.weights.w
            cs = smooth.coefficient_arrays()
            assert cs is unit and cs.shape == (N - M + 1,)
            assert w.shape == (N - M + 1,)      # w[i] is w_(M+i)
            assert cs.tobytes() == (w * before).tobytes()
            for read in (lambda: phases.unit, rough.coefficient_arrays,
                         phases.hand_over,
                         lambda: SumSpec(time, smooth_weights(j), phases)):
                with pytest.raises(RuntimeError, match="handed over"):
                    read()
            assert smooth.coefficient_arrays() is cs
            # the weights left out are exact zeros: n = 0..M-1 (none at j = 0)
            assert not chi(np.arange(M, dtype=np.float64) * 2.0 ** -j).any()
            assert smooth.phase_error_bound() == phases.error
    with pytest.raises(DomainError):
        SumSpec(golden, rough_weights(5), thetasum.phase_vector(golden, 64, 0))


# ---------------------------------------------------------------- stability

def test_stability_certified_pair(golden):
    res = stability_ratio(golden, Rational(144, 233), rough_weights(6))
    assert 1 / 8 <= res.ratio <= 8
    assert res.sup_a > 0 and res.sup_b > 0


def test_stability_refuses_distant_pair(golden):
    with pytest.raises(HypothesisError):
        stability_ratio(golden, Rational(1, 2), rough_weights(6))


def test_stability_kbound_widens_certification(golden):
    # 34/55 is within 9/N^2 of t at j = 6 (N = 128) but not within 1/N^2
    with pytest.raises(HypothesisError):
        stability_ratio(golden, Rational(34, 55), rough_weights(6))
    res = stability_ratio(golden, Rational(34, 55), rough_weights(6), k_bound=9)
    assert res.ratio > 0
