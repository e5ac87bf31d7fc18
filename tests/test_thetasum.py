"""Weighted quadratic exponential sums: evaluation, grids, probes, monitors."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.fft import next_fast_len

from oracles import brute_probe_max, brute_sum_at
from thetareg.contfrac import QuadraticIrrational, Rational, parse_timespec
from thetareg.cutoff import (MAX_BLOCK_J, WeightVector, one_sided_unit,
                             rough_weights, smooth_weights, unit_window)
from thetareg.errors import (AliasingError, BudgetError, DomainError,
                             HypothesisError)
from thetareg.thetasum import (MAX_BLOCK_N, SumSpec, _fft_len,
                               _rounding_term, eval_sum,
                               grid_values, hl_constant_monitor,
                               mean_square_on_grid,
                               merged_block_sup, probe_floors, rational_probe,
                               scale_bits_for, stability_ratio, sup_norm)


def test_scale_bits_for():
    assert scale_bits_for(1) == 34
    assert scale_bits_for(2**21) == 76
    assert scale_bits_for(1000) == 52


def test_hand_zero_sum():
    # t = 1: e(n^2/2) = (-1)^n, so the n = 1..4 partial sum vanishes at x = 0
    spec = SumSpec(Rational(1, 1), one_sided_unit(1, 4))
    assert abs(eval_sum(spec, 0.0)) < 1e-13


def test_eval_sum_matches_bruteforce():
    for (p, q) in ((1, 3), (2, 5), (5, 7)):
        for w in (unit_window(1, 12), smooth_weights(3), rough_weights(2)):
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
    with pytest.raises(AliasingError):
        grid_values(spec, 64)            # needs >= 2N+1 = 65
    with pytest.raises(BudgetError):
        grid_values(spec, 1 << 27)


def test_block_budget():
    with pytest.raises(BudgetError):
        SumSpec(Rational(1, 3), unit_window(1, MAX_BLOCK_N + 1))


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
    for make in (unit_window, one_sided_unit):
        assert make(1, MAX_BLOCK_N).N == MAX_BLOCK_N
        with pytest.raises(BudgetError):
            make(1, MAX_BLOCK_N + 1)
    # weights built by hand still meet the same limit in the sum and probe
    wide = WeightVector(j=None, M=1, N=MAX_BLOCK_N + 1,
                        w_pos=np.ones(MAX_BLOCK_N + 2), w_neg=None, mode="unit")
    with pytest.raises(BudgetError):
        SumSpec(Rational(1, 3), wide)
    with pytest.raises(BudgetError):
        rational_probe(1, 3, wide)


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
    for time in (Rational(1, 3), golden):
        for w in (rough_weights(9), smooth_weights(9), unit_window(3, 250)):
            spec = SumSpec(time, w)
            mean, l2sq = mean_square_on_grid(spec)
            assert l2sq == pytest.approx(w.l2_squared(), rel=1e-14)
            assert mean == pytest.approx(l2sq, rel=1e-10)


def test_probe_matches_bruteforce():
    for q in (2, 3, 5, 7, 12):
        p = 1 if q != 12 else 5
        for w in (unit_window(1, 16), smooth_weights(3), unit_window(2, 9)):
            pr = rational_probe(p, q, w)
            want = brute_probe_max(p, q, w)
            assert pr.max_abs == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert 0 <= pr.argmax_h < 2 * q


def test_probe_argmax_attains_max():
    w = unit_window(1, 16)
    pr = rational_probe(3, 7, w)
    direct = abs(brute_sum_at(3, 7, w, pr.argmax_h, 14))
    assert direct == pytest.approx(pr.max_abs, rel=1e-12)


def test_probe_floors_branches():
    w = unit_window(1, 16)
    sat = probe_floors(w, 3, (1, 16))       # q = 3 < window length
    assert set(sat) == {"mass_saturated", "unit_saturated"}
    assert sat["mass_saturated"] == pytest.approx(32 / math.sqrt(6))
    assert sat["unit_saturated"] == pytest.approx(math.sqrt(2) * 15 / math.sqrt(3))
    sparse = probe_floors(w, 17, (1, 16))    # q = 17 >= window length
    assert set(sparse) == {"mass_sparse", "unit_sparse"}
    assert sparse["mass_sparse"] == pytest.approx(32 / (math.sqrt(2) * math.sqrt(15)))
    assert sparse["unit_sparse"] == pytest.approx(math.sqrt(2) * math.sqrt(15))
    sm = probe_floors(smooth_weights(3), 17, (1, 16))
    assert set(sm) == {"mass_sparse"}        # no unit floor for tapered weights
    with pytest.raises(DomainError):
        probe_floors(w, 3, (0, 16))


def test_probe_floor_satisfaction_spot_checks():
    for q, win in ((17, (1, 16)), (101, (16, 128)), (3, (1, 16))):
        pr = rational_probe(1, q, unit_window(*win), window=win)
        assert pr.satisfied
        assert pr.floor_margin() >= 1.0


def test_probe_budget():
    with pytest.raises(BudgetError):
        rational_probe(1, 10_001, unit_window(1, 16))


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
def _oracle_sup(text: str, family: str, j: int) -> float:
    """sup |S| from a 256x grid plus a 60-step ternary refine by eval_sum.

    A lower estimate like the grid maximum, but far tighter: the bracket
    must contain it.
    """
    weights = rough_weights(j) if family == "rough" else smooth_weights(j)
    spec = SumSpec(parse_timespec(text), weights)
    K = _fft_len(256 * (2 * weights.N + 1))
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


def test_sup_norm_deterministic(golden):
    spec = SumSpec(golden, rough_weights(7))
    a = sup_norm(spec)
    b = sup_norm(spec)
    assert (a.value, a.argmax_x, a.grid_size) == (b.value, b.argmax_x, b.grid_size)


def test_merged_block_sup_rational_merges_probe():
    res, probe = merged_block_sup(Rational(1, 3), rough_weights(8))
    assert probe is not None and probe.satisfied
    count = 3 * 2**8
    assert res.value >= count / math.sqrt(3) - 1e-9
    assert res.value <= (count / math.sqrt(3)) * 1.001


def test_merged_block_sup_irrational_has_no_probe(golden):
    res, probe = merged_block_sup(golden, rough_weights(6))
    assert probe is None
    assert res.value > 0


def test_phase_error_bound_small(golden):
    spec = SumSpec(golden, rough_weights(16))
    assert spec.phase_error_bound() < 1e-8
    spec_r = SumSpec(Rational(1, 3), rough_weights(16))
    # exact modular reduction leaves only the final float division
    assert spec_r.phase_error_bound() <= 2.0 ** -50


def test_coefficient_arrays_symmetric_weights(golden):
    spec = SumSpec(golden, rough_weights(5))
    cpos, cneg = spec.coefficient_arrays()
    assert cpos.shape == cneg.shape == (spec.weights.N + 1,)
    # e((-n)^2 t/2) = e(n^2 t/2), so symmetric weights give equal arrays
    assert np.array_equal(cpos[1:], cneg[1:])
    one = SumSpec(golden, one_sided_unit(1, 20))
    _, cneg1 = one.coefficient_arrays()
    assert np.all(cneg1[1:] == 0.0)


# ------------------------------------------------------------- HL monitor

def test_hl_monitor_on_exact_rational(third):
    recs = hl_constant_monitor(third, 1, 3, [16, 64, 256, 1024])
    assert [r.length for r in recs] == [16, 64, 256, 1024]
    for r in recs:
        assert 0.0 < r.ratio <= 1.05
        assert r.envelope == pytest.approx(r.length / math.sqrt(3) + math.sqrt(3))


def test_hl_monitor_certifies_hypothesis(golden):
    # 1/4 is more than 1/16 away from the golden conjugate: must refuse
    with pytest.raises(HypothesisError):
        hl_constant_monitor(golden, 1, 4, [16])
    # a true convergent passes
    recs = hl_constant_monitor(golden, 5, 8, [16, 64])
    assert all(r.ratio > 0 for r in recs)


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
