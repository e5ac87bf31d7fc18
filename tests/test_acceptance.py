"""Acceptance suite: eleven end-to-end checks on the released behaviour.

Each test prints exactly one PASS/FAIL line with the measured quantities
and then asserts, so a transcript of this module doubles as the sign-off
sheet. Heavy spectra are computed once in module-scoped fixtures and
shared across the criteria that read them.

Run as part of the normal test suite, or alone:

    pytest tests/test_acceptance.py
"""

from __future__ import annotations

import itertools
import math
import sys
import time as _time
from fractions import Fraction

import pytest

from oracles import count_nonzero, determinant_alternates, variation
from thetareg.besov import block_spectrum, burst_scales, fit_exponent
from thetareg.cli import main as cli_main
from thetareg.collapse import verify_collapse
from thetareg.contfrac import (CFExpansion, QuadraticIrrational, QuotientRule,
                               Rational, TimeSpec, expand_rational)
from thetareg.cutoff import WeightVector, rough_weights, smooth_weights
from thetareg.thetasum import (SumSpec, _fft_len, eval_sum, grid_values,
                               phase_vector, rational_probe, stability_ratio)

import numpy as np


RATIONAL_TIMES = [(1, 3), (3, 5), (7, 13)]


def report(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}"
    print(line, file=sys.__stdout__, flush=True)


def _abs_diff_lt(t: TimeSpec, center: Fraction, bound: Fraction) -> bool:
    """Exactly decide |t - center| < bound through rational brackets.

    The bracket endpoints are convergents, so the comparison is between
    rationals only; the loop tightens until one side is certified. It
    terminates because t is irrational while center +- bound is rational,
    so t never sits on the boundary.
    """
    eps = bound / 1024
    for _ in range(8):
        lo, hi = (Fraction(*end) for end in t.value_bracket(eps))
        if center - bound < lo and hi < center + bound:
            return True
        if hi <= center - bound or center + bound <= lo:
            return False
        eps /= Fraction(1 << 16)
    raise AssertionError("bracket failed to resolve the comparison")


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def rational_spectra():
    """Rough-block spectra for the three reference rationals, timed."""
    t0 = _time.monotonic()
    spectra = {}
    for p, q in RATIONAL_TIMES:
        spectra[(p, q)] = block_spectrum(Rational(p, q), j_min=6, j_max=16,
                                         mode="rough")
    elapsed = _time.monotonic() - t0
    return spectra, elapsed


@pytest.fixture(scope="module")
def quad_spectra(golden, sqrt2m1):
    """Both-mode spectra for the two quadratic irrationals, j = 6..18."""
    out = {}
    for name, t in [("golden", golden), ("sqrt2-1", sqrt2m1)]:
        out[name] = (t, block_spectrum(t, j_min=6, j_max=18, mode="both"))
    return out


@pytest.fixture(scope="module")
def burst_case():
    """Liouville-leaning class member: smooth sups at its burst scales."""
    t = QuotientRule(Fraction(1), (0, 2))
    js = burst_scales(t, 1.0, j_lo=6, j_hi=20)
    records = [r for j in js for r in block_spectrum(t, j, j, mode="smooth")]
    return t, js, records


# ---------------------------------------------------------------- criteria


def test_c01_rational_block_envelope(rational_spectra):
    spectra, elapsed = rational_spectra
    floors_ok = True
    c_need = 0.0
    alphas = {}
    for (p, q), recs in spectra.items():
        for r in recs:
            count = 3 * 2 ** r.j
            lower = math.sqrt(2.0) * (count / 2) / math.sqrt(q)
            if not (r.rough_sup >= lower * (1.0 - 1e-12)):
                floors_ok = False
            envelope = 3 * 2 ** (r.j - 1) * 2 / math.sqrt(q) + math.sqrt(q)
            c_need = max(c_need, r.rough_sup / envelope)
        fit = fit_exponent(recs)
        alphas[(p, q)] = fit.alpha_fit
    c_ceil = math.ceil(c_need)
    alpha_ok = all(0.93 <= a <= 1.02 for a in alphas.values())
    time_ok = elapsed < 300.0
    ok = floors_ok and c_ceil <= 10 and alpha_ok and time_ok
    detail = (", ".join(f"alpha({p}/{q})={alphas[(p, q)]:.4f}"
                        for p, q in RATIONAL_TIMES)
              + f", ceil(C)={c_ceil}<=10, floors_met={floors_ok}"
              + f", {elapsed:.1f}s<300s")
    report(1, ok, detail)
    assert ok, detail


def test_c02_quadratic_square_root_scaling(quad_spectra):
    ok = True
    parts = []
    for name, (t, recs) in quad_spectra.items():
        fit = fit_exponent(recs)
        c_need = max(r.rough_sup / 2.0 ** (r.j / 2.0) for r in recs)
        good = 0.45 <= fit.alpha_fit <= 0.57 and c_need <= 20.0
        ok = ok and good
        parts.append(f"{name}: alpha_fit={fit.alpha_fit:.4f} C={c_need:.3f}")
    detail = "; ".join(parts) + " (alpha in [0.45,0.57], C<=20)"
    report(2, ok, detail)
    assert ok, detail


def test_c03_class_burst_exponent(burst_case):
    t, js, records = burst_case
    ratios = [math.log2(r.smooth_sup) / r.j for r in records]
    peak = max(ratios)
    ok = 0.60 <= peak <= 0.70
    detail = (f"sigma=1 class, burst scales {js}, "
              f"log2(sup)/j peaks at {peak:.4f} in [0.60,0.70]")
    report(3, ok, detail)
    assert ok, detail


def test_c04_limsup_never_below_half_ish(rational_spectra, quad_spectra,
                                         burst_case):
    limsups = {}
    spectra, _ = rational_spectra
    for (p, q), recs in spectra.items():
        limsups[f"{p}/{q}"] = fit_exponent(recs).alpha_limsup
    for name, (t, recs) in quad_spectra.items():
        limsups[name] = fit_exponent(recs).alpha_limsup
    _, _, records = burst_case
    limsups["class"] = max(math.log2(r.smooth_sup) / r.j for r in records)
    ok = all(v >= 0.45 for v in limsups.values())
    worst = min(limsups, key=limsups.get)
    detail = (f"alpha_limsup >= 0.45 for all {len(limsups)} times, "
              f"min = {limsups[worst]:.4f} at {worst}")
    report(4, ok, detail)
    assert ok, detail


def test_c05_parseval_identity(golden, third):
    worst_weights = 0.0
    for j in range(0, 21):
        w = rough_weights(j)
        count = count_nonzero(w)
        rel = abs(w.l2_squared() - count) / count
        worst_weights = max(worst_weights, rel)
    worst_grid = 0.0
    for t in (third, golden):
        for j in (6, 9):
            for w in (rough_weights(j), smooth_weights(j)):
                vals = grid_values(SumSpec(t, w), _fft_len(4 * (2 * w.N + 1)))
                mean, l2sq = float(np.mean(np.abs(vals) ** 2)), w.l2_squared()
                worst_grid = max(worst_grid, abs(mean - l2sq) / l2sq)
    ok = worst_weights < 1e-10 and worst_grid < 1e-10
    detail = (f"l2^2 vs nonzero count, j<=20: rel err {worst_weights:.2e}; "
              f"grid mean |S|^2 vs sum w^2: rel err {worst_grid:.2e} "
              f"(both < 1e-10)")
    report(5, ok, detail)
    assert ok, detail


def test_c06_collapse_sweep():
    pairs = 0
    worst_resid = 0.0
    worst_unimod = 0.0
    worst_eighth = 0.0
    enough_functions = True
    for q in range(1, 26):
        for p in range(0, 2 * q):
            if math.gcd(p, q) != 1:
                continue
            chk = verify_collapse(p, q)
            pairs += 1
            worst_resid = max(worst_resid, chk.max_residual)
            worst_unimod = max(worst_unimod, chk.kappa_unimodular_defect)
            worst_eighth = max(worst_eighth, chk.kappa_eighth_root_defect)
            if len(chk.residuals) < 5:
                enough_functions = False
    ok = (worst_resid < 1e-7 and worst_unimod < 1e-8
          and worst_eighth < 1e-7 and enough_functions)
    detail = (f"{pairs} coprime p/q with q<=25: max residual "
              f"{worst_resid:.2e}<1e-7, ||kappa|-1| {worst_unimod:.2e}<1e-8, "
              f"|kappa^8-1| {worst_eighth:.2e}<1e-7, >=5 functions each")
    report(6, ok, detail)
    assert ok, detail


def test_c07_probe_floor_grid():
    failures = 0
    cells = 0
    worst_margin = math.inf
    for q in (2, 3, 5, 17, 40):
        for m, n in ((1, 16), (4, 64), (16, 128)):
            j = n.bit_length() - 2      # smooth block living inside (m, n]
            for w in (WeightVector(m, n), smooth_weights(j)):
                res = rational_probe(1, q, SumSpec(Rational(1, q), w),
                                     window=(m, n))
                cells += 1
                worst_margin = min(worst_margin, res.floor_margin)
                if not res.satisfied:
                    failures += 1
    ok = failures == 0
    detail = (f"{cells} probe cells (q x window x weight), floor failures "
              f"= {failures}, min margin {worst_margin:.3f}")
    report(7, ok, detail)
    assert ok, detail


def _hl_ratio(t: TimeSpec, p: int, q: int, L: int) -> float:
    """C_L = sup_x |sum_{1<=n<=L} e(n^2 t/2 + n x)| / (L/sqrt(q) + sqrt(q)).

    The one-sided sum is not even in x, so its sup is taken over the whole
    grid of K = _fft_len(8 (2L+1)) points, one plain inverse FFT of the
    phases placed at n = 1..L. The envelope is backed only under
    |t - p/q| <= 1/q^2, which is certified exactly first.
    """
    assert _abs_diff_lt(t, Fraction(p, q), Fraction(1, q * q)), (p, q)
    K = _fft_len(8 * (2 * L + 1))
    buf = np.zeros(K, dtype=np.complex128)
    buf[1:L + 1] = phase_vector(t, L, 1).unit
    sup = float(np.abs(np.fft.ifft(buf) * K).max())
    return sup / (L / math.sqrt(q) + math.sqrt(q))


def test_c08_hardy_littlewood_monitor(golden, third, quad_spectra):
    lengths = [2 ** k for k in range(4, 17)]
    ratios_third = [_hl_ratio(third, 1, 3, length) for length in lengths]
    ratios_golden = []
    convergents = list(itertools.islice(golden.convergent_pairs(), 26))
    for length in lengths:
        p, q = min(convergents,
                   key=lambda pq: length / math.sqrt(pq[1]) + math.sqrt(pq[1]))
        ratios_golden.append(_hl_ratio(golden, p, q, length))
    c_third = max(ratios_third)
    c_golden = max(ratios_golden)
    # summation by parts: a smooth block sup is at most the weight's total
    # variation times the worst one-sided unit sup it averages over, which
    # the rough sup of the same block dominates on these spectra.
    smooth_ok = True
    worst_pair = 0.0
    for name, (t, recs) in quad_spectra.items():
        for r in recs:
            tv = variation(smooth_weights(r.j), 1)
            worst_pair = max(worst_pair, r.smooth_sup / (tv * r.rough_sup))
            if r.smooth_sup > tv * r.rough_sup:
                smooth_ok = False
    for r in block_spectrum(Rational(1, 3), j_min=6, j_max=10, mode="both"):
        tv = variation(smooth_weights(r.j), 1)
        worst_pair = max(worst_pair, r.smooth_sup / (tv * r.rough_sup))
        if r.smooth_sup > tv * r.rough_sup:
            smooth_ok = False
    ok = c_third <= 10.0 and c_golden <= 10.0 and smooth_ok
    detail = (f"C_N max {c_third:.4f} (t=1/3), {c_golden:.4f} (golden) "
              f"<= 10 over N=2^4..2^16; smooth <= tv * rough in all sampled "
              f"cases (worst fraction {worst_pair:.3f})")
    report(8, ok, detail)
    assert ok, detail


def test_c09_stability_under_certified_perturbation(golden):
    ok = True
    parts = []
    convergents = list(itertools.islice(golden.convergent_pairs(), 40))
    for j in (8, 10, 12):
        n_top = 2 ** (j + 1)
        need = n_top * n_top
        pick = None
        prev = None
        for p, q in convergents:
            if prev is not None and prev[1] * q >= need:
                pick = (p, q)
                break
            prev = (p, q)
        assert pick is not None
        p, q = pick
        for mode in ("rough", "smooth"):
            res = stability_ratio(golden, Rational(p, q), j, mode)
            good = 0.125 <= res.ratio <= 8.0
            ok = ok and good
            parts.append(f"j={j} {mode} q={q}: {res.ratio:.4f}")
    detail = "sup ratios in [1/8, 8]: " + ", ".join(parts)
    report(9, ok, detail)
    assert ok, detail


def test_c10_exact_arithmetic_invariants(golden, sqrt2m1):
    failures = []
    # determinant identity on every finite expansion in sight
    rng = np.random.default_rng(20260814)
    det_pairs = [(p, q) for q in range(1, 41)
                 for p in range(0, 2 * q) if math.gcd(p, q) == 1]
    for _ in range(200):
        q = int(rng.integers(2, 1_000_000))
        p = int(rng.integers(0, 2 * q))
        g = math.gcd(p, q)
        det_pairs.append((p // g, q // g))
    for p, q in det_pairs:
        exp = CFExpansion(tuple(expand_rational(p, q)), exact_terminates=True)
        (p_prev, q_prev), (pk, qk) = [(1, 0), *exp.convergents()][-2:]
        if not determinant_alternates(exp):
            failures.append(f"determinant alternation broke at {p}/{q}")
        if qk * p_prev - pk * q_prev != 1:
            failures.append(f"odd-length orientation broke at {p}/{q}")
    for t in (golden, sqrt2m1, QuotientRule(Fraction(1), (0, 2))):
        if not determinant_alternates(t.expansion(max_terms=40)):
            failures.append(f"determinant alternation broke for {t.describe()}")
    # two-sided convergent bracketing, certified in exact arithmetic
    bracket_checks = 0
    for t in (golden, sqrt2m1):
        pairs = list(itertools.islice(t.convergent_pairs(), 26))
        for k in range(len(pairs) - 1):
            (pk, qk), (_, qk1) = pairs[k], pairs[k + 1]
            center = Fraction(pk, qk)
            if not _abs_diff_lt(t, center, Fraction(1, qk * qk1)):
                failures.append(f"upper bracket failed at q={qk}")
            if _abs_diff_lt(t, center, Fraction(1, qk * (qk1 + qk))):
                failures.append(f"lower bracket failed at q={qk}")
            bracket_checks += 1
    # Legendre: a reduced p/q with |t - p/q| < 1/(2 q^2) must be a convergent
    conv_set = {pq for pq in itertools.takewhile(lambda pq: pq[1] <= 400,
                                                 golden.convergent_pairs())}
    legendre_hits = 0
    for q in range(1, 401):
        lo, hi = (Fraction(*end) for end in golden.value_bracket(Fraction(1, 10 ** 9)))
        candidates = {(lo.numerator * q) // lo.denominator + d
                      for d in (-1, 0, 1, 2)}
        bound = Fraction(1, 2 * q * q)
        for p in candidates:
            if not _abs_diff_lt(golden, Fraction(p, q), bound):
                continue
            g = math.gcd(p, q)
            if (p // g, q // g) not in conv_set:
                failures.append(f"Legendre violated at {p}/{q}")
            else:
                legendre_hits += 1
    if legendre_hits < 5:
        failures.append(f"only {legendre_hits} Legendre hits below q=400")
    # grid evaluation against direct summation on small sums
    worst_grid = 0.0
    for trial in range(40):
        q = int(rng.integers(1, 51))
        p = int(rng.integers(0, 2 * q))
        if math.gcd(p, q) != 1:
            p = 1
        n = int(rng.integers(6, 13))
        spec = SumSpec(Rational(p, q), WeightVector(1, n))
        vals = grid_values(spec, 64)
        for k in rng.integers(0, 64, 5):
            worst_grid = max(worst_grid,
                             abs(vals[int(k)] - eval_sum(spec, int(k) / 64)))
    spec = SumSpec(golden, rough_weights(3))
    vals = grid_values(spec, 64)
    for k in range(64):
        worst_grid = max(worst_grid, abs(vals[k] - eval_sum(spec, k / 64)))
    if not worst_grid < 1e-12:
        failures.append(f"grid vs direct disagreement {worst_grid:.2e}")
    ok = not failures
    detail = (f"{len(det_pairs)} determinant identities, {bracket_checks} "
              f"exact brackets, {legendre_hits} Legendre hits (all "
              f"convergents), grid-vs-direct {worst_grid:.1e}<1e-12"
              + ("" if ok else "; FIRST FAILURE: " + failures[0]))
    report(10, ok, detail)
    assert ok, detail


def test_c11_scan_determinism(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("j_min = 6\nj_max = 10\nmode = rough\ntail_start = 6\n"
                   "format = both\nsvg = true\n[times]\nrat:1/3\nrat:2/5\n")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = cli_main(["scan", "--config", str(cfg), "--out", str(out1)])
    rc2 = cli_main(["scan", "--config", str(cfg), "--out", str(out2)])
    capsys.readouterr()
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    identical = (rc1 == 0 and rc2 == 0 and names1 == names2
                 and all((out1 / n).read_bytes() == (out2 / n).read_bytes()
                         for n in names1))
    detail = (f"two scan runs: exit {rc1}/{rc2}, {len(names1)} files each, "
              f"byte-identical = {identical}")
    report(11, identical, detail)
    assert identical, detail
