"""Block spectra, exponent fits, predictions, and report serialisation."""

import json
import math
import tracemalloc
from dataclasses import replace

import pytest

from thetareg import exactnum, thetasum
from thetareg.besov import (BlockRecord, block_spectrum, burst_scales,
                            classify_regularity, fit_exponent,
                            predicted_exponent, records_to_csv,
                            report_to_json)
from thetareg.contfrac import (DecimalLiteral, QuotientRule, Rational,
                               classify_sigma, parse_timespec)
from thetareg.cutoff import rough_weights, smooth_weights
from thetareg.errors import DomainError
from thetareg.thetasum import SumSpec, merged_block_sup, rational_probe
from fractions import Fraction


def _synthetic(alpha, offset, js):
    return [BlockRecord(j=j, rough_sup=None, rough_sup_upper=None,
                        smooth_sup=2.0 ** (alpha * j + offset),
                        smooth_sup_upper=None,
                        l2_exact=1.0, q_used=None, upper_envelope=None,
                        rough_floor=None, probe_satisfied=None) for j in js]


def test_fit_recovers_synthetic_slope():
    recs = _synthetic(0.5, 0.3, range(6, 17))
    fit = fit_exponent(recs, tail_start=8)
    assert fit.alpha_fit == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(0.3, abs=1e-10)
    assert fit.residual < 1e-10
    assert fit.n_points == 9
    # limsup of (0.5 j + 0.3)/j over j = 8..16 is at j = 8
    assert fit.alpha_limsup == pytest.approx(0.5 + 0.3 / 8)
    assert "alpha_fit=0.5000" in fit.summary()


def test_fit_requires_five_tail_scales():
    with pytest.raises(DomainError):
        fit_exponent(_synthetic(0.5, 0.0, range(6, 12)), tail_start=8)


def test_rational_block_identity(third):
    """At t = 1/3 the aligned comb probe pins the block sup to count/sqrt(3).

    Each side of the sharp block 2^(j-1) < |n| <= 2^(j+1) has 3*2^(j-1)
    frequencies, a multiple of 6, so the six residue classes mod 6 carry
    equal mass and the probe value is exactly count/sqrt(q). The true sup
    exceeds it by at most ~2e-4 relative, and the certified upper end of
    the bracket can never fall below it.
    """
    recs = block_spectrum(third, j_min=4, j_max=10, mode="rough")
    for r in recs:
        count = 3 * 2 ** r.j
        ideal = count / math.sqrt(3)
        assert ideal - 1e-9 <= r.rough_sup <= ideal * 1.001
        assert r.rough_sup_upper >= ideal
        assert r.l2_exact == pytest.approx(math.sqrt(count), rel=1e-14)
        assert r.probe_satisfied
        assert r.rough_floor is not None
        assert r.rough_sup >= r.rough_floor
        assert r.q_used == 3
        assert r.upper_envelope == pytest.approx(
            count / math.sqrt(3) + math.sqrt(3))


def test_scale_matched_q_golden(golden):
    recs = block_spectrum(golden, j_min=6, j_max=8, mode="smooth")
    # Fibonacci denominators nearest 2^j under the envelope metric
    assert [r.q_used for r in recs] == [55, 144, 233]


def test_block_spectrum_explicit_scales(third):
    recs = [r for j in (5, 9) for r in block_spectrum(third, j, j, mode="both")]
    assert [r.j for r in recs] == [5, 9]
    for r in recs:
        assert r.rough_sup is not None and r.smooth_sup is not None
        assert r.smooth_sup < r.rough_sup


@pytest.mark.parametrize("text", ["rat:1/3", "rat:5/97",
                                  "quad:(-1+1*sqrt(5))/2",
                                  "class:sigma=1,seed=0,1"])
def test_block_spectrum_builds_one_phase_vector_per_scale(text, monkeypatch):
    time = parse_timespec(text)
    js = [3, 5, 6]
    built = []
    for name in ("rational_phase_array", "quadratic_phase_array"):
        def counted(*args, _orig=getattr(exactnum, name), _name=name, **kwargs):
            built.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(exactnum, name, counted)
    recs = [r for j in js for r in block_spectrum(time, j, j, mode="both")]
    assert len(built) == len(js)
    # the same numbers as one SumSpec per family, and as a probe of a
    # freshly built sum
    for rec in recs:
        rough, probe = merged_block_sup(SumSpec(time, rough_weights(rec.j)))
        smooth, sprobe = merged_block_sup(SumSpec(time, smooth_weights(rec.j)))
        assert (rec.rough_sup, rec.rough_sup_upper) == (rough.value, rough.upper)
        assert (rec.smooth_sup, rec.smooth_sup_upper) == (smooth.value, smooth.upper)
        assert (probe is None) == (time.exact_value() is None)
        if probe is not None:
            exact = time.exact_value()
            fresh = SumSpec(Rational(exact.numerator, exact.denominator),
                            rough_weights(rec.j))
            assert probe == rational_probe(exact.numerator, exact.denominator,
                                           fresh)
            assert rec.rough_floor == probe.floor
            assert rec.probe_satisfied == probe.satisfied


def test_probe_satisfied_reads_every_probe(monkeypatch, golden):
    real = thetasum.rational_probe

    def smooth_misses(p, q, spec, window=None):
        probe = real(p, q, spec, window)
        return replace(probe, satisfied=spec.weights.mode != "smooth")

    monkeypatch.setattr(thetasum, "rational_probe", smooth_misses)
    assert block_spectrum(Rational(1, 3), 8, 8)[0].probe_satisfied is False
    assert block_spectrum(Rational(1, 3), 8, 8,
                          mode="rough")[0].probe_satisfied is True
    assert block_spectrum(golden, 8, 8)[0].probe_satisfied is None


def test_block_floors_hold_from_j0():
    """No comb floor may exceed the certified sup, nor fail, at any block.

    The j = 0 block holds n = 0, outside every floor's window 1..N, so it
    is not probed; at j >= 1 every rational time with q <= 30 meets its
    floors."""
    for q in range(1, 31):
        for p in range(2 * q):
            if math.gcd(p, q) != 1:
                continue
            for r in block_spectrum(Rational(p, q), j_min=0, j_max=8):
                assert r.probe_satisfied is not False, (p, q, r.j)
                assert r.rough_floor is None or \
                    r.rough_floor <= r.rough_sup_upper, (p, q, r.j)
                assert (r.rough_floor is None) == (r.j == 0), (p, q, r.j)


def test_long_rational_is_classified_as_finite():
    # F_70/F_71 has 70 quotients, more than the 64 an endless source is cut at
    t = Rational(190392490709135, 308061521170129)
    report = classify_regularity(t, j_min=2, j_max=6, tail_start=2)
    assert report.sigma.verdict == "indeterminate-finite"
    assert report.sigma.sigma is None


def test_burst_scales_frozen_for_sigma_one():
    t = QuotientRule(Fraction(1), (0, 2))
    # quotient denominators 2, 5, 27, 734, 538783 give ceil(1.5 log2 q) =
    # 2, 4, 8, 15, 29; the window [6, 20] keeps {8, 15}
    assert burst_scales(t, 1.0) == [8, 15]
    assert burst_scales(t, 1.0, j_lo=2, j_hi=20) == [2, 4, 8, 15]


def test_predicted_exponent_cases(golden):
    assert predicted_exponent(Rational(1, 3)).point == 1.0
    assert predicted_exponent(golden).point == 0.5
    assert predicted_exponent(QuotientRule(Fraction(1), (0, 2))).point \
        == pytest.approx(2 / 3)
    assert predicted_exponent(QuotientRule(Fraction(3), (0, 2))).point \
        == pytest.approx(0.8)
    lit = DecimalLiteral("0.41")
    est = classify_sigma(lit.expansion())
    pred = predicted_exponent(lit, est)
    assert (pred.alpha_lo, pred.alpha_hi) == (0.5, 1.0)
    assert pred.point is None
    assert "[0.5000, 1.0000]" in pred.summary()


def test_predicted_exponent_of_a_classified_literal():
    # 40 digits of the golden mean certify enough quotients to classify
    lit = parse_timespec("dec:0.61803398874989484820458683436563811772")
    est = classify_sigma(lit.expansion())
    pred = predicted_exponent(lit, est)
    s = max(est.sigma, 0.0)
    assert pred.alpha_lo == pred.alpha_hi == (1 + s) / (2 + s)
    assert pred.source == "estimated class I(0.01736)"
    assert pred.summary() == "alpha = 0.5043 (estimated class I(0.01736))"


def test_classify_regularity_golden_is_sharp(golden):
    rep = classify_regularity(golden, j_min=6, j_max=13)
    assert rep.prediction.point == 0.5
    assert abs(rep.fit.alpha_fit - 0.5) <= 0.1
    assert rep.sharp_member and rep.sharp_fails_below
    assert rep.is_sharp
    assert rep.burst_js == ()


def test_classify_regularity_rational_is_sharp(third):
    rep = classify_regularity(third, j_min=6, j_max=12, mode="rough")
    assert rep.prediction.point == 1.0
    assert abs(rep.fit.alpha_fit - 1.0) <= 0.02
    assert rep.is_sharp


def test_records_csv_roundtrip(third):
    recs = block_spectrum(third, j_min=6, j_max=9, mode="both")
    text = records_to_csv(recs)
    lines = text.strip().split("\n")
    assert lines[0] == "j,rough_sup,smooth_sup,l2_exact,log2_sup_over_j"
    assert len(lines) == 1 + len(recs)
    for line, rec in zip(lines[1:], recs):
        f = line.split(",")
        assert int(f[0]) == rec.j
        assert float(f[1]) == rec.rough_sup     # repr round-trips exactly
        assert float(f[2]) == rec.smooth_sup
        assert float(f[4]) == pytest.approx(
            math.log2(rec.exponent_sup()) / rec.j)
    assert records_to_csv(recs) == text         # deterministic


def test_report_json_schema(third):
    rep = classify_regularity(third, j_min=6, j_max=12, mode="rough")
    text = report_to_json(rep)
    data = json.loads(text)
    assert data["time"] == "rat:1/3"
    assert data["is_sharp"] is True
    assert data["sigma"]["per_n"] == [list(pair) for pair in rep.sigma.per_n]
    assert len(data["records"]) == 7
    for r in data["records"]:
        assert r["rough_sup_upper"] >= r["rough_sup"]
        assert r["smooth_sup_upper"] is None    # mode="rough"
    keys = list(data)
    assert keys == sorted(keys)
    assert text.endswith("\n")
    assert report_to_json(rep) == text


def test_report_json_writes_every_value_kind():
    doc = {"bound": Fraction(2, 6), "kappa": 0.5 - 1j, "nan": math.nan,
           "pairs": ((1, 2.5),), "record": BlockRecord(
               j=3, rough_sup=1.5, rough_sup_upper=None, smooth_sup=None,
               smooth_sup_upper=None, l2_exact=2.0, q_used=None,
               upper_envelope=None, rough_floor=None, probe_satisfied=True)}
    data = json.loads(report_to_json(doc))
    assert data["bound"] == "1/3"
    assert data["kappa"] == [0.5, -1.0]
    assert data["nan"] is None
    assert data["pairs"] == [[1, 2.5]]
    assert data["record"]["j"] == 3 and data["record"]["probe_satisfied"] is True
    assert report_to_json([]) == "[]\n"


def _traced_peak(time, j: int, mode: str = "both") -> int:
    """tracemalloc peak of block_spectrum(time, j, j, mode)."""
    tracemalloc.start()
    try:
        block_spectrum(time, j, j, mode=mode)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_spectrum_memory_peak(golden):
    # j = 16 evaluates its 2.1M-point grids as 33 of 64 folded cosets of
    # L = 32,805 points in two lanes, one buffer each, and each sum holds
    # one array over its window 2^15 < n <= 2^17, as do the smooth
    # weights. The worst case is the smooth sup: 0.75 MiB of weights,
    # 1.5 MiB of coefficients, two L-point buffers (1.0 MiB), the 32
    # twist tables (0.22 MiB) and, per lane, one _peak pass or numpy's
    # buffer for the twist's broadcast products (at most 0.13 MiB each,
    # 0.25 MiB), 3.72 MiB; the folds by Horner's rule make no temporary.
    # Building the smooth sum multiplies its weights into the phase vector
    # in place, 2.25 MiB. The phase vector is built in chunks of 8,192
    # entries on the two lanes, straight into its one complex array, so no
    # window-length int or float array sits beside it (0.75 MiB each when
    # it was built in one pass). The first sup of a process adds the
    # grid-size cache and numpy.fft's import, up to 0.5 MiB. Runs read
    # 3.52 MiB, and 3.98 on a process's first call. One transform of the whole grid
    # would take about 58 MB. tracemalloc sees numpy's buffers, not the
    # FFT library's scratch.
    peak = _traced_peak(golden, 16)
    assert peak <= 18 << 18, peak               # 4.5 MiB


def test_block_spectrum_memory_peak_at_the_top_scale(golden):
    # j = 20: the window 2^19 < n <= 2^21 holds 1.5M coefficients (24 MiB)
    # and as many smooth weights (12 MiB); the sharp block stores none.
    # The smooth sup holds both, two lanes of L = 524,880 points (16 MiB),
    # 32 twist tables (0.74 MiB) and 0.25 MiB of per-lane passes: 53 MiB.
    # Building the smooth sum takes the phase vector over and multiplies
    # its weights into it in place, so it holds 36 MiB, not the 60 of a
    # second array beside the vector. The vector itself is built in chunks
    # of 8,192 entries, so its build holds no window-length int or float
    # array (12 MiB each in one pass). Numpy's cast buffers and a process's
    # first-call caches add up to 1 MiB. Runs read 52.29 MiB, and 53.21 on
    # a first call.
    peak = _traced_peak(golden, 20)
    assert peak <= 54 << 20, peak               # 54 MiB


def test_rough_spectrum_at_the_top_scale_holds_no_weights(golden):
    # the rough sup alone at j = 20: the coefficients (24 MiB, the phase
    # vector itself), two lanes (16 MiB), the twist tables and per-lane
    # passes (1 MiB); its window of ones, 12 MiB more, is not stored.
    # Runs read 41.1 MiB
    peak = _traced_peak(golden, 20, mode="rough")
    assert peak <= 42 << 20, peak               # 42 MiB
