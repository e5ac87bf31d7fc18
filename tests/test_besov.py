"""Block spectra, exponent fits, predictions, and report serialisation."""

import json
import math

import pytest

from thetareg.besov import (BlockRecord, block_spectrum, burst_scales,
                            classify_regularity, fit_exponent,
                            predicted_exponent, records_to_csv,
                            report_to_json)
from thetareg.contfrac import (DecimalLiteral, QuotientRule, Rational,
                               classify_sigma, construct_in_class)
from thetareg.errors import DomainError
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
    recs = block_spectrum(third, js=[5, 9], mode="both")
    assert [r.j for r in recs] == [5, 9]
    for r in recs:
        assert r.rough_sup is not None and r.smooth_sup is not None
        assert r.smooth_sup < r.rough_sup


def test_burst_scales_frozen_for_sigma_one():
    t = construct_in_class(1)
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
    assert len(data["records"]) == 7
    for r in data["records"]:
        assert r["rough_sup_upper"] >= r["rough_sup"]
        assert r["smooth_sup_upper"] is None    # mode="rough"
    keys = list(data)
    assert keys == sorted(keys)
    assert text.endswith("\n")
    assert report_to_json(rep) == text
