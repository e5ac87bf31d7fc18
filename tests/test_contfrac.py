"""Continued fractions: exact quotients, convergents, classifiers, parsing."""

import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import determinant_alternates, frac_le_sqrt, mp_value
from thetareg import contfrac, exactnum
from thetareg.besov import _scale_matched_q, burst_scales
from thetareg.contfrac import (KHINCHIN_LEVY, CFExpansion, DecimalLiteral,
                               QuadraticIrrational, QuotientRule, Rational,
                               canonical_quotients, classify_sigma,
                               convergents, expand_rational,
                               floor_quadratic, iroot,
                               khinchin_levy_diagnostic, parse_timespec)
from thetareg.errors import DomainError, PrecisionExhaustedError


# ----------------------------------------------------------- exact helpers

@given(x=st.integers(0, 10**30), k=st.integers(1, 12))
def test_iroot_bracket(x, k):
    r = iroot(x, k)
    assert r ** k <= x < (r + 1) ** k


def test_iroot_of_a_huge_index_returns_at_once():
    # 1 <= x < 2^k has root 1; a Newton start at 2 would form 2^(k-1)
    start = time.perf_counter()
    assert iroot(3, 10**10) == 1
    assert iroot(2**64 - 1, 64) == 1 and iroot(2**64, 64) == 2
    assert time.perf_counter() - start < 1.0


@given(bits=st.integers(1, 4000), k=st.integers(1, 500), seed=st.integers(0, 2**32),
       near=st.sampled_from([None, -1, 0, 1]))
@settings(max_examples=300)
def test_iroot_floor_on_random_inputs(bits, k, seed, near):
    # random x, or an exact k-th power and its neighbours, where a start
    # below the root or a floor off by one would show
    x = random.Random(seed).getrandbits(bits)
    if near is not None:
        x = max(iroot(x, k) ** k + near, 0)
    r = iroot(x, k)
    assert r ** k <= x < (r + 1) ** k


def test_iroot_of_a_large_power_finishes():
    # a 394,661-bit x at k = 20,000 and a 989,931-bit one at k = 100: from
    # 2^(bits/k + 1) Newton took 33 s on the first; from the estimate of
    # the top 64 bits each takes under a second, so the timeout is generous
    env = dict(os.environ,
               PYTHONPATH=str(Path(contfrac.__file__).resolve().parents[1]))
    code = (
        "import random\n"
        "from thetareg.contfrac import iroot\n"
        "for x, k in ((3 ** 249_000 + 12345, 20_000),\n"
        "             (random.Random(1).getrandbits(989_931) | 1 << 989_930, 100)):\n"
        "    r = iroot(x, k)\n"
        "    assert r ** k <= x < (r + 1) ** k, k\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr


def _at_most(k: int, a: int, b: int, c: int, d: int) -> bool:
    """k <= (a + b sqrt(c))/d, decided exactly for b != 0 and c not a square."""
    # d k - a <= b sqrt(c); dividing by b < 0 turns the inequality round,
    # and (d k - a)/b never equals the irrational sqrt(c)
    return frac_le_sqrt(Fraction(d * k - a, b), c) == (b > 0)


_BIG = 10 ** 30


@given(a=st.one_of(st.integers(-60, 60), st.integers(-_BIG, _BIG)),
       b=st.one_of(st.integers(-9, 9), st.integers(-_BIG, _BIG)).filter(
           lambda v: v != 0),
       c=st.sampled_from([2, 3, 5, 7, 10, 13, 61, 1, 4, 49]),
       d=st.integers(1, 9))
def test_floor_quadratic_matches_float(a, b, c, d):
    if math.isqrt(c) ** 2 == c:
        # the floor is read off isqrt(b^2 c), exact only for irrational sqrt(c)
        with pytest.raises(DomainError):
            floor_quadratic(a, b, c, d)
        return
    got = floor_quadratic(a, b, c, d)
    # the defining inequality holds exactly: got <= t < got + 1
    assert _at_most(got, a, b, c, d) and not _at_most(got + 1, a, b, c, d)
    if max(abs(a), abs(b)) <= 60:
        # (a + b sqrt(c))/d is far from an integer for these small
        # parameters, so the double-precision floor is already exact
        assert got == math.floor((a + b * math.sqrt(c)) / d)


# ------------------------------------------------------ rational expansion

def test_expand_rational_hand_values():
    assert expand_rational(5, 3) == [1, 1, 2]
    assert expand_rational(1, 3) == [0, 2, 1]   # [0,3] normalised to odd length
    assert expand_rational(1, 2) == [0, 1, 1]
    assert expand_rational(0, 1) == [0]
    assert canonical_quotients(1, 2) == [0, 2]
    assert canonical_quotients(1, 3) == [0, 3]
    assert canonical_quotients(5, 3) == [1, 1, 2]


@given(p=st.integers(0, 10**6), q=st.integers(1, 10**6))
@settings(max_examples=200)
def test_expand_rational_roundtrip_odd_and_unimodular(p, q):
    g = math.gcd(p, q)
    p, q = p // g, q // g
    quots = expand_rational(p, q)
    assert len(quots) % 2 == 1
    exp = CFExpansion(tuple(quots), exact_terminates=True)
    assert Fraction(*exp.convergents()[-1]) == Fraction(p, q)
    assert determinant_alternates(exp)
    # odd length = even top index k: q_k p_{k-1} - p_k q_{k-1} = +1
    (p_prev, q_prev), (pk, qk) = [(1, 0), *exp.convergents()][-2:]
    assert qk * p_prev - pk * q_prev == 1


def test_cfexpansion_validation():
    with pytest.raises(DomainError):
        CFExpansion(())
    with pytest.raises(DomainError):
        CFExpansion((-1, 2))
    with pytest.raises(DomainError):
        CFExpansion((0, 0, 3))


def test_convergents_seed_indexing():
    exp = CFExpansion((1, 2, 2))  # 1 + 1/(2 + 1/2) = 7/5
    assert exp.convergents() == [(1, 1), (3, 2), (7, 5)]
    assert Fraction(*exp.convergents()[-1]) == Fraction(7, 5)


def _fraction_of(quots: list[int]) -> Fraction:
    """[a_0; a_1, ..., a_k] evaluated exactly, innermost quotient first."""
    val = Fraction(quots[-1])
    for a in reversed(quots[:-1]):
        val = a + 1 / val
    return val


@given(a0=st.integers(0, 10**6),
       tail=st.lists(st.integers(1, 10**6), min_size=0, max_size=25))
def test_convergents_match_fraction_evaluation(a0, tail):
    quots = [a0] + tail
    pairs = list(convergents(quots))
    assert len(pairs) == len(quots)
    for k, (p, q) in enumerate(pairs):
        val = _fraction_of(quots[:k + 1])
        assert (p, q) == (val.numerator, val.denominator)
    assert CFExpansion(tuple(quots)).convergents() == pairs


# ------------------------------------------------------------ time classes

def test_rational_folds_into_canonical_domain():
    assert (Rational(7, 3).p, Rational(7, 3).q) == (1, 3)
    assert (Rational(-1, 3).p, Rational(-1, 3).q) == (5, 3)
    assert (Rational(4, 2).p, Rational(4, 2).q) == (0, 1)
    assert (Rational(5, -3).p, Rational(5, -3).q) == (1, 3)
    with pytest.raises(DomainError):
        Rational(1, 0)


def test_quadratic_construction_and_fold(golden):
    # (3 + sqrt(5))/2 differs from the golden conjugate by exactly 2
    shifted = QuadraticIrrational(3, 1, 5, 2)
    assert (shifted.a, shifted.b, shifted.c, shifted.d) == (-1, 1, 5, 2)
    assert shifted == golden
    neg = QuadraticIrrational(1, -1, 2, 1)    # 1 - sqrt(2) -> 3 - sqrt(2)
    assert abs((neg.a + neg.b * math.sqrt(neg.c)) / neg.d
               - (3 - math.sqrt(2))) < 1e-12
    with pytest.raises(DomainError):
        QuadraticIrrational(0, 1, 4, 1)   # square c
    with pytest.raises(DomainError):
        QuadraticIrrational(0, 0, 5, 1)
    with pytest.raises(DomainError):
        QuadraticIrrational(0, 1, 5, 0)


def test_quadratic_quotients_periodic(golden, sqrt2m1):
    g = golden.expansion(25)
    assert g.quotients[0] == 0 and set(g.quotients[1:]) == {1}
    s = sqrt2m1.expansion(25)
    assert s.quotients[0] == 0 and set(s.quotients[1:]) == {2}
    sqrt3 = QuadraticIrrational(0, 1, 3, 1)
    assert sqrt3.expansion(9).quotients == (1,) + (1, 2) * 4
    # deep expansion still matches the float value
    deep = CFExpansion(tuple(sqrt3.expansion(40).quotients))
    v = Fraction(*deep.convergents()[-1])
    assert abs(float(v) - math.sqrt(3)) < 1e-14


def test_quadratic_convergents_bracket_exactly(golden):
    """1/(q_n (q_n + q_{n+1})) < |t - p_n/q_n| < 1/(q_n q_{n+1}), certified.

    t - p/q = (-(p d - a q) + b q sqrt(c)) / (d q); all comparisons reduce
    to the exact predicate  rational <= sqrt(c).
    """
    a, b, c, d = golden.a, golden.b, golden.c, golden.d
    pairs = golden.expansion(30).convergents()
    for n in range(len(pairs) - 1):
        (p, q), (_, q1) = pairs[n], pairs[n + 1]
        # |t - p/q| = |b sqrt(c) - (p d - a q)/q| / d  with b = 1 here
        m = Fraction(p * d - a * q, q * b)
        lo = Fraction(1, q * (q + q1))
        hi = Fraction(1, q * q1)
        # distance < hi: m - hi*d/b < sqrt(c) < m + hi*d/b (two-sided)
        scale = Fraction(d, b)
        assert frac_le_sqrt(m - hi * scale, c)
        assert not frac_le_sqrt(m + hi * scale, c)
        # distance > lo: sqrt(c) outside [m - lo*d/b, m + lo*d/b]
        below = frac_le_sqrt(m + lo * scale, c)
        above = not frac_le_sqrt(m - lo * scale, c)
        assert below or above


def test_value_bracket_golden(golden):
    lo, hi = (Fraction(*end) for end in golden.value_bracket(Fraction(1, 10**20)))
    assert hi - lo <= Fraction(1, 10**20)
    assert abs(float(lo) - 0.6180339887498949) < 1e-12
    # exact containment: lo <= t <= hi
    assert frac_le_sqrt(2 * lo + 1, 5)
    assert not frac_le_sqrt(2 * hi + 1, 5)


def test_quotient_rule_frozen_sigma_one():
    # a_{k+1} = q_k gives q_{k+1} = q_k^2 + q_{k-1}: 1,2,5,27,734,538783
    t = QuotientRule(Fraction(1), (0, 2))
    assert t.expansion(4).quotients == (0, 2, 2, 5)
    exp = t.expansion(7)     # extends the same rule from its last convergent
    assert exp.quotients == (0, 2, 2, 5, 27, 734, 538783)
    qs = [q for _, q in exp.convergents()]
    assert qs == [1, 2, 5, 27, 734, 538783, 538783**2 + 734]


def test_expansion_budgets(golden, monkeypatch):
    exp = golden.expansion(5)
    assert exp.quotients == (0, 1, 1, 1, 1) and exp.truncated
    # sigma = 1 squares q each step: 27 -> 734 -> 538783, the first q past 16 bits
    monkeypatch.setattr(contfrac, "MAX_Q_BITS", 16)
    rule = QuotientRule(Fraction(1), (0, 2)).expansion(64)
    assert rule.quotients == (0, 2, 2, 5, 27, 734)
    assert rule.truncated and not rule.exact_terminates
    for budget in (0, -1):
        with pytest.raises(PrecisionExhaustedError):
            golden.expansion(budget)


def test_rational_expansion_honours_the_term_budget():
    # 13/21 = [0; 1, 1, 1, 1, 1, 2]: seven quotients in all
    cut = Rational(13, 21).expansion(3)
    assert cut.quotients == (0, 1, 1) and len(cut.convergents()) == 3
    assert cut.truncated and not cut.exact_terminates
    for budget in (7, 8, 64):
        whole = Rational(13, 21).expansion(budget)
        assert whole.quotients == (0, 1, 1, 1, 1, 1, 2)
        assert whole.exact_terminates and not whole.truncated


def test_quotient_rule_validation():
    with pytest.raises(DomainError):
        QuotientRule(Fraction(-1), (0, 2))
    with pytest.raises(DomainError):
        QuotientRule(Fraction(1), ())
    with pytest.raises(DomainError):
        QuotientRule(Fraction(1), (3, 2))
    with pytest.raises(DomainError):
        QuotientRule(Fraction(1), (0, 0))


def test_quotient_rule_fractional_sigma_growth():
    t = QuotientRule(Fraction(1, 2), (0, 2))
    qs = [q for _, q in t.expansion(14).convergents()]
    # q_{k+1} ~ q_k^(3/2): check the growth exponent on the tail
    for k in range(8, 13):
        ratio = math.log(qs[k + 1]) / math.log(qs[k])
        assert abs(ratio - 1.5) < 0.1


def test_quotient_rule_stream_ends_at_the_power_budget():
    # sigma = 99/100 forms q_k^99 for each quotient: the stream ends once
    # 99 bits(q_k) passes MAX_POWER_BITS, the expansion reads as cut off,
    # not finished, and every reader past its end is refused, not only the
    # first: the expansion, then three more
    t = QuotientRule(Fraction(99, 100), (0, 1))
    exp = t.expansion(64)
    assert exp.truncated and len(exp.quotients) < 64
    q_last = exp.convergents()[-1][1]
    assert 99 * q_last.bit_length() > contfrac.MAX_POWER_BITS
    assert q_last.bit_length() < contfrac.MAX_Q_BITS
    reads = (lambda: t.value_bracket(Fraction(1, q_last ** 3)),
             lambda: list(t.convergent_pairs()),
             lambda: exactnum.fixed_of_time(t, 3 * q_last.bit_length()))
    for read in reads:
        with pytest.raises(PrecisionExhaustedError):
            read()
    # numerators 1 and 2 are never cut short of MAX_Q_BITS
    for sigma in (Fraction(1), Fraction(2), Fraction(1, 2)):
        exp = QuotientRule(sigma, (0, 1)).expansion(64)
        assert exp.truncated
        q_last = exp.convergents()[-1][1]
        assert q_last.bit_length() > contfrac.MAX_Q_BITS or len(exp.quotients) == 64


def test_every_reader_shares_one_convergent_recurrence(monkeypatch):
    # the memo forms each (p_k, q_k) once per time: the quotient rule's own
    # q_k, the expansion and its classifiers, brackets, fixed point and
    # scale matching all read it, so the recurrence starts once
    calls = []

    def counted(quotients):
        calls.append(None)
        return convergents(quotients)

    monkeypatch.setattr(contfrac, "convergents", counted)
    t = parse_timespec("class:sigma=1,seed=0,1")
    exp = t.expansion(64)
    classify_sigma(exp)
    khinchin_levy_diagnostic(exp)
    for bits in (64, 4096, 65536):
        t.value_bracket(Fraction(1, 1 << bits))
    exactnum.fixed_of_time(t, 1024)
    first = list(itertools.islice(t.convergent_pairs(), 12))
    assert list(itertools.islice(t.convergent_pairs(), 12)) == first
    for j in range(6, 17):
        _scale_matched_q(t, j)
        burst_scales(t, 1.0, j_lo=6, j_hi=j)
    assert exp.convergents()[:12] == first
    assert exp.convergents() == list(convergents(exp.quotients))
    assert len(calls) == 1


# -------------------------------------------------------------- classifier

def test_classify_sigma_golden(golden):
    est = classify_sigma(golden.expansion(40))
    assert est.verdict.startswith("I(")
    assert est.sigma is not None and abs(est.sigma) <= 0.05
    assert "limsup" in est.summary()


def test_classify_sigma_rule_recovers_one():
    est = classify_sigma(QuotientRule(Fraction(1), (0, 2)).expansion(12))
    assert est.sigma is not None and abs(est.sigma - 1.0) <= 0.1


def test_classify_sigma_rational_is_indeterminate():
    est = classify_sigma(Rational(355, 113).expansion())
    assert est.verdict == "indeterminate-finite"
    assert est.sigma is None
    est0 = classify_sigma(Rational(0, 1).expansion())
    assert est0.verdict == "indeterminate-finite"
    assert est0.summary() == "indeterminate-finite"


def test_classify_sigma_short_expansion(golden):
    est = classify_sigma(golden.expansion(4))
    assert est.verdict == "indeterminate-short"


def test_khinchin_levy_diagnostic(golden):
    assert abs(KHINCHIN_LEVY - 1.186569110416) < 1e-12
    diag = khinchin_levy_diagnostic(golden.expansion(41))
    n, v = diag[-1]
    assert n == 40
    # golden ratio: (ln q_n)/n -> ln((1+sqrt5)/2) = 0.4812, far below generic
    assert abs(v - 0.4812) < 0.01
    assert v < KHINCHIN_LEVY


# ---------------------------------------------------------- decimal honesty

def test_decimal_half():
    lit = DecimalLiteral("0.5")
    certified, center = lit.expansion(), lit.center_expansion()
    assert certified.quotients == (0,)
    assert certified.truncated
    assert center.quotients == (0, 2)
    assert center.exact_terminates


def test_decimal_third_is_not_certifiable_deep():
    # 0.33333333 +- 1e-8 straddles 1/3, where a_1 flips between 2 and 3,
    # so only a_0 = 0 is shared by the whole interval
    lit = DecimalLiteral("0.33333333")
    certified, center = lit.expansion(), lit.center_expansion()
    assert certified.quotients == (0,)
    assert certified.truncated
    assert center.quotients[:2] == (0, 3)


def test_decimal_golden_prefix(golden):
    certified = DecimalLiteral("0.6180339887498948482").expansion()
    want = golden.expansion(20).quotients
    assert len(certified.quotients) >= 20
    assert certified.quotients[:20] == want
    assert certified.truncated


def test_decimal_literal_protocol():
    lit = DecimalLiteral("0.4142135")
    assert lit.resolution() == Fraction(1, 10**7)
    assert lit.exact_value() == Fraction(4142135, 10**7)
    assert lit.expansion().quotients[:3] == (0, 2, 2)
    with pytest.raises(DomainError):
        DecimalLiteral("3.14")
    with pytest.raises(DomainError):
        DecimalLiteral("x.5")


# ----------------------------------------------------------------- parsing

def test_parse_timespec_roundtrip(golden):
    specs = [Rational(1, 3), Rational(3, 5), golden,
             QuotientRule(Fraction(1, 2), (0, 2)), DecimalLiteral("0.41")]
    for spec in specs:
        again = parse_timespec(spec.describe())
        assert again == spec
        assert again.describe() == spec.describe()


def test_parse_timespec_examples():
    t = parse_timespec("quad:(-1+1*sqrt(5))/2")
    assert isinstance(t, QuadraticIrrational) and t.c == 5
    r = parse_timespec("rat:7/13")
    assert (r.p, r.q) == (7, 13)
    c = parse_timespec("class:sigma=1/2,seed=0,2,1")
    assert c.sigma == Fraction(1, 2) and c.seed == (0, 2, 1)
    d = parse_timespec("dec:0.125")
    assert d.exact_value() == Fraction(1, 8)


def test_parse_timespec_rejects():
    for bad in ("", "0.5", "rat:1/0", "rat:x/y", "quad:(1+sqrt(5))/2",
                "quad:(0+1*sqrt(4))/1", "class:sigma=,seed=0",
                "class:sigma=-1,seed=0,2", "dec:abc", "frob:1/2"):
        with pytest.raises(DomainError):
            parse_timespec(bad)


def test_slug_is_filesystem_safe(golden):
    for spec in (Rational(3, 5), golden, QuotientRule(Fraction(1), (0, 2))):
        s = spec.slug()
        assert s and all(ch.isalnum() or ch in "._-" for ch in s)
