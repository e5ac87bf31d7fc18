"""Rational-time collapse: comb data, Gauss sums, pairings, kappa extraction."""

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import slow_comb_masses
from thetareg.besov import report_to_json
from thetareg.collapse import (CombFormula, PeriodizedGaussian, comb_of,
                               default_test_functions, extract_kappa,
                               lhs_pairing, rhs_pairing, verify_collapse)
from thetareg.errors import BudgetError, DomainError, VerificationError
from thetareg.thetasum import MAX_PROBE_Q

E8 = cmath.exp(1j * math.pi / 4)     # e(1/8)


def _eq(a: complex, b: complex, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol


@dataclass(frozen=True)
class TrigPolynomial:
    """Test function phi(x) = sum_k c_k e(k x) with finitely many terms."""

    coeffs: tuple[tuple[int, complex], ...]

    def __call__(self, x):
        return sum((c * cmath.exp(2j * math.pi * k * x) for k, c in self.coeffs),
                   0.0 + 0.0j)

    def fourier(self, k: np.ndarray) -> np.ndarray:
        table = dict(self.coeffs)
        return np.array([table.get(int(kk), 0.0) for kk in k], dtype=np.complex128)

    def coeff_count(self) -> int:
        return max((abs(k) for k, _ in self.coeffs), default=1)


def _comb_mass(comb: CombFormula, k: int, kappa: complex) -> complex:
    """The closed form's mass at x_k = (2k + xi)/(2q) once kappa is known."""
    x = Fraction(2 * k + comb.xi, 2 * comb.q)
    return kappa / math.sqrt(comb.q) * comb.weight_phase(x)


def _coefficient_residual(p: int, q: int) -> tuple[complex, float]:
    """(kappa, max |oracle mass - closed-form mass| over all 2q grid points).

    kappa is read off at the largest oracle mass; the residual then covers
    every point, including the ones the closed form says are zero.
    """
    comb = comb_of(p, q)
    masses = slow_comb_masses(comb.p, comb.q)
    l0 = max(range(2 * comb.q), key=lambda l: abs(masses[l]))
    assert l0 % 2 == comb.xi, "largest mass sits on the forbidden parity class"
    kappa = (masses[l0] * math.sqrt(comb.q)
             / comb.weight_phase(Fraction(l0, 2 * comb.q)))
    worst = 0.0
    for l, mass in enumerate(masses):
        predicted = _comb_mass(comb, l // 2, kappa) if l % 2 == comb.xi else 0.0
        worst = max(worst, abs(mass - predicted))
    return kappa, worst


# ------------------------------------------------------------- comb algebra

def test_comb_of_frozen_examples():
    c13 = comb_of(1, 3)
    assert (c13.p_prev, c13.q_prev, c13.xi, c13.eta) == (1, 2, 1, 0)
    c23 = comb_of(2, 3)
    assert (c23.p_prev, c23.q_prev, c23.xi, c23.eta) == (1, 1, 0, 1)
    c12 = comb_of(1, 2)
    assert (c12.p_prev, c12.q_prev, c12.xi, c12.eta) == (1, 1, 0, 1)
    # single-quotient expansions take p', q' from the k = -1 seed
    c01 = comb_of(0, 1)
    assert (c01.p_prev, c01.q_prev, c01.xi, c01.eta) == (1, 0, 0, 0)
    c11 = comb_of(1, 1)
    assert (c11.p_prev, c11.q_prev, c11.xi, c11.eta) == (1, 0, 1, 0)


def test_comb_unimodular_orientation_and_parity():
    # q p' - p q' = +1 and xi * eta = 0 for every reduced p/q
    for q in range(1, 41):
        for p in range(0, 2 * q):
            if math.gcd(p, q) != 1:
                continue
            c = comb_of(p, q)
            assert c.q * c.p_prev - c.p * c.q_prev == 1
            assert c.xi * c.eta == 0
            assert c.xi == (p * q) % 2
            assert c.eta == (c.p_prev * c.q_prev) % 2


def test_comb_points_lie_on_shifted_lattice():
    c = comb_of(1, 3)
    assert c.points() == [Fraction(1, 6), Fraction(3, 6), Fraction(5, 6)]
    c2 = comb_of(2, 3)
    assert c2.points() == [Fraction(0), Fraction(1, 3), Fraction(2, 3)]


def test_mass_hand_dft_q2():
    """t = 1/2: masses from the 4-term transform, computed by hand.

    c_0 = (1/4) sum_r e(r^2/4)          = (1 + i + 1 + i)/4 = (1+i)/2
    c_1 = (1/4) sum_r e(r^2/4 + r/2)    = (1 - i + 1 - i)/4 = (1-i)/2
    """
    c = comb_of(1, 2)
    kappa = extract_kappa(1, 2)
    assert _eq(kappa, E8, 1e-12)
    assert _eq(_comb_mass(c, 0, kappa), (1 + 1j) / 2, 1e-12)
    assert _eq(_comb_mass(c, 1, kappa), (1 - 1j) / 2, 1e-12)
    masses = slow_comb_masses(1, 2)
    assert _eq(masses[0], (1 + 1j) / 2, 1e-12)
    assert _eq(masses[2], (1 - 1j) / 2, 1e-12)   # index l = 2 is x = 1/2
    assert abs(masses[1]) < 1e-14 and abs(masses[3]) < 1e-14


def test_forbidden_parity_masses_vanish():
    for (p, q) in ((1, 3), (1, 5), (3, 5), (7, 13), (1, 2), (5, 6)):
        c = comb_of(p, q)
        masses = slow_comb_masses(p, q)
        for l, m in enumerate(masses):
            if l % 2 != c.xi:
                assert abs(m) < 1e-13


def test_gauss_sum_magnitudes():
    # |sum_r e(r^2 p/(2q) + r l/(2q))| is 0 or exactly 2*sqrt(q), with
    # exactly q of the 2q shifts nonzero
    for q in (2, 3, 5, 7, 11, 12):
        for p in (1, q - 1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            masses = np.asarray(slow_comb_masses(p, q))
            G = np.abs(masses) * (2 * q)
            nz = G > 1e-8
            assert int(nz.sum()) == q
            assert np.allclose(G[nz], 2.0 * math.sqrt(q), rtol=1e-12)


def test_coefficient_residual_small_for_all_small_q():
    for q in range(1, 13):
        for p in range(0, 2 * q):
            if math.gcd(p, q) != 1:
                continue
            kappa, worst = _coefficient_residual(p, q)
            assert worst < 1e-12
            assert abs(abs(kappa) - 1.0) < 1e-12


def test_comb_of_reduces_and_validates():
    assert comb_of(2, 4) == comb_of(1, 2)    # reduced into canonical form
    assert comb_of(7, 3) == comb_of(1, 3)    # folded mod 2
    with pytest.raises(DomainError):
        comb_of(1, 0)


# ------------------------------------------------------------ test functions

def test_periodized_gaussian_fourier_against_quadrature():
    phi = PeriodizedGaussian(center=0.31, width=0.08)
    assert phi(0.31) == pytest.approx(phi(1.31), rel=1e-14)   # periodic
    for k in (0, 1, 5, -3):
        re, _ = quad(lambda x: phi(x) * math.cos(2 * math.pi * k * x),
                     0.0, 1.0, limit=200)
        im, _ = quad(lambda x: -phi(x) * math.sin(2 * math.pi * k * x),
                     0.0, 1.0, limit=200)
        got = phi.fourier(np.array([k]))[0]
        assert _eq(got, complex(re, im), 1e-10)


def test_periodized_gaussian_tail_bound():
    phi = PeriodizedGaussian(center=0.2, width=0.05)
    K = phi.coeff_count()
    ks = np.arange(K + 1, K + 50)
    actual = np.abs(phi.fourier(ks)).sum() + np.abs(phi.fourier(-ks)).sum()
    assert actual <= phi.coeff_tail_bound(K)
    assert phi.coeff_tail_bound(K) < 1e-12
    with pytest.raises(DomainError):
        PeriodizedGaussian(center=0.0, width=0.3)


def test_trig_polynomial_pairing_identity():
    # phi = e(3x) pairs to the single coefficient at n = -3
    phi = TrigPolynomial(coeffs=((3, 1.0 + 0.0j),))
    got = lhs_pairing(1, 3, phi)
    want = cmath.exp(2j * math.pi * (9 / 6))
    assert _eq(got, want, 1e-13)


def test_rhs_pairing_is_comb_side():
    c = comb_of(1, 3)
    kappa = extract_kappa(1, 3)
    phi = PeriodizedGaussian(center=float(c.points()[0]), width=0.05)
    lhs = lhs_pairing(1, 3, phi)
    rhs = kappa * rhs_pairing(c, phi)
    assert _eq(lhs, rhs, 1e-12)


def _per_point_rhs(comb: CombFormula, phi) -> complex:
    """rhs_pairing as a loop that forms every weight anew for each phi."""
    total = 0.0 + 0.0j
    for x in comb.points():
        total += comb.weight_phase(x) * complex(phi(float(x)))
    return 1 / math.sqrt(comb.q) * total


def test_cached_comb_weights_match_the_exact_route():
    pairs = [(p, q) for q in range(1, 26) for p in range(2 * q)
             if math.gcd(p, q) == 1]
    for p, q in pairs + [(5, 101), (5, 997), (5, 9973)]:
        comb = comb_of(p, q)
        points = comb.points()
        cached = comb._weighted_points
        assert len(cached) == comb.q
        for (x, weight), point in zip(cached, points):
            assert x == float(point), (p, q, point)
            assert weight == comb.weight_phase(point), (p, q, point)
        for phi in default_test_functions(comb)[:2]:
            # bit for bit, not approximately
            assert rhs_pairing(comb, phi) == _per_point_rhs(comb, phi), (p, q)


@pytest.mark.parametrize("q", [1, 7, 25])
def test_verify_collapse_forms_each_comb_phase_once(q, monkeypatch):
    calls = []
    exact = CombFormula.phase_fraction

    def counted(self, x):
        calls.append(x)
        return exact(self, x)

    monkeypatch.setattr(CombFormula, "phase_fraction", counted)
    chk = verify_collapse(1, q)
    assert len(chk.residuals) == 6
    assert len(calls) == q


# ----------------------------------------------------------- full verifier

def test_verify_collapse_frozen_kappas():
    # eighth roots of unity, pinned per pair
    want = {(1, 2): E8, (1, 3): 1.0 + 0j, (2, 3): 1j, (1, 1): 1.0 + 0j,
            (0, 1): 1.0 + 0j, (3, 5): E8, (7, 13): E8}
    for (p, q), k in want.items():
        chk = verify_collapse(p, q)
        assert _eq(chk.kappa, k, 1e-9), (p, q, chk.kappa)
        assert chk.max_residual < 1e-9
        assert chk.kappa_unimodular_defect < 1e-10
        assert chk.kappa_eighth_root_defect < 1e-9
        assert len(chk.residuals) >= 5
        kappa_re, _ = json.loads(report_to_json(chk))["kappa"]
        assert kappa_re == pytest.approx(k.real, abs=1e-9)


def test_verify_collapse_refuses_q_past_the_comb_budget():
    # the comb side is O(q) in time and memory; this 15-digit literal has q = 6.25e13
    with pytest.raises(BudgetError):
        verify_collapse(400182234146128, 10 ** 15)
    with pytest.raises(BudgetError):
        verify_collapse(1, MAX_PROBE_Q + 1)


def test_verify_collapse_takes_given_test_functions():
    c = comb_of(3, 5)
    phis = default_test_functions(c)
    assert verify_collapse(3, 5, phis) == verify_collapse(3, 5)
    assert len(verify_collapse(3, 5, phis[:2]).residuals) == 2
    with pytest.raises(DomainError):
        verify_collapse(3, 5, phis=[])


def test_default_test_functions_are_varied():
    c = comb_of(3, 5)
    phis = default_test_functions(c)
    assert len(phis) >= 5
    labels = {phi.label() for phi in phis}
    assert len(labels) == len(phis)


def test_extract_kappa_needs_nondegenerate_pairing():
    with pytest.raises(VerificationError):
        extract_kappa(1, 3, phis=[TrigPolynomial(coeffs=())])
