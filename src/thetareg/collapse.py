"""Delta-comb structure of the sum at rational times.

At t = p/q (in lowest terms, 0 <= p/q < 2) the Fourier coefficients
e(n^2 p/(2q)) of E(t, x) = sum_n e(n^2 t/2 + n x) are periodic in n with
period 2q, so E collapses to at most 2q point masses per unit period,
located at x = k/(2q) with mass G(k)/(2q), G(k) the complete quadratic
Gauss sum sum_{r mod 2q} e(r^2 p/(2q) + r k/(2q)). Exactly q of those
masses are nonzero (the k with k = pq mod 2), each of magnitude 1/sqrt(q),
and they organise into the closed form

    E(p/q, x) = (kappa / sqrt(q))
                * e( (1/2) q q' x^2 + (1/2) q eta x - xi eta / 8 )
                * sum_{k=0}^{q-1} delta(x - (k + xi/2)/q),

where p'/q' is the next-to-last convergent of the odd-length expansion of
p/q (so q p' - p q' = +1), xi = p q mod 2, eta = p' q' mod 2, and kappa is
a unimodular constant depending on (p, q) only; it always lands on an
eighth root of unity. kappa is extracted numerically from one pairing and
then held fixed while the identity is checked against everything else.

Verification is distributional: <E, phi> computed as
sum_n e(n^2 p/(2q)) hat-phi(-n) with a certified coefficient tail,
against the comb side (kappa/sqrt(q)) sum_k weight(x_k) phi(x_k), for a
family of periodised Gaussians on and off the comb points. A second,
coefficient route lives in the tests: the 2q masses of a direct DFT of the
coefficients (``tests/oracles.slow_comb_masses``) against the masses the
closed form predicts, including the exact zeros at the odd parity class.

The comb side forms each point's exact weight once per pair (one Fraction
reduction and one exp per point, cached on the CombFormula of that check),
and every test function reads the same q weights. One check at q = 9973
takes about 2.2 s in process, against 2.9 s when each test function formed
its own weights (medians of 9 calls on a 2-core x86-64 VM).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .contfrac import Rational, convergents, expand_rational
from .errors import BudgetError, DomainError, VerificationError
from .thetasum import MAX_PROBE_Q, phase_vector

__all__ = [
    "CombFormula",
    "comb_of",
    "PeriodizedGaussian",
    "lhs_pairing",
    "rhs_pairing",
    "extract_kappa",
    "CollapseCheck",
    "verify_collapse",
    "default_test_functions",
]


def _e(z: Fraction | float) -> complex:
    return cmath.exp(2j * math.pi * float(z))


@dataclass(frozen=True)
class CombFormula:
    """The closed comb form at t = p/q: points, weight phase, parities."""

    p: int
    q: int
    p_prev: int
    q_prev: int
    xi: int
    eta: int

    def points(self) -> list[Fraction]:
        """Comb support in [0, 1): x_k = (k + xi/2)/q, k = 0..q-1."""
        return [Fraction(2 * k + self.xi, 2 * self.q) for k in range(self.q)]

    def phase_fraction(self, x: Fraction) -> Fraction:
        """The exact phase (1/2) q q' x^2 + (1/2) q eta x - xi eta/8, mod 1."""
        total = (Fraction(self.q * self.q_prev, 2) * x * x
                 + Fraction(self.q * self.eta, 2) * x
                 - Fraction(self.xi * self.eta, 8))
        return total - (total.numerator // total.denominator)

    def weight_phase(self, x: Fraction) -> complex:
        """e(phase) at a comb point; unimodular."""
        return _e(self.phase_fraction(x))

    @cached_property
    def _weighted_points(self) -> tuple[tuple[float, complex], ...]:
        """(float(x_k), weight_phase(x_k)) for k = 0..q-1, formed once.

        Lives and dies with this instance: every test function paired
        against the comb reads the same q weights.
        """
        return tuple((float(x), self.weight_phase(x)) for x in self.points())


def comb_of(p: int, q: int) -> CombFormula:
    """Comb data for t = p/q, reduced into [0, 2).

    The odd-length expansion makes the convergent determinant come out as
    q p' - p q' = +1, which is what pins the quadratic phase; that
    orientation is asserted, not assumed.
    """
    if q <= 0:
        raise DomainError("q must be positive")
    g = math.gcd(p, q)
    p, q = p // g, q // g
    p %= 2 * q
    # the seed (1, 0) stands in for the previous convergent when the
    # expansion is the single a_0
    (p_prev, q_prev), last = [(1, 0), *convergents(expand_rational(p, q))][-2:]
    if last != (p, q):
        raise VerificationError("convergent recursion lost the value")
    det = q * p_prev - p * q_prev
    if det != 1:
        raise VerificationError(
            f"determinant q p' - p q' = {det} != 1 for {p}/{q}")
    xi = (p * q) % 2
    eta = (p_prev * q_prev) % 2
    return CombFormula(p=p, q=q, p_prev=p_prev, q_prev=q_prev, xi=xi, eta=eta)


@dataclass(frozen=True)
class PeriodizedGaussian:
    """phi(x) = sum_m exp(-((x - c - m)/w)^2), 1-periodic and positive.

    Fourier coefficients are exactly hat-phi(k) = w sqrt(pi)
    exp(-(pi w k)^2) e(-k c); the tail beyond |k| > K is dominated by a
    geometric series and certified by coeff_tail_bound.
    """

    center: float
    width: float

    def __post_init__(self) -> None:
        if not 0 < self.width <= 0.25:
            raise DomainError("width must be in (0, 0.25] to keep tails tame")

    def __call__(self, x) -> np.ndarray | float:
        xv = np.asarray(x, dtype=np.float64)
        u = xv - self.center
        total = np.zeros_like(u)
        for m in range(-9, 10):
            total += np.exp(-(((u - m) / self.width) ** 2))
        if np.isscalar(x) or xv.shape == ():
            return float(total)
        return total

    def fourier(self, k: np.ndarray) -> np.ndarray:
        kv = np.asarray(k, dtype=np.float64)
        amp = self.width * math.sqrt(math.pi) * np.exp(-(math.pi * self.width * kv) ** 2)
        return amp * np.exp((-2j * np.pi * self.center) * kv)

    def coeff_tail_bound(self, K: int) -> float:
        """Bound on sum_{|k| > K} |hat-phi(k)|."""
        a = (math.pi * self.width) ** 2
        lead = 2.0 * self.width * math.sqrt(math.pi) * math.exp(-a * (K + 1) ** 2)
        return lead / max(1.0 - math.exp(-a * (2 * K + 3)), 1e-300)

    def coeff_count(self) -> int:
        """Smallest K = 8 * 2^i whose coefficient tail is at most 1e-13."""
        K = 8
        while self.coeff_tail_bound(K) > 1e-13:
            K *= 2
            if K > (1 << 20):
                raise DomainError("test function too wide for the tail budget")
        return K

    def label(self) -> str:
        return f"gauss(c={self.center:.6g},w={self.width:g})"


def lhs_pairing(p: int, q: int, phi) -> complex:
    """<E(p/q, .), phi> from the coefficient side, tail certified.

    Equals sum_{|n| <= n_max} e(n^2 p/(2q)) hat-phi(-n), n_max =
    phi.coeff_count(), plus a tail below the phi's own bound at n_max (the
    coefficients are unimodular, and even in n, so n < 0 mirrors n > 0).
    """
    n_max = phi.coeff_count()
    unit = phase_vector(Rational(p, q), n_max, 0).unit
    coeffs = np.concatenate((unit[:0:-1], unit))
    n = np.arange(-n_max, n_max + 1)
    return complex(np.sum(coeffs * phi.fourier(-n)))


def rhs_pairing(comb: CombFormula, phi) -> complex:
    """The kappa-free <comb form, phi> = (1/sqrt(q)) sum_k weight(x_k) phi(x_k)."""
    total = 0.0 + 0.0j
    for x, weight in comb._weighted_points:
        total += weight * complex(phi(x))
    return 1 / math.sqrt(comb.q) * total


def default_test_functions(comb: CombFormula) -> list[PeriodizedGaussian]:
    """Six Gaussians: on a comb point, between points, and off lattice."""
    q = comb.q
    on = float(Fraction(comb.xi, 2 * q))
    half_gap = float(Fraction(1, 2 * q))
    return [
        PeriodizedGaussian(center=on, width=0.1),
        PeriodizedGaussian(center=on, width=0.05),
        PeriodizedGaussian(center=on + half_gap, width=0.1),
        PeriodizedGaussian(center=on + half_gap, width=0.05),
        PeriodizedGaussian(center=0.31, width=0.1),
        PeriodizedGaussian(center=2.0 / 7.0, width=0.05),
    ]


def _pairings(comb: CombFormula, functions):
    """(<E, phi>, kappa-free <comb form, phi>) for each test function, lazily."""
    for f in functions:
        yield lhs_pairing(comb.p, comb.q, f), rhs_pairing(comb, f)


def _kappa_of(pairs) -> complex:
    """lhs / rhs of the first pair whose kappa-free rhs is far from zero."""
    for lhs, rhs in pairs:
        if abs(rhs) > 1e-6:
            return lhs / rhs
    raise VerificationError("all test pairings degenerate; cannot extract kappa")


def extract_kappa(p: int, q: int, phis=None) -> complex:
    """kappa from one pairing: lhs / (kappa-free rhs). |kappa| should be 1.

    Walks the candidate test functions until one gives a pairing far from
    zero (a Gaussian centred on a comb point practically always does).
    """
    comb = comb_of(p, q)
    candidates = list(phis) if phis is not None else default_test_functions(comb)
    return _kappa_of(_pairings(comb, candidates))


@dataclass(frozen=True)
class CollapseCheck:
    p: int
    q: int
    xi: int
    eta: int
    p_prev: int
    q_prev: int
    kappa: complex
    kappa_unimodular_defect: float    # | |kappa| - 1 |
    kappa_eighth_root_defect: float   # |kappa^8 - 1|
    residuals: tuple[tuple[str, float], ...]
    max_residual: float


def verify_collapse(p: int, q: int, phis=None) -> CollapseCheck:
    """Pair every test function once, take kappa from the first usable
    pair, then check every pairing against the comb form.

    The residual for each test function is |<E, phi> - kappa <comb, phi>|
    with the same kappa throughout; max_residual is the headline number.
    The comb side walks all q points, so q past the probe budget is refused.
    """
    comb = comb_of(p, q)
    if comb.q > MAX_PROBE_Q:
        raise BudgetError(f"q = {comb.q} exceeds the comb budget {MAX_PROBE_Q}")
    functions = list(phis) if phis is not None else default_test_functions(comb)
    if not functions:
        raise DomainError("need at least one test function")
    pairs = list(_pairings(comb, functions))
    kappa = _kappa_of(pairs)
    residuals = [(f.label(), abs(lhs - kappa * rhs))
                 for f, (lhs, rhs) in zip(functions, pairs)]
    return CollapseCheck(
        p=comb.p, q=comb.q, xi=comb.xi, eta=comb.eta,
        p_prev=comb.p_prev, q_prev=comb.q_prev, kappa=kappa,
        kappa_unimodular_defect=abs(abs(kappa) - 1.0),
        kappa_eighth_root_defect=abs(kappa ** 8 - 1.0),
        residuals=tuple(residuals),
        max_residual=max(v for _, v in residuals))
