"""Continued fractions and the time-parameter taxonomy.

A "time" is one of four things, all normalised into [0, 2) (the sums these
feed are 2-periodic in t):

* an exact rational p/q;
* a real quadratic irrational (a + b sqrt(c))/d, expanded exactly through
  the periodic (P + sqrt(D))/Q recursion, every floor against sqrt(D)
  decided by integer comparison;
* a number defined by a rule for its partial quotients,
  a_{k+1} = max(1, floor(q_k^sigma)), which by construction has
  log q_{k+1} / log q_k -> 1 + sigma;
* a decimal literal of limited precision, whose expansion is only
  certified as far as the +-1 ulp interval around it pins the quotients.

Rational expansions are normalised to an odd number of quotients using the
tail identity [..., a] = [..., a-1, 1]; the convergent-matrix determinant
alternates with the index, and downstream identities need the even-index
orientation q p_{n-1} - p q_{n-1} = +1.

Each time keeps one memo of the quotients it has drawn together with
their convergents (p_k, q_k), each pair formed by one step of
``convergents`` as its quotient is drawn. Every reader of a time (its
expansion, value brackets, the quotient rule's own q_k, scale matching)
shares that memo, and the CFExpansion that ``expansion()`` returns carries
the pairs it walked, so each convergent is formed once per time.

Diophantine typing: sigma_n = log q_{n+1} / log q_n - 1 measures how fast
the denominators grow; bounded quotients give sigma_n -> 0, the quotient
rule above gives sigma_n -> sigma. classify_sigma estimates limsup/liminf
over a tail window and only commits to a class when they agree closely.
The Khinchin-Levy constant pi^2 / (12 ln 2) is the almost-sure limit of
(ln q_n)/n and is reported as a sanity diagnostic for generic inputs.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DomainError, PrecisionExhaustedError

__all__ = [
    "KHINCHIN_LEVY",
    "iroot",
    "floor_quadratic",
    "canonical_quotients",
    "expand_rational",
    "convergents",
    "CFExpansion",
    "TimeSpec",
    "Rational",
    "QuadraticIrrational",
    "QuotientRule",
    "DecimalLiteral",
    "SigmaEstimate",
    "classify_sigma",
    "khinchin_levy_diagnostic",
    "parse_timespec",
]

# Almost-sure limit of (ln q_n)/n for a random real (Khinchin-Levy).
KHINCHIN_LEVY = math.pi ** 2 / (12.0 * math.log(2.0))

# TimeSpec.expansion stops at the first convergent denominator past this
MAX_Q_BITS = 100_000
# QuotientRule ends its quotient stream where q_k^num would pass this many
# bits: 2 MAX_Q_BITS cuts no sigma of numerator 1 or 2 short of MAX_Q_BITS
MAX_POWER_BITS = 2 * MAX_Q_BITS


def iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for integers x >= 0, k >= 1, by Newton + correction.

    Newton starts just above the root: x's top 64 bits give log2 of
    x^(1/k) to about 1e-10 for any x of fewer than 2^30 bits, and the start
    is 2 to that plus 2^-30, doubled until its k-th power passes x should
    the estimate fall short. From above, the integer iteration falls
    monotonically onto the floor, in a few steps of quadratic convergence.
    Far above the root a step shrinks r by only about 1 - 1/k, so the
    former start 2^(bits/k + 1), up to twice the root, took about k ln 2
    steps, each forming a (k-1)-th power of x's size.
    """
    if x < 0 or k <= 0:
        raise DomainError("iroot needs x >= 0 and k >= 1")
    if x == 0:
        return 0
    if k == 1:
        return x
    if k == 2:
        return math.isqrt(x)
    if x.bit_length() <= k:
        return 1                # 1 <= x < 2^k, so 1 <= x^(1/k) < 2
    shift = max(x.bit_length() - 64, 0)
    lg = (math.log2(x >> shift) + shift) / k + 2.0 ** -30
    whole = int(lg)
    r = int(2.0 ** (lg - whole) * (1 << 53)) + 1   # 2^lg, scaled by 2^53
    r = r << (whole - 53) if whole >= 53 else (r >> (53 - whole)) + 1
    while r ** k <= x:
        r *= 2
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def _surd_floor(P: int, r: int, Q: int) -> int:
    """floor((P + sqrt(D))/Q) for Q != 0 and D not a square, from r = isqrt(D).

    P + r < P + sqrt(D) < P + r + 1, and no multiple of Q lies strictly
    between two consecutive integers, so the floor is that of (P + r)/Q, or
    of (P + r + 1)/Q when Q < 0 turns the interval round.
    """
    return (P + r) // Q if Q > 0 else (P + r + 1) // Q


def floor_quadratic(a: int, b: int, c: int, d: int) -> int:
    """floor((a + b*sqrt(c))/d) exactly, for d > 0, c > 0 not a square."""
    if d <= 0:
        raise DomainError("d must be positive")
    if c <= 0 or math.isqrt(c) ** 2 == c:
        raise DomainError(f"c = {c} must be positive and not a square")
    r = math.isqrt(b * b * c)
    # b sqrt(c) = -sqrt(b^2 c) for b < 0: negate numerator and denominator
    return _surd_floor(a, r, d) if b >= 0 else _surd_floor(-a, r, -d)


def canonical_quotients(p: int, q: int) -> list[int]:
    """Plain Euclidean expansion of p/q >= 0 (last quotient >= 2 unless alone)."""
    if q <= 0:
        raise DomainError("q must be positive")
    if p < 0:
        raise DomainError("expansion is defined here for p/q >= 0")
    if math.gcd(p, q) != 1:
        raise DomainError(f"{p}/{q} is not in lowest terms")
    quots: list[int] = []
    a, b = p, q
    while b:
        quots.append(a // b)
        a, b = b, a % b
    return quots


def expand_rational(p: int, q: int) -> list[int]:
    """Euclidean expansion of p/q >= 0, normalised to an odd quotient count."""
    quots = canonical_quotients(p, q)
    if len(quots) % 2 == 0:
        if quots[-1] > 1:
            quots[-1] -= 1
            quots.append(1)
        else:
            quots.pop()
            quots[-1] += 1
    return quots


def convergents(quotients: Iterable[int]) -> Iterator[tuple[int, int]]:
    """(p_k, q_k) for k = 0, 1, ..., one pair per quotient a_k consumed.

    p_k = a_k p_{k-1} + p_{k-2} (likewise q), seeded by p_{-2}, q_{-2} = 0, 1
    and p_{-1}, q_{-1} = 1, 0, so a_0 needs no special case. Lazy: it pulls
    a_k only when asked for the k-th pair.
    """
    p_prev, q_prev, p, q = 0, 1, 1, 0
    for a in quotients:
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
        yield p, q


@dataclass(frozen=True)
class CFExpansion:
    """Partial quotients a_0, a_1, ... with their convergents p_k/q_k.

    ``exact_terminates`` marks the complete expansion of a rational;
    ``truncated`` is its negation: a quotient or digit source that was cut
    off before it was done. ``pairs`` are the convergents of the quotients,
    passed in when the maker already walked them (``TimeSpec.expansion``)
    and formed at construction otherwise. They take no part in equality.
    """

    quotients: tuple[int, ...]
    exact_terminates: bool = False
    pairs: tuple[tuple[int, int], ...] | None = field(
        default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.quotients:
            raise DomainError("need at least one quotient")
        if self.quotients[0] < 0:
            raise DomainError("a_0 must be >= 0")
        if any(a < 1 for a in self.quotients[1:]):
            raise DomainError("a_k must be >= 1 for k >= 1")
        if self.pairs is None:
            object.__setattr__(self, "pairs", tuple(convergents(self.quotients)))
        elif len(self.pairs) != len(self.quotients):
            raise DomainError("need one convergent per quotient")

    @property
    def truncated(self) -> bool:
        return not self.exact_terminates

    def convergents(self) -> list[tuple[int, int]]:
        return list(self.pairs)


class TimeSpec:
    """Base for time parameters. Subclasses fill in the small protocol below.

    A subclass supplies its partial quotients as the generator
    ``_quotients()``. One memo per time holds each quotient drawn together
    with its convergent (p_k, q_k), grown by one step of ``convergents``
    per quotient, so every reader of the stream (quotients, convergents,
    expansion, brackets, scale matching) shares one walk of the
    recurrence. A decimal literal has no stream: its ``expansion()`` walks
    the interval its digits pin instead.
    """

    _memo: tuple[list[int], list[tuple[int, int]],
                 Iterator[tuple[int, int]]] | None = None

    def exact_value(self) -> Fraction | None:
        """The exact rational value, when there is one."""
        raise NotImplementedError

    def resolution(self) -> Fraction | None:
        """Coarseness of a digit-limited literal; None when exact."""
        return None

    def _quotients(self) -> Iterator[int]:
        raise NotImplementedError

    def _terms(self) -> Iterator[tuple[int, tuple[int, int]]]:
        """(a_k, (p_k, q_k)) for k = 0, 1, ...; finite for rationals, each
        term formed once and kept. A time with no exact value whose source
        ends was cut off by a budget: every read past its last term raises
        PrecisionExhaustedError."""
        if self._memo is None:
            quots: list[int] = []   # each quotient, kept as the recurrence draws it
            drawn = (quots.append(a) or a for a in self._quotients())
            self._memo = (quots, [], convergents(drawn))
        quots, pairs, stream = self._memo
        k = 0
        while True:
            if k == len(pairs):
                pair = next(stream, None)
                if pair is None:
                    if self.exact_value() is None:
                        raise PrecisionExhaustedError(
                            f"the quotients of {self.describe()} end after "
                            f"{k} terms: their next one would pass the budget")
                    return
                pairs.append(pair)
            yield quots[k], pairs[k]
            k += 1

    def convergent_pairs(self) -> Iterator[tuple[int, int]]:
        """Successive (p_k, q_k); finite for rationals, read from the memo."""
        return (pair for _, pair in self._terms())

    def expansion(self, max_terms: int = 64) -> CFExpansion:
        """Quotients up to max_terms, up to the first denominator past
        MAX_Q_BITS bits, and up to where a budget ends the source;
        truncated=True when cut off. The convergents walked on the way go
        with it."""
        quots: list[int] = []
        pairs: list[tuple[int, int]] = []
        truncated = False
        try:
            for a, pair in self._terms():
                if len(quots) >= max_terms:
                    truncated = True    # the source has a quotient past the budget
                    break
                quots.append(a)
                pairs.append(pair)
                if pair[1].bit_length() > MAX_Q_BITS:
                    truncated = True
                    break
        except PrecisionExhaustedError:
            truncated = True            # a budget ended the source
        if not quots:
            raise PrecisionExhaustedError("no quotients could be produced")
        return CFExpansion(tuple(quots), exact_terminates=not truncated,
                           pairs=tuple(pairs))

    def value_bracket(self, eps: Fraction
                      ) -> tuple[tuple[int, int], tuple[int, int]]:
        """Exact lo <= t <= hi with hi - lo <= eps, as (numerator,
        denominator) pairs in lowest terms with positive denominators.

        The ends are the first pair of convergents with q_k q_{k+1} >= 1/eps,
        so that the gap 1/(q_k q_{k+1}) between them is at most eps. An
        exact time is both ends of its own bracket.
        """
        if eps <= 0:
            raise DomainError("eps must be positive")
        exact = self.exact_value()
        if exact is not None:
            end = (exact.numerator, exact.denominator)
            return end, end
        need = -(-eps.denominator // eps.numerator)     # ceil(1/eps)
        prev: tuple[int, int] | None = None
        for pk, qk in self.convergent_pairs():
            if prev is not None and prev[1] * qk >= need:
                ends = prev, (pk, qk)
                return ends if prev[0] * qk <= pk * prev[1] else ends[::-1]
            prev = (pk, qk)
        raise PrecisionExhaustedError("quotient source ended before the bracket closed")

    def describe(self) -> str:
        raise NotImplementedError

    def slug(self) -> str:
        """Filesystem-safe tag derived from describe()."""
        return re.sub(r"[^A-Za-z0-9._-]+", "_", self.describe()).strip("_")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.describe()}>"


@dataclass(eq=True)
class Rational(TimeSpec):
    """t = p/q, reduced and folded into [0, 2)."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.q == 0:
            raise DomainError("q must be nonzero")
        if self.q < 0:
            self.p, self.q = -self.p, -self.q
        g = math.gcd(self.p, self.q)
        self.p //= g
        self.q //= g
        self.p %= 2 * self.q

    def exact_value(self) -> Fraction | None:
        return Fraction(self.p, self.q)

    def _quotients(self) -> Iterator[int]:
        yield from expand_rational(self.p, self.q)

    def describe(self) -> str:
        return f"rat:{self.p}/{self.q}"


class QuadraticIrrational(TimeSpec):
    """t = (a + b sqrt(c))/d with c > 0 not a square, folded into [0, 2).

    Quotients come from the exact integer recursion on states
    (P + sqrt(D))/Q with Q | D - P^2; the orbit of states is finite, so the
    expansion is eventually periodic and arbitrarily many quotients cost
    nothing.
    """

    def __init__(self, a: int, b: int, c: int, d: int):
        if d == 0:
            raise DomainError("d must be nonzero")
        if c <= 0:
            raise DomainError("c must be positive")
        if math.isqrt(c) ** 2 == c:
            raise DomainError(f"sqrt({c}) is an integer; use a rational time")
        if b == 0:
            raise DomainError("b = 0 gives a rational; use a rational time")
        if d < 0:
            a, b, d = -a, -b, -d
        shift = floor_quadratic(a, b, c, 2 * d)
        a -= 2 * d * shift
        self.a, self.b, self.c, self.d = a, b, c, d

    def __eq__(self, other) -> bool:
        return (isinstance(other, QuadraticIrrational)
                and (self.a, self.b, self.c, self.d)
                == (other.a, other.b, other.c, other.d))

    def exact_value(self) -> Fraction | None:
        return None

    def _quotients(self) -> Iterator[int]:
        """a = floor((P + sqrt(D))/Q), then (P, Q) <- (a Q - P, (D - P^2)/Q)."""
        D = self.b * self.b * self.c
        P, Q = (self.a, self.d) if self.b > 0 else (-self.a, -self.d)
        if (D - P * P) % Q != 0:
            # scale so that Q | D - P^2, which every later state inherits
            s = abs(Q)
            P, D, Q = P * s, D * s * s, Q * s
        rD = math.isqrt(D)
        while True:
            a = _surd_floor(P, rD, Q)
            yield a
            P = a * Q - P
            Q = (D - P * P) // Q

    def describe(self) -> str:
        return f"quad:({self.a}{self.b:+d}*sqrt({self.c}))/{self.d}"


class QuotientRule(TimeSpec):
    """Quotients a_{k+1} = max(1, floor(q_k^sigma)) after a fixed seed.

    Denominator growth then satisfies log q_{k+1}/log q_k -> 1 + sigma, so
    the value lands in the Diophantine class indexed by sigma. sigma is an
    exact Fraction and the floor is an exact integer root, so the expansion
    is reproducible bit for bit.
    """

    def __init__(self, sigma: Fraction, seed: tuple[int, ...]):
        sigma = Fraction(sigma)
        if sigma < 0:
            raise DomainError("sigma must be >= 0")
        if not seed:
            raise DomainError("seed must contain at least a_0")
        if seed[0] not in (0, 1):
            raise DomainError("a_0 must be 0 or 1 to keep t in [0, 2)")
        if any(a < 1 for a in seed[1:]):
            raise DomainError("seed quotients after a_0 must be >= 1")
        self.sigma = sigma
        self.seed = tuple(int(a) for a in seed)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QuotientRule)
                and (self.sigma, self.seed) == (other.sigma, other.seed))

    def exact_value(self) -> Fraction | None:
        return None

    def _quotients(self) -> Iterator[int]:
        """The seed, then a_{k+1} = max(1, floor(q_k^sigma)).

        q_k is read from this time's memo, which holds it as soon as a_k
        is drawn. The stream ends where num * bits(q_k) passes
        MAX_POWER_BITS: forming q_k^num and its den-th root there takes
        from seconds to hours as sigma's numerator and denominator grow.
        """
        yield from self.seed
        num, den = self.sigma.numerator, self.sigma.denominator
        for _, q in itertools.islice(self.convergent_pairs(), len(self.seed) - 1, None):
            if num * q.bit_length() > MAX_POWER_BITS:
                return
            yield max(1, iroot(q ** num, den)) if num else 1

    def describe(self) -> str:
        sig = (str(self.sigma.numerator) if self.sigma.denominator == 1
               else f"{self.sigma.numerator}/{self.sigma.denominator}")
        return f"class:sigma={sig},seed=" + ",".join(str(a) for a in self.seed)


class DecimalLiteral(TimeSpec):
    """A decimal string, treated as exact but of known limited resolution."""

    def __init__(self, text: str):
        if not re.fullmatch(r"[01]?\.\d+", text.strip()):
            raise DomainError(
                f"decimal literal must look like 0.419... in [0, 2), got {text!r}")
        self.text = text.strip()
        self.value = Fraction(self.text)
        self.digits = len(self.text.split(".")[1])
        if not 0 <= self.value < 2:
            raise DomainError("decimal time must lie in [0, 2)")

    def __eq__(self, other) -> bool:
        return isinstance(other, DecimalLiteral) and self.text == other.text

    def exact_value(self) -> Fraction | None:
        return self.value

    def resolution(self) -> Fraction | None:
        return Fraction(1, 10 ** self.digits)

    def expansion(self, max_terms: int = 64) -> CFExpansion:
        """The quotients shared by every real within one last-digit unit of
        the literal, not the literal's own.

        The expansion is complete only when those certified quotients are
        the centre's whole expansion; otherwise it is truncated, since more
        digits would be needed to see deeper. When not even a_0 is shared it
        is the literal's a_0 alone, truncated.
        """
        ulp = self.resolution()
        lo, hi = max(self.value - ulp, Fraction(0)), self.value + ulp
        quots: list[int] = []
        while len(quots) < max_terms:
            flo = lo.numerator // lo.denominator
            if flo != hi.numerator // hi.denominator:
                break
            quots.append(flo)
            lo -= flo
            hi -= flo
            if lo == 0 or hi == 0:
                break
            lo, hi = 1 / hi, 1 / lo
        if not quots:
            return CFExpansion((self.value.numerator // self.value.denominator,))
        return CFExpansion(tuple(quots), exact_terminates=(
            quots == canonical_quotients(self.value.numerator, self.value.denominator)))

    def center_expansion(self) -> CFExpansion:
        """Complete canonical expansion of the literal value taken as exact."""
        return CFExpansion(
            tuple(canonical_quotients(self.value.numerator, self.value.denominator)),
            exact_terminates=True)

    def describe(self) -> str:
        return f"dec:{self.text}"


@dataclass(frozen=True)
class SigmaEstimate:
    """Tail estimates of sigma_n = log q_{n+1}/log q_n - 1."""

    per_n: tuple[tuple[int, float], ...]
    limsup_est: float
    liminf_est: float
    verdict: str
    sigma: float | None

    def summary(self) -> str:
        if self.sigma is not None:
            return f"{self.verdict} (limsup {self.limsup_est:.4f}, liminf {self.liminf_est:.4f})"
        if math.isnan(self.limsup_est):
            return self.verdict
        return f"{self.verdict} [liminf {self.liminf_est:.4f}, limsup {self.limsup_est:.4f}]"


def classify_sigma(exp: CFExpansion, window: int = 8) -> SigmaEstimate:
    """Estimate the growth exponent class from a (possibly truncated) expansion.

    Uses sigma_n only where q_n >= 2. Declares a single class when the tail
    limsup and liminf estimates agree within 0.1; a complete rational
    expansion is inherently unclassifiable this way and says so.
    """
    pairs = exp.convergents()
    per: list[tuple[int, float]] = []
    for k in range(len(pairs) - 1):
        qn, qn1 = pairs[k][1], pairs[k + 1][1]
        if qn >= 2:
            per.append((k, math.log(qn1) / math.log(qn) - 1.0))
    if exp.exact_terminates:
        verdict = "indeterminate-finite"
        if per:
            tail = [s for _, s in per[-window:]]
            return SigmaEstimate(tuple(per), max(tail), min(tail), verdict, None)
        return SigmaEstimate((), math.nan, math.nan, verdict, None)
    if len(per) < 4:
        return SigmaEstimate(tuple(per),
                             max((s for _, s in per), default=math.nan),
                             min((s for _, s in per), default=math.nan),
                             "indeterminate-short", None)
    tail = [s for _, s in per[-window:]]
    hi, lo = max(tail), min(tail)
    if hi - lo <= 0.1:
        mid = 0.5 * (hi + lo)
        return SigmaEstimate(tuple(per), hi, lo, f"I({mid:.4g})", mid)
    return SigmaEstimate(tuple(per), hi, lo, "indeterminate-range", None)


def khinchin_levy_diagnostic(exp: CFExpansion) -> list[tuple[int, float]]:
    """(n, (ln q_n)/n) for each convergent with n >= 1; compare KHINCHIN_LEVY."""
    pairs = exp.convergents()
    return [(k, math.log(pairs[k][1]) / k) for k in range(1, len(pairs))]


_QUAD_RE = re.compile(
    r"\(\s*(-?\d+)\s*([+-]\s*\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)\s*/\s*(-?\d+)"
)
_RAT_RE = re.compile(r"(-?\d+)\s*/\s*(-?\d+)")
_CLASS_RE = re.compile(r"sigma\s*=\s*([^,]+)\s*,\s*seed\s*=\s*(.+)")


def parse_timespec(text: str) -> TimeSpec:
    """Parse a time parameter string.

    Grammar:
      rat:<p>/<q>                      exact rational
      quad:(<a>+<b>*sqrt(<c>))/<d>     quadratic irrational
      class:sigma=<v>,seed=<a0,a1,..>  quotient growth rule
      dec:<digits>                     decimal literal, e.g. dec:0.4142135
    """
    s = text.strip()
    if ":" not in s:
        raise DomainError(
            f"time spec {text!r} needs a kind prefix rat:/quad:/class:/dec:")
    kind, _, rest = s.partition(":")
    kind = kind.strip().lower()
    rest = rest.strip()
    if kind == "rat":
        m = _RAT_RE.fullmatch(rest)
        if not m:
            raise DomainError(f"rat: expects p/q, got {rest!r}")
        return Rational(int(m.group(1)), int(m.group(2)))
    if kind == "quad":
        m = _QUAD_RE.fullmatch(rest)
        if not m:
            raise DomainError(
                f"quad: expects (a+b*sqrt(c))/d with integer a,b,c,d, got {rest!r}")
        a = int(m.group(1))
        b = int(m.group(2).replace(" ", ""))
        return QuadraticIrrational(a, b, int(m.group(3)), int(m.group(4)))
    if kind == "class":
        m = _CLASS_RE.fullmatch(rest)
        if not m:
            raise DomainError(
                f"class: expects sigma=<v>,seed=<list>, got {rest!r}")
        sig_text = m.group(1).strip()
        try:
            sigma = Fraction(sig_text)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad sigma {sig_text!r}") from exc
        try:
            seed = tuple(int(a.strip()) for a in m.group(2).split(","))
        except ValueError as exc:
            raise DomainError(f"bad seed list {m.group(2)!r}") from exc
        return QuotientRule(sigma, seed)
    if kind == "dec":
        return DecimalLiteral(rest)
    raise DomainError(f"unknown time kind {kind!r} in {text!r}")
