"""Dyadic block spectra, fitted growth exponents, and regularity reports.

The object of study is the fundamental solution E(t, x) = sum_n e(n^2 t/2
+ n x). Its Hoelder-scale regularity at a fixed time t is measured through
the dyadic block sups

    sup_x | sum_n w_n^{(j)} e(n^2 t/2 + n x) |,

whose growth rate 2^(alpha j) is exactly what membership in the uniform
Hoelder/Besov scale measures; everything about the regularity of E(t, .)
is encoded in the exponent alpha. Predictions by arithmetic type of t:

* rational p/q: block sups grow like 2^j (alpha = 1); explicitly,
  3*2^j / sqrt(q) on the comb grid up to bounded factors, with the
  two-sided envelope count/sqrt(q) + sqrt(q);
* badly approximable (e.g. quadratic irrationals, bounded quotients):
  alpha = 1/2, the square-root cancellation floor;
* controlled growth log q_{n+1} ~ (1 + sigma) log q_n: the limsup
  exponent along the burst subsequence j_n = ceil((2+sigma)/2 * log2 q_n)
  is alpha = (1 + sigma)/(2 + sigma).

block_spectrum measures rough/smooth sups per scale (merging the exact
comb probe at rational times), fit_exponent turns a spectrum tail into a
least-squares slope plus a max-ratio statistic, and classify_regularity
bundles spectrum, continued-fraction classification, prediction, and the
sharpness verdict into one serialisable report.

Exponent-carrying diagnostics (fit, limsup, burst ratios) read the smooth
sups: the sharp cutoff carries an O(log) leakage factor that pollutes
small-j ratios, while the smooth block is the one with clean 2^(alpha j)
scaling. Rough sups are still recorded and gated by their own envelope
and floor checks.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .contfrac import (CFExpansion, QuadraticIrrational, QuotientRule,
                       SigmaEstimate, TimeSpec, classify_sigma)
from .cutoff import MAX_BLOCK_J, block_bounds, rough_weights, smooth_weights
from .errors import DomainError
from .thetasum import merged_block_sup

__all__ = [
    "BlockRecord",
    "block_spectrum",
    "ExponentFit",
    "fit_exponent",
    "Prediction",
    "predicted_exponent",
    "burst_scales",
    "RegularityReport",
    "classify_regularity",
    "records_to_csv",
    "report_to_json",
]


@dataclass(frozen=True)
class BlockRecord:
    """Measured data for one dyadic scale; each true sup is certified to
    lie in [x_sup, x_sup_upper]."""

    j: int
    rough_sup: float | None
    rough_sup_upper: float | None
    smooth_sup: float | None
    smooth_sup_upper: float | None
    l2_exact: float            # sqrt(#frequencies of the sharp block), exact
    q_used: int | None         # denominator scale-matched to 2^j (when known)
    upper_envelope: float | None   # 3*2^j/sqrt(q_used) + sqrt(q_used)
    rough_floor: float | None      # strongest guaranteed comb floor (rational t)
    probe_satisfied: bool | None

    def exponent_sup(self) -> float | None:
        """The sup the exponent diagnostics read (smooth, else rough)."""
        return self.smooth_sup if self.smooth_sup is not None else self.rough_sup


def _scale_matched_q(time: TimeSpec, j: int) -> int | None:
    """Convergent denominator minimising 2^j/sqrt(q) + sqrt(q).

    The minimiser of the envelope over real q is q = 2^j; among the
    available denominators the best one is found by scanning until they
    pass 8 * 2^j (beyond that the sqrt(q) term alone exceeds the best seen
    candidate's envelope growth).
    """
    target = 2.0 ** j
    best_q, best_val = None, math.inf
    for _, qk in time.convergent_pairs():
        val = target / math.sqrt(qk) + math.sqrt(qk)
        if val < best_val:
            best_q, best_val = qk, val
        if qk > 8 * target:
            break
    return best_q


def block_spectrum(time: TimeSpec, j_min: int = 6, j_max: int = 16,
                   mode: str = "both", oversample: int = 8,
                   js: list[int] | None = None) -> list[BlockRecord]:
    """Measure block sups for j in [j_min, j_max] (or an explicit list).

    mode selects which families to evaluate ("rough", "smooth", "both").
    Rational times get the exact comb probe merged into each sup and the
    guaranteed floor recorded next to it.
    """
    if mode not in ("rough", "smooth", "both"):
        raise DomainError(f"unknown mode {mode!r}")
    scales = sorted(set(js)) if js is not None else list(range(j_min, j_max + 1))
    if not scales:
        raise DomainError("no scales requested")
    for j in (scales[0], scales[-1]):
        block_bounds(j)     # refuse the whole request before any block is computed
    records: list[BlockRecord] = []
    for j in scales:
        rough = smooth = probe = sprobe = None
        if mode in ("rough", "both"):
            rough, probe = merged_block_sup(time, rough_weights(j), oversample)
        if mode in ("smooth", "both"):
            smooth, sprobe = merged_block_sup(time, smooth_weights(j), oversample)
        count = 3 * 2 ** j if j >= 1 else 5
        exact = time.exact_value()
        q_used = exact.denominator if exact is not None else _scale_matched_q(time, j)
        envelope = None
        if q_used:
            envelope = count / math.sqrt(q_used) + math.sqrt(q_used)
        records.append(BlockRecord(
            j=j, rough_sup=rough and rough.value, rough_sup_upper=rough and rough.upper,
            smooth_sup=smooth and smooth.value, smooth_sup_upper=smooth and smooth.upper,
            l2_exact=math.sqrt(count), q_used=q_used, upper_envelope=envelope,
            rough_floor=probe and max(v for _, v in probe.floors),
            probe_satisfied=next(
                (p.satisfied for p in (probe, sprobe) if p is not None), None)))
    return records


@dataclass(frozen=True)
class ExponentFit:
    alpha_fit: float           # least-squares slope of log2(sup) vs j
    alpha_limsup: float        # max over the tail of log2(sup)/j
    intercept: float
    residual: float            # max |log2(sup) - (fit)| over the tail
    n_points: int
    tail_start: int

    def summary(self) -> str:
        return (f"alpha_fit={self.alpha_fit:.4f} "
                f"alpha_limsup={self.alpha_limsup:.4f} "
                f"residual={self.residual:.3f} over {self.n_points} scales")


def fit_exponent(records: list[BlockRecord], tail_start: int = 8) -> ExponentFit:
    """Least-squares slope of log2(sup_j) against j over j >= tail_start.

    Needs at least 5 tail scales (fewer would make the slope an anecdote).
    alpha_limsup is the max of log2(sup_j)/j over the same tail: offset
    sensitive, only meaningful on burst subsequences, reported always.
    """
    xs, ys = [], []
    for rec in records:
        sup = rec.exponent_sup()
        if rec.j >= tail_start and sup is not None and sup > 0:
            xs.append(float(rec.j))
            ys.append(math.log2(sup))
    if len(xs) < 5:
        raise DomainError(
            f"need at least 5 scales with j >= {tail_start}, have {len(xs)}")
    slope, intercept = np.polyfit(np.array(xs), np.array(ys), 1)
    fitted = slope * np.array(xs) + intercept
    residual = float(np.max(np.abs(fitted - np.array(ys))))
    limsup = max(y / x for x, y in zip(xs, ys))
    return ExponentFit(alpha_fit=float(slope), alpha_limsup=limsup,
                       intercept=float(intercept), residual=residual,
                       n_points=len(xs), tail_start=tail_start)


@dataclass(frozen=True)
class Prediction:
    alpha_lo: float
    alpha_hi: float
    source: str

    @property
    def point(self) -> float | None:
        return self.alpha_lo if self.alpha_lo == self.alpha_hi else None

    def summary(self) -> str:
        if self.point is not None:
            return f"alpha = {self.alpha_lo:.4f} ({self.source})"
        return f"alpha in [{self.alpha_lo:.4f}, {self.alpha_hi:.4f}] ({self.source})"


def predicted_exponent(time: TimeSpec,
                       sigma_est: SigmaEstimate | None = None) -> Prediction:
    """Predicted block growth exponent from the arithmetic of the time.

    A digit-limited literal never certifies its class (its face value is
    rational, but the digits shown are compatible with a continuum of
    irrationals), so it is predicted from the certified quotients when
    those classify, and as the generic range [1/2, 1] otherwise.
    """
    if time.resolution() is not None:
        if sigma_est is not None and sigma_est.sigma is not None:
            s = max(sigma_est.sigma, 0.0)
            a = (1.0 + s) / (2.0 + s)
            return Prediction(a, a, f"estimated class {sigma_est.verdict}")
        return Prediction(0.5, 1.0, "digit-limited literal: class uncertified")
    if time.exact_value() is not None:
        return Prediction(1.0, 1.0, "rational: comb collapse scales like 2^j")
    if isinstance(time, QuadraticIrrational):
        return Prediction(0.5, 0.5,
                          "periodic quotients: square-root cancellation floor")
    if isinstance(time, QuotientRule):
        s = float(time.sigma)
        a = (1.0 + s) / (2.0 + s)
        return Prediction(a, a, f"quotient rule with sigma = {time.sigma}")
    if sigma_est is not None and sigma_est.sigma is not None:
        s = max(sigma_est.sigma, 0.0)
        a = (1.0 + s) / (2.0 + s)
        return Prediction(a, a, f"estimated class {sigma_est.verdict}")
    return Prediction(0.5, 1.0, "unclassified irrational")


def burst_scales(time: TimeSpec, sigma: float,
                 j_lo: int = 6, j_hi: int = MAX_BLOCK_J) -> list[int]:
    """Scales j_n = ceil((2+sigma)/2 * log2 q_n) clipped to [j_lo, j_hi].

    At these scales the scale-matched denominator is q_n itself and the
    block sup is predicted to peak at 2^(alpha j) with
    alpha = (1+sigma)/(2+sigma).
    """
    out: list[int] = []
    for _, qk in time.convergent_pairs():
        if qk < 2:
            continue
        j = math.ceil((2.0 + sigma) / 2.0 * math.log2(qk))
        if j > j_hi:
            break
        if j >= j_lo:
            out.append(j)
    return sorted(set(out))


@dataclass(frozen=True)
class RegularityReport:
    time: str
    mode: str
    records: tuple[BlockRecord, ...]
    fit: ExponentFit
    prediction: Prediction
    sigma: SigmaEstimate | None
    burst_js: tuple[int, ...]
    sharp_member: bool         # growth does not exceed the predicted alpha
    sharp_fails_below: bool    # growth does reach the predicted alpha
    tolerance: float

    @property
    def is_sharp(self) -> bool:
        return self.sharp_member and self.sharp_fails_below


def classify_regularity(time: TimeSpec, j_min: int = 6, j_max: int = 16,
                        mode: str = "both", oversample: int = 8,
                        tail_start: int = 8, tolerance: float = 0.1,
                        window: int = 8) -> RegularityReport:
    """Spectrum + arithmetic classification + sharpness verdict.

    Sharpness compares the measured growth against the prediction within
    the stated tolerance: membership asks alpha_fit <= alpha_pred + tol,
    failure-below asks that the observed exponent reaches
    alpha_pred - tol (via alpha_fit, or alpha_limsup on the burst
    subsequence when there is one).
    """
    exp: CFExpansion = time.expansion(max_terms=64)
    sigma_est = classify_sigma(exp, window=window)
    prediction = predicted_exponent(time, sigma_est)
    bursts: list[int] = []
    sigma_for_bursts: float | None = None
    if isinstance(time, QuotientRule):
        sigma_for_bursts = float(time.sigma)
    elif sigma_est.sigma is not None and sigma_est.sigma > 0.2:
        sigma_for_bursts = sigma_est.sigma
    if time.exact_value() is None and sigma_for_bursts is not None:
        bursts = burst_scales(time, sigma_for_bursts, j_lo=max(j_min, 4))
    js = sorted(set(range(j_min, j_max + 1)) | set(bursts))
    records = block_spectrum(time, mode=mode, oversample=oversample, js=js)
    fit = fit_exponent(records, tail_start=tail_start)
    pred_lo, pred_hi = prediction.alpha_lo, prediction.alpha_hi
    observed_peak = fit.alpha_fit
    if bursts:
        burst_sups = [(r.j, r.exponent_sup()) for r in records
                      if r.j in bursts and r.exponent_sup()]
        if burst_sups:
            observed_peak = max(math.log2(s) / j for j, s in burst_sups)
    member = fit.alpha_fit <= pred_hi + tolerance
    fails_below = observed_peak >= pred_lo - tolerance
    return RegularityReport(
        time=time.describe(), mode=mode, records=tuple(records), fit=fit,
        prediction=prediction, sigma=sigma_est, burst_js=tuple(bursts),
        sharp_member=member, sharp_fails_below=fails_below,
        tolerance=tolerance)


def _float_cell(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def records_to_csv(records: list[BlockRecord] | tuple[BlockRecord, ...]) -> str:
    """CSV with the five reporting columns; floats as shortest round-trip."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["j", "rough_sup", "smooth_sup", "l2_exact", "log2_sup_over_j"])
    for rec in records:
        sup = rec.exponent_sup()
        ratio = math.log2(sup) / rec.j if sup and rec.j > 0 else None
        writer.writerow([rec.j, _float_cell(rec.rough_sup),
                         _float_cell(rec.smooth_sup), _float_cell(rec.l2_exact),
                         _float_cell(ratio)])
    return buf.getvalue()


def report_to_json(report: RegularityReport) -> str:
    """Full report as deterministic JSON (sorted keys, round-trip floats)."""
    recs = []
    for r in report.records:
        recs.append({
            "j": r.j, "rough_sup": r.rough_sup,
            "rough_sup_upper": r.rough_sup_upper,
            "smooth_sup": r.smooth_sup, "smooth_sup_upper": r.smooth_sup_upper,
            "l2_exact": r.l2_exact, "q_used": r.q_used,
            "upper_envelope": r.upper_envelope, "rough_floor": r.rough_floor,
            "probe_satisfied": r.probe_satisfied,
        })
    doc = {
        "time": report.time,
        "mode": report.mode,
        "records": recs,
        "fit": {
            "alpha_fit": report.fit.alpha_fit,
            "alpha_limsup": report.fit.alpha_limsup,
            "intercept": report.fit.intercept,
            "residual": report.fit.residual,
            "n_points": report.fit.n_points,
            "tail_start": report.fit.tail_start,
        },
        "prediction": {
            "alpha_lo": report.prediction.alpha_lo,
            "alpha_hi": report.prediction.alpha_hi,
            "source": report.prediction.source,
        },
        "sigma": None if report.sigma is None else {
            "limsup_est": _nan_to_none(report.sigma.limsup_est),
            "liminf_est": _nan_to_none(report.sigma.liminf_est),
            "verdict": report.sigma.verdict,
            "sigma": report.sigma.sigma,
        },
        "burst_js": list(report.burst_js),
        "sharp_member": report.sharp_member,
        "sharp_fails_below": report.sharp_fails_below,
        "is_sharp": report.is_sharp,
        "tolerance": report.tolerance,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _nan_to_none(x: float) -> float | None:
    return None if isinstance(x, float) and math.isnan(x) else x
