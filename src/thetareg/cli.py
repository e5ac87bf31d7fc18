"""Command-line interface.

Subcommands:
  cf         continued-fraction expansion, Diophantine class, growth diagnostics
  blocks     dyadic block spectrum (CSV/JSON, optional SVG)
  exponent   fitted growth exponent vs the arithmetic prediction
  collapse   delta-comb identity check at rational times
  probe      comb-grid lower-bound check for one window
  stability  block sup at two certified-close times
  scan       batch blocks+exponent over a config file of times

Exit codes: 0 success, 2 bad input, 3 precision/budget refusal,
4 failed verification in --check mode.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .besov import (block_spectrum, classify_regularity, fit_exponent,
                    records_to_csv, report_to_json)
from .collapse import verify_collapse
from .contfrac import (KHINCHIN_LEVY, classify_sigma, khinchin_levy_diagnostic,
                       parse_timespec)
from .cutoff import rough_weights, smooth_weights, unit_window
from .errors import (AliasingError, BudgetError, DomainError, HypothesisError,
                     InsufficientPrecisionError, PrecisionExhaustedError,
                     ThetaError, VerificationError)
from .thetasum import rational_probe, stability_ratio

__all__ = ["main", "spectrum_svg", "read_config"]


# ---------------------------------------------------------------- svg --

_SVG_W, _SVG_H = 640, 420
_SVG_ML, _SVG_MR, _SVG_MT, _SVG_MB = 56, 16, 28, 44


def _svg_line(x1, y1, x2, y2, stroke, dash="", width=1.5) -> str:
    d = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="{width}"{d}/>')


def spectrum_svg(title: str, records, fit=None, pred_alpha: float | None = None) -> str:
    """Log2(sup) against j as a small self-contained SVG chart."""
    pts_rough = [(r.j, math.log2(r.rough_sup)) for r in records
                 if r.rough_sup and r.rough_sup > 0]
    pts_smooth = [(r.j, math.log2(r.smooth_sup)) for r in records
                  if r.smooth_sup and r.smooth_sup > 0]
    everything = pts_rough + pts_smooth
    if not everything:
        raise DomainError("nothing to plot")
    js = [p[0] for p in everything]
    ys = [p[1] for p in everything]
    j_lo, j_hi = min(js), max(js)
    y_lo, y_hi = math.floor(min(ys)), math.ceil(max(ys))
    if j_hi == j_lo:
        j_hi += 1
    if y_hi == y_lo:
        y_hi += 1
    plot_w = _SVG_W - _SVG_ML - _SVG_MR
    plot_h = _SVG_H - _SVG_MT - _SVG_MB

    def px(j: float) -> float:
        return _SVG_ML + (j - j_lo) / (j_hi - j_lo) * plot_w

    def py(y: float) -> float:
        return _SVG_MT + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_ML}" y="18" font-family="monospace" font-size="13">{title}</text>',
        _svg_line(_SVG_ML, py(y_lo), px(j_hi), py(y_lo), "#000", width=1.0),
        _svg_line(_SVG_ML, py(y_lo), _SVG_ML, py(y_hi), "#000", width=1.0),
    ]
    for j in range(j_lo, j_hi + 1):
        parts.append(_svg_line(px(j), py(y_lo), px(j), py(y_lo) + 4, "#000", width=1.0))
        parts.append(f'<text x="{px(j):.2f}" y="{py(y_lo) + 18:.2f}" font-size="11" '
                     f'font-family="monospace" text-anchor="middle">{j}</text>')
    step = max(1, (y_hi - y_lo) // 8)
    for y in range(y_lo, y_hi + 1, step):
        parts.append(_svg_line(_SVG_ML - 4, py(y), _SVG_ML, py(y), "#000", width=1.0))
        parts.append(f'<text x="{_SVG_ML - 8:.2f}" y="{py(y) + 4:.2f}" font-size="11" '
                     f'font-family="monospace" text-anchor="end">{y}</text>')
    parts.append(f'<text x="{_SVG_W / 2:.0f}" y="{_SVG_H - 8}" font-size="12" '
                 f'font-family="monospace" text-anchor="middle">block scale j</text>')
    parts.append(f'<text x="14" y="{_SVG_MT + plot_h / 2:.0f}" font-size="12" '
                 f'font-family="monospace" text-anchor="middle" '
                 f'transform="rotate(-90 14 {_SVG_MT + plot_h / 2:.0f})">log2 sup</text>')

    def series(pts, color, name, yoff):
        if not pts:
            return
        path = " ".join(f"{px(j):.2f},{py(y):.2f}" for j, y in pts)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        for j, y in pts:
            parts.append(f'<circle cx="{px(j):.2f}" cy="{py(y):.2f}" r="2.5" '
                         f'fill="{color}"/>')
        parts.append(f'<text x="{_SVG_W - _SVG_MR - 4}" y="{_SVG_MT + yoff}" '
                     f'font-size="11" font-family="monospace" text-anchor="end" '
                     f'fill="{color}">{name}</text>')

    series(pts_rough, "#1f77b4", "sharp block", 14)
    series(pts_smooth, "#d62728", "smooth block", 28)
    if fit is not None:
        xs = [j for j, _ in everything if j >= fit.tail_start] or [j_lo, j_hi]
        x1, x2 = min(xs), max(xs)
        y1 = fit.alpha_fit * x1 + fit.intercept
        y2 = fit.alpha_fit * x2 + fit.intercept
        parts.append(_svg_line(px(x1), py(y1), px(x2), py(y2), "#555", dash="6,4"))
        parts.append(f'<text x="{_SVG_W - _SVG_MR - 4}" y="{_SVG_MT + 42}" '
                     f'font-size="11" font-family="monospace" text-anchor="end" '
                     f'fill="#555">fit slope {fit.alpha_fit:.3f}</text>')
    if pred_alpha is not None and fit is not None:
        x1, x2 = j_lo, j_hi
        anchor = fit.alpha_fit * x1 + fit.intercept
        parts.append(_svg_line(px(x1), py(anchor), px(x2),
                               py(anchor + pred_alpha * (x2 - x1)),
                               "#2ca02c", dash="2,3"))
        parts.append(f'<text x="{_SVG_W - _SVG_MR - 4}" y="{_SVG_MT + 56}" '
                     f'font-size="11" font-family="monospace" text-anchor="end" '
                     f'fill="#2ca02c">predicted slope {pred_alpha:.3f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ------------------------------------------------------------- config --

def read_config(path: str) -> tuple[dict, list[str]]:
    """Flat key=value settings, then a [times] section, one spec per line."""
    settings: dict[str, str] = {}
    times: list[str] = []
    in_times = False
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower() == "[times]":
            in_times = True
            continue
        if in_times:
            times.append(line)
        else:
            if "=" not in line:
                raise DomainError(f"bad config line (want key = value): {raw!r}")
            key, _, val = line.partition("=")
            settings[key.strip()] = val.strip()
    if not times:
        raise DomainError("config has no [times] section (or it is empty)")
    return settings, times


# ----------------------------------------------------------- commands --

def _cmd_cf(args) -> int:
    spec = parse_timespec(args.t)
    exp = spec.expansion(max_terms=args.terms)
    convergents = exp.convergents()[:args.terms]
    digits = sys.get_int_max_str_digits()     # Python's int-to-str limit
    top = 10 ** digits if digits else math.inf
    fit = next((k for k, (a, (p, q)) in enumerate(zip(exp.quotients, convergents))
                if max(abs(a), abs(p), q) >= top), None)
    if fit is not None:
        raise BudgetError(f"term {fit + 1} has more than {digits} digits and "
                          f"cannot be printed; the first {fit} terms fit")
    est = classify_sigma(exp, window=args.window)
    doc = {
        "time": spec.describe(),
        "quotients": list(exp.quotients),
        "exact_terminates": exp.exact_terminates,
        "truncated": exp.truncated,
        "convergents": [[p, q] for p, q in convergents],
        "sigma": {
            "per_n": [[n, s] for n, s in est.per_n],
            "limsup_est": None if math.isnan(est.limsup_est) else est.limsup_est,
            "liminf_est": None if math.isnan(est.liminf_est) else est.liminf_est,
            "verdict": est.verdict,
        },
        "khinchin_levy": {
            "reference": KHINCHIN_LEVY,
            "per_n": [[n, v] for n, v in khinchin_levy_diagnostic(exp)],
        },
    }
    if getattr(spec, "center_expansion", None) is not None:
        doc["center_quotients"] = list(spec.center_expansion().quotients)
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    print(f"time        : {doc['time']}")
    print(f"quotients   : {doc['quotients']}"
          + (" (truncated)" if exp.truncated else ""))
    if "center_quotients" in doc:
        print(f"centre      : {doc['center_quotients']} (literal taken as exact)")
    tail = doc["convergents"][-8:]
    print("convergents : " + "  ".join(f"{p}/{q}" for p, q in tail))
    print(f"class       : {est.summary()}")
    if doc["khinchin_levy"]["per_n"]:
        last = doc["khinchin_levy"]["per_n"][-1]
        print(f"(ln q_n)/n  : {last[1]:.5f} at n = {last[0]} "
              f"(Khinchin-Levy reference {KHINCHIN_LEVY:.5f})")
    return 0


def _cmd_blocks(args) -> int:
    spec = parse_timespec(args.t)
    records = block_spectrum(spec, j_min=args.jmin, j_max=args.jmax,
                             mode=args.mode, oversample=args.oversample)
    csv_text = records_to_csv(records)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        base = outdir / f"blocks_{spec.slug()}"
        base.with_suffix(".csv").write_text(csv_text)
        written = [str(base.with_suffix(".csv"))]
        if args.svg:
            fit = None
            try:
                fit = fit_exponent(list(records), tail_start=args.tail_start)
            except DomainError:
                pass
            base.with_suffix(".svg").write_text(
                spectrum_svg(spec.describe(), records, fit=fit))
            written.append(str(base.with_suffix(".svg")))
        for w in written:
            print(w)
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_exponent(args) -> int:
    spec = parse_timespec(args.t)
    report = classify_regularity(spec, j_min=args.jmin, j_max=args.jmax,
                                 mode=args.mode, oversample=args.oversample,
                                 tail_start=args.tail_start,
                                 tolerance=args.tolerance)
    if args.format == "json":
        sys.stdout.write(report_to_json(report))
    else:
        print(f"time       : {report.time}")
        print(f"fit        : {report.fit.summary()}")
        print(f"prediction : {report.prediction.summary()}")
        if report.sigma is not None:
            print(f"class      : {report.sigma.verdict}")
        if report.burst_js:
            print(f"burst j    : {list(report.burst_js)}")
        print(f"sharp      : member={report.sharp_member} "
              f"reaches={report.sharp_fails_below} -> {report.is_sharp}")
    if args.check and not report.is_sharp:
        raise VerificationError(
            f"measured growth is not sharp against {report.prediction.summary()}")
    return 0


def _cmd_collapse(args) -> int:
    docs = []
    failures = []
    if args.sweep:
        qmax = args.sweep
        pairs = [(p, q) for q in range(1, qmax + 1)
                 for p in range(0, 2 * q) if math.gcd(p, q) == 1]
    else:
        spec = parse_timespec(args.t)
        val = spec.exact_value()
        if val is None:
            raise DomainError("collapse needs a rational time (rat: or dec:)")
        pairs = [(val.numerator, val.denominator)]
    for p, q in pairs:
        chk = verify_collapse(p, q)
        docs.append(chk.as_dict())
        if chk.max_residual > args.tol or chk.kappa_unimodular_defect > 1e-8:
            failures.append((p, q, chk.max_residual))
    if args.sweep:
        worst = max(docs, key=lambda d: d["max_residual"])
        summary = {
            "pairs_checked": len(docs),
            "worst_pair": [worst["p"], worst["q"]],
            "worst_residual": worst["max_residual"],
            "tolerance": args.tol,
            "failures": len(failures),
        }
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        print(json.dumps(docs[0], sort_keys=True, indent=2))
    if args.check and failures:
        raise VerificationError(
            f"{len(failures)} collapse pairings exceeded {args.tol}")
    return 0


def _cmd_probe(args) -> int:
    spec = parse_timespec(args.t)
    val = spec.exact_value()
    if val is None:
        raise DomainError("the comb probe needs a rational time")
    try:
        M, N = (int(v) for v in args.window.split(":"))
    except ValueError as exc:
        raise DomainError(f"--window wants M:N, got {args.window!r}") from exc
    if args.weights == "unit":
        w = unit_window(M, N)
    else:
        j = max(int(math.log2(max(N, 2))) - 1, 1)
        w = smooth_weights(j)
        if w.N > N or w.M < M:
            raise DomainError(
                f"smooth block j = {j} (support ({w.M}, {w.N})) does not fit "
                f"inside [{M}, {N}]")
    result = rational_probe(val.numerator, val.denominator, w, window=(M, N))
    doc = {
        "p": result.p, "q": result.q, "window": list(result.window),
        "weights": args.weights,
        "max_abs": result.max_abs,
        "argmax_x": f"{result.argmax_h}/{2 * result.q}",
        "floors": {name: v for name, v in result.floors},
        "floor_margin": result.floor_margin(),
        "satisfied": result.satisfied,
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    if args.check and not result.satisfied:
        raise VerificationError("measured comb maximum fell below a floor")
    return 0


def _cmd_stability(args) -> int:
    spec_a = parse_timespec(args.t)
    spec_b = parse_timespec(args.t1)
    w = smooth_weights(args.j) if args.weights == "smooth" else rough_weights(args.j)
    result = stability_ratio(spec_a, spec_b, w, k_bound=args.kbound,
                             oversample=args.oversample)
    doc = {
        "t": spec_a.describe(), "t1": spec_b.describe(), "j": args.j,
        "sup_t": result.sup_a, "sup_t1": result.sup_b, "ratio": result.ratio,
        "certified_bound": f"{result.bound.numerator}/{result.bound.denominator}",
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    if args.check and not (0.125 <= result.ratio <= 8.0):
        raise VerificationError(f"sup ratio {result.ratio:.4f} outside [1/8, 8]")
    return 0


def _cmd_scan(args) -> int:
    settings, times = read_config(args.config)
    out = Path(args.out or settings.get("out", "scan_out"))
    j_min = int(settings.get("j_min", 6))
    j_max = int(settings.get("j_max", 14))
    mode = settings.get("mode", "both")
    oversample = int(settings.get("oversample", 8))
    tail_start = int(settings.get("tail_start", 8))
    fmt = settings.get("format", "both")
    svg = settings.get("svg", "false").lower() in ("1", "true", "yes")
    if fmt not in ("csv", "json", "both"):
        raise DomainError(f"config format must be csv/json/both, got {fmt!r}")
    out.mkdir(parents=True, exist_ok=True)
    summary = []
    for text in times:
        spec = parse_timespec(text)
        report = classify_regularity(spec, j_min=j_min, j_max=j_max, mode=mode,
                                     oversample=oversample, tail_start=tail_start)
        base = out / spec.slug()
        if fmt in ("csv", "both"):
            base.with_suffix(".csv").write_text(records_to_csv(list(report.records)))
        if fmt in ("json", "both"):
            base.with_suffix(".json").write_text(report_to_json(report))
        if svg:
            base.with_suffix(".svg").write_text(
                spectrum_svg(report.time, report.records, fit=report.fit,
                             pred_alpha=report.prediction.alpha_hi))
        summary.append({
            "time": report.time,
            "alpha_fit": report.fit.alpha_fit,
            "alpha_limsup": report.fit.alpha_limsup,
            "prediction": report.prediction.summary(),
            "verdict": None if report.sigma is None else report.sigma.verdict,
            "is_sharp": report.is_sharp,
        })
        print(f"{report.time}: alpha_fit={report.fit.alpha_fit:.4f} "
              f"({report.prediction.summary()}) sharp={report.is_sharp}")
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(str(out / "summary.json"))
    return 0


# --------------------------------------------------------------- main --

def _positive(kind):
    """argparse type: a finite kind(text) > 0; nan, inf and signs are bad input."""
    def parse(text: str):
        val = kind(text)    # argparse reports a ValueError as bad input too
        if not (math.isfinite(val) and val > 0):
            raise argparse.ArgumentTypeError(f"want a finite number > 0, got {text!r}")
        return val
    parse.__name__ = kind.__name__
    return parse


def _nonnegative(text: str) -> float:
    """argparse type: 0, or what _positive(float) accepts."""
    return 0.0 if float(text) == 0 else _positive(float)(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="thetareg",
        description="Dyadic-block regularity of quadratic exponential sums")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_time(p):
        p.add_argument("--t", required=True,
                       help="time parameter: rat:p/q | quad:(a+b*sqrt(c))/d | "
                            "class:sigma=v,seed=a0,a1,.. | dec:0.414213")

    p = sub.add_parser("cf", help="continued fraction and Diophantine class")
    add_time(p)
    p.add_argument("--terms", type=_positive(int), default=24)
    p.add_argument("--window", type=_positive(int), default=8)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("blocks", help="dyadic block spectrum")
    add_time(p)
    p.add_argument("--jmin", type=int, default=6)
    p.add_argument("--jmax", type=int, default=14)
    p.add_argument("--mode", choices=("rough", "smooth", "both"), default="both")
    p.add_argument("--oversample", type=int, default=8)
    p.add_argument("--tail-start", type=int, default=8, dest="tail_start")
    p.add_argument("--out", default=None, help="directory for csv/svg output")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("exponent", help="fitted growth exponent vs prediction")
    add_time(p)
    p.add_argument("--jmin", type=int, default=6)
    p.add_argument("--jmax", type=int, default=16)
    p.add_argument("--mode", choices=("rough", "smooth", "both"), default="both")
    p.add_argument("--oversample", type=int, default=8)
    p.add_argument("--tail-start", type=int, default=8, dest="tail_start")
    p.add_argument("--tolerance", type=_nonnegative, default=0.1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("collapse", help="delta-comb identity at rational t")
    p.add_argument("--t", default=None)
    p.add_argument("--sweep", type=_positive(int), default=None,
                   help="check every p/q with q <= SWEEP instead of one time")
    p.add_argument("--tol", type=_positive(float), default=1e-7)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=_cmd_collapse)

    p = sub.add_parser("probe", help="comb-grid floors for one window")
    add_time(p)
    p.add_argument("--window", required=True, help="M:N")
    p.add_argument("--weights", choices=("unit", "smooth"), default="unit")
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("stability", help="block sup at two certified-close times")
    add_time(p)
    p.add_argument("--t1", required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--weights", choices=("rough", "smooth"), default="smooth")
    p.add_argument("--kbound", type=_positive(float), default=1.0)
    p.add_argument("--oversample", type=int, default=8)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("scan", help="batch spectra over a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config's out dir")
    p.set_defaults(func=_cmd_scan)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "collapse" and not args.sweep and not args.t:
        parser.error("collapse needs --t or --sweep")
    try:
        return int(args.func(args) or 0)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 4
    except (InsufficientPrecisionError, PrecisionExhaustedError,
            BudgetError, AliasingError, HypothesisError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ThetaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
