"""Seeded inputs and output checks for the three workloads.

Each workload turns a seed into a list of items of comparable cost (same
kinds in the same proportions, same scales, same q ceiling). run.py makes
one call into thetareg per item; the checks here hold for any correct
implementation:

* every reported block sup is at least the block's l2 norm: the mean of
  |S|^2 over an unaliased grid equals sum w_n^2 (discrete Parseval), so the
  grid maximum is at least the RMS;
* at j = 6 the sharp-block sup is compared with an independent fine-grid
  evaluation (exact rational or 80-digit decimal phases, plain numpy
  FFT). It may not exceed it by more than SUP_SLACK (0.3%), and may fall
  below it only as far as a grid maximum can: by Bernstein's inequality
  applied to |S|^2, a trigonometric polynomial of degree 2N, the maximum
  over K points is at least the sup times sqrt(1 - 2 pi^2 N^2 / K^2),
  with K >= 8(2N+1) at the oversampling the workloads use. So the grid
  maximum alone, or any certified bracket end below the sup, passes;
* comb-probe floors hold on rational blocks (probe_satisfied);
* spectrum_deep verdicts are sharp, as ``exponent --check`` requires;
* collapse pairs pass the gates of ``collapse --check``;
* scan output files repeat byte for byte (acceptance criterion 11).

thetareg itself is imported lazily, so this module loads without it.
"""

from __future__ import annotations

import decimal
import hashlib
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("spectrum_deep", "collapse_sweep", "scan_wide")

SUP_SLACK = 0.003
ORACLE_J = 6
COLLAPSE_RESIDUAL_TOL = 1e-7       # collapse --tol default
COLLAPSE_UNIMODULAR_TOL = 1e-8     # collapse --check gate
COLLAPSE_EIGHTH_ROOT_TOL = 1e-7    # acceptance criterion 6

# Bounded-quotient quadratic irrationals (partial quotients <= 2), each
# checked to give a sharp alpha = 1/2 verdict over j = 6..16 and 6..17.
SPECTRUM_QUADS = (
    (1, 1, 5, 2),      # golden mean
    (-1, 1, 5, 2),
    (0, 1, 2, 1),
    (-1, 1, 2, 1),
    (1, 1, 3, 2),
    (0, 1, 3, 1),
    (2, 1, 10, 3),
)
SPECTRUM_FIXED = ("rat:1/3", "class:sigma=1,seed=0,1")   # bursts at j = 8, 15
SPECTRUM_J_MAX = 16
COLLAPSE_Q_MAX = 25
SCAN_ITEMS = 36
SCAN_Q_MAX = 10 ** 4
SCAN_DIGITS = (20, 40)
SCAN_SETTINGS = {"j_min": 6, "j_max": 11, "tail_start": 7, "mode": "both",
                 "oversample": 8, "format": "both", "svg": "true"}

_QUAD_TEXT = re.compile(r"quad:\((-?\d+)([+-]\d+)\*sqrt\((\d+)\)\)/(\d+)")


def quad_text(a: int, b: int, c: int, d: int) -> str:
    return f"quad:({a}{b:+d}*sqrt({c}))/{d}"


# ------------------------------------------------------------- inputs --

def make_inputs(workload: str, seed: int, **sizes) -> dict:
    """The workload's inputs for one seed; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "spectrum_deep":
        times = [quad_text(*rng.choice(SPECTRUM_QUADS)), *SPECTRUM_FIXED]
        rng.shuffle(times)
        return {"times": times,
                "j_max": sizes.get("j_max", SPECTRUM_J_MAX)}
    if workload == "collapse_sweep":
        q_max = sizes.get("q_max", COLLAPSE_Q_MAX)
        pairs = [[p, q] for q in range(1, q_max + 1) for p in range(2 * q)
                 if math.gcd(p, q) == 1]
        rng.shuffle(pairs)
        return {"pairs": pairs}
    if workload == "scan_wide":
        count = sizes.get("count", SCAN_ITEMS)
        makers = (_scan_rational, _scan_quadratic, _scan_decimal)
        # kinds interleave in equal shares
        return {"times": [makers[i % 3](rng) for i in range(count)],
                "j_max": SCAN_SETTINGS["j_max"]}
    raise ValueError(f"unknown workload {workload!r}")


def _scan_rational(rng: random.Random) -> str:
    while True:
        q = round(10 ** rng.uniform(math.log10(2), math.log10(SCAN_Q_MAX)))
        p = rng.randrange(2 * q)
        if math.gcd(p, q) == 1:
            return f"rat:{p}/{q}"


def _scan_quadratic(rng: random.Random) -> str:
    while True:
        c = rng.randrange(2, 100)
        if math.isqrt(c) ** 2 != c:
            return quad_text(rng.randrange(-9, 10), rng.choice((1, -1, 2)), c,
                             rng.randrange(1, 10))


def _scan_decimal(rng: random.Random) -> str:
    n = rng.randint(*SCAN_DIGITS)
    digits = "".join(str(rng.randrange(10)) for _ in range(n - 1))
    return f"dec:{rng.randrange(2)}.{digits}{rng.randrange(1, 10)}"


def item_list(workload: str, inputs: dict) -> list:
    return inputs["pairs"] if workload == "collapse_sweep" else inputs["times"]


def parse_inputs(workload: str, inputs: dict) -> list:
    """Parse every input the way the program's front end does."""
    from thetareg.contfrac import parse_timespec
    if workload == "collapse_sweep":
        return [parse_timespec(f"rat:{p}/{q}") for p, q in inputs["pairs"]]
    return [parse_timespec(t) for t in inputs["times"]]


def block_scales(inputs: dict) -> range:
    """Scales every report of the workload must contain (empty without reports)."""
    return range(6, inputs.get("j_max", 0) + 1)


# ------------------------------------------------------------- oracle --

def half_phases(text: str, n: np.ndarray) -> np.ndarray | None:
    """(n^2 t/2) mod 1 for time spec text, computed without thetareg.

    Exact for rat: and dec:, 80 significant digits for quad:; None for a
    kind whose value the benchmark does not know independently.
    """
    kind, _, rest = text.partition(":")
    if kind in ("rat", "dec"):
        t = Fraction(rest.replace(" ", ""))
        den = 2 * t.denominator
        return np.array([(int(k) ** 2 * t.numerator) % den / den for k in n])
    m = _QUAD_TEXT.fullmatch(text)
    if kind == "quad" and m:
        a, b, c, d = (int(g) for g in m.groups())
        ctx = decimal.Context(prec=80)
        half = ctx.divide(ctx.add(a, ctx.multiply(b, ctx.sqrt(c))), 2 * d)
        out = []
        for k in n:
            x = ctx.multiply(int(k) ** 2, half)
            out.append(float(ctx.subtract(
                x, x.to_integral_value(rounding=decimal.ROUND_FLOOR))))
        return np.array(out)
    return None


def oracle_rough_sup(text: str) -> float | None:
    """max |S| of the sharp block j = ORACLE_J on a 2^15 grid, by one plain FFT.

    The grid is 128 times finer than the polynomial degree needs, so its
    maximum is within 2e-4 of the true sup.
    """
    lo, hi = 2 ** (ORACLE_J - 1) + 1, 2 ** (ORACLE_J + 1)
    n = np.arange(lo, hi + 1)
    ph = half_phases(text, n)
    if ph is None:
        return None
    K = 1 << 15
    coef = np.exp(2j * np.pi * ph)
    buf = np.zeros(K, dtype=np.complex128)
    buf[n] = coef
    buf[K - n] = coef
    return float(np.max(np.abs(np.fft.ifft(buf) * K)))


# ------------------------------------------------------------- checks --

def grid_floor(N: int) -> float:
    """Least possible (max over the sup_norm grid) / sup for degree N, at
    the oversampling of 8 that every workload uses."""
    K = 8 * (2 * N + 1)
    return math.sqrt(1.0 - 2.0 * math.pi ** 2 * N ** 2 / K ** 2)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_report_doc(doc: dict, text: str, js: range, smooth_l2: dict,
                     oracle: float | None, expect_sharp: bool) -> list[str]:
    """Failures found in one report_to_json document."""
    bad: list[str] = []
    records = doc.get("records") or []
    seen = {r.get("j") for r in records}
    missing = [j for j in js if j not in seen]
    if missing:
        bad.append(f"{text}: no block at j = {missing}")
    rational = text.startswith("rat:")
    for r in records:
        j = r.get("j")
        l2 = math.sqrt(3 * 2 ** j)
        if not _finite(r.get("l2_exact")) or abs(r["l2_exact"] - l2) > 1e-9 * l2:
            bad.append(f"{text} j={j}: l2_exact {r.get('l2_exact')} != {l2}")
        for key, floor in (("rough_sup", l2), ("smooth_sup", smooth_l2.get(j))):
            sup = r.get(key)
            if not _finite(sup):
                bad.append(f"{text} j={j}: {key} = {sup!r}")
            elif floor is not None and sup < floor * (1 - 1e-9):
                bad.append(f"{text} j={j}: {key} {sup} below l2 {floor}")
        if rational and r.get("probe_satisfied") is not True:
            bad.append(f"{text} j={j}: probe_satisfied = {r.get('probe_satisfied')}")
        if j == ORACLE_J and oracle is not None and _finite(r.get("rough_sup")):
            lo, hi = oracle * grid_floor(2 ** (j + 1)), oracle * (1 + SUP_SLACK)
            if not lo <= r["rough_sup"] <= hi:
                bad.append(f"{text} j={j}: rough_sup {r['rough_sup']} outside "
                           f"[{lo}, {hi}] around the oracle's {oracle}")
    if expect_sharp and doc.get("is_sharp") is not True:
        bad.append(f"{text}: verdict not sharp (is_sharp = {doc.get('is_sharp')})")
    return bad


def check_collapse(chk, p: int, q: int) -> list[str]:
    """Failures found in one CollapseCheck (the collapse --check gates)."""
    bad: list[str] = []
    where = f"{p}/{q}"
    if (chk.p, chk.q) != (p % (2 * q), q):
        bad.append(f"{where}: checked {chk.p}/{chk.q} instead")
    values = [v for _, v in chk.residuals]
    if not values or not all(_finite(v) for v in values):
        bad.append(f"{where}: residuals {values}")
    elif chk.max_residual != max(values):
        bad.append(f"{where}: max_residual {chk.max_residual} != max {max(values)}")
    if not chk.max_residual <= COLLAPSE_RESIDUAL_TOL:
        bad.append(f"{where}: max_residual {chk.max_residual}")
    if not chk.kappa_unimodular_defect <= COLLAPSE_UNIMODULAR_TOL:
        bad.append(f"{where}: ||kappa|-1| = {chk.kappa_unimodular_defect}")
    if not chk.kappa_eighth_root_defect <= COLLAPSE_EIGHTH_ROOT_TOL:
        bad.append(f"{where}: |kappa^8-1| = {chk.kappa_eighth_root_defect}")
    return bad


def check_scan_dir(out: Path, text: str, js: range, smooth_l2: dict,
                   oracle: float | None) -> tuple[list[str], str]:
    """(failures, digest of every output file) for one scan output dir."""
    files = sorted(p for p in out.iterdir() if p.is_file())
    by_suffix: dict[str, list[Path]] = {}
    for f in files:
        by_suffix.setdefault(f.suffix, []).append(f)
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    reports = [f for f in by_suffix.get(".json", []) if f.name != "summary.json"]
    if len(reports) != 1 or len(by_suffix.get(".csv", [])) != 1 \
            or len(by_suffix.get(".svg", [])) != 1 \
            or not (out / "summary.json").is_file():
        return [f"{text}: unexpected output files {[f.name for f in files]}"], \
            digest.hexdigest()
    try:
        doc = json.loads(reports[0].read_text())
        summary = json.loads((out / "summary.json").read_text())
    except ValueError as exc:
        return [f"{text}: unreadable JSON ({exc})"], digest.hexdigest()
    bad = check_report_doc(doc, text, js, smooth_l2, oracle, expect_sharp=False)
    rows = by_suffix[".csv"][0].read_text().splitlines()
    if len(rows) != len(doc.get("records", [])) + 1:
        bad.append(f"{text}: csv has {len(rows)} lines for "
                   f"{len(doc.get('records', []))} records")
    svg = by_suffix[".svg"][0].read_text()
    if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
        bad.append(f"{text}: svg is not a complete document")
    if not (isinstance(summary, list) and len(summary) == 1
            and summary[0].get("alpha_fit") == doc.get("fit", {}).get("alpha_fit")):
        bad.append(f"{text}: summary.json disagrees with the report")
    return bad, digest.hexdigest()


def smooth_l2_table(j_max: int) -> dict[int, float]:
    """sqrt(sum w_n^2) of each smooth block, the floor of its sup."""
    from thetareg.cutoff import smooth_weights
    return {j: math.sqrt(smooth_weights(j).l2_squared()) for j in range(j_max + 1)}
