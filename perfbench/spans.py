"""Span tracing of thetareg's public functions, installed from outside.

A Tracer replaces each listed function with a wrapper wherever callers
look it up: the defining module, every other thetareg module that bound
the same object by ``from .x import name``, and, for methods, the class
(every class of the module that defines the method, for ``*.name``).
Each wrapped call appends one span (name, start, end, parent, info) to an
in-memory list; ``info`` holds what a hook derived from the call's
arguments and return value. Counter targets only count calls, charged to
the enclosing span (the benchmark wraps every item in one), which keeps
very hot callables cheap to observe.

Nothing is written while tracing: ``write_spans`` dumps the list to its
own file after the run, so the program's result files stay untouched.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# span name -> (module, attribute); "Class.method" wraps a method and
# "*.method" wraps it on every class of the module that defines it.
SPAN_TARGETS = {
    "exactnum.rational_phase_array": ("exactnum", "rational_phase_array"),
    "exactnum.quadratic_phase_array": ("exactnum", "quadratic_phase_array"),
    "exactnum.linear_phase_array": ("exactnum", "linear_phase_array"),
    "exactnum.fixed_of_time": ("exactnum", "fixed_of_time"),
    "contfrac.parse_timespec": ("contfrac", "parse_timespec"),
    "contfrac.expansion": ("contfrac", "*.expansion"),
    "contfrac.classify_sigma": ("contfrac", "classify_sigma"),
    "contfrac.expand_rational": ("contfrac", "expand_rational"),
    "cutoff.rough_weights": ("cutoff", "rough_weights"),
    "cutoff.smooth_weights": ("cutoff", "smooth_weights"),
    "thetasum.coefficient_arrays": ("thetasum", "SumSpec.coefficient_arrays"),
    "thetasum.eval_sum": ("thetasum", "eval_sum"),
    "thetasum.grid_values": ("thetasum", "grid_values"),
    "thetasum.sup_norm": ("thetasum", "sup_norm"),
    "thetasum.rational_probe": ("thetasum", "rational_probe"),
    "thetasum.merged_block_sup": ("thetasum", "merged_block_sup"),
    "besov.block_spectrum": ("besov", "block_spectrum"),
    "besov.fit_exponent": ("besov", "fit_exponent"),
    "besov.classify_regularity": ("besov", "classify_regularity"),
    "besov.report_to_json": ("besov", "report_to_json"),
    "besov.records_to_csv": ("besov", "records_to_csv"),
    "collapse.comb_of": ("collapse", "comb_of"),
    "collapse.phase_fraction": ("collapse", "CombFormula.phase_fraction"),
    "collapse.lhs_pairing": ("collapse", "lhs_pairing"),
    "collapse.rhs_pairing": ("collapse", "rhs_pairing"),
    "collapse.extract_kappa": ("collapse", "extract_kappa"),
    "collapse.verify_collapse": ("collapse", "verify_collapse"),
    "cli.main": ("cli", "main"),
}

COUNTER_TARGETS = {
    "collapse.gaussian_evals": ("collapse", "PeriodizedGaussian.__call__"),
    # the per-element Fraction route of rational_phase_array
    "exactnum.rational_phase": ("exactnum", "rational_phase"),
}

PACKAGE = "thetareg"
ITEM = "bench.item"


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# Per-call hooks: (args, kwargs, return value) -> info kept on the span.
HOOKS = {
    "thetasum.grid_values": lambda a, k, r: {"K": int(_arg(a, k, 1, "K"))},
    "thetasum.sup_norm": lambda a, k, r: {"value": r.value,
                                          "gain": r.refinement_gain},
    "thetasum.rational_probe": lambda a, k, r: {
        "q": int(_arg(a, k, 1, "q")), "max_abs": r.max_abs},
    "exactnum.rational_phase_array": lambda a, k, r: {"elements": int(r.size)},
    "exactnum.quadratic_phase_array": lambda a, k, r: {"elements": int(r[0].size)},
    "besov.block_spectrum": lambda a, k, r: {"blocks": len(r)},
    "besov.classify_regularity": lambda a, k, r: {
        "burst_blocks": sum(1 for rec in r.records if rec.j in r.burst_js)},
    "collapse.verify_collapse": lambda a, k, r: {"checked": len(r.residuals)},
}


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, info]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------- recording --

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                ret = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                info = hook(args, kwargs, ret)
                if self.spans[idx][4]:
                    info.update(self.spans[idx][4])
                self.spans[idx][4] = info
            return ret
        return wrapper

    def _counter_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                rec = self.spans[self._stack[-1]]
                if rec[4] is None:
                    rec[4] = {}
                rec[4][name] = rec[4].get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # ---------------------------------------------------- installation --

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _install_one(self, name, module_name, attr, make) -> None:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            if cls_name == "*":
                classes = [c for c in vars(module).values()
                           if isinstance(c, type)
                           and c.__module__ == module.__name__
                           and meth in c.__dict__]
            else:
                classes = [getattr(module, cls_name)]
            if not classes:
                raise LookupError(f"no class in {module.__name__} defines {meth}")
            for cls in classes:
                self._set(cls, meth, make(name, cls.__dict__[meth]))
            return
        orig = getattr(module, attr)
        wrapped = make(name, orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapped)

    def install(self) -> None:
        """Wrap every target; undone by ``uninstall``."""
        try:
            for name, (module_name, attr) in SPAN_TARGETS.items():
                self._install_one(name, module_name, attr, self._span_wrapper)
            for name, (module_name, attr) in COUNTER_TARGETS.items():
                self._install_one(name, module_name, attr, self._counter_wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ----------------------------------------------------------- analysis --

def self_times(spans) -> list[float]:
    """Per span: duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and
    do not overlap; their durations sum to the part of the parent they
    cover.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics derived from spans and the info they carry."""
    own = self_times(spans)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    incl: Counter = Counter()
    for s, o in zip(spans, own):
        calls[s[0]] += 1
        self_s[s[0]] += o
        incl[s[0]] += s[2] - s[1]

    def infos(name):
        return [s[4] or {} for s in spans if s[0] == name]

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for name in SPAN_TARGETS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]

    sups = infos("thetasum.sup_norm")
    out["thetasum.refine_share"] = ratio(incl["thetasum.eval_sum"],
                                         incl["thetasum.sup_norm"])
    out["thetasum.refine_useful_ratio"] = ratio(
        sum(1 for i in sups if i.get("gain", 1.0) > 1.0), len(sups))
    out["thetasum.refine_gain_max"] = max((i["gain"] for i in sups if "gain" in i),
                                          default=0.0)
    points = sum(i.get("K", 0) for i in infos("thetasum.grid_values"))
    out["thetasum.grid_values.points"] = points
    out["thetasum.grid_values.bytes_computed"] = 16 * points
    out["thetasum.rational_probe.probe_points"] = sum(
        2 * i.get("q", 0) for i in infos("thetasum.rational_probe"))

    children: dict[int, list[int]] = {}
    for idx, s in enumerate(spans):
        children.setdefault(s[3], []).append(idx)
    probed = wins = 0
    for idx, s in enumerate(spans):
        if s[0] != "thetasum.merged_block_sup":
            continue
        kids = {spans[c][0]: spans[c][4] or {} for c in children.get(idx, ())}
        probe = kids.get("thetasum.rational_probe")
        sup = kids.get("thetasum.sup_norm")
        if probe and sup and "max_abs" in probe and "value" in sup:
            probed += 1
            wins += probe["max_abs"] > sup["value"]
    out["thetasum.probe_wins_ratio"] = ratio(wins, probed)

    rpa = infos("exactnum.rational_phase_array")
    out["exactnum.rational_phase_array.elements"] = sum(
        i.get("elements", 0) for i in rpa)
    out["exactnum.rational_phase_array.fallback_elements"] = sum(
        i.get("exactnum.rational_phase", 0) for i in rpa)
    out["exactnum.quadratic_phase_array.elements"] = sum(
        i.get("elements", 0) for i in infos("exactnum.quadratic_phase_array"))

    out["collapse.gaussian_evals"] = sum(
        (s[4] or {}).get("collapse.gaussian_evals", 0) for s in spans)
    out["collapse.pairing_useful_ratio"] = ratio(
        sum(i.get("checked", 0) for i in infos("collapse.verify_collapse")),
        calls["collapse.lhs_pairing"])
    out["collapse.rhs_share"] = ratio(incl["collapse.rhs_pairing"],
                                      incl["collapse.verify_collapse"])
    out["besov.blocks"] = sum(i.get("blocks", 0)
                              for i in infos("besov.block_spectrum"))
    out["besov.burst_blocks"] = sum(i.get("burst_blocks", 0)
                                    for i in infos("besov.classify_regularity"))
    return out


def write_spans(path, spans, meta: dict) -> None:
    """A JSON header line, then one [name, start, end, parent, item] per span.

    ``name`` indexes the header's "names" list; ``item`` is the index of
    the enclosing benchmark item span, so the spans of one item share it.
    """
    names = sorted({s[0] for s in spans})
    code = {name: i for i, name in enumerate(names)}
    item = [-1] * len(spans)
    for idx, s in enumerate(spans):
        if s[0] == ITEM:
            item[idx] = idx
        elif s[3] >= 0:
            item[idx] = item[s[3]]
    with open(path, "w") as fh:
        fh.write(json.dumps(dict(meta, names=names), sort_keys=True) + "\n")
        for idx, s in enumerate(spans):
            fh.write(f"[{code[s[0]]},{s[1]:.7f},{s[2]:.7f},{s[3]},{item[idx]}]\n")
