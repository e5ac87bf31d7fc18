"""Benchmark of thetareg: one workload per process, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

(--workload all runs the three workloads one after another, each in its
own process.)

Run from the root of a source checkout; thetareg is imported from its
``src/`` directory and the benchmark exits with code 2 when that is
missing. A run

1. builds the workload's item list from the seed;
2. runs whole passes over the item list, one call into thetareg at a
   time, each followed by the reference routine of speed.py, until about
   S seconds have gone into calls and reference runs (and not before
   MIN_PASSES);
3. times SETUP_REPEATS fresh interpreters that import thetareg and parse
   those inputs, between items of the first MIN_PASSES passes (after one
   warm-up that also compiles bytecode), each of which then runs the
   reference routine itself;
4. scales every latency and set-up time to the reference machine's speed
   (speed.py), since that machine moves between fast and slow states;
5. checks every output (see workloads.py) after the timed loop.

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 one more pass over the item list runs under a span tracer and
the last line carries the per-layer metrics instead, so every per-layer
count describes one pass over the list, whatever the machine's speed.
Metric names and units come from BENCHMARK.json; lines before the last
one are a readable table with sample counts. Scratch files go to .perfbench_out/ in the checkout; spans
are written there as spans_<workload>_<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 6
SETUP_REF_S = 0.15       # reference routine run by each set-up interpreter
MIN_PASSES = {"spectrum_deep": 3, "collapse_sweep": 3, "scan_wide": 3}

_SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1]]
import thetareg
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import workloads
with open(sys.argv[4]) as fh:
    workloads.parse_inputs(sys.argv[3], json.load(fh))
t2 = time.perf_counter()
import speed
log = speed.SpeedLog()
log.sample(float(sys.argv[5]))
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1,
                  "ref_s": time.perf_counter() - t2,
                  "unit_s": log.unit_s(t0, t2)}))
"""


class SetupError(RuntimeError):
    """The checkout does not hold what the benchmark needs."""


class Raised(NamedTuple):
    """Result of an item whose call into thetareg raised."""

    traceback: str


class Done(NamedTuple):
    """One executed item: its result and the perf_counter interval of the call."""

    result: object
    start: float
    end: float


def load_catalog(root: Path) -> dict[str, dict[str, str]]:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    path = root / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
        return {kind: {m["name"]: m["unit"] for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SetupError(f"cannot read metric names from {path}: {exc}") from exc


def import_program(root: Path):
    src = root / "src"
    if not (src / "thetareg" / "__init__.py").is_file():
        raise SetupError(f"no thetareg package under {src}")
    sys.path.insert(0, str(src))
    import thetareg
    import thetareg.cli  # noqa: F401  (scan items call cli.main by attribute)
    if Path(thetareg.__file__).resolve().parent != (src / "thetareg").resolve():
        raise SetupError(f"thetareg imported from {thetareg.__file__}, not {src}")
    return thetareg


def setup_sample(root: Path, workload: str, inputs_path: Path) -> dict:
    """One fresh interpreter importing thetareg and parsing the inputs.

    Returns its wall time, the import and parse times it measured itself,
    and the reference routine's seconds per unit, which the interpreter
    measures afterwards, on its own core; that run is not in the wall time.
    """
    cmd = [sys.executable, "-c", _SETUP_CHILD, str(root / "src"),
           str(BENCH_DIR), workload, str(inputs_path), str(SETUP_REF_S)]
    # bytecode is cached, as for an installed package, whatever the caller's
    # environment says: the warm-up sample writes it, the timed ones read it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=120)
    t1 = time.perf_counter()
    if proc.returncode != 0:
        raise SetupError(f"setup interpreter failed:\n{proc.stderr}")
    sample = json.loads(proc.stdout)
    return dict(sample, wall_s=t1 - t0 - sample["ref_s"])


class Runner:
    """Runs and checks the items of one workload inside this process."""

    def __init__(self, workload: str, inputs: dict, work: Path):
        self.workload = workload
        self.items = workloads.item_list(workload, inputs)
        self.work = work
        self.js = workloads.block_scales(inputs)
        self.smooth_l2 = workloads.smooth_l2_table(max(self.js)) if self.js else {}
        self._oracle: dict[str, float | None] = {}
        self._serial = 0

    # -------------------------------------------------------------- run --

    def prepare(self, item):
        """Untimed set-up of one item: a scan gets its own config and dir."""
        if self.workload != "scan_wide":
            return item
        self._serial += 1
        out = self.work / f"item{self._serial:05d}"
        out.mkdir(parents=True)
        settings = "".join(f"{k} = {v}\n"
                           for k, v in workloads.SCAN_SETTINGS.items())
        (out / "scan.cfg").write_text(f"{settings}[times]\n{item}\n")
        return out

    def run_item(self, item):
        """One call into thetareg on a prepared item; returns what the
        check needs."""
        if self.workload == "spectrum_deep":
            from thetareg import besov, contfrac
            report = besov.classify_regularity(
                contfrac.parse_timespec(item), j_min=6, j_max=max(self.js),
                mode="both", oversample=8)
            return report, besov.report_to_json(report)
        if self.workload == "collapse_sweep":
            from thetareg import collapse
            return collapse.verify_collapse(*item)
        from thetareg import cli
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = cli.main(["scan", "--config", str(item / "scan.cfg"),
                           "--out", str(item / "out")])
        return rc, item / "out", err.getvalue()

    def attempt(self, item):
        """run_item, with an exception turned into a Raised result."""
        try:
            return self.run_item(item)
        except Exception:
            return Raised(traceback.format_exc(limit=4))

    def run_pass(self, tracer: spans.Tracer | None = None,
                 log: speed.SpeedLog | None = None, after_item=None
                 ) -> tuple[list[Done], float]:
        """One pass over the items, in order: ([Done], busy seconds).

        Only the call into thetareg is timed, not prepare(). With ``log``
        the reference routine runs after every item, for speed.SHARE of
        its latency; busy seconds are the calls plus those runs.
        ``after_item`` runs after that and counts as neither.
        """
        done = []
        busy = 0.0
        for item in self.items:
            prepared = self.prepare(item)
            span = tracer.open(spans.ITEM) if tracer else None
            t0 = time.perf_counter()
            result = self.attempt(prepared)
            t1 = time.perf_counter()
            if tracer:
                tracer.close(span)
            done.append(Done(result, t0, t1))
            if log:
                log.sample(speed.SHARE * (t1 - t0))
            busy += time.perf_counter() - t0
            if after_item:
                after_item()
        return done, busy

    def loop(self, seconds: float, min_passes: int, log: speed.SpeedLog,
             after_item=None) -> list[list[Done]]:
        """Whole passes until about ``seconds`` busy seconds have passed.

        From ``min_passes`` on, it stops at the first pass end from which
        going on would overshoot ``seconds`` by more than stopping
        undershoots it.
        """
        passes = []
        busy = 0.0
        while True:
            done, pass_s = self.run_pass(log=log, after_item=after_item)
            passes.append(done)
            busy += pass_s
            if len(passes) >= min_passes and busy + pass_s / 2 >= seconds:
                return passes

    # ------------------------------------------------------------ check --

    def oracle(self, text: str) -> float | None:
        if text not in self._oracle:
            self._oracle[text] = workloads.oracle_rough_sup(text)
        return self._oracle[text]

    def check(self, item, result) -> tuple[list[str], str | None]:
        """(failures, output digest or None) for one finished item."""
        if isinstance(result, Raised):
            return [f"{item}: raised\n{result.traceback}"], None
        if self.workload == "collapse_sweep":
            return workloads.check_collapse(result, *item), None
        if self.workload == "spectrum_deep":
            report, text = result
            try:
                doc = json.loads(text)
            except ValueError as exc:
                return [f"{item}: report_to_json is not JSON ({exc})"], None
            bad = workloads.check_report_doc(doc, item, self.js, self.smooth_l2,
                                             self.oracle(item), expect_sharp=True)
            if report.is_sharp is not True:
                bad.append(f"{item}: report.is_sharp = {report.is_sharp}")
            return bad, None
        rc, out, err = result
        if rc != 0:
            return [f"{item}: scan exited {rc}: {err.strip()}"], None
        return workloads.check_scan_dir(out, item, self.js, self.smooth_l2,
                                        self.oracle(item))

    def check_all(self, passes: list[list]) -> list[list[str]]:
        """Failures per executed item, pass after pass. A scan item must
        also write the same bytes in every pass as in its first."""
        verdicts = []
        first: dict[int, str] = {}
        for done in passes:
            for i, (item, run) in enumerate(zip(self.items, done)):
                bad, digest = self.check(item, run.result)
                if not bad and digest is not None:
                    if first.setdefault(i, digest) != digest:
                        bad = [f"{item}: repeated scan output differs from the first"]
                verdicts.append(bad)
        return verdicts


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, *,
        out: Path | None = None, sizes: dict | None = None,
        setup_repeats: int = SETUP_REPEATS, min_passes: int | None = None,
        ) -> tuple[dict, list[tuple[str, float, str, int]]]:
    """One benchmark run; returns (result object, table rows).

    The keyword arguments exist for the benchmark's own tests, which shrink
    the run; the command line always uses the defaults.
    """
    catalog = load_catalog(root)
    import_program(root)
    inputs = workloads.make_inputs(workload, seed, **(sizes or {}))
    base = out or root / ".perfbench_out"
    work = base / f"run{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs_path = work / "inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        runner = Runner(workload, inputs, work)
        min_passes = MIN_PASSES[workload] if min_passes is None else min_passes
        setup_sample(root, workload, inputs_path)  # also compiles bytecode
        log = speed.SpeedLog()
        log.sample(speed.SHARE)           # a speed reading before the first item
        setup: list[dict] = []
        items_done = 0
        spread = min_passes * len(runner.items)

        def sample_setup():
            # spread the samples evenly over the first min_passes passes,
            # so they meet the machine's fast and slow stretches alike
            nonlocal items_done
            items_done += 1
            while len(setup) < setup_repeats * min(items_done, spread) // spread:
                setup.append(setup_sample(root, workload, inputs_path))

        passes = runner.loop(seconds, min_passes, log, sample_setup)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = []
        if trace:
            tracer = spans.Tracer()
            with tracer:
                traced, _ = runner.run_pass(tracer)
            traced_s = sum(run.end - run.start for run in traced)
            spans.write_spans(base / f"spans_{workload}_{seed}.jsonl",
                              tracer.spans,
                              {"workload": workload, "seed": seed,
                               "items": len(traced), "wall_s": traced_s})
        verdicts = runner.check_all(passes + ([traced] if trace else []))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [bad for bad in verdicts if bad]
    attempted = len(verdicts)
    runs = [run for done in passes for run in done]
    scaled = [log.scale(run.start, run.end) for run in runs]
    ok_runs = sum(1 for bad in verdicts[:len(runs)] if not bad)
    n = len(runner.items)
    # an item's latency is the median of its scaled latencies over the passes
    per_item = [statistics.median(scaled[i::n]) for i in range(n)]
    # each set-up interpreter is scaled by its own reference run
    setup_scaled = [s["wall_s"] * speed.UNIT_S / s["unit_s"] for s in setup]
    values: dict[str, tuple[float, int]] = {
        "setup_s": (statistics.median(setup_scaled), len(setup)),
        "items_per_s": (ok_runs / sum(scaled), len(runs)),
        "item_p50_ms": (1000.0 * percentile(per_item, 50), n),
        "item_p90_ms": (1000.0 * percentile(per_item, 90), n),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    unit_ms = [1000.0 * log.unit_s(run.start, run.end) for run in runs]
    extra = {"fail_ratio": (len(failures) / attempted, attempted, "ratio"),
             "passes": (len(passes), len(runs), "count"),
             "timed_s": (sum(run.end - run.start for run in runs), len(runs), "s"),
             "reference_unit_ms": (statistics.median(unit_ms), len(runs), "ms")}
    kind = "end_to_end"
    if trace:
        kind = "per_layer"
        layer = spans.layer_metrics(tracer.spans)
        layer["trace.overhead_ratio"] = traced_s * len(passes) / extra["timed_s"][0]
        # the import and parse shares of each scaled set-up sample
        factor = [speed.UNIT_S / s["unit_s"] for s in setup]
        layer["setup.import_s"] = statistics.median(
            f * s["import_s"] for f, s in zip(factor, setup))
        layer["setup.parse_s"] = statistics.median(
            f * s["parse_s"] for f, s in zip(factor, setup))
        extra = {**{k: (*v, catalog["end_to_end"][k]) for k, v in values.items()
                    if k != "peak_rss_mb"},
                 **extra, "spans": (len(tracer.spans), len(traced), "count")}
        values = {k: (v, len(traced)) for k, v in layer.items()}
    units = catalog[kind]
    if set(values) != set(units):
        raise SetupError(f"computed {kind} metrics {sorted(set(values) ^ set(units))} "
                         "do not match BENCHMARK.json")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name][0], "unit": units[name]}
                    for name in units},
    }
    rows = [(name, values[name][0], units[name], values[name][1]) for name in units]
    rows += [(name, v, unit, cnt) for name, (v, cnt, unit) in extra.items()]
    for bad in failures[:5]:
        print("FAILED: " + "; ".join(bad)[:2000], file=sys.stderr)
    return result, rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"),
                    help="'all' runs every workload, each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in workloads.WORKLOADS]
        return max(codes)
    root = Path.cwd()
    try:
        result, rows = run(args.workload, args.seed, args.seconds,
                           bool(args.trace), root)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, value, unit, count in rows:
        print(f"  {name:<52} {value:>16.6g} {unit:<6} n={count}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
