"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests

They check that every metric BENCHMARK.json names is emitted with its
unit, that corrupted program output is counted as failed rather than
passing, that inputs depend on the seed alone, and that the tracer puts
every function back.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run as bench  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "spectrum_deep": {"j_max": 12},
    "collapse_sweep": {"q_max": 4},
    "scan_wide": {"count": 3},
}


def tiny_run(workload, tmp_path, trace=False, seed=3, min_passes=1):
    return bench.run(workload, seed, 0.01, trace, ROOT, out=tmp_path,
                     sizes=TINY[workload], setup_repeats=1,
                     min_passes=min_passes)


def catalog():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result, rows = tiny_run(workload, tmp_path, trace)
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in catalog()[kind]}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
        assert math.isfinite(value["value"]), name
    assert {r[0] for r in rows} >= set(expected)
    assert all(r[3] >= 1 for r in rows)          # every row has a sample count
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        collapse_calls = sum(v for k, v in m.items()
                             if k.startswith("collapse.") and k.endswith(".calls"))
        assert (collapse_calls > 0) == (workload == "collapse_sweep")
        if workload == "spectrum_deep":
            assert 0.5 < m["thetasum.refine_share"] <= 1.0
        if workload == "collapse_sweep":
            assert m["collapse.pairing_useful_ratio"] == pytest.approx(6 / 7)
        assert list(tmp_path.glob(f"spans_{workload}_3.jsonl"))


def test_end_to_end_metrics_are_never_zero(tmp_path):
    result, _ = tiny_run("collapse_sweep", tmp_path)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_collapse_residual_counts_as_failed(tmp_path, monkeypatch):
    from thetareg import collapse
    real = collapse.verify_collapse

    def perturbed(p, q, phis=None):
        chk = real(p, q, phis)
        return dataclasses.replace(chk, max_residual=chk.max_residual + 1e-6)

    monkeypatch.setattr(collapse, "verify_collapse", perturbed)
    result, rows = tiny_run("collapse_sweep", tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert dict((r[0], r[1]) for r in rows)["fail_ratio"] == 1.0


def test_sup_below_l2_counts_as_failed(tmp_path, monkeypatch):
    from thetareg import besov
    real = besov.report_to_json

    def scaled(report):
        doc = json.loads(real(report))
        rec = doc["records"][-1]
        rec["rough_sup"] = 0.5 * rec["l2_exact"]
        return json.dumps(doc)

    monkeypatch.setattr(besov, "report_to_json", scaled)
    result, _ = tiny_run("spectrum_deep", tmp_path)
    assert result["failed"] == result["attempted"] == 3


def test_changed_scan_output_counts_as_failed(tmp_path, monkeypatch):
    from thetareg import cli
    real = cli.records_to_csv
    calls = []

    def drifting(records):
        calls.append(1)
        return real(records).replace("\n", " " * len(calls) + "\n", 1)

    monkeypatch.setattr(cli, "records_to_csv", drifting)
    result, _ = tiny_run("scan_wide", tmp_path, min_passes=2)
    # the first pass sets each item's reference bytes; the second differs
    assert (result["attempted"], result["failed"]) == (6, 3)


def test_traced_counts_do_not_depend_on_run_length(tmp_path):
    short, _ = tiny_run("collapse_sweep", tmp_path, trace=True)
    long, rows = tiny_run("collapse_sweep", tmp_path, trace=True, min_passes=4)
    assert dict((r[0], r[1]) for r in rows)["passes"] == 4

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] == "count"}
    assert counts(short) == counts(long)
    assert counts(short)["collapse.verify_collapse.calls"] == len(
        workloads.make_inputs("collapse_sweep", 3, **TINY["collapse_sweep"])["pairs"])


def test_speed_scales_by_the_reference_samples_near_an_interval():
    log = speed.SpeedLog()
    log.record(0.0, 0.1, 10)       # 0.01 s per unit
    log.record(5.0, 5.2, 10)       # 0.02 s per unit
    log.record(5.3, 5.4, 10)       # 0.01 s per unit
    # the nearest sample on each side counts, however far away
    assert log.unit_s(0.1, 0.2) == pytest.approx(0.3 / 20)
    # every sample within WINDOW_S counts, and none further away
    assert log.unit_s(5.2, 5.3) == pytest.approx(0.3 / 20)
    assert log.unit_s(6.5, 6.6) == pytest.approx(0.1 / 10)
    assert log.scale(5.2, 5.3) == pytest.approx(0.1 * speed.UNIT_S / 0.015)


def test_a_slower_machine_reads_the_same():
    """Latencies and reference units that both take twice as long scale
    to the same value."""
    fast, slow = speed.SpeedLog(), speed.SpeedLog()
    fast.record(0.0, 0.1, 50)
    fast.record(0.3, 0.4, 50)
    slow.record(0.0, 0.2, 50)
    slow.record(0.6, 0.8, 50)
    assert fast.scale(0.1, 0.3) == pytest.approx(slow.scale(0.2, 0.6))


@pytest.fixture(scope="module")
def golden_doc():
    from thetareg import besov, contfrac
    report = besov.classify_regularity(
        contfrac.parse_timespec(workloads.quad_text(1, 1, 5, 2)), j_max=12)
    return json.loads(besov.report_to_json(report))


def check(doc):
    text = workloads.quad_text(1, 1, 5, 2)
    return workloads.check_report_doc(
        doc, text, range(6, 13), workloads.smooth_l2_table(12),
        workloads.oracle_rough_sup(text), expect_sharp=True)


def test_report_checks_pass_on_real_output(golden_doc):
    assert check(golden_doc) == []


@pytest.mark.parametrize("field, factor, ok", [
    ("rough_sup", 1.002, True),     # within the 0.3% allowance
    ("rough_sup", 0.99, True),      # a grid maximum may sit this low
    ("rough_sup", 1.01, False),     # above the sup by more than 0.3%
    ("rough_sup", 0.9, False),      # below what any K >= 8(2N+1) grid gives
    ("smooth_sup", 0.1, False),     # below the smooth block's l2 norm
])
def test_report_checks_bound_the_j6_sup(golden_doc, field, factor, ok):
    doc = json.loads(json.dumps(golden_doc))
    rec = next(r for r in doc["records"] if r["j"] == 6)
    rec[field] *= factor
    assert (check(doc) == []) == ok


def test_report_checks_catch_verdict_and_missing_scale(golden_doc):
    doc = json.loads(json.dumps(golden_doc))
    doc["is_sharp"] = False
    doc["records"] = [r for r in doc["records"] if r["j"] != 9]
    bad = check(doc)
    assert any("not sharp" in b for b in bad)
    assert any("j = [9]" in b for b in bad)


def test_oracle_matches_the_dense_program_grid():
    from thetareg.contfrac import parse_timespec
    from thetareg.cutoff import rough_weights
    from thetareg.thetasum import SumSpec, grid_values
    for text in ("rat:1/3", "rat:7/9973", workloads.quad_text(0, 1, 2, 1),
                 "dec:0.1676610981451138367041064603464332723747"):
        spec = SumSpec(parse_timespec(text), rough_weights(6))
        dense = float(abs(grid_values(spec, 1 << 15)).max())
        assert workloads.oracle_rough_sup(text) == pytest.approx(dense, rel=1e-9)


def test_inputs_depend_on_the_seed_alone():
    for w in workloads.WORKLOADS:
        assert workloads.make_inputs(w, 5) == workloads.make_inputs(w, 5)
        assert workloads.make_inputs(w, 5) != workloads.make_inputs(w, 6)
    spec = workloads.make_inputs("spectrum_deep", 5)["times"]
    assert sorted(t.split(":")[0] for t in spec) == ["class", "quad", "rat"]
    pairs = workloads.make_inputs("collapse_sweep", 5)["pairs"]
    assert sorted(map(tuple, pairs)) == sorted(
        (p, q) for q in range(1, 26) for p in range(2 * q) if math.gcd(p, q) == 1)
    times = workloads.make_inputs("scan_wide", 5)["times"]
    for i in range(0, len(times) - 2, 3):
        assert [t.split(":")[0] for t in times[i:i + 3]] == ["rat", "quad", "dec"]
    for t in times:
        if t.startswith("rat:"):
            assert 2 <= int(t.split("/")[1]) <= 10 ** 4
        if t.startswith("dec:"):
            assert 20 <= len(t.split(".")[1]) <= 40


def test_tracer_restores_every_binding_and_nests_spans():
    import thetareg
    from thetareg import besov, collapse, thetasum
    before = (thetasum.merged_block_sup, besov.merged_block_sup,
              thetareg.eval_sum, collapse.PeriodizedGaussian.__call__)
    tracer = spans.Tracer()
    with tracer:
        assert besov.merged_block_sup is thetasum.merged_block_sup
        assert besov.merged_block_sup is not before[1]
        collapse.verify_collapse(1, 3)
    after = (thetasum.merged_block_sup, besov.merged_block_sup,
             thetareg.eval_sum, collapse.PeriodizedGaussian.__call__)
    assert after == before
    names = [s[0] for s in tracer.spans]
    assert names.count("collapse.verify_collapse") == 1
    root = names.index("collapse.verify_collapse")
    assert all(s[3] >= root for s in tracer.spans[root + 1:])
    own = spans.self_times(tracer.spans)
    assert all(o >= 0 for o in own)
    total = tracer.spans[root][2] - tracer.spans[root][1]
    assert sum(own[root:]) == pytest.approx(total)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "collapse_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
