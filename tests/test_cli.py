"""Command line interface: exit codes, output formats, determinism."""

import cmath
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thetareg
from thetareg import cli
from thetareg.cli import build_parser, main, read_config, spectrum_svg
from thetareg.besov import block_spectrum
from thetareg.collapse import CollapseCheck
from thetareg.contfrac import Rational
from thetareg.errors import DomainError

SRC = str(Path(thetareg.__file__).resolve().parents[1])


def _python(*args: str, timeout: float | None = None
            ) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's thetareg."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout)


def test_cf_text_output(capsys):
    assert main(["cf", "--t", "quad:(-1+1*sqrt(5))/2", "--terms", "12"]) == 0
    out = capsys.readouterr().out
    assert "quotients" in out
    assert "[0, 1, 1, 1" in out
    assert "Khinchin-Levy" in out


def test_cf_json_output(capsys):
    assert main(["cf", "--t", "dec:0.5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["quotients"] == [0]
    assert doc["truncated"] is True
    assert doc["center_quotients"] == [0, 2]


def test_cf_terms_bounds_a_rational(capsys):
    # 13/21 = [0; 1, 1, 1, 1, 1, 2]: --terms 3 prints three of everything
    assert main(["cf", "--t", "rat:13/21", "--terms", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["quotients"] == [0, 1, 1]
    assert doc["convergents"] == [[0, 1], [1, 1], [1, 2]]
    assert [n for n, _ in doc["khinchin_levy"]["per_n"]] == [1, 2]
    assert doc["truncated"] is True and doc["exact_terminates"] is False
    assert main(["cf", "--t", "rat:13/21", "--terms", "7", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["quotients"] == [0, 1, 1, 1, 1, 1, 2]
    assert doc["truncated"] is False and doc["exact_terminates"] is True


def test_bad_time_spec_exits_2(capsys):
    assert main(["cf", "--t", "rat:1/0"]) == 2
    assert main(["cf", "--t", "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_unknown_subcommand_is_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_blocks_csv_stdout(capsys):
    assert main(["blocks", "--t", "rat:1/3", "--jmin", "6", "--jmax", "8",
                 "--mode", "rough"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("j,rough_sup")
    assert len(lines) == 4


def test_blocks_insufficient_decimal_exits_3(capsys):
    # 2 digits cannot pin a time to the ~52 bits a j = 8 block needs
    assert main(["blocks", "--t", "dec:0.41", "--jmin", "8", "--jmax", "8"]) == 3
    assert "refused" in capsys.readouterr().err


def test_blocks_svg_without_out_exits_2(capsys, monkeypatch):
    # the chart goes to a file in --out; without one it would go nowhere
    def unreachable(*args, **kwargs):
        raise AssertionError("a block was computed")
    monkeypatch.setattr(cli, "block_spectrum", unreachable)
    assert main(["blocks", "--t", "rat:1/3", "--svg"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --svg needs --out")


def test_blocks_out_dir_with_svg(tmp_path, capsys):
    assert main(["blocks", "--t", "rat:1/3", "--jmin", "6", "--jmax", "10",
                 "--out", str(tmp_path), "--svg"]) == 0
    csvs = list(tmp_path.glob("*.csv"))
    svgs = list(tmp_path.glob("*.svg"))
    assert len(csvs) == 1 and len(svgs) == 1
    svg = svgs[0].read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_exponent_check_passes_for_rational(capsys):
    assert main(["exponent", "--t", "rat:1/3", "--jmax", "12",
                 "--mode", "rough", "--check"]) == 0
    assert "sharp" in capsys.readouterr().out


def test_exponent_json(capsys):
    assert main(["exponent", "--t", "rat:1/3", "--jmax", "12",
                 "--mode", "rough", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_sharp"] is True


def test_collapse_single_and_check(capsys):
    assert main(["collapse", "--t", "rat:2/3", "--check"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["q"] == 3 and doc["max_residual"] < 1e-9


def test_collapse_sweep(capsys):
    assert main(["collapse", "--sweep", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == 0
    assert doc["pairs_checked"] == sum(
        1 for q in range(1, 7) for p in range(0, 2 * q)
        if __import__("math").gcd(p, q) == 1)


def test_collapse_sweep_past_the_comb_budget_is_refused_up_front():
    # 0.61 Q^2 pairs at Q = 10001: refused before the first one is built
    code, out, err = _main_in_process(["collapse", "--sweep", "10001"])
    assert (code, out) == (3, "")
    assert err.startswith("refused:") and "10000" in err


def test_collapse_check_with_impossible_tolerance_exits_4(capsys):
    assert main(["collapse", "--t", "rat:1/3", "--tol", "1e-30",
                 "--check"]) == 4
    assert "verification failed" in capsys.readouterr().err


def test_collapse_check_gates_the_eighth_root_defect(capsys, monkeypatch):
    # unimodular, zero residuals, but e(1/18) is no eighth root of unity
    kappa = cmath.exp(2j * math.pi / 18)
    chk = CollapseCheck(
        p=1, q=3, xi=1, eta=0, p_prev=1, q_prev=2, kappa=kappa,
        kappa_unimodular_defect=abs(abs(kappa) - 1.0),
        kappa_eighth_root_defect=abs(kappa ** 8 - 1.0),
        residuals=(("gauss", 0.0),), max_residual=0.0)
    assert chk.kappa_unimodular_defect <= 1e-8
    monkeypatch.setattr(cli, "verify_collapse", lambda p, q: chk)
    assert main(["collapse", "--t", "rat:1/3", "--check"]) == 4
    assert "|kappa^8 - 1|" in capsys.readouterr().err


def test_collapse_requires_time_or_sweep():
    with pytest.raises(SystemExit):
        main(["collapse"])


def test_probe_command(capsys):
    assert main(["probe", "--t", "rat:1/17", "--window", "1:16",
                 "--check"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["satisfied"] is True
    assert doc["floor_margin"] > 1.0
    assert main(["probe", "--t", "rat:1/5", "--window", "4:64",
                 "--weights", "smooth"]) == 0


def test_probe_bad_window_exits_2(capsys):
    assert main(["probe", "--t", "rat:1/5", "--window", "banana"]) == 2
    # an inverted window is refused by the weights' own check
    assert main(["probe", "--t", "rat:1/5", "--window", "10:3"]) == 2


def test_probe_window_holding_n0_is_refused_before_any_sum(monkeypatch, capsys):
    def no_phases(*args):
        raise AssertionError("a phase vector was built")

    monkeypatch.setattr(thetareg.thetasum, "phase_vector", no_phases)
    for weights in ("unit", "smooth"):
        assert main(["probe", "--t", "rat:1/5", "--window", "0:8",
                     "--weights", weights]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: windows start at M >= 1 (n = 0 has no phase)\n"


def test_probe_coarse_decimal_is_refused(capsys):
    # one digit moves the phase at |n| = 8 by 64/10 cycles, as in blocks
    assert main(["probe", "--t", "dec:0.5", "--window", "2:8"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("refused: literal resolution")


@pytest.mark.parametrize("weights", ["unit", "smooth"])
def test_probe_fine_decimal_prints_its_rational(weights, capsys):
    outs = []
    for t in ("dec:0.20000000000000000000", "rat:1/5"):
        assert main(["probe", "--t", t, "--window", "4:64",
                     "--weights", weights]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_stability_command_and_refusal(capsys):
    assert main(["stability", "--t", "quad:(-1+1*sqrt(5))/2",
                 "--t1", "rat:144/233", "--j", "6", "--check"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0.125 <= doc["ratio"] <= 8.0
    # a distant pair fails certification, exit 3
    assert main(["stability", "--t", "quad:(-1+1*sqrt(5))/2",
                 "--t1", "rat:1/2", "--j", "6"]) == 3


def test_stability_certifies_two_irrational_times(capsys):
    # |t - t1| = 1/2 exactly, below 32.032/N^2 = 0.5005 at j = 2 (N = 8):
    # both brackets tighten until the strict comparison is decided
    assert main(["stability", "--t", "quad:(-1+1*sqrt(5))/2",
                 "--t1", "quad:(0+1*sqrt(5))/2", "--j", "2",
                 "--kbound", "32.032"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["t1"] == "quad:(0+1*sqrt(5))/2" and doc["ratio"] > 0
    # the same pair at a radius below 1/2 is refused
    assert main(["stability", "--t", "quad:(-1+1*sqrt(5))/2",
                 "--t1", "quad:(0+1*sqrt(5))/2", "--j", "2",
                 "--kbound", "31.968"]) == 3


def test_exponent_jmax_bounds_the_scales(capsys):
    # sigma = 2 has burst scales past j = 8; none of them is computed
    assert main(["exponent", "--t", "class:sigma=2,seed=0,1", "--jmin", "3",
                 "--jmax", "8", "--tail-start", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["j"] for r in doc["records"]] == list(range(3, 9))
    assert all(j <= 8 for j in doc["burst_js"])


def test_exponent_from_scale_zero(tmp_path, capsys):
    # j = 0 joins the fit but not the limsup, whose log2(sup)/j it would
    # divide by zero
    argv = ["exponent", "--t", "rat:1/3", "--jmin", "0", "--jmax", "12",
            "--tail-start", "0"]
    proc = _python("-m", "thetareg.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert main(argv + ["--format", "json"]) == 0
    fit = json.loads(capsys.readouterr().out)["fit"]
    assert fit["tail_start"] == 0 and fit["n_points"] == 13
    assert math.isfinite(fit["alpha_limsup"])
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("j_min = 0\nj_max = 8\ntail_start = 0\n[times]\nrat:1/3\n")
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert math.isfinite(summary[0]["alpha_limsup"])


def test_read_config(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("""
# comment
j_min = 6
j_max = 9          # trailing comment
mode = rough
[times]
rat:1/3
rat:3/5
""")
    settings, times = read_config(str(cfg))
    assert settings == {"j_min": "6", "j_max": "9", "mode": "rough"}
    assert times == ["rat:1/3", "rat:3/5"]
    bad = tmp_path / "bad.cfg"
    bad.write_text("j_min = 6\n")
    with pytest.raises(DomainError):
        read_config(str(bad))


def test_scan_runs_twice_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("j_min = 6\nj_max = 10\nmode = rough\ntail_start = 6\n"
                   "format = both\nsvg = true\n[times]\nrat:1/3\nrat:2/5\n")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["scan", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["scan", "--config", str(cfg), "--out", str(out2)]) == 0
    capsys.readouterr()
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2
    assert "summary.json" in names1
    assert any(n.endswith(".svg") for n in names1)
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_scan_names_each_time_by_its_whole_slug(tmp_path, capsys):
    # a decimal slug keeps its '.', which must not be taken for a suffix:
    # two decimal times write two sets of files, not one overwritten set
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("j_min = 6\nj_max = 10\nmode = rough\ntail_start = 6\n"
                   "format = both\nsvg = true\n[times]\n"
                   "dec:0.41421356237309504880168\n"
                   "dec:0.61803398874989484820458\n"
                   "rat:1/3\nquad:(-1+1*sqrt(5))/2\n")
    out = tmp_path / "out"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    stems = ["dec_0.41421356237309504880168", "dec_0.61803398874989484820458",
             "rat_1_3", "quad_-1_1_sqrt_5_2"]
    want = {f"{s}.{ext}" for s in stems for ext in ("csv", "json", "svg")}
    assert {p.name for p in out.iterdir()} == want | {"summary.json"}
    first, second = (json.loads((out / f"{s}.json").read_text())["time"]
                     for s in stems[:2])
    assert (first, second) == ("dec:0.41421356237309504880168",
                               "dec:0.61803398874989484820458")
    assert main(["blocks", "--t", "dec:0.41421356237309504880168", "--jmin",
                 "6", "--jmax", "8", "--out", str(tmp_path), "--svg"]) == 0
    assert capsys.readouterr().out.split() == [
        str(tmp_path / f"blocks_{stems[0]}.{ext}") for ext in ("csv", "svg")]


def test_spectrum_svg_is_wellformed():
    recs = block_spectrum(Rational(1, 3), j_min=6, j_max=9, mode="both")
    svg = spectrum_svg("rat:1/3", recs)
    assert svg.startswith("<svg")
    assert svg.count("<polyline") >= 2
    assert svg.rstrip().endswith("</svg>")
    assert spectrum_svg("rat:1/3", recs) == svg


def test_console_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "thetareg.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "blocks" in proc.stdout and "collapse" in proc.stdout


def test_import_leaves_scipy_out():
    proc = _python("-c", "import sys, thetareg, thetareg.cli; "
                         "assert 'scipy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


_GOLDEN = "quad:(-1+1*sqrt(5))/2"


def test_exponent_exits_with_the_worker_lane_up():
    # j = 13 and 14 build their phase vectors and sups on two lanes, one of
    # them a worker thread kept for the process: idle at the end, it must
    # not hold the interpreter open, and two runs write the same bytes.
    # The fit needs five scales from j = 8, so the run starts at j = 10
    argv = ["exponent", "--t", _GOLDEN, "--jmin", "10", "--jmax", "14",
            "--format", "json"]
    runs = [_python("-m", "thetareg.cli", *argv, timeout=60) for _ in range(2)]
    assert [proc.returncode for proc in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout


@pytest.mark.parametrize("argv", [
    ["stability", "--t", _GOLDEN, "--t1", "rat:144/233", "--j", "6",
     "--kbound", "nan"],
    ["stability", "--t", _GOLDEN, "--t1", "rat:144/233", "--j", "6",
     "--kbound", "inf"],
    ["stability", "--t", _GOLDEN, "--t1", "rat:144/233", "--j", "6",
     "--kbound", "-1"],
    ["collapse", "--sweep", "-3"],
    ["collapse", "--t", "rat:1/3", "--tol", "nan", "--check"],
    ["cf", "--t", "rat:1/3", "--window", "-2"],
    ["cf", "--t", "rat:1/3", "--window", "0"],
    ["cf", "--t", "rat:1/3", "--terms", "-1"],
    ["cf", "--t", "rat:1/3", "--terms", "0"],
    ["exponent", "--t", "rat:1/3", "--tolerance", "nan", "--check"],
    ["exponent", "--t", "rat:1/3", "--tolerance", "inf", "--check"],
    ["exponent", "--t", "rat:1/3", "--tolerance", "-5", "--check"],
    ["collapse", "--t", "rat:1/3", "--sweep", "3"],     # one time or a sweep
])
def test_bad_arguments_exit_2_without_traceback(argv):
    proc = _python("-m", "thetareg.cli", *argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_zero_tolerance_is_valid():
    args = build_parser().parse_args(
        ["exponent", "--t", "rat:1/3", "--tolerance", "0"])
    assert args.tolerance == 0.0


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cf_past_int_print_limit_is_refused(fmt, capsys):
    # class: convergents pass Python's 4300-digit int-to-str limit at term 25
    argv = ["cf", "--t", "class:sigma=1/2,seed=0,3", "--terms", "30",
            "--format", fmt]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("refused:")
    assert "the first 24 terms fit" in err
    argv[4] = "24"
    assert main(argv) == 0
    assert "quotients" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    # q_3 = 2^100001 + 1 is past what a float holds; the scale matching
    # stops before it takes sqrt(q_3)
    ["exponent", "--t", "class:sigma=100000,seed=0,1", "--jmin", "6",
     "--jmax", "10", "--tail-start", "6"],
    # every quotient is floor(q^(1/10^10)) = 1, an integer root that must not
    # start its Newton steps at 2^(10^10 - 1)
    ["cf", "--t", "class:sigma=1/10000000000,seed=0,1"],
    ["exponent", "--t", "class:sigma=1e-30,seed=0,1", "--jmin", "6",
     "--jmax", "10", "--tail-start", "6"],
])
def test_extreme_class_sigma_finishes(argv):
    proc = _python("-m", "thetareg.cli", *argv, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    *(["cf", "--t", f"class:sigma={sigma},seed=0,1", "--terms", "24"]
      for sigma in ("0.99", "0.9999", "1e400")),
    *(["exponent", "--t", f"class:sigma={sigma},seed=0,1", "--jmin", "6",
       "--jmax", "10", "--tail-start", "6"] for sigma in ("0.12345", "1e400")),
])
def test_quotient_power_budget_ends_slow_class_times(argv):
    # a_(k+1) = floor(q_k^sigma) forms q_k^num: for a sigma of large
    # numerator the stream ends at MAX_POWER_BITS, so these take seconds,
    # not minutes, and a block that needs more quotients is refused
    proc = _python("-m", "thetareg.cli", *argv, timeout=30)
    assert proc.returncode in (0, 3), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["blocks", "--t", "rat:1/3", "--jmax", "21"],
    ["stability", "--t", _GOLDEN, "--t1", "rat:144/233", "--j", "21"],
])
def test_scale_above_block_budget_is_refused(argv):
    proc = _python("-m", "thetareg.cli", *argv)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("refused:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("line, message", [
    *(pytest.param(f"{key} = abc", f"config {key} must be an integer", id=key)
      for key in ("j_min", "j_max", "oversample", "tail_start")),
    # a misspelt key would silently run the default scales
    pytest.param("jmax = 7", "unknown config key 'jmax'", id="unknown_key"),
    # a misspelt boolean would silently write no svg
    pytest.param("svg = ture", "config svg must be true/false/1/0/yes/no",
                 id="svg"),
    pytest.param("mode = foo", "unknown mode 'foo'", id="mode"),
    pytest.param("j_min = 30", "no scales requested", id="empty_range"),
])
def test_bad_scan_setting_exits_2_without_traceback(line, message, tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(f"{line}\n[times]\nrat:1/3\n")
    proc = _python("-m", "thetareg.cli", "scan", "--config", str(cfg),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {message}")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("j_max", [21, 100000])
@pytest.mark.parametrize("time", ["rat:1/3", "quad:(-1+1*sqrt(5))/2",
                                  "class:sigma=1,seed=0,1",
                                  "dec:0.4142135623730950488"])
def test_scan_past_block_budget_is_refused_before_mkdir(tmp_path, time, j_max):
    # the block budget is checked before the precision guard, so a dec:
    # time gets the same refusal, with no 30,000-digit N to print
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(f"j_max = {j_max}\n[times]\n{time}\n")
    proc = _python("-m", "thetareg.cli", "scan", "--config", str(cfg),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(
        f"refused: block scale j = {j_max} exceeds the budget j <= 20")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_scan_refuses_a_malformed_time_before_any_report(tmp_path):
    # the valid first time must not leave files behind a run that exits 2
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("j_min = 6\nj_max = 11\ntail_start = 6\n"
                   "[times]\nrat:1/3\nrat:1/0\n")
    proc = _python("-m", "thetareg.cli", "scan", "--config", str(cfg),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


def test_scan_refuses_an_unpinned_literal_before_any_report(tmp_path):
    # dec:0.4142 parses, but its 1/10000 resolution cannot pin the phases at
    # j_max = 11: the valid first time must not write its files either
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("j_min = 6\nj_max = 11\ntail_start = 6\n"
                   "[times]\nrat:1/3\ndec:0.4142\n")
    proc = _python("-m", "thetareg.cli", "scan", "--config", str(cfg),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("refused: literal resolution 1/10000")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


def _main_in_process(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of main(argv); argparse exits with SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse's bad-input exit
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_repeated_main_calls_match_fresh_processes():
    blocks = ["blocks", "--t", "rat:2/7", "--jmin", "3", "--jmax", "6"]
    calls = [blocks, ["cf", "--t", "rat:1/3", "--terms", "0"], blocks]
    seen = [_main_in_process(argv) for argv in calls]
    for argv, (code, out, err) in zip(calls, seen):
        fresh = _python("-m", "thetareg.cli", *argv)
        assert (code, out) == (fresh.returncode, fresh.stdout)
        assert err == fresh.stderr
    assert [code for code, _, _ in seen] == [0, 2, 0]
    assert build_parser() is build_parser()


# --------------------------------------------------------------- fuzz --

_RAT = st.builds("rat:{}/{}".format, st.integers(-40, 40), st.integers(1, 30))
_QUAD = st.builds("quad:({}{:+d}*sqrt({}))/{}".format, st.integers(-9, 9),
                  st.sampled_from([1, -1, 2]), st.integers(2, 30),
                  st.integers(1, 9))
_CLASS = st.builds("class:sigma={},seed={},{}".format,
                   st.sampled_from(["0", "1/2", "1", "2", "0.5", "100000",
                                    "1/10000000000"]),
                   st.integers(0, 1), st.integers(1, 5))
_DEC = st.builds("dec:{}.{}".format, st.integers(0, 2),
                 st.text("0123456789", min_size=1, max_size=30))
_TIME = st.one_of(_RAT, _QUAD, _CLASS, _DEC)
# collapse checks cost O(q): p/q with q <= 30, or a literal short enough to
# check fast or long enough to pass the comb budget and be refused
_COLLAPSE_TIME = st.one_of(
    _RAT, st.builds("dec:{}.{}".format, st.integers(0, 2), st.one_of(
        st.text("0123456789", min_size=1, max_size=2),
        st.text("0123456789", min_size=6, max_size=30))))


def _flag(name, values):
    return st.tuples(st.just(name), st.sampled_from(values))


_COMMANDS = [
    st.tuples(st.just(("cf", "--t")), _TIME, _flag("--terms", ["1", "8", "24", "30"]),
              _flag("--window", ["1", "4", "8"]), _flag("--format", ["text", "json"])),
    st.tuples(st.just(("blocks", "--t")), _TIME, _flag("--jmin", ["0", "2", "4"]),
              _flag("--jmax", ["4", "6", "8", "21"]),
              _flag("--mode", ["rough", "smooth", "both"]),
              _flag("--oversample", ["2", "3", "8"])),
    st.tuples(st.just(("exponent", "--t")), _TIME,
              _flag("--jmin", ["0", "2", "3"]), _flag("--jmax", ["7", "8"]),
              _flag("--tail-start", ["0", "3", "4"]), _flag("--tolerance", ["0", "0.1"]),
              st.tuples(st.sampled_from(["--check", "--format=json"]))),
    st.tuples(st.just(("probe", "--t")), _TIME,
              _flag("--window", ["1:16", "4:64", "2:9", "1:100000000"]),
              _flag("--weights", ["unit", "smooth"]), st.just(("--check",))),
    st.tuples(st.just(("collapse", "--t")), _COLLAPSE_TIME,
              st.tuples(st.sampled_from(["--check", "--tol=1e-30"]))),
    st.tuples(st.just(("collapse",)), _flag("--sweep", ["1", "3", "5"])),
    st.tuples(st.just(("stability", "--t")), _TIME, st.just("--t1"), _TIME,
              _flag("--j", ["2", "5", "8", "21"]), _flag("--kbound", ["1", "1e6"])),
]
_JUNK = st.sampled_from(["-1", "0", "x", "nan", "inf", "1e3", "", "1:2:3", "--t"])


def _flatten(parts) -> list[str]:
    return [tok for part in parts
            for tok in ((part,) if isinstance(part, str) else part)]


@st.composite
def _mutated(draw, text: str) -> str:
    """text with one character dropped, replaced or inserted.

    No digits go in, so a spoilt number never grows: `--sweep 95` in
    place of 5 would check 5,000 pairs.
    """
    i = draw(st.integers(0, max(len(text) - 1, 0)))
    junk = draw(st.sampled_from(list(":/.,()+-*=e x")))
    return draw(st.sampled_from([text[:i] + text[i + 1:],
                                 text[:i] + junk + text[i + 1:],
                                 text[:i] + junk + text[i:]]))


@st.composite
def _argv_strategy(draw) -> list[str]:
    """A valid command line from the time grammar, or one with a token spoilt."""
    argv = _flatten(draw(st.one_of(*_COMMANDS)))
    if draw(st.booleans()):
        i = draw(st.integers(1, len(argv) - 1))
        argv[i] = draw(st.one_of(_JUNK, _mutated(argv[i])))
    return argv


@given(argv=_argv_strategy())
@settings(max_examples=300, deadline=None)
def test_cli_fuzz_keeps_the_exit_code_contract(argv):
    # an exception escaping main would be a traceback from the console script
    code, _, err = _main_in_process(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err
    if code == 3:
        assert err.startswith("refused:"), (argv, err)
