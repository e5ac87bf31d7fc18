"""Command line interface: exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thetareg
from thetareg.cli import build_parser, main, read_config, spectrum_svg
from thetareg.besov import block_spectrum
from thetareg.contfrac import Rational
from thetareg.errors import DomainError

SRC = str(Path(thetareg.__file__).resolve().parents[1])


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's thetareg."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


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


def test_collapse_check_with_impossible_tolerance_exits_4(capsys):
    assert main(["collapse", "--t", "rat:1/3", "--tol", "1e-30",
                 "--check"]) == 4
    assert "verification failed" in capsys.readouterr().err


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


def test_stability_command_and_refusal(capsys):
    assert main(["stability", "--t", "quad:(-1+1*sqrt(5))/2",
                 "--t1", "rat:144/233", "--j", "6", "--check"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0.125 <= doc["ratio"] <= 8.0
    # a distant pair fails certification, exit 3
    assert main(["stability", "--t", "quad:(-1+1*sqrt(5))/2",
                 "--t1", "rat:1/2", "--j", "6"]) == 3


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
    ["blocks", "--t", "rat:1/3", "--jmax", "21"],
    ["stability", "--t", _GOLDEN, "--t1", "rat:144/233", "--j", "21"],
])
def test_scale_above_block_budget_is_refused(argv):
    proc = _python("-m", "thetareg.cli", *argv)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("refused:")
    assert "Traceback" not in proc.stderr
