"""Command-line surface: subcommand outputs, formats, exit codes, and
byte-level determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypertransfer

from hypertransfer.cli import build_parser, main
from hypertransfer.decay import lie_derivative_mtilde


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


def csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_parser_requires_command():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


def test_unread_options_are_rejected():
    # tolerances only on symbol, --seed only on symbol and verify, and no
    # --format on verify, which always writes JSON
    for argv in (
        ["reduce", "5", "2", "--abs-tol", "1e-9"],
        ["region", "0", "1", "--rel-tol", "1e-9"],
        ["verify", "--abs-tol", "1e-9"],
        ["decay", "--seed", "7"],
        ["decay", "--abs-tol", "1e-9"],
        ["decay", "--rel-tol", "1e-9"],
        ["verify", "--format", "json"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_exponent_form_negative_operands(capsys):
    # argparse's own negative-number pattern has no exponent, so reduce and
    # region took -1e-3 for an option and exited 2 ("the following
    # arguments are required: y"); options after such an operand still parse
    for argv, plain in (
        ("reduce -1e-3 1", "reduce -0.001 1"),
        ("reduce -1E+2 1 --format json", "reduce -100 1 --format json"),
        ("region -1e-3 0.5 --samples 3", "region -0.001 0.5 --samples 3"),
        ("region -2.5e-1 1.5 --format json", "region -0.25 1.5 --format json"),
    ):
        code, out = run(capsys, argv.split())
        ref_code, ref = run(capsys, plain.split())
        assert code == ref_code == 0 and out == ref, argv
    for argv in (["reduce", "-1e-3"], ["region", "-1e-3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "the following arguments are required" in capsys.readouterr().err


def test_reduce_csv(capsys):
    code, out = run(capsys, ["reduce", "5", "2"])
    assert code == 0
    rows = csv_rows(out.out)
    assert len(rows) == 1
    row = rows[0]
    assert [row[k] for k in ("gamma_a", "gamma_b", "gamma_c", "gamma_d")] == ["1", "5", "0", "1"]
    assert abs(float(row["z0_x"])) < 1e-12
    assert abs(float(row["z0_y"]) - 2.0) < 1e-12


def test_reduce_json(capsys):
    # at y = 1e-300, x^2 + y^2 underflows to 0, but -1/z = 1e300 i is representable
    for y, z0_y in (("0.1", 10.0), ("1e-300", 1e300)):
        code, out = run(capsys, ["reduce", "0", y, "--format", "json"])
        assert code == 0
        payload = json.loads(out.out)
        assert payload["gamma"] == [0, -1, 1, 0]
        assert payload["z0_y"] == pytest.approx(z0_y, rel=1e-15)
        assert list(payload) == sorted(payload)


def test_reduce_invalid_point(capsys):
    # -1/z overflows for the smallest subnormal height
    for y in ("-1", "5e-324"):
        code, out = run(capsys, ["reduce", "0", y])
        assert code == 2
        assert out.err.startswith("error: ")


def test_symbol_identity(capsys):
    code, out = run(capsys, ["symbol", "1"])
    assert code == 0
    row = csv_rows(out.out)[0]
    assert abs(float(row["value"]) - 1.0) <= 1e-6
    assert row["mode"] == "case"


def test_symbol_modes_agree(capsys):
    code, out = run(capsys, ["symbol", "0.2"])
    case_val = float(csv_rows(out.out)[0]["value"])
    assert code == 0
    code, out = run(capsys, ["symbol", "0.2", "--mode", "direct"])
    assert code == 0
    direct_val = float(csv_rows(out.out)[0]["value"])
    assert abs(case_val - direct_val) <= 1e-5
    code, out = run(capsys, ["symbol", "0.2", "--mode", "mc", "--n", "200000", "--seed", "7"])
    assert code == 0
    row = csv_rows(out.out)[0]
    mc_val, mc_err = float(row["value"]), float(row["error"])
    assert abs(case_val - mc_val) <= 3.0 * mc_err


def test_symbol_rejects_bad_r(capsys):
    assert run(capsys, ["symbol", "0"])[0] == 2
    assert run(capsys, ["symbol", "-2"])[0] == 2
    for r in ("1e39", "1e80", "1e-80"):
        code, out = run(capsys, ["symbol", r])
        assert code == 2
        assert "supported range [1, 1e+38]" in out.err


def test_symbol_mc_names_its_norm_range(capsys):
    # every symbol mode accepts r in [1e-38, 1e38] and refuses past it with
    # the one message of the shared range check; inf was refused as "need r > 0"
    for r in ("1e39", "1e-39", "inf"):
        code, out = run(capsys, ["symbol", r, "--mode", "mc", "--n", "1000", "--seed", "1"])
        ref_code, ref = run(capsys, ["symbol", r])
        assert code == ref_code == 2
        assert out.err == ref.err and out.err.startswith("error: "), (out.err, ref.err)
        assert "supported range [1, 1e+38]" in out.err
    for r in ("1e-38", "1.1e15", "1e38"):
        code, _ = run(capsys, ["symbol", r, "--mode", "mc", "--n", "1000", "--seed", "1"])
        assert code == 0, r


def test_symbol_mc_past_float64_names_its_norm():
    # past norm ~1e154 the half-plane image of g overflows float64; the range
    # check refuses first, with the message of `symbol r`, and numpy prints no
    # warnings to stderr
    src = str(Path(hypertransfer.__file__).resolve().parents[1])
    errs = []
    for mode in ("mc", "case"):
        argv = ["symbol", "1e200", "--mode", mode, "--n", "1000", "--seed", "1"]
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "hypertransfer.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        errs.append(proc.stderr)
    assert errs[0] == errs[1]
    assert "operator norm 1e+200 is outside the supported range [1, 1e+38]" in errs[0]


def test_subcommands_run_without_scipy():
    # scipy is a test and benchmark dependency only: no subcommand imports it
    code = "\n".join(
        (
            "import contextlib, io, sys",
            "import hypertransfer.cli as cli",
            "for argv in (['symbol', '0.2'], ['decay', '--steps', '2'],",
            "             ['region', '-1', '1.5'], ['verify', '--suite', 'cases']):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert cli.main(argv) == 0, argv",
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)",
        )
    )
    src = str(Path(hypertransfer.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120
    )


def test_symbol_accuracy_exit(capsys):
    code, out = run(capsys, ["symbol", "0.2", "--abs-tol", "1e-300", "--rel-tol", "1e-300"])
    assert code == 3
    assert "accuracy" in out.err


def test_region_case1(capsys):
    code, out = run(capsys, ["region", "10", "0.3", "--samples", "5"])
    assert code == 0
    assert out.out.splitlines()[0] == "# case=CASE1"
    rows = csv_rows(out.out)
    assert len(rows) == 10  # lower/upper pair per abscissa
    for row in rows:
        x, y = float(row["x"]), float(row["y"])
        if row["curve_id"].startswith("lower"):
            assert abs(y - math.sqrt(max(1.0 - x * x, 0.0))) < 1e-12


def test_region_case7_empty(capsys):
    code, out = run(capsys, ["region", "-5", "0.3", "--samples", "5"])
    assert code == 0
    assert out.out.splitlines()[0] == "# case=CASE7"
    assert csv_rows(out.out) == []


def test_region_skips_sections_above_the_y_cap(capsys):
    # at x = -0.5 and -0.25 the section starts at y = 15.2 and 10.4, above
    # the cap of 3, so only x = 0, 0.25 and 0.5 get rows
    code, out = run(capsys, ["region", "0.01", "0.05", "--samples", "5"])
    assert code == 0
    assert out.out.splitlines()[0] == "# case=CASE2"
    rows = csv_rows(out.out)
    assert [(r["curve_id"], float(r["x"])) for r in rows] == [
        (cid, x) for x in (0.0, 0.25, 0.5) for cid in ("lower0", "upper0")
    ]
    assert all(float(r["y"]) == 3.0 for r in rows if r["curve_id"] == "upper0")


def test_region_fallback_band(capsys):
    code, out = run(capsys, ["region", "0", "1", "--samples", "4"])
    assert code == 0
    assert out.out.splitlines()[0] == "# case=FALLBACK"
    assert len(csv_rows(out.out)) > 0


def test_region_json_negative_gx(capsys):
    code, out = run(capsys, ["region", "-1", "1.5", "--samples", "5", "--format", "json"])
    assert code == 0
    payload = json.loads(out.out)
    assert payload["case"] == "CASE8"
    assert payload["points"]


def test_region_bad_samples(capsys):
    assert run(capsys, ["region", "0.1", "0.3", "--samples", "1"])[0] == 2


def test_region_names_its_shape_range(capsys):
    # (-0.1, 1e200) died on an overflow warning; (-0.001, 1e-160), where
    # m_hat_case returned NaN, is past the range too
    for gx, gy in (("-0.1", "1e200"), ("-0.001", "1e-160")):
        code, out = run(capsys, ["region", gx, gy, "--samples", "3"])
        assert code == 2 and out.out == ""
        assert out.err.startswith("error: AN shape") and "supported range" in out.err


def test_decay_table(capsys):
    code, out = run(capsys, ["decay", "--rmin", "0.1", "--rmax", "0.2", "--steps", "2"])
    assert code == 0
    rows = csv_rows(out.out)
    assert [float(r["r"]) for r in rows] == [0.1, 0.2]
    f1 = float(rows[0]["f1"])
    assert abs(f1) <= 0.12
    assert abs(f1 - lie_derivative_mtilde(0.1)) < 1e-9
    for r in rows:
        want = (abs(float(r["f1"])) + abs(float(r["f2"]))) / float(r["r"])
        assert abs(float(r["weighted"]) - want) < 1e-12
    summary = out.out.strip().splitlines()[-1]
    assert summary.startswith("# slope=") and "max_weighted=" in summary


def test_decay_json_and_range_errors(capsys):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    code, out = run(capsys, ["decay", "--rmin", "0.1", "--rmax", "0.2", "--steps", "2",
                             "--format", "json"])
    assert code == 0
    payload = json.loads(out.out, parse_constant=reject)
    assert len(payload["rows"]) == 2 and "slope" in payload and "max_weighted" in payload
    assert isinstance(payload["slope"], float)
    # one row has no slope: null in JSON, nan in CSV
    code, out = run(capsys, ["decay", "--rmin", "0.1", "--rmax", "0.2", "--steps", "1",
                             "--format", "json"])
    assert code == 0
    assert json.loads(out.out, parse_constant=reject)["slope"] is None
    code, out = run(capsys, ["decay", "--rmin", "0.1", "--rmax", "0.2", "--steps", "1"])
    assert out.out.strip().splitlines()[-1].startswith("# slope=nan ")
    assert run(capsys, ["decay", "--rmin", "0.5", "--rmax", "0.2"])[0] == 2
    assert run(capsys, ["decay", "--rmin", "0.1", "--rmax", "1.5"])[0] == 2
    assert run(capsys, ["decay", "--rmin", "0.1", "--rmax", "0.2", "--steps", "0"])[0] == 2
    code, out = run(capsys, ["decay", "--rmin", "1e-300", "--rmax", "0.5", "--steps", "2"])
    assert code == 2 and "supported range [1, 1e+38]" in out.err


def test_counts_numpy_cannot_allocate_exit_2_with_their_name(capsys):
    # these exited 1 with numpy's MemoryError traceback (1e17) or 2 with its
    # unnamed "Maximum allowed dimension exceeded" (1e20); no 64-bit address
    # space holds either array
    for n in (10**17, 10**20):
        for argv, name in (
            (["symbol", "2", "--mode", "mc", "--n", str(n)], "sample count"),
            (["decay", "--steps", str(n)], "--steps"),
            (["region", "0", "1", "--samples", str(n)], "--samples"),
        ):
            code, out = run(capsys, argv)
            assert code == 2 and out.out == "", argv
            assert out.err == f"error: {name} {n} is too large: numpy cannot allocate " + (
                "that many samples\n" if name == "sample count" else "that many points\n"
            ), out.err


def test_verify_cocycle_passes(capsys):
    code, out = run(capsys, ["verify", "--suite", "cocycle", "--seed", "7"])
    assert code == 0
    payload = json.loads(out.out)
    assert payload["passed"] is True
    assert payload["seed"] == 7
    assert all(c["passed"] for s in payload["suites"] for c in s["checks"])


def test_negative_seeds_name_their_error(capsys):
    # numpy's "expected non-negative integer" reached stderr, and the decay
    # suite, which draws nothing, exited 0 with seed -5 in its report
    for argv in (
        ["symbol", "0.2", "--mode", "mc", "--seed", "-1"],
        ["verify", "--suite", "cocycle", "--seed", "-5"],
        ["verify", "--suite", "decay", "--seed", "-5"],
    ):
        code, out = run(capsys, argv)
        assert (code, out.out) == (2, ""), argv
        assert out.err == f"error: seed must be a non-negative integer, got {argv[-1]}\n"


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_output_files_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["symbol", "0.3", "--mode", "mc", "--seed", "11", "--output", str(a)]) == 0
    assert main(["symbol", "0.3", "--mode", "mc", "--seed", "11", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    assert main(["verify", "--suite", "cases", "--output", str(c)]) == 0
    assert main(["verify", "--suite", "cases", "--output", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()
