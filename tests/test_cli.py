"""CLI integration: schemas, exit codes, determinism, cache, round-trips."""

import json
import math
import os
import subprocess
import sys

import pytest

from zetalab.cli import main
from zetalab.cutoffs import ExpSymmetric
from zetalab.regularized import zeta_regularized
from zetalab.records import dumps_record


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_zeta_json_schema(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "zeta", "--s", "2+0i")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"input", "value", "err_estimate", "converged", "meta"}
    assert doc["input"]["fn"] == "zeta"
    assert doc["input"]["s"] == {"re": 2.0, "im": 0.0}
    assert doc["value"]["re"] == pytest.approx(1.6449340668, abs=1e-9)
    assert doc["value"]["im"] == pytest.approx(0.0, abs=1e-12)
    assert doc["converged"] is True
    assert set(doc["meta"]) == {"version", "wall_ms", "quadrature"}
    assert doc["meta"]["quadrature"]["abs_tol"] == 1e-12


def test_eval_json_round_trips_canonically(capsys):
    _, out, _ = run_cli(capsys, "eval", "--fn", "theta", "--v", "1")
    assert dumps_record(json.loads(out)) == out


def test_eval_pole_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--fn", "zeta", "--s", "1+0i")
    assert code == 2
    assert "error" in err


def test_eval_bad_complex_exits_1(capsys):
    code, _, _ = run_cli(capsys, "eval", "--fn", "zeta", "--s", "abc")
    assert code == 1


def test_eval_missing_param_exits_1(capsys):
    code, _, err = run_cli(capsys, "eval", "--fn", "bessel-k", "--z", "2")
    assert code == 1
    assert "--nu" in err


def test_eval_unknown_fn_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--fn", "definitely-not-a-fn", "--s", "2"])
    assert exc.value.code == 1


def test_eval_csv_format_and_determinism(capsys):
    args = ("eval", "--fn", "zeta", "--s", "0.5+14.1i", "--format", "csv")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    lines = first.split("\n")
    assert lines[0] == "fn,value_re,value_im,err_estimate,converged"
    assert len(lines) == 3 and lines[-1] == ""
    cells = lines[1].split(",")
    assert cells[0] == "zeta"
    float(cells[1]), float(cells[2])  # 17g cells parse back
    _, second, _ = run_cli(capsys, *args)
    assert first == second  # byte-identical rerun


def test_eval_zeta_reg_echoes_representation(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--fn", "zeta-reg", "--s", "2+0i", "--lambda", "0.5"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["cutoff"] == "ExpSymmetric"
    assert doc["input"]["representation"] == "bessel-series"


@pytest.mark.parametrize("lam, route", [("1e-4", "quadrature"),
                                        ("0.5", "bessel-series")])
def test_eval_zeta_reg_echoes_the_route_taken(capsys, lam, route):
    code, out, _ = run_cli(
        capsys, "eval", "--fn", "zeta-reg", "--s", "0.5+14i", "--lambda", lam
    )
    assert code == 0
    assert json.loads(out)["input"]["representation"] == route


def test_eval_out_flag(tmp_path, capsys):
    target = tmp_path / "value.json"
    code, out, _ = run_cli(
        capsys, "eval", "--fn", "psi", "--x", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["value"]["re"] == pytest.approx(0.043217405606654005, rel=1e-12)


def test_out_io_failure_exits_4(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--fn", "psi", "--x", "1",
        "--out", "/nonexistent-dir/value.json",
    )
    assert code == 4
    assert "error" in err


def test_verify_single_point(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--kind", "riemann-classic", "--s", "0.4"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["records"]) == 1
    assert doc["max_rel_residual"] < 1e-9
    assert "max rel residual" in err


def test_verify_default_grid(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--kind", "exp-symmetric", "--lambda", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["records"]) == 15  # 5 sigmas x 3 heights
    assert doc["max_rel_residual"] < 1e-8


def test_verify_threshold_gates_exit(capsys):
    code, _, _ = run_cli(
        capsys, "verify", "--kind", "exp-symmetric", "--lambda", "1",
        "--s", "0.3+5i", "--threshold", "1e-16",
    )
    assert code == 2  # residual is tiny but nonzero; the gate is honest


def test_verify_asymmetric_cutoff_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--kind", "generic-h", "--cutoff", "custom:asymmetric",
        "--s", "0.4",
    )
    assert code == 3
    assert "symmetry" in err.lower()


def test_verify_custom_log_symmetric(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--kind", "generic-h", "--cutoff",
        "custom:log-symmetric", "--s", "0.4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["records"][0]["params"]["cutoff"] == "CustomCutoff"


def test_scan_window_with_six_zeros(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--t", "10:40", "--step", "0.05", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t_lo,t_hi,refined_t,|Z(refined_t)|"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6
    refined = [float(r[2]) for r in rows]
    known = [14.134725141734695, 21.022039638771556, 25.01085758014569,
             30.424876125859512, 32.93506158773919, 37.586178158825675]
    for got, want in zip(refined, known):
        assert abs(got - want) < 1e-4
    assert all(float(r[3]) < 1e-7 for r in rows)


def test_scan_empty_window(capsys):
    code, out, _ = run_cli(capsys, "scan", "--t", "0:10", "--step", "0.05")
    assert code == 0
    assert json.loads(out)["records"] == []


def test_scan_reversed_range_exits_1(capsys):
    code, _, _ = run_cli(capsys, "scan", "--t", "40:10", "--step", "0.05")
    assert code == 1


def test_scan_malformed_range_exits_1(capsys):
    code, _, _ = run_cli(capsys, "scan", "--t", "10", "--step", "0.05")
    assert code == 1


def test_grid_cardinality_and_order(capsys):
    code, out, _ = run_cli(
        capsys, "grid", "--fn", "zeta-reg", "--sigma", "0:1:0.1",
        "--t", "14.1", "--lambda", "0.1,1", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "sigma,t,lambda,value_re,value_im,err_estimate"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 22  # 11 sigmas x 1 t x 2 lambdas
    keys = [(float(r[0]), float(r[1]), float(r[2])) for r in rows]
    assert keys == sorted(keys)  # lexicographic over the input grid


def test_grid_zeta_reg_takes_the_routed_value(capsys):
    code, out, _ = run_cli(
        capsys, "grid", "--fn", "zeta-reg", "--sigma", "0.5:0.5:0.1",
        "--t", "14", "--lambda", "1e-4,0.5", "--format", "csv",
    )
    assert code == 0
    for row in out.strip().split("\n")[1:]:
        cells = row.split(",")
        lam = float(cells[2])
        ref = zeta_regularized(complex(0.5, 14.0), ExpSymmetric(lam)).bare
        assert complex(float(cells[3]), float(cells[4])) == ref


def test_grid_omega_symmetric_about_half(capsys):
    code, out, _ = run_cli(
        capsys, "grid", "--fn", "omega", "--sigma=-1:2:0.5",
        "--t", "14.1", "--lambda", "0.5", "--format", "csv",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    vals = {float(r[0]): complex(float(r[3]), float(r[4])) for r in rows}
    for sigma in (-1.0, -0.5, 0.0):
        # s <-> 1-s sends sigma + it to (1-sigma) - it, so at fixed t the
        # mirrored column is the conjugate (the function is real on real s)
        a, b = vals[sigma], vals[1.0 - sigma]
        assert abs(a - b.conjugate()) <= 1e-8 * max(abs(a), 1.0)


def test_grid_cache_roundtrip(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ("grid", "--fn", "xi-lambda", "--sigma", "0,0.5", "--t", "0,5",
            "--lambda", "0.7", "--format", "csv", "--cache-dir", cache)
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    assert len(os.listdir(cache)) == 4
    code, second, _ = run_cli(capsys, *args)
    assert code == 0
    assert first == second  # cache-served rerun is byte-identical


def test_grid_cache_env_and_flag_priority(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "from-env"
    flag_dir = tmp_path / "from-flag"
    monkeypatch.setenv("ZETALAB_CACHE_DIR", str(env_dir))
    run_cli(capsys, "grid", "--fn", "zeta", "--sigma", "2", "--t", "0,1")
    assert env_dir.is_dir() and len(os.listdir(env_dir)) == 2
    run_cli(capsys, "grid", "--fn", "zeta", "--sigma", "3", "--t", "0",
            "--cache-dir", str(flag_dir))
    assert flag_dir.is_dir() and len(os.listdir(flag_dir)) == 1
    assert len(os.listdir(env_dir)) == 2  # flag won; env dir untouched


def test_grid_jobs_parallel_matches_serial(capsys):
    args = ("grid", "--fn", "omega", "--sigma", "0.3,0.7", "--t", "0,5",
            "--lambda", "1", "--format", "csv")
    _, serial, _ = run_cli(capsys, *args)
    _, parallel, _ = run_cli(capsys, *args, "--jobs", "4")
    assert serial == parallel


def test_grid_missing_lambda_exits_1(capsys):
    code, _, _ = run_cli(capsys, "grid", "--fn", "omega", "--sigma", "0.5",
                         "--t", "1")
    assert code == 1


def test_subprocess_entry_point_deterministic():
    cmd = [sys.executable, "-m", "zetalab.cli", "grid", "--fn", "zeta",
           "--sigma", "0.5", "--t", "14:15:0.5", "--format", "csv"]
    env = {**os.environ}
    env.pop("ZETALAB_CACHE_DIR", None)
    a = subprocess.run(cmd, capture_output=True, env=env)
    b = subprocess.run(cmd, capture_output=True, env=env)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.decode("utf-8").startswith("sigma,t,value_re")
    assert b"\r" not in a.stdout


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
