"""CLI integration: schemas, exit codes, determinism, cache, round-trips."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import zeta_ref
from zetalab import cli
from zetalab.bessel import bessel_k
from zetalab.cli import main
from zetalab.cutoffs import ExpSymmetric
from zetalab.diffusion import (heat_kernel_h3, heat_kernel_hyperbolic_odd,
                               heat_kernel_rd, laplace_hyperbolic,
                               resolvent_rd_bessel, resolvent_rd_quad)
from zetalab.errors import DomainError
from zetalab.funceq import FunctionalEqKind
from zetalab.regularized import omega, smooth_F, xi_lambda, zeta_regularized
from zetalab.records import dumps_record
from zetalab.theta import big_theta, jacobi_theta3, psi
from zetalab.types import EvalResult
from zetalab.zeta_classic import hardy_z, xi_entire, zeta_analytic


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


@pytest.mark.parametrize("s,expected", [("-229", 0), ("-261", 2), ("-271", 2),
                                        ("-300", 0)])
def test_eval_zeta_far_left_prints_a_value_or_exits_2(capsys, s, expected):
    # zeta(-229) ~ 1.8e259 and the trivial zero zeta(-300) = 0 print; past
    # the double range (zeta at -261 ~ 1.5e310, at -271 ~ 2.8e326) is a
    # numerical failure, not an unprintable record
    code, out, err = run_cli(capsys, "eval", "--fn", "zeta", "--s", s)
    assert code == expected
    if expected == 0:
        assert json.loads(out)["converged"] is True
    else:
        assert out == "" and "range" in err


def test_eval_zeta_and_zeta_reg_on_the_real_axis_past_ten(capsys):
    # psi's absolute tail test made zeta(20) raise NonConvergence (exit 2)
    # and left zeta-reg(10) 4.5e-12 off
    for fn, s in (("zeta", 20.0), ("zeta-reg", 10.0)):
        code, out, _ = run_cli(capsys, "eval", "--fn", fn, "--s", str(s))
        assert code == 0
        doc = json.loads(out)
        value = complex(doc["value"]["re"], doc["value"]["im"])
        assert abs(value - zeta_ref(s)) <= 1e-14
        assert doc["converged"] is True


@pytest.mark.parametrize("s", ["290", "1000"])
def test_eval_zeta_far_right_takes_the_sum(s, capsys):
    # the theta route's x^{(s-2)/2} overflowed from s = 290 on (exit 2);
    # Re s >= 1 now takes Euler-Maclaurin
    code, out, _ = run_cli(capsys, "eval", "--fn", "zeta", "--s", s)
    assert code == 0
    doc = json.loads(out)
    value = complex(doc["value"]["re"], doc["value"]["im"])
    assert abs(value - zeta_ref(float(s))) <= 1e-15
    assert doc["converged"] is True


def test_eval_json_round_trips_canonically(capsys):
    _, out, _ = run_cli(capsys, "eval", "--fn", "theta", "--v", "1")
    assert dumps_record(json.loads(out)) == out


def test_eval_pole_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--fn", "zeta", "--s", "1+0i")
    assert code == 2
    assert "error" in err


def test_eval_zeta_reflected_high_t(capsys):
    # Re s < -2 reflects through chi, whose factors overflow at t = 300
    code, out, _ = run_cli(capsys, "eval", "--fn", "zeta", "--s=-3+300i")
    assert code == 0
    value = json.loads(out)["value"]
    ref = zeta_ref(-3.0 + 300.0j)
    assert abs(complex(value["re"], value["im"]) - ref) <= 1e-11 * abs(ref)


def test_eval_zeta_reg_high_t_has_no_traceback(capsys):
    # the bare value divides by Gamma(s/2) = Gamma(0.25 + 250i) through rgamma
    code, _, _ = run_cli(capsys, "eval", "--fn", "zeta-reg", "--s", "0.5+500i",
                         "--lambda", "0.5")
    assert code in (0, 2)


def test_eval_float_overflow_exits_2_without_traceback(capsys):
    # 1/Gamma(0.25 + 500i) leaves the double range in the bare value; the
    # OverflowError maps to the numeric exit code, not to a traceback
    code, out, err = run_cli(capsys, "eval", "--fn", "zeta-reg",
                             "--s", "0.5+1000i", "--cutoff", "exp-alpha",
                             "--lambda", "0.5", "--alpha", "0.5")
    assert code == 2
    assert out == ""
    assert err.startswith("zetalab: error: ")


@pytest.mark.parametrize("fn", ["zeta", "xi"])
def test_max_terms_reaches_the_theta_tail(capsys, fn):
    # at low t zeta and xi integrate psi, whose sum must stop at --max-terms
    # as `eval --fn psi` does
    code, _, err = run_cli(capsys, "eval", "--fn", fn, "--s", "0.5+3i",
                           "--max-terms", "3")
    assert code == 2
    assert "psi series hit max_terms" in err


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
        capsys, "eval", "--fn", "zeta-reg", "--s", "2+0i", "--lambda", "5"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["cutoff"] == "ExpSymmetric"
    assert doc["input"]["representation"] == "bessel-series"


def test_eval_zeta_reg_without_lambda_is_the_undamped_value(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "zeta-reg", "--s", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"]["re"] == 1.6449340668482264  # pi^2/6 to the last bit
    assert doc["input"]["cutoff"] == "NoCutoff"
    assert doc["input"]["representation"] == "quadrature"
    # the undamped integral converges only for Re s > 1
    code, out, _ = run_cli(capsys, "eval", "--fn", "zeta-reg", "--s", "0.5+3i")
    assert code == 1 and out == ""


@pytest.mark.parametrize("lam, route", [("1e-4", "quadrature"),
                                        ("4.9", "quadrature"),
                                        ("5", "bessel-series")])
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


@pytest.mark.parametrize("s", ["90", "-95"])
def test_verify_generic_h_far_from_the_strip(capsys, s):
    # the decay gate's probe x^p alone would overflow at these s
    code, out, _ = run_cli(capsys, "verify", "--kind", "generic-h", "--cutoff",
                           "exp", "--lambda", "1", f"--s={s}")
    assert code == 0
    assert json.loads(out)["max_rel_residual"] < 1e-13


def test_eval_xi_past_the_theta_route(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "xi", "--s", "300")
    assert code == 0
    assert json.loads(out)["converged"] is True


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


def _log_lines(cache) -> list[str]:
    """The cache log's lines, each checked whole: newline, tab, a record."""
    with open(os.path.join(cache, "grid.log"), encoding="utf-8") as fh:
        text = fh.read()
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    for line in lines:
        key, record = line.split("\t")
        json.loads(key), json.loads(record)
    return lines


def test_grid_cache_roundtrip(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ("grid", "--fn", "xi-lambda", "--sigma", "0,0.5", "--t", "0,5",
            "--lambda", "0.7", "--format", "csv", "--cache-dir", cache)
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    assert os.listdir(cache) == ["grid.log"] and len(_log_lines(cache)) == 4
    code, second, _ = run_cli(capsys, *args)
    assert code == 0
    assert first == second  # cache-served rerun is byte-identical
    assert len(_log_lines(cache)) == 4  # and appends nothing


def test_grid_unreadable_cache_entry_is_recomputed(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("grid", "--fn", "omega", "--sigma", "0.3,0.7", "--t", "0,5",
            "--lambda", "0.5", "--format", "csv")
    code, cold, _ = run_cli(capsys, *args, "--cache-dir", "")
    assert code == 0
    run_cli(capsys, *args, "--cache-dir", str(cache))
    lines = _log_lines(cache)
    key = lines[1].split("\t")[0]
    lines[1] = key + "\t{not json"
    (cache / "grid.log").write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, again, _ = run_cli(capsys, *args, "--cache-dir", str(cache))
    assert code == 0
    assert again == cold
    last_key, record = (cache / "grid.log").read_text(
        encoding="utf-8").splitlines()[-1].split("\t")
    assert last_key == key and json.loads(record)["sigma"] in (0.3, 0.7)


def _no_row_call(monkeypatch, fn):
    def no_call(get, q, s_row):
        raise AssertionError(f"row call at {s_row}")

    monkeypatch.setitem(cli._GRID_ROWS, fn, no_call)


def test_grid_torn_last_line_is_a_miss(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    args = ("grid", "--fn", "xi-lambda", "--sigma", "0.2,0.6", "--t", "0,5",
            "--lambda", "0.5", "--format", "csv")
    code, cold, _ = run_cli(capsys, *args, "--cache-dir", "")
    assert code == 0
    run_cli(capsys, *args, "--cache-dir", str(cache))
    log = cache / "grid.log"
    text = log.read_text(encoding="utf-8")
    log.write_text(text[:-20], encoding="utf-8")  # a write cut short
    code, again, _ = run_cli(capsys, *args, "--cache-dir", str(cache))
    assert code == 0 and again == cold
    _no_row_call(monkeypatch, "xi-lambda")
    code, replay, _ = run_cli(capsys, *args, "--cache-dir", str(cache))
    assert code == 0 and replay == cold


def test_grid_processes_sharing_a_cache_append_whole_lines(tmp_path, capsys,
                                                           monkeypatch):
    cache = str(tmp_path / "cache")
    grids = [("grid", "--fn", "xi-lambda", "--sigma", sigma, "--t", "0,5",
              "--lambda", "0.05,0.5", "--format", "csv")
             for sigma in ("0.2,0.4,0.6", "0.4,0.6,0.8")]
    colds = [run_cli(capsys, *grid, "--cache-dir", "")[1] for grid in grids]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    procs = [subprocess.Popen([sys.executable, "-m", "zetalab.cli", *grid,
                               "--cache-dir", cache], env=env,
                              stdout=subprocess.PIPE, text=True)
             for grid in grids]
    outs = [proc.communicate(timeout=120)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outs == colds
    # 16 points, 8 of them shared: each line whole, each point there
    lines = _log_lines(cache)
    assert 16 <= len(lines) <= 24
    assert len({line.split("\t")[0] for line in lines}) == 16
    _no_row_call(monkeypatch, "xi-lambda")
    for grid, cold in zip(grids, colds):
        assert run_cli(capsys, *grid, "--cache-dir", cache)[1] == cold


def test_grid_replay_from_a_full_cache_makes_no_row_call(tmp_path, capsys,
                                                         monkeypatch):
    args = ("grid", "--fn", "xi-lambda", "--sigma", "0.2,0.6", "--t", "0,5",
            "--lambda", "0.05,0.5", "--format", "csv",
            "--cache-dir", str(tmp_path / "cache"))
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    _no_row_call(monkeypatch, "xi-lambda")
    code, second, _ = run_cli(capsys, *args)
    assert code == 0
    assert second == first


def test_grid_repeated_axis_values_are_one_point(capsys, monkeypatch):
    code, once, _ = run_cli(capsys, "grid", "--fn", "zeta", "--sigma", "0.5",
                            "--t", "1", "--cache-dir", "")
    assert code == 0
    rows = []
    row_call = cli._GRID_ROWS["zeta"]

    def counted(get, q, s_row):
        rows.append(s_row)
        return row_call(get, q, s_row)

    monkeypatch.setitem(cli._GRID_ROWS, "zeta", counted)
    code, twice, _ = run_cli(capsys, "grid", "--fn", "zeta", "--sigma",
                             "0.5,0.5", "--t", "1,1", "--cache-dir", "")
    assert code == 0
    assert twice == once
    assert rows == [[complex(0.5, 1.0)]]


@pytest.mark.parametrize("sigma", ["0:1", "1:0:0.1"])
def test_grid_bad_axis_range_exits_1(capsys, sigma):
    code, out, err = run_cli(capsys, "grid", "--fn", "zeta", "--sigma", sigma,
                             "--t", "1")
    assert code == 1 and out == ""
    assert "axis range" in err


def test_grid_cache_env_and_flag_priority(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "from-env"
    flag_dir = tmp_path / "from-flag"
    monkeypatch.setenv("ZETALAB_CACHE_DIR", str(env_dir))
    run_cli(capsys, "grid", "--fn", "zeta", "--sigma", "2", "--t", "0,1")
    assert len(_log_lines(env_dir)) == 2
    run_cli(capsys, "grid", "--fn", "zeta", "--sigma", "3", "--t", "0",
            "--cache-dir", str(flag_dir))
    assert len(_log_lines(flag_dir)) == 1
    assert len(_log_lines(env_dir)) == 2  # flag won; env dir untouched


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


_WALL_MS = re.compile(r',\n\s*"wall_ms": [^\n]*\n')


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, _WALL_MS.sub("\n", out.getvalue()), err.getvalue()


def _fresh_interpreter(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("ZETALAB_CACHE_DIR", None)
    done = subprocess.run([sys.executable, "-m", "zetalab.cli", *argv],
                          capture_output=True, env=env, text=True)
    return done.returncode, _WALL_MS.sub("\n", done.stdout), done.stderr


def test_one_parser_serves_every_call_of_a_process():
    # the parser is built once; what a call prints, to the streams current
    # at that call, is what a fresh interpreter prints
    jobs = (["eval", "--fn", "zeta", "--s", "0.5+3i"],
            ["verify", "--kind", "exp-symmetric", "--s", "0.3+5i",
             "--lambda", "0.5"],
            ["scan", "--t", "14:15"],
            ["grid", "--fn", "zeta", "--sigma", "0.5", "--t", "14:15:0.5",
             "--format", "csv", "--cache-dir", ""],
            ["eval", "--fn", "no-such-fn"],
            ["--version"],
            ["eval", "--fn", "zeta", "--s", "0.5+3i"])
    assert cli._parser() is cli._parser()
    got = [_in_process(argv) for argv in jobs]
    assert [code for code, _, _ in got] == [0, 0, 0, 0, 1, 0, 0]
    assert got == [_fresh_interpreter(argv) for argv in jobs]


def _zeta_reg_ref():
    rz = zeta_regularized(0.5 + 14j, ExpSymmetric(0.5 + 0j))
    return rz.bare, rz.completed.err_estimate


def _exact(value):
    return complex(value), 0.0


def _pair(r):
    return r.value, r.err_estimate


# selector -> (flags, echoed input keys besides fn, direct library call giving
# (value, err_estimate)); the direct call takes the values as the CLI parses
# them (complex where the table parses a complex)
EVAL_CASES = {
    "zeta": (["--s", "0.5+14.1i"], {"s"},
             lambda: _pair(zeta_analytic(0.5 + 14.1j))),
    "zeta-reg": (["--s", "0.5+14i", "--lambda", "0.5"],
                 {"s", "cutoff", "representation"}, _zeta_reg_ref),
    "bessel-k": (["--nu", "0.3+2i", "--z", "1"], {"nu", "z"},
                 lambda: _pair(bessel_k(0.3 + 2j, 1.0))),
    "theta": (["--v", "1.3"], {"v"}, lambda: _pair(big_theta(1.3))),
    "theta3": (["--z", "0.2+0.1i", "--nome", "0.3"], {"z", "nome"},
               lambda: _pair(jacobi_theta3(0.2 + 0.1j, 0.3 + 0j))),
    "psi": (["--x", "0.7"], {"x"}, lambda: _pair(psi(0.7))),
    "smooth-f": (["--s", "0.3+2i", "--lambda", "0.4"], {"s", "lambda"},
                 lambda: _pair(smooth_F(0.3 + 2j, 0.4 + 0j))),
    "hardy-z": (["--t", "20"], {"t"}, lambda: _pair(hardy_z(20.0))),
    "xi": (["--s", "0.3+4i"], {"s"}, lambda: _pair(xi_entire(0.3 + 4j))),
    "xi-lambda": (["--s", "0.3+4i", "--lambda", "0.6"], {"s", "lambda"},
                  lambda: _pair(xi_lambda(0.3 + 4j, 0.6))),
    "omega": (["--s", "0.3+4i", "--lambda", "0.6"], {"s", "lambda"},
              lambda: _pair(omega(0.3 + 4j, 0.6))),
    "heat-kernel": (["--t", "0.7", "--r", "1.1", "--d", "3"], {"t", "r", "d"},
                    lambda: _exact(heat_kernel_rd(0.7, 1.1, 3.0))),
    "heat-kernel-h3": (["--t", "0.7", "--rho", "1.1"], {"t", "rho"},
                       lambda: _exact(heat_kernel_h3(0.7, 1.1))),
    "heat-kernel-hd": (["--t", "0.7", "--rho", "1.1", "--d", "5"],
                       {"t", "rho", "d"},
                       lambda: _exact(heat_kernel_hyperbolic_odd(0.7, 1.1, 5))),
    "resolvent": (["--alpha", "1.5+0.2i", "--r", "0.8", "--d", "3"],
                  {"alpha", "r", "d"},
                  lambda: _pair(resolvent_rd_bessel(1.5 + 0.2j, 0.8, 3 + 0j))),
    "resolvent-quad": (["--alpha", "1.5+0.2i", "--r", "0.8", "--d", "3"],
                       {"alpha", "r", "d"},
                       lambda: _pair(resolvent_rd_quad(1.5 + 0.2j, 0.8, 3.0))),
    "laplace-h3": (["--alpha", "1.5+0.2i", "--rho", "0.8"], {"alpha", "rho"},
                   lambda: _pair(laplace_hyperbolic(1.5 + 0.2j, 0.8))),
}


@pytest.mark.parametrize("argv", [
    ["--fn", "laplace-h3", "--alpha", "1", "--rho", "720"],
    ["--fn", "heat-kernel-hd", "--t", "356", "--rho", "712", "--d", "3"]])
def test_eval_hyperbolic_past_sinh_overflow_prints_zero(capsys, argv):
    # sinh rho overflows past rho ~ 710.48, where both values are 0.0
    code, out, _ = run_cli(capsys, "eval", *argv)
    assert code == 0
    assert json.loads(out)["value"] == {"re": 0.0, "im": 0.0}


def test_eval_heat_kernel_hd_exits_2_where_the_ladder_cancels(capsys):
    code, out, err = run_cli(capsys, "eval", "--fn", "heat-kernel-hd", "--t",
                             "0.001", "--rho", "0.001", "--d", "21")
    assert code == 2 and out == ""
    assert "ladder cancels" in err


def test_every_eval_selector_has_a_case():
    assert set(EVAL_CASES) == set(cli._EVAL_FNS)


@pytest.mark.parametrize("fn", sorted(cli._EVAL_FNS))
def test_eval_selector_matches_its_library_call(capsys, fn):
    flags, keys, direct = EVAL_CASES[fn]
    code, out, _ = run_cli(capsys, "eval", "--fn", fn, *flags)
    assert code == 0
    doc = json.loads(out)
    assert set(doc["input"]) == {"fn"} | keys
    value, err = direct()
    assert doc["value"] == {"re": complex(value).real, "im": complex(value).imag}
    assert doc["err_estimate"] == err
    inputs, _ = cli._EVAL_FNS[fn]
    required = [name for name, *spec in inputs if len(spec) == 1]
    assert required
    for name in required:
        i = flags.index(f"--{name}")
        code, out, err_text = run_cli(capsys, "eval", "--fn", fn,
                                      *flags[:i], *flags[i + 2:])
        assert code == 1 and out == ""
        assert f"--{name} is required" in err_text


def test_eval_and_grid_look_up_the_library_function_when_called(capsys,
                                                                  monkeypatch):
    # perfbench/tracer.py counts calls by rebinding zetalab.cli's globals, so
    # the tables must not hold the function objects they saw at import; eval
    # calls omega, grid the row form that serves a (t, lambda) row at once
    calls = []

    def stub(s, lam, q):
        calls.append((s, lam))
        return EvalResult(value=1 + 2j, err_estimate=0.0, evaluations=1,
                          converged=True)

    monkeypatch.setattr(cli, "omega", stub)
    monkeypatch.setattr(cli, "_omega_row",
                        lambda s_row, lam, q: [stub(s, lam, q) for s in s_row])
    code, out, _ = run_cli(capsys, "eval", "--fn", "omega", "--s", "0.3",
                           "--lambda", "0.5")
    assert code == 0
    assert json.loads(out)["value"] == {"re": 1.0, "im": 2.0}
    code, out, _ = run_cli(capsys, "grid", "--fn", "omega", "--sigma", "0.3",
                           "--t", "0,1", "--lambda", "0.5", "--cache-dir", "",
                           "--format", "csv")
    assert code == 0
    assert calls == [(0.3 + 0j, 0.5), (0.3 + 0j, 0.5), (0.3 + 1j, 0.5)]
    assert out.split("\n")[1] == "0.29999999999999999,0,0.5,1,2,0"


def test_readme_lists_the_eval_selectors():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    listed = re.search(r"Eval functions:(.*?)\.\s", readme, re.S).group(1)
    assert re.findall(r"`([^`]+)`", listed) == list(cli._EVAL_FNS)


def test_readme_lists_the_verify_kinds_and_generic_h_cutoffs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    kinds = re.search(r"Verify kinds:(.*?)\.\s", readme, re.S).group(1)
    assert set(re.findall(r"`([^`]+)`", kinds)) == {k.value for k in FunctionalEqKind}
    cutoffs = re.search(r"`generic-h` needs\s+`--cutoff`:(.*?);", readme, re.S).group(1)
    helped = _help_of(cli.build_parser(), "verify", "--cutoff").split(":", 1)[1]
    assert (set(re.findall(r"`([^`]+)`", cutoffs))
            == {k.strip() for k in helped.split("|")})


@pytest.mark.parametrize("argv", [
    ("verify", "--kind", "exp-alpha", "--lambda", ",", "--alpha", "0.5"),
    ("verify", "--kind", "exp-alpha", "--lambda", "0.5", "--alpha", ","),
    ("verify", "--kind", "two-param", "--lambda1", ",", "--lambda2", "0.7"),
    ("verify", "--kind", "exp-symmetric", "--lambda", ","),
    ("verify", "--kind", "quarter-alpha-single-k", "--lambda", ""),
    ("grid", "--fn", "zeta", "--sigma", "2", "--t", ","),
    ("grid", "--fn", "omega", "--sigma", "0.5", "--t", "1", "--lambda", ","),
])
def test_empty_list_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "at least one value" in err


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_verify_non_finite_threshold_exits_1_before_computing(
        capsys, monkeypatch, threshold):
    def no_verify(*args):
        raise AssertionError("verify ran")

    monkeypatch.setattr(cli, "verify", no_verify)
    code, out, err = run_cli(capsys, "verify", "--kind", "riemann-classic",
                             "--s", "0.4", f"--threshold={threshold}")
    assert code == 1
    assert out == ""
    assert "--threshold must be finite" in err


def _help_of(parser, command, flag):
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    return next(a for a in sub._actions if flag in a.option_strings).help


def _plain(*flags):
    return {(f"--{flag}",): (flag, None) for flag in flags}


# every option of each subcommand, frozen: option strings -> (dest, default).
# The value flags are generated from the selector tables, so a table edit
# that adds or drops a flag fails here.
_COMMON_OPTIONS = {
    ("-h", "--help"): ("help", argparse.SUPPRESS),
    ("--abs-tol",): ("abs_tol", None), ("--rel-tol",): ("rel_tol", None),
    ("--max-terms",): ("max_terms", None), ("--out",): ("out", None),
    ("--format",): ("format", "json"), ("--cache-dir",): ("cache_dir", None),
    ("--jobs",): ("jobs", 1),
}
_LAMBDA_OPTION = {("--lambda",): ("lam", None)}
CLI_OPTIONS = {
    "eval": {**_COMMON_OPTIONS, **_LAMBDA_OPTION,
             **_plain("fn", "s", "lambda1", "lambda2", "alpha", "nu", "z",
                      "nome", "t", "r", "rho", "d", "v", "x", "cutoff")},
    "verify": {**_COMMON_OPTIONS, **_LAMBDA_OPTION,
               ("--s-grid",): ("s_grid", None),
               ("--threshold",): ("threshold", 1e-8),
               **_plain("kind", "s", "lambda1", "lambda2", "alpha", "cutoff",
                        "nu")},
    "scan": {**_COMMON_OPTIONS, ("--step",): ("step", 0.05), **_plain("t")},
    "grid": {**_COMMON_OPTIONS, **_LAMBDA_OPTION,
             **_plain("fn", "sigma", "t")},
}
CLI_HELP = {
    ("eval", "--s"): "complex, e.g. 0.5+14.1i",
    ("eval", "--cutoff"): "none | exp | exp-alpha | two-param | two-param-nu",
    ("verify", "--lambda"): "comma-separated lambda values",
    ("verify", "--alpha"): "comma-separated alpha values",
    ("verify", "--cutoff"): "generic-h cutoff: exp | exp-alpha | two-param | "
                            "two-param-nu | custom:log-symmetric | "
                            "custom:asymmetric",
}


def test_each_command_offers_exactly_its_options():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(CLI_OPTIONS)
    for command, options in CLI_OPTIONS.items():
        got = {tuple(a.option_strings): (a.dest, a.default)
               for a in sub.choices[command]._actions}
        assert got == options, command
    for (command, flag), text in CLI_HELP.items():
        assert _help_of(parser, command, flag) == text


def test_verify_cutoff_help_names_every_kind_generic_h_accepts():
    parser = cli.build_parser()
    listed = _help_of(parser, "verify", "--cutoff").split(":", 1)[1]
    named = {k.strip() for k in listed.split("|")}
    # every name eval --cutoff knows, plus the custom test cutoffs
    candidates = ({k.strip() for k in _help_of(parser, "eval", "--cutoff").split("|")}
                  | set(cli._CUSTOM_CUTOFFS))
    values = {"alpha": "0.9", "lambda1": "0.5", "lambda2": "0.7", "nu": "1.2"}

    def accepted(kind):
        get = cli._reader(argparse.Namespace(lam=None, **values))
        try:
            cli._cutoff_from(get, kind, 1.0)
        except DomainError:
            return False
        return True

    assert {k for k in candidates if accepted(k)} == named


@pytest.mark.parametrize("fn", ["omega", "xi-lambda", "zeta-reg", "zeta"])
def test_grid_rows_equal_per_point_eval(tmp_path, capsys, fn):
    # rows of three sigma: (t, lam) = (5, 0.01) and (5, 4.9) on the ray,
    # (0, 0.01) and (0, 4.9) on the real axis, the rest on the Bessel series
    routes = {}
    for t, lam in ((5.0, 0.01), (5.0, 4.9), (0.0, 0.01), (0.0, 4.9), (0.0, 5.0)):
        code, out, _ = run_cli(capsys, "eval", "--fn", "zeta-reg", "--s",
                               f"0.4+{t}i", "--lambda", str(lam))
        routes[t, lam] = json.loads(out)["input"]["representation"]
    assert routes == {(5.0, 0.01): "quadrature", (5.0, 4.9): "quadrature",
                      (0.0, 0.01): "quadrature", (0.0, 4.9): "quadrature",
                      (0.0, 5.0): "bessel-series"}
    grid = ("grid", "--fn", fn, "--sigma", "0.2:0.6:0.2", "--t", "0,5",
            "--lambda", "0.01,4.9,5")
    code, out, _ = run_cli(capsys, *grid, "--cache-dir", "")
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == 18
    for rec in records:
        code, one, _ = run_cli(capsys, "eval", "--fn", fn, "--s",
                               f"{rec['sigma']}+{rec['t']}i",
                               "--lambda", str(rec["lambda"]))
        assert code == 0
        doc = json.loads(one)
        assert (rec["value"], rec["err_estimate"]) == (doc["value"],
                                                       doc["err_estimate"])
    # a row the cache holds in part computes the rest, to the same bytes
    cache = str(tmp_path / "cache")
    run_cli(capsys, "grid", "--fn", fn, "--sigma", "0.2,0.6", "--t", "0,5",
            "--lambda", "0.01,4.9,5", "--cache-dir", cache)
    code, again, _ = run_cli(capsys, *grid, "--cache-dir", cache)
    assert code == 0
    assert json.loads(again)["records"] == records
