"""Command-line front end: eval, verify, scan, grid.

Exit codes: 0 success, 1 usage / bad parameters, 2 numerical failure
(poles, non-convergence, verification above threshold), 3 symmetry
violation, 4 I/O failure.  All machine output goes to stdout (or --out);
progress and summaries go to stderr.

grid walks its (t, lambda) rows: the points of a row that the cache does
not hold are computed in one call, whose completed values share a
quadrature pass (omega, xi-lambda and zeta-reg).  Each point still goes
through the cache under its own key, with the record an `eval` of it would
print.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import sys
import time

from . import __version__
from .bessel import bessel_k
from .cache import CacheLog, cache_key, get_or_compute, resolve_cache_dir
from .cutoffs import (CustomCutoff, CutoffSpec, ExpAlpha, ExpSymmetric,
                      NoCutoff, TwoParam, TwoParamNu, _damped_exp)
from .diffusion import (heat_kernel_h3, heat_kernel_hyperbolic_odd,
                        heat_kernel_rd, laplace_hyperbolic,
                        resolvent_rd_bessel, resolvent_rd_quad)
from .errors import (DomainError, NonConvergence, NonFiniteIntegrand,
                     PoleError, SymmetryViolation)
from .funceq import STANDARD_S_GRID, FunctionalEqKind, verify
from .records import (complex_to_obj, csv_text, dumps_record, parse_complex)
from .regularized import (_omega_row, _xi_lambda_row, _zeta_regularized_row,
                          omega, smooth_F, xi_lambda)
from .theta import big_theta, jacobi_theta3, psi
from .types import DEFAULT_QUAD, EvalResult, QuadratureSpec
from .zeta_classic import find_zeros, hardy_z, xi_entire, zeta_analytic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_SYMMETRY = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--abs-tol", type=float, default=None)
    common.add_argument("--rel-tol", type=float, default=None)
    common.add_argument("--max-terms", type=int, default=None)
    common.add_argument("--out", default=None, help="write output here "
                        "instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--cache-dir", default=None,
                        help="overrides ZETALAB_CACHE_DIR")
    common.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored; grid points run in order")
    return common


def build_parser() -> _Parser:
    parser = _Parser(prog="zetalab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"zetalab {__version__}")
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate one function at one point")
    p_eval.add_argument("--fn", required=True, choices=sorted(_EVAL_FNS))
    _value_flags(p_eval, [name for inputs, _ in _EVAL_FNS.values()
                          for name, *_ in inputs],
                 {"s": "complex, e.g. 0.5+14.1i",
                  "cutoff": " | ".join(_EVAL_CUTOFFS)})

    p_verify = sub.add_parser("verify", parents=[common],
                              help="check a functional equation")
    p_verify.add_argument("--kind", required=True,
                          choices=sorted(k.value for k in FunctionalEqKind))
    p_verify.add_argument("--s", default=None,
                          help="single s (use --s=-1+2i for negatives)")
    p_verify.add_argument("--s-grid", default=None, choices=("strip-default",),
                          help="named s grid (default when --s is absent)")
    p_verify.add_argument("--threshold", type=float, default=1e-8,
                          help="relative residual for exit 0 (default 1e-8)")
    _value_flags(p_verify, [flag for params in _VERIFY_PARAMS.values()
                            for _, flag, _ in params],
                 {"lambda": "comma-separated lambda values",
                  "alpha": "comma-separated alpha values",
                  "cutoff": "generic-h cutoff: " + " | ".join(_VERIFY_CUTOFFS)})

    p_scan = sub.add_parser("scan", parents=[common],
                            help="bracket Hardy-Z sign changes")
    p_scan.add_argument("--t", required=True, help="range LO:HI")
    p_scan.add_argument("--step", type=float, default=0.05)

    p_grid = sub.add_parser("grid", parents=[common],
                            help="tabulate a function over a parameter grid")
    p_grid.add_argument("--fn", required=True, choices=sorted(_GRID_ROWS))
    p_grid.add_argument("--sigma", required=True,
                        help="LO:HI:STEP or comma-separated values")
    p_grid.add_argument("--t", required=True,
                        help="LO:HI:STEP or comma-separated values")
    p_grid.add_argument("--lambda", dest="lam", default=None,
                        help="comma-separated lambda values")
    return parser


def _dest(flag: str) -> str:
    """The namespace attribute of --flag; --lambda is stored as lam."""
    return "lam" if flag == "lambda" else flag


def _value_flags(p: argparse.ArgumentParser, names, helps: dict) -> None:
    """An optional flag --name, read as text, for each of names and each
    flag `_cutoff_from` reads, in sorted order, with its text in helps."""
    for name in sorted({*names, *_CUTOFF_FLAGS}):
        p.add_argument(f"--{name}", dest=_dest(name), help=helps.get(name))


def _quad_from(args) -> QuadratureSpec:
    changes = {name: value for name in ("abs_tol", "rel_tol", "max_terms")
               if (value := getattr(args, name)) is not None}
    return dataclasses.replace(DEFAULT_QUAD, **changes) if changes else DEFAULT_QUAD


def _reader(ns):
    """get(name, parse[, default]): flag --name of namespace ns, parsed.

    An absent flag gives the default, or a DomainError when there is none.
    """
    def get(name: str, parse, *default):
        raw = getattr(ns, _dest(name))
        if raw is None:
            if default:
                return default[0]
            raise DomainError(f"--{name} is required for this selector")
        return parse(raw)
    return get


def _float(text) -> float:
    z = parse_complex(str(text))
    if z.imag != 0.0:
        raise DomainError(f"expected a real number, got {text!r}")
    return z.real


def _list_parts(text) -> list[str]:
    parts = [part for part in str(text).split(",") if part != ""]
    if not parts:
        raise DomainError(f"expected at least one value, got {text!r}")
    return parts


def _float_list(text: str) -> list[float]:
    return [_float(part) for part in _list_parts(text)]


def _complex_list(text: str) -> list[complex]:
    return [parse_complex(part) for part in _list_parts(text)]


def _axis(text: str) -> list[float]:
    """LO:HI:STEP (inclusive ends) or a comma-separated list, or one value."""
    text = str(text)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"axis range must be LO:HI:STEP, got {text!r}")
        lo, hi, step = (_float(p) for p in parts)
        if step <= 0.0 or hi < lo:
            raise DomainError(f"bad axis range {text!r}")
        n = int(math.floor((hi - lo) / step + 1e-9))
        return [round(lo + k * step, 12) for k in range(n + 1)]
    return _float_list(text)


def _emit(args, q: QuadratureSpec, header: list[str], rows: list[list],
          doc: dict, **meta) -> None:
    """Write rows as CSV or doc plus its meta block as JSON, per --format."""
    if args.format == "csv":
        text = csv_text(header, rows)
    else:
        text = dumps_record({**doc, "meta": {
            "version": __version__, "quadrature": dataclasses.asdict(q), **meta}})
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _echo(value):
    """value with each complex in it, also inside dicts, as {"re", "im"}."""
    if isinstance(value, dict):
        return {k: _echo(v) for k, v in value.items()}
    if isinstance(value, complex):
        return complex_to_obj(value)
    return value


def _csv_rows(header: list[str], records: list[dict]) -> list[list]:
    """Each record's cells under header's names; the columns name_re and
    name_im read the complex field name, echoed as {"re", "im"}."""
    def cell(record: dict, column: str):
        name, _, part = column.rpartition("_")
        return record[name][part] if part in ("re", "im") else record[column]
    return [[cell(record, column) for column in header] for record in records]


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------


def _custom_h(name: str, lam: float):
    """h(x) of the generic-h test cutoffs; both are *declared* symmetric."""
    if name == "custom:log-symmetric":
        return lambda x: _damped_exp(lam * math.log(x) * math.log(x))
    # deliberately weighted toward 1/x, so the verifier's spot-check is what
    # must catch it
    return lambda x: _damped_exp(lam * (x + 2.0 / x))


_CUSTOM_CUTOFFS = ("custom:log-symmetric", "custom:asymmetric")
# the kinds _cutoff_from builds for eval, and for verify generic-h
_EVAL_CUTOFFS = ("none", "exp", "exp-alpha", "two-param", "two-param-nu")
_VERIFY_CUTOFFS = (*_EVAL_CUTOFFS[1:], *_CUSTOM_CUTOFFS)
# the flags _cutoff_from reads
_CUTOFF_FLAGS = ("cutoff", "lambda", "lambda1", "lambda2", "alpha", "nu")


def _cutoff_from(get, kind: str, lam: float | None = None) -> CutoffSpec:
    """The cutoff named kind, its parameters read through get.

    eval leaves lam to --lambda (complex for exp, real for exp-alpha) and may
    name none; verify generic-h passes its real --lambda (default 1) as lam
    and may name a custom: test cutoff.
    """
    if kind not in (_EVAL_CUTOFFS if lam is None else _VERIFY_CUTOFFS):
        raise DomainError(f"unknown cutoff {kind!r}")
    if kind == "none":
        return NoCutoff()
    if kind in _CUSTOM_CUTOFFS:
        return CustomCutoff(fn=_custom_h(kind, lam), declared_symmetric=True,
                            label=kind)
    if kind == "exp":
        return ExpSymmetric(lam=get("lambda", parse_complex) if lam is None else lam)
    if kind == "exp-alpha":
        return ExpAlpha(lam=get("lambda", _float) if lam is None else lam,
                        alpha=get("alpha", _float))
    lam1, lam2 = get("lambda1", parse_complex), get("lambda2", parse_complex)
    if kind == "two-param":
        return TwoParam(lam1=lam1, lam2=lam2)
    return TwoParamNu(lam1=lam1, lam2=lam2, nu=get("nu", _float))


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _zeta_reg_row(cutoff: CutoffSpec, q, s_row):
    """zeta-reg at each s of s_row (sharing Im s): (EvalResult, echo) pairs.

    The record carries the bare value with the completed value's estimate.
    """
    return [(EvalResult(value=rz.bare,
                        err_estimate=rz.completed.err_estimate,
                        evaluations=rz.completed.evaluations,
                        converged=rz.completed.converged),
             {"cutoff": cutoff.kind_name, "representation": rz.representation})
            for rz in _zeta_regularized_row(s_row, cutoff, q)]


def _odd_order(d: float) -> int:
    if d != int(d):
        raise DomainError("--d must be an odd integer >= 3 here")
    return int(d)


_S = ("s", parse_complex)
_LAMBDA = ("lambda", _float)

# selector -> (inputs, call).  An input is (name, parser) or (name, parser,
# default): flag --name, echoed under "input" as name.  call(get, q, *values)
# gets the inputs in order and returns an EvalResult, a float (exact closed
# forms), or (EvalResult, extra echo fields).  Calls name their library
# function inside the lambda, so it is looked up when the call runs.
# zeta-reg's cutoff is --cutoff's kind; without it, none without --lambda
# and exp with it.
_EVAL_FNS = {
    "zeta": ((_S,), lambda _, q, s: zeta_analytic(s, q)),
    "zeta-reg": ((_S,), lambda get, q, s: _zeta_reg_row(_cutoff_from(
        get, get("cutoff", str, None)
        or ("exp" if get("lambda", str, None) else "none")), q, [s])[0]),
    "bessel-k": ((("nu", parse_complex), ("z", _float)),
                 lambda _, q, nu, z: bessel_k(nu, z, q)),
    "theta": ((("v", _float),), lambda _, q, v: big_theta(v, q)),
    "theta3": ((("z", parse_complex), ("nome", parse_complex)),
               lambda _, q, z, nome: jacobi_theta3(z, nome, q)),
    "psi": ((("x", _float),), lambda _, q, x: psi(x, q)),
    "smooth-f": ((_S, ("lambda", parse_complex, 0.0)),
                 lambda _, q, s, lam: smooth_F(s, lam, q)),
    "hardy-z": ((("t", _float),), lambda _, q, t: hardy_z(t, q)),
    "xi": ((_S,), lambda _, q, s: xi_entire(s, q)),
    "xi-lambda": ((_S, _LAMBDA), lambda _, q, s, lam: xi_lambda(s, lam, q)),
    "omega": ((_S, _LAMBDA), lambda _, q, s, lam: omega(s, lam, q)),
    "heat-kernel": ((("t", _float), ("r", _float), ("d", _float)),
                    lambda _, q, t, r, d: heat_kernel_rd(t, r, d)),
    "heat-kernel-h3": ((("t", _float), ("rho", _float)),
                       lambda _, q, t, rho: heat_kernel_h3(t, rho)),
    "heat-kernel-hd": ((("t", _float), ("rho", _float), ("d", _float)),
                       lambda _, q, t, rho, d: heat_kernel_hyperbolic_odd(
                           t, rho, _odd_order(d))),
    "resolvent": ((("alpha", parse_complex), ("r", _float), ("d", parse_complex)),
                  lambda _, q, alpha, r, d: resolvent_rd_bessel(alpha, r, d, q)),
    "resolvent-quad": ((("alpha", parse_complex), ("r", _float), ("d", _float)),
                       lambda _, q, alpha, r, d: resolvent_rd_quad(alpha, r, d, q)),
    "laplace-h3": ((("alpha", parse_complex), ("rho", _float)),
                   lambda _, q, alpha, rho: laplace_hyperbolic(alpha, rho, q)),
}


def _evaluate(fn: str, get, q: QuadratureSpec) -> tuple[EvalResult, dict]:
    """Read selector fn's inputs through get and call it: (result, echo)."""
    inputs, call = _EVAL_FNS[fn]
    values = {name: get(name, *spec) for name, *spec in inputs}
    out = call(get, q, *values.values())
    result, extra = out if isinstance(out, tuple) else (out, {})
    if not isinstance(result, EvalResult):
        result = EvalResult(value=complex(result), err_estimate=0.0,
                            evaluations=0, converged=True)
    return result, {**values, **extra}


def _cmd_eval(args) -> int:
    q = _quad_from(args)
    t0 = time.perf_counter()
    result, inputs = _evaluate(args.fn, _reader(args), q)
    wall_ms = (time.perf_counter() - t0) * 1e3
    value = complex(result.value)
    record = {
        "input": {"fn": args.fn, **_echo(inputs)},
        "value": complex_to_obj(value),
        "err_estimate": result.err_estimate,
        "converged": result.converged,
    }
    _emit(args, q, ["fn", "value_re", "value_im", "err_estimate", "converged"],
          [[args.fn, value.real, value.imag, result.err_estimate,
            result.converged]], record, wall_ms=wall_ms)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# kind -> its parameters, each (params key, flag, list parser); every
# combination is checked, the first parameter outermost.  generic-h takes
# one cutoff instead (_verify_param_sets).
_VERIFY_PARAMS = {
    "riemann-classic": (),
    "exp-symmetric": (("lam", "lambda", _complex_list),),
    "quarter-alpha-single-k": (("lam", "lambda", _float_list),),
    "exp-alpha": (("lam", "lambda", _float_list),
                  ("alpha", "alpha", _float_list)),
    "two-param": (("lam1", "lambda1", _complex_list),
                  ("lam2", "lambda2", _complex_list)),
}


def _verify_param_sets(args) -> list[dict]:
    get = _reader(args)
    if args.kind == FunctionalEqKind.GENERIC_H.value:
        return [{"cutoff": _cutoff_from(get, get("cutoff", str),
                                        get("lambda", _float, 1.0))}]
    params = _VERIFY_PARAMS[args.kind]
    keys = [key for key, _, _ in params]
    lists = [get(flag, parse) for _, flag, parse in params]
    return [dict(zip(keys, combo)) for combo in itertools.product(*lists)]


def _cmd_verify(args) -> int:
    if not math.isfinite(args.threshold):
        raise DomainError(f"--threshold must be finite, got {args.threshold!r}")
    q = _quad_from(args)
    kind = FunctionalEqKind(args.kind)
    s_values = ([parse_complex(args.s)] if args.s is not None
                else list(STANDARD_S_GRID))
    records = []
    worst = 0.0
    for params in _verify_param_sets(args):
        for s in s_values:
            report = verify(kind, s, params, q)
            worst = max(worst, report.rel_residual)
            records.append(_echo(dataclasses.asdict(report)))
    header = ["kind", "s_re", "s_im", "lhs_re", "lhs_im", "rhs_re",
              "rhs_im", "abs_residual", "rel_residual"]
    _emit(args, q, header, _csv_rows(header, records),
          {"records": records, "max_rel_residual": worst,
           "threshold": args.threshold})
    print(f"verify {kind.value}: {len(records)} checks, "
          f"max rel residual {worst:.3e}", file=sys.stderr)
    return EXIT_OK if worst < args.threshold else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def _cmd_scan(args) -> int:
    parts = str(args.t).split(":")
    if len(parts) != 2:
        raise DomainError(f"--t must be LO:HI, got {args.t!r}")
    t_lo, t_hi = _float(parts[0]), _float(parts[1])
    q = _quad_from(args)
    brackets = find_zeros(t_lo, t_hi, args.step, q)
    rows = [[b.t_lo, b.t_hi, b.refined_t, abs(hardy_z(b.refined_t, q).value)]
            for b in brackets]
    _emit(args, q, ["t_lo", "t_hi", "refined_t", "|Z(refined_t)|"], rows,
          {"records": [{"t_lo": a, "t_hi": b, "refined_t": c, "abs_z": d}
                       for a, b, c, d in rows]})
    print(f"scan [{t_lo}, {t_hi}] step {args.step}: {len(rows)} sign changes",
          file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

# eval selectors a grid can tabulate over s = sigma + i t and --lambda ->
# row call: call(lam, q, s_row) gives the EvalResults of the selector at the
# s of one (t, lambda) row.  The damped selectors' completed values share one
# quadrature pass (or run the Bessel series one s at a time); zeta-reg takes
# the exp-symmetric cutoff.  Looked up when called, as _EVAL_FNS is.
_GRID_ROWS = {
    "zeta": lambda _, q, s_row: [zeta_analytic(s, q) for s in s_row],
    "zeta-reg": lambda lam, q, s_row: [
        r for r, _ in _zeta_reg_row(ExpSymmetric(lam), q, s_row)],
    "omega": lambda lam, q, s_row: _omega_row(s_row, lam, q),
    "xi-lambda": lambda lam, q, s_row: _xi_lambda_row(s_row, lam, q),
}


def _cmd_grid(args) -> int:
    q = _quad_from(args)
    # a value repeated on an axis is one point
    sigmas, ts = sorted(set(_axis(args.sigma))), sorted(set(_axis(args.t)))
    lams = ([None] if args.lam is None
            else sorted(set(_float_list(args.lam))))
    if lams == [None] and args.fn != "zeta":
        raise DomainError("--lambda is required for this selector")
    cache_dir = resolve_cache_dir(args.cache_dir)
    log = CacheLog(cache_dir) if cache_dir is not None else None
    held = log.entries if log is not None else {}
    quad_obj = dataclasses.asdict(q)
    row_call = _GRID_ROWS[args.fn]
    by_row = []                 # each (t, lambda) row's records, sigma ascending
    for t, lam in itertools.product(ts, lams):
        lam_param = {} if lam is None else {"lambda": lam}
        params = [{"sigma": sigma, "t": t, **lam_param} for sigma in sigmas]
        keys = [cache_key(args.fn, p, quad_obj) for p in params]
        missing = [i for i, key in enumerate(keys) if key not in held]
        computed = {}           # index in sigmas -> EvalResult
        if missing:
            computed = dict(zip(missing, row_call(
                lam, q, [complex(sigmas[i], t) for i in missing])))

        def compute(i: int) -> dict:
            # an entry that exists but does not read is computed on its own
            result = (computed[i] if i in computed
                      else row_call(lam, q, [complex(sigmas[i], t)])[0])
            return {**params[i], "value": complex_to_obj(result.value),
                    "err_estimate": result.err_estimate}

        by_row.append([
            get_or_compute(log, key, functools.partial(compute, i))
            for i, key in enumerate(keys)])
    # sigma outermost, then t, then lambda: the sorted order of the points
    results = [row[i] for i in range(len(sigmas)) for row in by_row]
    header = ["sigma", "t", *(["lambda"] if lams != [None] else []),
              "value_re", "value_im", "err_estimate"]
    _emit(args, q, header, _csv_rows(header, results), {"records": results})
    return EXIT_OK


# ---------------------------------------------------------------------------


_COMMANDS = {"eval": _cmd_eval, "verify": _cmd_verify, "scan": _cmd_scan,
             "grid": _cmd_grid}


@functools.cache
def _parser() -> _Parser:
    """The parser, built once a process; it prints usage, help and version
    to the sys.stdout and sys.stderr current when it prints."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"zetalab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PoleError, NonConvergence, NonFiniteIntegrand,
            ArithmeticError) as exc:
        # ArithmeticError: a float overflow the library did not foresee
        print(f"zetalab: error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SymmetryViolation as exc:
        print(f"zetalab: error: {exc}", file=sys.stderr)
        return EXIT_SYMMETRY
    except OSError as exc:
        print(f"zetalab: error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
