"""Command-line front end: eval, verify, scan, grid.

Exit codes: 0 success, 1 usage / bad parameters, 2 numerical failure
(poles, non-convergence, verification above threshold), 3 symmetry
violation, 4 I/O failure.  All machine output goes to stdout (or --out);
progress and summaries go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time

from . import __version__
from .bessel import bessel_k
from .cache import cache_key, get_or_compute, resolve_cache_dir
from .cutoffs import (CustomCutoff, CutoffSpec, ExpAlpha, ExpSymmetric,
                      NoCutoff, TwoParam, TwoParamNu)
from .diffusion import (heat_kernel_h3, heat_kernel_hyperbolic_odd,
                        heat_kernel_rd, laplace_hyperbolic,
                        resolvent_rd_bessel, resolvent_rd_quad)
from .errors import (DomainError, NonConvergence, NonFiniteIntegrand,
                     PoleError, SymmetryViolation)
from .funceq import STANDARD_S_GRID, FunctionalEqKind, verify
from .records import (complex_to_obj, csv_text, dumps_record, parse_complex)
from .regularized import omega, smooth_F, xi_lambda, zeta_regularized
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
    _point_flags(p_eval)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="check a functional equation")
    p_verify.add_argument("--kind", required=True,
                          choices=sorted(k.value for k in FunctionalEqKind))
    p_verify.add_argument("--s", default=None,
                          help="single s (use --s=-1+2i for negatives)")
    p_verify.add_argument("--s-grid", default=None, choices=("strip-default",),
                          help="named s grid (default when --s is absent)")
    p_verify.add_argument("--lambda", dest="lam", default=None,
                          help="comma-separated lambda values")
    p_verify.add_argument("--lambda1", default=None)
    p_verify.add_argument("--lambda2", default=None)
    p_verify.add_argument("--alpha", default=None,
                          help="comma-separated alpha values")
    p_verify.add_argument("--cutoff", default=None,
                          help="generic-h cutoff: exp | two-param | "
                               "two-param-nu | custom:log-symmetric | "
                               "custom:asymmetric")
    p_verify.add_argument("--nu", default=None, type=float)
    p_verify.add_argument("--threshold", type=float, default=1e-8,
                          help="relative residual for exit 0 (default 1e-8)")

    p_scan = sub.add_parser("scan", parents=[common],
                            help="bracket Hardy-Z sign changes")
    p_scan.add_argument("--t", required=True, help="range LO:HI")
    p_scan.add_argument("--step", type=float, default=0.05)

    p_grid = sub.add_parser("grid", parents=[common],
                            help="tabulate a function over a parameter grid")
    p_grid.add_argument("--fn", required=True, choices=sorted(_GRID_FNS))
    p_grid.add_argument("--sigma", required=True,
                        help="LO:HI:STEP or comma-separated values")
    p_grid.add_argument("--t", required=True,
                        help="LO:HI:STEP or comma-separated values")
    p_grid.add_argument("--lambda", dest="lam", default=None,
                        help="comma-separated lambda values")
    return parser


def _point_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s", default=None, help="complex, e.g. 0.5+14.1i")
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--lambda1", default=None)
    p.add_argument("--lambda2", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--nu", default=None)
    p.add_argument("--z", default=None)
    p.add_argument("--nome", default=None)
    p.add_argument("--t", default=None)
    p.add_argument("--r", default=None)
    p.add_argument("--rho", default=None)
    p.add_argument("--d", default=None)
    p.add_argument("--v", default=None)
    p.add_argument("--x", default=None)
    p.add_argument("--cutoff", default=None,
                   help="none | exp | exp-alpha | two-param | two-param-nu")


def _quad_from(args) -> QuadratureSpec:
    q = DEFAULT_QUAD
    changes = {}
    if args.abs_tol is not None:
        changes["abs_tol"] = args.abs_tol
    if args.rel_tol is not None:
        changes["rel_tol"] = args.rel_tol
    if args.max_terms is not None:
        changes["max_terms"] = args.max_terms
    return dataclasses.replace(q, **changes) if changes else q


def _quad_obj(q: QuadratureSpec) -> dict:
    return {"abs_tol": q.abs_tol, "rel_tol": q.rel_tol,
            "series_tail_tol": q.series_tail_tol,
            "max_levels": q.max_levels, "max_terms": q.max_terms}


def _need(args, name: str, parse, flag: str | None = None):
    raw = getattr(args, name)
    if raw is None:
        raise DomainError(f"--{flag or name} is required for this selector")
    return parse(raw)


def _float(text) -> float:
    z = parse_complex(str(text))
    if z.imag != 0.0:
        raise DomainError(f"expected a real number, got {text!r}")
    return z.real


def _float_list(text: str) -> list[float]:
    return [_float(part) for part in str(text).split(",") if part != ""]


def _complex_list(text: str) -> list[complex]:
    return [parse_complex(part) for part in str(text).split(",") if part != ""]


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


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _build_cutoff(args, default_kind: str | None = None) -> CutoffSpec:
    kind = args.cutoff or default_kind or "none"
    if kind == "none":
        return NoCutoff()
    if kind == "exp":
        return ExpSymmetric(lam=_need(args, "lam", parse_complex, "lambda"))
    if kind == "exp-alpha":
        return ExpAlpha(lam=_need(args, "lam", _float, "lambda"),
                        alpha=_need(args, "alpha", _float))
    if kind == "two-param":
        return TwoParam(lam1=_need(args, "lambda1", parse_complex),
                        lam2=_need(args, "lambda2", parse_complex))
    if kind == "two-param-nu":
        return TwoParamNu(lam1=_need(args, "lambda1", parse_complex),
                          lam2=_need(args, "lambda2", parse_complex),
                          nu=_need(args, "nu", _float))
    raise DomainError(f"unknown cutoff kind {kind!r} for evaluation")


def _eval_zeta(args, q):
    s = _need(args, "s", parse_complex)
    return zeta_analytic(s, q), {"s": s}


def _eval_zeta_reg(args, q):
    s = _need(args, "s", parse_complex)
    cutoff = _build_cutoff(args, default_kind="exp" if args.lam else "none")
    rz = zeta_regularized(s, cutoff, q)
    res = EvalResult(value=rz.bare,
                     err_estimate=rz.completed.err_estimate,
                     evaluations=rz.completed.evaluations,
                     converged=rz.completed.converged)
    return res, {"s": s, "cutoff": cutoff.kind_name,
                 "representation": rz.representation}


def _eval_bessel_k(args, q):
    nu = _need(args, "nu", parse_complex)
    z = _need(args, "z", _float)
    return bessel_k(nu, z, q), {"nu": nu, "z": z}


def _eval_theta(args, q):
    v = _need(args, "v", _float)
    return big_theta(v, q), {"v": v}


def _eval_theta3(args, q):
    z = _need(args, "z", parse_complex)
    nome = _need(args, "nome", parse_complex)
    return jacobi_theta3(z, nome, q), {"z": z, "nome": nome}


def _eval_psi(args, q):
    x = _need(args, "x", _float)
    return psi(x, q), {"x": x}


def _eval_smooth_f(args, q):
    s = _need(args, "s", parse_complex)
    lam = parse_complex(args.lam) if args.lam is not None else 0.0
    return smooth_F(s, lam, q), {"s": s, "lambda": lam}


def _eval_hardy_z(args, q):
    t = _need(args, "t", _float)
    return hardy_z(t, q), {"t": t}


def _eval_xi(args, q):
    s = _need(args, "s", parse_complex)
    return xi_entire(s, q), {"s": s}


def _eval_xi_lambda(args, q):
    s = _need(args, "s", parse_complex)
    lam = _need(args, "lam", _float, "lambda")
    return xi_lambda(s, lam, q), {"s": s, "lambda": lam}


def _eval_omega(args, q):
    s = _need(args, "s", parse_complex)
    lam = _need(args, "lam", _float, "lambda")
    return omega(s, lam, q), {"s": s, "lambda": lam}


def _eval_heat_kernel(args, q):
    t = _need(args, "t", _float)
    r = _need(args, "r", _float)
    d = _need(args, "d", _float)
    val = heat_kernel_rd(t, r, d)
    return (EvalResult(value=complex(val), err_estimate=0.0, evaluations=0,
                       converged=True), {"t": t, "r": r, "d": d})


def _eval_heat_kernel_h3(args, q):
    t = _need(args, "t", _float)
    rho = _need(args, "rho", _float)
    val = heat_kernel_h3(t, rho)
    return (EvalResult(value=complex(val), err_estimate=0.0, evaluations=0,
                       converged=True), {"t": t, "rho": rho})


def _eval_heat_kernel_hd(args, q):
    t = _need(args, "t", _float)
    rho = _need(args, "rho", _float)
    d = _need(args, "d", _float)
    if d != int(d):
        raise DomainError("--d must be an odd integer >= 3 here")
    val = heat_kernel_hyperbolic_odd(t, rho, int(d))
    return (EvalResult(value=complex(val), err_estimate=0.0, evaluations=0,
                       converged=True), {"t": t, "rho": rho, "d": d})


def _eval_resolvent(args, q):
    alpha = _need(args, "alpha", parse_complex)
    r = _need(args, "r", _float)
    d = _need(args, "d", parse_complex)
    return resolvent_rd_bessel(alpha, r, d, q), {"alpha": alpha, "r": r, "d": d}


def _eval_resolvent_quad(args, q):
    alpha = _need(args, "alpha", parse_complex)
    r = _need(args, "r", _float)
    d = _need(args, "d", _float)
    return resolvent_rd_quad(alpha, r, d, q), {"alpha": alpha, "r": r, "d": d}


def _eval_laplace_h3(args, q):
    alpha = _need(args, "alpha", parse_complex)
    rho = _need(args, "rho", _float)
    return laplace_hyperbolic(alpha, rho, q), {"alpha": alpha, "rho": rho}


_EVAL_FNS = {
    "zeta": _eval_zeta,
    "zeta-reg": _eval_zeta_reg,
    "bessel-k": _eval_bessel_k,
    "theta": _eval_theta,
    "theta3": _eval_theta3,
    "psi": _eval_psi,
    "smooth-f": _eval_smooth_f,
    "hardy-z": _eval_hardy_z,
    "xi": _eval_xi,
    "xi-lambda": _eval_xi_lambda,
    "omega": _eval_omega,
    "heat-kernel": _eval_heat_kernel,
    "heat-kernel-h3": _eval_heat_kernel_h3,
    "heat-kernel-hd": _eval_heat_kernel_hd,
    "resolvent": _eval_resolvent,
    "resolvent-quad": _eval_resolvent_quad,
    "laplace-h3": _eval_laplace_h3,
}


def _echo(value):
    if isinstance(value, complex):
        return complex_to_obj(value)
    return value


def _cmd_eval(args) -> int:
    q = _quad_from(args)
    t0 = time.perf_counter()
    result, inputs = _EVAL_FNS[args.fn](args, q)
    wall_ms = (time.perf_counter() - t0) * 1e3
    record = {
        "input": {"fn": args.fn, **{k: _echo(v) for k, v in inputs.items()}},
        "value": complex_to_obj(result.value),
        "err_estimate": result.err_estimate,
        "converged": result.converged,
        "meta": {"version": __version__, "wall_ms": wall_ms,
                 "quadrature": _quad_obj(q)},
    }
    if args.format == "csv":
        header = ["fn", "value_re", "value_im", "err_estimate", "converged"]
        row = [args.fn, complex(result.value).real, complex(result.value).imag,
               result.err_estimate, result.converged]
        _write_out(args, csv_text(header, [row]))
    else:
        _write_out(args, dumps_record(record))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _named_custom(name: str, lam: float) -> CutoffSpec:
    if name == "custom:log-symmetric":
        def h(x: float, _l=lam) -> float:
            u = math.log(x)
            w = _l * u * u
            return math.exp(-w) if w <= 745.0 else 0.0
        return CustomCutoff(fn=h, declared_symmetric=True, label=name)
    if name == "custom:asymmetric":
        # deliberately weighted toward 1/x but still *declared* symmetric,
        # so the verifier's spot-check is what must catch it
        def h(x: float, _l=lam) -> float:
            w = _l * (x + 2.0 / x)
            return math.exp(-w) if w <= 745.0 else 0.0
        return CustomCutoff(fn=h, declared_symmetric=True, label=name)
    raise DomainError(f"unknown custom cutoff {name!r}")


def _verify_param_sets(args) -> list[dict]:
    kind = FunctionalEqKind(args.kind)
    if kind is FunctionalEqKind.RIEMANN_CLASSIC:
        return [{}]
    if kind is FunctionalEqKind.EXP_SYMMETRIC:
        lams = _complex_list(_need(args, "lam", str, "lambda"))
        return [{"lam": lam} for lam in lams]
    if kind is FunctionalEqKind.QUARTER_ALPHA_SINGLE_K:
        lams = _float_list(_need(args, "lam", str, "lambda"))
        return [{"lam": lam} for lam in lams]
    if kind is FunctionalEqKind.EXP_ALPHA:
        lams = _float_list(_need(args, "lam", str, "lambda"))
        alphas = _float_list(_need(args, "alpha", str))
        return [{"lam": lam, "alpha": a} for lam in lams for a in alphas]
    if kind is FunctionalEqKind.TWO_PARAM:
        l1s = _complex_list(_need(args, "lambda1", str))
        l2s = _complex_list(_need(args, "lambda2", str))
        return [{"lam1": a, "lam2": b} for a in l1s for b in l2s]
    # generic-h
    name = _need(args, "cutoff", str)
    lam = _float(args.lam) if args.lam is not None else 1.0
    if name.startswith("custom:"):
        return [{"cutoff": _named_custom(name, lam)}]
    if name == "exp":
        return [{"cutoff": ExpSymmetric(lam=lam)}]
    if name == "exp-alpha":
        return [{"cutoff": ExpAlpha(lam=lam, alpha=_need(args, "alpha", _float))}]
    if name == "two-param":
        return [{"cutoff": TwoParam(lam1=parse_complex(_need(args, "lambda1", str)),
                                    lam2=parse_complex(_need(args, "lambda2", str)))}]
    if name == "two-param-nu":
        return [{"cutoff": TwoParamNu(lam1=parse_complex(_need(args, "lambda1", str)),
                                      lam2=parse_complex(_need(args, "lambda2", str)),
                                      nu=_need(args, "nu", _float))}]
    raise DomainError(f"unknown cutoff {name!r} for generic-h")


def _cmd_verify(args) -> int:
    q = _quad_from(args)
    kind = FunctionalEqKind(args.kind)
    if args.s is not None:
        s_values = [parse_complex(args.s)]
    else:
        s_values = list(STANDARD_S_GRID)
    records = []
    worst = 0.0
    for params in _verify_param_sets(args):
        for s in s_values:
            report = verify(kind, s, params, q)
            worst = max(worst, report.rel_residual)
            records.append({
                "kind": report.kind,
                "s": complex_to_obj(report.s),
                "params": {k: _echo(v) for k, v in report.params.items()},
                "lhs": complex_to_obj(report.lhs),
                "rhs": complex_to_obj(report.rhs),
                "abs_residual": report.abs_residual,
                "rel_residual": report.rel_residual,
            })
    if args.format == "csv":
        header = ["kind", "s_re", "s_im", "lhs_re", "lhs_im", "rhs_re",
                  "rhs_im", "abs_residual", "rel_residual"]
        rows = [[r["kind"], r["s"]["re"], r["s"]["im"], r["lhs"]["re"],
                 r["lhs"]["im"], r["rhs"]["re"], r["rhs"]["im"],
                 r["abs_residual"], r["rel_residual"]] for r in records]
        _write_out(args, csv_text(header, rows))
    else:
        doc = {"records": records, "max_rel_residual": worst,
               "threshold": args.threshold,
               "meta": {"version": __version__, "quadrature": _quad_obj(q)}}
        _write_out(args, dumps_record(doc))
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
    rows = []
    for b in brackets:
        absz = abs(hardy_z(b.refined_t, q).value)
        rows.append((b.t_lo, b.t_hi, b.refined_t, absz))
    if args.format == "csv":
        header = ["t_lo", "t_hi", "refined_t", "|Z(refined_t)|"]
        _write_out(args, csv_text(header, [list(r) for r in rows]))
    else:
        doc = {"records": [{"t_lo": a, "t_hi": b, "refined_t": c, "abs_z": d}
                           for a, b, c, d in rows],
               "meta": {"version": __version__, "quadrature": _quad_obj(q)}}
        _write_out(args, dumps_record(doc))
    print(f"scan [{t_lo}, {t_hi}] step {args.step}: {len(rows)} sign changes",
          file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

_GRID_FNS = ("zeta", "zeta-reg", "omega", "xi-lambda")


def _grid_value(fn: str, sigma: float, t: float, lam: float | None,
                q: QuadratureSpec) -> tuple[complex, float]:
    s = complex(sigma, t)
    if fn == "zeta":
        r = zeta_analytic(s, q)
        return r.value, r.err_estimate
    if lam is None:
        raise DomainError(f"--lambda is required for grid --fn {fn}")
    if fn == "zeta-reg":
        rz = zeta_regularized(s, ExpSymmetric(lam), q)
        return rz.bare, rz.completed.err_estimate
    if fn == "omega":
        r = omega(s, lam, q)
        return r.value, r.err_estimate
    r = xi_lambda(s, lam, q)
    return r.value, r.err_estimate


def _cmd_grid(args) -> int:
    q = _quad_from(args)
    sigmas = _axis(args.sigma)
    ts = _axis(args.t)
    lams = _float_list(args.lam) if args.lam is not None else [None]
    with_lambda = lams != [None]
    points = sorted((sig, t, lam if lam is not None else -math.inf)
                    for sig in sigmas for t in ts for lam in lams)
    cache_dir = resolve_cache_dir(args.cache_dir)
    quad_obj = _quad_obj(q)

    def run_point(point) -> dict:
        sigma, t, lam_key = point
        lam = None if lam_key == -math.inf else lam_key
        params = {"sigma": sigma, "t": t}
        if lam is not None:
            params["lambda"] = lam
        key = cache_key(args.fn, params, quad_obj)

        def compute() -> dict:
            value, err = _grid_value(args.fn, sigma, t, lam, q)
            return {**params, "value": complex_to_obj(value),
                    "err_estimate": err}

        return get_or_compute(cache_dir, key, compute)

    results = [run_point(p) for p in points]

    header = ["sigma", "t"] + (["lambda"] if with_lambda else []) + \
        ["value_re", "value_im", "err_estimate"]
    rows = []
    for rec in results:
        row = [rec["sigma"], rec["t"]]
        if with_lambda:
            row.append(rec["lambda"])
        row.extend([rec["value"]["re"], rec["value"]["im"],
                    rec["err_estimate"]])
        rows.append(row)
    if args.format == "csv":
        _write_out(args, csv_text(header, rows))
    else:
        doc = {"records": results,
               "meta": {"version": __version__, "quadrature": quad_obj}}
        _write_out(args, dumps_record(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------


def _write_out(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_COMMANDS = {"eval": _cmd_eval, "verify": _cmd_verify, "scan": _cmd_scan,
             "grid": _cmd_grid}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"zetalab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PoleError, NonConvergence, NonFiniteIntegrand) as exc:
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
