"""Command-line interface.

Subcommands: logpoly (exact R_p^k tables), coeffs (kernel cosine series),
greens (fundamental-solution values and azimuthal tables), validate (identity
suite / cross-route / oracle reports).  Exit codes: 0 success, 1 validation
failure, 2 usage error, 3 numerical non-convergence.  All output is
deterministic for fixed flags; floats print with 17 significant digits.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import ConvergenceError
from .greens import Geometry, SolutionParams, greens_eval, hii_expansion, li_direct, li_expansion
from .logpoly import logpoly_difference_algorithm, logpoly_from_genfun, logpoly_recurrence
from .scalars import eta_from_chi
from .series_algebraic import log_series_algebraic
from .series_limit import inverse_power_series, log_series_limit, power_series
from .validation import quad_fourier_coeff, run_validation_suite

__all__ = ["main"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="polyfourier")
    sub = top.add_subparsers(dest="command", required=True)

    lp = sub.add_parser("logpoly", help="exact logarithmic-polynomial table R_p^k")
    lp.add_argument("--p", type=int, required=True)
    lp.add_argument("--format", choices=("csv", "json", "latex"), default="csv")

    co = sub.add_parser("coeffs", help="cosine-series coefficients of one kernel")
    co.add_argument("--kernel", choices=("log", "power", "inverse"), required=True)
    co.add_argument("--p", type=int)
    co.add_argument("--q", type=int)
    co.add_argument("--chi", type=float, required=True)
    co.add_argument("--nmax", type=int)
    co.add_argument("--method", choices=("algebraic", "limit", "closed_form", "oracle"))
    co.add_argument("--format", choices=("csv", "json"), default="csv")

    gr = sub.add_parser("greens", help="fundamental solution and azimuthal table")
    gr.add_argument("--d", type=int, required=True)
    gr.add_argument("--k", type=int, required=True)
    gr.add_argument("--x", required=True, help="comma-separated coordinates")
    gr.add_argument("--xp", required=True, help="comma-separated coordinates")
    gr.add_argument("--nmax", type=int)
    gr.add_argument("--method", choices=("algebraic", "limit"), default="algebraic")
    gr.add_argument("--tol", type=float, default=1e-10)
    gr.add_argument("--format", choices=("csv", "json"), default="csv")

    va = sub.add_parser("validate", help="identity / cross-route / oracle reports")
    va.add_argument("--pmax", type=int, default=10)
    va.add_argument("--etas", default="0.2,0.5,1,2,5")
    va.add_argument("--nmax", type=int, default=50)
    va.add_argument("--tol", type=float, default=1e-9)
    va.add_argument("--floor", type=float, default=1e-12)
    va.add_argument("--no-oracle", action="store_true")
    va.add_argument("--format", choices=("csv", "json"), default="csv")
    return top


def _cmd_logpoly(args) -> int:
    p = args.p
    if p < 0:
        print("logpoly needs --p >= 0", file=sys.stderr)
        return 2
    table = logpoly_difference_algorithm(p)
    for k in range(-p, p + 1):
        if (
            table[k].coeffs != logpoly_recurrence(p, k).coeffs
            or table[k].coeffs != logpoly_from_genfun(p, k).coeffs
        ):
            print(f"internal path disagreement at (p={p}, k={k})", file=sys.stderr)
            return 1
    if args.format == "csv":
        print("p,k,degree,numerator,denominator")
        for k in range(-p, p + 1):
            for deg, c in enumerate(table[k].coeffs):
                if c != 0:
                    print(f"{p},{k},{deg},{c.numerator},{c.denominator}")
    elif args.format == "json":
        rows = []
        for k in range(-p, p + 1):
            coeffs = ",".join(f"[{c.numerator},{c.denominator}]" for c in table[k].coeffs)
            rows.append(f'{{"k":{k},"degree":{table[k].degree},"coefficients":[{coeffs}]}}')
        print(f'{{"p":{p},"polynomials":[{",".join(rows)}]}}')
    else:
        for k in range(-p, p + 1):
            parts = []
            for deg, c in enumerate(table[k].coeffs):
                if c == 0:
                    continue
                num, den = c.numerator, c.denominator
                coef = f"\\frac{{{num}}}{{{den}}}" if den != 1 else f"{num}"
                mono = "" if deg == 0 else (" x" if deg == 1 else f" x^{{{deg}}}")
                parts.append(coef + mono)
            print(f"R_{{{p}}}^{{{k}}}(x) = " + " + ".join(parts))
    return 0


def _coeffs_table(args):
    kernel, method = args.kernel, args.method
    if kernel == "inverse":
        if args.q is None or args.q < 1:
            raise ValueError("inverse kernel needs --q >= 1")
        if method in ("algebraic", "limit"):
            raise ValueError("inverse kernel admits --method closed_form or oracle")
        param = args.q
    else:
        if args.p is None or args.p < 0:
            raise ValueError(f"{kernel} kernel needs --p >= 0")
        if kernel == "power" and method in ("algebraic", "limit"):
            raise ValueError("power kernel admits --method closed_form or oracle")
        param = args.p
    nmax = args.nmax
    if nmax is not None and nmax < 0:
        raise ValueError("--nmax must be >= 0")
    if kernel == "power":
        nmax = param if nmax is None else nmax
        if method == "oracle":
            coeffs = [quad_fourier_coeff("power", param, args.chi, n) for n in range(nmax + 1)]
            return "power", param, "oracle", coeffs
        t = power_series(param, args.chi)
        coeffs = (list(t.coeffs) + [0.0] * max(0, nmax - t.nmax))[: nmax + 1]
        return "power", param, t.method, coeffs
    if kernel == "inverse":
        if method == "oracle":
            if nmax is None:
                raise ValueError("--method oracle needs an explicit --nmax")
            coeffs = [
                quad_fourier_coeff("inverse_power", param, args.chi, n) for n in range(nmax + 1)
            ]
            return "inverse_power", param, "oracle", coeffs
        t = inverse_power_series(param, args.chi, nmax)
        return "inverse_power", param, t.method, list(t.coeffs)
    if method == "oracle":
        if nmax is None:
            raise ValueError("--method oracle needs an explicit --nmax")
        coeffs = [quad_fourier_coeff("log", param, args.chi, n) for n in range(nmax + 1)]
        return "log", param, "oracle", coeffs
    if method in (None, "algebraic"):
        t = log_series_algebraic(param, args.chi, nmax)
    elif method == "limit":
        t = log_series_limit(param, args.chi, nmax)
    else:
        raise ValueError("log kernel admits --method algebraic, limit or oracle")
    if t.conditioning_warning:
        print("warning: eta < 0.2, tail entries are absolute-accurate only", file=sys.stderr)
    return "log", param, t.method, list(t.coeffs)


def _cmd_coeffs(args) -> int:
    if not (args.chi > 1.0 and math.isfinite(args.chi)):
        print("coeffs needs a finite --chi > 1", file=sys.stderr)
        return 2
    kernel, param, method, coeffs = _coeffs_table(args)
    if args.format == "csv":
        print("n,coefficient")
        for n, c in enumerate(coeffs):
            print(f"{n},{_fmt(c)}")
    else:
        key = "q" if kernel == "inverse_power" else "p"
        eta = eta_from_chi(args.chi)
        body = ",".join(_fmt(c) for c in coeffs)
        print(
            f'{{"kernel":"{kernel}","{key}":{param},"chi":{_fmt(args.chi)},'
            f'"eta":{_fmt(eta)},"method":"{method}","coeffs":[{body}]}}'
        )
    return 0


def _parse_point(text: str, d: int):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != d:
        raise ValueError(f"point needs exactly d={d} coordinates")
    return parts


def _cmd_greens(args) -> int:
    params = SolutionParams(d=args.d, k=args.k)
    x = _parse_point(args.x, args.d)
    xp = _parse_point(args.xp, args.d)
    value = greens_eval(params, x, xp)
    regime = "log" if params.is_log_regime else "power"
    rows = [
        ("d", str(params.d)),
        ("k", str(params.k)),
        ("regime", regime),
        ("distance", _fmt(math.dist(x, xp))),
        ("value", _fmt(value)),
    ]
    table = None
    recon_err = None
    expandable = params.d % 2 == 0 and math.hypot(x[0], x[1]) * math.hypot(xp[0], xp[1]) > 0.0
    if expandable:
        try:
            geom = Geometry.from_points(x, xp)
        except ValueError as exc:
            print(f"note: no azimuthal expansion ({exc})", file=sys.stderr)
            geom = None
        if geom is not None:
            if params.is_log_regime:
                table = li_expansion(params, geom, args.nmax, args.method, args.tol)
                direct = li_direct(params, x, xp)
            else:
                table = hii_expansion(params, geom, args.nmax, args.tol)
                direct = math.dist(x, xp) ** (2 * params.k - params.d)
            recon = table.reconstruct(geom.psi)
            recon_err = abs(recon - direct) / max(1e-300, abs(direct))
            rows += [
                ("chi", _fmt(geom.chi)),
                ("eta", _fmt(geom.eta)),
                ("n_terms", str(table.nmax + 1)),
                ("reconstruction_error", _fmt(recon_err)),
            ]
    else:
        print("note: no azimuthal expansion for this geometry", file=sys.stderr)
    if args.format == "csv":
        print("field,value")
        for name, val in rows:
            print(f"{name},{val}")
        if table is not None:
            print()
            print("n,coefficient")
            for n, c in enumerate(table.coeffs):
                print(f"{n},{_fmt(c)}")
    else:
        body = ",".join(f'"{name}":{val}' if name not in ("regime",) else f'"{name}":"{val}"'
                        for name, val in rows)
        if table is not None:
            coeffs = ",".join(_fmt(c) for c in table.coeffs)
            body += f',"coeffs":[{coeffs}]'
        print("{" + body + "}")
    return 0


def _cmd_validate(args) -> int:
    etas = tuple(float(v) for v in args.etas.split(","))
    if args.pmax < 0 or args.nmax < args.pmax + 1:
        print("validate needs --pmax >= 0 and --nmax >= pmax+1", file=sys.stderr)
        return 2
    reports = run_validation_suite(
        pmax=args.pmax,
        etas=etas,
        nmax=args.nmax,
        tol=args.tol,
        floor=args.floor,
        include_oracle=not args.no_oracle,
    )
    failures = sum(not r.passed for r in reports)
    if args.format == "csv":
        print("identity,p,n,eta,abs_err,rel_err,pass")
        for r in reports:
            print(
                f"{r.identity},{r.p},{r.n},{_fmt(r.eta)},{_fmt(r.abs_err)},"
                f"{_fmt(r.rel_err)},{'true' if r.passed else 'false'}"
            )
    else:
        rows = ",".join(
            f'{{"identity":"{r.identity}","p":{r.p},"n":{r.n},"eta":{_fmt(r.eta)},'
            f'"abs_err":{_fmt(r.abs_err)},"rel_err":{_fmt(r.rel_err)},'
            f'"pass":{"true" if r.passed else "false"}}}'
            for r in reports
        )
        print(f'{{"failures":{failures},"reports":[{rows}]}}')
    print(f"{len(reports)} checks, {failures} failures", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "logpoly": _cmd_logpoly,
        "coeffs": _cmd_coeffs,
        "greens": _cmd_greens,
        "validate": _cmd_validate,
    }[args.command]
    try:
        return handler(args)
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
