"""Command-line interface.

Subcommands: logpoly (the exact R_p^k table of the recurrence), coeffs
(kernel cosine series), greens (fundamental-solution values and azimuthal
tables), validate (identity suite / cross-route / oracle reports).  Exit
codes: 0 success, 1 validation failure, 2 usage error or input out of the
float range, 3 numerical non-convergence, 141 stdout closed by its reader
(128 + SIGPIPE, what a shell reports for a process SIGPIPE killed).  All
output is deterministic for fixed flags; floats print with 17 significant
digits.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import ConvergenceError
from .greens import (
    DegenerateGeometryError,
    Geometry,
    SolutionParams,
    greens_eval,
    hii_expansion,
    kernel_table,
    li_direct,
    li_expansion,
)
from .logpoly import logpoly_recurrence
from .scalars import eta_from_chi
from .validation import quad_fourier_coeffs, run_validation_suite

__all__ = ["main"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _float_list(text: str) -> tuple[float, ...]:
    """The value of --etas: comma-separated floats."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs comma-separated numbers, got {text!r}") from None


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
    gr.add_argument("--method", choices=("algebraic", "limit"))
    gr.add_argument("--format", choices=("csv", "json"), default="csv")

    # an omitted grid flag is left out of args: run_validation_suite's default applies
    va = sub.add_parser("validate", help="identity / cross-route / oracle reports",
                        argument_default=argparse.SUPPRESS)
    va.add_argument("--pmax", type=int)
    va.add_argument("--etas", type=_float_list)
    va.add_argument("--nmax", type=int)
    va.add_argument("--format", choices=("csv", "json"), default="csv")
    return top


def _cmd_logpoly(args) -> int:
    p = args.p
    if p < 0:
        print("logpoly needs --p >= 0", file=sys.stderr)
        return 2
    table = [logpoly_recurrence(p, k) for k in range(-p, p + 1)]
    if args.format == "csv":
        print("p,k,degree,numerator,denominator")
        for poly in table:
            for deg, c in enumerate(poly.coeffs):
                if c != 0:
                    print(f"{p},{poly.k},{deg},{c.numerator},{c.denominator}")
    elif args.format == "json":
        rows = []
        for poly in table:
            coeffs = ",".join(f"[{c.numerator},{c.denominator}]" for c in poly.coeffs)
            rows.append(f'{{"k":{poly.k},"degree":{poly.degree},"coefficients":[{coeffs}]}}')
        print(f'{{"p":{p},"polynomials":[{",".join(rows)}]}}')
    else:
        for poly in table:
            parts = []
            for deg, c in enumerate(poly.coeffs):
                if c == 0:
                    continue
                num, den = c.numerator, c.denominator
                coef = f"\\frac{{{num}}}{{{den}}}" if den != 1 else f"{num}"
                mono = "" if deg == 0 else (" x" if deg == 1 else f" x^{{{deg}}}")
                parts.append(coef + mono)
            print(f"R_{{{p}}}^{{{poly.k}}}(x) = " + " + ".join(parts))
    return 0


def _warn_if_ill_conditioned(table):
    """The stderr line that coeffs and greens print for an ill-conditioned table."""
    if table.conditioning_warning:
        print("warning: eta < 0.2, tail entries are absolute-accurate only", file=sys.stderr)


def _coeffs_table(args):
    kernel = "inverse_power" if args.kernel == "inverse" else args.kernel
    if kernel == "inverse_power":
        if args.q is None or args.q < 1:
            raise ValueError("inverse kernel needs --q >= 1")
        param = args.q
    else:
        if args.p is None or args.p < 0:
            raise ValueError(f"{kernel} kernel needs --p >= 0")
        param = args.p
    nmax = args.nmax
    if nmax is not None and nmax < 0:
        raise ValueError("--nmax must be >= 0")
    if args.method == "oracle":
        if nmax is None and kernel != "power":
            raise ValueError("--method oracle needs an explicit --nmax")
        top = param if nmax is None else nmax
        coeffs = quad_fourier_coeffs(kernel, param, args.chi, range(top + 1))
        return kernel, param, "oracle", coeffs
    t = kernel_table(kernel, param, args.chi, nmax, args.method)
    _warn_if_ill_conditioned(t)
    top = t.nmax if nmax is None else nmax
    return kernel, param, t.method, [t.coeff(n) for n in range(top + 1)]


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
    if args.method is not None and not params.is_log_regime:
        raise ValueError(f"--method selects the log-regime route only (even d, k >= d/2); "
                         f"d={params.d}, k={params.k} is the power regime")
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
        except DegenerateGeometryError as exc:
            print(f"note: no azimuthal expansion ({exc})", file=sys.stderr)
            geom = None
        if geom is not None:
            if params.is_log_regime:
                table = li_expansion(params, geom, args.nmax, args.method)
                direct = li_direct(params, x, xp)
            else:
                table = hii_expansion(params, geom, args.nmax)
                direct = math.dist(x, xp) ** (2 * params.k - params.d)
            _warn_if_ill_conditioned(table)
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
    grid = {name: getattr(args, name) for name in ("pmax", "etas", "nmax") if name in args}
    reports = run_validation_suite(**grid)
    failures = sum(not r.passed for r in reports)
    # one row per write: a single 640 KB write to a pipe lost its tail, with
    # no error, when a signal handler ran during it
    write = sys.stdout.write
    if args.format == "csv":
        write("identity,p,n,eta,abs_err,rel_err,pass\n")
        for r in reports:
            write(f"{r.identity},{r.p},{r.n},{_fmt(r.eta)},{_fmt(r.abs_err)},"
                  f"{_fmt(r.rel_err)},{'true' if r.passed else 'false'}\n")
    else:
        write(f'{{"failures":{failures},"reports":[')
        for i, r in enumerate(reports):
            write(f'{"," if i else ""}{{"identity":"{r.identity}","p":{r.p},"n":{r.n},'
                  f'"eta":{_fmt(r.eta)},"abs_err":{_fmt(r.abs_err)},'
                  f'"rel_err":{_fmt(r.rel_err)},"pass":{"true" if r.passed else "false"}}}')
        write("]}\n")
    print(f"{len(reports)} checks, {failures} failures", file=sys.stderr)
    return 1 if failures else 0


def _bind_points(argv):
    """argv with each spaced --x/--xp value bound to its flag (--x=-1,0):
    argparse takes a spaced value that starts with '-', as a point whose
    first coordinate is negative does, for an option."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--x", "--xp") and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(_bind_points(sys.argv[1:] if argv is None else argv))
    handler = {
        "logpoly": _cmd_logpoly,
        "coeffs": _cmd_coeffs,
        "greens": _cmd_greens,
        "validate": _cmd_validate,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): send the rest of stdout,
        # including the interpreter's final flush, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
