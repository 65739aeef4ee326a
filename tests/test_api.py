"""The public API and the layering: __all__ lists what a user calls, the
checkers live in validation and no production module imports it, and the
README's examples run, the Python ones and the command lines."""

import ast
import doctest
import inspect
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import polyfourier
from polyfourier import greens, series_algebraic, series_limit
from polyfourier.cli import main

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "ConvergenceError", "FourierCoeffTable", "Geometry", "LogPolynomial",
    "SolutionParams",
    "axisym_component", "beta_pd", "default_nmax", "eta_from_chi", "greens_eval",
    "harmonic", "hii_expansion",
    "inverse_power_series", "legendre_deg_deriv", "legendre_p", "li_direct",
    "li_expansion", "li_truncation",
    "log_series_algebraic", "log_series_limit", "logpoly_recurrence", "power_series",
]

PRODUCTION = ("scalars", "logpoly", "legendre", "series_algebraic", "series_limit",
              "tables", "greens")


def test_all_is_the_public_api():
    assert sorted(polyfourier.__all__) == sorted(PUBLIC)
    assert len(PUBLIC) == 22
    for name in PUBLIC:
        assert getattr(polyfourier, name) is not None


def test_star_import_binds_exactly_the_public_api():
    namespace = {}
    exec("from polyfourier import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def test_production_modules_do_not_import_validation():
    src = ROOT / "src" / "polyfourier"
    for name in PRODUCTION:
        imported = list(_imported_modules(src / f"{name}.py"))
        assert imported, name
        assert not [m for m in imported if "validation" in m.split(".")], name


def test_greens_imports_no_private_name():
    tree = ast.parse((ROOT / "src" / "polyfourier" / "greens.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("polyfourier"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_cli_reaches_the_series_routes_through_kernel_table():
    imported = list(_imported_modules(ROOT / "src" / "polyfourier" / "cli.py"))
    assert "greens.kernel_table" in imported
    assert not [m for m in imported
                if {"series_algebraic", "series_limit"} & set(m.split("."))]


def _names_used(path: Path, names: set[str]) -> dict[str, set[str]]:
    """{top-level function, or "<module>": the names it uses} outside imports
    and function signatures (a return annotation is not a use)."""
    used = {}
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        owner, body = ((stmt.name, stmt.body) if isinstance(stmt, ast.FunctionDef)
                       else ("<module>", [stmt]))
        for node in (n for s in body for n in ast.walk(s)):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in names:
                used.setdefault(owner, set()).add(name)
    return used


SERIES_ROUTES = {"power_series", "inverse_power_series", "log_series_limit",
                 "log_series_algebraic"}


def test_expansions_build_their_tables_through_kernel_table():
    used = _names_used(ROOT / "src" / "polyfourier" / "greens.py",
                       SERIES_ROUTES | {"kernel_table"})
    assert used["li_expansion"] == used["hii_expansion"] == {"kernel_table"}


def test_nmax_is_the_only_truncation_knob():
    # a table is n = 0..nmax, or default_nmax's N at its fixed 1e-10;
    # another tolerance is passed as nmax=default_nmax(param, eta, tol)
    for fn in (series_limit._table, series_limit.log_series_limit,
               series_limit.inverse_power_series, series_algebraic.log_series_algebraic,
               greens.kernel_table, greens.li_expansion, greens.hii_expansion):
        assert "tail_tol" not in inspect.signature(fn).parameters, fn.__name__


def test_greens_has_no_tolerance_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["greens", "--d", "4", "--k", "2", "--x", "1,0,0,0", "--xp", "2,0,0,0",
              "--tol", "1e-12"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_the_oracle_has_no_knobs(capsys):
    # the trapezoid oracle always runs, to the node cap and stopping rule of
    # validation's module docstring
    assert list(inspect.signature(polyfourier.quad_fourier_coeff).parameters) == [
        "kernel", "param", "chi", "n"]
    assert "include_oracle" not in inspect.signature(polyfourier.run_validation_suite).parameters
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--pmax", "1", "--etas", "0.5", "--nmax", "4", "--no-oracle"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_the_float_checks_have_no_tolerance_knobs(capsys):
    # each float family's pass rule is a named constant in validation
    from polyfourier import validation

    for fn in (validation.compare_log_routes, validation.oracle_reports,
               validation.verify_axisym_dual, validation.run_validation_suite):
        assert not {"tol", "floor"} & set(inspect.signature(fn).parameters), fn.__name__
    for flag, value in (("--tol", "1e-9"), ("--floor", "1e-12")):
        with pytest.raises(SystemExit) as exc:
            main(["validate", flag, value])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_validate_forwards_only_the_grid_flags_given(monkeypatch, capsys):
    # the grid's defaults live in run_validation_suite's signature alone
    from polyfourier import cli

    calls = []
    monkeypatch.setattr(cli, "run_validation_suite", lambda **grid: calls.append(grid) or [])
    assert main(["validate"]) == 0
    assert main(["validate", "--pmax", "2"]) == 0
    assert main(["validate", "--etas", "0.5,1", "--nmax", "8", "--format", "json"]) == 0
    assert calls == [{}, {"pmax": 2}, {"etas": (0.5, 1.0), "nmax": 8}]
    capsys.readouterr()


def test_series_tables_are_built_in_one_pipeline():
    # eta, the truncation order and the table record are formed in
    # series_limit._table alone; every route calls it
    names = {"default_nmax", "eta_from_chi", "FourierCoeffTable"}
    src = ROOT / "src" / "polyfourier"
    assert _names_used(src / "series_limit.py", names) == {"_table": names}
    assert _names_used(src / "series_algebraic.py", names) == {}
    routes = {"series_limit": ("power_series", "inverse_power_series", "log_series_limit"),
              "series_algebraic": ("log_series_algebraic",)}
    for module, funcs in routes.items():
        used = _names_used(src / f"{module}.py", {"_table"})
        assert {f: {"_table"} for f in funcs}.items() <= used.items(), module


def test_power_row_is_the_only_production_power_form():
    # f_n comes from one power row per table; the closed form
    # _power_coefficient is the tests' reference, and no production code
    # reads it
    src = ROOT / "src" / "polyfourier"
    readers = {module.stem: set(_names_used(module, {"_power_row", "_power_coefficient"}))
               for module in src.glob("*.py")}
    assert {m: r for m, r in readers.items() if r} == {
        "series_limit": {"_log_band", "power_coefficient", "power_series"}}
    assert _names_used(src / "series_limit.py", {"_power_coefficient"}) == {}


def _functions(path: Path) -> dict[str, ast.FunctionDef]:
    return {stmt.name: stmt for stmt in ast.parse(path.read_text()).body
            if isinstance(stmt, ast.FunctionDef)}


def test_degree_sums_and_power_weight_are_written_once():
    src = ROOT / "src" / "polyfourier"
    defined = {name for module in src.glob("*.py") for name in _functions(module)}
    assert not {"_degree_sum_same_order", "_degree_sum_neg_order", "_poly_coeffs"} & defined
    # the degree derivative, written once in _deg_deriv, holds the two degree
    # sums and the digamma head; the band and the tail are _deg_deriv calls
    users = {module.stem: set(_names_used(module, {"_degree_sums", "harmonic"}))
             for module in src.glob("*.py") if module.stem != "scalars"}
    assert {m: u for m, u in users.items() if u} == {"legendre": {"_deg_deriv"}}
    assert not {"_log_band_coefficient", "_log_tail_coefficient"} & defined
    # f_n's weight w_n = eps_n (-p)_n (p-n)!/(p+n)! is spelled in _power_weight alone
    assert set(_names_used(src / "series_limit.py", {"_power_weight"})) == {"_power_coefficient"}
    spellers = {name for name, fn in _functions(src / "series_limit.py").items()
                for node in ast.walk(fn)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "Fraction"
                and "math.factorial(p + n)" in map(ast.unparse, node.args)}
    assert spellers == {"_power_weight"}


def test_negative_order_closed_form_is_written_once():
    # P_p^{-n}'s product, and the fold of its weight, live in _neg_order_term;
    # the Gauss sum is reached through it or through the public neg_order_sum
    src = ROOT / "src" / "polyfourier"
    users = {module.stem: set(_names_used(module, {"_neg_order_sum"}))
             for module in src.glob("*.py")}
    assert {m: u for m, u in users.items() if u} == {
        "legendre": {"_neg_order_term", "neg_order_sum"}}
    assert not [m for m in _imported_modules(src / "series_limit.py")
                if m.endswith("_neg_order_sum")]
    term_users = {module.stem: set(_names_used(module, {"_neg_order_term"}))
                  for module in src.glob("*.py")}
    assert {m: u for m, u in term_users.items() if u} == {
        "legendre": {"_legendre", "_deg_deriv"},
        "series_limit": {"_inverse_coefficient"}}


def _defs(path: Path):
    """(name, FunctionDef) of each top-level function and class method."""
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt
        elif isinstance(stmt, ast.ClassDef):
            yield from ((f"{stmt.name}.{fn.name}", fn) for fn in stmt.body
                        if isinstance(fn, ast.FunctionDef))


CLOSED_FORMS = ("legendre", "series_limit", "series_algebraic")


def test_exact_weight_products_are_guarded_once():
    # LegendreArg.times is the one guarded cast of an exact weight times its
    # factors: the power-of-two rescale lives there alone, no closed form
    # tests the point's type, and pt.weight is left as Horner's cast and the
    # constants 0 and 1
    src = ROOT / "src" / "polyfourier"

    def callers(modules, test):
        return {(module, name) for module in modules for name, fn in _defs(src / f"{module}.py")
                for node in ast.walk(fn) if test(node)}

    everywhere = [module.stem for module in src.glob("*.py")]
    assert callers(everywhere, lambda node: isinstance(node, ast.Call)
                   and ast.unparse(node.func).endswith("ldexp")) == {
        ("legendre", "LegendreArg.times")}
    assert callers(CLOSED_FORMS, lambda node: isinstance(node, ast.BinOp)
                   and ast.unparse(node) == "2.0 ** (-1022)") == {
        ("legendre", "LegendreArg.times")}
    for module in CLOSED_FORMS:
        for name, fn in _defs(src / f"{module}.py"):
            if fn.args.args and fn.args.args[0].arg == "pt":
                assert "isinstance(" not in ast.unparse(fn), (module, name)
    casts = {ast.unparse(node) for module in CLOSED_FORMS
             for node in ast.walk(ast.parse((src / f"{module}.py").read_text()))
             if isinstance(node, ast.Call) and "pt.weight" in map(
                 ast.unparse, (node.func, *node.args))}
    assert casts == {"pt.weight(1)", "pt.weight(Fraction(0))",
                     "horner(taylor_coeffs_at1(p, m), pt.u, pt.weight)"}
    term = _functions(src / "legendre.py")["_neg_order_term"]
    assert ast.unparse(term.body[-1]) == (
        "return pt.times(w, scale, pt.exp(-n), pt.cached(_neg_order_sum, p, n))")


def test_horner_loop_and_float_rounding_are_written_once():
    # logpoly_eval is horner over the floats its polynomial rounded once, and
    # _nearest_float is the one spelling of the correctly rounded cast
    src = ROOT / "src" / "polyfourier"
    fns = _functions(src / "logpoly.py")
    loopers = {name for name, fn in fns.items()
               if any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(fn))}
    assert loopers == {"horner", "_recurrence_row"}
    assert ast.unparse(fns["logpoly_eval"].body[-1]) == (
        "return horner(poly._float_coeffs, x, float)")
    spellers = {(module.stem, fn.name) for module in src.glob("*.py")
                for fn in ast.walk(ast.parse(module.read_text()))
                if isinstance(fn, ast.FunctionDef)
                and ".numerator / " in ast.unparse(fn)}
    assert spellers == {("logpoly", "_nearest_float")}
    assert "_float_coeffs" not in polyfourier.LogPolynomial.__dataclass_fields__


def test_greens_writes_the_log_profile_and_the_point_check_once():
    # greens_eval's log branch is li_direct times its signed constant, and
    # _dist is the one check of a point pair
    fns = _functions(ROOT / "src" / "polyfourier" / "greens.py")
    spellers = {name: ast.unparse(fn).count("math.log(r) - float(beta_pd(")
                for name, fn in fns.items()}
    assert {name: count for name, count in spellers.items() if count} == {"li_direct": 1}
    measurers = {name for name, fn in fns.items() for node in ast.walk(fn)
                 if isinstance(node, ast.Call) and ast.unparse(node.func) == "len"}
    assert measurers == {"_dist"}
    assert not hasattr(greens.Geometry, "dist_sq")


def test_reference_legendre_series_has_no_term_knob():
    from polyfourier.validation import legendre_p_nu

    assert list(inspect.signature(legendre_p_nu).parameters) == ["nu", "m", "z"]


def test_readme_examples_run():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted >= 10 and result.failed == 0


def _readme_cli_blocks():
    """(command, shown lines) for each fenced README block that starts with a
    `$ polyfourier` line."""
    blocks, current = [], None
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            if current is None:
                current = []
                continue
            if current and current[0].startswith("$ polyfourier "):
                blocks.append((current[0][len("$ polyfourier "):], current[1:]))
            current = None
        elif current is not None:
            current.append(line)
    return blocks


CLI_BLOCKS = _readme_cli_blocks()


def test_readme_shows_the_cli_examples():
    assert [command.split()[0] for command, _ in CLI_BLOCKS] == [
        "logpoly", "coeffs", "greens", "validate"]


@pytest.mark.parametrize("command,shown", CLI_BLOCKS,
                         ids=[command.split()[0] for command, _ in CLI_BLOCKS])
def test_readme_cli_example_output(capsys, command, shown):
    # stdout is the block, or begins with the lines shown before a "...";
    # what follows a "..." is the whole of stderr
    assert main(shlex.split(command)) == 0
    out, err = (text.splitlines() for text in capsys.readouterr())
    if "..." in shown:
        cut = shown.index("...")
        out = out[:cut]
    else:
        cut = len(shown)
    assert out == shown[:cut]
    assert err == shown[cut + 1:]


def test_import_loads_no_process_machinery():
    # run_validation_suite imports its worker pool when called, and only the
    # code that takes or makes an array imports numpy: at module top the pool
    # would add 20-30 ms to every `import polyfourier`, and numpy 65-110 ms
    probe = ("import sys, polyfourier, polyfourier.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing', 'numpy')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


NUMPY_FREE_COMMANDS = [
    "logpoly --p 3",
    "coeffs --kernel log --p 2 --chi 1.5",
    next(command for command, _ in CLI_BLOCKS if command.startswith("greens ")),
]


@pytest.mark.parametrize("command", NUMPY_FREE_COMMANDS,
                         ids=[command.split()[0] for command in NUMPY_FREE_COMMANDS])
def test_scalar_commands_run_without_numpy(capsys, command):
    # with numpy unimportable the command prints what it prints in-process
    assert main(shlex.split(command)) == 0
    want = capsys.readouterr().out
    runner = ("import sys; sys.modules['numpy'] = None; from polyfourier.cli import main; "
              "sys.exit(main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", runner, *shlex.split(command)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == want
