"""Command-line interface: output contracts, exit codes, determinism."""

import io
import json
import math
import subprocess
import sys

import pytest

from polyfourier import eta_from_chi
from polyfourier.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- logpoly ------------------------------------------------------------------


def test_logpoly_csv_table(capsys):
    code, out, _ = run_cli(capsys, "logpoly", "--p", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,k,degree,numerator,denominator"
    # the x^2 entry of the k = 1 member is 3/2
    assert "3,1,2,3,2" in lines
    # zero coefficients are omitted: no x^1 row for k = 1
    assert "3,1,1," not in out
    # symmetric members produce identical coefficient rows
    rows_plus = {l for l in lines if l.startswith("3,2,")}
    rows_minus = {l.replace("3,-2,", "3,2,") for l in lines if l.startswith("3,-2,")}
    assert rows_plus == rows_minus


def test_logpoly_json_is_valid_and_complete(capsys):
    code, out, _ = run_cli(capsys, "logpoly", "--p", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 4
    assert len(doc["polynomials"]) == 9
    by_k = {entry["k"]: entry for entry in doc["polynomials"]}
    assert by_k[4]["coefficients"] == [[1, 16]]
    assert by_k[0]["degree"] == 4


def test_logpoly_json_degenerate_family(capsys):
    code, out, _ = run_cli(capsys, "logpoly", "--p", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["polynomials"] == [
        {"k": 0, "degree": 0, "coefficients": [[1, 1]]}
    ]


def test_logpoly_latex_lines(capsys):
    code, out, _ = run_cli(capsys, "logpoly", "--p", "3", "--format", "latex")
    assert code == 0
    assert "R_{3}^{1}(x) = \\frac{3}{8} + \\frac{3}{2} x^{2}" in out.splitlines()


def test_logpoly_rejects_negative_band(capsys):
    code, _, err = run_cli(capsys, "logpoly", "--p", "-1")
    assert code == 2
    assert "needs" in err


# -- coeffs -------------------------------------------------------------------


def test_coeffs_log_constant_term(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--kernel", "log", "--p", "0",
                           "--chi", "2.0", "--nmax", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,coefficient"
    n0, c0 = lines[1].split(",")
    eta = eta_from_chi(2.0)
    assert n0 == "0"
    assert float(c0) == pytest.approx(eta - math.log(2.0), rel=1e-15)


def test_coeffs_json_structure(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--kernel", "inverse", "--q", "2",
                           "--chi", "1.6", "--nmax", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kernel"] == "inverse_power"
    assert doc["q"] == 2
    assert doc["eta"] == pytest.approx(eta_from_chi(1.6), rel=1e-15)
    assert len(doc["coeffs"]) == 6
    sh = math.sinh(doc["eta"])
    assert doc["coeffs"][0] == pytest.approx(math.cosh(doc["eta"]) / sh**3, rel=1e-12)


def test_coeffs_routes_agree_on_the_same_flags(capsys):
    flags = ("coeffs", "--kernel", "log", "--p", "3", "--chi", "1.4", "--nmax", "12")
    _, out_a, _ = run_cli(capsys, *flags, "--method", "algebraic")
    _, out_b, _ = run_cli(capsys, *flags, "--method", "limit")
    rows_a = [l.split(",") for l in out_a.splitlines()[1:]]
    rows_b = [l.split(",") for l in out_b.splitlines()[1:]]
    assert [r[0] for r in rows_a] == [r[0] for r in rows_b]
    for (_, ca), (_, cb) in zip(rows_a, rows_b):
        assert float(ca) == pytest.approx(float(cb), rel=1e-9, abs=1e-12)


def test_coeffs_oracle_method_agrees_with_series(capsys):
    code, out_series, _ = run_cli(capsys, "coeffs", "--kernel", "log", "--p", "1",
                                  "--chi", "2.0", "--nmax", "6")
    assert code == 0
    code, out_quad, _ = run_cli(capsys, "coeffs", "--kernel", "log", "--p", "1",
                                "--chi", "2.0", "--nmax", "6", "--method", "oracle")
    assert code == 0
    for ls, lq in zip(out_series.splitlines()[1:], out_quad.splitlines()[1:]):
        cs, cq = float(ls.split(",")[1]), float(lq.split(",")[1])
        assert cs == pytest.approx(cq, abs=1e-10)


def test_coeffs_power_band_and_padding(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--kernel", "power", "--p", "2",
                           "--chi", "3.0", "--nmax", "5")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()[1:]]
    assert len(rows) == 6
    assert float(rows[3][1]) == 0.0 and float(rows[5][1]) == 0.0


def test_coeffs_usage_errors(capsys):
    # missing --q for the inverse kernel
    code, _, err = run_cli(capsys, "coeffs", "--kernel", "inverse", "--chi", "2.0")
    assert code == 2 and "needs" in err
    # chi outside the domain
    code, _, _ = run_cli(capsys, "coeffs", "--kernel", "log", "--p", "1", "--chi", "0.5")
    assert code == 2
    # series route does not apply to the power kernel
    code, _, _ = run_cli(capsys, "coeffs", "--kernel", "power", "--p", "1",
                         "--chi", "2.0", "--method", "algebraic")
    assert code == 2
    # nor the closed_form route to the log kernel
    code, out, _ = run_cli(capsys, "coeffs", "--kernel", "log", "--p", "1",
                           "--chi", "2.0", "--method", "closed_form")
    assert code == 2 and out == ""
    # oracle needs an explicit truncation for infinite series
    code, _, _ = run_cli(capsys, "coeffs", "--kernel", "inverse", "--q", "1",
                         "--chi", "2.0", "--method", "oracle")
    assert code == 2


def test_coeffs_oracle_nonconvergence_exits_3(capsys, monkeypatch):
    # the analytic kernels always converge before the node cap, so force the
    # failure to pin the exit-code contract
    import polyfourier.cli as cli_mod
    from polyfourier import ConvergenceError

    def blown_cap(*a, **k):
        raise ConvergenceError("node cap reached")

    monkeypatch.setattr(cli_mod, "quad_fourier_coeffs", blown_cap)
    code, _, err = run_cli(capsys, "coeffs", "--kernel", "log", "--p", "0",
                           "--chi", "2.0", "--nmax", "4", "--method", "oracle")
    assert code == 3 and "node cap" in err


def test_coeffs_oracle_runs_the_oracle_once(capsys, monkeypatch):
    # one trapezoid run gives every n its one-n bits; the per-n loop took
    # 163 ms for n = 0..1000 against 5.8 ms in one run
    from polyfourier import validation

    runs = []
    real = validation._trapezoid

    def counting(kernel, param, chi, ns):
        runs.append(list(ns))
        return real(kernel, param, chi, ns)

    monkeypatch.setattr(validation, "_trapezoid", counting)
    code, out, _ = run_cli(capsys, "coeffs", "--kernel", "log", "--p", "2",
                           "--chi", "1.5", "--nmax", "40", "--method", "oracle")
    assert code == 0 and runs == [list(range(41))]
    values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert values == [validation.quad_fourier_coeff("log", 2, 1.5, n) for n in range(41)]


def test_coeffs_oracle_refuses_an_n_no_grid_estimates(capsys):
    # n = 600000 needs a grid of more than 1.2e6 nodes, past the 2^20 cap: a
    # usage error (2), where it used to report non-convergence (3)
    code, out, err = run_cli(capsys, "coeffs", "--kernel", "log", "--p", "0",
                             "--chi", "2.0", "--nmax", "600000", "--method", "oracle")
    assert code == 2 and out == ""
    assert "n < 2^18" in err and "2n nodes" in err


def test_coeffs_oracle_does_not_alias_high_modes(capsys):
    # the cubic's cosine series stops at n = 3; 64 and 128 nodes both read
    # n = 129 as n = 1 and printed 129,-12.750000000000075
    code, out, _ = run_cli(capsys, "coeffs", "--kernel", "power", "--p", "3",
                           "--chi", "2.0", "--nmax", "129", "--method", "oracle")
    n, c = out.splitlines()[-1].split(",")
    assert code == 0 and n == "129" and abs(float(c)) < 1e-12


def test_coeffs_truncation_cap_exits_3(capsys):
    # chi this close to 1 needs more than the truncation rule's 10^6 terms
    code, out, err = run_cli(capsys, "coeffs", "--kernel", "log", "--p", "3",
                             "--chi", "1.0000000000005")
    assert code == 3 and out == "" and "non-convergence" in err


# -- greens ---------------------------------------------------------------------


def test_greens_degenerate_ring_still_reports_value(capsys):
    # x' at the origin has no ring radius, so only the pointwise block appears
    code, out, err = run_cli(capsys, "greens", "--d", "2", "--k", "1",
                             "--x", "1,0", "--xp", "0,0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "field,value"
    fields = dict(l.split(",", 1) for l in lines[1:] if l)
    assert fields["regime"] == "log"
    assert float(fields["value"]) == 0.0  # unit distance zeroes the log
    assert "n_terms" not in fields
    assert "no azimuthal expansion" in err


def test_greens_full_log_regime_block(capsys):
    code, out, _ = run_cli(capsys, "greens", "--d", "2", "--k", "2",
                           "--x", "1.2,0.3", "--xp", "0.4,-0.5")
    assert code == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 2
    fields = dict(l.split(",", 1) for l in blocks[0].splitlines()[1:])
    assert fields["regime"] == "log"
    assert float(fields["reconstruction_error"]) < 1e-9
    coeff_lines = blocks[1].strip().splitlines()
    assert coeff_lines[0] == "n,coefficient"
    assert len(coeff_lines) == int(fields["n_terms"]) + 1


def test_greens_power_regime_json(capsys):
    code, out, _ = run_cli(capsys, "greens", "--d", "4", "--k", "1",
                           "--x", "1.0,0.2,0.5,0.0", "--xp", "0.3,-0.4,0.0,0.1",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "power"
    assert doc["reconstruction_error"] < 1e-8
    r = doc["distance"]
    assert doc["value"] == pytest.approx(1.0 / (4 * math.pi**2 * r * r), rel=1e-12)
    assert len(doc["coeffs"]) == doc["n_terms"]


def test_greens_warns_as_coeffs_does_on_an_ill_conditioned_li_table(capsys):
    # eta = 0.005: the algebraic route's li table carries conditioning_warning
    argv = ["greens", "--d", "2", "--k", "3", "--x", "1,0", "--xp", "1.0,0.1"]
    code, out, err = run_cli(capsys, *argv, "--method", "algebraic")
    assert code == 0 and "n,coefficient" in out
    assert err == "warning: eta < 0.2, tail entries are absolute-accurate only\n"
    code, out, err = run_cli(capsys, *argv, "--method", "limit")
    assert code == 0 and "n,coefficient" in out and err == ""


def test_greens_method_outside_the_log_regime_exits_2(capsys):
    # hii_expansion has one route: a --method there was ignored with exit 0
    code, out, err = run_cli(capsys, "greens", "--d", "4", "--k", "1", "--x", "1,0,0,0",
                             "--xp", "2,0,0.5,0", "--method", "limit")
    assert code == 2 and out == "" and err.startswith("error: ") and "--method" in err


def test_greens_usage_errors(capsys):
    code, _, err = run_cli(capsys, "greens", "--d", "2", "--k", "1",
                           "--x", "1,0,0", "--xp", "0,0")
    assert code == 2 and "coordinates" in err
    code, _, _ = run_cli(capsys, "greens", "--d", "2", "--k", "1",
                         "--x", "1,0", "--xp", "1,0")
    assert code == 2  # coincident points


def test_greens_takes_a_negative_first_coordinate_spaced_or_bound(capsys):
    # argparse read the spaced "-1,0.5" as an option: "--x: expected one argument"
    bound = run_cli(capsys, "greens", "--d", "2", "--k", "2", "--x=-1,0.5", "--xp=-0.3,0.2")
    spaced = run_cli(capsys, "greens", "--d", "2", "--k", "2", "--x", "-1,0.5",
                     "--xp", "-0.3,0.2")
    assert bound == spaced
    assert spaced[0] == 0 and "\nvalue," in spaced[1] and "\nn,coefficient\n" in spaced[1]


@pytest.mark.parametrize("d,k,x,xp", [
    ("2", "1", "nan,0", "1,0"),  # a nan coordinate gave value,nan and exit 0
    ("2", "1", "1e200,0", "1,0"),  # R**2 in Geometry.chi overflowed
    ("2", "2", "1e160,0", "1,0"),  # r**(2k-d) in greens_eval overflowed
    ("4", "2", "1,0,1e200,0", "1,0,0,0"),  # the transverse offset's square overflowed
    ("2", "11", "1.24e15,0", "3.24e15,0"),  # (2RR')**p in li_expansion overflows
    ("2", "1", "1e-161,0", "2e-161,0"),  # chi formed on subnormals: 1.2469..., not 1.25
])
def test_greens_out_of_range_points_exit_2(capsys, d, k, x, xp):
    code, out, err = run_cli(capsys, "greens", "--d", d, "--k", k, "--x", x, "--xp", xp)
    assert code == 2 and out == "" and err.startswith("error: ")


# -- validate ---------------------------------------------------------------------


def test_validate_small_grid_passes(capsys):
    code, out, err = run_cli(capsys, "validate", "--pmax", "1", "--etas", "0.5",
                             "--nmax", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "identity,p,n,eta,abs_err,rel_err,pass"
    assert all(l.endswith(",true") for l in lines[1:])
    assert "0 failures" in err


class _RecordingStdout(io.StringIO):
    """Keeps every piece written to it."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return super().write(text)


def test_validate_json_summary(capsys, monkeypatch):
    argv = ["validate", "--pmax", "2", "--etas", "0.5,1.0", "--nmax", "8",
            "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert all(r["pass"] for r in doc["reports"])
    # written in pieces: a signal during one large write to a pipe can cut it
    recording = _RecordingStdout()
    monkeypatch.setattr(sys, "stdout", recording)
    assert main(argv) == 0
    assert "".join(recording.pieces) == out and len(out.encode()) > 4096
    assert max(len(piece.encode()) for piece in recording.pieces) <= 4096


def test_validate_worker_nonconvergence_exits_3(capsys, monkeypatch):
    # the suite's float rows run in a worker forked from this process, so it
    # runs the patched oracle
    import polyfourier.validation as validation
    from polyfourier import ConvergenceError

    def blown_cap(*a, **k):
        raise ConvergenceError("node cap reached")

    monkeypatch.setattr(validation, "_trapezoid", blown_cap)
    code, out, err = run_cli(capsys, "validate", "--pmax", "1", "--etas", "1.0", "--nmax", "3")
    assert code == 3 and out == "" and "node cap" in err


def test_validate_usage_guard(capsys):
    code, _, _ = run_cli(capsys, "validate", "--pmax", "3", "--nmax", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "validate", "--pmax", "-1")
    assert code == 2


@pytest.mark.parametrize("eta", ["-1", "0", "nan", "inf", "800", "1e-9"])
def test_validate_refuses_a_bad_eta_by_name(capsys, eta):
    # not > 0, not finite, e^eta overflows, or cosh(eta) rounds to 1; the
    # bad eta follows a good one, and still nothing reaches stdout
    code, out, err = run_cli(capsys, "validate", "--pmax", "1", "--etas", f"0.5,{eta}",
                             "--nmax", "4")
    assert code == 2 and out == ""
    assert err.startswith("error: run_validation_suite needs etas"), err


@pytest.mark.parametrize("etas", ["", "0.5,abc", "0.5,,1"])
def test_validate_names_the_etas_flag_for_a_non_number(capsys, etas):
    # it printed only "could not convert string to float"
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--pmax", "1", "--etas", etas])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"argument --etas: needs comma-separated numbers, got {etas!r}" in err, err


def test_validate_band_free_grid_passes(capsys):
    # with no banded identities in range the remaining checks still pass
    code, out, _ = run_cli(capsys, "validate", "--pmax", "0", "--etas", "1.0",
                           "--nmax", "6")
    assert code == 0
    body = out.splitlines()[1:]
    assert body and all(l.endswith(",true") for l in body)
    assert not any(l.startswith(("n0,", "np,", "mid,")) for l in body)


# -- process-level behavior ----------------------------------------------------


def test_console_script_is_deterministic():
    cmd = [
        sys.executable, "-c",
        "import sys; from polyfourier.cli import main; sys.exit(main(sys.argv[1:]))",
        "coeffs", "--kernel", "log", "--p", "2", "--chi", "1.8", "--nmax", "12",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.count("\n") == 14  # header + 13 rows


def test_closed_stdout_exits_141_without_a_traceback():
    # logpoly --p 80 writes about 170 KB, more than a pipe buffer holds, so
    # the process is still writing when the reader closes its end
    cmd = [
        sys.executable, "-c",
        "import sys; from polyfourier.cli import main; sys.exit(main(sys.argv[1:]))",
        "logpoly", "--p", "80",
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"p,k,degree,numerator,denominator\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert code == 141
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


@pytest.mark.parametrize(
    "kernel_flags",
    [
        ("--kernel", "log", "--p", "3"),
        ("--kernel", "log", "--p", "3", "--method", "limit"),
        ("--kernel", "power", "--p", "2"),
        ("--kernel", "inverse", "--q", "1"),
        ("--kernel", "log", "--p", "3", "--nmax", "4", "--method", "oracle"),
    ],
)
@pytest.mark.parametrize("chi", ["inf", "nan"])
def test_coeffs_non_finite_chi_exits_2(capsys, kernel_flags, chi):
    # chi = inf used to print nan rows and exit 0
    code, out, err = run_cli(capsys, "coeffs", *kernel_flags, "--chi", chi)
    assert code == 2 and out == "" and "finite" in err


@pytest.mark.parametrize("argv", [
    ("--p", "2", "--chi", "1e153", "--nmax", "4"),  # printed 0,inf and exited 0
])
def test_coeffs_out_of_float_range_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "coeffs", "--kernel", "log", *argv)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("p,chi,shown", [
    ("3", "5.4e102", "5.4e+102"),
    ("2", "1.2696591750569586e154", "1.2696591750569586e+154"),
])
def test_coeffs_log_term_overflow_names_the_table(capsys, p, chi, shown):
    # the default (algebraic) route printed "error: math range error"
    code, out, err = run_cli(capsys, "coeffs", "--kernel", "log", "--p", p, "--chi", chi)
    assert code == 2 and out == ""
    assert err == (f"error: log table at p={p}, chi={shown}: "
                   "coefficient out of the float range (inf, nan or overflow)\n")


@pytest.mark.parametrize("p,chi,shown", [
    ("2", "1.2696591750569586e154", "1.2696591750569586e+154"),
    ("3", "5.3826097168734e102", "5.3826097168734e+102"),
])
def test_coeffs_limit_band_overflow_names_the_table(capsys, p, chi, shown):
    # band terms overflow to +inf and -inf one by one before their sum, and
    # the command printed fsum's own "error: -inf + inf in fsum"
    code, out, err = run_cli(capsys, "coeffs", "--kernel", "log", "--p", p,
                             "--method", "limit", "--chi", chi)
    assert code == 2 and out == ""
    assert err == (f"error: log table at p={p}, chi={shown}: "
                   "coefficient out of the float range (inf, nan or overflow)\n")


def test_coeffs_log_past_the_expm1_overflow(capsys):
    # eta ~ 499.3: 2/expm1(2 eta) overflowed and the command exited 2 with
    # "math range error"; c_0 = eta - log 2 = log(chi) and c_1 = -2 e^{-eta}
    code, out, _ = run_cli(capsys, "coeffs", "--kernel", "log", "--p", "0",
                           "--chi", "7e216")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()[1:]]
    assert float(rows[0][1]) == pytest.approx(math.log(7e216), rel=1e-15)
    assert float(rows[1][1]) == pytest.approx(-1 / 7e216, rel=1e-13)


def test_coeffs_power_overflow_names_the_quantity(capsys):
    # sinh(eta)^3 leaves the float range; the message was the raw errno
    # tuple "(34, 'Numerical result out of range')"
    code, out, err = run_cli(capsys, "coeffs", "--kernel", "power", "--p", "3",
                             "--chi", "1e120")
    assert code == 2 and out == ""
    assert err == "error: sinh(eta)^3 overflows double precision\n"
