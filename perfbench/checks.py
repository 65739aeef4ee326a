"""Correctness rules applied to every operation the benchmark times."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from inputs import LATTICE_D

UNIT_ROUNDOFF = 2.0**-53
REL_TOL = 1e-8
# Coefficient errors below this are rounding, which a reordered float sum
# may move by any factor; the bounded accuracy metric does not see them.
RELERR_FLOOR = 1e-12
VALIDATE_HEADER = "identity,p,n,eta,abs_err,rel_err,pass"
VALIDATE_ROWS_FILE = Path(__file__).with_name("validate_rows.json")


def summation_bound(coeffs) -> float:
    """Floating-point error bound of summing the cosine series:
    n_terms * u * sum |a_n|."""
    a = np.abs(np.asarray(coeffs, dtype=float))
    return len(a) * UNIT_ROUNDOFF * float(a.sum())


def misses(got, want, coeffs):
    """Boolean mask of reconstructed values that miss the direct value by
    more than 1e-8 * max(1, |want|) plus the summation bound, or that are not
    finite.  Works for scalars and arrays."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    allowed = REL_TOL * np.maximum(1.0, np.abs(want)) + summation_bound(coeffs)
    return ~np.isfinite(got) | ~(np.abs(got - want) <= allowed)


def misses_bare_rule(got, want) -> bool:
    """The 1e-8 * max(1, |want|) rule without the summation bound; reported
    for comparison, never used to fail an operation."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return bool(np.any(~(np.abs(got - want) <= REL_TOL * np.maximum(1.0, np.abs(want)))))


def op_fails(got, want, coeffs) -> bool:
    """One operation fails if any of its values misses (see `misses`) or its
    table holds a non-finite coefficient."""
    if not np.all(np.isfinite(np.asarray(coeffs, dtype=float))):
        return True
    return bool(np.any(misses(got, want, coeffs)))


def lattice_direct(case, psi, beta: float | None):
    """Direct kernel values on the azimuth grid for a coaxial lattice pair:
    r^{2k-d} (log r - beta) in the log regime, r^{2k-d} otherwise."""
    r2 = case.R**2 + case.Rp**2 + case.dz**2 - 2.0 * case.R * case.Rp * np.cos(psi)
    power = case.k - LATTICE_D // 2  # r^{2k-d} = (r^2)^{k-d/2}
    if beta is None:
        return r2**power
    return r2**power * (0.5 * np.log(r2) - beta)


def validate_row_keys(stdout: str) -> list[str]:
    """(identity, p, n, eta) of every row; raises ValueError on a bad header."""
    lines = stdout.splitlines()
    if not lines or lines[0] != VALIDATE_HEADER:
        raise ValueError("validate output lacks its CSV header")
    return [",".join(line.split(",")[:4]) for line in lines[1:]]


def rows_digest(keys: list[str]) -> str:
    return hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest()


def validate_fails(returncode: int, stdout: str) -> str | None:
    """Why one `polyfourier validate` run failed, or None if it passed: a
    non-zero exit, any pass=false row, or a row set other than the seed's.
    The error columns are not compared; they move when floating-point
    operations are reordered."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        keys = validate_row_keys(stdout)
    except ValueError as exc:
        return str(exc)
    bad = sum(1 for line in stdout.splitlines()[1:] if not line.endswith(",true"))
    if bad:
        return f"{bad} rows with pass=false"
    want = json.loads(VALIDATE_ROWS_FILE.read_text())
    if len(keys) != want["rows"] or rows_digest(keys) != want["sha256"]:
        return "row set differs from the seed's"
    return None


def relative_error(got: float, ref) -> float:
    """|got - ref| / |ref| with ref an mpmath number, formed at ref's
    precision so that a correctly rounded got still shows its rounding."""
    import mpmath

    if ref == 0:
        return math.inf
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(got) - ref) / abs(ref))


def relerr_decade(err: float) -> float:
    """max(err, RELERR_FLOOR) rounded up to a power of ten: the error as
    whole correct digits, so that only a change of a digit or more moves
    it."""
    if not math.isfinite(err):
        return err
    return 10.0 ** math.ceil(round(math.log10(max(err, RELERR_FLOOR)), 9))
