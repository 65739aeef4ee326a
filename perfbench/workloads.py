"""The three workloads.  Each returns a `Result`: per-operation latencies,
failures, and the extra figures its report needs.

ring_pairs and ring_lattice call the library in this process, one caller in
a closed loop.  validate_cli starts one fresh interpreter per operation that
runs `polyfourier validate` at its defaults (through child.py, which adds
the speed probe), because CLI users pay cold caches on every call.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import checks
import inputs
import speed

CHILD = Path(__file__).resolve().with_name("child.py")
TRACE_RING_PAIRS = 300
TRACE_LATTICE_OPS = 300
ACCURACY_SAMPLE = 12  # tables per run in the accuracy sample, two n each
ACCURACY_NMAX = 50  # n range of the acceptance grid


@dataclass
class Result:
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    bare_misses: int = 0  # values off by more than 1e-8 * max(1, |want|) alone
    errors: list[str] = field(default_factory=list)
    peak_mem_mb: float = 0.0
    accuracy: list[tuple[str, float]] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def fail(self, why: str):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# ---------------------------------------------------------------------------
# ring_pairs


def ring_op(pf, case: inputs.RingCase):
    """One operation: build the table at the default method and nmax, then
    reconstruct it at the pair's own azimuth difference."""
    params = pf.SolutionParams(case.d, case.k)
    geom = pf.Geometry.from_points(case.x, case.xp)
    if params.is_log_regime:
        table = pf.li_expansion(params, geom)
    else:
        table = pf.hii_expansion(params, geom)
    return table, table.reconstruct(geom.psi)


def ring_want(pf, case: inputs.RingCase) -> float:
    params = pf.SolutionParams(case.d, case.k)
    if params.is_log_regime:
        return pf.li_direct(params, case.x, case.xp)
    return math.dist(case.x, case.xp) ** (2 * case.k - case.d)


def _ring_check(pf, res: Result, case, table, got):
    want = ring_want(pf, case)
    res.bare_misses += checks.misses_bare_rule(got, want)
    if checks.op_fails(got, want, table.coeffs):
        res.fail(f"miss at d={case.d} k={case.k} eta={case.eta:.4g}")


def _timed(res: Result, op, check, tracer=None):
    """Time op() as one operation, then run check(*op()) untimed and, under
    a tracer, unrecorded.  An operation that raises is counted as failed."""
    t0 = time.perf_counter()
    try:
        out = op()
    except Exception as exc:  # a failing operation is counted, not fatal
        res.latencies.append(time.perf_counter() - t0)
        res.fail(f"{type(exc).__name__}: {exc}")
        return
    res.latencies.append(time.perf_counter() - t0)
    with tracer.paused() if tracer else contextlib.nullcontext():
        check(*out)


def _timed_ring(pf, res: Result, case, tracer=None):
    _timed(res, partial(ring_op, pf, case), partial(_ring_check, pf, res, case), tracer)


def warm_up_rings(pf):
    """Fill the library's per-p caches the way any caller's first tables do."""
    for p in range(inputs.P_MAX + 1):
        ring_op(pf, inputs.RingCase(2, p + 1, (1.0, 0.0), (0.0, 2.0), 1.0))
    for d, k in ((4, 1), (6, 1), (6, 2)):
        ring_op(pf, inputs.RingCase(d, k, (1.0, 0.0) + (0.5,) * (d - 2),
                                    (0.0, 2.0) + (0.0,) * (d - 2), 1.0))


def _probing_loop(seconds: float, probe):
    """Yield until `seconds` have passed, sampling the speed probe every
    speed.INTERVAL_S in between."""
    next_probe = 0.0
    deadline = time.perf_counter() + seconds
    while (now := time.perf_counter()) < deadline:
        if now >= next_probe:
            probe.sample()
            next_probe = time.perf_counter() + speed.INTERVAL_S
        yield


def ring_pairs(pf, seed: int, seconds: float, probe) -> Result:
    res = Result()
    stream = inputs.ring_stream(seed)
    warm_up_rings(pf)
    cases = []
    for _ in _probing_loop(seconds, probe):
        case = next(stream)
        cases.append(case)
        _timed_ring(pf, res, case)
    res.peak_mem_mb = _peak_rss_mb()
    res.info = inputs.describe_ring_cases(cases)
    res.accuracy = ring_accuracy(pf, seed, cases)
    return res


def ring_accuracy(pf, seed: int, cases) -> list[tuple[str, float]]:
    """Relative error of sampled li/hii coefficients against the mpmath
    trapezoid reference: the fixed corner (p = 10, eta = 0.2, n = 50) plus
    two seeded n <= 50 from each of ACCURACY_SAMPLE seeded tables.  The
    tables are rebuilt here, outside the timed region."""
    import reference  # mpmath loads only after the timed region's peak RSS

    rng = random.Random(f"accuracy/{seed}")
    picks = [(inputs.corner_case(), [inputs.CORNER["n"]])]
    for case in rng.sample(cases, min(ACCURACY_SAMPLE, len(cases))):
        picks.append((case, None))
    out = []
    for case, ns in picks:
        geom = pf.Geometry.from_points(case.x, case.xp)
        table, _ = ring_op(pf, case)
        ns = ns or _sample_ns(rng, table)
        make = _kernel(pf, case, case.d, 2.0 * geom.R * geom.Rprime, geom.chi)
        for n, ref in zip(ns, reference.trapezoid_coeffs(make, ns)):
            label = f"d={case.d} k={case.k} eta={geom.eta:.4g} n={n}"
            out.append((label, checks.relative_error(table.coeffs[n], ref)))
    return out


def _sample_ns(rng: random.Random, table) -> list[int]:
    """Two seeded n in the acceptance grid's range 0..min(nmax, 50)."""
    top = min(table.nmax, ACCURACY_NMAX)
    return sorted({rng.randint(0, top), rng.randint(0, top)})


def _kernel(pf, case, d: int, two_rr: float, chi: float):
    """Maker of the mpmath kernel a li/hii table expands, for the reference."""
    import reference

    if case.log_regime:
        beta = pf.beta_pd(case.p_or_q, d)
        return partial(reference.li_kernel, case.p_or_q, two_rr, chi, beta)
    return partial(reference.power_kernel, case.p_or_q, two_rr, chi)


# ---------------------------------------------------------------------------
# ring_lattice


def lattice_op(pf, case: inputs.LatticeCase, psi):
    """One operation: the pair's table at the default method and nmax,
    reconstructed on the whole azimuth grid."""
    params = pf.SolutionParams(inputs.LATTICE_D, case.k)
    geom = pf.Geometry(case.R, case.Rp, case.dz**2)
    if params.is_log_regime:
        table = pf.li_expansion(params, geom)
    else:
        table = pf.hii_expansion(params, geom)
    return table, table.reconstruct(psi)


def _lattice_check(pf, res: Result, case, psi, table, got):
    beta = float(pf.beta_pd(case.p_or_q, inputs.LATTICE_D)) if case.log_regime else None
    want = checks.lattice_direct(case, psi, beta)
    res.bare_misses += checks.misses_bare_rule(got, want)
    if checks.op_fails(got, want, table.coeffs):
        res.fail(f"miss at k={case.k} chi={case.chi:.6g}")


def _timed_lattice(pf, res: Result, case, psi, tracer=None):
    _timed(res, partial(lattice_op, pf, case, psi),
           partial(_lattice_check, pf, res, case, psi), tracer)


def _lattice_stream(seed: int):
    sweep = 0
    while True:
        yield from inputs.lattice_sweep(seed, sweep)
        sweep += 1


def warm_up_lattice(pf, psi):
    case = inputs.lattice_sweep(0, 0)[0]
    for k in inputs.LATTICE_K:
        lattice_op(pf, inputs.LatticeCase(k, case.R, case.Rp, case.dz), psi)


def ring_lattice(pf, seed: int, seconds: float, probe) -> Result:
    res = Result()
    psi = inputs.azimuth_grid(seed)
    warm_up_lattice(pf, psi)
    stream = _lattice_stream(seed)
    for _ in _probing_loop(seconds, probe):
        _timed_lattice(pf, res, next(stream), psi)
    res.peak_mem_mb = _peak_rss_mb()
    res.info = inputs.describe_lattice()
    res.accuracy = lattice_accuracy(pf)
    return res


def lattice_accuracy(pf) -> list[tuple[str, float]]:
    """Relative error of sampled lattice coefficients (n <= 50) against the
    mpmath reference: the closest pair at the largest p, n = 50, plus two n
    from each of ACCURACY_SAMPLE (pair, k).  The lattice is fixed, and so is
    this sample: it does not depend on the seed."""
    import reference

    rng = random.Random("accuracy/ring_lattice")
    cases = inputs.lattice_sweep(0, 0)
    closest = min(cases, key=lambda c: (c.chi, -c.k))
    worst = inputs.LatticeCase(max(inputs.LATTICE_K), closest.R, closest.Rp, closest.dz)
    picks = [(worst, [ACCURACY_NMAX])] + [(c, None) for c in rng.sample(cases, ACCURACY_SAMPLE)]
    out = []
    for case, ns in picks:
        table, _ = lattice_op(pf, case, 0.0)
        ns = ns or _sample_ns(rng, table)
        chi = pf.Geometry(case.R, case.Rp, case.dz**2).chi
        make = _kernel(pf, case, inputs.LATTICE_D, 2.0 * case.R * case.Rp, chi)
        for n, ref in zip(ns, reference.trapezoid_coeffs(make, ns)):
            label = f"k={case.k} chi={chi:.6g} n={n}"
            out.append((label, checks.relative_error(table.coeffs[n], ref)))
    return out


def trace_ops(pf, workload: str, seed: int):
    """The fixed, seed-determined operations of a traced ring run, after the
    workload's warm-up: (cases, timed) with timed(res, case, tracer=None)
    timing and checking one case.  ring_pairs takes the seed's first
    TRACE_RING_PAIRS pairs, ring_lattice the first TRACE_LATTICE_OPS
    operations of the seed's first sweep."""
    if workload == "ring_pairs":
        warm_up_rings(pf)
        return inputs.ring_cases(seed, TRACE_RING_PAIRS), partial(_timed_ring, pf)
    psi = inputs.azimuth_grid(seed)
    warm_up_lattice(pf, psi)

    def timed(res, case, tracer=None):
        _timed_lattice(pf, res, case, psi, tracer)

    return inputs.lattice_sweep(seed, 0)[:TRACE_LATTICE_OPS], timed


def plain_pass(pf, workload: str, seed: int) -> Result:
    """trace_ops untraced; child.py runs it in a fresh process."""
    res = Result()
    cases, timed = trace_ops(pf, workload, seed)
    for case in cases:
        timed(res, case)
    return res


def _plain_child(root: Path, workload: str, seed: int) -> Result:
    proc = subprocess.run([sys.executable, str(CHILD), "plain", workload, str(seed)], cwd=root,
                          env=child_env(root), stdout=subprocess.PIPE, text=True, check=True)
    return Result(**json.loads(proc.stdout.splitlines()[-1]))


def ring_traced(pf, root: Path, workload: str, seed: int, tracer) -> Result:
    """trace_ops under the tracer in this process, between two untraced
    passes over the same operations in fresh processes, whose mean time is
    the untraced time.  Every pass sees its inputs for the first time, so
    the traced counts carry the workload's own repeat share and no more.
    Returns the traced Result with all three passes' checks."""
    plain = [_plain_child(root, workload, seed)]
    cases, timed = trace_ops(pf, workload, seed)
    res = Result()
    tracer.install()
    try:
        for case in cases:
            timed(res, case, tracer)
    finally:
        tracer.uninstall()
    plain.append(_plain_child(root, workload, seed))
    untraced_s = statistics.fmean(sum(p.latencies) for p in plain)
    traced_s = sum(res.latencies)
    res.layers = {"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
                  "trace.overhead_s": traced_s - untraced_s}
    for p in plain:
        res.latencies += p.latencies
        res.failed += p.failed
        res.bare_misses += p.bare_misses
        res.errors += p.errors
    return res


# ---------------------------------------------------------------------------
# validate_cli

VALIDATE_ARGV = ["-m", "polyfourier.cli", "validate"]


def _validate_op(root: Path, res: Result, argv: list[str], probe=None) -> float:
    """One child process, timed from start to exit.  With a probe, the child
    is `child.py validate`, which samples the probe in its own thread; those
    samples join `probe` and their time is taken off the latency."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=root, env=child_env(root),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    stderr = proc.stderr.splitlines()
    if probe is not None:
        try:
            samples = json.loads(stderr[-1])
            stderr = stderr[:-1]
        except (IndexError, ValueError):  # the child died before reporting
            samples = []
        probe.samples += samples
        wall -= sum(samples)
    res.latencies.append(wall)
    why = checks.validate_fails(proc.returncode, proc.stdout)
    if why:
        res.fail(f"{why}: {' | '.join(stderr[-2:])[-200:]}")
    return wall


def validate_cli(pf, root: Path, seed: int, seconds: float, probe) -> Result:
    res = Result()
    deadline = time.perf_counter() + seconds
    while not res.latencies or time.perf_counter() < deadline:
        _validate_op(root, res, [str(CHILD), "validate"], probe)
    res.peak_mem_mb = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    res.info = {"checks": json.loads(checks.VALIDATE_ROWS_FILE.read_text())["rows"]}
    res.accuracy = validate_accuracy(pf, seed)
    return res


def validate_accuracy(pf, seed: int) -> list[tuple[str, float]]:
    """Relative error of log_series_algebraic, the default route of
    `polyfourier coeffs --kernel log`, on the validate grid (p <= pmax, eta
    in the grid, n <= nmax at run_validation_suite's defaults), against the
    mpmath reference: the corner (pmax, smallest eta, nmax) plus
    ACCURACY_SAMPLE seeded grid points."""
    import inspect

    import reference

    grid = inspect.signature(pf.run_validation_suite).parameters
    pmax, etas, nmax = (grid[name].default for name in ("pmax", "etas", "nmax"))
    rng = random.Random(f"accuracy/{seed}")
    picks = [(pmax, min(etas), nmax)] + [
        (rng.randint(0, pmax), rng.choice(etas), rng.randint(0, nmax))
        for _ in range(ACCURACY_SAMPLE)
    ]
    out = []
    for p, eta, n in picks:
        chi = math.cosh(eta)
        got = pf.log_series_algebraic(p, chi, nmax).coeffs[n]
        ref = reference.trapezoid_coeffs(partial(reference.log_kernel, p, chi), [n])[0]
        out.append((f"p={p} eta={eta} n={n}", checks.relative_error(got, ref)))
    return out


def validate_cli_traced(root: Path, seed: int, spans_path: Path) -> Result:
    """A traced `validate` process between two plain ones, whose mean wall
    time is the untraced time.  The traced child records its spans and
    per-layer metrics and writes them next to spans_path."""
    res = Result()
    before = _validate_op(root, res, VALIDATE_ARGV)
    metrics_path = spans_path.with_suffix(".json")
    traced = _validate_op(root, res, [str(CHILD), "trace-validate", str(spans_path),
                                      str(metrics_path)])
    plain = (before + _validate_op(root, res, VALIDATE_ARGV)) / 2
    res.layers = json.loads(metrics_path.read_text())
    res.layers.update({"trace.untraced_s": plain, "trace.traced_s": traced,
                       "trace.overhead_s": traced - plain})
    return res
