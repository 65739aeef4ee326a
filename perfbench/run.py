"""polyfourier benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a polyfourier checkout; the library is imported from
./src.  Workloads (see BENCHMARK.json for why each exists):

    ring_pairs    random ring pairs, each a li/hii table reconstructed at its
                  own azimuth
    ring_lattice  every pair of a 25-ring coaxial lattice, 4096 azimuths each
    validate_cli  `polyfourier validate` at its defaults, one fresh process
                  per operation

--trace 0 times the workload for S seconds and prints the end-to-end
metrics, with operation timings normalized by the run's machine-speed
factor (see speed.py).  --trace 1 runs a fixed, seed-determined set of
operations under the span tracer, and untraced in fresh processes before
and after, and prints the per-layer metrics.  Every operation is checked;
the last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("ring_pairs", "ring_lattice", "validate_cli")
SETUP_SAMPLES = 9
OUT_DIR = ".perfbench_out"


def _parse(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(root: Path, workload: str, child_env) -> list[tuple[float, float]]:
    """SETUP_SAMPLES pairs of wall times: a fresh interpreter that runs the
    set-up reference (see speed.py), then one that imports polyfourier and
    runs the workload's warm-up."""
    import speed

    child = Path(__file__).resolve().with_name("child.py")

    def wall(argv):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], cwd=root, env=child_env(root), check=True)
        return time.perf_counter() - t0

    return [(wall(speed.SETUP_REFERENCE_ARGV), wall([str(child), "setup", workload]))
            for _ in range(SETUP_SAMPLES)]


def _line(name: str, value, unit: str, note: str):
    print(f"{name:<18} {value:>14.6g} {unit:<7} {note}")


def report_end_to_end(workload: str, res, setup: list[tuple[float, float]],
                      factor: float) -> dict:
    """Print every end-to-end figure by name, unit and sample count, and
    return the BENCHMARK.json metrics.  Operation timings are divided by the
    run's speed factor and set-up times by their reference process (see
    speed.py), with the raw value in the note."""
    import numpy as np

    import checks
    import inputs
    import speed

    lat_ms = np.asarray(res.latencies) * 1e3
    n = len(lat_ms)
    raw_p50, raw_p99 = (float(v) for v in np.percentile(lat_ms, [50, 99]))
    raw_ops = n / (lat_ms.sum() / 1e3)
    setup_s = statistics.median(t / ref for ref, t in setup) * speed.SETUP_REFERENCE_S
    raw_setup_s = statistics.median(t for _, t in setup)
    p50, p99, ops_per_s = raw_p50 / factor, raw_p99 / factor, raw_ops * factor
    worst_label, worst = max(res.accuracy, key=lambda item: item[1])
    tail = f"n={n}, {int(n * 0.01)} samples above"

    def raw(value):
        return f"(raw {value:.6g})"

    print(f"inputs {json.dumps(res.info)}")
    _line("speed_factor", factor, "1", "mean calibration-kernel time / reference; "
          "operation timings below are divided by it")
    _line("setup_s", setup_s, "s", f"median of n={len(setup)} fresh interpreters, each over"
          f" the reference process before it {raw(raw_setup_s)}")
    if workload == "ring_pairs":
        _line("tables_per_s", ops_per_s, "1/s", f"n={n} tables, one closed-loop caller {raw(raw_ops)}")
        _line("table_ms_p50", p50, "ms", f"n={n} {raw(raw_p50)}")
        _line("table_ms_p99", p99, "ms", f"{tail} {raw(raw_p99)}")
    elif workload == "ring_lattice":
        _line("evals_per_s", ops_per_s * inputs.AZIMUTHS, "1/s",
              f"n={n} pairs x {inputs.AZIMUTHS} azimuths {raw(raw_ops * inputs.AZIMUTHS)}")
        _line("pair_ms_p50", p50, "ms", f"n={n} {raw(raw_p50)}")
        _line("pair_ms_p99", p99, "ms", f"{tail} {raw(raw_p99)}")
    else:
        _line("validate_s", p50 / 1e3, "s", f"median of n={n} fresh processes {raw(raw_p50 / 1e3)}")
        _line("validate_s_p99", p99 / 1e3, "s",
              f"n={n}: no percentile has 10 samples above it; near the maximum"
              f" {raw(raw_p99 / 1e3)}")
    _line("failed_frac", res.failed / n, "1",
          f"{res.failed} of {n} operations; {res.bare_misses} would miss the bare"
          " 1e-8 rule without the summation bound")
    digits = -math.log10(worst) if worst > 0 else math.inf
    decade = checks.relerr_decade(worst)
    _line("coeff_digits_min", digits, "digits",
          f"n={len(res.accuracy)} coefficients vs mpmath; worst at {worst_label}")
    _line("coeff_relerr_decade", decade, "1",
          f"worst relative error {worst:.4g}, floored at {checks.RELERR_FLOOR:g}"
          " and rounded up to a power of ten")
    _line("peak_mem_mb", res.peak_mem_mb, "MB", "peak resident set of the working process")
    for why in res.errors:
        print(f"failure: {why}")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "op_ms_p50": {"value": p50, "unit": "ms"},
        "op_ms_p99": {"value": p99, "unit": "ms"},
        "peak_mem_mb": {"value": res.peak_mem_mb, "unit": "MB"},
        "coeff_relerr_decade": {"value": decade, "unit": "1"},
    }


def report_layers(layer_values: dict) -> dict:
    import layers

    out = {}
    for name, unit, _ in layers.METRICS:
        value = layer_values.get(name, 0)
        print(f"{name:<36} {value:>16.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    # One BLAS thread, set before numpy loads: the benchmark is a single
    # closed-loop caller, and its child processes inherit the setting.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    root = Path.cwd()
    if not (root / "src" / "polyfourier" / "__init__.py").is_file():
        print("perfbench: run from a polyfourier checkout (src/polyfourier missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import polyfourier as pf

    import layers
    import speed
    import workloads

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if args.trace:
        out_dir = root / OUT_DIR
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}.npz"
        if args.workload == "validate_cli":
            res = workloads.validate_cli_traced(root, args.seed, spans)
        else:
            tracer = layers.Tracer()
            res = workloads.ring_traced(pf, root, args.workload, args.seed, tracer)
            tracer.write_spans(spans)
            res.layers.update(tracer.metrics())
        print(f"spans written to {spans.relative_to(root)}")
        metrics = report_layers(res.layers)
        for why in res.errors:
            print(f"failure: {why}")
    else:
        setup = measure_setup(root, args.workload, workloads.child_env)
        probe = speed.SpeedProbe()
        if args.workload == "ring_pairs":
            res = workloads.ring_pairs(pf, args.seed, args.seconds, probe)
        elif args.workload == "ring_lattice":
            res = workloads.ring_lattice(pf, args.seed, args.seconds, probe)
        else:
            res = workloads.validate_cli(pf, root, args.seed, args.seconds, probe)
        metrics = report_end_to_end(args.workload, res, setup, probe.factor())
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
