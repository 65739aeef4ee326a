"""Child processes of the benchmark.

    python3 perfbench/child.py setup <workload>
        fresh interpreter, import polyfourier and the workload's warm-up;
        the parent times the whole process as one set-up sample.
    python3 perfbench/child.py plain <workload> <seed>
        the traced run's operations of a ring workload, untraced; the
        Result goes to stdout as one JSON line.
    python3 perfbench/child.py validate
        `polyfourier validate` at its defaults, with the speed probe run
        from a 0.25 s interval timer in the same thread; the probe's sample
        times go to stderr as the last line, a JSON list.
    python3 perfbench/child.py trace-validate <spans.npz> <metrics.json>
        `polyfourier validate` at its defaults under the span tracer; stdout
        is the CLI's own, the spans and per-layer metrics go to the files.
"""

from __future__ import annotations

import json
import sys


class _CountingWriter:
    """Forwards text to a stream and counts the UTF-8 bytes written."""

    def __init__(self, inner):
        self.inner = inner
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode())
        return self.inner.write(text)

    def flush(self):
        self.inner.flush()


def setup(workload: str) -> int:
    import polyfourier as pf

    if workload == "validate_cli":
        import polyfourier.cli  # noqa: F401
        return 0
    import inputs
    import workloads

    if workload == "ring_pairs":
        workloads.warm_up_rings(pf)
    elif workload == "ring_lattice":
        workloads.warm_up_lattice(pf, inputs.azimuth_grid(0))
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    return 0


def plain(workload: str, seed: int) -> int:
    import dataclasses

    import polyfourier as pf

    import workloads

    print(json.dumps(dataclasses.asdict(workloads.plain_pass(pf, workload, seed))))
    return 0


def validate() -> int:
    import signal

    from polyfourier import cli

    import speed

    probe = speed.SpeedProbe()
    signal.signal(signal.SIGALRM, lambda signum, frame: probe.sample())
    signal.setitimer(signal.ITIMER_REAL, speed.INTERVAL_S, speed.INTERVAL_S)
    try:
        code = cli.main(["validate"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    sys.stdout.flush()
    print(json.dumps(probe.samples), file=sys.stderr)
    return code


def trace_validate(spans_path: str, metrics_path: str) -> int:
    from polyfourier import cli

    import layers

    tracer = layers.Tracer()
    tracer.install()
    out = _CountingWriter(sys.stdout)
    sys.stdout = out
    try:
        code = cli.main(["validate"])
    finally:
        sys.stdout = out.inner
        tracer.uninstall()
    sys.stdout.flush()
    tracer.counts["cli.bytes_out"] = out.bytes
    tracer.write_spans(spans_path)
    with open(metrics_path, "w") as fh:
        json.dump(tracer.metrics(), fh)
    return code


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        return setup(argv[1])
    if len(argv) == 3 and argv[0] == "plain":
        return plain(argv[1], int(argv[2]))
    if argv == ["validate"]:
        return validate()
    if len(argv) == 3 and argv[0] == "trace-validate":
        return trace_validate(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
