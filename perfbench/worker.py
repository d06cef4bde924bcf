"""One iteration of one workload, in a fresh interpreter.

run.py starts this script once per iteration, so qfibonomial's lru_cache,
the factorial cache and strip_tilings start empty, as they do for a CLI
user.  The script imports fibwork from the checkout's ``src``, builds the
workload's argv lists (its inputs), then calls ``fibwork.cli.main`` on each
in turn.  It prints one JSON line: the monotonic time of the first operation
(the parent subtracts its spawn time to get set-up time) and three
calibration samples taken right after it, the start and end
of the timed calls and of every call, exit codes, the CLI's stderr, the
peak RSS and the calibration samples described below.  With ``--trace 1``
it also writes its spans as JSONL to ``<dir>/trace.jsonl`` and takes no
calibration samples during the calls, so they add nothing to any span.

The CPU speed of a small shared VM drifts by 20-30% over periods of a few
seconds, and the drift of one vCPU is not seen on the other, so the speed is
sampled in this process: every 0.1 s a SIGALRM handler times a fixed integer
loop, and one more sample is taken just before and just after the timed
calls.  run.py turns these into timings at a fixed CPU speed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

CALIBRATION_PERIOD_S = 0.1
CALIBRATION_LOOP = 20_000


def calibration_sample() -> tuple[float, float]:
    """(start, duration) of one fixed pure-Python integer loop."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOP):
        x += i * i % 7
    return start, time.perf_counter() - start


@contextlib.contextmanager
def calibrated(samples: list):
    """Append a calibration sample every CALIBRATION_PERIOD_S while inside."""
    def handler(signum, frame):
        samples.append(calibration_sample())

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--size", choices=("full", "smoke"), required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, str(SRC))
    import fibwork.cli

    if not Path(fibwork.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported fibwork from {fibwork.__file__}, not {SRC}")
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    ops = workloads.argvs(args.workload, args.seed, args.stream, args.dir, args.size)
    first_op = time.monotonic()
    # the CPU speed just after set-up, to scale set-up time by
    setup_calibration = [calibration_sample()[1] for _ in range(3)]
    if args.setup_only:
        print(json.dumps({"first_op": first_op,
                          "setup_calibration": setup_calibration}))
        return 0

    codes, calls = [], []
    samples: list = []
    stderr = io.StringIO()
    main_fn = fibwork.cli.main
    timer = calibrated(samples) if tracer is None else contextlib.nullcontext()
    before = calibration_sample()
    with contextlib.redirect_stderr(stderr), timer:
        start = time.perf_counter()
        for argv in ops:
            t0 = time.perf_counter()
            codes.append(main_fn(argv))
            calls.append((t0, time.perf_counter()))
        end = time.perf_counter()
    after = calibration_sample()

    if tracer is not None:
        tracer.write_jsonl(args.dir / "trace.jsonl")
    print(json.dumps({
        "first_op": first_op,
        "setup_calibration": setup_calibration,
        "start": start,
        "end": end,
        "calls": calls,
        "calibration": [before, *samples, after],
        "codes": codes,
        "stderr": stderr.getvalue(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
