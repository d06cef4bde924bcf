"""Benchmark of the fibwork CLI: one workload, one run, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each iteration starts ``worker.py`` in a
fresh interpreter that drives ``fibwork.cli.main`` in-process, one call after
another with ``--jobs 1`` (a closed loop with one client).  Iterations repeat
until the next one would end after ``--seconds``; there is always at least
one.  Every output is checked against ``reference.json``.

With ``--trace 0`` the result holds the end-to-end metrics: medians over the
run's iterations of wall time, set-up time (also sampled by extra set-up-only
starts) and peak RSS, and per-request latency percentiles pooled over all
requests.  With ``--trace 1`` the run makes one untraced iteration and then
traced ones, and the result holds the per-layer metrics of tracing.py.

Wall times, latencies and set-up times are scaled to a fixed CPU speed, the
one at which the worker's calibration loop takes REFERENCE_CALIBRATION_S,
using calibration samples taken while they ran or, for set-up, right after
it (see worker.py and scale_timings).  The unscaled wall time is printed
above the result.

The last line of standard output is the JSON result.  Everything the run
writes goes to a temporary directory beside this script, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# Median calibration sample on the 2-CPU box the bounds were set on; it only
# fixes the unit, so that scaled timings read as seconds at that box's speed.
REFERENCE_CALIBRATION_S = 0.002
# Set-up-only starts per untraced run, on top of one per iteration.
SETUP_PROBES = 8
# No single iteration may take longer than this.
CHILD_TIMEOUT_S = 150


def spawn(workdir: Path, name: str, seed: int, stream: int, size: str,
          trace: bool, setup_only: bool = False) -> dict:
    """Run worker.py once; return its JSON result plus ``setup_s``, scaled to
    the reference CPU speed by the samples taken right after set-up."""
    env = dict(os.environ)
    env.pop("FIBWORK_CACHE", None)  # it would override --cache-dir
    # no bytecode is written into the checkout, so every start compiles
    # fibwork from source, whatever the environment says
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--stream", str(stream), "--dir", str(workdir),
           "--size", size, "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = ((result["first_op"] - spawned) * REFERENCE_CALIBRATION_S
                         / statistics.median(result["setup_calibration"]))
    return result


class Run:
    """The iterations of one benchmark run, sharing one temporary directory."""

    def __init__(self, name: str, seed: int, size: str, tmp: Path):
        self.name, self.seed, self.size, self.tmp = name, seed, size, tmp
        self.reference = json.loads(REFERENCE.read_text())
        self.attempted = 0
        self.failed = 0
        self._count = 0

    def _workdir(self) -> Path:
        self._count += 1
        path = self.tmp / f"iteration-{self._count}"
        path.mkdir()
        return path

    def setup_probe(self) -> float:
        workdir = self._workdir()
        try:
            return spawn(workdir, self.name, self.seed, 0, self.size, False,
                         setup_only=True)["setup_s"]
        finally:
            shutil.rmtree(workdir)

    def iteration(self, stream: int, trace: bool) -> dict:
        """One checked iteration; with trace, its aggregated spans too."""
        workdir = self._workdir()
        try:
            result = spawn(workdir, self.name, self.seed, stream, self.size, trace)
            scale_timings(result)
            attempted, failed = workloads.check(
                self.name, self.reference, self.seed, stream, workdir,
                self.size, result["codes"], result["stderr"])
            self.attempted += attempted
            self.failed += failed
            if trace:
                result["spans"] = tracing.aggregate(workdir / "trace.jsonl")
            return result
        finally:
            shutil.rmtree(workdir)


def scale_timings(result: dict) -> None:
    """Add ``wall_s`` and ``latencies_s`` at the reference CPU speed, and the
    unscaled ``raw_wall_s``, to a worker result; all exclude handler time.

    Each calibration sample is smoothed to the median of its 5 nearest
    neighbours (about 0.5 s) and stands for the CPU speed from halfway to
    the previous sample to halfway to the next.  A time interval is scaled
    piece by piece by the speed in force during each piece.
    """
    samples = sorted(result["calibration"])
    durations = [d for _, d in samples]
    factor = [REFERENCE_CALIBRATION_S / statistics.median(durations[max(0, i - 2):i + 3])
              for i in range(len(samples))]
    edges = ([-math.inf]
             + [(a[0] + b[0]) / 2 for a, b in zip(samples, samples[1:])]
             + [math.inf])

    def scaled(t0: float, t1: float) -> float:
        total = 0.0
        for i, (start, duration) in enumerate(samples):
            overlap = min(t1, edges[i + 1]) - max(t0, edges[i])
            if overlap > 0:
                total += overlap * factor[i]
            if t0 <= start < t1:
                total -= duration * factor[i]
        return total

    start, end = result["start"], result["end"]
    result["wall_s"] = scaled(start, end)
    result["latencies_s"] = [scaled(t0, t1) for t0, t1 in result["calls"]]
    result["raw_wall_s"] = end - start - sum(
        d for s, d in samples if start <= s < end)


def repeat(seconds: float, step) -> list:
    """Call step(i) until the next call would likely end after ``seconds``."""
    results = []
    start = time.monotonic()
    while True:
        results.append(step(len(results)))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def end_to_end(run: Run, seconds: float) -> dict:
    run.setup_probe()  # not counted: warms the file cache
    setups = [run.setup_probe() for _ in range(SETUP_PROBES)]
    # a new request stream per iteration (cache-requests); grids are fixed
    results = repeat(seconds, lambda i: run.iteration(i, trace=False))
    latencies = [s for r in results for s in r["latencies_s"]]
    print(f"{run.name}: {len(results)} iterations, {len(latencies)} requests, "
          f"{len(setups) + len(results)} set-up samples; unscaled median wall "
          f"{statistics.median(r['raw_wall_s'] for r in results):.4f} s")
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in results), "s"),
        "setup_s": (statistics.median(setups + [r["setup_s"] for r in results]), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in results) / 1024, "MB"),
        "request_p50_ms": (tracing.percentile(latencies, 50) * 1e3, "ms"),
        "request_p95_ms": (tracing.percentile(latencies, 95) * 1e3, "ms"),
    }


def per_layer(run: Run, seconds: float) -> dict:
    run.setup_probe()
    untraced = run.iteration(0, trace=False)
    # every traced iteration replays stream 0, so exact counts must repeat
    traced = repeat(seconds - untraced["wall_s"],
                    lambda i: run.iteration(0, trace=True))
    per_iter = [tracing.layer_metrics(r["spans"], r["raw_wall_s"]) for r in traced]
    values = {}
    for name in per_iter[0]:
        samples = [m[name] for m in per_iter]
        if name in tracing.EXACT:
            if len(set(samples)) > 1:
                print(f"WARNING: {name} differs between traced iterations: {samples}")
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    untraced_wall = untraced["wall_s"]
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead_s"] = traced_wall - untraced_wall

    print(f"{run.name}: 1 untraced iteration ({untraced_wall:.3f} s), "
          f"{len(traced)} traced (median {traced_wall:.3f} s), scaled")
    layers = traced[0]["spans"]["layers"]
    wall_ns = traced[0]["raw_wall_s"] * 1e9
    print("self time by span, share of the first traced iteration's wall time:")
    for span, entry in sorted(layers.items(), key=lambda kv: -kv[1]["self_ns"]):
        print(f"  {span:34s} calls {entry['calls']:>8d}  busy "
              f"{entry['busy_ns'] / wall_ns:7.2%}  self {entry['self_ns'] / wall_ns:7.2%}")
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    return {name: (values[name], units[name]) for name, _, _ in tracing.PER_LAYER}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "fibwork" / "__init__.py").is_file():
        print(f"no fibwork sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    tmp = Path(tempfile.mkdtemp(prefix=".run-", dir=HERE))
    try:
        run = Run(args.workload, args.seed, "smoke" if args.smoke else "full", tmp)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(run, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    error_rate = run.failed / run.attempted
    print(f"{args.workload}: {run.attempted} operations, {run.failed} failed "
          f"(error_rate {error_rate:.6f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
