"""The four benchmark workloads: the CLI calls each one makes, and the checks
that decide which of its operations failed.

Every workload drives ``fibwork.cli.main(argv)`` in one process, one call
after another (a closed loop with a single client), with ``--jobs 1``.  The
three sweep grids are fixed, because users run exactly those grids; the
seed drives only the request stream of ``cache-requests``.

This module is imported by the parent (to check outputs) and by the child
(to build argv lists), so it uses the standard library only and never
imports fibwork.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

NAMES = ("conjecture-grid", "tiling-oracle", "product-scan", "cache-requests")

# Full sizes are the measured ones; smoke sizes exist so the benchmark's own
# tests can run every workload in a few seconds.
SIZES = {
    "full": {
        "grid": (16, 10),          # verify-conjecture --max-sum, --square-max
        "oracle": 10,              # oracle-check --max-sum (the extended preset)
        "lab": (4, 5, 12),         # lab-scan --k-max, --r-max, --value-max
        "requests": (300, 16),     # stream length, pool bound on m + n
    },
    "smoke": {
        "grid": (6, 4),
        "oracle": 5,
        "lab": (4, 4, 4),
        "requests": (40, 8),
    },
}

ZIPF_EXPONENT = 1.0

# Record fields the reference pins; wall_time_ms and timed_out vary by run.
RECORD_FIELDS = (
    "degree", "peak_coeff", "symmetric", "unimodal", "log_concave", "checksum",
)

ORACLE_LINE = re.compile(
    r"oracle-check: (\d+) pairs and (\d+) two-row decompositions checked, "
    r"(\d+) mismatches"
)
LAB_LINE = re.compile(r"lab-scan: (\d+) product specs")


def request_pool(max_sum: int) -> list[tuple[int, int]]:
    """Every (m, n) with m, n >= 1 and m + n <= max_sum."""
    return [(m, s - m) for s in range(2, max_sum + 1) for m in range(1, s)]


def request_stream(seed: int, stream: int, size: str) -> list[tuple[int, int]]:
    """A seeded stream of (m, n) requests: every pool key once, plus Zipf repeats.

    Each key of the pool is requested once, so every stream pays the same
    misses.  The other requests are Zipf draws over a fixed popularity
    ranking, and the order is a seeded shuffle.  The seed picks the draws
    and the order; the same (seed, stream) always gives the same requests.
    Keeping the misses and the hot keys fixed keeps the cost of a stream
    nearly the same from seed to seed: a few keys cost most of the misses,
    so with a plain Zipf stream wall time moved by about 10% between seeds.
    """
    count, max_sum = SIZES[size]["requests"]
    pool = request_pool(max_sum)
    ranked = random.Random("fibwork-popularity").sample(pool, len(pool))
    weights = [1.0 / (k + 1) ** ZIPF_EXPONENT for k in range(len(ranked))]
    rng = random.Random(f"fibwork-requests/{seed}/{stream}")
    requests = pool + rng.choices(ranked, weights=weights, k=count - len(pool))
    rng.shuffle(requests)
    return requests


def argvs(name: str, seed: int, stream: int, outdir: Path, size: str) -> list[list[str]]:
    """The CLI calls one iteration of the workload makes, in order."""
    s = SIZES[size]
    if name == "conjecture-grid":
        max_sum, square_max = s["grid"]
        return [["verify-conjecture", "--max-sum", str(max_sum),
                 "--square-max", str(square_max), "--jobs", "1",
                 "--out", str(outdir / "grid.json")]]
    if name == "tiling-oracle":
        return [["oracle-check", "--max-sum", str(s["oracle"])]]
    if name == "product-scan":
        k_max, r_max, value_max = s["lab"]
        return [["lab-scan", "--k-max", str(k_max), "--r-max", str(r_max),
                 "--value-max", str(value_max), "--jobs", "1",
                 "--out", str(outdir / "findings.jsonl")]]
    if name == "cache-requests":
        return [["fibonomial", str(m), str(n),
                 "--cache-dir", str(outdir / "cache"),
                 "--out", str(outdir / f"request-{j:04d}.json")]
                for j, (m, n) in enumerate(request_stream(seed, stream, size))]
    raise ValueError(f"unknown workload {name!r}")


def coeffs_checksum(coeffs: list[str]) -> str:
    """fibwork's poly_checksum, computed from decimal-string coefficients."""
    return hashlib.sha256(",".join(coeffs).encode()).hexdigest()


def _record_matches(record: dict, expected: dict) -> bool:
    return all(record.get(k) == expected[k] for k in RECORD_FIELDS)


def check(
    name: str, reference: dict, seed: int, stream: int, outdir: Path,
    size: str, codes: list[int], stderr: str,
) -> tuple[int, int]:
    """(attempted, failed) operations of one iteration.

    An operation is a pair, a two-row decomposition, a product spec or a
    request.  It fails when its output differs from the reference or when
    the exit code of the CLI call that made it is not 0.
    """
    pairs = reference["pairs"]
    if name == "conjecture-grid":
        grid = [tuple(p) for p in reference[name][size]]
        if codes != [0]:
            return len(grid), len(grid)
        records = json.loads((outdir / "grid.json").read_text())["records"]
        got = {(r["m"], r["n"]): r for r in records}
        failed = sum(
            1 for m, n in grid
            if (m, n) not in got or not _record_matches(got[m, n], pairs[f"{m},{n}"])
        )
        return len(grid), failed + max(0, len(records) - len(grid))
    if name == "tiling-oracle":
        exp = reference[name][size]
        attempted = exp["pairs_checked"] + exp["n2_rows_checked"]
        match = ORACLE_LINE.search(stderr)
        if codes != [0] or match is None:
            return attempted, attempted
        done_pairs, done_rows, mismatches = map(int, match.groups())
        failed = (
            mismatches
            + abs(exp["pairs_checked"] - done_pairs)
            + abs(exp["n2_rows_checked"] - done_rows)
        )
        return attempted, min(attempted, failed)
    if name == "product-scan":
        exp = reference[name][size]
        attempted = exp["checked"]
        match = LAB_LINE.search(stderr)
        if codes != [0] or match is None:
            return attempted, attempted
        lines = (outdir / "findings.jsonl").read_text().splitlines()
        want = exp["findings"]
        failed = sum(
            1 for i in range(max(len(lines), len(want)))
            if i >= len(lines) or i >= len(want) or lines[i] != want[i]
        )
        failed += abs(attempted - int(match.group(1)))
        return attempted, min(attempted, failed)
    if name == "cache-requests":
        stream_pairs = request_stream(seed, stream, size)
        failed = 0
        seen = set()
        for j, (m, n) in enumerate(stream_pairs):
            expected_cached = (m, n) in seen
            seen.add((m, n))
            if j >= len(codes) or codes[j] != 0:
                failed += 1
                continue
            out = json.loads((outdir / f"request-{j:04d}.json").read_text())
            expected = pairs[f"{m},{n}"]
            ok = (
                coeffs_checksum(out["coeffs"]) == expected["checksum"]
                and _record_matches(out["record"], expected)
                and out["cached"] is expected_cached
            )
            failed += not ok
        return len(stream_pairs), failed
    raise ValueError(f"unknown workload {name!r}")
