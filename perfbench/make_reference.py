"""Write reference.json, the frozen outputs every benchmark run is checked against.

    python3 perfbench/make_reference.py

Run once, at the commit whose outputs define "correct"; later commits are
checked against the file it wrote and must not regenerate it to pass.  It
holds, for both sizes of every workload:

* the shape record (degree, peak coefficient, symmetry, unimodality,
  log-concavity, poly_checksum) of every (m, n) in the conjecture grid and
  in the cache-requests pool;
* the expected oracle-check counts;
* the expected lab-scan findings lines, in order.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.dont_write_bytecode = True

from fibwork.products import scan_products  # noqa: E402
from fibwork.sweeps import analyze_pair, conjecture_pairs, oracle_check  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=HERE, capture_output=True,
        text=True,
    ).stdout.strip()
    ref = {"generated_at_commit": commit or "unknown", "pairs": {}}
    for key in ("conjecture-grid", "tiling-oracle", "product-scan"):
        ref[key] = {}
    pairs = set()
    for size, s in workloads.SIZES.items():
        grid = conjecture_pairs(*s["grid"])
        ref["conjecture-grid"][size] = [list(p) for p in grid]
        pairs.update(grid)
        pairs.update(workloads.request_pool(s["requests"][1]))

        oracle = oracle_check(max_sum=s["oracle"])
        ref["tiling-oracle"][size] = {
            "pairs_checked": oracle.pairs_checked,
            "n2_rows_checked": oracle.n2_rows_checked,
            "mismatches": len(oracle.mismatches),
        }

        scan = scan_products(*s["lab"])
        ref["product-scan"][size] = {
            "checked": scan.checked,
            "findings": [f.to_json_line() for f in scan.findings],
        }
    for m, n in sorted(pairs):
        record = analyze_pair((m, n, None)).to_dict()
        ref["pairs"][f"{m},{n}"] = {k: record[k] for k in workloads.RECORD_FIELDS}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
