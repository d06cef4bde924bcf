"""Content-addressed on-disk cache for computed polynomials.

One JSON file per entry under the cache directory; the filename is the
SHA-256 of the canonical (op, params) key, so identical queries land on
identical paths and a re-read must be bit-identical to what was stored.
Coefficients are stored in Polynomial's JSON form (decimal strings — they
routinely exceed 2^53, so they never pass through floats or native JSON
numbers), with the SHA-256 of those strings joined by commas, the same
digest as sweeps.poly_checksum.  A damaged or mismatched entry reads as a
miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from .qpoly import Polynomial

ENV_VAR = "FIBWORK_CACHE"
DEFAULT_DIR = ".fibwork-cache"
FORMAT_VERSION = 1


def resolve_cache_dir(cli_value: Optional[str] = None) -> Path:
    """FIBWORK_CACHE env var wins, then the CLI flag, then the default."""
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    if cli_value:
        return Path(cli_value)
    return Path(DEFAULT_DIR)


def _coeffs_digest(coeffs: list[str]) -> str:
    """SHA-256 of decimal-string coefficients joined by commas."""
    return hashlib.sha256(",".join(coeffs).encode()).hexdigest()


def cache_key(op: str, params: dict) -> str:
    canon = json.dumps({"op": op, "params": params}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


class PolyCache:
    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, op: str, params: dict) -> Path:
        return self.root / (cache_key(op, params) + ".json")

    def get(self, op: str, params: dict) -> Optional[Polynomial]:
        """The stored polynomial, or None on a miss.

        An entry that is not valid JSON, lacks a field, names another
        format version, op or params, or whose coefficients do not match
        its checksum is a miss too; the caller's next put rewrites it.
        """
        path = self.path_for(op, params)
        if not path.exists():
            return None
        try:
            with open(path) as fh:
                entry = json.load(fh)
            if (entry["version"], entry["op"], entry["params"]) != (
                FORMAT_VERSION, op, params
            ) or entry["checksum"] != _coeffs_digest(entry["coeffs"]):
                return None
            return Polynomial.from_json_dict(entry)
        except (ValueError, KeyError, TypeError):
            return None

    def put(self, op: str, params: dict, poly: Polynomial) -> Path:
        path = self.path_for(op, params)
        coeffs = poly.to_json_dict()["coeffs"]
        entry = {
            "version": FORMAT_VERSION,
            "op": op,
            "params": params,
            "coeffs": coeffs,
            "checksum": _coeffs_digest(coeffs),
            "created": datetime.now(timezone.utc).isoformat(),
        }
        # atomic publish: never leave a half-written entry at the final path
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                # dumps takes the C encoder; dump always iterates in Python
                fh.write(json.dumps(entry))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path
