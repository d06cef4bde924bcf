"""Content-addressed on-disk cache for computed polynomials.

One JSON file per entry under the cache directory; the filename is the
SHA-256 of the canonical (op, params) key, so identical queries land on
identical paths and a re-read must be bit-identical to what was stored.
Coefficients are stored as decimal strings (they routinely exceed 2^53, so
they never pass through floats or native JSON numbers), with the SHA-256 of
those strings joined by commas, the same digest as sweeps.poly_checksum.
put takes the strings and get hands back the stored ones once they match
that digest and are spelled as str() spells an int, so a caller formats
each coefficient at most once and a hit formats none.  Both leave that
digest in last_checksum.  An entry may also hold a shape: facts about the
polynomial that the caller computed once (a dict of JSON values), under a
digest of its own that also covers the coefficient digest.  A hit leaves
it in last_shape, so a caller need not recompute it.  A damaged or
mismatched entry reads as a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

ENV_VAR = "FIBWORK_CACHE"
DEFAULT_DIR = ".fibwork-cache"
FORMAT_VERSION = 2


def resolve_cache_dir(cli_value: Optional[str] = None) -> Path:
    """FIBWORK_CACHE env var wins, then the CLI flag, then the default."""
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    if cli_value:
        return Path(cli_value)
    return Path(DEFAULT_DIR)


# what str() never writes in a comma-joined list of ints once a comma is put
# at each end: an empty element, a leading zero, and a "-" that is not first
# in its element or not followed by 1-9 ("-0" included)
_EMPTY_OR_LEADING_ZERO = re.compile(rb",(?:,|0[0-9])")
_MISPLACED_MINUS = re.compile(rb"-(?:[^1-9]|(?<=[^,]-))")


def _spelled_as_str(data: bytes) -> bool:
    """Whether data is comma-joined ints as str() spells them: ASCII digits,
    no sign on 0, no "+", no leading zero, padding or "_".

    Searches for a fault instead of matching one pattern repeated per
    element: without the possessive quantifiers of Python 3.11, such a
    pattern keeps backtracking state for every element (about 240 B each).
    """
    framed = b"".join((b",", data, b","))
    return not (
        data.translate(None, b"0123456789,-")
        or _EMPTY_OR_LEADING_ZERO.search(framed)
        or _MISPLACED_MINUS.search(framed)
    )


def cache_key(op: str, params: dict) -> str:
    return hashlib.sha256(_canonical({"op": op, "params": params})).hexdigest()


def _canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _shape_checksum(checksum: str, shape) -> str:
    """Digest of a shape together with the coefficient digest it belongs to."""
    return hashlib.sha256(_canonical([checksum, shape])).hexdigest()


class PolyCache:
    def __init__(self, root: Path):
        self.root = Path(root)
        # checksum of the coefficients the last hit returned or put stored
        self.last_checksum: Optional[str] = None
        # shape stored beside the coefficients the last hit returned
        self.last_shape = None

    def path_for(self, op: str, params: dict) -> Path:
        return self.root / (cache_key(op, params) + ".json")

    def get(self, op: str, params: dict) -> Optional[list[str]]:
        """The stored decimal-string coefficients, or None on a miss.

        An entry that is missing, is not valid JSON, lacks a field, names
        another format version, op or params, whose coefficients are not a
        non-empty list of strings spelled as str() spells an int and
        matching its checksum, or whose shape does not match its shape
        checksum is a miss too; the caller's next put rewrites it.  On a
        hit, last_checksum is the verified checksum and last_shape the
        stored shape.
        """
        try:
            with open(self.path_for(op, params)) as fh:
                entry = json.load(fh)
            coeffs = entry["coeffs"]
            if (
                (entry["version"], entry["op"], entry["params"])
                != (FORMAT_VERSION, op, params)
                or type(coeffs) is not list
            ):
                return None
            data = ",".join(coeffs).encode()
            # a string holding a comma would join into the same bytes
            if not _spelled_as_str(data) or data.count(b",") != len(coeffs) - 1:
                return None
            checksum = hashlib.sha256(data).hexdigest()
            shape = entry["shape"]
            if (entry["checksum"], entry["shape_checksum"]) != (
                checksum, _shape_checksum(checksum, shape)
            ):
                return None
        except (FileNotFoundError, ValueError, KeyError, TypeError):
            return None
        self.last_checksum = checksum
        self.last_shape = shape
        return coeffs

    def put(self, op: str, params: dict, coeffs: list[str], shape=None) -> Path:
        """Store decimal-string coefficients and their shape; returns the
        entry's path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(op, params)
        checksum = hashlib.sha256(",".join(coeffs).encode()).hexdigest()
        entry = {
            "version": FORMAT_VERSION,
            "op": op,
            "params": params,
            "coeffs": coeffs,
            "checksum": checksum,
            "shape": shape,
            "shape_checksum": _shape_checksum(checksum, shape),
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
        self.last_checksum = checksum
        return path
