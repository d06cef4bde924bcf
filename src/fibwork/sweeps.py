"""Sweep drivers: conjecture verification, oracle cross-checks, q-FiboCatalan.

Each driver walks a deterministic parameter grid and returns plain record
objects; the CLI layer turns those into JSON/CSV files and exit codes.
Workers are module-level functions so process pools can pick them up, and
parallel output is summary-identical to sequential output once sorted by
key (wall times excepted, naturally).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .chains import decompose
from .fib import fib
from .fibonomial import (
    _fibocatalan_quotient,
    _telescoped_quotient,
    capped_size,
    closed_form_n2,
    qfibonomial,
)
from .qpoly import (
    NotDivisibleError,
    Polynomial,
    is_log_concave,
    is_symmetric,
    is_unimodal,
)
from .tilings import DEFAULT_ENUMERATION_CAP, _refuse_over_cap, tiling_polynomial

CSV_COLUMNS = (
    "m",
    "n",
    "degree",
    "peak_coeff",
    "symmetric",
    "unimodal",
    "log_concave",
    "ms",
)


# coefficients per hashed chunk: bounds the decimal text held at once
CHECKSUM_CHUNK = 65_536


def poly_checksum(p: Polynomial) -> str:
    """SHA-256 of the comma-joined decimal coefficients, fed in chunks."""
    h = hashlib.sha256()
    c = p.coeffs
    for start in range(0, len(c), CHECKSUM_CHUNK):
        if start:
            h.update(b",")
        h.update(",".join([str(x) for x in c[start:start + CHECKSUM_CHUNK]]).encode())
    return h.hexdigest()


@dataclass
class SweepRecord:
    m: int
    n: int
    degree: int
    peak_coeff: str  # decimal string; these overflow doubles quickly
    symmetric: bool
    unimodal: bool
    log_concave: bool
    wall_time_ms: int
    checksum: str
    timed_out: bool = False

    # vars, not dataclasses.astuple/asdict: those deep-copy every field
    def csv_row(self) -> list:
        return list(vars(self).values())[: len(CSV_COLUMNS)]

    def to_dict(self) -> dict:
        return dict(vars(self))


# the record fields that describe a polynomial's coefficients
SHAPE_FIELDS = ("degree", "peak_coeff", "symmetric", "unimodal", "log_concave")


def shape_fields(p: Polynomial) -> dict:
    """The SHAPE_FIELDS of a record for p, by name."""
    unimodal, _ = is_unimodal(p)
    return dict(
        degree=p.degree if not p.is_zero() else 0,
        peak_coeff=str(max(p.coeffs)),
        symmetric=is_symmetric(p),
        unimodal=unimodal,
        log_concave=is_log_concave(p),
    )


def shape_record(
    m: int, n: int, p: Polynomial, t0: float, soft_ms: Optional[int] = None
) -> SweepRecord:
    """Shape report for p = qfibonomial(m, n); wall time counts from t0."""
    shape = shape_fields(p)
    ms = int((time.perf_counter() - t0) * 1000)
    return SweepRecord(
        m=m,
        n=n,
        **shape,
        wall_time_ms=ms,
        checksum=poly_checksum(p),
        timed_out=(soft_ms is not None and ms > soft_ms),
    )


def analyze_pair(args: tuple) -> SweepRecord:
    """Worker: full shape report for one (m, n)."""
    m, n, soft_ms = args
    t0 = time.perf_counter()
    return shape_record(m, n, qfibonomial(m, n), t0, soft_ms)


def _grid(max_sum: int, square_max: int = 0) -> Iterator[tuple[int, int]]:
    """All m, n >= 1 with m+n <= max_sum by increasing sum, then the squares
    up to square_max beyond them ((s, s) is among them when 2s <= max_sum)."""
    for s in range(2, max_sum + 1):
        yield from ((m, s - m) for m in range(1, s))
    for s in range(max_sum // 2 + 1, square_max + 1):
        yield s, s


def conjecture_pairs(max_sum: int, square_max: int) -> list[tuple[int, int]]:
    """Grid: all m, n >= 1 with m+n <= max_sum, plus squares up to square_max."""
    return list(_grid(max_sum, square_max))


def _keys(pairs) -> list[tuple[int, int]]:
    """The distinct (max(m, n), min(m, n)) of pairs, in first-seen order."""
    return list(dict.fromkeys((max(m, n), min(m, n)) for m, n in pairs))


def _mirrored(pairs, built: list) -> list:
    """One record per pair, in order, from the records built for _keys(pairs):
    a pair's own record, or its key's with m and n swapped."""
    by_key = {(r.m, r.n): r for r in built}
    out = []
    for m, n in pairs:
        r = by_key[max(m, n), min(m, n)]
        out.append(r if (r.m, r.n) == (m, n) else dataclasses.replace(r, m=m, n=n))
    return out


@dataclass
class VerifyReport:
    records: list[SweepRecord]
    failures: list[SweepRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_conjecture(
    max_sum: int = 14,
    square_max: int = 8,
    jobs: int = 1,
    soft_ms: Optional[int] = None,
) -> VerifyReport:
    """Symmetry + unimodality across the grid; failures are headline events.

    Log-concavity is recorded as data, never asserted — it genuinely fails
    (first at (3, 3)).

    qfibonomial(m, n) == qfibonomial(n, m), so each key (max(m, n),
    min(m, n)) is built and checked once, in first-seen order (at
    jobs > 1 only those keys go to the pool), and the record of the other
    order is a copy with m and n swapped.  Records keep the grid's order
    and count; a mirrored record carries the wall time of the build it
    shares.
    """
    # sizes grow with each side: an over-cap range stops this early, however large
    for m, n in _grid(max_sum, square_max):
        capped_size(m, n)
    pairs = conjecture_pairs(max_sum, square_max)
    work = [(m, n, soft_ms) for m, n in _keys(pairs)]
    if jobs <= 1:
        built = [analyze_pair(w) for w in work]
    else:
        # the pool's modules take tens of ms to import: only --jobs > 1 pays
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            built = list(pool.map(analyze_pair, work))
    records = _mirrored(pairs, built)
    failures = [r for r in records if not (r.symmetric and r.unimodal)]
    return VerifyReport(records=records, failures=failures)


@dataclass
class OracleMismatch:
    m: int
    n: int
    what: str
    first_diff_exponent: int
    expected: str
    actual: str


@dataclass
class OracleReport:
    pairs_checked: int
    n2_rows_checked: int
    mismatches: list[OracleMismatch]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _first_diff(a: Polynomial, b: Polynomial) -> int:
    for i in range(max(len(a.coeffs), len(b.coeffs))):
        if a[i] != b[i]:
            return i
    return -1


def oracle_check(max_sum: int = 8) -> OracleReport:
    """Tiling sum vs. algebraic construction, coefficient for coefficient,
    on every pair with m + n <= max_sum; additionally the two-row chain
    reconstruction vs. the closed form for m = 1..max_sum - 2.

    The tiling sum visits no tiling, but the chain walk visits all of
    T(m, 2).  So the range is refused before any pair when a walk would
    enumerate a board over the enumeration cap (first at (17, 2), so
    max_sum >= 19 is refused).
    """
    for m in range(1, max_sum - 1):
        _refuse_over_cap(m, 2, DEFAULT_ENUMERATION_CAP)
    mismatches = []
    pairs = [
        (m, s - m) for s in range(0, max_sum + 1) for m in range(0, s + 1)
    ]
    for m, n in pairs:
        combinatorial = tiling_polynomial(m, n)
        algebraic = qfibonomial(m, n)
        if combinatorial != algebraic:
            i = _first_diff(combinatorial, algebraic)
            mismatches.append(
                OracleMismatch(
                    m, n, "tilings-vs-qfibonomial", i,
                    str(algebraic[i]), str(combinatorial[i]),
                )
            )
    n2_rows = 0
    for m in range(1, max_sum - 1):
        blocks = decompose(m)
        counts = [0] * (fib(m + 3) - 1)
        for b in blocks:
            for d in range(b.min_degree, b.max_degree + 1):
                counts[d] += 1
        rebuilt = Polynomial(counts)
        expected = closed_form_n2(m)
        n2_rows += 1
        if rebuilt != expected:
            i = _first_diff(rebuilt, expected)
            mismatches.append(
                OracleMismatch(
                    m, 2, "chains-vs-closed-form", i,
                    str(expected[i]), str(rebuilt[i]),
                )
            )
    return OracleReport(
        pairs_checked=len(pairs), n2_rows_checked=n2_rows, mismatches=mismatches
    )


@dataclass
class FibocatRow:
    m: int
    n: int
    gcd: int
    divisible: bool
    unimodal: bool
    nonneg: Optional[bool]
    telescoping_match: Optional[bool]
    ms: int


FIBOCAT_CSV_COLUMNS = (
    "m", "n", "gcd", "divisible", "unimodal", "nonneg", "telescoping_match", "ms",
)


@dataclass
class FibocatReport:
    rows: list[FibocatRow]
    violations: list[FibocatRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def fibocatalan_sweep(max_sum: int = 12) -> FibocatReport:
    """qfibonomial(m, n) / [F_{m+n}]_q across the grid.

    Expectation asserted: gcd(m, n) in {1, 2} implies exact division, and —
    wherever the parent polynomial's unimodality check passes — nonnegative
    quotient coefficients and agreement with the telescoping form.  Outside
    gcd in {1, 2}, non-divisibility is recorded as a legitimate outcome.

    As in verify_conjecture, each key (max(m, n), min(m, n)) is computed
    once and the other order's row is a copy with m and n swapped, carrying
    the same ms.
    """
    for m, n in _grid(max_sum):
        capped_size(m, n)  # the whole range, before the first pair
    pairs = list(_grid(max_sum))
    rows = _mirrored(pairs, [_fibocatalan_row(m, n) for m, n in _keys(pairs)])
    violations = [
        row for row in rows
        if row.gcd in (1, 2) and (
            not row.divisible
            or row.telescoping_match is False
            or (row.unimodal and row.nonneg is False)
        )
    ]
    return FibocatReport(rows=rows, violations=violations)


def _fibocatalan_row(m: int, n: int) -> FibocatRow:
    t0 = time.perf_counter()
    g = math.gcd(m, n)
    parent = qfibonomial(m, n)
    F = fib(m + n)
    parent_unimodal, _ = is_unimodal(parent)
    try:
        quo = _fibocatalan_quotient(parent.coeffs, F)
        divisible = True
        nonneg = all(c >= 0 for c in quo.coeffs)
        if g in (1, 2):
            tele = _telescoped_quotient(parent.coeffs, F)
            telescoping_match = tele == quo
        else:
            telescoping_match = None
    except NotDivisibleError:
        divisible = False
        nonneg = None
        telescoping_match = None
    ms = int((time.perf_counter() - t0) * 1000)
    return FibocatRow(m, n, g, divisible, parent_unimodal, nonneg, telescoping_match, ms)
