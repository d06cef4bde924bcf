"""Unimodality of products of q-analogs.

The objects here are products [a_1]_q [a_2]_q ... [a_k]_q [b]_{q^r}: a list
of plain q-analog factors and one factor evaluated at q^r.  Such products
are always palindromic; whether they are unimodal is governed by exact
criteria for small shapes and by a scanned predicate in general:

  * two factors, one scaled: [a]_q [b]_{q^r} is unimodal
    iff a >= r*(b-1) or r divides a;
  * three factors [a]_q [b]_q [c]_{q^2}: symmetric and unimodal
    iff 2c <= a+b, or a or b is even;
  * general predicate (sufficient, conjecturally):
    r divides some a_i, or b <= 1 + sum over i of floor(a_i / r).
    Necessity fails in general, and it is quoted as conjectured for
    k <= 3 or r <= 3, but [2]_q^6 [b]_{q^3} is unimodal for b = 2 and 3
    while the predicate rejects it (k = 6, r = 3).  The paper's abstract
    does not state the conjecture, so either that region is misquoted or
    this is a counterexample to the r <= 3 half.  The box k <= 3,
    r <= 20, values <= 40 (9,378,400 specs) holds no necessity finding.

scan_products sweeps a parameter box, compares the predicate against the
actual coefficient check, and reports violations in both directions.  It
decides every base b of a (combination, r) from one series, without
building any product P [b]_{q^r}, where P = [a_1]_q ... [a_k]_q has n
coefficients.  Since [r]_q [b]_{q^r} = [br]_q, with F = P / [r]_q,

    P [b]_{q^r} = F [br]_q,

so the coefficient differences of the product are F[i] - F[i - br], F
read as 0 below index 0.  The product is a palindrome, so it is unimodal
exactly when these are >= 0 for 1 <= i <= h = (n + br - r) // 2: for
i >= br that is one comparison of F with itself shifted by br, and for
i < br it is F[i] >= 0, read off the first negative index `neg` of F.

F = (1 - q) P / (1 - q^r) is a strided prefix sum of d = (1 - q) P, which
has n + 1 coefficients.  Past index n, d is 0, so F[i] = F[i - r] there:
F is built to index n only, and if it has no negative entry up to n it
has none at all.  The bases split at head = min(value_max, n // r - 1),
the largest b with br <= h:

  * for b <= head the shifted comparison runs; it reads F[0..n - r];
  * for b > head there is nothing to compare, so the product is unimodal
    iff neg > h, which holds iff b <= ceil((2 neg - n) / r), for every b
    when F has no negative entry.  These findings are the b between that
    bound and the predicate's largest accepted base, emitted without a
    loop over the other bases.

An observation of this code, not a statement of the paper: in every box
tried the shifted comparison never decided a base, that is, P [b]_{q^r}
was unimodal exactly when F had no negative coefficient at degree <= h.
Only "unimodal => F[0..h] >= 0" is proved (F[i] >= F[i - br] >= ... >=
F[i mod br] >= 0), so the scan still makes the comparison; a test checks
the observation on a small box.

The box splits into one block per (k, least factor) that covers every r,
so each k-combination's d is built once per scan, by one cancel_step on
its prefix's, starting from 1 - q^least.  The predicate is evaluated once
per (combination, r) as the largest b it accepts, and a ProductSpec is
built only for a finding.  The extended box (k <= 5, r <= 6,
values <= 15: 1,162,725 specs) takes 1.2-2.0 s through the CLI on one
core of a 2-CPU VM with a 22 MB peak, and 0.8-1.2 s at --jobs 2, which
maps the same blocks over a process pool; the box k <= 3, r <= 20,
values <= 40 takes 2.3-2.6 s at --jobs 2.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import accumulate, compress, count, repeat
from typing import Iterator

from .qpoly import ONE, Polynomial, cancel_step, mul_q_analog

SUFFICIENCY_VIOLATION = "SUFFICIENCY_VIOLATION"
NECESSITY_VIOLATION = "NECESSITY_VIOLATION"


@dataclass(frozen=True)
class ProductSpec:
    """[a]_q factors (ascending) times one [base]_{q^stride} factor."""

    plain_factors: tuple[int, ...]
    base: int
    stride: int

    def __post_init__(self):
        if any(a < 1 for a in self.plain_factors):
            raise ValueError(f"factors must be >= 1: {self.plain_factors}")
        if self.base < 1 or self.stride < 1:
            raise ValueError(f"base and stride must be >= 1: {self}")

    def polynomial(self) -> Polynomial:
        p = ONE
        for a in self.plain_factors:
            p = mul_q_analog(p, a)
        return mul_q_analog(p, self.base, self.stride)


def pair_product_coeffs(a: int, b: int) -> Polynomial:
    """[a]_q [b]_q by its closed form: c_k = min(k+1, a, b, a+b-1-k).

    Rises by ones, holds a plateau at min(a, b), mirrors back down.
    """
    if a < 1 or b < 1:
        raise ValueError(f"pair_product_coeffs needs a, b >= 1, got ({a}, {b})")
    return Polynomial(min(k + 1, a, b, a + b - 1 - k) for k in range(a + b - 1))


def scaled_pair_unimodal(a: int, b: int, r: int) -> bool:
    """Exact criterion: [a]_q [b]_{q^r} is unimodal iff a >= r(b-1) or r | a."""
    if a < 1 or b < 1 or r < 1:
        raise ValueError(f"need a, b, r >= 1, got ({a}, {b}, {r})")
    return a >= r * (b - 1) or a % r == 0


def triple_product_unimodal(a: int, b: int, c: int) -> bool:
    """Exact criterion: [a]_q [b]_q [c]_{q^2} is symmetric and unimodal
    iff 2c <= a + b or a or b is even."""
    if a < 1 or b < 1 or c < 1:
        raise ValueError(f"need a, b, c >= 1, got ({a}, {b}, {c})")
    return 2 * c <= a + b or a % 2 == 0 or b % 2 == 0


def gain_count(k: int, a: int, c: int) -> int:
    """Number of shifts l in [0, c-1] with (k-a+2)/2 <= l <= (k+1)/2.

    For odd a <= b, writing T = [a]_q [b]_q [c]_{q^2} as a sum over l of
    shifted copies q^{2l} [a]_q [b]_q, this counts the copies whose rising
    edge contributes +1 to T's coefficient difference c_{k+1} - c_k.  All
    arithmetic stays on doubled integers — no floats.
    """
    lo = max(0, (k - a + 2 + 1) // 2)  # ceil((k-a+2)/2), floor-div safe for <0
    hi = min(c - 1, (k + 1) // 2)
    return max(0, hi - lo + 1)


def loss_count(k: int, a: int, b: int, c: int) -> int:
    """Number of shifts l in [0, c-1] with (k-a-b+2)/2 <= l <= (k-b+1)/2.

    The copies whose falling edge contributes -1 to c_{k+1} - c_k; with
    gain_count this gives c_{k+1} - c_k = gain_count - loss_count for odd
    a <= b (tested exhaustively on that range).
    """
    lo = max(0, (k - a - b + 2 + 1) // 2)
    hi = min(c - 1, (k - b + 1) // 2)
    return max(0, hi - lo + 1)


def _largest_accepted_base(factors: tuple[int, ...], r: int) -> float:
    """The largest b the predicate accepts for [a_1]_q ... [a_k]_q [b]_{q^r}:
    unbounded (inf) when r divides some a_i, else 1 + sum floor(a_i / r)."""
    if not all(map(operator.mod, factors, repeat(r))):
        return math.inf
    return 1 + sum(map(operator.floordiv, factors, repeat(r)))


def product_unimodal_predicate(spec: ProductSpec) -> bool:
    """r | a_i for some i, or base <= 1 + sum floor(a_i / r)."""
    return spec.base <= _largest_accepted_base(spec.plain_factors, spec.stride)


@dataclass(frozen=True)
class ScanFinding:
    kind: str
    spec: ProductSpec
    unimodal: bool
    predicate: bool

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "a": list(self.spec.plain_factors),
                "b": self.spec.base,
                "r": self.spec.stride,
                "unimodal": self.unimodal,
                "predicate": self.predicate,
            },
            sort_keys=True,
        )


@dataclass
class ScanReport:
    checked: int
    findings: list[ScanFinding]

    @property
    def sufficiency_violations(self) -> list[ScanFinding]:
        return [f for f in self.findings if f.kind == SUFFICIENCY_VIOLATION]

    @property
    def necessity_violations(self) -> list[ScanFinding]:
        return [f for f in self.findings if f.kind == NECESSITY_VIOLATION]


def _combination_products(
    k: int, least: int, value_max: int
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """(combo, coefficient list of (1 - q) [a_1]_q ... [a_k]_q) for every
    ascending k-combination of 1..value_max whose least factor is `least`,
    in itertools.combinations_with_replacement order; each is one
    cancel_step, times [a]_q = (1 - q^a) / (1 - q), on a copy of its
    prefix's."""

    def walk(prefix, d, low):
        if len(prefix) == k:
            yield prefix, d
            return
        for a in range(low, value_max + 1):
            yield from walk(prefix + (a,), cancel_step(d[:], a, 1), a)

    return walk((least,), [1] + [0] * (least - 1) + [-1], least)


def _first_negative(f: list[int]) -> int:
    """Index of the first negative entry of f, or len(f) if there is none."""
    return next(compress(count(), map(operator.gt, repeat(0), f)), len(f))


def _scan_block(
    block: tuple[int, int, int, int]
) -> tuple[int, list[list[ScanFinding]]]:
    """Scan every spec with k plain factors, the least of them `least`, at
    each stride r = 2..r_max; returns the number of specs checked and, for
    each r in turn, the findings in scan order."""
    k, least, r_max, value_max = block
    ge = operator.ge
    strides = range(2, r_max + 1)
    found = [[] for _ in strides]
    checked = 0
    for combo, d in _combination_products(k, least, value_max):
        n = len(d) - 1
        for r, out in zip(strides, found):
            top = _largest_accepted_base(combo, r)
            # F = (1 - q) P / (1 - q^r) to index n; past n it is r-periodic
            f = d[:]
            for j in range(r):
                f[j::r] = accumulate(f[j::r])
            neg = _first_negative(f)
            # the bases with b r <= h: F[i] >= 0 below b r, then the
            # shifted comparison F[i] >= F[i - b r] up to the middle h
            head = min(value_max, n // r - 1)
            for b in range(1, head + 1):
                br = b * r
                h = (n + br - r) // 2
                uni = neg >= br and all(map(ge, f[br : h + 1], f))
                pred = b <= top
                if uni != pred:
                    kind = SUFFICIENCY_VIOLATION if pred else NECESSITY_VIOLATION
                    out.append(ScanFinding(kind, ProductSpec(combo, b, r), uni, pred))
            # past head the product is unimodal iff neg > h, that is iff
            # b <= ceil((2 neg - n) / r), and for every b if F has no negative
            bound = -((n - 2 * neg) // r) if neg <= n else math.inf
            for b in range(
                max(head, min(bound, top, value_max)) + 1,
                min(value_max, max(bound, top)) + 1,
            ):
                pred = b <= top
                kind = SUFFICIENCY_VIOLATION if pred else NECESSITY_VIOLATION
                out.append(ScanFinding(kind, ProductSpec(combo, b, r), not pred, pred))
        checked += value_max * len(strides)
    return checked, found


def scan_products(
    k_max: int, r_max: int, value_max: int, jobs: int = 1
) -> ScanReport:
    """Compare predicate vs. actual unimodality over the whole box
    1 <= a_i, b <= value_max, 1 <= k <= k_max, 2 <= r <= r_max.

    The box splits into one block per (k, least factor), each covering
    every r; with jobs > 1 a process pool maps the same blocks.  Findings
    come back in deterministic (k, r, combination, b) scan order
    regardless of jobs.
    """
    blocks = [
        (k, least, r_max, value_max)
        for k in range(1, k_max + 1)
        for least in range(1, value_max + 1)
    ]
    if jobs > 1:
        # the pool's modules take tens of ms to import: only --jobs > 1 pays
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_scan_block, blocks))
    else:
        parts = list(map(_scan_block, blocks))
    # the blocks of one k are consecutive and ordered by least factor,
    # which is combination order within each r
    findings = [
        f
        for k in range(k_max)
        for i in range(r_max - 1)
        for _, per_r in parts[k * value_max : (k + 1) * value_max]
        for f in per_r[i]
    ]
    return ScanReport(checked=sum(n for n, _ in parts), findings=findings)
