"""Weighted square/domino tilings of a rectangle split by a lattice path.

Model
-----
A monotone lattice path runs from (0,0) to (m,n) (unit right/up steps).
Column i carries one horizontal path step at height h_i, and the heights
weakly increase left to right, so the path is encoded by the profile
(h_1, ..., h_m).  Cells are addressed by their top-right corner (i, j),
column i in 1..m, row j in 1..n (row 1 at the bottom).

Above the path, each row is a horizontal strip tiled by unit squares and
horizontal dominoes.  Below the path, each column is a vertical strip tiled
by unit squares and vertical dominoes, except that the tile immediately
below the path step of its column is REQUIRED to be a vertical domino.
That forced domino needs two cells, so a column of height exactly 1 admits
no tiling at all: valid profiles take values in {0} union {2..n}.

Weights (exponents of q; everything stays polynomial):
  * squares: 0;
  * horizontal domino with top-right corner (i, j): F_i * F_j;
  * free vertical domino with top-right corner (i, j): F_i * F_j;
  * forced vertical domino with top-right corner (i, j): F_{i+1} * F_j.

Summing q^(total weight) over all tilings of all profiles yields exactly
qfibonomial(m, n) — the independent route the oracle-check harness pits
against the algebraic construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .fib import fib
from .fibonomial import fibonomial, qfibonomial_degree
from .qpoly import Polynomial

DEFAULT_ENUMERATION_CAP = 10_000_000


class EnumerationCapExceeded(Exception):
    """Refusal to enumerate: the projected tiling count exceeds the cap."""

    def __init__(self, m: int, n: int, projected: int, cap: int):
        super().__init__(
            f"enumerating ({m},{n}) means {projected} tilings, above the cap {cap}"
        )
        self.m = m
        self.n = n
        self.projected = projected
        self.cap = cap


@lru_cache(maxsize=None)
def strip_tilings(length: int) -> tuple[tuple[int, ...], ...]:
    """All square/domino tilings of a 1 x length strip, F_{length+1} of them.

    A tiling is the ascending tuple of domino right-end positions (a domino
    at position p covers cells p-1 and p, so positions run 2..length and
    consecutive positions differ by at least 2).  Listed in lexicographic
    order of those tuples; the empty (all-squares) tiling comes first.
    """
    if length < 0:
        raise ValueError(f"negative strip length {length}")
    return _strips_from(2, length)


@lru_cache(maxsize=None)
def _strips_from(min_end: int, length: int) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = [()]
    for p in range(min_end, length + 1):
        for rest in _strips_from(p + 2, length):
            out.append((p,) + rest)
    return tuple(out)


def _strip_valid(positions: tuple[int, ...], length: int) -> bool:
    """Whether domino positions tile a 1 x length strip: each in 2..length,
    ascending, consecutive ones at least 2 apart."""
    prev = 0
    for p in positions:
        if p < 2 or p > length or p - prev < 2:
            return False
        prev = p
    return True


@dataclass(frozen=True)
class HeightProfile:
    """Weakly increasing column heights in {0} union {2..n}."""

    heights: tuple[int, ...]
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"board height n={self.n} must be >= 0")
        prev = 0
        for h in self.heights:
            if h == 1 or h < 0 or h > self.n:
                raise ValueError(
                    f"column height {h} outside {{0}} union {{2..{self.n}}}"
                )
            if h < prev:
                raise ValueError(f"heights must weakly increase: {self.heights}")
            prev = h

    @property
    def m(self) -> int:
        return len(self.heights)

    def row_prefix(self, j: int) -> int:
        """Number of above-path cells in row j (a prefix of the columns)."""
        return sum(1 for h in self.heights if h < j)


def profiles(m: int, n: int) -> Iterator[HeightProfile]:
    """All valid profiles for an m x n board, lexicographic by heights."""
    allowed = [0] + list(range(2, n + 1))

    def gen(i: int, last: int) -> Iterator[tuple[int, ...]]:
        if i == m:
            yield ()
            return
        for h in allowed:
            if h >= last:
                for rest in gen(i + 1, h):
                    yield (h,) + rest

    for hs in gen(0, 0):
        yield HeightProfile(hs, n)


@dataclass(frozen=True)
class Tiling:
    """One tiling: the profile plus the free-domino placements.

    above_rows[j-1] lists the right-end columns of the horizontal dominoes
    in row j (the row's above-path cells form a prefix of length
    profile.row_prefix(j)).  below_columns[i-1] lists the top rows of the
    free vertical dominoes in column i's below-path strip (rows 1..h_i-2;
    the forced domino at rows h_i-1, h_i is implied by the profile and not
    listed).  All tuples ascending — the canonical form, so structural
    equality is equality of tilings.
    """

    profile: HeightProfile
    above_rows: tuple[tuple[int, ...], ...]
    below_columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        pr = self.profile
        if len(self.above_rows) != pr.n or len(self.below_columns) != pr.m:
            raise ValueError("row/column list lengths do not match the board")
        for j, ends in enumerate(self.above_rows, start=1):
            if not _strip_valid(ends, pr.row_prefix(j)):
                raise ValueError(f"bad horizontal domino ends {ends} in row {j}")
        for i, tops in enumerate(self.below_columns, start=1):
            h = pr.heights[i - 1]
            if not _strip_valid(tops, h - 2 if h >= 2 else 0):
                raise ValueError(f"bad vertical domino tops {tops} in column {i}")

    @property
    def m(self) -> int:
        return self.profile.m

    @property
    def n(self) -> int:
        return self.profile.n

    def dominoes(self) -> Iterator[tuple[str, int, int]]:
        """Yield ("h"|"v"|"forced", column, row) top-right corners."""
        for j, ends in enumerate(self.above_rows, start=1):
            for p in ends:
                yield ("h", p, j)
        for i, tops in enumerate(self.below_columns, start=1):
            for p in tops:
                yield ("v", i, p)
        for i, h in enumerate(self.profile.heights, start=1):
            if h >= 2:
                yield ("forced", i, h)


def weight_degree(t: Tiling) -> int:
    """Total weight of a tiling: the exponent it contributes to the sum."""
    d = 0
    for kind, i, j in t.dominoes():
        if kind == "forced":
            d += fib(i + 1) * fib(j)
        else:
            d += fib(i) * fib(j)
    return d


def tiling_count(m: int, n: int) -> int:
    """Number of tilings of the m x n board (the integer Fibonomial)."""
    return fibonomial(m, n)


def _refuse_over_cap(m: int, n: int, cap: int) -> None:
    if m < 0 or n < 0:
        raise ValueError(f"board sides must be >= 0, got ({m}, {n})")
    projected = tiling_count(m, n)
    if projected > cap:
        raise EnumerationCapExceeded(m, n, projected, cap)


def enumerate_tilings(
    m: int, n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Tiling]:
    """All tilings, deterministically ordered.

    Profiles come in lexicographic height order; within a profile the free
    choices run through itertools.product over (row 1..n strips, then
    column 1..m strips), each strip's alternatives in lexicographic order
    of domino-position tuples.  Refuses upfront (EnumerationCapExceeded)
    when the projected count exceeds the cap.
    """
    _refuse_over_cap(m, n, cap)
    for pr in profiles(m, n):
        row_lists = [strip_tilings(pr.row_prefix(j)) for j in range(1, n + 1)]
        col_lists = [
            strip_tilings(h - 2) if h >= 2 else ((),) for h in pr.heights
        ]
        for combo in itertools.product(*row_lists, *col_lists):
            yield Tiling(pr, tuple(combo[:n]), tuple(combo[n:]))


def tiling_polynomial(
    m: int, n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Polynomial:
    """Sum of q^weight over every tiling — the combinatorial route.

    Goes through the same profiles and strip alternatives as
    enumerate_tilings, and refuses over the cap the same way, but builds no
    Tiling: a tiling's weight is the sum of its strips' weights plus the
    forced dominoes of its profile.  So for each profile it lists every
    strip alternative's weight once (row j: F_j times the sum of F_p over
    its domino ends; column i: F_i times the sum of F_p over its domino
    tops), checking each alternative as Tiling does, then visits every
    tiling as one combination of those weights.

    Matches qfibonomial(m, n) coefficient for coefficient; the harness's
    oracle-check exists to confirm exactly that on exhaustive ranges.
    """
    _refuse_over_cap(m, n, cap)
    counts = [0] * (qfibonomial_degree(m, n) + 1)
    for pr in profiles(m, n):
        forced = 0
        weight_lists = [_strip_weights(fib(j), pr.row_prefix(j)) for j in range(1, n + 1)]
        for i, h in enumerate(pr.heights, start=1):
            if h >= 2:
                forced += fib(i + 1) * fib(h)
                weight_lists.append(_strip_weights(fib(i), h - 2))
        for combo in itertools.product(*weight_lists):
            counts[forced + sum(combo)] += 1
    return Polynomial(counts)


def _strip_weights(scale: int, length: int) -> list[int]:
    """scale * sum(F_p) over the domino positions of each strip_tilings(length)."""
    weights = []
    for positions in strip_tilings(length):
        if not _strip_valid(positions, length):
            raise ValueError(f"bad domino positions {positions} in a strip of {length}")
        weights.append(scale * sum(fib(p) for p in positions))
    return weights
