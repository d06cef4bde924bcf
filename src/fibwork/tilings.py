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

The weights factor along the path, so tiling_polynomial computes that sum
column by column over the path's height instead of visiting each tiling.
Every strip, listed or summed, follows the model's own recursion: it ends
in a square or in a domino at its last position.  The sum shares no
q-analog arithmetic with the algebraic route, and it takes no cap.
enumerate_tilings and weight_degree build every tiling as an object; the
tests check the sum against their histogram.  Only enumeration (here and in
chains.decompose) visits tilings, so only it refuses a board whose tiling
count is over the enumeration cap.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Iterator

from .fib import fib
from .fibonomial import fibonomial
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
    consecutive positions differ by at least 2).  The strip ends in a square
    (a tiling of length - 1) or in a domino at position length (a tiling of
    length - 2, extended).  Listed in lexicographic order of those tuples;
    the empty (all-squares) tiling comes first.
    """
    if length < 0:
        raise ValueError(f"negative strip length {length}")
    if length < 2:
        return ((),)
    ending_in_domino = (s + (length,) for s in strip_tilings(length - 2))
    return tuple(sorted((*strip_tilings(length - 1), *ending_in_domino)))


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
        return bisect_left(self.heights, j)  # the heights are ascending


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


def tiling_polynomial(m: int, n: int) -> Polynomial:
    """Sum of q^weight over every tiling — the combinatorial route.

    A tiling's weight is the sum of its strips' weights plus its forced
    dominoes, and row j's strip is as long as its above-path prefix, so the
    sum is a transfer over the columns.  After columns 1..i, state[h] is
    the coefficient list of the partial boards whose path stands at height
    h with every row up to h closed.  The path then climbs: each row j it
    passes has prefix length i and multiplies by the weight sum of a strip
    of i cells, a domino at position p weighing F_j * F_p.  Column i + 1 at
    height h >= 2 multiplies by its forced domino q^(F_{i+2} F_h) and by its
    free strip of h - 2 cells, scaled by F_{i+1}; height 0 multiplies by 1
    and height 1 holds nothing.  After column m the climb to height n
    closes the board.  Each strip product splits the strip by its last tile
    (a square, or a domino at its end), so a board costs O(mn) strip
    products of at most m + n shifted adds each; no q-analog identity is
    used.

    It visits no tiling, so it takes no enumeration cap: the m + n <= 20
    grid takes about 2 s.  Matches qfibonomial(m, n) coefficient for
    coefficient; the harness's oracle-check exists to confirm exactly that.
    """
    if m < 0 or n < 0:
        raise ValueError(f"board sides must be >= 0, got ({m}, {n})")
    state: list[list[int]] = [[1]] + [[] for _ in range(n)]
    for i in range(m + 1):
        # climb after column i: boards standing at any height below h close
        # row h with prefix i on their way up to it
        run: list[int] = []
        for h in range(n + 1):
            if h:
                run = _times_strip(run, i, fib(h))
            _add_into(run, state[h])
            state[h] = run
        if i < m:
            # column i + 1 stands at height h
            for h in range(1, n + 1):
                if h == 1:
                    state[h] = []  # no room for the forced domino
                else:
                    state[h] = _times_strip(
                        state[h], h - 2, fib(i + 1), fib(i + 2) * fib(h)
                    )
    return Polynomial(state[n])


def _times_strip(c: list[int], length: int, scale: int, shift: int = 0) -> list[int]:
    """c * q^shift * (the weight sum of a strip of length cells, each
    domino at position p weighing scale * F_p), as a new list.

    The strip ends in a square or in a domino at position L, so the sums
    run A_0 = A_1 = c, A_L = A_{L-1} + q^(scale F_L) A_{L-2}.
    """
    prev = cur = c
    for p in range(2, length + 1):
        o = scale * fib(p)
        k = len(prev)
        nxt = cur + [0] * (o + k - len(cur))
        nxt[o:o + k] = map(add, nxt[o:o + k], prev)
        prev, cur = cur, nxt
    return [0] * shift + cur


def _add_into(acc: list[int], c: list[int]) -> None:
    """acc += c, coefficient by coefficient, growing acc as needed."""
    k = len(c)
    if len(acc) < k:
        acc.extend([0] * (k - len(acc)))
    acc[:k] = map(add, acc[:k], c)
