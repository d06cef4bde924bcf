"""Chain decomposition of the two-row tilings T(m, 2).

For n = 2 a tiling is fully described by three pieces: the columns on the
right that hold (forced) vertical dominoes — always a suffix, since heights
weakly increase and may only be 0 or 2 here — plus independent square/
horizontal-domino tilings of the bottom row (row 1) and top row (row 2)
over the remaining prefix of columns.

step_down is a weight-lowering move (exactly one unit of weight per
application, certified by tests over full enumerations):

  1. if the bottom row has a horizontal domino with right end at column 2,
     remove it;
  2. otherwise, if the bottom row has horizontal dominoes, shift the
     leftmost one left by one column and pack dominoes greedily to its
     left (right ends k-3, k-5, ... while they fit);
  3. otherwise, if vertical dominoes exist, rotate the leftmost one
     (column k) into a bottom-row horizontal with right end k — dropping
     it entirely when k = 1, where no horizontal fits — and pack greedily
     to its left;
  4. otherwise the tiling is fixed (bottom row and vertical columns empty).

step_up is the partial inverse: for any t, step_up(t) != t implies
step_down(step_up(t)) == t, and step_down(t) != t implies
step_up(step_down(t)) == t.  Note the rotation clause of step_up includes
the inverse of the k = 1 removal (an empty one-column prefix rotates back
to a full column of verticals); without it the all-vertical board's image
would have no way back up.

So step_down is injective off its fixed points: two tilings it moves to
the same place are both step_up of that place.  Its paths are therefore
disjoint chains ("blocks") of consecutive weights, one ending at each fixed
point, and step_up retraces each chain from that bottom.  The fixed points
are the tilings with an empty bottom row and no verticals, one per top row
s of the 1 x m strip, and the moves never touch the top row, so T(m, 2)
splits into F_{m+1} chains, chain s being exactly the tilings with top
row s.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .fib import fib
from .tilings import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    HeightProfile,
    Tiling,
    strip_tilings,
    tiling_count,
    weight_degree,
)


class Classification(enum.Enum):
    MINIMAL = "minimal"
    MAXIMAL = "maximal"
    INTERIOR = "interior"
    BOTH = "both"


def _parts(t: Tiling) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """(m, prefix, bottom_ends, top_ends) of a two-row tiling."""
    if t.n != 2:
        raise ValueError("chain moves are defined on two-row boards only")
    # the bottom row's prefix is the run of height-0 columns
    return (t.m, t.profile.row_prefix(1), t.above_rows[0], t.above_rows[1])


def _assemble(
    m: int, prefix: int, bottom: tuple[int, ...], top: tuple[int, ...]
) -> Tiling:
    return Tiling(_profile(m, prefix), (tuple(bottom), tuple(top)), ((),) * m)


@lru_cache(maxsize=None)
def _profile(m: int, prefix: int) -> HeightProfile:
    """Columns 1..prefix at height 0, the rest at 2: one object per shape."""
    return HeightProfile((0,) * prefix + (2,) * (m - prefix), 2)


def _packed_run(end: int) -> tuple[int, ...]:
    """Right ends of dominoes packed greedily left from `end`: end, end-2, ...

    Runs down while the right end stays >= 2; empty for end < 2.
    """
    if end < 2:
        return ()
    start = 2 if end % 2 == 0 else 3
    return tuple(range(start, end + 1, 2))


def step_down(t: Tiling) -> Tiling:
    """One weight-decrementing move; fixed exactly on minimal tilings."""
    m, prefix, bottom, top = _parts(t)
    if 2 in bottom:
        return _assemble(m, prefix, tuple(p for p in bottom if p != 2), top)
    if bottom:
        k = bottom[0]
        return _assemble(m, prefix, _packed_run(k - 1) + bottom[1:], top)
    if prefix < m:
        k = prefix + 1  # leftmost vertical column
        return _assemble(m, k, _packed_run(k), top)
    return t


def step_up(t: Tiling) -> Tiling:
    """Partial inverse of step_down; fixed exactly on maximal tilings."""
    m, prefix, bottom, top = _parts(t)
    bset = set(bottom)
    # inverse of the removal: put a domino back at right end 2
    if prefix >= 2 and 2 not in bset and 3 not in bset:
        return _assemble(m, prefix, (2,) + bottom, top)
    # inverse of the shift: leftmost bottom domino able to move right
    for e in bottom:
        if e + 1 <= prefix and (e + 2) not in bset:
            return _assemble(
                m, prefix, (e + 1,) + tuple(x for x in bottom if x > e), top
            )
    # inverse of the rotation: rightmost bottom domino stands at the prefix
    # boundary with a free cell above and no top dominoes to its right
    if bottom:
        k = bottom[-1]
        if k == prefix and (not top or top[-1] < k):
            return _assemble(m, prefix - 1, (), top)
        return t
    # inverse of the k = 1 removal: a single empty prefix column flips back
    # into a vertical, rejoining the all-vertical suffix
    if prefix == 1:
        return _assemble(m, 0, (), ())
    return t


def classify(t: Tiling) -> Classification:
    down_fixed = step_down(t) == t
    up_fixed = step_up(t) == t
    if down_fixed and up_fixed:
        return Classification.BOTH
    if down_fixed:
        return Classification.MINIMAL
    if up_fixed:
        return Classification.MAXIMAL
    return Classification.INTERIOR


@dataclass(frozen=True)
class ChainBlock:
    """One chain: tilings ordered maximal to minimal by repeated step_down.

    Weights along the chain are the consecutive integers max_degree down to
    min_degree, and the whole block shares the top-row signature of its
    minimal member (top rows are invariant under the moves).
    """

    tilings: tuple[Tiling, ...]
    min_degree: int
    max_degree: int
    signature: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.tilings)


def decompose(m: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[ChainBlock]:
    """Partition T(m, 2) into its chain blocks, sorted by min_degree.

    Each block is built from its top row s: start at the fixed point with
    top row s (empty bottom row, no verticals) and walk step_up until it is
    fixed.  Since step_up(step_down(t)) == t whenever step_down moves t,
    that walk retraces the whole step_down path ending there, so the F_{m+1}
    walks cover T(m, 2) once.  Refuses over the cap like enumerate_tilings.
    """
    if m < 1:
        raise ValueError(f"decompose needs m >= 1, got {m}")
    projected = tiling_count(m, 2)
    if projected > cap:
        raise EnumerationCapExceeded(m, 2, projected, cap)
    guard = fib(m + 3)  # no chain is longer than the weight range
    blocks = []
    for top in strip_tilings(m):
        chain = [_assemble(m, m, (), top)]
        for _ in range(guard):
            nxt = step_up(chain[-1])
            if nxt == chain[-1]:
                break
            chain.append(nxt)
        else:
            raise RuntimeError(f"chain walk exceeded {guard} steps from {chain[0]}")
        chain.reverse()
        blocks.append(
            ChainBlock(
                tilings=tuple(chain),
                min_degree=weight_degree(chain[-1]),
                max_degree=weight_degree(chain[0]),
                signature=top,
            )
        )
    blocks.sort(key=lambda b: b.min_degree)
    return blocks
