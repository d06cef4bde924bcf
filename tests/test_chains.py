import pytest

import fibwork.chains as chains
from fibwork.chains import (
    ChainBlock,
    Classification,
    classify,
    decompose,
    step_down,
    step_up,
)
from fibwork.fib import fib
from fibwork.fibonomial import closed_form_n2, fibonomial
from fibwork.qpoly import Polynomial
from fibwork.tilings import (
    EnumerationCapExceeded,
    HeightProfile,
    Tiling,
    enumerate_tilings,
    strip_tilings,
    weight_degree,
)


def two_row(m, prefix, bottom=(), top=()):
    pr = HeightProfile((0,) * prefix + (2,) * (m - prefix), 2)
    return Tiling(pr, (tuple(bottom), tuple(top)), ((),) * m)


def test_walk_from_all_vertical_m3():
    # the seven-step chain of the 3x2 board, all-vertical down to empty
    expected = [
        (0, ()),        # weight 6
        (1, ()),        # 5
        (2, (2,)),      # 4
        (2, ()),        # 3
        (3, (3,)),      # 2
        (3, (2,)),      # 1
        (3, ()),        # 0
    ]
    t = two_row(3, 0)
    seen = []
    for w in range(6, -1, -1):
        heights = t.profile.heights
        prefix = sum(1 for h in heights if h == 0)
        seen.append((prefix, t.above_rows[0]))
        assert weight_degree(t) == w
        t = step_down(t)
    assert seen == expected
    assert step_down(t) == t  # minimal tiling is a fixed point
    # walking back up retraces the same chain in reverse
    t = two_row(3, 3)
    for prefix, bottom in reversed(expected):
        assert (sum(1 for h in t.profile.heights if h == 0), t.above_rows[0]) == (
            prefix,
            bottom,
        )
        t = step_up(t)
    assert t == two_row(3, 0)
    assert step_up(t) == t


def test_moves_require_two_rows():
    t33 = next(iter(enumerate_tilings(3, 3)))
    with pytest.raises(ValueError):
        step_down(t33)
    with pytest.raises(ValueError):
        step_up(t33)


@pytest.mark.parametrize("m", range(1, 7))
def test_step_down_drops_weight_by_one_and_preserves_top(m):
    for t in enumerate_tilings(m, 2):
        d = step_down(t)
        if d != t:
            assert weight_degree(t) - weight_degree(d) == 1
            assert d.above_rows[1] == t.above_rows[1]


@pytest.mark.parametrize("m", range(1, 7))
def test_round_trip_both_directions(m):
    for t in enumerate_tilings(m, 2):
        d = step_down(t)
        if d != t:
            assert step_up(d) == t
        u = step_up(t)
        if u != t:
            assert step_down(u) == t
            assert weight_degree(u) - weight_degree(t) == 1


def test_classify_m1():
    empty = two_row(1, 1)
    vertical = two_row(1, 0)
    assert classify(empty) is Classification.MINIMAL
    assert classify(vertical) is Classification.MAXIMAL


def test_classify_trivial_board_is_both():
    t = next(iter(enumerate_tilings(0, 2)))
    assert classify(t) is Classification.BOTH


@pytest.mark.parametrize("m", range(1, 7))
def test_classification_counts(m):
    counts = {c: 0 for c in Classification}
    for t in enumerate_tilings(m, 2):
        counts[classify(t)] += 1
    blocks = fib(m + 1)
    assert counts[Classification.BOTH] == 0
    assert counts[Classification.MINIMAL] == blocks
    assert counts[Classification.MAXIMAL] == blocks
    assert counts[Classification.INTERIOR] == fibonomial(m, 2) - 2 * blocks


def test_m3_block_table():
    blocks = decompose(3)
    assert [b.size for b in blocks] == [7, 5, 3]
    assert [(b.min_degree, b.max_degree) for b in blocks] == [(0, 6), (1, 5), (2, 4)]
    assert [b.signature for b in blocks] == [(), (2,), (3,)]
    assert sum(b.size for b in blocks) == 15


@pytest.mark.parametrize("m", range(1, 8))
def test_block_invariants(m):
    blocks = decompose(m)
    assert len(blocks) == fib(m + 1)
    assert sum(b.size for b in blocks) == fibonomial(m, 2)
    assert sorted(b.min_degree for b in blocks) == list(range(fib(m + 1)))
    assert sorted(b.max_degree for b in blocks) == list(
        range(fib(m + 2) - 1, fib(m + 3) - 1)
    )
    for b in blocks:
        assert b.size == b.max_degree - b.min_degree + 1
        degrees = [weight_degree(t) for t in b.tilings]
        assert degrees == list(range(b.max_degree, b.min_degree - 1, -1))
        assert all(t.above_rows[1] == b.signature for t in b.tilings)
    # distinct signatures key the blocks
    assert len({b.signature for b in blocks}) == len(blocks)


@pytest.mark.parametrize("m", range(1, 8))
def test_blocks_reconstruct_two_row_polynomial(m):
    counts = [0] * (fib(m + 3) - 1)
    for b in decompose(m):
        for d in range(b.min_degree, b.max_degree + 1):
            counts[d] += 1
    assert Polynomial(counts) == closed_form_n2(m)


@pytest.mark.parametrize("m", range(1, 9))
def test_chains_cover_each_two_row_tiling_once(m):
    blocks = decompose(m)
    members = [t for b in blocks for t in b.tilings]
    assert len(members) == len(set(members))
    assert set(members) == set(enumerate_tilings(m, 2))
    # chain s is exactly the set of tilings whose top row is s
    by_top = {}
    for t in enumerate_tilings(m, 2):
        by_top.setdefault(t.above_rows[1], set()).add(t)
    assert {b.signature: set(b.tilings) for b in blocks} == by_top


def _interval(m, top):
    """[lo, hi] of the chain with top row `top`: lo = sum of F_p over its
    domino ends, hi = lo + sum of F_{p+1} for p from its last end (or 0) to m,
    minus 1."""
    lo = sum(fib(p) for p in top)
    last = top[-1] if top else 0
    return lo, lo + sum(fib(p + 1) for p in range(last, m + 1)) - 1


@pytest.mark.parametrize("m", range(1, 11))
def test_chain_intervals_follow_the_top_row(m):
    # observations about this decomposition, not the paper's definition of
    # "nearly symmetric": the intervals have a closed form in the top row,
    # their multiset is its own mirror, but single chains are off centre
    blocks = decompose(m)
    assert sorted(
        (b.min_degree, b.max_degree, b.signature) for b in blocks
    ) == sorted(_interval(m, top) + (top,) for top in strip_tilings(m))
    D = fib(m + 3) - 2
    intervals = sorted((b.min_degree, b.max_degree) for b in blocks)
    assert intervals == sorted((D - hi, D - lo) for lo, hi in intervals)
    off_centre = max(abs(lo + hi - D) for lo, hi in intervals)
    assert off_centre == (fib(m - 1) - 1 if m >= 2 else 0)


def test_decompose_rejects_degenerate():
    with pytest.raises(ValueError):
        decompose(0)


def test_decompose_refuses_over_the_cap_before_any_walk(monkeypatch):
    monkeypatch.setattr(chains, "step_up", lambda t: pytest.fail("walked"))
    with pytest.raises(EnumerationCapExceeded):
        decompose(5, cap=fibonomial(5, 2) - 1)


def test_decompose_walk_guard(monkeypatch):
    # a step_up that never settles: the walk gives up after F_{m+3} steps
    flip = {two_row(3, 3): two_row(3, 2), two_row(3, 2): two_row(3, 3)}
    monkeypatch.setattr(chains, "step_up", lambda t: flip.get(t, t))
    with pytest.raises(RuntimeError, match="exceeded 8 steps"):
        decompose(3)


def test_chain_block_is_plain_data():
    b = decompose(2)[0]
    assert isinstance(b, ChainBlock)
    assert b.size == len(b.tilings)
