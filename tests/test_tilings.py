import ast
import hashlib
import inspect

import pytest

import fibwork.tilings
from fibwork.fib import fib, zeckendorf
from fibwork.fibonomial import closed_form_n2, fibonomial, qfibonomial, qfibonomial_degree
from fibwork.qpoly import Polynomial, q_analog
from fibwork.tilings import (
    EnumerationCapExceeded,
    HeightProfile,
    Tiling,
    enumerate_tilings,
    profiles,
    strip_tilings,
    tiling_count,
    tiling_polynomial,
    weight_degree,
)


def reference_tiling():
    # 4x4 board, path heights (0,0,3,4); one horizontal domino ending at
    # (2,1), one free vertical topped at (4,2), forced verticals at (3,3)
    # and (4,4).
    pr = HeightProfile((0, 0, 3, 4), 4)
    return Tiling(pr, ((2,), (), (), ()), ((), (), (), (2,)))


def test_strip_counts_are_fibonacci():
    for length in range(0, 16):
        assert len(strip_tilings(length)) == fib(length + 1)


@pytest.mark.parametrize("length", range(0, 17))
def test_strip_tilings_lex_order_and_validity(length):
    strips = strip_tilings(length)
    assert strips[0] == ()
    assert list(strips) == sorted(strips)
    for s in strips:
        assert all(2 <= p <= length for p in s)
        assert all(b - a >= 2 for a, b in zip(s, s[1:]))
    assert len(set(strips)) == len(strips)


def test_strip_tilings_listing_is_pinned():
    # render --select and the chain order index into these lists, so the
    # order itself is pinned, not only its sortedness
    listed = repr(tuple(strip_tilings(length) for length in range(0, 17)))
    assert hashlib.sha256(listed.encode()).hexdigest() == (
        "e940d95c65529fbf1cf73c8043e2f6691149bf5075733d619f177bb808039790"
    )


def test_strip_negative_length_rejected():
    with pytest.raises(ValueError):
        strip_tilings(-1)


def test_profile_validation():
    HeightProfile((0, 2, 2, 3), 3)
    with pytest.raises(ValueError):
        HeightProfile((0, 1, 2), 3)  # height 1 cannot host the forced domino
    with pytest.raises(ValueError):
        HeightProfile((2, 0), 3)  # not weakly increasing
    with pytest.raises(ValueError):
        HeightProfile((0, 4), 3)  # taller than the board


def test_profile_row_prefix():
    pr = HeightProfile((0, 0, 3, 4), 4)
    assert [pr.row_prefix(j) for j in (1, 2, 3, 4)] == [2, 2, 2, 3]


def test_profiles_count_and_order():
    ps = list(profiles(2, 2))
    assert [p.heights for p in ps] == [(0, 0), (0, 2), (2, 2)]
    ps33 = [p.heights for p in profiles(3, 3)]
    assert ps33 == sorted(ps33)
    assert len(ps33) == len(set(ps33))


def test_tiling_validation():
    pr = HeightProfile((0, 0, 3, 4), 4)
    with pytest.raises(ValueError):  # domino sticks out of row 1's prefix
        Tiling(pr, ((3,), (), (), ()), ((), (), (), ()))
    with pytest.raises(ValueError):  # overlapping dominoes in one row
        Tiling(HeightProfile((0, 0, 0, 0), 1), ((2, 3),), ((), (), (), ()))
    with pytest.raises(ValueError):  # vertical domino collides with forced one
        Tiling(pr, ((), (), (), ()), ((), (), (2,), ()))
    with pytest.raises(ValueError):  # wrong number of row strips
        Tiling(pr, ((), ()), ((), (), (), ()))


def test_reference_tiling_weight():
    t = reference_tiling()
    parts = {}
    for kind, i, j in t.dominoes():
        w = fib(i + 1) * fib(j) if kind == "forced" else fib(i) * fib(j)
        parts[(kind, i, j)] = w
    assert parts == {
        ("h", 2, 1): 1,
        ("v", 4, 2): 3,
        ("forced", 3, 3): 6,
        ("forced", 4, 4): 15,
    }
    assert weight_degree(t) == 25


def test_tiling_count_is_integer_fibonomial():
    assert tiling_count(2, 2) == 6
    assert tiling_count(3, 2) == 15
    assert tiling_count(4, 4) == 1820


@pytest.mark.parametrize("m,n", [(0, 0), (1, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
def test_enumeration_count_and_determinism(m, n):
    first = list(enumerate_tilings(m, n))
    second = list(enumerate_tilings(m, n))
    assert first == second
    assert len(first) == fibonomial(m, n)
    assert len(set(first)) == len(first)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(0, 7) for n in range(0, 7) if m + n <= 6])
def test_polynomial_matches_algebraic_route(m, n):
    assert tiling_polynomial(m, n) == qfibonomial(m, n)


@pytest.mark.parametrize("m,n", [(m, s - m) for s in range(0, 9) for m in range(0, s + 1)])
def test_polynomial_is_histogram_of_enumerated_weights(m, n):
    counts = [0] * (qfibonomial_degree(m, n) + 1)
    for t in enumerate_tilings(m, n):
        counts[weight_degree(t)] += 1
    assert tiling_polynomial(m, n) == Polynomial(counts)


def test_polynomial_matches_algebraic_route_to_sum_14():
    for s in range(0, 15):
        for m in range(0, s + 1):
            assert tiling_polynomial(m, s - m) == qfibonomial(m, s - m), (m, s - m)


@pytest.mark.parametrize("m", range(1, 21))
def test_polynomial_matches_the_n2_closed_form(m):
    # a third route: the piecewise n = 2 formula
    assert tiling_polynomial(m, 2) == closed_form_n2(m)


def test_polynomial_matches_algebraic_route_on_long_strips():
    # rows of up to 20 cells: F_21 = 10946 tilings in the longest strip
    assert tiling_polynomial(20, 4) == qfibonomial(20, 4)


def test_tiling_route_takes_no_algebra_from_qpoly():
    # the combinatorial route is an oracle for the algebraic one only while
    # it shares none of its arithmetic
    tree = ast.parse(inspect.getsource(fibwork.tilings))
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("qpoly"):
            taken.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # no module-level handle on qpoly: `import fibwork.qpoly`, `from . import qpoly`
            assert not any(alias.name.endswith("qpoly") for alias in node.names)
    assert taken == {"Polynomial"}


@pytest.mark.parametrize("m", range(0, 7))
def test_strip_law_and_zeckendorf_support(m):
    assert tiling_polynomial(m, 1) == q_analog(fib(m + 1))
    weights = []
    for t in enumerate_tilings(m, 1):
        ends = t.above_rows[0]
        w = weight_degree(t)
        assert w == sum(fib(p) for p in ends)
        assert zeckendorf(w) == sorted(ends, reverse=True)
        weights.append(w)
    assert sorted(weights) == list(range(fib(m + 1)))


def test_cap_refusal_reports_projection():
    with pytest.raises(EnumerationCapExceeded) as exc:
        list(enumerate_tilings(10, 10, cap=10**6))
    assert exc.value.projected == fibonomial(10, 10)
    assert exc.value.cap == 10**6


def test_negative_board_rejected():
    with pytest.raises(ValueError):
        list(enumerate_tilings(-1, 2))
    for m, n in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match=r"board sides must be >= 0"):
            tiling_polynomial(m, n)
