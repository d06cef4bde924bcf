import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibwork
from fibwork.fib import fib
from fibwork.fibonomial import (
    CoefficientCapExceeded,
    capped_size,
    closed_form_n2,
    fibonomial,
    n3_factorization,
    qfibonomial,
    qfibonomial_degree,
    qfibocatalan,
    telescoped_fibocatalan,
)
from fibwork.qpoly import (
    ONE,
    NotDivisibleError,
    Polynomial,
    exact_div,
    fib_q_factorial,
    is_symmetric,
    mul,
    mul_q_analog,
    q_analog,
)

# Frozen coefficient sequences, cross-checked against an independent
# computer-algebra evaluation of the defining quotient.
QFIB_22 = (1, 2, 2, 1)
QFIB_32 = (1, 2, 3, 3, 3, 2, 1)
QFIB_33 = (1, 2, 4, 5, 7, 7, 8, 7, 7, 5, 4, 2, 1)
QFIB_44 = (
    1, 2, 4, 7, 11, 15, 21, 27, 33, 40, 47, 53, 60, 66, 71, 76, 80, 82, 85,
    86, 86, 86, 85, 82, 80, 76, 71, 66, 60, 53, 47, 40, 33, 27, 21, 15, 11,
    7, 4, 2, 1,
)


def test_integer_fibonomial_values():
    assert fibonomial(2, 2) == 6
    assert fibonomial(3, 2) == 15
    assert fibonomial(3, 3) == 60
    assert fibonomial(4, 4) == 1820
    assert fibonomial(10, 2) == 12816
    assert fibonomial(12, 2) == 87841
    assert fibonomial(5, 3) == 1092
    assert fibonomial(0, 5) == 1


def test_frozen_polynomials():
    assert qfibonomial(2, 2).coeffs == QFIB_22
    assert qfibonomial(3, 2).coeffs == QFIB_32
    assert qfibonomial(3, 3).coeffs == QFIB_33
    assert qfibonomial(4, 4).coeffs == QFIB_44


def test_edge_cases_are_one():
    assert qfibonomial(0, 0) == ONE
    assert qfibonomial(0, 7) == ONE
    assert qfibonomial(7, 0) == ONE
    assert qfibonomial(1, 1) == ONE


def test_value_at_one_is_integer_fibonomial():
    for m in range(0, 7):
        for n in range(0, 7):
            assert qfibonomial(m, n).evaluate(1) == fibonomial(m, n)


def test_degree_formula():
    for m in range(0, 9):
        for n in range(0, 9):
            if m + n > 16 or (m + n > 12 and m and n):
                continue
            p = qfibonomial(m, n)
            assert p.degree == qfibonomial_degree(m, n)
            assert qfibonomial_degree(m, n) == (
                fib(m + n + 2) - fib(m + 2) - fib(n + 2) + 1
            )


def test_defining_quotient_recovered():
    # qfibonomial(m,n) * [F_m]!_q * [F_n]!_q == [F_{m+n}]!_q
    from fibwork.qpoly import fib_q_factorial

    for m, n in [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (5, 2)]:
        lhs = mul(qfibonomial(m, n), mul(fib_q_factorial(m), fib_q_factorial(n)))
        assert lhs == fib_q_factorial(m + n)


@pytest.mark.parametrize("m", range(1, 13))
def test_closed_form_n2_matches_quotient(m):
    assert closed_form_n2(m) == qfibonomial(m, 2)


def test_closed_form_n2_piecewise_values():
    p = closed_form_n2(3)
    # 15 tilings; plateau of height F_4 = 3
    assert p.evaluate(1) == 15
    assert p.coeffs == (1, 2, 3, 3, 3, 2, 1)


@pytest.mark.parametrize("m", range(1, 13))
def test_n3_factorization_product(m):
    odd_a, odd_b, half = n3_factorization(m)
    prod = mul_q_analog(mul_q_analog(q_analog(odd_a), odd_b, 1), half, 2)
    # one analog of even length was halved and re-based at q^2:
    # [2k]_q = [k]_{q^2} * [2]_q, so multiply the [2]_q back in.
    assert prod == qfibonomial(m, 3)
    # multiplying [2]_q back in recovers the full three-analog product
    direct = mul_q_analog(
        mul_q_analog(q_analog(fib(m + 1)), fib(m + 2), 1), fib(m + 3), 1
    )
    assert mul_q_analog(prod, 2, 1) == direct


def test_n3_factorization_has_single_even():
    for m in range(1, 13):
        odd_a, odd_b, half = n3_factorization(m)
        assert odd_a % 2 == 1 and odd_b % 2 == 1
        sizes = sorted([fib(m + 1), fib(m + 2), fib(m + 3)])
        assert sorted([odd_a, odd_b, 2 * half]) == sizes


def test_symmetry_in_arguments():
    for m in range(0, 7):
        for n in range(0, 7):
            assert qfibonomial(m, n) == qfibonomial(n, m)


def test_palindromic():
    for m in range(0, 7):
        for n in range(0, 7):
            assert is_symmetric(qfibonomial(m, n))


def test_fibocatalan_known_quotients():
    assert qfibocatalan(1, 1) == ONE
    assert qfibocatalan(2, 2).coeffs == (1, 1)
    assert qfibocatalan(2, 3).coeffs == (1, 1, 1)
    assert qfibocatalan(4, 2).coeffs == (1, 1, 1, 1, 1)


def test_fibocatalan_not_polynomial_when_gcd_large():
    for m, n in [(3, 3), (4, 4), (3, 6)]:
        assert math.gcd(m, n) not in (1, 2)
        with pytest.raises(NotDivisibleError):
            qfibocatalan(m, n)


def test_fibocatalan_remainder_for_3_3():
    with pytest.raises(NotDivisibleError) as exc:
        qfibocatalan(3, 3)
    rem = exc.value.remainder
    # remainder exponents are faithful to the original numerator
    assert rem.coeffs == (0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1)


@pytest.mark.parametrize(
    "m,n",
    [(m, n) for m in range(1, 11) for n in range(1, 11)
     if m + n <= 12 and math.gcd(m, n) in (1, 2)],
)
def test_telescoping_agrees_with_division(m, n):
    assert telescoped_fibocatalan(m, n) == qfibocatalan(m, n)


def test_fibocatalan_matches_general_division_up_to_sum_14():
    # general synthetic division by [F_{m+n}]_q is the independent reference
    for s in range(2, 15):
        for m in range(1, s):
            n = s - m
            p, d = qfibonomial(m, n), q_analog(fib(m + n))
            try:
                expected = exact_div(p, d)
            except NotDivisibleError as ref:
                with pytest.raises(NotDivisibleError) as exc:
                    qfibocatalan(m, n)
                assert exc.value.remainder == ref.remainder, (m, n)
            else:
                assert qfibocatalan(m, n) == expected, (m, n)


def test_telescoped_rejects_large_gcd():
    with pytest.raises(ValueError):
        telescoped_fibocatalan(3, 3)


@pytest.mark.parametrize("m,n", [(4, 4), (7, 7), (2, 12), (9, 5)])
def test_factorial_quotient_oracle(m, n):
    # the defining quotient, divided out by general synthetic division
    num = fib_q_factorial(m + n)
    den = mul(fib_q_factorial(m), fib_q_factorial(n))
    assert exact_div(num, den) == qfibonomial(m, n)


def test_value_and_degree_up_to_sum_22():
    for total in range(23):
        for m in range(total + 1):
            p = qfibonomial(m, total - m)
            assert p.evaluate(1) == fibonomial(m, total - m)
            assert p.degree == qfibonomial_degree(m, total - m)


@pytest.mark.parametrize("m,n", [(5, -1), (-1, 5), (2, -5), (-3, -3)])
def test_negative_side_is_refused_by_degree_and_construction(m, n):
    # the degree formula alone gives -5 for (5, -1)
    message = rf"qfibonomial needs m, n >= 0, got \({m}, {n}\)"
    with pytest.raises(ValueError, match=message):
        qfibonomial_degree(m, n)
    with pytest.raises(ValueError, match=message):
        qfibonomial(m, n)


def test_coefficient_cap_admits_18_18_and_refuses_19_19():
    assert capped_size(18, 18) == qfibonomial_degree(18, 18) + 1 == 39_074_641
    with pytest.raises(CoefficientCapExceeded) as exc:
        capped_size(19, 19)
    assert str(exc.value) == "qfibonomial(19, 19) has more than 50000000 coefficients"
    with pytest.raises(ValueError, match="qfibonomial needs m, n >= 0"):
        capped_size(-1, 40)


def test_coefficient_cap_refuses_a_long_side_before_growing_the_fib_table():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(CoefficientCapExceeded) as exc:
            capped_size(40_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "qfibonomial(40000, 1) has more than 50000000 coefficients"
    # F_40001 alone is about 4 kB; the table up to it is about 75 MB
    assert peak < 1 << 20
    assert capped_size(37, 1) == 39_088_169
    # the early refusal changes no verdict
    for m in range(60):
        for n in range(60):
            size = qfibonomial_degree(m, n) + 1
            if size > 50_000_000:
                with pytest.raises(CoefficientCapExceeded):
                    capped_size(m, n)
            else:
                assert capped_size(m, n) == size


def test_coefficient_cap_sizes_a_zero_side_without_growing_the_fib_table():
    import tracemalloc

    tracemalloc.start()
    try:
        size = capped_size(100_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 1
    # the table up to F_100002 takes hundreds of MB
    assert peak < 1 << 20


def test_degree_check_survives_optimize():
    code = (
        "import importlib\n"
        "f = importlib.import_module('fibwork.fibonomial')\n"
        "if __debug__:\n"
        "    raise SystemExit('not running under -O')\n"
        "f.qfibonomial_degree = lambda m, n: -1\n"
        "try:\n"
        "    f.qfibonomial(5, 3)\n"
        "except ArithmeticError:\n"
        "    print('raised')\n"
    )
    src = str(Path(fibwork.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"
