import json

import pytest
from hypothesis import given, settings, strategies as st

from fibwork.qpoly import (
    ONE,
    ZERO,
    NotDivisibleError,
    Polynomial,
    div_one_minus_q_power,
    exact_div,
    fib_q_factorial,
    is_log_concave,
    is_symmetric,
    is_unimodal,
    mul,
    mul_q_analog,
    q_analog,
)

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=40)
polys = coeff_lists.map(Polynomial)


def naive_mul(a, b):
    if a.is_zero() or b.is_zero():
        return ZERO
    out = [0] * (a.degree + b.degree + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return Polynomial(out)


def test_constructor_strips_leading_zeros():
    assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial([0, 0, 0]) == ZERO
    assert Polynomial([]).is_zero()


def test_zero_has_no_degree():
    with pytest.raises(ValueError):
        ZERO.degree


def test_polynomial_is_immutable():
    p = q_analog(4)
    with pytest.raises(AttributeError):
        p.coeffs = (9,)


def test_getitem_pads_with_zero():
    p = Polynomial([1, 2])
    assert p[0] == 1 and p[1] == 2 and p[5] == 0


def test_q_analog_values():
    assert q_analog(1) == ONE
    assert q_analog(4).coeffs == (1, 1, 1, 1)
    assert q_analog(3, r=2).coeffs == (1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        q_analog(0)


def test_evaluate_at_one_counts_terms():
    assert q_analog(7).evaluate(1) == 7
    assert fib_q_factorial(5).evaluate(1) == 1 * 1 * 2 * 3 * 5


def test_mul_known_product():
    # [3]_q * [3]_{q^2} = 1 + q + 2q^2 + q^3 + 2q^4 + q^5 + q^6
    got = mul(q_analog(3), q_analog(3, r=2))
    assert got.coeffs == (1, 1, 2, 1, 2, 1, 1)


@given(polys, polys)
def test_mul_matches_naive(a, b):
    assert mul(a, b) == naive_mul(a, b)


@given(polys, polys)
def test_mul_commutes(a, b):
    assert mul(a, b) == mul(b, a)


@given(polys, polys, polys)
@settings(max_examples=60)
def test_mul_distributes(a, b, c):
    assert mul(a, b + c) == mul(a, b) + mul(a, c)


@given(polys, st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=4))
def test_mul_q_analog_matches_general_mul(p, n, r):
    assert mul_q_analog(p, n, r) == mul(p, q_analog(n, r))


def test_fib_q_factorial_degrees():
    # deg [F_n]!_q = sum_{i<=n} (F_i - 1)
    from fibwork.fib import fib

    for n in range(0, 12):
        expected = sum(fib(i) - 1 for i in range(1, n + 1))
        f = fib_q_factorial(n)
        assert f.degree == expected
        assert f[0] == 1 and f[f.degree] == 1


unit_divisors = st.tuples(st.sampled_from([1, -1]), coeff_lists).map(
    lambda t: Polynomial([t[0]] + t[1])
)


@given(polys, unit_divisors)
@settings(max_examples=150)
def test_exact_div_round_trip(p, d):
    assert exact_div(mul(p, d), d) == p


def test_exact_div_requires_unit_low_coefficient():
    with pytest.raises(ValueError):
        exact_div(q_analog(4), Polynomial([2, 1]))
    with pytest.raises(ZeroDivisionError):
        exact_div(q_analog(4), ZERO)


def test_exact_div_remainder_is_exponent_faithful():
    # (1 + q + q^2) / (1 + q) leaves remainder q^2
    with pytest.raises(NotDivisibleError) as exc:
        exact_div(q_analog(3), q_analog(2))
    assert exc.value.remainder == Polynomial([0, 0, 1])


def test_exact_div_shared_low_zeros():
    p = Polynomial([0, 0, 1, 1])
    d = Polynomial([0, 1])
    assert exact_div(p, d) == Polynomial([0, 1, 1])


def test_div_one_minus_q_power_inverts_multiplication():
    base = q_analog(5, r=3)
    shifted = mul(base, Polynomial([1, 0, -1]))  # times (1 - q^2)
    back = div_one_minus_q_power(list(shifted.coeffs), 2)
    assert Polynomial(back) == base


def test_div_one_minus_q_power_rejects_inexact():
    with pytest.raises(NotDivisibleError):
        div_one_minus_q_power([1, 1, 1], 2)


def test_is_symmetric():
    assert is_symmetric(q_analog(6))
    assert is_symmetric(Polynomial([2, 1, 2]))
    assert not is_symmetric(Polynomial([1, 2]))


def test_is_unimodal_reports_first_descent_breach():
    assert is_unimodal(Polynomial([1, 2, 2, 1])) == (True, None)
    assert is_unimodal(ONE) == (True, None)
    assert is_unimodal(Polynomial([1, 1, 2, 1, 2, 1, 1])) == (False, 3)


def test_is_unimodal_rejects_bad_input():
    with pytest.raises(ValueError):
        is_unimodal(ZERO)
    with pytest.raises(ValueError):
        is_unimodal(Polynomial([1, -1, 1]))


def test_is_log_concave():
    assert is_log_concave(Polynomial([1, 2, 2, 1]))
    assert not is_log_concave(Polynomial([1, 1, 2, 1, 1]))


def test_json_round_trip_with_big_coefficients():
    p = Polynomial([10**30, 0, -(7**40), 3])
    blob = json.dumps(p.to_json_dict())
    assert Polynomial.from_json_dict(json.loads(blob)) == p
    assert all(isinstance(c, str) for c in p.to_json_dict()["coeffs"])


@given(polys)
def test_json_round_trip_random(p):
    assert Polynomial.from_json_dict(p.to_json_dict()) == p


def test_shifted():
    assert q_analog(2).shifted(3).coeffs == (0, 0, 0, 1, 1)
    assert ZERO.shifted(5) == ZERO
