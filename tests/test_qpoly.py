import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from fibwork.qpoly import (
    ONE,
    ZERO,
    NotDivisibleError,
    Polynomial,
    cancel_step,
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


# n * r runs past len(p) as well as inside it
@given(polys, st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
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


def test_not_divisible_error_formats_its_remainder_on_demand(monkeypatch):
    formatted = []
    plain_repr = Polynomial.__repr__

    def counting_repr(p):
        formatted.append(p)
        return plain_repr(p)

    monkeypatch.setattr(Polynomial, "__repr__", counting_repr)
    rem = Polynomial([0, 0, 3, 1])
    e = NotDivisibleError(rem)
    assert e.remainder is rem and formatted == []
    assert str(e) == "not divisible; remainder Polynomial(3*q^2 + q^3)"


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


def _div_per_element(c, k):
    """div_one_minus_q_power as one Python step per coefficient: the reference."""
    n = len(c)
    for i in range(k, n):
        c[i] += c[i - k]
    tail = c[n - k:] if n >= k else c[:]
    if any(tail):
        raise NotDivisibleError(Polynomial([0] * max(0, n - k) + tail))
    del c[max(0, n - k):]
    return c


def _cancel_per_element(c, up, down):
    """cancel_step with the shifted subtract as one Python step per coefficient."""
    c.extend([0] * up)
    for i in range(len(c) - 1, up - 1, -1):
        c[i] -= c[i - up]
    return _div_per_element(c, down)


def _outcome(step, c, *powers):
    """(the list step leaves, its result or remainder), step run on a copy of c."""
    work = list(c)
    try:
        out = step(work, *powers)
        assert out is work  # in place
        return work, out
    except NotDivisibleError as e:
        return work, e.remainder


@pytest.mark.parametrize("k", [1, 2, 3, 63, 64, 65, 80, 200])
def test_coefficient_passes_match_per_element_loops(k):
    # the lengths up to k leave k >= len; the remainders of inexact
    # divisions, and the lists left behind, must match too
    rng = random.Random(k)
    for length in (0, 1, k - 1, k, k + 1, 2 * k + 5, 300):
        base = [rng.randrange(-10**20, 10**20) for _ in range(length)]
        product = base + [0] * k  # base * (1 - q^k): exactly divisible
        for i in range(k, len(product)):
            product[i] -= base[i - k]
        for c in (product, base):
            assert _outcome(div_one_minus_q_power, c, k) == _outcome(
                _div_per_element, c, k
            ), (k, length)
        # times 1 - q^up then divided by 1 - q^k: exact when k divides up
        for up in (1, k, k + 7, 3 * k):
            assert _outcome(cancel_step, base, up, k) == _outcome(
                _cancel_per_element, base, up, k
            ), (k, length, up)


def test_is_symmetric():
    assert is_symmetric(q_analog(6))
    assert is_symmetric(Polynomial([2, 1, 2]))
    assert not is_symmetric(Polynomial([1, 2]))


def test_is_unimodal_reports_first_descent_breach():
    assert is_unimodal(Polynomial([1, 2, 2, 1])) == (True, None)
    assert is_unimodal(ONE) == (True, None)
    assert is_unimodal(Polynomial([1, 1, 2, 1, 2, 1, 1])) == (False, 3)


def loop_is_unimodal(c):
    """The full first-fall scan, without the palindrome shortcut."""
    if min(c) < 0:
        raise ValueError("negative coefficient")
    first_fall_to = None
    for i in range(1, len(c)):
        if c[i] < c[i - 1]:
            if first_fall_to is None:
                first_fall_to = i
        elif c[i] > c[i - 1] and first_fall_to is not None:
            return (False, first_fall_to)
    return (True, None)


def outcome(f, c):
    try:
        return f(c)
    except ValueError:
        return "ValueError"


small_coeffs = st.lists(st.integers(min_value=-1, max_value=6), min_size=1, max_size=25)
palindromes = st.tuples(small_coeffs, st.lists(st.integers(0, 6), max_size=1)).map(
    lambda t: t[0] + t[1] + t[0][::-1]
)


@given(st.one_of(palindromes, small_coeffs))
@settings(max_examples=400)
def test_is_unimodal_matches_full_scan(c):
    # palindromes (some rising, some with dips) and arbitrary sequences,
    # including negative entries, which both must refuse
    if c[-1] == 0:
        c = c + [1]
    assert outcome(lambda v: is_unimodal(Polynomial(v)), c) == outcome(
        loop_is_unimodal, c
    )


def test_is_unimodal_palindrome_cases():
    assert is_unimodal(Polynomial([1, 3, 3, 1])) == (True, None)
    assert is_unimodal(Polynomial([2, 2, 2])) == (True, None)
    assert is_unimodal(Polynomial([2, 1, 3, 1, 2])) == (False, 1)
    assert is_unimodal(Polynomial([1, 2, 1, 1, 2, 1])) == (False, 2)
    with pytest.raises(ValueError):
        is_unimodal(Polynomial([-1, 0, -1]))  # rises to its middle


def test_is_unimodal_rejects_bad_input():
    with pytest.raises(ValueError):
        is_unimodal(ZERO)
    with pytest.raises(ValueError):
        is_unimodal(Polynomial([1, -1, 1]))


def test_is_log_concave():
    assert is_log_concave(Polynomial([1, 2, 2, 1]))
    assert not is_log_concave(Polynomial([1, 1, 2, 1, 1]))


def loop_is_log_concave(c):
    """Every interior inequality, without the palindrome shortcut."""
    return all(c[k] * c[k] >= c[k - 1] * c[k + 1] for k in range(1, len(c) - 1))


signed_big_ints = st.integers(min_value=-(10**40), max_value=10**40)
big_palindromes = st.tuples(
    st.lists(signed_big_ints, min_size=1, max_size=20),
    st.lists(signed_big_ints, max_size=1),
).map(lambda t: t[0] + t[1] + t[0][::-1])
# products of q-analogs: palindromes that rise to the middle
analog_products = st.lists(
    st.tuples(st.integers(1, 6), st.integers(1, 3)), max_size=4
).map(lambda fs: list(_analog_product(fs).coeffs))


def _analog_product(factors):
    p = ONE
    for n, r in factors:
        p = mul_q_analog(p, n, r)
    return p


@given(
    st.one_of(
        palindromes,
        big_palindromes,
        analog_products,
        small_coeffs,  # mostly not palindromes
        st.lists(signed_big_ints, min_size=1, max_size=3),
    )
)
@settings(max_examples=600)
def test_is_log_concave_matches_full_scan(c):
    if c[-1] == 0:
        c = c + [1]
    assert is_log_concave(Polynomial(c)) == loop_is_log_concave(c)


@pytest.mark.parametrize(
    "c,log_concave",
    [
        ([5], True),
        ([1, 1], True),
        ([2, 1, 2], False),
        ([1, 2, 1], True),
        ([1, 1, 2, 1, 1], False),  # fails at k = 1, mirrored at 3
        # palindromes that fail only at the middle index (odd length) and
        # only at the middle pair (even length)
        ([1, 3, 1, 3, 1], False),
        ([1, 3, 1, 1, 3, 1], False),
        ([-1, 2, -1], True),
        ([1, 2, 3, 3, 1, 1], False),  # not a palindrome; fails at k = 4 only
    ],
)
def test_is_log_concave_cases(c, log_concave):
    assert is_log_concave(Polynomial(c)) == log_concave == loop_is_log_concave(c)


def test_pickle_round_trip():
    big = Polynomial([10**40, 0, -(3**90), 7])
    for p in (ZERO, ONE, big):
        back = pickle.loads(pickle.dumps(p))
        assert back == p and back.coeffs == p.coeffs
    err = pickle.loads(pickle.dumps(NotDivisibleError(big)))
    assert isinstance(err, NotDivisibleError)
    assert err.remainder == big
    assert str(err) == str(NotDivisibleError(big))


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
