"""q-Fibonomial coefficients and their closed forms.

The central object: for m, n >= 0,

    qfibonomial(m, n) = [F_{m+n}]!_q / ([F_m]!_q * [F_n]!_q)

where [F_n]!_q is the product of the q-analogs [F_k]_q for k = 1..n.  The
quotient is always a polynomial with nonnegative integer coefficients and
palindromic coefficient sequence; unimodality is the conjecture this
workbench exists to probe.

It is built without forming either factorial: the (1 - q) factors of the
q-analogs cancel, leaving the binomial product

    qfibonomial(m, n) = prod_{k=1..n} (1 - q^{F_{m+k}}) / (1 - q^{F_k}),

which costs one qpoly.cancel_step per k: a shifted subtract and one
prefix-sum division.  The q-FiboCatalan quotient qfibonomial(m, n) /
[F_{m+n}]_q is one more step of the same kind, since [F]_q = (1 - q^F) /
(1 - q): multiply by 1 - q, then divide by 1 - q^{F_{m+n}}.
"""

from __future__ import annotations

import math

from .fib import fib
from .qpoly import NotDivisibleError, Polynomial, cancel_step, div_one_minus_q_power


def fibonomial(m: int, n: int) -> int:
    """Integer value at q = 1: F_{m+n}! / (F_m! F_n!) over Fibonacci factorials."""
    if m < 0 or n < 0:
        raise ValueError(f"fibonomial needs m, n >= 0, got ({m}, {n})")
    num = math.prod(fib(k) for k in range(1, m + n + 1))
    den = math.prod(fib(k) for k in range(1, m + 1)) * math.prod(
        fib(k) for k in range(1, n + 1)
    )
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"fibonomial({m}, {n}): remainder {r}")
    return q


def qfibonomial_degree(m: int, n: int) -> int:
    """Degree of qfibonomial(m, n): F_{m+n+2} - F_{m+2} - F_{n+2} + 1."""
    if m < 0 or n < 0:
        raise ValueError(f"qfibonomial needs m, n >= 0, got ({m}, {n})")
    return fib(m + n + 2) - fib(m + 2) - fib(n + 2) + 1


# ~4 GB at 80 B a coefficient: admits (18,18) at 39.1 M, refuses (19,19) at 102.3 M
COEFFICIENT_CAP = 50_000_000


class CoefficientCapExceeded(Exception):
    """Refusal to build a qfibonomial with more coefficients than the cap."""


def capped_size(m: int, n: int) -> int:
    """Coefficients of qfibonomial(m, n), refused above COEFFICIENT_CAP by
    the CLI and the sweeps before any work; qfibonomial has no limit."""
    # with both sides positive there are at least F_{max(m, n) + 1}
    # coefficients, and F_39 is over the cap, so a side of 38 or more is
    # refused without growing the Fibonacci table to m + n + 2
    if min(m, n) < 1 or max(m, n) < 38:
        size = qfibonomial_degree(m, n) + 1  # raises on a negative side
        if size <= COEFFICIENT_CAP:
            return size
    # no count in the message: str() refuses an int of over 4300 digits
    raise CoefficientCapExceeded(
        f"qfibonomial({m}, {n}) has more than {COEFFICIENT_CAP} coefficients"
    )


def qfibonomial(m: int, n: int) -> Polynomial:
    """The q-Fibonomial coefficient as an exact integer polynomial.

    Built on one coefficient list as the cancelled binomial product
    prod_{k=1..n} (1 - q^{F_{m+k}}) / (1 - q^{F_k}), with n = min(m, n).
    Step k is one cancel_step: times 1 - q^{F_{m+k}}, then divided by
    1 - q^{F_k}.  After step k the list is exactly qfibonomial(m, k), so
    every division is exact, the state between steps is nonnegative, and
    it is never longer than the result; only inside the last step does the
    list briefly run F_n - 1 past it.  Results are not memoised; a caller
    that reuses one keeps it.
    """
    degree = qfibonomial_degree(m, n)  # raises on a negative side
    if n > m:
        m, n = n, m
    c = [1]
    for k in range(1, n + 1):
        cancel_step(c, fib(m + k), fib(k))
    quo = Polynomial(c)
    if quo.is_zero() or quo.degree != degree:
        raise ArithmeticError(
            f"qfibonomial({m}, {n}) has {len(c)} coefficients, "
            f"expected degree {degree}"
        )
    return quo


def closed_form_n2(m: int) -> Polynomial:
    """qfibonomial(m, 2) directly from its piecewise closed form.

    Coefficients rise 1, 2, ..., F_{m+1}, plateau at F_{m+1}, then mirror
    back down; degree F_{m+3} - 2.
    """
    if m < 1:
        raise ValueError(f"closed_form_n2 needs m >= 1, got {m}")
    f1, f2, f3 = fib(m + 1), fib(m + 2), fib(m + 3)
    out = []
    for k in range(f3 - 1):
        if k <= f1 - 1:
            out.append(k + 1)
        elif k <= f2 - 2:
            out.append(f1)
        else:
            out.append(f3 - k - 1)
    return Polynomial(out)


def n3_factorization(m: int) -> tuple[int, int, int]:
    """(a, b, h) with qfibonomial(m, 3) == [a]_q [b]_q [h]_{q^2}, a <= b.

    Among F_{m+1}, F_{m+2}, F_{m+3} exactly one is even (Fibonacci numbers
    are even exactly at indices divisible by 3); a, b are the two odd ones
    and h is half the even one.
    """
    if m < 1:
        raise ValueError(f"n3_factorization needs m >= 1, got {m}")
    triple = [fib(m + 1), fib(m + 2), fib(m + 3)]
    evens = [v for v in triple if v % 2 == 0]
    odds = sorted(v for v in triple if v % 2 == 1)
    if len(evens) != 1:
        raise ArithmeticError(f"expected exactly one even value among {triple}")
    return (odds[0], odds[1], evens[0] // 2)


def qfibocatalan(m: int, n: int) -> Polynomial:
    """qfibonomial(m, n) / [F_{m+n}]_q.

    A polynomial with integer coefficients whenever gcd(m, n) is 1 or 2;
    outside that the division legitimately fails and the NotDivisibleError
    carries the residual as the finding.
    """
    if m < 1 or n < 1:
        raise ValueError(f"qfibocatalan needs m, n >= 1, got ({m}, {n})")
    return _fibocatalan_quotient(qfibonomial(m, n).coeffs, fib(m + n))


def _fibocatalan_quotient(a: tuple, F: int) -> Polynomial:
    """The polynomial with coefficients a divided by [F]_q.

    Computed as one more cancelled step: times 1 - q, then divided by
    1 - q^F.  Both divisions run from the constant term up and find the
    same quotient, so when the step fails its remainder is (1 - q) times
    the remainder R of dividing by [F]_q; the error carries R, with
    a == quotient * [F]_q + R, as general synthetic division by [F]_q
    reports it.
    """
    try:
        return Polynomial(cancel_step(list(a), 1, F))
    except NotDivisibleError as e:
        rem = div_one_minus_q_power(list(e.remainder.coeffs), 1)
        raise NotDivisibleError(Polynomial(rem)) from None


def telescoped_fibocatalan(m: int, n: int) -> Polynomial:
    """qfibocatalan via the telescoping sum, bypassing polynomial division.

    With a_i the coefficients of qfibonomial(m, n) and F = F_{m+n}:

        c_i = sum over k >= 0 of (a_{i-kF} - a_{i-kF-1}),

    reading a at negative indices as 0.  Only defined on the gcd in {1, 2}
    range where the quotient is known to be a polynomial.
    """
    if m < 1 or n < 1:
        raise ValueError(f"telescoped_fibocatalan needs m, n >= 1, got ({m}, {n})")
    if math.gcd(m, n) not in (1, 2):
        raise ValueError(
            f"telescoping form only applies when gcd(m, n) is 1 or 2, got gcd {math.gcd(m, n)}"
        )
    return _telescoped_quotient(qfibonomial(m, n).coeffs, fib(m + n))


def _telescoped_quotient(a: tuple, F: int) -> Polynomial:
    """The telescoping sum c_i = sum_k (a_{i-kF} - a_{i-kF-1}) over the
    coefficients a, for quotients by [F]_q known to be exact."""
    top = len(a) - 1 - (F - 1)
    out = []
    for i in range(top + 1):
        s = 0
        j = i
        while j >= 0:
            s += a[j] - (a[j - 1] if j >= 1 else 0)
            j -= F
        out.append(s)
    return Polynomial(out)
