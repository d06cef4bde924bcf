"""Exact integer polynomials in one variable q, dense representation.

Coefficients are arbitrary-precision Python ints stored low degree first;
index i holds the coefficient of q^i.  The zero polynomial is the empty
coefficient sequence, and no polynomial ever carries trailing zeros, so
structural equality is semantic equality.

One list-level pass, cancel_step (c * (1 - q^up) / (1 - q^down)), is behind
every product by a q-analog and every quotient the package builds, since
[n]_{q^r} = (1 - q^{nr}) / (1 - q^r).  Both of its passes run as slice
operations, so the per-coefficient loop is in C: the shifted subtract is
one slice assignment of map(operator.sub, ...), and the division by
1 - q^down is one itertools.accumulate per residue class (small powers) or
one map(operator.add, ...) per block of down coefficients (the others).
mul and exact_div are the general product and division: public API and
the tests' references.

Peak coefficients of the polynomials handled here exceed 2^53 well inside
the working range, which is why nothing in this module (or in the JSON
serialization) ever round-trips a coefficient through a float.
"""

from __future__ import annotations

import operator
from itertools import accumulate
from typing import Iterable, Iterator, Optional

from .fib import fib


class NotDivisibleError(ArithmeticError):
    """Raised by a division when the divisor does not divide the dividend.

    Carries the nonzero residual so callers can report it as a finding
    instead of a crash: dividend == quotient * divisor + remainder.
    """

    def __init__(self, remainder: "Polynomial"):
        super().__init__(remainder)
        self.remainder = remainder

    def __str__(self) -> str:
        # formatted on demand: callers that only catch the error never pay
        # for printing a long remainder
        return f"not divisible; remainder {self.remainder}"


class Polynomial:
    """Immutable dense polynomial over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    # -- basic structure -------------------------------------------------

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # pickle through the constructor: the default slot-state restore
        # would go through the blocking __setattr__
        return (Polynomial, (self.coeffs,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of a nonzero polynomial; the zero polynomial has none."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> int:
        if i < 0:
            raise IndexError("negative exponent")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*q" if c != 1 else "q")
            else:
                terms.append(f"{c}*q^{i}" if c != 1 else f"q^{i}")
        return "Polynomial(" + " + ".join(terms) + ")"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return Polynomial(out)

    def shifted(self, k: int) -> "Polynomial":
        """self * q^k."""
        if not self.coeffs:
            return self
        return Polynomial((0,) * k + self.coeffs)

    def evaluate(self, x: int) -> int:
        """Exact evaluation at an integer point (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON form {"coeffs": [...]} with decimal-string coefficients."""
        return {"coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Polynomial":
        return cls(map(int, d["coeffs"]))


ZERO = Polynomial()
ONE = Polynomial((1,))


# -- constructors ---------------------------------------------------------


def q_analog(n: int, r: int = 1) -> Polynomial:
    """[n]_{q^r} = 1 + q^r + q^{2r} + ... + q^{(n-1)r}."""
    if n < 1 or r < 1:
        raise ValueError(f"q_analog needs n >= 1 and r >= 1, got n={n} r={r}")
    out = [0] * ((n - 1) * r + 1)
    for k in range(n):
        out[k * r] = 1
    return Polynomial(out)


def mul_q_analog(p: Polynomial, n: int, r: int = 1) -> Polynomial:
    """p * [n]_{q^r} = p (1 - q^{nr}) / (1 - q^r): one cancel_step, exactly
    equal to mul(p, q_analog(n, r))."""
    if n < 1 or r < 1:
        raise ValueError(f"mul_q_analog needs n >= 1 and r >= 1, got n={n} r={r}")
    return Polynomial(cancel_step(list(p.coeffs), n * r, r))


def fib_q_factorial(n: int) -> Polynomial:
    """[F_n]!_q = product over k=1..n of [F_k]_q (empty product for n=0)."""
    if n < 0:
        raise ValueError(f"fib_q_factorial undefined for n={n}")
    p = ONE
    for k in range(1, n + 1):
        p = mul_q_analog(p, fib(k))
    return p


# -- multiplication -------------------------------------------------------


def mul(p: Polynomial, r: Polynomial) -> Polynomial:
    """Exact product by schoolbook convolution; zero if either operand is zero.

    The general product: the public API and the reference the tests compare
    the specialised products against.  Products of q-analogs go through
    mul_q_analog instead.
    """
    a, b = p.coeffs, r.coeffs
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return Polynomial(out)


# -- exact division -------------------------------------------------------


def exact_div(p: Polynomial, d: Polynomial) -> Polynomial:
    """Quotient p / d when d divides p exactly; else NotDivisibleError.

    The general division by an arbitrary polynomial: public API and the
    reference the tests divide with.  No construction in the package calls
    it; they all divide through div_one_minus_q_power.

    Synthetic division from the constant term up, justified by the
    precondition that the lowest nonzero coefficient of d is +-1 (true of
    every q-analog and every product of q-analogs).  Intermediate values
    are signed; only the final residual decides divisibility, and a nonzero
    residual is attached to the raised error.
    """
    dc = d.coeffs
    if not dc:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p.coeffs:
        return ZERO
    low = 0
    while dc[low] == 0:
        low += 1
    if dc[low] not in (1, -1):
        raise ValueError(
            f"exact_div requires a divisor with lowest nonzero coefficient +-1, got {dc[low]}"
        )
    pc = list(p.coeffs)
    if low:
        if any(pc[:low]):
            raise NotDivisibleError(p)
        pc = pc[low:]
        dc = dc[low:]
    qlen = len(pc) - len(dc) + 1
    if qlen <= 0:
        raise NotDivisibleError(p)
    unit = dc[0]
    quot = [0] * qlen
    for i in range(qlen):
        c = pc[i]
        if c:
            qi = c if unit == 1 else -c
            quot[i] = qi
            for j in range(1, len(dc)):
                pc[i + j] -= qi * dc[j]
    tail = pc[qlen:]
    if any(tail):
        raise NotDivisibleError(Polynomial([0] * (qlen + low) + tail))
    return Polynomial(quot)


# powers below this divide by residue class, the others block by block
ACCUMULATE_BELOW = 64


def div_one_minus_q_power(coeffs: list, k: int) -> list:
    """Exact in-place division of a coefficient list by (1 - q^k).

    Prefix-sum recurrence out[i] = c[i] + out[i-k], run as slice operations:
    for k below ACCUMULATE_BELOW, one itertools.accumulate per residue class
    mod k (for k = 1, one over the whole list, without a strided copy);
    otherwise each block of k coefficients adds the block before it, one
    map(operator.add) per block.  (Few long strided sums beat many short
    blocks for small k; for large k the residue classes are many and short,
    and a strided pass over a long list reads memory out of order.)
    Exactness requires the last k running sums to vanish; raises
    NotDivisibleError otherwise.  Every production path divides here,
    through cancel_step; exact_div is the general division by an arbitrary
    polynomial.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    n = len(coeffs)
    if k == 1:
        coeffs[:] = accumulate(coeffs)
    elif k < ACCUMULATE_BELOW:
        for r in range(min(k, n)):
            coeffs[r::k] = accumulate(coeffs[r::k])
    else:
        for start in range(k, n, k):
            coeffs[start:start + k] = map(
                operator.add, coeffs[start:start + k], coeffs[start - k:start]
            )
    tail = coeffs[n - k:] if n >= k else coeffs[:]
    if any(tail):
        raise NotDivisibleError(Polynomial([0] * max(0, n - k) + tail))
    del coeffs[max(0, n - k):]
    return coeffs


def cancel_step(c: list, up: int, down: int) -> list:
    """c * (1 - q^up) / (1 - q^down), in place on the coefficient list c: a
    shifted subtract, one slice assignment (it reads every old value before
    it writes), then div_one_minus_q_power, which raises NotDivisibleError
    on a nonzero tail."""
    c.extend([0] * up)
    c[up:] = map(operator.sub, c[up:], c)
    return div_one_minus_q_power(c, down)


# -- shape predicates ------------------------------------------------------


def _require_nonzero(p: Polynomial, what: str) -> tuple:
    if not p.coeffs:
        raise ValueError(f"{what} is undefined for the zero polynomial")
    return p.coeffs


def is_symmetric(p: Polynomial) -> bool:
    """Palindromic coefficient sequence: c_i == c_{deg-i} for all i."""
    c = _require_nonzero(p, "symmetry")
    return c == c[::-1]


def is_unimodal(p: Polynomial) -> tuple[bool, Optional[int]]:
    """(True, None) if coefficients rise then fall (weakly).

    On failure returns (False, k) where k is the smallest index entered by
    a strict fall that is followed, anywhere later, by a strict rise.
    Defined for nonzero polynomials with nonnegative coefficients.

    A palindrome is unimodal exactly when its lower half rises weakly to
    the middle, so that case is decided on half the coefficients; any
    other sequence, or a palindrome with a dip, takes the full scan that
    locates the first fall.
    """
    c = _require_nonzero(p, "unimodality")
    h = len(c) // 2
    rising_palindrome = c == c[::-1] and all(map(operator.le, c[:h], c[1 : h + 1]))
    # a rising palindrome's least coefficient is its first
    if (c[0] if rising_palindrome else min(c)) < 0:
        raise ValueError("unimodality check expects nonnegative coefficients")
    if rising_palindrome:
        return (True, None)
    first_fall_to = None
    for i in range(1, len(c)):
        if c[i] < c[i - 1]:
            if first_fall_to is None:
                first_fall_to = i
        elif c[i] > c[i - 1] and first_fall_to is not None:
            return (False, first_fall_to)
    return (True, None)


def is_log_concave(p: Polynomial) -> bool:
    """c_k^2 >= c_{k-1} c_{k+1} for all interior k (no positivity demanded).

    On a palindrome the inequality at k mirrors the one at deg - k, so the
    indices k <= len // 2 decide it.
    """
    c = _require_nonzero(p, "log-concavity")
    if c == c[::-1]:
        c = c[: len(c) // 2 + 2]
    mid = c[1:-1]
    return all(
        map(operator.ge, map(operator.mul, mid, mid), map(operator.mul, c, c[2:]))
    )
