"""Exact integer polynomials in one variable q, dense representation.

Coefficients are arbitrary-precision Python ints stored low degree first;
index i holds the coefficient of q^i.  The zero polynomial is the empty
coefficient sequence, and no polynomial ever carries trailing zeros, so
structural equality is semantic equality.

Peak coefficients of the polynomials handled here exceed 2^53 well inside
the working range, which is why nothing in this module (or in the JSON
serialization) ever round-trips a coefficient through a float.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .fib import fib


class NotDivisibleError(ArithmeticError):
    """Raised by exact_div when the divisor does not divide the dividend.

    Carries the nonzero residual so callers can report it as a finding
    instead of a crash: dividend == quotient * divisor + remainder.
    """

    def __init__(self, remainder: "Polynomial"):
        super().__init__(f"not divisible; remainder {remainder}")
        self.remainder = remainder


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

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, v in enumerate(other.coeffs):
            out[i] -= v
        return Polynomial(out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return mul(self, other)

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
        return cls(int(s) for s in d["coeffs"])


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
    """p * [n]_{q^r} in O(len(p) + n*r) via the sliding-window recurrence

        out[i] = out[i-r] + p[i] - p[i-n*r],

    which is the geometric-series identity [n]_{q^r} = (1-q^{nr})/(1-q^r)
    applied coefficientwise.  Exactly equal to mul(p, q_analog(n, r)).
    """
    if n < 1 or r < 1:
        raise ValueError(f"mul_q_analog needs n >= 1 and r >= 1, got n={n} r={r}")
    pc = p.coeffs
    if not pc:
        return ZERO
    width = n * r
    m = len(pc) + (n - 1) * r
    out = [0] * m
    for i in range(m):
        acc = out[i - r] if i >= r else 0
        if i < len(pc):
            acc += pc[i]
        if i >= width and i - width < len(pc):
            acc -= pc[i - width]
        out[i] = acc
    return Polynomial(out)


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


def div_one_minus_q_power(coeffs: list, k: int) -> list:
    """Exact in-place division of a coefficient list by (1 - q^k).

    Prefix-sum recurrence out[i] = c[i] + out[i-k].  Exactness requires the
    last k running sums to vanish; raises NotDivisibleError otherwise.
    This is the division step of qfibonomial's cancelled binomial product,
    so it runs once per factor on the mainline; exact_div is the general
    division by an arbitrary polynomial.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    n = len(coeffs)
    for i in range(k, n):
        coeffs[i] += coeffs[i - k]
    tail = coeffs[n - k:] if n >= k else coeffs[:]
    if any(tail):
        raise NotDivisibleError(Polynomial([0] * max(0, n - k) + tail))
    del coeffs[max(0, n - k):]
    return coeffs


# -- shape predicates ------------------------------------------------------


def _require_nonzero(p: Polynomial, what: str) -> tuple:
    if not p.coeffs:
        raise ValueError(f"{what} is undefined for the zero polynomial")
    return p.coeffs


def is_symmetric(p: Polynomial) -> bool:
    """Palindromic coefficient sequence: c_i == c_{deg-i} for all i."""
    c = _require_nonzero(p, "symmetry")
    n = len(c)
    return all(c[i] == c[n - 1 - i] for i in range(n // 2 + 1))


def is_unimodal(p: Polynomial) -> tuple[bool, Optional[int]]:
    """(True, None) if coefficients rise then fall (weakly).

    On failure returns (False, k) where k is the smallest index entered by
    a strict fall that is followed, anywhere later, by a strict rise.
    Defined for nonzero polynomials with nonnegative coefficients.
    """
    c = _require_nonzero(p, "unimodality")
    if any(v < 0 for v in c):
        raise ValueError("unimodality check expects nonnegative coefficients")
    first_fall_to = None
    for i in range(1, len(c)):
        if c[i] < c[i - 1]:
            if first_fall_to is None:
                first_fall_to = i
        elif c[i] > c[i - 1] and first_fall_to is not None:
            return (False, first_fall_to)
    return (True, None)


def is_log_concave(p: Polynomial) -> bool:
    """c_k^2 >= c_{k-1} c_{k+1} for all interior k (no positivity demanded)."""
    c = _require_nonzero(p, "log-concavity")
    return all(c[k] * c[k] >= c[k - 1] * c[k + 1] for k in range(1, len(c) - 1))
