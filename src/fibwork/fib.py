"""Fibonacci numbers and Zeckendorf decompositions.

Indexing convention used throughout the package: F_0 = 0, F_1 = F_2 = 1,
F_3 = 2, ...  All values are exact Python ints.
"""

from __future__ import annotations


class FibSequence:
    """Growable, memoized Fibonacci table.

    Not synchronised: sweeps parallelise over processes, each with its own
    table.  Reads of already-computed entries are plain list indexing.
    """

    def __init__(self) -> None:
        self._values: list[int] = [0, 1]

    def value(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"negative Fibonacci index: {n}")
        v = self._values
        while n >= len(v):
            v.append(v[-1] + v[-2])
        return v[n]

    def upto(self, n: int) -> list[int]:
        """Return [F_0, ..., F_n] as a fresh list."""
        self.value(n)
        return self._values[: n + 1]

    def __call__(self, n: int) -> int:
        return self.value(n)


_DEFAULT = FibSequence()


def fib(n: int) -> int:
    """F_n with F_0 = 0, F_1 = 1."""
    return _DEFAULT.value(n)


def zeckendorf(n: int) -> list[int]:
    """Indices of the unique Zeckendorf representation of n >= 0.

    Returns strictly decreasing indices k_1 > k_2 > ... >= 2, no two
    consecutive, with sum of F_{k_i} equal to n.  zeckendorf(0) == [].

    The greedy algorithm (take the largest Fibonacci number <= n, recurse on
    the remainder) produces exactly this representation: after taking F_k the
    remainder is < F_{k-1}, so index k-1 can never be chosen next.
    """
    if n < 0:
        raise ValueError(f"zeckendorf undefined for negative {n}")
    if n == 0:
        return []
    k = 2
    while fib(k + 1) <= n:
        k += 1
    out = []
    rem = n
    while rem > 0:
        while fib(k) > rem:
            k -= 1
        out.append(k)
        rem -= fib(k)
        k -= 1
    return out
