"""Exact integer arithmetic for the Fibonacci (Zeckendorf) numeration system.

A natural number is written msd-first as a bit string ``e_1 ... e_t`` whose
value is ``sum(e_i * F(t - i + 2))``: the last digit has weight F(2) = 1,
the one before it F(3) = 2, and so on.  The canonical form produced by
:func:`encode` has no two adjacent 1s and no leading zeros; :func:`decode`
accepts arbitrary bit strings, leading zeros and adjacent 1s included.

Everything here is exact big-integer arithmetic.  The Beatty values
``floor(phi * n)`` etc. are computed through integer square roots, never
through floats: float rounding is wrong for n near Fibonacci numbers.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isqrt

__all__ = [
    "fib",
    "lucas",
    "encode",
    "decode",
    "isqrt",
    "floor_phi",
    "floor_phi2",
    "floor_phi_half",
    "floor_phi2_half",
]

_FIB = [0, 1]
_LUCAS = [2, 1]


def fib(k: int) -> int:
    """F(k), with F(0) = 0, F(1) = 1."""
    # the sign check comes first: the list would wrap a negative index
    if k < 0:
        raise ValueError("Fibonacci index must be >= 0")
    while len(_FIB) <= k:
        _FIB.append(_FIB[-1] + _FIB[-2])
    return _FIB[k]


def fib_bracket(m: int) -> int:
    """The j >= 2 with F(j) < m <= F(j+1), for m >= 2; a bisection of the cached F."""
    if m < 2:
        raise ValueError("Fibonacci bracket needs m >= 2")
    while _FIB[-1] < m:
        _FIB.append(_FIB[-1] + _FIB[-2])
    return bisect_left(_FIB, m) - 1


def lucas(k: int) -> int:
    """L(k), with L(0) = 2, L(1) = 1."""
    if k < 0:
        raise ValueError("Lucas index must be >= 0")
    while len(_LUCAS) <= k:
        _LUCAS.append(_LUCAS[-1] + _LUCAS[-2])
    return _LUCAS[k]


def encode(n: int) -> str:
    """Canonical Zeckendorf string of n, msd first.  encode(0) == ''.

    Greedy: repeatedly take the largest F(i) <= remainder, i >= 2.  The
    greedy choice can never pick two adjacent Fibonacci numbers.
    """
    if n < 0:
        raise ValueError("cannot encode a negative number")
    if n == 0:
        return ""
    k = fib_bracket(n + 1)  # F(k) <= n < F(k+1)
    digits = []
    rem = n
    for i in range(k, 1, -1):
        if fib(i) <= rem:
            digits.append("1")
            rem -= fib(i)
        else:
            digits.append("0")
    return "".join(digits)


def decode(s: str) -> int:
    """Value of an arbitrary bit string (validity not required)."""
    t = len(s)
    total = 0
    for i, ch in enumerate(s):
        if ch == "1":
            total += fib(t - i + 1)
        elif ch != "0":
            raise ValueError(f"not a bit string: {s!r}")
    return total


def floor_phi(n: int) -> int:
    """Exact floor(phi * n) with phi = (1 + sqrt 5)/2.

    phi*n = (n + sqrt(5 n^2))/2 and sqrt(5 n^2) is irrational for n > 0,
    so flooring the inner square root first is safe.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return (n + isqrt(5 * n * n)) // 2


def floor_phi2(n: int) -> int:
    """Exact floor(phi^2 * n); phi^2 = phi + 1 forces this to be floor_phi(n) + n,
    which is (3n + isqrt(5 n^2)) // 2."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return (3 * n + isqrt(5 * n * n)) // 2


def floor_phi_half(n: int) -> int:
    """Exact floor(phi * n + 1/2), via floor((floor(2 n phi) + 1) / 2)."""
    return (floor_phi(2 * n) + 1) // 2


def floor_phi2_half(n: int) -> int:
    """Exact floor(phi^2 * n + 1/2), via floor((floor(2 n phi^2) + 1) / 2)."""
    return (floor_phi2(2 * n) + 1) // 2
