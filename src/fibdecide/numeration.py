"""Exact integer arithmetic for the Fibonacci (Zeckendorf) numeration system.

A natural number is written msd-first as a bit string ``e_1 ... e_t`` whose
value is ``sum(e_i * F(t - i + 2))``: the last digit has weight F(2) = 1,
the one before it F(3) = 2, and so on.  The canonical form produced by
:func:`encode` has no two adjacent 1s and no leading zeros; :func:`decode`
accepts arbitrary bit strings, leading zeros and adjacent 1s included.

Everything here is exact integer arithmetic.  The Beatty values
``floor(phi * n)`` etc. come from integer square roots: for n below
``TABLE_BOUND`` they are read from one table, filled on first use by the
kernel of :func:`vec_floor_phi` (a float square root as the estimate,
then repaired in integers until r * r <= 5 n^2 < (r + 1)^2), and past it
come from :func:`math.isqrt`.  A float alone is wrong for n near
Fibonacci numbers.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isqrt

import numpy as np

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

# floor(phi m) is read from a table for m below this, and seqs' oracle
# batches fill their tables to it
TABLE_BOUND = 1 << 15
_PHI = memoryview(b"")  # floor(phi m) for m < TABLE_BOUND once filled


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
    k = fib_bracket(n + 1)  # F(k) <= n < F(k+1), and the list holds F(k)
    digits = []
    rem = n
    for f in _FIB[k:1:-1]:
        if f <= rem:
            digits.append("1")
            rem -= f
        else:
            digits.append("0")
    return "".join(digits)


def decode(s: str) -> int:
    """Value of an arbitrary bit string (validity not required)."""
    t = len(s)
    fib(t + 1)  # grows the list to the weight of the first digit
    total = 0
    for ch, f in zip(s, _FIB[t + 1 : 1 : -1]):
        if ch == "1":
            total += f
        elif ch != "0":
            raise ValueError(f"not a bit string: {s!r}")
    return total


def floor_phi(n: int) -> int:
    """Exact floor(phi * n) with phi = (1 + sqrt 5)/2.

    phi*n = (n + sqrt(5 n^2))/2 and sqrt(5 n^2) is irrational for n > 0,
    so flooring the inner square root first is safe.
    """
    # the sign check comes first: the view would wrap a negative index
    if n < 0:
        raise ValueError("n must be >= 0")
    try:
        return _PHI[n]
    except IndexError:
        return _floor_phi_past(n)


def floor_phi2(n: int) -> int:
    """Exact floor(phi^2 * n); phi^2 = phi + 1 forces this to be floor_phi(n) + n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    try:
        return _PHI[n] + n
    except IndexError:
        return _floor_phi_past(n) + n


def _floor_phi_past(n: int) -> int:
    """floor(phi n) for an n >= 0 the table does not hold: below TABLE_BOUND
    the table is filled first (it is still empty), past it isqrt runs."""
    global _PHI
    if n < TABLE_BOUND:
        table = np.arange(TABLE_BOUND, dtype=np.int64)
        _PHI = memoryview(_floor_phi_into(table, table))
        return _PHI[n]
    return (n + isqrt(5 * n * n)) // 2


def floor_phi_half(n: int) -> int:
    """Exact floor(phi * n + 1/2), via floor((floor(2 n phi) + 1) / 2)."""
    return (floor_phi(2 * n) + 1) // 2


def floor_phi2_half(n: int) -> int:
    """Exact floor(phi^2 * n + 1/2), via floor((floor(2 n phi^2) + 1) / 2)."""
    return (floor_phi2(2 * n) + 1) // 2


# for m up to here 5 m^2 is exact in float64 and r * r cannot overflow int64
_VEC_PHI_MAX = isqrt((1 << 52) // 5)


def vec_floor_phi(m: np.ndarray) -> np.ndarray:
    """Exact floor(phi m) elementwise over a 1-d integer array, in int64;
    only the entries past _VEC_PHI_MAX go through the integer scalar.  Any
    integer dtype is read as int64 (5 m^2 would wrap in a narrower one); a
    non-integer array raises TypeError, a negative entry ValueError, and a
    uint64 entry past int64 OverflowError."""
    if m.dtype.kind not in "iu":
        raise TypeError(f"floor(phi m) needs an integer array, got dtype {m.dtype}")
    if m.dtype == np.uint64 and m.size and int(m.max()) >> 63:
        raise OverflowError("floor(phi m) leaves int64 for m >= 2**63")
    m = m.astype(np.int64, copy=False)
    if m.size and int(m.min()) < 0:
        raise ValueError("n must be >= 0")
    out = np.empty(m.shape, dtype=np.int64)
    if not m.size or int(m.max()) <= _VEC_PHI_MAX:
        return _floor_phi_into(m, out)
    big = m > _VEC_PHI_MAX
    _floor_phi_into(np.where(big, 0, m), out)
    for i in np.flatnonzero(big).tolist():
        out[i] = floor_phi(int(m[i]))
    return out


def _floor_phi_into(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Writes floor(phi m) into out (which may be m itself) for 0 <= m <=
    _VEC_PHI_MAX and returns out.  Works in blocks of a quarter of
    TABLE_BOUND, so filling the table of floor_phi in place needs little
    more than the table."""
    block = TABLE_BOUND >> 2
    for lo in range(0, m.size, block):
        mb = m[lo : lo + block]
        five = 5 * mb * mb
        r = np.sqrt(five.astype(np.float64)).astype(np.int64)
        # exact integer sqrt: repair float rounding
        while True:
            over = r * r > five
            if not over.any():
                break
            r[over] -= 1
        while True:
            under = (r + 1) * (r + 1) <= five
            if not under.any():
                break
            r[under] += 1
        r += mb
        r //= 2
        out[lo : lo + block] = r
    return out
