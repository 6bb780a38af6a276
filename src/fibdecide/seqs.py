"""Exact big-integer oracles for every sequence the package reasons about.

These are the ground truth that automata are synthesized from and verified
against.  Everything is exact integer arithmetic; tables are filled with
vectorized numpy block recurrences and scalars fall back to the defining
recurrences above the table.

Single letters like b, c, d are hopelessly overloaded across the related
literature (b is both the lower Wythoff sequence and the ascending
rearrangement; d is both floor(phi^2 n) and a difference sequence), so the
registry only carries disambiguated names; :func:`oracle` rejects the
ambiguous letters with a pointer to the candidates.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import automata as au
from . import numeration as nu

__all__ = [
    "SequenceOracle",
    "oracle",
    "ORACLE_NAMES",
    "AMBIGUOUS_LETTERS",
    "a105774",
    "a105774_table",
    "a_xy",
    "a_xy_table",
    "nested_b",
    "nested_b_table",
    "lucas_variant",
    "lucas_variant_table",
    "LUCAS_VARIANT_PREFIX",
    "count_c",
    "count_c_table",
    "positions",
    "position_value",
    "sorted_values",
    "distinct_transform",
    "run_lengths",
    "w",
    "w_table",
    "s_value",
    "t_value",
    "s_closed",
    "t_closed",
    "x_comp",
    "d_comp",
    "a035487_set",
]


# -- core recurrence tables -------------------------------------------------


def a105774_table(n: int) -> np.ndarray:
    """Values a(0..n-1) of the self-referential Fibonacci recurrence.

    a(m) = F(j+1) - a(m - F(j)) for F(j) < m <= F(j+1); filled one
    Fibonacci block at a time, each block depending only on earlier
    entries, so every block is a single vector operation.
    """
    return a_xy_table(1, 1, n)


def a105774(m: int) -> int:
    return a_xy(1, 1, m)


def a_xy_table(x: int, y: int, n: int) -> np.ndarray:
    """Generalized recurrence a(m) = F(j+1)*x - a(m - F(j))*y."""
    a = np.zeros(max(n, 2), dtype=np.int64)
    a[1] = 1
    j = 2
    while nu.fib(j) + 1 < n:
        lo = nu.fib(j) + 1
        hi = min(nu.fib(j + 1), n - 1)
        if lo <= hi:
            a[lo : hi + 1] = nu.fib(j + 1) * x - a[lo - nu.fib(j) : hi - nu.fib(j) + 1] * y
        j += 1
    return a[:n]


def a_xy(x: int, y: int, m: int) -> int:
    """Scalar a(m) of a_xy_table, unrolled: each step adds coef * F(j+1) * x
    and multiplies coef by -y, until m reaches the base cases a(0)=0, a(1)=1."""
    total, coef = 0, 1
    while m > 1:
        j = nu.fib_bracket(m)
        total += coef * nu.fib(j + 1) * x
        coef *= -y
        m -= nu.fib(j)
    return total + coef * m


def nested_b_table(n: int) -> np.ndarray:
    """Nested variant b(m) = F(j+1) - b(b(m - F(j)))."""
    b = np.zeros(max(n, 2), dtype=np.int64)
    b[1] = 1
    j = 2
    while nu.fib(j) + 1 < n:
        lo = nu.fib(j) + 1
        hi = min(nu.fib(j + 1), n - 1)
        if lo <= hi:
            inner = b[lo - nu.fib(j) : hi - nu.fib(j) + 1]
            if inner.size and int(inner.max()) >= lo:
                raise AssertionError("nested recurrence referenced an unfilled entry")
            b[lo : hi + 1] = nu.fib(j + 1) - b[inner]
        j += 1
    return b[:n]


def nested_b(m: int) -> int:
    if m <= 1:
        return m
    j = nu.fib_bracket(m)
    return nu.fib(j + 1) - nested_b(nested_b(m - nu.fib(j)))


def lucas_variant_table(n: int) -> np.ndarray:
    """Lucas-number analogue: a(m) = L(j+1) - a(m - L(j)) for L(j) < m <= L(j+1).

    The Lucas sequence is not monotone at the start (L(0)=2, L(1)=1), so
    the bracketing starts at j = 1, which covers every m >= 2 exactly once;
    base cases a(0)=0, a(1)=1.  The j=1 block {2, 3} depends on entries
    inside itself and is filled scalar; later blocks vectorize.  This
    convention is pinned by the committed prefix fixture
    LUCAS_VARIANT_PREFIX.
    """
    a = np.zeros(max(n, 4), dtype=np.int64)
    a[1] = 1
    a[2] = nu.lucas(2) - a[1]
    a[3] = nu.lucas(2) - a[2]
    j = 2
    while nu.lucas(j) + 1 < n:
        lo = nu.lucas(j) + 1
        hi = min(nu.lucas(j + 1), n - 1)
        if lo <= hi:
            a[lo : hi + 1] = nu.lucas(j + 1) - a[lo - nu.lucas(j) : hi - nu.lucas(j) + 1]
        j += 1
    return a[:n]


def lucas_variant(m: int) -> int:
    if m <= 1:
        return m
    j = 1
    while not (nu.lucas(j) < m <= nu.lucas(j + 1)):
        j += 1
    return nu.lucas(j + 1) - lucas_variant(m - nu.lucas(j))


# Committed prefix fixture for the Lucas variant, n = 0..20, generated by
# the bracketing convention documented above (j >= 1, base cases 0, 1).
LUCAS_VARIANT_PREFIX = [0, 1, 2, 1, 3, 6, 5, 6, 10, 9, 10, 8, 17, 16, 17, 15, 12, 13, 12, 28, 27]


# -- Beatty oracles -----------------------------------------------------------


def _beatty_batch(kind: str, ms: np.ndarray) -> np.ndarray:
    ms = ms.astype(np.int64)
    if kind == "phi":
        return _vec_floor_phi(ms)
    if kind == "phi2":
        return _vec_floor_phi(ms) + ms
    if kind == "a007067":
        return (_vec_floor_phi(2 * ms) + 1) // 2
    if kind == "a004937":
        return (_vec_floor_phi(2 * ms) + 2 * ms + 1) // 2
    if kind == "a007064":
        return ms + 1 + _vec_floor_phi(2 * ms + 1) // 2
    if kind == "a003623":
        inner = _vec_floor_phi(ms) + ms
        return _vec_floor_phi(inner)
    raise KeyError(kind)


# for m up to here 5 m^2 is exact in float64 and r * r cannot overflow int64
_VEC_PHI_MAX = nu.isqrt((1 << 52) // 5)


def _vec_floor_phi(m: np.ndarray) -> np.ndarray:
    """Exact floor(phi m) elementwise; larger m go through the integer scalar.

    Works in blocks of automata.RUN_BLOCK, so the temporaries stay small
    next to the result.
    """
    if m.size and int(m.max()) > _VEC_PHI_MAX:
        return np.array([nu.floor_phi(int(v)) for v in m], dtype=np.int64)
    out = np.empty(m.shape, dtype=np.int64)
    for lo in range(0, m.size, au.RUN_BLOCK):
        mb = m[lo : lo + au.RUN_BLOCK]
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
        out[lo : lo + mb.size] = (mb + r) // 2
    return out


def a035487_set(limit: int) -> np.ndarray:
    """Members below `limit`: a007067 applied to the values of a007064."""
    ms = np.arange(limit, dtype=np.int64)
    base = _beatty_batch("a007064", ms)
    vals = _beatty_batch("a007067", base)
    return np.unique(vals[vals < limit])


# -- derived sequences --------------------------------------------------------


def count_c_table(n: int) -> np.ndarray:
    """c(0..n-1): occurrence counts of each value in the main sequence.

    Every occurrence of v sits at a position <= 3v + 3 (the lower bound
    floor((phi+2)m/5) <= a(m) forces it), so one table scan suffices.
    """
    window = 3 * n + 4
    a = a105774_table(window)
    counts = np.bincount(a, minlength=max(n, 1))
    return counts[:n].astype(np.int64)


def count_c(v: int) -> int:
    window = 3 * v + 4
    a = a105774_table(window)
    c = int(np.count_nonzero(a == v))
    if c > 2:
        raise AssertionError(f"value {v} occurs {c} times; window reasoning broken")
    return c


def positions(kind: str, n: int) -> list[int]:
    """First n indices (0-based) where the count sequence equals 0, 1 or 2."""
    target = {"p0": 0, "p1": 1, "p2": 2}[kind]
    limit = 8 * n + 32
    c = count_c_table(limit)
    idx = np.flatnonzero(c == target)[:n]
    if idx.size < n:
        raise AssertionError("position scan window too small")
    return [int(i) for i in idx]


def position_value(kind: str, m: int) -> int:
    """Closed-form position oracles (cross-checked against the scan in tests).

    p0(m) = floor(phi^2 (m+1) + 1/2); p2(m) = m + 1 + floor(floor(phi(2m+1))/2);
    p1(0) = 0 and p1(m) = floor(phi p2(m-1) + 1/2) for m >= 1.
    """
    if kind == "p0":
        return nu.floor_phi2_half(m + 1)
    if kind == "p2":
        return m + 1 + nu.floor_phi(2 * m + 1) // 2
    if kind == "p1":
        if m == 0:
            return 0
        return nu.floor_phi_half(position_value("p2", m - 1))
    raise KeyError(kind)


def _positions_batch(kind: str, ms: np.ndarray) -> np.ndarray:
    ms = ms.astype(np.int64)
    if kind == "p0":
        return _beatty_batch("a004937", ms + 1)
    if kind == "p2":
        return _beatty_batch("a007064", ms)
    if kind == "p1":
        prev = _beatty_batch("a007064", np.maximum(ms, 1) - 1)
        vals = _beatty_batch("a007067", prev)
        return np.where(ms == 0, 0, vals)
    raise KeyError(kind)


def sorted_values(n: int) -> np.ndarray:
    """First n terms of the ascending rearrangement of the main sequence.

    Values up to 2n are final once positions up to 6n + 10 are scanned
    (steps of the sorted sequence are at most 2, occurrences of v stop by
    3v + 3).
    """
    window = 6 * n + 10
    a = a105774_table(window)
    return np.sort(a)[:n]


def distinct_transform(n: int) -> np.ndarray:
    """First n values in order of first appearance."""
    window = 8 * n + 32
    a = a105774_table(window)
    _, first = np.unique(a, return_index=True)
    order = np.sort(first)
    if order.size < n:
        raise AssertionError("distinct-transform window too small")
    return a[order[:n]]


def run_lengths(n: int) -> np.ndarray:
    """Lengths of the first n maximal blocks of equal consecutive values."""
    window = 4 * n + 32
    a = a105774_table(window)
    breaks = np.flatnonzero(np.diff(a) != 0)
    if breaks.size < n + 1:
        raise AssertionError("run-length window too small")
    edges = np.concatenate(([-1], breaks))
    return np.diff(edges)[:n]


def w_table(n: int) -> np.ndarray:
    """w(m) = least index i with a(i) >= m, for m = 0..n-1."""
    window = 3 * n + 8
    a = a105774_table(window)
    runmax = np.maximum.accumulate(a)
    return np.searchsorted(runmax, np.arange(n), side="left").astype(np.int64)


def w(m: int) -> int:
    return int(w_table(m + 1)[m])


# -- special values and closed forms ------------------------------------------


def s_value(n: int) -> int:
    """a at the n-th Fibonacci number."""
    return a105774(nu.fib(n))


def t_value(n: int) -> int:
    """a at the n-th Lucas number."""
    return a105774(nu.lucas(n))


def s_closed(n: int) -> Fraction:
    """Exact rational closed form for a(F(n)); matches s_value for n >= 0."""
    base = Fraction(nu.lucas(n), 10) + Fraction(nu.fib(n), 2)
    if n % 2 == 0:
        return base - Fraction(1, 5) * (-1) ** (n // 2)
    return base + Fraction(2, 5) * (-1) ** ((n - 1) // 2)


def t_closed(n: int) -> Fraction:
    """Exact rational closed form for a(L(n)); valid for n >= 2."""
    base = Fraction(3 * nu.lucas(n), 10) + Fraction(3 * nu.fib(n), 2)
    if n % 2 == 0:
        return base + Fraction(2, 5) * (-1) ** (n // 2)
    return base + Fraction(1, 5) * (-1) ** ((n - 1) // 2)


# -- compositions --------------------------------------------------------------


def x_comp(n: int) -> int:
    """a(floor(phi n)) - floor(phi a(n)); defined for n >= 1."""
    a = oracle("a105774").value
    return a(nu.floor_phi(n)) - nu.floor_phi(a(n))


def d_comp(n: int) -> int:
    """floor(phi^2 a(n) + 1/2) - a(floor(phi n)) - a(n)."""
    a = oracle("a105774").value
    an = a(n)
    return nu.floor_phi2_half(an) - a(nu.floor_phi(n)) - an


def _x_comp_table(n: int) -> np.ndarray:
    bmax = int(nu.floor_phi(max(n, 1))) + 2
    a = a105774_table(max(bmax, n) + 2)
    ms = np.arange(n, dtype=np.int64)
    b = _vec_floor_phi(ms)
    return a[b] - _vec_floor_phi(a[ms])


def _d_comp_table(n: int) -> np.ndarray:
    bmax = int(nu.floor_phi(max(n, 1))) + 2
    a = a105774_table(max(bmax, n) + 2)
    ms = np.arange(n, dtype=np.int64)
    an = a[ms]
    c_of_a = (_vec_floor_phi(2 * an) + 2 * an + 1) // 2
    return c_of_a - a[_vec_floor_phi(ms)] - an


# -- oracle registry -------------------------------------------------------------


class SequenceOracle:
    """Named exact evaluator with a cached vectorized table.

    `cheap_scalar` marks oracles whose defining recursion evaluates any
    single argument quickly (the recurrences descend by a golden-ratio
    factor per step); those support :meth:`batch` on arbitrary arguments,
    which lets learners observe exact values at any depth.  Oracles whose
    scalar needs a table scan (sorted rearrangement, occurrence counts)
    only answer inside their table.
    """

    def __init__(self, name: str, scalar, table_fn=None, cheap_scalar=True):
        self.name = name
        self._scalar = scalar
        self._table_fn = table_fn
        self.cheap_scalar = cheap_scalar
        self._table: np.ndarray | None = None
        self._view = memoryview(b"")  # the table, read as Python ints

    def value(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"{self.name} is defined for n >= 0, got {n}")
        if n < len(self._view):
            return self._view[n]
        return int(self._scalar(n))

    def table(self, n: int) -> np.ndarray:
        if self._table is None or len(self._table) < n:
            # let go of the old table first, so a regrow never holds both
            self._table, self._view = None, memoryview(b"")
            if self._table_fn is not None:
                self._table = np.asarray(self._table_fn(n), dtype=np.int64)
                self._view = memoryview(self._table)
            else:  # Python ints: s and t leave int64 past n = 92
                self._table = np.array([self._scalar(i) for i in range(n)], dtype=object)
                self._view = self._table.tolist()
        return self._table[:n]

    def batch(self, ns: np.ndarray) -> np.ndarray:
        """Exact values at arbitrary arguments (needs cheap_scalar), in
        the dtype of the table."""
        if not self.cheap_scalar:
            raise ValueError(f"{self.name} cannot evaluate arbitrary arguments")
        ns = np.ascontiguousarray(ns, dtype=np.int64)
        if ns.size and int(ns.min()) < 0:
            raise ValueError(f"{self.name} is defined for n >= 0, got {int(ns.min())}")
        hi = int(ns.max()) + 1 if ns.size else 0
        cap = 1 << 21
        if self._table is None or len(self._table) < min(hi, cap):
            self.table(min(max(hi, 2), cap))
        t = self._table
        out = np.empty(ns.size, dtype=t.dtype)
        small = ns < len(t)
        out[small] = t[ns[small]]
        for i in np.flatnonzero(~small):
            out[i] = self._scalar(int(ns[i]))
        return out

    def __repr__(self):
        return f"<SequenceOracle {self.name}>"


_REGISTRY = {
    "a105774": lambda: SequenceOracle("a105774", a105774, a105774_table),
    "axy_2_1": lambda: SequenceOracle(
        "axy_2_1", lambda m: a_xy(2, 1, m), lambda n: a_xy_table(2, 1, n)
    ),
    "axy_3_2": lambda: SequenceOracle(
        "axy_3_2", lambda m: a_xy(3, 2, m), lambda n: a_xy_table(3, 2, n)
    ),
    "nested": lambda: SequenceOracle("nested", nested_b, nested_b_table),
    "lucas_variant": lambda: SequenceOracle(
        "lucas_variant", lucas_variant, lucas_variant_table
    ),
    "count": lambda: SequenceOracle("count", count_c, count_c_table, cheap_scalar=False),
    "p0": lambda: SequenceOracle(
        "p0",
        lambda m: position_value("p0", m),
        lambda n: _positions_batch("p0", np.arange(n)),
    ),
    "p1": lambda: SequenceOracle(
        "p1",
        lambda m: position_value("p1", m),
        lambda n: _positions_batch("p1", np.arange(n)),
    ),
    "p2": lambda: SequenceOracle(
        "p2",
        lambda m: position_value("p2", m),
        lambda n: _positions_batch("p2", np.arange(n)),
    ),
    "sorted": lambda: SequenceOracle(
        "sorted", lambda m: int(sorted_values(m + 1)[m]), sorted_values, cheap_scalar=False
    ),
    "distinct": lambda: SequenceOracle(
        "distinct", lambda m: int(distinct_transform(m + 1)[m]), distinct_transform, cheap_scalar=False
    ),
    "run_lengths": lambda: SequenceOracle(
        "run_lengths", lambda m: int(run_lengths(m + 1)[m]), run_lengths, cheap_scalar=False
    ),
    "w": lambda: SequenceOracle("w", w, w_table, cheap_scalar=False),
    "phi": lambda: SequenceOracle(
        "phi", nu.floor_phi, lambda n: _beatty_batch("phi", np.arange(n))
    ),
    "phi2": lambda: SequenceOracle(
        "phi2", nu.floor_phi2, lambda n: _beatty_batch("phi2", np.arange(n))
    ),
    "a007067": lambda: SequenceOracle(
        "a007067", nu.floor_phi_half, lambda n: _beatty_batch("a007067", np.arange(n))
    ),
    "a004937": lambda: SequenceOracle(
        "a004937", nu.floor_phi2_half, lambda n: _beatty_batch("a004937", np.arange(n))
    ),
    "a007064": lambda: SequenceOracle(
        "a007064",
        lambda m: m + 1 + nu.floor_phi(2 * m + 1) // 2,
        lambda n: _beatty_batch("a007064", np.arange(n)),
    ),
    "a003623": lambda: SequenceOracle(
        "a003623",
        lambda m: nu.floor_phi(nu.floor_phi2(m)),
        lambda n: _beatty_batch("a003623", np.arange(n)),
    ),
    "x_comp": lambda: SequenceOracle("x_comp", x_comp, _x_comp_table),
    "d_comp": lambda: SequenceOracle("d_comp", d_comp, _d_comp_table),
    "s": lambda: SequenceOracle("s", s_value),
    "t": lambda: SequenceOracle("t", t_value),
}

ORACLE_NAMES = sorted(_REGISTRY)

AMBIGUOUS_LETTERS = {
    "a": ["a105774"],
    "b": ["phi", "sorted", "nested"],
    "c": ["count", "a004937"],
    "d": ["phi2", "d_comp"],
    "f": ["count"],
    "x": ["x_comp"],
}

_CACHE: dict[str, SequenceOracle] = {}


def oracle(name: str) -> SequenceOracle:
    """Look up an oracle by its disambiguated registry name."""
    found = _CACHE.get(name)
    if found is not None:
        return found
    if name in AMBIGUOUS_LETTERS and name not in _REGISTRY:
        raise ValueError(
            f"{name!r} is ambiguous; did you mean one of {AMBIGUOUS_LETTERS[name]}?"
        )
    if name not in _REGISTRY:
        raise ValueError(f"unknown oracle {name!r}; known: {', '.join(ORACLE_NAMES)}")
    found = _CACHE[name] = _REGISTRY[name]()
    return found
