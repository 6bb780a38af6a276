"""Exact big-integer oracles for every sequence the package reasons about.

These are the ground truth that automata are synthesized from and verified
against.  Everything is exact integer arithmetic; tables are filled with
vectorized numpy block recurrences, and scalars and batches fall back to
the defining recurrences above the table.

Single letters like b, c, d are hopelessly overloaded across the related
literature (b is both the lower Wythoff sequence and the ascending
rearrangement; d is both floor(phi^2 n) and a difference sequence), so the
registry only carries disambiguated names; :func:`oracle` rejects the
ambiguous letters with a pointer to the candidates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

import numpy as np

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
]


def _natural(name: str, n: int) -> int:
    """n itself; a negative argument or count raises ValueError."""
    if n < 0:
        raise ValueError(f"{name} is defined for n >= 0, got {n}")
    return n


# -- core recurrence tables -------------------------------------------------


def a105774_table(n: int) -> np.ndarray:
    """Values a(0..n-1) of the self-referential Fibonacci recurrence.

    a(m) = F(j+1) - a(m - F(j)) for F(j) < m <= F(j+1); filled one
    Fibonacci block at a time, each block depending only on earlier
    entries, so every block is a single vector operation.
    """
    return a_xy_table(1, 1, _natural("a105774_table", n))


def a105774(m: int) -> int:
    return a_xy(1, 1, _natural("a105774", m))


def a_xy_table(x: int, y: int, n: int) -> np.ndarray:
    """Generalized recurrence a(m) = F(j+1)*x - a(m - F(j))*y."""
    a = np.zeros(max(_natural("a_xy_table", n), 2), dtype=np.int64)
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
    _natural("a_xy", m)
    total, coef = 0, 1
    while m > 1:
        j = nu.fib_bracket(m)
        total += coef * nu.fib(j + 1) * x
        coef *= -y
        m -= nu.fib(j)
    return total + coef * m


def nested_b_table(n: int) -> np.ndarray:
    """Nested variant b(m) = F(j+1) - b(b(m - F(j)))."""
    b = np.zeros(max(_natural("nested_b_table", n), 2), dtype=np.int64)
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
    if _natural("nested_b", m) <= 1:
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
    a = np.zeros(max(_natural("lucas_variant_table", n), 4), dtype=np.int64)
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
    if _natural("lucas_variant", m) <= 1:
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
    floor_phi = nu.vec_floor_phi
    if kind == "phi":
        return floor_phi(ms)
    if kind == "phi2":
        return floor_phi(ms) + ms
    if kind == "a007067":
        return (floor_phi(2 * ms) + 1) // 2
    if kind == "a004937":
        return (floor_phi(2 * ms) + 2 * ms + 1) // 2
    if kind == "a007064":
        return ms + 1 + floor_phi(2 * ms + 1) // 2
    if kind == "a003623":
        inner = floor_phi(ms) + ms
        return floor_phi(inner)
    raise KeyError(kind)


# -- derived sequences --------------------------------------------------------


def count_c_table(n: int) -> np.ndarray:
    """c(0..n-1): occurrence counts of each value in the main sequence.

    Every occurrence of v sits at a position <= 3v + 3 (the lower bound
    floor((phi+2)m/5) <= a(m) forces it), so one table scan suffices.
    """
    window = 3 * _natural("count_c_table", n) + 4
    a = a105774_table(window)
    counts = np.bincount(a, minlength=max(n, 1))
    return counts[:n].astype(np.int64)


def count_c(v: int) -> int:
    window = 3 * _natural("count_c", v) + 4
    a = a105774_table(window)
    c = int(np.count_nonzero(a == v))
    if c > 2:
        raise AssertionError(f"value {v} occurs {c} times; window reasoning broken")
    return c


def positions(kind: str, n: int) -> list[int]:
    """First n indices (0-based) where the count sequence equals 0, 1 or 2."""
    target = {"p0": 0, "p1": 1, "p2": 2}[kind]
    limit = 8 * _natural("positions", n) + 32
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
    _natural("position_value", m)
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
    window = 6 * _natural("sorted_values", n) + 10
    a = a105774_table(window)
    return np.sort(a)[:n]


def distinct_transform(n: int) -> np.ndarray:
    """First n values in order of first appearance."""
    window = 8 * _natural("distinct_transform", n) + 32
    a = a105774_table(window)
    _, first = np.unique(a, return_index=True)
    order = np.sort(first)
    if order.size < n:
        raise AssertionError("distinct-transform window too small")
    return a[order[:n]]


def run_lengths(n: int) -> np.ndarray:
    """Lengths of the first n maximal blocks of equal consecutive values."""
    window = 4 * _natural("run_lengths", n) + 32
    a = a105774_table(window)
    breaks = np.flatnonzero(np.diff(a) != 0)
    if breaks.size < n + 1:
        raise AssertionError("run-length window too small")
    edges = np.concatenate(([-1], breaks))
    return np.diff(edges)[:n]


def w_table(n: int) -> np.ndarray:
    """w(m) = least index i with a(i) >= m, for m = 0..n-1."""
    window = 3 * _natural("w_table", n) + 8
    a = a105774_table(window)
    runmax = np.maximum.accumulate(a)
    return np.searchsorted(runmax, np.arange(n), side="left").astype(np.int64)


def w(m: int) -> int:
    return int(w_table(_natural("w", m) + 1)[m])


# -- special values and closed forms ------------------------------------------


def s_value(n: int) -> int:
    """a at the n-th Fibonacci number."""
    return a105774(nu.fib(_natural("s_value", n)))


def t_value(n: int) -> int:
    """a at the n-th Lucas number."""
    return a105774(nu.lucas(_natural("t_value", n)))


def s_closed(n: int) -> Fraction:
    """Exact rational closed form for a(F(n)); matches s_value for n >= 0."""
    base = Fraction(nu.lucas(_natural("s_closed", n)), 10) + Fraction(nu.fib(n), 2)
    if n % 2 == 0:
        return base - Fraction(1, 5) * (-1) ** (n // 2)
    return base + Fraction(2, 5) * (-1) ** ((n - 1) // 2)


def t_closed(n: int) -> Fraction:
    """Exact rational closed form for a(L(n)); valid for n >= 2."""
    base = Fraction(3 * nu.lucas(_natural("t_closed", n)), 10) + Fraction(3 * nu.fib(n), 2)
    if n % 2 == 0:
        return base + Fraction(2, 5) * (-1) ** (n // 2)
    return base + Fraction(1, 5) * (-1) ** ((n - 1) // 2)


# -- compositions --------------------------------------------------------------


def x_comp(n: int) -> int:
    """a(floor(phi n)) - floor(phi a(n)); defined for n >= 1."""
    return _table_first("x_comp", n)


def d_comp(n: int) -> int:
    """floor(phi^2 a(n) + 1/2) - a(floor(phi n)) - a(n)."""
    return _table_first("d_comp", n)


def _table_first(name: str, n: int) -> int:
    """oracle(name).value(n), read from the table of the cached oracle when
    it holds n; below _BATCH_TABLE the oracle's table is first grown, by its
    batch form, to the power of two above n."""
    # the sign check comes first: the view would wrap a negative index
    try:
        if n >= 0:
            return _CACHE[name]._view[n]
    except (KeyError, IndexError):
        pass
    found = oracle(name)
    if len(found._view) <= n < _BATCH_TABLE:
        found.table(1 << int(n).bit_length())
    return found.value(n)


def _x_comp_scalar(n: int) -> int:
    """x_comp(n) composed from a105774's oracle and floor(phi m)."""
    a = oracle("a105774").value
    return a(nu.floor_phi(_natural("x_comp", n))) - nu.floor_phi(a(n))


def _d_comp_scalar(n: int) -> int:
    """d_comp(n) composed from a105774's oracle and floor(phi^2 m + 1/2)."""
    a = oracle("a105774").value
    an = a(_natural("d_comp", n))
    return nu.floor_phi2_half(an) - a(nu.floor_phi(n)) - an


def _x_comp_batch(ms: np.ndarray) -> np.ndarray:
    """x_comp at each m, from a105774's batch and the vector floor(phi m)."""
    a = oracle("a105774").batch
    return a(nu.vec_floor_phi(ms)) - nu.vec_floor_phi(a(ms))


def _d_comp_batch(ms: np.ndarray) -> np.ndarray:
    """d_comp at each m; floor(phi^2 v + 1/2) is (floor(2 phi v) + 2v + 1) // 2."""
    a = oracle("a105774").batch
    am = a(ms)
    return (nu.vec_floor_phi(2 * am) + 2 * am + 1) // 2 - a(nu.vec_floor_phi(ms)) - am


def _python_ints(scalar):
    """Pointwise form of a scalar whose values leave int64: Python ints
    in an object array."""
    return lambda ms: np.array([scalar(m) for m in ms.tolist()], dtype=object)


# -- defining steps for batch evaluation ----------------------------------------

# F(0..92) and L(1..90): every term below 2**63
_FIB_LADDER = np.array([nu.fib(j) for j in range(93)], dtype=np.int64)
_LUCAS_LADDER = np.array([nu.lucas(j) for j in range(1, 91)], dtype=np.int64)


def _ladder_step(x: int = 1, y: int = 1, ladder: np.ndarray = _FIB_LADDER):
    """a(m) = R(j+1)*x - a(m - R(j))*y for R(j) < m <= R(j+1), over m >= 2,
    where R(j), R(j+1) are the neighbours of m in the ladder (Fibonacci
    for a105774 and a_xy, Lucas from j = 1 for lucas_variant).

    The bracket is looked up again after the recursion, so no array of j
    stays alive while it runs."""

    def step(a, m):
        below = a(m - ladder[np.searchsorted(ladder, m) - 1])
        return ladder[np.searchsorted(ladder, m)] * x - below * y

    return step


def _nested_step(b, m):
    """b(m) = F(j+1) - b(b(m - F(j))) for F(j) < m <= F(j+1), over m >= 2."""
    below = b(b(m - _FIB_LADDER[np.searchsorted(_FIB_LADDER, m) - 1]))
    return _FIB_LADDER[np.searchsorted(_FIB_LADDER, m)] - below


# -- oracle registry -------------------------------------------------------------


# batch reads arguments below this from the table and fills the table no
# further; larger arguments take the oracle's defining step.  It is the
# bound of numeration's floor(phi m) table.
_BATCH_TABLE = nu.TABLE_BOUND
# the int64 oracles stay below 8 (m + 1), so below this their values and
# the steps' products fit int64
_BATCH_MAX = 1 << 56


class SequenceOracle:
    """Named exact evaluator with a cached vectorized table.

    `step(answer, ms)` is the oracle's defining step over an array of
    arguments past the table (each >= 2); `answer` evaluates the smaller
    arguments the step recurses on.  Oracles with a step support
    :meth:`batch` on arbitrary arguments (`cheap_scalar`), which lets
    learners observe exact values at any depth; the recurrences descend
    by a golden-ratio factor per step.  Oracles whose scalar needs a
    table scan (sorted rearrangement, occurrence counts) have no step and
    only answer inside their table.
    """

    def __init__(self, name: str, scalar, table_fn, step=None):
        self.name = name
        self._scalar = scalar
        self._table_fn = table_fn
        self._step = step
        self.cheap_scalar = step is not None
        self._table: np.ndarray | None = None
        self._view = memoryview(b"")  # the table, read as Python ints

    def value(self, n: int) -> int:
        # the sign check comes first: the view would wrap a negative index
        if n < 0:
            raise ValueError(f"{self.name} is defined for n >= 0, got {n}")
        try:
            return self._view[n]
        except IndexError:
            return int(self._scalar(n))

    def table(self, n: int) -> np.ndarray:
        _natural(self.name, n)
        if self._table is None or len(self._table) < n:
            # let go of the old table first, so a regrow never holds both
            self._table, self._view = None, memoryview(b"")
            t = np.asarray(self._table_fn(n))
            if t.dtype == object:  # Python ints: s and t leave int64 past n = 92
                self._table, self._view = t, t.tolist()
            else:
                self._table = t.astype(np.int64, copy=False)
                self._view = memoryview(self._table)
        return self._table[:n]

    def batch(self, ns: np.ndarray) -> np.ndarray:
        """Exact values at arbitrary arguments (needs cheap_scalar), in
        the dtype of the table.  The table is filled to at most
        _BATCH_TABLE entries; arguments past it take the defining step."""
        if not self.cheap_scalar:
            raise ValueError(f"{self.name} cannot evaluate arbitrary arguments")
        ns = np.ascontiguousarray(ns, dtype=np.int64)
        hi = 0
        if ns.size:
            _natural(self.name, int(ns.min()))
            hi = int(ns.max()) + 1
            if hi > _BATCH_MAX:
                raise OverflowError(f"{self.name} batch needs arguments below 2**56, got {hi - 1}")
        need = min(hi, _BATCH_TABLE)
        if self._table is None or len(self._table) < need:
            self.table(need)
        return self._answer(ns)

    def _answer(self, ns: np.ndarray) -> np.ndarray:
        t = self._table
        past = ns >= len(t)
        if not past.any():
            return t[ns]
        got = self._step(self._answer, ns[past])
        out = t[np.where(past, 0, ns)]
        out[past] = got
        return out

    def __repr__(self):
        return f"<SequenceOracle {self.name}>"


def _pointwise(name: str, scalar, fn) -> SequenceOracle:
    """An oracle whose vector form fn is exact at any argument: its table
    is fn over 0..n-1, and its step is fn itself."""
    return SequenceOracle(name, scalar, lambda n: fn(np.arange(n)), lambda _, ms: fn(ms))


_REGISTRY = {
    "a105774": lambda: SequenceOracle("a105774", a105774, a105774_table, _ladder_step()),
    "axy_2_1": lambda: SequenceOracle(
        "axy_2_1", lambda m: a_xy(2, 1, m), lambda n: a_xy_table(2, 1, n), _ladder_step(2, 1)
    ),
    "axy_3_2": lambda: SequenceOracle(
        "axy_3_2", lambda m: a_xy(3, 2, m), lambda n: a_xy_table(3, 2, n), _ladder_step(3, 2)
    ),
    "nested": lambda: SequenceOracle("nested", nested_b, nested_b_table, _nested_step),
    "lucas_variant": lambda: SequenceOracle(
        "lucas_variant", lucas_variant, lucas_variant_table, _ladder_step(ladder=_LUCAS_LADDER)
    ),
    "count": lambda: SequenceOracle("count", count_c, count_c_table),
    "p0": lambda: _pointwise(
        "p0", partial(position_value, "p0"), partial(_positions_batch, "p0")
    ),
    "p1": lambda: _pointwise(
        "p1", partial(position_value, "p1"), partial(_positions_batch, "p1")
    ),
    "p2": lambda: _pointwise(
        "p2", partial(position_value, "p2"), partial(_positions_batch, "p2")
    ),
    "sorted": lambda: SequenceOracle(
        "sorted", lambda m: int(sorted_values(m + 1)[m]), sorted_values
    ),
    "distinct": lambda: SequenceOracle(
        "distinct", lambda m: int(distinct_transform(m + 1)[m]), distinct_transform
    ),
    "run_lengths": lambda: SequenceOracle(
        "run_lengths", lambda m: int(run_lengths(m + 1)[m]), run_lengths
    ),
    "w": lambda: SequenceOracle("w", w, w_table),
    "phi": lambda: _pointwise("phi", nu.floor_phi, partial(_beatty_batch, "phi")),
    "phi2": lambda: _pointwise("phi2", nu.floor_phi2, partial(_beatty_batch, "phi2")),
    "a007067": lambda: _pointwise("a007067", nu.floor_phi_half, partial(_beatty_batch, "a007067")),
    "a004937": lambda: _pointwise(
        "a004937", nu.floor_phi2_half, partial(_beatty_batch, "a004937")
    ),
    "a007064": lambda: _pointwise(
        "a007064",
        lambda m: m + 1 + nu.floor_phi(2 * m + 1) // 2,
        partial(_beatty_batch, "a007064"),
    ),
    "a003623": lambda: _pointwise(
        "a003623", lambda m: nu.floor_phi(nu.floor_phi2(m)), partial(_beatty_batch, "a003623")
    ),
    "x_comp": lambda: _pointwise("x_comp", _x_comp_scalar, _x_comp_batch),
    "d_comp": lambda: _pointwise("d_comp", _d_comp_scalar, _d_comp_batch),
    "s": lambda: _pointwise("s", s_value, _python_ints(s_value)),
    "t": lambda: _pointwise("t", t_value, _python_ints(t_value)),
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
