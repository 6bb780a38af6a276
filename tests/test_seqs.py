import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

from fibdecide import numeration as nu
from fibdecide import seqs

A_TABLE = [0, 1, 1, 2, 4, 4, 7, 7, 6, 12, 12, 11, 9, 9, 20, 20, 19, 17, 17, 14, 14]
C_TABLE = [1, 2, 1, 0, 2, 0, 1, 2, 0, 2, 0, 1, 2, 0, 2, 1, 0, 2, 0, 1, 2]
P0 = [3, 5, 8, 10, 13, 16, 18, 21, 24, 26, 29, 31, 34, 37, 39, 42, 45, 47, 50]
P1 = [0, 2, 6, 11, 15, 19, 23, 28, 32, 36, 40, 44, 49, 53, 57, 61, 66, 70, 74]
P2 = [1, 4, 7, 9, 12, 14, 17, 20, 22, 25, 27, 30, 33, 35, 38, 41, 43, 46, 48]
W_TABLE = [0, 1, 3, 4, 4, 6, 6, 6, 9, 9, 9, 9, 9, 14, 14, 14, 14, 14, 14, 14, 14]
APRIME = [0, 1, 2, 4, 7, 6, 12, 11, 9, 20, 19, 17, 14, 15, 33, 32, 30, 27, 28, 22]


def test_a105774_table_prefix():
    assert list(seqs.a105774_table(21)) == A_TABLE
    assert seqs.a105774(9) == 12
    assert seqs.a105774(20) == 14
    assert seqs.a105774(0) == 0


def test_a105774_scalar_matches_table():
    table = seqs.a105774_table(3000)
    for n in list(range(50)) + [997, 2500, 2999]:
        assert seqs.a105774(n) == int(table[n])
    # scalar recursion beyond any table
    assert seqs.a105774(10**9) == seqs.oracle("a105774").value(10**9)


@pytest.mark.parametrize(
    "scalar, table_fn",
    [
        (seqs.a105774, seqs.a105774_table),
        (lambda m: seqs.a_xy(2, 1, m), lambda n: seqs.a_xy_table(2, 1, n)),
        (seqs.nested_b, seqs.nested_b_table),
        (seqs.lucas_variant, seqs.lucas_variant_table),
    ],
    ids=["a105774", "a_xy_2_1", "nested_b", "lucas_variant"],
)
def test_scalar_equals_table(scalar, table_fn):
    table = table_fn(3000)
    assert [scalar(m) for m in range(3000)] == [int(v) for v in table]


def _a105774_reference(m):
    """The defining recursion with a linear bracket scan from j = 2."""
    if m <= 1:
        return m
    j = 2
    while not (nu.fib(j) < m <= nu.fib(j + 1)):
        j += 1
    return nu.fib(j + 1) - _a105774_reference(m - nu.fib(j))


def test_a105774_large_arguments_match_recursion():
    import sys

    args = [10**5 + 7 * i for i in range(10)]
    args += [10**e + e for e in range(6, 31)]
    args += [nu.fib(k) + 1 for k in range(50, 55)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))
    try:
        want = [_a105774_reference(m) for m in args]
    finally:
        sys.setrecursionlimit(limit)
    assert [seqs.a105774(m) for m in args] == want


def test_compositions_do_not_depend_on_cache(monkeypatch):
    n = 5000
    want_x = [int(v) for v in seqs._x_comp(np.arange(n))[1:]]
    want_d = [int(v) for v in seqs._d_comp(np.arange(n))[1:]]
    monkeypatch.setattr(seqs, "_CACHE", {})
    assert [seqs.x_comp(m) for m in range(1, n)] == want_x
    assert [seqs.d_comp(m) for m in range(1, n)] == want_d
    seqs.oracle("a105774").table(10**5)
    assert [seqs.x_comp(m) for m in range(1, n)] == want_x
    assert [seqs.d_comp(m) for m in range(1, n)] == want_d


def test_recurrence_self_check():
    n = 100_000
    a = seqs.a105774_table(n)
    fibs = [nu.fib(k) for k in range(2, 40)]
    for m in range(2, n, 101):
        j = max(k for k, f in enumerate(fibs, start=2) if f < m)
        assert nu.fib(j) < m <= nu.fib(j + 1)
        assert a[m] == nu.fib(j + 1) - a[m - nu.fib(j)]


def test_bounds_from_lower_and_upper():
    n = 100_000
    a = seqs.a105774_table(n)
    phi = seqs.oracle("phi").table(n)
    assert bool((a <= phi).all())
    assert bool((a >= (phi + 2 * np.arange(n)) // 5).all())


def test_parity_matches_floor_phi():
    n = 100_000
    a = seqs.a105774_table(n)
    phi = seqs.oracle("phi").table(n)
    assert bool(((a - phi) % 2 == 0).all())


def test_occurrences_at_most_twice_and_adjacent():
    n = 20_000
    a = seqs.a105774_table(3 * n + 4)
    counts = np.bincount(a, minlength=n)[:n]
    assert int(counts.max()) <= 2
    doubles = np.flatnonzero(counts == 2)
    for v in doubles[:200]:
        where = np.flatnonzero(a == v)
        assert where[1] == where[0] + 1


def test_a_xy_examples():
    assert seqs.a_xy(1, 1, 9) == 12
    assert seqs.a_xy(2, 1, 1) == 1
    assert seqs.a_xy(2, 1, 2) == 3
    assert list(seqs.a_xy_table(1, 1, 300)) == list(seqs.a105774_table(300))


def test_nested_examples():
    assert seqs.nested_b(1) == 1
    assert seqs.nested_b(2) == 1
    assert seqs.nested_b(3) == 2
    table = seqs.nested_b_table(5000)
    for m in range(2, 5000, 97):
        j = 2
        while not (nu.fib(j) < m <= nu.fib(j + 1)):
            j += 1
        assert table[m] == nu.fib(j + 1) - table[table[m - nu.fib(j)]]


def test_lucas_variant_fixture():
    assert list(seqs.lucas_variant_table(21)) == seqs.LUCAS_VARIANT_PREFIX
    assert seqs.lucas_variant(1) == 1
    table = seqs.lucas_variant_table(10_000)
    lucas = [nu.lucas(k) for k in range(1, 25)]
    for m in range(2, 10_000, 83):
        j = max(k for k, L in enumerate(lucas, start=1) if L < m)
        assert nu.lucas(j) < m <= nu.lucas(j + 1)
        assert table[m] == nu.lucas(j + 1) - table[m - nu.lucas(j)]


def test_count_examples():
    assert seqs.count_c(0) == 1
    assert seqs.count_c(1) == 2
    assert seqs.count_c(3) == 0
    assert list(seqs.count_c_table(21)) == C_TABLE


def test_positions_tables():
    assert seqs.positions("p0", len(P0)) == P0
    assert seqs.positions("p1", len(P1)) == P1
    assert seqs.positions("p2", len(P2)) == P2


def test_position_closed_forms_match_scan():
    for kind, table in (("p0", P0), ("p1", P1), ("p2", P2)):
        scan = seqs.positions(kind, 2000)
        closed = [seqs.position_value(kind, m) for m in range(2000)]
        assert scan == closed, kind
        assert closed[: len(table)] == table


def test_sorted_values():
    got = list(seqs.sorted_values(10))
    assert got[:6] == [0, 1, 1, 2, 4, 4]
    full = sorted(seqs.a105774_table(100))
    assert got == full[:10]


def test_sorted_diff_is_two_minus_count():
    n = 10_000
    b = seqs.sorted_values(n + 1).astype(int)
    c = seqs.count_c_table(n)
    assert np.array_equal(np.diff(b), 2 - c)


def test_distinct_transform_prefix():
    assert list(seqs.distinct_transform(len(APRIME))) == APRIME


def test_run_lengths_prefix():
    assert list(seqs.run_lengths(9)) == [1, 2, 1, 2, 2, 1, 2, 1, 2]


def test_w_examples():
    assert list(seqs.w_table(21)) == W_TABLE
    assert seqs.w(2) == 3
    assert seqs.w(13) == 14
    assert seqs.w(0) == 0


def test_special_values_examples():
    assert seqs.s_value(6) == seqs.a105774(8) == 6
    assert seqs.s_closed(6) == Fraction(6)
    for n in range(0, 31):
        assert seqs.s_closed(n) == Fraction(seqs.s_value(n))
    for n in range(2, 31):
        assert seqs.t_closed(n) == Fraction(seqs.t_value(n))


def test_s_recurrence():
    s = [seqs.s_value(n) for n in range(31)]
    for n in range(4, 31):
        assert s[n] == s[n - 1] + s[n - 3] + s[n - 4]


def test_t_recurrence_actual_range():
    """The t recurrence provably starts at n = 6; n = 5 is off by one."""
    t = [seqs.t_value(n) for n in range(31)]
    assert t[5] == 11 and t[4] + t[2] + t[1] == 10
    for n in range(6, 31):
        assert t[n] == t[n - 1] + t[n - 3] + t[n - 4]


def test_comp_sequences():
    assert seqs.x_comp(1) == 0
    xs = seqs.oracle("x_comp").table(10_000)
    assert set(np.unique(xs[1:])) <= {0, 1}
    ds = seqs.oracle("d_comp").table(10_000)
    assert set(np.unique(ds)) <= {-1, 0, 1}


def test_oracle_registry():
    orc = seqs.oracle("a105774")
    assert orc.value(9) == 12
    with pytest.raises(ValueError, match="ambiguous"):
        seqs.oracle("b")
    with pytest.raises(ValueError, match="unknown"):
        seqs.oracle("nope")
    assert "a105774" in seqs.ORACLE_NAMES


def test_oracle_batch_fallback():
    orc = seqs.oracle("a105774")
    ns = np.array([5, 10**7 + 3, 17])
    got = orc.batch(ns)
    assert got[0] == 4 and got[2] == 17
    assert got[1] == seqs.a105774(10**7 + 3)
    with pytest.raises(ValueError):
        seqs.oracle("sorted").batch(np.array([10**9]))


@pytest.mark.parametrize("name", ["a105774", "phi"])
def test_oracle_rejects_negative_arguments_warm_or_cold(monkeypatch, name):
    monkeypatch.setattr(seqs, "_CACHE", {})
    orc = seqs.oracle(name)
    for warm in (False, True):
        if warm:
            orc.table(100)
        with pytest.raises(ValueError, match="n >= 0"):
            orc.value(-1)
        with pytest.raises(ValueError, match="n >= 0"):
            orc.batch(np.array([-1, 3]))


def _warm_table(name):
    orc = seqs.oracle(name)
    orc.table(100)
    return orc.table


# every scalar and count of the module, and SequenceOracle.table on a warm
# table, which a negative count would slice from the end (keyed by the
# oracle's name, with "_oracle" appended where a function has that name)
_NEGATIVE = {
    "a105774": seqs.a105774,
    "a_xy": lambda n: seqs.a_xy(2, 1, n),
    "nested_b": seqs.nested_b,
    "lucas_variant": seqs.lucas_variant,
    "count_c": seqs.count_c,
    "w": seqs.w,
    "s_value": seqs.s_value,
    "t_value": seqs.t_value,
    "s_closed": seqs.s_closed,
    "t_closed": seqs.t_closed,
    "x_comp": seqs.x_comp,
    "d_comp": seqs.d_comp,
    "position_value": lambda n: seqs.position_value("p1", n),
    "a105774_table": seqs.a105774_table,
    "a_xy_table": lambda n: seqs.a_xy_table(2, 1, n),
    "nested_b_table": seqs.nested_b_table,
    "lucas_variant_table": seqs.lucas_variant_table,
    "count_c_table": seqs.count_c_table,
    "w_table": seqs.w_table,
    "positions": lambda n: seqs.positions("p0", n),
    "sorted_values": seqs.sorted_values,
    "distinct_transform": seqs.distinct_transform,
    "run_lengths": seqs.run_lengths,
    "lucas_variant_oracle": lambda n: _warm_table("lucas_variant")(n),
    "sorted": lambda n: _warm_table("sorted")(n),
}


@pytest.mark.parametrize("name", sorted(_NEGATIVE))
def test_negative_arguments_and_counts_raise(name):
    shown = name.removesuffix("_oracle")
    for n in (-1, -3):
        with pytest.raises(ValueError, match=rf"^{shown} is defined for n >= 0, got {n}$"):
            _NEGATIVE[name](n)


# a(F(n)) and a(L(n)) leave int64 after n = 92; their tables go past it
_TABLE_LIMIT = {"s": 120, "t": 120}


@pytest.mark.parametrize(
    "name", [n for n in seqs.ORACLE_NAMES if seqs.oracle(n).cheap_scalar]
)
def test_oracle_values_are_exact_python_ints_warm_or_cold(monkeypatch, name):
    monkeypatch.setattr(seqs, "_CACHE", {})
    orc = seqs.oracle(name)
    limit = _TABLE_LIMIT.get(name, 3000)
    want = [orc._scalar(n) for n in range(limit)]
    for warm in (False, True):
        if warm:
            orc.table(_TABLE_LIMIT.get(name, 4000))
        got = [orc.value(n) for n in range(limit)]
        assert got == want, (name, warm)
        assert {type(v) for v in got} == {int}, (name, warm)


@pytest.mark.parametrize("name, value", [("s", seqs.s_value), ("t", seqs.t_value)])
def test_s_and_t_tables_and_batches_stay_exact_past_int64(monkeypatch, name, value):
    """a(F(n)) and a(L(n)) leave int64 at n = 93 and 92; the table and a
    batch past that hold the exact Python ints, cold or warm."""
    monkeypatch.setattr(seqs, "_CACHE", {})
    orc = seqs.oracle(name)
    want = [value(n) for n in range(100)]
    assert want[-1] > 2**63
    assert orc.batch(np.array([99, 3])).tolist() == [want[99], want[3]]
    assert orc.table(95).tolist() == want[:95]
    assert orc.batch(np.array([99, 100])).tolist() == [want[99], value(100)]
    assert orc.value(100) == value(100) == orc.batch(np.array([100]))[0]


_CHEAP = [n for n in seqs.ORACLE_NAMES if seqs.oracle(n).cheap_scalar]
_BEATTY = {"phi", "phi2", "a007067", "a004937", "a007064", "a003623", "p0", "p1", "p2"}


def _batch_arguments(name, rng):
    """Seeded arguments: inside the table, just past its bound, past 2**21
    and, for the Beatty oracles, past the float path of floor(phi m)."""
    if name in ("s", "t"):  # each value is a(F(n)) or a(L(n)), n digits long
        return rng.integers(0, 120, 60)
    bound = seqs._BATCH_TABLE
    # nested calls itself twice per step, so its cost grows with the argument
    top = 1 << 28 if name == "nested" else 1 << 40
    parts = [
        rng.integers(0, bound, 200),
        bound + rng.integers(0, 64, 60),
        rng.integers(1 << 21, top, 200),
    ]
    if name in _BEATTY:
        parts.append(nu._VEC_PHI_MAX + rng.integers(1, 1 << 20, 40))
    return np.concatenate(parts)


@pytest.mark.parametrize("small", [False, True], ids=["bound", "bound64"])
@pytest.mark.parametrize("name", _CHEAP)
def test_batch_equals_scalar_cold_and_warm(monkeypatch, name, small):
    monkeypatch.setattr(seqs, "_CACHE", {})
    if small:  # more steps per argument, and s and t take theirs too
        monkeypatch.setattr(seqs, "_BATCH_TABLE", 64)
    orc = seqs.oracle(name)
    ns = _batch_arguments(name, np.random.default_rng(18))
    want = [orc._scalar(int(m)) for m in ns]
    assert orc.batch(ns).tolist() == want, "cold"
    assert len(orc._table) <= seqs._BATCH_TABLE
    assert orc.batch(ns[::-1]).tolist() == want[::-1], "warm"
    prefix = 120 if name in ("s", "t") else 5000
    assert orc.batch(np.arange(prefix)).tolist() == orc.table(prefix).tolist()
    if name not in ("s", "t"):
        orc.table(seqs._BATCH_TABLE + 5000)  # a caller's table past the bound
        assert orc.batch(ns).tolist() == want, "past a table from table(n)"


def test_batch_rejects_arguments_past_int64_range():
    with pytest.raises(OverflowError, match="below 2\\*\\*56"):
        seqs.oracle("a105774").batch(np.array([3, 1 << 56]))


def test_beatty_oracles_vs_scalars():
    for name, fn in [
        ("a007067", nu.floor_phi_half),
        ("a004937", nu.floor_phi2_half),
        ("a003623", lambda m: nu.floor_phi(nu.floor_phi2(m))),
    ]:
        table = seqs.oracle(name).table(3000)
        for m in range(0, 3000, 61):
            assert int(table[m]) == fn(m), name


def _traced_peak(fn):
    """fn's result and the peak of traced allocations while it runs."""
    tracemalloc.start()
    try:
        got = fn()
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_vec_floor_phi_works_in_blocks():
    got, peak = _traced_peak(lambda: nu.vec_floor_phi(np.arange(1 << 20)))
    assert peak < 2.5 * got.nbytes
    block = nu.TABLE_BOUND >> 2
    edges = np.arange(1, (1 << 20) // block) * block
    fibs = [nu.fib(j) for j in range(2, 31)]
    for m in sorted({*(edges - 1), *edges, *(edges + 1), *fibs}):
        assert got[m] == nu.floor_phi(int(m)), m
    # Fibonacci arguments up to the vector path's limit: floor(phi F(j)) is
    # the closest call for the float square root
    fibs = [nu.fib(j) for j in range(2, 80) if nu.fib(j) <= nu._VEC_PHI_MAX]
    assert nu.vec_floor_phi(np.array(fibs)).tolist() == [nu.floor_phi(f) for f in fibs]


def test_floor_phi_table_fills_in_place(monkeypatch):
    """The first scalar floor_phi below the bound fills the whole table;
    beside it only a few blocks of a quarter of the table are alive."""
    monkeypatch.setattr(nu, "_PHI", memoryview(b""))
    got, peak = _traced_peak(lambda: nu.floor_phi(5))
    assert got == 8
    assert len(nu._PHI) == nu.TABLE_BOUND
    assert peak < 2.5 * nu._PHI.nbytes


def test_oracle_regrow_never_holds_both_tables():
    orc = seqs.SequenceOracle("lucas_variant", seqs.lucas_variant, seqs.lucas_variant_table)

    def regrow():
        old = orc.table(500_000).nbytes
        tracemalloc.reset_peak()
        return old, orc.table(1_000_000).nbytes

    (old, new), peak = _traced_peak(regrow)
    assert peak < old + new
    assert orc.value(999_999) == seqs.lucas_variant(999_999)


def test_batch_past_the_bound_keeps_a_bounded_table(monkeypatch):
    """The learner asks lucas_variant for arguments past 1.5 million; a
    cold batch over them fills no table past the bound."""
    monkeypatch.setattr(seqs, "_CACHE", {})
    orc = seqs.oracle("lucas_variant")
    ns = np.random.default_rng(7).integers(0, 1_600_000, 60_000)
    ns[0] = 1_599_999
    got, peak = _traced_peak(lambda: orc.batch(ns))
    assert len(orc._table) <= seqs._BATCH_TABLE
    assert peak < 4 * 2**20
    for i in range(0, ns.size, 997):
        assert got[i] == seqs.lucas_variant(int(ns[i]))


def test_compositions_read_their_tables_and_compose_past_them(monkeypatch):
    n = 5001
    want_x = seqs._x_comp(np.arange(n)).tolist()
    want_d = seqs._d_comp(np.arange(n)).tolist()
    # the scalar compositions, independent of the tables x_comp and d_comp
    # read, against the batch forms: a105774 cold, then warm
    monkeypatch.setattr(seqs, "_CACHE", {})
    assert [seqs._x_comp(m) for m in range(n)] == want_x
    assert [seqs._d_comp(m) for m in range(n)] == want_d
    seqs.oracle("a105774").table(10**5)
    assert [seqs._x_comp(m) for m in range(n)] == want_x
    assert [seqs._d_comp(m) for m in range(n)] == want_d
    monkeypatch.setattr(seqs, "_CACHE", {})
    assert [seqs.x_comp(m) for m in range(n)] == want_x
    assert [seqs.d_comp(m) for m in range(n)] == want_d
    a, floor_phi = seqs.a105774, nu.floor_phi
    rng = np.random.default_rng(40)
    for m in rng.integers(1 << 15, 1 << 40, 40).tolist():
        am = a(m)
        assert seqs.x_comp(m) == a(floor_phi(m)) - floor_phi(am), m
        assert seqs.d_comp(m) == nu.floor_phi2_half(am) - a(floor_phi(m)) - am, m
    for name in ("x_comp", "d_comp"):
        assert len(seqs.oracle(name)._table) <= seqs._BATCH_TABLE
        seqs.oracle(name).table(2**15 + 5000)  # a caller's table past the bound
    assert [seqs.x_comp(m) for m in range(n)] == want_x
    assert [seqs.d_comp(m) for m in range(n)] == want_d


def test_warm_composition_reads_skip_the_registry(monkeypatch):
    monkeypatch.setattr(seqs, "_CACHE", {})
    want = [seqs.x_comp(100), seqs.d_comp(100)]

    def no_lookup(name):
        raise AssertionError(f"oracle({name!r}) looked up")

    monkeypatch.setattr(seqs, "oracle", no_lookup)
    assert [seqs.x_comp(100), seqs.d_comp(100)] == want
    with pytest.raises(AssertionError, match="looked up"):
        seqs.x_comp(1000)  # past the table: grown through the registry


@pytest.mark.parametrize("name", ["x_comp", "d_comp"])
def test_first_composition_call_grows_its_table_by_powers_of_two(monkeypatch, name):
    monkeypatch.setattr(seqs, "_CACHE", {})
    value = getattr(seqs, name)
    bound = seqs._BATCH_TABLE
    for m, size in [(0, 1), (5, 8), (8, 16), (3, 16), (1000, 1024), (bound - 1, bound),
                    (bound, bound), (bound + 7, bound), (10**9, bound)]:
        value(m)
        assert len(seqs.oracle(name)._table) == size, m


def test_negative_arguments_raise_on_warm_tables(monkeypatch):
    """A memoryview or list wraps a negative index, so each warm read
    checks the sign first."""
    monkeypatch.setattr(seqs, "_CACHE", {})
    for name, fn in (("x_comp", seqs.x_comp), ("d_comp", seqs.d_comp)):
        fn(100)
        assert len(seqs.oracle(name)._view) > 0
        with pytest.raises(ValueError, match=rf"^{name} is defined for n >= 0, got -1$"):
            fn(-1)
    for name in ("a105774", "phi", "x_comp", "s", "t"):
        orc = seqs.oracle(name)
        orc.table(100)
        with pytest.raises(ValueError, match=rf"^{name} is defined for n >= 0, got -1$"):
            orc.value(-1)


@pytest.mark.parametrize("name", ["s", "t"])
def test_value_reads_the_object_tables_of_s_and_t(monkeypatch, name):
    monkeypatch.setattr(seqs, "_CACHE", {})
    orc = seqs.oracle(name)
    want = orc.table(110).tolist()
    assert want[-1] > 2**63

    def no_scalar(n):
        raise AssertionError(f"{name}({n}) left the table")

    monkeypatch.setattr(orc, "_scalar", no_scalar)
    got = [orc.value(n) for n in range(110)]
    assert got == want
    assert {type(v) for v in got} == {int}
    with pytest.raises(AssertionError, match="left the table"):
        orc.value(110)


def test_value_past_the_index_range_takes_the_scalar():
    orc = seqs.oracle("phi")
    orc.table(100)
    assert orc.value(10**30) == nu.floor_phi(10**30)
    assert seqs.oracle("x_comp").value(2**70) == seqs._x_comp(2**70)


@pytest.mark.parametrize("name, table_fn", [
    ("count", seqs.count_c_table),
    ("sorted", seqs.sorted_values),
    ("distinct", seqs.distinct_transform),
    ("run_lengths", seqs.run_lengths),
    ("w", seqs.w_table),
])
def test_table_scan_values_past_a_warm_table(monkeypatch, name, table_fn):
    monkeypatch.setattr(seqs, "_CACHE", {})
    orc = seqs.oracle(name)
    orc.table(100)
    want = table_fn(151).tolist()
    got = [orc.value(n) for n in range(100, 151)]
    assert got == want[100:]
    assert {type(v) for v in got} == {int}
    assert len(orc._table) == 100
