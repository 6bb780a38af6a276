import hashlib
import re

import numpy as np
import pytest

from fibdecide import arith
from fibdecide import automata as au
from fibdecide import logic
from fibdecide import numeration as nu

import reference_chain


def test_valid_examples():
    v = arith.valid()
    assert v.accepts("10010001")
    assert v.accepts("")
    assert not v.accepts("0110")
    assert v.zero_normalized


def test_eq_lt_leq_examples():
    assert arith.eq().accepts_numbers(5, 5)
    assert not arith.eq().accepts_numbers(5, 6)
    assert arith.lt().accepts_numbers(4, 7)
    assert not arith.lt().accepts_numbers(4, 4)
    assert arith.leq().accepts_numbers(4, 4)


def test_lt_matches_decode_order():
    lt = arith.lt()
    for x in range(40):
        for y in range(40):
            assert lt.accepts_numbers(x, y) == (x < y)


def test_lt_equals_additive_construction(catalog):
    from fibdecide import logic

    s = logic.Session(catalog)
    additive = s.define("lt2", "Et t>=1 & x+t=y")
    assert au.equivalent(additive, arith.lt())


def test_add_examples_and_totality():
    add = arith.add()
    assert add.accepts_numbers(1, 1, 2)
    for n in range(0, 1000, 37):
        assert add.accepts_numbers(0, n, n)
    assert not add.accepts_numbers(2, 3, 4)


def test_add_total_function_small():
    add = arith.add()
    limit = 300
    xs, ys = np.meshgrid(np.arange(limit), np.arange(limit), indexing="ij")
    xs, ys = xs.ravel(), ys.ravel()
    assert bool(arith.accepts_number_pairs(add, xs, ys, xs + ys).all())
    assert not arith.accepts_number_pairs(add, xs, ys, xs + ys + 1).any()
    assert not arith.accepts_number_pairs(add, xs[1:], ys[1:], xs[1:] + ys[1:] - 1).any()


def test_batch_membership_rejects_negatives_and_ragged_columns():
    with pytest.raises(ValueError, match="natural"):
        arith.accepts_number_pairs(arith.eq(), [-3], [0])
    with pytest.raises(ValueError, match="natural"):
        arith.dfao_values(arith.fibword(), [-1])
    with pytest.raises(ValueError, match="equal length"):
        arith.accepts_number_pairs(arith.eq(), [1, 2], [1])


def test_add_exhaustive_cross_check():
    """Every (x, y, x + y) with x, y < 2000, x-major in 2**20 blocks, and the
    first 50,000 wrong sums x + y + 1 rejected."""
    add = arith.add()
    n = 2000
    for lo in range(0, n * n, 1 << 20):
        xs, ys = np.divmod(np.arange(lo, min(lo + (1 << 20), n * n)), n)
        assert bool(arith.accepts_number_pairs(add, xs, ys, xs + ys).all())
    xs, ys = np.divmod(np.arange(50_000), n)
    assert not arith.accepts_number_pairs(add, xs, ys, xs + ys + 1).any()


def _admitted(aut):
    """aut as the compiler applies it by name, which is what a certificate's
    queries see."""
    return logic.Session({"a": aut}).compiler._value_dfa("a", 1)


def _digest(aut) -> str:
    h = hashlib.sha256()
    for arr in (aut.delta, aut.outputs):
        h.update(f"{arr.dtype} {arr.shape}".encode())
        h.update(arr.tobytes())
    h.update(f"{aut.initial} {aut.zero_normalized}".encode())
    return h.hexdigest()


# add() as it was built when a 2000x2000 exhaustive check accepted it
ADD_DIGEST = "7b23c78ddee08629b2fdb09837cd1c0b9c279f5adfd827fe78af2b880ef723ec"


def test_add_is_byte_identical_to_the_exhaustively_checked_build():
    assert _digest(arith.add()) == ADD_DIGEST


def test_add_equals_its_admitted_form():
    """The certificate proves the admitted form; it is add() itself."""
    assert _digest(_admitted(arith.add())) == _digest(arith.add())


@pytest.mark.parametrize("name, body", [
    ("zero", "z=x+y+1"),
    ("functional", "x+y<=z"),
    ("step", "(y=0 & z=x) | (y>0 & z=x+y+1)"),
])
def test_add_certificate_needs_each_formula(name, body):
    """Each relation breaks one formula only (total follows from zero and
    step), and the error names that formula."""
    wrong = logic.Session({}).define("r", body)
    formula = dict(arith._ADD_CERT)[name]
    with pytest.raises(arith.CatalogError, match=f"fails {name}: {re.escape(formula)}$"):
        arith._certify_add(wrong)


def test_add_certificate_rejects_every_differing_mutant():
    """Redirect each transition out of a live state of add() to another state
    (seeded).  A mutant whose admitted form is not addition must fail the
    certificate, whether or not it passes a 300x300 grid; one that differs
    only on invalid tracks or padding is admitted as add() and must pass."""
    add = arith.add()
    n = add.n_states
    live = [q for q in range(n) if add.outputs[q] or (add.delta[q] != q).any()]
    rng = np.random.default_rng(0)
    xs, ys = np.divmod(np.arange(300 * 300), 300)
    differing = grid_fooled = 0
    for q in live:
        for s in range(add.n_symbols):
            delta = add.delta.copy()
            delta[q, s] = (delta[q, s] + rng.integers(1, n)) % n
            mutant = au.Automaton(3, delta, add.outputs, add.initial)
            if au.equivalent(_admitted(mutant), add):
                arith._certify_add(mutant)
                continue
            differing += 1
            with pytest.raises(arith.CatalogError, match=r"add certificate fails \w+: A"):
                arith._certify_add(mutant)
            grid_fooled += bool(
                arith.accepts_number_pairs(mutant, xs, ys, xs + ys).all()
                and not arith.accepts_number_pairs(mutant, xs, ys, xs + ys + 1).any()
            )
    assert len(live) == n - 1 and differing > 0 and grid_fooled > 0


def test_add_commutes():
    add = arith.add()
    swapped = au.cylindrify(add, [1, 0, 2], add.arity)
    assert au.equivalent(add, swapped)


def test_const_mul_div_examples():
    assert arith.linear((1, -1)).accepts_numbers(9, 9)
    assert arith.linear((2, -1)).accepts_numbers(6, 12)
    assert not arith.linear((2, -1)).accepts_numbers(6, 11)
    d2 = logic.Session({}).compile("z=n/2").aut
    assert d2.accepts_numbers(7, 3)
    for n in range(200):
        assert d2.accepts_numbers(n, n // 2)
    with pytest.raises(logic.CompileError, match="positive constant divisor"):
        logic.Session({}).compile("z=n/0")
    zero = logic.Session({}).compile("z=0*n")
    assert zero.variables == ("n", "z")
    assert zero.aut.accepts_numbers(7, 0) and not zero.aut.accepts_numbers(7, 1)


# -- linear: the one relation builder ------------------------------------------

# eq, lt and leq as the hand-built tables made them
RELATION_DIGESTS = {
    "eq": "0e26b8aa7cc552cb8185223a0bbc35f61cf2148e11e06fa5be199b6fbdf3de43",
    "lt": "35f2da8e8f0730abb8cdd9bfdf4868cf6fe2dd7ae8bf3fbaaeeef0f775e049a9",
    "leq": "4fda16f451e737c5100b4b26fd0f712e08d153385875f7efcbfd8092d3769877",
}


@pytest.mark.parametrize("name", sorted(RELATION_DIGESTS))
def test_order_relations_are_byte_identical_to_the_tables(name):
    assert _digest(getattr(arith, name)()) == RELATION_DIGESTS[name]


def _same_bytes(a, b):
    return (
        np.array_equal(a.delta, b.delta)
        and np.array_equal(a.outputs, b.outputs)
        and (a.initial, a.zero_normalized) == (b.initial, b.zero_normalized)
    )


def test_linear_is_byte_identical_to_the_relation_chain():
    for c in range(13):
        assert _same_bytes(arith.linear((1,), -c), reference_chain.const(c)), c
    for c in range(1, 8):
        assert _same_bytes(arith.linear((c, -1)), reference_chain.const_mul(c)), c
        # c*z <= n and n <= c*z + c - 1 over (n, z)
        both = au.intersect(arith.linear((-1, c), 0, "<="), arith.linear((1, -c), 1 - c, "<="))
        div = au.zero_normalize(au.minimize(both))
        assert _same_bytes(div, reference_chain.const_div(c)), c
        assert _same_bytes(logic.Session({}).compile(f"z=n/{c}").aut, div), c


def test_linear_agrees_with_brute_force():
    """Seeded forms sum(c_i x_i) + k OP 0 against every tuple below 40."""
    rng = np.random.default_rng(9)
    ops = {"=": np.equal, "<": np.less, "<=": np.less_equal}
    for trial in range(72):
        n = trial % 4
        coeffs = tuple(int(c) for c in rng.integers(-6, 7, size=n))
        k = int(rng.integers(-60, 61))
        op = ("=", "<", "<=")[trial % 3]
        if op == "=" and n:  # aim k at reachable values so = accepts somewhere
            k = -int(np.dot(coeffs, rng.integers(0, 40, size=n)))
        aut = arith.linear(coeffs, k, op)
        cols = np.meshgrid(*[np.arange(40)] * n, indexing="ij")
        cols = [c.ravel() for c in cols]
        total = sum((c * x for c, x in zip(coeffs, cols)), np.zeros(40**n, dtype=np.int64)) + k
        want = ops[op](total, 0)
        got = arith.accepts_number_pairs(aut, *cols) if n else np.array([aut.accepts("")])
        assert np.array_equal(got, want), (coeffs, k, op)


def test_linear_fifty_times():
    """c*n is built directly, not by 49 projected additions."""
    assert arith.linear((50, -1), 0, "=").n_states == 5129
    assert logic.Session({}).eval("Ex,y x=50*y+7 & y=1000")


def test_linear_reads_a_large_constant_from_a_track():
    """x = 10**9 is the recognizer of one string, not O(10**9) balance states."""
    big = 10**9
    assert _same_bytes(arith.linear((1,), -big), reference_chain.const(big))
    assert logic.Session({}).compile(f"x={big}").aut.n_states == 45
    ops = {"=": np.equal, "<": np.less, "<=": np.less_equal}
    for coeffs, k in (((1, -1), -big), ((2, -3), -big), ((-1, 5), big), ((3, 1), 1 - big)):
        # x straddles -k / c_0, so every OP flips inside the sampled points
        centre = -k // coeffs[0]
        xs, ys = np.meshgrid(np.arange(centre - 100, centre + 100), np.arange(40), indexing="ij")
        xs, ys = xs.ravel(), ys.ravel()
        total = coeffs[0] * xs + coeffs[1] * ys + k
        for op, holds in ops.items():
            got = arith.accepts_number_pairs(arith.linear(coeffs, k, op), xs, ys)
            assert np.array_equal(got, holds(total, 0)), (coeffs, k, op)


def test_linear_rejects_too_many_tracks_before_building():
    with pytest.raises(au.ArityError, match="arity 13"):
        arith.linear((1,) * 13)


def test_catalog_contents(catalog):
    for name in ("valid", "eq", "lt", "leq", "add", "phin", "phi2n",
                 "a007067", "a007064", "a004937", "a003623", "a035487",
                 "fibword", "F"):
        assert name in catalog


def test_phin_examples(catalog):
    phin = catalog["phin"]
    assert phin.accepts_numbers(0, 0)
    assert phin.accepts_numbers(10, 16)
    assert not phin.accepts_numbers(10, 17)


def test_phin_steps(catalog):
    from fibdecide import logic

    s = logic.Session(catalog)
    assert s.eval("An,y,z ($phin(n,y) & $phin(n+1,z)) => (z=y+1 | z=y+2)")


def test_beatty_partition_inside_engine(catalog):
    from fibdecide import logic

    s = logic.Session(catalog)
    assert s.eval(
        "Ax (x>=1) => ((En n>=1 & $phin(n,x)) <=> (~Em m>=1 & $phi2n(m,x)))"
    )


def test_phi2n_examples(catalog):
    phi2n = catalog["phi2n"]
    assert phi2n.accepts_numbers(0, 0)
    assert phi2n.accepts_numbers(1, 2)
    assert phi2n.accepts_numbers(10, 26)


def test_beatty_catalog_examples(catalog):
    assert catalog["a007067"].accepts_numbers(1, 2)
    assert catalog["a004937"].accepts_numbers(1, 3)


def test_beatty_ranges_disjoint(catalog):
    from fibdecide import logic

    s = logic.Session(catalog)
    assert s.eval("Ax (Em $a007067(m,x)) <=> (~En $a007064(n,x))")


def test_fibword_values(catalog):
    fw = catalog["fibword"]
    got = [fw.value_at(n) for n in range(14)]
    assert got == list(arith.fibword_prefix(14))
    assert got[:5] == [0, 1, 0, 0, 1]


def _fibword_prefix_by_list(n):
    """The morphism applied letter by letter to a Python list."""
    word = [0]
    while len(word) < n:
        nxt = []
        for ch in word:
            nxt.extend((0, 1) if ch == 0 else (0,))
        word = nxt
    return word[:n]


@pytest.mark.parametrize("n", [*range(51), 100_000])
def test_fibword_prefix_matches_the_list_morphism(n):
    got = arith.fibword_prefix(n)
    assert got.dtype == np.int32
    assert got.tolist() == _fibword_prefix_by_list(n)


def test_phin_check_names_the_first_wrong_n(catalog, monkeypatch):
    # each mutant redirects one transition of phin to the next state; in
    # blocks of 4, several first misses (all below 16) sit past the first
    monkeypatch.setattr(au, "RUN_BLOCK", 4)
    phin = catalog["phin"]
    n = 64
    assert arith._first_floor_phi_miss(phin, n) is None
    ns = np.arange(n)
    want_vals = np.array([nu.floor_phi(int(m)) for m in ns])
    misses = set()
    for q in range(phin.n_states):
        for sym in range(4):
            delta = phin.delta.copy()
            delta[q, sym] = (delta[q, sym] + 1) % phin.n_states
            mutant = au.zero_normalize(au.Automaton(2, delta, phin.outputs, phin.initial))
            ok = arith.accepts_number_pairs(mutant, ns, want_vals)
            want = None if ok.all() else int(np.flatnonzero(~ok)[0])
            assert arith._first_floor_phi_miss(mutant, n) == want
            misses.add(want)
    assert max(m for m in misses if m is not None) >= 8


def test_mod_dfao_examples():
    m3 = arith.mod_dfao(3, verify_bound=20000)
    assert m3.value_at(7) == 1
    assert au.partial_state_count(m3, arith.valid()) == 18
    m2 = arith.mod_dfao(2, verify_bound=20000)
    vals = arith.dfao_values(m2, np.arange(500))
    assert np.array_equal(vals, np.arange(500) % 2)
    with pytest.raises(ValueError):
        arith.mod_dfao(1)


def test_mod2_matches_engine_even(catalog):
    from fibdecide import logic

    s = logic.Session(catalog)
    even = s.define("even", "Ek n=2*k")
    m2 = arith.mod_dfao(2, verify_bound=5000)
    even_from_mod = au.zero_normalize(
        au.intersect(
            au.Automaton(1, m2.delta, (m2.outputs == 0).astype(np.int32), m2.initial),
            arith.valid(),
        )
    )
    assert au.equivalent(even, even_from_mod)


def test_add_unique_inside_engine(catalog):
    from fibdecide import logic

    s = logic.Session(catalog)
    assert s.eval("Ax,y Ez $add(x,y,z)")
    assert s.eval("~Ex,y,z1,z2 z1!=z2 & $add(x,y,z1) & $add(x,y,z2)")


def test_lt_strict_total_order(catalog):
    from fibdecide import logic

    s = logic.Session(catalog)
    assert s.eval("~Ex $lt(x,x)")
    assert s.eval("Ax,y,z ($lt(x,y) & $lt(y,z)) => $lt(x,z)")
    assert s.eval("Ax,y $lt(x,y) | $lt(y,x) | $eq(x,y)")
    assert s.eval("~Ex,y $lt(x,y) & $eq(x,y)")
