import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from fibdecide import arith
from fibdecide import automata as au
from fibdecide import logic
from fibdecide import numeration as nu
from fibdecide import reproduce as rp

import reference_chain
import reference_kernel


def small_dfa(pattern):
    return au.regex_compile(pattern, 1)


def test_boolean_algebra_examples():
    a = arith.valid()
    assert not au.minimize(au.intersect(a, au.complement(a))).outputs.any()
    assert au.equivalent(au.minimize(au.intersect(a, a)), au.minimize(a))


@pytest.mark.parametrize("outputs, boolean", [
    ([0, 1, 1], True), ([0, 0, 0], True), ([1, 1, 1], True),
    ([0, 2, 1], False), ([3, 1, 0], False), ([0, -1, 1], False), ([-2, 0, 0], False),
    ([0, 1, 1 << 30], False), ([0, 1, -(1 << 31)], False),
])
def test_is_boolean_means_every_output_is_0_or_1(outputs, boolean):
    aut = au.Automaton(1, np.zeros((3, 2), dtype=np.int32), outputs)
    assert aut.is_boolean is boolean
    assert ("dfa " if boolean else "dfao ") in repr(aut)
    with pytest.raises(AttributeError):
        aut.is_boolean = not boolean
    assert aut.is_boolean is boolean


def test_union_even_odd_covers_valid(catalog):
    from fibdecide import logic

    s = logic.Session(catalog)
    even = s.define("ev", "Ek n=2*k")
    odd = s.define("od", "Ek n=2*k+1")
    assert au.equivalent(au.union(even, odd), arith.valid())


def test_complement_flips_membership():
    v = arith.valid()
    c = au.complement(v)
    assert not c.accepts("10")
    assert c.accepts("11")


def test_regex_matches_python_re():
    """Random arity-1 patterns of depth <= 3 (deeper ones with nested
    quantifiers can keep the backtracking re busy for minutes) accept
    exactly the words re.fullmatch accepts, up to length 8."""
    rng = random.Random(4242)
    # the words of _lang_vector(_, 8): letter k of word w is bit k of w
    words = [format(w, f"0{n}b")[::-1] if n else "" for n in range(9) for w in range(1 << n)]
    for _ in range(150):
        pattern = rp._random_pattern(rng, rng.randint(1, 3), ["0", "1"])
        want = [bool(re.fullmatch(pattern, w)) for w in words]
        assert rp._lang_vector(au.regex_compile(pattern, 1), 8) == want, pattern


def test_regex_arity2_matches_python_re():
    """Arity-2 patterns against re, each symbol [a,b] read as one letter."""
    rng = random.Random(2424)
    letters = "abcd"  # letter 2a + b stands for [a,b]
    # the words of _lang_vector(_, 4): letter k of word w is (w // 4**k) % 4
    words = [
        "".join(letters[(w >> 2 * k) & 3] for k in range(n)) for n in range(5) for w in range(4**n)
    ]
    atoms = [f"[{b >> 1},{b & 1}]" for b in range(4)]
    for _ in range(60):
        pattern = rp._random_pattern(rng, rng.randint(1, 3), atoms)
        spelled = re.sub(r"\[(\d),(\d)\]", lambda m: letters[2 * int(m[1]) + int(m[2])], pattern)
        want = [bool(re.fullmatch(spelled, w)) for w in words]
        assert rp._lang_vector(au.regex_compile(pattern, 2), 4) == want, pattern


def test_regex_past_the_arity_limit_fails_before_the_subsets(monkeypatch):
    def no_subsets(*args):
        raise AssertionError("the subset construction ran")

    monkeypatch.setattr(au, "_subsets", no_subsets)
    with pytest.raises(au.ArityError, match=f"arity {au.MAX_ARITY + 1}"):
        au.regex_compile("", au.MAX_ARITY + 1)


def test_determinize_single_one():
    # one 1 surrounded by zeros: exactly the Fibonacci numbers
    d = small_dfa("0*10*")
    for k in range(2, 26):
        assert d.accepts(nu.encode(nu.fib(k)))
    assert not d.accepts("101")


def test_minimize_idempotent_and_canonical():
    d = small_dfa("10(100*10)*0*")
    m = au.minimize(d)
    m2 = au.minimize(m)
    assert m.n_states == m2.n_states
    assert np.array_equal(m.delta, m2.delta)


def test_minimize_merges():
    # two states recognizing the same residual collapse
    delta = np.array([[1, 2], [1, 2], [1, 2]], dtype=np.int32)
    out = np.array([0, 0, 0], dtype=np.int32)
    assert au.minimize(au.Automaton(1, delta, out, 0)).n_states == 1


def test_equivalent_pipelines_give_identical_canonical_forms(catalog):
    s = logic.Session(catalog)
    via_engine = s.define("half", "z=n/2")
    direct = reference_chain.const_div(2)
    assert au.equivalent(via_engine, direct)
    ca, cb = au.minimize(via_engine), au.minimize(direct)
    assert np.array_equal(ca.delta, cb.delta)
    assert np.array_equal(ca.outputs, cb.outputs)


def test_project_examples():
    assert au.equivalent(au.project(arith.eq(), 0), arith.valid())
    # totality of n -> floor(n/2): projecting the value track leaves all n
    half = logic.Session({}).compile("z=n/2")
    assert half.variables == ("n", "z")
    assert au.equivalent(au.project(half.aut, 1), arith.valid())


def test_project_requires_normalization():
    raw = au.regex_compile("10", 1)
    with pytest.raises(au.AutomatonError):
        au.project(au.cylindrify(raw, [0], 2), 0)


def test_zero_normalize_examples():
    d = au.zero_normalize(small_dfa("010"))
    assert d.accepts("10") and d.accepts("010") and d.accepts("0010")
    assert not d.accepts("100") and not d.accepts("1")
    v = arith.valid()
    assert au.equivalent(au.zero_normalize(v), v)
    for n in range(200):
        w = nu.encode(n)
        assert d.accepts(w) == d.accepts("0" + w)


def test_cylindrify_examples():
    eqr = arith.eq()
    assert au.equivalent(au.cylindrify(eqr, [0, 1], 2), eqr)
    lifted = au.cylindrify(eqr, [0, 2], 3)  # (x, z, y) with x = y
    assert lifted.accepts_numbers(5, 3, 5)
    assert not lifted.accepts_numbers(5, 3, 4)
    back = au.project(lifted, 1)
    assert au.equivalent(back, eqr)


def test_swap_tracks():
    lt = arith.lt()
    gt = au.cylindrify(lt, [1, 0], lt.arity)
    assert gt.accepts_numbers(7, 4) and not gt.accepts_numbers(4, 7)


def test_combine_examples(catalog):
    universal = arith.valid()
    const7 = au.combine([(universal, 7)], domain=arith.valid())
    assert const7.value_at(0) == 7 and const7.value_at(100) == 7
    with pytest.raises(au.AutomatonError, match="witness"):
        au.combine([(universal, 1), (universal, 2)], domain=arith.valid())


def test_regex_examples():
    adjacent = au.regex_compile("[0,0]*[0,1][1,0][0,0]*", 2)
    assert adjacent.accepts_numbers(1, 2)
    for k in range(2, 20):
        assert adjacent.accepts_numbers(nu.fib(k), nu.fib(k + 1))
    assert not adjacent.accepts_numbers(2, 5)
    sm = au.regex_compile("10(100*10)*0*", 1)
    # first members by oracle scan: 2, 3, 5, 8, 13, 20, ...
    assert sm.accepts("10") and sm.accepts("100") and sm.accepts("101010")
    assert not sm.accepts("1010") and not sm.accepts("10100")


def test_regex_parse_error_position():
    with pytest.raises(au.RegexError, match="position"):
        au.regex_compile("10(", 1)
    with pytest.raises(au.RegexError):
        au.regex_compile("[0,1]", 1)  # wrong arity


def test_accepts_and_values(catalog):
    fw = catalog["fibword"]
    assert fw.value_at(1) == 1
    assert fw.value_at(0) == 0
    assert fw.value_at(6) == 1
    m3 = arith.mod_dfao(3, verify_bound=5000)
    assert m3.value_at(7) == 1
    d = small_dfa("0*")
    assert d.accepts("")


def test_is_empty_equivalent_sample():
    empty = au.intersect(arith.valid(), au.complement(arith.valid()))
    assert not au.minimize(empty).outputs.any()
    two_halves_a = logic.Session({}).compile("z=n/2").aut
    two_halves_b = au.minimize(two_halves_a)
    assert au.equivalent(two_halves_a, two_halves_b)


def test_sample_language_matches_scan():
    from fibdecide import seqs

    raw = au.regex_compile("10(100*10)*0*", 1)
    samples = au.sample_language(raw, 8)
    decoded = [nu.decode(w) for w in samples]
    a = seqs.a105774_table(3000)
    later_min = np.minimum.accumulate(a[::-1])[::-1]
    scan = [n for n in range(1, 400) if a[n] < later_min[n + 1]]
    assert decoded == scan[:8]


def _brute_language(a, max_len, limit):
    """The first `limit` accepted words of up to max_len symbols in (length,
    symbol) order, found by running every word; each is a list of symbols."""
    rows, accepting = a.delta.tolist(), set(np.flatnonzero(a.outputs == 1).tolist())
    level = [(a.initial, [])]
    out = [w for q, w in level if q in accepting]
    for _ in range(max_len):
        level = [(t, w + [s]) for q, w in level for s, t in enumerate(rows[q])]
        out += [w for q, w in level if q in accepting]
        if len(out) >= limit:
            break
    return out[:limit]


def test_sample_language_matches_brute_force():
    """Seeded DFAs of arity 1 and 2: the first words sample_language returns
    are those of a run over every word up to 7 symbols, for limits 1-5."""
    rng = np.random.default_rng(20240901)
    for _ in range(200):
        arity, n = int(rng.integers(1, 3)), int(rng.integers(1, 7))
        delta = rng.integers(0, n, size=(n, 1 << arity)).astype(np.int32)
        outputs = (rng.random(n) < rng.choice([0.1, 0.3, 0.6])).astype(np.int32)
        a = au.Automaton(arity, delta, outputs, 0)
        words = _brute_language(a, 7, 5)
        text = ["".join(map(str, w)) if arity == 1 else au._word_text(w, arity) for w in words]
        for limit in range(1, 6):
            got = au.sample_language(a, limit)
            assert got[: len(text)] == text[:limit]


def _overlap_witness(bound):
    """The number whose word combine reports as the overlap of two parts
    n>=bound."""
    session = logic.Session({})
    script = f'def p "n>={bound}":\ndef q "n>={bound}":\ncombine C p=1 q=2:'
    with pytest.raises(au.AutomatonError, match="combine parts overlap; witness: ") as info:
        session.run_script(script)
    return nu.decode(str(info.value).rsplit(" ", 1)[1])


def test_combine_overlap_past_a_billion_is_found_at_once():
    """The shortest overlap of two parts n>=10**9 has 44 symbols; its witness
    is the first such word, 10**9 itself."""
    assert _overlap_witness(10**9) == 10**9


def test_combine_overlap_longer_than_64_symbols_has_a_witness():
    """The shortest overlap of two parts n>=10**14 has 67 symbols, more than
    a fixed 64-symbol cap reads, but fewer than the parts' states."""
    assert _overlap_witness(10**14) == 10**14


def test_serialize_roundtrip():
    add = arith.add()
    text = au.serialize(add)
    back = au.deserialize(text)
    assert au.equivalent(add, back)
    m3 = arith.mod_dfao(3, verify_bound=2000)
    assert "output" in au.serialize(m3)
    back_m3 = au.deserialize(au.serialize(m3))
    assert [back_m3.value_at(n) for n in range(20)] == [m3.value_at(n) for n in range(20)]


def test_deserialize_errors():
    with pytest.raises(au.AutomatonError, match="line"):
        au.deserialize("fibaut 1\narity 1\nstates 2\ninitial 0\naccepting 0\ntrans 0 [0] 5\ntrans 0 [1] 0\ntrans 1 [0] 0\ntrans 1 [1] 0\n")
    with pytest.raises(au.AutomatonError):
        au.deserialize("not an automaton")
    for header in ("arity 1\nstates -1", "arity 99\nstates 1"):
        with pytest.raises(au.AutomatonError, match="out of range"):
            au.deserialize(f"fibaut 1\n{header}\n")


_ONE_STATE = "fibaut 1\narity 1\nstates 1\ninitial 0\n"


def test_deserialize_rejects_accepting_states_out_of_range():
    with pytest.raises(au.AutomatonError, match="line 5: accepting state out of range"):
        au.deserialize(_ONE_STATE + "accepting 0 5 -2\ntrans 0 [0] 0\ntrans 0 [1] 0\n")


def test_deserialize_rejects_a_second_transition():
    text = _ONE_STATE + "accepting 0\ntrans 0 [0] 0\ntrans 0 [1] 0\ntrans 0 [0] 0\n"
    with pytest.raises(au.AutomatonError, match="line 8: second transition for state 0"):
        au.deserialize(text)


def test_deserialize_rejects_accepting_mixed_with_outputs():
    trans = "trans 0 [0] 0\ntrans 0 [1] 0\n"
    for body, line in (
        ("accepting 0\noutput 0 2\n", 6),
        ("output 0 2\naccepting 0\n", 6),
        ("accepting 0\naccepting\n", 6),
        ("output 0 2\noutput 0 3\n", 6),
    ):
        with pytest.raises(au.AutomatonError, match=f"line {line}:"):
            au.deserialize(_ONE_STATE + body + trans)


@pytest.mark.parametrize("directive, value", [("arity", 2), ("states", 2), ("initial", 1)])
def test_deserialize_rejects_a_second_header_line(directive, value):
    """A repeated arity, states or initial line is an error naming it, not
    a silent override of the first."""
    text = _ONE_STATE + f"{directive} {value}\naccepting 0\ntrans 0 [0] 0\ntrans 0 [1] 0\n"
    with pytest.raises(au.AutomatonError, match=f"line 5: second {directive} line"):
        au.deserialize(text)


def test_export_dot_structure():
    v = arith.valid()
    dot = au.export_dot(v, "valid")
    assert dot.count("->") == v.n_states * v.n_symbols + 1  # plus initial arrow
    assert "doublecircle" in dot
    m3 = arith.mod_dfao(3, verify_bound=2000)
    assert "/2" in au.export_dot(m3)


def test_partial_state_count_mod(catalog):
    for k in (2, 3):
        dfao = arith.mod_dfao(k, verify_bound=5000)
        assert au.partial_state_count(dfao, arith.valid()) == 2 * k * k


def test_word_coercions():
    eqr = arith.eq()
    assert eqr.accepts("[1,1][0,0]")
    assert eqr.accepts([(1, 1), (0, 0)])
    assert eqr.accepts([3, 0])
    with pytest.raises(au.AutomatonError):
        eqr.accepts([(1,)])


def test_malformed_words_are_rejected():
    """Every symbol is exactly `arity` bits, each 0 or 1; bracketed text
    holds symbols and whitespace only; integer symbols lie in
    range(2**arity)."""
    eqr, valid = arith.eq(), arith.valid()
    assert au.word_from_string(" [1,0]\n[0 , 1] ", 2) == [2, 1]
    assert au.word_from_string("[][]", 0) == [0, 0]
    assert au.word_from_string("0101", 1) == [0, 1, 0, 1]
    for text in ("[0,2]", "[1,2][2,1]", "[0,1]junk[1,0]", "01", "[0,1", "[0,1,0]", "[,]"):
        with pytest.raises(au.AutomatonError):
            au.word_from_string(text, 2)
    for word in ("[1,2][2,1]", [(1, 2)], [(1, 0, 1)], [4], [-1], [(1, 1), 7]):
        with pytest.raises(au.AutomatonError):
            eqr.accepts(word)
    for word in ([-1], [2], "012", "0 1"):
        with pytest.raises(au.AutomatonError):
            valid.accepts(word)
    with pytest.raises(au.RegexError, match="position"):
        au.regex_compile("[0,2]", 2)
    with pytest.raises(au.AutomatonError, match="line 5"):
        au.deserialize("fibaut 1\narity 1\nstates 1\ninitial 0\ntrans 0 [2] 0\ntrans 0 [1] 0\n")
    assert eqr.accepts([(True, True), (0, 0)]) and valid.accepts(np.array([1, 0]))


def _walk_reference(a, cols):
    """Outputs by digit_matrix at the common width and a per-row delta walk."""
    cols = [np.asarray(c, dtype=np.int64) for c in cols]
    hi = max(int(c.max()) for c in cols)
    width = max(len(nu.encode(hi)), 1)
    mats = [reference_kernel.digit_matrix(c, width) for c in cols]
    out = []
    for i in range(cols[0].size):
        q = a.initial
        for j in range(width):
            sym = 0
            for m in mats:
                sym = (sym << 1) | int(m[i, j])
            q = int(a.delta[q, sym])
        out.append(int(a.outputs[q]))
    return np.array(out, dtype=np.int64)


def _random_dfao(rng, arity, n_states=7, n_values=3):
    delta = rng.integers(0, n_states, (n_states, 1 << arity))
    return au.Automaton(arity, delta, rng.integers(0, n_values, n_states))


@pytest.mark.parametrize("arity", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("hi", [5_000, nu.fib(25), (1 << 31) - 1, 1 << 40, 1 << 62])
def test_run_numbers_matches_digit_walk(arity, hi, monkeypatch):
    """Random DFAOs on random tuples, in blocks of 64 rows and a partial one.

    hi = 2**31 - 1 keeps the int32 remainders at their limit; 2**40 mixes
    values on both sides of 2**31 and takes the int64 path, as 2**62 does
    near the top of int64.  F(24) - 1, F(24) and F(25) sit where the
    remainders are first all read from the packed codes.  A 7-state DFAO
    steps 8 // arity columns at a time (1 at arity 6); the batch is also
    read at widths just below, at and above multiples of that step, and a
    40-state DFAO under a smaller cell cap steps one column at a time.
    """
    monkeypatch.setattr(au, "RUN_BLOCK", 64)
    rng = np.random.default_rng(arity * 7919 + hi % 7919)
    cols = [rng.integers(0, hi, 3 * 64 + 17) for _ in range(arity)]
    for c in cols:
        c[-17:] %= 100  # the last block is small, yet read at the batch width
    edge = [v for v in range((1 << 31) - 2, (1 << 31) + 2) if v <= hi]
    edge += [v for v in (nu.fib(24) - 1, nu.fib(24), nu.fib(25)) if v <= hi]
    cols[0][: len(edge) + 2] = [0, hi] + edge
    cols[-1][64 : 64 + len(edge)] = edge
    step = max(8 // arity, 1)
    for trial in range(3):
        if trial == 2:
            monkeypatch.setattr(au, "_STEP_CELLS", 40 << arity)
        a = _random_dfao(rng, arity, n_states=40 if trial == 2 else 7)
        assert np.array_equal(au.run_numbers(a, cols), _walk_reference(a, cols)), trial
        assert au.run_numbers(a, [[]] * arity).size == 0
        for width in {w for m in (1, 6) for w in (m * step - 1, m * step, m * step + 1)} - {0}:
            # values below F(width + 2), the largest F(width + 1): width columns
            part = [c[:40] % nu.fib(width + 2) for c in cols]
            part[-1][0] = nu.fib(width + 1)
            got = au.run_numbers(a, part)
            assert np.array_equal(got, _walk_reference(a, part)), (trial, width)


def test_run_numbers_dfaos_past_one_block(catalog):
    ns = np.random.default_rng(3).integers(0, 100_000, au.RUN_BLOCK + 5)
    for a in (catalog["fibword"], arith.mod_dfao(3, verify_bound=5000)):
        assert np.array_equal(au.run_numbers(a, [ns]), _walk_reference(a, [ns]))


# -- subset construction and partition refinement against references -------


def _subset_multi(seeds, move_tables, accepting_mask, keep=None):
    """Reference subset construction: np.unique sets keyed by their bytes.

    The successor of a subset on symbol s is the union over tables of
    table[subset, s]; states outside the boolean mask `keep` are dropped
    from every subset, seeds included.
    """
    S = move_tables[0].shape[1]
    index = {}
    subsets = []
    seed_ids = []
    for seed in seeds:
        init = np.unique(np.asarray(seed, dtype=np.int32))
        if keep is not None:
            init = init[keep[init]]
        key = init.tobytes()
        if key not in index:
            index[key] = len(subsets)
            subsets.append(init)
        seed_ids.append(index[key])
    rows = []
    qpos = 0
    while qpos < len(subsets):
        sub = subsets[qpos]
        row = np.empty(S, dtype=np.int32)
        for s in range(S):
            nxt = np.unique(np.concatenate([t[sub, s] for t in move_tables])).astype(np.int32)
            if keep is not None:
                nxt = nxt[keep[nxt]]
            key = nxt.tobytes()
            tid = index.get(key)
            if tid is None:
                tid = len(subsets)
                index[key] = tid
                subsets.append(nxt)
            row[s] = tid
        rows.append(row)
        qpos += 1
    outs = np.array([1 if accepting_mask[sub].any() else 0 for sub in subsets], dtype=np.int32)
    return np.vstack(rows), outs, seed_ids


def _pad_closure(delta, start, symbols):
    """States reachable from `start` reading only `symbols`."""
    seen = {start}
    stack = [start]
    while stack:
        q = stack.pop()
        for s in symbols:
            t = int(delta[q, s])
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return sorted(seen)


def _assert_same_subsets(got, want):
    assert np.array_equal(got[0], want[0]) and got[0].dtype == want[0].dtype
    assert np.array_equal(got[1], want[1]) and got[1].dtype == want[1].dtype
    assert list(got[2]) == list(want[2])


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_subsets_match_reference(arity):
    """Several seeds over one table (zero_normalize) and over the two tables
    of a dropped track with a keep mask (project)."""
    rng = np.random.default_rng(arity * 101)
    for trial in range(40):
        n = int(rng.integers(1, 12))
        delta = rng.integers(0, n, (n, 1 << arity)).astype(np.int32)
        acc = rng.random(n) < 0.3
        accepting = set(np.flatnonzero(acc).tolist())
        seeds = [rng.integers(0, n, int(rng.integers(0, 4))) for _ in range(3)]
        succ = [[(int(t),) for t in delta[:, s]] for s in range(1 << arity)]
        got = au._subsets([x.tolist() for x in seeds], succ, accepting)
        _assert_same_subsets(got, _subset_multi(seeds, [delta], acc))

        keep = rng.random(n) < 0.7
        i0, i1 = au._insert_bit_tables(arity, int(rng.integers(0, arity)))
        tables = [delta[:, i0], delta[:, i1]]
        succ = [
            [tuple(sorted({int(t[q, s]) for t in tables if keep[t[q, s]]})) for q in range(n)]
            for s in range(len(i0))
        ]
        kept_seeds = [[int(q) for q in x if keep[q]] for x in seeds]
        got = au._subsets(kept_seeds, succ, accepting)
        _assert_same_subsets(got, _subset_multi(seeds, tables, acc, keep))


def test_project_and_zero_normalize_build_reference_subsets(monkeypatch):
    """project and zero_normalize each run one subset construction, seeded
    for every non-zero symbol from the successors of the start's
    zero-closure; project's tables are the kept lo/hi successors of the
    dropped track, and its zero-closure is the pad closure of the start.
    zero_normalize of an input whose start loops on the zero symbol runs
    none and returns minimize's arrays; every result of zero_normalize is
    the language of the reference's."""
    calls = []
    real = au._subsets

    def spy(seeds, succ, accepting):
        calls.append(real(seeds, succ, accepting))
        return calls[-1]

    monkeypatch.setattr(au, "_subsets", spy)
    rng = np.random.default_rng(77)
    for trial in range(60):
        arity = int(rng.integers(1, 4))
        n = int(rng.integers(1, 10))
        delta = rng.integers(0, n, (n, 1 << arity)).astype(np.int32)
        acc = rng.random(n) < 0.4
        a = au.Automaton(arity, delta, acc.astype(np.int32), 0, zero_normalized=True)
        assert au.equivalent(au.zero_normalize(a), reference_kernel.zero_normalize(a))
        calls.clear()
        if trial % 2:
            track = int(rng.integers(0, arity))
            au.project(a, track)
            keep = au._coreachable(delta, acc)
            i0, i1 = au._insert_bit_tables(arity, track)
            tables = [delta[:, i0], delta[:, i1]]
            closure = _pad_closure(delta, 0, (0, 1 << (arity - 1 - track)))
        elif delta[0, 0] == 0:
            _assert_same_automaton(au.zero_normalize(a), au.minimize(a), trial)
            assert not calls
            continue
        else:
            au.zero_normalize(a)
            keep = None
            tables = [delta]
            closure = _pad_closure(delta, 0, (0,))
        S = tables[0].shape[1]
        if S == 1 or (keep is not None and not keep[closure].any()):
            assert not calls
            continue
        seeds = [np.concatenate([t[closure, s] for t in tables]) for s in range(1, S)]
        _assert_same_subsets(calls.pop(0), _subset_multi(seeds, tables, acc, keep))
        assert not calls


def _assert_same_automaton(got, want, *context):
    for field in ("arity", "initial", "zero_normalized"):
        assert getattr(got, field) == getattr(want, field), (field, *context)
    for field in ("delta", "outputs"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype and np.array_equal(g, w), (field, *context)


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_project_matches_two_pass_reference(arity):
    """The one padded subset construction gives the bytes of the former two
    passes (reference_kernel): projections of raw and of zero-normalized
    automata, empty ones included, and zero_normalize itself."""
    rng = np.random.default_rng(arity * 1009 + 3)
    empty = 0
    for trial in range(60):
        n = int(rng.integers(1, 9))
        delta = rng.integers(0, n, (n, 1 << arity)).astype(np.int32)
        acc = rng.random(n) < (0.0 if trial % 6 == 0 else 0.35)
        raw = au.Automaton(arity, delta, acc.astype(np.int32))
        zn = au.zero_normalize(raw)
        _assert_same_automaton(zn, reference_kernel.zero_normalize(raw), trial)
        flagged = au.Automaton(arity, delta, acc.astype(np.int32), 0, zero_normalized=True)
        # a projection can be exponential in its input; zn can be 2**n states
        for a in (flagged, zn) if zn.n_states <= 12 else (flagged,):
            for track in range(arity):
                got = au.project(a, track)
                _assert_same_automaton(got, reference_kernel.project(a, track), trial, track)
                empty += not got.outputs.any()
    assert empty


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_project_is_canonical(arity):
    """project's result is already minimal and canonically numbered, so the
    compiler's E step does not minimize it again; empty seeds included."""
    rng = np.random.default_rng(arity * 31 + 5)
    empty = 0
    for trial in range(40):
        n = int(rng.integers(1, 7))
        delta = rng.integers(0, n, (n, 1 << arity)).astype(np.int32)
        acc = rng.random(n) < (0.0 if trial % 5 == 0 else 0.3)
        a = au.zero_normalize(au.Automaton(arity, delta, acc.astype(np.int32)))
        for track in range(arity):
            p = au.project(a, track)
            empty += not p.outputs.any()
            m = au.minimize(p)
            assert (m.initial, m.arity, m.zero_normalized) == (p.initial, p.arity, True)
            for field in ("delta", "outputs"):
                assert getattr(m, field).dtype == getattr(p, field).dtype
                assert np.array_equal(getattr(m, field), getattr(p, field)), (trial, track)
    assert empty


def test_zero_normalize_of_singleton_subsets_at_scale():
    """100,000 states whose subsets all stay singletons: the cost of a
    subset follows its size, not the number of states."""
    n = 100_000
    rng = np.random.default_rng(0)
    pad = np.concatenate([[0], 1 + rng.permutation(n - 1)])  # fixes state 0
    delta = np.stack([pad, rng.permutation(n)], axis=1)
    a = au.Automaton(1, delta, np.arange(n) % 2)
    z = au.zero_normalize(a)
    assert z.zero_normalized and z.n_states == n
    for w in ("1", "10", "1101", "100101"):
        assert z.accepts(w) == a.accepts(w) == z.accepts("00" + w)


def _partial_state_count_reference(a, domain):
    """Dict-based Moore refinement over the useful states of a x domain."""
    p = au.product(a, domain, lambda x, y: x * 2 + y)
    a_out = p.outputs // 2
    d_acc = p.outputs % 2 == 1
    target = d_acc & (a_out == 1) if a.is_boolean else d_acc
    useful = au._coreachable(p.delta, target)
    if not useful[p.initial]:
        return 0
    n, S = p.delta.shape
    allowed = useful[p.delta]
    outkey = np.where(d_acc, a_out, -1)
    states = [q for q in range(n) if useful[q]]
    classes = {}
    for q in states:
        classes.setdefault((int(outkey[q]), tuple(bool(x) for x in allowed[q])), []).append(q)
    ids = {q: i for i, members in enumerate(classes.values()) for q in members}
    changed = True
    while changed:
        buckets = {}
        for q in states:
            succ = tuple(ids[int(p.delta[q, s])] if allowed[q, s] else -1 for s in range(S))
            buckets.setdefault((ids[q], succ), []).append(q)
        changed = len(buckets) != len(set(ids.values()))
        ids = {q: i for i, members in enumerate(buckets.values()) for q in members}
    reach = {ids[p.initial]}
    frontier = [p.initial]
    seen = {p.initial}
    while frontier:
        q = frontier.pop()
        for s in range(S):
            if allowed[q, s]:
                t = int(p.delta[q, s])
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
                reach.add(ids[t])
    return len(reach)


@pytest.mark.parametrize("arity", [1, 2])
def test_partial_state_count_matches_reference(arity):
    rng = np.random.default_rng(arity * 31)
    for trial in range(150):
        n = int(rng.integers(1, 12))
        if trial % 2:
            a = au.Automaton(arity, rng.integers(0, n, (n, 1 << arity)), rng.random(n) < 0.5)
        else:  # values from -1: the sink's key must differ from every value
            a = au.Automaton(arity, rng.integers(0, n, (n, 1 << arity)), rng.integers(-1, 3, n))
        m = int(rng.integers(1, 8))
        domain = au.Automaton(arity, rng.integers(0, m, (m, 1 << arity)), rng.random(m) < 0.6)
        want = _partial_state_count_reference(a, domain)
        assert au.partial_state_count(a, domain) == want, trial
    valid = arith.valid() if arity == 1 else arith.valid_tracks(2)
    for a in (arith.lt(), arith.eq()) if arity == 2 else (arith.mod_dfao(3, verify_bound=2000),):
        assert au.partial_state_count(a, valid) == _partial_state_count_reference(a, valid)


def test_partial_state_count_leaves_numpy_ma_unloaded():
    """numpy 2 imports numpy.ma lazily inside a bare np.unique; a state count
    in a fresh process does not pay that import."""
    code = (
        "import sys, numpy\n"
        "print('numpy.ma' in sys.modules)\n"
        "from fibdecide import arith, automata as au\n"
        "m3, valid = arith.mod_dfao(3, verify_bound=2000), arith.valid()\n"
        "print('numpy.ma' in sys.modules)\n"
        "assert au.partial_state_count(m3, valid) == 18\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(au.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    at_import, before, after = out.stdout.split()
    if at_import == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert (before, after) == ("False", "False")


def test_subset_limit_is_enforced(monkeypatch):
    """Regex compilation, E projection and padding normalization all stop
    at SUBSET_LIMIT subsets."""
    lt = arith.lt()
    sm = small_dfa("10(100*10)*0*")
    monkeypatch.setattr(au, "SUBSET_LIMIT", 3)
    for build in (
        # the third symbol from the end is 1: 8 subsets
        lambda: au.regex_compile("(0|1)*1(0|1)(0|1)", 1),
        lambda: au.project(lt, 0),
        lambda: au.zero_normalize(sm),
    ):
        with pytest.raises(au.DeterminizationLimit):
            build()


def test_refinement_survives_hash_collisions(catalog, monkeypatch):
    """With zero row weights every row hashes alike, so every numpy round
    groups its rows by sorting them as bytes; the canonical forms and the
    reported counts come out the same.  The automata of 100 states have
    _ROW_CELLS cells or more, so the default threshold sends them to the
    numpy rounds; the patched one sends every automaton there."""
    rng = np.random.default_rng(5)
    auts = [catalog[name] for name in sorted(catalog)]
    auts += [_random_dfao(rng, arity, n_states=20) for arity in (1, 2, 3) for _ in range(5)]
    auts += [_random_dfao(rng, arity, n_states=100) for arity in (2, 3) for _ in range(3)]
    assert sum(a.delta.size >= au._ROW_CELLS for a in auts) >= 6
    want = [au.minimize(a) for a in auts]
    valid = arith.valid()
    mods = {k: arith.mod_dfao(k, verify_bound=2000) for k in (2, 3)}
    byte_sorts = []
    unique = np.unique

    def spy(ar, *args, **kwargs):
        byte_sorts.append(np.asarray(ar).dtype.kind == "V")
        return unique(ar, *args, **kwargs)

    monkeypatch.setattr(au, "_ROW_WEIGHTS", np.zeros_like(au._ROW_WEIGHTS))
    monkeypatch.setattr(np, "unique", spy)
    for cells in (au._ROW_CELLS, 0):
        monkeypatch.setattr(au, "_ROW_CELLS", cells)
        for a, m in zip(auts, want):
            got = au.minimize(a)
            assert np.array_equal(got.delta, m.delta) and np.array_equal(got.outputs, m.outputs)
        assert True in byte_sorts, cells  # the byte sort ran inside minimize
        byte_sorts.clear()
    for k, dfao in mods.items():
        assert au.partial_state_count(dfao, valid) == 2 * k * k
    assert True in byte_sorts  # and inside partial_state_count


def _moore_reference(delta, outputs):
    """Moore refinement in plain Python: a dict numbers the signature tuples
    (own class, class of each successor) until a round splits no class."""
    rows = delta.tolist()
    ids = [int(v) for v in outputs]
    while True:
        sigs = {}
        new = [sigs.setdefault((ids[q], *(ids[t] for t in row)), len(sigs)) for q, row in enumerate(rows)]
        if len(sigs) == len(set(ids)):
            return new
        ids = new


def _reachable_part(a):
    seen, order = {a.initial}, [a.initial]
    for q in order:
        for t in a.delta[q].tolist():
            if t not in seen:
                seen.add(t)
                order.append(t)
    index = {q: i for i, q in enumerate(order)}
    delta = [[index[t] for t in a.delta[q].tolist()] for q in order]
    return au.Automaton(a.arity, delta, a.outputs[order], 0)


@pytest.mark.parametrize("arity", [0, 1, 2, 3])
def test_moore_partition_matches_reference(arity):
    """Seeded DFAs and DFAOs whose last states no path from state 0 reaches."""
    rng = np.random.default_rng(arity + 101)
    S = 1 << arity
    for trial in range(60):
        live, dead = int(rng.integers(1, 25)), int(rng.integers(0, 8))
        n = live + dead
        delta = np.vstack([rng.integers(0, live, (live, S)), rng.integers(0, n, (dead, S))])
        outputs = rng.integers(0, 2 if trial % 2 else 4, n)
        got = au._moore_partition(delta, outputs).tolist()
        want = _moore_reference(delta, outputs)
        pairs = set(zip(got, want))
        assert len(pairs) == len(set(got)) == len(set(want)), trial
        a = au.Automaton(arity, delta, outputs, 0)
        m, r = au.minimize(a), au.minimize(_reachable_part(a))
        assert np.array_equal(m.delta, r.delta) and np.array_equal(m.outputs, r.outputs), trial


def _twin_automaton(rng, arity, n_values):
    """A seeded DFA or DFAO of 2m live states where q and q + m are twins
    (same output; each move goes to a twin of the same target), plus up to
    7 states no path from state 0 reaches: 3 to 127 states in all."""
    S = 1 << arity
    m, dead = int(rng.integers(1, 61)), int(rng.integers(0, 8))
    n = 2 * m + dead
    live = np.tile(rng.integers(0, m, (m, S)), (2, 1)) + m * rng.integers(0, 2, (2 * m, S))
    delta = np.vstack([live, rng.integers(0, n, (dead, S))])
    outputs = np.append(np.tile(rng.integers(0, n_values, m), 2), rng.integers(0, n_values, dead))
    return au.Automaton(arity, delta, outputs, 0)


@pytest.mark.parametrize("arity", [0, 1, 2, 3])
def test_row_and_numpy_refinement_agree(arity, monkeypatch):
    """_row_partition gives the classes of the plain-Python Moore reference,
    and minimize gives identical arrays whichever side of _ROW_CELLS it
    refines on, for seeded DFAs and DFAOs with twin and unreachable states."""
    rng = np.random.default_rng(arity + 501)
    for trial in range(40):
        a = _twin_automaton(rng, arity, 2 if trial % 2 else 4)
        got = au._row_partition(a.delta.tolist(), a.outputs.tolist())
        want = _moore_reference(a.delta, a.outputs)
        assert len(set(zip(got, want))) == len(set(got)) == len(set(want)), trial
        forms = []
        for cells in (0, 1 << 30):  # every automaton on numpy rounds, then on rows
            monkeypatch.setattr(au, "_ROW_CELLS", cells)
            forms.append(au.minimize(a))
        _assert_same_automaton(forms[1], forms[0], trial)
        assert forms[0].n_states <= a.n_states // 2 + 7, trial  # twins merge


@pytest.mark.parametrize("arity", [0, 1, 2, 3])
def test_reachable_order_matches_layered_reference(arity):
    """Seeded transition tables, some with states no path reaches, from
    every start state."""
    rng = np.random.default_rng(arity + 301)
    S = 1 << arity
    for trial in range(40):
        live, dead = int(rng.integers(1, 40)), int(rng.integers(0, 8))
        n = live + dead
        delta = np.vstack([rng.integers(0, live, (live, S)), rng.integers(0, n, (dead, S))])
        delta = delta.astype(np.int32)
        for start in range(n):
            got = au._reachable_order(delta, start)
            want = reference_kernel.reachable_order(delta, start)
            assert got.dtype == np.int32 and got.tolist() == want.tolist(), (trial, start)


def _random_product_operand(rng, arity, n_values):
    """A seeded automaton with some states no path from its initial state
    reaches, any initial state and either padding flag."""
    live, dead = int(rng.integers(1, 12)), int(rng.integers(0, 4))
    n = live + dead
    S = 1 << arity
    delta = np.vstack([rng.integers(0, live, (live, S)), rng.integers(0, n, (dead, S))])
    outputs = rng.integers(0, n_values, n)
    return au.Automaton(arity, delta, outputs, int(rng.integers(0, live)), bool(rng.integers(0, 2)))


@pytest.mark.parametrize("arity", [0, 1, 2, 3])
def test_product_matches_layered_reference(arity):
    """The queue pass gives the bytes of the layered product
    (reference_kernel) on seeded DFAs and DFAOs, under every connective
    the compiler uses and a DFAO-valued output function."""
    rng = np.random.default_rng(arity + 401)
    out_fns = [*logic.Compiler._CONNECTIVES.values(), lambda x, y: 3 * x + y]
    for trial in range(60):
        boolean = trial % 2 == 0
        a = _random_product_operand(rng, arity, 2 if boolean else 3)
        b = _random_product_operand(rng, arity, 2 if boolean else 4)
        for i, fn in enumerate(out_fns if boolean else out_fns[-1:]):
            got, want = au.product(a, b, fn), reference_kernel.product(a, b, fn)
            _assert_same_automaton(got, want, trial, i)


def test_combine_fold_matches_layered_reference(monkeypatch):
    """Each product of combine's fold (acceptance bitmasks, then the domain)
    against the layered product, and the combined DFAO unchanged."""
    rng = np.random.default_rng(409)
    real = au.product
    for trial in range(20):
        arity = int(rng.integers(1, 4))
        domain = _random_product_operand(rng, arity, 2)
        # disjoint parts: each accepts where one shared DFAO outputs its index
        dfao = _random_product_operand(rng, arity, 4)
        parts = [
            (au.Automaton(arity, dfao.delta, (dfao.outputs == v).astype(np.int32), dfao.initial), v + 1)
            for v in range(int(rng.integers(1, 4)))
        ]
        steps = []

        def spy(a, b, fn):
            steps.append((real(a, b, fn), reference_kernel.product(a, b, fn)))
            return steps[-1][0]

        monkeypatch.setattr(au, "product", spy)
        combined = au.combine(parts, domain)
        monkeypatch.setattr(au, "product", reference_kernel.product)
        want = au.combine(parts, domain)
        monkeypatch.undo()
        assert len(steps) == len(parts)
        for got, ref in steps:
            _assert_same_automaton(got, ref, trial)
        _assert_same_automaton(combined, want, trial)
