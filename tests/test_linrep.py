import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from fibdecide import arith
from fibdecide import automata as au
from fibdecide import linrep
from fibdecide import numeration as nu
from fibdecide import seqs
from fibdecide import synth

import reference_linrep


@pytest.fixture(scope="module")
def a_rel(catalog):
    return synth.guess_synchronized(seqs.oracle("a105774"), 16384)


@pytest.fixture(scope="module")
def sorted_rel(catalog):
    return synth.guess_synchronized(seqs.oracle("sorted"), 16384)


@pytest.fixture(scope="module")
def dist_rel(catalog):
    return synth.guess_synchronized(seqs.oracle("distinct"), 16384)


def test_carlitz_base_cases():
    assert linrep.carlitz_C("b") == 0
    assert linrep.carlitz_C("d") == 1
    assert linrep.carlitz_C("bb") == 1
    with pytest.raises(ValueError):
        linrep.carlitz_C("")
    with pytest.raises(ValueError):
        linrep.carlitz_C("xz")


def test_carlitz_matches_the_recursive_reference():
    for size in range(1, 13):
        for u in itertools.product("bd", repeat=size):
            word = "".join(u)
            assert linrep.carlitz_C(word) == reference_linrep.carlitz_C(word), word
    for bad in ("", "xz", "bxd", "b d"):
        for fn in (linrep.carlitz_C, reference_linrep.carlitz_C):
            with pytest.raises(ValueError, match="nonempty word"):
                fn(bad)


def test_carlitz_linrep_matches_recursion():
    lr = linrep.carlitz_linrep()
    assert linrep.evaluate(lr, "b") == 0
    assert linrep.evaluate(lr, "d") == 1
    assert linrep.evaluate(lr, "bb") == 1
    for size in range(1, 11):
        for u in itertools.product("bd", repeat=size):
            word = "".join(u)
            assert linrep.carlitz_C(word) == linrep.evaluate(lr, word)


def test_carlitz_derived_relations():
    c = linrep.carlitz_C
    for size in range(1, 9):
        for v in ("".join(t) for t in itertools.product("bd", repeat=size)):
            assert c(v + "bb") == c(v) + c(v + "b") + c(v + "d")
            assert c(v + "bd") == c(v + "d")
            assert c(v + "db") == c(v + "b") + 2 * c(v + "d")
            assert c(v + "dd") == c(v) + c(v + "b") + c(v + "d")


def test_counting_values(a_rel):
    lr = linrep.counting_linrep(a_rel)
    c = seqs.count_c_table(200)
    assert linrep.evaluate(lr, [0, 0] + linrep.count_word(4)) == 2 == c[4]
    assert linrep.evaluate(lr, [0, 0] + linrep.count_word(3)) == 0 == c[3]
    for n in range(150):
        assert linrep.evaluate(lr, linrep.count_word(n)) == int(c[n])


def test_counting_eq_relation():
    lr = linrep.counting_linrep(arith.eq())
    for n in range(100):
        assert linrep.evaluate(lr, [0] + linrep.count_word(n)) == 1


def test_counting_requires_binary():
    with pytest.raises(au.ArityError):
        linrep.counting_linrep(arith.valid())


def test_subtract_and_zero(a_rel):
    lr = linrep.counting_linrep(a_rel)
    diff = linrep.subtract(lr, lr)
    assert linrep.is_zero(diff)
    zero = linrep.LinRep((0, 0), {0: ((1, 0), (0, 1)), 1: ((0, 1), (1, 0))}, (1, 1))
    assert linrep.is_zero(zero)
    nonzero = linrep.counting_linrep(arith.eq())
    assert not linrep.is_zero(nonzero)
    assert linrep.zero_witness(nonzero) is not None


def test_subtract_mixed_value(a_rel):
    lr_eq = linrep.counting_linrep(arith.eq())
    lr_zero = linrep.subtract(lr_eq, lr_eq)
    diff = linrep.subtract(lr_eq, lr_zero)
    assert linrep.evaluate(diff, [0] + linrep.count_word(5)) == 1


def test_alphabet_mismatch():
    with pytest.raises(ValueError, match="alphabet"):
        linrep.subtract(linrep.carlitz_linrep(), linrep.counting_linrep(arith.eq()))


def test_check_permutation(a_rel, sorted_rel, catalog):
    assert linrep.check_permutation(a_rel, sorted_rel, catalog)
    assert linrep.check_permutation(a_rel, a_rel, catalog)
    assert not linrep.check_permutation(a_rel, arith.eq(), catalog)


def test_check_permutation_requires_function(a_rel, catalog):
    not_function = au.zero_normalize(au.union(arith.eq(), arith.linear((2, -1))))
    with pytest.raises(ValueError, match="certified"):
        linrep.check_permutation(a_rel, not_function, catalog)


def test_check_distinct_transform(a_rel, dist_rel, catalog):
    ok, failed = linrep.check_distinct_transform(a_rel, dist_rel, catalog)
    assert ok, failed
    ok_eq, _ = linrep.check_distinct_transform(arith.eq(), arith.eq(), catalog)
    assert ok_eq
    bad, failed = linrep.check_distinct_transform(a_rel, arith.eq(), catalog)
    # the first FALSE condition ends the certificate
    assert not bad and failed == ["distinct_range"]


def _mutant_difference(rel, q, s, target):
    """Counting difference of rel against rel with transition (q, s) sent to target."""
    delta = np.array(rel.delta)
    delta[q, s] = target
    mutated = au.Automaton(rel.arity, delta, rel.outputs, rel.initial)
    return linrep.subtract(linrep.counting_linrep(rel), linrep.counting_linrep(mutated))


def _pinned_mutant(a_rel):
    return _mutant_difference(a_rel, 1, 3, (a_rel.delta[1, 3] + 1) % a_rel.n_states)


def test_mutation_makes_nonzero(a_rel):
    diff = _pinned_mutant(a_rel)
    # the first nonzero word of the breadth-first closure, pinned
    assert linrep.zero_witness(diff) == "11"


def test_zero_witness_stops_at_the_first_nonzero_word(a_rel, monkeypatch):
    diff = _pinned_mutant(a_rel)
    calls = []
    reduce = linrep._reduce
    monkeypatch.setattr(linrep, "_reduce", lambda vec, basis: calls.append(1) or reduce(vec, basis))
    assert linrep.zero_witness(diff) == "11"
    # the full closure of this difference reduces 31 rows; its witness needs 7
    assert len(calls) <= 8, len(calls)


def _dense_evaluate(lr, word):
    vec = list(lr.left)
    for letter in word:
        m = lr.mats[letter]
        vec = [sum(vec[i] * m[i][j] for i in range(lr.dim)) for j in range(lr.dim)]
    return sum(v * r for v, r in zip(vec, lr.right))


def test_evaluate_matches_dense_fold(a_rel):
    diff = linrep.subtract(
        linrep.counting_linrep(a_rel), linrep.counting_linrep(arith.eq())
    )
    assert any(c < 0 for c in diff.left)
    for length in range(9):
        for w in range(1 << length):
            word = [(w >> i) & 1 for i in range(length)]
            assert linrep.evaluate(diff, word) == _dense_evaluate(diff, word)


def _random_linrep(rng, dim):
    """A LinRep over {0, 1} with small entries, most of them zero."""

    def vector():
        return tuple(rng.choice((0, 0, 0, 1, 1, 2, -1, 3)) for _ in range(dim))

    mats = {letter: tuple(vector() for _ in range(dim)) for letter in (0, 1)}
    return linrep.LinRep(vector(), mats, vector())


def _random_linreps():
    """Seeded representations of dimension 1-20, two differences with
    negative entries and one with a Fraction left vector."""
    rng = random.Random(37)
    reps = [_random_linrep(rng, dim) for dim in (1, 2, 3, 5, 8, 13, 20)]
    reps.append(linrep.subtract(reps[2], reps[3]))
    reps.append(linrep.subtract(reps[6], _random_linrep(rng, 4)))
    base = reps[4]
    reps.append(linrep.LinRep(
        tuple(Fraction(x, 3) for x in base.left), base.mats, base.right))
    return reps


def _words_up_to(length):
    return [list(w) for n in range(length + 1) for w in itertools.product((0, 1), repeat=n)]


def _trie_nodes(lr):
    """The nodes reachable from lr's prefix memo, counted by a walk."""
    count, stack = 0, [lr._prefixes["trie"]]
    while stack:
        children = stack.pop()
        count += len(children)
        stack.extend(grand for _, grand in children.values())
    return count


def test_memoized_evaluate_equals_the_plain_fold():
    reps = _random_linreps()
    assert any(c < 0 for lr in reps[7:9] for c in lr.left)
    assert isinstance(reps[9].left[0], Fraction)
    rng = random.Random(5)
    words = _words_up_to(8)
    words += rng.choices(words, k=200)  # repeats, read again from the memo
    for lr in reps:
        rng.shuffle(words)
        for word in words:
            assert linrep.evaluate(lr, word) == _dense_evaluate(lr, word), (lr.dim, word)
        assert 0 < _trie_nodes(lr) == lr._prefixes["nodes"] <= linrep.PREFIX_NODES


def test_evaluate_memo_stays_under_its_cap(monkeypatch):
    monkeypatch.setattr(linrep, "PREFIX_NODES", 8)
    lr = _random_linreps()[5]
    rng = random.Random(8)
    words = _words_up_to(6) * 2
    rng.shuffle(words)
    cleared = 0
    for word in words:
        before = lr._prefixes["trie"]
        assert linrep.evaluate(lr, word) == _dense_evaluate(lr, word), word
        cleared += lr._prefixes["trie"] is not before
        assert _trie_nodes(lr) <= lr._prefixes["nodes"] <= 8
    assert cleared > 10


def test_evaluate_unknown_letter_adds_no_node():
    lr = _random_linreps()[3]
    assert linrep.evaluate(lr, [0, 1]) == _dense_evaluate(lr, [0, 1])
    nodes = _trie_nodes(lr)
    for word in ([0, 1, 7], ["x"], [2]):
        with pytest.raises(KeyError):
            linrep.evaluate(lr, word)
        assert _trie_nodes(lr) == lr._prefixes["nodes"] == nodes


def test_representations_never_share_a_memo():
    a = _random_linreps()[4]
    twin = linrep.LinRep(a.left, a.mats, a.right)
    diff = linrep.subtract(a, twin)
    assert twin == a
    assert len({id(lr._prefixes) for lr in (a, twin, diff)}) == 3
    linrep.evaluate(a, [1, 0, 1])
    assert _trie_nodes(a) == 3
    assert _trie_nodes(twin) == _trie_nodes(diff) == 0
    assert linrep.evaluate(diff, [1, 0, 1]) == 0
    assert _trie_nodes(a) == 3 and _trie_nodes(twin) == 0


def test_padding_stability(a_rel):
    from fibdecide.reproduce import linrep_padding_stability

    ok, detail = linrep_padding_stability(a_rel)
    assert ok, detail


def test_bounded_length_completeness():
    # on small instances, zero-equivalence agrees with exhaustive evaluation
    lr_a = linrep.counting_linrep(arith.eq())
    lr_b = linrep.counting_linrep(au.cylindrify(arith.eq(), [1, 0], 2))
    diff = linrep.subtract(lr_a, lr_b)
    bound = lr_a.dim + lr_b.dim
    exhaustive_zero = all(
        linrep.evaluate(diff, [int(b) for b in f"{w:0{L}b}"]) == 0
        for L in range(bound + 1)
        for w in range(1 << L)
    )
    assert exhaustive_zero == linrep.is_zero(diff)


def test_counting_equals_brute_membership(a_rel):
    lr = linrep.counting_linrep(a_rel)
    limit = 1000
    xs, ns = [], []
    for n in range(limit):
        for x in range(3 * n + 4):
            xs.append(x)
            ns.append(n)
    got = arith.accepts_number_pairs(a_rel, np.array(xs), np.array(ns))
    counts = np.zeros(limit, dtype=np.int64)
    np.add.at(counts, np.array(ns)[got], 1)
    for n in range(limit):
        assert linrep.evaluate(lr, [0, 0] + linrep.count_word(n)) == counts[n]


def _letters(word):
    return [int(c) for c in word]


def _assert_shortest_witness(lr, witness, none_bound=8):
    """witness is nonzero and every shorter word is zero; with no witness,
    every word up to none_bound letters is zero."""
    if witness is not None:
        assert linrep.evaluate(lr, _letters(witness)) != 0, witness
    bound = none_bound if witness is None else len(witness) - 1
    for word in _words_up_to(bound):
        assert linrep.evaluate(lr, word) == 0, (witness, word)


def test_zero_witness_matches_the_rational_reference(a_rel, sorted_rel, dist_rel):
    cases = _random_linreps()
    count_a = linrep.counting_linrep(a_rel)
    for other in (sorted_rel, dist_rel, a_rel):
        cases.append(linrep.subtract(count_a, linrep.counting_linrep(other)))
    rng = random.Random(44)
    n, symbols = a_rel.n_states, 1 << a_rel.arity
    for _ in range(50):
        q, s = rng.randrange(n), rng.randrange(symbols)
        cases.append(_mutant_difference(
            a_rel, q, s, (a_rel.delta[q, s] + rng.randrange(1, n)) % n))
    verdicts = set()
    for lr in cases:
        witness = linrep.zero_witness(lr)
        assert witness == reference_linrep.zero_witness(lr), lr.dim
        _assert_shortest_witness(lr, witness)
        verdicts.add(witness is None)
    assert verdicts == {True, False}


def test_zero_test_reads_numpy_and_fraction_entries_exactly(a_rel, sorted_rel):
    count_a = linrep.counting_linrep(a_rel)
    plain = [_pinned_mutant(a_rel),
             linrep.subtract(count_a, linrep.counting_linrep(sorted_rel))]
    plain += _random_linreps()[:9]
    big = 2**40 + 1
    for lr in plain:
        want = linrep.zero_witness(lr)
        # numpy int64 entries whose fraction-free products pass 2**63
        wide = {a: np.array(m, dtype=np.int64) * big for a, m in lr.mats.items()}
        twin = linrep.LinRep(lr.left, {a: tuple(tuple(map(int, row)) for row in m)
                                       for a, m in wide.items()}, lr.right)
        as_numpy = linrep.LinRep(np.array(lr.left, dtype=np.int64), wide,
                                 np.array(lr.right, dtype=np.int64))
        assert linrep.zero_witness(twin) == linrep.zero_witness(as_numpy) == want
        if lr is plain[0]:
            assert abs(linrep.evaluate(twin, _letters(want))) > 2**63
        # Fractions in L, R and the matrix of letter 0; the lcms give lr back
        zero_sixths = tuple(tuple(Fraction(c, 6) for c in row) for row in lr.mats[0])
        fractions = linrep.LinRep(tuple(Fraction(x, 3) for x in lr.left),
                                  {**lr.mats, 0: zero_sixths},
                                  tuple(Fraction(x, 7) for x in lr.right))
        assert linrep.zero_witness(fractions) == want
        assert reference_linrep.zero_witness(fractions) == want
