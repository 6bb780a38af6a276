import numpy as np
import pytest

import reference_synth
from fibdecide import arith
from fibdecide import automata as au
from fibdecide import numeration as nu
from fibdecide import seqs
from fibdecide import synth


def test_guess_dfa_accept_all():
    learned = synth.guess_dfa(lambda w: True, 1, bound=10)
    assert learned.n_states == 1
    assert learned.accepts("10110")


def test_guess_dfa_valid_language():
    member = lambda w: "11" not in "".join(str(s) for s in w)
    learned = synth.guess_dfa(member, 1, bound=12)
    assert au.equivalent(au.zero_normalize(learned), arith.valid())


def test_guess_dfa_even_numbers():
    member = lambda w: ("11" not in "".join(map(str, w))) and (
        nu.decode("".join(map(str, w))) % 2 == 0
    )
    learned = synth.guess_dfa(member, 1, bound=14)
    ns = np.arange(2000)
    got = arith.accepts_number_pairs(au.zero_normalize(learned), ns)
    assert np.array_equal(got, ns % 2 == 0)


def test_guess_dfa_budget_exhaustion(monkeypatch):
    # membership depends on exact length: no finite automaton fits in 3 states
    member = lambda w: len(w) in (5, 9, 13, 17)
    monkeypatch.setattr(synth, "_DFA_MAX_STATES", 3)
    with pytest.raises(synth.SynthesisError):
        synth.guess_dfa(member, 1, bound=18)


def test_guess_synchronized_identity():
    ident = seqs.SequenceOracle("ident", lambda n: n, lambda n: np.arange(n))
    learned = synth.guess_synchronized(ident, 4096)
    assert au.equivalent(learned, arith.eq())


def test_guess_synchronized_floor_phi(catalog):
    learned = synth.guess_synchronized(seqs.oracle("phi"), 8192)
    assert au.equivalent(learned, catalog["phin"])


def test_certify_function_examples(catalog):
    good = synth.certify_function(arith.eq(), catalog)
    assert good.ok and good.failures == []
    # a relation accepting both (0,0) and (0,1) fails uniqueness
    c0, c1 = arith.linear((1,), 0), arith.linear((1,), -1)
    c01 = au.union(
        au.intersect(au.cylindrify(c0, [0], 2), au.cylindrify(c0, [1], 2)),
        au.intersect(au.cylindrify(c0, [0], 2), au.cylindrify(c1, [1], 2)),
    )
    bad_rel = au.zero_normalize(au.union(c01, arith.eq()))
    bad = synth.certify_function(bad_rel, catalog)
    assert not bad.ok
    assert "fn_unique" in bad.failures or "function_unique" in bad.failures


def test_function_certificate_check_names(catalog):
    verdict = synth.function_certificate("fn")(arith.eq(), catalog)
    assert verdict.checks == [("fn_total", True), ("fn_unique", True)]


def test_certify_recurrence_main(catalog):
    rel = synth.guess_synchronized(seqs.oracle("a105774"), 16384)
    verdict = synth.recurrence_certificate("fib")(rel, catalog)
    assert verdict.ok
    # the identity relation does not satisfy the recurrence
    wrong = synth.recurrence_certificate("fib")(arith.eq(), catalog)
    assert not wrong.ok


def test_synthesize_certified_reports(catalog):
    report = synth.synthesize_certified(
        seqs.oracle("a105774"),
        [synth.function_certificate("fn"), synth.recurrence_certificate("fib")],
        schedule=(16384,),
        catalog=catalog,
    )
    assert report.verdict == "CERTIFIED"
    assert report.samples_used == 16384
    text = report.to_text()
    assert "CERTIFIED" in text and "fibaut 1" in text


def test_synthesize_exhaustion_on_hard_case(catalog, monkeypatch):
    monkeypatch.setattr(synth, "_PAIR_MAX_STATES", 300)
    monkeypatch.setattr(synth, "_REPLAY_ROUNDS", 5)
    report = synth.synthesize_certified(
        seqs.oracle("axy_3_2"),
        [synth.function_certificate("fn"),
         synth.recurrence_certificate("fib", x=3, y=2)],
        schedule=(1024, 2048),
        catalog=catalog,
    )
    assert report.verdict == "EXHAUSTED"
    assert report.detail


def test_learner_roundtrip_property():
    from fibdecide.reproduce import learner_roundtrip

    ok, detail = learner_roundtrip(20240901)
    assert ok, detail


def test_certified_candidate_replays_oracle(catalog):
    report = synth.synthesize_certified(
        seqs.oracle("nested"),
        [synth.function_certificate("fn"), synth.recurrence_certificate("fib_nested")],
        schedule=(16384,),
        catalog=catalog,
    )
    assert report.verdict == "CERTIFIED"
    want = seqs.oracle("nested").table(report.samples_used)
    ok = arith.accepts_number_pairs(
        report.candidate, np.arange(report.samples_used), want
    )
    assert bool(ok.all())


def test_observation_table_unknowns_never_merge_known_conflicts():
    # suffixes over both tracks, so that states near the 64-sample bound
    # store UNKNOWN entries (over symbols 0 and 1 alone they never do)
    words = synth._suffix_words(4, 2, 6, 1)
    sfx = synth._SuffixData(words)
    table_vals = seqs.oracle("a105774").table(64)
    src = synth._PairSource(sfx, table=np.asarray(table_vals))
    tab = synth.ObservationTable(src, max_states=256, max_depth=12)
    tab.hypothesis()
    sigs = tab.sigs
    # beyond the 64 samples the table really is three-valued
    assert (sigs == synth.UNKNOWN).any()
    assert len({s.tobytes() for s in sigs}) == len(sigs)
    # every two states clash on an entry that both know: joins only add
    # known entries, so no merge ever hid a known conflict
    known = sigs != synth.UNKNOWN
    clash = (sigs[:, None] != sigs[None]) & known[:, None] & known[None]
    apart = clash.any(axis=2)
    np.fill_diagonal(apart, True)
    assert apart.all()


class _StubSource:
    width = 12

    def describe(self, state):
        return repr(state)


@pytest.mark.parametrize("density", [0.0, 0.3, 0.9])
def test_observation_table_lookup_matches_reference(density):
    # ternary signatures drawn around a few binary patterns, with UNKNOWN
    # entries at the given density: exact hits, joins and new states
    rng = np.random.default_rng(round(10 * density) + 3)
    width = _StubSource.width
    bases = rng.integers(0, 2, size=(6, width)).astype(np.uint8)
    tab = synth.ObservationTable(_StubSource(), max_states=400, max_depth=0)
    ref = reference_synth.ListTable()
    got, want = [], []
    for _ in range(400):
        sig = bases[rng.integers(len(bases))].copy()
        sig[rng.random(width) < density] = synth.UNKNOWN
        i = tab._lookup(sig)
        got.append(tab._add(sig, None, 0) if i is None else i)
        j = ref.lookup(sig)
        want.append(ref.add(sig.copy()) if j is None else j)
    assert got == want
    assert np.array_equal(tab.sigs, np.array(ref.sigs))


def test_suffix_data_matches_bitwise_reference():
    words = synth._suffix_words(4, 3, 6, 2)
    # appended words, one longer than any first word
    extra = [(2, 1, 0, 3, 3), (1,), (1, 0, 2, 0, 1, 0, 2, 0, 2, 1)]
    sfx = synth._SuffixData(words)
    sfx.extend(extra)
    f2, f1, values, valid, first = reference_synth.suffix_descriptors(words + extra)
    assert sfx.count == len(words) + len(extra)
    assert sfx.f2.tolist() == f2 and sfx.f1.tolist() == f1
    for t in (0, 1):
        assert sfx.values[t].tolist() == values[t]
        assert sfx.valid[t].tolist() == valid[t]
        assert sfx.first[t].tolist() == first[t]


def test_synthesize_certified_nameless_oracle(catalog):
    class Identity:
        cheap_scalar = False

        def table(self, n):
            return np.arange(n)

    report = synth.synthesize_certified(
        Identity(), [synth.function_certificate("fn")],
        schedule=(256,), catalog=catalog,
    )
    assert report.verdict == "CERTIFIED"
    assert report.oracle_name == "?"
    assert au.equivalent(report.candidate, arith.eq())


def test_certification_ignores_state_numbering(catalog):
    import numpy as np

    rel = synth.guess_synchronized(seqs.oracle("a105774"), 16384)
    n = rel.n_states
    rng = np.random.default_rng(7)
    perm = rng.permutation(n).astype(np.int32)
    inv = np.empty(n, dtype=np.int32)
    inv[perm] = np.arange(n, dtype=np.int32)
    shuffled = au.Automaton(
        rel.arity,
        perm[rel.delta[inv]],
        rel.outputs[inv],
        int(perm[rel.initial]),
        zero_normalized=True,
    )
    assert au.equivalent(shuffled, rel)
    verdict = synth.recurrence_certificate("fib")(shuffled, catalog)
    assert verdict.ok


def _assert_same_table(got, want, tab, ref):
    assert got.delta.tobytes() == want.delta.tobytes()
    assert got.outputs.tobytes() == want.outputs.tobytes()
    assert tab.sigs.tobytes() == ref.sigs.tobytes()
    assert tab.reps == ref.reps and tab.depths == ref.depths


@pytest.mark.parametrize("chunk_cells", [synth._CHUNK_CELLS, 1])
@pytest.mark.parametrize("name", ["a105774", "lucas_variant", "sorted"])
def test_frontier_closure_matches_per_state_reference(monkeypatch, name, chunk_cells):
    # every hypothesis of a learning run, replay rounds included, against
    # the closure that computes one signature per successor; chunk_cells=1
    # closes one state per chunk
    monkeypatch.setattr(synth, "_CHUNK_CELLS", chunk_cells)
    real = synth.ObservationTable.hypothesis
    unknown = []

    def both(self):
        ref = synth.ObservationTable(self.source, self.max_states, self.max_depth)
        want = reference_synth.per_state_hypothesis(ref, reference_synth.pair_signature)
        got = real(self)
        _assert_same_table(got, want, self, ref)
        unknown.append(bool((self.sigs == synth.UNKNOWN).any()))
        return got

    monkeypatch.setattr(synth.ObservationTable, "hypothesis", both)
    synth.guess_synchronized(seqs.oracle(name), 4096)
    # cheap-scalar oracles are known everywhere; the table-only one is not
    assert any(unknown) == (name == "sorted")


def test_frontier_closure_matches_per_state_reference_for_strings():
    member = lambda w: ("11" not in "".join(map(str, w))) and (
        nu.decode("".join(map(str, w))) % 3 == 0
    )
    suffixes = synth._suffix_words(2, 4, zero_run=6, tail_len=1)
    src = synth._StringSource(member, 1, suffixes, 12)
    tab = synth.ObservationTable(src, 64, 8)
    ref = synth.ObservationTable(src, 64, 8)
    want = reference_synth.per_state_hypothesis(ref, reference_synth.string_signature)
    _assert_same_table(tab.hypothesis(), want, tab, ref)


@pytest.mark.parametrize("max_states, max_depth", [(5, 40), (1024, 3)])
def test_frontier_closure_exhausts_like_the_reference(max_states, max_depth):
    sfx = synth._SuffixData(synth._suffix_words(4, 4, 16, tail_len=2))
    src = synth._PairSource(sfx, batch=seqs.oracle("lucas_variant").batch)
    with pytest.raises(synth.BoundExhausted) as want:
        reference_synth.per_state_hypothesis(
            synth.ObservationTable(src, max_states, max_depth), reference_synth.pair_signature
        )
    with pytest.raises(synth.BoundExhausted) as got:
        synth.ObservationTable(src, max_states, max_depth).hypothesis()
    assert str(got.value) == str(want.value)
