import numpy as np
import pytest

import reference_synth
from fibdecide import arith
from fibdecide import automata as au
from fibdecide import linrep
from fibdecide import logic
from fibdecide import seqs
from fibdecide import synth


def test_guess_synchronized_identity():
    ident = seqs.SequenceOracle("ident", lambda n: n, lambda n: np.arange(n), lambda _, ms: ms)
    learned = synth.guess_synchronized(ident, 4096)
    assert au.equivalent(learned, arith.eq())


def test_guess_synchronized_floor_phi(catalog):
    learned = synth.guess_synchronized(seqs.oracle("phi"), 8192)
    assert au.equivalent(learned, catalog["phin"])


def test_certify_function_examples(catalog):
    certificate = synth.function_certificate("fn")
    good = certificate(arith.eq(), catalog)
    assert good.ok and good.failures == []
    # a relation accepting both (0,0) and (0,1) fails uniqueness
    c0, c1 = arith.linear((1,), 0), arith.linear((1,), -1)
    c01 = au.union(
        au.intersect(au.cylindrify(c0, [0], 2), au.cylindrify(c0, [1], 2)),
        au.intersect(au.cylindrify(c0, [0], 2), au.cylindrify(c1, [1], 2)),
    )
    bad_rel = au.zero_normalize(au.union(c01, arith.eq()))
    bad = certificate(bad_rel, catalog)
    assert not bad.ok
    assert bad.checks == [("fn_total", True), ("fn_unique", False)]


def test_function_certificate_check_names(catalog):
    verdict = synth.function_certificate("fn")(arith.eq(), catalog)
    assert verdict.checks == [("fn_total", True), ("fn_unique", True)]


def test_certify_recurrence_main(catalog):
    rel = synth.guess_synchronized(seqs.oracle("a105774"), 16384)
    verdict = synth.recurrence_certificate("fib")(rel, catalog)
    assert verdict.ok
    # the identity relation does not satisfy the recurrence; as in every
    # certificate, the checks stop at the first FALSE one
    wrong = synth.recurrence_certificate("fib")(arith.eq(), catalog)
    assert not wrong.ok and wrong.checks == [("recurrence", False)]


def test_query_certificate_runs_its_setup_before_the_queries(catalog):
    setup = 'reg one msd_fib "0*1":\ndef two "Ex $one(x) & n=x+x":'
    certificate = synth.query_certificate("c", [
        ("two", "$two(2)"),
        ("three", "$two(3)"),
        ("never", "$cand(0,0)"),
    ], setup)
    verdict = certificate(arith.eq(), catalog)
    assert verdict.checks == [("c_two", True), ("c_three", False)]
    assert not verdict and verdict.failures == ["c_three"]


def test_verdict_is_derived_from_its_checks():
    assert synth.Verdict([]).ok
    assert synth.Verdict([("a", True), ("b", True)]).ok
    failed = synth.Verdict([("a", True), ("b", False)])
    assert not failed.ok and not failed and failed.failures == ["b"]


def test_unit_coefficients_compile_as_the_bare_step(catalog):
    """recurrence_certificate states the step as x*y=z+y*t for every x, y;
    with x = y = 1 that is the automaton of y=z+t."""
    session = logic.Session(catalog)
    assert au.equivalent(session.compile("1*y=z+1*t").aut, session.compile("y=z+t").aut)


def test_synthesize_certified_reports(catalog):
    report = synth.synthesize_certified(
        seqs.oracle("a105774"),
        [synth.function_certificate("fn"), synth.recurrence_certificate("fib")],
        schedule=(16384,),
        catalog=catalog,
    )
    assert report.verdict == "CERTIFIED"
    assert report.samples_used == 16384


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


# -- the engine-limit rule: a query past SUBSET_LIMIT is a failed check ------


def _true_stub(aut, catalog):
    return synth.Verdict([("stub", True)])


def _limit_stub(aut, catalog):
    raise au.DeterminizationLimit("determinization exceeded 3 states")


def _unreached_stub(aut, catalog):
    raise AssertionError("a certificate ran after a FALSE check")


# one TRUE check, then a query past the limit, then a certificate never run
_LIMITED = [_true_stub, _limit_stub, _unreached_stub]


def test_run_certificates_ends_at_an_engine_limit():
    verdict = synth.run_certificates(arith.eq(), _LIMITED, {})
    assert verdict.checks == [("stub", True), ("engine_limit", False)]
    assert verdict.failures == ["engine_limit"]


def test_admit_fails_at_an_engine_limit():
    with pytest.raises(arith.CatalogError, match="^eq certificate fails engine_limit$"):
        arith.admit("eq", arith.eq(), _LIMITED, {}, None, 0)


def test_add_certification_fails_at_an_engine_limit(monkeypatch):
    """No formula names engine_limit, so the message ends at the check."""
    monkeypatch.setattr(synth, "query_certificate", lambda *args: _limit_stub)
    with pytest.raises(arith.CatalogError, match="^add certificate fails engine_limit$"):
        arith._certify_add(arith.linear((1, 1, -1)))


def test_check_permutation_fails_at_an_engine_limit(monkeypatch):
    monkeypatch.setattr(synth, "function_certificate", lambda label: _limit_stub)
    with pytest.raises(ValueError, match="^first relation is not a certified function$"):
        linrep.check_permutation(arith.eq(), arith.eq(), {})


class _Identity:
    """A nameless table-only oracle of f(n) = n."""

    cheap_scalar = False

    def table(self, n):
        return np.arange(n)


def test_synthesize_certified_exhausts_at_an_engine_limit(catalog):
    report = synth.synthesize_certified(_Identity(), _LIMITED, schedule=(256, 512),
                                        catalog=catalog)
    assert (report.verdict, report.candidate, report.samples_used) == ("EXHAUSTED", None, 512)
    assert report.checks == [("stub", True), ("engine_limit", False)]
    assert report.detail == "failed: engine_limit"


def test_learner_roundtrip_property(catalog):
    from fibdecide.reproduce import learner_roundtrip

    ok, detail = learner_roundtrip(20240901, catalog)
    assert ok, detail


def _unknown_read_as_reject(monkeypatch):
    real = synth._PairSource.signatures

    def signatures(self, states):
        sig = real(self, states)
        sig[sig == synth.UNKNOWN] = 0
        return sig

    monkeypatch.setattr(synth._PairSource, "signatures", signatures)


def _prefix_validity_ignored(monkeypatch):
    real = synth._PairSource.step

    def step(self, st, sym):
        nxt = real(self, st, sym)
        return nxt[:6] + (True,) + nxt[7:]

    monkeypatch.setattr(synth._PairSource, "step", step)


def _learner_gives_up(monkeypatch):
    def exhausted(oracle, n_samples):
        raise synth.BoundExhausted("state budget 0 exhausted")

    monkeypatch.setattr(synth, "guess_synchronized", exhausted)


@pytest.mark.parametrize("breakage, detail", [
    # trial 0 draws a table-only oracle and trial 2 an exact one
    (_unknown_read_as_reject, "learned relation differs from Ex $phin(n,x) & z=(3*x+3)/3"),
    (_prefix_validity_ignored, "learned relation differs from z=(3*n+5)/1"),
    (_learner_gives_up,
     "learning failed for Ex $phin(n,x) & z=(3*x+3)/3: state budget 0 exhausted"),
])
def test_learner_roundtrip_fails_on_a_broken_learner(catalog, monkeypatch, breakage, detail):
    from fibdecide.reproduce import learner_roundtrip

    breakage(monkeypatch)
    assert learner_roundtrip(20240901, catalog) == (False, detail)


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
    # states near the 64-sample bound store UNKNOWN entries
    words = synth._suffix_words(2, 6, 1)
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

    def __init__(self, exact=False):
        self.exact = exact

    def describe(self, state):
        return repr(state)


@pytest.mark.parametrize("density", [0.0, 0.3, 0.9])
def test_observation_table_lookup_matches_reference(density):
    # ternary signatures drawn around a few binary patterns, with UNKNOWN
    # entries at the given density: exact hits, joins and new states; with
    # none, an exact source (lookups by key alone) gives the same states
    for exact in (False, True) if density == 0 else (False,):
        rng = np.random.default_rng(round(10 * density) + 3)
        width = _StubSource.width
        bases = rng.integers(0, 2, size=(6, width)).astype(np.uint8)
        tab = synth.ObservationTable(_StubSource(exact), max_states=400, max_depth=0)
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


def _count_tables(monkeypatch):
    """The suffix count of every observation table closed from now on."""
    widths = []
    real = synth.ObservationTable.hypothesis

    def counted(self):
        widths.append(self.source.width)
        return real(self)

    monkeypatch.setattr(synth.ObservationTable, "hypothesis", counted)
    return widths


def test_one_repair_round_takes_many_disagreements(monkeypatch):
    # a round adds the tails of up to _REPAIR_WORDS disagreeing samples;
    # the tails of the first disagreement alone take 10 tables to repair
    # the same merges
    widths = _count_tables(monkeypatch)
    got = synth.guess_synchronized(seqs.oracle("lucas_variant"), 4096)
    assert len(widths) <= 3
    widths.clear()
    monkeypatch.setattr(synth, "_REPAIR_WORDS", 1)
    one = synth.guess_synchronized(seqs.oracle("lucas_variant"), 4096)
    assert len(widths) == 10
    assert got.n_states == one.n_states == 103
    assert au.equivalent(got, one)


def test_each_candidate_takes_one_minimize_and_no_subset_construction(monkeypatch):
    # the hypothesis' start loops on [0,0], so zero_normalize of its
    # valid part is that part's minimize
    arith.valid_tracks(2)
    widths = _count_tables(monkeypatch)
    calls = {"minimize": 0, "_subsets": 0}
    for name in calls:
        real = getattr(au, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(au, name, counted)
    synth.guess_synchronized(seqs.oracle("a105774"), 4096)
    assert widths and calls == {"minimize": len(widths), "_subsets": 0}


def test_extended_suffixes_leave_the_cached_battery_alone(monkeypatch):
    widths = _count_tables(monkeypatch)
    synth.guess_synchronized(seqs.oracle("lucas_variant"), 4096)
    assert widths[0] == 565 and widths[-1] > 565
    words, battery = synth._battery(16)
    assert len(words) == battery.count == 565
    for column in (battery.f2, battery.f1, *battery.values, *battery.valid, *battery.first):
        assert column.size == 565
    widths.clear()
    synth.guess_synchronized(seqs.oracle("a105774"), 4096, zero_run=16)
    assert widths == [565]


def test_suffix_data_matches_bitwise_reference():
    words = synth._suffix_words(3, 6, 2)
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
    report = synth.synthesize_certified(
        _Identity(), [synth.function_certificate("fn")],
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


@pytest.mark.parametrize("max_states, max_depth", [(5, 40), (1024, 3)])
def test_frontier_closure_exhausts_like_the_reference(max_states, max_depth):
    sfx = synth._SuffixData(synth._suffix_words(4, 16, tail_len=2))
    src = synth._PairSource(sfx, batch=seqs.oracle("lucas_variant").batch)
    with pytest.raises(synth.BoundExhausted) as want:
        reference_synth.per_state_hypothesis(
            synth.ObservationTable(src, max_states, max_depth), reference_synth.pair_signature
        )
    with pytest.raises(synth.BoundExhausted) as got:
        synth.ObservationTable(src, max_states, max_depth).hypothesis()
    assert str(got.value) == str(want.value)
