"""Acceptance suite: every exit criterion at its stated bound.

One test per criterion; each prints its PASS/FAIL line(s).  The whole
reproduction (catalog, certified syntheses, scripted identities, counting
representations, state counts, closed forms, property suites) is built
once for the session.

Criterion 8's t-recurrence is asserted over the stated range n >= 5 and is
a strict expected failure: t(5) = 11 while t(4)+t(2)+t(1) = 10, an
off-by-one in the source material (the recurrence provably holds from
n = 6; see test_seqs.test_t_recurrence_actual_range for the verified
fact).
"""

import hashlib
import random

import numpy as np
import pytest

from fibdecide import arith
from fibdecide import automata as au
from fibdecide import cli
from fibdecide import reproduce as rp
from fibdecide import seqs


@pytest.fixture(scope="module")
def reproduction():
    run = rp.Reproduction(
        schedule=(16384, 65536, 262144),
        seed=20240901,
    )
    return run, run.run()


@pytest.fixture(scope="module")
def results(reproduction):
    out = {}
    for res in reproduction[1]:
        out.setdefault(res.name, res)
    return out


def _check(results, *names):
    for name in names:
        res = results[name]
        print(res.line())
        assert res.ok, f"{res.name}: {res.detail}"


def test_criterion_01_main_sequence_automaton(results):
    _check(results, "a105774_certified", "a105774_oracle_agreement")


def test_criterion_02_scripted_identities(results):
    _check(results, "scripted_identities")


def test_criterion_03_count_dfao(results):
    _check(results, "count_dfao_table")


def test_criterion_04_permutation(results):
    _check(results, "permutation_linrep", "permutation_mutation_witness")


def test_criterion_05_distinctness(results):
    _check(results, "distinctness_transform")


def test_criterion_06_mod_state_counts(results):
    _check(results, "mod_dfao_state_counts")


def test_criterion_07_variant_state_counts(results):
    _check(results, "variant_state_counts")


def test_criterion_08_closed_forms(results):
    _check(results, "closed_forms")


@pytest.mark.xfail(
    strict=True,
    reason="stated range starts at n=5 but t(5)=11 != t(4)+t(2)+t(1)=10; "
    "the recurrence holds for 6 <= n <= 30 (verified in test_seqs)",
)
def test_criterion_08_special_value_recurrences_stated_range(results):
    _check(results, "special_value_recurrences")


def test_criterion_08_s_recurrence_stated_range():
    s = [seqs.s_value(n) for n in range(31)]
    assert all(s[n] == s[n - 1] + s[n - 3] + s[n - 4] for n in range(4, 31))


def test_criterion_09_regex_characterizations(results):
    _check(results, "suffix_minima_regex", "fixed_points_regex")


def test_criterion_10_run_lengths(results):
    _check(results, "run_length_encoding")


def test_criterion_11_carlitz(results):
    _check(results, "carlitz_constants", "carlitz_main_identity")


def test_criterion_12_property_suites(results):
    _check(
        results,
        "automata_algebra_laws",
        "learner_roundtrip",
        "linrep_padding_stability",
        "engine_soundness",
    )


# sha256 of each def/reg/combine automaton of the paper script as the
# session holds it: dtype, shape and bytes of delta and outputs, then the
# initial state and the zero_normalized flag
SCRIPT_AUTOMATA = {
    "adjfib": "0e5b6059964d2e2a6b663ed6af94f01e8e2a6eec16c20f8a3da1c17008f3a6b3",
    "trapfib": "f1091a2d18354b06f4f348a4575f1f1b76bca25c30601c9be56ccba85caaaf56",
    "s0": "f601e14024bd6cace41a2bda4d32d03118199874d8e30b5a3c9a524260dbc913",
    "s2": "899d202397cdd50e2d333d6c89528f5af00c380fc444136d9833d626dbadb626",
    "s1": "b9e143ea7138e99442fdf830396c612126235e0736d3fe21c506f318ae56ed46",
    "C": "445ce26fb64e03cbccab7f66878f2b961e6eea864bdd41bf7cc319d31ebfecfe",
    "a007067": "caa8ebfee24e35717a8240136688ac0129d7742d2c3eeb54b2fc85378658208c",
    "a007064": "8427c431f8f73dee12fc9f42eb1e71d42ec8687cf336f28e2e2ecb54231ecb0c",
    "a035487": "5f20bce946126cf185ba0f4b736b354ad815bfb5187da3bfdd2918a79d8c066e",
    "a004937": "11812564fc635a5d272ba32eebbc3ec8c9f249ad25fe4bf522dc15683a7e1c26",
    "lucfib": "5384ec7ed4439c7758362a507679033ca5b534e8443f132a56d5bc688d3dcc7f",
    "suffmin": "9734cae4b0853fa9405d8782ba9efd5608e8775e02b372b916a12960be8c3d4c",
    "a003623": "9069dea43c3afa595a3fe305df27d436adc0f46e1b681b50e1ec5bf6126d5c1b",
    "diff": "59539138332957e22be9cfe58d8678cc9b3c721dd5d76a1a0552141ca2fec496",
    "isfib": "5ef9264c5627f7f2eae95730077707a10429444d9a95f1ab8ce472a935608ed0",
    "special": "24d4512497074b0bf87912d636077b69eec56666700940476cfa53474e02e01b",
    "four": "7f2869529f22c903a09e8e2d8f072af8c990a183b65e48adcd0006b173a9df63",
    "even": "7f99b52fdce2a0b21ba156b2a74593d50e8879a34cf118095e6c292f5de3e345",
    "first_occ": "43cd088910ef77176a48370ec39d62f8d744070cf08c778757216b5950481119",
    "nthrun2": "779239b207c0c79a585f7ac63108fede7d4bf3ab14038d8dd6c551da39829073",
    "trapfib2": "da51ef33a67017b37e1a52bae1dfffa00bc79d2afc55e471019d13448fada1fd",
    "wseq": "b8683c5d7ca55cd6bc8a34227fdc2bb0de799af8ffa9cad4bd0b719191588c14",
    "fixed": "f831fa7d0918d75d66c3e9b6e08aef008ab32de21fa212a21e47ca6659f45926",
    "even1": "20a8173a2b8efc6272a938b9437e8a301bcfe9c41c0f6475a668cf2e0990c283",
    "ab": "95527bd78cace236c259113dd50f5e1e710ca35d2a95f69c33a0270e27ba7270",
    "ba": "70dac9eef50abc5c1560c624a32f86cfdda9bb36620e33b42a2084481395a5b4",
    "xx": "a9a8d14a4e4039585f4817b085612a7c163e24fa2122ff79ae704e0ee4b2db11",
    "aba": "80b582ab60bdcd737eb05f55fac32def65df153539a50867a32c784bd3d0cb79",
    "bab": "fb93254a362c72a4d937495a30b7c9611a4340d99735c13513ecb514046c668c",
    "aab": "fc034a002a9076bb480a347d69b873b06e94dd410ab2f479d6b7c1f74b36cea2",
    "ca": "abd86d0f38224f73aa19a845d5af46f4f716f202043e361331b89cbb66841c1d",
    "dp": "f48d8798a965711cc483f5a9b02297194fe9abc5c7df3e97e608276a475f1d96",
    "cab": "df2e5c0eb19e85e86b8ad46aecac3604e9fadf3abd152d70a961b2104d00faf9",
    "abb": "7f88094bc64c12ccc65547a695c6b1cf7590ffe6edf681d74f0d00cb99594b6f",
    "ad": "7f88094bc64c12ccc65547a695c6b1cf7590ffe6edf681d74f0d00cb99594b6f",
    "abd": "fd3f58fc8c48caa8053f55939c3a63661d846142d568d2e1508423721fd9f26a",
}


def _digest(aut):
    h = hashlib.sha256()
    for arr in (aut.delta, aut.outputs):
        h.update(f"{arr.dtype}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(f"{aut.initial} {aut.zero_normalized}".encode())
    return h.hexdigest()


def test_script_automata_and_verdicts_are_golden(reproduction):
    run, _ = reproduction
    report = run.script_report
    assert report.evals == [(name, True) for name in rp.SCRIPT_EVALS]
    assert len(report.evals) == 51
    built = [name for kind, name, _ in report.results if kind != "eval"]
    assert built == list(SCRIPT_AUTOMATA)
    got = {name: _digest(run.session.automaton(name)) for name in built}
    assert got == SCRIPT_AUTOMATA


# the same digests of the 13 stored catalog automata and the 9 certified
# syntheses
CATALOG_AUTOMATA = {
    "valid": "c0322be02fa85037058887f84401c39bebe35f19f96bb52fb3ed9291a33769ad",
    "eq": "0b667f9224546e4b7ddaadf280ad1e8e73f34710fc45efa14a69cbfe566cde8b",
    "lt": "cb03771b107299588df5f7ec807541317986502f343ae1e641f8d982ea4e17ee",
    "leq": "99c17dc1175106738aff7eebb4291627d5e059a3f3aad5e321c080e46a2f3092",
    "add": "afc2e7c5720f6799d38166a86e9743b77865f6ad06b9ce99daa48966c1d55f45",
    "phin": "8b1a3c571a90faf338946c44ddb2e87e4e1cd984cdac6cf0c086bfe500c3bae6",
    "phi2n": "81d63615d43dbe89842206d46a60d92a2c008e1f2036ab00eed0c61fa034db28",
    "a007067": "caa8ebfee24e35717a8240136688ac0129d7742d2c3eeb54b2fc85378658208c",
    "a007064": "8427c431f8f73dee12fc9f42eb1e71d42ec8687cf336f28e2e2ecb54231ecb0c",
    "a004937": "11812564fc635a5d272ba32eebbc3ec8c9f249ad25fe4bf522dc15683a7e1c26",
    "a003623": "9069dea43c3afa595a3fe305df27d436adc0f46e1b681b50e1ec5bf6126d5c1b",
    "a035487": "5f20bce946126cf185ba0f4b736b354ad815bfb5187da3bfdd2918a79d8c066e",
    "fibword": "c450d2c34d17bbc52aec095aba99d7e1df2264f3bb495822da2591cccad1a5a9",
}

RELATIONS = {
    "a105774": "01601891c6b9af5e744ee0b5f7782418e0b26a9f2168b23b66b23624f9f07069",
    "p0": "74bf34b4577a24e33af1a345e3b9fedd3aab1f8e1c442969f62e202366e0faf4",
    "p1": "b018178ddcc5fe38d1c343f015d15add5b69cf37490bc43d9861c213108e4863",
    "p2": "8427c431f8f73dee12fc9f42eb1e71d42ec8687cf336f28e2e2ecb54231ecb0c",
    "a368200": "72ab0d58c58d612c3a962943f90afadbec6a39091a5b271b7218aa6fb28f4911",
    "aprime": "95527bd78cace236c259113dd50f5e1e710ca35d2a95f69c33a0270e27ba7270",
    "a21": "daa45e87ffa6a3bb972df94450ee87c27a6785b0e1a04a55f542f43e3bfa3138",
    "nestedb": "ffee270a82662f09d82993589395e7ec23ab63336a892df75fa9acce4e8ecf53",
    "lucasvar": "6b4e50f6d670452b473604d80ad2bbdd719d77d87c818384730a5ab6e3029d73",
}


def test_catalog_relations_and_state_counts_are_golden(reproduction, results):
    run, _ = reproduction
    assert list(CATALOG_AUTOMATA) == cli.Store.CATALOG_NAMES
    assert {name: _digest(run.catalog[name]) for name in CATALOG_AUTOMATA} == CATALOG_AUTOMATA
    assert {name: _digest(aut) for name, aut in run.relations.items()} == RELATIONS
    # criterion 7 allows +-2 states; the counts themselves are exact
    assert results["mod_dfao_state_counts"].detail == "counts {2: 8, 3: 18, 4: 32, 5: 50}"
    assert results["variant_state_counts"].detail == (
        "a21=22 (expected 22), nestedb=24 (expected 24), lucasvar=102 (expected 102)"
    )


# the same digests of the mod-k DFAOs for k = 2..5, recorded when mod_dfao
# still learned them; the build from the (p, q) balance gives these bytes
MOD_DFAOS = {
    2: "2fe2050f0afcaec62f8e8d3ba2cd3f58c8e0f5ce3b2cca953e399c1ceea344d2",
    3: "f932850ca3d7c1d41b449dc1e78ab7e3dbe389db1e5ad32d9c7669609551d191",
    4: "7ae0b7f73c8719cee4d39889361541de5c8d40ce53dcc9109c89f463f31a751e",
    5: "5c9c09eb5a5d5eeaa7f430765116e90ee6bd3b2a4c08c6070524104ea93aad0b",
}


def test_mod_dfaos_are_golden():
    got = {k: arith.mod_dfao(k, verify_bound=1000) for k in MOD_DFAOS}
    assert {k: _digest(a) for k, a in got.items()} == MOD_DFAOS
    assert [a.n_states for a in got.values()] == [4, 9, 16, 25]


def test_lang_vector_matches_scalar_acceptance():
    rng = random.Random(11)
    for _ in range(40):
        a = rp._random_automaton(rng, rng.choice([1, 2]))
        # any start state, and an output 2 that is not acceptance
        a = au.Automaton(a.arity, a.delta, [rng.randrange(3) for _ in range(a.n_states)],
                         rng.randrange(a.n_states))
        S = a.n_symbols
        want = [a.accepts([(w // S**k) % S for k in range(length)])
                for length in range(6) for w in range(S**length)]
        assert rp._lang_vector(a, 5) == want
