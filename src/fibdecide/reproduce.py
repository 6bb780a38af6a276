"""One-shot reproduction suite: every scripted identity, the synthesized
automata with their certificates, occurrence counts, permutation and
distinctness decisions, state counts, closed forms, regex
characterizations, and the randomized property checks.

The scripted identities run through the query engine exactly as written
for Walnut-style provers (`?msd_fib` headers and all); the synthesized
relation automata are produced by guess-and-check and injected into the
session before the script runs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith
from . import automata as au
from . import linrep
from . import logic
from . import numeration as nu
from . import seqs
from . import synth

__all__ = ["Reproduction", "StepResult"]


@dataclass
class StepResult:
    criterion: int
    name: str
    ok: bool
    seconds: float
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"[c{self.criterion:02d}] {mark}  {self.name}  {self.seconds:.1f}s{extra}"


# ---------------------------------------------------------------------------
# the scripted identities, in source order

SCRIPT = r"""
# main sequence: function checks and defining recurrence
eval check_at_least_one "?msd_fib An Ex $a105774(n,x)":
eval check_at_most_one "?msd_fib ~En,x1,x2 x1!=x2 & $a105774(n,x1) &
   $a105774(n,x2)":
reg adjfib msd_fib msd_fib "[0,0]*[0,1][1,0][0,0]*":
def trapfib "?msd_fib $adjfib(x,y) & x<k & y>=k":
eval test105774 "?msd_fib Ak,x,y,z,t ($trapfib(k,x,y) & $a105774(k,z)
   & $a105774(k-x,t)) => y=z+t":
eval test012 "?msd_fib ~Ex,y,z,n x<y & y<z & $a105774(x,n) &
   $a105774(y,n) & $a105774(z,n)":

# occurrence-count DFAO
def s0 "?msd_fib ~Ex $a105774(x,n)":
def s2 "?msd_fib Ex,y x<y & $a105774(x,n) & $a105774(y,n)":
def s1 "?msd_fib ~($s0(n)|$s2(n))":
combine C s1=1 s2=2 s0=0:
eval twice_consec "?msd_fib An,x,y (x<y & $a105774(x,n) & $a105774(y,n))
   => y=x+1":

# positions of 0/1/2 in the count sequence
eval chek1a "?msd_fib An C[n]=@1 <=> Ek $p1(k,n)":
eval chek2a "?msd_fib An C[n]=@2 <=> Ek $p2(k,n)":
eval chek0b "?msd_fib Aj,m,n ($p0(j,m) & $p0(j+1,n)) => m<n":
eval chek1b "?msd_fib Aj,m,n ($p1(j,m) & $p1(j+1,n)) => m<n":
eval chek2b "?msd_fib Aj,m,n ($p2(j,m) & $p2(j+1,n)) => m<n":
def a007067 "?msd_fib Ex $phin(2*n,x) & z=(x+1)/2":
def a007064 "?msd_fib Ex $phin(2*n+1,x) & z=n+1+x/2":
eval check_two "?msd_fib Ax (Em $a007067(m,x)) <=> (~En $a007064(n,x))":
eval checkp2 "?msd_fib An (Ek $p2(k,n)) <=> (Em $a007064(m,n))":
def a035487 "?msd_fib Ex (Em $a007064(m,x)) & $a007067(x,n)":
eval checkp1 "?msd_fib An (n>0) => ($a035487(n) <=> (Ek $p1(k,n)))":
def a004937 "?msd_fib Ex $phi2n(2*n,x) & z=(x+1)/2":
eval chk0 "?msd_fib An (n>0) => ((Ek $a004937(k,n)) <=> (Ej $p0(j,n)))":

# bounds
eval lowerbound "?msd_fib An,x,y ($a105774(n,x) & $phin(n,y)) => x>=(y+2*n)/5":
eval upperbound "?msd_fib An,x,y ($a105774(n,x) & $phin(n,y)) => x<=y":
reg lucfib msd_fib msd_fib "[0,0]*[1,1][0,0][1,0][0,0]*":
eval chklow "?msd_fib Ax,y $lucfib(x,y) => $a105774(x+1,y+1)":
eval chkup "?msd_fib Ax,y,m ($adjfib(x,y) & $a105774(x+1,m)) => m+1=y":

# suffix minima
def suffmin "?msd_fib Am,x,y (m>n & $a105774(m,x) & $a105774(n,y)) => x>y":
eval suffmin_regex "?msd_fib An (n>0) => ($suffmin(n) <=> $suffminre(n))":

# consecutive identical or different terms
eval twoconsec "?msd_fib An (Ex $a105774(n,x) & $a105774(n+1,x)) <=>
   (Ek,y (k>0) & $phi2n(k,y) & y=n+1)":
eval differ "?msd_fib An (Ex,y $a105774(n,x) & $a105774(n+1,y) &
   x!=y) <=> (Ek,y $phin(k+1,y) & y=n+1)":
def a003623 "?msd_fib Ex $phi2n(n,x) & $phin(x,z)":
eval isolated "?msd_fib An (n>0) => ((Ex,y,z $a105774(n-1,x) &
   $a105774(n,y) & $a105774(n+1,z) & x!=y & y!=z) <=>
   (Ek $a003623(k,n)))":

# ascending rearrangement
eval ascending "?msd_fib An,x,y ($a368200(n,x) & $a368200(n+1,y)) => y >= x":
def diff "?msd_fib Ex,y $a368200(n,x) & $a368200(n+1,y) & y=x+z":
eval checkdiff "?msd_fib An,z $diff(n,z) => (z=0|z=1|z=2)":
eval cd0 "?msd_fib An $diff(n,0) <=> C[n]=@2":
eval cd1 "?msd_fib An $diff(n,1) <=> C[n]=@1":
eval cd1 "?msd_fib An $diff(n,2) <=> C[n]=@0":

# special values
reg isfib msd_fib "0*10*":
def special "?msd_fib $isfib(x) & $a105774(x,y)":
reg four msd_fib msd_fib msd_fib msd_fib
   "[0,0,0,0]*[1,0,0,0][0,1,0,0][0,0,0,0][0,0,1,0][0,0,0,1][0,0,0,0]*":
eval partb "?msd_fib Aa,b,c,d,x,y,z,w ($four(a,b,c,d) & $a105774(a,x) &
   $a105774(b,y) & $a105774(c,z) & $a105774(d,w)) => x=y+z+w":
eval minval "?msd_fib Ax,y,z,t,u ($adjfib(x,y) & $a105774(x,z) &
   t>x & t<y & $a105774(t,u)) => u>z":
eval maxval "?msd_fib Ax,y,z,t,u,w (x>=5 & $adjfib(x,y) & $a105774(x+1,z) &
$a105774(x+2,w) & t>=x & t<y & $a105774(t,u)) => (z=w & u<=z)":

# parity
def even "?msd_fib Ek n=2*k":
eval checkparity "?msd_fib An,x,y ($a105774(n,x) & $phin(n,y)) =>
   ($even(x) <=> $even(y))":

# distinctness transform
eval checkap1 "?msd_fib An Ex $aprime(n,x)":
eval checkap2 "?msd_fib ~En,x1,x2 x1!=x2 & $aprime(n,x1) & $aprime(n,x2)":
eval check_distinct1 "?msd_fib Ax (Em $a105774(m,x)) <=> (En $aprime(n,x))":
eval check_distinct2 "?msd_fib ~En1,n2,x n1!=n2 & $aprime(n1,x) &
   $aprime(n2,x)":
def first_occ "?msd_fib $a105774(y,n) & Ax (x<y) => ~$a105774(x,n)":
eval check_distinct3 "?msd_fib Ax,y,i,j ($first_occ(x,i) & $first_occ(y,j)
   & i<j) => Em,n $aprime(m,x) & $aprime(n,y) & m<n":

# run-length encoding vs the Fibonacci word
def nthrun2 "?msd_fib Ex,y $aprime(n,x) & $first_occ(x,y) &
   $a105774(y+1,x)":
eval compare_fib "?msd_fib An $nthrun2(n+1) <=> F[n]=@0":

# least index reaching n
def trapfib2 "?msd_fib $adjfib(x,y) & x<=k & y>k":
def wseq "?msd_fib (Em $a105774(x,m) & m>=n) &
   (Ai,p (i<x & $a105774(i,p)) => p<n)":
eval propw "?msd_fib Ax,y,n,m (n>=2 & $trapfib2(n,x,y) & $wseq(n,m))
   => m=x+1":

# fixed points
def fixed "?msd_fib $a105774(n,n)":
eval fixed_regex "?msd_fib An (n>0) => ($fixed(n) <=> $fixedre(n))":

# compositions
reg even1 msd_fib "(0*10*1)*0*":
def ab "?msd_fib Ex $phin(n,x) & $a105774(x,z)":
def ba "?msd_fib Ex $a105774(n,x) & $phin(x,z)":
eval test "?msd_fib An,x,y ($ab(n,x) & $ba(n,y)) => x>=y":
def xx "?msd_fib Ex,y $ab(n,x) & $ba(n,y) & z=x-y":
eval test1 "?msd_fib An $xx(n+1,0) <=> $even1(n)":
def aba "?msd_fib Ex $ba(n,x) & $a105774(x,z)":
def bab "?msd_fib Ex $ab(n,x) & $phin(x,z)":
eval test3 "?msd_fib An,x,y ($bab(n,x) & $aba(n,y)) => x>=y":
def aab "?msd_fib Ex $ab(n,x) & $a105774(x,z)":
eval test4 "?msd_fib An,x,y ($aab(n,x) & $aba(n,y)) => (x=y|x=y+2|y=x+2)":
def ca "?msd_fib Ex $a105774(n,x) & $a004937(x,z)":
def dp "?msd_fib Ew,x,y $ca(n,w) & $ab(n,x) & $a105774(n,y) & z+x+y=w+1":
eval test1 "?msd_fib An,x $dp(n,x) => (x=0|x=1|x=2)":
eval test2 "?msd_fib An (n>=1) => (F[n-1]=@1 <=> $dp(n,1))":
def cab "?msd_fib Ex $ab(n,x) & $a004937(x,z)":
def abb "?msd_fib Ex $phin(n,x) & $ab(x,z)":
eval test3 "?msd_fib An,r,s,t,u (n>=1 & $cab(n,r) & $abb(n,s) & $ab(n,t)
   & $ba(n,u)) => r+t=s+2*u+1":

# compositional lemmas
eval checka "?msd_fib An,y,z,w (n>=0 & $xx(n,y) & $phin(n,z) & $xx(z,w))
   => w=y":
eval checkb "?msd_fib An,y,z,w (n>=1 & $xx(n,y) & $phi2n(n,z) & $xx(z,w))
   => w+y=1":
eval checkc "?msd_fib An,y,z,w,t (n>=1 & $abb(n,y) & $ab(n,z) &
   $a105774(n,w) & $xx(n,t)) => y+1=z+w+2*t":
def ad "?msd_fib Ew $phi2n(n,w) & $a105774(w,z)":
def abd "?msd_fib Ew,y $phi2n(n,w) & $phin(w,y) & $a105774(y,z)":
eval checkd "?msd_fib An,z (n>=0 & $ad(n,z)) => $abb(n,z)":
eval checke "?msd_fib An,y,z,w,t (n>=1 & $abd(n,y) & $ab(n,z) &
   $a105774(n,w) & $xx(n,t)) => y+1=2*z+w+2*t":
"""

SUFFIX_MINIMA_REGEX = "10(100*10)*0*"
FIXED_POINT_REGEX = "1(00100*1)*(01|010|0100)?"

C_TABLE = [1, 2, 1, 0, 2, 0, 1, 2, 0, 2, 0, 1, 2, 0, 2, 1, 0, 2, 0, 1, 2]
APRIME_TABLE = [0, 1, 2, 4, 7, 6, 12, 11, 9, 20, 19, 17, 14, 15, 33, 32, 30, 27, 28, 22]

# the scripted identities expected TRUE, in order of appearance
SCRIPT_EVALS = [
    "check_at_least_one", "check_at_most_one", "test105774", "test012",
    "twice_consec", "chek1a", "chek2a", "chek0b", "chek1b", "chek2b",
    "check_two", "checkp2", "checkp1", "chk0", "lowerbound", "upperbound",
    "chklow", "chkup", "suffmin_regex", "twoconsec", "differ", "isolated",
    "ascending", "checkdiff", "cd0", "cd1", "cd1", "partb", "minval",
    "maxval", "checkparity", "checkap1", "checkap2", "check_distinct1",
    "check_distinct2", "check_distinct3", "compare_fib", "propw",
    "fixed_regex", "test", "test1", "test3", "test4", "test1", "test2",
    "test3", "checka", "checkb", "checkc", "checkd", "checke",
]


# oracle comparisons and regex scans cover the first _VERIFY_BOUND values
_VERIFY_BOUND = 100_000


class Reproduction:
    """Builds everything once, then replays the whole checklist."""

    def __init__(self, *, schedule=synth.DEFAULT_SCHEDULE, seed=20240901,
                 progress=None, store=None):
        self.schedule = schedule
        self.seed = seed
        self.progress = progress or (lambda msg: None)
        self.store = store
        self.catalog = None
        self.session = None
        self.relations = {}
        self.reports = {}
        self.script_report = None

    # -- construction ------------------------------------------------------

    def _cached(self, name, build):
        if self.store is not None:
            cached = self.store.load(name)
            if cached is not None:
                return cached
        aut = build()
        if self.store is not None:
            self.store.save(name, aut)
        return aut

    def prepare(self):
        if self.session is not None:
            return self.session
        self.progress("building the certified catalog")
        if self.store is not None and self.store.has_catalog():
            self.catalog = self.store.load_catalog()
        else:
            self.catalog = arith.build_catalog(progress=self.progress)
            if self.store is not None:
                self.store.save_catalog(self.catalog)

        jobs = [
            ("a105774", "a105774",
             [synth.function_certificate("fn"), synth.recurrence_certificate("fib")]),
            ("p0", "p0", [synth.function_certificate("fn")]),
            ("p1", "p1", [synth.function_certificate("fn")]),
            ("p2", "p2", [synth.function_certificate("fn")]),
            ("a368200", "sorted", [synth.function_certificate("fn")]),
            ("aprime", "distinct", [synth.function_certificate("fn")]),
            ("a21", "axy_2_1",
             [synth.function_certificate("fn"),
              synth.recurrence_certificate("fib", x=2, y=1)]),
            ("nestedb", "nested",
             [synth.function_certificate("fn"),
              synth.recurrence_certificate("fib_nested")]),
            ("lucasvar", "lucas_variant",
             [synth.function_certificate("fn"),
              synth.recurrence_certificate("lucas")]),
        ]
        for name, oracle_name, certs in jobs:
            self.progress(f"synthesizing {name}")
            def build(oracle_name=oracle_name, certs=certs, name=name):
                report = synth.synthesize_certified(
                    seqs.oracle(oracle_name), certs,
                    schedule=self.schedule, catalog=self.catalog,
                )
                self.reports[name] = report
                if report.verdict != "CERTIFIED":
                    raise arith.CatalogError(
                        f"{name} failed certification: {report.detail}"
                    )
                return report.candidate
            self.relations[name] = self._cached(name, build)

        session = logic.Session(self.catalog)
        for name in ("a105774", "p0", "p1", "p2", "a368200", "aprime"):
            session.define_automaton(name, self.relations[name])
        session.define_automaton(
            "suffminre",
            au.zero_normalize(au.regex_compile(SUFFIX_MINIMA_REGEX, 1)),
        )
        session.define_automaton(
            "fixedre",
            au.zero_normalize(au.regex_compile(FIXED_POINT_REGEX, 1)),
        )
        self.session = session
        return session

    # -- criterion steps ------------------------------------------------------

    def run(self, on_step=None):
        self.prepare()
        results = []

        def step(criterion, name, fn):
            t0 = time.time()
            try:
                ok, detail = fn()
            except Exception as exc:  # a crashed step is a failed step
                ok, detail = False, f"error: {exc}"
            res = StepResult(criterion, name, bool(ok), time.time() - t0, detail)
            results.append(res)
            if on_step:
                on_step(res)
            return res

        step(1, "a105774_certified", self._c1_certified)
        step(1, "a105774_oracle_agreement", self._c1_oracle)
        step(2, "scripted_identities", self._c2_script)
        step(3, "count_dfao_table", self._c3_counts)
        step(4, "permutation_linrep", self._c4_permutation)
        step(4, "permutation_mutation_witness", self._c4_mutation)
        step(5, "distinctness_transform", self._c5_distinct)
        step(6, "mod_dfao_state_counts", self._c6_mod_counts)
        step(7, "variant_state_counts", self._c7_variant_counts)
        step(8, "closed_forms", self._c8_closed_forms)
        step(8, "special_value_recurrences", self._c8_recurrences)
        step(9, "suffix_minima_regex", lambda: self._c9_regex(
            SUFFIX_MINIMA_REGEX, _suffix_minima_positions(_VERIFY_BOUND)))
        step(9, "fixed_points_regex", lambda: self._c9_regex(
            FIXED_POINT_REGEX, _fixed_points(_VERIFY_BOUND)))
        step(10, "run_length_encoding", self._c10_runlengths)
        step(11, "carlitz_constants", self._c11_carlitz)
        step(11, "carlitz_main_identity", self._c11_main)
        step(12, "automata_algebra_laws", lambda: automata_algebra_laws(self.seed))
        step(12, "learner_roundtrip", lambda: learner_roundtrip(self.seed))
        step(12, "linrep_padding_stability", lambda: linrep_padding_stability(
            self.relations["a105774"]))
        step(12, "engine_soundness", lambda: engine_soundness(self.seed, self.catalog))
        return results

    def _c1_certified(self):
        rep = self.reports.get("a105774")
        if rep is None:
            # loaded from store: re-run the certificates now
            verdict = synth.certify_function(self.relations["a105774"], self.catalog)
            rec = synth.recurrence_certificate("fib")(
                self.relations["a105774"], self.catalog
            )
            ok = verdict.ok and rec.ok
            return ok, "certificates re-run from store"
        return rep.verdict == "CERTIFIED", f"samples={rep.samples_used}"

    def _c1_oracle(self):
        n = _VERIFY_BOUND
        want = seqs.oracle("a105774").table(n)
        ok = arith.accepts_number_pairs(
            self.relations["a105774"], np.arange(n), want
        )
        if not bool(ok.all()):
            return False, f"first disagreement at n={int(np.flatnonzero(~ok)[0])}"
        return True, f"exact match for n < {n}"

    def _c2_script(self):
        report = self.session.run_script(SCRIPT)
        self.script_report = report
        got = [name for name, _ in report.evals]
        if got != SCRIPT_EVALS:
            return False, "script produced an unexpected eval list"
        bad = [name for name, val in report.evals if not val]
        if bad:
            return False, f"FALSE: {', '.join(bad)}"
        return True, f"{len(report.evals)} evals TRUE"

    def _c3_counts(self):
        cdfao = self.session.automaton("C")
        got = [cdfao.value_at(n) for n in range(21)]
        if got != C_TABLE:
            return False, f"table mismatch: {got}"
        n = 10_000
        vals = arith.dfao_values(cdfao, np.arange(n))
        want = seqs.count_c_table(n)
        if not np.array_equal(vals, want):
            bad = int(np.flatnonzero(vals != want)[0])
            return False, f"oracle mismatch at n={bad}"
        return True, f"table 0..20 and oracle to {n}"

    def _c4_permutation(self):
        ok = linrep.check_permutation(
            self.relations["a105774"], self.relations["a368200"], self.catalog
        )
        return ok, "difference of counting representations is zero"

    def _c4_mutation(self):
        rel = self.relations["a105774"]
        delta = np.array(rel.delta)
        q = 1 % rel.n_states
        s = rel.n_symbols - 1
        delta[q, s] = (delta[q, s] + 1) % rel.n_states
        mutated = au.Automaton(rel.arity, delta, rel.outputs, rel.initial)
        diff = linrep.subtract(
            linrep.counting_linrep(rel), linrep.counting_linrep(mutated)
        )
        witness = linrep.zero_witness(diff)
        if witness is None:
            return False, "mutation was not detected"
        return True, f"witness word {witness!r}"

    def _c5_distinct(self):
        ok, failed = linrep.check_distinct_transform(
            self.relations["a105774"], self.relations["aprime"], self.catalog
        )
        if not ok:
            return False, f"failed: {', '.join(failed)}"
        got = [int(v) for v in seqs.distinct_transform(len(APRIME_TABLE))]
        if got != APRIME_TABLE:
            return False, f"prefix mismatch: {got}"
        rel_ok = arith.accepts_number_pairs(
            self.relations["aprime"],
            np.arange(len(APRIME_TABLE)),
            np.array(APRIME_TABLE),
        )
        return bool(rel_ok.all()), "three conditions TRUE; prefix matches"

    def _c6_mod_counts(self):
        got = {}
        for k in (2, 3, 4, 5):
            dfao = arith.mod_dfao(k)
            got[k] = au.partial_state_count(dfao, arith.valid())
        bad = {k: v for k, v in got.items() if v != 2 * k * k}
        if bad:
            return False, f"counts {got}"
        return True, f"counts {got}"

    def _c7_variant_counts(self):
        expected = {"a21": 22, "nestedb": 24, "lucasvar": 102}
        got = {
            name: au.partial_state_count(self.relations[name], arith.valid_tracks(2))
            for name in expected
        }
        detail = ", ".join(f"{n}={got[n]} (expected {expected[n]})" for n in expected)
        return got == expected, detail

    def _c8_closed_forms(self):
        for n in range(0, 31):
            if seqs.s_closed(n) != Fraction(seqs.s_value(n)):
                return False, f"s closed form wrong at n={n}"
        for n in range(2, 31):
            if seqs.t_closed(n) != Fraction(seqs.t_value(n)):
                return False, f"t closed form wrong at n={n}"
        return True, "s on 0..30, t on 2..30"

    def _c8_recurrences(self):
        s = [seqs.s_value(n) for n in range(31)]
        for n in range(4, 31):
            if s[n] != s[n - 1] + s[n - 3] + s[n - 4]:
                return False, f"s recurrence fails at n={n}"
        t = [seqs.t_value(n) for n in range(31)]
        bad = [n for n in range(5, 31) if t[n] != t[n - 1] + t[n - 3] + t[n - 4]]
        if bad:
            return False, (
                f"t recurrence fails at n={bad} over the stated range n>=5 "
                f"(t(5)={t[5]} but t(4)+t(2)+t(1)={t[4]+t[2]+t[1]}; "
                "it holds for 6<=n<=30)"
            )
        return True, "s from 4, t from 5"

    def _c9_regex(self, pattern, want_positions):
        aut = au.zero_normalize(au.regex_compile(pattern, 1))
        n = _VERIFY_BOUND
        got = arith.accepts_number_pairs(aut, np.arange(1, n + 1))
        want = np.zeros(n, dtype=bool)
        want[np.asarray(want_positions) - 1] = True
        if not np.array_equal(got, want):
            bad = int(np.flatnonzero(got != want)[0]) + 1
            return False, f"membership differs from the oracle scan at n={bad}"
        return True, f"matches the oracle scan for 1 <= n <= {n}"

    def _c10_runlengths(self):
        n = 10_000
        runs = seqs.run_lengths(n)
        fib_vals = arith.dfao_values(self.catalog["fibword"], np.arange(n - 1))
        want = np.concatenate(([1], 2 - fib_vals))
        if not np.array_equal(runs, want):
            bad = int(np.flatnonzero(runs != want)[0])
            return False, f"run {bad} differs"
        return True, f"first {n} runs equal 1, then 2 - fibword"

    def _c11_carlitz(self):
        lr = linrep.carlitz_linrep()
        for size in range(1, 11):
            for bits in range(1 << size):
                u = "".join("bd"[(bits >> i) & 1] for i in range(size))
                if linrep.carlitz_C(u) != linrep.evaluate(lr, u):
                    return False, f"recursion != representation at {u}"
        c = linrep.carlitz_C
        for size in range(1, 9):
            for bits in range(1 << size):
                v = "".join("bd"[(bits >> i) & 1] for i in range(size))
                base, cvb, cvd = c(v), c(v + "b"), c(v + "d")
                checks = [
                    c(v + "bb") == base + cvb + cvd,
                    c(v + "bd") == cvd,
                    c(v + "db") == cvb + 2 * cvd,
                    c(v + "dd") == base + cvb + cvd,
                ]
                if not all(checks):
                    return False, f"derived relation fails at v={v}"
        return True, "recursion = representation to |u|=10; relations to |v|=8"

    def _c11_main(self):
        a = seqs.oracle("a105774")
        big = nu.floor_phi2(nu.floor_phi2(nu.floor_phi2(nu.floor_phi2(nu.floor_phi2(2000))))) + 5
        a.table(big + 2)
        for size in range(1, 6):
            for bits in range(1 << size):
                u = "".join("bd"[(bits >> i) & 1] for i in range(size))
                i, j = u.count("b"), u.count("d")
                cu = linrep.carlitz_C(u)
                for n in range(1, 2001):
                    m = n
                    for ch in reversed(u):
                        m = nu.floor_phi(m) if ch == "b" else nu.floor_phi2(m)
                    lhs = a.value(m)
                    x = seqs.x_comp(n)
                    rhs = (
                        nu.fib(i + 2 * j) * a.value(nu.floor_phi(n))
                        + nu.fib(i + 2 * j - 1) * a.value(n)
                        + cu * (2 * x - 1)
                    )
                    if lhs != rhs:
                        return False, f"identity fails at u={u}, n={n}"
        return True, "all |u| <= 5, n <= 2000"


# ---------------------------------------------------------------------------
# oracle scans for the regex characterizations


def _suffix_minima_positions(limit):
    a = seqs.a105774_table(4 * limit + 16)
    later_min = np.minimum.accumulate(a[::-1])[::-1]
    # a(n) < a(m) for every m > n  <=>  a(n) < min of the strict suffix
    ok = a[1 : limit + 1] < later_min[2 : limit + 2]
    return np.flatnonzero(ok) + 1


def _fixed_points(limit):
    a = seqs.a105774_table(limit + 1)
    return np.flatnonzero(a[1:] == np.arange(1, limit + 1)) + 1


# ---------------------------------------------------------------------------
# randomized property suites (criterion 12)


def _random_automaton(rng, arity, max_states=6):
    n = rng.randrange(1, max_states + 1)
    S = 1 << arity
    delta = np.array(
        [[rng.randrange(n) for _ in range(S)] for _ in range(n)], dtype=np.int32
    )
    outputs = np.array([rng.randrange(2) for _ in range(n)], dtype=np.int32)
    return au.Automaton(arity, delta, outputs, 0)


def _lang_vector(a, max_len=8):
    """Acceptance of every word up to max_len, by length, then by the index w
    with word[k] = (w // S**k) % S; S = a.n_symbols."""
    out = []
    # states after every word of the current length, in index order: a word
    # one letter longer is w + S**length * (its last letter)
    states = np.array([a.initial])
    for _ in range(max_len + 1):
        out.extend((a.outputs[states] == 1).tolist())
        states = a.delta[states].T.ravel()
    return out


def automata_algebra_laws(seed):
    rng = random.Random(seed)
    for trial in range(25):
        arity = rng.choice([1, 1, 2])
        a = _random_automaton(rng, arity)
        b = _random_automaton(rng, arity)
        if not au.equivalent(au.complement(au.complement(a)), a):
            return False, f"double complement failed (trial {trial})"
        lhs = au.complement(au.intersect(a, b))
        rhs = au.union(au.complement(a), au.complement(b))
        if not au.equivalent(lhs, rhs):
            return False, f"De Morgan failed (trial {trial})"
        m = au.minimize(a)
        if not au.equivalent(m, a) or au.minimize(m).n_states != m.n_states:
            return False, f"minimize not idempotent (trial {trial})"
        nfa = au.Nfa.from_dfa(a)
        d = au.determinize(nfa)
        if _lang_vector(d, 6) != _lang_vector(a, 6):
            return False, f"determinize changed the language (trial {trial})"
        z = au.zero_normalize(a)
        for w in range(64):
            word = [(w >> i) & (a.n_symbols - 1) for i in range(3)]
            if z.accepts(word) != z.accepts([0] + word):
                return False, f"normalization invariant failed (trial {trial})"
        # projecting a freshly added unconstrained track is the identity
        lifted = au.cylindrify(au.zero_normalize(a), list(range(arity)), arity + 1)
        back = au.project(
            au.Automaton(lifted.arity, lifted.delta, lifted.outputs,
                         lifted.initial, True),
            arity,
        )
        if not au.equivalent(back, au.zero_normalize(a)):
            return False, f"project/cylindrify roundtrip failed (trial {trial})"
    return True, "25 randomized trials"


def learner_roundtrip(seed):
    rng = random.Random(seed)
    for trial in range(12):
        k = rng.randrange(2, 9)
        target = au.minimize(_random_automaton(rng, 1, max_states=k))
        member = lambda w: target.accepts(list(w))
        learned = synth.guess_dfa(
            member, 1, bound=2 * target.n_states + 6,
            suffix_len=min(target.n_states + 1, 8),
        )
        if not au.equivalent(learned, target):
            return False, f"roundtrip failed for a {target.n_states}-state DFA"
    return True, "12 random DFAs with up to 8 states recovered"


def linrep_padding_stability(rel):
    lr = linrep.counting_linrep(rel)
    c = seqs.count_c_table(1000)
    for n in range(1000):
        word = linrep.count_word(n)
        vals = {linrep.evaluate(lr, [0] * j + word) for j in range(4)}
        if vals != {int(c[n])}:
            return False, f"value not padding-stable at n={n}"
    return True, "values stable under 0..3 extra pad symbols, equal to counts"


_SOUND_OPS = ["&", "|", "=>", "<=>"]


def _random_term(rng, vars_, depth):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.6:
            return rng.choice(vars_)
        return str(rng.randrange(0, 21))
    op = rng.choice(["+", "-", "*", "/"])
    if op == "*":
        return f"{rng.randrange(1, 4)}*({_random_term(rng, vars_, depth - 1)})"
    if op == "/":
        return f"({_random_term(rng, vars_, depth - 1)})/{rng.randrange(1, 4)}"
    left = _random_term(rng, vars_, depth - 1)
    right = _random_term(rng, vars_, depth - 1)
    return f"({left}){op}({right})"


def _random_formula(rng, vars_, depth):
    if depth == 0 or rng.random() < 0.45:
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        return f"({_random_term(rng, vars_, 2)}){op}({_random_term(rng, vars_, 2)})"
    if rng.random() < 0.2:
        return f"~({_random_formula(rng, vars_, depth - 1)})"
    op = rng.choice(_SOUND_OPS)
    return (
        f"({_random_formula(rng, vars_, depth - 1)}){op}"
        f"({_random_formula(rng, vars_, depth - 1)})"
    )


def _eval_term(t, env):
    """Reference semantics: natural subtraction fails (None) on underflow,
    and / is floor division."""
    if isinstance(t, logic.Var):
        return env[t.name]
    if isinstance(t, logic.Const):
        return t.value
    a, b = _eval_term(t.left, env), _eval_term(t.right, env)
    if a is None or b is None:
        return None
    if t.op == "+":
        return a + b
    if t.op == "-":
        return a - b if a >= b else None
    if t.op == "*":
        return a * b
    if t.op == "/":
        return a // b
    raise ValueError(t.op)


def _eval_formula(f, env):
    if isinstance(f, logic.Compare):
        a = _eval_term(f.left, env)
        b = _eval_term(f.right, env)
        if a is None or b is None:
            # an underflowing term satisfies no relation; != is ~(=)
            present = f.op == "!="
        else:
            present = {"=": a == b, "!=": a != b, "<": a < b,
                       "<=": a <= b, ">": a > b, ">=": a >= b}[f.op]
        return present
    if isinstance(f, logic.Not):
        return not _eval_formula(f.body, env)
    if isinstance(f, logic.BoolOp):
        a = _eval_formula(f.left, env)
        b = _eval_formula(f.right, env)
        return {"&": a and b, "|": a or b, "=>": (not a) or b, "<=>": a == b}[f.op]
    raise TypeError(f)


def engine_soundness(seed, catalog):
    """Random quantifier-free formulas versus direct arithmetic."""
    rng = random.Random(seed)
    session = logic.Session(catalog)
    for trial in range(40):
        vars_ = ["x", "y"] if rng.random() < 0.7 else ["x", "y", "z"]
        text = _random_formula(rng, vars_, 2)
        ast_f = logic.parse_formula(text)
        q = session.compile(ast_f)
        if q.variables != tuple(sorted(set(q.variables))):
            return False, "track order broke"
        for _ in range(60):
            env = {v: rng.randrange(0, 500) for v in vars_}
            want = _eval_formula(ast_f, env)
            got = q.aut.accepts_numbers(*(env[v] for v in q.variables)) if q.variables else q.aut.accepts("")
            if want != got:
                return False, f"formula {text} disagrees at {env}"
    # quantifiers on a few closed samples: a witness in [0, 30)^2 makes
    # Ex,y TRUE, and a counterexample there makes Ax,y FALSE
    for trial in range(6):
        body = _random_formula(rng, ["x", "y"], 1)
        ast_f = logic.parse_formula(body)
        seen = {_eval_formula(ast_f, {"x": x, "y": y}) for x in range(30) for y in range(30)}
        some = session.compile(f"Ex,y {body}").aut.accepts("")
        every = session.compile(f"Ax,y {body}").aut.accepts("")
        if (True in seen and not some) or (False in seen and every):
            return False, f"quantifier law failed for {body}"
    return True, "40 formulas x 60 assignments, plus quantifier-law samples"
