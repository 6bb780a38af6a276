"""Frozen workload inputs, item runners and correctness gates.

Everything a workload feeds the program lives in this file: the paper
script, its expected verdicts and canonical def forms, the oracle check
list and the cold-start build jobs with their expected state counts.  Nothing is taken
from ``fibdecide.reproduce``, so editing ``src/`` cannot change a workload.

An *item* is one unit of work with a known answer.  A runner yields
``(name, run, check)`` triples: ``run()`` does the program's work and is
timed; ``check(answer)`` is the gate, runs after every item has its answer
and returns ``None`` when the answer is right or a short reason otherwise.
The gates use only the code below (its own Zeckendorf encoder, automaton
walker and canonical form), never the code under test.
"""

from __future__ import annotations

import hashlib

import numpy as np

# walnut_script and oracle_checks read the catalog and the synthesized
# relations from a store; cold_start builds them itself.
STORE_WORKLOADS = ("walnut_script", "oracle_checks")


# ---------------------------------------------------------------------------
# independent reference helpers (never the code under test)


def zeckendorf(n: int) -> list:
    """Greedy Zeckendorf digits of n, most significant first; [] for 0."""
    fibs = [1, 2]
    while fibs[-1] <= n:
        fibs.append(fibs[-1] + fibs[-2])
    digits = []
    for f in reversed(fibs):
        if f <= n:
            digits.append(1)
            n -= f
        elif digits:
            digits.append(0)
    return digits


def accepts(aut, nums) -> bool:
    """Walk aut on the zero-padded msd-first tracks of nums (track 0 = MSB)."""
    tracks = [zeckendorf(v) for v in nums]
    width = max([len(t) for t in tracks] + [0])
    tracks = [[0] * (width - len(t)) + t for t in tracks]
    delta = aut.delta
    state = aut.initial
    for col in range(width):
        sym = 0
        for t in tracks:
            sym = (sym << 1) | t[col]
        state = int(delta[state, sym])
    return int(aut.outputs[state]) == 1


def canonical_form(aut) -> tuple:
    """(states, digest) of the minimal complete automaton, BFS-numbered.

    The minimal automaton of a language is unique up to renaming, and BFS
    numbering from the start state with symbols in ascending order fixes
    the renaming, so equal languages give equal digests.
    """
    delta = np.asarray(aut.delta, dtype=np.int64)
    outputs = np.asarray(aut.outputs, dtype=np.int64)
    n, S = delta.shape
    seen = np.zeros(n, dtype=bool)
    seen[aut.initial] = True
    frontier = [aut.initial]
    while frontier:
        nxt = np.unique(delta[frontier].ravel())
        frontier = [int(q) for q in nxt if not seen[q]]
        seen[frontier] = True
    reach = np.flatnonzero(seen)
    remap = np.full(n, -1, dtype=np.int64)
    remap[reach] = np.arange(reach.size)
    delta = remap[delta[reach]]
    outputs = outputs[reach]
    init = int(remap[aut.initial])
    _, ids = np.unique(outputs, return_inverse=True)
    count = int(ids.max()) + 1
    while True:
        sig = np.column_stack([ids] + [ids[delta[:, s]] for s in range(S)])
        _, ids = np.unique(sig, axis=0, return_inverse=True)
        ids = ids.ravel()
        new_count = int(ids.max()) + 1
        if new_count == count:
            break
        count = new_count
    rep = np.zeros(count, dtype=np.int64)
    rep[ids] = np.arange(ids.size)
    qdelta = ids[delta[rep]]
    qout = outputs[rep]
    order = [int(ids[init])]
    number = {order[0]: 0}
    i = 0
    while i < len(order):
        for s in range(S):
            t = int(qdelta[order[i], s])
            if t not in number:
                number[t] = len(order)
                order.append(t)
        i += 1
    canon = np.array([[number[int(t)] for t in qdelta[q]] for q in order], dtype=np.int64)
    outs = np.array([qout[q] for q in order], dtype=np.int64)
    h = hashlib.sha256()
    h.update(f"{aut.arity}:{len(order)}:".encode())
    h.update(canon.tobytes())
    h.update(outs.tobytes())
    return len(order), h.hexdigest()[:16]


def _form_check(want):
    def check(aut):
        got = canonical_form(aut)
        return None if got == want else f"canonical form {got}, expected {want}"

    return check


def _equals(want):
    def check(got):
        return None if got == want else f"got {got!r}, expected {want!r}"

    return check


# ---------------------------------------------------------------------------
# walnut_script: the paper script, its verdicts and its canonical def forms

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

# Every eval of the script is stated TRUE in the paper.
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

# Canonical (states, digest) of each def/reg/combine result, recorded at
# the commit that introduced this benchmark.
SCRIPT_FORMS = {
    '02_reg_adjfib': (4, '222279f06d13d2e2'),
    '03_def_trapfib': (9, '249a52eab274a3a3'),
    '06_def_s0': (10, 'fee953cd54b70b78'),
    '07_def_s2': (8, '05269220b5cfad81'),
    '08_def_s1': (10, 'bc12d6ebffc37601'),
    '09_combine_C': (10, '4c25245e048127e5'),
    '16_def_a007067': (9, '124056c18b29e490'),
    '17_def_a007064': (9, '91480836c7619180'),
    '20_def_a035487': (9, '4026c463bda4ecdd'),
    '22_def_a004937': (11, 'a195809d96fed766'),
    '26_reg_lucfib': (5, 'efae28ae97f017ed'),
    '29_def_suffmin': (7, '12e456e9f1352b96'),
    '33_def_a003623': (12, 'b2fca46f4be0b9b0'),
    '36_def_diff': (12, 'c5178bc202250e0f'),
    '41_reg_isfib': (3, 'b07c47eda6c009ff'),
    '42_def_special': (7, '7897b4e20e13f0f1'),
    '43_reg_four': (7, '80b1b48b37064ecf'),
    '47_def_even': (9, '5c32f32f6df2373c'),
    '53_def_first_occ': (17, 'bad3e0080fc86638'),
    '55_def_nthrun2': (5, '908fe1f6c727baf2'),
    '57_def_trapfib2': (5, '162a1a0d0e2294ec'),
    '58_def_wseq': (8, '9e0cb64ee200499c'),
    '60_def_fixed': (10, 'd19a043705c90c41'),
    '62_reg_even1': (2, '5aad35af6a1a262d'),
    '63_def_ab': (17, '4d262f8b1f315556'),
    '64_def_ba': (18, '49552afdc5ef4568'),
    '66_def_xx': (13, '7ca2f820986679f2'),
    '68_def_aba': (39, '687f11060454e6e7'),
    '69_def_bab': (19, '0fdba43bdabc7c74'),
    '71_def_aab': (35, 'abae8eaa035a61c0'),
    '73_def_ca': (19, 'cfcf09caafa13724'),
    '74_def_dp': (17, '98bd6b5d6f519958'),
    '77_def_cab': (24, 'ddbb9474ef6df942'),
    '78_def_abb': (21, '7717f65d791f27d9'),
    '83_def_ad': (21, '7717f65d791f27d9'),
    '84_def_abd': (26, '5aa212c326718190'),
}

# The six synthesized relations the script applies, by store name.
SCRIPT_RELATIONS = ("a105774", "p0", "p1", "p2", "a368200", "aprime")


def walnut_setup(fd, store_dir):
    """Fresh session over the stored catalog and relations."""
    from fibdecide import cli

    store = cli.Store(store_dir)
    session = fd.logic.Session(store.load_catalog())
    for name in SCRIPT_RELATIONS:
        session.define_automaton(name, store.load(name))
    au = fd.automata
    session.define_automaton(
        "suffminre", au.zero_normalize(au.regex_compile(SUFFIX_MINIMA_REGEX, 1)))
    session.define_automaton(
        "fixedre", au.zero_normalize(au.regex_compile(FIXED_POINT_REGEX, 1)))
    return session


def walnut_items(fd, session, seed):
    logic = fd.logic
    cmds = logic.parse_script(SCRIPT)
    evals = iter(SCRIPT_EVALS)
    for idx, cmd in enumerate(cmds):
        kind = type(cmd).__name__.replace("Cmd", "").lower()
        name = f"{idx:02d}_{kind}_{cmd.name}"
        if kind == "eval":
            want_name = next(evals, None)

            def run(cmd=cmd):
                return session.run_command(cmd)[2]

            check = _equals(True) if want_name == cmd.name else (
                lambda got, n=want_name: f"eval {n!r} expected here")
        else:
            def run(cmd=cmd):
                session.run_command(cmd)
                return session.automaton(cmd.name)

            check = _form_check(SCRIPT_FORMS.get(name))
        yield name, run, check


# ---------------------------------------------------------------------------
# oracle_checks: criterion checks that barely touch the compiler
#
# The special-value t-recurrence is stated from n=5 in the source but holds
# only from n=6 (a known erratum); it is deliberately not a check here.

ORACLE_RELATIONS = ("a105774", "a368200", "aprime")
APRIME_TABLE = [0, 1, 2, 4, 7, 6, 12, 11, 9, 20, 19, 17, 14, 15, 33, 32, 30, 27, 28, 22]
ORACLE_BOUND = 100_000


def oracle_setup(fd, store_dir):
    from fibdecide import cli

    store = cli.Store(store_dir)
    catalog = store.load_catalog()
    rels = {name: store.load(name) for name in ORACLE_RELATIONS}
    return catalog, rels


def _words(size):
    return ["".join("bd"[(bits >> i) & 1] for i in range(size)) for bits in range(1 << size)]


def oracle_items(fd, state, seed):
    nu, seqs, linrep, arith, au = fd.numeration, fd.seqs, fd.linrep, fd.arith, fd.automata
    catalog, rels = state
    ok = _equals(True)

    # Carlitz main identity, one item per word u, n <= 2000
    a = seqs.oracle("a105774")
    big = 2000
    for _ in range(5):
        big = nu.floor_phi2(big)
    big += 5

    def carlitz_main(u):
        a.table(big + 2)
        i, j = u.count("b"), u.count("d")
        cu = linrep.carlitz_C(u)
        for n in range(1, 2001):
            m = n
            for ch in reversed(u):
                m = nu.floor_phi(m) if ch == "b" else nu.floor_phi2(m)
            x = seqs.x_comp(n)
            rhs = (nu.fib(i + 2 * j) * a.value(nu.floor_phi(n))
                   + nu.fib(i + 2 * j - 1) * a.value(n) + cu * (2 * x - 1))
            if a.value(m) != rhs:
                return False
        return True

    for size in range(1, 6):
        for u in _words(size):
            yield f"carlitz_main_{u}", (lambda u=u: carlitz_main(u)), ok

    # Carlitz constants: recursion equals representation, and the derived
    # relations between C(vb), C(vd) and C(v)
    lr = linrep.carlitz_linrep()

    def carlitz_repr(size):
        return all(linrep.carlitz_C(u) == linrep.evaluate(lr, u) for u in _words(size))

    def carlitz_relations(size):
        c = linrep.carlitz_C
        for v in _words(size):
            base, cvb, cvd = c(v), c(v + "b"), c(v + "d")
            if not (c(v + "bb") == base + cvb + cvd and c(v + "bd") == cvd
                    and c(v + "db") == cvb + 2 * cvd and c(v + "dd") == base + cvb + cvd):
                return False
        return True

    for size in range(1, 11):
        yield f"carlitz_repr_{size}", (lambda s=size: carlitz_repr(s)), ok
    for size in range(1, 9):
        yield f"carlitz_relations_{size}", (lambda s=size: carlitz_relations(s)), ok

    # linrep padding stability of the counting representation, 10 blocks
    rel = rels["a105774"]

    def padding(lo):
        lrc = linrep.counting_linrep(rel)
        counts = seqs.count_c_table(1000)
        for n in range(lo, lo + 100):
            word = linrep.count_word(n)
            if {linrep.evaluate(lrc, [0] * j + word) for j in range(4)} != {int(counts[n])}:
                return False
        return True

    for lo in range(0, 1000, 100):
        yield f"linrep_padding_{lo:03d}", (lambda lo=lo: padding(lo)), ok

    yield "permutation_zero_test", (lambda: linrep.check_permutation(
        rels["a105774"], rels["a368200"], catalog)), ok

    def mutation():
        delta = np.array(rel.delta)
        q, s = 1 % rel.n_states, rel.n_symbols - 1
        delta[q, s] = (delta[q, s] + 1) % rel.n_states
        mutated = au.Automaton(rel.arity, delta, rel.outputs, rel.initial)
        diff = linrep.subtract(linrep.counting_linrep(rel), linrep.counting_linrep(mutated))
        return linrep.zero_witness(diff) is not None

    yield "mutation_witness", mutation, ok

    def agreement():
        want = seqs.oracle("a105774").table(ORACLE_BOUND)
        return bool(arith.accepts_number_pairs(rel, np.arange(ORACLE_BOUND), want).all())

    yield "a105774_oracle_agreement", agreement, ok

    def regex_scan(pattern, positions):
        aut = au.zero_normalize(au.regex_compile(pattern, 1))
        got = arith.accepts_number_pairs(aut, np.arange(1, ORACLE_BOUND + 1))
        want = np.zeros(ORACLE_BOUND, dtype=bool)
        want[np.asarray(positions()) - 1] = True
        return bool(np.array_equal(got, want))

    def suffix_minima():
        t = seqs.a105774_table(4 * ORACLE_BOUND + 16)
        later_min = np.minimum.accumulate(t[::-1])[::-1]
        return np.flatnonzero(t[1:ORACLE_BOUND + 1] < later_min[2:ORACLE_BOUND + 2]) + 1

    def fixed_points():
        t = seqs.a105774_table(ORACLE_BOUND + 1)
        return np.flatnonzero(t[1:] == np.arange(1, ORACLE_BOUND + 1)) + 1

    yield "suffix_minima_regex", (lambda: regex_scan(SUFFIX_MINIMA_REGEX, suffix_minima)), ok
    yield "fixed_points_regex", (lambda: regex_scan(FIXED_POINT_REGEX, fixed_points)), ok

    def run_lengths():
        n = 10_000
        runs = seqs.run_lengths(n)
        fib_vals = arith.dfao_values(catalog["fibword"], np.arange(n - 1))
        return bool(np.array_equal(runs, np.concatenate(([1], 2 - fib_vals))))

    yield "run_length_encoding", run_lengths, ok

    def distinct():
        good, _ = linrep.check_distinct_transform(rels["a105774"], rels["aprime"], catalog)
        prefix = [int(v) for v in seqs.distinct_transform(len(APRIME_TABLE))]
        agree = arith.accepts_number_pairs(
            rels["aprime"], np.arange(len(APRIME_TABLE)), np.array(APRIME_TABLE))
        return bool(good and prefix == APRIME_TABLE and agree.all())

    yield "distinctness_transform", distinct, ok


# ---------------------------------------------------------------------------
# cold_start: catalog and certified syntheses with no store, as a rebuild

# reproduce-paper defaults: sample schedule and verification bounds
SYNTH_SCHEDULE = (4096, 16384, 65536, 262144)
PHIN_VERIFY = 1 << 20
MOD_VERIFY = 100_000

CATALOG_NAMES = (
    "valid", "eq", "lt", "leq", "add", "phin", "phi2n",
    "a007067", "a007064", "a004937", "a003623", "a035487", "fibword",
)

# (store name, oracle, certificates); the certificates are built from the
# synth module at call time, so a traced run sees the factories it wraps
SYNTH_JOBS = (
    ("a105774", "a105774",
     lambda s: [s.function_certificate("fn"), s.recurrence_certificate("fib")]),
    ("p0", "p0", lambda s: [s.function_certificate("fn")]),
    ("p1", "p1", lambda s: [s.function_certificate("fn")]),
    ("p2", "p2", lambda s: [s.function_certificate("fn")]),
    ("a368200", "sorted", lambda s: [s.function_certificate("fn")]),
    ("aprime", "distinct", lambda s: [s.function_certificate("fn")]),
    ("a21", "axy_2_1",
     lambda s: [s.function_certificate("fn"), s.recurrence_certificate("fib", x=2, y=1)]),
    ("nestedb", "nested",
     lambda s: [s.function_certificate("fn"), s.recurrence_certificate("fib_nested")]),
    ("lucasvar", "lucas_variant",
     lambda s: [s.function_certificate("fn"), s.recurrence_certificate("lucas")]),
)

# partial state counts over valid strings stated in the paper
VARIANT_COUNTS = {"a21": 22, "nestedb": 24, "lucasvar": 102}
MOD_COUNTS = {2: 8, 3: 18, 4: 32, 5: 50}

# Canonical (states, digest) of every built automaton, recorded at the
# commit that introduced this benchmark.
BUILD_FORMS = {
    'valid': (3, 'd86649537d1a2308'),
    'eq': (3, '5e36c53764b972cc'),
    'lt': (7, '2909f67292d50de1'),
    'leq': (7, '86878b650ec116c1'),
    'add': (17, '6dc69b35be345fd5'),
    'phin': (8, 'e9733a51a05bda85'),
    'phi2n': (9, 'f4750c9b5e497245'),
    'a007067': (9, '124056c18b29e490'),
    'a007064': (9, '91480836c7619180'),
    'a004937': (11, 'a195809d96fed766'),
    'a003623': (12, 'b2fca46f4be0b9b0'),
    'a035487': (9, '4026c463bda4ecdd'),
    'fibword': (2, '9c45cc61c65dfef1'),
    'a105774': (17, '0b3b97e2ea00d241'),
    'p0': (12, 'f4bb08d828ae587f'),
    'p1': (21, 'e83f1118ea789032'),
    'p2': (9, '91480836c7619180'),
    'a368200': (15, '432154dc97d08761'),
    'aprime': (17, '4d262f8b1f315556'),
    'a21': (23, '51ff229ec2a7f8f9'),
    'nestedb': (25, 'fcaf140ce812199f'),
    'lucasvar': (103, 'cf6b469f95468a23'),
}


def cold_setup(fd, store_dir):
    return {}


def _synthesize(fd, oracle_name, certs, catalog):
    return fd.synth.synthesize_certified(
        fd.seqs.oracle(oracle_name), certs(fd.synth),
        schedule=SYNTH_SCHEDULE, catalog=catalog)


def cold_items(fd, built, seed):
    arith, au = fd.arith, fd.automata

    def catalog():
        built["catalog"] = arith.build_catalog(phin_verify=PHIN_VERIFY)
        return built["catalog"]

    def catalog_check(cat):
        for name in CATALOG_NAMES:
            got = canonical_form(cat[name])
            if got != BUILD_FORMS.get(name):
                return f"{name}: canonical form {got}, expected {BUILD_FORMS.get(name)}"
        return None

    yield "build_catalog", catalog, catalog_check

    for name, oracle_name, certs in SYNTH_JOBS:
        def job(name=name, oracle_name=oracle_name, certs=certs):
            report = _synthesize(fd, oracle_name, certs, built["catalog"])
            built[name] = report.candidate
            return report.verdict, report.candidate

        def check(answer, name=name):
            verdict, cand = answer
            if verdict != "CERTIFIED":
                return f"verdict {verdict}"
            return _form_check(BUILD_FORMS.get(name))(cand)

        yield f"synth_{name}", job, check

    for name, want in VARIANT_COUNTS.items():
        yield (f"state_count_{name}",
               (lambda name=name: au.partial_state_count(built[name], arith.valid_tracks(2))),
               _equals(want))
    for k, want in MOD_COUNTS.items():
        yield (f"state_count_mod{k}",
               (lambda k=k: au.partial_state_count(
                   arith.mod_dfao(k, verify_bound=MOD_VERIFY), arith.valid())),
               _equals(want))


def build_store(fd, store_dir):
    """Build and save what the warm workloads read: the catalog and the six
    relations they apply.  Gated on the recorded canonical forms."""
    from fibdecide import cli

    catalog = fd.arith.build_catalog(phin_verify=1 << 16)
    store = cli.Store(store_dir)
    built = {name: catalog[name] for name in CATALOG_NAMES}
    relations = set(SCRIPT_RELATIONS) | set(ORACLE_RELATIONS)
    for name, oracle_name, certs in SYNTH_JOBS:
        if name in relations:
            built[name] = _synthesize(fd, oracle_name, certs, catalog).candidate
    for name, aut in built.items():
        if aut is None or canonical_form(aut) != BUILD_FORMS[name]:
            raise RuntimeError(f"store build: {name} differs from its recorded form")
    store.save_catalog(catalog)
    for name in relations:
        store.save(name, built[name])


RUNNERS = {
    "walnut_script": (walnut_setup, walnut_items),
    "oracle_checks": (oracle_setup, oracle_items),
    "cold_start": (cold_setup, cold_items),
}
WORKLOADS = tuple(RUNNERS)
