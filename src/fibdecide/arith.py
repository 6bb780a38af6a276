"""Built-in relations over Fibonacci representations.

Provides the base relations of the logical structure (validity, equality,
order, addition, constant multiplication and division) as raw automaton
constructions, plus the certified catalog of named automata every session
starts from: the Beatty function automata, the Fibonacci-word DFAO and
mod-k DFAOs.

All catalog automata are zero-normalized, minimized, and accept only
strings whose tracks are valid (no adjacent 1s); relations therefore talk
about numbers, with padding conventions handled once here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import automata as au
from . import numeration as nu
from .automata import Automaton

__all__ = [
    "valid",
    "valid_tracks",
    "eq",
    "lt",
    "leq",
    "add",
    "const",
    "leq_const",
    "const_mul",
    "const_div",
    "fibword",
    "mod_dfao",
    "BuiltinCatalog",
    "build_catalog",
    "CatalogError",
    "accepts_number_pairs",
    "dfao_values",
]


class CatalogError(RuntimeError):
    """A catalog automaton failed its certification."""


# -- base relations -------------------------------------------------------


@lru_cache(maxsize=None)
def valid_tracks(k: int) -> Automaton:
    """Strings whose every track avoids adjacent 1s (leading zeros allowed)."""
    S = 1 << k
    dead = S
    delta = np.empty((S + 1, S), dtype=np.int32)
    for m in range(S):
        for s in range(S):
            delta[m, s] = dead if (m & s) else s
    delta[dead, :] = dead
    outputs = np.ones(S + 1, dtype=np.int32)
    outputs[dead] = 0
    out = Automaton(k, delta, outputs, 0, zero_normalized=True)
    return au.minimize(out)


def valid() -> Automaton:
    return valid_tracks(1)


def _finish(a: Automaton) -> Automaton:
    return au.zero_normalize(au.minimize(a))


@lru_cache(maxsize=None)
def eq() -> Automaton:
    """Pairs (x, x) of valid equal-length-padded representations."""
    # states: 0 equal-so-far, 1 dead
    delta = np.array([[0, 1, 1, 0], [1, 1, 1, 1]], dtype=np.int32)
    outputs = np.array([1, 0], dtype=np.int32)
    base = Automaton(2, delta, outputs, 0)
    return _finish(au.intersect(base, valid_tracks(2)))


@lru_cache(maxsize=None)
def lt() -> Automaton:
    """Pairs (x, y) with x < y.

    Equal-length zero-padded valid strings compare numerically exactly as
    they compare lexicographically, so one pass tracking {equal, less,
    greater} suffices.  Cross-checked against the additive definition in
    the test suite.
    """
    EQ, LESS, GREATER = 0, 1, 2
    delta = np.empty((3, 4), dtype=np.int32)
    delta[EQ] = [EQ, LESS, GREATER, EQ]  # symbols [0,0],[0,1],[1,0],[1,1]
    delta[LESS] = [LESS] * 4
    delta[GREATER] = [GREATER] * 4
    outputs = np.array([0, 1, 0], dtype=np.int32)
    base = Automaton(2, delta, outputs, 0)
    return _finish(au.intersect(base, valid_tracks(2)))


@lru_cache(maxsize=None)
def leq() -> Automaton:
    return _finish(au.union(lt(), eq()))


# Induction on y; succ is defined from < alone, so no query has a + term.
# zero and step give cand(x, y, x+y) and functional leaves no other z.
_ADD_SUCC = ("succ", "x<y & ~(Ez x<z & z<y)")
_ADD_CERT = [
    ("zero", "Ax $cand(x,0,x)"),
    ("total", "Ax,y Ez $cand(x,y,z)"),
    ("functional", "Ax,y,z,w ($cand(x,y,z) & $cand(x,y,w)) => z=w"),
    ("step", "Ax,y,z,u,w ($cand(x,y,z) & $succ(y,u) & $succ(z,w)) => $cand(x,u,w)"),
]


@lru_cache(maxsize=None)
def add() -> Automaton:
    """Triples (x, y, z) with x + y = z, every track valid.

    Msd-first balance recognizer.  A state is an integer pair (p, q): after
    reading a prefix, the outstanding imbalance value(x) + value(y) -
    value(z) equals p*F(m+2) + q*F(m+1) where m symbols remain.  Reading a
    digit triple with d = a + b - c maps (p, q) to (p + q + d, p); the final
    imbalance is p*F(2) + q*F(1) = p + q, so acceptance is p + q = 0.
    Pairs with |p| or |q| above 4 are pruned as unable to cancel any more;
    :func:`_certify_add` proves the pruned automaton is exactly addition.
    """
    cand = _add_with_bound(4)
    _certify_add(cand)
    return cand


def _certify_add(cand: Automaton) -> None:
    from . import synth

    failed = synth.query_certificate("", _ADD_CERT, defs=[_ADD_SUCC])(cand, {}).failures
    if failed:
        raise CatalogError(f"add certificate fails {failed[0]}: {dict(_ADD_CERT)[failed[0]]}")


def _add_with_bound(bound: int) -> Automaton:
    index = {(0, 0): 0}
    order = [(0, 0)]
    rows = []
    i = 0
    while i < len(order):
        p, q = order[i]
        row = []
        for s in range(8):
            a_, b_, c_ = (s >> 2) & 1, (s >> 1) & 1, s & 1
            d = a_ + b_ - c_
            np_, nq_ = p + q + d, p
            if abs(np_) > bound or abs(nq_) > bound:
                row.append(-1)
            else:
                key = (np_, nq_)
                if key not in index:
                    index[key] = len(order)
                    order.append(key)
                row.append(index[key])
        rows.append(row)
        i += 1
    dead = len(order)
    delta = np.array(rows + [[dead] * 8], dtype=np.int32)
    delta[delta < 0] = dead
    outputs = np.array([1 if p + q == 0 else 0 for (p, q) in order] + [0], dtype=np.int32)
    base = Automaton(3, delta, outputs, 0)
    return _finish(au.intersect(base, valid_tracks(3)))


@lru_cache(maxsize=None)
def const(c: int) -> Automaton:
    """Arity-1 automaton accepting exactly 0* encode(c)."""
    digits = nu.encode(c)
    t = len(digits)
    # state i = matched first i digits; state 0 loops on 0; t+1 = dead
    dead = t + 1
    delta = np.full((t + 2, 2), dead, dtype=np.int32)
    delta[0, 0] = 0
    for i, d in enumerate(digits):
        delta[i, int(d)] = i + 1
    if t > 0:
        delta[t, 0] = dead
    outputs = np.zeros(t + 2, dtype=np.int32)
    outputs[t] = 1
    aut = Automaton(1, delta, outputs, 0, zero_normalized=True)
    return au.minimize(aut)


@lru_cache(maxsize=None)
def leq_const(c: int) -> Automaton:
    """Arity-1 automaton for the finite set {0, ..., c}."""
    aut = const(0)
    for i in range(1, c + 1):
        aut = au.union(aut, const(i))
    return _finish(aut)


@lru_cache(maxsize=None)
def const_mul(c: int) -> Automaton:
    """Pairs (n, z) with z = c * n, built from iterated addition."""
    if c < 1:
        raise ValueError("const_mul needs c >= 1")
    rel = eq()
    for _ in range(c - 1):
        # tracks (n, u, z): rel(n, u) and add(u, n, z); project u
        left = au.cylindrify(rel, [0, 1], 3)
        plus = au.cylindrify(add(), [1, 0, 2], 3)
        rel = au.project(au.minimize(au.intersect(left, plus)), 1)
    return rel


@lru_cache(maxsize=None)
def const_div(c: int) -> Automaton:
    """Pairs (n, z) with z = floor(n / c): c*z <= n < c*(z + 1)."""
    if c < 1:
        raise ValueError("const_div needs c >= 1")
    # tracks (n, r, u, z): u = c*z, u + r = n, r <= c - 1
    mul = au.cylindrify(const_mul(c), [3, 2], 4)
    plus = au.cylindrify(add(), [2, 1, 0], 4)
    rem = au.cylindrify(leq_const(c - 1), [1], 4)
    rel = au.minimize(au.intersect(au.minimize(au.intersect(mul, plus)), rem))
    rel = au.project(rel, 2)  # drop u -> (n, r, z)
    rel = au.project(rel, 1)  # drop r -> (n, z)
    return rel


# -- batch verification helpers --------------------------------------------


def accepts_number_pairs(aut: Automaton, *cols) -> np.ndarray:
    """Vector of acceptance bits for tuples of naturals (zero-padded)."""
    return au.run_numbers(aut, cols) == 1


def dfao_values(aut: Automaton, ns) -> np.ndarray:
    """DFAO outputs at many naturals (arity 1)."""
    return au.run_numbers(aut, [ns])


# -- Fibonacci word ---------------------------------------------------------


def fibword() -> Automaton:
    """DFAO computing the Fibonacci word: value at n = last digit of encode(n).

    Two states suffice because the output only remembers the previous
    digit; the value at 0 (empty input) is 0.  Certified against the
    morphism 0 -> 01, 1 -> 0 in :func:`_certify_fibword`.
    """
    delta = np.array([[0, 1], [0, 1]], dtype=np.int32)
    outputs = np.array([0, 1], dtype=np.int32)
    aut = au.minimize(Automaton(1, delta, outputs, 0))
    _certify_fibword(aut, 100_000)
    return aut


def fibword_prefix(n: int) -> np.ndarray:
    """First n letters of the fixed point of 0 -> 01, 1 -> 0."""
    word = [0]
    while len(word) < n:
        nxt = []
        for ch in word:
            nxt.extend((0, 1) if ch == 0 else (0,))
        word = nxt
    return np.array(word[:n], dtype=np.int32)


def _certify_fibword(aut: Automaton, n: int) -> None:
    got = dfao_values(aut, np.arange(n))
    want = fibword_prefix(n)
    if not np.array_equal(got, want):
        bad = int(np.flatnonzero(got != want)[0])
        raise CatalogError(f"fibword DFAO disagrees with the morphism at n={bad}")


# -- mod-k DFAO --------------------------------------------------------------


def mod_dfao(k: int, *, verify_bound: int = 100_000) -> Automaton:
    """Minimal DFAO for n mod k, synthesized from the oracle and verified."""
    if k < 2:
        raise ValueError("mod_dfao needs k >= 2")
    from . import synth

    cand = synth.guess_dfao(
        lambda n: n % k,
        batch=lambda ns: ns % k,
        values=range(k),
        max_states=8 * k * k + 16,
    )
    got = dfao_values(cand, np.arange(verify_bound))
    want = np.arange(verify_bound) % k
    if not np.array_equal(got, want):
        bad = int(np.flatnonzero(got != want)[0])
        raise CatalogError(f"mod-{k} DFAO wrong at n={bad}")
    return cand


# -- the certified catalog ----------------------------------------------------


class BuiltinCatalog(dict):
    """Name -> automaton map every session starts from.

    Built once (optionally persisted by the CLI store) and then shared
    read-only.  Function automata are certified before they enter the
    catalog; construction aborts on any certification failure.
    """

    @property
    def names(self):
        return sorted(self)


_PHIN_CERT = [
    ("zero", '$cand(0,0)'),
    ("monotone", 'An,y,z ($cand(n,y) & $cand(n+1,z)) => z>y'),
    # Wythoff complementarity: the ranges of n -> z(n) and n -> z(n)+n over
    # n >= 1 are disjoint and cover every positive integer.  Together with
    # strict monotonicity and z(0)=0 this pins z = floor(phi n) exactly.
    (
        "wythoff",
        "Ax (x>=1) => ((En,z n>=1 & $cand(n,z) & x=z) <=> (~(Em,w m>=1 & $cand(m,w) & x=w+m)))",
    ),
]

_BEATTY_DEFS = [
    ("a007067", 'Ex $phin(2*n,x) & z=(x+1)/2'),
    ("a007064", 'Ex $phin(2*n+1,x) & z=n+1+x/2'),
    ("a004937", 'Ex $phi2n(2*n,x) & z=(x+1)/2'),
    ("a003623", 'Ex $phi2n(n,x) & $phin(x,z)'),
    # The source listing applies a007064 with one argument here; the
    # intended reading is range membership, written out explicitly.
    ("a035487", 'Ex (Em $a007064(m,x)) & $a007067(x,n)'),
]


def build_catalog(
    *,
    schedule=(4096, 16384, 65536),
    phin_verify: int = 1 << 20,
    beatty_verify: int = 100_000,
    progress=None,
) -> BuiltinCatalog:
    """Construct and certify the builtin catalog."""
    from . import logic, seqs, synth

    def note(msg):
        if progress:
            progress(msg)

    cat = BuiltinCatalog()
    note("base relations")
    cat["valid"] = valid()
    cat["eq"] = eq()
    cat["lt"] = lt()
    cat["leq"] = leq()
    cat["add"] = add()

    note("synthesizing phin")
    phin_oracle = seqs.oracle("phi")
    report = synth.synthesize_certified(
        phin_oracle,
        certificates=[synth.function_certificate("phin"), synth.query_certificate("phin", _PHIN_CERT)],
        schedule=schedule,
        catalog=cat,
    )
    if report.verdict != "CERTIFIED":
        raise CatalogError(f"phin certification failed: {report.detail}")
    phin = report.candidate
    got = accepts_number_pairs(
        phin, np.arange(phin_verify), phin_oracle.table(phin_verify)
    )
    if not bool(got.all()):
        bad = int(np.flatnonzero(~got)[0])
        raise CatalogError(f"phin disagrees with floor(phi n) at n={bad}")
    cat["phin"] = phin

    note("phi2n and Beatty relations")
    session = logic.Session(cat)
    session.define("phi2n", "Ex $phin(n,x) & z=x+n")
    cat["phi2n"] = session.automaton("phi2n")
    for name, body in _BEATTY_DEFS:
        session.define(name, body)
        cat[name] = session.automaton(name)
    _certify_beatty(cat, beatty_verify)

    note("fibword DFAO")
    fw = fibword()
    cat["fibword"] = fw
    cat["F"] = fw
    return cat


def _certify_beatty(cat: BuiltinCatalog, n: int) -> None:
    from . import seqs

    ns = np.arange(n)
    checks = {
        "a007067": seqs.oracle("a007067").table(n),
        "a007064": seqs.oracle("a007064").table(n),
        "a004937": seqs.oracle("a004937").table(n),
        "a003623": seqs.oracle("a003623").table(n),
    }
    for name, want in checks.items():
        ok = accepts_number_pairs(cat[name], ns, want)
        if not bool(ok.all()):
            bad = int(np.flatnonzero(~ok)[0])
            raise CatalogError(f"{name} disagrees with its oracle at n={bad}")
    member = np.zeros(n, dtype=bool)
    vals = seqs.a035487_set(n)
    member[vals] = True
    got = accepts_number_pairs(cat["a035487"], ns)
    if not np.array_equal(got, member):
        bad = int(np.flatnonzero(got != member)[0])
        raise CatalogError(f"a035487 membership wrong at n={bad}")
