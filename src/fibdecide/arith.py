"""Built-in relations over Fibonacci representations.

Provides validity and one builder for every linear relation of the logical
structure, :func:`linear` (equality, order and addition are calls to it;
the compiler reaches constant multiples and quotients through it), plus
the certified catalog of named automata every session starts from: the
Beatty function automata, the Fibonacci-word DFAO and mod-k DFAOs.

Every automaton built from a definition enters through :func:`admit`
(certificates, then a blockwise oracle check); only addition, which every
certificate needs, is checked on its own.

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
    "linear",
    "fibword",
    "mod_dfao",
    "admit",
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
    # state m < S remembers the last symbol; a symbol sharing a one with it dies
    m, s = np.arange(S + 1)[:, None], np.arange(S)
    delta = np.where(((m & s) != 0) | (m == dead), dead, s).astype(np.int32)
    outputs = np.ones(S + 1, dtype=np.int32)
    outputs[dead] = 0
    out = Automaton(k, delta, outputs, 0, zero_normalized=True)
    # for k >= 1 this is already minimize's canonical form: a symbol with
    # one bit kills exactly the last symbols that hold that bit, and from
    # state 0 the BFS meets the states in number order (the dead one from
    # state 1); for k = 0 the dead state is unreachable
    return out if k else au.minimize(out)


def valid() -> Automaton:
    return valid_tracks(1)


_HOLDS = {"=": lambda v: v == 0, "<": lambda v: v < 0, "<=": lambda v: v <= 0}
_PHI = (1 + 5**0.5) / 2


@lru_cache(maxsize=None)
def linear(coeffs: tuple, k: int = 0, op: str = "=") -> Automaton:
    """Tuples (x_0, ..., x_{n-1}) with sum(c_i * x_i) + k OP 0, every track valid.

    Msd-first balance recognizer (the normalization of linear numeration
    systems, Frougny 1992).  A state is an integer pair (p, q): after reading
    a prefix, the outstanding value sum(c_i * x_i) equals
    p*F(m+2) + q*F(m+1) where m symbols remain.  Reading a digit vector of
    weight d = sum(c_i * digit_i) maps (p, q) to (p + q + d, p); the final
    value is p*F(2) + q*F(1) = p + q, so a state accepts when OP holds for
    p + q + k.

    The bound.  Write alpha = p*phi + q and beta = p*psi + q (psi = -1/phi)
    and let D be the largest |d|.  One step maps alpha to phi*(alpha + d)
    and beta to psi*(beta + d); from beta = 0, |beta| <= D*phi stays true.
    Once |alpha| >= phi**2 * D, |alpha| never shrinks and its sign never
    changes.  The final value is p + q = (phi*alpha - psi*beta) / sqrt(5),
    with |psi*beta| <= D, so once also |alpha| > (D + |k|*sqrt(5)) / phi,
    p + q + k has the sign of alpha.  Past B = max(phi**2 * D,
    (D + |k|*sqrt(5)) / phi), a state therefore keeps the sign of p + q + k
    for every suffix and becomes one of two sinks (both reject for =, and
    only the negative one accepts for < and <=).  The live states satisfy
    |alpha| <= B and |beta| <= D*phi, a finite set, and the automaton is
    exact by construction.  alpha is computed in floats, so a state sinks
    only past B plus a margin far above the rounding error; a state kept
    live past B is still exact, and minimization removes it.

    The constant.  B, and with it the state set, grows linearly in |k|.
    Once |k| would widen B past the phi**2 * (D + 1) of one more track, and
    the arity limit leaves one, k = sign(k)*t is read from that track: t is
    fixed to |k| by a recognizer of 0* encode(|k|) and projected away.  t
    holds one value, so each subset of the projection is fixed by the
    balance of the other tracks, and the cost grows with log|k|.
    """
    n = len(coeffs)
    if n > au.MAX_ARITY:  # before 2**n weights and states are built
        raise au.ArityError(f"arity {n} out of range 0..{au.MAX_ARITY}")
    weights = [
        sum(c for i, c in enumerate(coeffs) if s >> (n - 1 - i) & 1) for s in range(1 << n)
    ]
    D = max(map(abs, weights))
    if (D + abs(k) * 5**0.5) / _PHI > _PHI**2 * (D + 1) and n < au.MAX_ARITY:
        fixed = au.zero_normalize(au.regex_compile("0*" + nu.encode(abs(k)), 1))
        wide = linear(tuple(coeffs) + (1 if k > 0 else -1,), 0, op)
        return au.project(au.minimize(au.intersect(wide, au.cylindrify(fixed, [n], n + 1))), n)
    holds = _HOLDS[op]
    bound = max(_PHI**2 * D, (D + abs(k) * 5**0.5) / _PHI) + 1e-9 * (1 + D + abs(k))
    # states 0 and 1 are the positive and negative sinks; state 2 is (0, 0)
    order = [(0, 0)]
    index = {(0, 0): 2}
    rows = [[0] * len(weights), [1] * len(weights)]
    for p, q in order:  # grows while it is read
        row = []
        for d in weights:
            key = (p + q + d, p)
            alpha = key[0] * _PHI + key[1]
            if abs(alpha) > bound:
                row.append(0 if alpha > 0 else 1)
                continue
            if key not in index:
                index[key] = len(order) + 2
                order.append(key)
            row.append(index[key])
        rows.append(row)
    outputs = [holds(1), holds(-1)] + [holds(p + q + k) for p, q in order]
    # (0, 0) and valid_tracks' start loop on the zero symbol, so the
    # relation is already closed under leading zeros
    base = Automaton(
        n, np.array(rows, dtype=np.int32), np.array(outputs, dtype=np.int32), 2,
        zero_normalized=True,
    )
    return au.minimize(au.intersect(base, valid_tracks(n)))


def eq() -> Automaton:
    return linear((1, -1), 0, "=")


def lt() -> Automaton:
    return linear((1, -1), 0, "<")


def leq() -> Automaton:
    return linear((1, -1), 0, "<=")


# Induction on y; succ is defined from < alone, so no query has a + term.
# zero and step give cand(x, y, x+y) and functional leaves no other z.
_ADD_SUCC = 'def succ "x<y & ~(Ez x<z & z<y)":'
_ADD_CERT = [
    ("zero", "Ax $cand(x,0,x)"),
    ("total", "Ax,y Ez $cand(x,y,z)"),
    ("functional", "Ax,y,z,w ($cand(x,y,z) & $cand(x,y,w)) => z=w"),
    ("step", "Ax,y,z,u,w ($cand(x,y,z) & $succ(y,u) & $succ(z,w)) => $cand(x,u,w)"),
]


@lru_cache(maxsize=None)
def add() -> Automaton:
    """Triples (x, y, z) with x + y = z, every track valid.

    The :func:`linear` recognizer of x + y - z = 0, accepted only once
    :func:`_certify_add` proves it is addition.
    """
    cand = linear((1, 1, -1))
    _certify_add(cand)
    return cand


def _certify_add(cand: Automaton) -> None:
    from . import synth

    certificate = synth.query_certificate("", _ADD_CERT, _ADD_SUCC)
    failed = synth.run_certificates(cand, [certificate], {}).failures
    if failed:
        formula = dict(_ADD_CERT).get(failed[0])
        raise CatalogError(f"add certificate fails {failed[0]}{f': {formula}' if formula else ''}")


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
    digit; the value at 0 (empty input) is 0.  Admitted against the
    morphism 0 -> 01, 1 -> 0 (:func:`fibword_prefix`) below 100,000.
    """
    delta = np.array([[0, 1], [0, 1]], dtype=np.int32)
    outputs = np.array([0, 1], dtype=np.int32)
    aut = au.minimize(Automaton(1, delta, outputs, 0))
    return admit("fibword", aut, [], {}, fibword_prefix(100_000).__getitem__, 100_000)


def fibword_prefix(n: int) -> np.ndarray:
    """First n letters of the fixed point of 0 -> 01, 1 -> 0."""
    word = np.zeros(1, dtype=np.int32)
    while word.size < n:
        zero = word == 0
        # letter i starts at i plus the number of zeros before it; a zero
        # writes 0 there and 1 after it, a one writes only its 0
        start = np.arange(word.size) + np.cumsum(zero) - zero
        nxt = np.zeros(word.size + int(zero.sum()), dtype=np.int32)
        nxt[start[zero] + 1] = 1
        word = nxt
    return word[:n]


# -- mod-k DFAO --------------------------------------------------------------


def mod_dfao(k: int, *, verify_bound: int = 100_000) -> Automaton:
    """Minimal DFAO for n mod k, built from the balance of :func:`linear`.

    A state is the pair (p, q) mod k of the value p*F(m+2) + q*F(m+1)
    after a prefix; digit d maps it to ((p + q + d) mod k, p) and the
    output is (p + q) mod k.  The k*k states are minimized and admitted
    against n mod k for n < verify_bound.
    """
    if k < 2:
        raise ValueError("mod_dfao needs k >= 2")
    pq = np.arange(k * k)
    p, q = pq // k, pq % k
    delta = np.stack([(p + q + d) % k * k + p for d in (0, 1)], axis=1)
    # state 0 loops on digit 0, so the DFAO is padding-stable
    cand = au.minimize(Automaton(1, delta, (p + q) % k, 0))
    return admit(f"mod-{k} DFAO", cand, [], {}, lambda ns: ns % k, verify_bound)


# -- the certified catalog ----------------------------------------------------


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

# floor(phi*(m+1)) - 1 is the value of m's Zeckendorf word with a 0 appended
_PHIN_SHIFT = 'reg shift msd_fib msd_fib "([0,0]|[0,1][1,0])*":'
_PHIN_DEF = 'def phin "(n=0 & z=0) | Ex,y $shift(x,y) & n=x+1 & z=y+1":'

# name, definition and seqs._BEATTY kind of its oracle; a035487 is a
# set, checked against the mask _certify_beatty builds
_BEATTY_DEFS = [
    ("phi2n", 'Ex $phin(n,x) & z=x+n', "phi2"),
    ("a007067", 'Ex $phin(2*n,x) & z=(x+1)/2', "a007067"),
    ("a007064", 'Ex $phin(2*n+1,x) & z=n+1+x/2', "a007064"),
    ("a004937", 'Ex $phi2n(2*n,x) & z=(x+1)/2', "a004937"),
    ("a003623", 'Ex $phi2n(n,x) & $phin(x,z)', "a003623"),
    # The source listing applies a007064 with one argument here; the
    # intended reading is range membership, written out explicitly.
    ("a035487", 'Ex (Em $a007064(m,x)) & $a007067(x,n)', None),
]


def build_catalog(*, phin_verify: int = 1 << 20, progress=None) -> dict:
    """Build the catalog, name -> automaton; function automata are certified
    before they enter, and any failed certification aborts the build."""
    from . import logic, seqs, synth

    def note(msg):
        if progress:
            progress(msg)

    cat = {}
    note("base relations")
    cat["valid"] = valid()
    cat["eq"] = eq()
    cat["lt"] = lt()
    cat["leq"] = leq()
    cat["add"] = add()

    note("building phin")
    session = logic.Session(cat)
    session.run_script(f"{_PHIN_SHIFT}\n{_PHIN_DEF}")
    certs = [synth.function_certificate("phin"), synth.query_certificate("phin", _PHIN_CERT)]
    cat["phin"] = admit("phin", session.automaton("phin"), certs, cat,
                        nu.vec_floor_phi, phin_verify)

    note("phi2n and Beatty relations")
    for name, body, _ in _BEATTY_DEFS:
        session.define(name, body)
        cat[name] = session.automaton(name)
    _certify_beatty(cat, 100_000)

    note("fibword DFAO")
    fw = fibword()
    cat["fibword"] = fw
    cat["F"] = fw
    return cat


def admit(name: str, aut: Automaton, certificates, catalog: dict, oracle,
          bound: int) -> Automaton:
    """Return aut once every certificate holds over catalog and aut agrees
    with oracle below bound (:func:`_first_miss`); else raise CatalogError."""
    from . import synth

    failed = synth.run_certificates(aut, certificates, catalog).failures
    if failed:
        raise CatalogError(f"{name} certificate fails {failed[0]}")
    bad = _first_miss(aut, bound, oracle)
    if bad is not None:
        raise CatalogError(f"{name} disagrees with its oracle at n={bad}")
    return aut


def _first_miss(aut: Automaton, n: int, f) -> int | None:
    """Least m < n at which aut disagrees with f, or None.

    A relation misses where it does not accept (m, f(m)), an arity-1
    automaton where its value at m is not f(m).  Compares one
    automata.RUN_BLOCK block of m at a time with f over that block, so
    neither a table nor an arange of n is built.  Each block runs at its
    own padding width, so a relation must be zero-normalized and a DFAO
    padding-stable (same value under leading zeros); then the answer is
    the one a single run over all of 0..n-1 would give.
    """
    for lo in range(0, n, au.RUN_BLOCK):
        ms = np.arange(lo, min(lo + au.RUN_BLOCK, n), dtype=np.int64)
        if aut.arity == 1:
            wrong = dfao_values(aut, ms) != f(ms)
        else:
            wrong = ~accepts_number_pairs(aut, ms, f(ms))
        if wrong.any():
            return lo + int(np.flatnonzero(wrong)[0])
    return None


def _certify_beatty(cat: dict, n: int) -> None:
    """Admit the _BEATTY_DEFS relations of cat against their oracles below n."""
    from . import seqs

    # a035487 is a007067(a007064(m)) >= m, rising with m: mark its values
    # below n one block of m at a time, up to the first value past n
    member = np.zeros(n, dtype=bool)
    for lo in range(0, n + 1, au.RUN_BLOCK):
        ms = np.arange(lo, lo + au.RUN_BLOCK, dtype=np.int64)
        vals = seqs._BEATTY["a007067"](seqs._BEATTY["a007064"](ms))
        member[vals[vals < n]] = True
        if vals[-1] >= n:
            break
    for name, _, kind in _BEATTY_DEFS:
        oracle = member.__getitem__ if kind is None else seqs._BEATTY[kind]
        admit(name, cat[name], [], cat, oracle, n)
