"""Built-in relations over Fibonacci representations.

Provides validity and one builder for every linear relation of the logical
structure, :func:`linear` (equality, order and addition are calls to it;
the compiler reaches constant multiples and quotients through it), plus
the certified catalog of named automata every session starts from: the
Beatty function automata, the Fibonacci-word DFAO and mod-k DFAOs.

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
    base = Automaton(n, np.array(rows, dtype=np.int32), np.array(outputs, dtype=np.int32), 2)
    return au.zero_normalize(au.minimize(au.intersect(base, valid_tracks(n))))


def eq() -> Automaton:
    return linear((1, -1), 0, "=")


def lt() -> Automaton:
    return linear((1, -1), 0, "<")


def leq() -> Automaton:
    return linear((1, -1), 0, "<=")


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

    The :func:`linear` recognizer of x + y - z = 0, accepted only once
    :func:`_certify_add` proves it is addition.
    """
    cand = linear((1, 1, -1))
    _certify_add(cand)
    return cand


def _certify_add(cand: Automaton) -> None:
    from . import synth

    failed = synth.query_certificate("", _ADD_CERT, defs=[_ADD_SUCC])(cand, {}).failures
    if failed:
        raise CatalogError(f"add certificate fails {failed[0]}: {dict(_ADD_CERT)[failed[0]]}")


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


def _certify_fibword(aut: Automaton, n: int) -> None:
    got = dfao_values(aut, np.arange(n))
    want = fibword_prefix(n)
    if not np.array_equal(got, want):
        bad = int(np.flatnonzero(got != want)[0])
        raise CatalogError(f"fibword DFAO disagrees with the morphism at n={bad}")


# -- mod-k DFAO --------------------------------------------------------------


def mod_dfao(k: int, *, verify_bound: int = 100_000) -> Automaton:
    """Minimal DFAO for n mod k, built from the balance of :func:`linear`.

    A state is the pair (p, q) mod k of the value p*F(m+2) + q*F(m+1)
    after a prefix; digit d maps it to ((p + q + d) mod k, p) and the
    output is (p + q) mod k.  The k*k states are minimized and checked
    against n mod k for n < verify_bound.
    """
    if k < 2:
        raise ValueError("mod_dfao needs k >= 2")
    pq = np.arange(k * k)
    p, q = pq // k, pq % k
    delta = np.stack([(p + q + d) % k * k + p for d in (0, 1)], axis=1)
    cand = au.minimize(Automaton(1, delta, (p + q) % k, 0))
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


def build_catalog(*, phin_verify: int = 1 << 20, progress=None) -> BuiltinCatalog:
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
        schedule=(4096, 16384, 65536),
        catalog=cat,
    )
    if report.verdict != "CERTIFIED":
        raise CatalogError(f"phin certification failed: {report.detail}")
    phin = report.candidate
    bad = _first_floor_phi_miss(phin, phin_verify)
    if bad is not None:
        raise CatalogError(f"phin disagrees with floor(phi n) at n={bad}")
    cat["phin"] = phin

    note("phi2n and Beatty relations")
    session = logic.Session(cat)
    session.define("phi2n", "Ex $phin(n,x) & z=x+n")
    cat["phi2n"] = session.automaton("phi2n")
    for name, body in _BEATTY_DEFS:
        session.define(name, body)
        cat[name] = session.automaton(name)
    _certify_beatty(cat, 100_000)

    note("fibword DFAO")
    fw = fibword()
    cat["fibword"] = fw
    cat["F"] = fw
    return cat


def _first_floor_phi_miss(phin: Automaton, n: int) -> int | None:
    """Least m < n at which phin does not accept (m, floor(phi m)), or None.

    Compares one automata.RUN_BLOCK block of m at a time with that block's
    exact floor(phi m), so neither a table nor an arange of n is built.
    The relation is zero-normalized, so each block's own padding width
    gives the answer a single run over all of 0..n-1 would give.
    """
    from . import seqs

    for lo in range(0, n, au.RUN_BLOCK):
        ms = np.arange(lo, min(lo + au.RUN_BLOCK, n), dtype=np.int64)
        got = accepts_number_pairs(phin, ms, seqs._vec_floor_phi(ms))
        if not bool(got.all()):
            return lo + int(np.flatnonzero(~got)[0])
    return None


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
