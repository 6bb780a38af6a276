"""Guess-and-check synthesis of automata from finite oracle data.

The learner builds an observation table over (prefix, suffix) pairs with
three-valued entries: accept, reject, or unknown.  Unknown entries appear
only beyond the training bound (for sequence-backed oracles: pairs whose
argument exceeds the sample count) and never participate in state merges;
two prefixes fall into one state only when their signatures agree on every
mutually known entry.  A guessed automaton is never trusted: callers
certify it with first-order queries through the logic engine, and
:func:`synthesize_certified` escalates the sample count until a candidate
passes or the schedule runs out.

Prefixes are tracked in closed form rather than as strings: after reading
u, the value of any completion u.e is p*F(|e|+2) + q*F(|e|+1) + [e] for an
integer pair (p, q) updated per digit, which lets a whole signature row be
computed with a handful of vector operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import automata as au
from . import numeration as nu
from .automata import Automaton

__all__ = [
    "SynthesisError",
    "BoundExhausted",
    "InconsistencyError",
    "ObservationTable",
    "guess_dfa",
    "guess_synchronized",
    "Verdict",
    "SynthesisReport",
    "function_certificate",
    "query_certificate",
    "recurrence_certificate",
    "certify_function",
    "synthesize_certified",
    "DEFAULT_SCHEDULE",
]

UNKNOWN = 2
DEFAULT_SCHEDULE = (4096, 16384, 65536, 262144)

# learner budgets: table states for guess_dfa and guess_synchronized, and
# the replay rounds guess_synchronized spends repairing premature merges
_DFA_MAX_STATES = 512
_PAIR_MAX_STATES = 1024
_REPLAY_ROUNDS = 24
# signature entries computed at once while closing a table: bounds the
# (rows x width) matrices of one chunk of the frontier
_CHUNK_CELLS = 1 << 16


class SynthesisError(RuntimeError):
    pass


class BoundExhausted(SynthesisError):
    """The observation table ran out of depth or states before closing."""


class InconsistencyError(SynthesisError):
    """No deterministic merge exists; carries a witness prefix pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ObservationTable:
    """Signature-indexed state table shared by every learner front end.

    source must provide: n_symbols, width, init(), step(state, sym),
    signatures(states) -> uint8 ternary matrix with one row of length
    width per state (column 0 is the empty suffix), and describe(state)
    for diagnostics.

    The stored signatures are the rows of one uint8 matrix.  They stay
    pairwise incompatible (each pair clashes on a mutually known entry),
    since a row only ever gains known entries by a join with a compatible
    signature.
    """

    def __init__(self, source, max_states: int, max_depth: int):
        self.source = source
        self.max_states = max_states
        self.max_depth = max_depth
        self._rows = np.empty((max_states, source.width), dtype=np.uint8)
        self.reps: list = []
        self.depths: list[int] = []
        self._exact: dict[bytes, int] = {}

    @property
    def sigs(self) -> np.ndarray:
        """The stored signatures, one row per state."""
        return self._rows[: len(self.reps)]

    def _lookup(self, sig: np.ndarray) -> int | None:
        hit = self._exact.get(sig.tobytes())
        if hit is not None:
            return hit
        rows = self.sigs
        clash = (rows != sig) & (rows != UNKNOWN) & (sig != UNKNOWN)
        free = np.flatnonzero(~clash.any(axis=1))
        if not free.size:
            return None
        # the first compatible row wins: that order numbers the states
        i = int(free[0])
        existing = rows[i]
        joined = np.where(existing == UNKNOWN, sig, existing)
        if not np.array_equal(joined, existing):
            del self._exact[existing.tobytes()]
            existing[:] = joined
            self._exact[existing.tobytes()] = i
        return i

    def _add(self, sig: np.ndarray, state, depth: int) -> int:
        if len(self.reps) >= self.max_states:
            raise BoundExhausted(
                f"state budget {self.max_states} exhausted at prefix "
                f"{self.source.describe(state)}"
            )
        if depth > self.max_depth:
            raise BoundExhausted(
                f"no merge within depth {self.max_depth} for prefix "
                f"{self.source.describe(state)}"
            )
        idx = len(self.reps)
        self._rows[idx] = sig
        self.reps.append(state)
        self.depths.append(depth)
        self._exact[sig.tobytes()] = idx
        return idx

    def hypothesis(self) -> Automaton:
        """Close the table breadth-first and read off the automaton.

        The successors of the states not yet expanded (queue order, symbols
        ascending) get their signatures from one `signatures` call of at
        most _CHUNK_CELLS entries, then are looked up one at a time.  A
        signature depends only on its successor, so the states and their
        numbering are those of a closure one successor at a time.
        """
        src = self.source
        k = src.n_symbols
        init = src.init()
        self._add(src.signatures([init])[0], init, 0)
        per_chunk = max(1, _CHUNK_CELLS // (k * max(src.width, 1)))
        targets: list[int] = []
        while len(targets) < k * len(self.reps):
            lo = len(targets) // k
            hi = min(len(self.reps), lo + per_chunk)
            succ = [src.step(self.reps[q], sym) for q in range(lo, hi) for sym in range(k)]
            for i, (sig, nxt) in enumerate(zip(src.signatures(succ), succ)):
                target = self._lookup(sig)
                if target is None:
                    target = self._add(sig, nxt, self.depths[lo + i // k] + 1)
                targets.append(target)
        delta = np.array(targets, dtype=np.int32).reshape(-1, k)
        outputs = (self.sigs[:, 0] == 1).astype(np.int32)
        return Automaton(src.arity, delta, outputs, 0)


# -- suffix sets -------------------------------------------------------------


def _suffix_words(n_symbols: int, max_len: int, zero_run: int, tail_len: int):
    """Empty word, all short words, and zero-runs with short tails."""
    words = [()]
    level = [()]
    for _ in range(max_len):
        level = [w + (s,) for w in level for s in range(n_symbols)]
        words.extend(level)
    seen = set(words)
    tails = [()]
    level = [()]
    for _ in range(tail_len):
        level = [w + (s,) for w in level for s in range(n_symbols)]
        tails.extend(level)
    for j in range(1, zero_run + 1):
        run = (0,) * j
        for t in tails:
            w = run + t
            if w not in seen:
                seen.add(w)
                words.append(w)
    return words


class _SuffixData:
    """Per-suffix descriptors of both tracks, for vectorized signature rows.

    Each word e is described once: F(|e|+2), F(|e|+1) and, per track, its
    value [e], whether it is valid (no adjacent ones) and whether it
    leads with a one.  :meth:`extend` describes only the words it appends.
    """

    def __init__(self, words):
        ints, flags = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
        self.count = 0
        self.f2 = self.f1 = ints
        self.values = [ints, ints]
        self.valid = [flags, flags]
        self.first = [flags, flags]
        self.extend(words)

    def extend(self, words) -> None:
        lens = np.array([len(w) for w in words], dtype=np.int64)
        width = max(int(lens.max(initial=0)), 1)
        # symbols right-aligned, so column c weighs F(width - c + 1)
        sym = np.zeros((len(words), width), dtype=np.int64)
        for i, w in enumerate(words):
            if w:
                sym[i, width - len(w):] = w
        fibs = np.array([nu.fib(k) for k in range(width + 3)], dtype=np.int64)
        lead = np.where(lens > 0, sym[np.arange(len(words)), width - np.maximum(lens, 1)], 0)
        self.count += len(words)
        self.f2 = np.concatenate([self.f2, fibs[lens + 2]])
        self.f1 = np.concatenate([self.f1, fibs[lens + 1]])
        for t, shift in enumerate((1, 0)):  # track 0 is the high bit
            bits = (sym >> shift) & 1
            adjacent = np.any(bits[:, 1:] & bits[:, :-1], axis=1)
            self.values[t] = np.concatenate([self.values[t], bits @ fibs[width + 1:1:-1]])
            self.valid[t] = np.concatenate([self.valid[t], ~adjacent])
            self.first[t] = np.concatenate([self.first[t], ((lead >> shift) & 1) == 1])


# -- learner sources ----------------------------------------------------------


class _PairSource:
    """Synchronized-relation oracle: accepts (n, x) iff x = f(n), both tracks valid.

    With `batch` set the oracle is evaluated exactly everywhere (entries
    are never unknown).  Otherwise knowledge stops at the table: n beyond
    it yields UNKNOWN unless the string is invalid (then reject, known).
    """

    arity = 2
    n_symbols = 4

    def __init__(self, suffixes: _SuffixData, table=None, batch=None):
        self.table = table
        self.batch = batch
        self.n_known = len(table) if table is not None else None
        self.sfx = suffixes
        self.width = suffixes.count

    def init(self):
        return (0, 0, 0, 0, 0, 0, True, ())

    def step(self, st, sym):
        p0, q0, p1, q1, l0, l1, ok, word = st
        b0, b1 = (sym >> 1) & 1, sym & 1
        ok = ok and not (l0 and b0) and not (l1 and b1)
        return (p0 + q0 + b0, p0, p1 + q1 + b1, p1, b0, b1, ok, word + (sym,))

    def describe(self, st):
        return au._word_text(list(st[7]), 2)

    def signatures(self, states) -> np.ndarray:
        sfx = self.sfx
        p0, q0, p1, q1, l0, l1, ok = (
            np.array([st[i] for st in states], dtype=np.int64)[:, None] for i in range(7)
        )
        # both tracks valid, and no suffix leads with a one after a one
        vmask = (
            sfx.valid[0] & sfx.valid[1] & (ok != 0)
            & ~(sfx.first[0] & (l0 != 0)) & ~(sfx.first[1] & (l1 != 0))
        )
        n = p0 * sfx.f2 + q0 * sfx.f1 + sfx.values[0]
        x = p1 * sfx.f2 + q1 * sfx.f1 + sfx.values[1]
        sig = np.zeros(n.shape, dtype=np.uint8)
        if self.batch is not None:
            sig[vmask] = self.batch(n[vmask]) == x[vmask]
            return sig
        known = n < self.n_known
        idx = known & vmask
        sig[vmask & ~known] = UNKNOWN
        sig[idx] = self.table[n[idx]] == x[idx]
        return sig


class _StringSource:
    """Generic membership source for :func:`guess_dfa`.

    member(word) may return True, False, or None (unknown); it must be
    total (not None) for words up to the bound.
    """

    def __init__(self, member, arity, suffixes, bound):
        self.member = member
        self.arity = arity
        self.n_symbols = 1 << arity
        self.suffixes = suffixes
        self.width = len(suffixes)
        self.bound = bound

    def init(self):
        return ()

    def step(self, st, sym):
        return st + (sym,)

    def describe(self, st):
        return au._word_text(list(st), self.arity)

    def signatures(self, states) -> np.ndarray:
        out = np.empty((len(states), self.width), dtype=np.uint8)
        for r, st in enumerate(states):
            for i, e in enumerate(self.suffixes):
                w = st + e
                if len(w) > self.bound:
                    out[r, i] = UNKNOWN
                    continue
                got = self.member(w)
                out[r, i] = UNKNOWN if got is None else (1 if got else 0)
        return out


# -- front ends ---------------------------------------------------------------


def guess_dfa(member, arity: int, bound: int, *, suffix_len: int = 6) -> Automaton:
    """Minimal DFA consistent with all observations of `member` up to `bound`.

    States are residual classes of prefixes, discovered breadth-first and
    distinguished by the suffix battery (all short words plus zero-runs).
    """
    if arity > 2:
        suffix_len = min(suffix_len, 3)
    suffixes = _suffix_words(1 << arity, suffix_len, zero_run=12, tail_len=1)
    suffixes = [e for e in suffixes if len(e) <= bound]
    src = _StringSource(member, arity, suffixes, bound)
    max_depth = max(bound - suffix_len, 2)
    table = ObservationTable(src, _DFA_MAX_STATES, max_depth)
    return au.minimize(table.hypothesis())


def guess_synchronized(oracle, n_samples: int, *, zero_run: int = 16) -> Automaton:
    """Learn the relation {(n, x) : x = oracle(n)} from samples n < n_samples.

    Oracles with cheap scalar evaluation are observed exactly at any
    depth; table-only oracles leave entries beyond the sample unknown.
    After each hypothesis the training sample is replayed; a disagreement
    word is fed back as fresh distinguishing suffixes (its tails), which
    repairs any premature state merge.  The result is intersected with
    track validity, zero-normalized, and minimized — certification is
    still the caller's job.
    """
    from . import arith

    max_depth = len(nu.encode(max(n_samples, 2))) + 8
    words = _suffix_words(4, 4, zero_run, tail_len=2)
    batch = oracle.batch if getattr(oracle, "cheap_scalar", False) else None
    table_vals = None
    if batch is None:
        table_vals = np.asarray(oracle.table(n_samples), dtype=np.int64)
    probe = min(n_samples, 50_000)
    ns = np.arange(probe)
    want = oracle.table(probe)
    sfx = _SuffixData(words)
    seen = set(words)
    for _ in range(_REPLAY_ROUNDS):
        src = _PairSource(sfx, table=table_vals, batch=batch)
        table = ObservationTable(src, _PAIR_MAX_STATES, max_depth)
        raw = table.hypothesis()
        cand = au.zero_normalize(
            au.minimize(au.intersect(raw, arith.valid_tracks(2)))
        )
        agreed = arith.accepts_number_pairs(cand, ns, want)
        if bool(agreed.all()):
            return cand
        bad = int(np.flatnonzero(~agreed)[0])
        word = tuple(au.encode_pair_word((bad, int(want[bad]))))
        fresh = [word[i:] for i in range(len(word))]
        fresh = [w for w in fresh if w not in seen]
        if not fresh:
            raise InconsistencyError(
                f"replay keeps failing at n={bad} with no new separators",
                witness=(bad, int(want[bad])),
            )
        seen.update(fresh)
        sfx.extend(fresh)
    raise BoundExhausted(f"replay did not stabilize within {_REPLAY_ROUNDS} rounds")


# -- certification -------------------------------------------------------------


@dataclass
class Verdict:
    ok: bool
    checks: list = field(default_factory=list)  # (name, bool)

    @property
    def failures(self):
        return [name for name, good in self.checks if not good]

    def __bool__(self):
        return self.ok


@dataclass
class SynthesisReport:
    oracle_name: str
    candidate: Automaton | None
    samples_used: int
    verdict: str  # CERTIFIED | FAILED | EXHAUSTED
    checks: list = field(default_factory=list)
    detail: str = ""

    def to_text(self) -> str:
        lines = [
            f"oracle {self.oracle_name}",
            f"samples {self.samples_used}",
            f"verdict {self.verdict}",
        ]
        for name, good in self.checks:
            lines.append(f"check {name} {'TRUE' if good else 'FALSE'}")
        if self.detail:
            lines.append(f"detail {self.detail}")
        if self.candidate is not None:
            lines.append("candidate")
            lines.append(au.serialize(self.candidate))
        return "\n".join(lines) + "\n"


CANDIDATE_NAME = "cand"


def _session_with(candidate: Automaton, catalog):
    from . import logic

    session = logic.Session(catalog)
    session.define_automaton(CANDIDATE_NAME, candidate)
    return session


def function_certificate(label: str):
    """Totality and uniqueness: exactly one x per n."""
    return query_certificate(label, [
        ("total", "An Ex $cand(n,x)"),
        ("unique", "~En,x1,x2 x1!=x2 & $cand(n,x1) & $cand(n,x2)"),
    ])


def query_certificate(label: str, queries, defs=()):
    """Arbitrary closed queries; $cand refers to the candidate."""

    def run(candidate, catalog):
        session = _session_with(candidate, catalog)
        for name, body in defs:
            session.define(name, body)
        checks = []
        for name, body in queries:
            got = session.eval(body)
            checks.append((f"{label}_{name}" if label else name, got))
            if not got:
                break
        return Verdict(all(g for _, g in checks), checks)

    return run


_ADJ_FIB = '[0,0]*[0,1][1,0][0,0]*'
_ADJ_LUCAS = '[0,0]*[0,1][1,0][0,1][1,0][0,0]*'


def recurrence_certificate(kind: str, x: int = 1, y: int = 1):
    """Certificate that a candidate relation satisfies its defining recurrence.

    kind 'fib': a(k) = x*F(j+1) - y*a(k - F(j)) on Fibonacci brackets;
    kind 'fib_nested': b(k) = F(j+1) - b(b(k - F(j)));
    kind 'lucas': a(k) = L(j+1) - a(k - L(j)) on Lucas brackets (j >= 3 via
    the bracket regex; smaller k pinned by explicit value checks).
    """

    def run(candidate, catalog):
        from . import logic, seqs

        session = _session_with(candidate, catalog)
        c = CANDIDATE_NAME
        checks = []
        if kind in ("fib", "fib_nested"):
            session.define_automaton("adjbracket", au.regex_compile(_ADJ_FIB, 2))
            session.define("trapbracket", "$adjbracket(x,y) & x<k & y>=k")
            if kind == "fib":
                lhs = "y" if x == 1 else f"{x}*y"
                rhs = "z+t" if y == 1 else f"z+{y}*t"
                rec = (
                    f"Ak,x,y,z,t ($trapbracket(k,x,y) & ${c}(k,z) & ${c}(k-x,t))"
                    f" => {lhs}={rhs}"
                )
            else:
                rec = (
                    f"Ak,x,y,z,t,u ($trapbracket(k,x,y) & ${c}(k,z) & ${c}(k-x,t)"
                    f" & ${c}(t,u)) => y=z+u"
                )
            checks.append(("recurrence", session.eval(rec)))
            bases = [(0, 0), (1, 1)]
        else:
            session.define_automaton("adjbracket", au.regex_compile(_ADJ_LUCAS, 2))
            session.define("trapbracket", "$adjbracket(x,y) & x<k & y>=k")
            rec = (
                f"Ak,x,y,z,t ($trapbracket(k,x,y) & ${c}(k,z) & ${c}(k-x,t))"
                f" => y=z+t"
            )
            checks.append(("recurrence", session.eval(rec)))
            bases = [(k, seqs.lucas_variant(k)) for k in range(5)]
        for n, v in bases:
            checks.append((f"base_{n}", session.eval(f"${c}({n},{v})")))
        return Verdict(all(g for _, g in checks), checks)

    return run


def certify_function(candidate: Automaton, catalog) -> Verdict:
    return function_certificate("function")(candidate, catalog)


def synthesize_certified(
    oracle,
    certificates,
    *,
    schedule=DEFAULT_SCHEDULE,
    catalog=None,
) -> SynthesisReport:
    """Loop guess -> certify over an escalating sample schedule."""
    oracle_name = getattr(oracle, "name", "?")
    last_checks = []
    last_detail = ""
    last_n = 0
    for i, n in enumerate(schedule):
        last_n = n
        try:
            # widen the distinguishing battery along with the data
            candidate = guess_synchronized(oracle, n, zero_run=16 + 4 * i)
        except SynthesisError as exc:
            last_detail = f"learning failed at {n} samples: {exc}"
            last_checks = []
            continue
        checks = []
        ok = True
        for cert in certificates:
            try:
                verdict = cert(candidate, catalog)
            except au.DeterminizationLimit as exc:
                # a blown-up query is evidence of a junk candidate, not of
                # the property: treat as a failed check and escalate
                verdict = Verdict(False, [("engine_limit", False)])
                last_detail = str(exc)
            checks.extend(verdict.checks)
            if not verdict.ok:
                ok = False
                break
        if ok:
            return SynthesisReport(oracle_name, candidate, n, "CERTIFIED", checks)
        last_checks = checks
        failed = [name for name, good in checks if not good]
        last_detail = f"failed: {', '.join(failed)}"
    return SynthesisReport(oracle_name, None, last_n, "EXHAUSTED", last_checks, last_detail)
