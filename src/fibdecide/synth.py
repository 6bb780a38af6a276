"""Guess-and-check synthesis of synchronized automata from finite oracle data.

The learner builds an observation table over (prefix, suffix) pairs with
three-valued entries: accept, reject, or unknown.  Unknown entries appear
only beyond the training bound (for sequence-backed oracles: pairs whose
argument exceeds the sample count) and never participate in state merges;
two prefixes fall into one state only when their signatures agree on every
mutually known entry.  An exact oracle leaves no entry unknown, so there a
state is looked up by its signature's bytes alone.  After each hypothesis
the sample is replayed, and the tails of up to _REPAIR_WORDS disagreeing
samples join the suffixes in one repair round.  A guessed automaton is
never trusted: callers certify it with first-order queries through the
logic engine, and :func:`synthesize_certified` escalates the sample count
until a candidate passes or the schedule runs out.

Prefixes are tracked in closed form rather than as strings: after reading
u, the value of any completion u.e is p*F(|e|+2) + q*F(|e|+1) + [e] for an
integer pair (p, q) updated per digit, which lets a whole signature row be
computed with a handful of vector operations.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import automata as au
from . import numeration as nu
from .automata import Automaton

__all__ = [
    "SynthesisError",
    "BoundExhausted",
    "InconsistencyError",
    "ObservationTable",
    "guess_synchronized",
    "Verdict",
    "SynthesisReport",
    "function_certificate",
    "query_certificate",
    "recurrence_certificate",
    "run_certificates",
    "synthesize_certified",
    "DEFAULT_SCHEDULE",
]

UNKNOWN = 2
DEFAULT_SCHEDULE = (4096, 16384, 65536, 262144)

# learner budgets: table states, and the replay rounds spent repairing
# premature merges; a round adds the tails of at most _REPAIR_WORDS
# disagreeing samples
_PAIR_MAX_STATES = 1024
_REPLAY_ROUNDS = 24
_REPAIR_WORDS = 32
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
    """Signature-indexed state table of :func:`guess_synchronized`.

    source (a _PairSource) provides: n_symbols, width, exact, init(),
    step(state, sym), signatures(states) -> uint8 ternary matrix with one
    row of length width per state (column 0 is the empty suffix), and
    describe(state) for diagnostics.  exact is True when no entry is ever
    UNKNOWN.

    The stored signatures are the rows of one uint8 matrix.  They stay
    pairwise incompatible (each pair clashes on a mutually known entry),
    since a row only ever gains known entries by a join with a compatible
    signature.  Without UNKNOWN entries compatible means equal, so on an
    exact source a lookup is one dict read by the signature's bytes.
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
        if hit is not None or self.source.exact:
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


def _suffix_words(max_len: int, zero_run: int, tail_len: int):
    """Empty word, all short two-track words, and zero-runs with short tails."""
    words = [()]
    level = [()]
    for _ in range(max_len):
        level = [w + (s,) for w in level for s in range(4)]
        words.extend(level)
    seen = set(words)
    tails = [()]
    level = [()]
    for _ in range(tail_len):
        level = [w + (s,) for w in level for s in range(4)]
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
        # new lists, not assignments into the old ones: a shallow copy of
        # this battery extends without touching it
        values, valid, first = [], [], []
        for t, shift in enumerate((1, 0)):  # track 0 is the high bit
            bits = (sym >> shift) & 1
            adjacent = np.any(bits[:, 1:] & bits[:, :-1], axis=1)
            values.append(np.concatenate([self.values[t], bits @ fibs[width + 1:1:-1]]))
            valid.append(np.concatenate([self.valid[t], ~adjacent]))
            first.append(np.concatenate([self.first[t], ((lead >> shift) & 1) == 1]))
        self.values, self.valid, self.first = values, valid, first


@cache
def _battery(zero_run: int):
    """The starting suffixes of :func:`guess_synchronized` as a frozenset
    and their descriptors; callers extend copies."""
    words = _suffix_words(4, zero_run, tail_len=2)
    return frozenset(words), _SuffixData(words)


# -- learner source -----------------------------------------------------------


class _PairSource:
    """Synchronized-relation oracle: accepts (n, x) iff x = f(n), both tracks valid.

    With `batch` set the oracle is evaluated exactly everywhere (entries
    are never unknown, and the source is `exact`).  Otherwise knowledge
    stops at the table: n beyond it yields UNKNOWN unless the string is
    invalid (then reject, known).
    """

    arity = 2
    n_symbols = 4

    def __init__(self, suffixes: _SuffixData, table=None, batch=None):
        self.table = table
        self.batch = batch
        self.exact = batch is not None
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


# -- front end ----------------------------------------------------------------


def guess_synchronized(oracle, n_samples: int, *, zero_run: int = 16) -> Automaton:
    """Learn the relation {(n, x) : x = oracle(n)} from samples n < n_samples.

    Oracles with cheap scalar evaluation are observed exactly at any
    depth; table-only oracles leave entries beyond the sample unknown.
    After each hypothesis the training sample is replayed; the words of
    the first _REPAIR_WORDS disagreeing samples are fed back at once as
    fresh distinguishing suffixes (their tails), which repairs premature
    state merges.  The result is intersected with track validity,
    zero-normalized, and minimized — certification is still the caller's
    job.
    """
    from . import arith

    max_depth = len(nu.encode(max(n_samples, 2))) + 8
    words, battery = _battery(zero_run)
    sfx, seen = copy.copy(battery), set(words)
    batch = oracle.batch if getattr(oracle, "cheap_scalar", False) else None
    table_vals = None
    if batch is None:
        table_vals = np.asarray(oracle.table(n_samples), dtype=np.int64)
    probe = min(n_samples, 50_000)
    ns = np.arange(probe)
    want = oracle.table(probe)
    for _ in range(_REPLAY_ROUNDS):
        src = _PairSource(sfx, table=table_vals, batch=batch)
        table = ObservationTable(src, _PAIR_MAX_STATES, max_depth)
        raw = table.hypothesis()
        # raw's start loops on [0,0], so zero_normalize is one minimize
        cand = au.zero_normalize(au.intersect(raw, arith.valid_tracks(2)))
        agreed = arith.accepts_number_pairs(cand, ns, want)
        if bool(agreed.all()):
            return cand
        bad = np.flatnonzero(~agreed)[:_REPAIR_WORDS].tolist()
        fresh = []
        for n in bad:
            word = tuple(au.encode_pair_word((n, int(want[n]))))
            for tail in (word[i:] for i in range(len(word))):
                if tail not in seen:
                    seen.add(tail)
                    fresh.append(tail)
        if not fresh:
            raise InconsistencyError(
                f"replay keeps failing at n={bad[0]} with no new separators",
                witness=(bad[0], int(want[bad[0]])),
            )
        sfx.extend(fresh)
    raise BoundExhausted(f"replay did not stabilize within {_REPLAY_ROUNDS} rounds")


# -- certification -------------------------------------------------------------


@dataclass
class Verdict:
    checks: list = field(default_factory=list)  # (name, bool), up to the first FALSE
    limit: str = ""  # the DeterminizationLimit text behind a FALSE engine_limit

    @property
    def ok(self):
        return all(good for _, good in self.checks)

    @property
    def failures(self):
        return [name for name, good in self.checks if not good]

    @property
    def failure(self) -> str:
        """The FALSE checks' names, then the text of the limit that stopped
        a query, if one did."""
        return ", ".join(self.failures) + (f": {self.limit}" if self.limit else "")

    def __bool__(self):
        return self.ok


@dataclass
class SynthesisReport:
    oracle_name: str
    candidate: Automaton | None
    samples_used: int
    verdict: str  # CERTIFIED | EXHAUSTED
    checks: list = field(default_factory=list)
    detail: str = ""


def function_certificate(label: str):
    """Totality and uniqueness: exactly one x per n."""
    return query_certificate(label, [
        ("total", "An Ex $cand(n,x)"),
        ("unique", "~En,x1,x2 x1!=x2 & $cand(n,x1) & $cand(n,x2)"),
    ])


def query_certificate(label: str, queries, setup: str = ""):
    """Closed queries over $cand, the candidate, after a setup script.

    setup holds def/reg commands; it is parsed here, once, and run in the
    candidate's session before the queries.  Each (name, body) query is
    the check label_name (name alone without a label), and the first
    FALSE check ends the certificate.
    """
    from . import logic

    commands = logic.parse_script(setup)

    def run(candidate, catalog):
        session = logic.Session(catalog)
        session.define_automaton("cand", candidate)
        for cmd in commands:
            session.run_command(cmd)
        checks = []
        for name, body in queries:
            check = f"{label}_{name}" if label else name
            try:
                got = session.eval(body)
            except au.DeterminizationLimit as e:
                raise au.DeterminizationLimit(f"query {check}: {e}") from e
            checks.append((check, got))
            if not got:
                break
        return Verdict(checks)

    return run


_ADJ_FIB = "[0,0]*[0,1][1,0][0,0]*"
_BRACKETS = {"fib": _ADJ_FIB, "fib_nested": _ADJ_FIB, "lucas": "[0,0]*[0,1][1,0][0,1][1,0][0,0]*"}


def recurrence_certificate(kind: str, x: int = 1, y: int = 1):
    """Certificate that a candidate relation satisfies its defining recurrence.

    kind 'fib': a(k) = x*F(j+1) - y*a(k - F(j)) on Fibonacci brackets;
    kind 'fib_nested': b(k) = F(j+1) - b(b(k - F(j)));
    kind 'lucas': a(k) = L(j+1) - a(k - L(j)) on Lucas brackets (j >= 3 via
    the bracket regex; smaller k pinned by explicit value checks).
    """
    from . import seqs

    setup = (f'reg adjbracket msd_fib msd_fib "{_BRACKETS[kind]}":\n'
             'def trapbracket "$adjbracket(x,y) & x<k & y>=k":')
    step = f"Ak,x,y,z,t ($trapbracket(k,x,y) & $cand(k,z) & $cand(k-x,t)) => {x}*y=z+{y}*t"
    if kind == "fib_nested":
        step = ("Ak,x,y,z,t,u ($trapbracket(k,x,y) & $cand(k,z) & $cand(k-x,t)"
                " & $cand(t,u)) => y=z+u")
    bases = [(k, seqs.lucas_variant(k)) for k in range(5)] if kind == "lucas" else [(0, 0), (1, 1)]
    return query_certificate(
        "", [("recurrence", step)] + [(f"base_{n}", f"$cand({n},{v})") for n, v in bases], setup
    )


def run_certificates(aut: Automaton, certificates, catalog) -> Verdict:
    """The checks of each certificate on aut over catalog, in order, up to
    the first FALSE one.  A query past SUBSET_LIMIT is the FALSE check
    engine_limit: evidence of a junk candidate, not of the property; the
    limit's text, which says where the query stopped, is kept."""
    verdict = Verdict()
    for cert in certificates:
        try:
            verdict.checks += cert(aut, catalog).checks
        except au.DeterminizationLimit as e:
            verdict.checks.append(("engine_limit", False))
            verdict.limit = str(e)
        if not verdict:
            break
    return verdict


def synthesize_certified(
    oracle,
    certificates,
    *,
    schedule=DEFAULT_SCHEDULE,
    catalog=None,
) -> SynthesisReport:
    """Loop guess -> certify over an escalating sample schedule."""
    oracle_name = getattr(oracle, "name", "?")
    checks, detail, n = [], "", 0
    for i, n in enumerate(schedule):
        try:
            # widen the distinguishing battery along with the data
            candidate = guess_synchronized(oracle, n, zero_run=16 + 4 * i)
        except SynthesisError as exc:
            checks, detail = [], f"learning failed at {n} samples: {exc}"
            continue
        verdict = run_certificates(candidate, certificates, catalog)
        if verdict:
            return SynthesisReport(oracle_name, candidate, n, "CERTIFIED", verdict.checks)
        checks, detail = verdict.checks, f"failed: {verdict.failure}"
    return SynthesisReport(oracle_name, None, n, "EXHAUSTED", checks, detail)
