"""Automata over k-track binary tuple alphabets.

One class covers DFAs and DFAOs: an :class:`Automaton` carries an output
value per state, a DFA being the special case with outputs in {0, 1}
(output 1 = accepting).  Conventions used throughout the package:

* A symbol is a k-tuple of bits.  Symbols are indexed by packing track 0
  into the most significant bit: ``index = sum(b_i << (k - 1 - i))``.
  Symbol order (ascending index) therefore equals lexicographic order on
  tuples, which fixes the canonical state numbering below.
* Transition tables are complete: ``delta`` has shape (n_states, 2**arity)
  and every entry is a valid state.  Constructions materialize a dead
  state when they need one.
* ``zero_normalized`` marks automata whose acceptance is invariant under
  leading all-zero symbols (the numeration-system padding convention).
* :func:`minimize` returns the canonical form: the minimal complete
  automaton, states numbered by BFS from the initial state with symbols
  taken in ascending index order.  Two automata are language-equal iff
  their canonical forms are identical arrays, which is what
  :func:`equivalent` checks.  Every round of its partition refinement is
  exact: rows are grouped by a 64-bit hash, verified row by row, and
  regrouped by a byte sort on a collision.
* :func:`partial_state_count` implements the state-count convention used
  for figures and reported sizes: states of the minimal partial automaton
  whose transition function is restricted to a domain language (for this
  package, the valid Zeckendorf strings).  See the function docstring.
"""

from __future__ import annotations

import random
import re

import numpy as np

from . import numeration

__all__ = [
    "Automaton",
    "Nfa",
    "AutomatonError",
    "ArityError",
    "product",
    "intersect",
    "union",
    "complement",
    "determinize",
    "minimize",
    "DeterminizationLimit",
    "project",
    "zero_normalize",
    "cylindrify",
    "combine",
    "regex_compile",
    "RegexError",
    "equivalent",
    "sample_language",
    "serialize",
    "deserialize",
    "export_dot",
    "partial_state_count",
    "run_numbers",
    "encode_pair_word",
    "word_from_string",
]

MAX_ARITY = 12

# odd weights that hash a signature row of _moore_partition, up to 2**12
# successor columns plus the own class, to one wrapping int64
_ROW_WEIGHTS = np.frombuffer(random.Random(0).randbytes(8 * ((1 << MAX_ARITY) + 1)), np.int64) | 1


class AutomatonError(ValueError):
    pass


class ArityError(AutomatonError):
    pass


class Automaton:
    """Complete deterministic automaton with per-state outputs."""

    __slots__ = ("arity", "delta", "outputs", "initial", "zero_normalized")

    def __init__(self, arity, delta, outputs, initial=0, zero_normalized=False):
        if arity < 0 or arity > MAX_ARITY:
            raise ArityError(f"arity {arity} out of range 0..{MAX_ARITY}")
        delta = np.ascontiguousarray(delta, dtype=np.int32)
        outputs = np.ascontiguousarray(outputs, dtype=np.int32)
        n = delta.shape[0]
        if delta.ndim != 2 or delta.shape[1] != (1 << arity):
            raise AutomatonError(
                f"delta shape {delta.shape} does not match arity {arity}"
            )
        if outputs.shape != (n,):
            raise AutomatonError("outputs must have one entry per state")
        if n == 0:
            raise AutomatonError("automaton needs at least one state")
        if not (0 <= initial < n):
            raise AutomatonError("initial state out of range")
        if delta.size and (delta.min() < 0 or delta.max() >= n):
            raise AutomatonError("transition target out of range")
        delta.setflags(write=False)
        outputs.setflags(write=False)
        self.arity = arity
        self.delta = delta
        self.outputs = outputs
        self.initial = int(initial)
        self.zero_normalized = bool(zero_normalized)

    # -- basic queries -------------------------------------------------

    @property
    def n_states(self) -> int:
        return self.delta.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.delta.shape[1]

    @property
    def is_boolean(self) -> bool:
        return bool(np.all((self.outputs == 0) | (self.outputs == 1)))

    @property
    def accepting(self) -> frozenset:
        return frozenset(int(q) for q in np.flatnonzero(self.outputs == 1))

    def __repr__(self):
        kind = "dfa" if self.is_boolean else "dfao"
        return (
            f"<Automaton {kind} arity={self.arity} states={self.n_states}"
            f"{' zn' if self.zero_normalized else ''}>"
        )

    def run(self, word) -> int:
        state = self.initial
        for sym in _coerce_word(word, self.arity):
            state = int(self.delta[state, sym])
        return state

    def accepts(self, word) -> bool:
        return int(self.outputs[self.run(word)]) == 1

    def output_of(self, word) -> int:
        return int(self.outputs[self.run(word)])

    def value_at(self, n: int) -> int:
        """DFAO value at n: output after reading encode(n) (arity 1 only)."""
        if self.arity != 1:
            raise ArityError("value_at needs an arity-1 automaton")
        return self.output_of(numeration.encode(n))

    def accepts_numbers(self, *nums) -> bool:
        """Membership of a tuple of naturals, zero-padded to equal length."""
        if len(nums) != self.arity:
            raise ArityError(f"expected {self.arity} numbers, got {len(nums)}")
        return self.accepts(encode_pair_word(nums))


class Nfa:
    """Nondeterministic automaton; transient input to :func:`determinize`."""

    def __init__(self, arity, n_states, initial, accepting, moves):
        # moves: dict (state, symbol) -> iterable of states
        self.arity = arity
        self.n_states = n_states
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        self.moves = {k: frozenset(v) for k, v in moves.items()}

    @classmethod
    def from_dfa(cls, a: Automaton) -> "Nfa":
        moves = {
            (q, s): (int(a.delta[q, s]),)
            for q in range(a.n_states)
            for s in range(a.n_symbols)
        }
        return cls(a.arity, a.n_states, (a.initial,), a.accepting, moves)


# -- word coercion and number encodings --------------------------------


_BITS = (0, 1, "0", "1")
_SYMBOLS = re.compile(r"(?:\s*\[[^\[\]]*\])*\s*")


def _pack(bits, arity: int) -> int:
    """Index of one symbol given as exactly `arity` bits, each 0 or 1; text
    such as '0, 1' holds the bits separated by commas."""
    if isinstance(bits, str):
        bits = [b.strip() for b in bits.split(",")] if bits.strip() else []
    bits = tuple(bits)
    if len(bits) != arity or any(b not in _BITS for b in bits):
        raise AutomatonError(f"symbol {list(bits)} is not {arity} bits")
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


def word_from_string(text: str, arity: int) -> list:
    """Parse '0101' (arity 1) or '[0,1][1,0]' into symbol indices."""
    if arity == 1 and "[" not in text:
        return [_pack(c, 1) for c in text]
    if not _SYMBOLS.fullmatch(text):
        raise AutomatonError(f"{text!r} is not a word of bracketed symbols")
    return [_pack(body, arity) for body in re.findall(r"\[([^\]]*)\]", text)]


def _coerce_word(word, arity):
    if isinstance(word, str):
        return word_from_string(word, arity)
    out = [_pack(sym, arity) if isinstance(sym, (tuple, list)) else int(sym) for sym in word]
    if out and (min(out) < 0 or max(out) >> arity):
        raise AutomatonError(f"a symbol of {out} is outside 0..{(1 << arity) - 1}")
    return out


def encode_pair_word(nums) -> list:
    """Symbol indices for a tuple of naturals, zero-padded to equal length."""
    digs = [numeration.encode(int(n)) for n in nums]
    width = max((len(d) for d in digs), default=0)
    digs = [d.rjust(width, "0") for d in digs]
    word = []
    for col in range(width):
        idx = 0
        for d in digs:
            idx = (idx << 1) | (d[col] == "1")
        word.append(idx)
    return word


# Rows per block of run_numbers: keeps the remainder, index and state
# arrays of one block cache-sized, whatever the number of tuples.
RUN_BLOCK = 1 << 15


def run_numbers(a: Automaton, cols) -> np.ndarray:
    """Outputs of `a` on tuples of naturals, one column per track.

    Row i is the tuple (cols[0][i], ..., cols[k-1][i]), read msd first as
    Zeckendorf digits zero-padded to the width of the largest value in any
    column.  Rows are read in blocks of RUN_BLOCK; the digit of each track
    comes from a running remainder, so no (rows x width) digit matrix is
    built.  Raises ValueError for a negative value or columns of unequal
    length.
    """
    if len(cols) != a.arity or a.arity == 0:
        raise ArityError(f"need one column per track (arity {a.arity} >= 1), got {len(cols)}")
    arrs = [np.asarray(c, dtype=np.int64) for c in cols]
    n = len(arrs[0])
    if any(x.shape != (n,) for x in arrs):
        raise ValueError("columns must be one-dimensional and of equal length")
    if n == 0:
        return a.outputs[:0].copy()
    if min(int(x.min()) for x in arrs) < 0:
        raise ValueError("batch membership takes natural numbers only")
    hi = max(int(x.max()) for x in arrs)
    width = max(len(numeration.encode(hi)), 1)
    weights = [numeration.fib(width + 1 - col) for col in range(width)]
    rdtype = np.int32 if hi < 1 << 31 else np.int64
    sign = np.iinfo(rdtype).bits - 1
    flat = a.delta.ravel()
    out = np.empty(n, dtype=a.outputs.dtype)
    for lo in range(0, n, RUN_BLOCK):
        rems = [x[lo : lo + RUN_BLOCK].astype(rdtype) for x in arrs]
        m = rems[0].size
        state = np.full(m, a.initial, dtype=np.int32)
        idx = np.empty(m, dtype=rdtype)
        neg = np.empty(m, dtype=rdtype)
        tmp = np.empty(m, dtype=rdtype)
        for f in weights:
            idx[:] = state
            for r in rems:
                # neg = -1 where r >= f (digit 1), else 0: the sign of f-1-r
                np.subtract(f - 1, r, out=neg)
                np.right_shift(neg, sign, out=neg)
                np.bitwise_and(neg, f, out=tmp)  # masked subtract of f
                np.subtract(r, tmp, out=r)
                np.left_shift(idx, 1, out=idx)  # append the digit bit
                np.subtract(idx, neg, out=idx)
            np.take(flat, idx, out=state)  # flat[state * S + symbol]
        out[lo : lo + m] = a.outputs[state]
    return out


# -- products and boolean algebra ---------------------------------------


def product(a: Automaton, b: Automaton, out_fn) -> Automaton:
    """Reachable product automaton; outputs = out_fn(out_a, out_b) (vectorized)."""
    if a.arity != b.arity:
        raise ArityError(f"arity mismatch: {a.arity} vs {b.arity}")
    nb = b.n_states
    key0 = np.int64(a.initial) * nb + b.initial
    index: dict[int, int] = {int(key0): 0}
    order = [int(key0)]
    frontier = np.array([key0], dtype=np.int64)
    rows = []
    while frontier.size:
        ia = (frontier // nb).astype(np.int32)
        ib = (frontier % nb).astype(np.int32)
        succ = a.delta[ia].astype(np.int64) * nb + b.delta[ib]
        rows.append(succ)
        flat = succ.ravel()
        uniq, first = np.unique(flat, return_index=True)
        fresh = [int(k) for k in uniq[np.argsort(first)] if int(k) not in index]
        for k in fresh:
            index[k] = len(order)
            order.append(k)
        frontier = np.array(fresh, dtype=np.int64)
    keys = np.array(order, dtype=np.int64)
    succ_all = np.vstack(rows)
    # remap packed keys to dense ids
    sorter = np.argsort(keys)
    pos = np.searchsorted(keys[sorter], succ_all.ravel())
    delta = sorter[pos].astype(np.int32).reshape(succ_all.shape)
    out_a = a.outputs[(keys // nb).astype(np.int32)]
    out_b = b.outputs[(keys % nb).astype(np.int32)]
    outputs = np.asarray(out_fn(out_a, out_b), dtype=np.int32)
    return Automaton(
        a.arity,
        delta,
        outputs,
        0,
        zero_normalized=a.zero_normalized and b.zero_normalized,
    )


def _require_boolean(*auts):
    for a in auts:
        if not a.is_boolean:
            raise AutomatonError("operation needs boolean (DFA) outputs")


def intersect(a: Automaton, b: Automaton) -> Automaton:
    _require_boolean(a, b)
    return product(a, b, lambda x, y: x & y)


def union(a: Automaton, b: Automaton) -> Automaton:
    _require_boolean(a, b)
    return product(a, b, lambda x, y: x | y)


def complement(a: Automaton) -> Automaton:
    """Flip accepting/rejecting; table is complete so no completion needed.

    The string language is complemented exactly; callers that work modulo
    the numeration-system padding convention must keep the input
    zero-normalized (the flag is preserved: the normalization invariant
    survives complementation).
    """
    _require_boolean(a)
    return Automaton(
        a.arity, a.delta, 1 - a.outputs, a.initial, zero_normalized=a.zero_normalized
    )


# -- reachability, minimization, equivalence ----------------------------


def _reachable_order(delta: np.ndarray, initial: int) -> np.ndarray:
    """States reachable from initial, in BFS discovery order (symbols ascending)."""
    n = delta.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[initial] = True
    order = [np.array([initial], dtype=np.int32)]
    frontier = order[0]
    while frontier.size:
        succ = delta[frontier].ravel()  # row-major: state-major, symbol ascending
        uniq, first = np.unique(succ, return_index=True)
        uniq = uniq[np.argsort(first)]
        fresh = uniq[~seen[uniq]]
        seen[fresh] = True
        order.append(fresh.astype(np.int32))
        frontier = fresh
    return np.concatenate(order)


def _row_ids(rows: np.ndarray) -> np.ndarray:
    """Number the rows of an int64 matrix so that exactly the equal rows
    share a number: group them by a wrapping 64-bit hash, check each row
    against its group's first, and on a collision sort them as bytes."""
    h = rows @ _ROW_WEIGHTS[: rows.shape[1]]
    _, first, ids = np.unique(h, return_index=True, return_inverse=True)
    if not np.array_equal(rows[first[ids]], rows):
        as_bytes = np.ascontiguousarray(rows).view(np.dtype((np.void, rows[0].nbytes)))
        _, ids = np.unique(as_bytes.ravel(), return_inverse=True)
    return ids


def _moore_partition(delta: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """Coarsest congruence refining the output partition.

    Each round numbers the states by their exact signature, the row (own
    class, class of each successor), so it refines the round before; the
    loop stops when a round splits no class.
    """
    ids, k = np.unique(outputs, return_inverse=True)[1], 0
    while int(ids.max()) + 1 > k:
        k = int(ids.max()) + 1
        ids = _row_ids(np.column_stack((ids, ids[delta])))
    return ids


def minimize(a: Automaton) -> Automaton:
    """Canonical minimal complete automaton (BFS numbering, symbol order).
    The BFS over the quotient drops the classes no path reaches."""
    ids = _moore_partition(a.delta, a.outputs)
    k = int(ids.max()) + 1
    rep = np.zeros(k, dtype=np.int64)
    rep[ids] = np.arange(a.n_states)
    qdelta = ids[a.delta[rep]]
    order = _reachable_order(qdelta, int(ids[a.initial]))
    remap = np.full(k, -1, dtype=np.int32)
    remap[order] = np.arange(order.size, dtype=np.int32)
    return Automaton(
        a.arity,
        remap[qdelta[order]],
        a.outputs[rep[order]],
        0,
        zero_normalized=a.zero_normalized,
    )


def equivalent(a: Automaton, b: Automaton) -> bool:
    if a.arity != b.arity:
        raise ArityError("cannot compare automata of different arity")
    ca, cb = minimize(a), minimize(b)
    return (
        ca.n_states == cb.n_states
        and np.array_equal(ca.delta, cb.delta)
        and np.array_equal(ca.outputs, cb.outputs)
    )


# -- subset construction -------------------------------------------------


SUBSET_LIMIT = 300_000


class DeterminizationLimit(AutomatonError):
    """Subset construction exceeded SUBSET_LIMIT states."""


def _subsets(seeds, succ, accepting):
    """Subset construction from several seed subsets at once.

    succ[s][q] is the sorted tuple of successors of state q on symbol s;
    the successor of a subset is the union over its members.  `accepting`
    is a set of states.  Subsets are keyed by sorted tuples and numbered
    in BFS discovery order, seeds first, symbols ascending.  Returns
    (delta_rows, outputs, seed_ids) over the discovered subsets.
    """
    index: dict[tuple, int] = {}
    subsets: list[tuple] = []
    seed_ids = []
    for seed in seeds:
        key = tuple(sorted(set(seed)))
        if key not in index:
            index[key] = len(subsets)
            subsets.append(key)
        seed_ids.append(index[key])
    flat = []
    qpos = 0
    while qpos < len(subsets):
        sub = subsets[qpos]
        for table in succ:
            if len(sub) == 1:
                nxt = table[sub[0]]
            else:
                nxt = tuple(sorted(set().union(*[table[q] for q in sub])))
            tid = index.get(nxt)
            if tid is None:
                tid = len(subsets)
                if tid >= SUBSET_LIMIT:
                    raise DeterminizationLimit(
                        f"determinization exceeded {SUBSET_LIMIT} states"
                    )
                index[nxt] = tid
                subsets.append(nxt)
            flat.append(tid)
        qpos += 1
    rows = np.array(flat, dtype=np.int32).reshape(len(subsets), len(succ))
    outs = np.array([0 if accepting.isdisjoint(sub) else 1 for sub in subsets], dtype=np.int32)
    return rows, outs, seed_ids


def determinize(nfa: Nfa) -> Automaton:
    """Language-equivalent complete DFA via subset construction."""
    succ = [
        [tuple(sorted(nfa.moves.get((q, s), ()))) for q in range(nfa.n_states)]
        for s in range(1 << nfa.arity)
    ]
    rows, outs, _ = _subsets([nfa.initial], succ, nfa.accepting)
    return Automaton(nfa.arity, rows, outs)


def _padded_subsets(arity: int, starts, succ, acc: np.ndarray) -> Automaton:
    """Minimal zero-normalized DFA of an NFA read after any zero prefix.

    succ[s][q] is the tuple of successors of state q on symbol s and acc
    the accepting mask.  A fresh start state loops on symbol 0 and accepts
    when the zero-closure of `starts` meets acc; each non-zero symbol s
    enters the subset construction seeded from the s-successors of that
    closure.
    """
    closure = set(starts)
    stack = list(closure)
    while stack:
        for t in succ[0][stack.pop()]:
            if t not in closure:
                closure.add(t)
                stack.append(t)
    start_out = int(acc[sorted(closure)].any())
    S = len(succ)
    if not closure or S == 1:
        return Automaton(
            arity, np.zeros((1, S), dtype=np.int32), [start_out], 0, zero_normalized=True
        )
    seeds = [[t for q in closure for t in succ[s][q]] for s in range(1, S)]
    rows, outs, seed_ids = _subsets(seeds, succ, set(np.flatnonzero(acc).tolist()))
    delta = np.vstack(([0] + [i + 1 for i in seed_ids], rows + 1))
    return minimize(Automaton(arity, delta, np.append(start_out, outs), 0, zero_normalized=True))


def zero_normalize(a: Automaton) -> Automaton:
    """Closure under leading all-zero padding.

    The result accepts w iff a accepts some u with strip0(u) = strip0(w),
    i.e. membership becomes invariant under adding or removing leading
    all-zero symbols.
    """
    _require_boolean(a)
    succ = [[(t,) for t in col] for col in a.delta.T.tolist()]
    return _padded_subsets(a.arity, [a.initial], succ, a.outputs == 1)


def _insert_bit_tables(arity: int, track: int):
    """Full-symbol indices for a reduced symbol with 0 or 1 on `track`."""
    ksmall = arity - 1
    small = np.arange(1 << ksmall, dtype=np.int32)
    low_bits = arity - 1 - track  # tracks after `track`
    low = small & ((1 << low_bits) - 1)
    high = small >> low_bits
    base = (high << (low_bits + 1)) | low
    return base, base | (1 << low_bits)


def project(a: Automaton, track: int) -> Automaton:
    """Existential quantification: drop a track.

    Accepts w iff some value on the dropped track pairs with w, including
    values whose representation is longer than w: the reduced zero symbol
    reads 0 or 1 on the dropped track, so the zero prefix the result
    skips covers the longer values.  Requires a zero-normalized input; the
    result is determinized, zero-normalized and minimized in one subset
    construction.
    """
    _require_boolean(a)
    if not (0 <= track < a.arity):
        raise ArityError(f"track {track} out of range for arity {a.arity}")
    if not a.zero_normalized:
        raise AutomatonError("project requires a zero-normalized automaton")
    i0, i1 = _insert_bit_tables(a.arity, track)
    t0 = a.delta[:, i0]
    t1 = a.delta[:, i1]
    acc = a.outputs == 1
    # states with no accepting future never matter inside a subset
    keep = _coreachable(a.delta, acc)
    # successors of q on a reduced symbol: the kept ones of lo <= hi, once
    lo, hi = np.minimum(t0, t1).T, np.maximum(t0, t1).T
    klo, khi = keep[lo], keep[hi] & (hi != lo)
    succ = [
        [(x, y) if kx and ky else (x,) if kx else (y,) if ky else () for x, y, kx, ky in zip(*c)]
        for c in zip(lo.tolist(), hi.tolist(), klo.tolist(), khi.tolist())
    ]
    starts = [a.initial] if keep[a.initial] else []
    return _padded_subsets(a.arity - 1, starts, succ, acc)


def cylindrify(a: Automaton, positions, new_arity: int) -> Automaton:
    """Preimage under track deletion: old track i lives at positions[i].

    The new tracks are unconstrained.  Language = strings whose restriction
    to `positions` is accepted by `a`.
    """
    positions = list(positions)
    if len(positions) != a.arity:
        raise ArityError("positions must map every old track")
    if len(set(positions)) != len(positions):
        raise AutomatonError("positions must be injective")
    if positions and (min(positions) < 0 or max(positions) >= new_arity):
        raise ArityError("position out of range")
    if new_arity > MAX_ARITY:
        raise ArityError(f"arity {new_arity} exceeds the supported maximum")
    sym = np.arange(1 << new_arity, dtype=np.int64)
    old = np.zeros_like(sym)
    for i, p in enumerate(positions):
        bit = (sym >> (new_arity - 1 - p)) & 1
        old |= bit << (a.arity - 1 - i)
    delta = a.delta[:, old]
    return Automaton(
        new_arity, delta, a.outputs, a.initial, zero_normalized=a.zero_normalized
    )


# -- DFAO assembly -------------------------------------------------------


def combine(parts, domain: Automaton) -> Automaton:
    """DFAO emitting the value of the accepting part, default 0 elsewhere.

    parts: sequence of (boolean Automaton, output value).  The part
    languages must be pairwise disjoint inside `domain`; a shortest
    witness inside the domain is reported on violation.
    """
    parts = list(parts)
    if not parts:
        raise AutomatonError("combine needs at least one part")
    arity = parts[0][0].arity
    for aut, _ in parts:
        _require_boolean(aut)
        if aut.arity != arity:
            raise ArityError("combine parts must share one arity")
    # fold a product tracking the acceptance bitmask of every part
    acc = parts[0][0]
    mask = Automaton(
        arity, acc.delta, acc.outputs, acc.initial, zero_normalized=acc.zero_normalized
    )
    for i, (aut, _) in enumerate(parts[1:], start=1):
        mask = product(mask, aut, lambda x, y, i=i: x | (y << i))
    mask = product(mask, domain, lambda x, y: x * 2 + y)
    bits = mask.outputs // 2
    in_dom = mask.outputs % 2 == 1
    counts = np.zeros(mask.n_states, dtype=np.int32)
    for i in range(len(parts)):
        counts += (bits >> i) & 1
    clash = (counts >= 2) & in_dom
    if clash.any():
        witness_dfa = Automaton(
            mask.arity, mask.delta, clash.astype(np.int32), mask.initial
        )
        wit = sample_language(witness_dfa, 1)
        raise AutomatonError(f"combine parts overlap; witness: {wit[0] if wit else '?'}")
    values = np.zeros(mask.n_states, dtype=np.int32)
    for i, (_, val) in enumerate(parts):
        values = np.where((bits >> i) & 1 == 1, val, values)
    out = Automaton(mask.arity, mask.delta, values, mask.initial)
    return minimize(out)


# -- enumeration ---------------------------------------------------------


def sample_language(a: Automaton, limit: int) -> list[str]:
    """First `limit` accepted words of length at most 64, in (length, symbol) order.

    Words come back as digit strings for arity 1 and bracketed tuple text
    otherwise (empty word: '').
    """
    _require_boolean(a)
    # prune prefixes that cannot reach acceptance
    useful = _coreachable(a.delta, a.outputs == 1)
    out: list[str] = []
    if not useful[a.initial]:
        return out
    frontier = [(a.initial, [])]
    if a.outputs[a.initial] == 1:
        out.append(_word_text([], a.arity))
    depth = 0
    while frontier and len(out) < limit and depth < 64:
        depth += 1
        nxt = []
        for state, word in frontier:
            for s in range(a.n_symbols):
                t = int(a.delta[state, s])
                if not useful[t]:
                    continue
                w2 = word + [s]
                if a.outputs[t] == 1 and len(out) < limit:
                    out.append(_word_text(w2, a.arity))
                nxt.append((t, w2))
        frontier = nxt
    return out[:limit]


def _word_text(symbols, arity) -> str:
    if arity == 1:
        return "".join(str(s) for s in symbols)
    parts = []
    for s in symbols:
        bits = [(s >> (arity - 1 - i)) & 1 for i in range(arity)]
        parts.append("[" + ",".join(str(b) for b in bits) + "]")
    return "".join(parts)


def _coreachable(delta: np.ndarray, target_mask: np.ndarray) -> np.ndarray:
    useful = target_mask.copy()
    while True:
        step = useful[delta].any(axis=1) | useful
        if np.array_equal(step, useful):
            return useful
        useful = step


# -- reported state counts ------------------------------------------------


def partial_state_count(a: Automaton, domain: Automaton) -> int:
    """States of the minimal partial automaton restricted to `domain`.

    This is the counting convention used when automata are displayed or
    sized in the numeration-system literature: the transition function is
    only defined where the string can still be completed inside the
    domain (and, for DFAs, still reach acceptance); dead branches simply
    do not exist.  Formally it counts Myhill-Nerode classes of useful
    prefixes, where two prefixes are equivalent iff they have the same
    definedness and the same continuation behavior inside the domain.

    Complete automata stay the internal representation; this function
    only reports the size under the borrowed convention.
    """
    if domain.arity != a.arity:
        raise ArityError("domain arity mismatch")
    _require_boolean(domain)
    p = product(a, domain, lambda x, y: x * 2 + y)
    a_out = p.outputs // 2
    d_acc = p.outputs % 2 == 1
    if a.is_boolean:
        target = d_acc & (a_out == 1)
    else:
        target = d_acc
    useful = _coreachable(p.delta, target)
    if not useful[p.initial]:
        return 0
    # undefined moves (into useless states) go to an added sink state n;
    # the sink and the useless states share an output key that no useful
    # state has, and no defined move enters a useless state
    n, S = p.delta.shape
    delta = np.full((n + 1, S), n, dtype=np.int32)
    defined = useful[p.delta]
    delta[:n][defined] = p.delta[defined]
    # output key: observable value at prefixes that are full domain words
    outkey = np.where(d_acc, a_out, -1).astype(np.int64)
    sink_key = int(outkey.min()) - 1
    outkey = np.append(np.where(useful, outkey, sink_key), sink_key)
    ids = _moore_partition(delta, outkey)
    reach = np.unique(ids[_reachable_order(delta, p.initial)])
    return int(np.count_nonzero(reach != ids[n]))


# -- regular expressions ---------------------------------------------------


class RegexError(AutomatonError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _RegexParser:
    """Patterns over tuple symbols [b1,...,bk] (bare 0/1 when k = 1).

    Grammar: alternation of concatenations of starred/plused/optional
    atoms; atoms are symbols, '()' groups, and empty branches denote the
    empty word.
    """

    def __init__(self, text: str, arity: int):
        self.text = text
        self.arity = arity
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def parse(self):
        node = self._alt()
        self._skip_ws()
        if self.pos != len(self.text):
            raise RegexError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return node

    def _alt(self):
        branches = [self._concat()]
        while self.peek() == "|":
            self.pos += 1
            branches.append(self._concat())
        return ("alt", branches) if len(branches) > 1 else branches[0]

    def _concat(self):
        items = []
        while True:
            c = self.peek()
            if c is None or c in "|)":
                break
            items.append(self._repeat())
        if not items:
            return ("eps",)
        return ("cat", items) if len(items) > 1 else items[0]

    def _repeat(self):
        node = self._atom()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                node = ("star", node)
            elif c == "+":
                self.pos += 1
                node = ("cat", [node, ("star", node)])
            elif c == "?":
                self.pos += 1
                node = ("alt", [node, ("eps",)])
            else:
                return node

    def _atom(self):
        c = self.peek()
        if c == "(":
            self.pos += 1
            node = self._alt()
            if self.peek() != ")":
                raise RegexError("unbalanced parenthesis", self.pos)
            self.pos += 1
            return node
        if c == "[":
            start = self.pos
            end = self.text.find("]", self.pos)
            if end < 0:
                raise RegexError("unterminated symbol", start)
            body = self.text[self.pos + 1 : end]
            self.pos = end + 1
            try:
                idx = _pack(body, self.arity)
            except AutomatonError:
                msg = f"symbol [{body}] does not fit arity {self.arity}"
                raise RegexError(msg, start) from None
            return ("sym", idx)
        if c in ("0", "1") and self.arity == 1:
            self.pos += 1
            return ("sym", int(c))
        raise RegexError(f"unexpected {c!r}", self.pos)


def regex_compile(pattern: str, arity: int) -> Automaton:
    """Minimal DFA of the exact pattern language (no implicit padding)."""
    ast = _RegexParser(pattern, arity).parse()
    # Thompson construction with explicit epsilon edges
    trans: list[tuple[int, int, int]] = []  # (src, symbol, dst)
    eps: list[tuple[int, int]] = []
    counter = [0]

    def new_state():
        counter[0] += 1
        return counter[0] - 1

    def build(node):
        kind = node[0]
        if kind == "eps":
            s, t = new_state(), new_state()
            eps.append((s, t))
            return s, t
        if kind == "sym":
            s, t = new_state(), new_state()
            trans.append((s, node[1], t))
            return s, t
        if kind == "cat":
            first = build(node[1][0])
            cur = first
            for item in node[1][1:]:
                nxt = build(item)
                eps.append((cur[1], nxt[0]))
                cur = (first[0], nxt[1])
            return cur
        if kind == "alt":
            s, t = new_state(), new_state()
            for item in node[1]:
                fs, ft = build(item)
                eps.append((s, fs))
                eps.append((ft, t))
            return s, t
        if kind == "star":
            s, t = new_state(), new_state()
            fs, ft = build(node[1])
            eps.extend([(s, t), (s, fs), (ft, fs), (ft, t)])
            return s, t
        raise AssertionError(kind)

    start, final = build(ast)
    n = counter[0]
    eps_adj = [[] for _ in range(n)]
    for u, v in eps:
        eps_adj[u].append(v)

    def closure(states):
        out = set(states)
        stack = list(states)
        while stack:
            q = stack.pop()
            for r in eps_adj[q]:
                if r not in out:
                    out.add(r)
                    stack.append(r)
        return out

    moves: dict[tuple[int, int], set] = {}
    for u, s, v in trans:
        moves.setdefault((u, s), set()).add(v)
    # epsilon-free NFA: move then closure
    nfa_moves = {}
    for (u, s), vs in moves.items():
        nfa_moves[(u, s)] = closure(vs)
    init = closure({start})
    # states reaching final through closure are accepting
    accepting = {q for q in range(n) if final in closure({q})}
    nfa = Nfa(arity, n, init, accepting, nfa_moves)
    return minimize(determinize(nfa))


# -- serialization ---------------------------------------------------------


FORMAT_MAGIC = "fibaut 1"


def serialize(a: Automaton) -> str:
    lines = [FORMAT_MAGIC, f"arity {a.arity}", f"states {a.n_states}", f"initial {a.initial}"]
    if a.is_boolean:
        acc = " ".join(str(q) for q in sorted(a.accepting))
        lines.append(f"accepting {acc}".rstrip())
    else:
        for q in range(a.n_states):
            lines.append(f"output {q} {int(a.outputs[q])}")
    for q in range(a.n_states):
        for s in range(a.n_symbols):
            bits = [(s >> (a.arity - 1 - i)) & 1 for i in range(a.arity)]
            sym = "[" + ",".join(str(b) for b in bits) + "]"
            lines.append(f"trans {q} {sym} {int(a.delta[q, s])}")
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> Automaton:
    arity = None
    n = None
    initial = 0
    accepting: set[int] | None = None
    outputs: dict[int, int] = {}
    trans: list[tuple[int, str, int, int]] = []
    magic_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if not magic_seen:
                if line != FORMAT_MAGIC:
                    raise ValueError(f"expected {FORMAT_MAGIC!r} header")
                magic_seen = True
            elif parts[0] == "arity":
                arity = int(parts[1])
            elif parts[0] == "states":
                n = int(parts[1])
            elif parts[0] == "initial":
                initial = int(parts[1])
            elif parts[0] == "accepting":
                accepting = {int(p) for p in parts[1:]}
            elif parts[0] == "output":
                outputs[int(parts[1])] = int(parts[2])
            elif parts[0] == "trans":
                if len(parts) != 4:
                    raise ValueError("trans needs: state symbol state")
                trans.append((int(parts[1]), parts[2], int(parts[3]), lineno))
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except (ValueError, IndexError) as exc:
            raise AutomatonError(f"line {lineno}: {exc}") from None
    if arity is None or n is None:
        raise AutomatonError("missing arity/states header")
    if not (0 <= arity <= MAX_ARITY and n >= 1):
        raise AutomatonError(f"arity {arity} or states {n} out of range")
    delta = np.full((n, 1 << arity), -1, dtype=np.int32)
    for q, symtext, t, lineno in trans:
        if not (0 <= q < n and 0 <= t < n):
            raise AutomatonError(f"line {lineno}: state out of range")
        try:
            syms = word_from_string(symtext, arity)
        except AutomatonError as exc:
            raise AutomatonError(f"line {lineno}: {exc}") from None
        if len(syms) != 1:
            raise AutomatonError(f"line {lineno}: expected one symbol")
        delta[q, syms[0]] = t
    if (delta < 0).any():
        q, s = np.argwhere(delta < 0)[0]
        raise AutomatonError(f"missing transition for state {q} symbol index {s}")
    if accepting is not None:
        outs = np.array([1 if q in accepting else 0 for q in range(n)], dtype=np.int32)
    else:
        if set(outputs) != set(range(n)):
            raise AutomatonError("DFAO must define an output for every state")
        outs = np.array([outputs[q] for q in range(n)], dtype=np.int32)
    return Automaton(arity, delta, outs, initial)


def export_dot(a: Automaton, name: str = "aut") -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  hidden [shape=plaintext label=""];']
    boolean = a.is_boolean
    for q in range(a.n_states):
        if boolean:
            shape = "doublecircle" if a.outputs[q] == 1 else "circle"
            lines.append(f'  q{q} [shape={shape} label="{q}"];')
        else:
            lines.append(f'  q{q} [shape=circle label="{q}/{int(a.outputs[q])}"];')
    lines.append(f"  hidden -> q{a.initial};")
    for q in range(a.n_states):
        for s in range(a.n_symbols):
            bits = [(s >> (a.arity - 1 - i)) & 1 for i in range(a.arity)]
            label = "[" + ",".join(str(b) for b in bits) + "]"
            lines.append(f'  q{q} -> q{int(a.delta[q, s])} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
