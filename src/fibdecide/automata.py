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
  regrouped by a byte sort on a collision; an automaton of fewer than
  ``_ROW_CELLS`` cells is refined on Python rows, numbering the exact
  signature tuples with a dict.
* :func:`partial_state_count` implements the state-count convention used
  for figures and reported sizes: states of the minimal partial automaton
  whose transition function is restricted to a domain language (for this
  package, the valid Zeckendorf strings).  See the function docstring.
"""

from __future__ import annotations

import operator
import random
import re
from functools import cache
from itertools import islice

import numpy as np

from . import numeration

__all__ = [
    "Automaton",
    "AutomatonError",
    "ArityError",
    "product",
    "intersect",
    "union",
    "complement",
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

    __slots__ = ("arity", "delta", "outputs", "initial", "zero_normalized", "_boolean")

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
        # every output is 0 or 1 (no bit but the lowest); the outputs are
        # frozen above, so this is computed once
        self._boolean = not (outputs & -2).any()

    # -- basic queries -------------------------------------------------

    @property
    def n_states(self) -> int:
        return self.delta.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.delta.shape[1]

    @property
    def is_boolean(self) -> bool:
        return self._boolean

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

    def value_at(self, n: int) -> int:
        """DFAO value at n: output after reading encode(n) (arity 1 only)."""
        if self.arity != 1:
            raise ArityError("value_at needs an arity-1 automaton")
        return int(self.outputs[self.run(numeration.encode(n))])

    def accepts_numbers(self, *nums) -> bool:
        """Membership of a tuple of naturals, zero-padded to equal length."""
        if len(nums) != self.arity:
            raise ArityError(f"expected {self.arity} numbers, got {len(nums)}")
        return self.accepts(encode_pair_word(nums))


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
# run_numbers reads the last _CODE_COLS columns (weights F(2) .. F(23)) of
# a remainder below F(24) from a table of packed codes, at most 63 // k
# columns for k tracks so that a code fits an int64
_CODE_COLS = 22
# cells (states x symbols) of the transition table over c columns at once
_STEP_CELLS = 1 << 16
# minimize refines an automaton of fewer cells (states x symbols) on Python
# rows, where the numpy rounds' fixed cost per call outweighs their speed
# per cell; measured crossover on a 2-core x86-64 host: rows are 3x as fast
# under 32 cells, 1.2x at 192-256 and 2x as slow at 256-384
_ROW_CELLS = 256


@cache
def _zeckendorf_codes(arity: int) -> np.ndarray:
    """codes[r] holds digit t (weight F(t+2)) of r at bit t * arity, for r
    below F(cols + 2) with cols = min(_CODE_COLS, 63 // arity)."""
    cols = min(_CODE_COLS, 63 // arity)
    codes = np.zeros(numeration.fib(cols + 2), dtype=np.int64)
    for t in range(cols):
        # r in [F(t+2), F(t+3)) is F(t+2) plus the code of r - F(t+2)
        lo, hi = numeration.fib(t + 2), numeration.fib(t + 3)
        np.bitwise_or(codes[: hi - lo], 1 << (t * arity), out=codes[lo:hi])
    codes.setflags(write=False)
    return codes


def run_numbers(a: Automaton, cols) -> np.ndarray:
    """Outputs of `a` on tuples of naturals, one column per track.

    Row i is the tuple (cols[0][i], ..., cols[k-1][i]), read msd first as
    Zeckendorf digits zero-padded to the width of the largest value in any
    column.  Rows are read in blocks of RUN_BLOCK, so no (rows x width)
    digit matrix is built.  The digits of each track come from a running
    remainder until it is below F(24) (a lower Fibonacci number from 3
    tracks on); the last columns are then read from one table of packed
    Zeckendorf codes, one gather per track.  The state moves c columns per
    gather through the transition table composed over c symbols, the
    largest c with k * c <= 8 whose table has at most _STEP_CELLS cells
    (else c = 1); the width % c leftover columns come first, one at a
    time.  Raises ValueError for a negative value or columns of unequal
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
    k, n_states = a.arity, a.n_states
    width = max(len(numeration.encode(hi)), 1)
    codes = _zeckendorf_codes(k)
    n_high = max(width - min(_CODE_COLS, 63 // k), 0)  # columns read by remainder
    rdtype = np.int32 if hi < 1 << 31 else np.int64
    sign = np.iinfo(rdtype).bits - 1
    c = next((c for c in range(8 // k, 1, -1) if n_states << (k * c) <= _STEP_CELLS), 1)
    table = a.delta
    for _ in range(c - 1):  # table[q, s1 .. sj] = state after reading s1 .. sj
        table = a.delta[table.reshape(n_states, -1)]
    # (first column, columns, flat table indexed by state * S**span + symbols)
    spans = [(col, 1, a.delta.ravel()) for col in range(width % c)]
    spans += [(col, c, table.ravel()) for col in range(width % c, width, c)]
    out = np.empty(n, dtype=a.outputs.dtype)
    size = min(n, RUN_BLOCK)
    idx, neg, tmp = (np.empty(size, dtype=rdtype) for _ in range(3))
    pos, low, code = (np.empty(size, dtype=np.int64) for _ in range(3))
    for lo in range(0, n, RUN_BLOCK):
        rems = [x[lo : lo + RUN_BLOCK].astype(rdtype) for x in arrs]
        m = rems[0].size
        idx, neg, tmp, pos, low, code = (b[:m] for b in (idx, neg, tmp, pos, low, code))
        state = np.full(m, a.initial, dtype=np.int32)
        for col0, span, flat in spans:
            n_low = col0 + span - max(col0, n_high)  # columns read from the codes
            if n_low < span:
                idx[:] = state
                for col in range(col0, min(col0 + span, n_high)):
                    f = numeration.fib(width + 1 - col)
                    for r in rems:
                        # neg = -1 where r >= f (digit 1), else 0: the sign of f-1-r
                        np.subtract(f - 1, r, out=neg)
                        np.right_shift(neg, sign, out=neg)
                        np.bitwise_and(neg, f, out=tmp)  # masked subtract of f
                        np.subtract(r, tmp, out=r)
                        np.left_shift(idx, 1, out=idx)  # append the digit bit
                        np.subtract(idx, neg, out=idx)
                pos[:] = idx
            if n_low > 0:
                if col0 <= n_high:  # the first code column: every remainder is read
                    code[:] = 0
                    for i, r in enumerate(rems):
                        low[:] = r
                        np.left_shift(codes.take(low), k - 1 - i, out=low)
                        np.bitwise_or(code, low, out=code)
                # the symbols of columns col0+span-n_low .. col0+span-1
                np.right_shift(code, (width - col0 - span) * k, out=low)
                np.bitwise_and(low, (1 << (k * n_low)) - 1, out=low)
                np.left_shift(pos if n_low < span else state, k * n_low, out=pos)
                np.bitwise_or(pos, low, out=pos)
            state = flat.take(pos)  # flat[state * S**span + symbols]
        out[lo : lo + m] = a.outputs[state]
    return out


# -- products and boolean algebra ---------------------------------------


def product(a: Automaton, b: Automaton, out_fn) -> Automaton:
    """Reachable product automaton; outputs = out_fn(out_a, out_b) (vectorized)."""
    if a.arity != b.arity:
        raise ArityError(f"arity mismatch: {a.arity} vs {b.arity}")
    nb = b.n_states
    # pair (x, y) has key x * nb + y; rows_a holds x * nb already
    rows_a, rows_b = (a.delta.astype(np.int64) * nb).tolist(), b.delta.tolist()
    key0 = a.initial * nb + b.initial
    index = {key0: 0}
    keys = [key0]
    flat = []
    get, push, emit = index.get, keys.append, flat.append
    for key in keys:  # keys grows while it is read: a queue, symbols ascending
        x, y = divmod(key, nb)
        for k in map(operator.add, rows_a[x], rows_b[y]):
            t = get(k)
            if t is None:
                t = index[k] = len(keys)
                push(k)
            emit(t)
    keys = np.array(keys, dtype=np.int64)
    delta = np.array(flat, dtype=np.int32).reshape(keys.size, a.n_symbols)
    outputs = out_fn(a.outputs[keys // nb], b.outputs[keys % nb])
    return Automaton(a.arity, delta, outputs, 0, a.zero_normalized and b.zero_normalized)


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
    rows = delta.tolist()
    seen = bytearray(len(rows))
    seen[initial] = 1
    order = [initial]
    for q in order:  # order grows while it is read: a queue
        for r in rows[q]:
            if not seen[r]:
                seen[r] = 1
                order.append(r)
    return np.array(order, dtype=np.int32)


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


def _row_partition(rows: list, outs: list) -> list:
    """_moore_partition on Python rows: each round numbers the exact
    signature tuples (own class, class of each successor) with a dict."""
    ids, k = outs, len(set(outs))
    while True:
        sigs: dict[tuple, int] = {}
        get = ids.__getitem__
        ids = [sigs.setdefault((c, *map(get, row)), len(sigs)) for c, row in zip(ids, rows)]
        if len(sigs) == k:
            return ids
        k = len(sigs)


def minimize(a: Automaton) -> Automaton:
    """Canonical minimal complete automaton (BFS numbering, symbol order).
    The BFS over the quotient drops the classes no path reaches.  An
    automaton of fewer than _ROW_CELLS cells is refined and quotiented on
    Python rows, a larger one by numpy rounds; both give the same arrays."""
    if a.delta.size < _ROW_CELLS:
        rows, outs = a.delta.tolist(), a.outputs.tolist()
        ids = _row_partition(rows, outs)
        rep = {c: q for q, c in enumerate(ids)}  # any member: a class shares its row
        start = ids[a.initial]
        index, order, flat = {start: 0}, [start], []
        for c in order:  # order grows while it is read: a queue, symbols ascending
            for t in rows[rep[c]]:
                d = ids[t]
                i = index.get(d)
                if i is None:
                    i = index[d] = len(order)
                    order.append(d)
                flat.append(i)
        delta = np.array(flat, dtype=np.int32).reshape(len(order), a.n_symbols)
        outputs = [outs[rep[c]] for c in order]
        return Automaton(a.arity, delta, outputs, 0, zero_normalized=a.zero_normalized)
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
    all-zero symbols.  When the start state loops on the zero symbol the
    language already is, and the result is minimize's: the subset
    construction would only rebuild the same canonical automaton.
    """
    _require_boolean(a)
    if a.delta[a.initial, 0] == a.initial:
        return minimize(Automaton(a.arity, a.delta, a.outputs, a.initial, zero_normalized=True))
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
    mask = parts[0][0]
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
    otherwise (empty word: '').  Each length is read depth first, in symbol
    order, only through states that can still finish in time, so the cost
    grows with the length and the number of words asked for.
    """
    _require_boolean(a)
    ends = [a.outputs == 1]  # ends[r]: the states that accept a word of length r

    def words(state, r):
        """The words of length r that take state to acceptance, in symbol order."""
        if not r:
            return [[]]
        row = a.delta[state]
        live = np.flatnonzero(ends[r - 1][row]).tolist()
        return ([s] + w for s in live for w in words(int(row[s]), r - 1))

    out: list[list] = []
    while len(out) < limit and len(ends) <= 65:
        if ends[-1][a.initial]:
            out += islice(words(a.initial, len(ends) - 1), limit - len(out))
        ends.append(ends[-1][a.delta].any(axis=1))
    if a.arity == 1:
        return ["".join(map(str, w)) for w in out]
    return [_word_text(w, a.arity) for w in out]


def _word_text(symbols, arity) -> str:
    """Each symbol as [b1,...,bk], track 0 first: the one spelling of store
    files, DOT labels and reported words."""
    return "".join(
        "[" + ",".join(str((s >> (arity - 1 - i)) & 1) for i in range(arity)) + "]"
        for s in symbols
    )


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
    m = minimize(Automaton(p.arity, delta, outkey, p.initial))
    return m.n_states - int(sink_key in m.outputs)


# -- regular expressions ---------------------------------------------------


class RegexError(AutomatonError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _RegexParser:
    """Position automaton of a pattern over symbols [b1,...,bk] (bare 0/1
    when k = 1): alternations of concatenations of starred/plused/optional
    atoms, atoms being symbols and '()' groups; empty branches denote the
    empty word.  Position p >= 1 is the p-th symbol of the text.  Each rule
    returns (nullable, first, last) of the text it read and adds to
    follow[p] the positions that can come right after p.
    """

    def __init__(self, text: str, arity: int):
        self.text = text
        self.arity = arity
        self.pos = 0
        self.symbols = [None]  # symbol index of each position
        self.follow = [set()]  # follow[0]: the first positions of the text

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else None

    def parse(self):
        nullable, first, last = self._alt()
        if self.peek() is not None:
            raise RegexError(f"unexpected {self.text[self.pos]!r}", self.pos)
        self.follow[0] = first
        return nullable, last

    def _alt(self):
        nullable, first, last = self._concat()
        while self.peek() == "|":
            self.pos += 1
            n2, f2, l2 = self._concat()
            nullable, first, last = nullable or n2, first | f2, last | l2
        return nullable, first, last

    def _concat(self):
        nullable, first, last = True, set(), set()
        while self.peek() not in (None, "|", ")"):
            n2, f2, l2 = self._repeat()
            for p in last:
                self.follow[p] |= f2
            first = first | f2 if nullable else first
            last = last | l2 if n2 else l2
            nullable = nullable and n2
        return nullable, first, last

    def _repeat(self):
        nullable, first, last = self._atom()
        while self.peek() in ("*", "+", "?"):
            op = self.text[self.pos]
            self.pos += 1
            if op != "?":  # the text may repeat: its last positions lead to its first
                for p in last:
                    self.follow[p] |= first
            nullable = nullable or op != "+"
        return nullable, first, last

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
        elif c in ("0", "1") and self.arity == 1:
            self.pos += 1
            idx = int(c)
        else:
            raise RegexError(f"unexpected {c!r}", self.pos)
        p = len(self.symbols)
        self.symbols.append(idx)
        self.follow.append(set())
        return False, {p}, {p}


def regex_compile(pattern: str, arity: int) -> Automaton:
    """Minimal DFA of the exact pattern language (no implicit padding): the
    subset construction of its position automaton, whose state 0 is the
    start and state p the p-th symbol."""
    if not 0 <= arity <= MAX_ARITY:  # before 2**arity successor lists are built
        raise ArityError(f"arity {arity} out of range 0..{MAX_ARITY}")
    parser = _RegexParser(pattern, arity)
    nullable, last = parser.parse()
    succ = [[()] * len(parser.follow) for _ in range(1 << arity)]
    for q, nxt in enumerate(parser.follow):
        for p in sorted(nxt):
            succ[parser.symbols[p]][q] += (p,)
    rows, outs, _ = _subsets([[0]], succ, (last | {0}) if nullable else last)
    return minimize(Automaton(arity, rows, outs))


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
    syms = [_word_text([s], a.arity) for s in range(a.n_symbols)]
    for q, row in enumerate(a.delta.tolist()):
        lines.extend(f"trans {q} {sym} {t}" for sym, t in zip(syms, row))
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> Automaton:
    header: dict[str, int] = {}  # arity, states, initial: one line each
    accepting: tuple[int, set[int]] | None = None  # (line, states)
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
            elif parts[0] in ("arity", "states", "initial"):
                if parts[0] in header:
                    raise ValueError(f"second {parts[0]} line")
                header[parts[0]] = int(parts[1])
            elif parts[0] == "accepting":
                if accepting is not None or outputs:
                    raise ValueError("accepting cannot follow an accepting or output line")
                accepting = (lineno, {int(p) for p in parts[1:]})
            elif parts[0] == "output":
                if accepting is not None or int(parts[1]) in outputs:
                    raise ValueError("output cannot follow an accepting line or repeat a state")
                outputs[int(parts[1])] = int(parts[2])
            elif parts[0] == "trans":
                if len(parts) != 4:
                    raise ValueError("trans needs: state symbol state")
                trans.append((int(parts[1]), parts[2], int(parts[3]), lineno))
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except (ValueError, IndexError) as exc:
            raise AutomatonError(f"line {lineno}: {exc}") from None
    if "arity" not in header or "states" not in header:
        raise AutomatonError("missing arity/states header")
    arity, n, initial = header["arity"], header["states"], header.get("initial", 0)
    if not (0 <= arity <= MAX_ARITY and n >= 1):
        raise AutomatonError(f"arity {arity} or states {n} out of range")
    if accepting is not None and not all(0 <= q < n for q in accepting[1]):
        raise AutomatonError(f"line {accepting[0]}: accepting state out of range")
    # checked before the table is allocated; since no transition repeats,
    # the trans lines then fill every cell
    if n << arity > len(trans):
        raise AutomatonError(f"{n} states need {n << arity} trans lines, found {len(trans)}")
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
        if delta[q, syms[0]] >= 0:
            raise AutomatonError(f"line {lineno}: second transition for state {q} on {symtext}")
        delta[q, syms[0]] = t
    if accepting is not None:
        outs = np.array([1 if q in accepting[1] else 0 for q in range(n)], dtype=np.int32)
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
    labels = [_word_text([s], a.arity) for s in range(a.n_symbols)]
    for q, row in enumerate(a.delta.tolist()):
        lines.extend(f'  q{q} -> q{t} [label="{label}"];' for label, t in zip(labels, row))
    lines.append("}")
    return "\n".join(lines) + "\n"
