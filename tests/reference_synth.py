"""Learner paths that the package replaced, kept as differential references:
the observation table's per-state compatibility loop over a list of
signatures, the per-bit description of suffix words, and the closure that
computed one signature per successor right before looking it up.  Not used
by the package."""

import numpy as np

from fibdecide import numeration as nu
from fibdecide.automata import Automaton
from fibdecide.synth import UNKNOWN


def _compatible(a, b):
    return not bool(np.any((a != b) & (a != UNKNOWN) & (b != UNKNOWN)))


def _join(a, b):
    return np.where(a == UNKNOWN, b, a).astype(np.uint8)


class ListTable:
    """Stored signatures as a list, tested one state at a time."""

    def __init__(self):
        self.sigs = []
        self._exact = {}

    def lookup(self, sig):
        hit = self._exact.get(sig.tobytes())
        if hit is not None:
            return hit
        for i, existing in enumerate(self.sigs):
            if _compatible(existing, sig):
                joined = _join(existing, sig)
                if not np.array_equal(joined, existing):
                    del self._exact[existing.tobytes()]
                    self.sigs[i] = joined
                    self._exact[joined.tobytes()] = i
                return i
        return None

    def add(self, sig):
        self.sigs.append(sig)
        self._exact[sig.tobytes()] = len(self.sigs) - 1
        return len(self.sigs) - 1


def suffix_descriptors(words):
    """(f2, f1, values, valid, first) of each word, bit by bit; track 0 is
    the high bit of a symbol."""
    f2 = [nu.fib(len(w) + 2) for w in words]
    f1 = [nu.fib(len(w) + 1) for w in words]
    values, valid, first = [], [], []
    for shift in (1, 0):
        vals, ok, lead = [], [], []
        for w in words:
            bits = [(s >> shift) & 1 for s in w]
            vals.append(sum(nu.fib(len(bits) - pos + 1) for pos, b in enumerate(bits) if b))
            ok.append(not any(a and b for a, b in zip(bits, bits[1:])))
            lead.append(bool(bits) and bits[0] == 1)
        values.append(vals)
        valid.append(ok)
        first.append(lead)
    return f2, f1, values, valid, first


def pair_signature(src, st):
    """One signature row of a synth._PairSource, computed on its own."""
    p0, q0, p1, q1, l0, l1, ok, _ = st
    sfx = src.sfx
    if not ok:
        return np.zeros(sfx.count, dtype=np.uint8)
    vmask = sfx.valid[0] & sfx.valid[1]
    if l0:
        vmask = vmask & ~sfx.first[0]
    if l1:
        vmask = vmask & ~sfx.first[1]
    n = p0 * sfx.f2 + q0 * sfx.f1 + sfx.values[0]
    x = p1 * sfx.f2 + q1 * sfx.f1 + sfx.values[1]
    if src.batch is not None:
        want = src.batch(n[vmask])
        sig = np.zeros(sfx.count, dtype=np.uint8)
        sig[vmask] = (want == x[vmask]).astype(np.uint8)
        return sig
    known = n < src.n_known
    hit = np.zeros(sfx.count, dtype=bool)
    idx = known & vmask
    hit[idx] = src.table[n[idx]] == x[idx]
    return np.where(~vmask, 0, np.where(known, hit.astype(np.uint8), UNKNOWN)).astype(np.uint8)


def per_state_hypothesis(table, signature):
    """Close an empty synth.ObservationTable state by state: each successor's
    signature is computed right before its lookup."""
    src = table.source
    init = src.init()
    table._add(signature(src, init), init, 0)
    rows = []
    qi = 0
    while qi < len(table.reps):
        row = []
        for sym in range(src.n_symbols):
            nxt = src.step(table.reps[qi], sym)
            sig = signature(src, nxt)
            target = table._lookup(sig)
            if target is None:
                target = table._add(sig, nxt, table.depths[qi] + 1)
            row.append(target)
        rows.append(row)
        qi += 1
    outputs = (table.sigs[:, 0] == 1).astype(np.int32)
    return Automaton(src.arity, np.array(rows, dtype=np.int32), outputs, 0)
