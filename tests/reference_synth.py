"""Learner paths that the package replaced, kept as differential references:
the observation table's per-state compatibility loop over a list of
signatures, and the per-bit description of suffix words.  Not used by the
package."""

import numpy as np

from fibdecide import numeration as nu
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
