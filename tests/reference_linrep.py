"""The recursive Carlitz constant that `linrep.carlitz_C` replaced and the
rational zero test that `linrep.zero_witness` replaced, kept as
differential references.  Not used by the package."""

from fractions import Fraction

from fibdecide import numeration as nu


def carlitz_C(u: str) -> int:
    """C(b) = 0 and C(d) = 1; with i letters b and j letters d in the whole
    word, C(vb) = F(i+2j-1) + C(v) and C(vd) = F(i+2j-1) - C(v)."""
    if not u or any(ch not in "bd" for ch in u):
        raise ValueError("need a nonempty word over {b, d}")
    if u == "b":
        return 0
    if u == "d":
        return 1
    i = u.count("b")
    j = u.count("d")
    v, last = u[:-1], u[-1]
    if last == "b":
        return nu.fib(i + 2 * j - 1) + carlitz_C(v)
    return nu.fib(i + 2 * j - 1) - carlitz_C(v)


# The rational zero test that the fraction-free one in `linrep` replaced:
# it builds the whole row-space closure before it reads a single value.


def _reduce(vec, basis):
    """Reduce against an echelon basis [(pivot_index, row)]; exact rationals."""
    v = [Fraction(x) for x in vec]
    for pivot, row in basis:
        if v[pivot]:
            c = v[pivot] / row[pivot]
            v = [a - c * b for a, b in zip(v, row)]
    return v


def _closure(lr):
    """Row-space closure of {L * M(w)}; yields (word, vector) basis entries."""
    basis = []  # (pivot index, reduced row)
    entries = []  # (word, original vector) aligned with basis order
    queue = [("", [Fraction(x) for x in lr.left])]
    while queue:
        word, vec = queue.pop(0)
        red = _reduce(vec, basis)
        pivot = next((i for i, x in enumerate(red) if x), None)
        if pivot is None:
            continue
        basis.append((pivot, red))
        entries.append((word, vec))
        for letter in lr.alphabet:
            queue.append((word + str(letter), lr.step(vec, letter)))
    return entries


def zero_witness(lr):
    """The first basis word with a nonzero value, or None."""
    for word, vec in _closure(lr):
        if sum(v * r for v, r in zip(vec, lr.right)):
            return word
    return None
