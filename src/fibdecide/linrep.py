"""Integer linear representations and zero-equivalence.

A linear representation is a triple (L, per-letter matrices, R) whose value
on a word is L * M(w_1) * ... * M(w_t) * R.  Two uses here:

* counting representations extracted from synchronized relations, which
  turn "how often does value v occur" into a word function of encode(v)
  and make the permutation test a decidable zero-equivalence question;
* the closed-form compositional constant machinery, where the per-letter
  matrices realize a recursion over two function symbols.

The zero test runs the row-space closure {L * M(w)} with exact rational
row reduction; no floats anywhere, the whole point being zero versus tiny.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import automata as au
from . import numeration as nu
from .automata import Automaton

__all__ = [
    "LinRep",
    "counting_linrep",
    "evaluate",
    "subtract",
    "is_zero",
    "zero_witness",
    "carlitz_C",
    "carlitz_linrep",
    "check_permutation",
    "check_distinct_transform",
]


@dataclass(frozen=True)
class LinRep:
    left: tuple
    mats: dict  # letter -> tuple of row tuples
    right: tuple
    # letter -> per row i, the nonzero entries (j, M[i][j]); set at construction
    _sparse: dict = field(init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.left)

    @property
    def alphabet(self):
        return tuple(sorted(self.mats))

    def __post_init__(self):
        r = len(self.left)
        for letter, m in self.mats.items():
            if len(m) != r or any(len(row) != r for row in m):
                raise ValueError(f"matrix for {letter!r} is not {r}x{r}")
        if len(self.right) != r:
            raise ValueError("right vector has wrong dimension")
        sparse = {
            letter: tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in m)
            for letter, m in self.mats.items()
        }
        object.__setattr__(self, "_sparse", sparse)

    def step(self, vec, letter) -> list:
        """The row vector vec * M(letter), exact for ints and Fractions alike."""
        out = [0] * len(vec)
        for v, row in zip(vec, self._sparse[letter]):
            if v:
                for j, c in row:
                    out[j] += v * c
        return out


def evaluate(lr: LinRep, word) -> int:
    """Fold the matrix product along the word (letters index lr.mats)."""
    vec = lr.left
    for letter in word:
        vec = lr.step(vec, letter)
    return sum(v * rv for v, rv in zip(vec, lr.right))


def subtract(a: LinRep, b: LinRep) -> LinRep:
    """Block direct sum computing value_a - value_b on every word."""
    if a.alphabet != b.alphabet:
        raise ValueError(f"alphabet mismatch: {a.alphabet} vs {b.alphabet}")
    ra, rb = a.dim, b.dim
    left = tuple(a.left) + tuple(-x for x in b.left)
    mats = {}
    for letter in a.alphabet:
        ma, mb = a.mats[letter], b.mats[letter]
        rows = []
        for i in range(ra):
            rows.append(tuple(ma[i]) + (0,) * rb)
        for i in range(rb):
            rows.append((0,) * ra + tuple(mb[i]))
        mats[letter] = tuple(rows)
    right = tuple(a.right) + tuple(b.right)
    return LinRep(left, mats, right)


def _reduce(vec, basis):
    """Reduce against an echelon basis [(pivot_index, row)]; exact rationals."""
    v = [Fraction(x) for x in vec]
    for pivot, row in basis:
        if v[pivot]:
            c = v[pivot] / row[pivot]
            v = [a - c * b for a, b in zip(v, row)]
    return v


def _closure(lr: LinRep):
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


def zero_witness(lr: LinRep):
    """A word with nonzero value, or None when the representation is zero.

    The reachable row space is spanned by at most dim vectors; the value on
    any word is a combination of basis values, so checking basis * R = 0
    decides zero-equivalence.
    """
    for word, vec in _closure(lr):
        val = sum(v * r for v, r in zip(vec, lr.right))
        if val:
            return word
    return None


def is_zero(lr: LinRep) -> bool:
    return zero_witness(lr) is None


# -- counting representations ---------------------------------------------------


def counting_linrep(rel: Automaton) -> LinRep:
    """Count accepted partners along the first track of a binary relation.

    States of `rel` index the coordinates; the matrix for reading digit d
    on the kept (second) track counts the transitions over the two digits
    of the counted (first) track; L and R are the initial/accepting
    indicators.  The value on a word w is then the number of counted-track
    strings of length |w| accepted together with w; since equal-length
    valid strings represent each number exactly once, evaluating on a
    padded encode(n) counts the n-occurrences.

    The returned L absorbs two leading zero digits (L * M0^2), which
    makes the value on encode(n) itself already the stable occurrence
    count: the padding widens the counted window beyond the largest
    possible partner, and extra explicit padding no longer changes the
    value.  This is also what makes differences of counting
    representations decide multiset equality; see check_permutation.
    """
    if rel.arity != 2:
        raise au.ArityError("counting_linrep needs a binary relation")
    n = rel.n_states
    mats = {}
    for d in (0, 1):
        m = [[0] * n for _ in range(n)]
        for e in (0, 1):
            sym = (e << 1) | d
            for q in range(n):
                m[q][int(rel.delta[q, sym])] += 1
        mats[d] = tuple(tuple(row) for row in m)
    left = [0] * n
    left[rel.initial] = 1
    right = tuple(1 if rel.outputs[q] == 1 else 0 for q in range(n))
    unpadded = LinRep(tuple(left), mats, right)
    for _ in range(2):
        left = unpadded.step(left, 0)
    return LinRep(tuple(left), mats, right)


def count_word(n: int) -> list:
    """Digit word of encode(n) as integer letters for counting LRs."""
    return [int(c) for c in nu.encode(n)]


def check_permutation(rel_a: Automaton, rel_b: Automaton, catalog) -> bool:
    """Decide whether two synchronized sequences are permutations of each other.

    Both relations must be certified total functions first (raises
    otherwise).  The occurrence counts of every value agree for the two
    sequences iff the difference of the counting representations is
    identically zero: on valid words both sides count occurrences of the
    decoded value (padding absorbed), and on invalid words both count
    zero.
    """
    from . import synth

    for name, rel in (("first", rel_a), ("second", rel_b)):
        verdict = synth.certify_function(rel, catalog)
        if not verdict.ok:
            raise ValueError(f"{name} relation is not a certified function")
    diff = subtract(counting_linrep(rel_a), counting_linrep(rel_b))
    return is_zero(diff)


_DISTINCT_SCRIPT = """
def first_occ_s "?msd_fib $srel(y,n) & Ax (x<y) => ~$srel(x,n)":
eval distinct_range "?msd_fib Ax (Em $srel(m,x)) <=> (En $sprime(n,x))":
eval distinct_injective "?msd_fib ~En1,n2,x n1!=n2 & $sprime(n1,x) & $sprime(n2,x)":
eval distinct_order "?msd_fib Ax,y,i,j ($first_occ_s(x,i) & $first_occ_s(y,j)
   & i<j) => Em,n $sprime(m,x) & $sprime(n,y) & m<n":
"""


def check_distinct_transform(rel_s: Automaton, rel_sp: Automaton, catalog):
    """Decide whether rel_sp computes the distinctness transform of rel_s.

    Three first-order conditions: same range, injectivity of the
    transform, and preservation of first-occurrence order.  Returns
    (ok, failed_condition_names).
    """
    from . import logic

    session = logic.Session(catalog)
    session.define_automaton("srel", rel_s)
    session.define_automaton("sprime", rel_sp)
    report = session.run_script(_DISTINCT_SCRIPT)
    failed = [name for name, good in report.evals if not good]
    return (not failed, failed)


# -- compositional constants -------------------------------------------------------


def carlitz_C(u: str) -> int:
    """Recursive constant over words in {b, d}.

    C(b) = 0 and C(d) = 1; for longer words with i letters b and j letters
    d (counted over the whole current word), C(vb) = F(i+2j-1) + C(v) and
    C(vd) = F(i+2j-1) - C(v).
    """
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


def carlitz_linrep() -> LinRep:
    """Exact 3-dimensional representation of the same constant."""
    left = (0, 0, 1)
    mats = {
        "b": ((0, 1, 0), (1, 1, 0), (0, 1, 1)),
        "d": ((0, 0, 1), (0, 1, 1), (1, 2, 1)),
    }
    right = (1, 0, 0)
    return LinRep(left, mats, right)
