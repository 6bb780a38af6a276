"""Integer linear representations and zero-equivalence.

A linear representation is a triple (L, per-letter matrices, R) whose value
on a word is L * M(w_1) * ... * M(w_t) * R.  Two uses here:

* counting representations extracted from synchronized relations, which
  turn "how often does value v occur" into a word function of encode(v)
  and make the permutation test a decidable zero-equivalence question;
* the closed-form compositional constant machinery, where the per-letter
  matrices realize a recursion over two function symbols.

The zero test closes the row space {L * M(w)} breadth first by fraction-free
integer elimination (no floats: zero versus tiny) up to its first nonzero word.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from math import gcd, lcm
from operator import mul

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

# a representation keeps at most this many prefix rows for evaluate, and
# empties its memo when it is full
PREFIX_NODES = 4096


@dataclass(frozen=True)
class LinRep:
    left: tuple
    mats: dict  # letter -> tuple of row tuples
    right: tuple
    # letter -> per row i, the nonzero entries (j, M[i][j]); set at construction
    _sparse: dict = field(init=False, repr=False, compare=False)
    # evaluate's trie of prefixes read so far: letter -> (the row
    # L * M(prefix + letter) as a tuple, that node's children), under the
    # root key "trie", with its node count under "nodes"
    _prefixes: dict = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_prefixes", {"trie": {}, "nodes": 0})

    def step(self, vec, letter) -> list:
        """The row vector vec * M(letter), exact for ints and Fractions alike."""
        out = [0] * len(vec)
        for v, row in zip(vec, self._sparse[letter]):
            if v:
                for j, c in row:
                    out[j] += v * c
        return out


def evaluate(lr: LinRep, word) -> int:
    """Fold the matrix product along the word (letters index lr.mats).

    The rows of prefixes already read are kept in lr's trie, so a word
    costs one lookup per letter of a known prefix and one step per new
    letter.  A full trie (PREFIX_NODES rows) is emptied and grown again.
    """
    memo = lr._prefixes
    vec, children = lr.left, memo["trie"]
    for letter in word:
        node = children.get(letter)
        if node is None:
            row = tuple(lr.step(vec, letter))
            if memo["nodes"] >= PREFIX_NODES:
                # the rest of this word grows a detached branch, freed on return
                memo["trie"], memo["nodes"] = {}, 0
            node = children[letter] = (row, {})
            memo["nodes"] += 1
        vec, children = node
    return sum(map(mul, vec, lr.right))


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


def _exact(rows) -> list:
    """The rows as Python ints times the lcm of all their denominators: numpy
    integers through int(), Fractions exactly.  A nonzero scale keeps zeroness."""
    ratios = [[getattr(x, "as_integer_ratio", lambda: (int(x), 1))() for x in r] for r in rows]
    scale = lcm(*(q for r in ratios for _, q in r))
    return [[p * (scale // q) for p, q in r] for r in ratios]


def _reduce(vec, basis):
    """Reduce against an echelon basis [(pivot_index, row)], fraction-free:
    v <- row[p] * v - v[p] * row, then divided by the gcd of its entries."""
    for pivot, row in basis:
        if vec[pivot]:
            c, p = vec[pivot], row[pivot]
            vec = [p * a - c * b for a, b in zip(vec, row)]
    g = gcd(*vec)
    return [a // g for a in vec] if g > 1 else vec


def _closure(lr: LinRep):
    """Breadth-first row-space closure of {L * M(w)} over Python ints; yields
    each (word, L * M(word)) basis entry as soon as it is found."""
    basis, queue = [], deque([("", list(lr.left))])
    while queue:
        word, vec = queue.popleft()
        red = _reduce(vec, basis)
        pivot = next((i for i, x in enumerate(red) if x), None)
        if pivot is None:
            continue
        basis.append((pivot, red))
        yield word, vec
        for letter in lr.alphabet:
            queue.append((word + str(letter), lr.step(vec, letter)))


def zero_witness(lr: LinRep):
    """A shortest word with nonzero value, or None when the representation is zero:
    the basis words up to each length span the rows of all words up to it, so
    the first nonzero basis word (breadth first) is a shortest nonzero word."""
    nonzero = (c for rows in lr._sparse.values() for row in rows for _, c in row)
    if not all(type(x) is int for x in chain(lr.left, lr.right, nonzero)):
        (left,), (right,) = _exact([lr.left]), _exact([lr.right])
        lr = LinRep(left, {letter: _exact(m) for letter, m in lr.mats.items()}, right)
    for word, vec in _closure(lr):
        if sum(map(mul, vec, lr.right)):
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

    certificate = [synth.function_certificate("fn")]
    for name, rel in (("first", rel_a), ("second", rel_b)):
        verdict = synth.run_certificates(rel, certificate, catalog)
        if not verdict:
            raise ValueError(
                f"{name} relation is not a certified function: fails {verdict.failure}"
            )
    diff = subtract(counting_linrep(rel_a), counting_linrep(rel_b))
    return is_zero(diff)


def check_distinct_transform(rel_s: Automaton, rel_sp: Automaton, catalog):
    """Decide whether rel_sp computes the distinctness transform of rel_s.

    Three first-order conditions: same range, injectivity of the
    transform, and preservation of first-occurrence order.  They run as
    one certificate over $cand = rel_sp with srel = rel_s in the catalog,
    so the first FALSE one ends it.  Returns (ok, failed_condition_names).
    """
    from . import synth

    certificate = synth.query_certificate("distinct", [
        ("range", "Ax (Em $srel(m,x)) <=> (En $cand(n,x))"),
        ("injective", "~En1,n2,x n1!=n2 & $cand(n1,x) & $cand(n2,x)"),
        ("order", "Ax,y,i,j ($first_occ_s(x,i) & $first_occ_s(y,j) & i<j)"
                  " => Em,n $cand(m,x) & $cand(n,y) & m<n"),
    ], 'def first_occ_s "$srel(y,n) & Ax (x<y) => ~$srel(x,n)":')
    failed = synth.run_certificates(rel_sp, [certificate], dict(catalog, srel=rel_s)).failures
    return (not failed, failed)


# -- compositional constants -------------------------------------------------------


def carlitz_C(u: str) -> int:
    """Recursive constant over words in {b, d}.

    C(b) = 0 and C(d) = 1; for longer words with i letters b and j letters
    d (counted over the whole current word), C(vb) = F(i+2j-1) + C(v) and
    C(vd) = F(i+2j-1) - C(v).  Computed in one pass from the left, carrying
    the weight i + 2j of the prefix read so far.
    """
    if not u or u.strip("bd"):
        raise ValueError("need a nonempty word over {b, d}")
    c, weight = (0, 1) if u[0] == "b" else (1, 2)
    for ch in u[1:]:
        if ch == "b":
            weight += 1
            c = nu.fib(weight - 1) + c
        else:
            weight += 2
            c = nu.fib(weight - 1) - c
    return c


def carlitz_linrep() -> LinRep:
    """Exact 3-dimensional representation of the same constant."""
    left = (0, 0, 1)
    mats = {
        "b": ((0, 1, 0), (1, 1, 0), (0, 1, 1)),
        "d": ((0, 0, 1), (0, 1, 1), (1, 2, 1)),
    }
    right = (1, 0, 0)
    return LinRep(left, mats, right)
