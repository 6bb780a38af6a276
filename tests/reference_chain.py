"""The relation chain that `arith.linear` replaced, kept as a differential
reference: constants, iterated-addition multiplication and a 4-track
division, each built from `arith.eq` and `arith.add` by products and
projections.  Not used by the package."""

from functools import lru_cache

import numpy as np

from fibdecide import arith
from fibdecide import automata as au
from fibdecide import numeration as nu


def _finish(a):
    return au.zero_normalize(au.minimize(a))


@lru_cache(maxsize=None)
def const(c):
    """Arity-1 automaton accepting exactly 0* encode(c)."""
    digits = nu.encode(c)
    t = len(digits)
    # state i = matched first i digits; state 0 loops on 0; t+1 = dead
    dead = t + 1
    delta = np.full((t + 2, 2), dead, dtype=np.int32)
    delta[0, 0] = 0
    for i, d in enumerate(digits):
        delta[i, int(d)] = i + 1
    if t > 0:
        delta[t, 0] = dead
    outputs = np.zeros(t + 2, dtype=np.int32)
    outputs[t] = 1
    return au.minimize(au.Automaton(1, delta, outputs, 0, zero_normalized=True))


@lru_cache(maxsize=None)
def leq_const(c):
    """Arity-1 automaton for the finite set {0, ..., c}."""
    aut = const(0)
    for i in range(1, c + 1):
        aut = au.union(aut, const(i))
    return _finish(aut)


@lru_cache(maxsize=None)
def const_mul(c):
    """Pairs (n, z) with z = c * n; for c = 0, every valid n with z = 0."""
    if c == 0:
        return _finish(au.intersect(au.cylindrify(const(0), [1], 2), arith.valid_tracks(2)))
    rel = arith.eq()
    for _ in range(c - 1):
        # tracks (n, u, z): rel(n, u) and add(u, n, z); project u
        left = au.cylindrify(rel, [0, 1], 3)
        plus = au.cylindrify(arith.add(), [1, 0, 2], 3)
        rel = au.project(au.minimize(au.intersect(left, plus)), 1)
    return rel


@lru_cache(maxsize=None)
def const_div(c):
    """Pairs (n, z) with z = floor(n / c): c*z <= n < c*(z + 1)."""
    # tracks (n, r, u, z): u = c*z, u + r = n, r <= c - 1
    mul = au.cylindrify(const_mul(c), [3, 2], 4)
    plus = au.cylindrify(arith.add(), [2, 1, 0], 4)
    rem = au.cylindrify(leq_const(c - 1), [1], 4)
    rel = au.minimize(au.intersect(au.minimize(au.intersect(mul, plus)), rem))
    rel = au.project(rel, 2)  # drop u -> (n, r, z)
    return au.project(rel, 1)  # drop r -> (n, z)
