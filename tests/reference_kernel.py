"""Kernel paths that the package replaced, kept as differential references:
the Zeckendorf digit matrix that batch membership used to read, the
two-pass projection (a subset construction from the pad closure of the
start, then a second one that zero-normalizes its result), the BFS
that numbered reachable states one layer at a time and the product that
was built the same way.  Not used by the package."""

import numpy as np

from fibdecide import automata as au
from fibdecide import numeration as nu


def digit_matrix(ns, width=None):
    """Zeckendorf digits of an integer array, msd first, one row per value."""
    ns = np.ascontiguousarray(ns, dtype=np.int64)
    hi = int(ns.max()) if ns.size else 0
    k = 2
    while nu.fib(k + 1) <= hi:
        k += 1
    need = k - 1  # digits for weights F(k) .. F(2)
    if width is None:
        width = need
    elif width < need:
        raise ValueError(f"width {width} too small for values up to {hi}")
    out = np.zeros((ns.size, width), dtype=np.uint8)
    rem = ns.copy()
    for col in range(width):
        f = nu.fib(width + 1 - col)
        take = rem >= f
        out[:, col] = take
        rem -= take * f
    return out


def zero_normalize(a):
    """A fresh start state consumes the zero prefix; the first non-zero
    symbol enters the subset construction seeded from the zero-closure of
    the original initial state."""
    closure = []
    seen = set()
    q = a.initial
    while q not in seen:
        seen.add(q)
        closure.append(q)
        q = int(a.delta[q, 0])
    closure_arr = np.array(sorted(set(closure)), dtype=np.int32)
    acc = a.outputs == 1
    S = a.n_symbols
    start_out = 1 if bool(acc[closure_arr].any()) else 0
    if S == 1:
        return au.Automaton(a.arity, np.zeros((1, 1), dtype=np.int32), [start_out], 0, True)
    seeds = [a.delta[closure_arr, s].tolist() for s in range(1, S)]
    succ = [[(t,) for t in col] for col in a.delta.T.tolist()]
    rows, outs, seed_ids = au._subsets(seeds, succ, set(np.flatnonzero(acc).tolist()))
    delta = np.empty((rows.shape[0] + 1, S), dtype=np.int32)
    delta[0, 0] = 0
    for s in range(1, S):
        delta[0, s] = seed_ids[s - 1] + 1
    delta[1:, :] = rows + 1
    out = au.minimize(au.Automaton(a.arity, delta, np.append(start_out, outs), 0))
    return au.Automaton(out.arity, out.delta, out.outputs, out.initial, zero_normalized=True)


def project(a, track):
    """Subset construction from the pad closure of the start (symbols zero
    on every kept track), then zero_normalize of that DFA."""
    i0, i1 = au._insert_bit_tables(a.arity, track)
    t0 = a.delta[:, i0]
    t1 = a.delta[:, i1]
    closure = set()
    frontier = {a.initial}
    while frontier:
        closure |= frontier
        nxt = set()
        for q in frontier:
            nxt.add(int(a.delta[q, 0]))
            nxt.add(int(a.delta[q, 1 << (a.arity - 1 - track)]))
        frontier = nxt - closure
    acc = a.outputs == 1
    keep = au._coreachable(a.delta, acc)
    seed = [q for q in closure if keep[q]]
    if not seed:
        S = 1 << (a.arity - 1)
        return au.Automaton(a.arity - 1, np.zeros((1, S), dtype=np.int32), [0], 0, True)
    lo, hi = np.minimum(t0, t1).T, np.maximum(t0, t1).T
    klo, khi = keep[lo], keep[hi] & (hi != lo)
    succ = [
        [(x, y) if kx and ky else (x,) if kx else (y,) if ky else () for x, y, kx, ky in zip(*c)]
        for c in zip(lo.tolist(), hi.tolist(), klo.tolist(), khi.tolist())
    ]
    rows, outs, _ = au._subsets([seed], succ, set(np.flatnonzero(acc).tolist()))
    return zero_normalize(au.Automaton(a.arity - 1, rows, outs))


def reachable_order(delta, initial):
    """States reachable from initial, in BFS discovery order (symbols
    ascending), one np.unique pass per BFS layer."""
    seen = np.zeros(delta.shape[0], dtype=bool)
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


def product(a, b, out_fn):
    """Reachable product, one numpy pass per BFS layer: the pair keys
    x * nb + y of a layer's successors are numbered by first occurrence,
    then remapped to dense ids through a sorted copy of all keys."""
    if a.arity != b.arity:
        raise au.ArityError(f"arity mismatch: {a.arity} vs {b.arity}")
    nb = b.n_states
    key0 = np.int64(a.initial) * nb + b.initial
    index = {int(key0): 0}
    order = [int(key0)]
    frontier = np.array([key0], dtype=np.int64)
    rows = []
    while frontier.size:
        ia = (frontier // nb).astype(np.int32)
        ib = (frontier % nb).astype(np.int32)
        succ = a.delta[ia].astype(np.int64) * nb + b.delta[ib]
        rows.append(succ)
        uniq, first = np.unique(succ.ravel(), return_index=True)
        fresh = [int(k) for k in uniq[np.argsort(first)] if int(k) not in index]
        for k in fresh:
            index[k] = len(order)
            order.append(k)
        frontier = np.array(fresh, dtype=np.int64)
    keys = np.array(order, dtype=np.int64)
    succ_all = np.vstack(rows)
    sorter = np.argsort(keys)
    pos = np.searchsorted(keys[sorter], succ_all.ravel())
    delta = sorter[pos].astype(np.int32).reshape(succ_all.shape)
    out_a = a.outputs[(keys // nb).astype(np.int32)]
    out_b = b.outputs[(keys % nb).astype(np.int32)]
    outputs = np.asarray(out_fn(out_a, out_b), dtype=np.int32)
    return au.Automaton(
        a.arity, delta, outputs, 0, zero_normalized=a.zero_normalized and b.zero_normalized
    )
