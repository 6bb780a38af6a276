"""The recursive Carlitz constant that `linrep.carlitz_C` replaced, kept as
a differential reference.  Not used by the package."""

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
