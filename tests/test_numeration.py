import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibdecide import numeration as nu
from fibdecide import seqs


def test_fibonacci_values():
    assert nu.fib(0) == 0
    assert nu.fib(1) == 1
    assert nu.fib(9) == 34
    assert nu.fib(20) == 6765


def test_fib_checks_the_sign_before_reading_its_list():
    nu.fib(30)  # the cached list, which would wrap a negative index
    for k in (-1, -2):
        with pytest.raises(ValueError, match="^Fibonacci index must be >= 0$"):
            nu.fib(k)


def test_lucas_values():
    assert nu.lucas(0) == 2
    assert nu.lucas(1) == 1
    assert nu.lucas(7) == 29


def test_fib_bracket():
    for m in range(2, 5000):
        j = nu.fib_bracket(m)
        assert nu.fib(j) < m <= nu.fib(j + 1)
    j = nu.fib_bracket(10**40)
    assert nu.fib(j) < 10**40 <= nu.fib(j + 1)
    with pytest.raises(ValueError):
        nu.fib_bracket(1)


def test_encode_examples():
    assert nu.encode(43) == "10010001"
    assert nu.encode(0) == ""
    assert nu.encode(12) == "10101"


def test_decode_examples():
    assert nu.decode("10010001") == 43
    assert nu.decode("11") == 3  # validity not required
    assert nu.decode("") == 0


def test_decode_rejects_non_bits():
    with pytest.raises(ValueError):
        nu.decode("10x")


def test_isqrt_examples():
    assert nu.isqrt(0) == 0
    assert nu.isqrt(5) == 2
    assert nu.isqrt(500) == 22


def test_floor_phi_examples():
    assert nu.floor_phi(0) == 0
    assert nu.floor_phi(1) == 1
    assert nu.floor_phi(10) == 16
    assert nu.floor_phi2(0) == 0
    assert nu.floor_phi2(1) == 2
    assert nu.floor_phi2(10) == 26


def _greedy_encode(n):
    """Reference Zeckendorf encoder on its own Fibonacci list."""
    fibs = [1, 2]
    while fibs[-1] <= n:
        fibs.append(fibs[-1] + fibs[-2])
    digits = []
    for f in reversed(fibs[:-1]):
        take = f <= n
        digits.append("1" if take else "0")
        n -= f * take
    return "".join(digits).lstrip("0")


def test_encode_and_decode_match_a_reference_greedy_encoder():
    rng = random.Random(38)
    ns = [*range(1 << 16), *(rng.randrange(10**30) for _ in range(2000)), 10**30 - 1]
    for n in ns:
        word = _greedy_encode(n)
        assert nu.encode(n) == word, n
        assert nu.decode(word) == n, n
    # decode also reads leading zeros and adjacent 1s
    for _ in range(2000):
        word = "".join(rng.choice("01") for _ in range(rng.randrange(150)))
        weights = [1, 2]
        while len(weights) < len(word):
            weights.append(weights[-1] + weights[-2])
        want = sum(w for w, ch in zip(weights, reversed(word)) if ch == "1")
        assert nu.decode(word) == want, word


def _isqrt_forms(m):
    """floor(phi m), floor(phi^2 m) and both rounded by 1/2, from isqrt."""
    r, r2 = nu.isqrt(5 * m * m), nu.isqrt(20 * m * m)
    return ((m + r) // 2, (3 * m + r) // 2,
            ((2 * m + r2) // 2 + 1) // 2, ((6 * m + r2) // 2 + 1) // 2)


_TABLE_SCALARS = (nu.floor_phi, nu.floor_phi2, nu.floor_phi_half, nu.floor_phi2_half)


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_table_scalars_equal_the_isqrt_forms(monkeypatch, cold):
    if cold:
        monkeypatch.setattr(nu, "_PHI", memoryview(b""))
    for m in [10**12, 10**30, *range(nu.TABLE_BOUND + 64)]:
        assert tuple(f(m) for f in _TABLE_SCALARS) == _isqrt_forms(m), m


def test_table_scalars_check_the_sign_on_a_filled_table():
    nu.floor_phi(5)
    assert len(nu._PHI) == nu.TABLE_BOUND  # a memoryview, which wraps -1
    for f in _TABLE_SCALARS:
        for n in (-1, -2, -nu.TABLE_BOUND):
            with pytest.raises(ValueError, match="^n must be >= 0$"):
                f(n)


def test_floor_phi_past_the_table_leaves_it_at_its_bound(monkeypatch):
    monkeypatch.setattr(nu, "_PHI", memoryview(b""))
    assert nu.floor_phi(10**12) == _isqrt_forms(10**12)[0]
    assert len(nu._PHI) == 0  # past the bound nothing is filled
    assert nu.floor_phi2(nu.TABLE_BOUND - 1) == _isqrt_forms(nu.TABLE_BOUND - 1)[1]
    assert len(nu._PHI) == nu.TABLE_BOUND
    nu.floor_phi(10**12)
    assert len(nu._PHI) == nu.TABLE_BOUND


def test_vector_floor_rejects_negative_entries():
    for ms in ([-3], [5, -1, 7], [-3, 2**40]):
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            nu.vec_floor_phi(np.array(ms, dtype=np.int64))


def test_rounded_beatty_examples():
    assert nu.floor_phi_half(0) == 0
    assert nu.floor_phi_half(1) == 2
    # 4*phi + 1/2 = 6.97...; floors to 6
    assert nu.floor_phi_half(4) == 6
    assert nu.floor_phi2_half(0) == 0
    assert nu.floor_phi2_half(1) == 3
    assert nu.floor_phi2_half(2) == 5


@given(st.integers(min_value=0, max_value=1 << 20))
@settings(max_examples=300, deadline=None)
def test_roundtrip_and_canonical(n):
    s = nu.encode(n)
    assert nu.decode(s) == n
    assert "11" not in s
    assert s == "" or (s[0] == "1" and set(s) <= {"0", "1"})


@given(st.integers(min_value=0, max_value=1 << 20), st.integers(min_value=0, max_value=5))
@settings(max_examples=200, deadline=None)
def test_decode_strips_leading_zeros(n, pad):
    s = "0" * pad + nu.encode(n)
    assert nu.decode(s) == n
    assert nu.encode(nu.decode(s)) == s.lstrip("0") if n else s.strip("0") == ""


def test_roundtrip_exhaustive_small():
    for n in range(4096):
        assert nu.decode(nu.encode(n)) == n


def test_encode_order_preserving():
    # canonical strings compare numerically as (length, lexicographic)
    pairs = [(nu.encode(n), n) for n in range(2000)]
    keyed = sorted(pairs, key=lambda p: (len(p[0]), p[0]))
    assert [n for _, n in keyed] == list(range(2000))


def test_phi2_is_phi_plus_n():
    for n in range(0, 1 << 14, 7):
        assert nu.floor_phi2(n) == nu.floor_phi(n) + n


def test_beatty_partition():
    limit = 100_000
    lower = {nu.floor_phi(n) for n in range(1, limit)}
    upper = {nu.floor_phi2(n) for n in range(1, limit)}
    lower = {v for v in lower if v <= limit}
    upper = {v for v in upper if v <= limit}
    assert not (lower & upper)
    assert lower | upper >= set(range(1, limit + 1))


def test_floor_phi_table_matches_scalar():
    table = seqs.oracle("phi").table(5000)
    for n in range(0, 5000, 13):
        assert int(table[n]) == nu.floor_phi(n)


def test_vectorized_floor_phi_large_arguments():
    # 5 m^2 overflows int64 for these m; they must take the exact scalar path
    ms = np.array([0, 7, 10**6, 2**32 + 5, 2**33], dtype=np.int64)
    got = nu.vec_floor_phi(ms)
    assert [int(v) for v in got] == [nu.floor_phi(int(m)) for m in ms]


def test_vectorized_floor_phi_sends_only_large_entries_to_the_scalar(monkeypatch):
    real = nu.floor_phi
    calls = []

    def counted(n):
        calls.append(n)
        return real(n)

    ms = np.append(np.arange(1000), nu._VEC_PHI_MAX + 1)
    monkeypatch.setattr(nu, "floor_phi", counted)
    got = nu.vec_floor_phi(ms)
    assert calls == [nu._VEC_PHI_MAX + 1]
    monkeypatch.undo()
    assert got.tolist() == [nu.floor_phi(int(m)) for m in ms]
    with pytest.raises(ValueError):
        nu.vec_floor_phi(np.append(ms, -1))


def test_vectorized_floor_phi_reads_narrow_integer_arrays_as_int64():
    """5 m^2 wraps in int32 from m = 20725 and the square root repair
    never ends, and unsigned arrays gave wrong floors; the check runs in
    a child process with a time limit, so such a hang fails it."""
    code = (
        "import numpy as np\n"
        "from fibdecide import numeration as nu\n"
        "ms = [0, 1, 20724, 20725, 40000, 65535, 100000, nu._VEC_PHI_MAX, nu._VEC_PHI_MAX + 1,\n"
        "      2**31 - 1, 2**32 - 1, 2**40]\n"
        "for dt in (np.int32, np.uint16, np.uint32, np.uint64):\n"
        "    m = np.array([v for v in ms if v <= np.iinfo(dt).max], dtype=dt)\n"
        "    got = nu.vec_floor_phi(m)\n"
        "    assert got.dtype == np.int64, dt\n"
        "    assert got.tolist() == [nu.floor_phi(v) for v in m.tolist()], dt\n"
        "print('ok')\n"
    )
    src = os.path.dirname(os.path.dirname(nu.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0 and out.stdout.split() == ["ok"], out.stderr


def test_vectorized_floor_phi_rejects_non_integer_arrays():
    with pytest.raises(TypeError, match="integer array, got dtype float64"):
        nu.vec_floor_phi(np.array([3.0]))
    with pytest.raises(ValueError):
        nu.vec_floor_phi(np.array([5, -1], dtype=np.int32))
    with pytest.raises(OverflowError, match="m >= 2\\*\\*63"):
        nu.vec_floor_phi(np.array([5, 2**63 + 5], dtype=np.uint64))


def test_roundtrip_full_range_vectorized():
    """decode(encode(n)) = n and no adjacent 1s for all n < 2**20.

    Uses the vectorized digit extraction plus an independent weighted sum
    so the check does not just re-run the scalar encoder.
    """
    from reference_kernel import digit_matrix

    n = 1 << 20
    ns = np.arange(n, dtype=np.int64)
    digits = digit_matrix(ns)
    assert not np.any(digits[:, :-1] & digits[:, 1:])
    weights = np.array(
        [nu.fib(digits.shape[1] + 1 - i) for i in range(digits.shape[1])],
        dtype=np.int64,
    )
    assert np.array_equal(digits @ weights, ns)
    for probe in (0, 1, 12, 43, 514229, (1 << 20) - 1):
        row = "".join(str(b) for b in digits[probe]).lstrip("0")
        assert row == nu.encode(probe)
