import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibdecide import arith
from fibdecide import automata as au
from fibdecide import logic
from fibdecide import numeration as nu

import reference_chain


@pytest.fixture()
def session(catalog):
    return logic.Session(catalog)


def test_parse_quantifier_scope():
    f = logic.parse_formula(
        '?msd_fib An,x,y (x<y & $a(x,n) & $a(y,n)) => y=x+1'
    )
    assert isinstance(f, logic.Quant)
    assert f.names == ("n", "x", "y")
    assert isinstance(f.body, logic.BoolOp) and f.body.op == "=>"


def test_parse_negated_quantifier_scope():
    f = logic.parse_formula("~En,x1,x2 x1!=x2 & $a(n,x1) & $a(n,x2)")
    assert isinstance(f, logic.Not)
    assert isinstance(f.body, logic.Quant)
    assert logic.free_vars(f) == set()


def test_parse_def_free_vars():
    f = logic.parse_formula("?msd_fib Ek n=2*k")
    assert logic.free_vars(f) == {"n"}


def test_parse_error_reports_position():
    with pytest.raises(logic.ParseError, match="line"):
        logic.parse_formula("x &")
    with pytest.raises(logic.ParseError):
        logic.parse_formula("En, x")  # missing body
    with pytest.raises(logic.ParseError):
        logic.parse_formula("_bad = 1")
    # a quantifier letter is its own token, so it cannot bind the number 12
    with pytest.raises(logic.ParseError, match=r"got '12' \(line 1, column 2\)"):
        logic.parse_formula("A12 x=x")


def test_parse_dfao_test():
    f = logic.parse_formula("An C[n]=@1 <=> Ek $p1(k,n)")
    assert isinstance(f, logic.Quant)
    left = f.body.left
    assert isinstance(left, logic.DfaoTest)
    assert left.name == "C" and left.value == 1


def test_script_parser_multiline_and_comments():
    cmds = logic.parse_script(
        'reg four msd_fib msd_fib msd_fib msd_fib\n'
        '   "[0,0,0,0]*[1,0,0,0][0,1,0,0][0,0,0,0][0,0,1,0][0,0,0,1][0,0,0,0]*":\n'
        "# a comment\n"
        'def even "?msd_fib Ek n=2*k":\n'
        'eval check "?msd_fib Ax x=x":\n'
        "combine C s1=1 s2=2 s0=0:\n"
    )
    kinds = [type(c).__name__ for c in cmds]
    assert kinds == ["RegCmd", "DefCmd", "EvalCmd", "CombineCmd"]
    assert cmds[0].arity == 4
    assert cmds[3].parts == [("s1", 1), ("s2", 2), ("s0", 0)]


# Every command of the paper script: line, class, name, and a digest of its
# body (def, eval), (arity, pattern) (reg) or parts (combine).
SCRIPT_COMMANDS = """
  3 EvalCmd    check_at_least_one 809da1502f7f
  4 EvalCmd    check_at_most_one  53b1e1088d3d
  6 RegCmd     adjfib             4f5f8c6d1c31
  7 DefCmd     trapfib            96f50011b780
  8 EvalCmd    test105774         bbc7ba7c01c0
 10 EvalCmd    test012            581f8eb1bb1e
 14 DefCmd     s0                 9779ed6edd37
 15 DefCmd     s2                 b52941eb12fb
 16 DefCmd     s1                 d06f87407aae
 17 CombineCmd C                  9413827c8914
 18 EvalCmd    twice_consec       71b4b98a730b
 22 EvalCmd    chek1a             38a4fb124214
 23 EvalCmd    chek2a             921261e4ff98
 24 EvalCmd    chek0b             c789e058dbfc
 25 EvalCmd    chek1b             30c6e255ed78
 26 EvalCmd    chek2b             e32d52aeffda
 27 DefCmd     a007067            b06afbc4b2f3
 28 DefCmd     a007064            8da6fa3343d1
 29 EvalCmd    check_two          87c127834f0a
 30 EvalCmd    checkp2            67d62eb3b051
 31 DefCmd     a035487            306a111a0b66
 32 EvalCmd    checkp1            e69642141a2f
 33 DefCmd     a004937            11ab632b770a
 34 EvalCmd    chk0               1d89489adfad
 37 EvalCmd    lowerbound         00a5e171b7b0
 38 EvalCmd    upperbound         4f528077d757
 39 RegCmd     lucfib             cb736bd87f77
 40 EvalCmd    chklow             2841b9c7984c
 41 EvalCmd    chkup              7011395f3c29
 44 DefCmd     suffmin            b4c8aaebcb4e
 45 EvalCmd    suffmin_regex      079ea4c2e625
 48 EvalCmd    twoconsec          e36a84be61bb
 50 EvalCmd    differ             dd88780130e9
 52 DefCmd     a003623            924711af3bf8
 53 EvalCmd    isolated           a735d363c25e
 58 EvalCmd    ascending          1c513e408b4d
 59 DefCmd     diff               589912c4b972
 60 EvalCmd    checkdiff          41ab4741fa60
 61 EvalCmd    cd0                dfefc0a42dfe
 62 EvalCmd    cd1                5d21795b9c81
 63 EvalCmd    cd1                960497c6e1ab
 66 RegCmd     isfib              8fb483e93d07
 67 DefCmd     special            8bb3f391d557
 68 RegCmd     four               fbc06e650173
 70 EvalCmd    partb              4e28dfddfc8a
 72 EvalCmd    minval             b7c16ae4abb6
 74 EvalCmd    maxval             cc4d1526ffc2
 78 DefCmd     even               843edface2d6
 79 EvalCmd    checkparity        cffd1509f36a
 83 EvalCmd    checkap1           ff311dcf1440
 84 EvalCmd    checkap2           082edce9d616
 85 EvalCmd    check_distinct1    f9715f7e0775
 86 EvalCmd    check_distinct2    822ff6847287
 88 DefCmd     first_occ          09fcd66ce348
 89 EvalCmd    check_distinct3    03a952e7628f
 93 DefCmd     nthrun2            ca0e903929c7
 95 EvalCmd    compare_fib        f7c434098dcd
 98 DefCmd     trapfib2           8b3bd391b198
 99 DefCmd     wseq               2ab9a8efc4f2
101 EvalCmd    propw              3e0392f309f6
105 DefCmd     fixed              59051e110400
106 EvalCmd    fixed_regex        e11dabc7491e
109 RegCmd     even1              9e4e32bac3dd
110 DefCmd     ab                 38dbd73db4a7
111 DefCmd     ba                 c67961fd43bd
112 EvalCmd    test               0cffc66ffa47
113 DefCmd     xx                 436ae81be2c2
114 EvalCmd    test1              a90473ce15ef
115 DefCmd     aba                ee7f6e236129
116 DefCmd     bab                65505419d19f
117 EvalCmd    test3              c6272a37f584
118 DefCmd     aab                e9b36467303d
119 EvalCmd    test4              38b276db7f7a
120 DefCmd     ca                 8bae30a6d1a4
121 DefCmd     dp                 730b45edb76e
122 EvalCmd    test1              6c888f5c8525
123 EvalCmd    test2              6de717cba11e
124 DefCmd     cab                7f79c2df0b00
125 DefCmd     abb                7a0a64446ba2
126 EvalCmd    test3              52657782e60c
130 EvalCmd    checka             9dc11131422b
132 EvalCmd    checkb             4ea0f48abc45
134 EvalCmd    checkc             2c5cd81382f3
136 DefCmd     ad                 d125af67182a
137 DefCmd     abd                e3d635cb05c6
138 EvalCmd    checkd             79e5b3670647
139 EvalCmd    checke             587416dce890
"""


def _payload(cmd):
    if isinstance(cmd, logic.RegCmd):
        return (cmd.arity, cmd.pattern)
    if isinstance(cmd, logic.CombineCmd):
        return tuple(cmd.parts)
    return cmd.body


def test_paper_script_parses_to_pinned_commands():
    from fibdecide import reproduce as rp

    got = [
        f"{c.line:3d} {type(c).__name__:10s} {c.name:18s} "
        + hashlib.sha256(repr(_payload(c)).encode()).hexdigest()[:12]
        for c in logic.parse_script(rp.SCRIPT)
    ]
    assert got == SCRIPT_COMMANDS.strip("\n").splitlines()


def test_script_unknown_command():
    with pytest.raises(logic.ParseError, match="unknown command"):
        logic.parse_script("frobnicate x:")


@pytest.mark.parametrize("script, message", [
    ("combine C s1= s2=2:", r"combine part s1= needs a number \(line 1\)$"),
    ('def "?msd_fib x=1":', r"def needs a name \(line 1\)$"),
    ('eval "?msd_fib Ax x=x":', r"eval needs a name \(line 1\)$"),
    ('def ok "x=1":\nfrobnicate x:', r"unknown command 'frobnicate' \(line 2\)$"),
    ("combine C s1=1\nfrobnicate x:", r"unknown command 'frobnicate' \(line 2\)$"),
    ('def a "x=1":\n\ndef b "x &":', r"got '&' \(line 3, column 10\)$"),
    ('def a "x=1":\neval e "Ax x=x\n   & !":', r"unexpected character '!' \(line 3, column 6\)$"),
    ('def a "x=1":\n\neval x "abc\n', r"unterminated string \(line 3\)$"),
    ('reg r "0*":', r"reg needs at least one msd_fib track \(line 1\)$"),
    ("combine C:\n", r"combine needs at least one part \(line 1\)$"),
], ids=[
    "combine-without-number", "def-without-name", "eval-without-name", "line-without-column",
    "combine-ends-with-its-line", "body-error-at-script-position",
    "body-error-on-a-later-body-line", "unterminated-string", "reg-without-tracks",
    "combine-without-parts",
])
def test_malformed_script_commands_raise_parse_errors(script, message):
    """Every command parses before any runs; a body parses when its command
    runs, and its errors name their line and column in the script."""
    with pytest.raises(logic.ParseError, match=message):
        logic.Session({}).run_script(script)


def test_eval_examples(session):
    assert session.eval("Ax x=x")
    assert not session.eval("Ex x=x+1")
    assert session.eval("Ax,y x+y=y+x")
    assert session.eval("Ax x+0=x")


def test_eval_requires_closed(session):
    with pytest.raises(logic.CompileError, match="free"):
        session.eval("x=1")


def test_unknown_automaton(session):
    with pytest.raises(logic.CompileError, match=r"\$nosuch"):
        session.eval("Ax $nosuch(x)")


def test_arity_mismatch(session):
    with pytest.raises(logic.CompileError, match="arguments"):
        session.eval("Ax $phin(x)")


def test_define_even_matches_scan(session):
    even = session.define("even", "?msd_fib Ek n=2*k")
    ns = np.arange(4000)
    got = arith.accepts_number_pairs(even, ns)
    assert np.array_equal(got, ns % 2 == 0)


def test_compile_x_equals_x_is_valid(session):
    q = session.compile("x=x")
    assert au.equivalent(q.aut, arith.valid())


def test_tracks_sorted_by_name(session):
    # z appears before n in the formula, yet n gets track 0
    q = session.compile("z=n/2")
    assert q.variables == ("n", "z")
    assert q.aut.accepts_numbers(7, 3)


def test_renaming_bound_vars_is_equivalent(session):
    a = session.compile("Ek n=2*k")
    b = session.compile("Em n=2*m")
    assert au.equivalent(a.aut, b.aut)


def test_quantifier_law(session):
    lhs = session.compile("Ex x=2*y")
    rhs = session.compile("~(Ax ~(x=2*y))")
    assert au.equivalent(lhs.aut, rhs.aut)


def test_relational_subtraction(session):
    assert session.eval("Ax,y (x<y) => Ez z=y-x & z>=1")
    assert not session.eval("Ex x=1-2")
    # guarded use as in the bracketing scripts
    assert session.eval("Ak,x (x<k) => Et t=k-x & t+x=k")


def test_underflowing_subtraction_verdicts(session):
    # x-5 underflows at x=2: = and < are false there, != is ~(=) and true;
    # a zero multiplier keeps the underflow of its operand
    from fibdecide.reproduce import _eval_formula

    for x, atom, verdict in (
        (2, "x-5!=3", True), (2, "x-5=3", False), (2, "x-5<3", False),
        (2, "0*(x-5)=0", False), (2, "(x-5)*0=0", False),
        (2, "0*(x-5)!=0", True), (7, "0*(x-5)=0", True),
    ):
        assert session.eval(f"Ex x={x} & {atom}") is verdict, atom
        assert _eval_formula(logic.parse_formula(atom), {"x": x}) is verdict, atom


def test_division_examples(session):
    assert session.eval("Ax Ez z=(x+1)/2 & 2*z<=x+1 & x+1<2*z+2")
    with pytest.raises(logic.CompileError, match="divisor"):
        session.eval("Ex,y x=y/x")
    with pytest.raises(logic.CompileError, match="constant"):
        session.eval("Ex,y,z z=x*y")


def test_dfao_value_atom(catalog):
    s = logic.Session(catalog)
    # the Fibonacci word letters partition the naturals
    assert s.eval("An F[n]=@0 | F[n]=@1")
    assert s.eval("~En F[n]=@0 & F[n]=@1")
    assert s.eval("F[1]=@1 & F[0]=@0 & F[6]=@1")
    assert s.eval("An (n>=1) => (F[n-1]=@0 | F[n-1]=@1)")


def test_define_redefinition_policy(session):
    session.define("thing", "n<5")
    session.define("thing", "n<5")  # equivalent restatement: fine
    with pytest.raises(logic.CompileError, match="force"):
        session.define("thing", "n<6")
    session.define("thing", "n<6", force=True)


def test_scripts_keep_the_meaning_of_catalog_names(session, catalog):
    """A catalog name may be restated equivalently, not replaced."""
    for script in ('def phin "x=y":', 'reg F msd_fib "0*":', 'eval e "Ax x=x":\ndef phin "x=y":'):
        with pytest.raises(logic.CompileError, match="'(phin|F)' is already defined differently"):
            session.run_script(script)
    assert not session.eval("Ax $phin(x,x)") and session.eval("F[1]=@1")
    session.run_script('def a007067 "?msd_fib Ex $phin(2*n,x) & z=(x+1)/2":')
    assert session.automaton("a007067") is catalog["a007067"]
    session.define("phin", "x=y", force=True)
    assert session.eval("Ax $phin(x,x)")


def test_define_automaton_and_listing(session):
    session.define_automaton("box", arith.valid())
    assert "box" in session.names()
    assert session.automaton("box").accepts("10")


def test_run_script_report(session):
    report = session.run_script(
        'def t "n<5":\n'
        'eval good "?msd_fib Ex $t(x)":\n'
        'eval bad "?msd_fib Ax $t(x)":\n'
    )
    assert report.evals == [("good", True), ("bad", False)]
    assert not report.all_true


def test_constant_automaton_compile(session):
    q = session.compile("x=144")
    assert q.aut.accepts_numbers(144)
    assert not q.aut.accepts_numbers(143)


def test_apply_with_term_args(catalog):
    s = logic.Session(catalog)
    assert s.eval("Ak $phin(2*k, 2*k) => k=0")
    assert s.eval("$phin(2*3+4, 16)")


def test_apply_repeated_variable(catalog):
    s = logic.Session(catalog)
    fixed = s.define("diag", "$eq(n,n)")
    assert au.equivalent(fixed, arith.valid())


def test_soundness_spotcheck(catalog):
    from fibdecide.reproduce import engine_soundness

    ok, detail = engine_soundness(99, catalog)
    assert ok, detail


def test_define_wseq_matches_oracle(catalog):
    from fibdecide import seqs, synth

    s = logic.Session(catalog)
    s.define_automaton(
        "a105774", synth.guess_synchronized(seqs.oracle("a105774"), 16384)
    )
    s.define(
        "wseq",
        "(Em $a105774(x,m) & m>=n) & (Ai,p (i<x & $a105774(i,p)) => p<n)",
    )
    want = seqs.w_table(10_000)
    got = arith.accepts_number_pairs(
        s.automaton("wseq"), np.arange(10_000), want
    )
    assert bool(got.all())


def test_package_exports():
    import fibdecide

    assert fibdecide.encode(43) == "10010001"
    assert fibdecide.decode("11") == 3
    assert fibdecide.oracle("a105774").value(9) == 12
    assert fibdecide.__version__


# -- connectives against the compiler that intersected every lifted side -----


class _ReferenceCompiler(logic.Compiler):
    """Each lifted side intersected with the valid tracks before the product,
    and => / <=> intersected again after it."""

    def _lift(self, q, allvars):
        if q.variables == allvars:
            return q.aut
        positions = [allvars.index(v) for v in q.variables]
        lifted = au.cylindrify(q.aut, positions, len(allvars))
        return au.intersect(lifted, arith.valid_tracks(len(allvars)))

    def _bool(self, op, a, b):
        allvars = tuple(sorted(set(a.variables) | set(b.variables)))
        x = self._lift(a, allvars)
        y = self._lift(b, allvars)
        if op == "&":
            out = au.product(x, y, lambda u, v: u & v)
            needs_domain = False
        elif op == "|":
            out = au.product(x, y, lambda u, v: u | v)
            needs_domain = False
        elif op == "=>":
            out = au.product(x, y, lambda u, v: (1 - u) | v)
            needs_domain = True
        elif op == "<=>":
            out = au.product(x, y, lambda u, v: (u == v).astype(np.int32))
            needs_domain = True
        else:
            raise logic.CompileError(f"unknown connective {op}")
        if needs_domain:
            out = au.intersect(out, arith.valid_tracks(len(allvars)))
        out = au.minimize(out)
        out = au.Automaton(out.arity, out.delta, out.outputs, out.initial, zero_normalized=True)
        return logic.CompiledQuery(out, allvars)


_ATOMS = {  # name -> (template, arity)
    "eq": ("{}={}", 2),
    "lt": ("{}<{}", 2),
    "add": ("{}+{}={}", 3),
    "const": ("{}=3", 1),
    "rel": ("$phin({},{})", 2),
}


def _atom_pairs():
    """(left, right) atom formulas whose variable sets are equal, nested,
    overlapping or disjoint."""
    for ta, ka in _ATOMS.values():
        for tb, kb in _ATOMS.values():
            a = "abc"[:ka]
            new = "xyz"
            cases = {
                "equal": a[::-1] if ka == kb else None,
                "nested": a[:kb] if kb < ka else a + new[: kb - ka] if kb > ka else None,
                "overlapping": a[-1] + new[: kb - 1] if ka > 1 and kb > 1 else None,
                "disjoint": new[:kb],
            }
            for kind, b in cases.items():
                if b is not None:
                    yield kind, ta.format(*a), tb.format(*b)


def test_connectives_match_reference_compiler(catalog):
    lookup = logic.Session(catalog)._lookup
    new, ref = logic.Compiler(lookup), _ReferenceCompiler(lookup)
    kinds = set()
    for kind, x, y in _atom_pairs():
        kinds.add(kind)
        for op in ("&", "|", "=>", "<=>"):
            f = logic.parse_formula(f"({x}) {op} ({y})")
            got, want = new.compile(f), ref.compile(f)
            assert got.variables == want.variables, (x, op, y)
            for field in ("delta", "outputs"):
                g, w = getattr(got.aut, field), getattr(want.aut, field)
                assert g.dtype == w.dtype and np.array_equal(g, w), (x, op, y)
            assert (got.aut.initial, got.aut.zero_normalized) == (want.aut.initial, True)
    assert kinds == {"equal", "nested", "overlapping", "disjoint"}


def test_or_over_different_variables_stays_valid(session):
    """x=1 | y=2 leaves x free where y=2; only the valid tracks cut it back."""
    q = session.compile("Ey (x=1 | y=2)")
    assert q.variables == ("x",)
    assert au.equivalent(q.aut, au.intersect(q.aut, arith.valid_tracks(1)))
    assert not q.aut.accepts("11")
    assert q.aut.accepts_numbers(0) and q.aut.accepts_numbers(4)


def test_conjunction_takes_one_product(session, monkeypatch):
    session.compile("x<y & y<z")  # build the cached relations first
    calls = []
    real = au.product

    def spy(*args):
        calls.append(args[0].arity)
        return real(*args)

    monkeypatch.setattr(au, "product", spy)
    q = session.compile("x<y & y<z")
    assert calls == [3]
    assert q.aut.accepts_numbers(1, 2, 3) and not q.aut.accepts_numbers(1, 3, 2)


def test_subset_limit_names_the_eliminated_variable(session, monkeypatch):
    arith.lt()  # the relation itself is built without the limit
    monkeypatch.setattr(au, "SUBSET_LIMIT", 3)
    with pytest.raises(au.DeterminizationLimit, match="eliminating w .arity 2") as info:
        session.compile("Ew w<x")
    assert isinstance(info.value.__cause__, au.DeterminizationLimit)


# -- automata applied by name enter the compiler restricted and normalized ----


def test_reg_of_invalid_strings_holds_for_no_number(session):
    """0*11 is no Zeckendorf representation, so $bad holds for no n, also
    inside a conjunction that leaves the lifted tracks to the sides."""
    session.run_script('reg bad msd_fib "0*11":\n')
    assert not session.eval("Ex $bad(x)")
    assert not session.eval("Ex,y $bad(x) & y=0")
    assert session.eval("An ~$bad(n)")


def test_reg_without_leading_zeros_is_zero_normalized(session):
    session.run_script('reg one msd_fib "1":\n')
    assert session.eval("An $one(n) <=> n=1")


def test_forced_redefinition_reaches_the_compiler(session):
    session.define("P", "n=2")
    assert session.eval("Ex $P(x) & x=2") and session.eval("P[2]=@1")
    session.define("P", "n=3", force=True)
    assert not session.eval("Ex $P(x) & x=2")
    assert not session.eval("P[2]=@1")
    assert session.eval("P[3]=@1")


def test_oriented_zero_normalizes_an_unflagged_relation():
    """A relation accepting (1, 0) only as the unpadded word [1,0], applied
    by name: the compiled atom must accept it padded too, not just carry
    the flag."""
    delta = np.full((3, 4), 2, dtype=np.int32)
    delta[0, 0b10] = 1
    outputs = np.array([0, 1, 0], dtype=np.int32)
    rel = au.Automaton(2, delta, outputs, 0)
    session = logic.Session()
    session.define_automaton("r", rel)
    q = session.compile("$r(y,x)")
    assert q.variables == ("x", "y") and q.aut.zero_normalized
    assert q.aut.accepts("[0,1]") and q.aut.accepts("[0,0][0,0][0,1]")
    assert not q.aut.accepts("[1,0]")


# -- one atom path: DFAO arity, and atoms against the three-routine compiler -


def test_dfao_test_needs_a_unary_automaton():
    s = logic.Session({"P": arith.eq()})
    with pytest.raises(logic.CompileError, match=r"P takes 2 arguments.*P\[\.\.\.\]=@1"):
        s.eval("P[1]=@1")
    with pytest.raises(logic.CompileError, match=r"P takes 2 arguments, but \$P gives it 1"):
        s.eval("$P(1)")


class _Fresh:
    def __init__(self):
        self.counter = 0

    def __call__(self) -> str:
        name = f"_{self.counter}"
        self.counter += 1
        return name


class _ReferenceAtomCompiler(logic.Compiler):
    """The compiler with the three atom routines it had before `_atom`:
    `_compare`, `_apply` and `_apply_automaton`, each flattening its terms
    with a `fresh_names` list and joining them in `_conj_eliminate`, over
    the relation chain that `arith.linear` replaced.  `0*t` keeps the
    variables of t (reference_chain.const_mul(0))."""

    def compile(self, f):
        return self._compile(f, _Fresh())

    def _compile(self, f, fresh):
        if isinstance(f, logic.Compare):
            return self._compare(f, fresh)
        if isinstance(f, logic.Apply):
            return self._apply(f, fresh)
        if isinstance(f, logic.DfaoTest):
            q = self._dfao(f, fresh)
            return self._negate(q) if f.negated else q
        return super()._compile(f, fresh)

    def _true(self, variables=()):
        return logic.CompiledQuery(arith.valid_tracks(len(variables)), tuple(variables))

    def _oriented(self, rel, names):
        """A repeated variable, as in x+x, diagonalized through equality."""
        if len(set(names)) == len(names):
            return super()._oriented(rel, names)
        uniq = []
        pairs = []
        for v in names:
            if v in uniq:
                alias = f"_dup{len(pairs)}_{v}"
                pairs.append((alias, v))
                uniq.append(alias)
            else:
                uniq.append(v)
        base = self._oriented(rel, tuple(uniq))
        for alias, v in pairs:
            eq = self._oriented(arith.eq(), (alias, v))
            base = self._bool("&", base, eq)
            base = self._exists(base, alias)
        return base

    def _conj_eliminate(self, queries, eliminate):
        eliminate = set(eliminate)
        remaining = list(queries)
        acc = remaining.pop(0)
        while remaining:
            shared = [
                len(set(q.variables) & set(acc.variables)) for q in remaining
            ]
            best = max(range(len(remaining)), key=lambda i: shared[i])
            q = remaining.pop(best)
            acc = self._bool("&", acc, q)
            later = set()
            for r in remaining:
                later.update(r.variables)
            for v in [x for x in acc.variables if x in eliminate and x not in later]:
                acc = self._exists(acc, v)
        for v in [x for x in acc.variables if x in eliminate]:
            acc = self._exists(acc, v)
        return acc

    def _flatten(self, t, fresh, constraints, fresh_names):
        if isinstance(t, logic.Var):
            return t.name
        if isinstance(t, logic.Const):
            name = fresh()
            fresh_names.append(name)
            constraints.append(logic.CompiledQuery(reference_chain.const(t.value), (name,)))
            return name
        left_raw, right_raw = t.left, t.right
        if t.op == "*":
            if isinstance(left_raw, logic.Const) and isinstance(right_raw, logic.Const):
                name = fresh()
                fresh_names.append(name)
                product = reference_chain.const(left_raw.value * right_raw.value)
                constraints.append(logic.CompiledQuery(product, (name,)))
                return name
            if isinstance(right_raw, logic.Const):
                left_raw, right_raw = right_raw, left_raw
            if not isinstance(left_raw, logic.Const):
                raise logic.CompileError("multiplication needs a constant operand")
            c = left_raw.value
            v = self._flatten(right_raw, fresh, constraints, fresh_names)
            name = fresh()
            fresh_names.append(name)
            constraints.append(self._oriented(reference_chain.const_mul(c), (v, name)))
            return name
        if t.op == "/":
            if not isinstance(right_raw, logic.Const) or right_raw.value == 0:
                raise logic.CompileError("division needs a positive constant divisor")
            v = self._flatten(left_raw, fresh, constraints, fresh_names)
            name = fresh()
            fresh_names.append(name)
            rel = reference_chain.const_div(right_raw.value)
            constraints.append(self._oriented(rel, (v, name)))
            return name
        if t.op == "+":
            a = self._flatten(left_raw, fresh, constraints, fresh_names)
            b = self._flatten(right_raw, fresh, constraints, fresh_names)
            name = fresh()
            fresh_names.append(name)
            constraints.append(self._oriented(arith.add(), (a, b, name)))
            return name
        if t.op == "-":
            a = self._flatten(left_raw, fresh, constraints, fresh_names)
            b = self._flatten(right_raw, fresh, constraints, fresh_names)
            name = fresh()
            fresh_names.append(name)
            constraints.append(self._oriented(arith.add(), (name, b, a)))
            return name
        raise logic.CompileError(f"unknown term operator {t.op}")

    def _compare(self, f, fresh):
        constraints = []
        fresh_names = []
        a = self._flatten(f.left, fresh, constraints, fresh_names)
        b = self._flatten(f.right, fresh, constraints, fresh_names)
        op = f.op
        negate = False
        if op == "!=":
            op, negate = "=", True
        if op == ">":
            op, (a, b) = "<", (b, a)
        elif op == ">=":
            op, (a, b) = "<=", (b, a)
        if a == b:
            base = self._true((a,)) if op in ("=", "<=") else self._negate(self._true((a,)))
        else:
            rel = {"=": arith.eq, "<": arith.lt, "<=": arith.leq}[op]()
            base = self._oriented(rel, (a, b))
        out = self._conj_eliminate([base] + constraints, fresh_names)
        if negate:
            out = self._negate(out)
        return out

    def _apply(self, f, fresh):
        try:
            aut = self._lookup(f.name)
        except KeyError:
            raise logic.CompileError(f"unknown automaton ${f.name}") from None
        if aut.arity != len(f.args):
            raise logic.CompileError(
                f"${f.name} takes {aut.arity} arguments, got {len(f.args)}"
            )
        if not aut.is_boolean:
            raise logic.CompileError(f"${f.name} is a DFAO; use {f.name}[...]=@v")
        aut = self._value_dfa(f.name, 1)
        arg_names = []
        constraints = []
        fresh_names = []
        for t in f.args:
            if isinstance(t, logic.Var) and t.name not in arg_names:
                arg_names.append(t.name)
            else:
                v = self._flatten(t, fresh, constraints, fresh_names)
                if v in arg_names:
                    name = fresh()
                    fresh_names.append(name)
                    constraints.append(self._oriented(arith.eq(), (name, v)))
                    v = name
                arg_names.append(v)
        base = self._oriented(aut, tuple(arg_names))
        return self._conj_eliminate([base] + constraints, fresh_names)

    def _dfao(self, f, fresh):
        aut = self._value_dfa(f.name, f.value)
        return self._apply_automaton(aut, (f.arg,), fresh)

    def _apply_automaton(self, aut, args, fresh):
        constraints = []
        fresh_names = []
        names = []
        for t in args:
            if isinstance(t, logic.Var) and t.name not in names:
                names.append(t.name)
            else:
                v = self._flatten(t, fresh, constraints, fresh_names)
                names.append(v)
        base = self._oriented(aut, tuple(names))
        return self._conj_eliminate([base] + constraints, fresh_names)


class _FormulaGen:
    """Seeded random formulas over every atom kind, recording what they used."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.used = set()

    def term(self, vars_, depth):
        r = self.rng
        compound = ["+", "-", "c*t", "t/c", "c*c", "0*(t-u)"]
        kind = r.choice(["var", "var", "const"] + compound * (depth > 0))
        self.used.add(kind)
        if kind == "var":
            return r.choice(vars_)
        if kind == "const":
            return str(r.randrange(0, 10))
        if kind == "c*c":
            return f"{r.randrange(0, 4)}*{r.randrange(0, 4)}"
        sub = self.term(vars_, depth - 1)
        if kind == "0*(t-u)":  # false where t < u, unless under !=
            return f"0*(({sub})-({self.term(vars_, depth - 1)}))"
        if kind == "c*t":
            c = r.randrange(0, 4)
            self.used.add(kind if c else "0*t")
            return f"{c}*({sub})" if r.random() < 0.5 else f"({sub})*{c}"
        if kind == "t/c":
            return f"({sub})/{r.randrange(1, 4)}"
        return f"({sub}){kind}({self.term(vars_, depth - 1)})"

    def atom(self, vars_):
        r = self.rng
        kind = r.choice(["cmp", "cmp", "cmp", "$phin", "$lt", "F"])
        if kind == "cmp":
            op = r.choice(["=", "!=", "<", "<=", ">", ">="])
            left, right = self.term(vars_, 1), self.term(vars_, 1)
            self.used.add(op)
            if left == right:
                self.used.add("repeat")
            return f"{left}{op}{right}"
        if kind == "F":
            neg = r.random() < 0.5
            self.used.add("F!=" if neg else "F=")
            return f"F[{self.term(vars_, 1)}]{'!=' if neg else '='}@{r.randrange(0, 2)}"
        left, right = self.term(vars_, 1), self.term(vars_, 1)
        self.used.add(kind)
        if left == right:
            self.used.add("repeat")
        return f"{kind}({left},{right})"

    def formula(self, vars_, depth):
        r = self.rng
        pick = r.random() if depth else 0.0
        if pick < 0.35:
            return self.atom(vars_)
        if pick < 0.5:
            self.used.add("~")
            return f"~({self.formula(vars_, depth - 1)})"
        if pick < 0.7:
            names = r.sample(vars_, r.choice([1, 1, 2]))
            kind = r.choice("AE")
            self.used.add(f"{kind}{len(names)}")
            return f"{kind}{','.join(names)} ({self.formula(vars_, depth - 1)})"
        op = r.choice(["&", "|", "=>", "<=>"])
        self.used.add(op)
        return f"({self.formula(vars_, depth - 1)}){op}({self.formula(vars_, depth - 1)})"


def test_atoms_match_reference_compiler(catalog):
    lookup = logic.Session(catalog)._lookup
    new, ref = logic.Compiler(lookup), _ReferenceAtomCompiler(lookup)
    gen = _FormulaGen(20241018)
    fixed = ["x<x", "x=x", "x>=x", "$lt(x,x)", "$phin(y,y)", "Ex F[x+x]!=@1"]
    texts = fixed + [gen.formula(["x", "y"], 2) for _ in range(120)]
    for text in texts:
        f = logic.parse_formula(text)
        got, want = new.compile(f), ref.compile(f)
        assert got.variables == want.variables, text
        for field in ("delta", "outputs"):
            g, w = getattr(got.aut, field), getattr(want.aut, field)
            assert g.dtype == w.dtype and np.array_equal(g, w), text
        assert got.aut.initial == want.aut.initial, text
        assert got.aut.zero_normalized == want.aut.zero_normalized, text
    assert gen.used >= {
        "=", "!=", "<", "<=", ">", ">=", "+", "-", "c*t", "0*t", "0*(t-u)", "t/c", "c*c",
        "repeat", "$phin", "$lt", "F=", "F!=", "&", "|", "=>", "<=>", "~",
        "A1", "A2", "E1", "E2",
    }


# -- linear comparisons: one arith.linear atom per comparison -----------------


def test_zero_multiplier_keeps_its_variable():
    """0*x is 0 for every x, but x stays a free variable with its own track."""
    s = logic.Session({})
    assert s.compile("0*x=0").variables == ("x",)
    s.define("f", "0*x<1")
    assert s.automaton("f").arity == 1
    assert s.eval("Ay $f(y)")
    q = s.compile("0*(x-5)=0")  # still underflows below 5
    assert q.variables == ("x",)
    assert q.aut.accepts_numbers(5) and not q.aut.accepts_numbers(4)


def test_comparison_builds_one_linear_atom(monkeypatch):
    """A comparison is one arith.linear call for left - right, plus one per
    side constraint: u <= t for t-u, two bounds for t/c."""
    calls = []
    real = arith.linear

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(arith, "linear", spy)
    s = logic.Session({})
    s.compile("x+2*y>=3*z+1")
    assert calls == [((-1, -2, 3), 1, "<=")]  # 3z+1 - (x+2y) <= 0 over (x, y, z)
    calls.clear()
    s.compile("x-y=z/2")
    assert sorted(c[2] for c in calls) == ["<=", "<=", "<=", "="]


def test_helper_heavy_comparison_is_split():
    """Twelve different divisions would put 14 tracks on one atom, past the
    arity limit; the comparison names a subterm by a helper instead."""
    from fibdecide import reproduce

    parts = [(k, c) for k in range(6) for c in (1, 2)]
    f = logic.parse_formula("y=" + "+".join(f"(x+{k})/{c}" for k, c in parts))
    q = logic.Session({}).compile(f)
    assert q.variables == ("x", "y")
    for x in range(40):
        want = sum((x + k) // c for k, c in parts)
        for y in range(max(0, want - 1), want + 2):
            env = {"x": x, "y": y}
            assert q.aut.accepts_numbers(x, y) == reproduce._eval_formula(f, env) == (y == want)


def test_equal_quotients_share_one_helper(monkeypatch):
    """Both sides' ((z)+(19))/1 fold to one helper: the comparison builds its
    linear atom and that helper's two bounds, not a second helper's too."""
    from fibdecide import reproduce

    calls = []
    relation = logic.Compiler._relation

    def spy(self, *spec):
        calls.append(spec)
        return relation(self, *spec)

    monkeypatch.setattr(logic.Compiler, "_relation", spy)
    f = logic.parse_formula("50*x+((z)+(19))/1<=((z)+(19))/1")
    q = logic.Session({}).compile(f)
    assert len(calls) == 3
    assert q.variables == ("x", "z")
    for x in range(4):
        for z in range(30):
            env = {"x": x, "z": z}
            assert q.aut.accepts_numbers(x, z) == reproduce._eval_formula(f, env) == (x == 0)


def test_comparison_over_too_many_variables_is_a_compile_error():
    with pytest.raises(logic.CompileError, match=r"\+\(m\) = 1 needs 13 tracks"):
        logic.Session({}).compile("+".join("abcdefghijklm") + "=1")


def _sides(divisions):
    """Terms over x, y, z with + and -, multipliers up to 3 and, if asked,
    divisors up to 5."""
    def grow(t):
        steps = [
            st.tuples(t, st.sampled_from("+-"), t).map(lambda a: f"({a[0]}){a[1]}({a[2]})"),
            st.tuples(st.integers(0, 3), t).map(lambda a: f"{a[0]}*({a[1]})"),
        ]
        if divisions:
            steps.append(st.tuples(t, st.integers(1, 5)).map(lambda a: f"({a[0]})/{a[1]}"))
        return st.one_of(*steps)

    leaf = st.one_of(st.sampled_from(["x", "y", "z"]), st.integers(0, 20).map(str))
    return st.recursive(leaf, grow, max_leaves=3)


@st.composite
def _comparisons(draw):
    """A multiplier up to 50 on one variable, or divisions: a division on the
    other side of 50*x scales it to 250*x, whose automaton alone has about
    125,000 states."""
    big = draw(st.booleans())
    left, right = draw(_sides(not big)), draw(_sides(not big))
    if big:
        left = f"{draw(st.integers(0, 50))}*{draw(st.sampled_from('xyz'))}+({left})"
    return f"{left}{draw(st.sampled_from(['=', '!=', '<', '<=', '>', '>=']))}{right}"


_POINTS = np.random.default_rng(5).integers(0, 120, size=(40, 3)).tolist() + [[0, 0, 0], [1, 2, 3]]


@given(_comparisons())
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
def test_linear_comparisons_match_the_reference_evaluator(text):
    from fibdecide import reproduce

    f = logic.parse_formula(text)
    q = logic.Session({}).compile(f)
    assert set(q.variables) == logic.free_vars(f)
    for point in _POINTS:
        env = dict(zip("xyz", point))
        got = q.aut.accepts_numbers(*(env[v] for v in q.variables))
        assert got == reproduce._eval_formula(f, env), (text, env)
