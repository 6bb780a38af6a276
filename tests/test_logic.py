import numpy as np
import pytest

from fibdecide import arith
from fibdecide import automata as au
from fibdecide import logic
from fibdecide import numeration as nu


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


def test_script_unknown_command():
    with pytest.raises(logic.ParseError, match="unknown command"):
        logic.parse_script("frobnicate x:")


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
    # x-5 underflows at x=2: = and < are false there, != is ~(=) and true
    from fibdecide.reproduce import _eval_formula

    for atom, verdict in (("x-5!=3", True), ("x-5=3", False), ("x-5<3", False)):
        assert session.eval(f"Ex x=2 & {atom}") is verdict, atom
        assert _eval_formula(logic.parse_formula(atom), {"x": 2}) is verdict, atom


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
    """A relation accepting (1, 0) only as the unpadded word [1,0]: the
    compiled atom must accept it padded too, not just carry the flag."""
    delta = np.full((3, 4), 2, dtype=np.int32)
    delta[0, 0b10] = 1
    outputs = np.array([0, 1, 0], dtype=np.int32)
    rel = au.Automaton(2, delta, outputs, 0)
    q = logic.Compiler(lambda name: None)._oriented(rel, ("y", "x"))
    assert q.variables == ("x", "y") and q.aut.zero_normalized
    assert q.aut.accepts("[0,1]") and q.aut.accepts("[0,0][0,0][0,1]")
    assert not q.aut.accepts("[1,0]")
