"""First-order queries over Fibonacci representations, compiled to automata.

The query language matches the conventions of Walnut-style provers so
existing scripts run verbatim: `& | ~ => <=>` connectives, `A`/`E`
quantifiers with comma-separated variable lists and maximal scope, automata
applied as `$name(args)`, DFAO tests `Name[term]=@value`, terms built from
`+ - * /` with constant multipliers and divisors, and the `?msd_fib` header
token (accepted and ignored: this engine only speaks the Fibonacci system).

Free variables bind to input tracks in lexicographic name order.  This is
easy to forget and silently transposes pair automata, so it is worth
stating twice: `def f "... n ... z ..."` puts n on track 0 and z on
track 1 regardless of where the variables appear in the formula.

Compilation is structural: a comparison folds both sides into one linear
form and compiles to one `arith.linear` automaton, joined with the side
constraints that keep `-` and `/` relational; other atoms instantiate
catalog automata cylindrified onto the sorted free-variable list, a
compound argument through a helper variable; a quantifier block is one
join plan (`Compiler._plan`), `A` being `~E~`; every automaton in the
pipeline stays zero-normalized, minimized, and restricted to valid tracks,
which is what makes complementation mean logical negation over numbers
(which connectives must re-restrict, and why, is noted at `Compiler._bool`).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from . import arith
from . import automata as au
from .automata import Automaton

__all__ = [
    "ParseError",
    "CompileError",
    "Formula",
    "Term",
    "parse_formula",
    "parse_script",
    "CompiledQuery",
    "Compiler",
    "Session",
    "ScriptReport",
]


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        where = ""
        if line is not None:
            where = f" (line {line})" if col is None else f" (line {line}, column {col})"
        super().__init__(f"{message}{where}")
        self.line = line
        self.col = col


class CompileError(ValueError):
    pass


# -- AST ---------------------------------------------------------------------


class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    value: int


@dataclass(frozen=True)
class BinTerm(Term):
    op: str  # + - * /
    left: Term
    right: Term


class Formula:
    pass


@dataclass(frozen=True)
class Compare(Formula):
    op: str  # = != < <= > >=
    left: Term
    right: Term


@dataclass(frozen=True)
class Apply(Formula):
    name: str
    args: tuple


@dataclass(frozen=True)
class DfaoTest(Formula):
    name: str
    arg: Term
    value: int
    negated: bool = False


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class BoolOp(Formula):
    op: str  # & | => <=>
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Quant(Formula):
    kind: str  # A | E
    names: tuple
    body: Formula


def _term_vars(t: Term) -> set:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Const):
        return set()
    return _term_vars(t.left) | _term_vars(t.right)


# -- tokenizer ----------------------------------------------------------------

# A quantifier letter is a token of its own, also when glued to its first
# variable (`Ex`); space and the ignored header are unnamed, so not tokens.
# Every formula ends with an `end` token, so running out of input has a
# position too.
_TOKEN_RE = re.compile(
    r"""
    \s+ | \?msd_fib\b
  | (?P<num>\d+)
  | (?P<dollar>\$[A-Za-z_][A-Za-z0-9_]*)
  | (?P<quant>[AE])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=>|=>|!=|<=|>=|[&|~=<>+\-*/(),\[\]@])
  | (?P<end>\Z)
    """,
    re.VERBOSE,
)


@dataclass
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _shown(tok: _Tok) -> str:
    return "end of input" if tok.kind == "end" else tok.text


def _scan(pattern, src: str, line: int, col: int) -> list:
    """One token per named-group match of pattern, with its line and column;
    unnamed matches are dropped.  src starts at (line, col) of its script."""
    toks = []
    pos = 0
    for m in pattern.finditer(src):
        if m.start() != pos:
            break
        text = m.group()
        if m.lastgroup:
            toks.append(_Tok(m.lastgroup, text, line, col))
        breaks = text.count("\n")
        line += breaks
        col = len(text) - text.rfind("\n") if breaks else col + len(text)
        pos = m.end()
    if pos < len(src):
        raise ParseError(f"unexpected character {src[pos]!r}", line, col)
    return toks


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        tok = self.peek()
        if tok.kind == "end":
            raise ParseError("unexpected end of formula", tok.line, tok.col)
        self.i += 1
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, got {_shown(tok)!r}", tok.line, tok.col)
        return self.next()

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.text == "~":
            self.next()
            return Not(self.unary())
        if tok.kind == "quant":
            # a quantifier scopes as far right as it can
            self.next()
            names = self._comma_list(self._var_name)
            return Quant(tok.text, names, self.binary(self.FORMULA))
        return self.primary()

    def _comma_list(self, item, *args) -> tuple:
        items = [item(*args)]
        while self.peek().text == ",":
            self.next()
            items.append(item(*args))
        return tuple(items)

    def _var_name(self) -> str:
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError(f"expected a variable, got {tok.text!r}", tok.line, tok.col)
        return tok.text

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "end":
            raise ParseError("unexpected end of formula", tok.line, tok.col)
        if tok.kind == "dollar":
            return self._apply()
        if tok.kind == "ident" and tok.text[0].isupper():
            return self._dfao_test()
        if tok.text == "(":
            # may open a parenthesized term (comparison) or a formula
            mark = self.i
            try:
                return self._comparison()
            except ParseError:
                self.i = mark
            self.next()
            node = self.binary(self.FORMULA)
            self.expect(")")
            return node
        return self._comparison()

    def _apply(self) -> Formula:
        tok = self.next()
        name = tok.text[1:]
        self.expect("(")
        args = self._comma_list(self.binary, self.TERM)
        self.expect(")")
        return Apply(name, args)

    def _dfao_test(self) -> Formula:
        tok = self.next()
        self.expect("[")
        arg = self.binary(self.TERM)
        self.expect("]")
        op = self.next()
        if op.text not in ("=", "!="):
            raise ParseError(f"expected = or != after ], got {op.text!r}", op.line, op.col)
        self.expect("@")
        num = self.next()
        if num.kind != "num":
            raise ParseError("expected an output value after @", num.line, num.col)
        return DfaoTest(tok.text, arg, int(num.text), negated=op.text == "!=")

    _RELOPS = ("=", "!=", "<", "<=", ">", ">=")

    def _comparison(self) -> Formula:
        left = self.binary(self.TERM)
        tok = self.peek()
        if tok.text not in self._RELOPS:
            got = _shown(tok)
            raise ParseError(f"expected a comparison operator, got {got!r}", tok.line, tok.col)
        self.next()
        right = self.binary(self.TERM)
        return Compare(tok.text, left, right)

    def term_atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "end":
            raise ParseError("unexpected end of term", tok.line, tok.col)
        if tok.kind == "num":
            self.next()
            return Const(int(tok.text))
        if tok.kind == "ident":
            if tok.text[0].isupper() or tok.text.startswith("_"):
                raise ParseError(
                    f"bad variable name {tok.text!r} (lowercase, no leading underscore)",
                    tok.line,
                    tok.col,
                )
            self.next()
            return Var(tok.text)
        if tok.text == "(":
            self.next()
            node = self.binary(self.TERM)
            self.expect(")")
            return node
        raise ParseError(f"unexpected {tok.text!r} in term", tok.line, tok.col)

    # Binary operators as (node built, operand parser, level of each
    # operator, loosest 0): connectives join unary formulas, and term
    # operators join term atoms.
    FORMULA = (BoolOp, unary, {"<=>": 0, "=>": 1, "|": 2, "&": 3})
    TERM = (BinTerm, term_atom, {"+": 0, "-": 0, "*": 1, "/": 1})

    def binary(self, grammar, min_level=0):
        """The longest chain of operands joined by grammar's operators of
        min_level or above.  An operator's right operand binds tighter
        than it, except `=>`'s, so `=>` groups to the right and every
        other operator to the left."""
        node, operand, levels = grammar
        left = operand(self)
        while levels.get(self.peek().text, -1) >= min_level:
            op = self.next().text
            right = self.binary(grammar, levels[op] + (op != "=>"))
            left = node(op, left, right)
        return left


def parse_formula(src: str, line: int = 1, col: int = 1) -> Formula:
    """The formula src; (line, col) is where src starts in its script, and
    errors give their position there."""
    parser = _Parser(_scan(_TOKEN_RE, src, line, col))
    node = parser.binary(_Parser.FORMULA)
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input starting at {tok.text!r}", tok.line, tok.col)
    return node


# -- script commands ------------------------------------------------------------


@dataclass
class DefCmd:
    name: str
    body: str
    line: int
    body_pos: tuple  # (line, column) of the body's first character


@dataclass
class EvalCmd:
    name: str
    body: str
    line: int
    body_pos: tuple


@dataclass
class RegCmd:
    name: str
    arity: int
    pattern: str
    line: int


@dataclass
class CombineCmd:
    name: str
    parts: list  # (source automaton name, value)
    line: int


# Space, comments and `:` are unnamed, so not tokens.  A `value` is the
# `=n` glued to a combine part; a `"` that no later `"` closes is `bad`.
_SCRIPT_RE = re.compile(
    r"""
    \s+ | \#[^\n]* | :
  | (?P<quoted>"[^"]*")
  | (?P<word>[\w?]+)
  | (?P<value>(?<=[\w?])=[\w?]*)
  | (?P<end>\Z)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_COMMANDS = ("def", "eval", "reg", "combine")


def parse_script(src: str) -> list:
    """Split a script into def/eval/reg/combine commands.

    Quoted strings may span lines; `#` starts a comment outside quotes;
    a trailing `:` after each command is accepted.  A combine's parts end
    with its line or at the next command word.  Bodies are parsed when
    their command runs.
    """
    toks = _scan(_SCRIPT_RE, src, 1, 1)
    cmds = []
    i = 0

    def quoted(tok):
        if tok.kind == "quoted":
            return tok.text[1:-1]
        raise ParseError(
            "unterminated string" if tok.text == '"' else "expected a quoted string", tok.line
        )

    while toks[i].kind != "end":
        cmd, name = toks[i], toks[i + 1]
        if cmd.kind != "word":
            raise ParseError(f"unexpected character {cmd.text[0]!r}", cmd.line)
        if cmd.text not in _COMMANDS:
            raise ParseError(f"unknown command {cmd.text!r}", cmd.line)
        if name.kind != "word":
            raise ParseError(f"{cmd.text} needs a name", cmd.line)
        i += 2
        if cmd.text in ("def", "eval"):
            body = toks[i]
            i += 1
            cls = DefCmd if cmd.text == "def" else EvalCmd
            cmds.append(cls(name.text, quoted(body), cmd.line, (body.line, body.col + 1)))
        elif cmd.text == "reg":
            first = i
            while toks[i].text == "msd_fib":
                i += 1
            if i == first:
                raise ParseError("reg needs at least one msd_fib track", cmd.line)
            cmds.append(RegCmd(name.text, i - first, quoted(toks[i]), cmd.line))
            i += 1
        else:
            parts = []
            while (toks[i].kind == "word" and toks[i].line == cmd.line
                   and toks[i].text not in _COMMANDS):
                part, value = toks[i].text, "=1"
                if toks[i + 1].kind == "value":
                    i += 1
                    value = toks[i].text
                if not value[1:].isdecimal():
                    raise ParseError(f"combine part {part}= needs a number", toks[i].line)
                parts.append((part, int(value[1:])))
                i += 1
            if not parts:
                raise ParseError("combine needs at least one part", cmd.line)
            cmds.append(CombineCmd(name.text, parts, cmd.line))
    return cmds


# -- compiler -------------------------------------------------------------------


@dataclass
class CompiledQuery:
    aut: Automaton
    variables: tuple

    @property
    def arity(self):
        return len(self.variables)


class Compiler:
    """Compile formulas against a name -> automaton environment."""

    def __init__(self, lookup):
        self._lookup = lookup  # name -> Automaton, raises KeyError
        self._value_dfa_cache: dict[tuple, tuple[Automaton, Automaton]] = {}

    _CONNECTIVES = {  # pointwise output of each binary connective
        "&": lambda u, v: u & v,
        "|": lambda u, v: u | v,
        "=>": lambda u, v: (1 - u) | v,
        "<=>": lambda u, v: (u == v).astype(np.int32),
    }

    # every CompiledQuery automaton is zero-normalized, minimized, and
    # accepts only strings whose tracks are all valid; automata applied by
    # name enter through _value_dfa, which makes them so

    def compile(self, f: Formula) -> CompiledQuery:
        return self._compile(f, itertools.count())

    def _compile(self, f: Formula, fresh) -> CompiledQuery:
        if isinstance(f, Compare):
            # > and >= swap the sides; != is the negation of =
            op = "=" if f.op == "!=" else f.op
            left, right = f.left, f.right
            if op in (">", ">="):
                op, left, right = op.replace(">", "<"), right, left
            q = self._comparison(left, op, right, fresh)
            return self._negate(q) if f.op == "!=" else q
        if isinstance(f, (Apply, DfaoTest)):
            return self._applied(f, fresh)
        if isinstance(f, Not):
            return self._negate(self._compile(f.body, fresh))
        if isinstance(f, BoolOp):
            left = self._compile(f.left, fresh)
            right = self._compile(f.right, fresh)
            return self._bool(f.op, left, right)
        if isinstance(f, Quant):
            # A (P1 & ... & Pm) => Q is ~E (P1 & ... & Pm & ~Q), any other A is ~E~
            if f.kind == "E":
                parts = _conjuncts(f.body)
            elif isinstance(f.body, BoolOp) and f.body.op == "=>":
                parts = [*_conjuncts(f.body.left), Not(f.body.right)]
            else:
                parts = [Not(f.body)]
            pieces = [self._compile(p, fresh) for p in parts]
            q = self._plan(pieces, {v for p in pieces for v in p.variables} - set(f.names))
            return self._negate(q) if f.kind == "A" else q
        raise TypeError(f)

    # ---- building blocks

    def _lift(self, q: CompiledQuery, allvars: tuple) -> Automaton:
        if q.variables == allvars:
            return q.aut
        positions = [allvars.index(v) for v in q.variables]
        return au.cylindrify(q.aut, positions, len(allvars))

    # _lift leaves a side's new tracks free, so _bool intersects with the valid
    # tracks V once, after the product: op(x & V, y & V) & V = op(x, y) & V.
    # & needs no V (each track belongs to a side that already restricts it),
    # nor does | over equal variables; =>, <=> and | over different ones do.
    def _bool(self, op: str, a: CompiledQuery, b: CompiledQuery) -> CompiledQuery:
        if op not in self._CONNECTIVES:
            raise CompileError(f"unknown connective {op}")
        allvars = tuple(sorted(set(a.variables) | set(b.variables)))
        out = au.product(self._lift(a, allvars), self._lift(b, allvars), self._CONNECTIVES[op])
        if op != "&" and (op != "|" or a.variables != b.variables):
            out = au.intersect(out, arith.valid_tracks(len(allvars)))
        return CompiledQuery(au.minimize(out), allvars)

    def _negate(self, q: CompiledQuery) -> CompiledQuery:
        flipped = au.complement(q.aut)
        out = au.minimize(au.intersect(flipped, arith.valid_tracks(q.arity)))
        return CompiledQuery(out, q.variables)

    def _exists(self, q: CompiledQuery, name: str) -> CompiledQuery:
        if name not in q.variables:
            return q
        idx = q.variables.index(name)
        try:
            out = au.project(q.aut, idx)  # minimized and canonical
        except au.DeterminizationLimit as e:
            where = f"eliminating {name} (arity {q.arity}, {q.aut.n_states} states)"
            raise au.DeterminizationLimit(f"{where}: {e}") from e
        rest = tuple(v for v in q.variables if v != name)
        return CompiledQuery(out, rest)

    # ---- atoms

    def _applied(self, f, fresh) -> CompiledQuery:
        """`$name(args)` holds where name outputs 1, `Name[t]=@v` where it outputs v."""
        args, value = (f.args, 1) if isinstance(f, Apply) else ((f.arg,), f.value)
        shown = f"${f.name}" if isinstance(f, Apply) else f"{f.name}[...]=@{value}"
        try:
            aut = self._lookup(f.name)
        except KeyError:
            raise CompileError(f"unknown automaton {shown}") from None
        if aut.arity != len(args):
            raise CompileError(
                f"{f.name} takes {aut.arity} arguments, but {shown} gives it {len(args)}"
            )
        if isinstance(f, Apply) and not aut.is_boolean:
            raise CompileError(f"${f.name} is a DFAO; use {f.name}[...]=@v")
        q = self._atom(self._value_dfa(f.name, value), args, fresh)
        return self._negate(q) if isinstance(f, DfaoTest) and f.negated else q

    def _atom(self, rel: Automaton, terms, fresh) -> CompiledQuery:
        """Apply a relation to a tuple of terms; each compound term, and each
        repeat of a variable, becomes a helper v under the comparison v = t."""
        constraints: list[CompiledQuery] = []
        names = []
        for t in terms:
            if isinstance(t, Var) and t.name not in names:
                names.append(t.name)
                continue
            v = f"_{next(fresh)}"
            constraints.append(self._comparison(Var(v), "=", t, fresh))
            names.append(v)
        keep = set().union(*map(_term_vars, terms))
        return self._plan([self._oriented(rel, tuple(names)), *constraints], keep)

    def _comparison(self, left: Term, op: str, right: Term, fresh) -> CompiledQuery:
        """left OP right for OP one of = < <=: one linear atom on left - right,
        joined with the side constraints that keep - and / relational.

        Every division adds a helper track to the atom.  When helpers widen
        it past _ATOM_TRACKS and past the comparison's own variables, a
        subterm t of at most half the width is named by a helper h first:
        the comparison becomes Eh (h = t & left OP right with t as h).
        """
        specs: list[tuple] = []
        helpers: dict = {}  # an equal t/c term on either side shares its helper
        a, j = self._linear(left, fresh, specs, helpers)
        b, k = self._linear(right, fresh, specs, helpers)
        specs.insert(0, (_combine(a, b, -1), j - k, op))
        keep = _term_vars(left) | _term_vars(right)
        widest = max(len(form) for form, _, _ in specs)
        if widest <= max(_ATOM_TRACKS, len(keep)) and widest <= au.MAX_ARITY:
            return self._plan([self._relation(*spec) for spec in specs], keep)
        half = _width(BinTerm("+", left, right)) // 2  # both sides together
        t = max(left, right, key=_width)
        while isinstance(t, BinTerm) and _width(t) > half:
            t = max(t.left, t.right, key=_width)
        if len(keep) >= au.MAX_ARITY or _width(t) < 2:
            shown = f"{term_text(left)} {op} {term_text(right)}"
            raise CompileError(f"{shown} needs {widest} tracks, past the arity limit {au.MAX_ARITY}")
        h = Var(f"_{next(fresh)}")
        rest = Compare(op, _replace(left, t, h), _replace(right, t, h))
        return self._compile(Quant("E", (h.name,), BoolOp("&", Compare("=", h, t), rest)), fresh)

    def _plan(self, pieces: list, keep: set) -> CompiledQuery:
        """Conjoin pieces, projecting each variable outside keep (a block's
        bound variables, an atom's helpers) once no other piece uses it, as
        a block's whole matrix costs most.  Each step joins the pair with the
        fewest variables between them, then the smaller product of state
        counts, then the newest pair (joins are appended)."""

        def drop(q, rest):
            used = {v for r in rest for v in r.variables}
            for v in [x for x in q.variables if x not in keep and x not in used]:
                q = self._exists(q, v)
            return q

        def cost(ij):
            a, b = (pieces[k] for k in ij)
            return len(set(a.variables) | set(b.variables)), a.aut.n_states * b.aut.n_states

        pieces = [drop(q, pieces[:i] + pieces[i + 1:]) for i, q in enumerate(pieces)]
        while len(pieces) > 1:
            i, j = min(reversed(list(itertools.combinations(range(len(pieces)), 2))), key=cost)
            rest = pieces[:i] + pieces[i + 1:j] + pieces[j + 1:]
            pieces = rest + [drop(self._bool("&", pieces[i], pieces[j]), rest)]
        return pieces[0]

    def _linear(self, t: Term, fresh, constraints, helpers) -> tuple[dict, int]:
        """Fold a term into ({variable: coefficient}, constant), adding the
        side constraints that keep - and / relational as (form, k, op).
        helpers maps each t/c term already folded to its helper variable.

        A variable keeps its track even at coefficient 0, as in 0*x or x-x.
        """
        if isinstance(t, Var):
            return {t.name: 1}, 0
        if isinstance(t, Const):
            return {}, t.value
        if t.op in ("+", "-"):
            a, j = self._linear(t.left, fresh, constraints, helpers)
            b, k = self._linear(t.right, fresh, constraints, helpers)
            if t.op == "+":
                return _combine(a, b, 1), j + k
            # natural subtraction: t - u exists only where u <= t
            constraints.append((_combine(b, a, -1), k - j, "<="))
            return _combine(a, b, -1), j - k
        if t.op == "*":
            c, u = (t.left, t.right) if isinstance(t.left, Const) else (t.right, t.left)
            if not isinstance(c, Const):
                raise CompileError("multiplication needs a constant operand")
            form, k = self._linear(u, fresh, constraints, helpers)
            return {v: c.value * a for v, a in form.items()}, c.value * k
        if t.op == "/":
            if not isinstance(t.right, Const) or t.right.value == 0:
                raise CompileError("division needs a positive constant divisor")
            if t in helpers:
                return {helpers[t]: 1}, 0
            c = t.right.value
            form, k = self._linear(t.left, fresh, constraints, helpers)
            z = helpers[t] = f"_{next(fresh)}"
            # z = t/c exactly when c*z <= t <= c*z + c - 1
            constraints.append((_combine({z: c}, form, -1), -k, "<="))
            constraints.append((_combine(form, {z: c}, -1), k - c + 1, "<="))
            return {z: 1}, 0
        raise CompileError(f"unknown term operator {t.op}")

    def _relation(self, form: dict, k: int, op: str) -> CompiledQuery:
        """The linear atom sum(form[v] * v) + k OP 0 over the sorted variables."""
        names = tuple(sorted(form))
        return CompiledQuery(arith.linear(tuple(form[v] for v in names), k, op), names)

    def _oriented(self, rel: Automaton, names: tuple) -> CompiledQuery:
        """Attach a relation's tracks to distinct named variables. rel comes from
        _value_dfa zero-normalized, minimal and canonical, which is the answer
        for sorted names; else cylindrify and minimize keep it so."""
        order = tuple(sorted(names))
        if order == names:
            return CompiledQuery(rel, names)
        positions = [order.index(v) for v in names]
        return CompiledQuery(au.minimize(au.cylindrify(rel, positions, len(order))), order)

    def _value_dfa(self, name: str, value: int) -> Automaton:
        """Where `name` outputs `value`: valid tracks only, zero-normalized and
        minimized, which a `reg` or stored automaton need not be on its own."""
        aut = self._lookup(name)
        hit = self._value_dfa_cache.get((name, value))
        if hit is None or hit[0] is not aut:  # a forced redefinition replaces aut
            outs = (aut.outputs == value).astype(np.int32)
            picked = Automaton(aut.arity, aut.delta, outs, aut.initial)
            valid = au.minimize(au.intersect(picked, arith.valid_tracks(aut.arity)))
            hit = self._value_dfa_cache[(name, value)] = (aut, au.zero_normalize(valid))
        return hit[1]

    def admitted(self, name: str, aut: Automaton) -> None:
        """Take aut, stored as name, as its own _value_dfa for value 1: the
        compiler's output is already valid-only, zero-normalized and minimal."""
        self._value_dfa_cache[(name, 1)] = (aut, aut)


def _conjuncts(f: Formula) -> list:
    """The conjuncts of an &-chain."""
    if isinstance(f, BoolOp) and f.op == "&":
        return _conjuncts(f.left) + _conjuncts(f.right)
    return [f]


def _combine(a: dict, b: dict, sign: int) -> dict:
    """The linear form a + sign*b, keeping every variable of both."""
    return {v: a.get(v, 0) + sign * b.get(v, 0) for v in a.keys() | b.keys()}


# Division helpers may widen a comparison's linear atom to this many tracks,
# or to its own variable count if that is larger.  An atom on n tracks reads
# 2**n symbols and its states grow with the square of its largest weight:
# x_1 + ... + x_7 = y takes 1.5 s and 0.14 GB on one core of a 2-core
# x86-64 host, one more track 7 s and 0.5 GB.
_ATOM_TRACKS = 6


def _width(t: Term) -> int:
    """The tracks folding t can need: its variables and divisions (equal
    divisions share one helper, so divisions count by value)."""

    def tracks(u):
        if isinstance(u, Var):
            return {u.name}
        if isinstance(u, Const):
            return set()
        return ({u} if u.op == "/" else set()) | tracks(u.left) | tracks(u.right)

    return len(tracks(t))


def _replace(t: Term, old: Term, new: Term) -> Term:
    if t == old:
        return new
    if isinstance(t, BinTerm):
        return BinTerm(t.op, _replace(t.left, old, new), _replace(t.right, old, new))
    return t


def term_text(t: Term) -> str:
    """t in the query syntax, every compound operand parenthesized."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return str(t.value)
    return f"({term_text(t.left)}){t.op}({term_text(t.right)})"


# -- sessions --------------------------------------------------------------------


@dataclass
class ScriptReport:
    results: list  # (kind, name, value) value: bool for eval, None otherwise
    @property
    def evals(self):
        return [(n, v) for k, n, v in self.results if k == "eval"]

    @property
    def all_true(self):
        return all(v for _, v in self.evals)


class Session:
    """A catalog of named automata plus the compiler working over it.

    Redefinition policy, for catalog names too: defining a name again is
    allowed when the new automaton is equivalent to the stored one (scripts
    habitually restate definitions); a genuinely different redefinition
    needs define(..., force=True).
    """

    def __init__(self, catalog=None):
        self.catalog = dict(catalog or {})
        self.defs: dict[str, Automaton] = {}
        self.compiler = Compiler(self._lookup)

    def _lookup(self, name: str) -> Automaton:
        if name in self.defs:
            return self.defs[name]
        return self.catalog[name]

    def names(self):
        return sorted(set(self.catalog) | set(self.defs))

    def automaton(self, name: str) -> Automaton:
        try:
            return self._lookup(name)
        except KeyError:
            raise CompileError(f"unknown automaton {name!r}") from None

    def compile(self, source) -> CompiledQuery:
        f = source if isinstance(source, Formula) else parse_formula(source)
        return self.compiler.compile(f)

    def define_automaton(self, name: str, aut: Automaton):
        self._store(name, aut, force=False)
        return aut

    def define(self, name: str, source, force: bool = False) -> Automaton:
        q = self.compile(source)
        self._store(name, q.aut, force)
        if self._lookup(name) is q.aut:  # not an equivalent restatement
            self.compiler.admitted(name, q.aut)
        return q.aut

    def _store(self, name, aut, force):
        if not force and (name in self.defs or name in self.catalog):
            old = self._lookup(name)
            if old.arity == aut.arity and au.equivalent(old, aut):
                return
            raise CompileError(
                f"{name!r} is already defined differently; use force to overwrite"
            )
        self.defs[name] = aut

    def eval(self, source) -> bool:
        q = self.compile(source)
        if q.variables:
            raise CompileError(
                f"eval needs a closed formula; free variables: {', '.join(q.variables)}"
            )
        return q.aut.accepts("")

    def run_command(self, cmd):
        if isinstance(cmd, DefCmd):
            self.define(cmd.name, parse_formula(cmd.body, *cmd.body_pos))
            return ("def", cmd.name, None)
        if isinstance(cmd, EvalCmd):
            return ("eval", cmd.name, self.eval(parse_formula(cmd.body, *cmd.body_pos)))
        if isinstance(cmd, RegCmd):
            aut = au.regex_compile(cmd.pattern, cmd.arity)
            self._store(cmd.name, aut, force=False)
            return ("reg", cmd.name, None)
        if isinstance(cmd, CombineCmd):
            parts = []
            for src_name, value in cmd.parts:
                parts.append((self.automaton(src_name), value))
            dfao = au.combine(parts, arith.valid_tracks(parts[0][0].arity))
            self._store(cmd.name, dfao, force=False)
            return ("combine", cmd.name, None)
        raise TypeError(cmd)

    def run_script(self, text: str, on_result=None) -> ScriptReport:
        results = []
        for cmd in parse_script(text):
            res = self.run_command(cmd)
            results.append(res)
            if on_result:
                on_result(*res)
        return ScriptReport(results)
