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

Compilation is structural: atoms instantiate catalog automata cylindrified
onto the sorted free-variable list; compound terms introduce fresh
existentially quantified intermediates constrained through the addition
relation; `A` desugars to `~E~`; every automaton in the pipeline stays
zero-normalized, minimized, and restricted to valid tracks, which is what
makes complementation mean logical negation over numbers (which connectives
must re-restrict, and why, is noted at `Compiler._bool`).
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
    "free_vars",
    "CompiledQuery",
    "Compiler",
    "Session",
    "ScriptReport",
]


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        where = f" (line {line}, column {col})" if line is not None else ""
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


def free_vars(f: Formula) -> set:
    if isinstance(f, Compare):
        return _term_vars(f.left) | _term_vars(f.right)
    if isinstance(f, Apply):
        out = set()
        for a in f.args:
            out |= _term_vars(a)
        return out
    if isinstance(f, DfaoTest):
        return _term_vars(f.arg)
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, BoolOp):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, Quant):
        return free_vars(f.body) - set(f.names)
    raise TypeError(f)


# -- tokenizer ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<msd>\?msd_fib\b)
  | (?P<num>\d+)
  | (?P<dollar>\$[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=>|=>|!=|<=|>=|[&|~=<>+\-*/(),\[\]@])
    """,
    re.VERBOSE,
)


@dataclass
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list:
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind == "ident" and text[0] in "AE":
            # quantifier keyword, possibly glued to its first variable
            toks.append(_Tok("quant", text[0], line, col))
            if len(text) > 1:
                toks.append(_Tok("ident", text[1:], line, col + 1))
        elif kind not in ("ws", "msd"):
            toks.append(_Tok(kind, text, line, col))
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    return toks


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, toks, src=""):
        self.toks = toks
        self.i = 0
        self.src = src

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> _Tok:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of formula")
        self.i += 1
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.peek()
        if tok is None or tok.text != text:
            got = tok.text if tok else "end of input"
            where = (tok.line, tok.col) if tok else (None, None)
            raise ParseError(f"expected {text!r}, got {got!r}", *where)
        return self.next()

    # formula := iff-chain; quantifiers scope as far right as they can
    def formula(self) -> Formula:
        node = self.implication()
        while self.peek() and self.peek().text == "<=>":
            self.next()
            node = BoolOp("<=>", node, self.implication())
        return node

    def implication(self) -> Formula:
        node = self.disjunction()
        if self.peek() and self.peek().text == "=>":
            self.next()
            return BoolOp("=>", node, self.implication())
        return node

    def disjunction(self) -> Formula:
        node = self.conjunction()
        while self.peek() and self.peek().text == "|":
            self.next()
            node = BoolOp("|", node, self.conjunction())
        return node

    def conjunction(self) -> Formula:
        node = self.unary()
        while self.peek() and self.peek().text == "&":
            self.next()
            node = BoolOp("&", node, self.unary())
        return node

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of formula")
        if tok.text == "~":
            self.next()
            return Not(self.unary())
        if tok.kind == "quant":
            self.next()
            names = [self._var_name()]
            while self.peek() and self.peek().text == ",":
                self.next()
                names.append(self._var_name())
            return Quant(tok.text, tuple(names), self.formula())
        return self.primary()

    def _var_name(self) -> str:
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError(f"expected a variable, got {tok.text!r}", tok.line, tok.col)
        return tok.text

    def primary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of formula")
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
            node = self.formula()
            self.expect(")")
            return node
        return self._comparison()

    def _apply(self) -> Formula:
        tok = self.next()
        name = tok.text[1:]
        self.expect("(")
        args = [self.term()]
        while self.peek() and self.peek().text == ",":
            self.next()
            args.append(self.term())
        self.expect(")")
        return Apply(name, tuple(args))

    def _dfao_test(self) -> Formula:
        tok = self.next()
        self.expect("[")
        arg = self.term()
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
        left = self.term()
        tok = self.peek()
        if tok is None or tok.text not in self._RELOPS:
            got = tok.text if tok else "end of input"
            where = (tok.line, tok.col) if tok else (None, None)
            raise ParseError(f"expected a comparison operator, got {got!r}", *where)
        self.next()
        right = self.term()
        return Compare(tok.text, left, right)

    def term(self) -> Term:
        node = self.factor()
        while self.peek() and self.peek().text in ("+", "-"):
            op = self.next().text
            node = BinTerm(op, node, self.factor())
        return node

    def factor(self) -> Term:
        node = self.term_atom()
        while self.peek() and self.peek().text in ("*", "/"):
            op = self.next().text
            node = BinTerm(op, node, self.term_atom())
        return node

    def term_atom(self) -> Term:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of term")
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
            node = self.term()
            self.expect(")")
            return node
        raise ParseError(f"unexpected {tok.text!r} in term", tok.line, tok.col)


def parse_formula(src: str) -> Formula:
    parser = _Parser(_tokenize(src), src)
    node = parser.formula()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input starting at {tok.text!r}", tok.line, tok.col)
    return node


# -- script commands ------------------------------------------------------------


@dataclass
class DefCmd:
    name: str
    body: str
    line: int


@dataclass
class EvalCmd:
    name: str
    body: str
    line: int


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


def parse_script(src: str) -> list:
    """Split a script into def/eval/reg/combine commands.

    Quoted strings may span lines; `#` starts a comment outside quotes;
    a trailing `:` after each command is accepted.
    """
    cmds = []
    i = 0
    n = len(src)
    line = 1

    def skip_space(i, line):
        while i < n:
            if src[i] == "#":
                while i < n and src[i] != "\n":
                    i += 1
            elif src[i] == "\n":
                line += 1
                i += 1
            elif src[i].isspace() or src[i] == ":":
                i += 1
            else:
                break
        return i, line

    def read_word(i):
        j = i
        while j < n and (src[j].isalnum() or src[j] in "_?"):
            j += 1
        return src[i:j], j

    def read_quoted(i, line):
        if i >= n or src[i] != '"':
            raise ParseError("expected a quoted string", line, None)
        j = i + 1
        start_line = line
        while j < n and src[j] != '"':
            if src[j] == "\n":
                line += 1
            j += 1
        if j >= n:
            raise ParseError("unterminated string", start_line, None)
        return src[i + 1 : j], j + 1, line

    while True:
        i, line = skip_space(i, line)
        if i >= n:
            break
        word, j = read_word(i)
        cmd_line = line
        i = j
        i, line = skip_space(i, line)
        if word in ("def", "eval"):
            name, i = read_word(i)
            i, line = skip_space(i, line)
            body, i, line = read_quoted(i, line)
            cls = DefCmd if word == "def" else EvalCmd
            cmds.append(cls(name, body, cmd_line))
        elif word == "reg":
            name, i = read_word(i)
            arity = 0
            while True:
                i, line = skip_space(i, line)
                w, j = read_word(i)
                if w == "msd_fib":
                    arity += 1
                    i = j
                else:
                    break
            if arity == 0:
                raise ParseError("reg needs at least one msd_fib track", cmd_line, None)
            pattern, i, line = read_quoted(i, line)
            cmds.append(RegCmd(name, arity, pattern, cmd_line))
        elif word == "combine":
            name, i = read_word(i)
            parts = []
            while True:
                i, line = skip_space(i, line)
                if i >= n or src[i] == "\n":
                    break
                w, j = read_word(i)
                if not w:
                    break
                i = j
                if i < n and src[i] == "=":
                    i += 1
                    num, j = read_word(i)
                    i = j
                    parts.append((w, int(num)))
                else:
                    parts.append((w, 1))
                nxt, _ = read_word(skip_space(i, line)[0])
                if nxt in ("def", "eval", "reg", "combine"):
                    break
            if not parts:
                raise ParseError("combine needs at least one part", cmd_line, None)
            cmds.append(CombineCmd(name, parts, cmd_line))
        elif word:
            raise ParseError(f"unknown command {word!r}", cmd_line, None)
        else:
            raise ParseError(f"unexpected character {src[i]!r}", line, None)
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
            terms = (f.left, f.right)
            if op in (">", ">="):
                op, terms = op.replace(">", "<"), terms[::-1]
            rel = {"=": arith.eq, "<": arith.lt, "<=": arith.leq}[op]()
            q = self._atom(rel, terms, fresh)
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
            # A is ~E~; last-listed variables go first: eliminating the most
            # applied (usually value-side) track keeps the powerset small
            body = self._compile(f.body, fresh)
            if f.kind == "A":
                body = self._negate(body)
            for name in reversed(f.names):
                body = self._exists(body, name)
            return self._negate(body) if f.kind == "A" else body
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
        """Apply a relation to a tuple of terms.

        Each compound term becomes a helper variable under relation
        constraints.  Joining pieces that share variables first and dropping
        a helper the moment its last constraint is merged keeps the
        intermediate arity low; carrying every helper to the end is the main
        compile-time cost otherwise.
        """
        constraints: list[CompiledQuery] = []
        names = tuple(self._flatten(t, fresh, constraints) for t in terms)
        keep = set().union(*map(_term_vars, terms))
        acc = self._oriented(rel, names)
        while constraints:
            shared = [len(set(q.variables) & set(acc.variables)) for q in constraints]
            acc = self._bool("&", acc, constraints.pop(shared.index(max(shared))))
            later = {v for q in constraints for v in q.variables}
            for v in [x for x in acc.variables if x not in keep and x not in later]:
                acc = self._exists(acc, v)
        return acc

    def _flatten(self, t: Term, fresh, constraints) -> str:
        """Reduce a term to a variable, accumulating relation constraints."""
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Const):
            name = f"_{next(fresh)}"
            constraints.append(CompiledQuery(arith.const(t.value), (name,)))
            return name
        left_raw, right_raw = t.left, t.right
        if t.op == "*":
            if isinstance(left_raw, Const) and isinstance(right_raw, Const):
                name = f"_{next(fresh)}"
                constraints.append(
                    CompiledQuery(arith.const(left_raw.value * right_raw.value), (name,))
                )
                return name
            if isinstance(right_raw, Const):
                left_raw, right_raw = right_raw, left_raw
            if not isinstance(left_raw, Const):
                raise CompileError("multiplication needs a constant operand")
            c = left_raw.value
            v = self._flatten(right_raw, fresh, constraints)
            name = f"_{next(fresh)}"
            if c == 0:
                constraints.append(CompiledQuery(arith.const(0), (name,)))
            else:
                rel = arith.const_mul(c)  # tracks (n, c*n)
                constraints.append(self._oriented(rel, (v, name)))
            return name
        if t.op == "/":
            if not isinstance(right_raw, Const) or right_raw.value == 0:
                raise CompileError("division needs a positive constant divisor")
            v = self._flatten(left_raw, fresh, constraints)
            name = f"_{next(fresh)}"
            rel = arith.const_div(right_raw.value)  # tracks (n, n//c)
            constraints.append(self._oriented(rel, (v, name)))
            return name
        if t.op == "+":
            a = self._flatten(left_raw, fresh, constraints)
            b = self._flatten(right_raw, fresh, constraints)
            name = f"_{next(fresh)}"
            constraints.append(self._oriented(arith.add(), (a, b, name)))
            return name
        if t.op == "-":
            # relational natural subtraction: u + right = left
            a = self._flatten(left_raw, fresh, constraints)
            b = self._flatten(right_raw, fresh, constraints)
            name = f"_{next(fresh)}"
            constraints.append(self._oriented(arith.add(), (name, b, a)))
            return name
        raise CompileError(f"unknown term operator {t.op}")

    def _oriented(self, rel: Automaton, names: tuple) -> CompiledQuery:
        """Attach a relation's tracks to named variables (handling repeats)."""
        if len(set(names)) == len(names):
            order = tuple(sorted(names))
            positions = [order.index(v) for v in names]
            aut = au.minimize(au.cylindrify(rel, positions, len(order)))
            if not aut.zero_normalized:
                aut = au.zero_normalize(aut)
            return CompiledQuery(aut, order)
        # duplicated variable: diagonalize through equality
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

    Redefinition policy: defining a name again is allowed when the new
    automaton is equivalent to the stored one (scripts habitually restate
    definitions); a genuinely different redefinition needs force=True.
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

    def define_automaton(self, name: str, aut: Automaton, force: bool = False):
        self._store(name, aut, force)
        return aut

    def define(self, name: str, source, force: bool = False) -> Automaton:
        q = self.compile(source)
        self._store(name, q.aut, force)
        return q.aut

    def _store(self, name, aut, force):
        if not force and name in self.defs:
            old = self.defs[name]
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
            self.define(cmd.name, cmd.body)
            return ("def", cmd.name, None)
        if isinstance(cmd, EvalCmd):
            return ("eval", cmd.name, self.eval(cmd.body))
        if isinstance(cmd, RegCmd):
            aut = au.regex_compile(cmd.pattern, cmd.arity)
            self._store(cmd.name, aut, force=False)
            return ("reg", cmd.name, None)
        if isinstance(cmd, CombineCmd):
            parts = []
            for src_name, value in cmd.parts:
                parts.append((self.automaton(src_name), value))
            dfao = au.combine(parts, domain=arith.valid_tracks(parts[0][0].arity))
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
