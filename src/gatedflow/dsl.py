"""The step-scripting mini-language.

Components describe their per-step logic in a tiny assignment language:

    temp = alpha * 2
    x = temp
    beta = scale(alpha)

The parser builds an AST, ``extract_io`` infers which names are channel
reads and writes by walking that AST against the component's io_map, and
``evaluate`` runs one step. ``parse`` is memoised on the source text, so
equal text gives one shared, frozen ``StepAST``, which keeps what is derived
from the body. ``validate`` walks a body once per distinct source and io_map
keys. A body is compiled once per distinct source and IO sets into one
Python function, ``step(lookup, emit, callees)``: it calls ``lookup(name)``
at a read's first use and ``emit(name, value)`` once per io write, in
program order, holds locals in Python variables and takes callees from
``callees``. ``evaluate(ast, io_sets, lookup, emit, callees)`` runs one
step through it, and is the one way to run a body. Everything here is pure
and reentrant; the runtime owns all synchronisation.

The token pattern ``_TOKEN`` is the lexical grammar: blanks and ``#``
comments between tokens are skipped. Grammar (newline-separated statements):

    program   := { statement NEWLINE }
    statement := ident "=" expr | ident "=" ident "(" [expr {"," expr}] ")"
    expr      := term { ("+"|"-") term }
    term      := factor { ("*"|"/") factor }
    factor    := ["-"] ( NUMBER | ident | "(" expr ")" )
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from types import MappingProxyType

from .errors import (
    DivisionByZero,
    DoubleWrite,
    MissingInput,
    ScriptSyntaxError,
    TypeMismatch,
    UnknownCallee,
    UseBeforeAssign,
    WriteBeforeReadSelfLoop,
)

# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: int | float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


Expr = Num | Name | Neg | BinOp


@dataclass(frozen=True)
class Assign:
    target: str
    expr: Expr


@dataclass(frozen=True)
class CallAssign:
    target: str
    callee: str
    args: tuple[Expr, ...]


Statement = Assign | CallAssign


@dataclass(frozen=True)
class StepAST:
    statements: tuple[Statement, ...]

    def __post_init__(self):
        # this body's IO sets, by io keys, and its step functions, by (reads,
        # writes); not part of the value, so equality, hashing and pickling
        # ignore them
        object.__setattr__(self, "_io_sets", {})
        object.__setattr__(self, "_compiled", {})

    def __reduce__(self):
        return StepAST, (self.statements,)

    def __iter__(self):
        return iter(self.statements)


@dataclass(frozen=True)
class IOSets:
    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()
    locals: frozenset[str] = frozenset()


# --- lexer -----------------------------------------------------------------

# one named alternative per token kind, tried in this order at each offset; a
# NUMBER takes ASCII digits only (``\d`` and str.isdigit() also take "١" and
# "²"), and an IDENT, a run of ``\w``, must start with a letter or "_"
_TOKEN = re.compile(r"""
    (?P<NEWLINE>\n)
  | (?P<SKIP>[ \t\r]+ | \#[^\n]*)
  | (?P<NUMBER>(?:[0-9]|\.[0-9])[0-9.]*(?:[eE][+-]?[0-9]+)?)
  | (?P<IDENT>\w+)
  | (?P<OP>[-+*/=(),])
  | (?P<ERROR>.)
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT NUMBER OP NEWLINE EOF
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        kind, text = match.lastgroup, match.group()
        if kind == "SKIP":
            continue
        col = match.start() - line_start + 1
        if kind == "ERROR" or kind == "IDENT" and not (
                text[0].isalpha() or text[0] == "_"):
            raise ScriptSyntaxError(f"unexpected character {text[0]!r}", line, col)
        if kind == "NUMBER" and text.count(".") > 1:
            raise ScriptSyntaxError(f"malformed number {text!r}", line, col)
        tokens.append(_Token(kind, text, line, col))
        if kind == "NEWLINE":
            line, line_start = line + 1, match.end()
    tokens.append(_Token("EOF", "", line, len(source) - line_start + 1))
    return tokens


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tok
        self.i += 1
        return tok

    def error(self, expected: str):
        tok = self.tok
        shown = tok.text or "end of input"
        raise ScriptSyntaxError(f"expected {expected}, found {shown!r}", tok.line, tok.col)

    def expect_op(self, text: str) -> _Token:
        if self.tok.kind == "OP" and self.tok.text == text:
            return self.advance()
        self.error(f"{text!r}")

    def at_op(self, *texts: str) -> bool:
        return self.tok.kind == "OP" and self.tok.text in texts

    def parse_program(self) -> StepAST:
        statements = []
        while self.tok.kind != "EOF":
            if self.tok.kind == "NEWLINE":
                self.advance()
                continue
            statements.append(self.parse_statement())
            if self.tok.kind == "NEWLINE":
                self.advance()
            elif self.tok.kind != "EOF":
                self.error("newline")
        return StepAST(tuple(statements))

    def parse_statement(self) -> Statement:
        if self.tok.kind != "IDENT":
            self.error("identifier")
        target = self.advance()
        self.expect_op("=")
        # lookahead for the call form: ident "(" only directly after "="
        if (
            self.tok.kind == "IDENT"
            and self.tokens[self.i + 1].kind == "OP"
            and self.tokens[self.i + 1].text == "("
        ):
            callee = self.advance()
            self.expect_op("(")
            args = []
            if not self.at_op(")"):
                args.append(self.parse_expr())
                while self.at_op(","):
                    self.advance()
                    args.append(self.parse_expr())
            self.expect_op(")")
            return CallAssign(target.text, callee.text, tuple(args))
        return Assign(target.text, self.parse_expr())

    def parse_expr(self) -> Expr:
        left = self.parse_term()
        while self.at_op("+", "-"):
            op = self.advance().text
            left = BinOp(op, left, self.parse_term())
        return left

    def parse_term(self) -> Expr:
        left = self.parse_factor()
        while self.at_op("*", "/"):
            op = self.advance().text
            left = BinOp(op, left, self.parse_factor())
        return left

    def parse_factor(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            return Neg(self.parse_atom())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.tok
        if tok.kind == "NUMBER":
            self.advance()
            if "." in tok.text or "e" in tok.text or "E" in tok.text:
                return Num(float(tok.text))
            return Num(int(tok.text))
        if tok.kind == "IDENT":
            self.advance()
            return Name(tok.text)
        if self.at_op("("):
            self.advance()
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        self.error("number, identifier or '('")


@functools.lru_cache(maxsize=1024)
def _parse_text(source: str) -> StepAST:
    return _Parser(_tokenize(source)).parse_program()


def parse(source: str) -> StepAST:
    """Parse a step/init program into its AST.

    Equal text gives the same frozen instance, and with it the step
    functions compiled for it; a syntax error is raised on every call.
    """
    return _parse_text(source)


# --- pretty printer --------------------------------------------------------


def _emit_operand(expr: Expr) -> str:
    text = to_source_expr(expr)
    if isinstance(expr, (BinOp, Neg)):
        return f"({text})"
    return text


def _literal(value) -> str:
    # 1e999 is how an overflowing literal reads back as inf; nan has no text
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            raise ValueError("nan has no literal in the step language")
        return "1e999" if value > 0 else "-1e999"
    return repr(value)


def to_source_expr(expr: Expr) -> str:
    if isinstance(expr, Num):
        return _literal(expr.value)
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, Neg):
        return "-" + _emit_operand(expr.operand)
    if isinstance(expr, BinOp):
        return f"{_emit_operand(expr.left)} {expr.op} {_emit_operand(expr.right)}"
    raise TypeError(f"not an expression node: {expr!r}")


def to_source(ast: StepAST) -> str:
    """Render an AST back to parseable source (structure-preserving)."""
    lines = []
    for stmt in ast:
        if isinstance(stmt, CallAssign):
            args = ", ".join(to_source_expr(a) for a in stmt.args)
            lines.append(f"{stmt.target} = {stmt.callee}({args})")
        else:
            lines.append(f"{stmt.target} = {to_source_expr(stmt.expr)}")
    return "\n".join(lines) + ("\n" if lines else "")


# --- read/write set extraction ---------------------------------------------


def _expr_names(expr: Expr):
    if isinstance(expr, Name):
        yield expr
    elif isinstance(expr, Neg):
        yield from _expr_names(expr.operand)
    elif isinstance(expr, BinOp):
        yield from _expr_names(expr.left)
        yield from _expr_names(expr.right)


def extract_io(ast: StepAST, io_map) -> IOSets:
    """Infer channel reads and writes by walking statements in program order.

    An io_map key read before the component assigns it becomes a read; an
    io_map key that is assigned becomes a write; any other name is a local
    and must be assigned before use.
    """
    io_keys = set(io_map)
    reads, writes, locals_ = set(), set(), set()
    for stmt in ast:
        exprs = stmt.args if isinstance(stmt, CallAssign) else (stmt.expr,)
        for expr in exprs:
            for name in _expr_names(expr):
                ident = name.ident
                if ident in io_keys:
                    if ident in writes:
                        raise WriteBeforeReadSelfLoop(
                            f"{ident!r} is read after being written in the same body"
                        )
                    reads.add(ident)
                elif ident not in locals_:
                    raise UseBeforeAssign(
                        f"{ident!r} is not an io_map key and has not been assigned"
                    )
        target = stmt.target
        if target in io_keys:
            if target in writes:
                raise DoubleWrite(f"io name {target!r} assigned twice in one body")
            writes.add(target)
        else:
            locals_.add(target)
    return IOSets(frozenset(reads), frozenset(writes), frozenset(locals_))


def _io_sets(ast: StepAST, io_map) -> IOSets:
    """``extract_io`` of ``ast`` under the keys of ``io_map``, walked on the
    first call for those keys and kept on the AST. A body that raises keeps
    nothing, so it raises on every call."""
    keys = frozenset(io_map)
    sets = ast._io_sets.get(keys)
    if sets is None:
        sets = ast._io_sets[keys] = extract_io(ast, keys)
    return sets


def validate(ast: StepAST, io_map, subcomponents=()) -> IOSets:
    """Front-load extraction and callee-resolution errors at construction.

    The body is analysed once per distinct io_map keys, as it is compiled
    once per IO sets: the IO sets are kept on the AST, which ``parse``
    shares between equal texts. Callees are checked against
    ``subcomponents`` on every call.
    """
    sets = _io_sets(ast, io_map)
    known = set(subcomponents)
    for stmt in ast:
        if isinstance(stmt, CallAssign) and stmt.callee not in known:
            raise UnknownCallee(f"no subcomponent bound for callee {stmt.callee!r}")
    return sets


# --- compilation -----------------------------------------------------------
#
# ``evaluate`` runs one generated Python function per (body, reads, writes).
# The function is straight-line code: every subexpression lands in its own
# variable, so operands are fetched, checked and combined in the tree's
# left-to-right order, and a statement that raises leaves the writes before
# it emitted. DSL names never appear in the generated text: every value
# lives in a variable ``t<i>`` and every literal, name and operator is a
# global ``k<i>`` bound to the object itself, so no DSL name can clash with
# Python and no literal goes through its text.


def _not_a_number(value, op):
    """The exact rule behind the generated ``type(v) is ...`` fast path:
    ``bool`` is rejected and any ``int``/``float`` subclass passes. ``op``
    is the binary operator using ``value``, or None for unary minus."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        context = "unary minus" if op is None else f"operator {op!r}"
        raise TypeMismatch(f"{context} requires a number, got {value!r}")


def _division_by_zero(left, right):
    raise DivisionByZero(f"{left} / {right}")


def _unbound(ident):
    raise MissingInput(f"unbound name {ident!r}")


def _callee(subcomponents, name):
    try:
        return subcomponents[name]
    except KeyError:
        raise UnknownCallee(f"no subcomponent bound for callee {name!r}") from None


class _Codegen:
    def __init__(self, reads, writes):
        self.reads = reads
        self.writes = writes
        self.globals = {"_num": _not_a_number, "_div0": _division_by_zero,
                        "_unbound": _unbound, "_callee": _callee}
        self.lines = []
        self.names = {}       # DSL name -> variable holding its value here
        self.numbers = set()  # variables whose value passed the number check
        self.count = 0

    def fresh(self, prefix):
        self.count += 1
        return f"{prefix}{self.count}"

    def const(self, value):
        var = self.fresh("k")
        self.globals[var] = value
        return var

    def temp(self, code):
        var = self.fresh("t")
        self.lines.append(f"{var} = {code}")
        return var

    def name(self, ident):
        var = self.names.get(ident)
        if var is None:  # first use: a read, or a name the io sets leave unbound
            source = "lookup" if ident in self.reads else "_unbound"
            var = self.names[ident] = self.temp(f"{source}({self.const(ident)})")
        return var

    def number(self, var, op):
        if var not in self.numbers:
            self.numbers.add(var)
            self.lines.append(
                f"if type({var}) is not float and type({var}) is not int: "
                f"_num({var}, {self.const(op)})")

    def expr(self, node):
        if isinstance(node, Num):
            var = self.const(node.value)
            if type(node.value) in (int, float):
                self.numbers.add(var)
            return var
        if isinstance(node, Name):
            return self.name(node.ident)
        if isinstance(node, Neg):
            operand = self.expr(node.operand)
            self.number(operand, None)
            return self.temp(f"-{operand}")
        if isinstance(node, BinOp):
            left = self.expr(node.left)
            self.number(left, node.op)
            right = self.expr(node.right)
            self.number(right, node.op)
            if node.op in ("+", "-", "*"):
                return self.temp(f"{left} {node.op} {right}")
            self.lines.append(f"if {right} == 0: _div0({left}, {right})")
            return self.temp(f"{left} / {right}")
        raise TypeError(f"not an expression node: {node!r}")

    def statement(self, stmt):
        if isinstance(stmt, CallAssign):
            fn = self.temp(f"_callee(callees, {self.const(stmt.callee)})")
            args = [self.expr(arg) for arg in stmt.args]
            value = self.temp(f"{fn}({', '.join(args)})")
        else:
            value = self.expr(stmt.expr)
        if stmt.target in self.writes:
            self.lines.append(f"emit({self.const(stmt.target)}, {value})")
        else:
            self.names[stmt.target] = value

    def source(self):
        return "def step(lookup, emit, callees):\n" + "".join(
            f"    {line}\n" for line in self.lines or ["pass"])


def _compile(ast: StepAST, reads, writes):
    """Generate and compile the step function of ``ast``; uncached."""
    gen = _Codegen(reads, writes)
    for stmt in ast:
        gen.statement(stmt)
    exec(compile(gen.source(), "<gatedflow.dsl step>", "exec"), gen.globals)
    return gen.globals["step"]


def compile_body(ast: StepAST, io_sets: IOSets):
    """The step function of ``ast`` under ``io_sets``, compiled on first use.

    Functions are kept on the AST instance, keyed by the read and write sets,
    so a body parsed from equal text (``parse`` shares the instance) compiles
    once per distinct IO sets.
    """
    key = (frozenset(io_sets.reads), frozenset(io_sets.writes))
    fn = ast._compiled.get(key)
    if fn is None:
        fn = ast._compiled[key] = _compile(ast, *key)
    return fn


_NO_CALLEES = MappingProxyType({})  # the callees of a body that calls none


def evaluate(ast: StepAST, io_sets: IOSets, lookup, emit,
             callees=_NO_CALLEES) -> None:
    """Run one step body: ``compile_body(ast, io_sets)(lookup, emit, callees)``.

    ``lookup(name)`` is called once per read name, at its first use, and
    ``emit(name, value)`` once per io write, in program order; a callee is
    taken from ``callees`` when its statement runs. Integer arithmetic is
    exact, reals are IEEE doubles, mixed operands promote to real, and
    division always yields a real.
    """
    try:  # the key compile_body makes, when the sets are frozensets
        fn = ast._compiled[io_sets.reads, io_sets.writes]
    except (KeyError, TypeError):  # first use, or sets that do not hash
        fn = compile_body(ast, io_sets)
    fn(lookup, emit, callees)
