"""The step-scripting mini-language.

Components describe their per-step logic in a tiny assignment language:

    temp = alpha * 2
    x = temp
    beta = scale(alpha)

The parser builds an AST, ``extract_io`` infers which names are channel
reads and writes by walking that AST against the component's io_map, and
``evaluate`` runs one step. Everything here is pure and reentrant; the
runtime owns all synchronisation.

Grammar (newline-separated statements):

    program   := { statement NEWLINE }
    statement := ident "=" expr | ident "=" ident "(" [expr {"," expr}] ")"
    expr      := term { ("+"|"-") term }
    term      := factor { ("*"|"/") factor }
    factor    := ["-"] ( NUMBER | ident | "(" expr ")" )
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


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
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class CallAssign:
    target: str
    callee: str
    args: tuple[Expr, ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


Statement = Assign | CallAssign


@dataclass(frozen=True)
class StepAST:
    statements: tuple[Statement, ...]

    def __iter__(self):
        return iter(self.statements)


@dataclass
class IOSets:
    reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)
    locals: set[str] = field(default_factory=set)


# --- lexer -----------------------------------------------------------------

_OPERATORS = set("+-*/=(),")


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT NUMBER OP NEWLINE EOF
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            tokens.append(_Token("NEWLINE", "\n", line, col))
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and source[i] != "\n":
                i += 1
        elif ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            startcol = col
            while i < n and (source[i].isdigit() or source[i] == "."):
                i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    i = j
                    while i < n and source[i].isdigit():
                        i += 1
            text = source[start:i]
            if text.count(".") > 1:
                raise ScriptSyntaxError(f"malformed number {text!r}", line, startcol)
            col += i - start
            tokens.append(_Token("NUMBER", text, line, startcol))
        elif ch.isalpha() or ch == "_":
            start = i
            startcol = col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            col += i - start
            tokens.append(_Token("IDENT", source[start:i], line, startcol))
        elif ch in _OPERATORS:
            tokens.append(_Token("OP", ch, line, col))
            i += 1
            col += 1
        else:
            raise ScriptSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
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
            return CallAssign(
                target.text, callee.text, tuple(args), (target.line, target.col)
            )
        expr = self.parse_expr()
        return Assign(target.text, expr, (target.line, target.col))

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
            return Name(tok.text, (tok.line, tok.col))
        if self.at_op("("):
            self.advance()
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        self.error("number, identifier or '('")


def parse(source: str) -> StepAST:
    """Parse a step/init program into its AST."""
    return _Parser(_tokenize(source)).parse_program()


# --- pretty printer --------------------------------------------------------


def _emit_operand(expr: Expr) -> str:
    text = to_source_expr(expr)
    if isinstance(expr, (BinOp, Neg)):
        return f"({text})"
    return text


def to_source_expr(expr: Expr) -> str:
    if isinstance(expr, Num):
        return repr(expr.value)
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
    sets = IOSets()
    for stmt in ast:
        exprs = stmt.args if isinstance(stmt, CallAssign) else (stmt.expr,)
        for expr in exprs:
            for name in _expr_names(expr):
                ident = name.ident
                if ident in io_keys:
                    if ident in sets.writes:
                        raise WriteBeforeReadSelfLoop(
                            f"{ident!r} is read after being written in the same body"
                        )
                    sets.reads.add(ident)
                elif ident not in sets.locals:
                    raise UseBeforeAssign(
                        f"{ident!r} is not an io_map key and has not been assigned"
                    )
        target = stmt.target
        if target in io_keys:
            if target in sets.writes:
                raise DoubleWrite(f"io name {target!r} assigned twice in one body")
            sets.writes.add(target)
        else:
            sets.locals.add(target)
    return sets


def validate(ast: StepAST, io_map, subcomponents=()) -> IOSets:
    """Front-load extraction and callee-resolution errors at construction."""
    sets = extract_io(ast, io_map)
    known = set(subcomponents)
    for stmt in ast:
        if isinstance(stmt, CallAssign) and stmt.callee not in known:
            raise UnknownCallee(f"no subcomponent bound for callee {stmt.callee!r}")
    return sets


# --- evaluation ------------------------------------------------------------

_NUMERIC = (int, float)


class EvalEnv:
    """Execution state for one step.

    ``fetch`` is called once per distinct read name at its first use and the
    result cached, matching the one-observe-per-step contract. ``on_write``
    fires in program order as io writes are emitted.
    """

    def __init__(self, inputs=None, subcomponents=None, fetch=None, on_write=None):
        self.inputs = dict(inputs or {})
        self.subcomponents = dict(subcomponents or {})
        self.locals: dict[str, object] = {}
        self.emitted_writes: list[tuple[str, object]] = []
        self._fetch = fetch
        self._on_write = on_write

    def lookup_input(self, name: str):
        if name not in self.inputs:
            if self._fetch is None:
                raise MissingInput(f"no value supplied for read name {name!r}")
            self.inputs[name] = self._fetch(name)
        return self.inputs[name]


def _require_number(value, op=None):
    """``op`` is the binary operator using ``value``, or None for unary
    minus; the error message is built only when the check fails."""
    if isinstance(value, bool) or not isinstance(value, _NUMERIC):
        context = "unary minus" if op is None else f"operator {op!r}"
        raise TypeMismatch(f"{context} requires a number, got {value!r}")
    return value


def _eval_expr(expr: Expr, env: EvalEnv, io_sets: IOSets):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Name):
        ident = expr.ident
        if ident in env.locals:
            return env.locals[ident]
        if ident in io_sets.reads:
            return env.lookup_input(ident)
        raise MissingInput(f"unbound name {ident!r}")
    if isinstance(expr, Neg):
        return -_require_number(_eval_expr(expr.operand, env, io_sets))
    if isinstance(expr, BinOp):
        op = expr.op
        left = _require_number(_eval_expr(expr.left, env, io_sets), op)
        right = _require_number(_eval_expr(expr.right, env, io_sets), op)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if right == 0:
            raise DivisionByZero(f"{left} / {right}")
        return left / right
    raise TypeError(f"not an expression node: {expr!r}")


def evaluate(ast: StepAST, env: EvalEnv, io_sets: IOSets | None = None,
             io_map=None) -> EvalEnv:
    """Run one step body. Statements execute in program order.

    Integer arithmetic is exact, reals are IEEE doubles, mixed operands
    promote to real, and division always yields a real.
    """
    if io_sets is None:
        if io_map is None:
            raise ValueError("evaluate needs io_sets or io_map")
        io_sets = extract_io(ast, io_map)
    for stmt in ast:
        if isinstance(stmt, CallAssign):
            try:
                fn = env.subcomponents[stmt.callee]
            except KeyError:
                raise UnknownCallee(
                    f"no subcomponent bound for callee {stmt.callee!r}"
                ) from None
            args = [_eval_expr(a, env, io_sets) for a in stmt.args]
            value = fn(*args)
        else:
            value = _eval_expr(stmt.expr, env, io_sets)
        if stmt.target in io_sets.writes:
            env.emitted_writes.append((stmt.target, value))
            if env._on_write is not None:
                env._on_write(stmt.target, value)
        else:
            env.locals[stmt.target] = value
    return env
