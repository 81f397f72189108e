"""Step-script parsing, IO extraction, and evaluation."""

import random

import pytest

from gatedflow import dsl
from gatedflow.dsl import (
    Assign,
    BinOp,
    CallAssign,
    EvalEnv,
    Name,
    Neg,
    Num,
    StepAST,
    evaluate,
    extract_io,
    parse,
    to_source,
    validate,
)
from gatedflow.errors import (
    DivisionByZero,
    DoubleWrite,
    MissingInput,
    ScriptSyntaxError,
    TypeMismatch,
    UnknownCallee,
    UseBeforeAssign,
    WriteBeforeReadSelfLoop,
)


class TestParse:
    def test_two_statements(self):
        ast = parse("temp = x * y\nz = temp")
        assert ast.statements == (
            Assign("temp", BinOp("*", Name("x"), Name("y"))),
            Assign("z", Name("temp")),
        )

    def test_empty_program(self):
        assert parse("").statements == ()
        assert parse("\n\n  \n").statements == ()

    def test_stray_operator_is_a_syntax_error(self):
        with pytest.raises(ScriptSyntaxError):
            parse("z = * x")

    def test_missing_equals(self):
        with pytest.raises(ScriptSyntaxError):
            parse("z x")

    def test_unclosed_paren(self):
        with pytest.raises(ScriptSyntaxError):
            parse("z = (x + 1")

    def test_error_carries_position(self):
        with pytest.raises(ScriptSyntaxError) as err:
            parse("a = 1\nb = + 2")
        assert err.value.line == 2

    def test_precedence(self):
        ast = parse("r = a + b * c")
        assert ast.statements[0].expr == BinOp(
            "+", Name("a"), BinOp("*", Name("b"), Name("c"))
        )

    def test_parens_override_precedence(self):
        ast = parse("r = (a + b) * c")
        assert ast.statements[0].expr == BinOp(
            "*", BinOp("+", Name("a"), Name("b")), Name("c")
        )

    def test_unary_minus(self):
        ast = parse("r = -x + 1")
        assert ast.statements[0].expr == BinOp("+", Neg(Name("x")), Num(1))

    def test_call_statement(self):
        ast = parse("beta = scale(alpha, 2)")
        assert ast.statements[0] == CallAssign(
            "beta", "scale", (Name("alpha"), Num(2))
        )

    def test_number_literals(self):
        ast = parse("a = 2\nb = 2.5\nc = 1e3")
        values = [s.expr.value for s in ast.statements]
        assert values == [2, 2.5, 1000.0]
        assert isinstance(values[0], int)
        assert isinstance(values[2], float)


def random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            if rng.random() < 0.5:
                return Num(rng.randint(0, 9))
            return Num(round(rng.uniform(0.1, 9.9), 3))
        return Name(rng.choice("abc"))
    roll = rng.random()
    if roll < 0.15:
        inner = random_expr(rng, depth - 1)
        return Neg(inner)
    op = rng.choice("+-*/")
    return BinOp(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))


def random_program(rng):
    statements = []
    for i in range(rng.randint(1, 6)):
        if rng.random() < 0.2:
            args = tuple(random_expr(rng, 2) for _ in range(rng.randint(0, 3)))
            statements.append(CallAssign(f"t{i}", "fn", args))
        else:
            statements.append(Assign(f"t{i}", random_expr(rng, 3)))
    return StepAST(tuple(statements))


class TestRoundTrip:
    def test_five_hundred_random_programs(self):
        rng = random.Random(20260823)
        for _ in range(500):
            ast = random_program(rng)
            assert parse(to_source(ast)) == ast
            assert hash(parse(to_source(ast))) == hash(ast)

    def test_toy_component_bodies_round_trip(self):
        for source in (
            "temp = x * y\nz = temp\n",
            "alpha = x + z\n",
            "temp = alpha * 2\nx = temp\ntemp = alpha / 2\ny = temp\n",
            "beta = alpha * 2\n",
        ):
            ast = parse(source)
            assert to_source(ast) == source
            assert parse(to_source(ast)) == ast


class TestExtractIO:
    def test_component_b_body(self):
        sets = extract_io(parse("alpha = x + z"), {"x": "x", "z": "z", "alpha": "alpha"})
        assert sets.reads == {"x", "z"}
        assert sets.writes == {"alpha"}
        assert sets.locals == set()

    def test_component_c_body(self):
        sets = extract_io(
            parse("temp = alpha*2\nx = temp\ntemp = alpha/2\ny = temp"),
            {"x": "x", "y": "y", "alpha": "alpha"},
        )
        assert sets.reads == {"alpha"}
        assert sets.writes == {"x", "y"}
        assert sets.locals == {"temp"}

    def test_self_loop_read_then_write(self):
        sets = extract_io(parse("x = x + 1"), {"x": "x"})
        assert sets.reads == {"x"}
        assert sets.writes == {"x"}

    def test_write_then_read_self_loop_rejected(self):
        with pytest.raises(WriteBeforeReadSelfLoop):
            extract_io(parse("x = 1\ny = x"), {"x": "x", "y": "y"})

    def test_local_read_before_assignment(self):
        with pytest.raises(UseBeforeAssign):
            extract_io(parse("z = w"), {"z": "z"})

    def test_double_write_to_io_name(self):
        with pytest.raises(DoubleWrite):
            extract_io(parse("z = 1\nz = 2"), {"z": "z"})

    def test_extraction_is_purely_syntactic(self):
        ast = parse("temp = alpha * 2\nx = temp")
        io_map = {"x": "x", "alpha": "alpha"}
        first = extract_io(ast, io_map)
        # evaluation with different inputs must not change the sets
        for value in (1, 7.5, -3):
            evaluate(ast, EvalEnv(inputs={"alpha": value}), io_sets=first)
        again = extract_io(ast, io_map)
        assert (first.reads, first.writes, first.locals) == (
            again.reads, again.writes, again.locals,
        )


class TestValidate:
    def test_toy_component_bodies_validate(self):
        validate(parse("temp = x * y\nz = temp"), {"x": "x", "y": "y", "z": "z"})
        validate(parse("alpha = x + z"), {"x": "x", "z": "z", "alpha": "alpha"})
        validate(
            parse("temp = alpha*2\nx = temp\ntemp = alpha/2\ny = temp"),
            {"x": "x", "y": "y", "alpha": "alpha"},
        )
        validate(parse("beta = alpha*2"), {"alpha": "alpha", "beta": "beta"})

    def test_unknown_callee(self):
        with pytest.raises(UnknownCallee):
            validate(parse("z = f(x)"), {"x": "x", "z": "z"})

    def test_known_callee_accepted(self):
        validate(parse("z = f(x)"), {"x": "x", "z": "z"}, subcomponents=["f"])


class TestEvaluate:
    def test_component_a_step(self):
        env = evaluate(
            parse("temp = x*y\nz = temp"),
            EvalEnv(inputs={"x": 1, "y": 1}),
            io_map={"x": "x", "y": "y", "z": "z"},
        )
        assert env.emitted_writes == [("z", 1)]

    def test_component_c_step(self):
        env = evaluate(
            parse("temp = alpha*2\nx = temp\ntemp = alpha/2\ny = temp"),
            EvalEnv(inputs={"alpha": 2}),
            io_map={"x": "x", "y": "y", "alpha": "alpha"},
        )
        assert env.emitted_writes == [("x", 4), ("y", 1.0)]
        assert isinstance(env.emitted_writes[0][1], int)
        assert isinstance(env.emitted_writes[1][1], float)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            evaluate(
                parse("alpha = x / z"),
                EvalEnv(inputs={"x": 1, "z": 0}),
                io_map={"x": "x", "z": "z", "alpha": "alpha"},
            )

    def test_type_mismatch_on_string_operand(self):
        with pytest.raises(TypeMismatch):
            evaluate(
                parse("z = x * 2"),
                EvalEnv(inputs={"x": "oops"}),
                io_map={"x": "x", "z": "z"},
            )

    def test_type_mismatch_messages(self):
        io_map = {"x": "x", "z": "z"}
        with pytest.raises(TypeMismatch) as binary:
            evaluate(parse("z = 1 + x"), EvalEnv(inputs={"x": "oops"}),
                     io_map=io_map)
        assert str(binary.value) == "operator '+' requires a number, got 'oops'"
        with pytest.raises(TypeMismatch) as unary:
            evaluate(parse("z = -x"), EvalEnv(inputs={"x": True}),
                     io_map=io_map)
        assert str(unary.value) == "unary minus requires a number, got True"

    def test_missing_input(self):
        with pytest.raises(MissingInput):
            evaluate(parse("z = x + 1"), EvalEnv(), io_map={"x": "x", "z": "z"})

    def test_lazy_fetch_called_once_per_name(self):
        calls = []

        def fetch(name):
            calls.append(name)
            return 3

        evaluate(
            parse("a = x + x\nz = x + a"),
            EvalEnv(fetch=fetch),
            io_map={"x": "x", "z": "z"},
        )
        assert calls == ["x"]

    def test_subcomponent_call(self):
        env = evaluate(
            parse("mid = scale(alpha)\nbeta = scale(mid)"),
            EvalEnv(inputs={"alpha": 4}, subcomponents={"scale": lambda v: v * 0.5}),
            io_map={"alpha": "alpha", "beta": "beta"},
        )
        assert env.emitted_writes == [("beta", 1.0)]

    def test_division_always_yields_real(self):
        env = evaluate(
            parse("z = x / 2"),
            EvalEnv(inputs={"x": 4}),
            io_map={"x": "x", "z": "z"},
        )
        assert env.emitted_writes == [("z", 2.0)]
        assert isinstance(env.emitted_writes[0][1], float)

    def test_write_callback_fires_in_program_order(self):
        order = []
        evaluate(
            parse("x = 1\ny = 2"),
            EvalEnv(on_write=lambda name, value: order.append(name)),
            io_map={"x": "x", "y": "y"},
        )
        assert order == ["x", "y"]


def eval_tree(expr, values):
    """Independent evaluator: direct recursion over the tree, no AST walk
    shared with the implementation's statement machinery."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Name):
        return values[expr.ident]
    if isinstance(expr, Neg):
        return -eval_tree(expr.operand, values)
    ops = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
    }
    return ops[expr.op](eval_tree(expr.left, values), eval_tree(expr.right, values))


class TestArithmeticConformance:
    def test_thousand_random_trees_match_independent_evaluator(self):
        rng = random.Random(99)
        checked = 0
        while checked < 1000:
            expr = random_expr(rng, 6)
            values = {"a": rng.randint(1, 9), "b": round(rng.uniform(0.5, 4.0), 4),
                      "c": rng.randint(1, 5)}
            try:
                expected = eval_tree(expr, values)
            except ZeroDivisionError:
                continue
            source = "r = " + dsl.to_source_expr(expr)
            env = evaluate(
                parse(source),
                EvalEnv(inputs=values),
                io_map={"a": "a", "b": "b", "c": "c", "r": "r"},
            )
            got = env.emitted_writes[0][1]
            assert got == expected  # bit-exact, identical operation order
            assert type(got) is type(expected)
            checked += 1

    def test_determinism_bit_exact(self):
        source = "m = a * b / c\nr = m - a + 0.1"
        io_map = {"a": "a", "b": "b", "c": "c", "r": "r"}
        results = {
            evaluate(parse(source), EvalEnv(inputs={"a": 3, "b": 7.3, "c": 11}),
                     io_map=io_map).emitted_writes[0][1]
            for _ in range(5)
        }
        assert len(results) == 1
