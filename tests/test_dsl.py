"""Step-script parsing, IO extraction, and evaluation."""

import math
import pickle
import random

import pytest

from gatedflow import dsl
from gatedflow.dsl import (
    Assign,
    BinOp,
    CallAssign,
    IOSets,
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
    FlowError,
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

    @pytest.mark.parametrize("source, column", [
        ("x = \u00b2", 5),        # superscript two
        ("x = \u0661\u0662", 5),  # Arabic-Indic twelve
        ("x = 1\u00b2", 6),
        ("x = 1e\u0662", 6),      # "e\u0662" is a name, not an exponent
    ])
    def test_numbers_take_ascii_digits_only(self, source, column):
        with pytest.raises(ScriptSyntaxError) as err:
            parse(source)
        assert (err.value.line, err.value.column) == (1, column)

    @pytest.mark.parametrize("source, message, line, column", [
        ("z = (x + 1  # note", "expected ')', found 'end of input'", 1, 19),
        ("z = (x + 1  # note\ny = 2", "expected ')', found '\\n'", 1, 19),
        ("a = 1\nb = 1.2.3", "malformed number '1.2.3'", 2, 5),
        ("a = 1\n\tb = \u00a0", "unexpected character '\\xa0'", 2, 6),
        ("\u00e9 = x\u00b2 + \u00bd", "unexpected character '\u00bd'", 1, 10),
    ], ids=["comment-at-end", "comment-before-newline", "two-dots",
            "nbsp", "vulgar-half"])
    def test_a_lexical_error_names_its_line_and_column(self, source, message,
                                                       line, column):
        # an error at the end of a line that ends in a comment is placed
        # where the comment ends, as the comment's characters are columns
        with pytest.raises(ScriptSyntaxError) as err:
            parse(source)
        assert str(err.value) == f"line {line}, col {column}: {message}"

    def test_number_forms(self):
        ast = parse("a = 1.\nb = .5\nc = 1.5e-3\nd = 2E+2\ne = x1\n")
        assert [s.expr for s in ast] == [Num(1.0), Num(0.5), Num(0.0015),
                                         Num(200.0), Name("x1")]

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

    def test_overflowing_literal_round_trips(self):
        ast = parse("x = 1e999\n")
        assert ast.statements[0].expr == Num(math.inf)
        assert to_source(ast) == "x = 1e999\n"
        assert parse(to_source(ast)) == ast

    def test_nan_literal_has_no_source(self):
        # no parse gives nan, so there is no text to print for it
        with pytest.raises(ValueError):
            to_source(StepAST((Assign("x", Num(math.nan)),)))


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
            run_step(ast, io_map, {"alpha": value}.__getitem__)
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


def run_step(body, io_map, lookup, *callees):
    """Run ``body``, source or AST, once through ``evaluate`` under the IO
    sets of ``io_map``, passing ``callees`` if given; returns the writes it
    emitted, in order."""
    ast = parse(body) if isinstance(body, str) else body
    writes = []
    evaluate(ast, extract_io(ast, io_map), lookup,
             lambda name, value: writes.append((name, value)), *callees)
    return writes


class TestEvaluate:
    def test_component_a_step(self):
        writes = run_step("temp = x*y\nz = temp", {"x": "x", "y": "y", "z": "z"},
                          {"x": 1, "y": 1}.__getitem__)
        assert writes == [("z", 1)]

    def test_component_c_step(self):
        writes = run_step("temp = alpha*2\nx = temp\ntemp = alpha/2\ny = temp",
                          {"x": "x", "y": "y", "alpha": "alpha"},
                          {"alpha": 2}.__getitem__)
        assert writes == [("x", 4), ("y", 1.0)]
        assert isinstance(writes[0][1], int)
        assert isinstance(writes[1][1], float)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            run_step("alpha = x / z", {"x": "x", "z": "z", "alpha": "alpha"},
                     {"x": 1, "z": 0}.__getitem__)

    def test_type_mismatch_on_string_operand(self):
        with pytest.raises(TypeMismatch):
            run_step("z = x * 2", {"x": "x", "z": "z"}, {"x": "oops"}.__getitem__)

    def test_type_mismatch_messages(self):
        io_map = {"x": "x", "z": "z"}
        with pytest.raises(TypeMismatch) as binary:
            run_step("z = 1 + x", io_map, {"x": "oops"}.__getitem__)
        assert str(binary.value) == "operator '+' requires a number, got 'oops'"
        with pytest.raises(TypeMismatch) as unary:
            run_step("z = -x", io_map, {"x": True}.__getitem__)
        assert str(unary.value) == "unary minus requires a number, got True"

    def test_missing_input(self):
        # IO sets that do not read x leave it unbound in the compiled step
        sets = IOSets(writes=frozenset({"z"}))
        with pytest.raises(MissingInput) as err:
            evaluate(parse("z = x + 1"), sets, {"x": 1}.__getitem__,
                     lambda name, value: None)
        assert str(err.value) == "unbound name 'x'"

    def test_a_warm_call_does_not_compile(self, monkeypatch):
        ast = parse("z = x + 1\n")
        frozen = IOSets(frozenset({"x"}), frozenset({"z"}))
        plain = IOSets({"x"}, {"z"})  # sets that do not hash still run
        compiles = []
        compile_body = dsl.compile_body

        def spy(ast_, io_sets):
            compiles.append(io_sets)
            return compile_body(ast_, io_sets)

        monkeypatch.setattr(dsl, "compile_body", spy)
        writes = []
        for sets in (frozen, frozen, plain, frozen, plain):
            evaluate(ast, sets, {"x": 1}.__getitem__,
                     lambda name, value: writes.append((name, value)))
        assert writes == [("z", 2)] * 5
        # the first call compiles; only unhashable sets find it through
        # compile_body after that
        assert compiles == [frozen, plain, plain]

    def test_lazy_fetch_called_once_per_name(self):
        calls = []

        def fetch(name):
            calls.append(name)
            return 3

        run_step("a = x + x\nz = x + a", {"x": "x", "z": "z"}, fetch)
        assert calls == ["x"]

    def test_subcomponent_call(self):
        writes = run_step("mid = scale(alpha)\nbeta = scale(mid)",
                          {"alpha": "alpha", "beta": "beta"},
                          {"alpha": 4}.__getitem__, {"scale": lambda v: v * 0.5})
        assert writes == [("beta", 1.0)]

    def test_division_always_yields_real(self):
        writes = run_step("z = x / 2", {"x": "x", "z": "z"}, {"x": 4}.__getitem__)
        assert writes == [("z", 2.0)]
        assert isinstance(writes[0][1], float)

    def test_write_callback_fires_in_program_order(self):
        writes = run_step("x = 1\ny = 2", {"x": "x", "y": "y"}, {}.__getitem__)
        assert [name for name, value in writes] == ["x", "y"]


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
            [(name, got)] = run_step(source, {"a": "a", "b": "b", "c": "c", "r": "r"},
                                     values.__getitem__)
            assert got == expected  # bit-exact, identical operation order
            assert type(got) is type(expected)
            checked += 1

    def test_determinism_bit_exact(self):
        source = "m = a * b / c\nr = m - a + 0.1"
        io_map = {"a": "a", "b": "b", "c": "c", "r": "r"}
        results = {
            run_step(source, io_map, {"a": 3, "b": 7.3, "c": 11}.__getitem__)[0][1]
            for _ in range(5)
        }
        assert len(results) == 1


class _Real(float):
    """A float subclass: the number rule accepts it like a float."""


class TestCompiledSemantics:
    """What the compiled step function keeps of the language: the order of
    fetches, checks and writes, the number rule, the message of each error,
    run-time callee lookup, and names that are Python words."""

    IO = {"x": "x", "y": "y", "z": "z", "w": "w"}
    SOURCES = ["z = -x", "z = x + y", "z = y + x", "z = x - y", "z = y - x",
               "z = x * y", "z = y * x", "z = x / y", "z = y / x"]

    def run(self, source, **inputs):
        return run_step(source, self.IO, inputs.__getitem__)

    @pytest.mark.parametrize("source, zero, message", [
        ("z = x / y", 0, "3 / 0"),
        ("z = x / y", -0.0, "3 / -0.0"),
        ("z = x / 0", None, "3 / 0"),
        ("z = x / (y - y)", 2.5, "3 / 0.0"),
        ("z = x / -y", 0.0, "3 / -0.0"),
    ])
    def test_division_by_zero(self, source, zero, message):
        with pytest.raises(DivisionByZero) as err:
            self.run(source, x=3, y=zero)
        assert str(err.value) == message

    def test_left_operand_mismatch_raises_before_the_right_fetch(self):
        for source in ("z = x * y", "z = -x + y", "z = (x + 1) / y"):
            fetched = []

            def fetch(name):
                fetched.append(name)
                return {"x": "text", "y": 2}[name]

            with pytest.raises(TypeMismatch):
                run_step(source, self.IO, fetch)
            assert fetched == ["x"], source

    def test_reads_are_fetched_at_first_use_left_to_right(self):
        fetched = []

        def fetch(name):
            fetched.append(name)
            return 2

        writes = run_step("w = y * 2\nz = x + y + x", self.IO, fetch)
        assert fetched == ["y", "x"]
        assert writes == [("w", 4), ("z", 6)]

    def test_a_body_with_no_statements_runs_and_writes_nothing(self):
        assert self.run("# nothing to do\n") == []

    def test_writes_before_a_failing_statement_are_emitted(self):
        ast = parse("z = x + 1\nt = x / y\nw = t")
        seen = []
        with pytest.raises(DivisionByZero):
            evaluate(ast, extract_io(ast, self.IO), {"x": 3, "y": 0}.__getitem__,
                     lambda name, value: seen.append((name, value)))
        assert seen == [("z", 4)]

    @pytest.mark.parametrize("source", SOURCES)
    def test_float_subclass_is_a_number(self, source):
        self.check_accepted(source, _Real(1.5))

    @pytest.mark.parametrize("source", SOURCES)
    def test_numpy_float64_is_a_number(self, source):
        numpy = pytest.importorskip("numpy")
        self.check_accepted(source, numpy.float64(1.5))

    def check_accepted(self, source, x):
        # the DSL expression is also a Python expression
        expected = eval(source.split("=", 1)[1], {"x": x, "y": 2})
        [(name, got)] = self.run(source, x=x, y=2)
        assert got == expected
        assert type(got) is type(expected)

    @pytest.mark.parametrize("source", SOURCES)
    def test_bool_is_not_a_number(self, source):
        with pytest.raises(TypeMismatch) as err:
            self.run(source, x=True, y=2)
        context = ("unary minus" if source == "z = -x"
                   else f"operator {source.split()[3]!r}")
        assert str(err.value) == f"{context} requires a number, got True"

    def test_callee_is_looked_up_when_the_statement_runs(self):
        ast = parse("w = x + 1\nz = scale(x)")
        sets, lookup = extract_io(ast, self.IO), {"x": 4}.__getitem__
        seen = []
        with pytest.raises(UnknownCallee):
            evaluate(ast, sets, lookup, lambda *w: seen.append(w))
        assert seen == [("w", 5)]
        writes = run_step(ast, self.IO, lookup, {"scale": lambda v: v * 0.5})
        assert writes == [("w", 5), ("z", 2.0)]

    def test_names_that_are_python_words_or_compiler_names(self):
        io_map = {name: name for name in (
            "class", "int", "type", "float", "lookup", "env",
            "step", "emit", "callees", "on_write", "_div0", "print")}
        source = (
            "None = class + int\n"
            "_num = None * type - float\n"
            "k1 = _num / lookup\n"
            "t1 = -k1 + env\n"
            "locals_ = t1 * None\n"
            "step = locals_\n"
            "_callee = _unbound(t1, class)\n"
            "emit = _callee - k1\n"
            "callees = lookup - k1\n"
            "on_write = None + t1\n"
            "_div0 = int / 3\n"
            "print = print(int)\n"
        )
        inputs = {"class": 2, "int": 3.5, "type": 4, "float": 0.25,
                  "lookup": 8, "env": 1}
        subcomponents = {"_unbound": lambda a, b: a * b,
                         "print": lambda v: v + 1}
        ast = parse(source)
        sets = extract_io(ast, io_map)
        assert sets.writes == {"step", "emit", "callees", "on_write", "_div0",
                               "print"}

        values, expected = dict(inputs), []
        for stmt in ast:
            if isinstance(stmt, CallAssign):
                args = [eval_tree(arg, values) for arg in stmt.args]
                value = subcomponents[stmt.callee](*args)
            else:
                value = eval_tree(stmt.expr, values)
            values[stmt.target] = value
            if stmt.target in sets.writes:
                expected.append((stmt.target, value))

        writes = []
        evaluate(ast, sets, inputs.__getitem__,
                 lambda name, value: writes.append((name, value)), subcomponents)
        assert writes == expected

    def test_equal_text_parses_to_one_shared_ast(self):
        source = "z = x * 2.75\n"
        assert parse(source) is parse(source)
        assert parse(source) is not parse("z = x * 2.5\n")

    def test_a_compiled_ast_still_pickles(self):
        ast = parse("z = x * 2\n")
        self.run("z = x * 2\n", x=1)
        assert pickle.loads(pickle.dumps(ast)) == ast


def random_body(rng):
    """A random program whose targets repeat among a, b, c and d, so that
    one io_map makes it valid and another a use before assignment, a
    double write or a read after a write."""
    statements = []
    for _ in range(rng.randint(1, 5)):
        target = rng.choice("abcd")
        if rng.random() < 0.2:
            args = tuple(random_expr(rng, 2) for _ in range(rng.randint(0, 2)))
            statements.append(CallAssign(target, "fn", args))
        else:
            statements.append(Assign(target, random_expr(rng, 3)))
    return StepAST(tuple(statements))


class TestKeptIOSets:
    """``validate`` keeps a body's IO sets on its AST, by io_map keys: it
    gives what a fresh ``extract_io`` gives, raises on every call for a body
    that fails, and checks callees on every call."""

    def test_the_kept_sets_equal_a_fresh_walk(self):
        rng = random.Random(20261020)
        outcomes = set()
        for _ in range(400):
            ast = parse(to_source(random_body(rng)))  # equal texts share one
            for _ in range(3):
                io_map = {name: f"n_{name}" for name in "abcd"
                          if rng.random() < 0.5}
                try:
                    expected = extract_io(StepAST(ast.statements), io_map)
                except FlowError as exc:
                    outcomes.add(type(exc))
                    for _ in range(2):
                        with pytest.raises(type(exc)) as err:
                            validate(ast, io_map, ["fn"])
                        assert str(err.value) == str(exc)
                    continue
                outcomes.add(IOSets)
                for _ in range(2):
                    assert validate(ast, io_map, ["fn"]) == expected
        assert outcomes == {IOSets, UseBeforeAssign, DoubleWrite,
                            WriteBeforeReadSelfLoop}

    def test_a_failing_body_keeps_nothing(self):
        for source, io_map, error in (
                ("x = 1\ny = x", {"x": "x", "y": "y"}, WriteBeforeReadSelfLoop),
                ("z = w", {"z": "z"}, UseBeforeAssign),
                ("z = 1\nz = 2", {"z": "z"}, DoubleWrite)):
            ast = parse(source)
            for _ in range(2):
                with pytest.raises(error):
                    validate(ast, io_map)
            assert ast._io_sets == {}

    def test_one_ast_under_two_io_maps_gives_two_sets(self):
        ast = parse("z = x\ny = 1\n")
        wide = validate(ast, {"x": "x", "y": "y", "z": "z"})
        narrow = validate(ast, {"x": "x", "z": "z"})
        assert wide == IOSets(frozenset("x"), frozenset("yz"), frozenset())
        assert narrow == IOSets(frozenset("x"), frozenset("z"), frozenset("y"))
        # the namespaces take no part: equal keys give the kept sets
        assert validate(ast, {"x": "other", "z": "names"}) is narrow

    def test_callees_are_checked_on_every_call(self):
        ast = parse("z = f(x)\n")
        io_map = {"x": "x", "z": "z"}
        sets = validate(ast, io_map, ["f"])
        with pytest.raises(UnknownCallee):
            validate(ast, io_map)
        assert validate(ast, io_map, {"f": abs}) is sets

    def test_equality_hashing_and_pickling_ignore_the_kept_sets(self):
        ast = parse("z = x * 3\n")
        sets = validate(ast, {"x": "x", "z": "z"})
        evaluate(ast, sets, {"x": 1}.__getitem__, lambda name, value: None)
        assert ast._io_sets and ast._compiled
        fresh = StepAST(ast.statements)
        assert fresh == ast and hash(fresh) == hash(ast)
        copy = pickle.loads(pickle.dumps(ast))
        assert copy == ast and hash(copy) == hash(ast)
        assert copy._io_sets == {} and copy._compiled == {}
