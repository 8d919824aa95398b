import random

import pytest

from repro.frontend import cast as A
from repro.frontend.errors import CompileError
from repro.frontend.lexer import tokenize
from repro.frontend.limits import DEFAULT_LIMITS, InputLimits
from repro.frontend.parser import _BINARY_LEVELS, _OP_NAMES, _Parser, parse_program

from tests.frontend import corpus


def test_globals_and_arrays():
    program = parse_program("int x; int y = 5; int z = -3; int A[10];")
    assert [g.name for g in program.globals] == ["x", "y", "z", "A"]
    assert program.globals[1].init == 5
    assert program.globals[2].init == -3
    assert program.globals[3].array_size == 10


def test_struct_declaration():
    program = parse_program("struct s { int a; int b = 2; };")
    struct = program.structs[0]
    assert struct.name == "s"
    assert struct.fields == ["a", "b"]
    assert struct.inits == [0, 2]


def test_function_with_params():
    program = parse_program("int f(int a, int *p) { return a; }")
    func = program.functions[0]
    assert func.params == ["a", "p"]
    assert isinstance(func.body[0], A.Return)


def test_precedence():
    program = parse_program("int f() { return 1 + 2 * 3 < 4 && 5; }")
    ret = program.functions[0].body[0]
    sc = ret.value
    assert isinstance(sc, A.ShortCircuit) and sc.op == "&&"
    cmp = sc.lhs
    assert isinstance(cmp, A.Binary) and cmp.op == "lt"
    add = cmp.lhs
    assert isinstance(add, A.Binary) and add.op == "add"
    mul = add.rhs
    assert isinstance(mul, A.Binary) and mul.op == "mul"


def test_parenthesized_grouping():
    program = parse_program("int f() { return (1 + 2) * 3; }")
    mul = program.functions[0].body[0].value
    assert mul.op == "mul"
    assert mul.lhs.op == "add"


def test_unary_chain():
    program = parse_program("int f(int *p) { return -!*p; }")
    neg = program.functions[0].body[0].value
    assert neg.op == "neg"
    assert neg.operand.op == "not"
    assert isinstance(neg.operand.operand, A.Deref)


def test_assignment_forms():
    program = parse_program(
        """
        int x; int A[4];
        struct s { int f; };
        int main(int *p) {
            x = 1;
            x += 2;
            A[x] = 3;
            s.f <<= 1;
            *p = 4;
            x++;
            A[0]--;
            return 0;
        }
        """
    )
    body = program.functions[0].body
    assert isinstance(body[0], A.Assign) and body[0].op == ""
    assert isinstance(body[1], A.Assign) and body[1].op == "+"
    assert isinstance(body[2], A.Assign) and isinstance(body[2].target, A.Index)
    assert isinstance(body[3], A.Assign) and body[3].op == "<<"
    assert isinstance(body[4], A.Assign) and isinstance(body[4].target, A.Deref)
    assert isinstance(body[5], A.IncDec) and body[5].op == "++"
    assert isinstance(body[6], A.IncDec) and body[6].op == "--"


def test_control_flow_forms():
    program = parse_program(
        """
        int main() {
            int i;
            if (i) i = 1; else { i = 2; }
            while (i < 3) i++;
            do { i--; } while (i);
            for (i = 0; i < 4; i++) { if (i == 2) break; else continue; }
            for (;;) { break; }
            return i;
        }
        """
    )
    body = program.functions[0].body
    assert isinstance(body[1], A.If) and body[1].else_body
    assert isinstance(body[2], A.While)
    assert isinstance(body[3], A.DoWhile)
    assert isinstance(body[4], A.For) and body[4].step is not None
    empty_for = body[5]
    assert empty_for.init is None and empty_for.cond is None and empty_for.step is None


def test_for_with_decl_init():
    program = parse_program("int main() { for (int i = 0; i < 3; i++) { } return 0; }")
    loop = program.functions[0].body[0]
    assert isinstance(loop.init, A.LocalDecl)


def test_addr_of_targets():
    program = parse_program(
        """
        int x; int A[4];
        struct s { int f; };
        int main() {
            int *p;
            p = &x;
            p = &A[1];
            p = &s.f;
            return *p;
        }
        """
    )
    body = program.functions[0].body
    assert isinstance(body[1].value, A.AddrOfExpr)
    assert isinstance(body[2].value.target, A.Index)
    assert isinstance(body[3].value.target, A.FieldRef)


def test_call_statement_and_expr():
    program = parse_program(
        """
        int g(int a) { return a; }
        int main() { g(1); return g(2) + g(3); }
        """
    )
    body = program.functions[1].body
    assert isinstance(body[0], A.ExprStmt)
    assert isinstance(body[0].expr, A.CallExpr)


def test_syntax_errors():
    with pytest.raises(CompileError, match="expected"):
        parse_program("int main( { }")
    with pytest.raises(CompileError, match="lvalue"):
        parse_program("int main() { 1 = 2; }")
    with pytest.raises(CompileError, match="& requires"):
        parse_program("int main() { int x; int *p; p = &(x + 1); }")
    with pytest.raises(CompileError, match="no fields"):
        parse_program("struct s { };")
    with pytest.raises(CompileError, match="unexpected token"):
        parse_program("float x;")


# -- differential: the level-by-level recursive descent this parser replaced


class _RecursiveParser(_Parser):
    """The previous ``_binary``, frozen: one recursive call per
    precedence level for every operand."""

    def _binary(self, level):
        if level >= len(_BINARY_LEVELS):
            return self.unary()
        lhs = self._binary(level + 1)
        while self.tok.kind == "op" and self.tok.text in _BINARY_LEVELS[level]:
            op = self.advance()
            rhs = self._binary(level + 1)
            if op.text in ("&&", "||"):
                lhs = A.ShortCircuit(line=op.line, op=op.text, lhs=lhs, rhs=rhs)
            else:
                lhs = A.Binary(line=op.line, op=_OP_NAMES[op.text], lhs=lhs, rhs=rhs)
        return lhs


def _expression_sources():
    """Every pair of binary operators, and seeded longer chains mixing
    all levels, unary operators and parentheses."""
    ops = [op for level in _BINARY_LEVELS for op in level]
    for first in ops:
        for second in ops:
            yield f"a {first} b {second} c"
    rng = random.Random(7)
    operands = ["a", "b", "-c", "!a", "(a + b)", "(b || c)", "f(a, b && c)", "A[a | b]"]
    for _ in range(400):
        parts = [rng.choice(operands)]
        for _ in range(rng.randint(1, 7)):
            parts += [rng.choice(ops), rng.choice(operands)]
        yield " ".join(parts)


def _parse_outcome(parser_class, tokens, limits):
    try:
        return repr(parser_class(tokens, limits).program())
    except CompileError as exc:
        return type(exc), str(exc), exc.line


@pytest.mark.parametrize(
    "limits",
    [DEFAULT_LIMITS, InputLimits(max_depth=6)],
    ids=["default-limits", "max-depth-6"],
)
def test_parser_matches_the_recursive_descent(limits):
    sources = [source for _, source in corpus.sources()]
    prologue = "int A[4]; int f(int a, int b) { return a; }\n"
    sources += [
        prologue + f"int g(int a, int b, int c) {{ return {expr}; }}"
        for expr in _expression_sources()
    ]
    parsed = 0
    for source in sources:
        try:
            tokens = tokenize(source, limits)
        except CompileError:
            continue
        new = _parse_outcome(_Parser, tokens, limits)
        assert new == _parse_outcome(_RecursiveParser, tokens, limits), source
        parsed += isinstance(new, str)
    assert parsed > len(sources) // 3
