"""Recursive-descent parser for mini-C.

Grammar sketch::

    program   := (global | struct | function)*
    global    := "int" ident ("[" num "]")? ("=" int)? ";"
    struct    := "struct" ident "{" ("int" ident ("=" int)? ";")+ "}" ";"
    function  := ("int" | "void") ident "(" params? ")" block
    stmt      := decl | if | while | do-while | for | return | break
               | continue | print | assignment | call-statement
    expr      := C expression grammar with && / || short-circuiting,
                 unary - ! ~ * &, and no assignment-as-expression

Assignments are statements (including ``+=``-style compound forms and
postfix ``++``/``--``), matching how the workloads are written.  Binary
operators are parsed by precedence climbing over ``_BINARY_LEVELS``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.frontend import cast as A
from repro.frontend.errors import CompileError
from repro.frontend.lexer import Token, tokenize
from repro.frontend.limits import DEFAULT_LIMITS, InputLimits

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

_BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]
#: Binding level of each binary operator (higher binds tighter).
_PREC = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}

# fmt: off
_OP_NAMES = {
    "+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem",
    "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "shr",
    "<": "lt", "<=": "le", ">": "gt", ">=": "ge", "==": "eq", "!=": "ne",
}
# fmt: on


def parse_program(source: str, limits: Optional[InputLimits] = None) -> A.Program:
    limits = limits or DEFAULT_LIMITS
    return _Parser(tokenize(source, limits), limits).program()


class _Parser:
    def __init__(self, tokens: List[Token], limits: Optional[InputLimits] = None) -> None:
        self.tokens = tokens
        self.limits = limits or DEFAULT_LIMITS
        self.pos = 0
        #: The current token, ``tokens[pos]``; only :meth:`advance` moves
        #: it (the list always ends with ``eof``, where it stays).
        self.tok: Token = tokens[0]
        #: Combined statement + expression nesting depth.  Guarded in
        #: every recursive production so a hostile input fails with a
        #: structured FrontendLimitError long before Python's own
        #: RecursionError (each depth unit costs at most 7.5 frames;
        #: see repro.frontend.limits).  Lowering recurses over the AST
        #: this parser built, so the same cap bounds its stack too.
        self.depth = 0

    def _descend(self) -> None:
        self.depth += 1
        if self.depth > self.limits.max_depth:
            self.limits.check_depth(self.depth, self.tok.line)

    # -- token helpers ----------------------------------------------------

    def advance(self) -> Token:
        tok = self.tok
        if tok.kind != "eof":
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return tok

    def check(self, text: str) -> bool:
        tok = self.tok
        return tok.text == text and tok.kind in ("op", "kw")

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            raise CompileError(
                f"expected {text!r}, found {self.tok.text!r}", self.tok.line
            )
        return self.advance()

    def expect_ident(self) -> Token:
        if self.tok.kind != "ident":
            raise CompileError(
                f"expected identifier, found {self.tok.text!r}", self.tok.line
            )
        return self.advance()

    def expect_int(self) -> int:
        negative = self.accept("-")
        if self.tok.kind != "num":
            raise CompileError(
                f"expected integer literal, found {self.tok.text!r}", self.tok.line
            )
        value = int(self.advance().text)
        return -value if negative else value

    # -- top level -------------------------------------------------------

    def program(self) -> A.Program:
        program = A.Program()
        while self.tok.kind != "eof":
            if self.check("struct"):
                program.structs.append(self.struct_decl())
            elif self.check("int") or self.check("void"):
                # Lookahead: "int name (" is a function, else a global.
                if (
                    self.tokens[self.pos + 1].kind == "ident"
                    and self.tokens[self.pos + 2].text == "("
                ):
                    program.functions.append(self.function())
                elif self.check("void"):
                    program.functions.append(self.function())
                else:
                    program.globals.append(self.global_decl())
            else:
                raise CompileError(
                    f"unexpected token {self.tok.text!r} at top level", self.tok.line
                )
        return program

    def global_decl(self) -> A.GlobalDecl:
        line = self.expect("int").line
        name = self.expect_ident().text
        size: Optional[int] = None
        init = 0
        init_values: Optional[List[int]] = None
        if self.accept("["):
            size = self.expect_int()
            self.expect("]")
        if self.accept("="):
            if self.check("{"):
                if size is None:
                    raise CompileError("initializer list requires an array", line)
                init_values = self.int_list()
            else:
                init = self.expect_int()
        self.expect(";")
        return A.GlobalDecl(
            name, array_size=size, init=init, line=line, init_values=init_values
        )

    def int_list(self) -> List[int]:
        self.expect("{")
        values: List[int] = []
        if not self.check("}"):
            while True:
                values.append(self.expect_int())
                if not self.accept(","):
                    break
        self.expect("}")
        return values

    def struct_decl(self) -> A.StructDecl:
        line = self.expect("struct").line
        name = self.expect_ident().text
        self.expect("{")
        decl = A.StructDecl(name, line=line)
        while not self.accept("}"):
            self.expect("int")
            decl.fields.append(self.expect_ident().text)
            decl.inits.append(self.expect_int() if self.accept("=") else 0)
            self.expect(";")
        self.expect(";")
        if not decl.fields:
            raise CompileError(f"struct {name} has no fields", line)
        return decl

    def function(self) -> A.FunctionDecl:
        line = self.advance().line  # int | void
        name = self.expect_ident().text
        self.expect("(")
        params: List[str] = []
        if not self.check(")"):
            while True:
                if not (self.accept("int") or self.accept("void")):
                    raise CompileError("expected parameter type", self.tok.line)
                self.accept("*")  # pointer params are untyped registers
                params.append(self.expect_ident().text)
                if not self.accept(","):
                    break
        self.expect(")")
        body = self.block()
        return A.FunctionDecl(name, params, body, line=line)

    # -- statements -----------------------------------------------------------

    def block(self) -> List[A.Stmt]:
        self.expect("{")
        body: List[A.Stmt] = []
        while not self.accept("}"):
            body.append(self.statement())
        return body

    def statement_or_block(self) -> List[A.Stmt]:
        if self.check("{"):
            return self.block()
        return [self.statement()]

    def statement(self) -> A.Stmt:
        self._descend()
        try:
            return self._statement()
        finally:
            self.depth -= 1

    def _statement(self) -> A.Stmt:
        tok = self.tok
        if self.check("int"):
            return self.local_decl()
        if self.check("if"):
            return self.if_stmt()
        if self.check("while"):
            return self.while_stmt()
        if self.check("do"):
            return self.do_while_stmt()
        if self.check("for"):
            return self.for_stmt()
        if self.accept("return"):
            value = None if self.check(";") else self.expression()
            self.expect(";")
            return A.Return(line=tok.line, value=value)
        if self.accept("break"):
            self.expect(";")
            return A.Break(line=tok.line)
        if self.accept("continue"):
            self.expect(";")
            return A.Continue(line=tok.line)
        if self.accept("print"):
            self.expect("(")
            args = self.call_args()
            self.expect(";")
            return A.PrintStmt(line=tok.line, args=args)
        return self.simple_statement()

    def local_decl(self) -> A.LocalDecl:
        line = self.expect("int").line
        is_pointer = self.accept("*")
        name = self.expect_ident().text
        size: Optional[int] = None
        if self.accept("["):
            size = self.expect_int()
            self.expect("]")
        init = None
        init_values: Optional[List[int]] = None
        if self.accept("="):
            if self.check("{"):
                if size is None:
                    raise CompileError("initializer list requires an array", line)
                init_values = self.int_list()
            else:
                init = self.expression()
        self.expect(";")
        if is_pointer and size is not None:
            raise CompileError("pointer arrays are not supported", line)
        return A.LocalDecl(
            line=line,
            name=name,
            is_pointer=is_pointer,
            array_size=size,
            init=init,
            init_values=init_values,
        )

    def simple_statement(self, need_semi: bool = True) -> A.Stmt:
        """Assignment, increment, or expression statement."""
        line = self.tok.line
        target = self.expression()
        stmt: A.Stmt
        if self.tok.text in _ASSIGN_OPS and self.tok.kind == "op":
            op = self.advance().text
            value = self.expression()
            _require_lvalue(target, line)
            stmt = A.Assign(
                line=line, target=target, op="" if op == "=" else op[:-1], value=value
            )
        elif self.check("++") or self.check("--"):
            op = self.advance().text
            _require_lvalue(target, line)
            stmt = A.IncDec(line=line, target=target, op=op)
        else:
            stmt = A.ExprStmt(line=line, expr=target)
        if need_semi:
            self.expect(";")
        return stmt

    def if_stmt(self) -> A.If:
        line = self.expect("if").line
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        then_body = self.statement_or_block()
        else_body: List[A.Stmt] = []
        if self.accept("else"):
            else_body = self.statement_or_block()
        return A.If(line=line, cond=cond, then_body=then_body, else_body=else_body)

    def while_stmt(self) -> A.While:
        line = self.expect("while").line
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        return A.While(line=line, cond=cond, body=self.statement_or_block())

    def do_while_stmt(self) -> A.DoWhile:
        line = self.expect("do").line
        body = self.statement_or_block()
        self.expect("while")
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        self.expect(";")
        return A.DoWhile(line=line, cond=cond, body=body)

    def for_stmt(self) -> A.For:
        line = self.expect("for").line
        self.expect("(")
        init: Optional[A.Stmt] = None
        if not self.check(";"):
            if self.check("int"):
                init = self.local_decl()  # consumes its ';'
            else:
                init = self.simple_statement(need_semi=True)
        else:
            self.expect(";")
        cond = None if self.check(";") else self.expression()
        self.expect(";")
        step = None if self.check(")") else self.simple_statement(need_semi=False)
        self.expect(")")
        return A.For(
            line=line, init=init, cond=cond, step=step, body=self.statement_or_block()
        )

    # -- expressions ------------------------------------------------------

    def expression(self) -> A.Expr:
        self._descend()
        try:
            return self._binary(0)
        finally:
            self.depth -= 1

    def _binary(self, min_level: int) -> A.Expr:
        # Precedence climbing: operators at ``min_level`` or tighter
        # extend ``lhs``; each right operand binds strictly tighter, so
        # every level is left-associative.
        lhs = self.unary()
        while True:
            op = self.tok
            level = _PREC.get(op.text) if op.kind == "op" else None
            if level is None or level < min_level:
                return lhs
            self.advance()
            rhs = self._binary(level + 1)
            if op.text in ("&&", "||"):
                lhs = A.ShortCircuit(line=op.line, op=op.text, lhs=lhs, rhs=rhs)
            else:
                lhs = A.Binary(line=op.line, op=_OP_NAMES[op.text], lhs=lhs, rhs=rhs)

    def unary(self) -> A.Expr:
        # Unary chains recurse without passing through expression(), so
        # they carry their own depth guard.
        self._descend()
        try:
            return self._unary()
        finally:
            self.depth -= 1

    def _unary(self) -> A.Expr:
        tok = self.tok
        if self.accept("-"):
            return A.Unary(line=tok.line, op="neg", operand=self.unary())
        if self.accept("!"):
            return A.Unary(line=tok.line, op="not", operand=self.unary())
        if self.accept("~"):
            return A.Unary(line=tok.line, op="bnot", operand=self.unary())
        if self.accept("*"):
            return A.Deref(line=tok.line, ptr=self.unary())
        if self.accept("&"):
            target = self.unary()
            if not isinstance(target, (A.Name, A.FieldRef, A.Index)):
                raise CompileError("& requires a variable, field, or element", tok.line)
            return A.AddrOfExpr(line=tok.line, target=target)
        return self.primary()

    def primary(self) -> A.Expr:
        tok = self.tok
        if tok.kind == "num":
            self.advance()
            return A.IntLit(line=tok.line, value=int(tok.text))
        if self.accept("("):
            inner = self.expression()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            name = self.advance().text
            if self.accept("("):
                return A.CallExpr(line=tok.line, callee=name, args=self.call_args())
            if self.accept("["):
                index = self.expression()
                self.expect("]")
                return A.Index(line=tok.line, array=name, index=index)
            if self.accept("."):
                field_name = self.expect_ident().text
                return A.FieldRef(line=tok.line, struct=name, field_name=field_name)
            return A.Name(line=tok.line, ident=name)
        raise CompileError(f"unexpected token {tok.text!r} in expression", tok.line)

    def call_args(self) -> List[A.Expr]:
        args: List[A.Expr] = []
        if not self.check(")"):
            while True:
                args.append(self.expression())
                if not self.accept(","):
                    break
        self.expect(")")
        return args


def _require_lvalue(node: A.Expr, line: int) -> None:
    if not isinstance(node, (A.Name, A.FieldRef, A.Index, A.Deref)):
        raise CompileError("assignment target is not an lvalue", line)
