"""Tokenizer for mini-C.

One compiled pattern is matched at each position of the source, and the
group that matched says what the text is.  Only block comments and
characters that start no token leave the pattern: the first is closed
with ``str.find``, the second is a :class:`CompileError`.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional

from repro.frontend.errors import CompileError
from repro.frontend.limits import DEFAULT_LIMITS, InputLimits

# fmt: off
KEYWORDS = {
    "int", "void", "struct", "if", "else", "while", "for", "do",
    "return", "break", "continue", "print",
}

#: Operators, longest first so that maximal munch works (the pattern's
#: alternation takes the first that matches).
OPERATORS = [
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",", ".",
]
# fmt: on


class Token(NamedTuple):
    kind: str  # "num" | "ident" | "kw" | "op" | "eof"
    text: str
    line: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind}:{self.text}@{self.line}"


#: One alternative per token class, tried in this order at each position.
#: Numbers are decimal digits (of any script: exactly what ``int`` reads);
#: identifiers continue with ``\w``, which is ``str.isalnum`` or ``_``.
#: An identifier led by a non-ASCII character is a *word*, checked for
#: ``str.isalpha`` on its first character by :func:`tokenize`.
_TOKEN = re.compile(
    r"(\n)|([ \t\r]+)|(//[^\n]*)|(/\*)|(\d+)|([A-Za-z_]\w*)|("
    + "|".join(re.escape(op) for op in OPERATORS)
    + r")|(\w+)"
)
_NEWLINE, _BLANK, _LINE_COMMENT, _BLOCK_COMMENT, _NUM, _IDENT, _OP, _WORD = range(1, 9)


def tokenize(source: str, limits: Optional[InputLimits] = None) -> List[Token]:
    limits = limits or DEFAULT_LIMITS
    limits.check_source(source)
    max_tokens = limits.max_tokens
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    i = 0
    line = 1
    n = len(source)
    while i < n:
        # Checked inside the scan loop so a pathological input is
        # rejected as soon as it crosses the cap, not after buffering
        # every token.
        if len(tokens) >= max_tokens:
            limits.check_tokens(len(tokens) + 1, line)
        m = match(source, i)
        if m is None:
            raise CompileError(f"unexpected character {source[i]!r}", line)
        group = m.lastindex
        i = m.end()
        if group == _BLANK or group == _LINE_COMMENT:
            continue
        if group == _OP:
            append(Token("op", m[0], line))
        elif group == _IDENT:
            text = m[0]
            append(Token("kw" if text in KEYWORDS else "ident", text, line))
        elif group == _NEWLINE:
            line += 1
        elif group == _NUM:
            append(Token("num", m[0], line))
        elif group == _BLOCK_COMMENT:
            end = source.find("*/", i)
            if end == -1:
                raise CompileError("unterminated block comment", line)
            line += source.count("\n", i, end)
            i = end + 2
        else:  # _WORD: every keyword is ASCII, so this is an identifier
            text = m[0]
            if not text[0].isalpha():
                raise CompileError(f"unexpected character {text[0]!r}", line)
            append(Token("ident", text, line))
    tokens.append(Token("eof", "", line))
    return tokens
