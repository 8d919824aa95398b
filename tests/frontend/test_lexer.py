import pytest

from repro.frontend.errors import CompileError
from repro.frontend.lexer import KEYWORDS, Token, tokenize
from repro.frontend.limits import DEFAULT_LIMITS, InputLimits

from tests.frontend import corpus


def kinds(src):
    return [(t.kind, t.text) for t in tokenize(src) if t.kind != "eof"]


def test_numbers_and_identifiers():
    assert kinds("x1 42 _y") == [("ident", "x1"), ("num", "42"), ("ident", "_y")]


def test_keywords_recognized():
    assert kinds("int while foo") == [
        ("kw", "int"),
        ("kw", "while"),
        ("ident", "foo"),
    ]


def test_maximal_munch_operators():
    assert [t for _, t in kinds("a<<=b")] == ["a", "<<=", "b"]
    assert [t for _, t in kinds("a<=b")] == ["a", "<=", "b"]
    assert [t for _, t in kinds("a<b")] == ["a", "<", "b"]
    assert [t for _, t in kinds("a&&b&c")] == ["a", "&&", "b", "&", "c"]
    assert [t for _, t in kinds("i++ +2")] == ["i", "++", "+", "2"]


def test_comments_stripped():
    src = """
    int x; // line comment
    /* block
       comment */ int y;
    """
    assert ("ident", "y") in kinds(src)
    assert all(t != "comment" for _, t in kinds(src))


def test_line_numbers_tracked():
    toks = tokenize("a\nb\n\nc")
    lines = {t.text: t.line for t in toks if t.kind == "ident"}
    assert lines == {"a": 1, "b": 2, "c": 4}


def test_unterminated_comment_rejected():
    with pytest.raises(CompileError, match="unterminated"):
        tokenize("/* oops")


def test_bad_character_rejected():
    with pytest.raises(CompileError, match="unexpected character"):
        tokenize("int $x;")


# -- digits that are not decimal --------------------------------------------


@pytest.mark.parametrize("source", ["2²", "²", "²1", "5²x"])
def test_non_decimal_digit_is_an_unexpected_character(source):
    # str.isdigit() is true for "²" but int() rejects it: the character
    # cannot start or continue a number.
    with pytest.raises(CompileError, match="unexpected character '²'") as excinfo:
        tokenize("int x;\nint main() { return " + source + "; }")
    assert excinfo.value.line == 2


def test_decimal_digits_of_any_script_are_numbers():
    assert kinds("٣ 𝟘1") == [("num", "٣"), ("num", "𝟘1")]
    assert [int(text) for _, text in kinds("٣ 𝟘1")] == [3, 1]


def test_identifiers_follow_isalpha_then_isalnum():
    assert kinds("é x² xⅫ _٣") == [
        ("ident", "é"),
        ("ident", "x²"),
        ("ident", "xⅫ"),
        ("ident", "_٣"),
    ]
    with pytest.raises(CompileError, match="unexpected character 'Ⅻ'"):
        tokenize("Ⅻ")


# -- differential: the character-at-a-time scanner this lexer replaced -----

# fmt: off
_OLD_OPERATORS = [
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",", ".",
]
# fmt: on


def _old_tokenize(source, limits, tokens):
    """The previous scanner, frozen.  Appends to ``tokens`` so a caller
    can see what it had produced when it raised."""
    limits.check_source(source)
    i = 0
    line = 1
    n = len(source)
    while i < n:
        if len(tokens) >= limits.max_tokens:
            limits.check_tokens(len(tokens) + 1, line)
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise CompileError("unterminated block comment", line)
            line += source.count("\n", i, end)
            i = end + 2
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("num", source[i:j], line))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            tokens.append(Token("kw" if text in KEYWORDS else "ident", text, line))
            i = j
            continue
        for op in _OLD_OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line))
                i += len(op)
                break
        else:
            raise CompileError(f"unexpected character {ch!r}", line)
    tokens.append(Token("eof", "", line))
    return tokens


def _outcome(scan):
    try:
        return scan()
    except CompileError as exc:
        return type(exc), str(exc), exc.line


def _superscript_digit_class(tokens):
    """The one allowed difference: the old scanner read a digit that is
    not decimal ("²") into a number, which ``int()`` later rejected with
    an uncaught ValueError.  The new lexer stops there with a
    CompileError.  Returns that error's (type, message, line), or None."""
    for token in tokens:
        if token.kind == "num" and not token.text.isdecimal():
            ch = next(c for c in token.text if not c.isdecimal())
            err = CompileError(f"unexpected character {ch!r}", token.line)
            return CompileError, str(err), err.line
    return None


@pytest.mark.parametrize(
    "limits",
    [DEFAULT_LIMITS, InputLimits(max_tokens=40)],
    ids=["default-limits", "max-tokens-40"],
)
def test_lexer_matches_the_character_scanner(limits):
    superscripts = 0
    for label, source in corpus.sources():
        partial = []
        old = _outcome(lambda: _old_tokenize(source, limits, partial))
        new = _outcome(lambda: tokenize(source, limits))
        expected = _superscript_digit_class(partial)
        if expected is not None:
            superscripts += 1
            assert new == expected, label
        else:
            assert new == old, label
    # The corpus really exercises the allowed difference.
    assert superscripts > 0
