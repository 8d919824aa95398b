"""Untrusted source never crashes the frontend.

For text built from mini-C tokens mixed with characters from all of
Unicode, :func:`compile_source` either returns a module or raises
:class:`CompileError` (which includes :class:`FrontendLimitError`);
anything else is a frontend bug that a service would report as an
engine crash instead of a client error.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend.errors import CompileError
from repro.frontend.limits import InputLimits
from repro.frontend.lower import compile_source

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Small caps so deep or long inputs exercise the limit paths quickly.
LIMITS = InputLimits(max_source_bytes=4096, max_tokens=400, max_depth=12)

# fmt: off
_TOKENS = [
    "int", "void", "struct", "if", "else", "while", "for", "do", "return",
    "break", "continue", "print", "main", "x", "y", "A", "s", "f",
    "é", "Ⅻ",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "=", "+=", "<<=",
    "+", "-", "*", "/", "%", "<", "<=", "==", "!=", "&&", "||", "!",
    "&", "|", "^", "~", "<<", ">>", "++", "--",
    "/*", "*/", "//", " ", "\n", "\t",
]
#: Numbers, and characters a digit classifier can get wrong.
_NUMBERS = [
    "0", "1", "42", "1234567890123456789012345678901234567890",
    "٣", "𝟘1", "²", "5²",
]
# fmt: on

_PIECES = st.one_of(
    st.sampled_from(_TOKENS),
    st.sampled_from(_NUMBERS),
    st.text(alphabet=st.characters(), min_size=1, max_size=3),
)

_PROGRAMS = st.one_of(
    st.lists(_PIECES, max_size=60).map(" ".join),
    # Well-formed frames around fuzzed statements and expressions reach
    # the parser's inner productions, sema and lowering.
    st.lists(_PIECES, max_size=40).map(
        lambda body: "int g; int main() { " + " ".join(body) + " }"
    ),
    st.lists(_PIECES, min_size=1, max_size=8).map(
        lambda expr: "int main() { return " + " ".join(expr) + "; }"
    ),
)


@SETTINGS
@given(_PROGRAMS)
def test_compile_source_returns_or_raises_compile_error(source):
    try:
        compile_source(source, limits=LIMITS)
    except CompileError:
        pass
