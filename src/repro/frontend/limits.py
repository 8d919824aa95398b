"""Resource limits for untrusted frontend input.

The frontend was written for trusted benchmark sources; a service
accepting arbitrary jobs needs hard caps so a hostile input fails with a
structured :class:`~repro.frontend.errors.FrontendLimitError` instead of
a raw ``RecursionError`` (deeply nested expressions) or an OOM kill
(pathologically large sources).  Three caps cover the frontend's
resource axes:

``max_source_bytes``
    UTF-8 size of the source text, checked before tokenization;
``max_tokens``
    token count, checked incrementally while the lexer runs, so a
    gigantic comment-free input is rejected mid-scan;
``max_depth``
    combined statement/expression nesting depth in the recursive-descent
    parser.  Lowering recurses over the AST the parser built, so this
    one cap bounds the whole frontend's stack depth.  A depth unit costs
    the parser 2 Python frames in a unary chain, 2.5 in nested
    parentheses, 5 in nested blocks, and at most 7.5 (parentheses
    behind a rising operator at every one of the ten precedence
    levels), so the default stays far below the interpreter's
    recursion limit.

The defaults are generous for every legitimate workload in the repo;
services tighten them per deployment (``ServiceConfig.limits``).
"""

from __future__ import annotations

from typing import Dict

from repro.frontend.errors import FrontendLimitError


class InputLimits:
    """Caps for one compilation of untrusted source."""

    __slots__ = ("max_source_bytes", "max_tokens", "max_depth")

    def __init__(
        self,
        max_source_bytes: int = 2_000_000,
        max_tokens: int = 500_000,
        max_depth: int = 48,
    ) -> None:
        for name, value in (
            ("max_source_bytes", max_source_bytes),
            ("max_tokens", max_tokens),
            ("max_depth", max_depth),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        self.max_source_bytes = max_source_bytes
        self.max_tokens = max_tokens
        self.max_depth = max_depth

    def check_source(self, source: str) -> None:
        """Reject oversized source before any per-character work."""
        size = len(source.encode("utf-8", errors="replace"))
        if size > self.max_source_bytes:
            raise FrontendLimitError("source size", size, self.max_source_bytes)

    def check_tokens(self, count: int, line: int) -> None:
        if count > self.max_tokens:
            raise FrontendLimitError("token count", count, self.max_tokens, line)

    def check_depth(self, depth: int, line: int) -> None:
        if depth > self.max_depth:
            raise FrontendLimitError("nesting depth", depth, self.max_depth, line)

    def as_dict(self) -> Dict[str, int]:
        return {
            "max_source_bytes": self.max_source_bytes,
            "max_tokens": self.max_tokens,
            "max_depth": self.max_depth,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InputLimits(max_source_bytes={self.max_source_bytes}, "
            f"max_tokens={self.max_tokens}, max_depth={self.max_depth})"
        )


#: The default caps, applied whenever a caller does not pass its own.
DEFAULT_LIMITS = InputLimits()
