"""Character cursor shared by the SQL and RDQL parsers.

Both query languages are read left to right straight from the text, with no
token list: a parser subclasses :class:`Scanner`, sets ``error`` to its own
:class:`ParseError` subclass and adds readers for its own terms. Every
reader skips leading whitespace, so a fault is reported at the offset of the
first character that does not fit.
"""

from __future__ import annotations

import re

from .errors import ParseError

_WORD_RE = re.compile(r"\w+")  # \w is str.isalnum() or "_"


class Scanner:
    error: type[ParseError] = ParseError

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str):
        raise self.error(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.take(literal):
            self.fail(f"expected {literal!r}")

    def word(self) -> str:
        """The word at the cursor, without moving past it; '' if there is none.

        A word starts with a letter or ``_`` and goes on with letters, digits
        or ``_`` (``str.isalpha``/``str.isalnum``, so not only ASCII).
        """
        self.skip_ws()
        match = _WORD_RE.match(self.text, self.pos)
        if match and (match.group()[0].isalpha() or match.group()[0] == "_"):
            return match.group()
        return ""

    def keyword(self, word: str) -> bool:
        """Move past the word at the cursor if it is ``word`` in any case."""
        found = self.word()
        if found.upper() != word:
            return False
        self.pos += len(found)
        return True

    def operator(self) -> str:
        self.skip_ws()
        for op in ("<=", ">=", "!=", "=", "<", ">"):
            if self.text.startswith(op, self.pos):
                self.pos += len(op)
                return op
        self.fail("expected comparison operator")
