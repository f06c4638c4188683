"""Character cursor shared by the SQL and RDQL parsers.

Both query languages are read left to right straight from the text, with no
token list: a parser subclasses :class:`Scanner`, sets ``error`` to its own
:class:`ParseError` subclass and adds readers for its own terms. The shared
readers cover words, keywords, comparison operators and bare constants
(``TRUE``, ``FALSE`` and numbers). Every reader skips leading whitespace, so
a fault is reported at the offset of the first character that does not fit.
"""

from __future__ import annotations

import re

from .dtypes import Dtype
from .errors import ParseError
from .triple_store import TypedLiteral

_WORD_RE = re.compile(r"\w+")  # \w is str.isalnum() or "_"
NUMBER_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?")  # \d also matches other scripts' digits


class Scanner:
    error: type[ParseError] = ParseError

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._word = (-1, "")  # (offset, word) last read; parsers try one word as several keywords

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
        if self._word[0] != self.pos:  # each offset is read once
            match = _WORD_RE.match(self.text, self.pos)
            found = match.group() if match else ""
            self._word = (self.pos, found if found[:1].isalpha() or found[:1] == "_" else "")
        return self._word[1]

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

    def bare_literal(self) -> TypedLiteral | None:
        """Move past TRUE or FALSE in any case, or a number, and return it; None if there is none.

        A number's sign may stand apart from it, and a sign with no number after it is a fault.
        """
        word = self.word()
        if word.upper() in ("TRUE", "FALSE"):
            self.pos += len(word)
            return TypedLiteral(word.upper().lower(), Dtype.BOOLEAN)
        sign = self.text[self.pos] if self.text.startswith(("+", "-"), self.pos) else ""
        self.pos += len(sign)
        self.skip_ws()
        number = NUMBER_RE.match(self.text, self.pos)
        if number:
            self.pos = number.end()
            dtype = Dtype.DECIMAL if "." in number.group() else Dtype.INTEGER
            return TypedLiteral.canonical(sign + number.group(), dtype)
        if sign:
            self.fail("expected numeric literal")
