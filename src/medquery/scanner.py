"""Character cursor shared by the SQL, RDQL and N-Triples readers.

Every language is read left to right straight from the text, with no token
list: a parser subclasses :class:`Scanner`, sets ``error`` to its own
:class:`ParseError` subclass and adds readers for its own terms. The shared
readers cover words, keywords, comparison operators, bare constants
(``TRUE``, ``FALSE`` and numbers) and the RDF terms that RDQL and N-Triples
write alike: ``<iri>`` and ``"quoted"^^<datatype>`` with N-Triples' escapes.
Every reader skips leading whitespace (``str.isspace``), so a fault is
reported at the offset of the first character that does not fit.
"""

from __future__ import annotations

import re

from .dtypes import Dtype, Iri, TypedLiteral, dtype_from_iri
from .errors import ParseError

_WORD_RE = re.compile(r"\w+")  # \w is str.isalnum() or "_"
NUMBER_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?")  # \d also matches other scripts' digits
# a quoted literal's text up to its closing quote, or up to the first backslash that starts no escape
_QUOTED_BODY = re.compile(r'[^"\\]*(?:\\[\\"nrt][^"\\]*)*')
_ESCAPE_RE = re.compile(r"\\.")
_UNESCAPES = {"\\\\": "\\", '\\"': '"', "\\n": "\n", "\\r": "\r", "\\t": "\t"}


class Scanner:
    __slots__ = ("text", "pos", "_word")
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

    def iri(self) -> Iri:
        """Move past ``<iri>`` and return it; a fault is reported at its ``<``."""
        self.skip_ws()
        text, start = self.text, self.pos
        if not text.startswith("<", start):
            self.fail("expected '<'")
        end = text.find(">", start + 1)
        if end < 0:
            self.fail("unterminated IRI")
        try:
            iri = Iri(text[start + 1:end])
        except ValueError as exc:
            self.fail(str(exc))
        self.pos = end + 1
        return iri

    def quoted_literal(self, dtype: Dtype | None) -> TypedLiteral:
        """Move past ``"text"`` (N-Triples' escapes) and a ``^^<datatype>`` right after it, and return them.

        With no datatype the literal has ``dtype``; when that is None (N-Triples)
        it is a fault. A fault in the text is reported at the opening quote.
        """
        self.skip_ws()
        text, start = self.text, self.pos
        if not text.startswith('"', start):
            self.fail("expected '\"'")
        end = _QUOTED_BODY.match(text, start + 1).end()
        if end == len(text):
            self.fail("unterminated literal")
        if text[end] == "\\":
            self.fail("dangling escape" if end + 1 == len(text) else f"unknown escape '\\{text[end + 1]}'")
        lexical = text[start + 1:end]
        if "\\" in lexical:
            lexical = _ESCAPE_RE.sub(lambda escape: _UNESCAPES[escape.group()], lexical)
        self.pos = end + 1
        try:  # a ValueError is a fault at the cursor: an unknown datatype, or a form not canonical
            if text.startswith("^^", self.pos):
                self.pos += 2
                dtype = dtype_from_iri(self.iri().value)
            elif dtype is None:
                self.fail("literal missing '^^<datatype>'")
            return TypedLiteral(lexical, dtype)
        except ValueError as exc:
            self.fail(str(exc))
