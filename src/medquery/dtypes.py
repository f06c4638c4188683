"""Value vocabulary shared across the mediator: dtypes, RDF terms and their text.

All data flowing through the system is typed with one of four dtypes and
carried as its canonical lexical string, the text :func:`canonicalize` keeps:

  integer  optional sign followed by digits, no leading zeros ("-3", "0", "27")
  decimal  optional sign, digits '.' digits, no redundant zeros ("2.5", "0.0")
  boolean  "true" or "false"
  string   any text

Canonical forms make term equality coincide with value equality, which is
what makes join matching over typed literals behave like relational joins.

A value is a :class:`TypedLiteral`, a (canonical lexical, dtype) pair, from
fetched cell to RDF object; an :class:`Iri` names subjects and predicates.
:func:`format_term` writes either in N-Triples syntax, the text that RDQL
shares (``scanner.Scanner`` reads it back), with the datatype as an XML
Schema IRI (``XSD_NS``, :func:`dtype_from_iri`).
"""

from __future__ import annotations

import enum
import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Union

IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Dtype(str, enum.Enum):
    STRING = "string"
    INTEGER = "integer"
    DECIMAL = "decimal"
    BOOLEAN = "boolean"

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.value


NUMERIC_DTYPES = frozenset({Dtype.INTEGER, Dtype.DECIMAL})

# ASCII digits only: re's \d also matches the digits of other scripts
_INTEGER_INPUT = re.compile(r"[+-]?[0-9]+")
_DECIMAL_INPUT = re.compile(r"[+-]?([0-9]+(\.[0-9]+)?|\.[0-9]+|[0-9]+\.)")


def is_identifier(name: str) -> bool:
    return bool(IDENTIFIER_RE.fullmatch(name))


def canonicalize(text: str, dtype: Dtype) -> str:
    """Coerce raw text to the canonical lexical form of ``dtype``.

    Raises ValueError when the text is not a valid lexical form. Strings
    pass through untouched; numerics and booleans are normalized so equal
    values always share one lexical representation. Numbers are normalized
    as text (sign and leading or trailing zeros), never through ``int``, so
    there is no limit on the number of digits.
    """
    if dtype is Dtype.STRING:
        return text
    s = text.strip()
    if dtype is Dtype.BOOLEAN:
        low = s.lower()
        if low in ("true", "false"):
            return low
        raise ValueError(f"not a boolean: {text!r}")
    if dtype is Dtype.INTEGER:
        if _INTEGER_INPUT.fullmatch(s):
            digits = s.lstrip("+-").lstrip("0") or "0"
            return "-" + digits if s.startswith("-") and digits != "0" else digits
        # accept decimal-shaped input when the value is integral
        if _DECIMAL_INPUT.fullmatch(s):
            whole, _, frac = canonicalize(s, Dtype.DECIMAL).partition(".")
            if frac == "0":
                return whole
        raise ValueError(f"not an integer: {text!r}")
    if dtype is Dtype.DECIMAL:
        if not _DECIMAL_INPUT.fullmatch(s):
            raise ValueError(f"not a decimal: {text!r}")
        negative = s.startswith("-")
        digits = s.lstrip("+-")
        whole, _, frac = digits.partition(".")
        whole = whole.lstrip("0") or "0"
        frac = frac.rstrip("0") or "0"
        if whole == "0" and frac == "0":
            return "0.0"
        return ("-" if negative else "") + whole + "." + frac
    raise ValueError(f"unknown dtype: {dtype!r}")


def is_canonical(lexical: str, dtype: Dtype) -> bool:
    """Whether :func:`canonicalize` keeps ``lexical`` unchanged."""
    try:
        return canonicalize(lexical, dtype) == lexical
    except ValueError:
        return False


XSD_NS = "http://www.w3.org/2001/XMLSchema#"
_IRI_DTYPE = {XSD_NS + dtype.value: dtype for dtype in Dtype}
_SCHEME_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.\-]*:")


def dtype_from_iri(iri: str) -> Dtype:
    if iri not in _IRI_DTYPE:
        raise ValueError(f"unknown datatype IRI: {iri}")
    return _IRI_DTYPE[iri]


def absolute_iri(text: str) -> str:
    if not _SCHEME_RE.match(text):  # an absolute IRI starts with a scheme
        raise ValueError(f"IRI must be absolute: {text!r}")
    return text


@dataclass(frozen=True, slots=True)
class Iri:
    value: str

    def __post_init__(self) -> None:
        absolute_iri(self.value)

    def __str__(self) -> str:
        return f"<{self.value}>"


@dataclass(frozen=True, slots=True)
class TypedLiteral:
    lexical: str
    dtype: Dtype

    def __post_init__(self) -> None:
        if not is_canonical(self.lexical, self.dtype):
            raise ValueError(f"{self.lexical!r} is not canonical {self.dtype.value}")

    @classmethod
    def canonical(cls, text: str, dtype: Dtype) -> TypedLiteral:
        """The literal of ``canonicalize(text, dtype)``, which is not checked again."""
        literal = object.__new__(cls)
        object.__setattr__(literal, "lexical", canonicalize(text, dtype))
        object.__setattr__(literal, "dtype", dtype)
        return literal

    def __str__(self) -> str:
        return format_term(self)


Term = Union[Iri, TypedLiteral]

# the N-Triples escapes of a lexical form, which RDQL string literals share
LEXICAL_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"})
_LITERAL_TAILS = {dtype: f'"^^<{XSD_NS}{dtype.value}>' for dtype in Dtype}


def format_term(term: Term) -> str:
    """Render a term in N-Triples syntax; doubles as the canonical sort key.

    A lexical form is translated only when it holds a character that needs
    an escape (backslash, double quote, line feed or carriage return); any
    other text, tabs and non-ASCII characters included, is written as it
    is. The closing ``"^^<datatype>`` comes from a table built once per
    :class:`Dtype`.
    """
    if isinstance(term, Iri):
        return f"<{term.value}>"
    lexical = term.lexical
    if "\\" in lexical or '"' in lexical or "\n" in lexical or "\r" in lexical:
        lexical = lexical.translate(LEXICAL_ESCAPES)
    return '"' + lexical + _LITERAL_TAILS[term.dtype]


_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

COMPARISON_OPS = tuple(_OPS)


def comparable(op: str, a_dtype: Dtype, b_dtype: Dtype) -> bool:
    """Whether ``op`` compares these dtypes: numerics with numerics, strings
    with strings, booleans with booleans by equality only; nothing else."""
    if a_dtype in NUMERIC_DTYPES:
        return b_dtype in NUMERIC_DTYPES
    return a_dtype is b_dtype and (a_dtype is Dtype.STRING or op in ("=", "!="))


def compare(op: str, a_lexical: str, a_dtype: Dtype, b_lexical: str, b_dtype: Dtype) -> bool | None:
    """Typed comparison of two values; ``None`` when the pair is not :func:`comparable`.

    Numerics compare by value regardless of integer/decimal mix, exactly:
    ``Decimal`` reads a canonical lexical form without rounding, and its
    comparisons never round, whatever the number of digits. Strings compare
    by codepoint order.
    """
    if not comparable(op, a_dtype, b_dtype):
        return None
    if a_dtype in NUMERIC_DTYPES:
        return _OPS[op](Decimal(a_lexical), Decimal(b_lexical))
    return _OPS[op](a_lexical, b_lexical)
