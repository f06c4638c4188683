"""Value vocabulary shared across the mediator.

All data flowing through the system is typed with one of four dtypes and
carried as its canonical lexical string, the text :func:`canonicalize` keeps:

  integer  optional sign followed by digits, no leading zeros ("-3", "0", "27")
  decimal  optional sign, digits '.' digits, no redundant zeros ("2.5", "0.0")
  boolean  "true" or "false"
  string   any text

Canonical forms make term equality coincide with value equality, which is
what makes join matching over typed literals behave like relational joins.
"""

from __future__ import annotations

import enum
import operator
import re
from decimal import Decimal

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
