"""Exception hierarchy shared by all medquery modules.

Every domain failure derives from :class:`MedQueryError` so callers (notably
the CLI) can distinguish domain errors from genuine I/O or usage problems.
Missing files are reported with the builtin ``FileNotFoundError``.
"""

from __future__ import annotations


class MedQueryError(Exception):
    """Base class for all medquery domain errors."""


# --- descriptor parsing ---------------------------------------------------


class MalformedXmlError(MedQueryError):
    """A descriptor file is not well-formed or violates the descriptor grammar."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateNameError(MedQueryError):
    """Two siblings of the same kind share a name."""

    def __init__(self, kind: str, name: str, context: str = ""):
        self.kind = kind
        self.name = name
        where = f" in {context}" if context else ""
        super().__init__(f"duplicate {kind} '{name}'{where}")


class UnresolvedFieldRefError(MedQueryError):
    """A (source, table, field) reference does not resolve against the declared sources."""

    def __init__(self, ref, detail: str = ""):
        self.ref = ref
        message = f"unresolved field reference {ref}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


# --- wrappers / data access -----------------------------------------------


class IoError(MedQueryError):
    """A source could not be read or its content does not match its declaration."""


class TypeCoercionError(MedQueryError):
    """A cell value cannot be coerced to the declared field type."""

    def __init__(self, row: int, field: str, lexical: str):
        self.row = row
        self.field = field
        self.lexical = lexical
        super().__init__(f"row {row}, field '{field}': cannot read {lexical!r}")


class UnknownTableError(MedQueryError):
    """A table name does not exist where it is expected to."""


class UnknownFieldError(MedQueryError):
    """A field name does not exist on the referenced table."""


# --- query parsing ----------------------------------------------------------


class ParseError(MedQueryError):
    """Query text does not match its language's grammar at offset ``position``."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"at offset {position}: {message}")


# --- SQL frontend -----------------------------------------------------------


class SqlParseError(ParseError):
    """The SQL text does not match the supported grammar."""


class UnsupportedSqlError(MedQueryError):
    """The SQL text uses a construct outside the supported subset."""

    def __init__(self, construct: str):
        self.construct = construct
        super().__init__(f"unsupported: {construct}")


# --- RDQL engine ------------------------------------------------------------


class RdqlParseError(ParseError):
    """The RDQL text does not match the supported grammar."""


class UnboundSelectVarError(MedQueryError):
    """A selected variable occurs in no triple pattern."""


class UnboundFilterVarError(MedQueryError):
    """A variable used in the constraint clause occurs in no triple pattern."""


# --- extraction -------------------------------------------------------------


class NoRelationPathError(MedQueryError):
    """An integrated field maps outside the master table with no join path to it."""

    def __init__(self, field: str, detail: str = ""):
        self.field = field
        message = f"no relation path for field '{field}'"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class MalformedPropertyIriError(MedQueryError):
    """A triple-pattern predicate IRI does not follow the integrated property scheme."""


# --- N-Triples --------------------------------------------------------------


class NtParseError(MedQueryError):
    """A line of N-Triples text does not match the serialization grammar."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")
