"""IRI schemes used by the integrated RDF view.

Materialized rows live under ``http://integratedDB/<table>/row/<n>`` and each
field becomes the property ``http://integratedDB/<table>#<field>``. The
datatype IRIs of literals live with the literals, in ``dtypes``.
"""

from __future__ import annotations

from .dtypes import is_identifier
from .errors import MalformedPropertyIriError

INTEGRATED_NS = "http://integratedDB/"


def property_iri(table: str, field: str) -> str:
    return f"{INTEGRATED_NS}{table}#{field}"


def subject_iri(table: str, row_index: int) -> str:
    return f"{INTEGRATED_NS}{table}/row/{row_index}"


def result_subject_iri(row_index: int) -> str:
    return f"{INTEGRATED_NS}result/row/{row_index}"


def result_property_iri(column: str) -> str:
    return f"{INTEGRATED_NS}result#{column}"


def split_property_iri(iri: str) -> tuple[str, str]:
    """Split an integrated property IRI into (table, field).

    Raises MalformedPropertyIriError when the IRI does not follow the
    ``http://integratedDB/<table>#<field>`` scheme.
    """
    if iri.startswith(INTEGRATED_NS):
        rest = iri[len(INTEGRATED_NS):]
        table, sep, field = rest.partition("#")
        if sep and is_identifier(table) and is_identifier(field):
            return table, field
    raise MalformedPropertyIriError(f"not an integrated property IRI: {iri}")

