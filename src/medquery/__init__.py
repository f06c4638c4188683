"""medquery: a mediator that answers SQL/RDQL queries over heterogeneous sources.

Descriptor files declare the sources and an integrated relational schema;
the mediator checks the schema, lazily materializes exactly the integrated
tables a query needs, publishes them as RDF triples, and evaluates queries
(SQL translated to RDQL, or RDQL directly) over that view: see
:func:`open_project` and :func:`execute_query` in ``mediator``.
"""

from .descriptors import (
    DataSourceDescriptor,
    FieldRef,
    IntegratedSchema,
    Project,
    parse_project,
    resolve_field_ref,
    serialize_schema,
)
from .dtypes import Dtype, Iri, TypedLiteral
from .errors import MedQueryError
from .extraction import (
    IntegratedData,
    build_triples,
    materialize_integrated_table,
    materialize_required,
    required_tables,
)
from .mediator import execute_query, open_project
from .rdql_engine import RdqlQuery, ResultSet, evaluate, parse_rdql
from .schema_check import SatisfiabilityReport, check_schema
from .sql_frontend import SqlQuery, parse_sql
from .sql_to_rdql import convert
from .triple_store import Triple, TripleStore, export_ntriples, import_ntriples
from .wrappers import AccessLog, Table, fetch_table

__version__ = "0.1.0"

__all__ = [
    "AccessLog",
    "DataSourceDescriptor",
    "Dtype",
    "FieldRef",
    "IntegratedData",
    "IntegratedSchema",
    "Iri",
    "MedQueryError",
    "Project",
    "RdqlQuery",
    "ResultSet",
    "SatisfiabilityReport",
    "SqlQuery",
    "Table",
    "Triple",
    "TripleStore",
    "TypedLiteral",
    "build_triples",
    "check_schema",
    "convert",
    "evaluate",
    "execute_query",
    "export_ntriples",
    "fetch_table",
    "import_ntriples",
    "materialize_integrated_table",
    "materialize_required",
    "open_project",
    "parse_project",
    "parse_rdql",
    "parse_sql",
    "required_tables",
    "resolve_field_ref",
    "serialize_schema",
]
