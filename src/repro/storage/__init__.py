"""Relational storage for P3P: the Figure 8 generic schema, the Figure 14
optimized schema, reference-file tables (Figure 16), shredders, the
reconstruction view, and policy versioning."""

from repro.storage.database import (
    Database,
    QueryStats,
    quote_ident,
    sql_literal,
)
from repro.storage.pool import ConnectionPool
from repro.storage.generic_schema import (
    GENERIC_TABLES,
    TableDef,
    create_generic_schema,
    decompose_schema,
    schema_ddl,
)
from repro.storage.generic_shredder import GenericPolicyStore
from repro.storage.optimized_schema import (
    POLICY_TABLES,
    REFERENCE_TABLES,
    create_optimized_schema,
    create_reference_schema,
)
from repro.storage.reconstruct import reconstruct_policy, reconstruct_policy_xml
from repro.storage.refstore import ReferenceStore, glob_pattern
from repro.storage.shredder import PolicyStore, ShredReport
from repro.storage.versioning import PolicyVersion, VersionedPolicyStore

__all__ = [
    "Database",
    "QueryStats",
    "ConnectionPool",
    "quote_ident",
    "sql_literal",
    "GenericPolicyStore",
    "GENERIC_TABLES",
    "TableDef",
    "create_generic_schema",
    "decompose_schema",
    "schema_ddl",
    "PolicyStore",
    "ShredReport",
    "POLICY_TABLES",
    "REFERENCE_TABLES",
    "create_optimized_schema",
    "create_reference_schema",
    "ReferenceStore",
    "glob_pattern",
    "reconstruct_policy",
    "reconstruct_policy_xml",
    "PolicyVersion",
    "VersionedPolicyStore",
]
