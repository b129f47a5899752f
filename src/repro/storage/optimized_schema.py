"""Figure 14: the optimized relational schema for storing policies.

Relative to the Figure 8 decomposition, the optimizations of Section 5.4
are applied:

* purpose / recipient / category *values* become rows in their parent's
  table (``purpose.purpose``, ``recipient.recipient``,
  ``category.category``) with a ``required`` column for the value
  subelements' attribute;
* PURPOSE and RECIPIENT lose their id column — (policy_id, statement_id)
  suffices because a STATEMENT has at most one of each;
* RETENTION values are stored with the grand-parent STATEMENT
  (``statement.retention``);
* CONSEQUENCE becomes a nullable ``statement.consequence`` column;
* ACCESS and TEST fold into the ``policy`` table.

The schema also stores ENTITY data and DISPUTES (with remedies), plus the
versioning columns used by :mod:`repro.storage.versioning`.
"""

from __future__ import annotations

from repro.storage.database import Database

OPTIMIZED_DDL = """
CREATE TABLE IF NOT EXISTS policy (
  policy_id       INTEGER PRIMARY KEY,
  name            TEXT,
  discuri         TEXT,
  opturi          TEXT,
  access          TEXT,
  test            INTEGER NOT NULL DEFAULT 0,
  site            TEXT,
  version         INTEGER NOT NULL DEFAULT 1,
  active          INTEGER NOT NULL DEFAULT 1,
  installed_at    TEXT
);

CREATE TABLE IF NOT EXISTS entity (
  policy_id       INTEGER NOT NULL REFERENCES policy(policy_id),
  ref             TEXT NOT NULL,
  value           TEXT,
  PRIMARY KEY (policy_id, ref)
);

CREATE TABLE IF NOT EXISTS disputes (
  disputes_id     INTEGER NOT NULL,
  policy_id       INTEGER NOT NULL REFERENCES policy(policy_id),
  resolution_type TEXT,
  service         TEXT,
  verification    TEXT,
  long_description TEXT,
  PRIMARY KEY (disputes_id, policy_id)
);

CREATE TABLE IF NOT EXISTS remedy (
  policy_id       INTEGER NOT NULL,
  disputes_id     INTEGER NOT NULL,
  remedy          TEXT NOT NULL,
  PRIMARY KEY (policy_id, disputes_id, remedy)
);

CREATE TABLE IF NOT EXISTS statement (
  statement_id    INTEGER NOT NULL,
  policy_id       INTEGER NOT NULL REFERENCES policy(policy_id),
  consequence     TEXT,
  retention       TEXT,
  non_identifiable INTEGER NOT NULL DEFAULT 0,
  PRIMARY KEY (statement_id, policy_id)
);

CREATE TABLE IF NOT EXISTS purpose (
  policy_id       INTEGER NOT NULL,
  statement_id    INTEGER NOT NULL,
  purpose         TEXT NOT NULL,
  required        TEXT NOT NULL DEFAULT 'always',
  PRIMARY KEY (policy_id, statement_id, purpose, required)
);

CREATE TABLE IF NOT EXISTS recipient (
  policy_id       INTEGER NOT NULL,
  statement_id    INTEGER NOT NULL,
  recipient       TEXT NOT NULL,
  required        TEXT NOT NULL DEFAULT 'always',
  PRIMARY KEY (policy_id, statement_id, recipient, required)
);

CREATE TABLE IF NOT EXISTS data (
  data_id         INTEGER NOT NULL,
  statement_id    INTEGER NOT NULL,
  policy_id       INTEGER NOT NULL,
  ref             TEXT NOT NULL,
  optional        TEXT NOT NULL DEFAULT 'no',
  PRIMARY KEY (data_id, statement_id, policy_id)
);

CREATE TABLE IF NOT EXISTS category (
  policy_id       INTEGER NOT NULL,
  statement_id    INTEGER NOT NULL,
  data_id         INTEGER NOT NULL,
  category        TEXT NOT NULL,
  source          TEXT NOT NULL DEFAULT 'base',
  PRIMARY KEY (policy_id, statement_id, data_id, category)
);

CREATE INDEX IF NOT EXISTS idx_statement_policy ON statement(policy_id);
CREATE INDEX IF NOT EXISTS idx_purpose_statement ON purpose(policy_id, statement_id);
CREATE INDEX IF NOT EXISTS idx_recipient_statement ON recipient(policy_id, statement_id);
CREATE INDEX IF NOT EXISTS idx_data_statement ON data(policy_id, statement_id);
CREATE INDEX IF NOT EXISTS idx_category_data ON category(policy_id, statement_id, data_id);
-- Version lookups by (name, site): an install's active-version probe and
-- the decision cache's invalidation of superseded versions.
CREATE INDEX IF NOT EXISTS idx_policy_name_site ON policy(name, site, active);
"""

#: Figure 16: tables for storing the reference file information.
REFERENCE_DDL = """
CREATE TABLE IF NOT EXISTS meta (
  meta_id         INTEGER PRIMARY KEY,
  site            TEXT,
  expiry          TEXT
);

CREATE TABLE IF NOT EXISTS policyref (
  policyref_id    INTEGER NOT NULL,
  meta_id         INTEGER NOT NULL REFERENCES meta(meta_id),
  about           TEXT NOT NULL,
  policy_id       INTEGER,
  PRIMARY KEY (policyref_id, meta_id)
);

CREATE TABLE IF NOT EXISTS include (
  include_id      INTEGER NOT NULL,
  policyref_id    INTEGER NOT NULL,
  meta_id         INTEGER NOT NULL,
  pattern         TEXT NOT NULL,
  PRIMARY KEY (include_id, policyref_id, meta_id)
);

CREATE TABLE IF NOT EXISTS exclude (
  exclude_id      INTEGER NOT NULL,
  policyref_id    INTEGER NOT NULL,
  meta_id         INTEGER NOT NULL,
  pattern         TEXT NOT NULL,
  PRIMARY KEY (exclude_id, policyref_id, meta_id)
);

CREATE TABLE IF NOT EXISTS cookie_include (
  include_id      INTEGER NOT NULL,
  policyref_id    INTEGER NOT NULL,
  meta_id         INTEGER NOT NULL,
  pattern         TEXT NOT NULL,
  PRIMARY KEY (include_id, policyref_id, meta_id)
);

CREATE TABLE IF NOT EXISTS cookie_exclude (
  exclude_id      INTEGER NOT NULL,
  policyref_id    INTEGER NOT NULL,
  meta_id         INTEGER NOT NULL,
  pattern         TEXT NOT NULL,
  PRIMARY KEY (exclude_id, policyref_id, meta_id)
);

CREATE INDEX IF NOT EXISTS idx_policyref_meta ON policyref(meta_id);
"""


def create_optimized_schema(db: Database) -> None:
    """Create the Figure 14 policy tables in *db*."""
    db.executescript(OPTIMIZED_DDL)


def create_reference_schema(db: Database) -> None:
    """Create the Figure 16 reference-file tables in *db*."""
    db.executescript(REFERENCE_DDL)


#: Table names of the Figure 14 schema, in dependency order.
POLICY_TABLES = (
    "policy", "entity", "disputes", "remedy", "statement",
    "purpose", "recipient", "data", "category",
)

#: Table names of the Figure 16 schema.
REFERENCE_TABLES = (
    "meta", "policyref", "include", "exclude",
    "cookie_include", "cookie_exclude",
)
