"""Reference files in the database (Section 5.5, Figure 16).

The translated queries of Section 5.3 begin ``SELECT <behavior> FROM
ApplicablePolicy`` where ApplicablePolicy is "a subquery that queries
tables storing the data from the P3P reference file, and returns the id of
the applicable policy against which the rule must be evaluated".
:meth:`ReferenceStore.applicable_policy_subquery` generates exactly that
subquery; :meth:`applicable_policy_id` runs the same statement with site
and URI bound instead of inlined (:data:`APPLICABLE_POLICY_SQL`).

URI wildcard matching (P3P ``*`` patterns) is compiled to SQL ``GLOB``,
which is case-sensitive like the P3P patterns themselves (``LIKE``
ignores ASCII case), so the whole lookup runs inside the database.
"""

from __future__ import annotations

from repro.errors import ReferenceFileError
from repro.p3p.reference import ReferenceFile
from repro.storage.database import Database, sql_literal
from repro.storage.optimized_schema import create_reference_schema
from repro.storage.shredder import PolicyStore

#: SQLite's GLOB reads a string only up to its first NUL, so a URI is
#: bound with each NUL replaced by U+FFFF.  XML allows neither
#: character, so no reference-file pattern holds one, and only a ``*``
#: wildcard matches either — as ``.`` does in
#: :func:`repro.p3p.reference.uri_matches`.
_NUL_STAND_IN = "\uffff"

#: Shredding statements as named constants: the sqlcheck contract gate
#: imports these and validates each against the reference schema, so a
#: Figure 16 column rename fails `p3pdb audit --sql-contracts` instead
#: of the next reference-file install.
INSERT_META_SQL = "INSERT INTO meta (site, expiry) VALUES (?, ?)"
INSERT_POLICYREF_SQL = (
    "INSERT INTO policyref (policyref_id, meta_id, about, policy_id) "
    "VALUES (?, ?, ?, ?)"
)

#: Per-pattern-table id column: the cookie tables reuse the base
#: tables' column names (Figure 16 keeps one shape for all four).
PATTERN_ID_COLUMNS = {
    "include": "include_id",
    "exclude": "exclude_id",
    "cookie_include": "include_id",
    "cookie_exclude": "exclude_id",
}
PATTERN_INSERT_SQL = {
    table: (f"INSERT INTO {table} ({column}, policyref_id, meta_id, "
            "pattern) VALUES (?, ?, ?, ?)")
    for table, column in PATTERN_ID_COLUMNS.items()
}

#: Deletion order respects child-before-parent (patterns and policyref
#: rows reference meta).
REFERENCE_DELETE_ORDER = ("include", "exclude", "cookie_include",
                          "cookie_exclude", "policyref", "meta")
REFERENCE_DELETE_SQL = {
    table: f"DELETE FROM {table} WHERE meta_id = ?"
    for table in REFERENCE_DELETE_ORDER
}


def glob_pattern(pattern: str) -> str:
    """Convert a P3P ``*`` wildcard pattern to a GLOB pattern.

    ``*`` is the wildcard in both.  GLOB has no escape character, so its
    other metacharacters ``[`` and ``?`` become one-character classes
    that match only themselves; ``]`` outside a class is literal.
    """
    return pattern.replace("[", "[[]").replace("?", "[?]")


class ReferenceStore:
    """Reference-file data shredded into the Figure 16 tables."""

    def __init__(self, db: Database | None = None):
        self.db = db if db is not None else Database()
        create_reference_schema(self.db)
        self.register_sql_functions()

    # -- installation -----------------------------------------------------------

    def install_reference_file(self, reference: ReferenceFile, site: str,
                               policy_store: PolicyStore | None = None,
                               policy_ids: dict[str, int] | None = None,
                               replace: bool = True) -> int:
        """Shred *reference* for *site*; returns the new meta id.

        Each POLICY-REF's ``about`` fragment is resolved to a shredded
        policy id, either through *policy_ids* (name -> id) or by looking
        the name up in *policy_store*.  Unresolvable names raise
        ReferenceFileError: a reference file pointing at a policy the
        server never installed is a deployment error.

        With ``replace=True`` (the default) any previously installed
        reference file for *site* is removed first — a site has exactly
        one current reference file, and stale META rows would otherwise
        shadow new policy versions during the ApplicablePolicy lookup.
        """
        with self.db.transaction():
            if replace:
                self._remove_site(site)
            cursor = self.db.execute(
                INSERT_META_SQL, (site, reference.expiry),
            )
            meta_id = cursor.lastrowid

            for policyref_id, ref in enumerate(reference.refs, start=1):
                policy_id = self._resolve(ref.policy_name, policy_store,
                                          policy_ids)
                self.db.execute(
                    INSERT_POLICYREF_SQL,
                    (policyref_id, meta_id, ref.about, policy_id),
                )
                self._insert_patterns("include", meta_id, policyref_id,
                                      ref.includes)
                self._insert_patterns("exclude", meta_id, policyref_id,
                                      ref.excludes)
                self._insert_patterns("cookie_include", meta_id,
                                      policyref_id, ref.cookie_includes)
                self._insert_patterns("cookie_exclude", meta_id,
                                      policyref_id, ref.cookie_excludes)
        return meta_id

    def _remove_site(self, site: str) -> None:
        meta_ids = [
            row["meta_id"]
            for row in self.db.query(
                "SELECT meta_id FROM meta WHERE site = ?", (site,)
            )
        ]
        for meta_id in meta_ids:
            for table in REFERENCE_DELETE_ORDER:
                self.db.execute(REFERENCE_DELETE_SQL[table], (meta_id,))

    def _resolve(self, name: str, policy_store: PolicyStore | None,
                 policy_ids: dict[str, int] | None) -> int:
        if policy_ids is not None and name in policy_ids:
            return policy_ids[name]
        if policy_store is not None:
            policy_id = policy_store.policy_id_by_name(name)
            if policy_id is not None:
                return policy_id
        raise ReferenceFileError(
            f"POLICY-REF names unknown policy {name!r}"
        )

    def _insert_patterns(self, table: str, meta_id: int, policyref_id: int,
                         patterns: tuple[str, ...]) -> None:
        for pattern_id, pattern in enumerate(patterns, start=1):
            self.db.execute(
                PATTERN_INSERT_SQL[table],
                (pattern_id, policyref_id, meta_id, pattern),
            )

    # -- lookup --------------------------------------------------------------------

    def applicable_policy_subquery(self, site: str, uri: str,
                                   cookie: bool = False) -> str:
        """The ApplicablePolicy subquery of Section 5.3 (literals inlined).

        Returns one row ``(policy_id)`` — the first POLICY-REF in document
        order whose INCLUDE patterns cover *uri* and whose EXCLUDE patterns
        do not.
        """
        return _applicable_policy_sql(sql_literal(site), sql_literal(uri),
                                      cookie)

    def register_sql_functions(self, db: Database | None = None) -> None:
        """Register the ``glob_pattern`` SQL function on *db*.

        Once per connection: redefining a function expires every
        statement the connection has prepared.  The store registers it
        on its own connection; a pool's connect hook does it for every
        other connection the lookup runs on.
        """
        target = db if db is not None else self.db
        target.create_function("glob_pattern", 1, glob_pattern)

    def applicable_policy_id(self, site: str, uri: str,
                             cookie: bool = False,
                             db: Database | None = None) -> int | None:
        """Run the ApplicablePolicy lookup; None if no policy covers *uri*.

        Site and URI are bound, not inlined, so request data never
        becomes SQL text and every lookup reuses one prepared statement.
        Pass *db* to run the lookup on another connection to the same
        database (e.g. a pooled per-thread reader with ``glob_pattern``
        registered).
        """
        target = db if db is not None else self.db
        bound = uri.replace("\0", _NUL_STAND_IN)
        return target.scalar(
            APPLICABLE_COOKIE_POLICY_SQL if cookie else APPLICABLE_POLICY_SQL,
            (site, bound, bound))


def _applicable_policy_sql(site: str, uri: str, cookie: bool) -> str:
    """The ApplicablePolicy subquery over the SQL expressions *site* and
    *uri* (literals, or ``?`` binds)."""
    include_table = "cookie_include" if cookie else "include"
    exclude_table = "cookie_exclude" if cookie else "exclude"
    return (
        "SELECT policyref.policy_id AS policy_id\n"
        "FROM policyref, meta\n"
        "WHERE policyref.meta_id = meta.meta_id\n"
        f"  AND meta.site = {site}\n"
        "  AND EXISTS (\n"
        f"    SELECT * FROM {include_table}\n"
        f"    WHERE {include_table}.policyref_id = policyref.policyref_id\n"
        f"      AND {include_table}.meta_id = policyref.meta_id\n"
        f"      AND {uri} GLOB glob_pattern({include_table}.pattern))\n"
        "  AND NOT EXISTS (\n"
        f"    SELECT * FROM {exclude_table}\n"
        f"    WHERE {exclude_table}.policyref_id = policyref.policyref_id\n"
        f"      AND {exclude_table}.meta_id = policyref.meta_id\n"
        f"      AND {uri} GLOB glob_pattern({exclude_table}.pattern))\n"
        "ORDER BY policyref.meta_id, policyref.policyref_id\n"
        "LIMIT 1"
    )


#: The lookup :meth:`ReferenceStore.applicable_policy_id` runs, one
#: static statement per cookie flag; binds ``(site, uri, uri)``.
APPLICABLE_POLICY_SQL = _applicable_policy_sql("?", "?", cookie=False)
APPLICABLE_COOKIE_POLICY_SQL = _applicable_policy_sql("?", "?", cookie=True)
