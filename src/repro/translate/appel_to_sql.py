"""Translating APPEL preferences into SQL (Section 5.3 / Figure 11).

Two translators are provided:

* :class:`GenericSqlTranslator` — the Figure 11 algorithm, verbatim,
  against the Figure 8 one-table-per-element schema.  Its output for the
  simplified rule of Figure 12 has the shape of Figure 13: a chain of
  nested ``EXISTS`` subqueries joining each element's table to its
  parent's primary key, with vocabulary values as their own tables
  (``FROM admin``, ``FROM contact``).

* :class:`OptimizedSqlTranslator` — the production translator against the
  Figure 14 optimized schema.  As in Figure 15, per-value subqueries are
  merged into a single subquery over the parent's table wherever the
  connective allows (``or``/``non-or``), and folded elements (ACCESS,
  RETENTION, CONSEQUENCE, ...) become column predicates.

Both support all six APPEL connectives (the paper's pseudocode shows only
or/and "to simplify exposition" and refers to [2] for the rest).  A rule
translates to one SELECT returning its behavior when the applicable policy
matches; rules are executed in preference order and the first non-empty
result wins.

Each translator offers two output shapes:

* ``compile_ruleset(ruleset)`` — the production path: a policy-
  independent :class:`~repro.translate.plan.CompiledPlan` whose SQL
  binds the applicable policy id as a ``?`` parameter and folds the
  first-rule-wins loop into one statement (one round-trip per check).
* ``translate_ruleset(ruleset, applicable_policy_sql)`` — the literal
  pipeline of the paper's figures, kept as the pedagogical and
  differential reference: the caller splices an ApplicablePolicy
  subquery (usually :func:`applicable_policy_literal`) and
  :func:`evaluate_ruleset` runs one round-trip per rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.appel.model import Expression, Rule, Ruleset
from repro.errors import TranslationError
from repro.storage.database import Database, quote_ident, sql_literal
from repro.translate import sqlgen
from repro.translate.plan import (
    APPLICABLE_POLICY_PARAM,
    BodyPlan,
    BulkPlan,
    CompiledPlan,
    PlanRule,
    body_statement,
    combine_bulk_rules,
    combine_rules,
)
from repro.translate.sqlgen import FALSE_CLAUSE, TRUE_CLAUSE
from repro.vocab import schema as p3p_schema


@dataclass(frozen=True)
class TranslatedRule:
    """One APPEL rule compiled to SQL."""

    behavior: str
    sql: str


@dataclass(frozen=True)
class TranslatedRuleset:
    """A full preference compiled to an ordered list of SQL queries."""

    rules: tuple[TranslatedRule, ...]

    def queries(self) -> list[str]:
        return [rule.sql for rule in self.rules]


def applicable_policy_literal(policy_id: int) -> str:
    """An ApplicablePolicy subquery selecting a known policy id directly.

    Used when the reference-file lookup has already happened (or when
    benchmarks match a preference against every stored policy in turn).
    """
    return f"SELECT {int(policy_id)} AS policy_id"


def evaluate_ruleset(db: Database, translated: TranslatedRuleset
                     ) -> tuple[str | None, int | None]:
    """Run the rule queries in order; return (behavior, rule index) of the
    first rule that fires, or (None, None).

    One round-trip per rule probed — the literal pipeline's loop,
    retained as the differential reference for
    :meth:`CompiledPlan.execute`'s single-statement evaluation.
    """
    for index, rule in enumerate(translated.rules):
        row = db.query_one(rule.sql)
        if row is not None:
            return rule.behavior, index
    return None, None


def _rule_header(behavior: str, applicable_policy_sql: str,
                 rule_index: int | None = None, *,
                 project_policy_id: bool = False) -> str:
    """The SELECT head of one rule query.

    With *rule_index* the projection carries the rule's position too —
    the column :func:`~repro.translate.plan.combine_rules` orders the
    UNION ALL members by.  With *project_policy_id* it also carries the
    applicable policy's id, which the bulk form's window function
    partitions by (the ApplicablePolicy relation is then the whole
    corpus, not a single id).
    """
    parts: list[str] = []
    if project_policy_id:
        parts.append("applicable_policy.policy_id AS policy_id")
    parts.append(f"{sql_literal(behavior)} AS behavior")
    if rule_index is not None:
        parts.append(f"{int(rule_index)} AS rule_index")
    return (
        "SELECT " + ", ".join(parts) + "\n"
        "FROM (\n"
        + sqlgen.indent_block(applicable_policy_sql)
        + "\n) AS applicable_policy\n"
        "WHERE "
    )


def _compile_ruleset(translator, ruleset: Ruleset) -> CompiledPlan:
    """Shared compile-once path: parameterized, indexed, single-query."""
    rules = tuple(
        PlanRule(
            behavior=rule.behavior,
            rule_index=index,
            sql=translator.translate_rule(rule, APPLICABLE_POLICY_PARAM,
                                          rule_index=index),
        )
        for index, rule in enumerate(ruleset.rules)
    )
    return CompiledPlan(rules=rules, sql=combine_rules(rules))


def _compile_bulk(translator, ruleset: Ruleset) -> BulkPlan:
    """Shared set-at-a-time compile: one statement, every policy at once.

    The ApplicablePolicy relation is the translator's
    ``BULK_POLICY_SOURCE`` (all installed — for the optimized schema,
    all *active* — policies).  Each rule member projects the policy id
    so :func:`~repro.translate.plan.combine_bulk_rules` can pick the
    first firing rule per policy.
    """
    source = translator.BULK_POLICY_SOURCE
    rules = tuple(
        PlanRule(
            behavior=rule.behavior,
            rule_index=index,
            sql=translator.translate_rule(rule, source, rule_index=index,
                                          project_policy_id=True),
        )
        for index, rule in enumerate(ruleset.rules)
    )
    return BulkPlan(rules=rules, sql=combine_bulk_rules(rules))


def _root_clauses(rule: Rule, match_top) -> str:
    """Combine a rule's top-level expressions (root must be POLICY)."""
    clauses: list[str] = []
    for expr in rule.expressions:
        if expr.name != "POLICY":
            # Only a POLICY element can match the evidence root.
            clauses.append(FALSE_CLAUSE)
        else:
            clauses.append(match_top(expr))
    listed = {expr.name for expr in rule.expressions}
    exact = TRUE_CLAUSE if "POLICY" in listed else FALSE_CLAUSE
    return sqlgen.combine(rule.connective, clauses, exact)


class GenericSqlTranslator:
    """Figure 11: APPEL to SQL over the generic (Figure 8) schema."""

    #: All installed policies (the generic schema has no versioning, so
    #: every ``policy`` row is live).
    BULK_POLICY_SOURCE = "SELECT policy_id FROM policy"

    def compile_ruleset(self, ruleset: Ruleset) -> CompiledPlan:
        """Compile once: parameterized policy id, one query per check."""
        return _compile_ruleset(self, ruleset)

    def compile_bulk(self, ruleset: Ruleset) -> BulkPlan:
        """Compile set-at-a-time: every policy in one statement."""
        return _compile_bulk(self, ruleset)

    def translate_ruleset(self, ruleset: Ruleset,
                          applicable_policy_sql: str) -> TranslatedRuleset:
        return TranslatedRuleset(
            rules=tuple(
                TranslatedRule(rule.behavior,
                               self.translate_rule(rule,
                                                   applicable_policy_sql))
                for rule in ruleset.rules
            )
        )

    def translate_rule(self, rule: Rule,
                       applicable_policy_sql: str, *,
                       rule_index: int | None = None,
                       project_policy_id: bool = False) -> str:
        """The main() function of Figure 11."""
        header = _rule_header(rule.behavior, applicable_policy_sql,
                              rule_index,
                              project_policy_id=project_policy_id)
        if rule.is_catch_all():
            return header + TRUE_CLAUSE

        def match_top(expr: Expression) -> str:
            return sqlgen.exists(
                self._match(expr, parent_alias="applicable_policy",
                            parent_keys=("policy_id",))
            )

        return header + _root_clauses(rule, match_top)

    def _match(self, expr: Expression, parent_alias: str,
               parent_keys: tuple[str, ...]) -> str:
        """The match() function of Figure 11."""
        spec = p3p_schema.CATALOG.get(expr.name)
        if spec is None:
            raise TranslationError(
                f"{expr.name!r} is not a P3P element"
            )
        table = quote_ident(p3p_schema.table_name(expr.name))

        predicates: list[str] = []
        # Path connecting e with its parent element (Figure 11, line 15).
        for column in parent_keys:
            predicates.append(
                f"{table}.{column} = {parent_alias}.{column}"
            )
        # Match attributes of e (lines 16-17).  An attribute the element
        # can never carry means the pattern can never match (the native
        # engine compares against an absent value), hence FALSE.
        for name, value in expr.attributes:
            attr_spec = spec.attribute(name)
            if attr_spec is None:
                predicates.append(FALSE_CLAUSE)
                continue
            column = quote_ident(name.replace("-", "_"))
            predicates.append(f"{table}.{column} = {sql_literal(value)}")

        # Recursively match subexpressions (lines 20-21), extended with the
        # *-exact handling of the full algorithm.
        if expr.subexpressions:
            own_keys = p3p_schema.key_columns(expr.name)
            clauses: list[str] = []
            for sub in expr.subexpressions:
                if sub.name not in spec.children:
                    # A pattern child that can never occur here matches
                    # nothing (relevant to the negated connectives).
                    clauses.append(FALSE_CLAUSE)
                    continue
                clauses.append(
                    sqlgen.exists(self._match(sub, parent_alias=table,
                                              parent_keys=own_keys))
                )
            exact = self._exact_clause(expr, spec, table, own_keys)
            predicates.append(
                sqlgen.combine(expr.connective, clauses, exact)
            )

        return (
            "SELECT *\n"
            f"FROM {table}\n"
            "WHERE " + sqlgen.conjoin(predicates)
        )

    def _exact_clause(self, expr: Expression, spec, table: str,
                      own_keys: tuple[str, ...]) -> str:
        """Predicate: the element has no children outside the listed names."""
        listed = expr.subexpression_names()
        unlisted = [c for c in spec.children if c not in listed]
        clauses: list[str] = []
        for child in unlisted:
            child_table = quote_ident(p3p_schema.table_name(child))
            joins = [
                f"{child_table}.{column} = {table}.{column}"
                for column in own_keys
            ]
            clauses.append(
                sqlgen.not_exists(
                    "SELECT *\n"
                    f"FROM {child_table}\n"
                    "WHERE " + sqlgen.conjoin(joins)
                )
            )
        return sqlgen.conjoin(clauses) if clauses else TRUE_CLAUSE


class OptimizedSqlTranslator:
    """APPEL to SQL over the optimized (Figure 14) schema.

    Each translation method returns a boolean SQL clause evaluated in the
    scope of its *anchor* table (``policy``, ``statement``, ``disputes`` or
    ``data``), mirroring how Section 5.4's "special functions for some
    subexpressions (such as PURPOSE and RECIPIENT) merge several subqueries
    into a single subquery".
    """

    #: All *active* policies: the versioned store keeps superseded
    #: versions as inactive rows, which a corpus match must not see.
    BULK_POLICY_SOURCE = "SELECT policy_id FROM policy WHERE active = 1"

    def compile_ruleset(self, ruleset: Ruleset) -> CompiledPlan:
        """Compile once: parameterized policy id, one query per check."""
        return _compile_ruleset(self, ruleset)

    def compile_bulk(self, ruleset: Ruleset) -> BulkPlan:
        """Compile set-at-a-time: every active policy in one
        statement."""
        return _compile_bulk(self, ruleset)

    def compile_body(self, rule: Rule) -> BodyPlan:
        """Compile *rule*'s body against the stored bits of every
        active policy; behavior and position play no part."""
        return BodyPlan(sql=body_statement(self.BULK_POLICY_SOURCE,
                                           self.rule_clause(rule)))

    def translate_ruleset(self, ruleset: Ruleset,
                          applicable_policy_sql: str) -> TranslatedRuleset:
        return TranslatedRuleset(
            rules=tuple(
                TranslatedRule(rule.behavior,
                               self.translate_rule(rule,
                                                   applicable_policy_sql))
                for rule in ruleset.rules
            )
        )

    def translate_rule(self, rule: Rule,
                       applicable_policy_sql: str, *,
                       rule_index: int | None = None,
                       project_policy_id: bool = False) -> str:
        header = _rule_header(rule.behavior, applicable_policy_sql,
                              rule_index,
                              project_policy_id=project_policy_id)
        return header + self.rule_clause(rule)

    def rule_clause(self, rule: Rule) -> str:
        """The boolean clause, correlated with ``applicable_policy``,
        that holds where *rule*'s body fires."""
        if rule.is_catch_all():
            return TRUE_CLAUSE
        return _root_clauses(rule, self._policy_clause)

    # -- POLICY level -----------------------------------------------------------

    def _policy_clause(self, expr: Expression) -> str:
        predicates = ["policy.policy_id = applicable_policy.policy_id"]
        predicates.extend(
            self._column_attrs(expr, "policy",
                               allowed=("name", "discuri", "opturi"))
        )
        if expr.subexpressions:
            clauses = [self._policy_child(sub)
                       for sub in expr.subexpressions]
            exact = self._policy_exact(expr)
            predicates.append(
                sqlgen.combine(expr.connective, clauses, exact)
            )
        return sqlgen.exists(
            "SELECT *\nFROM policy\nWHERE " + sqlgen.conjoin(predicates)
        )

    def _policy_child(self, expr: Expression) -> str:
        if expr.name == "ENTITY":
            if expr.subexpressions or expr.attributes:
                raise TranslationError(
                    "ENTITY patterns cannot be navigated in the optimized "
                    "schema"
                )
            return sqlgen.exists(
                "SELECT *\nFROM entity\n"
                "WHERE entity.policy_id = policy.policy_id"
            )
        if expr.name == "ACCESS":
            return self._single_value_clause(
                expr, column="policy.access",
                values=p3p_schema.value_children("ACCESS"),
            )
        if expr.name == "TEST":
            return self._leaf_clause(expr, "policy.test = 1")
        if expr.name == "DISPUTES-GROUP":
            return self._disputes_group_clause(expr)
        if expr.name == "STATEMENT":
            return self._statement_clause(expr)
        return FALSE_CLAUSE  # cannot occur under POLICY

    def _policy_exact(self, expr: Expression) -> str:
        listed = expr.subexpression_names()
        absent: list[str] = []
        if "ENTITY" not in listed:
            absent.append(sqlgen.not_exists(
                "SELECT *\nFROM entity\n"
                "WHERE entity.policy_id = policy.policy_id"
            ))
        if "ACCESS" not in listed:
            absent.append("policy.access IS NULL")
        if "TEST" not in listed:
            absent.append("policy.test = 0")
        if "DISPUTES-GROUP" not in listed:
            absent.append(sqlgen.not_exists(
                "SELECT *\nFROM disputes\n"
                "WHERE disputes.policy_id = policy.policy_id"
            ))
        if "STATEMENT" not in listed:
            absent.append(sqlgen.not_exists(
                "SELECT *\nFROM statement\n"
                "WHERE statement.policy_id = policy.policy_id"
            ))
        return sqlgen.conjoin(absent) if absent else TRUE_CLAUSE

    # -- DISPUTES ------------------------------------------------------------------

    def _disputes_group_clause(self, expr: Expression) -> str:
        if not expr.subexpressions:
            return sqlgen.exists(
                "SELECT *\nFROM disputes\n"
                "WHERE disputes.policy_id = policy.policy_id"
            )
        clauses = []
        for sub in expr.subexpressions:
            if sub.name != "DISPUTES":
                clauses.append(FALSE_CLAUSE)
                continue
            clauses.append(self._disputes_clause(sub))
        # DISPUTES-GROUP can only contain DISPUTES, so exactness holds
        # whenever DISPUTES is listed.
        exact = (TRUE_CLAUSE if "DISPUTES" in expr.subexpression_names()
                 else self._no_disputes_clause())
        combined = sqlgen.combine(expr.connective, clauses, exact)
        if expr.connective in ("non-and", "non-or"):
            # The DISPUTES-GROUP element exists iff disputes rows exist.
            existence = sqlgen.exists(
                "SELECT *\nFROM disputes\n"
                "WHERE disputes.policy_id = policy.policy_id"
            )
            return sqlgen.conjoin([existence, combined])
        return combined

    def _no_disputes_clause(self) -> str:
        return sqlgen.not_exists(
            "SELECT *\nFROM disputes\n"
            "WHERE disputes.policy_id = policy.policy_id"
        )

    def _disputes_clause(self, expr: Expression) -> str:
        predicates = ["disputes.policy_id = policy.policy_id"]
        predicates.extend(
            self._column_attrs(
                expr, "disputes",
                allowed=("resolution-type", "service", "verification"),
            )
        )
        if expr.subexpressions:
            clauses = []
            for sub in expr.subexpressions:
                if sub.name == "LONG-DESCRIPTION":
                    clauses.append("disputes.long_description IS NOT NULL")
                elif sub.name == "REMEDIES":
                    clauses.append(self._remedies_clause(sub))
                else:
                    clauses.append(FALSE_CLAUSE)
            exact = self._disputes_exact(expr)
            predicates.append(
                sqlgen.combine(expr.connective, clauses, exact)
            )
        return sqlgen.exists(
            "SELECT *\nFROM disputes\nWHERE " + sqlgen.conjoin(predicates)
        )

    def _disputes_exact(self, expr: Expression) -> str:
        listed = expr.subexpression_names()
        absent: list[str] = []
        if "LONG-DESCRIPTION" not in listed:
            absent.append("disputes.long_description IS NULL")
        if "REMEDIES" not in listed:
            absent.append(sqlgen.not_exists(
                "SELECT *\nFROM remedy\n"
                "WHERE remedy.policy_id = disputes.policy_id\n"
                "  AND remedy.disputes_id = disputes.disputes_id"
            ))
        return sqlgen.conjoin(absent) if absent else TRUE_CLAUSE

    def _remedies_clause(self, expr: Expression) -> str:
        anchor = ("remedy.policy_id = disputes.policy_id\n"
                  "  AND remedy.disputes_id = disputes.disputes_id")
        return self._value_table_clause(
            expr, table="remedy", value_column="remedy",
            anchor_join=anchor,
            values=p3p_schema.value_children("REMEDIES"),
        )

    # -- STATEMENT level ----------------------------------------------------------

    def _statement_clause(self, expr: Expression) -> str:
        predicates = ["statement.policy_id = policy.policy_id"]
        if expr.attributes:
            # STATEMENT carries no attributes; such a pattern never matches.
            predicates.append(FALSE_CLAUSE)
        if expr.subexpressions:
            clauses = [self._statement_child(sub)
                       for sub in expr.subexpressions]
            exact = self._statement_exact(expr)
            predicates.append(
                sqlgen.combine(expr.connective, clauses, exact)
            )
        return sqlgen.exists(
            "SELECT *\nFROM statement\nWHERE " + sqlgen.conjoin(predicates)
        )

    def _statement_child(self, expr: Expression) -> str:
        if expr.name == "CONSEQUENCE":
            return self._leaf_clause(expr,
                                     "statement.consequence IS NOT NULL")
        if expr.name == "NON-IDENTIFIABLE":
            return self._leaf_clause(expr, "statement.non_identifiable = 1")
        if expr.name == "PURPOSE":
            return self._value_table_clause(
                expr, table="purpose", value_column="purpose",
                anchor_join=("purpose.policy_id = statement.policy_id\n"
                             "  AND purpose.statement_id = "
                             "statement.statement_id"),
                values=p3p_schema.value_children("PURPOSE"),
            )
        if expr.name == "RECIPIENT":
            return self._value_table_clause(
                expr, table="recipient", value_column="recipient",
                anchor_join=("recipient.policy_id = statement.policy_id\n"
                             "  AND recipient.statement_id = "
                             "statement.statement_id"),
                values=p3p_schema.value_children("RECIPIENT"),
            )
        if expr.name == "RETENTION":
            return self._single_value_clause(
                expr, column="statement.retention",
                values=p3p_schema.value_children("RETENTION"),
            )
        if expr.name == "DATA-GROUP":
            return self._data_group_clause(expr)
        return FALSE_CLAUSE  # cannot occur under STATEMENT

    def _statement_exact(self, expr: Expression) -> str:
        listed = expr.subexpression_names()
        absent: list[str] = []
        if "CONSEQUENCE" not in listed:
            absent.append("statement.consequence IS NULL")
        if "NON-IDENTIFIABLE" not in listed:
            absent.append("statement.non_identifiable = 0")
        if "PURPOSE" not in listed:
            absent.append(sqlgen.not_exists(
                "SELECT *\nFROM purpose\n"
                "WHERE purpose.policy_id = statement.policy_id\n"
                "  AND purpose.statement_id = statement.statement_id"
            ))
        if "RECIPIENT" not in listed:
            absent.append(sqlgen.not_exists(
                "SELECT *\nFROM recipient\n"
                "WHERE recipient.policy_id = statement.policy_id\n"
                "  AND recipient.statement_id = statement.statement_id"
            ))
        if "RETENTION" not in listed:
            absent.append("statement.retention IS NULL")
        if "DATA-GROUP" not in listed:
            absent.append(sqlgen.not_exists(
                "SELECT *\nFROM data\n"
                "WHERE data.policy_id = statement.policy_id\n"
                "  AND data.statement_id = statement.statement_id"
            ))
        return sqlgen.conjoin(absent) if absent else TRUE_CLAUSE

    # -- DATA level ----------------------------------------------------------------

    def _data_group_clause(self, expr: Expression) -> str:
        if expr.attributes:
            # The canonical model never stores the DATA-GROUP base
            # attribute (groups are merged), so a pattern on it never
            # matches any stored policy.
            return FALSE_CLAUSE
        if not expr.subexpressions:
            return sqlgen.exists(
                "SELECT *\nFROM data\n"
                "WHERE data.policy_id = statement.policy_id\n"
                "  AND data.statement_id = statement.statement_id"
            )
        clauses = []
        for sub in expr.subexpressions:
            if sub.name != "DATA":
                clauses.append(FALSE_CLAUSE)
                continue
            clauses.append(self._data_clause(sub))
        exact = (TRUE_CLAUSE if "DATA" in expr.subexpression_names()
                 else sqlgen.not_exists(
                     "SELECT *\nFROM data\n"
                     "WHERE data.policy_id = statement.policy_id\n"
                     "  AND data.statement_id = statement.statement_id"))
        combined = sqlgen.combine(expr.connective, clauses, exact)
        if expr.connective in ("non-and", "non-or"):
            # The DATA-GROUP element exists iff data rows exist.
            existence = sqlgen.exists(
                "SELECT *\nFROM data\n"
                "WHERE data.policy_id = statement.policy_id\n"
                "  AND data.statement_id = statement.statement_id"
            )
            return sqlgen.conjoin([existence, combined])
        return combined

    def _data_clause(self, expr: Expression) -> str:
        predicates = [
            "data.policy_id = statement.policy_id",
            "data.statement_id = statement.statement_id",
        ]
        predicates.extend(
            self._column_attrs(expr, "data", allowed=("ref", "optional"))
        )
        if expr.subexpressions:
            clauses = []
            for sub in expr.subexpressions:
                if sub.name != "CATEGORIES":
                    clauses.append(FALSE_CLAUSE)
                    continue
                clauses.append(self._categories_clause(sub))
            exact = (TRUE_CLAUSE
                     if "CATEGORIES" in expr.subexpression_names()
                     else sqlgen.not_exists(
                         "SELECT *\nFROM category\n"
                         "WHERE category.policy_id = data.policy_id\n"
                         "  AND category.statement_id = data.statement_id\n"
                         "  AND category.data_id = data.data_id"))
            predicates.append(
                sqlgen.combine(expr.connective, clauses, exact)
            )
        return sqlgen.exists(
            "SELECT *\nFROM data\nWHERE " + sqlgen.conjoin(predicates)
        )

    def _categories_clause(self, expr: Expression) -> str:
        anchor = ("category.policy_id = data.policy_id\n"
                  "  AND category.statement_id = data.statement_id\n"
                  "  AND category.data_id = data.data_id")
        return self._value_table_clause(
            expr, table="category", value_column="category",
            anchor_join=anchor,
            values=p3p_schema.value_children("CATEGORIES"),
        )

    # -- shared building blocks ------------------------------------------------------

    def _leaf_clause(self, expr: Expression, existence: str) -> str:
        """Childless, attributeless policy elements (TEST, CONSEQUENCE, ...).

        Attributes in the pattern can never match (the element carries
        none); subexpressions can never match either, but the negated
        connectives over never-matching subexpressions are *true* — the
        same outcome the native engine computes over the DOM.
        """
        parts = [existence]
        if expr.attributes:
            parts.append(FALSE_CLAUSE)
        if expr.subexpressions:
            clauses = [FALSE_CLAUSE] * len(expr.subexpressions)
            parts.append(
                sqlgen.combine(expr.connective, clauses, TRUE_CLAUSE)
            )
        return sqlgen.conjoin(parts)

    def _column_attrs(self, expr: Expression, table: str,
                      allowed: tuple[str, ...]) -> list[str]:
        predicates: list[str] = []
        for name, value in expr.attributes:
            if name not in allowed:
                # The element never carries this attribute, so the pattern
                # never matches — same outcome as the native engine.
                predicates.append(FALSE_CLAUSE)
                continue
            column = name.replace("-", "_")
            # IS (SQLite's null-safe equality) keeps the predicate
            # two-valued: a NULL column must behave as "attribute absent,
            # no match", even under the negated connectives.
            predicates.append(
                f"{table}.{column} IS {sql_literal(value)}"
            )
        return predicates

    def _value_table_clause(self, expr: Expression, table: str,
                            value_column: str, anchor_join: str,
                            values: tuple[str, ...]) -> str:
        """PURPOSE/RECIPIENT/CATEGORIES/REMEDIES: values as rows.

        ``or``-family connectives merge all value tests into one subquery,
        reproducing the Figure 15 merge; ``and``-family connectives need
        one EXISTS per value (a single row cannot be two values at once).
        """
        if expr.attributes:
            # PURPOSE/RECIPIENT/CATEGORIES/REMEDIES carry no attributes;
            # a pattern constraining one never matches.
            return FALSE_CLAUSE
        value_set = frozenset(values)
        if not expr.subexpressions:
            return sqlgen.exists(
                f"SELECT *\nFROM {table}\nWHERE {anchor_join}"
            )

        row_predicates: list[str] = []
        for sub in expr.subexpressions:
            row_predicates.append(
                self._row_predicate(sub, table, value_column, value_set)
            )

        listed = expr.subexpression_names()
        exact = sqlgen.not_exists(
            f"SELECT *\nFROM {table}\n"
            f"WHERE {anchor_join}\n"
            f"  AND {value_column} NOT IN ("
            + ", ".join(sorted(sql_literal(name) for name in listed))
            + ")"
        ) if listed else TRUE_CLAUSE

        # Because the optimized schema folds the PURPOSE-level element into
        # value rows, "the PURPOSE element exists" becomes "at least one
        # row exists"; the negated connectives need that conjunct
        # explicitly (an APPEL expression never matches an absent element).
        existence = sqlgen.exists(
            f"SELECT *\nFROM {table}\nWHERE {anchor_join}"
        )

        connective = expr.connective
        if connective in ("or", "non-or", "or-exact"):
            merged = sqlgen.exists(
                f"SELECT *\nFROM {table}\n"
                f"WHERE {anchor_join}\n"
                f"  AND " + sqlgen.disjoin(row_predicates)
            )
            if connective == "or":
                return merged
            if connective == "non-or":
                return sqlgen.conjoin([existence, sqlgen.negate(merged)])
            return sqlgen.conjoin([merged, exact])

        clauses = [
            sqlgen.exists(
                f"SELECT *\nFROM {table}\n"
                f"WHERE {anchor_join}\n  AND {predicate}"
            )
            for predicate in row_predicates
        ]
        if connective == "non-and":
            return sqlgen.conjoin(
                [existence, sqlgen.negate(sqlgen.conjoin(clauses))]
            )
        return sqlgen.combine(connective, clauses, exact)

    def _row_predicate(self, sub: Expression, table: str,
                       value_column: str,
                       value_set: frozenset[str]) -> str:
        if sub.name not in value_set:
            return FALSE_CLAUSE
        spec = p3p_schema.CATALOG.get(sub.name)
        tests = [f"{value_column} = {sql_literal(sub.name)}"]
        for name, value in sub.attributes:
            # 'required' exists on most purpose/recipient values, but not
            # on <current/> or <ours/>; patterns constraining an absent
            # attribute never match.
            if spec is None or spec.attribute(name) is None:
                tests.append(FALSE_CLAUSE)
                continue
            tests.append(f"{table}.required = {sql_literal(value)}")
        if sub.subexpressions:
            # Value elements are childless in every stored policy; the
            # negated connectives over never-matching children are true.
            clauses = [FALSE_CLAUSE] * len(sub.subexpressions)
            tests.append(
                sqlgen.combine(sub.connective, clauses, TRUE_CLAUSE)
            )
        return sqlgen.conjoin(tests)

    def _single_value_clause(self, expr: Expression, column: str,
                             values: tuple[str, ...]) -> str:
        """ACCESS/RETENTION: the value is a column of the anchor table."""
        if expr.attributes:
            # These elements carry no attributes in any stored policy.
            return FALSE_CLAUSE
        if not expr.subexpressions:
            return f"{column} IS NOT NULL"

        value_set = frozenset(values)
        clauses: list[str] = []
        for sub in expr.subexpressions:
            if sub.name not in value_set or sub.attributes:
                # Unknown value here, or an attribute these childless
                # value elements never carry: the disjunct never matches.
                clauses.append(FALSE_CLAUSE)
                continue
            # Null-safe: an absent ACCESS/RETENTION (NULL column) must be
            # a plain non-match even under negation.
            tests = [f"{column} IS {sql_literal(sub.name)}"]
            if sub.subexpressions:
                inner = [FALSE_CLAUSE] * len(sub.subexpressions)
                tests.append(
                    sqlgen.combine(sub.connective, inner, TRUE_CLAUSE)
                )
            clauses.append(sqlgen.conjoin(tests))

        listed = sorted(expr.subexpression_names() & value_set)
        exact = sqlgen.disjoin(
            [f"{column} IS NULL"]
            + ([f"{column} IN ("
                + ", ".join(sql_literal(name) for name in listed) + ")"]
               if listed else [])
        )
        # The folded element (ACCESS / RETENTION) exists iff the column is
        # non-NULL; the negated connectives need that conjunct explicitly.
        if expr.connective in ("non-and", "non-or"):
            return sqlgen.conjoin([
                f"{column} IS NOT NULL",
                sqlgen.combine(expr.connective, clauses, exact),
            ])
        return sqlgen.combine(expr.connective, clauses, exact)
