"""`audit_corpus` against a cluster replica: the plan audit passes on
a backup-refreshed copy of a primary, and the read-only write-set
contract flags the statement a replica must never run."""

import pytest

from repro.analysis import (
    StatementContract,
    audit_corpus,
    check_statement,
)
from repro.cluster.replica import ShardReplica
from repro.corpus.policies import fortune_corpus
from repro.corpus.preferences import jrc_suite
from repro.server.policy_server import PolicyServer
from repro.storage.database import Database


@pytest.fixture(scope="module")
def policies():
    return fortune_corpus(seed=2003)[:6]


@pytest.fixture(scope="module")
def replica_path(tmp_path_factory, policies):
    """A replica file refreshed once from a populated primary."""
    root = tmp_path_factory.mktemp("cluster")
    primary_path = str(root / "primary.db")
    replica = str(root / "replica.db")
    with PolicyServer(primary_path) as primary:
        for index, policy in enumerate(policies):
            primary.install_policy(policy,
                                   site=f"site{index}.example.com")
        with ShardReplica(primary_path, replica) as shard:
            assert shard.refresh()
            assert shard.generation == 1
            shard.policy_server.close()
    return replica


class TestReplicaAudit:
    def test_audit_passes_on_refreshed_copy(self, replica_path,
                                            policies):
        replica_db = Database(replica_path)
        try:
            report = audit_corpus(policies, jrc_suite(), db=replica_db)
        finally:
            replica_db.close()
        assert report.ok
        assert report.findings == ()
        assert report.policies == len(policies)
        assert report.preferences == len(jrc_suite())
        assert report.plans_explained >= len(jrc_suite())

    def test_audit_leaves_the_replica_untouched(self, replica_path,
                                                policies):
        """The audit's pledge: pure reads, safe on a read-only tier."""
        before = Database(replica_path)
        counts_before = {
            table: before.scalar(f"SELECT COUNT(*) FROM {table}")
            for table in before.table_names()}
        before.close()

        replica_db = Database(replica_path)
        try:
            audit_corpus(policies, jrc_suite(), db=replica_db)
        finally:
            replica_db.close()

        after = Database(replica_path)
        counts_after = {
            table: after.scalar(f"SELECT COUNT(*) FROM {table}")
            for table in after.table_names()}
        after.close()
        assert counts_after == counts_before

    def test_audit_sees_the_primary_corpus(self, replica_path,
                                           policies):
        replica_db = Database(replica_path)
        try:
            names = [row["name"] for row in replica_db.query(
                "SELECT name FROM policy ORDER BY policy_id")]
        finally:
            replica_db.close()
        assert names == [policy.name for policy in policies]


class TestReplicaWriteSet:
    def test_seeded_replica_write_is_flagged(self, replica_path):
        """The read-only write-set rule, exercised against the actual
        replica schema: a decision-cache write-back — legal on the
        primary — is an illegal-write on the replica tier."""
        replica_db = Database(replica_path)
        try:
            findings = check_statement(replica_db, StatementContract(
                where="replica/decision-write-back", binds=5,
                sql="INSERT OR REPLACE INTO decision_cache "
                    "(policy_id, pref_id, policy_version, behavior, "
                    "rule_index) VALUES (?, ?, ?, ?, ?)"))
        finally:
            replica_db.close()
        assert [f.code for f in findings] == ["illegal-write"]
        assert "read-only tier" in findings[0].message

    def test_replica_read_paths_pass(self, replica_path):
        from repro.storage.decision_cache import DecisionCache

        replica_db = Database(replica_path)
        try:
            findings = check_statement(replica_db, StatementContract(
                where="replica/decision-lookup", binds=2,
                sql=DecisionCache.LOOKUP_SQL))
        finally:
            replica_db.close()
        assert findings == []
