"""Policy version management on top of :class:`PolicyStore`.

One of the advantages the paper claims for the server-centric architecture
(Section 4.2): "Policies of a website will not stay static forever.
Versions of policies can be better managed using a database system than the
current file system based implementations."

:class:`VersionedPolicyStore` keeps the full version history of each named
policy in the ``policy`` table (``version`` / ``active`` columns); only the
newest version is *active* and returned by name lookups, while older
versions stay queryable for audit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StorageError, UnknownPolicyError
from repro.p3p.model import Policy
from repro.storage.reconstruct import reconstruct_policy
from repro.storage.shredder import PolicyStore, ShredReport


#: The active version of a (name, site) chain: a probe of
#: ``idx_policy_name_site``, however many versions were ever installed.
ACTIVE_VERSION_SQL = (
    "SELECT policy_id, version FROM policy "
    "WHERE name = ? AND site IS ? AND active = 1 "
    "ORDER BY version DESC LIMIT 1"
)


@dataclass(frozen=True)
class PolicyVersion:
    """One entry in a named policy's version history."""

    policy_id: int
    name: str
    version: int
    active: bool
    installed_at: str | None


class VersionedPolicyStore:
    """A PolicyStore in which installs of the same name create versions."""

    def __init__(self, store: PolicyStore | None = None):
        self.store = store if store is not None else PolicyStore()
        self.db = self.store.db

    def install(self, policy: Policy, site: str | None = None) -> ShredReport:
        """Install *policy*; if its name exists for the same site,
        supersede the active version.

        Version chains are per (name, site): two sites may each have a
        policy named "main" without superseding one another.
        """
        if policy.name is None:
            raise StorageError("versioned installs require a policy name")

        current = self.db.query_one(ACTIVE_VERSION_SQL, (policy.name, site))
        next_version = 1 if current is None else current["version"] + 1

        report = self.store.install_policy(
            policy, site=site, version=next_version, active=True
        )
        if current is not None:
            with self.db.transaction():
                self.db.execute(
                    "UPDATE policy SET active = 0 WHERE policy_id = ?",
                    (current["policy_id"],),
                )
        return report

    def active_policy_id(self, name: str) -> int:
        """The id of the active version of *name*."""
        policy_id = self.store.policy_id_by_name(name, active_only=True)
        if policy_id is None:
            raise UnknownPolicyError(f"no active policy named {name!r}")
        return policy_id

    def active_policy(self, name: str) -> Policy:
        """Reconstruct the active version of *name*."""
        return reconstruct_policy(self.db, self.active_policy_id(name))

    def history(self, name: str) -> list[PolicyVersion]:
        """All versions of *name*, oldest first.

        An install after a rollback repeats a version number; such ties
        come back in install order (``policy_id``), which
        :meth:`rollback` relies on — the planner's scan order, which
        ``idx_policy_name_site`` changes, must not decide them.
        """
        rows = self.db.query(
            "SELECT policy_id, name, version, active, installed_at "
            "FROM policy WHERE name = ? ORDER BY version, policy_id",
            (name,),
        )
        return [
            PolicyVersion(
                policy_id=row["policy_id"],
                name=row["name"],
                version=row["version"],
                active=bool(row["active"]),
                installed_at=row["installed_at"],
            )
            for row in rows
        ]

    def version(self, name: str, version: int) -> Policy:
        """Reconstruct a specific historical version of *name*."""
        policy_id = self.db.scalar(
            "SELECT policy_id FROM policy WHERE name = ? AND version = ? "
            "ORDER BY policy_id LIMIT 1",
            (name, version),
        )
        if policy_id is None:
            raise UnknownPolicyError(
                f"policy {name!r} has no version {version}"
            )
        return reconstruct_policy(self.db, policy_id)

    def rollback(self, name: str, site: str | None = None) -> int:
        """Deactivate the newest version of (*name*, *site*) — that chain
        only, as in :meth:`install` — and reactivate its predecessor in
        :meth:`history` order; returns the predecessor's policy id.
        Raises StorageError when there is no predecessor.
        """
        newest_first = [row["policy_id"] for row in self.db.query(
            "SELECT policy_id FROM policy WHERE name = ? AND site IS ? "
            "ORDER BY version DESC, policy_id DESC LIMIT 2", (name, site))]
        if not newest_first:
            raise UnknownPolicyError(f"no policy named {name!r}")
        if len(newest_first) < 2:
            raise StorageError(f"policy {name!r} has no prior version")
        newest, previous = newest_first
        with self.db.transaction():
            for active, policy_id in ((0, newest), (1, previous)):
                self.db.execute(
                    "UPDATE policy SET active = ? WHERE policy_id = ?",
                    (active, policy_id))
        return previous
