"""Cross-instance user identity mapping (Section II-D4, future work).

"We do not yet offer any automated means of mapping or de-duplicating users
from different XDMoD satellite instances in the federated master hub...
the user would appear twice in the federation; once as the CCR user, once
as the XSEDE user.  The work necessary to federate such user identities
must be performed separately on the federation database; it is not yet
handled by the Federation module, though this is a goal for a future
release."

We implement both behaviours: the default federated identity is the
*qualified* ``username@instance`` pair (so the same human appears once per
instance, exactly as the paper describes), and :class:`IdentityMap` is the
future-work extension — an explicit mapping, optionally seeded by matching
heuristics, that merges qualified identities into canonical people.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import IdentityError


def qualified_identity(instance: str, username: str) -> str:
    """The hub's default (unmapped) identity for a satellite user."""
    return f"{username}@{instance}"


@dataclass
class IdentityMap:
    """Explicit mapping of qualified identities to canonical persons."""

    #: qualified identity -> canonical person label
    mapping: dict[str, str] = field(default_factory=dict)

    def link(self, canonical: str, *identities: str) -> "IdentityMap":
        """Declare that the given qualified identities are one person."""
        for identity in identities:
            if "@" not in identity:
                raise IdentityError(
                    f"identity {identity!r} must be 'username@instance'"
                )
            existing = self.mapping.get(identity)
            if existing is not None and existing != canonical:
                raise IdentityError(
                    f"{identity!r} already mapped to {existing!r}"
                )
            self.mapping[identity] = canonical
        return self

    def resolve(self, instance: str, username: str) -> str:
        """Canonical person for a satellite user (falls back to qualified)."""
        qualified = qualified_identity(instance, username)
        return self.mapping.get(qualified, qualified)

    def canonical_count(self, identities: Iterable[str]) -> int:
        """Distinct people among a set of qualified identities."""
        return len({self.mapping.get(i, i) for i in identities})

    @classmethod
    def from_username_match(
        cls, users_by_instance: Mapping[str, Iterable[str]]
    ) -> "IdentityMap":
        """Heuristic seeding: same username on several instances == same
        person.  Real deployments would verify via institutional identity
        (ORCID, email); this is the opt-in automation the paper defers.
        """
        by_username: dict[str, list[str]] = {}
        for instance, usernames in users_by_instance.items():
            for username in usernames:
                by_username.setdefault(username, []).append(
                    qualified_identity(instance, username)
                )
        idmap = cls()
        for username, qualified in by_username.items():
            if len(qualified) > 1:
                idmap.link(username, *qualified)
        return idmap


def federated_user_counts(hub, idmap: IdentityMap | None = None) -> dict[str, int]:
    """Count users across a federation with and without identity mapping.

    Returns ``{"qualified": n_unmapped, "canonical": n_mapped}``; when no
    map is supplied both numbers equal the unmapped count (the paper's
    current behaviour).
    """
    identities: set[str] = set()
    for name, schema in hub.federated_schemas().items():
        if not schema.has_table("dim_person"):
            continue
        for username in schema.table("dim_person").column_values("username"):
            identities.add(qualified_identity(name, username))
    qualified = len(identities)
    canonical = (
        idmap.canonical_count(identities) if idmap is not None else qualified
    )
    return {"qualified": qualified, "canonical": canonical}
