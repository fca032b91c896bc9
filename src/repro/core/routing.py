"""Resource routing: directing resource data to different federation hubs.

Section II-C4: "We are developing a configuration strategy to individually
manage the destinations of resource data.  For instance, data from certain
resources managed by a member instance could be selectively excluded from a
federation...  Alternately, data from all resources could be replicated to
multiple federation hubs, to provide a live backup or load-balancing
strategy for XDMoD instance data."

A :class:`RoutingPolicy` maps resource names to the hubs that may receive
their data; :func:`filter_for_hub` compiles the policy alone, by name,
into the per-channel :class:`ReplicationFilter`, so a resource the
satellite first logs after it joined is routed like any other, and
:class:`FederationNetwork` wires one satellite into any number of hubs
under one policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import MembershipError
from .federation import FederationHub, FederationMember, XdmodInstance
from .replicator import ReplicationFilter
from .resilience import MemberSyncOutcome


@dataclass
class RoutingPolicy:
    """Per-resource destination rules.

    ``routes`` maps a resource name to the hub names allowed to receive its
    rows.  Resources absent from the map follow ``default``: ``"all"``
    (replicate everywhere) or ``"none"`` (sensitive by default, replicate
    nowhere).
    """

    routes: dict[str, set[str]] = field(default_factory=dict)
    default: str = "all"

    def __post_init__(self) -> None:
        if self.default not in ("all", "none"):
            raise MembershipError(f"bad routing default {self.default!r}")

    def allow(self, resource: str, hubs: Iterable[str]) -> "RoutingPolicy":
        self.routes.setdefault(resource, set()).update(hubs)
        return self

    def exclude(self, resource: str) -> "RoutingPolicy":
        """Mark a resource as never federated (sensitive data)."""
        self.routes[resource] = set()
        return self

    def destinations(self, resource: str) -> set[str] | None:
        """Hub names for ``resource``; None means "all hubs"."""
        if resource in self.routes:
            return self.routes[resource]
        return None if self.default == "all" else set()

    def admitted(self, resource: str, hub: str) -> bool:
        dests = self.destinations(resource)
        return True if dests is None else hub in dests


def filter_for_hub(policy: RoutingPolicy, hub_name: str) -> ReplicationFilter:
    """Compile the routing policy into one hub's replication filter.

    The filter excludes every resource the policy routes away from
    ``hub_name``; under ``default="none"`` it includes only those the
    policy routes there, so a resource no rule names follows the default
    by name, whenever the satellite first logs it.
    """
    admitted = {
        name for name in policy.routes if policy.admitted(name, hub_name)
    }
    return ReplicationFilter(
        exclude_resources=policy.routes.keys() - admitted,
        include_resources=admitted if policy.default == "none" else None,
    )


class FederationNetwork:
    """Multiple hubs fed by overlapping satellite sets under one policy.

    Supports the paper's multi-hub use cases: live backup (every resource
    to two hubs) and selective federation (sensitive resources to none).
    """

    def __init__(self, policy: RoutingPolicy | None = None) -> None:
        self.policy = policy or RoutingPolicy()
        self._hubs: dict[str, FederationHub] = {}

    def add_hub(self, hub: FederationHub) -> FederationHub:
        if hub.name in self._hubs:
            raise MembershipError(f"hub {hub.name!r} already in network")
        self._hubs[hub.name] = hub
        return hub

    @property
    def hubs(self) -> list[FederationHub]:
        return [self._hubs[k] for k in sorted(self._hubs)]

    def connect(
        self,
        satellite: XdmodInstance,
        *,
        mode: str = "tight",
        hubs: Iterable[str] | None = None,
    ) -> dict[str, FederationMember]:
        """Join ``satellite`` to the named hubs (default: all), each channel
        carrying that hub's compiled routing filter."""
        out: dict[str, FederationMember] = {}
        for hub_name in sorted(hubs) if hubs is not None else sorted(self._hubs):
            hub = self._hubs.get(hub_name)
            if hub is None:
                raise MembershipError(f"unknown hub {hub_name!r}")
            member = hub.join(
                satellite,
                mode=mode,
                filter=filter_for_hub(self.policy, hub_name),
            )
            out[hub_name] = member
        return out

    def sync_all(self) -> dict[str, dict[str, MemberSyncOutcome]]:
        """Pump every hub's channels; returns per-hub per-member outcomes."""
        return {hub.name: hub.sync() for hub in self.hubs}
