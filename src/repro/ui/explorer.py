"""Usage Explorer: interactive filter / group / drill-down.

"XDMoD supports data-analytic functions such as filtering, grouping and
drill-down."  The explorer is a small immutable-ish query builder over a
realm: set a metric and time range, add filters, group by a dimension, and
*drill down* — click one group value, which pins it as a filter and
regroups by a finer dimension, exactly the UI interaction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from ..core.identity import IdentityMap
from ..realms.base import Realm, RealmQueryError, RealmResult
from ..warehouse import Schema


@dataclass(frozen=True)
class ExplorerState:
    """One explorer configuration (hashable history entry)."""

    metric: str
    start: int
    end: int
    period: str = "month"
    group_by: str | None = None
    filters: tuple[tuple[str, tuple[str, ...]], ...] = ()
    view: str = "timeseries"

    def filter_map(self) -> dict[str, tuple[str, ...]]:
        return dict(self.filters)


class UsageExplorer:
    """Stateful drill-down session over one realm and source set."""

    def __init__(
        self,
        realm: Realm,
        sources: Schema | Mapping[str, Schema],
        *,
        idmap: IdentityMap | None = None,
    ) -> None:
        self.realm = realm
        self.sources = sources
        self.idmap = idmap
        self._state: ExplorerState | None = None
        self._history: list[ExplorerState] = []

    # -- configuration -----------------------------------------------------

    def configure(
        self,
        metric: str,
        *,
        start: int,
        end: int,
        period: str = "month",
        view: str = "timeseries",
    ) -> "UsageExplorer":
        self.realm.metric(metric)  # validate eagerly
        self._state = ExplorerState(
            metric=metric, start=start, end=end, period=period, view=view
        )
        self._history = [self._state]
        return self

    def _require_state(self) -> ExplorerState:
        if self._state is None:
            raise RealmQueryError("explorer not configured; call configure()")
        return self._state

    def _push(self, state: ExplorerState) -> None:
        self._state = state
        self._history.append(state)

    def group_by(self, dimension: str | None) -> "UsageExplorer":
        state = self._require_state()
        if dimension is not None:
            self.realm.dimension(dimension)
        self._push(replace(state, group_by=dimension))
        return self

    def filter(self, dimension: str, values: Iterable[str]) -> "UsageExplorer":
        state = self._require_state()
        self.realm.dimension(dimension)
        self._push(replace(state, filters=_pinned(state.filters, dimension, values)))
        return self

    def clear_filter(self, dimension: str) -> "UsageExplorer":
        state = self._require_state()
        filters = dict(state.filters)
        filters.pop(dimension, None)
        self._push(replace(state, filters=tuple(sorted(filters.items()))))
        return self

    def drill_down(self, group_value: str, new_dimension: str) -> "UsageExplorer":
        """Pin the clicked group as a filter and regroup finer.

        E.g. grouped by resource, click "comet", drill into application:
        the explorer now shows applications *on comet*.
        """
        state = self._require_state()
        if state.group_by is None:
            raise RealmQueryError("cannot drill down without a grouping")
        self.realm.dimension(new_dimension)
        filters = _pinned(state.filters, state.group_by, [group_value])
        self._push(replace(state, filters=filters, group_by=new_dimension))
        return self

    def back(self) -> "UsageExplorer":
        """Undo the last navigation step."""
        if len(self._history) > 1:
            self._history.pop()
            self._state = self._history[-1]
        return self

    # -- execution ----------------------------------------------------------

    def fetch(self) -> RealmResult:
        state = self._require_state()
        return self.realm.query(
            self.sources,
            state.metric,
            start=state.start,
            end=state.end,
            period=state.period,
            group_by=state.group_by,
            filters={k: set(v) for k, v in state.filters},
            view=state.view,
            idmap=self.idmap,
        )

    @property
    def state(self) -> ExplorerState:
        return self._require_state()

    @property
    def breadcrumbs(self) -> list[str]:
        """Human trail of the navigation (for the UI's breadcrumb bar)."""
        out = []
        for state in self._history:
            desc = f"{state.metric}"
            if state.group_by:
                desc += f" by {state.group_by}"
            if state.filters:
                pins = "; ".join(
                    f"{dim}={','.join(vals)}" for dim, vals in state.filters
                )
                desc += f" [{pins}]"
            out.append(desc)
        return out


def _pinned(
    filters: tuple[tuple[str, tuple[str, ...]], ...], dimension: str, values: Iterable[str]
) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """``filters`` with ``values`` added to ``dimension``'s allowed labels."""
    merged = dict(filters)
    merged[dimension] = tuple(sorted(set(merged.get(dimension, ())) | set(values)))
    return tuple(sorted(merged.items()))
