"""The one aggregate builder per realm: a columnar fold.

The nightly aggregation step is the hottest path in the system: at
federation-hub scale every member's raw facts are re-binned for every
period.  Each realm has exactly one builder here, named by its
:class:`repro.aggregation.AggregateSpec`.  It reads the
warehouse's cached columnar views
(:meth:`repro.warehouse.Table.column_array`), expands each fact into one
contribution row per overlapped period (``np.repeat`` over per-fact
period counts) and reduces the contributions with one group-index
reduction (:func:`group_reduce`: ``np.lexsort`` + ``np.add.reduceat``).

A builder takes ``since`` — per fact table, the index of the first row
not yet folded — and carries one extra 0/1 measure through the same
reduction: a group is emitted only when a row at or past ``since`` (a
*fresh* row) contributed to it.  An emitted group is always computed from
*all* its facts, so distinct counts and gauge averages need no running
state; the rebuild is the fold with nothing folded yet (an empty
``since``).

A fold reads only the rows that can reach a touched group
(:func:`_touching`): a builder first drops every row whose period span
misses the fresh rows' period hull or whose group-key values no fresh row
has, so a nightly fold costs what its delta touches, not the history.  It
stays exact: a group's key holds its period and every key column, so the
rows of a touched group all pass, in their order, and the stable sort in
:func:`group_reduce` sums them as a rebuild does — bit for bit.

What a builder returns is a column batch — one equal-length array per
aggregate-table column, rows in the oracle's order — which the caller
hands to :meth:`repro.warehouse.Table.upsert_columns` as one batch write;
the aggregate never exists as a list of row dicts.

The per-row pure-Python builders these are tested against row-for-row
live in ``tests/aggregation_oracles.py``.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..timeutil import SECONDS_PER_HOUR, period_bounds, period_label, period_next, period_start
from ..warehouse import Schema

__all__ = [
    "build_job_rows",
    "build_storage_rows",
    "build_cloud_rows",
    "build_allocation_rows",
    "group_reduce",
]


def _sorted_groups(keys: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic sort of composite ``keys`` (non-empty).

    Returns ``(order, starts)``: the sorting permutation and the positions
    in it where each distinct key begins.
    """
    order = np.lexsort(tuple(reversed(list(keys))))
    boundary = np.zeros(len(order), dtype=bool)
    boundary[0] = True
    for k in keys:
        k = np.asarray(k)[order]
        boundary[1:] |= k[1:] != k[:-1]
    return order, np.flatnonzero(boundary)


def group_reduce(
    keys: Sequence[np.ndarray],
    measures: dict[str, np.ndarray],
) -> tuple[list[np.ndarray], dict[str, np.ndarray]]:
    """Grouped sum of ``measures`` over composite integer ``keys``.

    ``keys`` are equal-length int arrays forming the composite group key;
    the result is ``(unique_key_columns, {name: per-group sums})`` with
    groups in lexicographic key order.  This is the ``np.add.reduceat``
    reduction at the heart of every columnar aggregation path.
    """
    if len(keys[0]) == 0:
        return [k[:0] for k in keys], {m: v[:0] for m, v in measures.items()}
    order, starts = _sorted_groups(keys)
    first = order[starts]
    uniques = [np.asarray(k)[first] for k in keys]
    sums = {
        name: np.add.reduceat(np.asarray(v, dtype=np.float64)[order], starts)
        for name, v in measures.items()
    }
    return uniques, sums


def _first_occurrence(keys: Sequence[np.ndarray]) -> np.ndarray:
    """1.0 on the first row of each distinct composite key, else 0.0.

    Summed per group this is a distinct count (``user_count``,
    ``n_vms_active``), so distinct counts ride the same reduction as
    every additive measure.
    """
    flags = np.zeros(len(keys[0]))
    if len(flags):
        order, starts = _sorted_groups(keys)
        flags[order[starts]] = 1.0
    return flags


class _Contributions:
    """Contribution rows gathered chunk by chunk, reduced in one pass."""

    def __init__(self, measure_names: Sequence[str]) -> None:
        self.measure_names = (*measure_names, "fresh")
        self._keys: list[Sequence[np.ndarray]] = []
        self._measures: list[dict[str, np.ndarray]] = []

    def add(
        self, keys: Sequence[np.ndarray], fresh: np.ndarray, **values: np.ndarray
    ) -> None:
        """One chunk: composite ``keys``, whether each row stems from a
        fact not yet folded (``fresh``), and the measures it carries
        (the rest are zero)."""
        zeros = np.zeros(len(fresh))
        values["fresh"] = fresh
        self._keys.append(keys)
        self._measures.append(
            {m: values.get(m, zeros) for m in self.measure_names}
        )

    def reduce(self) -> tuple[list[np.ndarray], dict[str, np.ndarray]]:
        """Per-group sums of every group a fresh row contributed to."""
        keys = [np.concatenate(cols) for cols in zip(*self._keys)]
        measures = {
            m: np.concatenate([chunk[m] for chunk in self._measures])
            for m in self.measure_names
        }
        uniq, sums = group_reduce(keys, measures)
        touched = np.flatnonzero(sums["fresh"] > 0)
        return [u[touched] for u in uniq], {m: v[touched] for m, v in sums.items()}


def _period_bounds(period: str, *timestamps: np.ndarray) -> np.ndarray:
    """Boundaries of every ``period`` window ``timestamps`` fall in (NaN,
    the columnar NULL, is skipped)."""
    ts_ = np.concatenate([np.asarray(t, dtype=np.float64) for t in timestamps])
    ts_ = ts_[~np.isnan(ts_)]
    return np.asarray(
        period_bounds(period, int(ts_.min()), int(ts_.max())), dtype=np.int64
    )


def _period_of(bounds: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Index into ``bounds`` of the window containing each timestamp."""
    return np.searchsorted(bounds, t, side="right") - 1


def _expand_periods(
    start: np.ndarray, end: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand ``[start, end)`` intervals into one row per overlapped period.

    Returns ``(source_idx, period_idx, overlap_seconds)`` — the np.repeat
    expansion that replaces the per-fact ``period_range`` Python loop.
    All intervals must satisfy ``end > start``.
    """
    ps = _period_of(bounds, start)
    pe = _period_of(bounds, end - 1)
    counts = pe - ps + 1
    total = int(counts.sum())
    src = np.repeat(np.arange(len(start)), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    period_idx = ps[src] + (np.arange(total) - first)
    overlap = (
        np.minimum(end[src], bounds[period_idx + 1])
        - np.maximum(start[src], bounds[period_idx])
    )
    return src, period_idx, overlap


def _occurs(column: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Whether each of ``column``'s values is NULL or among ``values``
    (strings as :func:`_factorize` codes them: ``None`` as ``"None"``)."""
    if column.dtype != object:
        return np.isin(column, values) | np.isnan(column)
    wanted = set(values.tolist())
    wanted |= {str(v) for v in wanted}
    return np.isin(column, np.array(list(wanted), dtype=object)) | np.equal(column, None)


def _touching(
    period: str,
    keys: Sequence[str],
    *parts: tuple[dict[str, np.ndarray], np.ndarray, str, str],
) -> list[tuple[dict[str, np.ndarray], np.ndarray]]:
    """Each fact table cut down to the rows that can reach a group a fresh
    row touches.

    ``parts``: per fact table, its column arrays, its ``fresh`` mask and
    the two columns whose periods bound those a row contributes to.  A row
    is kept if fresh, or if its period span meets the hull of all fresh
    rows' periods and each of its ``keys`` values is NULL or one a fresh
    row has.  Returns ``(columns, fresh)`` per part, rows in order; a
    rebuild (every row fresh) gets the parts back as they are.
    """
    if all(fresh.all() for _, fresh, _, _ in parts):
        return [(columns, fresh) for columns, fresh, _, _ in parts]
    lo = np.concatenate([c[first][f] for c, f, first, _ in parts])
    hi = np.concatenate([c[last][f] for c, f, _, last in parts])
    if len(lo) == 0:  # nothing fresh, no group touched
        return [({name: v[:0] for name, v in c.items()}, f[:0]) for c, f, _, _ in parts]
    hull_start = period_start(period, int(lo.min()))
    hull_end = period_next(period, period_start(period, int(hi.max())))
    values = {key: np.concatenate([c[key][f] for c, f, _, _ in parts]) for key in keys}
    out = []
    for columns, fresh, first, last in parts:
        keep = (columns[last] >= hull_start) & (columns[first] < hull_end)
        for key, wanted in values.items():
            idx = np.flatnonzero(keep)
            keep[idx] = _occurs(columns[key][idx], wanted)
        rows = np.flatnonzero(keep | fresh)
        out.append(({name: v[rows] for name, v in columns.items()}, fresh[rows]))
    return out


def _columns(schema: Schema, table: str, columns: Sequence[str]) -> dict[str, np.ndarray]:
    """Column arrays of ``table``; all empty when the schema lacks it."""
    if schema.has_table(table):
        return schema.table(table).column_arrays(columns)
    return {c: np.empty(0, dtype=np.int64) for c in columns}


def _factorize(*object_arrays: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Shared-code-space factorization of several object (string) arrays.

    Returns ``(labels, [code_arrays...])`` where every code indexes into
    one common ``labels`` array (of ``str`` objects, sorted, so codes
    order as their labels do).
    """
    lengths = [len(a) for a in object_arrays]
    merged = np.concatenate([a.astype(object) for a in object_arrays])
    labels, inverse = np.unique(merged.astype(str), return_inverse=True)
    labels = labels.astype(object)
    codes: list[np.ndarray] = []
    at = 0
    for n in lengths:
        codes.append(inverse[at:at + n].astype(np.int64))
        at += n
    return labels, codes


def _level_codes(levels: Any, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bin ``values`` by an :class:`AggregationLevelSet`.

    Returns ``(labels, codes)`` like :func:`_factorize`: ``labels`` sorted
    as strings, so groups keyed by the codes come out of
    :func:`group_reduce` in the order the oracle sorts level labels in.
    """
    labels, rank = np.unique(
        np.array(levels.coded_labels, dtype=object), return_inverse=True
    )
    return labels, rank[levels.codes_of(values)]


def _period_columns(
    period: str, bounds: np.ndarray, period_idx: np.ndarray
) -> dict[str, np.ndarray]:
    """The ``period_start`` / ``period_label`` columns of rows falling in
    windows ``period_idx`` of ``bounds`` (one label per window emitted)."""
    windows, at = np.unique(period_idx, return_inverse=True)
    labels = np.array(
        [period_label(period, start) for start in bounds[windows].tolist()],
        dtype=object,
    )
    return {"period_start": bounds[period_idx], "period_label": labels[at]}


def _counts(sums: np.ndarray) -> np.ndarray:
    """Float sums of 0/1 flags as the integers they stand for."""
    return np.rint(sums).astype(np.int64)


# -- jobs realm -------------------------------------------------------------


def build_job_rows(
    schema: Schema,
    config: Any,
    period: str,
    since: Mapping[str, int],
) -> dict[str, np.ndarray]:
    """Fold ``fact_job`` into ``agg_job_<period>`` rows.

    Returns, as a column batch, the row, computed from all its facts, of
    every group that a fact row at or past ``since["fact_job"]`` (absent:
    row 0, so every group) contributes to.
    """
    c = schema.table("fact_job").column_arrays([
        "resource_id", "person_id", "pi_id", "app_id", "queue_id",
        "start_ts", "end_ts", "walltime_s", "wait_s", "cores",
        "cpu_hours", "node_hours", "xdsu",
    ])
    ((c, fresh),) = _touching(
        period, ("resource_id", "person_id", "pi_id", "app_id", "queue_id"),
        (c, np.arange(len(c["end_ts"])) >= since.get("fact_job", 0), "start_ts", "end_ts"),
    )
    n = len(fresh)
    if n == 0:
        return {}
    start, end = c["start_ts"], c["end_ts"]
    wall = c["walltime_s"].astype(np.float64)
    wl_labels, wl = _level_codes(config.walltime_levels, wall)
    sz_labels, sz = _level_codes(config.jobsize_levels, c["cores"])
    dims = [c["resource_id"], c["person_id"], c["pi_id"], c["app_id"], c["queue_id"], wl, sz]

    bounds = _period_bounds(period, start, end)
    ones = np.ones(n)
    contributions = _Contributions((
        "n_jobs_ended", "n_jobs_started", "cpu_hours", "node_hours",
        "xdsu", "wall_hours", "wait_hours",
    ))
    # counts: end / start attribution
    contributions.add([_period_of(bounds, end)] + dims, fresh, n_jobs_ended=ones)
    contributions.add(
        [_period_of(bounds, start)] + dims, fresh,
        n_jobs_started=ones, wait_hours=c["wait_s"] / SECONDS_PER_HOUR,
    )
    # usage: apportion across overlapped periods
    spanned = (wall > 0) & (end > start)
    idx = np.flatnonzero(spanned)
    src, p, overlap = _expand_periods(start[idx], end[idx], bounds)
    src = idx[src]
    frac = overlap / wall[src]
    contributions.add(
        [p] + [d[src] for d in dims], fresh[src],
        cpu_hours=c["cpu_hours"][src] * frac,
        node_hours=c["node_hours"][src] * frac,
        xdsu=c["xdsu"][src] * frac,
        wall_hours=overlap / SECONDS_PER_HOUR,
    )
    # zero-length jobs: full usage attributes to the end period
    idx = np.flatnonzero(~spanned)
    contributions.add(
        [_period_of(bounds, end[idx])] + [d[idx] for d in dims], fresh[idx],
        cpu_hours=c["cpu_hours"][idx],
        node_hours=c["node_hours"][idx],
        xdsu=c["xdsu"][idx],
        wall_hours=wall[idx] / SECONDS_PER_HOUR,
    )
    uniq, sums = contributions.reduce()
    return {
        **_period_columns(period, bounds, uniq[0]),
        "resource_id": uniq[1],
        "person_id": uniq[2],
        "pi_id": uniq[3],
        "app_id": uniq[4],
        "queue_id": uniq[5],
        "walltime_level": wl_labels[uniq[6]],
        "jobsize_level": sz_labels[uniq[7]],
        "n_jobs_ended": _counts(sums["n_jobs_ended"]),
        "n_jobs_started": _counts(sums["n_jobs_started"]),
        "cpu_hours": sums["cpu_hours"],
        "node_hours": sums["node_hours"],
        "xdsu": sums["xdsu"],
        "wall_hours": sums["wall_hours"],
        "wait_hours": sums["wait_hours"],
    }


# -- storage realm ----------------------------------------------------------


def build_storage_rows(
    schema: Schema,
    config: Any,
    period: str,
    since: Mapping[str, int],
) -> dict[str, np.ndarray]:
    """Fold ``fact_storage`` into ``agg_storage_<period>`` rows.

    Returns, as a column batch, the row, computed from all its facts, of
    every group that a snapshot at or past ``since["fact_storage"]``
    (absent: row 0, so every group) falls in.  ``config`` is unused
    (storage has no level set); every realm builder shares one signature.
    A group's ``resource_type`` is its newest snapshot's (the later row on
    a tie).
    """
    c = schema.table("fact_storage").column_arrays([
        "ts", "resource_id", "filesystem", "resource_type", "person_id",
        "file_count", "logical_usage_gb", "physical_usage_gb",
        "soft_quota_gb", "hard_quota_gb",
    ])
    ((c, fresh),) = _touching(
        period, ("resource_id", "filesystem"),
        (c, np.arange(len(c["ts"])) >= since.get("fact_storage", 0), "ts", "ts"),
    )
    if len(fresh) == 0:
        return {}
    ts_, rid = c["ts"], c["resource_id"]
    fs_labels, (fs,) = _factorize(c["filesystem"])
    soft = np.asarray(c["soft_quota_gb"], dtype=np.float64)
    hard = np.asarray(c["hard_quota_gb"], dtype=np.float64)
    has_quota = ~np.isnan(soft)
    logical = np.asarray(c["logical_usage_gb"], dtype=np.float64)
    quota_util = np.zeros(len(soft))
    positive = has_quota & (soft > 0)
    quota_util[positive] = logical[positive] / soft[positive]

    bounds = _period_bounds(period, ts_)
    p_all = _period_of(bounds, ts_)

    # each (period, resource, filesystem) group's newest snapshot: the last
    # of its rows once stably sorted by ts, groups in the order stage 2
    # emits them
    order = np.lexsort((ts_, fs, rid, p_all))
    newest = np.zeros(len(order), dtype=bool)
    newest[-1] = True
    for k in (p_all, rid, fs):
        k = k[order]
        newest[:-1] |= k[:-1] != k[1:]
    resource_type = c["resource_type"][order[newest]]

    # stage 1: collapse per-timestamp totals across users
    ts_keys, ts_sums = group_reduce(
        [ts_, rid, fs],
        {
            "file_count": c["file_count"].astype(np.float64),
            "logical_gb": logical,
            "physical_gb": np.asarray(c["physical_usage_gb"], dtype=np.float64),
            "quota_util": quota_util,
            "quota_n": has_quota.astype(np.float64),
            "soft_quota_gb": np.where(has_quota, soft, 0.0),
            "hard_quota_gb": np.where(np.isnan(hard), 0.0, hard),
            "user_count": _first_occurrence([p_all, rid, fs, c["person_id"]]),
            "fresh": fresh,
        },
    )
    # stage 2: average the per-timestamp totals within each period
    p_ts = _period_of(bounds, ts_keys[0])
    n_ts = len(ts_keys[0])
    period_keys, period_sums = group_reduce(
        [p_ts, ts_keys[1], ts_keys[2]],
        {**ts_sums, "n_snapshots": np.ones(n_ts)},
    )

    # groups come out ordered by (period, resource, filesystem label) —
    # the oracle's order — since ``fs`` codes order as their labels do
    touched = np.flatnonzero(period_sums["fresh"] > 0)
    p, rid, fs = (k[touched] for k in period_keys)
    sums = {m: v[touched] for m, v in period_sums.items()}
    n = sums["n_snapshots"]
    return {
        **_period_columns(period, bounds, p),
        "resource_id": rid,
        "filesystem": fs_labels[fs],
        "resource_type": resource_type[touched],
        "avg_file_count": sums["file_count"] / n,
        "avg_logical_gb": sums["logical_gb"] / n,
        "avg_physical_gb": sums["physical_gb"] / n,
        "sum_quota_utilization": sums["quota_util"],
        "n_quota_samples": _counts(sums["quota_n"]),
        "avg_soft_quota_gb": sums["soft_quota_gb"] / n,
        "avg_hard_quota_gb": sums["hard_quota_gb"] / n,
        "user_count": _counts(sums["user_count"]),
        "n_snapshots": _counts(n),
    }


# -- cloud realm ------------------------------------------------------------


def build_cloud_rows(
    schema: Schema,
    config: Any,
    period: str,
    since: Mapping[str, int],
) -> dict[str, np.ndarray]:
    """Fold ``fact_vm_interval`` / ``fact_vm`` into ``agg_cloud_<period>`` rows.

    Returns, as a column batch, the row, computed from all its facts, of
    every group that a row of either table at or past its ``since`` entry
    (absent: row 0, so every group) contributes to.
    """
    iv = _columns(schema, "fact_vm_interval", [
        "resource_id", "vm_id", "project", "os", "submission_venue",
        "state", "start_ts", "end_ts", "vcpus", "mem_gb", "disk_gb",
    ])
    vm = _columns(schema, "fact_vm", [
        "resource_id", "project", "os", "submission_venue",
        "provision_ts", "terminate_ts", "last_vcpus", "last_mem_gb",
        "n_state_changes",
    ])
    # a VM counts in the periods of its provision_ts and terminate_ts
    vm["last_ts"] = np.fmax(np.asarray(vm["terminate_ts"], dtype=np.float64), vm["provision_ts"])
    (iv, iv_fresh), (vm, vm_fresh) = _touching(
        period, ("resource_id", "project", "os", "submission_venue"),
        (iv, np.arange(len(iv["vm_id"])) >= since.get("fact_vm_interval", 0), "start_ts", "end_ts"),
        (vm, np.arange(len(vm["last_ts"])) >= since.get("fact_vm", 0), "provision_ts", "last_ts"),
    )
    n_iv, n_vm = len(iv_fresh), len(vm_fresh)
    if n_iv == 0 and n_vm == 0:
        return {}
    levels = config.vm_memory_levels
    proj_labels, (iv_proj, vm_proj) = _factorize(iv["project"], vm["project"])
    os_labels, (iv_os, vm_os) = _factorize(iv["os"], vm["os"])
    venue_labels, (iv_venue, vm_venue) = _factorize(
        iv["submission_venue"], vm["submission_venue"])
    mem_labels, iv_mem = _level_codes(levels, iv["mem_gb"])
    _, vm_mem = _level_codes(levels, vm["last_mem_gb"])
    iv_dims = [iv["resource_id"], iv_proj, iv_os, iv_venue, iv_mem]
    vm_dims = [vm["resource_id"], vm_proj, vm_os, vm_venue, vm_mem]
    start, end, state = iv["start_ts"], iv["end_ts"], iv["state"]
    term = np.asarray(vm["terminate_ts"], dtype=np.float64)
    bounds = _period_bounds(period, start, end, vm["provision_ts"], term)
    contributions = _Contributions((
        "core_hours", "wall_hours", "mem_gb_hours", "disk_gb_hours",
        "stopped_hours", "paused_hours", "n_state_changes", "n_vms_active",
        "n_vms_started", "n_vms_ended", "total_cores",
    ))

    # intervals: one row per (interval, overlapped period); a zero-length
    # running interval accrues no hours but its VM was active in the period
    # containing start_ts, so it gets one all-zero row there
    idx = np.flatnonzero(end > start)
    src, p, overlap = _expand_periods(start[idx], end[idx], bounds)
    instant = np.flatnonzero((end == start) & (state == "running"))
    src = np.concatenate([idx[src], instant])
    p = np.concatenate([p, _period_of(bounds, start[instant])])
    hours = np.concatenate([overlap, np.zeros(len(instant))]) / SECONDS_PER_HOUR
    running = state[src] == "running"
    stopped = state[src] == "stopped"
    keys = [p] + [d[src] for d in iv_dims]
    # a VM is active in every group one of its running rows lands in
    active = np.zeros(len(src))
    r = np.flatnonzero(running)
    active[r] = _first_occurrence([k[r] for k in keys] + [iv["vm_id"][src][r]])
    contributions.add(
        keys, iv_fresh[src],
        core_hours=np.where(running, iv["vcpus"][src] * hours, 0.0),
        wall_hours=np.where(running, hours, 0.0),
        mem_gb_hours=np.where(running, iv["mem_gb"][src] * hours, 0.0),
        disk_gb_hours=np.where(running, iv["disk_gb"][src] * hours, 0.0),
        stopped_hours=np.where(stopped, hours, 0.0),
        paused_hours=np.where(~running & ~stopped, hours, 0.0),
        n_vms_active=active,
    )

    # VMs: started in the period of provision_ts, ended in terminate_ts's
    contributions.add(
        [_period_of(bounds, vm["provision_ts"])] + vm_dims, vm_fresh,
        n_vms_started=np.ones(n_vm),
        total_cores=vm["last_vcpus"].astype(np.float64),
        n_state_changes=vm["n_state_changes"].astype(np.float64),
    )
    idx = np.flatnonzero(~np.isnan(term))
    contributions.add(
        [_period_of(bounds, term[idx])] + [d[idx] for d in vm_dims], vm_fresh[idx],
        n_vms_ended=np.ones(len(idx)),
    )
    uniq, sums = contributions.reduce()
    return {
        **_period_columns(period, bounds, uniq[0]),
        "resource_id": uniq[1],
        "project": proj_labels[uniq[2]],
        "os": os_labels[uniq[3]],
        "submission_venue": venue_labels[uniq[4]],
        "memory_level": mem_labels[uniq[5]],
        "core_hours": sums["core_hours"],
        "wall_hours": sums["wall_hours"],
        "mem_gb_hours": sums["mem_gb_hours"],
        "disk_gb_hours": sums["disk_gb_hours"],
        "stopped_hours": sums["stopped_hours"],
        "paused_hours": sums["paused_hours"],
        "n_state_changes": _counts(sums["n_state_changes"]),
        "n_vms_active": _counts(sums["n_vms_active"]),
        "n_vms_started": _counts(sums["n_vms_started"]),
        "n_vms_ended": _counts(sums["n_vms_ended"]),
        "total_cores": sums["total_cores"],
    }


# -- allocations realm ------------------------------------------------------


def build_allocation_rows(
    schema: Schema,
    config: Any,
    period: str,
    since: Mapping[str, int],
) -> dict[str, np.ndarray]:
    """Fold ``fact_allocation_charge`` / ``dim_allocation`` into
    ``agg_allocation_<period>`` rows, like :func:`build_job_rows`.

    A charge lands in the period containing its ``end_ts``; a grant is
    pro-rated over its validity window, charged or not.  A group's
    ``project`` / ``resource_id`` are its first charge's, else its grant's
    (the resource id by name from ``dim_resource``, 0 if absent; a fresh
    ``dim_resource`` row refreshes the grants naming it).
    """
    ch = _columns(schema, "fact_allocation_charge", [
        "allocation_id", "project", "resource_id", "end_ts", "xdsu_charged",
    ])
    al = _columns(schema, "dim_allocation", [
        "allocation_id", "project", "resource", "su_granted", "start_ts", "end_ts",
    ])
    res = _columns(schema, "dim_resource", ["resource_id", "name"])
    (ch, ch_fresh), (al, al_fresh) = _touching(
        period, ("allocation_id",),
        (ch, np.arange(len(ch["end_ts"])) >= since.get("fact_allocation_charge", 0),
         "end_ts", "end_ts"),
        (al, (np.arange(len(al["end_ts"])) >= since.get("dim_allocation", 0))
         | np.isin(al["resource"], res["name"][since.get("dim_resource", 0):]),
         "start_ts", "end_ts"),
    )
    n_ch = len(ch_fresh)
    if n_ch == 0 and len(al_fresh) == 0:
        return {}
    start, end = al["start_ts"], al["end_ts"]
    bounds = _period_bounds(period, ch["end_ts"], start, end)
    idx = np.flatnonzero(end > start)
    src, p, overlap = _expand_periods(start[idx], end[idx], bounds)
    src = idx[src]
    by_name = {name: i for i, name in enumerate(res["name"].tolist())}
    res_row = np.array(
        [by_name.get(name, -1) for name in al["resource"].tolist()], dtype=np.int64
    )[src]
    # contribution rows: every charge, then every (grant, overlapped period),
    # so the first row of a group is its first charge when it has one
    n_al = len(src)
    keys = [
        np.concatenate([_period_of(bounds, ch["end_ts"]), p]),
        np.concatenate([ch["allocation_id"], al["allocation_id"][src]]),
    ]
    fresh = np.concatenate([ch_fresh, al_fresh[src]])
    contributions = _Contributions(
        ("xdsu_charged", "n_jobs_charged", "su_granted", "first")
    )
    contributions.add(
        keys, fresh,
        xdsu_charged=np.concatenate([ch["xdsu_charged"], np.zeros(n_al)]),
        n_jobs_charged=np.concatenate([np.ones(n_ch), np.zeros(n_al)]),
        su_granted=np.concatenate([
            np.zeros(n_ch), al["su_granted"][src] * overlap / (end - start)[src],
        ]),
        # summed per group: the index of the group's first row
        first=_first_occurrence(keys) * np.arange(len(fresh)),
    )
    uniq, sums = contributions.reduce()
    first = _counts(sums["first"])
    grant_rid = np.append(res["resource_id"], 0)[res_row]  # -1: not found
    return {
        **_period_columns(period, bounds, uniq[0]),
        "allocation_id": uniq[1],
        "project": np.concatenate([ch["project"], al["project"][src]])[first],
        "resource_id": np.concatenate([ch["resource_id"], grant_rid])[first],
        "xdsu_charged": sums["xdsu_charged"],
        "n_jobs_charged": _counts(sums["n_jobs_charged"]),
        "su_granted": sums["su_granted"],
    }
