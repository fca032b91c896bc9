"""One aggregate builder for every realm: a columnar fold over declarations.

The nightly aggregation step is the hottest path in the system: at
federation-hub scale every member's raw facts are re-binned for every
period.  :func:`build` is the one builder and knows no realm; what a realm
aggregates is declared on its :class:`repro.aggregation.AggregateSpec`:

- :class:`Source` — one table: the columns read, in one ``column_arrays``
  call (so all of one data version), second names (``rename``), a column
  looked up in another table (``join``) and its attributions;
- :func:`at` / :func:`over` — where each row's measures land: the period
  containing a timestamp, or every period ``[start, end)`` overlaps.  A
  value is a column, a constant, a function of the contribution rows'
  columns ``c`` (in which ``c[f]`` is function ``f``'s column, computed
  once), or a :class:`Distinct` count;
- on the spec, ``levels`` (a key binned by a level set), ``pick`` (a column
  taken from one row of the group), ``finish`` (averages from sums) and
  ``snapshot`` (gauge readings, summed per timestamp first); a ``STR`` key
  is coded over every source and an ``INT`` measure's sum is rounded.

Attributions become contribution rows (one per row, or per overlapped
period), reduced in declaration order by :func:`group_reduce`.  ``since``
gives, per table, the first row not yet folded: a group is emitted only
when a row at or past it (a *fresh* row) contributed, and is computed from
*all* its rows; the rebuild is the fold with an empty ``since``.  A fold
reads only rows that can reach a touched group (:func:`_touching`): their
period span — earliest to latest timestamp their attributions read — meets
the fresh rows' period hull and a fresh row has their key values.  A
group's key holds its period and every key column, so its rows all pass,
in order, and the stable sort sums them as a rebuild does, bit for bit.
The result is a column batch in the oracle's row order (per-row reference:
``tests/aggregation_oracles.py``), written with one ``upsert_columns``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from typing import Any, Callable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from ..timeutil import period_bounds, period_label, period_next, period_start
from ..warehouse import ColumnType, Schema

__all__ = ["Distinct", "Plan", "Source", "at", "build", "group_reduce", "over"]

Columns = Mapping[str, np.ndarray]


# -- the declarations ---------------------------------------------------------


@dataclass(frozen=True)
class Distinct:
    """A measure counting the different ``entity`` values of a group's rows.

    Counted over the rows ``where`` holds on, in every attribution
    declaring the measure, so an entity counts once per group."""

    entity: str
    where: Callable[[Columns], np.ndarray] | None = None


Value = Union[str, float, Distinct, Callable[[Columns], np.ndarray]]


@dataclass(frozen=True)
class Attribution:
    """Where a row's measures land; made by :func:`at` and :func:`over`."""

    stamps: tuple[str, ...]
    values: tuple[tuple[str, Value], ...]
    where: Callable[[Columns], np.ndarray] | None = None


def at(ts: str, *, where: Callable[[Columns], np.ndarray] | None = None,
       **values: Value) -> Attribution:
    """A row's ``values`` land in the period containing its ``ts``.

    Rows with a NULL ``ts`` or a false ``where`` add nothing."""
    return Attribution((ts,), tuple(values.items()), where)


def over(start: str, end: str, *, where: Callable[[Columns], np.ndarray] | None = None,
         **values: Value) -> Attribution:
    """A row's ``values`` land in every period ``[start, end)`` overlaps.

    Rows with ``end <= start`` or a false ``where`` add nothing; a function
    reads the seconds of each overlap as the column ``overlap``."""
    return Attribution((start, end), tuple(values.items()), where)


@dataclass(frozen=True)
class Source:
    """One table an aggregate reads.

    ``read`` names every column the spec uses from it; ``rename`` gives read
    columns a second name (``{name: column}``, such as the column a level
    set bins, under its key's name).  ``join = (columns, table, keys,
    values)`` adds the columns ``values`` of the row of ``table`` whose
    ``keys`` equal ``columns`` (the last such row; 0 when there is none),
    and a row of ``table`` not yet folded makes the rows it matches fresh.
    A source has every key of its spec.
    """

    table: str
    read: tuple[str, ...]
    attributions: tuple[Attribution, ...]
    rename: Mapping[str, str] = field(default_factory=dict)
    join: tuple[tuple[str, ...], str, tuple[str, ...], tuple[str, ...]] | None = None


class Plan(NamedTuple):
    """What :func:`build` reads off a spec, derived once per spec."""

    measures: tuple[str, ...]           # in declaration order
    rounded: frozenset[str]             # the INT measures
    touch: tuple[str, ...]              # the keys a fold prunes by
    coded: frozenset[str]               # STR keys, coded over every source
    spans: tuple[tuple[str, ...], ...]  # per source, the timestamps read

    @classmethod
    def of(cls, spec: Any) -> Plan:
        types = dict(spec.columns)
        attributions = [a for s in spec.sources for a in s.attributions]
        if spec.snapshot and any(len(a.stamps) > 1 for a in attributions):
            raise ValueError(f"{spec.realm}: a snapshot spec attributes with at() only")
        measures = tuple(dict.fromkeys(m for a in attributions for m, _ in a.values))
        touch = tuple(k for k in spec.key if k not in spec.levels)
        return cls(
            measures, frozenset(m for m in measures if types[m] is ColumnType.INT),
            touch, frozenset(k for k in touch if types[k] is ColumnType.STR),
            tuple(
                tuple(dict.fromkeys(t for a in s.attributions for t in a.stamps))
                for s in spec.sources
            ),
        )


# -- kernels ------------------------------------------------------------------


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


def _pick_rows(keys: Sequence[np.ndarray], by: np.ndarray | None) -> np.ndarray:
    """Per group of composite ``keys``, in group order, the index of its
    first row — or, given ``by``, of its row with the largest ``by`` (the
    later row on a tie)."""
    if len(keys[0]) == 0:
        return np.empty(0, dtype=np.intp)
    if by is None:
        order, starts = _sorted_groups(keys)
        return order[starts]
    order = np.lexsort((by, *reversed(keys)))
    last = np.zeros(len(order), dtype=bool)
    last[-1] = True
    for k in keys:
        k = k[order]
        last[:-1] |= k[:-1] != k[1:]
    return order[last]


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
    if column.dtype == object:
        wanted = set(values.tolist())
        wanted |= {str(v) for v in wanted}
        return np.isin(column, np.array(list(wanted), dtype=object)) | np.equal(column, None)
    wanted = dict.fromkeys(values.tolist())
    if len(wanted) > 16:  # many values: np.isin sorts; a few: one comparison each
        return np.isin(column, values) | np.isnan(column)
    hit = np.isnan(column)
    for value in wanted:
        hit |= column == value
    return hit


def _touching(
    period: str,
    keys: Sequence[str],
    *parts: tuple[dict[str, np.ndarray], np.ndarray, str, str],
) -> list[tuple[dict[str, np.ndarray], np.ndarray]]:
    """Each table cut down to the rows that can reach a group a fresh row
    touches.

    ``parts``: per table, its column arrays, its ``fresh`` mask and the
    columns holding each row's earliest and latest timestamp.  A row is kept
    if fresh, or if its period span meets the hull of all fresh rows'
    periods and each of its ``keys`` values is NULL or one a fresh row has.
    Returns ``(columns, fresh)`` per part, rows in order; a rebuild (every
    row fresh) gets the parts back as they are.
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


def _span(c: dict[str, np.ndarray], stamps: Sequence[str]) -> tuple[str, str]:
    """The columns of ``c`` holding each row's earliest and latest of
    ``stamps`` (NULLs skipped), added to ``c`` when there are several."""
    if len(stamps) == 1:
        return stamps[0], stamps[0]
    c["(first)"] = reduce(np.fmin, [c[t] for t in stamps])
    c["(last)"] = reduce(np.fmax, [c[t] for t in stamps])
    return "(first)", "(last)"


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
    merged = np.concatenate([a.astype(object) for a in object_arrays])
    labels, inverse = np.unique(merged.astype(str), return_inverse=True)
    codes, ends = inverse.astype(np.int64), accumulate(len(a) for a in object_arrays)
    return labels.astype(object), [codes[e - len(a):e] for a, e in zip(object_arrays, ends)]


def _level_codes(levels: Any, *values: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Bin each of several ``values`` arrays by an :class:`AggregationLevelSet`.

    Returns ``(labels, [code_arrays...])`` like :func:`_factorize`:
    ``labels`` sorted as strings, so groups keyed by the codes come out of
    :func:`group_reduce` in the order the oracle sorts level labels in.
    """
    labels, rank = np.unique(
        np.array(levels.coded_labels, dtype=object), return_inverse=True
    )
    return labels, [rank[levels.codes_of(v)] for v in values]


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


# -- the builder --------------------------------------------------------------


class _Gathered(dict):
    """A table's columns at some of its rows (``None``: all), each gathered
    on first use; ``view[f]`` for a function ``f`` is ``f(view)``, a column
    derived once."""

    def __init__(self, columns: Columns, rows: np.ndarray | None, **extra: np.ndarray) -> None:
        super().__init__(extra)
        self.columns, self.rows = columns, slice(None) if rows is None else rows

    def __missing__(self, name: Any) -> np.ndarray:
        self[name] = column = name(self) if callable(name) else self.columns[name][self.rows]
        return column


def _contributions(a: Attribution, c: dict[str, np.ndarray], bounds: np.ndarray
                   ) -> tuple[np.ndarray | None, np.ndarray, Columns]:
    """Attribution ``a``'s contribution rows over a table's columns ``c``:
    ``(rows, period_idx, view)``, where ``rows`` indexes ``c`` (``None``:
    every row, in order) and ``view`` holds the columns at those rows."""
    whole = _Gathered(c, None)
    keep = None if a.where is None else whole[a.where]
    if len(a.stamps) == 1:
        t = c[a.stamps[0]]
        if t.dtype.kind == "f":
            keep = ~np.isnan(t) if keep is None else keep & ~np.isnan(t)
        if keep is None:
            return None, _period_of(bounds, t), whole
        rows = np.flatnonzero(keep)
        return rows, _period_of(bounds, t[rows]), _Gathered(c, rows)
    start, end = c[a.stamps[0]], c[a.stamps[1]]
    rows = np.flatnonzero(end > start if keep is None else (end > start) & keep)
    src, p, overlap = _expand_periods(start[rows], end[rows], bounds)
    rows = rows[src]
    return rows, p, _Gathered(c, rows, overlap=overlap)


class _Chunk(NamedTuple):
    keys: list[np.ndarray]
    fresh: np.ndarray
    values: dict[str, np.ndarray]
    view: Columns
    stamp: str


def build(spec: Any, schema: Schema, config: Any, period: str,
          since: Mapping[str, int]) -> dict[str, np.ndarray]:
    """Fold ``spec``'s sources into ``<prefix>_<period>`` rows.

    Returns, as a column batch, the row, computed from all its rows, of
    every group that a row at or past its table's ``since`` entry (absent:
    row 0, so every group) contributes to; ``{}`` when no source has a row
    that can reach one.
    """
    plan: Plan = spec.plan
    parts = []
    for source, span in zip(spec.sources, plan.spans):
        c = _columns(schema, source.table, source.read)
        for name, column in source.rename.items():
            c[name] = c[column]
        fresh = np.arange(len(c[source.read[0]])) >= since.get(source.table, 0)
        if source.join:
            columns, table, keys, values = source.join
            joined = _columns(schema, table, (*keys, *values))
            row = {k: i for i, k in enumerate(zip(*(joined[k].tolist() for k in keys)))}
            found = np.fromiter(
                (row.get(k, -1) for k in zip(*(c[k].tolist() for k in columns))), np.int64)
            fresh |= found >= since.get(table, 0)
            for value in values:
                c[value] = np.append(joined[value], 0)[found]
        if all(a.where for a in source.attributions):
            # a row no attribution places (a join miss's 0s) reaches no window
            whole = _Gathered(c, None)
            live = reduce(np.logical_or, [whole[a.where] for a in source.attributions])
            c, fresh = {name: column[live] for name, column in c.items()}, fresh[live]
        parts.append((c, fresh, *_span(c, span)))
    parts = _touching(period, plan.touch, *parts)
    if not any(len(fresh) for _, fresh in parts):
        return {}
    bounds = _period_bounds(
        period, *(c[t] for (c, _), span in zip(parts, plan.spans) for t in span)
    )

    # each table's group key: its key columns raw, coded or level-binned
    dims: list[list[np.ndarray]] = [[] for _ in parts]
    labels: dict[str, np.ndarray] = {}
    for key in spec.key:
        columns = [c[key] for c, _ in parts]
        if key in spec.levels:
            labels[key], columns = _level_codes(getattr(config, spec.levels[key]), *columns)
        elif key in plan.coded:
            labels[key], columns = _factorize(*columns)
        for d, column in zip(dims, columns):
            d.append(column)

    chunks: list[_Chunk] = []
    distinct: dict[str, list[tuple[int, np.ndarray, np.ndarray]]] = {}
    for (c, fresh), source, d in zip(parts, spec.sources, dims):
        for a in source.attributions:
            rows, p, view = _contributions(a, c, bounds)
            values: dict[str, np.ndarray] = {}
            for name, value in a.values:
                if isinstance(value, str):
                    values[name] = view[value]
                elif isinstance(value, Distinct):  # counted once all chunks are in
                    hit = np.ones(len(p), dtype=bool) if value.where is None else view[value.where]
                    distinct.setdefault(name, []).append((len(chunks), hit, view[value.entity]))
                elif callable(value):
                    values[name] = view[value]
                else:
                    values[name] = np.full(len(p), float(value))
            keys, flags = ([p, *d], fresh) if rows is None else (
                [p, *(k[rows] for k in d)], fresh[rows])
            chunks.append(_Chunk(keys, flags, values, view, a.stamps[0]))

    keys = [np.concatenate(k) for k in zip(*(chunk.keys for chunk in chunks))]
    measures = {"fresh": np.concatenate([chunk.fresh for chunk in chunks])}
    zeros = [np.zeros(len(chunk.fresh)) for chunk in chunks]
    for m in plan.measures:
        measures[m] = np.concatenate(
            [chunk.values.get(m, none) for chunk, none in zip(chunks, zeros)]
        )
    for name, members in distinct.items():
        # 1.0 on an entity's first row in its group: summed, a distinct count
        first = [0, *accumulate(len(chunk.fresh) for chunk in chunks)]
        rows = np.concatenate([first[i] + np.flatnonzero(hit) for i, hit, _ in members])
        entity = np.concatenate([e[hit] for _, hit, e in members])
        measures[name][rows[_pick_rows([*(k[rows] for k in keys), entity], None)]] = 1.0
    picked = {}
    for name, by in spec.pick.items():
        by = None if by is None else np.concatenate([chunk.view[by] for chunk in chunks])
        picked[name] = np.concatenate([chunk.view[name] for chunk in chunks])[_pick_rows(keys, by)]
    if spec.snapshot:  # per timestamp first, then per period
        stamps = np.concatenate([chunk.view[chunk.stamp] for chunk in chunks])
        (stamp, *rest), measures = group_reduce([stamps, *keys[1:]], measures)
        keys = [_period_of(bounds, stamp), *rest]
    uniq, sums = group_reduce(keys, measures)

    touched = np.flatnonzero(sums["fresh"] > 0)
    built = {name: column[touched] for name, column in picked.items()}
    for key, column in zip(spec.key, uniq[1:]):
        column = column[touched]
        built[key] = labels[key][column] if key in labels else column
    for m in plan.measures:
        total = sums[m][touched]
        if m in plan.rounded:  # sums of 0/1 flags: the integers they stand for
            total = np.rint(total).astype(np.int64)
        elif m in spec.finish:
            total = total / sums[spec.finish[m]][touched]
        built[m] = total
    out = _period_columns(period, bounds, uniq[0][touched])
    out.update((name, built[name]) for name, _ in spec.columns)
    return out
