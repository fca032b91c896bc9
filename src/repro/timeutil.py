"""Time helpers shared across the codebase.

All timestamps in the warehouse are integer epoch seconds (UTC).  XDMoD
aggregates by day / month / quarter / year; these helpers provide the
period-binning arithmetic without any timezone ambiguity.
"""

from __future__ import annotations

import calendar
import datetime as _dt
import functools
import re
from typing import Iterator

SECONDS_PER_MINUTE = 60
SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400

PERIODS = ("day", "month", "quarter", "year")


def ts(year: int, month: int = 1, day: int = 1, hour: int = 0, minute: int = 0, second: int = 0) -> int:
    """Epoch seconds for a UTC datetime."""
    return int(
        _dt.datetime(year, month, day, hour, minute, second, tzinfo=_dt.timezone.utc).timestamp()
    )


def from_ts(epoch: int) -> _dt.datetime:
    """UTC datetime for epoch seconds."""
    return _dt.datetime.fromtimestamp(epoch, tz=_dt.timezone.utc)


def iso(epoch: int) -> str:
    """ISO-8601 string (second resolution, UTC) for epoch seconds."""
    return from_ts(epoch).strftime("%Y-%m-%dT%H:%M:%S")


_CANONICAL_ISO = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d", re.ASCII)


@functools.lru_cache(maxsize=4096)
def _midnight(date: str) -> int:
    """Epoch seconds of UTC midnight on canonical ``YYYY-MM-DD`` ``date``,
    one ``datetime`` per distinct day (sacct stamps cluster on a few
    hundred); an invalid date raises ``ValueError`` as ``datetime`` does."""
    return int(
        _dt.datetime(
            int(date[:4]), int(date[5:7]), int(date[8:]), tzinfo=_dt.timezone.utc
        ).timestamp()
    )


def parse_iso(text: str) -> int:
    """Epoch seconds for an ISO-8601 ``YYYY-MM-DDTHH:MM:SS`` string.

    What parses, and to what, is ``strptime``'s decision.  Text of exactly
    the canonical shape (zero-padded ASCII digits — every stamp sacct
    writes) is read from its slices: the date through a bounded cache of
    midnights (one ``datetime`` per distinct day, which validates it) and
    the time of day by arithmetic, range-checked as ``datetime`` checks
    it; ``strptime`` would read the same fields at several times the
    cost.  Anything else goes to ``strptime`` itself, so both reject the
    same input with ``ValueError``.
    """
    if _CANONICAL_ISO.fullmatch(text):
        hour, minute, second = int(text[11:13]), int(text[14:16]), int(text[17:])
        if hour > 23 or minute > 59 or second > 59:
            raise ValueError(f"time of day out of range in {text!r}")
        return (
            _midnight(text[:10])
            + hour * SECONDS_PER_HOUR + minute * SECONDS_PER_MINUTE + second
        )
    dt = _dt.datetime.strptime(text, "%Y-%m-%dT%H:%M:%S").replace(
        tzinfo=_dt.timezone.utc
    )
    return int(dt.timestamp())


def day_start(epoch: int) -> int:
    """Epoch seconds of UTC midnight on the day containing ``epoch``."""
    return epoch - (epoch % SECONDS_PER_DAY)


def month_start(epoch: int) -> int:
    d = from_ts(epoch)
    return ts(d.year, d.month, 1)


def next_month(epoch: int) -> int:
    d = from_ts(epoch)
    if d.month == 12:
        return ts(d.year + 1, 1, 1)
    return ts(d.year, d.month + 1, 1)


def quarter_start(epoch: int) -> int:
    d = from_ts(epoch)
    q_month = 3 * ((d.month - 1) // 3) + 1
    return ts(d.year, q_month, 1)


def next_quarter(epoch: int) -> int:
    d = from_ts(quarter_start(epoch))
    if d.month >= 10:
        return ts(d.year + 1, 1, 1)
    return ts(d.year, d.month + 3, 1)


def year_start(epoch: int) -> int:
    return ts(from_ts(epoch).year, 1, 1)


def next_year(epoch: int) -> int:
    return ts(from_ts(epoch).year + 1, 1, 1)


def period_start(period: str, epoch: int) -> int:
    """Start of the day/month/quarter/year period containing ``epoch``."""
    if period == "day":
        return day_start(epoch)
    if period == "month":
        return month_start(epoch)
    if period == "quarter":
        return quarter_start(epoch)
    if period == "year":
        return year_start(epoch)
    raise ValueError(f"unknown period {period!r}")


def period_next(period: str, epoch: int) -> int:
    """Start of the period after the one containing ``epoch``."""
    if period == "day":
        return day_start(epoch) + SECONDS_PER_DAY
    if period == "month":
        return next_month(epoch)
    if period == "quarter":
        return next_quarter(epoch)
    if period == "year":
        return next_year(epoch)
    raise ValueError(f"unknown period {period!r}")


def period_range(period: str, start: int, end: int) -> Iterator[tuple[int, int]]:
    """Yield ``(period_start, period_end)`` half-open windows covering
    ``[start, end)``.  The first window starts at the period boundary at or
    before ``start``."""
    if end <= start:
        return
    cursor = period_start(period, start)
    while cursor < end:
        nxt = period_next(period, cursor)
        yield cursor, nxt
        cursor = nxt


def period_bounds(period: str, start: int, end: int) -> list[int]:
    """Sorted period boundaries ``b0 <= start`` … ``bk > end``.

    ``b[i] .. b[i+1]`` is one period window; for any ``t`` in
    ``[start, end]`` the containing period's index is
    ``bisect_right(bounds, t) - 1`` (``np.searchsorted(..., side="right")``
    in the vectorized aggregation paths).
    """
    if end < start:
        raise ValueError(f"period_bounds: end {end} < start {start}")
    cursor = period_start(period, start)
    bounds = [cursor]
    while cursor <= end:
        cursor = period_next(period, cursor)
        bounds.append(cursor)
    return bounds


def period_label(period: str, epoch: int) -> str:
    """Human label XDMoD-style: 2017-03, 2017 Q1, 2017, or 2017-03-14."""
    return _period_label(period, epoch)


@functools.lru_cache(maxsize=4096)
def _period_label(period: str, epoch: int) -> str:
    """:func:`period_label` through a bounded cache: one ``strftime`` per
    distinct period, not one per read (a day chart labels a few hundred)."""
    d = from_ts(epoch)
    if period == "day":
        return d.strftime("%Y-%m-%d")
    if period == "month":
        return d.strftime("%Y-%m")
    if period == "quarter":
        return f"{d.year} Q{(d.month - 1) // 3 + 1}"
    if period == "year":
        return str(d.year)
    raise ValueError(f"unknown period {period!r}")


def days_in_month(epoch: int) -> int:
    d = from_ts(epoch)
    return calendar.monthrange(d.year, d.month)[1]


def overlap_seconds(a_start: int, a_end: int, b_start: int, b_end: int) -> int:
    """Length of the intersection of two half-open intervals, >= 0."""
    return max(0, min(a_end, b_end) - max(a_start, b_start))
