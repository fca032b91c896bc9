"""Period arithmetic and time helpers."""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, strategies as st

from repro import timeutil as tu

EPOCHS = st.integers(min_value=tu.ts(1990, 1, 1), max_value=tu.ts(2040, 12, 31))


def test_ts_round_trip_iso():
    epoch = tu.ts(2017, 7, 14, 12, 30, 45)
    assert tu.iso(epoch) == "2017-07-14T12:30:45"
    assert tu.parse_iso("2017-07-14T12:30:45") == epoch


def _strptime_parse_iso(text: str) -> int:
    """``parse_iso`` without its fast path: the reference it must agree
    with on every input."""
    return int(
        datetime.datetime.strptime(text, "%Y-%m-%dT%H:%M:%S")
        .replace(tzinfo=datetime.timezone.utc)
        .timestamp()
    )


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


_FIELD = st.one_of(
    st.integers(0, 99).map("{:02d}".format),  # padded, in or out of range
    st.integers(0, 9).map(str),  # unpadded
    st.sampled_from(["٠١", "１２", " 1", "1 ", "-1", "+1", "W1", ""]),
)
_ISO_LIKE = st.builds(
    "{}-{}-{}{}{}:{}:{}{}".format,
    st.one_of(
        st.integers(0, 9999).map("{:04d}".format),
        st.sampled_from(["17", "02017", "２０１７", "2017-W01"]),
    ),
    _FIELD, _FIELD,
    st.sampled_from(["T", "T", "T", "t", " ", ""]),
    _FIELD, _FIELD, _FIELD,
    st.sampled_from(["", "", "", " ", "\n", "Z", ".5", "+00:00"]),
)


@given(EPOCHS)
def test_parse_iso_inverts_iso_like_strptime(epoch):
    assert tu.parse_iso(tu.iso(epoch)) == _strptime_parse_iso(tu.iso(epoch)) == epoch


@given(_ISO_LIKE)
def test_parse_iso_accepts_and_rejects_what_strptime_does(text):
    assert _outcome(tu.parse_iso, text) == _outcome(_strptime_parse_iso, text)


@pytest.mark.parametrize("text", [
    "2017-W01-1T12:34:56",  # ISO week date: fromisoformat takes it on 3.11+
    "2017-07-14 12:30:45",  # space separator
    "2017-7-4T2:3:5",  # unpadded fields (strptime takes them)
    "２０１７-０７-１４T１２:３０:４５",  # non-ASCII digits (strptime takes them)
    "2017-07-14T12:30:45 ",  # trailing whitespace
    "2017-07-14T12:30:45\n",
    "2017-07-14T24:00:00",
    "2017-07-14T12:30:60",
    "2017-02-30T00:00:00",
    "2016-02-29T00:00:00",
    "2017-02-29T00:00:00",
    "0000-01-01T00:00:00",
    "20170714T123045",
    "",
])
def test_parse_iso_edge_shapes_match_strptime(text):
    assert _outcome(tu.parse_iso, text) == _outcome(_strptime_parse_iso, text)


def test_month_start_and_next():
    epoch = tu.ts(2017, 3, 15, 9)
    assert tu.month_start(epoch) == tu.ts(2017, 3, 1)
    assert tu.next_month(epoch) == tu.ts(2017, 4, 1)
    assert tu.next_month(tu.ts(2017, 12, 25)) == tu.ts(2018, 1, 1)


def test_quarter_boundaries():
    assert tu.quarter_start(tu.ts(2017, 5, 20)) == tu.ts(2017, 4, 1)
    assert tu.next_quarter(tu.ts(2017, 5, 20)) == tu.ts(2017, 7, 1)
    assert tu.next_quarter(tu.ts(2017, 11, 1)) == tu.ts(2018, 1, 1)


def test_year_boundaries():
    assert tu.year_start(tu.ts(2017, 6, 6)) == tu.ts(2017, 1, 1)
    assert tu.next_year(tu.ts(2017, 6, 6)) == tu.ts(2018, 1, 1)


def test_period_labels():
    epoch = tu.ts(2017, 8, 9)
    assert tu.period_label("day", epoch) == "2017-08-09"
    assert tu.period_label("month", epoch) == "2017-08"
    assert tu.period_label("quarter", epoch) == "2017 Q3"
    assert tu.period_label("year", epoch) == "2017"


def test_unknown_period_raises():
    with pytest.raises(ValueError):
        tu.period_start("week", 0)
    with pytest.raises(ValueError):
        tu.period_next("week", 0)
    with pytest.raises(ValueError):
        tu.period_label("week", 0)


def test_period_range_covers_window():
    windows = list(tu.period_range("month", tu.ts(2017, 1, 15), tu.ts(2017, 4, 2)))
    assert windows[0] == (tu.ts(2017, 1, 1), tu.ts(2017, 2, 1))
    assert windows[-1] == (tu.ts(2017, 4, 1), tu.ts(2017, 5, 1))
    assert len(windows) == 4


def test_period_range_empty_for_degenerate_window():
    assert list(tu.period_range("day", 100, 100)) == []
    assert list(tu.period_range("day", 100, 50)) == []


def test_overlap_seconds():
    assert tu.overlap_seconds(0, 10, 5, 20) == 5
    assert tu.overlap_seconds(0, 10, 10, 20) == 0
    assert tu.overlap_seconds(0, 10, -5, 100) == 10
    assert tu.overlap_seconds(0, 10, 20, 30) == 0


def test_days_in_month():
    assert tu.days_in_month(tu.ts(2017, 2, 10)) == 28
    assert tu.days_in_month(tu.ts(2016, 2, 10)) == 29
    assert tu.days_in_month(tu.ts(2017, 12, 31)) == 31


@pytest.mark.parametrize("period", tu.PERIODS)
@given(epoch=EPOCHS)
def test_period_start_idempotent(period, epoch):
    start = tu.period_start(period, epoch)
    assert tu.period_start(period, start) == start
    assert start <= epoch


@pytest.mark.parametrize("period", tu.PERIODS)
@given(epoch=EPOCHS)
def test_period_next_is_after_and_adjacent(period, epoch):
    start = tu.period_start(period, epoch)
    nxt = tu.period_next(period, epoch)
    assert nxt > epoch
    # the next period's start is exactly the current period's end
    assert tu.period_start(period, nxt) == nxt
    assert tu.period_next(period, start) == nxt


@given(epoch=EPOCHS)
def test_periods_nest(epoch):
    """day ⊆ month ⊆ quarter ⊆ year containment."""
    assert tu.month_start(epoch) <= tu.day_start(epoch)
    assert tu.quarter_start(epoch) <= tu.month_start(epoch)
    assert tu.year_start(epoch) <= tu.quarter_start(epoch)


@given(
    a=st.integers(min_value=0, max_value=10**6),
    b=st.integers(min_value=0, max_value=10**6),
    c=st.integers(min_value=0, max_value=10**6),
    d=st.integers(min_value=0, max_value=10**6),
)
def test_overlap_symmetric_and_bounded(a, b, c, d):
    a, b = sorted((a, b))
    c, d = sorted((c, d))
    ov = tu.overlap_seconds(a, b, c, d)
    assert ov == tu.overlap_seconds(c, d, a, b)
    assert 0 <= ov <= min(b - a, d - c)
