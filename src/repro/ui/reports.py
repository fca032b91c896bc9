"""Custom report generation and scheduling.

XDMoD lets stakeholders "automate reports": a report definition names a set
of charts; the generator renders them (as markdown here), and the scheduler
decides which calendar dates a periodic report fires on.  Federation's
management use cases (Section II-E) lean on exactly this — a monthly
federation-wide utilization report for the funding agency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..timeutil import from_ts, iso
from .ascii import render_table
from .charts import ChartBuilder, ChartData


@dataclass(frozen=True)
class ChartSpec:
    """One chart inside a report."""

    title: str
    metric: str
    group_by: str | None = None
    top_n: int | None = None
    filters: Mapping[str, tuple[str, ...]] | None = None
    view: str = "timeseries"


@dataclass(frozen=True)
class ReportDefinition:
    """A named report: header + charts + delivery schedule."""

    name: str
    title: str
    charts: tuple[ChartSpec, ...]
    schedule: str = "monthly"  # "daily" | "monthly" | "quarterly"

    def __post_init__(self) -> None:
        if self.schedule not in ("daily", "monthly", "quarterly"):
            raise ValueError(f"unknown schedule {self.schedule!r}")


def due_on(definition: ReportDefinition, epoch: int) -> bool:
    """Is the report due on the UTC day containing ``epoch``?

    Daily reports fire every day; monthly on the 1st; quarterly on the
    first day of each quarter.
    """
    d = from_ts(epoch)
    if definition.schedule == "daily":
        return True
    if definition.schedule == "monthly":
        return d.day == 1
    return d.day == 1 and d.month in (1, 4, 7, 10)


@dataclass
class GeneratedReport:
    """Rendered output plus the raw chart data."""

    definition: ReportDefinition
    generated_at: int
    period: tuple[int, int]
    charts: list[ChartData]
    markdown: str


class ReportGenerator:
    """Renders report definitions against a chart builder."""

    def __init__(self, builder: ChartBuilder, *, instance_label: str = "") -> None:
        self.builder = builder
        self.instance_label = instance_label

    def generate(
        self,
        definition: ReportDefinition,
        *,
        start: int,
        end: int,
        period: str = "month",
        now: int | None = None,
    ) -> GeneratedReport:
        charts: list[ChartData] = []
        sections: list[str] = [
            f"# {definition.title}",
            "",
            f"*Instance:* {self.instance_label or 'local'}  ",
            f"*Range:* {iso(start)} to {iso(end)}  ",
        ]
        for spec in definition.charts:
            build = (
                self.builder.aggregate if spec.view == "aggregate" else self.builder.timeseries
            )
            chart = build(
                spec.metric, start=start, end=end, period=period,
                group_by=spec.group_by, filters=spec.filters,
                title=spec.title, top_n=spec.top_n,
            )
            charts.append(chart)
            sections += ["", "```", render_table(chart), "```"]
        markdown = "\n".join(sections) + "\n"
        return GeneratedReport(
            definition=definition,
            generated_at=now if now is not None else end,
            period=(start, end),
            charts=charts,
            markdown=markdown,
        )


def run_schedule(
    definitions: Sequence[ReportDefinition],
    days: Sequence[int],
) -> dict[str, list[int]]:
    """Which reports fire on which days — the scheduler's dry-run.

    Returns report name -> list of epoch days it would be generated on.
    """
    out: dict[str, list[int]] = {d.name: [] for d in definitions}
    for day in days:
        for definition in definitions:
            if due_on(definition, day):
                out[definition.name].append(day)
    return out
