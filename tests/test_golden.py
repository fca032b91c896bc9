"""Golden pins for operator-facing output.

Pins, byte for byte, what an operator reads from the demo federations:
stdout and exit status of ``obs fleet`` and ``obs alerts`` (healthy and
``--inject-faults``), and the healthy fleet demo hub's ``/fleet/metrics``
and ``/metrics`` bodies.  The builders are the cheap CLI demos, so the
whole module runs in about a second.

Each demo federation runs on one ``FakeClock`` that only its builder
moves: one ``DEMO_TICK_S`` per sync cycle, ship, aggregation and alert
evaluation, and here one per request.  Reading the clock never moves
it, so the pinned bytes depend on those operations alone, not on how
often the code reads the clock (``test_extra_clock_reads_move_nothing``);
a span lasts exactly the advances inside it, so every pinned duration is
0.  A change that alters these outputs on purpose regenerates the files
with ``PYTHONPATH=src python -m tests.test_golden`` and explains every
changed line in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from repro.cli import DEMO_TICK_S, _demo_fleet_federation, main
from repro.core import FederationHub, FederationMonitor
from repro.realms import jobs_realm
from repro.ui import XdmodApi

GOLDEN = Path(__file__).parent / "golden"

#: golden file stem -> ``repro`` CLI arguments
CLI_CASES = {
    "obs_fleet": ["obs", "fleet"],
    "obs_fleet_inject_faults": ["obs", "fleet", "--inject-faults"],
    "obs_alerts": ["obs", "alerts"],
    "obs_alerts_inject_faults": ["obs", "alerts", "--inject-faults"],
}

#: golden file stem -> route served by the healthy fleet demo hub
HTTP_CASES = {
    "fleet_metrics": "/fleet/metrics",
    "hub_metrics": "/metrics",
}


def cli_output(argv: list[str]) -> str:
    """``exit <status>`` followed by the command's stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    return f"exit {status}\n{out.getvalue()}"


def http_bodies() -> dict[str, str]:
    """Every pinned route's body, requested in :data:`HTTP_CASES` order
    from one API over one healthy demo hub (each request counts on the
    hub's own ``serving_requests_total``)."""
    hub, _, monitor = _demo_fleet_federation()
    api = XdmodApi({"jobs": jobs_realm()}, hub.schema, obs=hub.obs, monitor=monitor)
    bodies = {}
    for stem, route in HTTP_CASES.items():
        hub.obs.clock.advance(DEMO_TICK_S)
        status, _, body, _ = api.handle_http(route, {})
        assert status == 200, (route, body)
        bodies[stem] = body.decode()
    return bodies


def current_outputs() -> dict[str, str]:
    outputs = {stem: cli_output(argv) for stem, argv in CLI_CASES.items()}
    outputs.update(http_bodies())
    return outputs


@pytest.fixture(scope="module")
def outputs() -> dict[str, str]:
    return current_outputs()


@pytest.mark.parametrize("stem", [*CLI_CASES, *HTTP_CASES])
def test_output_matches_golden(outputs, stem):
    assert outputs[stem] == (GOLDEN / f"{stem}.txt").read_text()


def test_extra_clock_reads_move_nothing(monkeypatch):
    """One more hub clock read per sync cycle and per alert evaluation
    changes no pinned byte: time is what the demos advance."""
    for cls, method in ((FederationHub, "sync"), (FederationMonitor, "evaluate_alerts")):
        original = getattr(cls, method)

        def reading(self, *args, _original=original, **kwargs):
            hub = self if isinstance(self, FederationHub) else self.hub
            hub.obs.clock.now()
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, reading)
    moved = [
        stem for stem, text in current_outputs().items()
        if text != (GOLDEN / f"{stem}.txt").read_text()
    ]
    assert moved == []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, text in current_outputs().items():
        (GOLDEN / f"{stem}.txt").write_text(text)
        print(f"wrote {GOLDEN / f'{stem}.txt'}")
