"""Golden pins for operator-facing output.

Pins, byte for byte, what an operator reads from the demo federations:
stdout and exit status of ``obs fleet`` and ``obs alerts`` (healthy and
``--inject-faults``), and the healthy fleet demo hub's ``/fleet/metrics``
and ``/metrics`` bodies.  The builders are the cheap CLI demos, so the
whole module runs in about a second.

The demos run on ``FakeClock(auto_advance=0.001)``: every clock read
moves time, so a change that adds or removes one read on the sync path
shifts the ``obs alerts`` absence values (``member_stale`` and friends)
even when nothing else moved.  A change that alters these outputs on
purpose regenerates the files with ``PYTHONPATH=src python -m
tests.test_golden`` and explains every changed line in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from repro.cli import _demo_fleet_federation, main
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, text in current_outputs().items():
        (GOLDEN / f"{stem}.txt").write_text(text)
        print(f"wrote {GOLDEN / f'{stem}.txt'}")
