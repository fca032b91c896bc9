"""encode_json: one pass of the C encoder, the sanitizing walk only for a
payload holding a non-finite float, the same bytes either way."""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, strategies as st

from repro.ui import serving
from repro.ui.serving import encode_json, json_sanitize
from tests.conftest import property_settings

floats = st.floats(allow_nan=True, allow_infinity=True)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    floats, floats.map(np.float64),
)
payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers()), inner, max_size=4),
    ),
    max_leaves=24,
)


@property_settings(200)
@given(payloads)
def test_same_bytes_as_sanitizing_first(payload):
    assert encode_json(payload) == json.dumps(json_sanitize(payload), allow_nan=False).encode()


def test_a_finite_payload_is_not_walked(monkeypatch):
    walked = []
    monkeypatch.setattr(
        serving, "json_sanitize", lambda obj: walked.append(obj) or json_sanitize(obj)
    )
    payload = {
        "metric": "cpu_hours",
        "rows": [{"group": "a", "period": "2017-01", "period_start": 0, "value": 1.5}] * 40,
        "totals": (np.float64(2.0), None, True),
    }
    assert encode_json(payload) == json.dumps(payload).encode()
    assert walked == []
    assert encode_json({"value": float("nan")}) == b'{"value": "NaN"}'
    assert walked
