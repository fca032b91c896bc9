"""Decode one in-process GET through ``XdmodApi.handle_http``."""

from __future__ import annotations

import json
from typing import Any, Mapping


def get_json(
    api, path: str, headers: Mapping[str, str] | None = None
) -> tuple[int, Any, dict[str, str]]:
    """(status, decoded JSON body, extra headers); a 304's empty body is ``{}``."""
    status, content_type, body, extra = api.handle_http(path, headers or {})
    assert content_type == "application/json", content_type
    return status, json.loads(body) if body else {}, extra
