"""Verification reports: typed cases, totals, JSON serialization and schema."""

from __future__ import annotations

import json
from typing import Any


class Case:
    def __init__(self, name: str, status: str, witness: str | None = None) -> None:
        self.name = name
        self.status = status  # "pass" | "fail"
        self.witness = witness

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "status": self.status, "witness": self.witness}


class Report:
    def __init__(
        self, suite: str, parameters: dict[str, Any], cases: list[Case] | None = None, wall_time: float = 0.0
    ) -> None:
        self.suite = suite
        self.parameters = parameters
        self.cases = [] if cases is None else cases
        self.wall_time = wall_time

    @property
    def totals(self) -> dict[str, int]:
        passed = sum(1 for c in self.cases if c.status == "pass")
        return {"pass": passed, "fail": len(self.cases) - passed, "total": len(self.cases)}

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.cases)

    def to_dict(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "cases": [c.to_dict() for c in self.cases],
            "totals": self.totals,
            "wall_time": self.wall_time,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for key, value in self.parameters.items():
            lines.append(f"  {key} = {value}")
        for c in self.cases:
            mark = "PASS" if c.status == "pass" else "FAIL"
            lines.append(f"[{mark}] {c.name}")
            if c.witness and c.status == "fail":
                lines.append(f"       witness: {c.witness}")
        t = self.totals
        lines.append(
            f"{t['pass']}/{t['total']} passed in {self.wall_time:.2f}s"
        )
        return "\n".join(lines)


#: JSON schema for serialized reports (draft 2020-12 subset).
REPORT_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["suite", "parameters", "cases", "totals", "wall_time"],
    "additionalProperties": False,
    "properties": {
        "suite": {"type": "string"},
        "parameters": {"type": "object"},
        "cases": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "status"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "status": {"enum": ["pass", "fail"]},
                    "witness": {"type": ["string", "null"]},
                },
            },
        },
        "totals": {
            "type": "object",
            "required": ["pass", "fail", "total"],
            "additionalProperties": False,
            "properties": {
                "pass": {"type": "integer", "minimum": 0},
                "fail": {"type": "integer", "minimum": 0},
                "total": {"type": "integer", "minimum": 0},
            },
        },
        "wall_time": {"type": "number", "minimum": 0},
    },
}


def _is_type(x: Any, name: str) -> bool:
    """A JSON type test: ``bool`` is neither a number nor an integer, and an
    integral float is an integer, as the schema's draft counts them."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return isinstance(x, {"object": dict, "array": list, "string": str, "null": type(None)}.get(name, ()))
    return name == "number" or name == "integer" and (isinstance(x, int) or x.is_integer())


def _check(x: Any, schema: dict[str, Any], path: str) -> None:
    """Raise ``ValueError`` naming ``path`` where ``x`` breaks ``schema``.  Reads
    only ``type``, ``enum``, ``minimum`` (``not x >= minimum``: NaN fails it),
    ``required``, ``properties``, ``additionalProperties: false`` and ``items``."""
    types = schema.get("type", [])
    if types and not any(_is_type(x, t) for t in ([types] if isinstance(types, str) else types)):
        raise ValueError(f"{path} must be of type {types}")
    if "enum" in schema and x not in schema["enum"]:
        raise ValueError(f"{path} must be one of {schema['enum']}")
    if "minimum" in schema and _is_type(x, "number") and not x >= schema["minimum"]:
        raise ValueError(f"{path} must be at least {schema['minimum']}")
    if isinstance(x, dict):
        missing = [key for key in schema.get("required", []) if key not in x]
        if missing:
            raise ValueError(f"{path} misses keys {missing}")
        for key, value in x.items():
            if key in schema.get("properties", {}):
                _check(value, schema["properties"][key], f"{path}.{key}")
            elif schema.get("additionalProperties") is False:
                raise ValueError(f"{path} has unexpected key {key!r}")
    if isinstance(x, list) and "items" in schema:
        for i, item in enumerate(x):
            _check(item, schema["items"], f"{path}[{i}]")


def validate_report_dict(data: dict[str, Any]) -> None:
    """Check ``data`` against ``REPORT_SCHEMA``, then its totals against its cases."""
    _check(data, REPORT_SCHEMA, "report")
    totals = data["totals"]
    if totals["pass"] + totals["fail"] != totals["total"] or totals["total"] != len(data["cases"]):
        raise ValueError("report totals inconsistent with cases")
