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


def _is_number(x: Any) -> bool:
    """A JSON number: ``bool`` is not one, though Python makes it an ``int``."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_integer(x: Any) -> bool:
    """A JSON integer: a number without a fractional part, as the schema's draft counts it."""
    return _is_number(x) and (isinstance(x, int) or x.is_integer())


def validate_report_dict(data: dict[str, Any]) -> None:
    """Check what ``REPORT_SCHEMA`` states, without external dependencies."""
    if not isinstance(data, dict):
        raise ValueError("report must be an object")
    for key in REPORT_SCHEMA["required"]:
        if key not in data:
            raise ValueError(f"report missing key {key!r}")
    if set(data) - set(REPORT_SCHEMA["properties"]):
        raise ValueError("report has unexpected keys")
    if not isinstance(data["suite"], str):
        raise ValueError("report suite must be a string")
    if not isinstance(data["parameters"], dict):
        raise ValueError("report parameters must be an object")
    if not isinstance(data["cases"], list):
        raise ValueError("report cases must be an array")
    totals = data["totals"]
    if not isinstance(totals, dict) or set(totals) != {"pass", "fail", "total"}:
        raise ValueError("report totals must be exactly pass, fail and total")
    if not all(_is_integer(v) and v >= 0 for v in totals.values()):
        raise ValueError("report totals must be integers, each at least 0")
    if totals["pass"] + totals["fail"] != totals["total"] or totals["total"] != len(data["cases"]):
        raise ValueError("report totals inconsistent with cases")
    wall_time = data["wall_time"]
    if not _is_number(wall_time) or not wall_time >= 0:
        raise ValueError("report wall_time must be a number, at least 0")
    for case in data["cases"]:
        if not isinstance(case, dict) or not {"name", "status"} <= set(case) <= {"name", "status", "witness"}:
            raise ValueError("case must hold name and status, and no key but witness besides")
        if case["status"] not in ("pass", "fail") or not isinstance(case["name"], str):
            raise ValueError("case needs a string name and status pass or fail")
        if not isinstance(case.get("witness"), (str, type(None))):
            raise ValueError("case witness must be a string or null")
