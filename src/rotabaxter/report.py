"""Check outcomes with reproducible counterexample witnesses."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .rationals import format_rational


@dataclass(frozen=True)
class Witness:
    """Concrete tuple on which an identity's two sides differ.

    ``diff`` is always lhs − rhs, so a failing report can be replayed:
    re-evaluating both sides on ``inputs`` must reproduce it exactly.
    """

    inputs: tuple
    lhs: object
    rhs: object
    diff: object

    def to_json(self) -> dict:
        return {
            "inputs": [str(x) for x in self.inputs],
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "diff": str(self.diff),
        }


@dataclass(frozen=True)
class CheckReport:
    """The outcome of one check: what was checked, on which domain, over
    how many tuples.  Its verdict is its witness: ``status`` is "fail"
    exactly when ``witness`` is set, so no passing report carries one."""

    check: str
    algebra: str
    operator: str
    weight: Fraction | None
    domain: dict
    tuples: int
    witness: Witness | None = None
    notes: tuple = field(default_factory=tuple)

    @property
    def status(self) -> str:
        return "pass" if self.witness is None else "fail"

    @property
    def passed(self) -> bool:
        return self.witness is None

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "algebra": self.algebra,
            "operator": self.operator,
            "weight": None if self.weight is None else format_rational(self.weight),
            "domain": self.domain,
            "status": self.status,
            "tuples": self.tuples,
            "witness": None if self.witness is None else self.witness.to_json(),
            "notes": list(self.notes),
        }


def dumps_reports(payload) -> str:
    """Deterministic JSON text for a report, list of reports, or dict."""
    if isinstance(payload, CheckReport):
        payload = payload.to_json()
    elif isinstance(payload, (list, tuple)):
        payload = [p.to_json() if isinstance(p, CheckReport) else p for p in payload]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
