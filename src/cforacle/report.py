"""Machine-readable claim reports produced by reproduction routines."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .core import _exact_str, _int_str


def render_value(value: Any) -> str:
    """Render a computed/expected value as a stable string.

    Rationals print as 'p/q' and integers in full, at any length; floats
    with 12 significant digits; tuples and lists recurse.
    """
    if isinstance(value, Fraction):
        return _exact_str(value)
    if isinstance(value, bool):  # ahead of int: a bool is an int
        return "true" if value else "false"
    if isinstance(value, int):
        return _int_str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(render_value(v) for v in value) + ")"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(render_value(v) for v in value)) + "}"
    return str(value)


@dataclass(frozen=True)
class Claim:
    description: str
    expected: str
    computed: str
    passed: bool


@dataclass
class ReproductionReport:
    """A named scenario and the list of checked claims."""

    name: str
    claims: list[Claim] = field(default_factory=list)

    def check(self, description: str, expected: Any, computed: Any) -> bool:
        """Record a claim that passes iff expected == computed exactly."""
        ok = expected == computed
        self.claims.append(
            Claim(description, render_value(expected), render_value(computed), ok)
        )
        return ok

    def check_close(
        self, description: str, expected: float, computed: float, tol: float
    ) -> bool:
        """Record a claim with an explicit floating tolerance."""
        ok = abs(expected - computed) <= tol
        self.claims.append(
            Claim(
                description,
                f"{render_value(expected)} (tol {tol:g})",
                render_value(computed),
                ok,
            )
        )
        return ok

    def check_that(self, description: str, condition: bool, computed: Any) -> bool:
        self.claims.append(
            Claim(description, "true", render_value(computed), bool(condition))
        )
        return bool(condition)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "claims": [
                {
                    "description": c.description,
                    "expected": c.expected,
                    "computed": c.computed,
                    "pass": c.passed,
                }
                for c in self.claims
            ],
        }
