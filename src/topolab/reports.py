"""Uniform verdict records for checks and suites.

A report is a frozen value object; suites emit lists of them and the CLI
serializes them. JSON output is deterministic (sorted keys, no whitespace
drift) so identical runs are byte-identical.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from .finspace import Frozen, _set_field

STATUSES = ("holds", "fails", "inconclusive")


class VerdictReport(Frozen):
    """Outcome of one check or one suite row.

    `expected` stays True for ordinary rows; a False marks a recorded
    divergence that is kept on purpose, so suite exit codes can skip it.
    """

    claim: str
    status: str
    hypothesis_true_count: int = 0
    instance_count: int = 0
    witnesses: tuple = ()
    budget: tuple[tuple[str, object], ...] = ()
    expected: bool = True

    def __init__(
        self,
        claim,
        status,
        hypothesis_true_count=0,
        instance_count=0,
        witnesses=(),
        budget=(),
        expected=True,
    ) -> None:
        if status not in STATUSES:
            raise ValueError(f"status {status!r} not in {STATUSES}")
        if status == "fails" and not witnesses:
            raise ValueError("a failing report needs at least one witness")
        _set_field(self, "claim", claim)
        _set_field(self, "status", status)
        _set_field(self, "hypothesis_true_count", hypothesis_true_count)
        _set_field(self, "instance_count", instance_count)
        _set_field(self, "witnesses", witnesses)
        _set_field(self, "budget", budget)
        _set_field(self, "expected", expected)

    @classmethod
    def of(
        cls,
        claim: str,
        witnesses: Iterable,
        hypothesis_true_count: int,
        instance_count: int,
        budget: tuple[tuple[str, object], ...] = (),
        clean: str = "holds",
        expected: bool = True,
    ) -> "VerdictReport":
        """The report of a check: "fails" exactly when it found witnesses,
        else `clean`, which is "inconclusive" for bounded searches."""
        witnesses = tuple(witnesses)
        return cls(
            claim,
            "fails" if witnesses else clean,
            hypothesis_true_count,
            instance_count,
            witnesses,
            budget,
            expected,
        )

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "status": self.status,
            "hypothesis_true_count": self.hypothesis_true_count,
            "instance_count": self.instance_count,
            "witnesses": _plain(self.witnesses),
            "budget": dict((k, _plain(v)) for k, v in self.budget),
            "expected": self.expected,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def suite_to_json(reports: list[VerdictReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True)


def fam_tag(x) -> str:
    """Claim fragment naming a space by its open family, `FinSpace.tag`."""
    return x.tag


def pair_tag(y, z) -> str:
    """Claim fragment naming a pair; enough to replay the instance."""
    return f"y={fam_tag(y)} z={fam_tag(z)}"


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, (list, dict, str, int, float, bool)) or value is None:
        return value
    return str(value)
