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

_NO_DEFAULT = object()


class _VerdictField:
    """One of the six verdict fields of a report, read off its `_verdict`
    tuple by position. On the class it answers as a plain field would:
    its default, or AttributeError for `status`, which has none."""

    __slots__ = ("index", "default", "name")

    def __init__(self, index: int, default=_NO_DEFAULT) -> None:
        self.index, self.default = index, default

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is not None:
            return obj._verdict[self.index]
        if self.default is _NO_DEFAULT:
            raise AttributeError(f"type object {owner.__name__!r} has no attribute {self.name!r}")
        return self.default


class VerdictReport(Frozen):
    """Outcome of one check or one suite row: a claim and a verdict.

    The verdict is every field but the claim, kept as one private tuple,
    `_verdict`, and read field by field. `named` gives the same verdict
    under another claim, sharing the tuple, so a probe decides one verdict
    per pair of deciders and names it once per labeled pair.

    `expected` stays True for ordinary rows; a False marks a recorded
    divergence that is kept on purpose, so suite exit codes can skip it.
    """

    claim: str
    status: str = _VerdictField(0)
    hypothesis_true_count: int = _VerdictField(1, 0)
    instance_count: int = _VerdictField(2, 0)
    witnesses: tuple = _VerdictField(3, ())
    budget: tuple[tuple[str, object], ...] = _VerdictField(4, ())
    expected: bool = _VerdictField(5, True)

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
        verdict = (status, hypothesis_true_count, instance_count, witnesses, budget, expected)
        _set_field(self, "_verdict", verdict)

    def named(self, claim: str) -> "VerdictReport":
        """This verdict under another claim: two field writes, the tuple
        shared, and no status check, which the verdict passed when built."""
        report = object.__new__(self.__class__)
        _set_field(report, "claim", claim)
        _set_field(report, "_verdict", self._verdict)
        return report

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
        status, true_count, instance_count, witnesses, budget, expected = self._verdict
        return {
            "claim": self.claim,
            "status": status,
            "hypothesis_true_count": true_count,
            "instance_count": instance_count,
            "witnesses": _plain(witnesses),
            "budget": dict((k, _plain(v)) for k, v in budget),
            "expected": expected,
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
