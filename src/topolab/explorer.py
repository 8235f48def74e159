"""Open-question probes over the bounded enumeration.

Each runnable question scans topology pairs within the given bounds and
returns reports with enough provenance in the claim to replay any single
instance. Questions whose subject matter has no finite counterpart are
registered out of scope with a one-line reason, so the registry still lists
every question.

Every probe verdict, count and budget is invariant under relabeling Y or
Z; only a claim's pair tag and a witness name labeled spaces. So each
runner takes its two sides as `checkers.SpaceAxis`es, decides one
`checkers.class_table` entry per pair of class representatives (a
comparison, a `t1z` topology, a splitting search; q6 and q7 leave theirs
to `composition_rows`), and returns one row per labeled pair, in the
labeled order, by indexing that table with the two class positions.
`question_search` runs it through `checkers.over_classes` on the class
axes of `checkers.space_axes`, the pass the theorem suite makes on their
T0 forms: when a row has a witness, the runner runs again with every
labeled space deciding for itself, so the witnesses and their order are
the labeled ones. The probes keep the class axes. q1 reads Z's
separation profile, which a T0 quotient does not keep for a Z that is not
T0, so a probe moves to T0 deciders only with its own invariance proof.

A probe's explanation distinguishes two kinds of clean outcome. Plain
searches that find nothing say "no witness at these bounds". Where the
collapse argument is actually encoded next to the probe, the explanation
says "provably no finite witness" and spells the argument out; raising the
bounds cannot change those outcomes. Each runner is registered with its
explanation, which a probe reports only when every row holds; a row
that does not hold leaves it empty.
"""

from __future__ import annotations

import json
from functools import partial

from .checkers import (
    SpaceAxis,
    class_table,
    composition_rows,
    over_classes,
    refute_splitting,
    space_axes,
)
from .errors import UnknownQuestion
from .finspace import Frozen, discrete, separation_profile
from .fntop import compare_topologies, named_function_topology
from .reports import VerdictReport, pair_tag

MAX_COMPOSE_X = 2

_NO_WITNESS = "no witness at these bounds"

_COLLAPSE_Q31 = (
    "provably no finite witness: every subset of a finite ground is compact, "
    "in the carried topology and in the codomain-induced one alike, so both "
    "constructions range over the same restricting sets and emit the same "
    "subbasis"
)

_COLLAPSE_Q12 = (
    "provably no finite witness: a qualifying open family contains a set "
    "exactly when it contains some preimage member below it, so each family "
    "subbasic is the union of the containment subbasics of its members; each "
    "containment subbasic is in turn the up-family of its restricting set, "
    "which itself qualifies on a finite ground, so the two subbases generate "
    "the same topology"
)

_COLLAPSE_Q10 = (
    "provably no finite witness: a two-point discrete codomain keeps the "
    "ground finite, so every subset stays compact both ways and each "
    "comparison leg collapses by the q3.1 and q12 arguments"
)


class QuestionProbe(Frozen):
    """Outcome of one registered question at fixed bounds."""

    id: str
    bounds: tuple[int, int]
    result: tuple[VerdictReport, ...]
    explanation: str = ""
    out_of_scope_reason: str = ""

    @property
    def status(self) -> str:
        return "out_of_scope" if self.out_of_scope_reason else "completed"

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "bounds": list(self.bounds),
            "status": self.status,
            "explanation": self.explanation,
            "out_of_scope_reason": self.out_of_scope_reason,
            "result": [r.to_dict() for r in self.result],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _labeled_pairs(ys: SpaceAxis, zs: SpaceAxis, table):
    """Each labeled pair (y, z), y-major, with its deciders' table entry."""
    for y, i in zip(ys.spaces, ys.index):
        row = table[i]
        for z, j in zip(zs.spaces, zs.index):
            yield y, z, row[j]


def _q1(ys, zs):
    # one row per pair with a regular codomain: is the function space under
    # the upper-family topology regular as well?
    def decide(y, z):
        if separation_profile(z).regular:
            return named_function_topology("t1z", y, z)
        return None

    rows = []
    for y, z, t in _labeled_pairs(ys, zs, class_table(ys, zs, decide)):
        if t is None:
            continue
        claim = f"q1:regular t1z {pair_tag(y, z)}"
        ok = t.profile.regular
        witnesses = [] if ok else [("function_space_opens", t.opens.members)]
        rows.append(VerdictReport.of(claim, witnesses, 1, 1))
    return rows


def _equality_row(
    qid: str, lo: str, hi: str, ys, zs, suffix: str = ""
) -> VerdictReport:
    def decide(y, z):
        return compare_topologies(
            named_function_topology(lo, y, z), named_function_topology(hi, y, z)
        )

    witnesses = [
        (pair_tag(y, z), cmp.verdict, cmp.a_only, cmp.b_only)
        for y, z, cmp in _labeled_pairs(ys, zs, class_table(ys, zs, decide))
        if cmp.verdict != "equal"
    ]
    count = len(ys.spaces) * len(zs.spaces)
    return VerdictReport.of(f"{qid}:{lo}={hi}{suffix}", witnesses, count, count)


def _equality(qid: str, lo: str, hi: str, ys, zs):
    return [_equality_row(qid, lo, hi, ys, zs)]


def _composition(kind: str, ys, zs):
    # the first factor stays at two points, which give every specialization
    # shape; the frozen q6/q7 expectations fix MAX_COMPOSE_X
    return composition_rows(ys.upto(MAX_COMPOSE_X), ys, zs, (kind, kind, kind))


def _splitting(kind: str, ys, zs):
    def decide(y, z):
        t = named_function_topology(kind, y, z)
        return f"splitting:{t.provenance}", refute_splitting(t, max_x=2)

    rows = []
    for y, z, (head, r) in _labeled_pairs(ys, zs, class_table(ys, zs, decide)):
        claim = f"{head} {pair_tag(y, z)}"
        fields = (r.status, r.hypothesis_true_count, r.instance_count, r.witnesses, r.budget)
        rows.append(VerdictReport(claim, *fields))
    return rows


def _q10(ys, zs):
    del zs  # the codomain is pinned by the question itself
    z2 = SpaceAxis.own([discrete(2)])
    return [
        _equality_row("q10", lo, hi, ys, z2, suffix=" z=discrete2")
        for lo, hi in (("co", "coZ"), ("isbell", "t1z"), ("sisbell", "t1sz"))
    ]


_OUT_OF_SCOPE = {
    "q2": "complete regularity needs real-valued separating functions",
    "q4": "needs the countable power of the reals",
    "q5": "needs the countable power of the naturals",
    "q11": "needs an infinite convergent sequence",
}

# each runnable id's runner, run(ys, zs) -> rows, and its clean explanation
_RUNNERS = {
    "q1": (_q1, ""),
    "q3.1": (partial(_equality, "q3.1", "co", "coZ"), _COLLAPSE_Q31),
    "q3.2": (partial(_equality, "q3.2", "isbell", "t1z"), _NO_WITNESS),
    "q3.3": (partial(_equality, "q3.3", "sisbell", "t1sz"), _NO_WITNESS),
    "q6": (partial(_composition, "t1sz"), ""),
    "q7": (partial(_composition, "t1z"), ""),
    "q8": (partial(_splitting, "t1z"), ""),
    "q9": (partial(_splitting, "coZ"), ""),
    "q10": (_q10, _COLLAPSE_Q10),
    "q12": (partial(_equality, "q12", "t1z", "coZ"), _COLLAPSE_Q12),
}

QUESTION_IDS = (
    "q1", "q2", "q3.1", "q3.2", "q3.3", "q4", "q5",
    "q6", "q7", "q8", "q9", "q10", "q11", "q12",
)


def question_search(qid: str, max_y: int = 3, max_z: int = 2) -> QuestionProbe:
    """Run the registered probe for one question id at the given bounds."""
    if qid in _OUT_OF_SCOPE:
        return QuestionProbe(
            id=qid,
            bounds=(max_y, max_z),
            result=(),
            out_of_scope_reason=_OUT_OF_SCOPE[qid],
        )
    if qid not in _RUNNERS:
        raise UnknownQuestion(f"{qid!r} is not registered; known ids: {QUESTION_IDS}")
    run, clean = _RUNNERS[qid]
    rows = over_classes(run, *space_axes(max_y, max_z))
    explanation = clean if all(row.status == "holds" for row in rows) else ""
    return QuestionProbe(
        id=qid, bounds=(max_y, max_z), result=tuple(rows), explanation=explanation
    )
