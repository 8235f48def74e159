from __future__ import annotations

import pytest

from topolab.checkers import theorem_suite
from topolab.explorer import QUESTION_IDS, question_search
from topolab.reports import VerdictReport


@pytest.mark.parametrize("clean", ["holds", "inconclusive"])
def test_of_status_follows_the_witnesses(clean):
    assert VerdictReport.of("c", [("w",)], 1, 1, clean=clean).status == "fails"
    assert VerdictReport.of("c", [(), ()], 1, 1, clean=clean).status == "fails"
    assert VerdictReport.of("c", [], 1, 1, clean=clean).status == clean
    assert VerdictReport.of("c", (), 1, 1, clean=clean).status == clean


def test_of_stores_a_generator_of_witnesses_as_a_tuple():
    rep = VerdictReport.of("c", ((i, "open") for i in range(3)), 3, 4)
    assert rep.witnesses == ((0, "open"), (1, "open"), (2, "open"))
    assert isinstance(rep.witnesses, tuple)
    empty = VerdictReport.of("c", (w for w in ()), 0, 4)
    assert (empty.status, empty.witnesses) == ("holds", ())


def test_of_passes_every_other_field_through():
    rep = VerdictReport.of(
        "claim", [("w",)], 2, 5, budget=(("pairs", 5),), expected=False
    )
    assert rep == VerdictReport(
        "claim", "fails", 2, 5, (("w",),), (("pairs", 5),), expected=False
    )
    assert VerdictReport.of("claim", [], 2, 5) == VerdictReport("claim", "holds", 2, 5)


def test_of_keeps_the_status_checks():
    with pytest.raises(ValueError, match="not in"):
        VerdictReport.of("c", [], 1, 1, clean="maybe")
    with pytest.raises(ValueError, match="witness"):
        VerdictReport.of("c", [], 1, 1, clean="fails")


def test_every_row_fails_exactly_when_it_has_witnesses():
    rows = list(theorem_suite(3, 2))
    for qid in QUESTION_IDS:
        rows.extend(question_search(qid, 3, 2).result)
    assert len(rows) > 1000
    for r in rows:
        assert (r.status == "fails") == bool(r.witnesses), r.claim
    # both clean outcomes and the expected failures occur
    assert {r.status for r in rows} == {"holds", "fails", "inconclusive"}
