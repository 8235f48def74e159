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


def test_named_keeps_the_verdict_under_another_claim():
    rep = VerdictReport("c", "fails", 2, 5, (("w",),), (("pairs", 5),), False)
    twin = rep.named("d")
    assert twin.claim == "d" and rep.claim == "c"
    assert twin == VerdictReport("d", "fails", 2, 5, (("w",),), (("pairs", 5),), False)
    assert hash(twin) == hash(("d", "fails", 2, 5, (("w",),), (("pairs", 5),), False))
    assert twin.to_json() == rep.to_json().replace('"claim": "c"', '"claim": "d"')
    assert twin._verdict is rep._verdict
    for name in ("claim", "status", "witnesses"):
        with pytest.raises(AttributeError, match=name):
            setattr(twin, name, None)
        with pytest.raises(AttributeError, match=name):
            delattr(twin, name)
    assert rep.named("c") == rep


@pytest.mark.parametrize("qid, rows", [("q1", 102), ("q6", 850), ("q8", 170)])
def test_labeled_rows_share_their_deciders_verdicts(qid, rows):
    # at (3,2) the 13 Y classes and 4 Z classes make 52 class pairs: each
    # labeled row names the verdict of its pair of deciders
    result = question_search(qid, 3, 2).result
    assert len(result) == rows
    assert len({id(r._verdict) for r in result}) <= 52
