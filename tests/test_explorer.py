from __future__ import annotations

import pytest

from topolab.errors import BudgetExceeded, UnknownQuestion
from topolab.explorer import QUESTION_IDS, QuestionProbe, question_search


def test_registry_covers_every_question():
    assert len(QUESTION_IDS) == 14
    for qid in QUESTION_IDS:
        probe = question_search(qid, 2, 2)
        assert probe.id == qid
        assert probe.bounds == (2, 2)
        assert probe.status in ("completed", "out_of_scope")


def test_out_of_scope_questions_carry_reasons():
    for qid in ("q2", "q4", "q5", "q11"):
        probe = question_search(qid)
        assert probe.status == "out_of_scope"
        assert probe.result == ()
        assert probe.out_of_scope_reason


def test_unknown_question_rejected():
    with pytest.raises(UnknownQuestion):
        question_search("q13")


def test_bounds_guard():
    with pytest.raises(BudgetExceeded, match=r"bounds \(4,2\) exceed \(3,2\)"):
        question_search("q3.1", 4, 2)
    # out-of-scope ids answer before the bound check, unknown ones fail first
    assert question_search("q2", 4, 3).status == "out_of_scope"
    with pytest.raises(UnknownQuestion):
        question_search("q13", 4, 3)


def test_equality_probe_with_encoded_collapse():
    probe = question_search("q3.1", 3, 2)
    (row,) = probe.result
    assert row.claim == "q3.1:co=coZ"
    assert row.status == "holds"
    assert row.witnesses == ()
    assert row.instance_count == 170
    assert probe.explanation.startswith("provably no finite witness")


def test_equality_probes_without_encoded_collapse():
    for qid, claim in (("q3.2", "q3.2:isbell=t1z"), ("q3.3", "q3.3:sisbell=t1sz")):
        probe = question_search(qid, 2, 2)
        (row,) = probe.result
        assert row.claim == claim
        assert row.status == "holds"
        assert probe.explanation == "no witness at these bounds"


def test_upper_vs_compact_open_probe():
    probe = question_search("q12", 3, 2)
    (row,) = probe.result
    assert row.claim == "q12:t1z=coZ"
    assert row.status == "holds"
    assert probe.explanation.startswith("provably no finite witness")


def test_fixed_codomain_probe():
    probe = question_search("q10", 2, 2)
    assert [r.claim for r in probe.result] == [
        "q10:co=coZ z=discrete2",
        "q10:isbell=t1z z=discrete2",
        "q10:sisbell=t1sz z=discrete2",
    ]
    assert all(r.status == "holds" for r in probe.result)
    assert probe.explanation.startswith("provably no finite witness")


def test_regularity_probe_table():
    probe = question_search("q1", 3, 2)
    # three of the five codomains within the bound are regular
    assert len(probe.result) == 102
    assert all(r.status == "holds" for r in probe.result)
    assert all(r.claim.startswith("q1:regular t1z y=") for r in probe.result)


def test_composition_probe_tables():
    for qid, kind in (("q6", "t1sz"), ("q7", "t1z")):
        probe = question_search(qid, 2, 2)
        assert len(probe.result) == 125
        assert all(r.status == "holds" for r in probe.result)
        assert all(f"compose:{kind}" in r.claim for r in probe.result)
        hyp = sum(r.hypothesis_true_count for r in probe.result)
        assert 0 < hyp < len(probe.result)


def test_splitting_probe_tables():
    for qid, kind in (("q8", "t1z"), ("q9", "coZ")):
        probe = question_search(qid, 2, 2)
        assert len(probe.result) == 25
        assert all(r.status == "inconclusive" for r in probe.result)
        assert all(r.claim.startswith(f"splitting:{kind} y=") for r in probe.result)


def test_probe_json_deterministic():
    first = question_search("q10", 2, 2).to_json()
    second = question_search("q10", 2, 2).to_json()
    assert first == second
    assert '"status": "completed"' in first


def test_probe_dict_shape():
    d = question_search("q2").to_dict()
    assert d["status"] == "out_of_scope"
    assert d["result"] == []
    probe = QuestionProbe("q0", (1, 1), ())
    assert probe.status == "completed"
