from __future__ import annotations

import pytest

from conftest import clear_every_cache, spy_on_class_passes
from oracles import labeled_question_search
from topolab import checkers, explorer, fntop, mapspace
from topolab.checkers import SpaceAxis, composition_rows, over_classes, space_axes
from topolab.errors import BudgetExceeded, UnknownQuestion
from topolab.explorer import QUESTION_IDS, QuestionProbe, question_search
from topolab.finspace import bits, discrete, indiscrete, mask_of
from topolab.fntop import FnTopology, named_function_topology
from topolab.reports import pair_tag, suite_to_json


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


_BOUNDS = [(y, z) for y in (1, 2, 3) for z in (1, 2)] + [(4, 2), (3, 3)]


@pytest.mark.parametrize("bounds", _BOUNDS)
def test_class_probes_match_the_labeled_oracle(monkeypatch, bounds):
    # every id decided once per class pair (or triple) gives the bytes of
    # the same runner with every labeled space its own class, and no rerun
    # on the labeled pairs ran: one would hide a false class witness
    monkeypatch.setattr(checkers, "MAX_SUITE_Y", 4)
    monkeypatch.setattr(checkers, "MAX_SUITE_Z", 3)
    passes, reruns = spy_on_class_passes(monkeypatch)
    for qid in QUESTION_IDS:
        got = question_search(qid, *bounds).to_json()
        assert got == labeled_question_search(qid, *bounds).to_json(), qid
    assert passes == [bounds] * len(explorer._RUNNERS) and reruns == []


# the ids whose rows read only what a T0 quotient keeps: q1 reads Z's
# `regular`, which holds when the distinct minimal opens partition the
# ground; q8 and q9 count C(Y,Z), which a quotient shrinks
_T0_IDS = ("q1", "q3.1", "q3.2", "q3.3", "q6", "q7", "q10", "q12")


def test_t0_probes_match_the_class_pass(suite_caps):
    # each id's runner through `over_classes` on the T0 forms of the axes
    # gives the bytes of the class pass, at (3,2) and with the caps raised
    # at (4,2) and (3,3); q8 and q9 do not, so the probes stay on the
    # class axes
    suite_caps(4, 3)
    for bounds in ((3, 2), (4, 2), (3, 3)):
        ys, zs = space_axes(*bounds)
        for qid, (run, _) in explorer._RUNNERS.items():
            got = suite_to_json(over_classes(run, ys.t0, zs.t0))
            same = got == suite_to_json(over_classes(run, ys, zs))
            assert same == (qid in _T0_IDS), (qid, bounds)


def _is_sierpinski(z):
    return z.size == 2 and len(z.opens) == 3


def _up_order_into_indiscrete2(name, y, z):
    # on C(Y, indiscrete(2)), every map of Y into two points, the topology
    # whose subbasics are {f : f = 1 on U} for the minimal opens U of Y:
    # relabeling Y keeps it, it is never regular (constant 1 is isolated,
    # and constant 0 has only the whole space around it), and its opens
    # follow the labels of Y
    t = named_function_topology(name, y, z)
    if z != indiscrete(2):
        return t
    tables = t.maps.tables
    subbasis = [
        mask_of(i for i, tb in enumerate(tables) if all(tb[p] for p in bits(u)))
        for u in y.min_opens
    ]
    return FnTopology.of(t.maps, subbasis, name)


def _discrete_into_sierpinski(kinds):
    # the discrete topology on C(Y, S), S Sierpinski space in either
    # labeling, for the given kinds: relabeling keeps it, and it is finer
    # than the pointwise topology, so neither equal to co nor splitting
    def build(name, y, z):
        t = named_function_topology(name, y, z)
        if name in kinds and _is_sierpinski(z):
            return FnTopology.of(t.maps, [1 << i for i in range(len(t.maps))], name)
        return t

    return build


_INJECTED = {
    "q1": _up_order_into_indiscrete2,
    "q3.1": _discrete_into_sierpinski(("coZ",)),
    "q8": _discrete_into_sierpinski(("t1z",)),
}


@pytest.mark.parametrize("qid", sorted(_INJECTED))
def test_a_class_witness_sends_the_probe_to_the_labeled_pairs(monkeypatch, qid):
    # no bound has a probe witness, so inject one that relabeling keeps.
    # The class pass then has witnesses read off class representatives,
    # and the probe gives the labeled oracle's bytes, its witnesses named
    # by labeled pairs in labeled order
    monkeypatch.setattr(explorer, "named_function_topology", _INJECTED[qid])
    got = question_search(qid, 3, 2)
    assert got.to_json() == labeled_question_search(qid, 3, 2).to_json()
    ys, zs = (axis.spaces for axis in space_axes(3, 2))
    if qid == "q1":
        failed = [r.claim for r in got.result if r.witnesses]
        want = [f"q1:regular t1z {pair_tag(y, indiscrete(2))}" for y in ys]
    elif qid == "q3.1":
        (row,) = got.result
        failed = [w[0] for w in row.witnesses]
        want = [pair_tag(y, z) for y in ys for z in zs if _is_sierpinski(z)]
    else:
        failed = [r.claim for r in got.result if r.witnesses]
        want = [f"splitting:t1z {pair_tag(y, z)}" for y in ys for z in zs if _is_sierpinski(z)]
    assert failed == want and len(want) == 34 * (1 if qid == "q1" else 2)
    # the class pass read its witnesses off the representatives
    run, _ = explorer._RUNNERS[qid]
    by_class = run(*space_axes(3, 2))
    assert [r.to_json() for r in by_class] != [r.to_json() for r in got.result]


def _indiscrete_into_discrete2(name, y, z):
    # the indiscrete topology on C(Y, discrete(2)) for t1z: relabeling
    # keeps it, and the two constant maps tell it from the discrete
    # pointwise topology there, so q10's isbell=t1z leg alone fails
    t = named_function_topology(name, y, z)
    if name == "t1z" and z == discrete(2):
        return FnTopology.of(t.maps, (), name)
    return t


def test_a_failing_row_leaves_the_explanation_empty(monkeypatch):
    # the explanation is the runner's clean one only when every row holds:
    # one failing row of q3.1, or one failing leg of q10's three, empties it
    assert question_search("q10", 3, 2).explanation.startswith("provably no finite witness")
    with monkeypatch.context() as m:
        m.setattr(explorer, "named_function_topology", _INJECTED["q3.1"])
        probe = question_search("q3.1", 3, 2)
        assert [r.status for r in probe.result] == ["fails"]
        assert probe.explanation == ""
    monkeypatch.setattr(explorer, "named_function_topology", _indiscrete_into_discrete2)
    probe = question_search("q10", 3, 2)
    assert [r.status for r in probe.result] == ["holds", "fails", "holds"]
    assert probe.explanation == ""


def _indiscrete_middle(name, y, z):
    # C(S, S') indiscrete, S and S' Sierpinski space in either labeling
    t = named_function_topology(name, y, z)
    if _is_sierpinski(y) and _is_sierpinski(z):
        return FnTopology.of(t.maps, (), name)
    return t


def test_a_class_escape_sends_the_composition_to_the_labeled_triples(monkeypatch):
    # an escape is the composition probe's witness: it raises for the first
    # failing labeled triple, with that triple's own maps, as the labeled
    # oracle does
    monkeypatch.setattr(checkers, "named_function_topology", _indiscrete_middle)
    with pytest.raises(AssertionError) as labeled:
        labeled_question_search("q6", 3, 2)
    with pytest.raises(AssertionError) as by_class:
        question_search("q6", 3, 2)
    assert str(by_class.value) == str(labeled.value) == (
        "compose:t1sz,t1sz,t1sz x=0,1 y=0,1,3 z=0,1,3: "
        "C(Y,Z) contains the pointwise topology fails at maps (0, 1)"
    )
    # deciders that are the last labeled member of each class, not the
    # first: the class tables escape on other maps, and the rows are
    # rebuilt on the labeled spaces before anything is raised
    def last_members(axis):
        last = dict(zip(axis.index, axis.spaces))
        return SpaceAxis(axis.spaces, [last[k] for k in range(len(axis.reps))], axis.index)

    ys, zs = (last_members(a) for a in space_axes(3, 2))
    kinds = ("t1sz", "t1sz", "t1sz")
    with pytest.raises(AssertionError) as moved:
        composition_rows(ys.upto(2), ys, zs, kinds)
    assert str(moved.value) == str(labeled.value)


def test_a_cold_probe_pass_builds_once_per_class_pair(monkeypatch):
    # at (3,2): 13 Y classes and 4 Z classes make 52 class pairs, and the
    # composition probes add C(X,Y) for the 4 classes of X on at most 2
    # points, 36 map sets more. Deciding on the 170 labeled pairs built
    # 315 map sets, 1,310 named topologies and 170 relative profiles, and
    # ran 340 splitting searches
    clear_every_cache()
    searches = []
    real = explorer.refute_splitting

    def counted(t, max_x=3, symmetry_reduction=True):
        searches.append(t)
        return real(t, max_x, symmetry_reduction)

    monkeypatch.setattr(explorer, "refute_splitting", counted)
    for qid in QUESTION_IDS:
        question_search(qid, 3, 2)
    assert mapspace.enumerate_continuous.cache_info().misses == 88
    assert fntop.named_function_topology.cache_info().misses == 384
    assert mapspace.relative_profile.cache_info().misses == 52
    assert len(searches) == 104
