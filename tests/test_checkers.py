from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import all_spaces_up_to, clear_every_cache
from oracles import (
    literal_characteristic_homeomorphism,
    literal_composition_check,
    literal_refute_splitting,
    searched_refute_splitting,
)
from topolab import checkers, fntop
from topolab.checkers import (
    MAX_SPLITTING_INSTANCES,
    MAX_SPLITTING_X,
    composition_check,
    is_admissible,
    refute_splitting,
    splitting_verdict,
    theorem_suite,
)
from topolab.duality import is_admissible_on_ozy, tau_of_t
from topolab.errors import BudgetExceeded, GroundTooLarge
from topolab.explorer import QUESTION_IDS, question_search
from topolab.finspace import (
    bits,
    discrete,
    enumerate_topologies,
    indiscrete,
    is_open_in_product,
    make_space,
    product,
    sierpinski,
)
from topolab import mapspace
from topolab.fntop import (
    NAMED,
    FnTopology,
    compare_topologies,
    evaluation_witness,
    kset_topology,
    lift_open_family,
    named_function_topology,
)
from topolab.hypertop import HyperSpace, scott, strong_z_scott, z_scott
from topolab.mapspace import ContMap, continuous_slice_count, enumerate_continuous
from topolab.reports import VerdictReport, pair_tag, suite_to_json


def fn_indiscrete(maps):
    return FnTopology.of(maps, ())


def fn_discrete(maps):
    return FnTopology.of(maps, [1 << i for i in range(len(maps))])


@pytest.fixture(scope="module")
def suite22():
    return theorem_suite(2, 2, refinement_samples=10, seed=1)


def test_admissible_compact_open_pinned(s):
    rep = is_admissible(named_function_topology("co", s, s))
    assert rep.status == "holds"
    assert rep.claim == "admissible:co y=0,2,3 z=0,2,3"
    assert rep.witnesses == ()


def test_admissible_indiscrete_witness_replays(s):
    maps = enumerate_continuous(s, s)
    t = fn_indiscrete(maps)
    rep = is_admissible(t)
    assert rep.status == "fails"
    ((tag, w, tag2, pre),) = rep.witnesses
    assert (tag, w, tag2) == ("open", 0b10, "product_preimage")
    assert pre == 0b111000  # rows of const0, id, const1 in slots 0-1, 2-3, 4-5
    # the mask is the literal evaluation preimage and it is not product-open
    lit = 0
    for i, f in enumerate(maps):
        for q in range(s.size):
            if (w >> f(q)) & 1:
                lit |= 1 << (i * s.size + q)
    assert lit == pre
    assert not product(t.as_space(), s).is_open(pre)
    # the replay off minimal opens agrees with the built product here
    sq = product(t.as_space(), s)
    assert all(is_open_in_product(t, s, m) == sq.is_open(m) for m in range(1 << 6))


def test_admissible_into_indiscrete_always(chain2, indisc2):
    # indiscrete codomain: evaluation preimages are empty or everything
    maps = enumerate_continuous(chain2, indisc2)
    assert len(maps) == 4
    assert is_admissible(fn_discrete(maps)).status == "holds"


def test_admissible_decides_past_product_ground_32():
    # 81 and 64 product points, more than product() builds; the check
    # builds no product, only the evaluation preimage of the witness, and
    # is_open_in_product replays it off the minimal opens: for the
    # indiscrete topology, and for every map isolated but the first, whose
    # opens are too many to list
    for y, z in ((discrete(3), discrete(3)), (discrete(4), discrete(2))):
        maps = enumerate_continuous(y, z)
        ground = len(maps) * y.size
        assert ground in (81, 64)
        rep = is_admissible(named_function_topology("co", y, z))
        assert rep.status == "holds"
        assert rep.budget == (("product_points", ground),)
        wide = FnTopology.of(maps, [1 << i for i in range(1, len(maps))])
        for t in (fn_indiscrete(maps), wide):
            rep = is_admissible(t)
            assert rep.status == "fails"
            ((tag, w, tag2, pre),) = rep.witnesses
            assert (tag, tag2) == ("open", "product_preimage")
            assert pre == sum(
                1 << (i * y.size + q)
                for i, f in enumerate(maps)
                for q in range(y.size)
                if (w >> f(q)) & 1
            )
            assert not is_open_in_product(t, y, pre)
        with pytest.raises(GroundTooLarge):
            product(fn_indiscrete(maps).as_space(), y)
        with pytest.raises(BudgetExceeded):
            wide.as_space()


def test_refute_splitting_discrete_pinned(s):
    maps = enumerate_continuous(s, s)
    rep = refute_splitting(fn_discrete(maps), max_x=2, symmetry_reduction=False)
    assert rep.status == "fails"
    assert ((0, 2, 3), (0, 0, 0, 1)) in rep.witnesses
    # replay: logical-and is continuous on S x S, its transpose into the
    # discrete topology sends 0 to const0, and {const0} pulls back to the
    # closed point
    x = make_space(2, [0, 2, 3])
    f = ContMap(product(x, s), s, (0, 0, 0, 1))
    assert f.is_continuous()
    transpose = ContMap(
        x, fn_discrete(maps).as_space(), (maps.index[(0, 0)], maps.index[(0, 1)])
    )
    assert not transpose.is_continuous()


def test_refute_splitting_compact_open_inconclusive(s):
    rep = refute_splitting(named_function_topology("co", s, s), max_x=3)
    assert rep.status == "inconclusive"
    assert rep.witnesses == ()
    assert 0 < rep.hypothesis_true_count < rep.instance_count
    assert dict(rep.budget)["max_x"] == 3


def test_refute_splitting_indiscrete_inconclusive(s):
    # coarsest topology: every transpose is continuous
    maps = enumerate_continuous(s, s)
    rep = refute_splitting(fn_indiscrete(maps), max_x=3)
    assert rep.status == "inconclusive"


def test_refute_splitting_budget_guard(s):
    with pytest.raises(BudgetExceeded):
        refute_splitting(named_function_topology("co", s, s), max_x=5)


def test_refute_splitting_symmetry_flag(s):
    maps = enumerate_continuous(s, s)
    reduced = refute_splitting(fn_discrete(maps), max_x=2)
    full = refute_splitting(fn_discrete(maps), max_x=2, symmetry_reduction=False)
    assert reduced.status == full.status == "fails"
    assert reduced.instance_count < full.instance_count


def test_refute_splitting_matches_literal_oracle():
    # every named topology at (3,2), where no slice assignment refutes
    ys, zs = all_spaces_up_to(3), all_spaces_up_to(2)
    tops = [named_function_topology(k, y, z) for y in ys for z in zs for k in NAMED]
    assert len(tops) == 1020
    for t in tops:
        for sym in (True, False):
            assert refute_splitting(t, 2, sym).to_dict() == literal_refute_splitting(
                t, 2, sym
            ).to_dict()
    # the discrete topology, and a random one, on one map set of each size:
    # witness-heavy, so the order of the witnesses is checked too
    by_size = {}
    for y in ys:
        for z in zs:
            by_size.setdefault(len(enumerate_continuous(y, z)), (y, z))
    assert sorted(by_size) == [1, 2, 3, 4, 5, 6, 8]
    rng = random.Random(0)
    witnesses = 0
    for y, z in by_size.values():
        maps = enumerate_continuous(y, z)
        picked = FnTopology.of(maps, [rng.randrange(1 << len(maps)) for _ in range(3)])
        for t in (fn_discrete(maps), picked):
            for sym in (True, False):
                fast = refute_splitting(t, 3, sym).to_dict()
                assert fast == literal_refute_splitting(t, 3, sym).to_dict()
                witnesses += len(fast["witnesses"])
    assert witnesses > 1000
    # four-point test spaces, on a two-map set
    maps = enumerate_continuous(make_space(1, [0, 1]), sierpinski())
    for sym in (True, False):
        fast = refute_splitting(fn_discrete(maps), MAX_SPLITTING_X, sym)
        assert fast.to_dict() == literal_refute_splitting(
            fn_discrete(maps), MAX_SPLITTING_X, sym
        ).to_dict()
        assert fast.instance_count == sum(
            len(enumerate_topologies(n, up_to_iso=sym)) * 2**n
            for n in range(1, MAX_SPLITTING_X + 1)
        )


def test_refute_splitting_instance_budget(monkeypatch):
    # largest split3 instance set: the 8 maps of discrete(3) -> discrete(2)
    big = named_function_topology("co", discrete(3), discrete(2))
    assert refute_splitting(big, max_x=3).instance_count == 4808
    # 16 maps on a 4-point domain, and the 256 maps of discrete(4) ->
    # indiscrete(4) at max_x=2, stay admitted
    sixteen = named_function_topology("co", discrete(4), sierpinski())
    assert refute_splitting(sixteen, max_x=3).instance_count == 37_648
    wide = named_function_topology("co", discrete(4), indiscrete(4))
    assert len(wide.maps) == 256
    assert refute_splitting(wide, max_x=2).instance_count == 196_864
    assert 196_864 < MAX_SPLITTING_INSTANCES
    # at max_x=3 the closed-form count rejects it before any X is enumerated
    def no_test_spaces(*args, **kwargs):
        raise AssertionError("test spaces enumerated past the budget")

    monkeypatch.setattr(checkers, "enumerate_topologies", no_test_spaces)
    monkeypatch.setattr(mapspace, "enumerate_topologies", no_test_spaces)
    with pytest.raises(BudgetExceeded, match="151"):
        refute_splitting(wide, max_x=3)
    with pytest.raises(BudgetExceeded, match="151"):
        continuous_slice_count(wide.maps.pointwise, 3, True)


@pytest.mark.parametrize("max_x", [0, -1, -2])
def test_refute_splitting_rejects_empty_test_spaces(s, max_x):
    # no test space has fewer than one point: a bound below 1 is refused,
    # not answered with a vacuous 0/0 report
    t = named_function_topology("co", s, s)
    with pytest.raises(ValueError, match="max_x"):
        refute_splitting(t, max_x=max_x)
    with pytest.raises(ValueError, match="max_x"):
        continuous_slice_count(t.maps.pointwise, max_x, True)


def _tops32():
    return [
        named_function_topology(k, y, z)
        for y in all_spaces_up_to(3)
        for z in all_spaces_up_to(2)
        for k in NAMED
    ]


def test_refute_splitting_matches_searched_oracle():
    # every named topology at (3,2) lies below the pointwise topology, so
    # each report comes from the containment route; the search on every
    # call must give the same bytes
    tops = _tops32()
    assert len(tops) == 1020
    for t in tops:
        for sym in (True, False):
            assert refute_splitting(t, 3, sym) == searched_refute_splitting(t, 3, sym)


def test_continuous_slice_count_matches_the_search():
    # one map set of each size, each with a discrete and a random topology,
    # which take the search route
    by_size = {}
    for y in all_spaces_up_to(3):
        for z in all_spaces_up_to(2):
            by_size.setdefault(len(enumerate_continuous(y, z)), (y, z))
    assert sorted(by_size) == [1, 2, 3, 4, 5, 6, 8]
    rng = random.Random(3)
    for y, z in by_size.values():
        maps = enumerate_continuous(y, z)
        pointwise = maps.pointwise
        picked = FnTopology.of(maps, [rng.randrange(1 << len(maps)) for _ in range(2)])
        for t in (fn_discrete(maps), picked):
            for sym in (True, False):
                searched = searched_refute_splitting(t, 3, sym).hypothesis_true_count
                assert continuous_slice_count(pointwise, 3, sym) == searched
        # the answer does not depend on which call filled the cache first
        continuous_slice_count.cache_clear()
        labeled_first = [continuous_slice_count(pointwise, 3, sym) for sym in (False, True)]
        continuous_slice_count.cache_clear()
        class_first = [continuous_slice_count(pointwise, 3, sym) for sym in (True, False)]
        assert labeled_first == class_first[::-1]


def test_no_verdict_path_builds_a_contmap(monkeypatch):
    # a map set is held as its tables: with ContMap raising wherever the
    # package names it, the suite, every probe, the six named topologies of
    # each 4-point class against each Z of at most 2 points, and the
    # splitting refutations at (3,2) give what they give with it in place
    fours = [
        (y, z)
        for y in enumerate_topologies(4, up_to_iso=True)
        for z in (discrete(0), *all_spaces_up_to(2))
    ]

    def run():
        clear_every_cache()
        return (
            theorem_suite(3, 2),
            [question_search(qid, 3, 2) for qid in QUESTION_IDS],
            [named_function_topology(k, y, z) for y, z in fours for k in NAMED],
            [refute_splitting(t, max_x=3) for t in _tops32()],
        )

    want = run()

    def no_contmap(*args, **kwargs):
        raise AssertionError("a ContMap was built")

    naming = [
        m
        for name, m in sys.modules.items()
        if name.split(".")[0] == "topolab" and vars(m).get("ContMap") is mapspace.ContMap
    ]
    assert {m.__name__ for m in naming} >= {"topolab", "topolab.mapspace"}
    for module in naming:
        monkeypatch.setattr(module, "ContMap", no_contmap)
    with pytest.raises(AssertionError, match="a ContMap was built"):
        mapspace.MapSet(sierpinski(), sierpinski(), ((0, 0),))[0]
    assert run() == want


def test_refute_splitting_takes_the_containment_route(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("slice search ran")

    monkeypatch.setattr(checkers, "_continuous_slices", no_search)
    for t in _tops32():
        assert refute_splitting(t, 3).status == "inconclusive"
    with pytest.raises(AssertionError, match="slice search ran"):
        refute_splitting(fn_discrete(enumerate_continuous(sierpinski(), sierpinski())), 3)


def test_splitting_verdict_matches_the_bounded_search_and_evaluation():
    # splitting exactly when below the pointwise topology, which the named
    # co topology is on a finite Y: against the one-assignment-at-a-time
    # search at max_x=2, which builds its own joint relation from the
    # preimage rows, and against evaluation, which holds exactly when t
    # lies above the pointwise topology
    ys = all_spaces_up_to(3) + list(enumerate_topologies(4, up_to_iso=True))
    rng = random.Random(7)
    verdicts = {"holds": 0, "fails": 0}
    for y in ys:
        for z in all_spaces_up_to(2):
            maps = enumerate_continuous(y, z)
            pointwise = named_function_topology("co", y, z)
            tops = [named_function_topology(k, y, z) for k in NAMED]
            tops += [fn_discrete(maps), fn_indiscrete(maps)]
            tops.append(FnTopology.of(maps, [rng.randrange(1 << len(maps)) for _ in range(2)]))
            for t in tops:
                rep = splitting_verdict(t)
                verdicts[rep.status] += 1
                literal = literal_refute_splitting(t, 2).status
                assert (rep.status == "holds") == (literal == "inconclusive")
                both = rep.status == "holds" and evaluation_witness(t) is None
                assert both == (compare_topologies(t, pointwise).verdict == "equal")
    assert verdicts["holds"] > 0 and verdicts["fails"] > 0


def test_named_routes_run_no_pull(monkeypatch):
    # the named topologies, kset_topology, both splitting checks and the
    # q6/q7 composition checks read MapSet.pointwise: with pull refusing
    # and the named-topology cache bypassed, each answers as before
    pairs = [(y, z) for y in all_spaces_up_to(3) for z in all_spaces_up_to(2)]
    small = all_spaces_up_to(2)
    triples = [(x, y, z) for x in small for y in small for z in small]
    kinds = [(k, k, k) for k in ("t1sz", "t1z")]
    build = named_function_topology.__wrapped__

    def answers():
        out = []
        for y, z in pairs:
            maps = enumerate_continuous(y, z)
            for t in [build(k, y, z) for k in NAMED] + [kset_topology(maps), fn_discrete(maps)]:
                out.append((t, splitting_verdict(t), refute_splitting(t, 2)))
        out += [composition_check(*xyz, k) for xyz in triples for k in kinds]
        return out

    want = answers()

    def refuse(*args, **kwargs):
        raise AssertionError("MapSet.pull ran")

    monkeypatch.setattr(mapspace.MapSet, "pull", refuse)
    monkeypatch.setattr(checkers, "named_function_topology", build)
    assert answers() == want
    maps = enumerate_continuous(sierpinski(), sierpinski())
    with pytest.raises(AssertionError, match="pull"):
        lift_open_family(scott(sierpinski()), maps)


def test_named_routes_build_no_hyperspace(monkeypatch):
    # the six names, the admissibility, preservation and dual rows,
    # refute_splitting and the q6/q7 composition checks read only minimal
    # opens: with the four named hyperspace constructors refusing and the
    # named-topology cache bypassed, each answers as before, while reading
    # a subbasis builds its hyperspace
    pairs = [(y, z) for y in all_spaces_up_to(3) for z in all_spaces_up_to(2)]
    small = all_spaces_up_to(2)
    triples = [(x, y, z) for x in small for y in small for z in small]
    kinds = [(k, k, k) for k in ("t1sz", "t1z")]
    build = named_function_topology.__wrapped__

    def answers():
        named = [build(k, y, z) for y, z in pairs for k in NAMED]
        out = named + [refute_splitting(t, 2) for t in named]
        out += checkers._admissibility_rows(pairs)
        out += checkers._preservation_rows(pairs)
        out += checkers._dual_rows(pairs)
        out += [composition_check(*xyz, k) for xyz in triples for k in kinds]
        return out

    want = answers()

    def refuse(*args):
        raise AssertionError("built a hyperspace")

    for name in ("scott", "strong_scott", "z_scott", "strong_z_scott"):
        monkeypatch.setattr(fntop, name, refuse)
    monkeypatch.setattr(checkers, "named_function_topology", build)
    assert answers() == want
    y, z = pairs[-1]
    for name in ("isbell", "sisbell", "t1z", "t1sz"):
        with pytest.raises(AssertionError, match="built a hyperspace"):
            build(name, y, z).subbasis


def test_splitting_verdict_pair_replays_on_sierpinski_x():
    # the named pair (i, j): slice i on the closed point of Sierpinski
    # space and slice j on its open point give a witness of the search
    (sierpinski_x,) = [x for x in enumerate_topologies(2, up_to_iso=True) if len(x.opens) == 3]
    closed = sierpinski_x.min_opens.index(0b11)
    rng = random.Random(11)
    failing = 0
    for y in all_spaces_up_to(3):
        for z in all_spaces_up_to(2):
            maps = enumerate_continuous(y, z)
            picked = FnTopology.of(maps, [rng.randrange(1 << len(maps)) for _ in range(2)])
            for t in (fn_discrete(maps), picked):
                rep = splitting_verdict(t)
                if rep.status == "holds":
                    continue
                failing += 1
                ((tag, (i, j), tag2, tables),) = rep.witnesses
                assert (tag, tag2) == ("maps", "tables")
                assert tables == (maps.tables[i], maps.tables[j])
                assert (maps.pointwise[i] >> j) & 1 and not (t.min_opens[i] >> j) & 1
                slices = (j, i) if closed == 1 else (i, j)
                table = sum((maps.tables[k] for k in slices), ())
                assert (sierpinski_x.opens.members, table) in refute_splitting(t, 2).witnesses
    assert failing > 100


_SMALL_Y = all_spaces_up_to(3)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_refute_splitting_invariant_under_relabeling_y(data):
    y = data.draw(st.sampled_from(_SMALL_Y))
    perm = data.draw(st.permutations(range(y.size)))
    moved = make_space(y.size, [sum(1 << perm[p] for p in bits(o)) for o in y.opens])
    for z in all_spaces_up_to(2):
        # the discrete topology rides along: at max_x=2 the named ones never
        # refute, so it is the one with witnesses to count
        pairs = [
            (named_function_topology(kind, y, z), named_function_topology(kind, moved, z))
            for kind in NAMED
        ]
        pairs.append(
            (fn_discrete(enumerate_continuous(y, z)), fn_discrete(enumerate_continuous(moved, z)))
        )
        for t, t_moved in pairs:
            a = refute_splitting(t, max_x=2)
            b = refute_splitting(t_moved, max_x=2)
            assert (a.status, a.instance_count, a.hypothesis_true_count) == (
                b.status,
                b.instance_count,
                b.hypothesis_true_count,
            )
            assert len(a.witnesses) == len(b.witnesses)


def test_composition_relative_compact_open_triple(s):
    rep = composition_check(s, s, s, ("coZ", "coZ", "coZ"))
    assert rep.status == "holds"
    assert rep.hypothesis_true_count == 1
    assert dict(rep.budget)["locally_z_compact"] is True
    assert rep.claim == "compose:coZ,coZ,coZ x=0,2,3 y=0,2,3 z=0,2,3"


def test_composition_one_point_x(pt, chain2, s):
    rep = composition_check(pt, chain2, s, ("co", "co", "co"))
    assert rep.status == "holds"


def test_composition_strong_upper_triple_recorded(s):
    # recorded datum, not a theorem: at this scale the triple collapses to
    # the compact-open one
    rep = composition_check(s, s, s, ("t1sz", "t1sz", "t1sz"))
    assert rep.status == "holds"
    assert dict(rep.budget)["hypothesis"] == "locally_z_bounded"


def test_composition_kind_guards(s):
    with pytest.raises(ValueError):
        composition_check(s, s, s, ("co", "co"))
    with pytest.raises(ValueError):
        composition_check(s, s, s, ("co", "co", "pointwise"))


def test_composition_matches_literal_oracle():
    xs, ys, zs = all_spaces_up_to(2), all_spaces_up_to(3), all_spaces_up_to(2)
    triples = [(x, y, z) for x in xs for y in ys for z in zs]
    rng = random.Random(11)
    # every q6/q7 triple, and mixed kinds on a spread of the same triples
    cases = [(x, y, z, (k, k, k)) for k in ("t1sz", "t1z") for x, y, z in triples]
    cases += [(*xyz, tuple(rng.choice(NAMED) for _ in range(3))) for xyz in triples]
    for case in cases:
        assert composition_check(*case).to_dict() == literal_composition_check(*case).to_dict()
    # the containments read the targets' distinct minimal opens, a basis,
    # fewer than the subbasics the oracle walks
    q67 = cases[: 2 * len(triples)]
    targets = [named_function_topology(k, x, z) for x, _, z, (k, _, _) in q67]
    assert sum(len(set(t.min_opens)) for t in targets) == 3400
    assert sum(len(t.subbasis) for t in targets) == 5848


def test_composition_names_every_failing_subbasic(monkeypatch, s, chain2):
    # an indiscrete middle factor, and a target whose subbasic {const1, id}
    # is no minimal open: the oracle names every failing subbasic, that one
    # included, while composition_check refuses the non-named factors
    def custom(name, y, z):
        t = named_function_topology(name, y, z)
        if (y, z) == (chain2, s):
            return FnTopology.of(t.maps, ())
        if (y, z) == (s, s):
            return FnTopology.of(t.maps, (0b010, 0b100, 0b110))
        return t

    monkeypatch.setattr(checkers, "named_function_topology", custom)
    monkeypatch.setattr(oracles, "named_function_topology", custom)
    kinds = ("co", "co", "co")
    assert 0b110 not in custom("co", s, s).min_opens
    rep = literal_composition_check(s, chain2, s, kinds)
    assert rep.status == "fails"
    assert rep.witnesses == (
        ("open", 0b010, "at", (1, 1), "escapes", (0, 0)),
        ("open", 0b100, "at", (0, 1), "escapes", (0, 0)),
        ("open", 0b110, "at", (0, 1), "escapes", (0, 0)),
    )
    with pytest.raises(AssertionError, match="C\\(Y,Z\\) contains"):
        composition_check(s, chain2, s, kinds)


def test_composition_takes_the_containment_route(monkeypatch, s, chain2):
    # a middle factor coarser than the pointwise topology is a defect of
    # the named constructions, not a verdict: it raises, naming the kind
    # triple and the first escaping pair (1, 0): map 0, constant at the
    # closed point, lies in the indiscrete open around map 1 but not in the
    # pointwise one
    def coarse_middle(name, y, z):
        t = named_function_topology(name, y, z)
        return fn_indiscrete(t.maps) if (y, z) == (chain2, s) else t

    monkeypatch.setattr(checkers, "named_function_topology", coarse_middle)
    with pytest.raises(AssertionError) as raised:
        composition_check(s, chain2, s, ("co", "co", "co"))
    assert str(raised.value) == (
        "compose:co,co,co x=0,2,3 y=0,1,3 z=0,2,3: "
        "C(Y,Z) contains the pointwise topology fails at maps (1, 0)"
    )


def test_composition_guard_bounds_only_the_walk():
    # 64 * 81 = 5,184 pairs: the containments decide the named triple, and
    # only the literal walk, which builds every composite, is refused
    d3, d4 = discrete(3), discrete(4)
    kinds = ("co", "co", "co")
    assert composition_check(d3, d4, d3, kinds).status == "holds"
    with pytest.raises(
        BudgetExceeded, match="composition ground of 5184 pairs exceeds 4096"
    ):
        literal_composition_check(d3, d4, d3, kinds)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_composition_matches_literal_oracle_on_random_subbases(data):
    # each factor keeps its named topology or takes a drawn subbasis: while
    # both factors contain the pointwise topology and the target lies below
    # it, the report equals the oracle's; otherwise composition_check raises
    x = data.draw(st.sampled_from(all_spaces_up_to(2)))
    y = data.draw(st.sampled_from(all_spaces_up_to(3)))
    z = data.draw(st.sampled_from(all_spaces_up_to(2)))
    kinds = tuple(data.draw(st.permutations(NAMED))[:3])
    tops = {}
    for name, (dom, cod) in zip(kinds, ((x, y), (y, z), (x, z))):
        t = named_function_topology(name, dom, cod)
        drawn = data.draw(st.none() | st.lists(st.integers(0, t.full), max_size=4))
        tops[name] = t if drawn is None else FnTopology.of(t.maps, drawn)
    t_xy, t_yz, t_xz = (tops[name] for name in kinds)
    sandwiched = (
        evaluation_witness(t_xy) is None
        and evaluation_witness(t_yz) is None
        and splitting_verdict(t_xz).status == "holds"
    )

    def drawn_topology(name, dom, cod):
        return tops[name]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checkers, "named_function_topology", drawn_topology)
        mp.setattr(oracles, "named_function_topology", drawn_topology)
        if sandwiched:
            fast = composition_check(x, y, z, kinds).to_dict()
            assert fast == literal_composition_check(x, y, z, kinds).to_dict()
        else:
            with pytest.raises(AssertionError, match="the pointwise topology fails"):
                composition_check(x, y, z, kinds)


def _dual_rows_by_name(pairs, topology):
    # the three dual rows, each name's verdicts recomputed on its own
    forward, equiv = [], []
    hyp = 0
    for y, z in pairs:
        for name in NAMED:
            t = topology(name, y, z)
            t_ok = evaluation_witness(t) is None
            tau_ok = is_admissible_on_ozy(tau_of_t(t), t.maps).status == "holds"
            hyp += t_ok
            if t_ok and not tau_ok:
                forward.append((pair_tag(y, z), name))
            if t_ok != tau_ok:
                equiv.append((pair_tag(y, z), name))
    n = len(NAMED) * len(pairs)
    rows = [VerdictReport.of("dual:admissible-implies-dual-admissible", forward, hyp, n)]
    for claim in ("dual:named-equivalence-t-tau", "dual:named-equivalence-t-round-trip"):
        rows.append(VerdictReport.of(claim, equiv, n, n))
    return rows


def test_dual_rows_decide_one_dual_per_carrier(monkeypatch):
    # the six names of a pair share one carrier, so _dual_rows decides one
    # dual per pair, 170 at (3,2); with co and coZ given other carriers it
    # decides one per distinct carrier, and the rows equal the per-name
    # recomputation either way, witnesses included
    pairs = [(y, z) for y in all_spaces_up_to(3) for z in all_spaces_up_to(2)]
    calls = []

    def counted(t):
        calls.append(t.min_opens)
        return tau_of_t(t)

    def custom(name, y, z):
        t = named_function_topology(name, y, z)
        if name == "co":
            return fn_discrete(t.maps)
        return fn_indiscrete(t.maps) if name == "coZ" else t

    monkeypatch.setattr(checkers, "tau_of_t", counted)
    for topology, duals in ((named_function_topology, 170), (custom, 374)):
        carriers = sum(len({topology(k, y, z).min_opens for k in NAMED}) for y, z in pairs)
        assert carriers == duals
        monkeypatch.setattr(checkers, "named_function_topology", topology)
        calls.clear()
        got = checkers._dual_rows(pairs)
        assert len(calls) == duals
        assert got == _dual_rows_by_name(pairs, topology)
    assert got[0].status == "holds" and got[1].status == "fails"


def test_suite_rows_at_2_2(suite22):
    by_claim = {r.claim: r for r in suite22}
    assert len(by_claim) == len(suite22)
    unexpected = [r.claim for r in suite22 if r.status == "fails" and r.expected]
    assert unexpected == []
    assert by_claim["admissible:co when=regular+locally_compact"].hypothesis_true_count == 15
    assert by_claim["grid:co<=coZ"].status == "holds"
    assert by_claim["grid:t1z-vs-t1sz"].status == "inconclusive"
    assert dict(by_claim["grid:t1z-vs-t1sz"].budget)["equal"] == 25
    row = by_claim["grid:splitting-candidates-below-admissible"]
    assert row.status == "holds" and row.instance_count == 900
    assert by_claim["sierpinski:characteristic-homeomorphism"].status == "holds"
    assert by_claim["dual:named-equivalence-t-tau"].hypothesis_true_count == 150


@pytest.mark.parametrize("bounds", [(0, 2), (3, 0), (-1, -1)])
def test_suite_spaces_refuses_a_bound_below_one(bounds):
    with pytest.raises(ValueError, match="at least 1"):
        checkers.suite_spaces(*bounds)


def test_suite_preservation_rows_nonvacuous(suite22):
    rows = [r for r in suite22 if r.claim.startswith("preserve:")]
    assert len(rows) == 18
    assert all(r.status == "holds" and r.hypothesis_true_count > 0 for r in rows)


def test_suite_refinement_row(suite22):
    row = next(r for r in suite22 if r.claim == "admissible:refinement-monotone")
    assert row.status == "holds"
    # two base pairs, six admissible topologies each, ten samples apiece
    assert row.hypothesis_true_count == 120
    assert dict(row.budget)["bases"] == 12


def test_suite_divergence_rows_replay(suite22, chain2, indisc2):
    rows = [r for r in suite22 if r.claim.startswith("divergence:")]
    assert len(rows) == 3
    assert all(r.status == "fails" and not r.expected for r in rows)
    plain = z_scott(chain2, indisc2)
    strong = strong_z_scott(chain2, indisc2)
    assert 0b101 not in plain.opens
    assert 0b010 in plain.opens
    assert 0b010 not in strong.opens
    gap = next(r for r in rows if r.claim.startswith("divergence:dual-admissible"))
    ((tag, w, tag2, opens),) = gap.witnesses
    assert (tag, w) == ("eval_open", 0b10)
    assert opens == (0, 1, 2, 3)


def test_suite_budget_guard():
    with pytest.raises(BudgetExceeded):
        theorem_suite(4, 2)


def test_suite_json_deterministic():
    first = suite_to_json(theorem_suite(2, 2, refinement_samples=5, seed=3))
    second = suite_to_json(theorem_suite(2, 2, refinement_samples=5, seed=3))
    assert first == second


def test_characteristic_homeomorphism_matches_listed_oracle():
    # every labeled Y on at most four points; the suite row reads Y <= 3
    s = sierpinski()
    ys = all_spaces_up_to(4)
    assert len(ys) == 389
    for y in ys:
        assert checkers._characteristic_homeomorphism(y, s)
        assert literal_characteristic_homeomorphism(y, s)


def test_characteristic_homeomorphism_refutes_a_discrete_hyperspace(monkeypatch):
    # against the discrete topology on the same ground every Y fails, by
    # both routes: the ground holds the empty set and Y, and every open
    # around the empty set holds Y
    def discrete_hyperspace(y):
        ground = y.opens.members
        return HyperSpace(y, ground, tuple(1 << i for i in range(len(ground))), "d")

    monkeypatch.setattr(checkers, "compact_subbasis_topology", discrete_hyperspace)
    monkeypatch.setattr(oracles, "compact_subbasis_topology", discrete_hyperspace)
    s = sierpinski()
    for y in all_spaces_up_to(3):
        assert not checkers._characteristic_homeomorphism(y, s)
        assert not literal_characteristic_homeomorphism(y, s)
