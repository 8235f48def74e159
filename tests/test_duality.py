from __future__ import annotations

import random
from itertools import combinations

import pytest

from topolab import mapspace
from topolab.duality import DualSpace, is_admissible_on_ozy, t_of_tau, tau_of_t
from topolab.errors import MismatchedBase, NotATopology
from topolab.finspace import (
    _up_masks,
    chain,
    discrete,
    enumerate_topologies,
    full_mask,
    generate_from_subbasis,
    make_space,
)
from topolab.fntop import (
    NAMED,
    FnTopology,
    compare_topologies,
    evaluation_witness,
    named_function_topology,
)
from topolab.hypertop import HyperSpace
from topolab.mapspace import MapSet, enumerate_continuous, first_escape, o_z_family

from conftest import all_spaces_up_to
from oracles import (
    listed_family_lift,
    listed_lift_min_opens,
    literal_admissible_direct,
    literal_lift,
    literal_tau_opens,
)


def test_tau_of_compact_open_sierpinski_pinned(s):
    d = tau_of_t(named_function_topology("co", s, s))
    assert d.ground == (0, 0b10, 0b11)
    # {}, {empty}, {whole}, {empty,whole}, {{1},whole}, everything
    assert d.opens.members == (0, 0b001, 0b100, 0b101, 0b110, 0b111)


def test_t_of_tau_roundtrip_sierpinski_pinned(s):
    co = named_function_topology("co", s, s)
    back = t_of_tau(tau_of_t(co), co.maps)
    assert back.opens.members == (0, 0b001, 0b100, 0b101, 0b110, 0b111)
    cmp = compare_topologies(back, co)
    assert cmp.verdict == "a_finer"
    assert 0b001 in cmp.a_only  # {const0} appears only after the round trip


def test_round_trip_never_shrinks_named(s, indisc2, disc2):
    # specific to the named constructors: arbitrary topologies can lose opens
    # on the round trip, see test_dual_admissibility_reverse_gap
    for y in all_spaces_up_to(2):
        for z in (s, indisc2, disc2):
            for name in ("co", "t1z", "t1sz"):
                t = named_function_topology(name, y, z)
                back = t_of_tau(tau_of_t(t), t.maps)
                assert compare_topologies(t, back).verdict in ("equal", "a_coarser")


def test_t_of_tau_matches_per_family_loop():
    for y in all_spaces_up_to(3):
        for z in all_spaces_up_to(2):
            for name in ("co", "isbell", "t1sz"):
                t = named_function_topology(name, y, z)
                tau = tau_of_t(t)
                want = literal_lift(t.maps, tau.ground, tau.opens)
                assert t_of_tau(tau, t.maps).subbasis == tuple(sorted(want))


def test_dual_routes_match_materialized_ones():
    # the 1,020 named topologies at (3,2) and six sampled ones on each pair
    rng = random.Random(9)
    checked = 0
    for y in all_spaces_up_to(3):
        for z in all_spaces_up_to(2):
            maps = enumerate_continuous(y, z)
            ts = [named_function_topology(k, y, z) for k in NAMED]
            ts += [
                FnTopology.of(
                    maps, [rng.randrange(1 << len(maps)) for _ in range(rng.randrange(0, 4))]
                )
                for _ in range(6)
            ]
            for t in ts:
                tau = tau_of_t(t)
                # seeded from minimal opens, carried by its own minimal opens
                assert tau.opens.members == literal_tau_opens(t)
                assert tau.min_opens == tau.as_space().min_opens
                # the closed-form lift and the listed one give one topology
                want = listed_lift_min_opens(maps, tau.ground_index, tau.opens)
                assert t_of_tau(tau, maps).min_opens == want
                checked += 1
            m = len(o_z_family(y, z))
            for _ in range(2):
                seeds = [rng.randrange(1 << m) for _ in range(rng.randrange(1, 4))]
                fam = generate_from_subbasis(m, seeds).opens
                tau = DualSpace.of(y, z, fam)
                assert tau.opens == fam
                want = listed_lift_min_opens(maps, tau.ground_index, tau.opens)
                assert t_of_tau(tau, maps).min_opens == want
    assert checked == 2040


def test_t_of_tau_on_indiscrete_dual(s):
    maps = enumerate_continuous(s, s)
    ground = o_z_family(s, s).members
    tau = DualSpace.of(s, s, [0, full_mask(len(ground))])
    t = t_of_tau(tau, maps)
    assert t.opens.members == (0, 0b111)


def test_one_map_ground(pt, s):
    # one-point codomain leaves a single constant map
    maps = enumerate_continuous(s, pt)
    assert len(maps) == 1
    tau = tau_of_t(FnTopology.of(maps, [0b1]))
    t = t_of_tau(tau, maps)
    assert len(t.opens) == 2


def test_one_point_domain_dual(pt, s):
    d = tau_of_t(named_function_topology("co", pt, s))
    assert d.ground == o_z_family(pt, s).members
    assert len(d.ground) == 2


def test_mismatched_base(s, chain2):
    tau = tau_of_t(named_function_topology("co", s, s))
    with pytest.raises(MismatchedBase):
        t_of_tau(tau, enumerate_continuous(chain2, s))


def test_dual_of_validates(s):
    with pytest.raises(NotATopology):
        DualSpace.of(s, s, [0, 0b001, 0b010, 0b111])  # union 0b011 missing


def test_dual_of_rejects_a_non_topology_with_its_witness(s):
    # the space validation, with make_space's messages and witnesses
    with pytest.raises(NotATopology, match="^union escapes the family$") as err:
        DualSpace.of(s, s, [0, 0b001, 0b010, 0b111])
    assert err.value.witness == (0b001, 0b010)
    with pytest.raises(NotATopology, match="^empty set missing$") as err:
        DualSpace.of(s, s, [0b001, 0b111])
    assert err.value.witness == (0,)


@pytest.mark.parametrize(
    "opens, message, witness",
    [
        ([0b001, 0b011, 0b111], "empty set missing", (0,)),
        ([0, 0b001, 0b011], "full ground missing", (0b111,)),
        ([0, 0b001, 0b010, 0b111], "union escapes the family", (0b001, 0b010)),
        ([0, 0b011, 0b110, 0b111], "intersection escapes the family", (0b011, 0b110)),
    ],
    ids=["empty-missing", "full-missing", "union-gap", "intersection-gap"],
)
def test_dual_of_rejects_a_non_topology_as_make_space_does(s, opens, message, witness):
    # O_Z(Y) of Sierpinski space into itself has three members, so a dual
    # family is a family on 3 points: one class, message and witness on
    # both routes
    for build in (lambda: make_space(3, opens), lambda: DualSpace.of(s, s, opens)):
        with pytest.raises(NotATopology) as err:
            build()
        assert (type(err.value), str(err.value), err.value.witness) == (
            NotATopology,
            message,
            witness,
        )


def test_t_of_tau_names_a_mismatched_y_or_z(s, chain2, disc2):
    # a Y mismatch and two Z mismatches, one of them with the same
    # preimage family as Z, so the hyperspace base alone would not catch it
    tau = tau_of_t(named_function_topology("co", s, s))
    flipped = make_space(2, [0, 0b01, 0b11])  # Sierpinski with 0 open
    assert o_z_family(s, flipped) == o_z_family(s, s)
    for y, z in ((chain2, s), (s, disc2), (s, flipped)):
        with pytest.raises(
            MismatchedBase, match="^dual space pair differs from the map set pair$"
        ):
            t_of_tau(tau, enumerate_continuous(y, z))


def test_duals_differing_only_in_z_are_unequal():
    # a DualSpace is a HyperSpace over O_Z(Y) that also records Z: on every
    # Y <= 2 with two Z <= 2 of one preimage family, the two duals agree in
    # every HyperSpace field yet compare unequal and hash apart
    spaces = all_spaces_up_to(2)
    found = [
        (y, z1, z2)
        for y in spaces
        for z1, z2 in combinations(spaces, 2)
        if o_z_family(y, z1) == o_z_family(y, z2)
    ]
    assert found
    for y, z1, z2 in found:
        m = len(o_z_family(y, z1))
        a, b = (DualSpace.of(y, z, [0, full_mask(m)]) for z in (z1, z2))
        assert isinstance(a, HyperSpace)
        assert (a.base, a.ground, a.min_opens, a.kind) == (
            b.base,
            b.ground,
            b.min_opens,
            b.kind,
        )
        assert a != b and hash(a) != hash(b)
        assert len({a, b}) == 2


def test_admissible_via_dual_pinned(s):
    maps = enumerate_continuous(s, s)
    good = is_admissible_on_ozy(tau_of_t(named_function_topology("co", s, s)), maps)
    assert good.status == "holds"
    ground = o_z_family(s, s).members
    tau = DualSpace.of(s, s, [0, full_mask(len(ground))])
    bad = is_admissible_on_ozy(tau, maps)
    assert bad.status == "fails"
    assert bad.witnesses[0][1] == 0b10
    # the witness replays: the dual topology misses the evaluation preimage
    assert evaluation_witness(t_of_tau(tau, maps)) == 0b10


def test_one_point_domain_admissibility_is_not_automatic(pt, s):
    # only duals that keep the family of whole-preimages open track evaluation
    maps = enumerate_continuous(pt, s)
    ground = o_z_family(pt, s).members
    assert ground == (0, 0b1)
    verdicts = {}
    for opens in ([0, 0b11], [0, 0b01, 0b11], [0, 0b10, 0b11], [0, 0b01, 0b10, 0b11]):
        tau = DualSpace.of(pt, s, opens)
        verdicts[tuple(opens)] = is_admissible_on_ozy(tau, maps).status
    assert verdicts[(0, 0b10, 0b11)] == "holds"
    assert verdicts[(0, 0b01, 0b10, 0b11)] == "holds"
    assert verdicts[(0, 0b11)] == "fails"
    assert verdicts[(0, 0b01, 0b11)] == "fails"


def sampled_duals(y, z, rng, count=6):
    ground = o_z_family(y, z).members
    m = len(ground)
    out = []
    for _ in range(count):
        seeds = [rng.randrange(1 << m) for _ in range(rng.randrange(1, 4))]
        fams = {0, full_mask(m)}
        for seed in seeds:
            fams.add(seed)
        closed = set(fams)
        grew = True
        while grew:
            grew = False
            pairs = list(closed)
            for a in pairs:
                for b in pairs:
                    for c in (a | b, a & b):
                        if c not in closed:
                            closed.add(c)
                            grew = True
        out.append(DualSpace.of(y, z, closed))
    return out


def test_dual_admissibility_forward_and_named_equivalence(s, indisc2, disc2):
    # admissibility always passes forward to the dual; on the named
    # constructors it also passes back, so there the two sides agree
    rng = random.Random(7)
    checked = 0
    for y in all_spaces_up_to(2):
        for z in (s, indisc2, disc2):
            maps = enumerate_continuous(y, z)
            named = [
                named_function_topology(n, y, z)
                for n in ("co", "coZ", "isbell", "sisbell", "t1z", "t1sz")
            ]
            sampled = [
                FnTopology.of(
                    maps,
                    [rng.randrange(1 << len(maps)) for _ in range(rng.randrange(0, 3))],
                )
                for _ in range(4)
            ]
            for t in named:
                t_ok = evaluation_witness(t) is None
                dual_ok = is_admissible_on_ozy(tau_of_t(t), maps).status == "holds"
                assert t_ok == dual_ok
                checked += 1
            for t in sampled:
                if evaluation_witness(t) is None:
                    assert is_admissible_on_ozy(tau_of_t(t), maps).status == "holds"
                checked += 1
    assert checked > 0


def test_dual_admissibility_reverse_gap(pt, s):
    # recorded finding: an admissible dual does not force the source to be
    # admissible. Building the dual keeps only which preimages occur, not
    # which map produced them, and that projection can refine the dual past
    # what the source topology supports.
    maps = enumerate_continuous(pt, s)
    t = FnTopology.of(maps, [0b01])  # opens: nothing, {const0}, everything
    assert evaluation_witness(t) == 0b10
    assert is_admissible_on_ozy(tau_of_t(t), maps).status == "holds"
    assert tau_of_t(t).opens.members == (0, 0b01, 0b10, 0b11)


def test_direct_bounded_agrees_with_via_dual(s, indisc2, disc2):
    # the bounded direct search, kept as an oracle, never contradicts the
    # decision: it finds nothing where via_dual holds
    rng = random.Random(3)
    for y in all_spaces_up_to(2):
        for z in (indisc2, disc2):
            maps = enumerate_continuous(y, z)
            for tau in sampled_duals(y, z, rng, count=3):
                via = is_admissible_on_ozy(tau, maps)
                direct = literal_admissible_direct(tau, maps, 2)
                if via.status == "holds":
                    assert direct.status == "inconclusive"
                if direct.status == "fails":
                    assert via.status == "fails"
                assert direct.instance_count > 0


def test_direct_bounded_finds_concrete_violation(pt, s):
    maps = enumerate_continuous(pt, s)
    tau = DualSpace.of(pt, s, [0, 0b11])
    assert is_admissible_on_ozy(tau, maps).status == "fails"
    report = literal_admissible_direct(tau, maps, 2)
    assert report.status == "fails"
    label, x_opens, _, tables = report.witnesses[0]
    assert label == "x_opens"
    # replay: the two-point indiscrete stage with both constants violates it
    assert 0 in x_opens and len(tables) >= 1


def test_admissible_duals_of_named_topologies(s, chain2, indisc2, disc2):
    # hypothesis predicates all hold at this scale, so every named dual
    # and its dual again must test admissible
    for y in (s, chain2):
        for z in (s, indisc2, disc2):
            maps = enumerate_continuous(y, z)
            for name in ("coZ", "t1z", "t1sz"):
                tau = tau_of_t(named_function_topology(name, y, z))
                assert is_admissible_on_ozy(tau, maps).status == "holds"
                again = tau_of_t(t_of_tau(tau, maps))
                assert is_admissible_on_ozy(again, maps).status == "holds"


def test_direct_bounded_matches_literal_oracle():
    # via_dual fails exactly when the direct search over test spaces of at
    # most two points finds a violation: the six named duals and two
    # sampled ones on every pair at (3,2)
    rng = random.Random(5)
    cases = []
    for y in all_spaces_up_to(3):
        for z in all_spaces_up_to(2):
            maps = enumerate_continuous(y, z)
            duals = [tau_of_t(named_function_topology(k, y, z)) for k in NAMED]
            cases += [(tau, maps) for tau in duals + sampled_duals(y, z, rng, count=2)]
    assert len(cases) == 1360
    failing = 0
    for tau, maps in cases:
        via = is_admissible_on_ozy(tau, maps).status
        direct = literal_admissible_direct(tau, maps, 2).status
        assert (via == "fails") == (direct == "fails")
        failing += via == "fails"
    assert failing == 164


def test_t_of_tau_matches_the_listed_family_bracket():
    # lifting off the dual's minimal opens against lifting every listed open
    ys = all_spaces_up_to(3) + list(enumerate_topologies(4, up_to_iso=True))
    for y in ys:
        for z in all_spaces_up_to(2):
            maps = enumerate_continuous(y, z)
            for tau in {tau_of_t(named_function_topology(n, y, z)) for n in NAMED}:
                want = listed_family_lift(maps, tau.ground_index, tau.opens)
                assert t_of_tau(tau, maps).subbasis == tuple(sorted(want))


def test_a_dual_round_trip_groups_the_maps_once(monkeypatch):
    # tau_of_t and then t_of_tau on a fresh map set read one cached
    # bracket: the maps are grouped once per codomain open, not twice
    y, z = chain(3), discrete(2)
    maps = MapSet(y, z, enumerate_continuous(y, z).tables)
    t = FnTopology(maps, named_function_topology("co", y, z).min_opens)
    calls = []
    group = mapspace._group

    def recorded(values):
        calls.append(len(values))
        return group(values)

    monkeypatch.setattr(mapspace, "_group", recorded)
    back = t_of_tau(tau_of_t(t), maps)
    assert len(calls) == len(z.opens) == 4
    named = named_function_topology("co", y, z)
    assert back.min_opens == t_of_tau(tau_of_t(named), named.maps).min_opens


def test_the_scott_trace_sandwich():
    # the theorem the suite's dual rows rest on. A, the Scott trace on
    # O_Z(Y), has ↑g as its minimal open around g; t_of_tau(A) is P, the
    # pointwise topology, and tau_of_t(P) is finer than A. Since tau_of_t is
    # monotone, every seeded refinement t of P has a dual finer than
    # tau_of_t(P), and that dual is admissible. Every labeled pair up to
    # (3,2), and each 4-point class against every Z of at most 2 points
    rng = random.Random(27)
    ys = all_spaces_up_to(3) + list(enumerate_topologies(4, up_to_iso=True))
    pairs = [(y, z) for y in ys for z in all_spaces_up_to(2)]
    refinements = 0
    for y, z in pairs:
        maps = enumerate_continuous(y, z)
        ground = o_z_family(y, z).members
        a = DualSpace(y, ground, _up_masks(ground), "dual", z)
        assert t_of_tau(a, maps).min_opens == maps.pointwise
        tau_p = tau_of_t(FnTopology.of(maps, maps.pointwise))
        assert first_escape(tau_p.min_opens, a.min_opens) is None
        full = full_mask(len(maps))
        for _ in range(3):
            rows = [
                row & (rng.randrange(full + 1) | 1 << i)
                for i, row in enumerate(maps.pointwise)
            ]
            t = FnTopology.of(maps, rows)
            assert first_escape(t.min_opens, maps.pointwise) is None
            tau = tau_of_t(t)
            assert first_escape(tau.min_opens, tau_p.min_opens) is None
            assert is_admissible_on_ozy(tau, maps).status == "holds"
            refinements += 1
    assert (len(pairs), refinements) == (335, 1005)
