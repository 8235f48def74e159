from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topolab import duality, fntop
from topolab.caps import CAPS
from topolab.checkers import is_admissible
from topolab.duality import is_admissible_on_ozy, tau_of_t
from topolab.errors import (
    BudgetExceeded,
    GroundTooLarge,
    MismatchedBase,
    MismatchedGround,
    NotATopology,
)
from topolab.finspace import (
    FinSpace,
    SubsetFamily,
    bits,
    chain,
    discrete,
    enumerate_topologies,
    indiscrete,
    make_space,
    min_open_profile,
    separation_profile,
    sierpinski,
)
from topolab.fntop import (
    NAMED,
    FnTopology,
    compare_topologies,
    evaluation_witness,
    kset_topology,
    lift_open_family,
    named_function_topology,
)
from topolab.hypertop import (
    HyperSpace,
    compact_subbasis_topology,
    scott,
    strong_scott,
    strong_z_scott,
    z_scott,
)
from topolab.mapspace import enumerate_continuous

from conftest import all_spaces_up_to
from oracles import (
    listed_named_min_opens,
    literal_compare_topologies,
    literal_evaluation_witness,
    literal_generate,
    literal_kset_subbasis,
    literal_lift,
    literal_profile,
    listed_family_lift,
    map_index,
    named_hyperspace,
)


def small_pairs():
    zs = all_spaces_up_to(2)
    return [(y, z) for y in all_spaces_up_to(3) for z in zs]


def fn_indiscrete(maps):
    return FnTopology.of(maps, [], "custom")


def fn_discrete(maps):
    return FnTopology.of(maps, [1 << i for i in range(len(maps))], "custom")


def test_compact_open_sierpinski_pinned(s):
    t = named_function_topology("co", s, s)
    assert t.maps.tables == ((0, 0), (0, 1), (1, 1))
    # chain of four: nothing, {const1}, {const1, id}, everything
    assert t.opens.members == (0, 0b100, 0b110, 0b111)
    assert t.provenance == "co"


def test_one_point_domain_mirrors_codomain(pt):
    for z in all_spaces_up_to(2):
        t = named_function_topology("co", pt, z)
        assert len(t.maps) == z.size  # constants only, in value order
        assert t.opens.members == z.opens.members


def test_plain_and_z_relative_ranges_agree(s):
    for y, z in small_pairs():
        maps = enumerate_continuous(y, z)
        a = kset_topology(maps, "plain")
        b = kset_topology(maps, "z_relative")
        assert (a.provenance, b.provenance) == ("co", "coZ")
        assert compare_topologies(a, b).verdict == "equal"
    with pytest.raises(ValueError):
        kset_topology(enumerate_continuous(s, s), "uniform")


def test_lift_of_scott_equals_compact_open(s):
    maps = enumerate_continuous(s, s)
    t = lift_open_family(scott(s), maps)
    assert t.opens.members == (0, 0b100, 0b110, 0b111)
    assert compare_topologies(t, named_function_topology("co", s, s)).verdict == "equal"


def test_lift_collapse_to_indiscrete(chain2, indisc2):
    from topolab.hypertop import z_scott

    maps = enumerate_continuous(chain2, indisc2)
    assert len(maps) == 4
    t = lift_open_family(z_scott(chain2, indisc2), maps)
    assert t.opens.members == (0, 0b1111)
    assert named_function_topology("t1sz", chain2, indisc2).opens.members == (0, 0b1111)


def test_lift_of_indiscrete_hyperspace(s):
    h = HyperSpace.of(
        base=s,
        ground=s.opens.members,
        opens=SubsetFamily.of(len(s.opens), [0, 0b111]),
        kind="custom",
    )
    t = lift_open_family(h, enumerate_continuous(s, s))
    assert t.opens.members == (0, 0b111)


def test_lift_off_the_hyperspace_ground_names_the_mismatch():
    # the dual for Z indiscrete lives on O_Z(chain(3)) = {empty, Y}; maps
    # into Sierpinski space take the preimages 1 and 3 besides, which its
    # trace cannot read
    tau = duality.DualSpace.of(chain(3), indiscrete(2), [0, 0b11])
    maps = enumerate_continuous(chain(3), sierpinski())
    with pytest.raises(MismatchedGround, match="^1 is not in the hyperspace ground$"):
        lift_open_family(tau, maps)


def test_lift_bracket_matches_per_family_loops():
    for y, z in small_pairs():
        maps = enumerate_continuous(y, z)
        for h in (scott(y), strong_scott(y), z_scott(y, z), strong_z_scott(y, z)):
            want = literal_lift(maps, h.ground, h.opens)
            assert lift_open_family(h, maps).subbasis == tuple(sorted(want))
        want = tuple(sorted(literal_kset_subbasis(maps)))
        assert kset_topology(maps, "plain").subbasis == want


def test_named_guards(s, chain2):
    with pytest.raises(ValueError):
        named_function_topology("pointwise", s, s)
    with pytest.raises(MismatchedBase):
        lift_open_family(scott(chain2), enumerate_continuous(s, s))
    with pytest.raises(MismatchedGround):
        compare_topologies(
            named_function_topology("co", s, s),
            named_function_topology("co", chain2, s),
        )
    with pytest.raises(NotATopology):
        FnTopology.of(enumerate_continuous(s, s), [1 << 5])


def test_compare_against_extremes(s):
    co = named_function_topology("co", s, s)
    low = compare_topologies(fn_indiscrete(co.maps), co)
    assert low.verdict == "a_coarser"
    assert 0b100 in low.b_only  # {const1} separates
    high = compare_topologies(fn_discrete(co.maps), co)
    assert high.verdict == "a_finer"
    assert 0b001 in high.a_only  # {const0} is not compact-open
    assert compare_topologies(co, co).verdict == "equal"


def test_comparison_grid():
    ordered = [
        ("co", "coZ"),
        ("co", "isbell"),
        ("isbell", "sisbell"),
        ("coZ", "t1z"),
        ("isbell", "t1z"),
        ("sisbell", "t1sz"),
    ]
    for y, z in small_pairs():
        ts = {n: named_function_topology(n, y, z) for n in NAMED}
        for lo, hi in ordered:
            assert compare_topologies(ts[lo], ts[hi]).verdict in ("equal", "a_coarser")
        # the two preimage-family variants are compared but not ordered here
        assert compare_topologies(ts["t1z"], ts["t1sz"]).verdict in (
            "equal",
            "a_coarser",
            "a_finer",
            "incomparable",
        )


def test_sierpinski_codomain_collapses_names(s):
    for y in all_spaces_up_to(3):
        co = named_function_topology("co", y, s)
        assert compare_topologies(named_function_topology("coZ", y, s), co).verdict == "equal"
        assert (
            compare_topologies(
                named_function_topology("t1z", y, s),
                named_function_topology("isbell", y, s),
            ).verdict
            == "equal"
        )
        assert (
            compare_topologies(
                named_function_topology("t1sz", y, s),
                named_function_topology("sisbell", y, s),
            ).verdict
            == "equal"
        )


def test_characteristic_bijection_onto_compact_subbasis_topology(s):
    # sending each map to the preimage of {1} identifies C(Y,S) with the
    # opens of Y and carries the compact-open-style topology across
    for y in all_spaces_up_to(3):
        t = named_function_topology("coZ", y, s)
        hyper = compact_subbasis_topology(y)
        images = [f.preimage(0b10) for f in t.maps]
        assert sorted(images) == list(y.opens.members)
        translate = {
            i: hyper.ground_index[v] for i, v in enumerate(images)
        }
        carried = set()
        for mask in t.opens:
            out = 0
            for i in translate:
                if (mask >> i) & 1:
                    out |= 1 << translate[i]
            carried.add(out)
        assert carried == set(hyper.opens.members)


def test_separation_grades_survive_lifting():
    for y, z in small_pairs():
        want = separation_profile(z)
        for name in ("coZ", "t1z", "t1sz"):
            got = separation_profile(named_function_topology(name, y, z).as_space())
            if want.t0:
                assert got.t0
            if want.t1:
                assert got.t1
            if want.t2:
                assert got.t2


def test_function_space_profiles_match_literal_oracles():
    spaces = {
        FinSpace(x.size, x.opens, None)
        for y, z in small_pairs()
        for name in NAMED
        for x in [named_function_topology(name, y, z).as_space()]
    }
    assert len(spaces) == 29
    for x in spaces:
        assert separation_profile(x) == literal_profile(x)
    # the profile read off a topology's own minimal opens, never materialized
    for y, z in small_pairs():
        for name in NAMED:
            t = named_function_topology(name, y, z)
            assert t.profile == separation_profile(t.as_space())


def _literal_profile_once(t, memo):
    """`literal_profile` of t's space, computed once per distinct set of
    minimal opens. Every discrete space on two or more points has the
    profile of the 2-point one, which stands in for the larger ones: the
    literal regularity search on 10 discrete points takes tens of
    seconds, and on 16 the opens are past the budget."""
    mins = t.min_opens
    if len(mins) > 2 and mins == tuple(1 << i for i in range(len(mins))):
        t = fn_discrete(enumerate_continuous(discrete(1), discrete(2)))
        mins = t.min_opens
    if mins not in memo:
        memo[mins] = literal_profile(FinSpace(len(mins), t.opens))
    return memo[mins]


def test_one_profile_per_map_set_matches_the_literal_oracle():
    # every pair at (3,2), and each 4-point class against every Z <= 2. The
    # six named topologies, both kset modes and a lift equal to P hand
    # back the map set's own profile object; a topology with other rows
    # reads its own, and both agree with the literal oracle
    ys = all_spaces_up_to(3) + list(enumerate_topologies(4, up_to_iso=True))
    memo = {}
    own = differs = 0
    for y in ys:
        for z in all_spaces_up_to(2):
            maps = enumerate_continuous(y, z)
            shared = [named_function_topology(name, y, z) for name in NAMED]
            shared += [kset_topology(maps), kset_topology(maps, "z_relative")]
            shared.append(lift_open_family(scott(y), maps))
            assert shared[-1].min_opens is not maps.pointwise
            for t in shared:
                assert t.min_opens == maps.pointwise
                assert t.profile is maps.profile
            assert maps.profile == _literal_profile_once(shared[0], memo)
            for t in (fn_indiscrete(maps), fn_discrete(maps)):
                for u in (t, duality.t_of_tau(tau_of_t(t), maps)):
                    if u.min_opens == maps.pointwise:
                        assert u.profile is maps.profile
                        continue
                    own += 1
                    assert u.profile == min_open_profile(u.min_opens)
                    assert u.profile == _literal_profile_once(u, memo)
                    differs += u.profile != maps.profile
    assert (own, differs) == (693, 671)


def test_compare_and_evaluation_match_literal_oracles():
    # the 1,020 named topologies at (3,2) and every ordered pair of kinds on
    # each pair; then seeded refinements (up to three random masks added)
    # and seeded coarsenings, since every named topology here is admissible,
    # each against its named topology both ways
    rng = random.Random(0)
    failing = unequal = 0
    for y, z in small_pairs():
        named = [named_function_topology(name, y, z) for name in NAMED]
        pairs = [(a, b) for a in named for b in named]
        for t in named:
            extra = tuple(rng.randrange(t.full + 1) for _ in range(rng.randint(1, 3)))
            finer = FnTopology.of(t.maps, t.subbasis + extra)
            coarser = FnTopology.of(t.maps, [m for m in t.subbasis if rng.random() < 0.5])
            pairs += [(t, finer), (finer, t), (t, coarser), (coarser, t)]
        for a, b in pairs:
            got = compare_topologies(a, b)
            assert got == literal_compare_topologies(a, b)
            unequal += got.verdict != "equal"
            w = evaluation_witness(a)
            assert w == literal_evaluation_witness(a)
            failing += w is not None
    assert failing > 400 and unequal > 1000


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compare_matches_literal_oracle_on_random_subbases(data):
    # b adds opens of a to a's subbasis, so it is the same topology unless
    # a stray member rides along; c is drawn with no tie to a
    y, z = data.draw(st.sampled_from(small_pairs()))
    maps = enumerate_continuous(y, z)
    member = st.integers(0, (1 << len(maps)) - 1)
    sub_a = data.draw(st.lists(member, max_size=4))
    a = FnTopology.of(maps, sub_a)
    extra = data.draw(st.lists(st.sampled_from(a.opens.members), max_size=3))
    b = FnTopology.of(maps, sub_a + extra + data.draw(st.lists(member, max_size=1)))
    c = FnTopology.of(maps, data.draw(st.lists(member, max_size=4)))
    for one, other in ((a, b), (b, a), (a, c), (c, a)):
        got = compare_topologies(one, other)
        assert got == literal_compare_topologies(one, other)
        assert (got.verdict == "equal") == (one.min_opens == other.min_opens)


def test_unknown_name_is_refused_before_maps_are_enumerated():
    # discrete(5) is past the map enumeration cap, which a bad name must
    # not reach
    for y in (discrete(2), discrete(5)):
        with pytest.raises(ValueError, match="bogus"):
            named_function_topology("bogus", y, discrete(2))


def test_fn_topologies_pass_axioms(s, chain2, indisc2):
    pairs = [(s, s), (chain2, indisc2), (discrete(3), discrete(2))]
    for y, z in pairs:
        for name in NAMED:
            t = named_function_topology(name, y, z)
            assert make_space(len(t.maps), t.opens).min_opens == t.min_opens


def test_opens_match_literal_closure():
    count = 0
    for y, z in small_pairs():
        for name in NAMED:
            t = named_function_topology(name, y, z)
            assert t.opens.members == literal_generate(len(t.maps), t.subbasis)
            count += 1
    assert count == 1020


def test_is_open_mask_matches_materialized(s):
    t = named_function_topology("co", s, s)
    for mask in range(1 << len(t.maps)):
        assert t.is_open_mask(mask) == (mask in t.opens)
    assert not t.is_open_mask(-1) and not t.is_open_mask(1 << len(t.maps))


def test_materialize_budget():
    maps = enumerate_continuous(discrete(4), discrete(2))
    assert len(maps) == 16
    with pytest.raises(BudgetExceeded):
        fn_discrete(maps).materialize()
    small = enumerate_continuous(discrete(3), discrete(2))
    assert len(fn_discrete(small).materialize(budget=300)) == 256


def test_evaluation_witness(s):
    co = named_function_topology("co", s, s)
    assert evaluation_witness(co) is None
    assert evaluation_witness(fn_discrete(co.maps)) is None
    # the indiscrete topology cannot track evaluation into the open point
    assert evaluation_witness(fn_indiscrete(co.maps)) == 0b10


def test_lifts_match_the_listed_family_bracket():
    # lifting off the minimal opens against lifting every listed open family
    ys = all_spaces_up_to(3) + list(enumerate_topologies(4, up_to_iso=True))
    for y in ys:
        for z in all_spaces_up_to(2):
            maps = enumerate_continuous(y, z)
            for h in (
                scott(y),
                strong_scott(y),
                compact_subbasis_topology(y),
                z_scott(y, z),
                strong_z_scott(y, z),
            ):
                want = listed_family_lift(maps, h.ground_index, h.opens)
                assert lift_open_family(h, maps).subbasis == tuple(sorted(want))


def test_closed_form_min_opens_match_the_listed_lift():
    # the pulled minimal opens against every listed subbasic met per map:
    # every pair at (3,2), and each 4-point class against every Z <= 2
    ys = all_spaces_up_to(3) + list(enumerate_topologies(4, up_to_iso=True))
    count = 0
    for y in ys:
        for z in all_spaces_up_to(2):
            for name in NAMED:
                t = named_function_topology(name, y, z)
                assert t.min_opens == listed_named_min_opens(name, y, z)
                count += 1
    assert count == 6 * 5 * (34 + 33)


def test_named_topologies_collapse_to_the_pointwise_topology():
    # on a finite Y the literal lift of each named hyperspace (the
    # containment topology for co and coZ) is the pointwise topology, which
    # every named topology carries: every pair at (3,2), and each 4-point
    # class against every Z <= 2
    ys = all_spaces_up_to(3) + list(enumerate_topologies(4, up_to_iso=True))
    for y in ys:
        for z in all_spaces_up_to(2):
            maps = enumerate_continuous(y, z)
            for name in NAMED:
                lifted = lift_open_family(named_hyperspace(name, y, z), maps, name)
                assert lifted.min_opens == maps.pointwise
                assert named_function_topology(name, y, z) == lifted


def test_named_subbasis_is_read_from_the_recorded_name():
    # a named topology records its name and lists the subbasis from the
    # rows of up on O_Z(Y), building no hyperspace: the lift of every open
    # family of the oracle's named hyperspace on O(Y), listed and lifted
    # one family at a time, on every pair at (3,2). co and coZ record
    # nothing and lift only the containment families, the literal
    # K-subbasis, not every open of the topology those generate
    for y, z in small_pairs():
        maps = enumerate_continuous(y, z)
        for name in NAMED:
            t = named_function_topology(name, y, z)
            if name in ("co", "coZ"):
                assert t.source is None
                want = literal_kset_subbasis(maps)
            else:
                assert t.source == name
                h = named_hyperspace(name, y, z)
                want = listed_family_lift(maps, h.ground_index, h.opens)
            assert t.subbasis == tuple(sorted(want))


def test_the_map_cap_keeps_named_subbasis_reads_within_the_hyperspace_cap():
    # a Y that C(Y,Z) lists has at most the opens of the discrete space on
    # MAX_MAP_POINTS points, so a named topology's subbasis read never
    # meets GroundTooLarge; raising one cap without the other fails here
    y = discrete(CAPS.MAX_MAP_POINTS)
    assert len(y.opens) == 1 << CAPS.MAX_MAP_POINTS <= CAPS.MAX_HYPER_GROUND


def test_named_subbasis_reads_keep_the_hyperspace_cap(map_points):
    # discrete(5) has 32 opens, past MAX_HYPER_GROUND: its 32 maps into
    # Sierpinski space, listed with MAX_MAP_POINTS raised to 5, list the co
    # and coZ subbasis, 33 subbasics, and refuse the four Scott-type ones
    # as the hyperspaces do
    map_points(5)
    y = discrete(5)
    maps = enumerate_continuous(y, sierpinski())
    assert len(y.opens) > CAPS.MAX_HYPER_GROUND and len(maps) == 32
    for name in NAMED:
        source = None if name in ("co", "coZ") else name
        t = FnTopology(maps, maps.pointwise, name, source)
        if source is None:
            assert len(t.subbasis) == 33
            assert set(t.subbasis) == literal_kset_subbasis(maps)
        else:
            with pytest.raises(GroundTooLarge, match="hyperspace cap"):
                t.subbasis


def test_building_and_dual_admissibility_list_no_subbasis(monkeypatch):
    def refuse(*args):
        raise AssertionError("listed a subbasis")

    y = enumerate_topologies(4, up_to_iso=True)[-1]
    zs = all_spaces_up_to(2)
    taus = [tau_of_t(named_function_topology(n, y, z)) for z in zs for n in NAMED]
    for name in ("_lift", "lift_families", "lift_upsets", "meets_by_point"):
        monkeypatch.setattr(fntop, name, refuse)
    monkeypatch.setattr(duality, "meets_by_point", refuse)
    build = named_function_topology.__wrapped__
    for z in zs:
        for name in NAMED:
            evaluation_witness(build(name, y, z))
    for tau in taus:
        maps = enumerate_continuous(tau.y, tau.z)
        assert is_admissible_on_ozy(tau, maps).status in ("holds", "fails")


def test_equality_is_maps_min_opens_provenance(s):
    maps = enumerate_continuous(s, s)
    # {const1} and {const1, id} generate the compact-open topology, as do
    # its three nonempty opens
    a = FnTopology.of(maps, [0b100, 0b110])
    b = FnTopology.of(maps, [0b100, 0b110, 0b111])
    assert a.subbasis != b.subbasis
    assert a == b and hash(a) == hash(b)
    co = named_function_topology("co", s, s)
    assert co.min_opens == a.min_opens
    assert co != a  # provenance "co" against "custom"
    assert co == FnTopology.of(maps, co.subbasis, "co")
    assert FnTopology.of(maps, [0b100]) != a


_SMALL_Y4 = all_spaces_up_to(4)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_named_topologies_follow_a_relabeling_of_y(data):
    y = data.draw(st.sampled_from(_SMALL_Y4))
    perm = data.draw(st.permutations(range(y.size)))
    moved = make_space(y.size, [sum(1 << perm[p] for p in bits(o)) for o in y.opens])
    for z in all_spaces_up_to(2):
        maps = enumerate_continuous(y, z)
        moved_maps = enumerate_continuous(moved, z)
        position = map_index(moved_maps)
        # map f goes to the map sending perm[p] to f(p)
        sigma = []
        for table in maps.tables:
            out = [0] * y.size
            for p, v in enumerate(table):
                out[perm[p]] = v
            sigma.append(position[tuple(out)])
        assert sorted(sigma) == list(range(len(maps)))
        for name in NAMED:
            t = named_function_topology(name, y, z)
            t_moved = named_function_topology(name, moved, z)
            for i, m in enumerate(t.min_opens):
                image = sum(1 << sigma[j] for j in bits(m))
                assert t_moved.min_opens[sigma[i]] == image
            assert is_admissible(t).status == is_admissible(t_moved).status


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_hyperspaces_follow_a_relabeling_of_y(data):
    y = data.draw(st.sampled_from(_SMALL_Y4))
    perm = data.draw(st.permutations(range(y.size)))
    moved = make_space(y.size, [sum(1 << perm[p] for p in bits(o)) for o in y.opens])
    pairs = [(scott(y), scott(moved)), (strong_scott(y), strong_scott(moved))]
    pairs.append((compact_subbasis_topology(y), compact_subbasis_topology(moved)))
    for z in all_spaces_up_to(2):
        pairs.append((z_scott(y, z), z_scott(moved, z)))
        pairs.append((strong_z_scott(y, z), strong_z_scott(moved, z)))
        # the dual on O_Z(Y), a sixth kind: its ground moves with Y's
        # opens, and its verdict stays
        for name in NAMED:
            t, t_moved = (named_function_topology(name, x, z) for x in (y, moved))
            tau, tau_moved = tau_of_t(t), tau_of_t(t_moved)
            pairs.append((tau, tau_moved))
            verdict = is_admissible_on_ozy(tau, t.maps).status
            assert is_admissible_on_ozy(tau_moved, t_moved.maps).status == verdict
    for h, h_moved in pairs:
        assert h.kind == h_moved.kind
        # ground member g goes to its image under perm, at its index in the
        # moved ground
        sigma = [
            h_moved.ground.index(sum(1 << perm[p] for p in bits(g))) for g in h.ground
        ]
        for i, m in enumerate(h.min_opens):
            assert h_moved.min_opens[sigma[i]] == sum(1 << sigma[j] for j in bits(m))
