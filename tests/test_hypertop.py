from __future__ import annotations

import gc

import pytest

from oracles import (
    family_mask,
    literal_containment_families,
    literal_cover_union_masks,
    literal_filtration,
    literal_generate,
    literal_scott_families,
)
from topolab.errors import GroundTooLarge, NotATopology, NotZRepresentable
from topolab.finspace import (
    _enumerate_upsets,
    _up_masks,
    chain,
    discrete,
    enumerate_topologies,
    full_mask,
    meets_by_point,
)
from topolab.hypertop import (
    HyperSpace,
    _filtration,
    compact_subbasis_topology,
    scott,
    strong_scott,
    strong_z_scott,
    up_family,
    z_scott,
)
from topolab.mapspace import o_z_family

from conftest import all_spaces_up_to


def small_bases():
    return [y for y in all_spaces_up_to(3) if len(y.opens) <= 6]


def test_scott_chain2_pinned(chain2):
    hs = scott(chain2)
    assert hs.ground == (0, 0b01, 0b11)
    assert hs.opens.members == (0, 0b100, 0b110, 0b111)
    assert hs.kind == "scott"


def test_scott_matches_literal_oracle():
    for y in small_bases():
        ground = y.opens.members
        want = literal_scott_families(y, ground, ground, strong=False)
        assert set(scott(y).opens.members) == want


def test_strong_scott_matches_literal_oracle_plus_fiat_empty():
    for y in small_bases():
        ground = y.opens.members
        want = literal_scott_families(y, ground, ground, strong=True)
        # the literal strong quantifier rejects the empty family outright;
        # the module adjoins it by fiat
        assert set(strong_scott(y).opens.members) == want | {0}


def test_routes_match_literal_scan_and_cover_walk():
    # the closed-form rows against the 2^m scan, whose strong form runs the
    # 2^|pool| cover walk (the scan was also scott()'s runtime
    # cross-check): every space of at most 3 points and one per 4-point
    # homeomorphism class, against each codomain of at most 2 points and
    # the empty codomain, whose preimage family is empty: no map, no cover
    ys = all_spaces_up_to(3) + list(enumerate_topologies(4, up_to_iso=True))
    assert len(ys) == 34 + 33
    for y in ys:
        ground = y.opens.members
        everything = full_mask(len(ground))
        assert scott(y).opens.members == tuple(
            sorted(literal_filtration(ground, y.full, everything, None))
        )
        assert strong_scott(y).opens.members == tuple(
            sorted(literal_filtration(ground, y.full, everything, everything))
        )
        for z in [discrete(0)] + all_spaces_up_to(2):
            oz = o_z_family(y, z)
            pool = sum(1 << i for i, g in enumerate(ground) if g in oz)
            assert z_scott(y, z).opens.members == tuple(
                sorted(literal_filtration(ground, y.full, pool, None))
            )
            assert strong_z_scott(y, z).opens.members == tuple(
                sorted(literal_filtration(ground, y.full, pool, pool))
            )


def test_enumerate_upsets_leaves_no_cyclic_garbage():
    rows = _up_masks(discrete(3).opens.members)
    gc.collect()
    gc.disable()
    try:
        assert len(set(_enumerate_upsets(len(rows), rows))) == 20  # Dedekind M(3)
        assert gc.collect() == 0
        assert len(enumerate_topologies.__wrapped__(3)) == 29
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_z_scott_chain2_indiscrete_pinned(chain2, indisc2):
    hs = z_scott(chain2, indisc2)
    assert hs.ground == (0, 0b01, 0b11)
    assert hs.opens.members == (0, 0b010, 0b100, 0b110, 0b111)
    # the two-member family {empty, whole} does not qualify: its empty member
    # sits in the trigger set and fires upward closure across the whole chain
    assert 0b101 not in hs.opens


def test_strong_z_scott_chain2_indiscrete_pinned(chain2, indisc2):
    hs = strong_z_scott(chain2, indisc2)
    assert hs.opens.members == (0, 0b100, 0b110, 0b111)
    # {{0}} survives the plain variant but dies against the one-member cover
    # {whole}: no subfamily union of it lands in the family
    assert 0b010 in z_scott(chain2, indisc2).opens
    assert 0b010 not in hs.opens


def test_z_scott_oracle_agreement(s, indisc2, disc2):
    for y in small_bases():
        for z in (s, indisc2, disc2):
            pool = o_z_family(y, z).members
            want = literal_scott_families(y, pool, pool, strong=False)
            assert set(z_scott(y, z).opens.members) == want
            want_strong = literal_scott_families(y, pool, pool, strong=True)
            assert set(strong_z_scott(y, z).opens.members) == want_strong | {0}


def test_sierpinski_codomain_collapses_to_plain_variants(s):
    for y in all_spaces_up_to(3):
        assert z_scott(y, s).opens == scott(y).opens
        assert strong_z_scott(y, s).opens == strong_scott(y).opens


def test_z_scott_refines_scott(s, indisc2, disc2):
    # fewer triggers means fewer constraints, never more
    for y in all_spaces_up_to(3):
        for z in (s, indisc2, disc2):
            assert set(scott(y).opens.members) <= set(z_scott(y, z).opens.members)


def test_compact_subbasis_topology_sierpinski_pinned(s):
    hs = compact_subbasis_topology(s)
    assert hs.ground == (0, 0b10, 0b11)
    assert hs.opens.members == (0, 0b100, 0b110, 0b111)
    assert hs.kind == "ksubbasis"


def test_containment_families_are_open_in_scott_and_z_scott(indisc2):
    for y in small_bases():
        hs = scott(y)
        hz = z_scott(y, indisc2)
        for k in range(y.full + 1):
            fam = up_family(y, k)
            mask = family_mask(hs, fam.members)
            assert mask in hs.opens
            assert mask in hz.opens


def test_way_below_mode_matches_containment_on_preimage_family(s, indisc2, disc2):
    for y in small_bases():
        for z in (s, indisc2, disc2):
            for a in o_z_family(y, z):
                assert up_family(y, a, "way_below", z) == up_family(y, a)


def test_up_family_guards(s, indisc2):
    with pytest.raises(ValueError):
        up_family(s, 0, "way_below")
    with pytest.raises(ValueError):
        up_family(s, 0, "downward")
    with pytest.raises(NotZRepresentable):
        up_family(s, 0b10, "way_below", indisc2)


def test_ground_cap():
    with pytest.raises(GroundTooLarge):
        scott(discrete(5))


def test_scott_rows_carry_all_three_plain_constructions():
    # strong_scott and compact_subbasis_topology read scott's rows, and
    # those rows are the containment families of the 2^|Y| scan, on every
    # labeled space of 0-5 points within the ground cap
    ys = [y for n in range(6) for y in enumerate_topologies(n) if len(y.opens) <= 16]
    assert len(ys) == 7141
    for y in ys:
        h = scott(y)
        for other in (strong_scott(y), compact_subbasis_topology(y)):
            assert (other.ground, other.min_opens) == (h.ground, h.min_opens)
        assert set(h.min_opens) == literal_containment_families(y)
    for build in (scott, strong_scott, compact_subbasis_topology):
        with pytest.raises(GroundTooLarge):
            build(discrete(5))


def test_validation_rejects_union_gap(chain2):
    with pytest.raises(NotATopology, match="^union escapes the family$") as info:
        HyperSpace.of(chain2, scott(chain2).ground, [0, 0b001, 0b010, 0b111], "probe")
    assert info.value.witness == (0b001, 0b010)


def test_validation_accepts_every_enumerated_topology():
    # each space's opens on n points, as a family on O(chain(n - 1)), a
    # ground of n opens
    for y in all_spaces_up_to(3):
        base = chain(y.size - 1)
        h = HyperSpace.of(base, base.opens.members, y.opens, "probe")
        assert (h.opens, h.min_opens) == (y.opens, y.min_opens)


def test_as_space_labels(chain2):
    space = scott(chain2).as_space()
    assert space.labels == ("{}", "{0}", "{0,1}")
    assert space.opens.members == (0, 0b100, 0b110, 0b111)
    assert full_mask(space.size) in space.opens


def test_min_opens_are_the_meets_of_the_literal_families():
    # what each construction carries against the family the 2^m scan lists
    # (the closure of the containment families, for ksubbasis)
    ys = all_spaces_up_to(3) + list(enumerate_topologies(4, up_to_iso=True))
    for y in ys:
        ground = y.opens.members
        m = len(ground)
        everything = full_mask(m)

        def meets(trigger, pool):
            return meets_by_point(m, literal_filtration(ground, y.full, trigger, pool))

        assert scott(y).min_opens == meets(everything, None)
        assert strong_scott(y).min_opens == meets(everything, everything)
        generated = literal_generate(m, literal_containment_families(y))
        assert compact_subbasis_topology(y).min_opens == meets_by_point(m, generated)
        for z in [discrete(0)] + all_spaces_up_to(2):
            oz = o_z_family(y, z)
            pool = sum(1 << i for i, g in enumerate(ground) if g in oz)
            assert z_scott(y, z).min_opens == meets(pool, None)
            assert strong_z_scott(y, z).min_opens == meets(pool, pool)


def test_every_scott_type_hyperspace_traces_to_up_on_o_z():
    # the theorem the named subbases rest on: each of the five traces on
    # O_Z(Y) to the rows of up there, on the 658 class pairs with Y of 0-4
    # points and Z of 0-3 points; each trace's opens are the traces of the
    # listed opens
    def classes(n):
        return [discrete(0)] + [
            x for k in range(1, n + 1) for x in enumerate_topologies(k, up_to_iso=True)
        ]

    pairs = [(y, z) for y in classes(4) for z in classes(3)]
    assert len(pairs) == 658
    for y, z in pairs:
        oz = o_z_family(y, z).members
        builds = (
            scott(y),
            strong_scott(y),
            compact_subbasis_topology(y),
            z_scott(y, z),
            strong_z_scott(y, z),
        )
        for h in builds:
            trace = h.trace(oz)
            assert (trace.ground, trace.min_opens) == (oz, _up_masks(oz))
            at = [h.ground_index[g] for g in oz]
            listed = {sum(1 << k for k, j in enumerate(at) if o >> j & 1) for o in h.opens}
            assert set(trace.opens) == listed


def pools_holding_y(y):
    top = 1 << y.opens.members.index(y.full)
    return [pool for pool in range(1 << len(y.opens)) if pool & top]


def test_every_pool_holding_y_has_the_one_cover_mask_y():
    # {Y} is a minimal cover, and its reach {Y} lies inside every other
    # cover's reach, since each cover's full union is Y
    pools = 0
    for y in small_bases():
        ground = y.opens.members
        for pool in pools_holding_y(y):
            pools += 1
            assert literal_cover_union_masks(ground, pool, y.full) == (
                1 << ground.index(y.full),
            )
    assert (len(small_bases()), pools) == (33, 406)


def test_filtration_matches_the_listing_route_on_every_triple():
    # every trigger with no pool, the empty pool (no cover, so the strong
    # condition is vacuous) and every pool holding Y, over the spaces of at
    # most 3 points and 6 opens: the same opens as listing the scanned
    # family and validating it, and every such family is a topology
    triples = [0, 0]
    for y in small_bases():
        ground = y.opens.members
        m = len(ground)
        for pool in (None, 0, *pools_holding_y(y)):
            for trigger in range(1 << m):
                fam = literal_filtration(ground, y.full, trigger, pool)
                listed = HyperSpace.of(y, ground, fam, "probe")
                assert _filtration(y, trigger, bool(pool), "probe") == listed
                triples[bool(pool)] += pool is not None
    assert triples == [812, 16920]


def test_of_round_trips_every_hyperspace(s):
    for y in all_spaces_up_to(3):
        for z in all_spaces_up_to(2):
            for h in (
                scott(y),
                strong_scott(y),
                compact_subbasis_topology(y),
                z_scott(y, z),
                strong_z_scott(y, z),
            ):
                assert HyperSpace.of(h.base, h.ground, h.opens, h.kind) == h
    with pytest.raises(NotATopology) as info:
        HyperSpace.of(s, s.opens.members, [0, 0b001, 0b010, 0b111], "probe")
    assert info.value.witness == (0b001, 0b010)
