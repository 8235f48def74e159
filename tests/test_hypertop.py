from __future__ import annotations

import gc

import pytest

from oracles import (
    literal_cover_union_masks,
    literal_filtration,
    literal_scott_families,
)
from topolab.errors import AxiomsViolated, GroundTooLarge, NotZRepresentable
from topolab.finspace import SubsetFamily, discrete, enumerate_topologies, full_mask
from topolab.hypertop import (
    _enumerate_upsets,
    _minimal_cover_union_masks,
    _up_masks,
    _validate_topology_family,
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
    # the up-set walk and the cover search against the 2^m scan and the
    # 2^|pool| walk they replaced (the scan was also scott()'s runtime
    # cross-check): every space of at most 3 points and one per 4-point
    # homeomorphism class, against each codomain of at most 2 points
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
        for z in all_spaces_up_to(2):
            oz = o_z_family(y, z)
            pool = sum(1 << i for i, g in enumerate(ground) if g in oz)
            assert _minimal_cover_union_masks(
                ground, pool, y.full
            ) == literal_cover_union_masks(ground, pool, y.full)
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
            mask = hs.family_mask(fam.members)
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


def test_validation_rejects_union_gap():
    fam = SubsetFamily.of(3, [0, 0b001, 0b010, 0b111])
    with pytest.raises(AxiomsViolated) as info:
        _validate_topology_family(3, fam, "probe")
    a, b, missing = info.value.witness
    assert (a | b == missing or a & b == missing) and missing not in fam


def test_validation_accepts_every_enumerated_topology():
    for y in all_spaces_up_to(3):
        _validate_topology_family(y.size, y.opens, "probe")


def test_as_space_labels(chain2):
    space = scott(chain2).as_space()
    assert space.labels == ("{}", "{0}", "{0,1}")
    assert space.opens.members == (0, 0b100, 0b110, 0b111)
    assert full_mask(space.size) in space.opens
