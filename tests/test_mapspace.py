from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    literal_continuous,
    literal_locally_z_bounded,
    literal_pointwise,
    literal_z_corecompact,
)
from topolab import finspace, mapspace
from topolab.errors import BudgetExceeded, MismatchedBase, NotOpen, NotZRepresentable
from topolab.finspace import (
    bits,
    chain,
    discrete,
    enumerate_topologies,
    generate_from_subbasis,
    indiscrete,
    make_space,
    sierpinski,
)
from topolab.fntop import NAMED, lift_open_family, named_function_topology
from topolab.hypertop import (
    compact_subbasis_topology,
    scott,
    strong_scott,
    strong_z_scott,
    z_scott,
)
from topolab.mapspace import (
    ContMap,
    MapSet,
    enumerate_continuous,
    o_z_family,
    relative_profile,
    sierpinski_correspondence,
    way_below_z,
    z_topology,
)

from conftest import all_spaces_up_to, clear_every_cache, maybe_labeled


def test_self_maps_of_sierpinski(s):
    ms = enumerate_continuous(s, s)
    assert ms.tables == ((0, 0), (0, 1), (1, 1))  # swap (1,0) is discontinuous


def test_lexicographic_order_and_oracle_agreement():
    # the walk against the filter over all |Z|^|Y| tables: every labeled
    # pair up to (4,2) and up to (3,3), 0-point spaces on both sides, each
    # 4-point class against every labeled Z of at most 3 points, and three
    # 5-point spaces into Sierpinski
    spaces = [sp for n in range(5) for sp in enumerate_topologies(n)]
    upto = {n: [sp for sp in spaces if sp.size <= n] for n in (2, 3, 4)}
    pairs = {(y, z) for y in upto[4] for z in upto[2]}
    pairs |= {(y, z) for y in upto[3] for z in upto[3]}
    pairs |= {(y, z) for y in enumerate_topologies(4, up_to_iso=True) for z in upto[3]}
    assert len(pairs) == 390 * 6 + 35 * 29 + 33 * 29
    for y, z in pairs:
        ms = enumerate_continuous(y, z)
        assert list(ms.tables) == sorted(ms.tables)
        assert ms == literal_continuous(y, z)
    for y in (discrete(5), chain(5), indiscrete(5)):
        ms = enumerate_continuous(y, sierpinski(), size_cap=5)
        assert ms == literal_continuous(y, sierpinski())
        assert len(ms) == len(y.opens)


def test_a_map_set_is_held_as_its_tables():
    # every labeled pair up to (4,2) and up to (3,3), 0-point spaces on both
    # sides: the ContMaps, built only when asked for, wrap the tables in
    # order, and the preimage rows read off the tables are ContMap.preimage
    spaces = [sp for n in range(5) for sp in enumerate_topologies(n)]
    upto = {n: [sp for sp in spaces if sp.size <= n] for n in (2, 3, 4)}
    pairs = {(y, z) for y in upto[4] for z in upto[2]}
    pairs |= {(y, z) for y in upto[3] for z in upto[3]}
    assert len(pairs) == 390 * 6 + 35 * (35 - 6)
    for y, z in pairs:
        ms = MapSet(y, z, enumerate_continuous(y, z).tables)
        assert ms == enumerate_continuous(y, z)
        rows = ms.preimage_rows
        assert "maps" not in vars(ms)  # no ContMap built so far
        assert ms.maps == tuple(ContMap(y, z, t) for t in ms.tables)
        assert tuple(ms) == ms.maps and len(ms) == len(ms.tables)
        assert all(ms[i].table == t for i, t in enumerate(ms.tables))
        for u in z.opens:
            assert rows[u] == tuple(f.preimage(u) for f in ms.maps)


def test_the_walk_never_filters(monkeypatch):
    # every 4-point class against every Z of at most 2 points, the 0-point Z
    # included: the map sets and the six named topologies built with
    # ContMap.is_continuous raising equal those built with it in place
    pairs = [
        (y, z)
        for y in enumerate_topologies(4, up_to_iso=True)
        for z in (discrete(0), *all_spaces_up_to(2))
    ]

    def build():
        clear_every_cache()
        return [
            (enumerate_continuous(y, z), [named_function_topology(k, y, z) for k in NAMED])
            for y, z in pairs
        ]

    want = build()

    def no_filter(self):
        raise AssertionError("a value table was filtered")

    monkeypatch.setattr(mapspace.ContMap, "is_continuous", no_filter)
    assert build() == want


@given(y=maybe_labeled(4), z=maybe_labeled(3), data=st.data())
@settings(max_examples=200, deadline=None)
def test_relabeling_permutes_the_tables(y, z, data):
    # moving Y's point p to sigma[p] and Z's point w to tau[w] sends each
    # table t to the table p -> tau[t[p]] read at sigma[p], and the listing
    # to those tables re-sorted
    sigma = data.draw(st.permutations(range(y.size)))
    tau = data.draw(st.permutations(range(z.size)))

    def relabel(x, perm):
        opens = [sum(1 << perm[p] for p in bits(o)) for o in x.opens]
        labels = None
        if x.labels is not None:
            labels = [x.labels[perm.index(q)] for q in range(x.size)]
        return make_space(x.size, opens, labels)

    y2, z2 = relabel(y, sigma), relabel(z, tau)
    moved = [
        tuple(tau[t[sigma.index(q)]] for q in range(y.size))
        for t in enumerate_continuous(y, z).tables
    ]
    ms = enumerate_continuous(y2, z2)
    assert ms.tables == tuple(sorted(moved))
    assert (ms.domain, ms.codomain) == (y2, z2)


def test_constants_always_present():
    for y in all_spaces_up_to(3):
        for z in all_spaces_up_to(2):
            ms = enumerate_continuous(y, z)
            for v in range(z.size):
                assert (v,) * y.size in ms.index


def test_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_continuous(discrete(5), discrete(2))
    enumerate_continuous(discrete(5), discrete(2), size_cap=5)


def test_o_z_family_pinned(s, chain2, disc2, indisc2):
    assert o_z_family(chain2, indisc2).members == (0, 0b11)
    assert o_z_family(s, disc2).members == (0, 0b11)  # constants only
    for y in all_spaces_up_to(3):
        assert o_z_family(y, sierpinski()).members == y.opens.members


def test_o_z_family_is_the_union_of_the_preimage_rows():
    # against every preimage of every codomain open under every map,
    # recomputed, on every pair up to (4,2), the 0-point spaces included: a
    # nonempty Y into the 0-point Z has no map and an empty family
    spaces = [sp for n in range(5) for sp in enumerate_topologies(n)]
    mapless = 0
    for y in spaces:
        for z in spaces[: 1 + 1 + 4]:
            maps = enumerate_continuous(y, z)
            mapless += not len(maps)
            want = {m.preimage(u) for m in maps for u in z.opens}
            assert o_z_family(y, z) == finspace.SubsetFamily.of(y.size, want)
    assert mapless == 1 + 4 + 29 + 355


def test_z_topology_generated(chain2, indisc2):
    zt = z_topology(chain2, indisc2)
    assert zt.opens.members == (0, 0b11)
    for y in all_spaces_up_to(3):
        assert z_topology(y, sierpinski()).opens.members == y.opens.members


def _build_everything(y, z):
    enumerate_continuous(y, z)
    z_topology(y, z)
    relative_profile(y, z)
    sierpinski_correspondence(y)
    for hyper in (scott, strong_scott, compact_subbasis_topology):
        hyper(y)
    z_scott(y, z)
    strong_z_scott(y, z)
    for kind in NAMED:
        named_function_topology(kind, y, z)


def test_cached_results_keep_the_callers_labels():
    # labels are part of a space's identity: equal spaces with different
    # labels are unequal, so each labeling has its own cache entry and gets
    # back results built on it, whichever labeling was called first
    a = make_space(2, [0, 0b10, 0b11], ("a0", "a1"))
    b = make_space(2, [0, 0b10, 0b11], ("b0", "b1"))
    bare = make_space(2, [0, 0b10, 0b11])
    assert a != bare and b != bare and a != b
    for unlabeled_first in (False, True):
        clear_every_cache()
        if unlabeled_first:
            for z in (sierpinski(), indiscrete(2)):
                _build_everything(bare, z)
        for z in (sierpinski(), indiscrete(2)):
            assert z_topology(a, z).labels == ("a0", "a1")
            assert z_topology(b, z).labels == ("b0", "b1")
            assert relative_profile(a, z).z_top.labels == ("a0", "a1")
            assert relative_profile(b, z).z_top.labels == ("b0", "b1")
            assert z_topology(bare, z).labels is None
            for y, labels in ((a, ("a0", "a1")), (b, ("b0", "b1"))):
                ms = enumerate_continuous(y, z)
                assert ms.domain.labels == labels
                assert {m.domain.labels for m in ms} == {labels}
                for hyper in (scott(y), strong_scott(y), compact_subbasis_topology(y)):
                    assert hyper.base.labels == labels
                assert z_scott(y, z).base.labels == labels
                assert strong_z_scott(y, z).base.labels == labels
                for kind in NAMED:
                    assert named_function_topology(kind, y, z).maps.domain.labels == labels
            assert enumerate_continuous(bare, z).domain.labels is None
        for y, labels in ((a, ("a0", "a1")), (b, ("b0", "b1"))):
            assert {m.domain.labels for _, m in sierpinski_correspondence(y)} == {labels}
    # the codomain keeps its caller's labels as well
    za = make_space(2, [0, 0b10, 0b11], ("za0", "za1"))
    zb = make_space(2, [0, 0b10, 0b11], ("zb0", "zb1"))
    assert enumerate_continuous(a, za).codomain.labels == ("za0", "za1")
    assert enumerate_continuous(a, zb).codomain.labels == ("zb0", "zb1")
    assert named_function_topology("co", a, zb).maps.codomain.labels == ("zb0", "zb1")
    # spaces passed by keyword take the same route
    assert scott(y=b).base.labels == ("b0", "b1")
    assert enumerate_continuous(b, z=za, size_cap=2).domain.labels == ("b0", "b1")
    # operands that differ only in labels are mismatched
    with pytest.raises(MismatchedBase):
        lift_open_family(scott(a), enumerate_continuous(bare, sierpinski()))


def test_list_labels_are_stored_as_a_tuple():
    y = make_space(2, [0, 2, 3], ["a", "b"])
    assert y.labels == ("a", "b")
    assert y == make_space(2, [0, 2, 3], ("a", "b"))
    assert scott(y).base.labels == ("a", "b")
    t = named_function_topology("co", y, sierpinski())
    assert t.maps.domain.labels == ("a", "b")
    assert generate_from_subbasis(2, [2], ["a", "b"]).labels == ("a", "b")


def test_relative_profile_pinned(chain2, indisc2):
    rp = relative_profile(chain2, indisc2)
    assert not rp.locally_z_bounded
    assert not rp.z_corecompact
    assert rp.locally_z_compact  # finite ground: shrinking always succeeds


def test_relative_profile_sierpinski_codomain():
    for y in all_spaces_up_to(3):
        rp = relative_profile(y, sierpinski())
        assert rp.locally_z_bounded and rp.z_corecompact


def test_relative_profile_matches_literal_oracles():
    pairs = [(y, z) for y in all_spaces_up_to(4) for z in all_spaces_up_to(2)]
    assert len(pairs) == 1945
    failing = 0
    for y, z in pairs:
        rp = relative_profile(y, z)
        oz, ztop = o_z_family(y, z), z_topology(y, z)
        assert rp.locally_z_bounded == literal_locally_z_bounded(y, oz, ztop)
        assert rp.z_corecompact == literal_z_corecompact(y, oz, ztop)
        failing += not rp.locally_z_bounded
    assert 0 < failing < len(pairs)


def test_way_below_matches_containment():
    s = sierpinski()
    for y in all_spaces_up_to(3):
        for z in all_spaces_up_to(2) + [s]:
            oz = o_z_family(y, z)
            for a in oz:
                for u in y.opens:
                    assert way_below_z(y, z, a, u) == (a & ~u == 0)


def test_way_below_guards(s, indisc2):
    with pytest.raises(NotZRepresentable):
        way_below_z(s, indisc2, 0b10, 0b11)  # {1} is not a preimage here
    with pytest.raises(NotOpen):
        way_below_z(s, indisc2, 0, 0b01)


def test_sierpinski_correspondence_bijection():
    s = sierpinski()
    for y in all_spaces_up_to(3):
        pairs = sierpinski_correspondence(y)
        ms = enumerate_continuous(y, s)
        assert len(pairs) == len(y.opens) == len(ms)
        tables = {m.table for m in ms}
        seen = set()
        for v, cm in pairs:
            assert cm.is_continuous()
            assert cm.preimage(0b10) == v  # the open point pulls back to v
            assert cm.table in tables
            seen.add(cm.table)
        assert seen == tables


def test_preimage_rows_cache(s):
    ms = enumerate_continuous(s, s)
    rows = ms.preimage_rows
    assert rows[0b10] == (0, 0b10, 0b11)


def test_pointwise_rows_match_the_preimage_test():
    # every labeled pair with Y <= 4 and Z <= 2, or Y <= 3 and Z <= 3, and
    # the 0-point ends: no map into an empty Z, one empty map out of an
    # empty Y
    pairs = [(y, z) for y in all_spaces_up_to(4) for z in all_spaces_up_to(2)]
    pairs += [(y, z) for y in all_spaces_up_to(3) for z in enumerate_topologies(3)]
    empty = discrete(0)
    pairs += [(empty, empty), (empty, sierpinski()), (sierpinski(), empty)]
    for y, z in pairs:
        maps = enumerate_continuous(y, z)
        assert maps.pointwise == literal_pointwise(maps)
    assert len(pairs) == 389 * 5 + 34 * 29 + 3
    assert enumerate_continuous(empty, sierpinski()).pointwise == (1,)
    assert enumerate_continuous(sierpinski(), empty).pointwise == ()


def test_bracket_groups_the_maps_by_preimage():
    # MapSet.bracket against ContMap.preimage on every labeled pair up to
    # (4,2), 0-point spaces included, for both grounds it serves: the opens
    # of Y and the preimage family O_Z(Y)
    empty = discrete(0)
    ys = [empty] + all_spaces_up_to(4)
    zs = [empty] + all_spaces_up_to(2)
    pairs = [(y, z) for y in ys for z in zs]
    checked = 0
    for y, z in pairs:
        maps = enumerate_continuous(y, z)
        for ground in (y.opens.members, o_z_family(y, z).members):
            index = {g: k for k, g in enumerate(ground)}
            brackets = maps.bracket(index)
            assert len(brackets) == len(z.opens)
            for u, (at, groups) in zip(z.opens, brackets):
                pre = [f.preimage(u) for f in maps]
                assert at == [1 << ground.index(p) for p in pre]
                want = {
                    1 << k: sum(1 << j for j, p in enumerate(pre) if p == g)
                    for k, g in enumerate(ground)
                }
                assert groups == {b: m for b, m in want.items() if m}
                checked += 1
    assert len(pairs) == 390 * 6
    assert checked > 2 * len(pairs)
