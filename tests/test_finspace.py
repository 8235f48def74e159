from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    filter_topologies,
    literal_canonical_encoding,
    literal_covers,
    literal_generate,
    literal_links,
    literal_profile,
    literal_space_check,
)
from topolab import finspace
from topolab.mapspace import _transpose
from topolab.errors import AxiomsViolated, BudgetExceeded, GroundTooLarge, NotATopology
from topolab.finspace import (
    FinSpace,
    LocalProfile,
    SubsetFamily,
    _enumerate_upsets,
    _validate_topology_family,
    bits,
    boundedness_verdict,
    canonical_form,
    chain,
    closure_of,
    compactness_verdict,
    discrete,
    enumerate_topologies,
    full_mask,
    generate_from_subbasis,
    indiscrete,
    interior_of,
    is_open_in_product,
    local_profile,
    make_space,
    meets_by_point,
    product,
    separation_profile,
    sierpinski,
    subspace,
)

from conftest import all_spaces_up_to


def test_make_space_sierpinski(s):
    assert s.size == 2
    assert s.opens.members == (0, 0b10, 0b11)
    assert s.is_open(0b10)
    assert not s.is_open(0b01)


def test_make_space_rejects_missing_empty():
    with pytest.raises(NotATopology):
        make_space(2, [0b01, 0b11])


def test_make_space_rejects_union_escape():
    with pytest.raises(NotATopology) as e:
        make_space(3, [0, 0b001, 0b010, 0b111])
    assert set(e.value.witness) == {0b001, 0b010}


def test_make_space_rejects_large_ground():
    with pytest.raises(GroundTooLarge):
        make_space(33, [0, (1 << 33) - 1])


def test_generate_from_subbasis_pinned():
    x = generate_from_subbasis(3, [0b011, 0b110])
    assert x.opens.members == (0, 0b010, 0b011, 0b110, 0b111)


def test_generate_empty_subbasis_is_indiscrete():
    x = generate_from_subbasis(3, [])
    assert x.opens.members == (0, 0b111)


def test_generate_output_passes_validation():
    for seeds in ([0b011, 0b110], [0b1, 0b10], [], [0b101]):
        x = generate_from_subbasis(3, seeds)
        make_space(x.size, x.opens.members)


def test_generate_matches_literal_oracle():
    # every subfamily of the opens of every space on at most 3 points
    count = 0
    for x in all_spaces_up_to(3):
        opens = x.opens.members
        for pick in range(1 << len(opens)):
            seeds = [o for i, o in enumerate(opens) if (pick >> i) & 1]
            got = generate_from_subbasis(x.size, seeds).opens.members
            assert got == literal_generate(x.size, seeds)
            count += 1
    assert count == 1068


def test_validator_matches_pairwise_oracle():
    # every family holding the empty set and the ground, up to 4 points;
    # make_space must reject with the oracle's message and witness, and the
    # computed-family check must agree on the same pair
    accepted = 0
    for n in range(5):
        full = full_mask(n)
        inner = range(1, full)
        for pick in range(1 << len(inner)):
            fam = [0, full] + [m for i, m in enumerate(inner) if (pick >> i) & 1]
            want = literal_space_check(n, fam)
            try:
                make_space(n, fam)
                got = None
            except NotATopology as exc:
                got = (str(exc), exc.witness)
            assert got == want
            try:
                _validate_topology_family(n, SubsetFamily.of(n, fam), "probe")
                got = None
            except AxiomsViolated as exc:
                a, b, missing = exc.witness
                assert missing == (a | b if want[0].startswith("union") else a & b)
                got = (a, b)
            assert got == (want and want[1])
            accepted += want is None
    assert accepted == 1 + 1 + 4 + 29 + 355


def test_links_and_ups_match_the_literal_order():
    # every topology on at most 5 points, the 0-point space included: the
    # cached walk links and ups against the bit tests over the minimal opens
    spaces = [x for n in range(6) for x in enumerate_topologies(n)]
    assert len(spaces) == 1 + 1 + 4 + 29 + 355 + 6942
    for x in spaces:
        assert x.ups == tuple(_transpose(x.min_opens))
        want = literal_links(x.min_opens)
        assert [(list(ups), list(downs)) for ups, downs in x.links] == want


def test_product_of_sierpinski(s):
    p = product(s, s)
    assert p.size == 4
    # point (1,1) sits at index 1*2+1 = 3
    assert p.is_open(1 << 3)
    make_space(p.size, p.opens.members)


def test_open_in_product_matches_the_built_product(s):
    # every mask on the products of at most 8 points; on 32 points every
    # open of the product with each of its points toggled, and masks
    # escaping the ground
    small = all_spaces_up_to(3) + list(enumerate_topologies(4, up_to_iso=True))
    pairs = [(a, b) for a in small for b in all_spaces_up_to(2)]
    for a, b in pairs:
        built = product(a, b)
        for m in range(1 << built.size):
            assert is_open_in_product(a, b, m) == built.is_open(m)
    grid = product(chain(4), chain(4))
    bar = product(chain(4), indiscrete(4))
    for a, b in ((bar, s), (s, bar), (grid, indiscrete(2)), (indiscrete(2), grid)):
        built = product(a, b)
        assert built.size == 32
        for o in built.opens:
            assert is_open_in_product(a, b, o)
            for p in range(built.size):
                m = o ^ (1 << p)
                assert is_open_in_product(a, b, m) == built.is_open(m)
        assert not is_open_in_product(a, b, 1 << built.size)
        assert not is_open_in_product(a, b, -1)


def test_subspace_diagonal_of_product(s):
    p = product(s, s)
    d = subspace(p, (1 << 0) | (1 << 3))  # carrier {(0,0),(1,1)}
    assert d.size == 2
    assert d.opens.members == (0, 0b10, 0b11)


def test_subspace_empty_carrier(s):
    e = subspace(s, 0)
    assert e.size == 0
    assert e.opens.members == (0,)


def test_closure_pinned(s):
    assert closure_of(s, 0b10) == 0b11
    assert closure_of(s, 0b01) == 0b01


def test_interior_duality(s):
    for a in range(4):
        assert interior_of(s, a) == s.full & ~closure_of(s, s.full & ~a)


def test_separation_profile_sierpinski(s):
    p = separation_profile(s)
    assert p.t0 and not p.t1 and not p.t2 and not p.regular


def test_separation_profile_indiscrete(indisc2):
    p = separation_profile(indisc2)
    assert not p.t0 and p.regular


def test_separation_implications_exhaustive():
    for x in all_spaces_up_to(3):
        p = separation_profile(x)
        if p.t2:
            assert p.t1
        if p.t1:
            assert p.t0


def test_discrete_is_t2():
    p = separation_profile(discrete(3))
    assert p.t0 and p.t1 and p.t2 and p.regular


def test_compactness_literal_and_shortcut_agree():
    # the one route answers the finite-shortcut; the cover walk agrees
    for x in all_spaces_up_to(3):
        for k in range(x.full + 1):
            assert compactness_verdict(x, k) == (True, "finite-shortcut")
            assert compactness_verdict(x, k)[0] is literal_covers(x.opens.members, k, k) is True


def test_boundedness_literal_and_shortcut_agree():
    for x in all_spaces_up_to(3):
        for b in range(x.full + 1):
            assert boundedness_verdict(x, b) == (True, "finite-shortcut")
            assert boundedness_verdict(x, b)[0] is literal_covers(x.opens.members, x.full, b) is True


def test_local_profile_all_true_on_small_spaces():
    for x in all_spaces_up_to(3):
        p = local_profile(x)
        assert p.locally_compact and p.locally_bounded and p.corecompact


def test_profile_matches_literal_oracles():
    spaces = all_spaces_up_to(4)
    assert len(spaces) == 389
    for x in spaces:
        assert local_profile(x) == literal_profile(x)


def test_enumerate_counts():
    assert len(enumerate_topologies(1)) == 1
    assert len(enumerate_topologies(2)) == 4
    assert len(enumerate_topologies(3)) == 29
    assert len(enumerate_topologies(4)) == 355
    assert len(enumerate_topologies(5)) == 6942  # OEIS A000798


def test_enumerate_matches_filter_oracle():
    for n in (1, 2, 3):
        ours = [x.opens.members for x in enumerate_topologies(n)]
        assert ours == filter_topologies(n)


def test_enumerate_canonical_order():
    for n in (2, 3):
        encs = [x.encoding() for x in enumerate_topologies(n)]
        assert encs == sorted(encs)


def test_enumerate_iso_classes():
    counts = [len(enumerate_topologies(n, up_to_iso=True)) for n in range(6)]
    assert counts == [1, 1, 3, 9, 33, 139]  # OEIS A001930


def test_iso_listing_matches_literal_canonical_oracle():
    for n in range(1, 5):
        labeled = [x.encoding() for x in enumerate_topologies(n)]
        oracle = sorted({literal_canonical_encoding(n, e) for e in labeled})
        assert [x.encoding() for x in enumerate_topologies(n, up_to_iso=True)] == oracle


# sha256 of one line "<n> <encoding>" per class, n = 0..5, taken while each
# labeled topology was still canonicalized by its own permutation scan
ISO_LISTING_SHA256 = "4d775281f1619737c53618b21b20d78b6636592c6d0d52ed01ceddafaf8094d9"


def test_iso_listing_frozen_bytes():
    lines = [
        f"{n} {x.encoding()}" for n in range(6) for x in enumerate_topologies(n, up_to_iso=True)
    ]
    assert len(lines) == 186
    listing = "\n".join(lines) + "\n"
    assert hashlib.sha256(listing.encode()).hexdigest() == ISO_LISTING_SHA256


@st.composite
def relabeled_space(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    x = draw(st.sampled_from(enumerate_topologies(n)))
    perm = draw(st.permutations(range(n)))
    image = [sum(1 << perm[p] for p in bits(o)) for o in x.opens]
    return x, make_space(n, image)


@given(relabeled_space())
@settings(max_examples=200, deadline=None)
def test_relabeling_keeps_the_canonical_form_of_a_listed_class(case):
    x, y = case
    assert canonical_form(y) == canonical_form(x)
    assert canonical_form(x) in {c.encoding() for c in enumerate_topologies(x.size, up_to_iso=True)}


def test_cached_hashes_equal_the_dataclass_hashes():
    for x in [*all_spaces_up_to(3), make_space(2, [0, 2, 3], ("a", "b"))]:
        assert hash(x) == hash((x.size, x.opens, x.labels))
        assert hash(x.opens) == hash((x.opens.ground_size, x.opens.members))
        twin = FinSpace(x.size, SubsetFamily(x.size, tuple(x.opens.members)), x.labels)
        assert twin == x and twin is not x and twin.opens is not x.opens
        assert hash(twin) == hash(x) and hash(twin.opens) == hash(x.opens)
    # int tuples hash alike in every process and Python from 3.8 on; hash(None)
    # is fixed only from 3.12, so the space is pinned to its plain-tuple twin
    s = sierpinski()
    assert hash(s.opens) == 1822973944830821731 == hash((2, (0, 2, 3)))
    assert hash(s) == hash((2, (2, (0, 2, 3)), None))


def test_canonical_form_identifies_relabeled_chain(s, chain2):
    assert canonical_form(s) == canonical_form(chain2)
    assert canonical_form(s) != canonical_form(discrete(2))


def test_canonical_form_is_refused_past_its_relabel_cap(monkeypatch):
    x = chain(3)  # 3! * 4 = 24 relabeled opens
    want = canonical_form(x)
    monkeypatch.setattr(finspace, "MAX_CANONICAL_RELABELS", 24)
    assert canonical_form(x) == want
    monkeypatch.setattr(finspace, "MAX_CANONICAL_RELABELS", 23)

    def no_scan(*args):
        raise AssertionError("permutation scan started past the cap")

    monkeypatch.setattr(finspace, "permutations", no_scan)
    with pytest.raises(BudgetExceeded, match="24"):
        canonical_form(x)


def test_enumerate_rejects_past_cap():
    with pytest.raises(GroundTooLarge):
        enumerate_topologies(6)


@st.composite
def space_and_subset(draw):
    x = draw(st.sampled_from(all_spaces_up_to(3)))
    a = draw(st.integers(min_value=0, max_value=x.full))
    return x, a


@given(space_and_subset())
@settings(max_examples=200, deadline=None)
def test_closure_is_extensive_monotone_idempotent(xa):
    x, a = xa
    c = closure_of(x, a)
    assert a & ~c == 0
    assert closure_of(x, c) == c
    assert x.is_closed(c)


@given(space_and_subset(), space_and_subset())
@settings(max_examples=200, deadline=None)
def test_closure_distributes_over_union(xa, xb):
    x, a = xa
    _, b = xb
    b &= x.full
    assert closure_of(x, a | b) == closure_of(x, a) | closure_of(x, b)


@st.composite
def ground_and_family(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    family = draw(st.lists(st.integers(min_value=0, max_value=full_mask(n)), max_size=8))
    return n, family


@given(ground_and_family())
@settings(max_examples=300, deadline=None)
def test_meets_by_point_rows_are_reflexive_and_transitive(case):
    # the precondition `_enumerate_upsets` states and no longer enforces
    n, family = case
    rows = meets_by_point(n, family)
    for p, row in enumerate(rows):
        assert (row >> p) & 1
        for q in bits(row):
            assert rows[q] & ~row == 0


@given(ground_and_family(), st.integers(min_value=0, max_value=full_mask(6)))
@settings(max_examples=300, deadline=None)
def test_upsets_within_are_the_traces_of_the_upsets(case, within):
    n, family = case
    within &= full_mask(n)
    rows = meets_by_point(n, family)
    traces = list(_enumerate_upsets(n, rows, within))
    assert len(traces) == len(set(traces))
    assert set(traces) == {u & within for u in _enumerate_upsets(n, rows)}


def test_min_opens_are_open_and_minimal():
    for x in all_spaces_up_to(3):
        for p in range(x.size):
            m = x.min_opens[p]
            assert x.is_open(m)
            assert (m >> p) & 1
            for o in x.opens:
                if (o >> p) & 1:
                    assert m & ~o == 0


def test_chain_and_factories():
    c3 = chain(3)
    assert c3.opens.members == (0, 0b001, 0b011, 0b111)
    assert len(discrete(3).opens) == 8
    assert len(indiscrete(5).opens) == 2
    assert sierpinski().opens.members == (0, 2, 3)
