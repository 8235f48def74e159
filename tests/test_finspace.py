from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import filter_topologies, literal_profile
from topolab.errors import CoverEnumerationBudgetExceeded, GroundTooLarge, NotATopology
from topolab.finspace import (
    FinSpace,
    LocalProfile,
    SubsetFamily,
    boundedness_verdict,
    canonical_form,
    chain,
    closure_of,
    compactness_verdict,
    discrete,
    enumerate_topologies,
    generate_from_subbasis,
    indiscrete,
    interior_of,
    is_bounded_in,
    is_compact_subset,
    local_profile,
    make_space,
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


def test_product_of_sierpinski(s):
    p = product(s, s)
    assert p.size == 4
    # point (1,1) sits at index 1*2+1 = 3
    assert p.is_open(1 << 3)
    make_space(p.size, p.opens.members)


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
    for x in all_spaces_up_to(3):
        for k in range(x.full + 1):
            lit, how_l = compactness_verdict(x, k, method="literal")
            cut, how_s = compactness_verdict(x, k, method="shortcut")
            assert lit is cut is True
            assert how_l == "literal-covers" and how_s == "finite-shortcut"
            assert compactness_verdict(x, k, method="auto") == (True, "finite-shortcut")


def test_boundedness_literal_and_shortcut_agree():
    for x in all_spaces_up_to(3):
        for b in range(x.full + 1):
            assert boundedness_verdict(x, b, method="literal")[0]
            assert boundedness_verdict(x, b, method="shortcut")[0]
            assert boundedness_verdict(x, b, method="auto") == (True, "finite-shortcut")


def test_cover_budget_error():
    x = discrete(4)  # 16 opens, 2^16 subfamilies
    with pytest.raises(CoverEnumerationBudgetExceeded):
        is_compact_subset(x, x.full, method="literal")
    assert compactness_verdict(x, x.full, method="auto") == (True, "finite-shortcut")


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
    assert len(enumerate_topologies(2, up_to_iso=True)) == 3
    assert len(enumerate_topologies(3, up_to_iso=True)) == 9
    assert len(enumerate_topologies(4, up_to_iso=True)) == 33


def test_canonical_form_identifies_relabeled_chain(s, chain2):
    assert canonical_form(s) == canonical_form(chain2)
    assert canonical_form(s) != canonical_form(discrete(2))


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
