from __future__ import annotations

import random

import pytest

from topolab import duality
from topolab.checkers import MAX_SPLITTING_INSTANCES
from topolab.duality import DualSpace, is_admissible_on_ozy, t_of_tau, tau_of_t
from topolab.errors import AxiomsViolated, BudgetExceeded, MismatchedBase
from topolab.finspace import discrete, enumerate_topologies, full_mask, indiscrete
from topolab.fntop import (
    NAMED,
    FnTopology,
    compare_topologies,
    evaluation_witness,
    named_function_topology,
)
from topolab.mapspace import enumerate_continuous, o_z_family

from conftest import all_spaces_up_to
from oracles import literal_admissible_direct, literal_lift


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
    with pytest.raises(AxiomsViolated):
        DualSpace.of(s, s, [0, 0b001, 0b010, 0b111])  # union 0b011 missing


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
    rng = random.Random(3)
    for y in all_spaces_up_to(2):
        for z in (indisc2, disc2):
            maps = enumerate_continuous(y, z)
            for tau in sampled_duals(y, z, rng, count=3):
                via = is_admissible_on_ozy(tau, maps, mode="via_dual")
                direct = is_admissible_on_ozy(tau, maps, mode="direct_bounded", max_x=2)
                if via.status == "holds":
                    assert direct.status == "inconclusive"
                if direct.status == "fails":
                    assert via.status == "fails"
                assert direct.instance_count > 0
    with pytest.raises(ValueError):
        is_admissible_on_ozy(
            sampled_duals(s, disc2, rng, count=1)[0],
            enumerate_continuous(s, disc2),
            mode="sideways",
        )


def test_direct_bounded_finds_concrete_violation(pt, s):
    maps = enumerate_continuous(pt, s)
    tau = DualSpace.of(pt, s, [0, 0b11])
    report = is_admissible_on_ozy(tau, maps, mode="direct_bounded", max_x=2)
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
    # the six named duals and two sampled ones on every pair at (3,2)
    rng = random.Random(5)
    cases = []
    for y in all_spaces_up_to(3):
        for z in all_spaces_up_to(2):
            maps = enumerate_continuous(y, z)
            duals = [tau_of_t(named_function_topology(k, y, z)) for k in NAMED]
            cases += [(tau, maps) for tau in duals + sampled_duals(y, z, rng, count=2)]
    assert len(cases) == 1360
    failing = []
    small = []
    for tau, maps in cases:
        fast = is_admissible_on_ozy(tau, maps, mode="direct_bounded", max_x=2).to_dict()
        assert fast == literal_admissible_direct(tau, maps, 2).to_dict()
        if fast["status"] == "fails":
            failing.append((tau, maps))
        elif len(maps) <= 3:
            small.append((tau, maps))
    assert len(failing) == 164
    # three-point test spaces: every failure, and a spread of clean duals
    for tau, maps in failing + small[::10]:
        fast = is_admissible_on_ozy(tau, maps, mode="direct_bounded", max_x=3).to_dict()
        assert fast == literal_admissible_direct(tau, maps, 3).to_dict()


def test_direct_bounded_instance_budget(monkeypatch):
    # the 256 maps of discrete(4) -> indiscrete(4) at max_x=2 stay admitted
    y, z = discrete(4), indiscrete(4)
    maps = enumerate_continuous(y, z)
    assert len(maps) == 256
    tau = tau_of_t(named_function_topology("co", y, z))
    report = is_admissible_on_ozy(tau, maps, mode="direct_bounded", max_x=2)
    assert report.instance_count == 196_864 < MAX_SPLITTING_INSTANCES
    # max_x=5 is past the test-space cap
    with pytest.raises(BudgetExceeded):
        is_admissible_on_ozy(tau, maps, mode="direct_bounded", max_x=5)

    # at max_x=3 the closed-form count rejects it before any X is enumerated
    def no_test_spaces(*args, **kwargs):
        raise AssertionError("test spaces enumerated past the budget")

    monkeypatch.setattr(duality, "enumerate_topologies", no_test_spaces)
    with pytest.raises(BudgetExceeded, match="151"):
        is_admissible_on_ozy(tau, maps, mode="direct_bounded", max_x=3)
