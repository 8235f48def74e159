"""Release gate: one test per shipped criterion, exact values, pinned
runtime budgets. Every numeric expectation below was frozen from an
oracle or an exhaustive run; loosening any of them is a finding, not a
fix.
"""

from __future__ import annotations

import time
from functools import lru_cache

from topolab import (
    FnTopology,
    compact_subbasis_topology,
    compare_topologies,
    enumerate_continuous,
    enumerate_topologies,
    is_admissible,
    question_search,
    refute_splitting,
    sierpinski,
    sierpinski_correspondence,
    strong_z_scott,
    t_of_tau,
    tau_of_t,
    theorem_suite,
    z_scott,
    z_topology,
)
from topolab.finspace import bits, chain, indiscrete
from topolab.fntop import named_function_topology

from oracles import map_index

GRID = (
    ("co", "coZ"),
    ("co", "isbell"),
    ("isbell", "sisbell"),
    ("coZ", "t1z"),
    ("isbell", "t1z"),
    ("sisbell", "t1sz"),
)


def spaces_through(n):
    return [sp for k in range(1, n + 1) for sp in enumerate_topologies(k)]


@lru_cache(maxsize=None)
def default_suite():
    return tuple(theorem_suite())


def row(suite, claim):
    hits = [r for r in suite if r.claim == claim]
    assert len(hits) == 1, claim
    return hits[0]


def filtration_count(n):
    """Reference oracle: keep each family over the n-point powerset that
    holds the empty and full sets and is closed under pair union and
    intersection. Exponential, so only sane for n <= 3."""
    full = (1 << n) - 1
    count = 0
    for fambits in range(1 << (full + 1)):
        fam = [m for m in range(full + 1) if (fambits >> m) & 1]
        sf = set(fam)
        if 0 not in sf or full not in sf:
            continue
        if all((a | b) in sf and (a & b) in sf for a in fam for b in fam):
            count += 1
    return count


def test_criterion_1_topology_counts():
    start = time.monotonic()
    for n, expected in ((1, 1), (2, 4), (3, 29)):
        assert filtration_count(n) == expected
        assert sum(1 for _ in enumerate_topologies(n)) == expected
    assert sum(1 for _ in enumerate_topologies(4)) == 355
    assert time.monotonic() - start < 10


def test_criterion_2_sierpinski_identities():
    start = time.monotonic()
    s = sierpinski()
    ys = spaces_through(3)
    assert len(ys) == 34
    for y in ys:
        assert z_topology(y, s).opens == y.opens
        for lo, hi in (("co", "coZ"), ("isbell", "t1z"), ("sisbell", "t1sz")):
            cmp = compare_topologies(
                named_function_topology(lo, y, s),
                named_function_topology(hi, y, s),
            )
            assert cmp.verdict == "equal", (y.opens.members, lo, hi)
        # characteristic maps onto open sets, compact-restriction topology
        # on one side, compact-subbasis hyperspace on the other
        t = named_function_topology("coZ", y, s)
        hs = compact_subbasis_topology(y)
        perm = {}
        position = map_index(t.maps)
        for v, cmap in sierpinski_correspondence(y):
            perm[position[tuple(cmap.table)]] = hs.ground_index[v]
        assert sorted(perm) == list(range(len(t.maps)))
        assert sorted(perm.values()) == list(range(len(hs.ground)))
        image = {sum(1 << perm[i] for i in bits(m)) for m in t.opens.members}
        assert image == set(hs.opens.members), y.opens.members
    assert time.monotonic() - start < 60


def test_criterion_3_comparison_grid():
    start = time.monotonic()
    pairs = [(y, z) for y in spaces_through(3) for z in spaces_through(2)]
    assert len(pairs) == 170
    for y, z in pairs:
        for lo, hi in GRID:
            cmp = compare_topologies(
                named_function_topology(lo, y, z),
                named_function_topology(hi, y, z),
            )
            assert cmp.verdict in ("equal", "a_coarser"), (lo, hi)
    # the canned divergence: {{0}} stays open in the plain upper-family
    # variant over a 2-chain against an indiscrete pair but not in the
    # strong one, and the suite keeps that row red on purpose
    plain = z_scott(chain(2), indiscrete(2))
    strong = strong_z_scott(chain(2), indiscrete(2))
    assert 0b010 in plain.opens
    assert 0b010 not in strong.opens
    flagged = row(default_suite(), "divergence:plain-equals-strong chain2/indiscrete2")
    assert flagged.status == "fails"
    assert not flagged.expected
    assert ("family", 0b010, "cover_union_mask", 0b100) in flagged.witnesses
    assert time.monotonic() - start < 300


def test_criterion_4_admissibility_suite():
    start = time.monotonic()
    suite = default_suite()
    unexpected = [r.claim for r in suite if r.expected and r.status == "fails"]
    assert unexpected == []
    for claim in (
        "admissible:coZ when=regular+locally_z_compact",
        "admissible:t1sz when=locally_z_bounded",
        "admissible:t1z when=z_corecompact",
    ):
        r = row(suite, claim)
        assert r.status == "holds"
        assert 0 < r.hypothesis_true_count < r.instance_count
    for grade in ("t0", "t1", "t2"):
        for name in ("co", "coZ", "isbell", "sisbell", "t1z", "t1sz"):
            r = row(suite, f"preserve:{grade} {name}")
            assert r.status == "holds"
            assert r.hypothesis_true_count > 0
    for claim in (
        "dual:admissible-implies-dual-admissible",
        "dual:named-equivalence-t-tau",
        "dual:named-equivalence-t-round-trip",
    ):
        r = row(suite, claim)
        assert r.status == "holds"
        assert r.hypothesis_true_count > 0
        assert r.instance_count == 1020
    assert time.monotonic() - start < 600


def test_criterion_5_point_regressions():
    start = time.monotonic()
    s = sierpinski()
    maps = enumerate_continuous(s, s)
    assert [m.table for m in maps] == [(0, 0), (0, 1), (1, 1)]
    co = named_function_topology("co", s, s)
    # empty, {const1}, {const1, id}, everything
    assert co.opens.members == (0, 0b100, 0b110, 0b111)
    rep = is_admissible(FnTopology.of(maps, ()))
    assert rep.status == "fails"
    assert rep.witnesses == (("open", 0b10, "product_preimage", 0b111000),)
    disc = FnTopology.of(maps, (1, 2, 4), "discrete")
    ref = refute_splitting(disc, max_x=2, symmetry_reduction=False)
    assert ref.status == "fails"
    # X the two-point space with one open point, F the logical and
    assert ((0, 2, 3), (0, 0, 0, 1)) in ref.witnesses
    tau = tau_of_t(co)
    assert tau.ground == (0, 0b10, 0b11)
    assert tau.opens.members == (0, 1, 4, 5, 6, 7)
    rt = t_of_tau(tau, maps)
    assert rt.opens.members == (0, 1, 4, 5, 6, 7)
    assert set(co.opens.members) < set(rt.opens.members)
    assert time.monotonic() - start < 5


def test_criterion_6_refinement_monotonicity():
    start = time.monotonic()
    r = row(default_suite(), "admissible:refinement-monotone")
    assert r.status == "holds"
    assert r.hypothesis_true_count == 1200
    assert r.instance_count == 1200
    assert r.budget == (("bases", 12), ("samples", 100), ("seed", 0))
    assert time.monotonic() - start < 60


def test_criterion_7_question_probes():
    start = time.monotonic()
    for qid, nrows in (("q3.1", 1), ("q10", 3), ("q12", 1)):
        probe = question_search(qid, 3, 2)
        assert probe.status == "completed"
        assert len(probe.result) == nrows
        assert all(r.status == "holds" for r in probe.result)
        assert all(r.witnesses == () for r in probe.result)
        assert probe.explanation.startswith("provably no finite witness")
    per_instance = {
        "q1": (102, {"holds"}, 102),
        "q6": (850, {"holds"}, 410),
        "q7": (850, {"holds"}, 410),
        "q8": (170, {"inconclusive"}, None),
        "q9": (170, {"inconclusive"}, None),
    }
    for qid, (nrows, statuses, hyp_sum) in per_instance.items():
        probe = question_search(qid, 3, 2)
        assert probe.status == "completed"
        assert len(probe.result) == nrows
        assert {r.status for r in probe.result} == statuses
        assert all(r.claim for r in probe.result)
        if hyp_sum is not None:
            assert sum(r.hypothesis_true_count for r in probe.result) == hyp_sum
    assert time.monotonic() - start < 900
