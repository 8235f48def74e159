"""Independent brute-force oracles.

Everything here recomputes results by unoptimized, definition-shaped searches
so the package's faster routes have something honest to agree with. Keep these
free of package internals beyond plain data types. The exceptions keep
searches the package replaced: `searched_refute_splitting` keeps the
interleaved slice search the package replaced by two walks of
`mapspace.monotone_prefixes`, and runs it on every call, where the package
skips it when a containment test settles the answer; the two suite-row
oracles, `literal_splitting_order_row` and `literal_refinement_row`, keep
the comparisons and sampled refinements the suite replaced by the
pointwise sandwich, and run them through the package's own comparison and
evaluation check; `literal_dual_rows` keeps the per-carrier route that
built every named topology's dual, which the suite replaced by the
Scott-trace sandwich, and runs the package's own dual operators;
`labeled_theorem_suite` keeps the suite's pair rows over every labeled
pair, which the suite replaced by one pass per homeomorphism class pair,
and runs the suite's own `_pair_rows`; `labeled_question_search` keeps
the question probes' rows over every labeled pair, which the probes
replaced by one decision per class pair, and runs the probes' own
runners;
`literal_o_z_family` keeps the union of the package's preimage rows over
C(Y,Z), which `o_z_family` replaced by its closed form.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations
from itertools import product as assignments

from topolab import checkers, explorer
from topolab.checkers import _COMPOSE_HYPOTHESIS, DEFAULT_REFINEMENT_SAMPLES, SpaceAxis
from topolab.duality import is_admissible_on_ozy, tau_of_t
from topolab.errors import BudgetExceeded
from topolab.explorer import QuestionProbe
from topolab.finspace import (
    FinSpace,
    LocalProfile,
    Subset,
    SubsetFamily,
    bits,
    chain,
    discrete,
    enumerate_topologies,
    full_mask,
    mask_of,
    popcount,
    product,
    sierpinski,
)
from topolab.fntop import (
    NAMED,
    Comparison,
    FnTopology,
    compare_topologies,
    evaluation_witness,
    named_function_topology,
)
from topolab.hypertop import (
    compact_subbasis_topology,
    scott,
    strong_scott,
    strong_z_scott,
    z_scott,
)
from topolab.mapspace import (
    DEFAULT_SIZE_CAP,
    ContMap,
    MapSet,
    enumerate_continuous,
    first_escape,
    o_z_family,
    relative_profile,
    slice_instances,
)
from topolab.reports import VerdictReport, fam_tag, pair_tag

COVER_BUDGET = 4096  # subfamilies; the walk below is skipped past this
MAX_COMPOSE_GROUND = 4096  # map pairs; the composite table is refused past this


def filter_topologies(n: int) -> list[tuple[Subset, ...]]:
    """Every subset family on n points passing the axioms, by raw filtration."""
    full = full_mask(n)
    subsets = list(range(1 << n))
    out = []
    for pick in range(1 << len(subsets)):
        fam = [s for s in subsets if (pick >> s) & 1]
        fset = set(fam)
        if 0 not in fset or full not in fset:
            continue
        if all((a | b) in fset and (a & b) in fset for a, b in combinations(fam, 2)):
            out.append(tuple(sorted(fam)))
    return sorted(out)


def literal_links(mins: tuple[Subset, ...]) -> list[tuple[list[int], list[int]]]:
    """For each point k of a space given by its minimal opens, the earlier
    points p whose minimal open holds k, and the earlier points q inside
    k's, each read by a bit test."""
    return [
        (
            [p for p in range(k) if (mins[p] >> k) & 1],
            [q for q in range(k) if (mins[k] >> q) & 1],
        )
        for k in range(len(mins))
    ]


def literal_monotone(x: FinSpace, below, width: int) -> list[tuple[int, ...]]:
    """Every assignment v of values 0..width-1 to the points of x, in
    `itertools.product` order, with v[q] in below[v[p]] for every point p
    and every other point q in p's minimal open. The relation need not be
    a preorder; a point is never tested against itself, so reflexivity is
    left to the relation."""
    mins = x.min_opens
    return [
        v
        for v in assignments(range(width), repeat=x.size)
        if all(
            (below[v[p]] >> v[q]) & 1
            for p in range(x.size)
            for q in bits(mins[p])
            if q != p
        )
    ]


def literal_canonical_encoding(n: int, encoding: tuple[Subset, ...]) -> tuple[Subset, ...]:
    """The least relabeling of an open family, by a scan over every
    permutation that relabels each open point by point."""
    best = None
    for perm in permutations(range(n)):
        relabeled = tuple(sorted(mask_of(perm[p] for p in bits(o)) for o in encoding))
        if best is None or relabeled < best:
            best = relabeled
    assert best is not None
    return best


def literal_alpha(h: frozenset[Subset], triggers: frozenset[Subset], opens: tuple[Subset, ...]) -> bool:
    """Upward closure of h inside the open-set lattice, fired from triggers."""
    for a in h:
        if a not in triggers:
            continue
        for v in opens:
            if a & ~v == 0 and v not in h:
                return False
    return True


def literal_beta(h: frozenset[Subset], pool: tuple[Subset, ...]) -> bool:
    """For every nonempty collection from the pool whose union lands in h,
    some nonempty finite subfamily's union lands in h. Fully quantified."""
    for sel in range(1, 1 << len(pool)):
        chosen = [pool[i] for i in bits(sel)]
        union = 0
        for c in chosen:
            union |= c
        if union not in h:
            continue
        if not _some_subfamily_union_in(chosen, h):
            return False
    return True


def literal_strong_beta(
    h: frozenset[Subset], pool: tuple[Subset, ...], full: Subset
) -> bool:
    """For every nonempty cover of the ground drawn from the pool, some
    nonempty finite subfamily's union lands in h. Fully quantified."""
    for sel in range(1, 1 << len(pool)):
        chosen = [pool[i] for i in bits(sel)]
        union = 0
        for c in chosen:
            union |= c
        if union != full:
            continue
        if not _some_subfamily_union_in(chosen, h):
            return False
    return True


def _some_subfamily_union_in(chosen: list[Subset], h: frozenset[Subset]) -> bool:
    for sub in range(1, 1 << len(chosen)):
        union = 0
        for i in bits(sub):
            union |= chosen[i]
        if union in h:
            return True
    return False


def literal_scott_families(x: FinSpace, triggers: tuple[Subset, ...], pool: tuple[Subset, ...], strong: bool) -> set[int]:
    """Qualifying family masks over the open-set ground, by the full literal
    quantifiers. Exponential; call on tiny spaces only."""
    ground = x.opens.members
    trig = frozenset(triggers)
    out = set()
    for hmask in range(1 << len(ground)):
        h = frozenset(ground[i] for i in bits(hmask))
        if not literal_alpha(h, trig, ground):
            continue
        if strong:
            if not literal_strong_beta(h, pool, x.full):
                continue
        else:
            if not literal_beta(h, pool):
                continue
        out.add(hmask)
    return out


def is_continuous_table(y: FinSpace, z: FinSpace, table: tuple[int, ...]) -> bool:
    for u in z.opens:
        pre = 0
        for p, v in enumerate(table):
            if (u >> v) & 1:
                pre |= 1 << p
        if not y.is_open(pre):
            return False
    return True


def literal_continuous(y: FinSpace, z: FinSpace) -> MapSet:
    """C(Y, Z) by filtering all |Z|^|Y| value tables, in `itertools.product`
    order, through the preimage test."""
    tables = assignments(range(z.size), repeat=y.size)
    return MapSet(y, z, tuple(t for t in tables if is_continuous_table(y, z, t)))


def literal_o_z_family(
    y: FinSpace, z: FinSpace, size_cap: int = DEFAULT_SIZE_CAP
) -> SubsetFamily:
    """O_Z(Y) by listing: the union of the preimage rows of C(Y, Z), the
    route `o_z_family` replaced by its closed form. The listing's point
    cap applies."""
    rows = enumerate_continuous(y, z, size_cap).preimage_rows
    return SubsetFamily.of(y.size, set().union(*rows.values()))


@lru_cache(maxsize=None)
def literal_covers(opens: tuple[Subset, ...], covered: Subset, target: Subset) -> bool:
    """Every irredundant cover of `covered` drawn from the opens has a
    nonempty subfamily covering `target`. Compactness of k is
    (opens, k, k); boundedness of b is (opens, full, b).

    Past COVER_BUDGET subfamilies the walk is not run and True stands in,
    the finite-ground answer; only discrete(4) and the larger function
    spaces get there.
    """
    if (1 << len(opens)) > COVER_BUDGET:
        return True
    for sel in range(1, 1 << len(opens)):
        chosen = [opens[i] for i in bits(sel)]
        if covered & ~_union(chosen):
            continue
        if any(
            covered & ~_union(chosen[:i] + chosen[i + 1 :]) == 0 for i in range(len(chosen))
        ):
            continue  # redundant: some member can go
        if not any(
            target & ~_union([chosen[i] for i in bits(sub)]) == 0
            for sub in range(1, 1 << len(chosen))
        ):
            return False
    return True


def _union(masks: list[Subset]) -> Subset:
    out = 0
    for m in masks:
        out |= m
    return out


def _compact(x: FinSpace, k: Subset) -> bool:
    return literal_covers(x.opens.members, k, k)


def _closure(x: FinSpace, a: Subset) -> Subset:
    return x.full & ~_union([o for o in x.opens if o & a == 0])


def _traces(x: FinSpace, u: Subset) -> tuple[Subset, ...]:
    """The opens of the subspace on u, kept on x's own point indices."""
    return tuple(sorted({o & u for o in x.opens}))


def literal_t2(x: FinSpace) -> bool:
    return all(
        any(
            (u >> p) & 1 and (v >> q) & 1 and u & v == 0
            for u in x.opens
            for v in x.opens
        )
        for p in range(x.size)
        for q in range(p + 1, x.size)
    )


def literal_regular(x: FinSpace) -> bool:
    """A point outside a closed set and the set have disjoint open
    neighbourhoods. Some pair is disjoint exactly when the least open
    around the point and the least open holding the set are, each the
    intersection of the opens listed around it; so this is polynomial in
    the open family, where `literal_regular_pairwise` tries every pair."""
    least_around = [_meet([u for u in x.opens if (u >> p) & 1]) for p in range(x.size)]
    for c in {x.full & ~o for o in x.opens}:
        v = _meet([u for u in x.opens if c & ~u == 0])
        if any(not (c >> p) & 1 and least_around[p] & v for p in range(x.size)):
            return False
    return True


def literal_regular_pairwise(x: FinSpace) -> bool:
    """`literal_regular` by its definition, every pair of opens tried for
    each closed set and point outside it: the oracle of that oracle,
    exponential in the points of a discrete space."""
    for c in {x.full & ~o for o in x.opens}:
        for p in range(x.size):
            if (c >> p) & 1:
                continue
            if not any(
                (u >> p) & 1 and c & ~v == 0 and u & v == 0
                for u in x.opens
                for v in x.opens
            ):
                return False
    return True


def _meet(masks: list[Subset]) -> Subset:
    # every list here holds the full ground, an open around any point
    out = masks[0]
    for m in masks:
        out &= m
    return out


def literal_partition_regular(mins: tuple[int, ...]) -> bool:
    """Regularity read off the minimal opens U_p point by point: every q
    in every U_p has U_q = U_p, so the U_p partition the ground."""
    return all(mins[q] == m for m in mins for q in bits(m))


def literal_locally_compact(x: FinSpace) -> bool:
    """Every open U around p shrinks to an open V around p with compact
    closure."""
    for p in range(x.size):
        for u in x.opens:
            if not (u >> p) & 1:
                continue
            if not any(
                (v >> p) & 1 and v & ~u == 0 and _compact(x, _closure(x, v))
                for v in x.opens
            ):
                return False
    return True


def literal_locally_bounded(x: FinSpace) -> bool:
    return _shrinks_to_bounded(x, x.opens, x, in_trace=False)


def literal_corecompact(x: FinSpace) -> bool:
    """As locally bounded, but boundedness of V is read in the subspace on
    U, not in x itself."""
    return _shrinks_to_bounded(x, x.opens, x, in_trace=True)


def literal_locally_z_bounded(y: FinSpace, oz: SubsetFamily, ztop: FinSpace) -> bool:
    """Neighbourhoods come from the preimage family itself, not its generated
    topology; boundedness is taken in the generated topology."""
    return _shrinks_to_bounded(y, oz, ztop, in_trace=False)


def literal_z_corecompact(y: FinSpace, oz: SubsetFamily, ztop: FinSpace) -> bool:
    """As locally Z-bounded, with boundedness read in the trace of the
    generated topology on U."""
    return _shrinks_to_bounded(y, oz, ztop, in_trace=True)


def _shrinks_to_bounded(y: FinSpace, pool, bound_in: FinSpace, in_trace: bool) -> bool:
    """Every open U of y around p contains some a from the pool around p
    that is bounded in `bound_in`, or in its trace on U."""
    for p in range(y.size):
        for u in y.opens:
            if not (u >> p) & 1:
                continue
            if in_trace:
                opens, covered = _traces(bound_in, u), u
            else:
                opens, covered = bound_in.opens.members, bound_in.full
            if not any(
                (a >> p) & 1 and a & ~u == 0 and literal_covers(opens, covered, a)
                for a in pool
            ):
                return False
    return True


def literal_profile(x: FinSpace) -> LocalProfile:
    """Every field by its definition: T0 and T1 by pairwise search over the
    opens, the rest by the predicates above."""
    pairs = [(p, q) for p in range(x.size) for q in range(x.size) if p != q]
    return LocalProfile(
        t0=all(any((o >> p & 1) != (o >> q & 1) for o in x.opens) for p, q in pairs),
        t1=all(any(o >> p & 1 and not o >> q & 1 for o in x.opens) for p, q in pairs),
        t2=literal_t2(x),
        regular=literal_regular(x),
        locally_compact=literal_locally_compact(x),
        locally_bounded=literal_locally_bounded(x),
        corecompact=literal_corecompact(x),
    )


def literal_containment_families(y: FinSpace) -> set[int]:
    """The families {opens containing K} for each of the 2^|Y| subsets K of
    y, as index masks over the opens of y."""
    ground = y.opens.members
    return {
        sum(1 << i for i, g in enumerate(ground) if k & ~g == 0)
        for k in range(y.full + 1)
    }


@lru_cache(maxsize=None)
def literal_cover_union_masks(
    ground: tuple[Subset, ...], pool: int, full: Subset
) -> tuple[int, ...]:
    """For each minimal cover of `full` drawn from the pool (an index mask
    over the ground), the index mask of every union of its nonempty
    subfamilies; the inclusion-minimal such masks, sorted. Walks all
    2^|pool| subfamilies."""
    idx = list(bits(pool))
    masks: list[int] = []
    for sel in range(1, 1 << len(idx)):
        union = 0
        for t in bits(sel):
            union |= ground[idx[t]]
        if union != full:
            continue
        chosen = [idx[t] for t in bits(sel)]
        redundant = False
        for skip in range(len(chosen)):
            rest = 0
            for t, g in enumerate(chosen):
                if t != skip:
                    rest |= ground[g]
            if rest == full:
                redundant = True
                break
        if redundant:
            continue
        reach = 0
        for sub in range(1, 1 << len(chosen)):
            u = 0
            for t in bits(sub):
                u |= ground[chosen[t]]
            reach |= 1 << ground.index(u)
        masks.append(reach)
    minimal = [
        m for m in set(masks) if not any(o != m and o & ~m == 0 for o in set(masks))
    ]
    return tuple(sorted(minimal))


@lru_cache(maxsize=None)
def literal_filtration(
    ground: tuple[Subset, ...], full: Subset, trigger: int, strong_pool: int | None
) -> frozenset[int]:
    """Hyperspace families over the open-set ground by scanning all 2^|ground|
    masks: (alpha) upward closure fired from the trigger indices and, when a
    strong pool is given, a member reachable from every minimal cover mask.
    The empty family passes the strong test by fiat, as in the package."""
    m = len(ground)
    up = [
        sum(1 << h for h, other in enumerate(ground) if g & ~other == 0) for g in ground
    ]
    cover_masks: tuple[int, ...] = ()
    if strong_pool is not None:
        cover_masks = literal_cover_union_masks(ground, strong_pool, full)
    out = set()
    for family in range(1 << m):
        if any(up[g] & ~family for g in bits(family & trigger)):
            continue
        if strong_pool is not None and family != 0:
            if any(family & cm == 0 for cm in cover_masks):
                continue
        out.add(family)
    return frozenset(out)


def literal_lift(maps, ground: tuple[Subset, ...], families) -> set[int]:
    """Subbasics {f : preimage of u lies in the family}, one family at a time:
    each family's members collected into a set, each map tested against it."""
    subbasis = set()
    for u in maps.codomain.opens:
        rows = maps.preimage_rows[u]
        for fam in families:
            members = {ground[i] for i in bits(fam)}
            mask = 0
            for i, pre in enumerate(rows):
                if pre in members:
                    mask |= 1 << i
            subbasis.add(mask)
    return subbasis


def listed_family_lift(maps, index: dict[Subset, int], families) -> set[int]:
    """The lift bracket over an explicitly listed family of families, as the
    package ran it before topologies were lifted off their minimal opens:
    per codomain open the maps are grouped by the index of their preimage,
    and each family's trace on the occurring indices is lifted once."""
    subbasis = set()
    for u in maps.codomain.opens:
        by_pre: dict[int, int] = {}
        for i, pre in enumerate(maps.preimage_rows[u]):
            g = index[pre]
            by_pre[g] = by_pre.get(g, 0) | (1 << i)
        occurring = sum(1 << g for g in by_pre)
        for proj in {fam & occurring for fam in families}:
            mask = 0
            for g in bits(proj):
                mask |= by_pre[g]
            subbasis.add(mask)
    return subbasis


def literal_kset_subbasis(maps) -> set[int]:
    """Subbasics {f : f(K) inside u} for every subset K of the domain."""
    subbasis = set()
    for u in maps.codomain.opens:
        rows = maps.preimage_rows[u]
        for k in range(maps.domain.full + 1):
            mask = 0
            for i, pre in enumerate(rows):
                if k & ~pre == 0:
                    mask |= 1 << i
            subbasis.add(mask)
    return subbasis


def meets_of(n: int, subbasis) -> tuple[int, ...]:
    """For each of n points, the intersection of the subbasics holding it,
    the full ground when none does: the minimal opens they generate."""
    out = []
    for p in range(n):
        meet = full_mask(n)
        for m in subbasis:
            if (m >> p) & 1:
                meet &= m
        out.append(meet)
    return tuple(out)


def listed_lift_min_opens(maps, index: dict[Subset, int], families) -> tuple[int, ...]:
    """Minimal opens of a lift as the package found them before it pulled
    them in closed form: every listed family lifted, then met per map."""
    return meets_of(len(maps), listed_family_lift(maps, index, families))


def named_hyperspace(name: str, y: FinSpace, z: FinSpace):
    """The hyperspace a named topology lifts: for co and coZ, the topology
    the containment families generate."""
    if name in ("co", "coZ"):
        return compact_subbasis_topology(y)
    if name == "isbell":
        return scott(y)
    if name == "sisbell":
        return strong_scott(y)
    if name == "t1z":
        return z_scott(y, z)
    return strong_z_scott(y, z)


def listed_named_min_opens(name: str, y: FinSpace, z: FinSpace) -> tuple[int, ...]:
    """Minimal opens of a named topology by its listed subbasis: the
    containment subbasics for co and coZ, else every open family of the
    named hyperspace, lifted and met per map."""
    maps = enumerate_continuous(y, z)
    if name in ("co", "coZ"):
        return meets_of(len(maps), literal_kset_subbasis(maps))
    h = named_hyperspace(name, y, z)
    return listed_lift_min_opens(maps, h.ground_index, h.opens)


def map_index(maps) -> dict[tuple[int, ...], int]:
    """Each value table of a map set to its position, the index every
    witness names: a lookup the package itself never needs."""
    return {t: i for i, t in enumerate(maps.tables)}


def family_mask(hs, members) -> int:
    """The index mask over the ground of the hyperspace hs of the given
    members of that ground: a lookup the package itself never needs."""
    mask = 0
    for mem in members:
        mask |= 1 << hs.ground_index[mem]
    return mask


def literal_pointwise(maps) -> tuple[int, ...]:
    """The pointwise minimal opens by preimages: j is in row i iff each
    preimage under map i lies inside map j's preimage of the same open."""
    opens = maps.codomain.opens
    return tuple(
        sum(
            1 << j
            for j, g in enumerate(maps)
            if all(f.preimage(u) & ~g.preimage(u) == 0 for u in opens)
        )
        for f in maps
    )


def literal_refute_splitting(t, max_x: int = 3, symmetry_reduction: bool = True) -> VerdictReport:
    """The splitting refutation one slice assignment at a time: every member
    of Σ_X |maps|^n in `itertools.product` order, each tested pair by pair
    for joint continuity and then for continuity of its transpose."""
    if max_x > 4:
        raise BudgetExceeded(f"max_x of {max_x} exceeds 4")
    maps = t.maps
    y = maps.domain
    mins_t = t.min_opens
    nmaps = len(maps)
    # below[i] holds j when every preimage row of i sits inside the matching
    # row of j; a slice may then specialize from i to j without breaking
    # joint continuity
    below = []
    for i in range(nmaps):
        m = 0
        for j in range(nmaps):
            if all(rows[i] & ~rows[j] == 0 for rows in maps.preimage_rows.values()):
                m |= 1 << j
        below.append(m)
    examined = 0
    continuous = 0
    witnesses = []
    for n in range(1, max_x + 1):
        for xspace in enumerate_topologies(n, up_to_iso=symmetry_reduction):
            xmins = xspace.min_opens
            for combo in assignments(range(nmaps), repeat=n):
                examined += 1
                if not all(
                    (below[combo[p]] >> combo[q]) & 1
                    for p in range(n)
                    for q in bits(xmins[p])
                ):
                    continue
                continuous += 1
                if all(
                    (mins_t[combo[p]] >> combo[q]) & 1
                    for p in range(n)
                    for q in bits(xmins[p])
                ):
                    continue
                table = tuple(maps[combo[p]](q) for p in range(n) for q in range(y.size))
                witnesses.append((xspace.opens.members, table))
    return VerdictReport(
        claim=f"splitting:{t.provenance} {pair_tag(y, maps.codomain)}",
        status="fails" if witnesses else "inconclusive",
        hypothesis_true_count=continuous,
        instance_count=examined,
        witnesses=tuple(witnesses),
        budget=(("max_x", max_x), ("symmetry_reduction", symmetry_reduction)),
    )


def _transpose(rel) -> list[int]:
    return [sum(1 << i for i, row in enumerate(rel) if (row >> j) & 1) for j in range(len(rel))]


def _continuous_slices(x: FinSpace, hypothesis, conclusion, nmaps: int) -> tuple[int, list]:
    """Depth-first over the points 0..n-1 of X, each trying its maps in
    ascending order. Returns the number of assignments meeting the
    hypothesis and, in `itertools.product` order, those breaking the
    conclusion: one (slices of points 0..n-2, mask of the last point's
    breaking maps) each.

    Both relations are (below, above) pairs, a relation and its transpose,
    the hypothesis being `MapSet.pointwise` and its transpose. Point k
    may take map c when c is in below[combo[p]] for every earlier p whose
    minimal open holds k, and in above[combo[q]] for every earlier q inside
    k's minimal open, the points X's `links` name. The last point's
    candidates are counted, not visited.
    """
    below, above = hypothesis
    c_below, c_above = conclusion
    links = x.links
    last = len(links) - 1
    full = full_mask(nmaps)
    count = 0
    broken_out = []
    # (slices of points 0..k-1, whether they already break the conclusion)
    stack = [((), False)]
    while stack:
        combo, broken = stack.pop()
        ups, downs = links[len(combo)]
        cand = c_cand = full
        for p in ups:
            cand &= below[combo[p]]
            c_cand &= c_below[combo[p]]
        for q in downs:
            cand &= above[combo[q]]
            c_cand &= c_above[combo[q]]
        if len(combo) == last:
            tails = cand if broken else cand & ~c_cand
            if tails:
                broken_out.append((combo, tails))
            count += popcount(cand)
            continue
        # pushed high to low, so the lowest map comes off the stack first
        for c in reversed(list(bits(cand))):
            stack.append((combo + (c,), broken or not (c_cand >> c) & 1))
    return count, broken_out


def searched_refute_splitting(
    t, max_x: int = 3, symmetry_reduction: bool = True
) -> VerdictReport:
    """The splitting refutation by the slice search on every call, with
    its own count: every test space is walked once by `_continuous_slices`,
    with joint continuity as the hypothesis and continuity into t as the
    conclusion tracked along the same walk."""
    maps = t.maps
    instances = slice_instances(len(maps), max_x, symmetry_reduction)
    joint = (maps.pointwise, _transpose(maps.pointwise))
    into_t = (t.min_opens, _transpose(t.min_opens))
    continuous = 0
    witnesses = []
    for n in range(1, max_x + 1):
        for xspace in enumerate_topologies(n, up_to_iso=symmetry_reduction):
            count, broken = _continuous_slices(xspace, joint, into_t, len(maps))
            continuous += count
            for head, tails in broken:
                prefix = sum((maps.tables[i] for i in head), ())
                for i in bits(tails):
                    witnesses.append((xspace.opens.members, prefix + maps.tables[i]))
    return VerdictReport.of(
        f"splitting:{t.provenance} {pair_tag(maps.domain, maps.codomain)}",
        witnesses,
        continuous,
        instances,
        budget=(("max_x", max_x), ("symmetry_reduction", symmetry_reduction)),
        clean="inconclusive",
    )


def _monotone(xspace: FinSpace, targets_min: tuple[int, ...], row: tuple[int, ...]) -> bool:
    # continuity between finite spaces = specialization monotonicity
    mins = xspace.min_opens
    for p in range(xspace.size):
        for q in bits(mins[p]):
            if not (targets_min[row[p]] >> row[q]) & 1:
                return False
    return True


def literal_admissible_direct(tau, maps, max_x: int) -> VerdictReport:
    """Direct admissibility of a dual one assignment at a time: each member of
    Σ_X |maps|^n in `itertools.product` order, its preimage rows tested for
    continuity into tau, and the adjoint built on the product space and tested
    for continuity. Stops at the first violation."""
    y = tau.y
    z = tau.z
    dual_min = tau.as_space().min_opens
    gidx = tau.ground_index
    claim = f"ozy-admissible mode=direct_bounded max_x={max_x} {pair_tag(y, z)}"
    instances = 0
    hypothesis_true = 0
    for n in range(1, max_x + 1):
        for xspace in enumerate_topologies(n, up_to_iso=True):
            prod = product(xspace, y)
            for g in assignments(range(len(maps)), repeat=n):
                instances += 1
                rows_ok = True
                for u in z.opens:
                    pre = maps.preimage_rows[u]
                    row = tuple(gidx[pre[g[p]]] for p in range(n))
                    if not _monotone(xspace, dual_min, row):
                        rows_ok = False
                        break
                if not rows_ok:
                    continue
                hypothesis_true += 1
                table = tuple(
                    maps[g[p]](q) for p in range(n) for q in range(y.size)
                )
                if not ContMap(prod, z, table).is_continuous():
                    return VerdictReport(
                        claim=claim,
                        status="fails",
                        hypothesis_true_count=hypothesis_true,
                        instance_count=instances,
                        witnesses=(
                            (
                                "x_opens",
                                tuple(xspace.opens.members),
                                "assignment",
                                tuple(maps[i].table for i in g),
                            ),
                        ),
                        budget=(("max_x", max_x),),
                    )
    return VerdictReport(
        claim=claim,
        status="inconclusive",
        hypothesis_true_count=hypothesis_true,
        instance_count=instances,
        budget=(("max_x", max_x),),
    )


def literal_compare_topologies(a, b) -> Comparison:
    """Containment both ways, every subbasic of each side tested for
    openness in the other."""
    a_only = tuple(sorted(s for s in set(a.subbasis) if not b.is_open_mask(s)))
    b_only = tuple(sorted(s for s in set(b.subbasis) if not a.is_open_mask(s)))
    if not a_only and not b_only:
        return Comparison("equal", (), ())
    if not a_only:
        return Comparison("a_coarser", (), b_only)
    if not b_only:
        return Comparison("a_finer", a_only, ())
    return Comparison("incomparable", a_only, b_only)


def literal_evaluation_witness(t) -> int | None:
    """The first codomain open W whose evaluation preimage is not open in
    the product, each W tested by row containment over every map and every
    map in its minimal t-neighborhood."""
    z = t.maps.codomain
    mins = t.min_opens
    for w in z.opens:
        rows = t.maps.preimage_rows[w]
        ok = True
        for i, row in enumerate(rows):
            if not ok:
                break
            for j in bits(mins[i]):
                if row & ~rows[j]:
                    ok = False
                    break
        if not ok:
            return w
    return None


def literal_splitting_order_row(table) -> VerdictReport:
    """The suite's splitting-order row by search: every topology below the
    pointwise one compared with every admissible one, pair by pair, each
    comparison counted with its pair's weight. It reads only the pairs and
    weights of the suite's table and builds each named topology itself."""
    checked = 0
    pairs = 0
    witnesses = []
    for y, z, _, weight in table:
        pairs += weight
        ts = [named_function_topology(name, y, z) for name in NAMED]
        candidates = [
            t for t in ts if first_escape(t.maps.pointwise, t.min_opens) is None
        ]
        admissible = [t for t in ts if evaluation_witness(t) is None]
        for t in candidates:
            for t2 in admissible:
                checked += weight
                v = compare_topologies(t, t2).verdict
                if v not in ("equal", "a_coarser"):
                    witnesses.append((pair_tag(y, z), t.provenance, t2.provenance, v))
    return VerdictReport.of(
        "grid:splitting-candidates-below-admissible",
        witnesses,
        checked,
        checked,
        budget=(("max_x", 2), ("pairs", pairs)),
    )


def literal_refinement_row(samples: int, seed: int, max_y: int, max_z: int) -> VerdictReport:
    """The suite's refinement row by sampling: seeded random refinements of
    each admissible named base, each built and checked for admissibility."""
    rng = random.Random(seed)
    bases = []
    if max_y >= 2 and max_z >= 2:
        bases = [(sierpinski(), sierpinski()), (chain(2), discrete(2))]
    checked = 0
    admissible_bases = 0
    witnesses = []
    for y, z in bases:
        for name in NAMED:
            t = named_function_topology(name, y, z)
            if evaluation_witness(t) is not None:
                continue
            admissible_bases += 1
            for _ in range(samples):
                extra = tuple(
                    rng.randrange(t.full + 1) for _ in range(rng.randint(1, 3))
                )
                finer = FnTopology.of(t.maps, t.min_opens + extra)
                checked += 1
                if evaluation_witness(finer) is not None:
                    witnesses.append((pair_tag(y, z), name, extra))
    return VerdictReport.of(
        "admissible:refinement-monotone",
        witnesses,
        checked,
        checked,
        budget=(("bases", admissible_bases), ("samples", samples), ("seed", seed)),
    )


def literal_dual_rows(table) -> list[VerdictReport]:
    """Admissibility of each named t against that of its dual tau, over the
    pairs of the suite's table, each named topology built here and each
    instance counted with its pair's weight.

    The last two rows coincide by construction: "via_dual" admissibility of
    tau is the evaluation check on t_of_tau(tau), the round trip itself, so
    one computation serves both and both claims stay on record. Both
    verdicts read only t's maps and minimal opens, so each pair decides
    one dual per distinct carrier, however many names share it; every
    name still counts as an instance.
    """
    forward_wit = []
    equiv_wit = []
    forward_hyp = 0
    instances = 0
    for y, z, _, weight in table:
        verdicts = _per_carrier(y, z, _dual_verdicts)
        for name in NAMED:
            instances += weight
            t_ok, tau_ok = verdicts[name]
            if t_ok:
                forward_hyp += weight
                if not tau_ok:
                    forward_wit.append((pair_tag(y, z), name))
            if t_ok != tau_ok:
                equiv_wit.append((pair_tag(y, z), name))
    claim = "dual:admissible-implies-dual-admissible"
    rows = [VerdictReport.of(claim, forward_wit, forward_hyp, instances)]
    for claim in ("dual:named-equivalence-t-tau", "dual:named-equivalence-t-round-trip"):
        rows.append(VerdictReport.of(claim, equiv_wit, instances, instances))
    return rows


def labeled_theorem_suite(
    max_y: int = 3,
    max_z: int = 2,
    refinement_samples: int = DEFAULT_REFINEMENT_SAMPLES,
    seed: int = 0,
) -> list[VerdictReport]:
    """`theorem_suite` with its pair rows decided on every labeled pair:
    the suite's own `_pair_rows` over `suite_spaces`, each space deciding
    for itself, then the refinement and divergence rows as the suite adds
    them. It makes no class pass, so it reads neither `space_axes` nor
    `SpaceAxis.labeled`, the hooks a test spies on. The
    row builders and the named topologies are looked up through `checkers`
    at call time, so a test that patches one patches both suites."""
    ys, zs = checkers.suite_spaces(max_y, max_z)
    out = checkers._pair_rows(SpaceAxis.own(ys), SpaceAxis.own(zs))
    out.append(checkers._refinement_row(refinement_samples, seed, max_y, max_z))
    out.extend(checkers._divergence_rows())
    return out


def labeled_question_search(qid: str, max_y: int = 3, max_z: int = 2) -> QuestionProbe:
    """`question_search` with every labeled space its own class: the
    probe's own runner over `suite_spaces`, each labeled pair (or triple)
    decided for itself, and the probe's explanation rule: its clean
    explanation when every row holds, "" otherwise. Like
    `labeled_theorem_suite` it reads neither `space_axes` nor
    `SpaceAxis.labeled`. Out-of-scope and unknown ids answer as the
    package's do. The runners are looked up through `explorer` at call
    time, so a test that patches a build patches both routes."""
    if qid not in explorer._RUNNERS:
        return explorer.question_search(qid, max_y, max_z)
    run, clean = explorer._RUNNERS[qid]
    rows = run(*(SpaceAxis.own(group) for group in checkers.suite_spaces(max_y, max_z)))
    explanation = clean if all(row.status == "holds" for row in rows) else ""
    return QuestionProbe(
        id=qid, bounds=(max_y, max_z), result=tuple(rows), explanation=explanation
    )


def _per_carrier(y: FinSpace, z: FinSpace, decide) -> dict:
    """decide(t) for each named topology t of the pair, computed once per
    distinct carrier: exact for any decide that reads only t.maps and
    t.min_opens, the maps being the pair's. It assumes nothing about which
    names share a carrier."""
    by_carrier = {}
    out = {}
    for name in NAMED:
        t = named_function_topology(name, y, z)
        if t.min_opens not in by_carrier:
            by_carrier[t.min_opens] = decide(t)
        out[name] = by_carrier[t.min_opens]
    return out


def _dual_verdicts(t: FnTopology) -> tuple[bool, bool]:
    """Whether t is admissible, and whether its dual tau_of_t(t) is."""
    tau_ok = is_admissible_on_ozy(tau_of_t(t), t.maps).status == "holds"
    return evaluation_witness(t) is None, tau_ok


def literal_composition_check(
    x: FinSpace, y: FinSpace, z: FinSpace, kinds: tuple[str, str, str]
) -> VerdictReport:
    """Composition continuity one target subbasic, one pair (i, j) and one
    neighbouring pair (i2, j2) at a time, each composite built by calling
    the two maps point by point; raises BudgetExceeded past
    MAX_COMPOSE_GROUND pairs. `checkers.composition_check` decides the
    named triples by three containments instead and keeps no walk."""
    if len(kinds) != 3:
        raise ValueError(f"expected three topology kinds, got {kinds!r}")
    t_xy = named_function_topology(kinds[0], x, y)
    t_yz = named_function_topology(kinds[1], y, z)
    t_xz = named_function_topology(kinds[2], x, z)
    a, b, c = t_xy.maps, t_yz.maps, t_xz.maps
    if len(a) * len(b) > MAX_COMPOSE_GROUND:
        raise BudgetExceeded(
            f"composition ground of {len(a) * len(b)} pairs exceeds {MAX_COMPOSE_GROUND}"
        )
    where = map_index(c)
    comp = [
        [where[tuple(b[j](a[i](p)) for p in range(x.size))] for j in range(len(b))]
        for i in range(len(a))
    ]
    mins_a = t_xy.min_opens
    mins_b = t_yz.min_opens
    witnesses = []
    for s in t_xz.subbasis:
        hit = None
        for i in range(len(a)):
            if hit:
                break
            for j in range(len(b)):
                if not (s >> comp[i][j]) & 1:
                    continue
                escape = next(
                    (
                        (i2, j2)
                        for i2 in bits(mins_a[i])
                        for j2 in bits(mins_b[j])
                        if not (s >> comp[i2][j2]) & 1
                    ),
                    None,
                )
                if escape is not None:
                    hit = ("open", s, "at", (i, j), "escapes", escape)
                    break
        if hit:
            witnesses.append(hit)
    rp = relative_profile(y, z)
    hyp_name = _COMPOSE_HYPOTHESIS[kinds[1]]
    return VerdictReport(
        claim=(
            f"compose:{','.join(kinds)} x={fam_tag(x)} y={fam_tag(y)} z={fam_tag(z)}"
        ),
        status="fails" if witnesses else "holds",
        hypothesis_true_count=int(getattr(rp, hyp_name)),
        instance_count=1,
        witnesses=tuple(witnesses),
        budget=(
            ("hypothesis", hyp_name),
            ("locally_z_bounded", rp.locally_z_bounded),
            ("locally_z_compact", rp.locally_z_compact),
            ("z_corecompact", rp.z_corecompact),
        ),
    )


def literal_characteristic_homeomorphism(y: FinSpace, s: FinSpace) -> bool:
    """f -> f^{-1}(open point) of S against the compact-subbasis hyperspace
    of y, open for open: both open families listed, every open carried."""
    t = named_function_topology("coZ", y, s)
    hs = compact_subbasis_topology(y)
    open_point = next(m for m in s.opens.members if m not in (0, s.full))
    perm = [hs.ground_index[f.preimage(open_point)] for f in t.maps]
    image = {sum(1 << perm[i] for i in bits(m)) for m in t.opens.members}
    return image == set(hs.opens.members)


def literal_tau_opens(t) -> tuple[Subset, ...]:
    """The opens of the dual of t, generated from one seed per t-open and
    codomain open, every t-open materialized."""
    y = t.maps.domain
    z = t.maps.codomain
    ground = o_z_family(y, z).members
    index = {g: i for i, g in enumerate(ground)}
    seeds = set()
    for u in z.opens:
        rows = t.maps.preimage_rows[u]
        for h in t.opens:
            fam = 0
            for i in bits(h):
                fam |= 1 << index[rows[i]]
            seeds.add(fam)
    return literal_generate(len(ground), seeds)


def literal_generate(size: int, family) -> tuple[Subset, ...]:
    """The topology generated by a subbasis: every finite intersection of
    its members (the full ground for the empty one), then every union of
    those (the empty set for the empty one), each closed by a worklist."""
    return tuple(sorted(_close_under_union(_close_under_intersection(size, tuple(family)))))


def _close_under_intersection(size: int, seeds: tuple[Subset, ...]) -> frozenset[Subset]:
    acc = {full_mask(size)}
    work = list(seeds)
    while work:
        m = work.pop()
        if m in acc:
            continue
        fresh = [m & a for a in acc if (m & a) not in acc and m & a != m]
        acc.add(m)
        work.extend(fresh)
    return frozenset(acc)


def _close_under_union(seeds) -> frozenset[Subset]:
    acc = {0}
    work = list(seeds)
    while work:
        m = work.pop()
        if m in acc:
            continue
        fresh = [m | a for a in acc if (m | a) not in acc and m | a != m]
        acc.add(m)
        work.extend(fresh)
    return frozenset(acc)


def literal_space_check(size: int, opens) -> tuple[str, tuple[int, ...]] | None:
    """None when the family is a topology, else the message and witness of
    its first failing axiom: the empty set, the ground, then every pair of
    members in order, union before intersection."""
    fam = SubsetFamily.of(size, opens)
    full = full_mask(size)
    if 0 not in fam:
        return "empty set missing", (0,)
    if full not in fam:
        return "full ground missing", (full,)
    members = fam.members
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if (a | b) not in fam:
                return "union escapes the family", (a, b)
            if (a & b) not in fam:
                return "intersection escapes the family", (a, b)
    return None
