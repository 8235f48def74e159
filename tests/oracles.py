"""Independent brute-force oracles.

Everything here recomputes results by unoptimized, definition-shaped searches
so the package's faster routes have something honest to agree with. Keep these
free of package internals beyond plain data types.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from itertools import product as assignments

from topolab.errors import BudgetExceeded
from topolab.finspace import (
    FinSpace,
    LocalProfile,
    Subset,
    SubsetFamily,
    bits,
    enumerate_topologies,
    full_mask,
    product,
)
from topolab.mapspace import ContMap
from topolab.reports import VerdictReport, pair_tag

COVER_BUDGET = 4096  # subfamilies; the walk below is skipped past this


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
    neighbourhoods."""
    for c in x.closed_sets:
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
