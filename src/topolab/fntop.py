"""Topologies on sets of continuous maps.

The ground is a MapSet in its canonical order, opens are bit-vectors over map
indices, and a topology is carried by its subbasis. Minimal neighborhoods are
computable straight from the subbasis, and every verdict is read off them
without materializing the open family: containment is one mask test per map
each way, evaluation is continuous iff each minimal open lies inside the
pointwise one (`MapSet.joint`), and the separation profile is the one
`finspace` reads off a space's minimal opens. The slower walks run only to
name the witnesses of a failing check. The family itself is built on demand
under a budget.

Two subbasis styles appear: restriction sets {f : f(K) included in U} with K a
compact subset of the domain, and lifted sets {f : the preimage of U lies in a
chosen family of domain opens}. On finite grounds every subset is compact, so
the plain and domain-relative compact ranges coincide; the provenance tag
records which route produced a topology so reports can say so.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from typing import Callable, Collection, Iterable

from .errors import BudgetExceeded, MismatchedBase, MismatchedGround, NotATopology
from .finspace import (
    FinSpace,
    LocalProfile,
    Subset,
    SubsetFamily,
    _enumerate_upsets,
    bits,
    full_mask,
    meets_by_point,
    min_open_profile,
)
from .hypertop import (
    HyperSpace,
    containment_families,
    scott,
    strong_scott,
    strong_z_scott,
    z_scott,
)
from .mapspace import MapSet, enumerate_continuous

DEFAULT_OPENS_BUDGET = 1024

NAMED = ("co", "coZ", "isbell", "sisbell", "t1z", "t1sz")


@dataclass(frozen=True)
class FnTopology:
    """A topology on a MapSet, generated by the stored subbasis."""

    maps: MapSet
    subbasis: tuple[int, ...]
    provenance: str = "custom"

    @classmethod
    def of(cls, maps: MapSet, subbasis, provenance: str = "custom") -> "FnTopology":
        full = full_mask(len(maps))
        ordered = tuple(sorted(set(subbasis)))
        stray = tuple(m for m in ordered if m < 0 or m & ~full)
        if stray:
            raise NotATopology("subbasis member escapes the map ground", stray)
        return cls(maps, ordered, provenance)

    @cached_property
    def full(self) -> int:
        return full_mask(len(self.maps))

    @cached_property
    def min_opens(self) -> tuple[int, ...]:
        """Smallest open around each map: the intersection of the subbasis
        members containing it. Exact, since that intersection is basic."""
        return meets_by_point(len(self.maps), self.subbasis)

    @cached_property
    def profile(self) -> LocalProfile:
        """The separation profile of the materialized space, read off the
        minimal opens as `finspace` reads it for a FinSpace."""
        return min_open_profile(self.min_opens)

    def is_open_mask(self, mask: int) -> bool:
        if mask < 0 or mask & ~self.full:
            return False
        return all(self.min_opens[i] & ~mask == 0 for i in bits(mask))

    def materialize(self, budget: int = DEFAULT_OPENS_BUDGET) -> SubsetFamily:
        """Every open, as an up-set of the minimal opens; past `budget`
        members it raises instead of listing further."""
        n = len(self.maps)
        opens = sorted(islice(_enumerate_upsets(n, self.min_opens), budget + 1))
        if len(opens) > budget:
            raise BudgetExceeded(
                f"open family exceeds {budget} members; raise the budget "
                "to materialize"
            )
        return SubsetFamily(n, tuple(opens))

    @cached_property
    def opens(self) -> SubsetFamily:
        return self.materialize()

    def as_space(self) -> FinSpace:
        labels = tuple(",".join(str(v) for v in t) for t in self.maps.tables)
        return FinSpace(len(self.maps), self.opens, labels)


def lift_families(
    maps: MapSet, index: dict[Subset, int], families: Collection[int]
) -> set[int]:
    """The bracket shared by every lift: for each codomain open u and each
    family (a mask over the indices of `index`), the mask of the maps whose
    preimage of u lies in the family."""
    return _lift(maps, index, lambda occurring: {f & occurring for f in families})


def lift_upsets(
    maps: MapSet, index: dict[Subset, int], mins: tuple[int, ...]
) -> set[int]:
    """`lift_families` over every open of the topology with minimal opens
    `mins` on the indices of `index`, without listing them: the traces of
    its opens on a set of indices are the up-sets of `mins` restricted
    there, listed straight off `mins`."""
    m = len(mins)
    return _lift(maps, index, lambda occurring: _enumerate_upsets(m, mins, occurring))


def _lift(
    maps: MapSet, index: dict[Subset, int], traces: Callable[[int], Iterable[int]]
) -> set[int]:
    """Per u, the maps are grouped by the index of their preimage, so a
    family's subbasic is the OR of the groups at its set bits and depends
    only on its trace on the indices that occur. `traces(occurring)` yields
    the distinct traces, each lifted once."""
    subbasis = set()
    for u in maps.codomain.opens:
        by_pre: dict[int, int] = {}  # keyed by the index's bit
        for i, pre in enumerate(maps.preimage_rows[u]):
            g = 1 << index[pre]
            by_pre[g] = by_pre.get(g, 0) | (1 << i)
        for proj in traces(sum(by_pre)):
            mask = 0
            while proj:  # the bits of proj, inlined: this runs once per trace
                low = proj & -proj
                mask |= by_pre[low]
                proj ^= low
            subbasis.add(mask)
    return subbasis


def lift_open_family(
    h: HyperSpace, maps: MapSet, provenance: str = "custom"
) -> FnTopology:
    """Subbasis sets {f : the preimage of U under f lies in the family}, one
    for each open family of the hyperspace and each codomain open."""
    if h.base != maps.domain:
        raise MismatchedBase("hyperspace base differs from the map domain")
    return FnTopology.of(maps, lift_upsets(maps, h.ground_index, h.min_opens), provenance)


def kset_topology(maps: MapSet, compactness: str = "plain") -> FnTopology:
    """Subbasis sets {f : f(K) included in U}. K ranges over the subsets
    compact in the domain (plain) or in the topology the codomain induces on
    it (z_relative). On a finite ground every subset is compact in both, so K
    ranges over every subset of Y and the provenance records the route.

    f(K) lies in U exactly when the preimage of U contains K, so this is the
    lift of the families {opens containing K}."""
    y = maps.domain
    if compactness == "plain":
        provenance = "co"
    elif compactness == "z_relative":
        provenance = "coZ"
    else:
        raise ValueError(f"unknown compactness {compactness!r}")
    index = {u: g for g, u in enumerate(y.opens)}
    subbasis = lift_families(maps, index, containment_families(y))
    return FnTopology.of(maps, subbasis, provenance)


@lru_cache(maxsize=None)
def named_function_topology(name: str, y: FinSpace, z: FinSpace) -> FnTopology:
    maps = enumerate_continuous(y, z)
    if name == "co":
        return kset_topology(maps, "plain")
    if name == "coZ":
        return kset_topology(maps, "z_relative")
    if name == "isbell":
        return lift_open_family(scott(y), maps, "isbell")
    if name == "sisbell":
        return lift_open_family(strong_scott(y), maps, "sisbell")
    if name == "t1z":
        return lift_open_family(z_scott(y, z), maps, "t1z")
    if name == "t1sz":
        return lift_open_family(strong_z_scott(y, z), maps, "t1sz")
    raise ValueError(f"unknown topology name {name!r}; expected one of {NAMED}")


@dataclass(frozen=True)
class Comparison:
    verdict: str  # equal | a_coarser | a_finer | incomparable
    a_only: tuple[int, ...]  # opens of a that b lacks
    b_only: tuple[int, ...]


def compare_topologies(a: FnTopology, b: FnTopology) -> Comparison:
    """Containment both ways, decided on minimal opens: a is contained in b
    iff b's minimal open around each map lies inside a's, since every a-open
    is the union of a's minimal opens around its maps. Only a direction that
    fails names its witnesses: the subbasics of one side that are not open
    in the other, which exist exactly then, opens being unions of finite
    meets of subbasics."""
    if a.maps != b.maps:
        raise MismatchedGround("topologies live on different map sets")
    a_only = b_only = ()
    if not _coarser(a, b):
        a_only = tuple(sorted(s for s in set(a.subbasis) if not b.is_open_mask(s)))
    if not _coarser(b, a):
        b_only = tuple(sorted(s for s in set(b.subbasis) if not a.is_open_mask(s)))
    if not a_only and not b_only:
        return Comparison("equal", (), ())
    if not a_only:
        return Comparison("a_coarser", (), b_only)
    if not b_only:
        return Comparison("a_finer", a_only, ())
    return Comparison("incomparable", a_only, b_only)


def _coarser(a: FnTopology, b: FnTopology) -> bool:
    """Whether every a-open is b-open."""
    return all(bm & ~am == 0 for am, bm in zip(a.min_opens, b.min_opens))


def evaluation_witness(t: FnTopology) -> int | None:
    """A codomain open whose evaluation preimage fails to be open in the
    product of the domain with t, or None when evaluation is continuous.

    The preimage is a union of rows {p in domain : f(p) in W} indexed by maps;
    it is product-open iff every row is contained in the rows of every map in
    the minimal t-neighborhood, rows themselves being domain-open already.
    Over all W at once that says the minimal t-open around each map i lies
    inside the maps whose every preimage contains the matching preimage of
    i. That set is i's minimal open in the pointwise topology,
    `MapSet.joint[0][i]`. So evaluation is continuous iff t contains the
    pointwise topology, decided by one mask test per map; the per-W walk
    runs only to name the first failing W.
    """
    mins = t.min_opens
    if all(m & ~pw == 0 for m, pw in zip(mins, t.maps.joint[0])):
        return None
    z = t.maps.codomain
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
