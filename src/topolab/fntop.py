"""Topologies on sets of continuous maps.

The ground is a MapSet in its canonical order, opens are bit-vectors over map
indices, and a topology is carried by its minimal opens, the least open
around each map; its subbasis is listed on demand. A named topology lifts a
topology on the domain's opens through preimages. On a finite domain all
six are the pointwise topology (README "The finite collapse"), so each
carries `MapSet.pointwise` and records only its name; its hyperspace is
built when the subbasis is read, and no verdict reads it.
Any other lift, `lift_open_family` and the dual's `t_of_tau`, commutes
with meets, so its minimal opens are one `MapSet.pull` of the
hyperspace's. The pull and the subbasis listing both read the maps grouped
by preimage from `MapSet.bracket`, the one place that groups them. Every
verdict is read off the minimal opens without materializing the open
family: containment is one mask test per map each way (`first_escape`,
for the one direction a caller reads, answered at once when a topology
carries `MapSet.pointwise` itself), evaluation is continuous iff each
minimal open lies inside the pointwise one, and the separation profile
is the one `finspace` reads off a space's minimal opens. The subbasis walks
run only to name the witnesses of a failing check. The family itself is
built on demand under a budget.

Two subbasis styles appear: restriction sets {f : f(K) included in U} with K a
compact subset of the domain, and lifted sets {f : the preimage of U lies in a
chosen family of domain opens}. On finite grounds every subset is compact, so
the plain and domain-relative compact ranges coincide; the provenance tag
records which route produced a topology so reports can say so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    gather,
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
from .mapspace import MapSet, enumerate_continuous, first_escape

DEFAULT_OPENS_BUDGET = 1024

NAMED = ("co", "coZ", "isbell", "sisbell", "t1z", "t1sz")

# the hyperspace each named topology lifts, built from the name when its
# subbasis is read; co and coZ lift the containment families instead. The
# constructors are looked up at call time, so a patched one is seen.
_NAMED_HYPERSPACES = {
    "isbell": lambda y, z: scott(y),
    "sisbell": lambda y, z: strong_scott(y),
    "t1z": lambda y, z: z_scott(y, z),
    "t1sz": lambda y, z: strong_z_scott(y, z),
}


@dataclass(frozen=True)
class FnTopology:
    """A topology on a MapSet, carried by the minimal open around each map.
    Two topologies are equal when their maps, minimal opens and provenance
    are, whatever subbasis produced them.

    `source` is what the subbasis comes from: the tuple `of` was given, the
    HyperSpace whose every open family `lift_open_family` lifts (a
    DualSpace, for `duality.t_of_tau`, is one), the name of a named
    topology whose hyperspace is built only when the subbasis is read, or
    None for co and coZ, which lift the containment families of the
    domain. No verdict reads it."""

    maps: MapSet
    min_opens: tuple[int, ...]
    provenance: str = "custom"
    source: HyperSpace | tuple[int, ...] | str | None = field(
        default=None, compare=False, repr=False
    )

    @classmethod
    def of(cls, maps: MapSet, subbasis, provenance: str = "custom") -> "FnTopology":
        """The topology a subbasis generates: the minimal open around each
        map is the meet of the subbasics holding it, exact since that meet
        is basic."""
        full = full_mask(len(maps))
        ordered = tuple(sorted(set(subbasis)))
        stray = tuple(m for m in ordered if m < 0 or m & ~full)
        if stray:
            raise NotATopology("subbasis member escapes the map ground", stray)
        return cls(maps, meets_by_point(len(maps), ordered), provenance, ordered)

    @property
    def subbasis(self) -> tuple[int, ...]:
        """The subbasis, sorted. A lifted one is listed on each read and not
        kept, so a topology holds one carrier, its minimal opens; it is
        read only to print a topology or name a failing check's witnesses.
        A named source is resolved here, through the cached hyperspace
        constructors."""
        h = self.source
        if isinstance(h, tuple):
            return h
        y = self.maps.domain
        if h is None:
            index = {u: g for g, u in enumerate(y.opens)}
            found = lift_families(self.maps, index, containment_families(y))
        else:
            if isinstance(h, str):
                h = _NAMED_HYPERSPACES[h](y, self.maps.codomain)
            found = lift_upsets(self.maps, h.ground_index, h.min_opens)
        return tuple(sorted(found))

    @cached_property
    def full(self) -> int:
        return full_mask(len(self.maps))

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
    """The lift through `MapSet.bracket`: for each codomain open u and each
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
    """Per u, `MapSet.bracket` groups the maps by the index of their
    preimage, so a family's subbasic is the OR of the groups at its set bits
    and depends only on its trace on the indices that occur.
    `traces(occurring)` yields the distinct traces, each lifted once."""
    return {
        gather(groups, proj)
        for _, groups in maps.bracket(index)
        for proj in traces(sum(groups))
    }


def lift_open_family(
    h: HyperSpace, maps: MapSet, provenance: str = "custom"
) -> FnTopology:
    """The topology with subbasis sets {f : the preimage of U under f lies
    in the family}, one for each open family of the hyperspace and each
    codomain open, in closed form. A lift commutes with meets, so the
    minimal open around map f is the meet over codomain opens u of the maps
    whose preimage of u lies in h's minimal open around f's preimage of u:
    `MapSet.pull` of h's minimal opens."""
    if h.base != maps.domain:
        raise MismatchedBase("hyperspace base differs from the map domain")
    mins = tuple(maps.pull(h.ground_index, h.min_opens))
    return FnTopology(maps, mins, provenance, h)


def kset_topology(maps: MapSet, compactness: str = "plain") -> FnTopology:
    """Subbasis sets {f : f(K) included in U}. K ranges over the subsets
    compact in the domain (plain) or in the topology the codomain induces on
    it (z_relative). On a finite ground every subset is compact in both, so K
    ranges over every subset of Y and the provenance records the route.

    f(K) lies in U exactly when the preimage of U contains K, so this is the
    lift of the families {opens containing K}, whose topology is
    `compact_subbasis_topology`. Each such subbasic is the meet of the
    point subbasics {f : f(p) in U} over p in K, so this is the pointwise
    topology, carried by `MapSet.pointwise`."""
    if compactness == "plain":
        provenance = "co"
    elif compactness == "z_relative":
        provenance = "coZ"
    else:
        raise ValueError(f"unknown compactness {compactness!r}")
    return FnTopology(maps, maps.pointwise, provenance)


@lru_cache(maxsize=None)
def named_function_topology(name: str, y: FinSpace, z: FinSpace) -> FnTopology:
    """The named topology on C(Y, Z). On a finite Y every name is the
    pointwise topology, so each carries `MapSet.pointwise` as its minimal
    opens. The named hyperspace is not built here: the name is recorded
    and `FnTopology.subbasis` builds it on first read. Its GroundTooLarge
    check runs at that read and cannot fire: `enumerate_continuous` caps Y
    at 4 points, which have at most 16 opens, MAX_HYPER_GROUND."""
    if name not in NAMED:
        raise ValueError(f"unknown topology name {name!r}; expected one of {NAMED}")
    maps = enumerate_continuous(y, z)
    source = name if name in _NAMED_HYPERSPACES else None
    return FnTopology(maps, maps.pointwise, name, source)


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
    meets of subbasics. Equal minimal opens answer "equal" at once."""
    if a.maps != b.maps:
        raise MismatchedGround("topologies live on different map sets")
    if a.min_opens == b.min_opens:
        return Comparison("equal", (), ())
    a_only = b_only = ()
    if first_escape(b.min_opens, a.min_opens) is not None:
        a_only = tuple(sorted(s for s in set(a.subbasis) if not b.is_open_mask(s)))
    if first_escape(a.min_opens, b.min_opens) is not None:
        b_only = tuple(sorted(s for s in set(b.subbasis) if not a.is_open_mask(s)))
    if not a_only and not b_only:
        return Comparison("equal", (), ())
    if not a_only:
        return Comparison("a_coarser", (), b_only)
    if not b_only:
        return Comparison("a_finer", a_only, ())
    return Comparison("incomparable", a_only, b_only)


def evaluation_witness(t: FnTopology) -> int | None:
    """A codomain open whose evaluation preimage fails to be open in the
    product of the domain with t, or None when evaluation is continuous.

    The preimage is a union of rows {p in domain : f(p) in W} indexed by maps;
    it is product-open iff every row is contained in the rows of every map in
    the minimal t-neighborhood, rows themselves being domain-open already.
    Over all W at once that says the minimal t-open around each map i lies
    inside the maps whose every preimage contains the matching preimage of
    i. That set is i's minimal open in the pointwise topology,
    `MapSet.pointwise[i]`. So evaluation is continuous iff t contains the
    pointwise topology, decided by one mask test per map (`first_escape`,
    at once for a topology carrying `MapSet.pointwise` itself); the per-W
    walk runs only to name the first failing W.
    """
    if first_escape(t.min_opens, t.maps.pointwise) is None:
        return None
    mins = t.min_opens
    for w, rows in t.maps.preimage_rows.items():
        if any(rows[i] & ~rows[j] for i, m in enumerate(mins) for j in bits(m)):
            return w
    return None
