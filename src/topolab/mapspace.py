"""Continuous maps between finite spaces and the codomain-relative structure
they induce on the domain: the family of open preimages, the topology it
generates, and the boundedness-style profile of that topology."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, wraps
from itertools import product as iproduct

from .errors import BudgetExceeded, NotOpen, NotZRepresentable
from .finspace import (
    FinSpace,
    Subset,
    SubsetFamily,
    generate_from_subbasis,
    local_profile,
    separation_profile,
    sierpinski,
)

DEFAULT_SIZE_CAP = 4


@dataclass(frozen=True)
class ContMap:
    """A continuous map stored as its value table, one codomain point per
    domain point."""

    domain: FinSpace
    codomain: FinSpace
    table: tuple[int, ...]

    def __call__(self, p: int) -> int:
        return self.table[p]

    def preimage(self, u: Subset) -> Subset:
        pre = 0
        for p, v in enumerate(self.table):
            if (u >> v) & 1:
                pre |= 1 << p
        return pre

    def is_continuous(self) -> bool:
        return all(self.domain.is_open(self.preimage(u)) for u in self.codomain.opens)


@dataclass(frozen=True)
class MapSet:
    """All continuous maps for a fixed pair, in lexicographic table order."""

    domain: FinSpace
    codomain: FinSpace
    maps: tuple[ContMap, ...]

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)

    def __getitem__(self, i: int) -> ContMap:
        return self.maps[i]

    @cached_property
    def tables(self) -> tuple[tuple[int, ...], ...]:
        return tuple(m.table for m in self.maps)

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {t: i for i, t in enumerate(self.tables)}

    @cached_property
    def preimage_rows(self) -> dict[Subset, tuple[Subset, ...]]:
        """For each codomain open u, the tuple of preimages map-by-map."""
        return {
            u: tuple(m.preimage(u) for m in self.maps) for u in self.codomain.opens
        }


@lru_cache(maxsize=None)
def enumerate_continuous(y: FinSpace, z: FinSpace, size_cap: int = DEFAULT_SIZE_CAP) -> MapSet:
    """C(Y, Z) by filtering all value tables through the preimage test."""
    if y.size > size_cap or z.size > size_cap:
        raise BudgetExceeded(
            f"map enumeration capped at {size_cap} points per factor; "
            f"got {y.size} and {z.size}"
        )
    maps = []
    for table in iproduct(range(z.size), repeat=y.size):
        cand = ContMap(y, z, table)
        if cand.is_continuous():
            maps.append(cand)
    return MapSet(y, z, tuple(maps))


@lru_cache(maxsize=None)
def o_z_family(y: FinSpace, z: FinSpace) -> SubsetFamily:
    """Every preimage of a codomain open under a continuous map, canonically
    ordered. Always contains the empty set and the full ground when maps
    exist."""
    maps = enumerate_continuous(y, z)
    fam = {m.preimage(u) for m in maps for u in z.opens}
    return SubsetFamily.of(y.size, fam)


def _cached_without_labels(relabel):
    """lru_cache for a function of (y, z) whose result carries y's labels.

    FinSpace equality ignores labels, so a plain cache would hand back the
    labels of whichever equal y came first. The wrapped function runs on a
    labels-free y, and `relabel(result, labels)` puts the caller's back.
    """

    def wrap(fn):
        cached = lru_cache(maxsize=None)(fn)

        @wraps(fn)
        def call(y: FinSpace, z: FinSpace):
            if y.labels is None:
                return cached(y, z)
            return relabel(cached(replace(y, labels=None), z), y.labels)

        call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
        return call

    return wrap


@_cached_without_labels(lambda top, labels: replace(top, labels=labels))
def z_topology(y: FinSpace, z: FinSpace) -> FinSpace:
    """Topology on Y generated by the preimage family as a subbasis."""
    return generate_from_subbasis(y.size, o_z_family(y, z))


@dataclass(frozen=True)
class RelativeProfile:
    o_z: SubsetFamily
    z_top: FinSpace
    locally_z_compact: bool
    locally_z_bounded: bool
    z_corecompact: bool
    regular_locally_z_compact: bool


@_cached_without_labels(
    lambda prof, labels: replace(prof, z_top=replace(prof.z_top, labels=labels))
)
def relative_profile(y: FinSpace, z: FinSpace) -> RelativeProfile:
    oz = o_z_family(y, z)
    ztop = z_topology(y, z)
    lzc = local_profile(ztop).locally_compact
    # Both predicates ask, for every point p and open u around p, for an a in
    # the preimage family with p in a inside u that is bounded in the
    # generated topology (or in its trace on u). Boundedness always holds on
    # a finite ground, and the smallest u around p is its minimal open.
    shrinks = all(
        any((a >> p) & 1 and a & ~m == 0 for a in oz) for p, m in enumerate(y.min_opens)
    )
    return RelativeProfile(
        o_z=oz,
        z_top=ztop,
        locally_z_compact=lzc,
        locally_z_bounded=shrinks,
        z_corecompact=shrinks,
        regular_locally_z_compact=separation_profile(y).regular and lzc,
    )


def way_below_z(y: FinSpace, z: FinSpace, a: Subset, u: Subset) -> bool:
    """a sits way below u when a is bounded in the trace topology on u. Every
    subset is bounded on a finite ground, so this is containment."""
    oz = o_z_family(y, z)
    if a not in oz:
        raise NotZRepresentable(f"{a:#b} is not a preimage of any codomain open")
    if u not in y.opens:
        raise NotOpen(f"{u:#b} is not open")
    return a & ~u == 0


@lru_cache(maxsize=None)
def sierpinski_correspondence(y: FinSpace) -> tuple[tuple[Subset, ContMap], ...]:
    """Opens of Y paired with their characteristic maps into the two-point
    space with one open point; a bijection onto C(Y, S)."""
    s = sierpinski()
    pairs = []
    for v in y.opens:
        table = tuple(1 if (v >> p) & 1 else 0 for p in range(y.size))
        pairs.append((v, ContMap(y, s, table)))
    return tuple(pairs)
