"""Topologies on the set of open sets of a finite space.

The ground is the open-set list of a base space, canonically ordered, so a
"point" here is an open set and an "open" is a family of opens encoded as a
bit-vector over ground indices. Qualifying families are those meeting two
side conditions:

(alpha) upward closure in the inclusion order, fired only from members of a
        trigger family (all opens, or just the preimage family);
(beta)  every collection drawn from a pool whose union lands in the family
        must contain a finite subfamily whose union also lands in it. On a
        finite ground any collection is its own finite subfamily, so this
        holds outright; the fully quantified version is re-checked by the
        test oracles. The strong variants replace (beta)'s premise with
        "the collection covers the whole space", which does bite: it forces
        membership of some subfamily-union for every minimal cover.

(beta) quantifies over nonempty collections; the empty family of opens is
adjoined to the strong-variant results by fiat.

A hyperspace is carried by its minimal opens, the least open family
holding each ground index, and lists its open families only when asked;
building one lists nothing, bar the fallback below. (alpha) makes the
qualifying families exactly the up-sets of one relation, whose rows are
already reflexive and transitive, so the rows are the minimal opens. The
strong form keeps the up-sets that meet a union of every minimal cover,
found by a search that visits only minimal covers, plus the empty family.
That family is closed under union, so it is a topology exactly when the
least member holding each index p is in it. The closed form meet_p, the
union of up(p) with, for every cover mask that up(p) misses, the
intersection of up(x) over the x in that mask, lies inside every member
holding p, and is such a member once it meets every cover mask; then the
meet_p are the minimal opens. Only when some meet_p misses a cover mask is
the family listed and validated, so a failure raises AxiomsViolated with
the listing validator's witness and is never repaired. The exhaustive
scan, the cover walk and the listing route these replace live on as test
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

from .errors import GroundTooLarge
from .finspace import (
    FinSpace,
    Subset,
    SubsetFamily,
    _enumerate_upsets,
    _subset_labels,
    _up_masks,
    _validate_topology_family,
    bits,
    full_mask,
    meets_by_point,
)
from .mapspace import o_z_family, way_below_z

MAX_HYPER_GROUND = 16


@dataclass(frozen=True)
class HyperSpace:
    """A topology whose points are the open sets of a base space, carried by
    the minimal open family around each ground index; the open families
    are listed on first use."""

    base: FinSpace
    ground: tuple[Subset, ...]
    min_opens: tuple[int, ...]
    kind: str

    @classmethod
    def of(
        cls, base: FinSpace, ground: tuple[Subset, ...], opens, kind: str
    ) -> "HyperSpace":
        """A hyperspace from an explicit open family, validated first."""
        m = len(ground)
        fam = SubsetFamily.of(m, opens)
        _validate_topology_family(m, fam, kind)
        h = cls(base, ground, meets_by_point(m, fam), kind)
        h.__dict__["opens"] = fam
        return h

    @cached_property
    def opens(self) -> SubsetFamily:
        """Every open family: the up-sets of the minimal opens."""
        m = len(self.ground)
        return SubsetFamily(m, tuple(sorted(_enumerate_upsets(m, self.min_opens))))

    @cached_property
    def ground_index(self) -> dict[Subset, int]:
        return {m: i for i, m in enumerate(self.ground)}

    def family_mask(self, members: Iterable[Subset]) -> int:
        m = 0
        for mem in members:
            m |= 1 << self.ground_index[mem]
        return m

    def as_space(self) -> FinSpace:
        return FinSpace(len(self.ground), self.opens, _subset_labels(self.ground))


def _check_ground(y: FinSpace) -> tuple[Subset, ...]:
    ground = y.opens.members
    if len(ground) > MAX_HYPER_GROUND:
        raise GroundTooLarge(
            f"{len(ground)} opens exceed the hyperspace cap of {MAX_HYPER_GROUND}"
        )
    return ground


def _minimal_cover_union_masks(
    ground: tuple[Subset, ...], pool: int, full: Subset
) -> tuple[int, ...]:
    """For each inclusion-minimal cover of the space drawn from the pool, the
    index mask of every union reachable from its nonempty subfamilies.

    The (beta) witness condition is monotone in the cover, so quantifying
    over minimal covers is equivalent to quantifying over all covers. The
    masks are reduced to the inclusion-minimal ones for the same reason.

    The search branches on the pool members holding the lowest uncovered
    point and drops a branch once one of its members has no private point
    left. Every minimal cover is reached, since at each step some member of
    it holds that point, and every cover reached is minimal.
    """
    index = {g: i for i, g in enumerate(ground)}
    holders = [
        [ground[i] for i in bits(pool) if (ground[i] >> p) & 1] for p in bits(full)
    ]
    covers: set[frozenset[Subset]] = set()
    stack: list[tuple[Subset, ...]] = [()]
    while stack:
        chosen = stack.pop()
        once = twice = 0  # points covered at least once, at least twice
        for g in chosen:
            twice |= once & g
            once |= g
        if not all(g & ~twice for g in chosen):
            continue
        if once == full:
            if chosen:
                covers.add(frozenset(chosen))
            continue
        low = full & ~once & -(full & ~once)
        stack.extend(chosen + (g,) for g in holders[low.bit_length() - 1])
    masks = set()
    for cover in covers:
        members = tuple(cover)
        unions = [0] * (1 << len(members))  # union of each subfamily, by member mask
        for sel in range(1, 1 << len(members)):
            low = sel & -sel
            unions[sel] = unions[sel ^ low] | members[low.bit_length() - 1]
        reach = 0
        for u in unions[1:]:
            reach |= 1 << index[u]
        masks.add(reach)
    minimal = [m for m in masks if not any(o != m and o & ~m == 0 for o in masks)]
    return tuple(sorted(minimal))


def _filtration(
    y: FinSpace, trigger: int, strong_pool: int | None, kind: str
) -> HyperSpace:
    """(alpha) says exactly that the family is an up-set of the relation
    up[g] for triggered g and {g} otherwise. Those rows are reflexive and
    already transitive, since up is and an untriggered row is one point, so
    they are the minimal opens. The strong form's minimal opens are the
    closed-form meets, checked against every cover mask; a miss falls back
    to listing the family, which validates it or raises."""
    ground = _check_ground(y)
    m = len(ground)
    up = _up_masks(ground)
    rows = tuple(up[g] if (trigger >> g) & 1 else 1 << g for g in range(m))
    if strong_pool is None:
        return HyperSpace(y, ground, rows, kind)
    cover_masks = _minimal_cover_union_masks(ground, strong_pool, y.full)
    meets = _strong_meets(rows, cover_masks)
    if meets is not None:
        return HyperSpace(y, ground, meets, kind)
    qualifying = [
        family
        for family in _enumerate_upsets(m, rows)
        if family == 0 or all(family & cm for cm in cover_masks)
    ]
    return HyperSpace.of(y, ground, qualifying, kind)


def _strong_meets(
    rows: tuple[int, ...], cover_masks: tuple[int, ...]
) -> tuple[int, ...] | None:
    """The least up-set of the rows holding each index p among those that
    meet every cover mask: rows[p], joined, for each cover mask it misses,
    with the meet of the rows of that mask, which every up-set meeting the
    mask holds. None when one of them misses a cover mask itself."""
    forced = []
    for cm in cover_masks:
        common = full_mask(len(rows))
        for x in bits(cm):
            common &= rows[x]
        forced.append(common)
    meets = []
    for row in rows:
        meet = row
        for cm, common in zip(cover_masks, forced):
            if not cm & row:
                meet |= common
        if not all(meet & cm for cm in cover_masks):
            return None
        meets.append(meet)
    return tuple(meets)


@lru_cache(maxsize=None)
def scott(y: FinSpace) -> HyperSpace:
    """Families upward-closed from every member, (beta) over all opens."""
    return _filtration(y, full_mask(len(y.opens)), None, "scott")


@lru_cache(maxsize=None)
def strong_scott(y: FinSpace) -> HyperSpace:
    everything = full_mask(len(y.opens))
    return _filtration(y, everything, everything, "sscott")


@lru_cache(maxsize=None)
def z_scott(y: FinSpace, z: FinSpace) -> HyperSpace:
    """Like scott, but (alpha) fires only from preimage-family members and
    (beta) draws its collections from the preimage family."""
    return _filtration(y, _preimage_mask(y, z), None, "zscott")


@lru_cache(maxsize=None)
def strong_z_scott(y: FinSpace, z: FinSpace) -> HyperSpace:
    pool = _preimage_mask(y, z)
    return _filtration(y, pool, pool, "zsscott")


def _preimage_mask(y: FinSpace, z: FinSpace) -> int:
    """Index mask of the preimage family among the opens of y."""
    ground = _check_ground(y)
    oz = o_z_family(y, z)
    return sum(1 << i for i, g in enumerate(ground) if g in oz)


def containment_families(y: FinSpace) -> set[int]:
    """The families {opens containing K}, K any subset of y, as index masks
    over the opens of y."""
    ground = y.opens.members
    return {
        sum(1 << i for i, g in enumerate(ground) if k & ~g == 0)
        for k in range(y.full + 1)
    }


@lru_cache(maxsize=None)
def compact_subbasis_topology(y: FinSpace) -> HyperSpace:
    """Topology generated by the sets {opens containing K}, K any subset."""
    ground = _check_ground(y)
    mins = meets_by_point(len(ground), containment_families(y))
    return HyperSpace(y, ground, mins, "ksubbasis")


def up_family(
    y: FinSpace, a: Subset, mode: str = "containment", z: FinSpace | None = None
) -> SubsetFamily:
    """Opens of y that contain a (containment) or that a is way below
    (way_below; needs z and a drawn from the preimage family)."""
    if mode == "containment":
        return SubsetFamily.of(y.size, [u for u in y.opens if a & ~u == 0])
    if mode == "way_below":
        if z is None:
            raise ValueError("way_below mode needs the codomain space")
        return SubsetFamily.of(
            y.size, [u for u in y.opens if way_below_z(y, z, a, u)]
        )
    raise ValueError(f"unknown mode {mode!r}")
