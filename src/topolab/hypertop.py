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

The families are enumerated, never filtered out of all 2^|ground|
candidates: (alpha) makes them exactly the up-sets of one relation, which a
DFS lists in time linear in their number, and the strong form keeps those
that meet a union of every minimal cover, found by a search that visits
only minimal covers. Results are then validated as topologies; a failure
raises AxiomsViolated and is never repaired. The exhaustive scan and cover
walk these replace live on as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
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
    generate_from_subbasis,
)
from .mapspace import _cached_without_labels, o_z_family, way_below_z

MAX_HYPER_GROUND = 16


@dataclass(frozen=True)
class HyperSpace:
    """A topology whose points are the open sets of a base space."""

    base: FinSpace
    ground: tuple[Subset, ...]
    opens: SubsetFamily
    kind: str

    @cached_property
    def ground_index(self) -> dict[Subset, int]:
        return {m: i for i, m in enumerate(self.ground)}

    def family_mask(self, members: Iterable[Subset]) -> int:
        m = 0
        for mem in members:
            m |= 1 << self.ground_index[mem]
        return m

    def members_of(self, family: int) -> tuple[Subset, ...]:
        return tuple(self.ground[i] for i in bits(family))

    def as_space(self) -> FinSpace:
        return FinSpace(len(self.ground), self.opens, _subset_labels(self.ground))


def _rebased(h: HyperSpace, y: FinSpace, *_) -> HyperSpace:
    return replace(h, base=y)


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
    up[g] for triggered g and {g} otherwise, so the qualifying families are
    enumerated as those up-sets; the strong form then keeps the ones that
    meet every cover mask, and the empty family by fiat."""
    ground = _check_ground(y)
    m = len(ground)
    up = _up_masks(ground)
    rows = tuple(up[g] if (trigger >> g) & 1 else 1 << g for g in range(m))
    qualifying = _enumerate_upsets(m, rows)
    if strong_pool is not None:
        cover_masks = _minimal_cover_union_masks(ground, strong_pool, y.full)
        qualifying = [
            family
            for family in qualifying
            if family == 0 or all(family & cm for cm in cover_masks)
        ]
    fam = SubsetFamily.of(m, qualifying)
    _validate_topology_family(m, fam, kind)
    return HyperSpace(base=y, ground=ground, opens=fam, kind=kind)


@_cached_without_labels(_rebased)
def scott(y: FinSpace) -> HyperSpace:
    """Families upward-closed from every member, (beta) over all opens."""
    return _filtration(y, full_mask(len(y.opens)), None, "scott")


@_cached_without_labels(_rebased)
def strong_scott(y: FinSpace) -> HyperSpace:
    everything = full_mask(len(y.opens))
    return _filtration(y, everything, everything, "sscott")


@_cached_without_labels(_rebased)
def z_scott(y: FinSpace, z: FinSpace) -> HyperSpace:
    """Like scott, but (alpha) fires only from preimage-family members and
    (beta) draws its collections from the preimage family."""
    return _filtration(y, _preimage_mask(y, z), None, "zscott")


@_cached_without_labels(_rebased)
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


@_cached_without_labels(_rebased)
def compact_subbasis_topology(y: FinSpace) -> HyperSpace:
    """Topology generated by the sets {opens containing K}, K any subset."""
    ground = _check_ground(y)
    generated = generate_from_subbasis(len(ground), containment_families(y)).opens
    return HyperSpace(base=y, ground=ground, opens=generated, kind="ksubbasis")


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
