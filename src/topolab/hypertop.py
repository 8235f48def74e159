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
building one lists nothing. (alpha) makes the qualifying families exactly
the up-sets of one relation, whose rows are already reflexive and
transitive, so the rows are the minimal opens. A strong pool holds the
whole space Y or is empty: all opens hold Y, and the preimage family holds
Y = f^-1(Z) when a continuous map f exists and is empty when none does.
When the pool holds Y, {Y} is a minimal cover, and its one reachable union,
Y, is reached by every cover, whose full union is Y. The strong condition
then says "the family holds Y", and the strong minimal opens are the rows
with Y's index added. An empty pool has no cover, so the condition is
vacuous and the rows stand. With every open triggered the rows are the
up-sets of the opens, and each already holds Y's index; the topology the
containment families generate has them as its minimal opens too, since
the least containment family around g is the one for K = g. So `scott`
forms that one row table, `strong_scott` and `compact_subbasis_topology`
read it under their own kind, and `_filtration` serves the Z-relative
pair from it. The cover search and the 2^m scans these replace live on
as test oracles.

A lift reads a hyperspace only at preimages, in O_Z(Y), so
`fntop.lift_open_family` pulls `HyperSpace.trace` there. Each of the five
traces on O_Z(Y) to the rows of up (README "Lifts see only O_Z(Y)"), and
`fntop` lists the named subbases from those, under `HyperSpace.check_cap`.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import GroundTooLarge, MismatchedGround
from .finspace import (
    FinSpace,
    Frozen,
    Subset,
    SubsetFamily,
    _check_axioms,
    _enumerate_upsets,
    _set_field,
    _subset_labels,
    _up_masks,
    cached_property,
    meets_by_point,
)
from .mapspace import o_z_family, way_below_z

MAX_HYPER_GROUND = 16


class HyperSpace(Frozen):
    """A topology whose points are the open sets of a base space, carried by
    the minimal open family around each ground index; the open families
    are listed on first use."""

    base: FinSpace
    ground: tuple[Subset, ...]
    min_opens: tuple[int, ...]
    kind: str

    @classmethod
    def of(
        cls, base: FinSpace, ground: tuple[Subset, ...], opens, kind: str, *more
    ) -> "HyperSpace":
        """A hyperspace from an explicit open family, validated as
        `make_space` validates a space and kept as its opens; `more` fills
        a subclass's own fields."""
        fam = SubsetFamily.of(len(ground), opens)
        h = cls(base, ground, meets_by_point(len(ground), fam), kind, *more)
        _check_axioms(fam, h.min_opens)
        _set_field(h, "opens", fam)
        return h

    @cached_property
    def opens(self) -> SubsetFamily:
        """Every open family: the up-sets of the minimal opens."""
        m = len(self.ground)
        return SubsetFamily(m, tuple(sorted(_enumerate_upsets(m, self.min_opens))))

    @cached_property
    def ground_index(self) -> dict[Subset, int]:
        return {m: i for i, m in enumerate(self.ground)}

    def as_space(self) -> FinSpace:
        return FinSpace(len(self.ground), self.opens, _subset_labels(self.ground))

    def trace(self, sub: tuple[Subset, ...]) -> "HyperSpace":
        """The subspace on sub, part of the ground in ground order: each
        member's minimal open met with sub, by position in sub. A hyperspace
        on sub, as a DualSpace is on O_Z(Y), is its own trace; a sub with
        a member outside the ground raises MismatchedGround."""
        if sub == self.ground:
            return self
        try:
            at = [self.ground_index[g] for g in sub]
        except KeyError as exc:
            raise MismatchedGround(f"{exc} is not in the hyperspace ground") from None
        rows = [sum(1 << k for k, j in enumerate(at) if self.min_opens[i] >> j & 1) for i in at]
        return HyperSpace(self.base, sub, tuple(rows), self.kind)

    @staticmethod
    def check_cap(y: FinSpace) -> None:
        """The cap on O(Y) that `scott` and a named subbasis read apply."""
        if len(y.opens) > MAX_HYPER_GROUND:
            msg = f"{len(y.opens)} opens exceed the hyperspace cap of {MAX_HYPER_GROUND}"
            raise GroundTooLarge(msg)


@lru_cache(maxsize=None)
def scott(y: FinSpace) -> HyperSpace:
    """Families upward-closed from every member, (beta) over all opens: the
    rows of up, the one table of O(Y)'s rows the other constructors read."""
    HyperSpace.check_cap(y)
    ground = y.opens.members
    return HyperSpace(y, ground, _up_masks(ground), "scott")


def _filtration(y: FinSpace, trigger: int, strong: bool, kind: str) -> HyperSpace:
    """(alpha) says exactly that the family is an up-set of the relation
    up[g] for triggered g and {g} otherwise. Those rows are reflexive and
    already transitive, since up is and an untriggered row is one point, so
    they are the minimal opens. With strong set, (beta) draws its covers
    from a pool holding Y, so {Y} is its only minimal cover mask, and the
    minimal opens are the rows with Y's index added: the last, as the
    ground is sorted and every open lies in Y."""
    h = scott(y)
    rows = tuple(r if (trigger >> g) & 1 else 1 << g for g, r in enumerate(h.min_opens))
    if strong:
        top = 1 << (len(rows) - 1)
        rows = tuple(row | top for row in rows)
    return HyperSpace(y, h.ground, rows, kind)


@lru_cache(maxsize=None)
def strong_scott(y: FinSpace) -> HyperSpace:
    """Scott's rows: the strong condition adds Y's index, which every up-set
    of an open already holds."""
    h = scott(y)
    return HyperSpace(y, h.ground, h.min_opens, "sscott")


@lru_cache(maxsize=None)
def z_scott(y: FinSpace, z: FinSpace) -> HyperSpace:
    """Like scott, but (alpha) fires only from preimage-family members and
    (beta) draws its collections from the preimage family."""
    return _filtration(y, _preimage_mask(y, z), False, "zscott")


@lru_cache(maxsize=None)
def strong_z_scott(y: FinSpace, z: FinSpace) -> HyperSpace:
    """The pool is the preimage family. It holds Y when a continuous map
    exists; otherwise it is empty, no cover exists, and this is z_scott."""
    pool = _preimage_mask(y, z)
    return _filtration(y, pool, pool != 0, "zsscott")


def _preimage_mask(y: FinSpace, z: FinSpace) -> int:
    """Index mask of the preimage family among the opens of y."""
    ground = scott(y).ground
    oz = o_z_family(y, z)
    return sum(1 << i for i, g in enumerate(ground) if g in oz)


@lru_cache(maxsize=None)
def compact_subbasis_topology(y: FinSpace) -> HyperSpace:
    """Topology generated by the sets {opens containing K}, K any subset.
    The least of them holding g is the one for K = g, the up-set of g, so
    scott's rows are the minimal opens."""
    h = scott(y)
    return HyperSpace(y, h.ground, h.min_opens, "ksubbasis")


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
