"""Continuous maps between finite spaces and the codomain-relative structure
they induce on the domain: the family of open preimages, the topology it
generates, and the boundedness-style profile of that topology. Also the
slice search over small test spaces X that both bounded X-checks run, with
its closed-form instance count and budget."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, wraps
from inspect import signature
from itertools import product as iproduct

from .errors import BudgetExceeded, NotOpen, NotZRepresentable
from .finspace import (
    FinSpace,
    Subset,
    SubsetFamily,
    _up_masks,
    bits,
    full_mask,
    generate_from_subbasis,
    local_profile,
    popcount,
    separation_profile,
    sierpinski,
)

DEFAULT_SIZE_CAP = 4
MAX_SPLITTING_X = 4
MAX_SPLITTING_INSTANCES = 250_000
# how many test spaces a slice search walks on n = 1..MAX_SPLITTING_X
# points: all labeled topologies (OEIS A000798), or one per homeomorphism
# class (OEIS A001930) under symmetry reduction
_TEST_SPACES = {False: (1, 4, 29, 355), True: (1, 3, 9, 33)}


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

    def pull_relation(self, index: dict[Subset, int], rel) -> tuple[list[int], list[int]]:
        """A relation on preimages, given by index, pulled back to the maps:
        below[i] holds j when, for every codomain open u, rel[index[i's
        preimage of u]] holds index[j's preimage of u]. Returns (below,
        above), above being its transpose."""
        below = [full_mask(len(self))] * len(self)
        for rows in self.preimage_rows.values():
            at = [index[r] for r in rows]
            holding = [0] * len(rel)  # the maps whose preimage sits at each index
            for j, a in enumerate(at):
                holding[a] |= 1 << j
            reach = [sum(holding[b] for b in bits(m)) for m in rel]
            below = [m & reach[a] for m, a in zip(below, at)]
        return below, _transpose(below)

    @cached_property
    def joint(self) -> tuple[list[int], list[int]]:
        """Joint continuity of F : X x Y -> Z given by its slices: F may
        specialize from slice i to slice j when every preimage of i sits
        inside the matching preimage of j."""
        pres = tuple(sorted({r for rows in self.preimage_rows.values() for r in rows}))
        return self.pull_relation({g: a for a, g in enumerate(pres)}, _up_masks(pres))


def _cached_without_labels(relabel):
    """lru_cache for a function of the spaces y (and z) whose result carries
    their labels.

    FinSpace equality ignores labels, so a plain cache would hand back the
    labels of whichever equal space came first. The cache holds results for
    labels-free spaces, and `relabel(result, *args)` puts the caller's back.
    Each signature in use gets its own wrapper, which takes the spaces by
    position or keyword, so a call without labels pays only the label tests.
    """

    def wrap(fn):
        cached = lru_cache(maxsize=None)(fn)

        def relabeled(*args, **kwargs):
            bare = [replace(a, labels=None) if isinstance(a, FinSpace) else a for a in args]
            return relabel(cached(*bare, **kwargs), *args)

        params = tuple(signature(fn).parameters)
        if params == ("y",):

            def call(y):
                if y.labels is None:
                    return cached(y)
                return relabeled(y)

        elif params[:2] == ("y", "z"):

            def call(y, z, *rest, **kwargs):
                if y.labels is None and z.labels is None:
                    return cached(y, z, *rest, **kwargs)
                return relabeled(y, z, *rest, **kwargs)

        elif params == ("name", "y", "z"):

            def call(name, y, z):
                if y.labels is None and z.labels is None:
                    return cached(name, y, z)
                return relabeled(name, y, z)

        else:
            raise TypeError(f"no label-free cache for {fn.__name__}{params}")
        call = wraps(fn)(call)
        call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
        return call

    return wrap


@_cached_without_labels(
    lambda ms, y, z, *_: MapSet(y, z, tuple(ContMap(y, z, m.table) for m in ms))
)
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


@_cached_without_labels(lambda top, y, z: replace(top, labels=y.labels))
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
    lambda prof, y, z: replace(prof, z_top=replace(prof.z_top, labels=y.labels))
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


@_cached_without_labels(
    lambda pairs, y: tuple((v, replace(m, domain=y)) for v, m in pairs)
)
def sierpinski_correspondence(y: FinSpace) -> tuple[tuple[Subset, ContMap], ...]:
    """Opens of Y paired with their characteristic maps into the two-point
    space with one open point; a bijection onto C(Y, S)."""
    s = sierpinski()
    pairs = []
    for v in y.opens:
        table = tuple(1 if (v >> p) & 1 else 0 for p in range(y.size))
        pairs.append((v, ContMap(y, s, table)))
    return tuple(pairs)


def _transpose(rel) -> list[int]:
    return [sum(1 << i for i, row in enumerate(rel) if (row >> j) & 1) for j in range(len(rel))]


def slice_instances(nmaps: int, max_x: int, up_to_iso: bool) -> int:
    """Σ_X |maps|^n over the test spaces X on 1..max_x points: the slice
    assignments a bounded X-search counts as instances. Past
    MAX_SPLITTING_X or MAX_SPLITTING_INSTANCES it raises, before any X is
    enumerated."""
    if max_x > MAX_SPLITTING_X:
        raise BudgetExceeded(f"max_x of {max_x} exceeds {MAX_SPLITTING_X}")
    per_size = _TEST_SPACES[up_to_iso]
    instances = sum(per_size[n - 1] * nmaps**n for n in range(1, max_x + 1))
    if instances > MAX_SPLITTING_INSTANCES:
        raise BudgetExceeded(
            f"{instances} slice assignments exceed {MAX_SPLITTING_INSTANCES}"
        )
    return instances


def _continuous_slices(xmins, hypothesis, conclusion, nmaps: int) -> tuple[int, list]:
    """Depth-first over the points 0..n-1 of X, each trying its maps in
    ascending order. Returns the number of assignments meeting the
    hypothesis and, in `itertools.product` order, those breaking the
    conclusion: one (slices of points 0..n-2, mask of the last point's
    breaking maps, mask of all its candidates, count before them) each.

    Both relations are (below, above) pairs, like `MapSet.joint`. Point k
    may take map c when c is in below[combo[p]] for every earlier p whose
    minimal open holds k, and in above[combo[q]] for every earlier q inside
    k's minimal open. The last point's candidates are counted, not visited.
    """
    below, above = hypothesis
    c_below, c_above = conclusion
    last = len(xmins) - 1
    links = [
        (
            [p for p in range(k) if (xmins[p] >> k) & 1],
            [q for q in range(k) if (xmins[k] >> q) & 1],
        )
        for k in range(last + 1)
    ]
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
                broken_out.append((combo, tails, cand, count))
            count += popcount(cand)
            continue
        # pushed high to low, so the lowest map comes off the stack first
        for c in reversed(list(bits(cand))):
            stack.append((combo + (c,), broken or not (c_cand >> c) & 1))
    return count, broken_out

