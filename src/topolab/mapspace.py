"""Continuous maps between finite spaces and the codomain-relative structure
they induce on the domain: the family of open preimages, the topology it
generates, and the boundedness-style profile of that topology. A map of
finite spaces is continuous exactly when it is monotone for the
specialization orders, so C(Y,Z) is listed by a walk over Y's points that
tries only the values its earlier points allow; no value table is built
and then rejected. A MapSet holds the listing as the value tables the walk
forms: the preimage rows, the pointwise relation and every lift read the
tables, and a `ContMap` is built only when someone iterates or indexes
the set. The same walk, over the points of a test space X, drives the
slice search that `refute_splitting` runs, with its closed-form instance
count and budget, the containment test that lets it skip the search, and
its hypothesis count, cached once per relation. Both walks read a
specialization order through `FinSpace.links` and `FinSpace.ups`, built
once per space. A MapSet groups its maps by preimage in one place,
`MapSet.bracket`, which every lift onto C(Y,Z), its dual on O_Z(Y) and
`MapSet.pull` read."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import BudgetExceeded, NotOpen, NotZRepresentable
from .finspace import (
    FinSpace,
    Subset,
    SubsetFamily,
    bits,
    enumerate_topologies,
    full_mask,
    gather,
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
    """All continuous maps for a fixed pair, stored as their value tables in
    lexicographic order. Iterating or indexing the set hands out `ContMap`s,
    built on first use; nothing that decides a verdict asks for them."""

    domain: FinSpace
    codomain: FinSpace
    tables: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.tables)

    def __iter__(self):
        return iter(self.maps)

    def __getitem__(self, i: int) -> ContMap:
        return self.maps[i]

    @cached_property
    def maps(self) -> tuple[ContMap, ...]:
        return tuple(ContMap(self.domain, self.codomain, t) for t in self.tables)

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {t: i for i, t in enumerate(self.tables)}

    @cached_property
    def preimage_rows(self) -> dict[Subset, tuple[Subset, ...]]:
        """For each codomain open u, the tuple of preimages map-by-map, read
        off the tables as `ContMap.preimage` reads one."""
        out = {}
        for u in self.codomain.opens:
            row = []
            for table in self.tables:
                pre = 0
                for p, v in enumerate(table):
                    if (u >> v) & 1:
                        pre |= 1 << p
                row.append(pre)
            out[u] = tuple(row)
        return out

    def bracket(
        self, index: dict[Subset, int]
    ) -> tuple[tuple[list[int], dict[int, int]], ...]:
        """The one grouping of maps by preimage. Per codomain open u, in the
        codomain's order: the bit 1 << index[f's preimage of u] of each map
        f, and, for each such bit, the mask of the maps at that index. Only
        the indices some preimage takes appear as keys. Every lift, `pull`
        and `duality.tau_of_t` read it."""
        out = []
        for rows in self.preimage_rows.values():
            # a list: stored as tuples, these rows raised the peak RSS of a
            # process running the suite repeatedly by about 0.5 MB
            at = [1 << index[r] for r in rows]
            groups: dict[int, int] = {}
            for j, g in enumerate(at):
                groups[g] = groups.get(g, 0) | 1 << j
            out.append((at, groups))
        return tuple(out)

    def pull(self, index: dict[Subset, int], rel) -> list[int]:
        """A relation on preimages, given by index, pulled back to the maps:
        row i holds j when, for every codomain open u, rel[index[i's
        preimage of u]] holds index[j's preimage of u]. Per u only the
        indices some preimage takes are visited."""
        below = [full_mask(len(self))] * len(self)
        for at, groups in self.bracket(index):
            occurring = sum(groups)
            reach = {
                g: gather(groups, rel[g.bit_length() - 1] & occurring) for g in groups
            }
            below = [m & reach[g] for m, g in zip(below, at)]
        return below

    @cached_property
    def pointwise(self) -> tuple[int, ...]:
        """The minimal opens of the pointwise topology: row i holds the maps
        j with j(p) in the codomain's minimal open around i(p) at every
        point p, the meet of the subbasics {f : f(p) in U} holding i. So j
        is in row i iff every preimage under i lies inside j's, which is
        also when F : X x Y -> Z may specialize from slice i to slice j."""
        zmins = self.codomain.min_opens
        rows = [full_mask(len(self))] * len(self)
        for p in range(self.domain.size):
            at = [0] * self.codomain.size  # the maps by their value at p
            for j, table in enumerate(self.tables):
                at[table[p]] |= 1 << j
            near = [sum(at[w] for w in bits(m)) for m in zmins]
            rows = [row & near[table[p]] for row, table in zip(rows, self.tables)]
        return tuple(rows)


@lru_cache(maxsize=None)
def enumerate_continuous(y: FinSpace, z: FinSpace, size_cap: int = DEFAULT_SIZE_CAP) -> MapSet:
    """C(Y, Z) in lexicographic table order, by a depth-first walk over the
    points 0..n-1 of Y. A table is continuous exactly when f(q) lies in the
    minimal open of f(p) for every q in p's minimal open, so point k may
    take value w when w is in the minimal open of f(p) for every earlier p
    whose minimal open holds k, and f(q) is in w's minimal open for every
    earlier q inside k's minimal open: Y's `links` name those points and
    Z's minimal opens and `ups` the values they allow. Values are pushed
    high to low and the last point's are expanded in place, so the tables
    come out in `itertools.product` order, the map index every witness
    names. The tables are kept as the walk forms them; no ContMap is built."""
    if y.size > size_cap or z.size > size_cap:
        raise BudgetExceeded(
            f"map enumeration capped at {size_cap} points per factor; "
            f"got {y.size} and {z.size}"
        )
    zmins = z.min_opens
    zups = z.ups
    links = y.links
    last = y.size - 1
    full = full_mask(z.size)
    tables = [] if y.size else [()]  # a 0-point Y has one map
    stack: list[tuple[int, ...]] = [()] if y.size else []
    while stack:
        combo = stack.pop()
        ups, downs = links[len(combo)]
        cand = full
        for p in ups:
            cand &= zmins[combo[p]]
        for q in downs:
            cand &= zups[combo[q]]
        if len(combo) == last:
            tables.extend(combo + (w,) for w in bits(cand))
            continue
        # pushed high to low, so the lowest value comes off the stack first
        while cand:
            w = cand.bit_length() - 1
            stack.append(combo + (w,))
            cand ^= 1 << w
    return MapSet(y, z, tuple(tables))


@lru_cache(maxsize=None)
def o_z_family(y: FinSpace, z: FinSpace) -> SubsetFamily:
    """Every preimage of a codomain open under a continuous map, canonically
    ordered: the union of the map set's preimage rows, none recomputed.
    Always contains the empty set and the full ground when maps exist."""
    rows = enumerate_continuous(y, z).preimage_rows
    return SubsetFamily.of(y.size, set().union(*rows.values()))


@lru_cache(maxsize=None)
def z_topology(y: FinSpace, z: FinSpace) -> FinSpace:
    """Topology on Y generated by the preimage family as a subbasis."""
    return generate_from_subbasis(y.size, o_z_family(y, z), y.labels)


@dataclass(frozen=True)
class RelativeProfile:
    o_z: SubsetFamily
    z_top: FinSpace
    locally_z_compact: bool
    locally_z_bounded: bool
    z_corecompact: bool
    regular_locally_z_compact: bool


@lru_cache(maxsize=None)
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


def _transpose(rel) -> list[int]:
    return [sum(1 << i for i, row in enumerate(rel) if (row >> j) & 1) for j in range(len(rel))]


def slice_instances(nmaps: int, max_x: int, up_to_iso: bool) -> int:
    """Σ_X |maps|^n over the test spaces X on 1..max_x points: the slice
    assignments a bounded X-search counts as instances. Below one point it
    raises ValueError; past MAX_SPLITTING_X or MAX_SPLITTING_INSTANCES it
    raises BudgetExceeded, before any X is enumerated."""
    if max_x < 1:
        raise ValueError(f"max_x must be at least 1, got {max_x}")
    if max_x > MAX_SPLITTING_X:
        raise BudgetExceeded(f"max_x of {max_x} exceeds {MAX_SPLITTING_X}")
    per_size = _TEST_SPACES[up_to_iso]
    instances = sum(per_size[n - 1] * nmaps**n for n in range(1, max_x + 1))
    if instances > MAX_SPLITTING_INSTANCES:
        raise BudgetExceeded(
            f"{instances} slice assignments exceed {MAX_SPLITTING_INSTANCES}"
        )
    return instances


def first_escape(sub, sup) -> tuple[int, int] | None:
    """The first (i, j), by i and then j, with j in sub[i] but not in
    sup[i]; None when sub lies inside sup row by row.

    This is the one row-containment test on minimal opens: comparison,
    evaluation, splitting and composition all read it, each for the one
    direction it needs. A topology carrying `MapSet.pointwise` itself, as
    every named one does, is answered at once by identity. When the
    hypothesis relation of a slice search lies inside its conclusion, no
    assignment can break the conclusion, so `refute_splitting` tests this
    first and skips the search when it returns None."""
    if sub is sup:
        return None
    for i, (a, b) in enumerate(zip(sub, sup)):
        extra = a & ~b
        if extra:
            return i, (extra & -extra).bit_length() - 1
    return None


@lru_cache(maxsize=None)
def continuous_slice_count(below: tuple[int, ...], max_x: int, up_to_iso: bool) -> int:
    """How many slice assignments over the test spaces on 1..max_x points
    respect the relation `below` and its transpose: the hypothesis count of
    a slice search with no conclusion to break. It is `_continuous_slices`
    with the relation as both hypothesis and conclusion, so no second walk
    exists. The count depends on the relation alone, so the cache is keyed
    on it rather than on a map set: the 170 map sets at (3,2) have 29
    distinct `pointwise` relations. The budget of `slice_instances` applies."""
    nmaps = len(below)
    slice_instances(nmaps, max_x, up_to_iso)
    rel = (below, _transpose(below))
    return sum(
        _continuous_slices(x, rel, rel, nmaps)[0]
        for n in range(1, max_x + 1)
        for x in enumerate_topologies(n, up_to_iso=up_to_iso)
    )


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

