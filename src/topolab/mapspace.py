"""Continuous maps between finite spaces and the codomain-relative structure
they induce on the domain: the family of open preimages, the topology it
generates, and the boundedness-style profile of that topology. A map of
finite spaces is continuous exactly when it is monotone for the
specialization orders, and one depth-first walk, `monotone_prefixes`,
lists the monotone assignments of a space's points into a relation,
trying at each point only the values its earlier points allow. Over Y
into Z's order it lists C(Y,Z): no value table is built and then
rejected. Over a test space X into `MapSet.pointwise` it counts the
jointly continuous F : X x Y -> Z for `refute_splitting`, cached once per
relation, and, with a second walk into the meet of that relation and t's,
finds the F whose transpose breaks t. Next to it sit the search's
closed-form instance count and budget and the containment test that lets
it skip the search. The walk reads a space's order through
`FinSpace.links`, built once per space. A MapSet holds the listing as the
value tables the walk forms: the preimage rows, the pointwise relation
and every lift read the tables, and a `ContMap` is built only when
someone iterates or indexes the set. One grouping, `_group`, and one
pull-back, `_pull_back`, give `MapSet.pointwise`, Z's order pulled back
along the points, and `MapSet.pull`, an order on O_Z(Y) pulled back
along the codomain opens through `MapSet.bracket`, the grouping by
preimage every lift and its dual read, on the one ground O_Z(Y) every
preimage lies in, formed once per map set. A MapSet also keeps the
separation profile of the pointwise topology, `MapSet.profile`, so the
topologies carrying those rows share one profile per map set.

O_Z(Y) and the topology it generates depend only on Z's specialization
order and Y's opens: `o_z_family` and `z_topology` list no map, and the
listing's point cap does not bound them."""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .errors import BudgetExceeded, NotOpen, NotZRepresentable
from .finspace import (
    FinSpace,
    Frozen,
    LocalProfile,
    Subset,
    SubsetFamily,
    bits,
    cached_property,
    enumerate_topologies,
    full_mask,
    gather,
    generate_from_subbasis,
    min_open_profile,
    popcount,
    separation_profile,
    sierpinski,
    transpose,
)

DEFAULT_SIZE_CAP = 4
MAX_SPLITTING_X = 4
MAX_SPLITTING_INSTANCES = 250_000
# how many test spaces a slice search walks on n = 1..MAX_SPLITTING_X
# points: all labeled topologies (OEIS A000798), or one per homeomorphism
# class (OEIS A001930) under symmetry reduction
_TEST_SPACES = {False: (1, 4, 29, 355), True: (1, 3, 9, 33)}


def _preimage(table: tuple[int, ...], u: Subset) -> Subset:
    """The points a value table sends into u: the one preimage rule."""
    pre = 0
    for p, v in enumerate(table):
        if (u >> v) & 1:
            pre |= 1 << p
    return pre


def _group(values) -> dict[int, int]:
    """The positions grouped by value, as `gather` reads them: {1 << v: the
    mask of the j with values[j] == v}, for the values that occur."""
    groups: dict[int, int] = {}
    for j, v in enumerate(values):
        groups[1 << v] = groups.get(1 << v, 0) | 1 << j
    return groups


def _pull_back(n: int, groupings, rel) -> tuple[int, ...]:
    """The one meet behind `MapSet.pointwise` and `MapSet.pull`: rel pulled
    back to n positions, row j holding k when rel[j's value] holds k's
    value in every grouping `_group` made."""
    full = full_mask(n)
    rows = [full] * n
    for groups in groupings:
        occurring = sum(groups)
        for g, members in groups.items():
            reach = gather(groups, rel[g.bit_length() - 1] & occurring)
            while members and reach != full:  # a full reach changes no row
                low = members & -members
                rows[low.bit_length() - 1] &= reach
                members ^= low
    return tuple(rows)


class ContMap(Frozen):
    """A continuous map stored as its value table, one codomain point per
    domain point."""

    domain: FinSpace
    codomain: FinSpace
    table: tuple[int, ...]

    def __call__(self, p: int) -> int:
        return self.table[p]

    def preimage(self, u: Subset) -> Subset:
        return _preimage(self.table, u)

    def is_continuous(self) -> bool:
        return all(self.domain.is_open(self.preimage(u)) for u in self.codomain.opens)


class MapSet(Frozen):
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
    def preimage_rows(self) -> dict[Subset, tuple[Subset, ...]]:
        """For each codomain open u, the tuple of preimages map-by-map."""
        return {
            u: tuple([_preimage(table, u) for table in self.tables])
            for u in self.codomain.opens
        }

    @cached_property
    def bracket(self) -> tuple[dict[int, int], ...]:
        """The one grouping of maps by preimage: per codomain open u, in the
        codomain's order, `_group` of the position in `o_z_family` of each
        map's preimage of u: the one ground every lift, `pull` and
        `duality.tau_of_t` read, grouped once per map set."""
        ground = o_z_family(self.domain, self.codomain).members
        position = {g: k for k, g in enumerate(ground)}
        return tuple(_group([position[r] for r in rows]) for rows in self.preimage_rows.values())

    def pull(self, rel) -> tuple[int, ...]:
        """A relation on O_Z(Y), by position, pulled back to the maps along
        the codomain opens by `_pull_back`: row i holds j when, for every
        codomain open u, rel at i's preimage of u holds j's preimage of u."""
        return _pull_back(len(self), self.bracket, rel)

    @cached_property
    def pointwise(self) -> tuple[int, ...]:
        """The minimal opens of the pointwise topology: row i holds the maps
        j with j(p) in the codomain's minimal open around i(p) at every
        point p, the meet of the subbasics {f : f(p) in U} holding i. So j
        is in row i iff every preimage under i lies inside j's, which is
        also when F : X x Y -> Z may specialize from slice i to slice j.
        This is Z's order pulled back along the points by `_pull_back`."""
        columns = (_group(c) for c in zip(*self.tables))
        return _pull_back(len(self), columns, self.codomain.min_opens)

    @cached_property
    def profile(self) -> LocalProfile:
        """The separation profile of the pointwise topology, read off
        `pointwise` once per map set. Every named topology and both
        `kset_topology` modes carry those rows, and `FnTopology.profile`
        hands this one object to each of them."""
        return min_open_profile(self.pointwise)


def monotone_prefixes(
    links, below, above, width: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """The one depth-first walk over a specialization order. It assigns the
    points 0..n-1 of a space with n >= 1, given by its `FinSpace.links`,
    values in 0..width-1: point k may take w when w is in below[v] for the
    value v of every earlier point whose minimal open holds k, and in
    above[v] for the value v of every earlier point inside k's minimal
    open, `above` being the transpose of `below`. Every pair of distinct
    points is so tested once; a point against itself is not. For each
    assignment of points 0..n-2 that passes, it yields that head and the
    mask of values the last point may take, in `itertools.product` order.
    Values are pushed high to low, so the lowest comes off the stack first.
    The candidate step stays inline, with no call per node: this loop is
    the hot path of listing C(Y,Z)."""
    last = len(links) - 1
    full = full_mask(width)
    stack: list[tuple[int, ...]] = [()]
    while stack:
        head = stack.pop()
        ups, downs = links[len(head)]
        cand = full
        for p in ups:
            cand &= below[head[p]]
        for q in downs:
            cand &= above[head[q]]
        if len(head) == last:
            yield head, cand
            continue
        while cand:
            w = cand.bit_length() - 1
            stack.append(head + (w,))
            cand ^= 1 << w


@lru_cache(maxsize=None)
def enumerate_continuous(y: FinSpace, z: FinSpace, size_cap: int = DEFAULT_SIZE_CAP) -> MapSet:
    """C(Y, Z) in lexicographic table order: `monotone_prefixes` over Y's
    `links` into Z's minimal opens and `ups`, each head's last values
    expanded in place. A table is continuous exactly when f(q) lies in the
    minimal open of f(p) for every q in p's minimal open, which is what the
    walk tests. The tables come out in `itertools.product` order, the map
    index every witness names, and are kept as the walk forms them; no
    ContMap is built."""
    if y.size > size_cap or z.size > size_cap:
        raise BudgetExceeded(
            f"map enumeration capped at {size_cap} points per factor; "
            f"got {y.size} and {z.size}"
        )
    if not y.size:
        return MapSet(y, z, ((),))  # a 0-point Y has one map
    walk = monotone_prefixes(y.links, z.min_opens, z.ups, z.size)
    return MapSet(y, z, tuple([head + (w,) for head, cand in walk for w in bits(cand)]))


@lru_cache(maxsize=None)
def o_z_family(y: FinSpace, z: FinSpace) -> SubsetFamily:
    """O_Z(Y), every preimage of a Z-open under a continuous map,
    canonically ordered, read off Z's specialization order with no map
    listed: Y's own family O(Y) when the order is not symmetric; when it
    is, its minimal opens partition Z into blocks, and this is the clopens
    of Y for two blocks or more and {∅, Y} for one. A 0-point Z has a map
    only from a 0-point Y. README's "O_Z(Y) in closed form" proves it."""
    if not z.size:
        return SubsetFamily(y.size, () if y.size else (0,))
    if z.ups != z.min_opens:
        return y.opens
    if len(set(z.min_opens)) > 1:
        return SubsetFamily(y.size, tuple(v for v in y.opens if y.is_closed(v)))
    return SubsetFamily.of(y.size, (0, y.full))


@lru_cache(maxsize=None)
def z_topology(y: FinSpace, z: FinSpace) -> FinSpace:
    """Topology on Y generated by the preimage family as a subbasis. Each
    case of `o_z_family` but the 0-point Z is a topology already: O(Y),
    where this is Y itself, the clopens of Y, and {∅, Y}. An empty family
    on a nonempty Y generates the indiscrete space."""
    oz = o_z_family(y, z)
    if not z.size:
        return generate_from_subbasis(y.size, oz, y.labels)
    return y if oz is y.opens else FinSpace(y.size, oz, y.labels)


class RelativeProfile(Frozen):
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
    # Both predicates ask, for every point p and open u around p, for an a in
    # the preimage family with p in a inside u that is bounded in the
    # generated topology (or in its trace on u). Boundedness always holds on
    # a finite ground, and the smallest u around p is its minimal open U_p.
    # A preimage a is open, so p in a inside U_p makes a = U_p: both hold
    # exactly when every minimal open of Y is a preimage.
    shrinks = all(m in oz for m in y.min_opens)
    # z_top is finite, so it is locally compact by the theorem
    # `compactness_verdict` cites, as `min_open_profile` always records
    return RelativeProfile(
        o_z=oz,
        z_top=ztop,
        locally_z_compact=True,
        locally_z_bounded=shrinks,
        z_corecompact=shrinks,
        regular_locally_z_compact=separation_profile(y).regular,
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
    a slice search, the popcounts of the last-point masks `monotone_prefixes`
    yields. The count depends on the relation alone, so the cache is keyed
    on it rather than on a map set: the 170 map sets at (3,2) have 29
    distinct `pointwise` relations. The budget of `slice_instances` applies."""
    nmaps = len(below)
    slice_instances(nmaps, max_x, up_to_iso)
    above = transpose(below)
    return sum(
        popcount(cand)
        for n in range(1, max_x + 1)
        for x in enumerate_topologies(n, up_to_iso=up_to_iso)
        for _, cand in monotone_prefixes(x.links, below, above, nmaps)
    )
