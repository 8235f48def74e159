"""Finite topological spaces over bit-vector grounds.

Points are 0..size-1 and subsets are characteristic bit-vectors stored as
plain ints. A finite topology is fixed by the minimal open U_p around each
point, and its opens are exactly the up-sets of the relation p -> U_p
(Alexandrov; Stong 1966). That is the one route from generators to opens:
`meets_by_point` turns a subbasis (or an open family) into the U_p, and
`_enumerate_upsets` lists their up-sets. It takes rows that are already
reflexive and transitive, as the U_p always are, and never closes them
itself; a caller holding a raw relation closes it once. The one axiom check,
`_axiom_gap`, behind `make_space` and `_validate_topology_family`, asks
whether a family is exactly that list; closure and interior are read off
the U_p. The literal closure loops and the pairwise axiom check live on as
test oracles.

`enumerate_topologies` lists the labeled topologies as the up-sets of every
specialization preorder; up to homeomorphism it keeps one orbit per class,
swept with one relabel table per permutation, and names each class by the
least encoding in its orbit, which is `canonical_form` of any member.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice, permutations
from math import factorial
from typing import Iterable, Iterator, Sequence

from .errors import AxiomsViolated, BudgetExceeded, GroundTooLarge, NotATopology

Subset = int

MAX_GROUND = 32
MAX_ENUM_POINTS = 5
# the most relabeled opens, n! * |opens|, `canonical_form` will build
MAX_CANONICAL_RELABELS = 1_000_000


def full_mask(size: int) -> Subset:
    return (1 << size) - 1


def mask_of(points: Iterable[int]) -> Subset:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def bits(mask: Subset) -> Iterator[int]:
    """Yield set bit positions, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: Subset) -> int:
    return mask.bit_count()


def gather(groups: dict[int, int], mask: Subset) -> int:
    """The OR of `groups[b]` over the set bits b of mask, each bit keyed as
    its power of two, as `MapSet.bracket` keys its groups."""
    out = 0
    while mask:  # the bits of mask, inlined: this runs once per lifted trace
        low = mask & -mask
        out |= groups[low]
        mask ^= low
    return out


@dataclass(frozen=True)
class SubsetFamily:
    """A set of subsets of a fixed ground, kept sorted by numeric value."""

    ground_size: int
    members: tuple[Subset, ...]

    @classmethod
    def of(cls, ground_size: int, masks: Iterable[Subset]) -> "SubsetFamily":
        if ground_size > MAX_GROUND:
            raise GroundTooLarge(f"ground of {ground_size} points exceeds {MAX_GROUND}")
        full = full_mask(ground_size)
        ordered = sorted(set(masks))
        if ordered and (ordered[0] < 0 or ordered[-1] & ~full):
            raise NotATopology(
                f"member escapes the {ground_size}-point ground",
                tuple(m for m in ordered if m < 0 or m & ~full),
            )
        return cls(ground_size, tuple(ordered))

    @cached_property
    def _member_set(self) -> frozenset[Subset]:
        return frozenset(self.members)

    def __contains__(self, mask: Subset) -> bool:
        return mask in self._member_set

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash, computed once: cache keys rehash every call."""
        return hash((self.ground_size, self.members))


@dataclass(frozen=True)
class FinSpace:
    """A finite topological space: ground size, its open-set family and
    optional point labels. The labels are part of its identity: spaces that
    differ only in labels are unequal and hash apart, so a cache keyed on a
    space hands back results that carry the caller's labels."""

    size: int
    opens: SubsetFamily
    labels: tuple[str, ...] | None = None

    @property
    def full(self) -> Subset:
        return full_mask(self.size)

    def is_open(self, mask: Subset) -> bool:
        return mask in self.opens

    def is_closed(self, mask: Subset) -> bool:
        return (self.full & ~mask) in self.opens

    @cached_property
    def min_opens(self) -> tuple[Subset, ...]:
        """Minimal open neighborhood of each point (finite spaces have them)."""
        return meets_by_point(self.size, self.opens)

    @cached_property
    def ups(self) -> tuple[Subset, ...]:
        """For each point q, the points whose minimal open holds q: the
        transpose of `min_opens`, the specialization order read upward."""
        out = [0] * self.size
        for p, m in enumerate(self.min_opens):
            for q in bits(m):
                out[q] |= 1 << p
        return tuple(out)

    @cached_property
    def links(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """The specialization order as the walks over the points 0..n-1 read
        it, built once per space: for each point k, the earlier points p
        whose minimal open holds k, and the earlier points q inside k's."""
        return tuple(
            (tuple(bits(up & ((1 << k) - 1))), tuple(bits(m & ((1 << k) - 1))))
            for k, (up, m) in enumerate(zip(self.ups, self.min_opens))
        )

    @cached_property
    def tag(self) -> str:
        """The open family as a claim fragment, built once per space: report
        claims name their spaces by it."""
        return ",".join(str(m) for m in self.opens.members)

    def label_of(self, p: int) -> str:
        if self.labels is not None:
            return self.labels[p]
        return str(p)

    def encoding(self) -> tuple[Subset, ...]:
        return self.opens.members

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash, computed once: cache keys rehash every call."""
        return hash((self.size, self.opens, self.labels))


def meets_by_point(size: int, family: Iterable[Subset]) -> tuple[Subset, ...]:
    """For each point, the meet of the family's members holding it (the full
    ground when none does). Over a subbasis, or over the opens themselves,
    these are the minimal opens of the generated topology."""
    out = [full_mask(size)] * size
    for m in family:
        rest = m
        while rest:  # the bits of m, inlined: this runs under every validation
            low = rest & -rest
            out[low.bit_length() - 1] &= m
            rest ^= low
    return tuple(out)


def _up_masks(ground: tuple[Subset, ...]) -> tuple[int, ...]:
    """For each ground index, the index mask of its supersets in the ground."""
    return tuple(
        sum(1 << h for h, other in enumerate(ground) if g & ~other == 0) for g in ground
    )


def _subset_labels(ground: Iterable[Subset]) -> tuple[str, ...]:
    """Point labels for a ground of subsets, written "{0,1}"."""
    return tuple(f"{{{','.join(str(p) for p in bits(g))}}}" for g in ground)


def make_space(
    size: int, opens: Iterable[Subset], labels: Sequence[str] | None = None
) -> FinSpace:
    """Validate the axioms and build a space; the only unchecked path is internal."""
    if size > MAX_GROUND:
        raise GroundTooLarge(f"{size} points exceed the {MAX_GROUND}-point limit")
    fam = SubsetFamily.of(size, opens)
    x = FinSpace(size, fam, None if labels is None else tuple(labels))
    gap = _axiom_gap(fam, x.min_opens)
    if len(gap) == 1:
        absent = "empty set" if gap == (0,) else "full ground"
        raise NotATopology(f"{absent} missing", gap)
    if gap:
        a, b, missing = gap
        escapes = "union" if missing == a | b else "intersection"
        raise NotATopology(f"{escapes} escapes the family", (a, b))
    if labels is not None and len(labels) != size:
        raise NotATopology("label count does not match ground size")
    return x


def _axiom_gap(fam: SubsetFamily, mins: tuple[Subset, ...]) -> tuple[Subset, ...]:
    """() when the family is a topology with minimal opens `mins`, which
    must be `meets_by_point` of its members. Otherwise (0,) or (full,) for
    a missing empty set or ground, else the first pair in member order whose
    union, or else intersection, escapes, as (a, b, missing).

    Every member is an up-set of p -> mins[p], since mins[p] is the meet of
    the members holding p, and a topology holds every such up-set; so equal
    counts decide it in O(|fam| * m^2). Only a failure walks the pairs."""
    upsets = islice(_enumerate_upsets(fam.ground_size, mins), len(fam) + 1)
    if sum(1 for _ in upsets) == len(fam):
        return ()
    full = full_mask(fam.ground_size)
    if 0 not in fam:
        return (0,)
    if full not in fam:
        return (full,)
    return _offending_pair(fam)


def _offending_pair(fam: SubsetFamily) -> tuple[Subset, Subset, Subset]:
    members = fam.members
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if (a | b) not in fam:
                return (a, b, a | b)
            if (a & b) not in fam:
                return (a, b, a & b)
    raise AssertionError("a family closed under pairs is a topology")


def _validate_topology_family(m: int, fam: SubsetFamily, kind: str) -> None:
    """The axiom check for computed families: a failure raises
    AxiomsViolated with its witness and is never repaired."""
    gap = _axiom_gap(fam, meets_by_point(m, fam))
    if len(gap) == 1:
        raise AxiomsViolated(f"{kind}: empty or full family missing", (0,))
    if gap:
        raise AxiomsViolated(f"{kind}: family is not union/intersection closed", gap)


def generate_from_subbasis(
    size: int, family: Iterable[Subset], labels: Sequence[str] | None = None
) -> FinSpace:
    """Smallest topology containing the family: the up-sets of its meets by
    point. A point no member holds has the full ground as its minimal open,
    so an empty subbasis yields the indiscrete space.
    """
    if size > MAX_GROUND:
        raise GroundTooLarge(f"{size} points exceed the {MAX_GROUND}-point limit")
    seeds = SubsetFamily.of(size, family)
    opens = sorted(_enumerate_upsets(size, meets_by_point(size, seeds)))
    return FinSpace(
        size, SubsetFamily(size, tuple(opens)), None if labels is None else tuple(labels)
    )


def product(a: FinSpace, b: FinSpace) -> FinSpace:
    """Product space on pairs (i, j) indexed row-major as i * b.size + j."""
    size = a.size * b.size
    if size > MAX_GROUND:
        raise GroundTooLarge(f"product ground of {size} points exceeds {MAX_GROUND}")
    rects = [rectangle_mask(u, v, b.size) for u in a.opens for v in b.opens]
    labels = tuple(
        f"({a.label_of(i)},{b.label_of(j)})" for i in range(a.size) for j in range(b.size)
    )
    return generate_from_subbasis(size, rects, labels)


def is_open_in_product(a, b, mask: Subset) -> bool:
    """Whether the mask, indexed as `product` indexes pairs, is open in the
    product of a and b, with no product built and so no ground cap: an open
    holds the rectangle of minimal opens around each of its points. Only
    the minimal opens of a and b are read, so a function-space topology
    serves as it is, its opens never listed."""
    ma, mb = a.min_opens, b.min_opens
    n = len(mb)
    if mask < 0 or mask >> (len(ma) * n):
        return False
    return all(
        not rectangle_mask(ma[p // n], mb[p % n], n) & ~mask for p in bits(mask)
    )


def rectangle_mask(u: Subset, v: Subset, b_size: int) -> Subset:
    m = 0
    for i in bits(u):
        m |= v << (i * b_size)
    return m


def subspace(x: FinSpace, carrier: Subset) -> FinSpace:
    """Trace topology on the carrier, points re-indexed ascending."""
    kept = list(bits(carrier))
    pos = {p: k for k, p in enumerate(kept)}
    traces = {mask_of(pos[p] for p in bits(o & carrier)) for o in x.opens}
    labels = tuple(x.label_of(p) for p in kept) if kept else None
    return FinSpace(len(kept), SubsetFamily.of(len(kept), traces), labels)


def closure_of(x: FinSpace, a: Subset) -> Subset:
    """The points whose minimal open meets a."""
    return mask_of(p for p, m in enumerate(x.min_opens) if m & a)


def interior_of(x: FinSpace, a: Subset) -> Subset:
    """The points whose minimal open lies inside a."""
    return mask_of(p for p, m in enumerate(x.min_opens) if m & ~a == 0)


@dataclass(frozen=True)
class LocalProfile:
    t0: bool
    t1: bool
    t2: bool
    regular: bool
    locally_compact: bool
    locally_bounded: bool
    corecompact: bool


def separation_profile(x: FinSpace) -> LocalProfile:
    return _profile(x)


def local_profile(x: FinSpace) -> LocalProfile:
    return _profile(x)


def min_open_profile(mins: tuple[Subset, ...]) -> LocalProfile:
    """Read the profile off the minimal opens U_p, in O(n^2). Function-space
    topologies share it, read off their subbasis meets, so no open family
    is materialized.

    On a finite ground T1 and T2 both say every U_p is {p}. Regularity says
    every U_p is closed: then q in U_p puts p in U_q, so q in U_p forces
    U_q = U_p and the U_p partition the ground; conversely a regular space
    separates p from the closure of any q outside U_p. The local predicates
    always hold, by the theorem `compactness_verdict` cites. The
    definition-shaped searches live on as test oracles.
    """
    discrete = all(m == 1 << p for p, m in enumerate(mins))
    return LocalProfile(
        t0=len(set(mins)) == len(mins),
        t1=discrete,
        t2=discrete,
        regular=all(mins[q] == m for m in mins for q in bits(m)),
        locally_compact=True,
        locally_bounded=True,
        corecompact=True,
    )


@lru_cache(maxsize=None)
def _profile(x: FinSpace) -> LocalProfile:
    return min_open_profile(x.min_opens)


def compactness_verdict(x: FinSpace, k: Subset) -> tuple[bool, str]:
    """Decide compactness of k and report which route decided it: the
    finite-shortcut. On a finite ground every cover is finite, hence its own
    finite subcover, so the answer is always True. The shortcut is a theorem
    here, not an assumption; the literal cover walk lives on as a test
    oracle and witnesses it."""
    return True, "finite-shortcut"


def boundedness_verdict(x: FinSpace, b: Subset) -> tuple[bool, str]:
    """Decide boundedness of b in x (covers of the whole space admit a finite
    subcover of b) and report the deciding route, as `compactness_verdict`."""
    return True, "finite-shortcut"


@lru_cache(maxsize=None)
def enumerate_topologies(n: int, up_to_iso: bool = False) -> tuple[FinSpace, ...]:
    """All topologies on n labeled points, canonically ordered.

    Enumeration goes through specialization preorders (reflexive transitive row
    masks); opens are then exactly the up-sets. The brute-force family filter
    lives in the test oracles and must agree at n <= 3.

    With `up_to_iso`, one space per homeomorphism class, named by its
    `canonical_form`. The sweep takes any labeled encoding left, relabels
    it by every permutation's table to get its whole orbit (its class),
    keeps the orbit's least member and drops the orbit from what is left:
    n! table lookups per open of each class, not a permutation scan of
    every labeled space.
    """
    if n > MAX_ENUM_POINTS:
        raise GroundTooLarge(f"enumeration capped at {MAX_ENUM_POINTS} points")
    if n == 0:
        return (FinSpace(0, SubsetFamily.of(0, [0])),)
    encodings = set()
    stack: list[tuple[Subset, ...]] = [()]  # rows of points 0..i-1
    while stack:
        rows = stack.pop()
        i = len(rows)
        if i == n:
            encodings.add(tuple(sorted(_enumerate_upsets(n, rows))))
            continue
        for m in range(1 << n):
            # row i holds i and keeps the relation transitive with rows 0..i-1
            if (m >> i) & 1 and not any(
                (m >> q) & 1 and rows[q] & ~m or (rows[q] >> i) & 1 and m & ~rows[q]
                for q in range(i)
            ):
                stack.append(rows + (m,))
    if up_to_iso:
        tables = list(_relabel_tables(n))
        remaining, encodings = encodings, set()
        while remaining:
            # canonical_form(e) is the least relabeling of e, which is the
            # least member of its orbit; the orbit is the class, so drop it
            e = remaining.pop()
            orbit = {tuple(sorted(tb[o] for o in e)) for tb in tables}
            remaining -= orbit
            encodings.add(min(orbit))
    return tuple(
        FinSpace(n, SubsetFamily(n, e)) for e in sorted(encodings)
    )


def _enumerate_upsets(
    m: int, rows: tuple[int, ...], within: int | None = None
) -> Iterator[int]:
    """All masks closed upward under the row relation, by DFS on the lowest
    undecided point: it goes in with everything above it or out with
    everything below it. The rows must be reflexive and transitive (row q
    holds q, and holds row p for each p it holds), as minimal opens and
    preorders are; nothing here closes them. The in-set stays an up-set and
    the out-set a down-set, so neither branch can clash with what is
    decided, every leaf is an answer, and the work is linear in the output.
    Each up-set is yielded once, so callers that only count store nothing.

    With `within`, only its points are decided and each up-set is yielded
    as its trace on `within`: the traces are the up-sets of the relation
    restricted there, each yielded once."""
    full = full_mask(m) if within is None else within
    below = [0] * m
    for q, row in enumerate(rows):
        for p in bits(row):
            below[p] |= 1 << q
    stack = [(0, 0)]
    while stack:
        forced_in, forced_out = stack.pop()
        free = full & ~(forced_in | forced_out)
        if not free:
            yield forced_in & full
            continue
        i = (free & -free).bit_length() - 1
        stack.append((forced_in, forced_out | below[i]))
        stack.append((forced_in | rows[i], forced_out))


def _relabel_tables(n: int) -> Iterator[list[Subset]]:
    """For each permutation of the n points, the image of every mask."""
    for perm in permutations(range(n)):
        table = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            table[m] = table[m ^ low] | 1 << perm[low.bit_length() - 1]
        yield table


def canonical_form(x: FinSpace) -> tuple[Subset, ...]:
    """Minimum open-family encoding over all relabelings of the points.

    A plain scan over the permutations: it serves one space of any size,
    where building `_relabel_tables` would cost more than the scan. The scan
    relabels n! * |opens| opens; past MAX_CANONICAL_RELABELS it raises
    BudgetExceeded before the first permutation."""
    work = factorial(x.size) * len(x.opens)
    if work > MAX_CANONICAL_RELABELS:
        raise BudgetExceeded(
            f"canonical form needs {work} relabeled opens, over {MAX_CANONICAL_RELABELS}"
        )
    best = None
    for perm in permutations(range(x.size)):
        relabeled = tuple(sorted(mask_of(perm[p] for p in bits(o)) for o in x.opens))
        if best is None or relabeled < best:
            best = relabeled
    assert best is not None
    return best


def sierpinski() -> FinSpace:
    return make_space(2, [0, 0b10, 0b11])


def discrete(n: int) -> FinSpace:
    return make_space(n, range(1 << n))


def indiscrete(n: int) -> FinSpace:
    return make_space(n, [0, full_mask(n)])


def chain(n: int) -> FinSpace:
    """Nested opens emptyset < {0} < {0,1} < ... < full."""
    return make_space(n, [full_mask(k) for k in range(n + 1)])
