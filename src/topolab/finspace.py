"""Finite topological spaces over bit-vector grounds.

Points are 0..size-1, subsets are characteristic bit-vectors stored as plain
ints, and a topology is the full list of its open sets. Everything is small
enough to enumerate, which is the point: the checks stay literal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import permutations
from typing import Iterable, Iterator

from .errors import (
    BudgetExceeded,
    CoverEnumerationBudgetExceeded,
    GroundTooLarge,
    NotATopology,
)

Subset = int

MAX_GROUND = 32
MAX_ENUM_POINTS = 5
DEFAULT_COVER_BUDGET = 4096  # max subfamilies the literal cover checkers will walk


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


@dataclass(frozen=True)
class SubsetFamily:
    """A set of subsets of a fixed ground, kept sorted by numeric value."""

    ground_size: int
    members: tuple[Subset, ...]

    @classmethod
    def of(
        cls, ground_size: int, masks: Iterable[Subset], cap: int | None = MAX_GROUND
    ) -> "SubsetFamily":
        # map-index grounds legitimately exceed the point cap; they pass None
        if cap is not None and ground_size > cap:
            raise GroundTooLarge(f"ground of {ground_size} points exceeds {cap}")
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


@dataclass(frozen=True)
class FinSpace:
    """A finite topological space: ground size plus its open-set family."""

    size: int
    opens: SubsetFamily
    labels: tuple[str, ...] | None = field(default=None, compare=False)

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
    def closed_sets(self) -> tuple[Subset, ...]:
        return tuple(sorted(self.full & ~o for o in self.opens))

    def label_of(self, p: int) -> str:
        if self.labels is not None:
            return self.labels[p]
        return str(p)

    def encoding(self) -> tuple[Subset, ...]:
        return self.opens.members


def meets_by_point(size: int, family: Iterable[Subset]) -> tuple[Subset, ...]:
    """For each point, the meet of the family's members holding it (the full
    ground when none does). Over a subbasis, or over the opens themselves,
    these are the minimal opens of the generated topology."""
    out = [full_mask(size)] * size
    for m in family:
        for p in bits(m):
            out[p] &= m
    return tuple(out)


def make_space(
    size: int, opens: Iterable[Subset], labels: tuple[str, ...] | None = None
) -> FinSpace:
    """Validate the axioms and build a space; the only unchecked path is internal."""
    if size > MAX_GROUND:
        raise GroundTooLarge(f"{size} points exceed the {MAX_GROUND}-point limit")
    fam = SubsetFamily.of(size, opens)
    full = full_mask(size)
    if 0 not in fam:
        raise NotATopology("empty set missing", (0,))
    if full not in fam:
        raise NotATopology("full ground missing", (full,))
    members = fam.members
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if (a | b) not in fam:
                raise NotATopology("union escapes the family", (a, b))
            if (a & b) not in fam:
                raise NotATopology("intersection escapes the family", (a, b))
    if labels is not None and len(labels) != size:
        raise NotATopology("label count does not match ground size")
    return FinSpace(size, fam, labels)


def generate_from_subbasis(
    size: int, family: Iterable[Subset], labels: tuple[str, ...] | None = None
) -> FinSpace:
    """Smallest topology containing the family.

    Empty intersections contribute the full ground, empty unions the empty set,
    so an empty subbasis yields the indiscrete space.
    """
    if size > MAX_GROUND:
        raise GroundTooLarge(f"{size} points exceed the {MAX_GROUND}-point limit")
    seeds = SubsetFamily.of(size, family).members
    basis = close_under_intersection(size, seeds)
    opens = close_under_union(basis)
    return FinSpace(size, SubsetFamily.of(size, opens), labels)


def close_under_intersection(size: int, seeds: tuple[Subset, ...]) -> frozenset[Subset]:
    acc = {full_mask(size)}
    work = list(seeds)
    while work:
        m = work.pop()
        if m in acc:
            continue
        fresh = [m & a for a in acc if (m & a) not in acc and m & a != m]
        acc.add(m)
        work.extend(fresh)
    return frozenset(acc)


def close_under_union(
    seeds: Iterable[Subset], budget: int | None = None
) -> frozenset[Subset]:
    """All unions of seeds, the empty set included; past `budget` members
    it raises instead of growing further."""
    acc = {0}
    work = list(seeds)
    while work:
        m = work.pop()
        if m in acc:
            continue
        fresh = [m | a for a in acc if (m | a) not in acc and m | a != m]
        acc.add(m)
        if budget is not None and len(acc) > budget:
            raise BudgetExceeded(
                f"open family exceeds {budget} members; raise the budget "
                "to materialize"
            )
        work.extend(fresh)
    return frozenset(acc)


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
    m = x.full
    for c in x.closed_sets:
        if a & ~c == 0:
            m &= c
    return m


def interior_of(x: FinSpace, a: Subset) -> Subset:
    # dual to closure: largest open inside a
    return x.full & ~closure_of(x, x.full & ~a)


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


def compactness_verdict(
    x: FinSpace,
    k: Subset,
    cover_budget: int = DEFAULT_COVER_BUDGET,
    method: str = "literal",
) -> tuple[bool, str]:
    """Decide compactness of k and report which route decided it.

    "literal" walks every irredundant open cover of k and exhibits a finite
    subcover; past the budget it raises. "auto" and "shortcut" take the
    finite-shortcut: on a finite ground every cover is finite, hence its own
    finite subcover, so the answer is always True. The shortcut is a theorem
    here, not an assumption; the literal route and the tests witness it.
    """
    if method in ("auto", "shortcut"):
        return True, "finite-shortcut"
    return _literal_covers(x, k, k, cover_budget), "literal-covers"


def boundedness_verdict(
    x: FinSpace,
    b: Subset,
    cover_budget: int = DEFAULT_COVER_BUDGET,
    method: str = "literal",
) -> tuple[bool, str]:
    """Decide boundedness of b in x (covers of the whole space admit a finite
    subcover of b) and report the deciding route, as `compactness_verdict`."""
    if method in ("auto", "shortcut"):
        return True, "finite-shortcut"
    return _literal_covers(x, x.full, b, cover_budget), "literal-covers"


def _literal_covers(x: FinSpace, covered: Subset, target: Subset, budget: int) -> bool:
    """Whether every irredundant open cover of `covered` has a subfamily
    covering `target`, by walking all 2^|opens| subfamilies.

    On a finite ground the whole cover qualifies, so this search cannot fail;
    it is kept as a search so the literal route decides, not a shortcut.
    """
    n = len(x.opens)
    if (1 << n) > budget:
        raise CoverEnumerationBudgetExceeded(
            f"2^{n} subfamilies exceed the budget of {budget}"
        )
    members = x.opens.members
    unions = [0] * (1 << n)  # union of each subfamily, indexed by its member mask
    for sel in range(1, 1 << n):
        low = sel & -sel
        unions[sel] = unions[sel ^ low] | members[low.bit_length() - 1]
        if covered & ~unions[sel]:
            continue
        if any(covered & ~unions[sel ^ (1 << i)] == 0 for i in bits(sel)):
            continue  # redundant: some member can go
        sub = low
        while target & ~unions[sub]:
            if sub == sel:
                return False
            sub = (sub - sel) & sel  # next nonempty subfamily of sel, ascending
    return True


def is_compact_subset(x: FinSpace, k: Subset, method: str = "literal") -> bool:
    return compactness_verdict(x, k, method=method)[0]


def is_bounded_in(x: FinSpace, b: Subset, method: str = "literal") -> bool:
    return boundedness_verdict(x, b, method=method)[0]


@lru_cache(maxsize=None)
def enumerate_topologies(n: int, up_to_iso: bool = False) -> tuple[FinSpace, ...]:
    """All topologies on n labeled points, canonically ordered.

    Enumeration goes through specialization preorders (reflexive transitive row
    masks); opens are then exactly the up-sets. The brute-force family filter
    lives in the test oracles and must agree at n <= 3.
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
        encodings = {_canonical_encoding(n, e) for e in encodings}
    return tuple(
        FinSpace(n, SubsetFamily(n, e)) for e in sorted(encodings)
    )


def _enumerate_upsets(m: int, rows: tuple[int, ...]) -> Iterator[int]:
    """All masks closed upward under the (reflexive) row relation, by DFS on
    the lowest undecided point: it goes in with everything above it or out
    with everything below it. The in-set stays an up-set and the out-set a
    down-set, so neither branch can clash with what is decided, every leaf
    is an answer, and the work is linear in the output. Each up-set is
    yielded once, so callers that only count store nothing."""
    above = [rows[q] | 1 << q for q in range(m)]
    for k in range(m):  # transitive closure, Warshall on bitmasks
        for q in range(m):
            if (above[q] >> k) & 1:
                above[q] |= above[k]
    below = [sum(1 << q for q in range(m) if (above[q] >> p) & 1) for p in range(m)]
    full = full_mask(m)
    stack = [(0, 0)]
    while stack:
        forced_in, forced_out = stack.pop()
        free = full & ~(forced_in | forced_out)
        if not free:
            yield forced_in
            continue
        i = (free & -free).bit_length() - 1
        stack.append((forced_in, forced_out | below[i]))
        stack.append((forced_in | above[i], forced_out))


def _canonical_encoding(n: int, encoding: tuple[Subset, ...]) -> tuple[Subset, ...]:
    best = None
    for perm in permutations(range(n)):
        relabeled = tuple(sorted(mask_of(perm[p] for p in bits(o)) for o in encoding))
        if best is None or relabeled < best:
            best = relabeled
    assert best is not None
    return best


def canonical_form(x: FinSpace) -> tuple[Subset, ...]:
    """Minimum open-family encoding over all relabelings of the points."""
    return _canonical_encoding(x.size, x.encoding())


def sierpinski() -> FinSpace:
    return make_space(2, [0, 0b10, 0b11])


def discrete(n: int) -> FinSpace:
    return make_space(n, range(1 << n))


def indiscrete(n: int) -> FinSpace:
    return make_space(n, [0, full_mask(n)])


def chain(n: int) -> FinSpace:
    """Nested opens emptyset < {0} < {0,1} < ... < full."""
    return make_space(n, [full_mask(k) for k in range(n + 1)])
