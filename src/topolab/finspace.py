"""Finite topological spaces over bit-vector grounds.

Points are 0..size-1 and subsets are characteristic bit-vectors stored as
plain ints. A finite topology is fixed by the minimal open U_p around each
point, and its opens are exactly the up-sets of the relation p -> U_p
(Alexandrov; Stong 1966). That is the one route from generators to opens:
`meets_by_point` turns a subbasis (or an open family) into the U_p, and
`_enumerate_upsets` lists their up-sets, reading the order downward by
`transpose`. It takes rows that are already reflexive and transitive, as
the U_p always are, and never closes them; a caller holding a raw
relation closes it once. The one axiom check, `_check_axioms`, behind
`make_space` and `hypertop.HyperSpace.of`, asks whether a family is
exactly that list and raises one NotATopology when it is not; closure and
interior are read off the U_p. The literal closure loops and the pairwise
axiom check live on as test oracles.

`enumerate_topologies` lists the labeled topologies as the up-sets of every
specialization preorder. `topology_classes` sweeps them into orbits, one
relabel table per permutation, and gives each class its least encoding,
which is `canonical_form` of any member, with its orbit's size;
`enumerate_topologies` up to homeomorphism reads its representatives, and
`class_index` reads each labeled topology's class off the same sweep.
`t0_quotient` merges the points with equal minimal opens, keeping the
lattice of opens; the theorem suite decides its pair rows on those
quotients.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import islice, permutations
from math import factorial
from operator import attrgetter

from .caps import CAPS, cached
from .errors import BudgetExceeded, GroundTooLarge, NotATopology

Subset = int


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


def transpose(rows: Sequence[Subset]) -> tuple[Subset, ...]:
    """The transpose of a relation on 0..n-1 given by its rows: row q holds
    p exactly when row p holds q."""
    out = [0] * len(rows)
    for p, row in enumerate(rows):
        for q in bits(row):
            out[q] |= 1 << p
    return tuple(out)


def gather(groups: dict[int, int], mask: Subset) -> int:
    """The OR of `groups[b]` over the set bits b of mask, each bit keyed as
    its power of two, as `mapspace._group` keys its groups."""
    out = 0
    while mask:  # the bits of mask, inlined: this runs once per lifted trace
        low = mask & -mask
        out |= groups[low]
        mask ^= low
    return out


# the one way to fill a field, which `Frozen.__setattr__` refuses. It keeps
# the instance's attributes in the compact layout a plain assignment uses;
# filling `self.__dict__` instead made later attribute reads up to 3x slower
_set_field = object.__setattr__


class cached_property:
    """A per-instance cached attribute, as `functools.cached_property` is
    but without its lock: the first read computes the value and stores it
    among the instance's attributes (`vars(obj)`), where every later read
    finds it first, since this descriptor defines no `__set__`. Python
    3.11's version takes a per-descriptor RLock on each first read: on a
    2-vCPU VM a first read took 0.64 us with it and 0.27 us here (best of
    30), and a cold (3,2) suite makes about 500. Storing with
    `_set_field` works on a `Frozen` instance and keeps its compact
    layout, so later reads stay fast: storing into `obj.__dict__`
    instead left the warm (3,2) suite about 12% slower. Two threads
    reading one value at once may both compute it."""

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        _set_field(obj, self.name, value)
        return value


class Frozen:
    """The frozen base of the package's value classes. It stands in for
    a frozen dataclass: importing the dataclass module and generating each
    class's methods took about a third of `import topolab.cli`, some 15 ms
    on a 2-vCPU VM under Python 3.11, and every CLI call pays for it.

    A subclass's fields are its annotated names along the MRO, base class
    first, each default a class attribute. Fields named in the class
    keyword `uncompared` stay out of eq, hash and repr. Equal instances are
    of one class with equal compared-field tuples, their hash is that
    tuple's hash, computed once per instance, and the repr is
    `QualName(field=value, ...)`; all three read as a dataclass's do.
    Fields cannot be reassigned or deleted; the `cached_property` above
    still stores its values, with `_set_field`.

    A subclass whose body defines no `__init__` gets one generated from
    its fields, one parameter each, in order: it fills every field with
    `_set_field`, the same bytecode a hand-written one compiles to. On the
    same VM a generic `__init__` looping over the fields cost about 0.4 us
    more per instance, 2 us by keyword, and most of these classes are built
    hundreds of times per suite. Generating the eleven the package has
    takes about 0.7 ms at import."""

    def __init_subclass__(cls, uncompared: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields: list[str] = []
        for klass in reversed(cls.__mro__):
            for name in klass.__dict__.get("__annotations__", ()):
                if name not in fields:
                    fields.append(name)
        cls._compared = tuple(n for n in fields if n not in uncompared)
        cls._key = attrgetter(*cls._compared)
        if "__init__" not in cls.__dict__:
            cls.__init__ = _generated_init(cls, fields)

    def __eq__(self, other) -> bool:
        if other is self:  # as the tuple comparison would find, at once
            return True
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the compared-field tuple, computed once: cache keys
        rehash every call."""
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._compared)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _generated_init(cls: type, fields: list[str]):
    """`cls.__init__` with one parameter per field, defaulting to the class
    attribute of that name when there is one, compiled from source as a
    dataclass's is."""
    params = ", ".join(f"{n}=cls.{n}" if hasattr(cls, n) else n for n in fields)
    body = "".join(f"\n    _set_field(self, {n!r}, {n})" for n in fields)
    namespace = {"cls": cls, "_set_field": _set_field}
    exec(f"def __init__(self, {params}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class SubsetFamily(Frozen):
    """A set of subsets of a fixed ground, kept sorted by numeric value."""

    ground_size: int
    members: tuple[Subset, ...]

    @classmethod
    def of(cls, ground_size: int, masks: Iterable[Subset]) -> "SubsetFamily":
        if ground_size < 0:
            raise ValueError(f"point count must be at least 0, got {ground_size}")
        if ground_size > CAPS.MAX_GROUND:
            raise GroundTooLarge(f"ground of {ground_size} points exceeds {CAPS.MAX_GROUND}")
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


class FinSpace(Frozen):
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
        if mask < 0 or mask & ~self.full:
            return False
        return (self.full & ~mask) in self.opens

    @cached_property
    def min_opens(self) -> tuple[Subset, ...]:
        """Minimal open neighborhood of each point (finite spaces have them)."""
        return meets_by_point(self.size, self.opens)

    @cached_property
    def ups(self) -> tuple[Subset, ...]:
        """For each point q, the points whose minimal open holds q: the
        transpose of `min_opens`, the specialization order read upward."""
        return transpose(self.min_opens)

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
    fam = SubsetFamily.of(size, opens)
    x = FinSpace(size, fam, None if labels is None else tuple(labels))
    _check_axioms(fam, x.min_opens)
    _check_labels(size, labels)
    return x


def _check_axioms(fam: SubsetFamily, mins: tuple[Subset, ...]) -> None:
    """Pass when the family is a topology with minimal opens `mins`, which
    must be `meets_by_point` of its members. Otherwise raise NotATopology
    naming (0,) or (full,) for a missing empty set or ground, else the first
    pair (a, b) in member order whose union, or else intersection, escapes.

    Every member is an up-set of p -> mins[p], since mins[p] is the meet of
    the members holding p, and a topology holds every such up-set; so equal
    counts decide it in O(|fam| * m^2). Only a failure walks the pairs."""
    upsets = islice(_enumerate_upsets(fam.ground_size, mins), len(fam) + 1)
    if sum(1 for _ in upsets) == len(fam):
        return
    for absent, mask in (("empty set", 0), ("full ground", full_mask(fam.ground_size))):
        if mask not in fam:
            raise NotATopology(f"{absent} missing", (mask,))
    members = fam.members
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            for escapes, missing in (("union", a | b), ("intersection", a & b)):
                if missing not in fam:
                    raise NotATopology(f"{escapes} escapes the family", (a, b))
    raise AssertionError("a family closed under pairs is a topology")


def _check_labels(size: int, labels: Sequence[str] | None) -> None:
    """The label-count check both space constructors make."""
    if labels is not None and len(labels) != size:
        raise NotATopology("label count does not match ground size")


def generate_from_subbasis(
    size: int, family: Iterable[Subset], labels: Sequence[str] | None = None
) -> FinSpace:
    """Smallest topology containing the family: the up-sets of its meets by
    point. A point no member holds has the full ground as its minimal open,
    so an empty subbasis yields the indiscrete space.
    """
    seeds = SubsetFamily.of(size, family)
    _check_labels(size, labels)
    opens = sorted(_enumerate_upsets(size, meets_by_point(size, seeds)))
    return FinSpace(
        size, SubsetFamily(size, tuple(opens)), None if labels is None else tuple(labels)
    )


def product(a: FinSpace, b: FinSpace) -> FinSpace:
    """Product space on pairs (i, j) indexed row-major as i * b.size + j."""
    size = a.size * b.size
    if size > CAPS.MAX_GROUND:
        raise GroundTooLarge(f"product ground of {size} points exceeds {CAPS.MAX_GROUND}")
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
    """Trace topology on the carrier, points re-indexed ascending; a carrier
    with bits outside the ground raises NotATopology, naming them."""
    stray = carrier & ~x.full
    if stray:
        raise NotATopology(f"carrier escapes the {x.size}-point ground", (stray,))
    kept = list(bits(carrier))
    pos = {p: k for k, p in enumerate(kept)}
    traces = {mask_of(pos[p] for p in bits(o & carrier)) for o in x.opens}
    labels = tuple(x.label_of(p) for p in kept) if kept else None
    return FinSpace(len(kept), SubsetFamily.of(len(kept), traces), labels)


def t0_quotient(x: FinSpace) -> FinSpace:
    """The T0 (Kolmogorov) quotient: the points with equal minimal opens
    merged, each block numbered by its first point and keeping that point's
    label. Every open is a union of blocks, so sending each open to the
    blocks it holds is a lattice isomorphism from O(x) onto the quotient's
    opens. A T0 space is returned as it is, and the quotient of an
    unlabeled space is the labeled topology `enumerate_topologies` lists."""
    block: dict[Subset, int] = {}
    of = [block.setdefault(m, len(block)) for m in x.min_opens]
    if len(block) == x.size:
        return x
    k = len(block)
    opens = tuple(sorted(mask_of(of[p] for p in bits(o)) for o in x.opens))
    labels = None if x.labels is None else tuple(x.labels[of.index(b)] for b in range(k))
    return FinSpace(k, SubsetFamily(k, opens), labels)


def closure_of(x: FinSpace, a: Subset) -> Subset:
    """The points whose minimal open meets a."""
    return mask_of(p for p, m in enumerate(x.min_opens) if m & a)


def interior_of(x: FinSpace, a: Subset) -> Subset:
    """The points whose minimal open lies inside a."""
    return mask_of(p for p, m in enumerate(x.min_opens) if m & ~a == 0)


class LocalProfile(Frozen):
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
    """Read the profile off the minimal opens U_p, in O(n). Function-space
    topologies share it, read off their subbasis meets, so no open family
    is materialized.

    On a finite ground T1 and T2 both say every U_p is {p}. Regularity says
    every U_p is closed: then q in U_p puts p in U_q, so q in U_p forces
    U_q = U_p and the U_p partition the ground; conversely a regular space
    separates p from the closure of any q outside U_p. Since p is in U_p,
    the distinct U_p cover the ground, so their sizes add up to at least n,
    with equality exactly when no two of them meet, that is when they
    partition the ground. One popcount per distinct row decides it, not
    one lookup per point of every row. The local predicates always hold,
    by the theorem `compactness_verdict` cites. The definition-shaped
    searches and the per-point regularity test live on as test oracles.
    """
    discrete = all(m == 1 << p for p, m in enumerate(mins))
    rows = set(mins)
    return LocalProfile(
        t0=len(rows) == len(mins),
        t1=discrete,
        t2=discrete,
        regular=sum(m.bit_count() for m in rows) == len(mins),
        locally_compact=True,
        locally_bounded=True,
        corecompact=True,
    )


@cached
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


@cached
def enumerate_topologies(n: int, up_to_iso: bool = False) -> tuple[FinSpace, ...]:
    """All topologies on n labeled points, canonically ordered.

    Enumeration goes through specialization preorders (reflexive transitive row
    masks); opens are then exactly the up-sets. The brute-force family filter
    lives in the test oracles and must agree at n <= 3.

    With `up_to_iso`, one space per homeomorphism class, named by its
    `canonical_form`: the representatives of `topology_classes(n)`, in
    its order.
    """
    if n < 0:
        raise ValueError(f"point count must be at least 0, got {n}")
    if n > CAPS.MAX_ENUM_POINTS:
        raise GroundTooLarge(f"enumeration capped at {CAPS.MAX_ENUM_POINTS} points")
    if up_to_iso:
        return tuple(x for x, _ in topology_classes(n))
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
    return tuple(FinSpace(n, SubsetFamily(n, e)) for e in sorted(encodings))


def topology_classes(n: int) -> tuple[tuple[FinSpace, int], ...]:
    """One space per homeomorphism class of topologies on n points, with
    the size of its orbit: the number of labeled topologies it stands for.
    The sizes add up to `len(enumerate_topologies(n))`. Read off
    `_orbit_sweep(n)`, cached once per n."""
    return _orbit_sweep(n)[0]


def class_index(n: int) -> tuple[int, ...]:
    """For each topology of `enumerate_topologies(n)`, in its order, the
    position of its class in `topology_classes(n)`: read off the same
    sweep, so no labeled space is scanned for its `canonical_form`."""
    return _orbit_sweep(n)[1]


@cached
def _orbit_sweep(n: int) -> tuple[tuple[tuple[FinSpace, int], ...], tuple[int, ...]]:
    """`topology_classes(n)` and `class_index(n)`, from one sweep.

    The sweep takes any labeled encoding left, relabels it by every
    permutation's table to get its whole orbit (its class), keeps the
    orbit's least member, which is `canonical_form` of any member, with
    the orbit's size, and drops the orbit from what is left: n! table
    lookups per open of each class, not a permutation scan of every
    labeled space. Classes come in encoding order, and every member of an
    orbit is given its class's position.
    """
    labeled = enumerate_topologies(n)
    remaining = {x.opens.members for x in labeled}
    tables = list(_relabel_tables(n))
    orbits = []
    while remaining:
        e = remaining.pop()
        orbit = {tuple(sorted(tb[o] for o in e)) for tb in tables}
        remaining -= orbit
        orbits.append((min(orbit), orbit))
    orbits.sort(key=lambda least_orbit: least_orbit[0])
    position = {e: k for k, (_, orbit) in enumerate(orbits) for e in orbit}
    classes = tuple((FinSpace(n, SubsetFamily(n, e)), len(orbit)) for e, orbit in orbits)
    return classes, tuple(position[x.opens.members] for x in labeled)


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
    below = transpose(rows)
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
    relabels n! * |opens| opens; past `CAPS.MAX_CANONICAL_RELABELS` it raises
    BudgetExceeded before the first permutation."""
    work = factorial(x.size) * len(x.opens)
    if work > CAPS.MAX_CANONICAL_RELABELS:
        raise BudgetExceeded(
            f"canonical form needs {work} relabeled opens, over {CAPS.MAX_CANONICAL_RELABELS}"
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
