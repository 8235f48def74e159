"""Decision procedures and the exhaustive small-scale suite.

Four checks and one suite. Admissibility of a function-space topology is
decided exactly by the evaluation lemma from `fntop`. Splitting quantifies
over every test space X, so the bounded search `refute_splitting` can fail
a topology but never certify one, and its clean outcome is deliberately
"inconclusive". On a finite Y, though, t is splitting exactly when it lies
below the pointwise topology, whose minimal opens are
`MapSet.pointwise`; `splitting_verdict` decides that containment.
`refute_splitting` reads its hypothesis count from
`mapspace.continuous_slice_count`, cached once per pointwise relation, and
tests the same containment: when it holds no assignment can break
continuity into t, so the search is skipped. The search runs only when the
containment fails, and from max_x=2 on that is exactly when it has
witnesses to list. Splitting topologies lie below the pointwise one and
admissible ones contain it, so the suite's splitting-order and refinement
rows are decided by that sandwich, with no search; the dual rows by the
Scott-trace sandwich, under which an admissible t has an admissible dual,
so only a t that is not admissible gets a dual built. Composition
continuity holds whenever both factors contain the pointwise topology and
the target lies below it, since composition of pointwise topologies is
continuous. Every named topology is the pointwise one, so
`composition_rows` tests those three containments, each factor once per
pair of deciders rather than once per triple, from per-pair tables it
fills up front, and builds no composite;
`composition_check` is its one-triple case. A containment that fails is
a defect of the named constructions, raised as AssertionError. The suite
reads every per-pair verdict off minimal opens in the same way, never
materializes a function space nor lists a subbasis, and builds no dual
for a named topology.

The suite and the question probes share one pass over deciders. Each
side is a `SpaceAxis` from `space_axes`: the labeled spaces, one
representative per homeomorphism class deciding for them. The probes
decide on these class axes. The suite decides on their T0 forms,
`SpaceAxis.t0`, where each labeled space decides through the class of its
T0 quotient (`finspace.t0_quotient`), so no decider is a space that is not
T0 and no map set into one is listed. `class_table` decides once per pair
of deciders, and `over_classes` runs a pass on the two axes it is given,
then once more on the labeled ones when a row has a witness, so every
witness names a labeled pair.

A report is a claim and a verdict. Every verdict is built by
`VerdictReport.of`, so its status follows from its witnesses: "fails"
exactly when there are some, and otherwise "holds", or "inconclusive" for
the bounded search and the one tabulating row. A probe decides one
verdict per pair of deciders and names it once per labeled pair, with
`VerdictReport.named`: `composition_rows` tables one report per (y, z)
and names it once per triple.

Every implication a report covers is treated as a material conditional: the
count of hypothesis-true instances rides along, so a vacuous pass is visible
as one. The suite also carries three permanently failing rows marked
expected=False; they record computed divergences from previously tabulated
values and are meant to stay red.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

from .duality import is_admissible_on_ozy, tau_of_t
from .errors import BudgetExceeded
from .finspace import (
    FinSpace,
    bits,
    chain,
    class_index,
    discrete,
    enumerate_topologies,
    indiscrete,
    local_profile,
    separation_profile,
    sierpinski,
    t0_quotient,
    transpose,
)
from .fntop import (
    NAMED,
    FnTopology,
    compare_topologies,
    evaluation_witness,
    named_function_topology,
)
from .hypertop import compact_subbasis_topology, strong_z_scott, z_scott
from .mapspace import (  # the two budget constants are public here too
    MAX_SPLITTING_INSTANCES,
    MAX_SPLITTING_X,
    MapSet,
    continuous_slice_count,
    enumerate_continuous,
    first_escape,
    monotone_prefixes,
    relative_profile,
    slice_instances,
    z_topology,
)
from .reports import VerdictReport, fam_tag, pair_tag

MAX_SUITE_Y = 3
MAX_SUITE_Z = 2
DEFAULT_REFINEMENT_SAMPLES = 100

# which relative hypothesis backs the composition statement for each kind of
# middle topology; the plain kinds borrow the Z-relative flag, which agrees
# with the plain one whenever the Z-topology is the whole topology
_COMPOSE_HYPOTHESIS = {
    "co": "locally_z_compact",
    "coZ": "locally_z_compact",
    "isbell": "z_corecompact",
    "sisbell": "locally_z_bounded",
    "t1z": "z_corecompact",
    "t1sz": "locally_z_bounded",
}


def _product_preimage(maps: MapSet, w: int) -> int:
    # bit i * |Y| + q set when maps[i] sends q into w; row-major like product()
    y = maps.domain
    rows = maps.preimage_rows[w]
    mask = 0
    for i, row in enumerate(rows):
        mask |= row << (i * y.size)
    return mask


def is_admissible(t: FnTopology) -> VerdictReport:
    """Continuity of evaluation on the product of t with its domain.

    Decided by the row-containment lemma behind `evaluation_witness`; a
    failure pins the codomain open together with the literal product
    preimage. `finspace.is_open_in_product(t, y, preimage)` replays the
    witness at any size, building no product, as nothing here does;
    `product()` itself stops at MAX_GROUND points.
    """
    maps = t.maps
    witnesses = []
    w = evaluation_witness(t)
    if w is not None:
        witnesses.append(("open", w, "product_preimage", _product_preimage(maps, w)))
    return VerdictReport.of(
        f"admissible:{t.provenance} {pair_tag(maps.domain, maps.codomain)}",
        witnesses,
        1,
        1,
        budget=(("product_points", len(maps) * maps.domain.size),),
    )


def refute_splitting(
    t: FnTopology, max_x: int = 3, symmetry_reduction: bool = True
) -> VerdictReport:
    """Bounded search for a continuous F : X x Y -> Z whose transpose into t
    is discontinuous.

    F is enumerated through its slices: one member of the map set per point
    of X. Slice-wise continuity is automatic, and joint continuity reduces to
    preimage-row containment along the specialization of X, so the check is
    exact. Exhaustion proves nothing about larger X, hence inconclusive.

    Every assignment of slices counts as an instance, Σ_X |maps|^n in all,
    so the count is known, and held to MAX_SPLITTING_INSTANCES, before any X
    is enumerated; max_x below 1 raises ValueError.

    The jointly continuous assignments are counted by
    `mapspace.continuous_slice_count` on the pointwise relation. When t lies
    below the pointwise topology none has a discontinuous transpose, and
    nothing more is done. Otherwise each X is walked twice by
    `mapspace.monotone_prefixes`: into the pointwise relation, and into its
    meet with t's minimal opens, which an assignment respects exactly when
    it is jointly continuous and continuous into t. Per head of the first
    walk, the last-point maps the second walk does not keep are the
    witnesses, listed in `itertools.product` order; a head the second walk
    never reaches already breaks t, so all of its maps are.
    """
    maps = t.maps
    instances = slice_instances(len(maps), max_x, symmetry_reduction)
    pointwise = maps.pointwise
    continuous = continuous_slice_count(pointwise, max_x, symmetry_reduction)
    witnesses = []
    if first_escape(pointwise, t.min_opens) is not None:
        above = transpose(pointwise)
        both = [a & b for a, b in zip(pointwise, t.min_opens)]
        both_above = transpose(both)
        for n in range(1, max_x + 1):
            for xspace in enumerate_topologies(n, up_to_iso=symmetry_reduction):
                links = xspace.links
                kept = dict(monotone_prefixes(links, both, both_above, len(maps)))
                for head, cand in monotone_prefixes(links, pointwise, above, len(maps)):
                    tails = cand & ~kept.get(head, 0)
                    if not tails:
                        continue
                    prefix = sum((maps.tables[i] for i in head), ())
                    for i in bits(tails):
                        witnesses.append((xspace.opens.members, prefix + maps.tables[i]))
    return VerdictReport.of(
        f"splitting:{t.provenance} {pair_tag(maps.domain, maps.codomain)}",
        witnesses,
        continuous,
        instances,
        budget=(("max_x", max_x), ("symmetry_reduction", symmetry_reduction)),
        clean="inconclusive",
    )


def splitting_verdict(t: FnTopology) -> VerdictReport:
    """Whether t is splitting, decided exactly.

    On a finite Y every subset is compact, so the compact-open topology is
    the pointwise one; it equals the Isbell topology, which is splitting
    and admissible, and every splitting topology lies below every
    admissible one. So t is splitting exactly when it lies below the
    pointwise topology, whose minimal open around map i is
    `MapSet.pointwise[i]`. A failure names the first pair (i, j) with j in
    that pointwise minimal open but not in t's, with both value tables.
    Slices i on the closed point and j on the open point of Sierpinski
    space form a jointly continuous F whose transpose into t is not
    continuous, a witness `refute_splitting(t, max_x=2)` lists too.
    """
    maps = t.maps
    escape = first_escape(maps.pointwise, t.min_opens)
    witnesses = []
    if escape is not None:
        i, j = escape
        witnesses.append(("maps", escape, "tables", (maps.tables[i], maps.tables[j])))
    return VerdictReport.of(
        f"splitting-exact:{t.provenance} {pair_tag(maps.domain, maps.codomain)}",
        witnesses,
        1,
        1,
    )


def composition_check(
    x: FinSpace, y: FinSpace, z: FinSpace, kinds: tuple[str, str, str]
) -> VerdictReport:
    """Continuity of (f, g) -> g o f from C(X,Y) x C(Y,Z) into C(X,Z), each
    factor carrying its named topology: the one-triple case of
    `composition_rows`, which holds the argument."""
    return composition_rows((x,), (y,), (z,), kinds)[0]


def composition_rows(xs, ys, zs, kinds: tuple[str, str, str]) -> list[VerdictReport]:
    """`composition_check` over every triple, x then y then z.

    Composition of pointwise topologies is continuous: if f' lies in the
    pointwise minimal open around f and g' in that around g, then
    g(f'(p)) lies in the minimal open around g(f(p)), g being monotone,
    and g'(f'(p)) in that around g(f'(p)). A finer domain or a coarser
    target keeps it continuous. So when both factors contain the pointwise
    topology (the test `evaluation_witness` makes) and the target lies
    below it (the test `splitting_verdict` makes), the check holds with no
    composite built. Each containment reads one factor, so it is tested
    once per pair of spaces, and the relative profile read once per
    (y, z), all tabled up front: every C(X,Y) factor, every C(Y,Z), every
    C(X,Z), then the profiles, and one loop over the triples reads the
    tables. So of two builds that would both raise, the one tabled first
    raises; no input within `space_axes`' caps raises in a build. The
    one-triple case builds xy, yz, xz, then the profile. Every named
    topology is the pointwise one, so the containments always hold; one
    that fails is a defect in `named_function_topology`, raised as
    AssertionError for the first failing triple, as a loop over
    `composition_check` would. The literal walk over the composite table
    is the test oracle `literal_composition_check`. The middle pair's
    three relative hypothesis flags ride along in the budget; the one
    matching the middle kind sets the hypothesis count. So every triple
    through (y, z) has one verdict, a report tabled per (y, z) and
    `named` once per triple.

    Each axis is a list of spaces, each tabled for itself, or a
    `SpaceAxis`, whose deciders `class_table` tables and its labeled
    spaces read by position: every table entry is invariant under
    relabeling. Should a table of deciders that are not the labeled spaces
    hold an escape, the tables are rebuilt on the `labeled` axes, so the
    error names a labeled triple and that triple's own maps.
    """
    if len(kinds) != 3:
        raise ValueError(f"expected three topology kinds, got {kinds!r}")
    axes = [a if isinstance(a, SpaceAxis) else SpaceAxis.own(a) for a in (xs, ys, zs)]
    if not all(a.spaces for a in axes):
        return []
    x_axis, y_axis, z_axis = axes
    xy_kind, yz_kind, xz_kind = kinds
    head = f"compose:{','.join(kinds)}"
    xy = class_table(x_axis, y_axis, partial(_pointwise_escape, xy_kind))
    yz = class_table(y_axis, z_axis, partial(_pointwise_escape, yz_kind))
    xz = class_table(x_axis, z_axis, partial(_pointwise_escape, xz_kind, below=True))
    hyp = class_table(y_axis, z_axis, partial(_compose_hypothesis, yz_kind))
    if any(any(row) for table in (xy, yz, xz) for row in table) and any(
        a.reps != a.spaces for a in axes
    ):
        return composition_rows(*(a.labeled for a in axes), kinds)
    rows = []
    for x, xi in zip(x_axis.spaces, x_axis.index):
        xy_row, xz_row = xy[xi], xz[xi]
        for y, yi in zip(y_axis.spaces, y_axis.index):
            xy_escape, yz_row, hyp_row = xy_row[yi], yz[yi], hyp[yi]
            prefix = f"{head} x={x.tag} y={y.tag} z="
            for z, zi in zip(z_axis.spaces, z_axis.index):
                yz_escape, xz_escape = yz_row[zi], xz_row[zi]
                if xy_escape or yz_escape or xz_escape:
                    for containment, escape in (
                        ("C(X,Y) contains", xy_escape),
                        ("C(Y,Z) contains", yz_escape),
                        ("C(X,Z) lies below", xz_escape),
                    ):
                        if escape:
                            raise AssertionError(
                                f"{prefix}{z.tag}: {containment} the pointwise "
                                f"topology fails at maps {escape}"
                            )
                rows.append(hyp_row[zi].named(prefix + z.tag))
    return rows


def _pointwise_escape(kind: str, dom: FinSpace, cod: FinSpace, below: bool = False):
    """The first escaping pair of maps, () when none: from the named
    topology on C(dom, cod) into the pointwise one, or with `below` out
    of it."""
    t = named_function_topology(kind, dom, cod)
    if below:
        return first_escape(t.maps.pointwise, t.min_opens) or ()
    return first_escape(t.min_opens, t.maps.pointwise) or ()


def _compose_hypothesis(kind: str, y: FinSpace, z: FinSpace) -> VerdictReport:
    """The verdict of every triple through (y, z), which holds: its
    hypothesis count and budget, under a claim naming the pair alone."""
    rp = relative_profile(y, z)
    hyp_name = _COMPOSE_HYPOTHESIS[kind]
    budget = (
        ("hypothesis", hyp_name),
        ("locally_z_bounded", rp.locally_z_bounded),
        ("locally_z_compact", rp.locally_z_compact),
        ("z_corecompact", rp.z_corecompact),
    )
    claim = f"compose-hypothesis:{kind} {pair_tag(y, z)}"
    return VerdictReport.of(claim, (), int(getattr(rp, hyp_name)), 1, budget=budget)


def theorem_suite(
    max_y: int = 3,
    max_z: int = 2,
    refinement_samples: int = DEFAULT_REFINEMENT_SAMPLES,
    seed: int = 0,
) -> list[VerdictReport]:
    """Every statement the package tracks, checked over every labeled
    topology pair within the bounds; one report per statement.

    Every pair-level claim reads only the lattices O(Y) and O(Z), so it
    keeps its verdict when Y or Z is relabeled or replaced by its T0
    quotient (README "T0 quotients"). The pair rows are therefore decided
    by `over_classes` on the T0 forms of the axes of `space_axes`: once
    per pair of T0 classes, each labeled space deciding through the class
    representative of its T0 quotient, each pair of deciders weighted by
    the labeled pairs it stands for. Each count a pair row adds, and each
    ("pairs", n) budget, is a sum of those weights, so the counts are the
    labeled pairs'; the preservation rows, which count only T0 Z, add the
    pair's own weight. A witness names a labeled pair, though: when any
    pair row of the pass has one, `over_classes` reruns the pair rows on
    the labeled axes, weight 1 each, so the witnesses and their order are
    the labeled table's. The class pass this replaced is the test oracle
    `class_theorem_suite`.

    Every table a pass reads comes from `_pair_table` on two axes: each
    pair of deciders with its six named topologies in `NAMED` order,
    looked up once, and its weights, counted off the axes' `index`, so a
    row indexes a topology by its position in `NAMED`. The Sierpinski
    rows read the table of the same Y against `chain(2)`, S's class
    representative, which at max_z >= 2 holds the pair table's entries. A
    cold (3,2) suite decides 8 x 3 = 24 pairs of T0 deciders, against 52
    class pairs. It makes 573 module cache lookups (204 named topologies,
    72 profiles), against the class pass's 1,150, and builds 25 map sets:
    one per pair of T0 deciders and one for the divergence rows."""
    ys, zs = space_axes(max_y, max_z)
    out = over_classes(_pair_rows, ys.t0, zs.t0)
    out.append(_refinement_row(refinement_samples, seed, max_y, max_z))
    out.extend(_divergence_rows())
    return out


class SpaceAxis:
    """One side of the pairs the pair rows or a question probe range over:
    `spaces`, the labeled spaces in the order rows name them; `reps`, the
    spaces that decide for them; and `index`, for each labeled space the
    position of its decider in `reps`. Deciders are read by that integer
    position, never by looking a space up."""

    __slots__ = ("spaces", "reps", "index")

    def __init__(self, spaces: list, reps: list, index: list) -> None:
        self.spaces, self.reps, self.index = spaces, reps, index

    @classmethod
    def own(cls, spaces) -> "SpaceAxis":
        """The axis on which every space decides for itself."""
        spaces = list(spaces)
        return cls(spaces, spaces, list(range(len(spaces))))

    @property
    def labeled(self) -> "SpaceAxis":
        """The same labeled spaces, each deciding for itself."""
        return SpaceAxis.own(self.spaces)

    @property
    def t0(self) -> "SpaceAxis":
        """The same labeled spaces, each deciding through the T0 class of
        its class's quotient, for an axis of `space_axes`: `reps` keeps the
        deciders whose class some quotient reaches, which are the T0 ones,
        in their order. The quotient of a decider is itself a labeled space
        of this axis, `t0_quotient` numbering its blocks by their first
        point, so its class is read off this axis's `index`. A labeled
        space is looked up by its encoding, whose largest open, the ground,
        fixes the point count: on 1-5 points the 7,331 encodings hash in
        about 1 ms, the spaces' own first hashes in about 9."""
        position = {sp.encoding(): k for k, sp in enumerate(self.spaces)}
        quotient = [self.index[position[t0_quotient(rep).encoding()]] for rep in self.reps]
        kept = sorted(set(quotient))
        renumber = {k: n for n, k in enumerate(kept)}
        return SpaceAxis(
            self.spaces, [self.reps[k] for k in kept], [renumber[quotient[k]] for k in self.index]
        )

    def upto(self, points: int) -> "SpaceAxis":
        """The spaces of at most `points` points, with their deciders, the
        positions renumbered among the deciders kept."""
        kept = [k for k, rep in enumerate(self.reps) if rep.size <= points]
        renumber = {k: n for n, k in enumerate(kept)}
        small = [(sp, k) for sp, k in zip(self.spaces, self.index) if sp.size <= points]
        return SpaceAxis(
            [sp for sp, _ in small], [self.reps[k] for k in kept], [renumber[k] for _, k in small]
        )


def space_axes(max_y: int, max_z: int) -> tuple[SpaceAxis, SpaceAxis]:
    """The Y and the Z axes of the pair rows and the question probes: every
    labeled topology on 1..max_y points and on 1..max_z points, the ground
    both range over, each deciding through one representative per
    homeomorphism class, `enumerate_topologies(n, up_to_iso=True)`, its
    class read off `finspace.class_index`. The bounds are checked first: one
    below one point raises ValueError, as it would leave every row vacuous,
    and one past MAX_SUITE_Y or MAX_SUITE_Z raises BudgetExceeded."""
    if max_y < 1 or max_z < 1:
        raise ValueError(f"bounds ({max_y},{max_z}) need at least 1 point each")
    if max_y > MAX_SUITE_Y or max_z > MAX_SUITE_Z:
        raise BudgetExceeded(
            f"bounds ({max_y},{max_z}) exceed ({MAX_SUITE_Y},{MAX_SUITE_Z})"
        )
    axes = []
    for limit in (max_y, max_z):
        spaces, reps, index = [], [], []
        for n in range(1, limit + 1):
            spaces.extend(enumerate_topologies(n))
            index.extend([len(reps) + k for k in class_index(n)])
            reps.extend(enumerate_topologies(n, up_to_iso=True))
        axes.append(SpaceAxis(spaces, reps, index))
    return tuple(axes)


def over_classes(run, ys: SpaceAxis, zs: SpaceAxis) -> list[VerdictReport]:
    """run(ys, zs) on two axes of deciders, and again on their labeled
    axes when a row it returns has a witness: a witness read off deciders
    names them, so the rerun gives the witnesses, and their order, of the
    labeled pairs."""
    rows = run(ys, zs)
    if any(row.witnesses for row in rows):
        rows = run(ys.labeled, zs.labeled)
    return rows


def class_table(ys: SpaceAxis, zs: SpaceAxis, decide) -> list[list]:
    """decide(y, z) once per pair of deciders, y-major: one list per
    decider of ys, indexed by the position of a decider of zs."""
    return [[decide(y, z) for z in zs.reps] for y in ys.reps]


def _pair_table(ys: SpaceAxis, zs: SpaceAxis) -> list:
    """Each pair (y, z) of deciders of ys and zs, y-major, with its six
    named topologies in `NAMED` order, looked up once, and two weights.
    The weight is the labeled pairs it decides for, the product of the
    labeled spaces each decider decides for. The own weight counts only
    the labeled Z homeomorphic to z: those with as many points as z, since
    a Z deciding through a smaller z is not T0. It is what a row reading
    z's own profile as Z's may count, and it equals the weight on a class
    or a labeled axis. The one table shape every pair row reads."""
    wy, wz = Counter(ys.index), Counter(zs.index)
    own = Counter(j for z, j in zip(zs.spaces, zs.index) if z.size == zs.reps[j].size)
    return [
        (y, z, [named_function_topology(k, y, z) for k in NAMED], wy[i] * wz[j], wy[i] * own[j])
        for i, y in enumerate(ys.reps)
        for j, z in enumerate(zs.reps)
    ]


def _pair_rows(ys: SpaceAxis, zs: SpaceAxis) -> list[VerdictReport]:
    """The pair-level rows over the axes ys and zs, and the Sierpinski
    rows over ys against `chain(2)`, S's class representative."""
    table = _pair_table(ys, zs)
    out = _admissibility_rows(table)
    out.extend(_preservation_rows(table))
    out.extend(_grid_rows(table))
    out.append(_splitting_order_row(table))
    out.extend(_sierpinski_rows(_pair_table(ys, SpaceAxis.own([chain(2)]))))
    out.extend(_dual_rows(table))
    return out


def _pairs(table) -> int:
    """The labeled pairs a table stands for: the sum of its weights."""
    return sum(w for _, _, _, w, _ in table)


def _admissibility_rows(table) -> list[VerdictReport]:
    """Each named topology is admissible under its hypothesis on (Y, Z), in
    `NAMED` order; both profiles are read once per pair for all six."""
    n = _pairs(table)
    true_counts = [0] * len(NAMED)
    witnesses = [[] for _ in NAMED]
    for y, z, ts, weight, _ in table:
        lp, rp = local_profile(y), relative_profile(y, z)
        hyps = (
            lp.regular and lp.locally_compact,
            rp.regular_locally_z_compact,
            lp.corecompact,
            lp.locally_bounded,
            rp.z_corecompact,
            rp.locally_z_bounded,
        )
        for k, t in enumerate(ts):
            if hyps[k]:
                true_counts[k] += weight
                w = evaluation_witness(t)
                if w is not None:
                    witnesses[k].append((pair_tag(y, z), "open", w))
    labels = ("regular+locally_compact", "regular+locally_z_compact", "corecompact")
    labels += ("locally_bounded", "z_corecompact", "locally_z_bounded")
    return [
        VerdictReport.of(f"admissible:{name} when={label}", w, c, n, budget=(("pairs", n),))
        for name, label, w, c in zip(NAMED, labels, witnesses, true_counts)
    ]


def _preservation_rows(table) -> list[VerdictReport]:
    """The separation grades of Z carry over to each named topology. A
    grade holds only for a T0 Z, which is homeomorphic to its decider, so a
    pair counts its own weight."""
    n = _pairs(table)
    budget = (("pairs", n),)
    z_profiles = [separation_profile(z) for _, z, _, _, _ in table]
    rows = []
    for grade in ("t0", "t1", "t2"):
        for k, name in enumerate(NAMED):
            true_count = 0
            witnesses = []
            for (y, z, ts, _, own), zp in zip(table, z_profiles):
                if not getattr(zp, grade):
                    continue
                true_count += own
                if not getattr(ts[k].profile, grade):
                    witnesses.append((pair_tag(y, z),))
            claim = f"preserve:{grade} {name}"
            rows.append(VerdictReport.of(claim, witnesses, true_count, n, budget=budget))
    return rows


_GRID = (
    ("co", "coZ"),
    ("co", "isbell"),
    ("isbell", "sisbell"),
    ("coZ", "t1z"),
    ("isbell", "t1z"),
    ("sisbell", "t1sz"),
)


def _grid_rows(table) -> list[VerdictReport]:
    n = _pairs(table)
    rows = []
    for lo, hi in _GRID:
        i, j = NAMED.index(lo), NAMED.index(hi)
        witnesses = []
        for y, z, ts, _, _ in table:
            cmp = compare_topologies(ts[i], ts[j])
            if cmp.verdict not in ("equal", "a_coarser"):
                witnesses.append((pair_tag(y, z), cmp.verdict))
        claim = f"grid:{lo}<={hi}"
        rows.append(VerdictReport.of(claim, witnesses, n, n, budget=(("pairs", n),)))
    # the two upper-family topologies are compared but not ordered; the row
    # only tabulates verdicts and stays inconclusive
    counts = {"equal": 0, "a_coarser": 0, "a_finer": 0, "incomparable": 0}
    i, j = NAMED.index("t1z"), NAMED.index("t1sz")
    for _, _, ts, weight, _ in table:
        counts[compare_topologies(ts[i], ts[j]).verdict] += weight
    budget = tuple(sorted(counts.items()))
    claim = "grid:t1z-vs-t1sz"
    rows.append(VerdictReport.of(claim, (), n, n, budget=budget, clean="inconclusive"))
    return rows


def _splitting_order_row(table) -> VerdictReport:
    """Whenever t is splitting and t' is admissible, t lies at or below t'.
    By the pointwise sandwich, with no comparison: a candidate t lies below
    the pointwise topology P (`splitting_verdict`'s test) and an admissible
    t' contains it (`evaluation_witness`'s), so t'.min_opens[i] ⊆ P[i] ⊆
    t.min_opens[i] for every map i. The row has no witness; it counts
    candidates x admissible per pair, times the pair's weight. Its search
    is the test oracle `literal_splitting_order_row`. The ("max_x", 2)
    entry only labels the row; the frozen suite bytes pin it."""
    checked = 0
    for _, _, ts, weight, _ in table:
        below = sum(first_escape(t.maps.pointwise, t.min_opens) is None for t in ts)
        above = sum(evaluation_witness(t) is None for t in ts)
        checked += below * above * weight
    return VerdictReport.of(
        "grid:splitting-candidates-below-admissible",
        (),
        checked,
        checked,
        budget=(("max_x", 2), ("pairs", _pairs(table))),
    )


def _sierpinski_rows(table) -> list[VerdictReport]:
    """The Sierpinski space S as codomain, over the weighted Y: table is
    `_pair_table` of those Y against S. S's open point is read off S, so
    any labeling of S gives the same rows, and at max_z >= 2 the table's
    entries are the pair table's own."""
    n = _pairs(table)
    found = {
        "sierpinski:z-topology-is-identity": [
            (fam_tag(y),) for y, s, _, _, _ in table if z_topology(y, s).opens != y.opens
        ]
    }
    for lo, hi in (("co", "coZ"), ("isbell", "t1z"), ("sisbell", "t1sz")):
        i, j = NAMED.index(lo), NAMED.index(hi)
        witnesses = found[f"sierpinski:{lo}={hi}"] = []
        for y, _, ts, _, _ in table:
            cmp = compare_topologies(ts[i], ts[j])
            if cmp.verdict != "equal":
                witnesses.append((fam_tag(y), cmp.verdict))
    k = NAMED.index("coZ")
    found["sierpinski:characteristic-homeomorphism"] = [
        (fam_tag(y),) for y, _, ts, _, _ in table if not _characteristic_homeomorphism(ts[k])
    ]
    return [VerdictReport.of(c, w, n, n) for c, w in found.items()]


def _characteristic_homeomorphism(t: FnTopology) -> bool:
    """Whether f -> f^{-1}(open point) carries t, the Z-relative
    compact-open topology on C(y, s), s a Sierpinski space in either
    labeling, onto the compact-subbasis hyperspace topology of y.

    A bijection carries one finite topology onto another exactly when it
    carries the minimal open of each point onto that of its image, so
    neither open family is listed."""
    hs = compact_subbasis_topology(t.maps.domain)
    open_point = t.maps.codomain.opens.members[1]  # s's one open besides {} and s
    perm = [hs.ground_index[v] for v in t.maps.preimage_rows[open_point]]
    if sorted(perm) != list(range(len(hs.ground))):
        return False
    return all(
        sum(1 << perm[j] for j in bits(m)) == hs.min_opens[perm[i]]
        for i, m in enumerate(t.min_opens)
    )


def _dual_rows(table) -> list[VerdictReport]:
    """Admissibility of each named t against that of its dual tau, decided
    by the Scott-trace sandwich. The Scott trace A on O_Z(Y), whose minimal
    open around g is ↑g, has t_of_tau(A) = P, the pointwise topology, and
    lies inside tau_of_t(P); both operators are monotone. So an admissible
    t (t ⊇ P) has a dual containing A, whose round trip contains P: the
    forward row has no witness, and no dual is built for it. Only a t that
    is not admissible gets its dual; an admissible one makes the pair and
    name a witness of both equivalence rows, which coincide by
    construction, "via_dual" admissibility of tau being the evaluation
    check on its round trip. Every name counts as an instance, weighted
    by its pair. The per-carrier route that built every dual is the test
    oracle `literal_dual_rows`.
    """
    equiv_wit = []
    forward_hyp = 0
    for y, z, ts, weight, _ in table:
        for name, t in zip(NAMED, ts):
            if evaluation_witness(t) is None:
                forward_hyp += weight
            elif is_admissible_on_ozy(tau_of_t(t), t.maps).status == "holds":
                equiv_wit.append((pair_tag(y, z), name))
    instances = _pairs(table) * len(NAMED)
    claim = "dual:admissible-implies-dual-admissible"
    rows = [VerdictReport.of(claim, (), forward_hyp, instances)]
    for claim in ("dual:named-equivalence-t-tau", "dual:named-equivalence-t-round-trip"):
        rows.append(VerdictReport.of(claim, equiv_wit, instances, instances))
    return rows


def _refinement_row(samples: int, seed: int, max_y: int, max_z: int) -> VerdictReport:
    """Anything finer than an admissible topology stays admissible. By the
    pointwise sandwich, with nothing drawn: a refinement's minimal opens lie
    inside its base's, which an admissible base has inside the pointwise
    ones. So the row counts `samples` refinements (none if negative) per
    admissible named base and has no witness; the seeded sampling is the
    test oracle `literal_refinement_row`. `samples` and `seed` only size
    and label the row; the frozen suite bytes pin them."""
    bases = []
    if max_y >= 2 and max_z >= 2:
        bases = [(chain(2), chain(2)), (chain(2), discrete(2))]
    admissible_bases = sum(
        evaluation_witness(named_function_topology(name, y, z)) is None
        for y, z in bases
        for name in NAMED
    )
    checked = admissible_bases * max(samples, 0)
    return VerdictReport.of(
        "admissible:refinement-monotone",
        (),
        checked,
        checked,
        budget=(("bases", admissible_bases), ("samples", samples), ("seed", seed)),
    )


def _divergence_rows() -> list[VerdictReport]:
    """Computed values that contradict previously tabulated ones; each row
    states the tabulated claim, fails against the computation, and is marked
    expected=False so suite consumers leave them red on purpose."""

    def row(claim, gap, witness, budget):
        # one fixed instance, whose witness counts only when the gap shows
        witnesses = [witness] if gap else []
        return VerdictReport.of(claim, witnesses, 1, 1, budget=budget, expected=not gap)

    y = chain(2)
    z = indiscrete(2)
    plain = z_scott(y, z)
    strong = strong_z_scott(y, z)
    rows = []
    # the family {empty, whole} over the open-set ground (empty, {0}, whole):
    # its empty member is a codomain-trace trigger, so upward closure would
    # force {0} in as well
    pair_family = 0b101
    rows.append(
        row(
            "divergence:pair-family-open chain2/indiscrete2",
            pair_family not in plain.opens,
            ("family", pair_family, "alpha_forces_index", 1),
            (("ground", plain.ground),),
        )
    )
    # {{0}} survives the plain variant but dies against the one-member cover
    # {whole} in the strong one
    lone = 0b010
    rows.append(
        row(
            "divergence:plain-equals-strong chain2/indiscrete2",
            lone in plain.opens and lone not in strong.opens,
            ("family", lone, "cover_union_mask", 0b100),
            (("ground", plain.ground),),
        )
    )
    # an admissible dual does not force the source topology to be admissible:
    # the dual keeps only which preimages occur, not which map produced them
    maps = enumerate_continuous(discrete(1), sierpinski())
    t = FnTopology.of(maps, (0b01,))
    w = evaluation_witness(t)
    tau = tau_of_t(t)
    dual_ok = is_admissible_on_ozy(tau, maps).status == "holds"
    rows.append(
        row(
            "divergence:dual-admissible-implies-admissible point/sierpinski",
            w is not None and dual_ok,
            ("eval_open", w, "dual_opens", tau.opens.members),
            (("subbasis", t.subbasis),),
        )
    )
    return rows
