"""Decision procedures and the exhaustive small-scale suite.

Three checks and one suite. Admissibility of a function-space topology is
decided exactly by the evaluation lemma from `fntop`. Splitting is
refutation-only: its definition quantifies over every test space X, so a
bounded search can fail a topology but never certify one, and the clean
outcome is deliberately "inconclusive". Composition continuity is a direct
product-openness check on the two function-space grounds.

Every implication a report covers is treated as a material conditional: the
count of hypothesis-true instances rides along, so a vacuous pass is visible
as one. The suite also carries three permanently failing rows marked
expected=False; they record computed divergences from previously tabulated
values and are meant to stay red.
"""

from __future__ import annotations

import random

from .duality import is_admissible_on_ozy, t_of_tau, tau_of_t
from .errors import BudgetExceeded, GroundTooLarge
from .finspace import (
    FinSpace,
    bits,
    chain,
    discrete,
    enumerate_topologies,
    indiscrete,
    local_profile,
    separation_profile,
    sierpinski,
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
    _continuous_slices,
    _transpose,
    enumerate_continuous,
    relative_profile,
    slice_instances,
    z_topology,
)
from .reports import VerdictReport, fam_tag, pair_tag

MAX_PRODUCT_GROUND = 32
MAX_COMPOSE_GROUND = 4096
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
    preimage, so the witness can be replayed against `product()` directly.
    """
    maps = t.maps
    y = maps.domain
    ground = len(maps) * y.size
    if ground > MAX_PRODUCT_GROUND:
        raise GroundTooLarge(
            f"product ground of {ground} points exceeds {MAX_PRODUCT_GROUND}"
        )
    claim = f"admissible:{t.provenance} {pair_tag(y, maps.codomain)}"
    budget = (("product_points", ground),)
    w = evaluation_witness(t)
    if w is None:
        return VerdictReport(
            claim=claim,
            status="holds",
            hypothesis_true_count=1,
            instance_count=1,
            budget=budget,
        )
    return VerdictReport(
        claim=claim,
        status="fails",
        hypothesis_true_count=1,
        instance_count=1,
        witnesses=(("open", w, "product_preimage", _product_preimage(maps, w)),),
        budget=budget,
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
    is enumerated. The search itself only visits continuous assignments (see
    `mapspace._continuous_slices`), in `itertools.product` order.
    """
    maps = t.maps
    instances = slice_instances(len(maps), max_x, symmetry_reduction)
    into_t = (t.min_opens, _transpose(t.min_opens))
    continuous = 0
    witnesses = []
    for n in range(1, max_x + 1):
        for xspace in enumerate_topologies(n, up_to_iso=symmetry_reduction):
            count, broken = _continuous_slices(xspace.min_opens, maps.joint, into_t, len(maps))
            continuous += count
            for head, tails, _, _ in broken:
                prefix = sum((maps.tables[i] for i in head), ())
                for i in bits(tails):
                    witnesses.append((xspace.opens.members, prefix + maps.tables[i]))
    return VerdictReport(
        claim=f"splitting:{t.provenance} {pair_tag(maps.domain, maps.codomain)}",
        status="fails" if witnesses else "inconclusive",
        hypothesis_true_count=continuous,
        instance_count=instances,
        witnesses=tuple(witnesses),
        budget=(("max_x", max_x), ("symmetry_reduction", symmetry_reduction)),
    )


def composition_check(
    x: FinSpace, y: FinSpace, z: FinSpace, kinds: tuple[str, str, str]
) -> VerdictReport:
    """Continuity of (f, g) -> g o f from C(X,Y) x C(Y,Z) into C(X,Z), each
    factor carrying its named topology.

    Checking the subbasics of the target suffices, since product-open sets
    are closed under union and intersection. The three relative hypothesis
    flags of the middle pair ride along in the budget; the one matching the
    middle kind sets the hypothesis count.
    """
    if len(kinds) != 3:
        raise ValueError(f"expected three topology kinds, got {kinds!r}")
    t_xy = named_function_topology(kinds[0], x, y)
    t_yz = named_function_topology(kinds[1], y, z)
    t_xz = named_function_topology(kinds[2], x, z)
    a, b, c = t_xy.maps, t_yz.maps, t_xz.maps
    if len(a) * len(b) > MAX_COMPOSE_GROUND:
        raise BudgetExceeded(
            f"composition ground of {len(a) * len(b)} pairs exceeds {MAX_COMPOSE_GROUND}"
        )
    comp = [
        [c.index[tuple(b[j](a[i](p)) for p in range(x.size))] for j in range(len(b))]
        for i in range(len(a))
    ]
    mins_a = t_xy.min_opens
    mins_b = t_yz.min_opens
    witnesses = []
    for s in t_xz.subbasis:
        hit = None
        for i in range(len(a)):
            if hit:
                break
            for j in range(len(b)):
                if not (s >> comp[i][j]) & 1:
                    continue
                escape = next(
                    (
                        (i2, j2)
                        for i2 in bits(mins_a[i])
                        for j2 in bits(mins_b[j])
                        if not (s >> comp[i2][j2]) & 1
                    ),
                    None,
                )
                if escape is not None:
                    hit = ("open", s, "at", (i, j), "escapes", escape)
                    break
        if hit:
            witnesses.append(hit)
    rp = relative_profile(y, z)
    hyp_name = _COMPOSE_HYPOTHESIS[kinds[1]]
    return VerdictReport(
        claim=(
            f"compose:{','.join(kinds)} x={fam_tag(x)} y={fam_tag(y)} z={fam_tag(z)}"
        ),
        status="fails" if witnesses else "holds",
        hypothesis_true_count=int(getattr(rp, hyp_name)),
        instance_count=1,
        witnesses=tuple(witnesses),
        budget=(
            ("hypothesis", hyp_name),
            ("locally_z_bounded", rp.locally_z_bounded),
            ("locally_z_compact", rp.locally_z_compact),
            ("z_corecompact", rp.z_corecompact),
        ),
    )


def theorem_suite(
    max_y: int = 3,
    max_z: int = 2,
    refinement_samples: int = DEFAULT_REFINEMENT_SAMPLES,
    seed: int = 0,
) -> list[VerdictReport]:
    """Every statement the package tracks, re-checked over all labeled
    topology pairs within the bounds; one report per statement."""
    if max_y > MAX_SUITE_Y or max_z > MAX_SUITE_Z:
        raise BudgetExceeded(
            f"bounds ({max_y},{max_z}) exceed ({MAX_SUITE_Y},{MAX_SUITE_Z})"
        )
    ys = [sp for n in range(1, max_y + 1) for sp in enumerate_topologies(n)]
    zs = [sp for n in range(1, max_z + 1) for sp in enumerate_topologies(n)]
    pairs = [(y, z) for y in ys for z in zs]
    out: list[VerdictReport] = []
    out.extend(_admissibility_rows(pairs))
    out.extend(_preservation_rows(pairs))
    out.extend(_grid_rows(pairs))
    out.append(_splitting_order_row(pairs))
    out.extend(_sierpinski_rows(ys))
    out.extend(_dual_rows(pairs))
    out.append(_refinement_row(refinement_samples, seed, max_y, max_z))
    out.extend(_divergence_rows())
    return out


def _admissible_hypothesis(name: str, y: FinSpace, z: FinSpace) -> tuple[str, bool]:
    if name == "co":
        pr = local_profile(y)
        return "regular+locally_compact", pr.regular and pr.locally_compact
    if name == "isbell":
        return "corecompact", local_profile(y).corecompact
    if name == "sisbell":
        return "locally_bounded", local_profile(y).locally_bounded
    rp = relative_profile(y, z)
    if name == "coZ":
        return "regular+locally_z_compact", rp.regular_locally_z_compact
    if name == "t1z":
        return "z_corecompact", rp.z_corecompact
    if name == "t1sz":
        return "locally_z_bounded", rp.locally_z_bounded
    raise ValueError(f"unknown topology name {name!r}")


def _admissibility_rows(pairs) -> list[VerdictReport]:
    rows = []
    for name in NAMED:
        label = ""
        true_count = 0
        witnesses = []
        for y, z in pairs:
            label, hyp = _admissible_hypothesis(name, y, z)
            if not hyp:
                continue
            true_count += 1
            w = evaluation_witness(named_function_topology(name, y, z))
            if w is not None:
                witnesses.append((pair_tag(y, z), "open", w))
        rows.append(
            VerdictReport(
                claim=f"admissible:{name} when={label}",
                status="fails" if witnesses else "holds",
                hypothesis_true_count=true_count,
                instance_count=len(pairs),
                witnesses=tuple(witnesses),
                budget=(("pairs", len(pairs)),),
            )
        )
    return rows


def _preservation_rows(pairs) -> list[VerdictReport]:
    rows = []
    for grade in ("t0", "t1", "t2"):
        for name in NAMED:
            true_count = 0
            witnesses = []
            for y, z in pairs:
                if not getattr(separation_profile(z), grade):
                    continue
                true_count += 1
                space = named_function_topology(name, y, z).as_space()
                if not getattr(separation_profile(space), grade):
                    witnesses.append((pair_tag(y, z),))
            rows.append(
                VerdictReport(
                    claim=f"preserve:{grade} {name}",
                    status="fails" if witnesses else "holds",
                    hypothesis_true_count=true_count,
                    instance_count=len(pairs),
                    witnesses=tuple(witnesses),
                    budget=(("pairs", len(pairs)),),
                )
            )
    return rows


_GRID = (
    ("co", "coZ"),
    ("co", "isbell"),
    ("isbell", "sisbell"),
    ("coZ", "t1z"),
    ("isbell", "t1z"),
    ("sisbell", "t1sz"),
)


def _grid_rows(pairs) -> list[VerdictReport]:
    rows = []
    for lo, hi in _GRID:
        witnesses = []
        for y, z in pairs:
            cmp = compare_topologies(
                named_function_topology(lo, y, z), named_function_topology(hi, y, z)
            )
            if cmp.verdict not in ("equal", "a_coarser"):
                witnesses.append((pair_tag(y, z), cmp.verdict))
        rows.append(
            VerdictReport(
                claim=f"grid:{lo}<={hi}",
                status="fails" if witnesses else "holds",
                hypothesis_true_count=len(pairs),
                instance_count=len(pairs),
                witnesses=tuple(witnesses),
                budget=(("pairs", len(pairs)),),
            )
        )
    # the two upper-family topologies are compared but not ordered; the row
    # only tabulates verdicts and stays inconclusive
    counts = {"equal": 0, "a_coarser": 0, "a_finer": 0, "incomparable": 0}
    for y, z in pairs:
        cmp = compare_topologies(
            named_function_topology("t1z", y, z), named_function_topology("t1sz", y, z)
        )
        counts[cmp.verdict] += 1
    rows.append(
        VerdictReport(
            claim="grid:t1z-vs-t1sz",
            status="inconclusive",
            hypothesis_true_count=len(pairs),
            instance_count=len(pairs),
            budget=tuple(sorted(counts.items())),
        )
    )
    return rows


def _splitting_order_row(pairs) -> VerdictReport:
    """Whenever the bounded search does not refute t as splitting and t' is
    admissible, t should compare at or below t'; violations are findings."""
    checked = 0
    witnesses = []
    for y, z in pairs:
        ts = [named_function_topology(name, y, z) for name in NAMED]
        verdicts = {}
        for t in ts:
            # the refutation only depends on the subbasis, so share results
            # across same-subbasis provenances
            if t.subbasis not in verdicts:
                verdicts[t.subbasis] = refute_splitting(t, max_x=2).status
        candidates = [t for t in ts if verdicts[t.subbasis] == "inconclusive"]
        admissible = [t for t in ts if evaluation_witness(t) is None]
        for t in candidates:
            for t2 in admissible:
                checked += 1
                v = compare_topologies(t, t2).verdict
                if v not in ("equal", "a_coarser"):
                    witnesses.append((pair_tag(y, z), t.provenance, t2.provenance, v))
    return VerdictReport(
        claim="grid:splitting-candidates-below-admissible",
        status="fails" if witnesses else "holds",
        hypothesis_true_count=checked,
        instance_count=checked,
        witnesses=tuple(witnesses),
        budget=(("max_x", 2), ("pairs", len(pairs))),
    )


def _sierpinski_rows(ys) -> list[VerdictReport]:
    s = sierpinski()
    rows = []
    witnesses = [(fam_tag(y),) for y in ys if z_topology(y, s).opens != y.opens]
    rows.append(
        VerdictReport(
            claim="sierpinski:z-topology-is-identity",
            status="fails" if witnesses else "holds",
            hypothesis_true_count=len(ys),
            instance_count=len(ys),
            witnesses=tuple(witnesses),
        )
    )
    for lo, hi in (("co", "coZ"), ("isbell", "t1z"), ("sisbell", "t1sz")):
        witnesses = []
        for y in ys:
            cmp = compare_topologies(
                named_function_topology(lo, y, s), named_function_topology(hi, y, s)
            )
            if cmp.verdict != "equal":
                witnesses.append((fam_tag(y), cmp.verdict))
        rows.append(
            VerdictReport(
                claim=f"sierpinski:{lo}={hi}",
                status="fails" if witnesses else "holds",
                hypothesis_true_count=len(ys),
                instance_count=len(ys),
                witnesses=tuple(witnesses),
            )
        )
    # f -> f^{-1}(open point) should carry the Z-relative compact-open
    # topology onto the compact-subbasis hyperspace topology, open for open
    witnesses = []
    open_point = next(m for m in s.opens.members if m not in (0, s.full))
    for y in ys:
        t = named_function_topology("coZ", y, s)
        hs = compact_subbasis_topology(y)
        perm = [hs.ground_index[f.preimage(open_point)] for f in t.maps]
        image = set()
        for m in t.opens.members:
            image.add(sum(1 << perm[i] for i in bits(m)))
        if image != set(hs.opens.members):
            witnesses.append((fam_tag(y),))
    rows.append(
        VerdictReport(
            claim="sierpinski:characteristic-homeomorphism",
            status="fails" if witnesses else "holds",
            hypothesis_true_count=len(ys),
            instance_count=len(ys),
            witnesses=tuple(witnesses),
        )
    )
    return rows


def _dual_rows(pairs) -> list[VerdictReport]:
    forward_wit = []
    equiv_wit = []
    round_wit = []
    forward_hyp = 0
    instances = 0
    for y, z in pairs:
        for name in NAMED:
            instances += 1
            t = named_function_topology(name, y, z)
            t_ok = evaluation_witness(t) is None
            tau = tau_of_t(t)
            tau_ok = is_admissible_on_ozy(tau, t.maps).status == "holds"
            back_ok = evaluation_witness(t_of_tau(tau, t.maps)) is None
            if t_ok:
                forward_hyp += 1
                if not tau_ok:
                    forward_wit.append((pair_tag(y, z), name))
            if t_ok != tau_ok:
                equiv_wit.append((pair_tag(y, z), name))
            if t_ok != back_ok:
                round_wit.append((pair_tag(y, z), name))
    rows = [
        VerdictReport(
            claim="dual:admissible-implies-dual-admissible",
            status="fails" if forward_wit else "holds",
            hypothesis_true_count=forward_hyp,
            instance_count=instances,
            witnesses=tuple(forward_wit),
        ),
        VerdictReport(
            claim="dual:named-equivalence-t-tau",
            status="fails" if equiv_wit else "holds",
            hypothesis_true_count=instances,
            instance_count=instances,
            witnesses=tuple(equiv_wit),
        ),
        VerdictReport(
            claim="dual:named-equivalence-t-round-trip",
            status="fails" if round_wit else "holds",
            hypothesis_true_count=instances,
            instance_count=instances,
            witnesses=tuple(round_wit),
        ),
    ]
    return rows


def _refinement_row(samples: int, seed: int, max_y: int, max_z: int) -> VerdictReport:
    """Anything finer than an admissible topology stays admissible; sampled
    rather than exhausted, the refinement lattice being far too wide."""
    rng = random.Random(seed)
    bases = []
    if max_y >= 2 and max_z >= 2:
        bases = [(sierpinski(), sierpinski()), (chain(2), discrete(2))]
    checked = 0
    admissible_bases = 0
    witnesses = []
    for y, z in bases:
        for name in NAMED:
            t = named_function_topology(name, y, z)
            if evaluation_witness(t) is not None:
                continue
            admissible_bases += 1
            for _ in range(samples):
                extra = tuple(
                    rng.randrange(t.full + 1) for _ in range(rng.randint(1, 3))
                )
                finer = FnTopology.of(t.maps, t.subbasis + extra)
                checked += 1
                if evaluation_witness(finer) is not None:
                    witnesses.append((pair_tag(y, z), name, extra))
    return VerdictReport(
        claim="admissible:refinement-monotone",
        status="fails" if witnesses else "holds",
        hypothesis_true_count=checked,
        instance_count=checked,
        witnesses=tuple(witnesses),
        budget=(("bases", admissible_bases), ("samples", samples), ("seed", seed)),
    )


def _divergence_rows() -> list[VerdictReport]:
    """Computed values that contradict previously tabulated ones; each row
    states the tabulated claim, fails against the computation, and is marked
    expected=False so suite consumers leave them red on purpose."""
    y = chain(2)
    z = indiscrete(2)
    plain = z_scott(y, z)
    strong = strong_z_scott(y, z)
    rows = []
    # the family {empty, whole} over the open-set ground (empty, {0}, whole):
    # its empty member is a codomain-trace trigger, so upward closure would
    # force {0} in as well
    pair_family = 0b101
    gap = pair_family not in plain.opens
    rows.append(
        VerdictReport(
            claim="divergence:pair-family-open chain2/indiscrete2",
            status="fails" if gap else "holds",
            hypothesis_true_count=1,
            instance_count=1,
            witnesses=(("family", pair_family, "alpha_forces_index", 1),) if gap else (),
            budget=(("ground", plain.ground),),
            expected=not gap,
        )
    )
    # {{0}} survives the plain variant but dies against the one-member cover
    # {whole} in the strong one
    lone = 0b010
    split = lone in plain.opens and lone not in strong.opens
    rows.append(
        VerdictReport(
            claim="divergence:plain-equals-strong chain2/indiscrete2",
            status="fails" if split else "holds",
            hypothesis_true_count=1,
            instance_count=1,
            witnesses=(("family", lone, "cover_union_mask", 0b100),) if split else (),
            budget=(("ground", plain.ground),),
            expected=not split,
        )
    )
    # an admissible dual does not force the source topology to be admissible:
    # the dual keeps only which preimages occur, not which map produced them
    maps = enumerate_continuous(discrete(1), sierpinski())
    t = FnTopology.of(maps, (0b01,))
    w = evaluation_witness(t)
    tau = tau_of_t(t)
    dual_ok = is_admissible_on_ozy(tau, maps).status == "holds"
    reverse_gap = w is not None and dual_ok
    rows.append(
        VerdictReport(
            claim="divergence:dual-admissible-implies-admissible point/sierpinski",
            status="fails" if reverse_gap else "holds",
            hypothesis_true_count=1,
            instance_count=1,
            witnesses=(
                (("eval_open", w, "dual_opens", tau.opens.members),) if reverse_gap else ()
            ),
            budget=(("subbasis", t.subbasis),),
            expected=not reverse_gap,
        )
    )
    return rows
