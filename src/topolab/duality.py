"""Dual operators between map-set topologies and topologies on the preimage
family, plus admissibility of the latter.

Both directions share one bracket over a pair (Y, Z): a family of domain
opens and a codomain open carve out the maps whose preimage lands in the
family, and a set of maps with a codomain open produce the family of their
preimages. The first is `fntop.lift_families`, the same lift that builds
the named topologies; `tau_of_t` is its transpose. Iterating the two need
not return the start; it can only grow the topology, which the tests pin
down.

Admissibility of a topology on the preimage family quantifies over all
spaces X and all maps X -> C(Y,Z), so the decision route converts it to an
evaluation check on the dual map-set topology. The bounded search over small
X is kept as a cross-check that can refute but never certify. It is the
search `refute_splitting` runs, `mapspace._continuous_slices`, with the two
relations swapped: continuity into the dual is now the hypothesis, and joint
continuity of the adjoint is the conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import MismatchedBase
from .finspace import (
    FinSpace,
    Subset,
    SubsetFamily,
    bits,
    enumerate_topologies,
    generate_from_subbasis,
    popcount,
)
from .fntop import FnTopology, evaluation_witness, lift_families
from .hypertop import _validate_topology_family
from .mapspace import MapSet, _continuous_slices, o_z_family, slice_instances
from .reports import VerdictReport, pair_tag

DEFAULT_DIRECT_MAX_X = 2


@dataclass(frozen=True)
class DualSpace:
    """A topology on the preimage family of a pair (Y, Z)."""

    y: FinSpace
    z: FinSpace
    ground: tuple[Subset, ...]
    opens: SubsetFamily

    @classmethod
    def of(cls, y: FinSpace, z: FinSpace, opens) -> "DualSpace":
        ground = o_z_family(y, z).members
        fam = SubsetFamily.of(len(ground), opens)
        _validate_topology_family(len(ground), fam, "dual")
        return cls(y, z, ground, fam)

    @cached_property
    def ground_index(self) -> dict[Subset, int]:
        return {g: i for i, g in enumerate(self.ground)}

    def as_space(self) -> FinSpace:
        labels = tuple(
            f"{{{','.join(str(p) for p in bits(g))}}}" for g in self.ground
        )
        return FinSpace(len(self.ground), self.opens, labels)


def tau_of_t(t: FnTopology) -> DualSpace:
    """Dual on the preimage family: one generator per (maps-open, codomain
    open), collecting the preimages the open's maps actually take."""
    y = t.maps.domain
    z = t.maps.codomain
    ground = o_z_family(y, z).members
    index = {g: i for i, g in enumerate(ground)}
    seeds = set()
    for u in z.opens:
        rows = t.maps.preimage_rows[u]
        for h in t.opens:
            fam = 0
            for i in bits(h):
                fam |= 1 << index[rows[i]]
            seeds.add(fam)
    opens = generate_from_subbasis(len(ground), seeds).opens
    return DualSpace.of(y, z, opens)


def t_of_tau(tau: DualSpace, maps: MapSet) -> FnTopology:
    """Dual on the map set: a map joins a generator when its preimage of the
    codomain open lies in the chosen dual-open family."""
    if tau.y != maps.domain or tau.z != maps.codomain:
        raise MismatchedBase("dual space pair differs from the map set pair")
    subbasis = lift_families(maps, tau.ground_index, tau.opens)
    return FnTopology.of(maps, subbasis, "custom")


def is_admissible_on_ozy(
    tau: DualSpace,
    maps: MapSet,
    mode: str = "via_dual",
    max_x: int = DEFAULT_DIRECT_MAX_X,
) -> VerdictReport:
    """Admissibility of tau. "via_dual" decides it by the evaluation check
    on `t_of_tau`. "direct_bounded" searches the test spaces on at most
    `max_x` points, so it can refute but never certify; it shares the
    instance count and budget of `refute_splitting` (MAX_SPLITTING_X,
    MAX_SPLITTING_INSTANCES) and raises BudgetExceeded before any X."""
    if mode == "via_dual":
        return _admissible_via_dual(tau, maps)
    if mode == "direct_bounded":
        return _admissible_direct(tau, maps, max_x)
    raise ValueError(f"unknown mode {mode!r}")


def _admissible_via_dual(tau: DualSpace, maps: MapSet) -> VerdictReport:
    t = t_of_tau(tau, maps)
    w = evaluation_witness(t)
    claim = f"ozy-admissible mode=via_dual {pair_tag(tau.y, tau.z)}"
    if w is None:
        return VerdictReport(
            claim=claim,
            status="holds",
            hypothesis_true_count=1,
            instance_count=1,
        )
    return VerdictReport(
        claim=claim,
        status="fails",
        hypothesis_true_count=1,
        instance_count=1,
        witnesses=(("eval_preimage_not_open", w),),
    )


def _admissible_direct(tau: DualSpace, maps: MapSet, max_x: int) -> VerdictReport:
    """Bounded search for a violating (X, G): continuity of the preimage
    rows into tau without joint continuity of the adjoint. It is the slice
    search of `refute_splitting` with hypothesis and conclusion swapped,
    and reports up to its first violation in `itertools.product` order."""
    nmaps = len(maps)
    slice_instances(nmaps, max_x, True)
    into_tau = maps.pull_relation(tau.ground_index, tau.as_space().min_opens)
    instances = hypothesis_true = 0
    witnesses = ()
    xs = (x for n in range(1, max_x + 1) for x in enumerate_topologies(n, up_to_iso=True))
    for xspace in xs:
        count, broken = _continuous_slices(xspace.min_opens, into_tau, maps.joint, nmaps)
        if not broken:
            instances += nmaps**xspace.size
            hypothesis_true += count
            continue
        head, tails, cand, before = broken[0]
        c = (tails & -tails).bit_length() - 1
        g = head + (c,)
        # g's rank among the product-order assignments, and its candidates up to c
        instances += sum(i * nmaps**k for k, i in enumerate(reversed(g))) + 1
        hypothesis_true += before + popcount(cand & ((2 << c) - 1))
        tables = tuple(maps.tables[i] for i in g)
        witnesses = (("x_opens", xspace.opens.members, "assignment", tables),)
        break
    return VerdictReport(
        claim=f"ozy-admissible mode=direct_bounded max_x={max_x} {pair_tag(tau.y, tau.z)}",
        status="fails" if witnesses else "inconclusive",
        hypothesis_true_count=hypothesis_true,
        instance_count=instances,
        witnesses=witnesses,
        budget=(("max_x", max_x),),
    )
