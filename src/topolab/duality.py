"""Dual operators between map-set topologies and topologies on the preimage
family, plus admissibility of the latter.

Both directions share one bracket over a pair (Y, Z): a family of domain
opens and a codomain open carve out the maps whose preimage lands in the
family, and a set of maps with a codomain open produce the family of their
preimages. The first is `FnTopology.lift`, the same lift that builds the
named topologies; `tau_of_t` is its transpose. Iterating the two need
not return the start; it can only grow the topology, which the tests pin
down.

Both brackets commute with union, so `tau_of_t` is fed only the minimal
t-opens, and lifting commutes with meets, so `t_of_tau` pulls only the
dual's minimal opens. A DualSpace is carried by its minimal opens and lists
its open family only when asked; `t_of_tau` lists the subbasis it prints
only when asked, too.

Admissibility of a topology on the preimage family quantifies over all
spaces X and all maps X -> C(Y,Z), so the decision route converts it to an
evaluation check on the dual map-set topology. The bounded search over small
X is kept as a cross-check that can refute but never certify. It is the
search `refute_splitting` runs, `mapspace._continuous_slices`, with the two
relations swapped: continuity into the dual is now the hypothesis, and joint
continuity of the adjoint is the conclusion. When the first lies inside the
second nothing can be violated, so the search is skipped and the hypothesis
count comes from `mapspace.continuous_slice_count`, cached per relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import MismatchedBase
from .finspace import (
    FinSpace,
    Subset,
    SubsetFamily,
    _enumerate_upsets,
    _subset_labels,
    _validate_topology_family,
    bits,
    enumerate_topologies,
    meets_by_point,
    popcount,
)
from .fntop import FnTopology, evaluation_witness
from .mapspace import (
    MapSet,
    _continuous_slices,
    _transpose,
    continuous_slice_count,
    first_escape,
    o_z_family,
    slice_instances,
)
from .reports import VerdictReport, pair_tag

DEFAULT_DIRECT_MAX_X = 2


@dataclass(frozen=True)
class DualSpace:
    """A topology on the preimage family of a pair (Y, Z), carried by the
    minimal open around each preimage; the open family is listed on first
    use."""

    y: FinSpace
    z: FinSpace
    ground: tuple[Subset, ...]
    min_opens: tuple[int, ...]

    @classmethod
    def of(cls, y: FinSpace, z: FinSpace, opens) -> "DualSpace":
        ground = o_z_family(y, z).members
        fam = SubsetFamily.of(len(ground), opens)
        _validate_topology_family(len(ground), fam, "dual")
        return cls(y, z, ground, meets_by_point(len(ground), fam))

    @cached_property
    def ground_index(self) -> dict[Subset, int]:
        return {g: i for i, g in enumerate(self.ground)}

    @cached_property
    def opens(self) -> SubsetFamily:
        """Every open: the families holding the minimal open of each member."""
        m = len(self.ground)
        return SubsetFamily(m, tuple(sorted(_enumerate_upsets(m, self.min_opens))))

    def as_space(self) -> FinSpace:
        return FinSpace(len(self.ground), self.opens, _subset_labels(self.ground))


def tau_of_t(t: FnTopology) -> DualSpace:
    """Dual on the preimage family: one generator per (maps-open, codomain
    open), collecting the preimages the open's maps actually take.

    Collecting commutes with union and every t-open is a union of minimal
    t-opens, so the minimal t-opens generate the same dual; the dual's
    minimal opens are then the meets of those generators."""
    y = t.maps.domain
    z = t.maps.codomain
    ground = o_z_family(y, z).members
    index = {g: i for i, g in enumerate(ground)}
    seeds = set()
    for u in z.opens:
        rows = t.maps.preimage_rows[u]
        for h in set(t.min_opens):
            fam = 0
            for i in bits(h):
                fam |= 1 << index[rows[i]]
            seeds.add(fam)
    return DualSpace(y, z, ground, meets_by_point(len(ground), seeds))


def t_of_tau(tau: DualSpace, maps: MapSet) -> FnTopology:
    """Dual on the map set: a map joins a generator when its preimage of the
    codomain open lies in the chosen dual-open family. Lifting commutes with
    meets, so the minimal opens are one pull of the dual's minimal opens.
    The subbasis, listed on first use, lifts every dual open through its
    trace on the preimages that occur; it is what the dual-t-of-tau command
    prints."""
    _check_pair(tau, maps)
    return FnTopology.lift(tau, maps, "custom")


def _check_pair(tau: DualSpace, maps: MapSet) -> None:
    if tau.y != maps.domain or tau.z != maps.codomain:
        raise MismatchedBase("dual space pair differs from the map set pair")


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
    MAX_SPLITTING_INSTANCES) and raises BudgetExceeded before any X, or
    ValueError for a max_x below 1."""
    if mode == "via_dual":
        return _admissible_via_dual(tau, maps)
    if mode == "direct_bounded":
        return _admissible_direct(tau, maps, max_x)
    raise ValueError(f"unknown mode {mode!r}")


def _admissible_via_dual(tau: DualSpace, maps: MapSet) -> VerdictReport:
    w = evaluation_witness(t_of_tau(tau, maps))
    return VerdictReport.of(
        f"ozy-admissible mode=via_dual {pair_tag(tau.y, tau.z)}",
        [] if w is None else [("eval_preimage_not_open", w)],
        1,
        1,
    )


def _admissible_direct(tau: DualSpace, maps: MapSet, max_x: int) -> VerdictReport:
    """Bounded search for a violating (X, G): continuity of the preimage
    rows into tau without joint continuity of the adjoint. It is the slice
    search of `refute_splitting` with hypothesis and conclusion swapped,
    and reports up to its first violation in `itertools.product` order.

    When continuity into tau implies joint continuity map pair by map pair,
    no assignment violates it: the report is then clean, counts every
    instance, and reads its hypothesis count off
    `mapspace.continuous_slice_count`, shared by every call on the same
    relation. Otherwise the search runs."""
    nmaps = len(maps)
    total = slice_instances(nmaps, max_x, True)
    below = maps.pull(tau.ground_index, tau.min_opens)
    claim = f"ozy-admissible mode=direct_bounded max_x={max_x} {pair_tag(tau.y, tau.z)}"
    budget = (("max_x", max_x),)
    if first_escape(below, maps.joint[0]) is None:
        count = continuous_slice_count(tuple(below), max_x, True)
        return VerdictReport.of(claim, (), count, total, budget=budget, clean="inconclusive")
    into_tau = (below, _transpose(below))
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
    return VerdictReport.of(
        claim, witnesses, hypothesis_true, instances, budget=budget, clean="inconclusive"
    )
