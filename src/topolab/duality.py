"""Dual operators between map-set topologies and topologies on the preimage
family, plus admissibility of the latter.

Both directions share one bracket over a pair (Y, Z): a family of domain
opens and a codomain open carve out the maps whose preimage lands in the
family, and a set of maps with a codomain open produce the family of their
preimages. The first is `FnTopology.lift`, the lift `lift_open_family`
runs; `tau_of_t` is its transpose. Iterating the two need
not return the start; it can only grow the topology, which the tests pin
down.

Both brackets commute with union, so `tau_of_t` is fed only the minimal
t-opens, and lifting commutes with meets, so `t_of_tau` pulls only the
dual's minimal opens. A DualSpace is carried by its minimal opens and lists
its open family only when asked; `t_of_tau` lists the subbasis it prints
only when asked, too.

Admissibility of a topology on the preimage family quantifies over all
spaces X and all maps X -> C(Y,Z), so it is decided one way: as the
evaluation check on the dual map-set topology `t_of_tau` (Escardó–Heckmann,
Topology Proc. 26). The bounded search over small X, which could only
refute it, lives on as a test oracle.
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
    meets_by_point,
)
from .fntop import FnTopology, evaluation_witness
from .mapspace import MapSet, o_z_family
from .reports import VerdictReport, pair_tag


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


def is_admissible_on_ozy(tau: DualSpace, maps: MapSet) -> VerdictReport:
    """Admissibility of tau, decided by the evaluation check on
    `t_of_tau(tau, maps)`: tau is admissible exactly when evaluation is
    continuous on the map-set topology it induces."""
    w = evaluation_witness(t_of_tau(tau, maps))
    return VerdictReport.of(
        f"ozy-admissible mode=via_dual {pair_tag(tau.y, tau.z)}",
        [] if w is None else [("eval_preimage_not_open", w)],
        1,
        1,
    )
