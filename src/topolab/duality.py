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
evaluation check on the dual map-set topology; the bounded literal search is
kept as a cross-check that can refute but never certify.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct

from .errors import MismatchedBase
from .finspace import (
    FinSpace,
    Subset,
    SubsetFamily,
    bits,
    enumerate_topologies,
    generate_from_subbasis,
    product,
)
from .fntop import FnTopology, evaluation_witness, lift_families
from .hypertop import _validate_topology_family
from .mapspace import ContMap, MapSet, o_z_family
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


def _monotone(xspace: FinSpace, targets_min: tuple[int, ...], row: tuple[int, ...]) -> bool:
    # continuity between finite spaces = specialization monotonicity
    mins = xspace.min_opens
    for p in range(xspace.size):
        for q in bits(mins[p]):
            if not (targets_min[row[p]] >> row[q]) & 1:
                return False
    return True


def _admissible_direct(tau: DualSpace, maps: MapSet, max_x: int) -> VerdictReport:
    """Literal bounded search for a violating (X, G): first-variable
    continuity of the preimage map without continuity of the adjoint."""
    y = tau.y
    z = tau.z
    dual_min = tau.as_space().min_opens
    gidx = tau.ground_index
    claim = f"ozy-admissible mode=direct_bounded max_x={max_x} {pair_tag(y, z)}"
    instances = 0
    hypothesis_true = 0
    for n in range(1, max_x + 1):
        for xspace in enumerate_topologies(n, up_to_iso=True):
            prod = product(xspace, y)
            for g in iproduct(range(len(maps)), repeat=n):
                instances += 1
                rows_ok = True
                for u in z.opens:
                    pre = maps.preimage_rows[u]
                    row = tuple(gidx[pre[g[p]]] for p in range(n))
                    if not _monotone(xspace, dual_min, row):
                        rows_ok = False
                        break
                if not rows_ok:
                    continue
                hypothesis_true += 1
                table = tuple(
                    maps[g[p]](q) for p in range(n) for q in range(y.size)
                )
                if not ContMap(prod, z, table).is_continuous():
                    return VerdictReport(
                        claim=claim,
                        status="fails",
                        hypothesis_true_count=hypothesis_true,
                        instance_count=instances,
                        witnesses=(
                            (
                                "x_opens",
                                tuple(xspace.opens.members),
                                "assignment",
                                tuple(maps[i].table for i in g),
                            ),
                        ),
                        budget=(("max_x", max_x),),
                    )
    return VerdictReport(
        claim=claim,
        status="inconclusive",
        hypothesis_true_count=hypothesis_true,
        instance_count=instances,
        budget=(("max_x", max_x),),
    )
