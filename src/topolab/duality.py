"""Dual operators between map-set topologies and topologies on the preimage
family O_Z(Y), plus admissibility of the latter.

There is one bracket over a pair (Y, Z), `MapSet.bracket`, cached on the
map set: per codomain open, the maps grouped by the position of their
preimage in O_Z(Y), a dual's ground. Lifting reads it one way: a family
of domain opens and a codomain open carve out the maps whose preimage
lands in the family, the OR of the groups the family holds. `t_of_tau` is
that lift, `lift_open_family`, once the pair is checked. `tau_of_t` is its
transpose: a set of maps and a codomain open produce the family of their
preimages, the positions whose group meets the set. A round trip groups
the maps once. Iterating the two need not return the start; it can only
grow the topology, which the tests pin down.

Both directions commute with union, so `tau_of_t` is fed only the minimal
t-opens, and lifting commutes with meets, so `t_of_tau` pulls only the
dual's minimal opens. A DualSpace is a HyperSpace whose base is Y and
whose ground is O_Z(Y), recording Z as well: it is carried by its minimal
opens and lists its open family only when asked, and `t_of_tau` lists the
subbasis it prints only when asked, too.

Admissibility of a topology on the preimage family quantifies over all
spaces X and all maps X -> C(Y,Z), so it is decided one way: as the
evaluation check on the dual map-set topology `t_of_tau` (Escardó–Heckmann,
Topology Proc. 26). The bounded search over small X, which could only
refute it, lives on as a test oracle.
"""

from __future__ import annotations

from .errors import MismatchedBase
from .finspace import FinSpace, meets_by_point
from .fntop import FnTopology, evaluation_witness, lift_open_family
from .hypertop import HyperSpace
from .mapspace import MapSet, o_z_family
from .reports import VerdictReport, pair_tag


class DualSpace(HyperSpace):
    """A topology on the preimage family O_Z(Y) of a pair (Y, Z): a
    HyperSpace whose base is Y and whose ground is O_Z(Y), which also
    records Z. Its opens, ground index and space are the HyperSpace ones."""

    z: FinSpace

    @classmethod
    def of(cls, y: FinSpace, z: FinSpace, opens) -> "DualSpace":
        """A dual from an explicit open family on O_Z(Y), validated and
        kept as `HyperSpace.of` keeps it."""
        return super().of(y, o_z_family(y, z).members, opens, "dual", z)

    @property
    def y(self) -> FinSpace:
        return self.base


def tau_of_t(t: FnTopology) -> DualSpace:
    """Dual on the preimage family: one generator per (maps-open, codomain
    open), collecting the preimages the open's maps actually take, that is
    the positions of `MapSet.bracket` whose group meets the open.

    Collecting commutes with union and every t-open is a union of minimal
    t-opens, so the minimal t-opens generate the same dual; the dual's
    minimal opens are then the meets of those generators."""
    y = t.maps.domain
    z = t.maps.codomain
    ground = o_z_family(y, z).members
    hs = set(t.min_opens)
    seeds = {
        sum(g for g, group in groups.items() if group & h)
        for groups in t.maps.bracket
        for h in hs
    }
    return DualSpace(y, ground, meets_by_point(len(ground), seeds), "dual", z)


def t_of_tau(tau: DualSpace, maps: MapSet) -> FnTopology:
    """Dual on the map set: a map joins a generator when its preimage of the
    codomain open lies in the chosen dual-open family, so this is
    `lift_open_family` of tau once its pair is checked. Lifting commutes
    with meets, so the minimal opens are one pull of the dual's minimal
    opens. The subbasis, listed on first use, lifts every dual open through
    its trace on the preimages that occur; it is what the dual-t-of-tau
    command prints."""
    if tau.y != maps.domain or tau.z != maps.codomain:
        raise MismatchedBase("dual space pair differs from the map set pair")
    return lift_open_family(tau, maps)


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
