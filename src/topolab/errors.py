"""Error vocabulary shared across the package."""


class TopolabError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(TopolabError):
    """An input file is not the JSON shape its command reads, or a
    command's arguments do not fit together: a negative point count, a
    kind missing its codomain, a kinds list that is not three named
    kinds, or a dual file whose y or z disagrees with the given ones."""


class GroundTooLarge(TopolabError):
    """A ground is past a size cap: `CAPS.MAX_GROUND` for a subset family
    or a product, `CAPS.MAX_ENUM_POINTS` for a topology listing, or
    `CAPS.MAX_HYPER_GROUND` for a hyperspace or a Scott-type subbasis
    read."""


class NotATopology(TopolabError):
    """A subset family is not a topology, on a space's points or on a
    hyperspace's or a dual's ground, with one message and witness either
    way; it is never repaired. The witness names the offending masks: (0,)
    or (full,) for a missing empty set or ground, the first pair (a, b)
    whose union, or else intersection, escapes, or what escapes the ground.
    A label count off the ground has none."""

    def __init__(self, message: str, witness: tuple[int, ...] = ()):
        super().__init__(message)
        self.witness = witness


class BudgetExceeded(TopolabError):
    """A search or enumeration is past its budget: `CAPS.MAX_MAP_POINTS`
    for a map listing, `CAPS.MAX_SPLITTING_X` or
    `CAPS.MAX_SPLITTING_INSTANCES` for a splitting search,
    `CAPS.MAX_CANONICAL_RELABELS` for a canonical form,
    `CAPS.MAX_SUITE_Y` or `CAPS.MAX_SUITE_Z` for the suite's and the
    probes' bounds, or `FnTopology.materialize`'s `budget` of opens."""


class NotZRepresentable(TopolabError):
    """Subset is not a preimage of a codomain open under any continuous map."""


class NotOpen(TopolabError):
    """Subset is not open in the relevant space."""


class MismatchedBase(TopolabError):
    """Hyperspace and map set disagree on the underlying domain space."""


class MismatchedGround(TopolabError):
    """Operands are defined over different grounds and cannot be compared."""


class UnknownQuestion(TopolabError):
    """Question id is not in the registry."""
