"""Error vocabulary shared across the package."""


class TopolabError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(TopolabError):
    """An input file is not the JSON shape its command reads."""


class GroundTooLarge(TopolabError):
    """Ground set exceeds the 32-point bit-vector limit (or an enumeration cap)."""


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
    """A configured search or enumeration budget was exceeded."""


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
