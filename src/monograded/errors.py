"""Exception types shared across the toolkit."""


class ComputationError(Exception):
    """Base class for all errors raised by monograded computations."""


class DimensionMismatch(ComputationError):
    """Operands live in polynomial rings with different variable counts."""


class ZeroIdealColon(ComputationError):
    """Colon by the zero ideal is undefined."""


class InfiniteLength(ComputationError):
    """A total length was requested for a non-Artinian quotient."""


class ZeroRing(ComputationError):
    """The quotient ring is zero; the requested invariant is undefined."""


class NotAReduction(ComputationError):
    """A candidate ideal failed the reduction test within the search bound."""


class ReconstructionFailed(ComputationError):
    """A sequence did not stabilize to a rational function within the data given."""
