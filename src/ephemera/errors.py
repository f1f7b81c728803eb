"""Exception hierarchy shared across the package."""


class EphemeraError(Exception):
    """Base class for all package errors."""


class InvalidAction(EphemeraError):
    """Weight data does not define a valid complexity-one torus action."""


class NotTall(EphemeraError):
    """Operation requires a tall model (no opposite-sign exponents)."""


class NotInvariant(EphemeraError):
    """Polynomial has a term outside the invariant lattice."""


class OrderOutOfRange(EphemeraError):
    """Vanishing order must satisfy 0 < order <= degree."""


class PrerequisiteVanishingFailed(EphemeraError):
    """Chart jet requires vanishing below the model degree."""


class NotCriticalModPhi(EphemeraError):
    """Point is not a critical point of g modulo the moment map."""


class ConditionsNotMet(EphemeraError):
    """Closed-form Hessian needs the two criticality conditions to hold."""


class UnsupportedSupport(EphemeraError):
    """Polar criticality residuals need zero exponents on the support."""


class EmptyFiber(EphemeraError):
    """Requested level is outside the moment-map image."""


class NotProper(EphemeraError):
    """Moment map is not proper (weights not in an open half-space)."""


class UnknownName(EphemeraError):
    """Catalog entry does not exist."""


class ParseError(EphemeraError):
    """Input file failed to parse or validate."""
