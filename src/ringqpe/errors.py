"""Exception and warning types shared across the toolkit."""


class RingQpeError(Exception):
    """Base class for all toolkit errors."""


class PreconditionError(RingQpeError, ValueError):
    """An input violates a documented precondition or invariant."""


class ResolutionError(PreconditionError):
    """A grid or register is too coarse for the requested computation."""


class ResourceLimitError(RingQpeError, RuntimeError):
    """A computation would exceed a size guard (dimension or bytes)."""


class ProblemFormatError(RingQpeError, ValueError):
    """A problem file or serialized matrix does not match the wire format."""


class PhaseAliasingWarning(UserWarning):
    """Spectral radius at or beyond pi: encoded phases wrap around the circle."""
