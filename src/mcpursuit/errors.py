"""Exception types shared across the package.

Everything raised on purpose derives from McpursuitError so callers can
catch the whole family at once; the CLI maps subfamilies to exit codes.
"""


class McpursuitError(Exception):
    """Base class for all errors raised by this package."""


class ZeroBaseline(McpursuitError):
    """Pursuer and evader occupy the same point, so the baseline has no direction."""


class ValidationError(McpursuitError):
    """A scenario or parameter set violates a documented invariant."""


class ParseError(McpursuitError):
    """A scenario file could not be parsed; the message carries the line number."""


class InvalidSpeedRatio(McpursuitError):
    """Speed ratio outside [0, 1); the evader must be strictly slower."""


class DegenerateStart(McpursuitError):
    """Initial closing-rate fraction leaves no admissible epsilon (gamma0 at +1)."""


class InvalidGeometry(McpursuitError):
    """Inner radius does not fit inside the initial separation."""


class DegenerateGamma(McpursuitError):
    """Envelope requested for |gamma0| = 1, where atanh diverges."""


class CertificateMismatch(McpursuitError):
    """A trajectory was checked against a certificate issued for different parameters."""
