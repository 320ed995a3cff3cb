"""Shared exception types."""


class AirystackError(Exception):
    """Base class for all package-specific errors."""


class EvanescentLeadError(AirystackError, ValueError):
    """Scattering requested with energy at or below a lead potential."""


class DegenerateSlopeError(AirystackError, ValueError):
    """Linear-profile matrix requested for a layer with (near-)zero slope."""


class NoClosedFormLimitError(AirystackError, ValueError):
    """The requested (mu, nu) squeeze has no closed-form limit in scope."""


class ConfigError(AirystackError, ValueError):
    """Malformed device configuration."""
