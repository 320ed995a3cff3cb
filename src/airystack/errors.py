"""Shared exception types."""


class EvanescentLeadError(ValueError):
    """Scattering requested with energy at or below a lead potential."""


class DegenerateSlopeError(ValueError):
    """Linear-profile matrix requested for a layer with (near-)zero slope."""


class NoClosedFormLimitError(ValueError):
    """The requested (mu, nu) squeeze has no closed-form limit in scope."""


class ConfigError(ValueError):
    """Malformed device configuration."""
