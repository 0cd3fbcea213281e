"""Error taxonomy shared across the package.

All errors derive from ValueError so callers that do not care about the
distinction can catch one type. The CLI maps every VilenkinError to exit
code 2: a ConfigurationError prints as a configuration error, any other as
an invalid parameter. Exit code 1 means a checked property failed.
"""


class VilenkinError(ValueError):
    pass


class ValidationError(VilenkinError):
    """Structurally invalid value: bad radix entry, digit out of range."""


class ConfigurationError(VilenkinError):
    """Invalid or contradictory configuration (config file or flags)."""


class DomainError(VilenkinError):
    """Input outside an operation's mathematical domain."""


class UsageError(VilenkinError):
    """Operation called with arguments outside its admissible range."""
