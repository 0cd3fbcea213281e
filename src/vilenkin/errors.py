"""Error taxonomy shared across the package.

All errors derive from ValueError so callers that do not care about the
distinction can catch one type. The CLI maps every VilenkinError to exit
code 2: a ConfigurationError prints as a configuration error, any other as
an invalid parameter. Exit code 1 means a checked property failed.
"""

import sys


class VilenkinError(ValueError):
    pass


class ValidationError(VilenkinError):
    """Structurally invalid value: bad radix entry, digit out of range."""


class ConfigurationError(VilenkinError):
    """Invalid or contradictory configuration (file, flags, environment)."""


class DomainError(VilenkinError):
    """Input outside an operation's mathematical domain."""


class UsageError(VilenkinError):
    """Operation called with arguments outside its admissible range."""


_CONFIG_TYPES = {int: ("an integer", int), float: ("a finite number", (int, float)),
                 str: ("a string", str), list: ("a list", list), dict: ("an object", dict)}


def config_value(value, kind: type, name: str, minimum=None):
    """value converted to kind, the JSON type docs/config-schema.json gives the key.

    Raises ConfigurationError naming the key when the value has another type
    (a boolean is not a number), is a number no finite float holds (json
    reads NaN, Infinity and integers of any size), or lies below minimum.
    """
    what, accepted = _CONFIG_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, accepted) \
            or (kind is float and not abs(value) <= sys.float_info.max) \
            or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigurationError(f"{name}={value!r} is not {what}{bound}")
    return kind(value)


def config_object(value, keys, name: str) -> dict:
    """value as an object whose keys all lie in keys, as docs/config-schema.json closes it.

    Raises ConfigurationError naming every other key.
    """
    obj = config_value(value, dict, name)
    unknown = set(obj) - set(keys)
    if unknown:
        raise ConfigurationError(f"unknown {name} keys: {sorted(unknown)}")
    return obj
