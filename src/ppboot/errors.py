"""Exception types shared across the package, and the config-section check."""

NUMBER = (int, float)
SEQUENCE = (list, tuple)


class PPBootError(Exception):
    """Base class for failures raised by this package."""


class DataError(PPBootError):
    """Input data violates the expected schema, format, or invariants."""


class SchemaError(DataError):
    """A required column or schema key is missing or malformed."""


class ParseError(DataError):
    """A cell could not be parsed; the message names the row and column."""


class ValidationError(DataError):
    """Parsed data violates a dataset invariant (NaN/infinity, bad shape)."""


class EstimationError(PPBootError):
    """An estimate, tuning run, training run, or interval cannot be produced."""


def check_config(raw: dict, types: dict[str, tuple[type, ...]], section: str) -> None:
    """Reject unknown keys and wrongly typed values in one config section.

    ``types`` maps every allowed key to the accepted value types; ``bool``
    passes only where listed, although Python counts it as an ``int``.  The
    ``ValueError`` names the section and the key.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"{section} config must be an object, got {raw!r}")
    unknown = set(raw) - set(types)
    if unknown:
        raise ValueError(f"unknown {section} config keys: {sorted(unknown)}")
    for key, value in raw.items():
        allowed = types[key]
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
            raise ValueError(f"{section} config key {key!r} must be {names}, got {value!r}")
