"""Exception types shared across the package, and the config-section check."""

import json
import math

NUMBER = (int, float)


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


def check_config(raw: dict, types: dict[str, tuple[type, ...] | list[type]], section: str) -> None:
    """Reject unknown keys and wrongly typed values in one config section.

    ``types`` maps every allowed key to the accepted value types; a list of
    types instead means a list or tuple whose entries have one of them.
    ``bool`` passes only where listed, although Python counts it as an
    ``int``, and a number must be finite (JSON files may spell ``NaN`` and
    ``Infinity``).  The ``ValueError`` names the section and the key, and
    shows the value in JSON spelling.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"{section} config must be an object, got {json.dumps(raw, default=repr)}")
    unknown = set(raw) - set(types)
    if unknown:
        raise ValueError(f"unknown {section} config keys: {sorted(unknown)}")
    for key, value in raw.items():
        allowed = types[key]
        checks = [(f"key {key!r}", value, (list, tuple) if isinstance(allowed, list) else allowed)]
        if isinstance(allowed, list) and isinstance(value, (list, tuple)):
            checks += [(f"key {key!r} entries", entry, tuple(allowed)) for entry in value]
        for what, item, kinds in checks:
            if not isinstance(item, kinds) or (isinstance(item, bool) and bool not in kinds):
                names = " or ".join("null" if t is type(None) else t.__name__ for t in kinds)
                raise ValueError(f"{section} config {what} must be {names}, got {json.dumps(item, default=repr)}")
            if isinstance(item, float) and not math.isfinite(item):
                raise ValueError(f"{section} config {what} must be finite, got {json.dumps(item)}")
