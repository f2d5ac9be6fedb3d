"""Exception types shared across the package, and the config-block checks.

Validation-style errors (bad inputs, bad configs) all derive from
``ValidationError`` so the CLI can map them to exit code 1; everything
else is treated as a runtime failure (exit code 2).
"""

import json
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path


class TreesegError(Exception):
    """Base class for all package errors."""


class ValidationError(TreesegError):
    """Base class for input/config validation failures."""


class ParseError(ValidationError):
    """Hierarchy document is malformed (bad JSON, duplicate or missing names)."""


class StructureError(ValidationError):
    """Hierarchy is not a valid rooted tree (cycle, multiple roots/parents)."""


class WeightError(ValidationError):
    """An edge weight is negative or otherwise unusable."""


class RangeError(ValidationError):
    """A level index or similar bounded argument is out of range."""


class NormalizationError(ValidationError):
    """A probability vector does not sum to one or has negative entries."""


class LabelError(ValidationError):
    """A pixel carries a class code outside the valid range."""


class EmptyMaskError(ValidationError):
    """A loss was asked to average over zero annotated pixels."""


class EmptyEvalError(ValidationError):
    """An evaluation was asked to score an empty annotation domain."""


class ConfigError(ValidationError):
    """Inconsistent or infeasible configuration."""


class ShapeError(ValidationError):
    """Array shapes do not match the model or field they are used with."""


class DivergenceError(TreesegError):
    """Training produced a non-finite loss. Carries the offending epoch."""

    def __init__(self, epoch: int, message: str = ""):
        self.epoch = epoch
        super().__init__(message or f"non-finite loss at epoch {epoch}")


def check_keys(block, allowed, name: str) -> None:
    """Raise ConfigError unless ``block`` is a dict whose keys are all in ``allowed``."""
    if not isinstance(block, dict):
        raise ConfigError(f"the {name} block must be a JSON object")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in the {name} block")


def number(block: dict, key: str, default, name: str = "", integer: bool = False):
    """``block[key]`` (``default`` when absent) if it is a number, an integer if ``integer``;
    null passes only where the default is None. Anything else is a ConfigError naming the key."""
    value = block.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigError(f"{name}{key} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return value


@contextmanager
def key_prefix(prefix: str):
    """Re-raise a ConfigError raised inside the block with ``prefix`` before its message."""
    try:
        yield
    except ConfigError as e:
        raise ConfigError(f"{prefix}{e}") from None


def read_block(block, cls, name: str, prefix: str | None = None, **given):
    """Dataclass ``cls`` built from the JSON ``block``; the caller sets the ``given`` fields.

    The block's keys must be the other fields, each value of its default's kind:
    a bool, an int, a float, or a list of integers as long as a non-empty default,
    made a tuple. Every error, ``cls``'s own checks' too, starts with ``prefix``
    (``name.`` unless given) and the key."""
    prefix = f"{name}." if prefix is None else prefix
    defaults = {f.name: f.default for f in fields(cls) if f.name not in given}
    check_keys(block, defaults, name)
    for key, value in block.items():
        default = defaults[key]
        if type(default) is bool:
            if not isinstance(value, bool):
                raise ConfigError(f"{prefix}{key} must be true or false, got {value!r}")
        elif type(default) in (int, float):
            number(block, key, default, prefix, integer=type(default) is int)
        elif type(default) is tuple:
            integers = isinstance(value, (list, tuple)) and all(isinstance(v, int) and not isinstance(v, bool) for v in value)
            if not integers or (default and len(value) != len(default)):
                size = {0: "", 2: "two "}.get(len(default), f"{len(default)} ")
                raise ConfigError(f"{prefix}{key} must be a list of {size}integers, got {value!r}")
            value = tuple(value)
        given[key] = value
    with key_prefix(prefix):
        return cls(**given)


def read_json_object(path) -> dict:
    """The JSON object the file at ``path`` holds; a missing file, malformed JSON or
    another value is a ConfigError naming the path."""
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"{path} does not exist") from None
    except ValueError as e:  # JSONDecodeError, or a file that is not text
        raise ConfigError(f"{path}: malformed JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: must hold a JSON object")
    return data
