"""Exception types shared across the package, and the config-block checks.

Validation-style errors (bad inputs, bad configs) all derive from
``ValidationError`` so the CLI can map them to exit code 1; everything
else is treated as a runtime failure (exit code 2).
"""

import json
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


def check_fields(block, cls, name: str, skip=(), prefix: str | None = None) -> None:
    """``check_keys`` on the fields of dataclass ``cls``; an int or float field takes only
    such a number, a bool field only true or false. A bad value's message starts with
    ``prefix`` and the key, ``prefix`` being ``name.`` unless given."""
    prefix = f"{name}." if prefix is None else prefix
    defaults = {f.name: f.default for f in fields(cls) if f.name not in skip}
    check_keys(block, defaults, name)
    for key, default in defaults.items():
        if key not in block:
            continue
        if type(default) is bool:
            if not isinstance(block[key], bool):
                raise ConfigError(f"{prefix}{key} must be true or false, got {block[key]!r}")
        elif type(default) in (int, float):
            number(block, key, default, prefix, integer=type(default) is int)


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
