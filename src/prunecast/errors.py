"""Exception hierarchy shared across the package, and the one config check."""

import math
import numbers
from typing import NamedTuple


class PrunecastError(Exception):
    """Base class for all package errors."""


class ShapeError(PrunecastError):
    """Operand shapes are incompatible for the requested operation."""


class TapeError(PrunecastError):
    """Gradient-tape misuse: backward twice, non-scalar loss, detached node."""


class ParseError(PrunecastError):
    """Malformed input file; carries a line number when one is known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(PrunecastError):
    """Invalid configuration; message lists every violation found."""


REQUIRED = object()  # the default of a key that must be given

_KINDS = {bool: "a bool", int: "an int", float: "a number", str: "a string",
          list: "a list", dict: "an object"}


class Field(NamedTuple):
    """One config key: what it holds, its default and its rule.

    ``kind`` is bool, int, float (any int or float), str, list, a nested
    table (a dict of Fields), ``[k]`` for a non-empty list of ``k``, or a
    tuple of these. A default of None also admits null. ``rule`` is a tuple
    of choices or a range: ">= low", "[low, high]" or "(low, high]".
    """

    kind: object
    default: object = REQUIRED
    rule: tuple | str | None = None


_ABSTRACT = {int: numbers.Integral, float: numbers.Real}  # numpy scalars pass too


def _is(v, kind: type) -> bool:
    return isinstance(v, _ABSTRACT.get(kind, kind)) and (kind is bool or not isinstance(v, bool))


def _rule_problems(v, kind, rule, path: str) -> list[str]:
    if kind is float and not isinstance(v, numbers.Integral) and not math.isfinite(v):
        return [f"{path}: must be a finite number, got {v!r}"]
    if rule is None:
        return []
    if isinstance(rule, tuple):
        ok, want = v in rule, f"one of {rule}"
    elif rule.startswith(">="):
        ok, want = v >= float(rule[2:]), f"{_KINDS[kind]} {rule}"
    else:
        low, high = (float(x) for x in rule[1:-1].split(","))
        ok = (low < v if rule[0] == "(" else low <= v) and v <= high
        want = f"{_KINDS[kind]} in {rule}"
    return [] if ok else [f"{path}: must be {want}, got {v!r}"]


def _value_problems(v, field: Field, path: str) -> list[str]:
    """What is wrong with ``v`` as the value of ``field`` at ``path``."""
    if v is None and field.default is None:
        return []
    kinds = field.kind if isinstance(field.kind, tuple) else (field.kind,)
    for kind in kinds:
        if isinstance(kind, dict) and isinstance(v, dict):
            return section_problems(v, kind, path)
        if isinstance(kind, list) and isinstance(v, list):
            if not v:
                return [f"{path}: the list must not be empty"]
            return [p for i, item in enumerate(v)
                    for p in _value_problems(item, Field(kind[0], REQUIRED, field.rule),
                                            f"{path}[{i}]")]
        if isinstance(kind, type) and _is(v, kind):
            return _rule_problems(v, kind, field.rule, path)
    names = [_KINDS[k] if isinstance(k, type) else _KINDS[type(k)] for k in kinds]
    return [f"{path}: expected {' or '.join(names)}, got {type(v).__name__}"]


def section_problems(d, fields: dict, where: str) -> list[str]:
    """Every unknown, missing, mistyped, non-finite or out-of-range key of
    the section ``d`` under the table ``fields``, nested tables included.
    Each message starts with the key's path below ``where``; a bool counts
    only as a bool."""
    if not isinstance(d, dict):
        return [f"{where}: expected an object, got {type(d).__name__}"]
    prefix = f"{where}." if where else ""
    out = [f"{prefix}{key}: unknown key" for key in d if key not in fields]
    for key, field in fields.items():
        if key in d:
            out += _value_problems(d[key], field, prefix + key)
        elif field.default is REQUIRED:
            out.append(f"{prefix}{key}: missing")
    return out


def require(values: dict, fields: dict, where: str) -> None:
    """Raise ``ConfigError`` listing ``section_problems(values, fields, where)``."""
    problems = section_problems(values, fields, where)
    if problems:
        raise ConfigError("; ".join(problems))


class CheckpointError(PrunecastError):
    """Base class for checkpoint I/O failures."""


class CheckpointFormatError(CheckpointError):
    """File does not start with the checkpoint magic."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint magic found but written by an unsupported format version."""


class CheckpointTruncatedError(CheckpointError):
    """File ends before the declared payload/trailer."""


class CheckpointChecksumError(CheckpointError):
    """Trailing CRC32 does not match the file contents."""


class TrainingDivergedError(PrunecastError):
    """Loss became NaN/Inf during training; message carries diagnostics."""


class PruneDivergedError(PrunecastError):
    """A channel importance score became NaN/Inf during progressive pruning."""
