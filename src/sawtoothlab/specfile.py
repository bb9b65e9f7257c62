"""Flat key-value experiment spec files.

One setting per line, ``key = value``, with ``#`` comments and blank lines
ignored. Every field of RunConfig is a key, typed by its annotation, except
two that are renamed: ``epochs`` sets num_epochs and ``epoch_start_probe``
sets epoch_start_probe_epoch. The runner keys set the ExperimentSpec itself:
name, out (output directory), sweep_cap, workers, window (epoch-metrics
smoothing) and emit (a comma list drawn from csv and svg). A
comma-separated value turns a sweepable key (beta1, beta2, epsilon,
batch_size, policy) into a sweep axis; the cross product of all axes is
executed, bounded by sweep_cap. Example:

    name = beta2_grid
    num_functions = 2000
    dim = 2000
    epochs = 9
    beta2 = 0.999, 0.9, 0.8, 0.7
    emit = csv, svg
"""

from __future__ import annotations

import types
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Union, get_args, get_origin, get_type_hints

from .trainer import RunConfig

__all__ = ["SpecError", "ExperimentSpec", "parse_spec", "load_spec", "read_settings"]


class SpecError(ValueError):
    """Spec problem with the offending line number baked into the message."""

    def __init__(self, message: str, source: str = "", line: int | None = None):
        self.line = line
        where = f"{source or 'spec'}"
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}")


SWEEPABLE = ("beta1", "beta2", "epsilon", "batch_size", "policy")

# spec key -> RunConfig field, where the names differ
_CONFIG_RENAMES = {"epochs": "num_epochs", "epoch_start_probe": "epoch_start_probe_epoch"}

_VALID_EMIT = ("csv", "svg")


@dataclass
class ExperimentSpec:
    """A parsed spec: scalar settings plus sweep axes, ready to expand."""

    name: str = "experiment"
    settings: dict = field(default_factory=dict)
    sweeps: dict = field(default_factory=dict)
    emit: tuple[str, ...] = ("csv",)
    out: str | None = None
    sweep_cap: int = 64
    workers: int = 1
    window: int | None = None

    def num_points(self) -> int:
        n = 1
        for values in self.sweeps.values():
            n *= len(values)
        return n

    def expand(self) -> list[tuple[str, RunConfig]]:
        """Label and RunConfig for every sweep point, in file order."""
        n = self.num_points()
        if n > self.sweep_cap:
            raise SpecError(
                f"sweep has {n} points, above the cap of {self.sweep_cap}"
            )
        base = RunConfig(**self.settings)
        if not self.sweeps:
            return [("point_000", base)]
        keys = list(self.sweeps)
        points = []
        for i, combo in enumerate(product(*(self.sweeps[k] for k in keys))):
            overrides = {
                _CONFIG_RENAMES.get(k, k): v for k, v in zip(keys, combo)
            }
            label = f"point_{i:03d}_" + "_".join(
                f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in zip(keys, combo)
            )
            points.append((label, replace(base, **overrides)))
        return points


def _value_type(hint) -> type:
    """A union's first member (int for ``int | None``); any other hint as it is."""
    if get_origin(hint) in (Union, types.UnionType):
        return get_args(hint)[0]
    return hint


# runner keys set the ExperimentSpec itself; every other key is a RunConfig field
_RUNNER_TYPES = {
    name: _value_type(hint)
    for name, hint in get_type_hints(ExperimentSpec).items()
    if name not in ("settings", "sweeps")
}
_SPEC_KEY = {name: key for key, name in _CONFIG_RENAMES.items()}
_KEY_TYPES = {
    _SPEC_KEY.get(name, name): _value_type(hint)
    for name, hint in get_type_hints(RunConfig).items()
} | _RUNNER_TYPES


def _convert(key: str, raw: str, source: str, line: int):
    raw = raw.strip()
    kind = _KEY_TYPES[key]
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return kind(raw)
    except ValueError as exc:
        raise SpecError(f"bad value for {key}: {exc}", source, line) from None


def read_settings(text: str, keys, source: str = "spec"):
    """(line number, key, value) for every ``key = value`` line of text.

    ``#`` starts a comment; blank lines are skipped. A line without ``=``, a
    key outside keys, a repeated key or an empty value raises a SpecError
    that names its line.
    """
    seen: set[str] = set()
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise SpecError("expected 'key = value'", source, lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in keys:
            raise SpecError(f"unknown key {key!r}", source, lineno)
        if key in seen:
            raise SpecError(f"duplicate key {key!r}", source, lineno)
        seen.add(key)
        if not value:
            raise SpecError(f"empty value for {key!r}", source, lineno)
        yield lineno, key, value


def parse_spec(text: str, source: str = "spec") -> ExperimentSpec:
    spec = ExperimentSpec()
    for lineno, key, value in read_settings(text, _KEY_TYPES, source):
        if key == "emit":
            targets = tuple(v.strip() for v in value.split(","))
            for t in targets:
                if t not in _VALID_EMIT:
                    raise SpecError(
                        f"emit must be drawn from {_VALID_EMIT}, got {t!r}",
                        source,
                        lineno,
                    )
            spec.emit = targets
            continue
        if key in _RUNNER_TYPES:
            converted = _convert(key, value, source, lineno)
            if key in ("workers", "window") and converted < 1:
                raise SpecError(f"{key} must be >= 1", source, lineno)
            setattr(spec, key, converted)
            continue

        if "," in value:
            if key not in SWEEPABLE:
                raise SpecError(
                    f"{key!r} cannot be swept (sweepable: {', '.join(SWEEPABLE)})",
                    source,
                    lineno,
                )
            values = [_convert(key, v, source, lineno) for v in value.split(",")]
            if len(values) != len(set(values)):
                raise SpecError(f"sweep values for {key!r} repeat", source, lineno)
            spec.sweeps[key] = values
        else:
            spec.settings[_CONFIG_RENAMES.get(key, key)] = _convert(key, value, source, lineno)

    # a swept key must not also be pinned
    for key in spec.sweeps:
        if _CONFIG_RENAMES.get(key, key) in spec.settings:
            raise SpecError(f"{key!r} is both pinned and swept", source)
    try:
        spec.expand()
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecError(str(exc), source) from None
    return spec


def load_spec(path) -> ExperimentSpec:
    with open(path) as fh:
        text = fh.read()
    return parse_spec(text, source=str(path))
