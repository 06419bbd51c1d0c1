"""Line-based sectioned key=value run configuration.

The format is deliberately plain so runs diff cleanly:

    [grid]
    n = 1
    J = 8
    inv_h = 32
    [symbol]
    text = -(1+4*pi^2*xi^2)
    [evolve]
    times = 0.1, 1.0
    method = multiplier
    tol = 1e-8
    [init]
    field = ones
    [output]
    directory = out
    formats = csv, fl2l

``#`` starts a comment.  Output formats are ``csv``, ``fl2l`` and
``field-csv``.  A symbol may instead be given as a derivative
coefficient list (``diffop = 2:-1;0:-1`` with ``convention = partial``).
Init fields are ``ones``, ``gaussian-hat``, ``delta@<xi>`` or
``file:<path>`` pointing at a binary field dump (grammar: `parse_init`).
`KEYS` names each section and key, with its `RunConfig` field and parser:
any other is an error, and a key left out keeps the `RunConfig` default.
``--set section.key=value`` replaces or adds one parsed entry, its value
verbatim (``#`` is no comment there).  An error names its file line or
its override: ``--set grid.n=x: grid.n must be an integer, got 'x'``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

VALID_METHODS = ("multiplier", "series", "both")
VALID_FORMATS = ("csv", "fl2l", "field-csv")


class ConfigError(ValueError):
    """Invalid configuration; ``where`` names its file line or override when one applies."""

    def __init__(self, message: str, where: str | None = None):
        super().__init__(f"{where}: {message}" if where else message)


@dataclass(frozen=True)
class RunConfig:
    n: int = 1
    J: int = 8
    inv_h: int = 32
    symbol_text: str | None = None
    diffop: str | None = None
    convention: str = "d"
    times: tuple = (0.1, 1.0)
    method: str = "multiplier"
    tol: float = 1e-8
    init: str = "ones"
    output_directory: str = "out"
    formats: tuple = ("csv",)

    def symbol_spec(self) -> str:
        if self.symbol_text is not None:
            return self.symbol_text
        return f"diffop {self.diffop} ({self.convention})"


def _verbatim(value, name):
    return value


def _integer(value, name):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _finite(value, name, positive=False):
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if positive and number <= 0:
        raise ConfigError(f"{name} must be positive, got {number}")
    return number


def _convention(value, name):
    if value not in ("d", "partial"):
        raise ConfigError(f"convention must be d or partial, got {value!r}")
    return value


def _times(value, name):
    try:
        times = tuple(float(part) for part in value.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"malformed times list {value!r}")
    if not times or not all(map(math.isfinite, times)):
        raise ConfigError(f"times must be a nonempty finite list, got {value!r}")
    return times


def _method(value, name):
    if value not in VALID_METHODS:
        raise ConfigError(f"method must be one of {VALID_METHODS}, got {value!r}")
    return value


def parse_init(spec: str) -> tuple:
    """Split an init field into ``(kind, argument)``: None, a finite float or a path."""
    if spec in ("ones", "gaussian-hat"):
        return spec, None
    if spec.startswith("delta@"):
        return "delta", _finite(spec[6:], "init delta location")
    if spec.startswith("file:"):
        return "file", spec[5:]
    raise ConfigError(f"unknown init field {spec!r}")


def _init_field(value, name):
    kind, argument = parse_init(value)
    if kind == "file" and not os.path.exists(argument):
        raise ConfigError(f"init file {argument!r} does not exist")
    return value


def _formats(value, name):
    formats = tuple(part.strip() for part in value.split(",") if part.strip())
    for fmt in formats:
        if fmt not in VALID_FORMATS:
            raise ConfigError(f"unknown output format {fmt!r}; use csv, fl2l or field-csv")
    return formats


# (section, key) -> (RunConfig field, parser of the value and "section.key")
KEYS = {
    ("grid", "n"): ("n", _integer),
    ("grid", "J"): ("J", _integer),
    ("grid", "inv_h"): ("inv_h", _integer),
    ("symbol", "text"): ("symbol_text", _verbatim),
    ("symbol", "diffop"): ("diffop", _verbatim),
    ("symbol", "convention"): ("convention", _convention),
    ("evolve", "times"): ("times", _times),
    ("evolve", "method"): ("method", _method),
    ("evolve", "tol"): ("tol", partial(_finite, positive=True)),
    ("init", "field"): ("init", _init_field),
    ("output", "directory"): ("output_directory", _verbatim),
    ("output", "formats"): ("formats", _formats),
}
SECTIONS = {section for section, _ in KEYS}


def parse_sections(text: str) -> dict:
    """Parse into ``{section: {key: (value, "line N")}}``."""
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"malformed section header {raw.strip()!r}", where)
            current = line[1:-1].strip()
            if current not in SECTIONS:
                raise ConfigError(f"unknown section [{current}]", where)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {raw.strip()!r}", where)
        if current is None:
            raise ConfigError("entry before any [section] header", where)
        key, value = line.split("=", 1)
        sections.setdefault(current, {})[key.strip()] = (value.strip(), where)
    return sections


def config_from_text(text: str, overrides=()) -> RunConfig:
    """Read a config file's text, each ``section.key=value`` override applied to it."""
    sections = parse_sections(text)
    for override in overrides:
        target, equals, value = override.partition("=")
        section, dot, key = target.partition(".")
        if not (equals and dot):
            raise ConfigError(f"override must look like section.key=value, got {override!r}")
        entry = (value.strip(), f"--set {override}")
        sections.setdefault(section.strip(), {})[key.strip()] = entry
    fields = {}
    for section, entries in sections.items():
        for key, (value, where) in entries.items():
            if section not in SECTIONS:
                raise ConfigError(f"unknown section [{section}]", where)
            if (section, key) not in KEYS:
                raise ConfigError(f"unknown key {key!r} in [{section}]", where)
            field, parse = KEYS[section, key]
            try:
                fields[field] = parse(value, f"{section}.{key}")
            except ConfigError as error:
                raise ConfigError(str(error), where) from None
    if "symbol_text" not in fields and "diffop" not in fields:
        raise ConfigError("section [symbol] needs either text or diffop")
    if "symbol_text" in fields and "diffop" in fields:
        raise ConfigError("section [symbol] accepts text or diffop, not both")
    return RunConfig(**fields)


def format_config(config: RunConfig) -> str:
    """Render a config back to text; the result re-parses equivalently."""
    if config.symbol_text is not None:
        symbol = [f"text = {config.symbol_text}"]
    else:
        symbol = [f"diffop = {config.diffop}", f"convention = {config.convention}"]
    lines = [
        "[grid]",
        f"n = {config.n}",
        f"J = {config.J}",
        f"inv_h = {config.inv_h}",
        "[symbol]",
        *symbol,
        "[evolve]",
        "times = " + ", ".join(f"{t:.17g}" for t in config.times),
        f"method = {config.method}",
        f"tol = {config.tol:.17g}",
        "[init]",
        f"field = {config.init}",
        "[output]",
        f"directory = {config.output_directory}",
        "formats = " + ", ".join(config.formats),
    ]
    return "\n".join(lines) + "\n"
