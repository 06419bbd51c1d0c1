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
``file:<path>`` pointing at a binary field dump.  One override flag,
``--set section.key=value``, rewrites any entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

VALID_METHODS = ("multiplier", "series", "both")
VALID_FORMATS = ("csv", "fl2l", "field-csv")


class ConfigError(ValueError):
    """Invalid configuration; carries a line number when one applies."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


def parse_sections(text: str) -> dict:
    """Raw parse into ``{section: {key: (value, line)}}`` with line numbers."""
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"malformed section header {raw.strip()!r}", lineno)
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {raw.strip()!r}", lineno)
        if current is None:
            raise ConfigError("entry before any [section] header", lineno)
        key, value = line.split("=", 1)
        sections[current][key.strip()] = (value.strip(), lineno)
    return sections


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


def _get(sections, section, key, default=None):
    entry = sections.get(section, {}).get(key)
    return entry if entry is not None else (default, None)


def _parse_int(value, line, name):
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an integer, got {value!r}", line)


def _parse_float(value, line, name):
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}", line)
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {value!r}", line)
    return out


def config_from_text(text: str) -> RunConfig:
    sections = parse_sections(text)
    known = {"grid", "symbol", "evolve", "init", "output"}
    for name in sections:
        if name not in known:
            raise ConfigError(f"unknown section [{name}]")
    n, line = _get(sections, "grid", "n", "1")
    n = _parse_int(n, line, "grid.n")
    J, line = _get(sections, "grid", "J", "8")
    J = _parse_int(J, line, "grid.J")
    inv_h, line = _get(sections, "grid", "inv_h", "32")
    inv_h = _parse_int(inv_h, line, "grid.inv_h")

    symbol_text, _ = _get(sections, "symbol", "text")
    diffop, _ = _get(sections, "symbol", "diffop")
    convention, line = _get(sections, "symbol", "convention", "d")
    if convention not in ("d", "partial"):
        raise ConfigError(f"convention must be d or partial, got {convention!r}", line)
    if symbol_text is None and diffop is None:
        raise ConfigError("section [symbol] needs either text or diffop")
    if symbol_text is not None and diffop is not None:
        raise ConfigError("section [symbol] accepts text or diffop, not both")

    times_text, line = _get(sections, "evolve", "times", "0.1, 1.0")
    try:
        times = tuple(float(part) for part in times_text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"malformed times list {times_text!r}", line)
    if not times or any(not math.isfinite(t) for t in times):
        raise ConfigError(f"times must be a nonempty finite list, got {times_text!r}", line)
    method, line = _get(sections, "evolve", "method", "multiplier")
    if method not in VALID_METHODS:
        raise ConfigError(f"method must be one of {VALID_METHODS}, got {method!r}", line)
    tol_text, line = _get(sections, "evolve", "tol", "1e-8")
    tol = _parse_float(tol_text, line, "evolve.tol")
    if tol <= 0:
        raise ConfigError(f"evolve.tol must be positive, got {tol}", line)

    init, line = _get(sections, "init", "field", "ones")
    if not (
        init in ("ones", "gaussian-hat")
        or init.startswith("delta@")
        or init.startswith("file:")
    ):
        raise ConfigError(f"unknown init field {init!r}", line)
    if init.startswith("delta@"):
        _parse_float(init[6:], line, "init delta location")
    if init.startswith("file:"):
        import os

        if not os.path.exists(init[5:]):
            raise ConfigError(f"init file {init[5:]!r} does not exist", line)

    directory, _ = _get(sections, "output", "directory", "out")
    formats_text, line = _get(sections, "output", "formats", "csv")
    formats = tuple(part.strip() for part in formats_text.split(",") if part.strip())
    for name in formats:
        if name not in VALID_FORMATS:
            raise ConfigError(f"unknown output format {name!r}; use csv, fl2l or field-csv",
                              line)

    return RunConfig(
        n=n, J=J, inv_h=inv_h,
        symbol_text=symbol_text, diffop=diffop, convention=convention,
        times=times, method=method, tol=tol,
        init=init, output_directory=directory, formats=formats,
    )


def apply_overrides(text: str, overrides) -> str:
    """Rewrite ``section.key=value`` entries in the raw config text."""
    for override in overrides:
        if "=" not in override or "." not in override.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {override!r}")
        target, value = override.split("=", 1)
        section, key = target.split(".", 1)
        lines = text.splitlines()
        out = []
        in_section = False
        replaced = False
        for line in lines:
            stripped = line.split("#", 1)[0].strip()
            if stripped.startswith("[") and stripped.endswith("]"):
                if in_section and not replaced:
                    out.append(f"{key} = {value}")
                    replaced = True
                in_section = stripped[1:-1].strip() == section
            elif in_section and stripped.split("=", 1)[0].strip() == key and "=" in stripped:
                out.append(f"{key} = {value}")
                replaced = True
                continue
            out.append(line)
        if not replaced:
            if not in_section:
                out.append(f"[{section}]")
            out.append(f"{key} = {value}")
        text = "\n".join(out)
    return text


def format_config(config: RunConfig) -> str:
    """Render a config back to text; the result re-parses equivalently."""
    lines = [
        "[grid]",
        f"n = {config.n}",
        f"J = {config.J}",
        f"inv_h = {config.inv_h}",
        "[symbol]",
    ]
    if config.symbol_text is not None:
        lines.append(f"text = {config.symbol_text}")
    else:
        lines.append(f"diffop = {config.diffop}")
        lines.append(f"convention = {config.convention}")
    lines.extend(
        [
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
    )
    return "\n".join(lines) + "\n"
