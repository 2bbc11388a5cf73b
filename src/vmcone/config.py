"""Run configuration: schema, defaults, fail-closed checks, run inputs.

The configuration file is JSON with five sections (datum, sampling, grid,
time, solver).  Unknown keys anywhere are errors: a silently ignored typo
in a tolerance or step key would invalidate a verification run.  The
output directory is not a key: `vmcone run --output` names it, and the
probes are not one: the flux checks measure at default_probe_radii, on
spheres that hold the datum's matter.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from decimal import Decimal
from functools import partial

import numpy as np

from .phase_model import InitialDatum, builtin_datum
from .radial_field import ShellGrid

# dv default is 0.01 * R0 (resolves the outward characteristic speed <= 1/2)
DV_R0_FRACTION = 0.01


class ConfigError(ValueError):
    pass


def _number(value, whole=False):
    """A JSON number as written, never a bool or a string; with ``whole`` a
    whole one (3 or 3.0, not 300.9), returned as an int."""
    if type(value) not in (int, float) or whole and value != int(value):
        raise TypeError(f"expected a {'whole ' * whole}number, got {value!r}")
    return int(value) if whole else float(value)


_whole = partial(_number, whole=True)


def _as_resolution(value):
    """Particles per coordinate: whole numbers >= 2."""
    counts = value if isinstance(value, (list, tuple)) else (value,) * 3
    counts = tuple(map(_whole, counts))
    if len(counts) != 3 or min(counts) < 2:
        raise ConfigError("sampling.resolution must be a whole number >= 2 "
                          f"or a 3-list of them, got {value!r}")
    return counts


def _same(value):
    return value


def _instance(kind, value):
    """value as it is, if it is a kind (never coerced to one)."""
    if not isinstance(value, kind):
        raise TypeError(f"expected a {kind.__name__}, got {value!r}")
    return value


def _optional(parse):
    return lambda value: None if value is None else parse(value)


def auto_r_max(datum, v_final: float, margin: float) -> float:
    """Grid extent R0 + v_final / 2 + margin: no particle can travel past
    this radius (outward characteristic speed is below 1/2)."""
    return datum.R0 + 0.5 * v_final + max(margin, 0.05)


def default_probe_radii(datum: InitialDatum, grid: ShellGrid) -> np.ndarray:
    """Probes inside, at the edge of and far beyond the initial support,
    snapped to grid nodes."""
    if datum.R0 > 0.0:
        raw = [datum.R0, 2.0 * datum.R0, 0.9 * grid.r_max]
    else:
        raw = [0.25 * grid.r_max, 0.5 * grid.r_max, 0.9 * grid.r_max]
    snapped = sorted({min(round(r / grid.dr), grid.n_shells) * grid.dr
                      for r in raw})
    return np.array(snapped)


def physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_fits_memory(keys: str, what: str, n_bytes: int) -> None:
    """Refuse an array of n_bytes, sized by keys, beyond the physical memory."""
    if n_bytes > (memory := physical_memory()):
        raise ConfigError(f"{keys}: {Decimal(n_bytes):.3g} bytes for {what}, "
                          f"more than the {Decimal(memory):.3g} bytes of "
                          "physical memory")


def _entry(path, parse, default=None, dump=_same, factory=None):
    """A RunConfig field with its "section.key" spelling in the JSON file,
    the parser of the JSON value and the JSON form written by to_dict."""
    meta = {"key": path, "parse": parse, "dump": dump}
    if factory is not None:
        return field(default_factory=factory, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """Run configuration; each field names its JSON section and key, so the
    file schema, the parser and to_dict all derive from this class.  A
    RunConfig however built parses and checks every value, and its
    properties resolve the run's inputs from the fields at each read."""

    datum_name: str = _entry("datum.name", partial(_instance, str),
                             "shell_polynomial")
    # as meta.json holds it: json.dumps refuses a value such as a float32
    datum_params: dict = _entry("datum.params", lambda v: json.loads(
        json.dumps(_instance(dict, v))), factory=dict)
    resolution: tuple = _entry("sampling.resolution", _as_resolution,
                               (32, 32, 32), dump=list)
    n_shells: int = _entry("grid.n_shells", _whole, 512)
    r_max: float | None = _entry("grid.r_max", _optional(_number))
    margin: float = _entry("grid.margin", _number, 0.25)
    dv: float | None = _entry("time.dv", _optional(_number))
    v_final: float = _entry("time.v_final", _number, 5.0)
    r_floor: float = _entry("solver.r_floor", _number, 1e-10)

    def __post_init__(self):
        for f in fields(self):
            key = f.metadata["key"]
            try:
                value = f.metadata["parse"](getattr(self, f.name))
            except ConfigError:
                raise
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"malformed configuration value for "
                                  f"{key}: {exc}") from exc
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite")
            setattr(self, f.name, value)
        if self.v_final < 0.0:
            raise ConfigError("time.v_final must be >= 0")
        if self.dv is not None and self.dv <= 0.0:
            raise ConfigError("time.dv must be positive")
        if self.n_shells < 2:
            raise ConfigError("grid.n_shells must be >= 2")
        try:
            datum = self.datum
        except (TypeError, ValueError, LookupError,
                ArithmeticError) as exc:   # overflow in its support bounds
            raise ConfigError(f"invalid datum.name/datum.params: {exc}") from exc
        try:
            n_steps = self.steps[0]
        except OverflowError:   # v_final / dv overflows a float
            n_steps = int(sys.float_info.max)
        # the arrays of doubles whose size the configuration sets
        check_fits_memory("sampling.resolution",
                          "the n_r x n_w x n_q sampling grid",
                          8 * math.prod(self.resolution))
        check_fits_memory("grid.n_shells, time.v_final and time.dv",
                          "the 4 recorded (v_final/dv + 1) x (n_shells + 1) "
                          "profiles",
                          8 * 4 * (n_steps + 1) * (self.n_shells + 1))
        reach = datum.R0 + 0.5 * self.v_final   # outward speed is below 1/2
        if self.r_max is not None and self.r_max <= 0.0:
            raise ConfigError(f"grid.r_max {self.r_max:g} must be positive")
        if self.r_max is not None and self.r_max < reach:
            raise ConfigError(f"grid.r_max {self.r_max:g} is below the reach "
                              f"of the matter, R0 + v_final/2 = {reach:g}")

    @property
    def datum(self) -> InitialDatum:
        """The built-in datum of datum.name and datum.params."""
        return builtin_datum(self.datum_name, self.datum_params)

    @property
    def steps(self) -> tuple:
        """(n_steps, dv) from v = 0 to v_final: dv defaults to
        DV_R0_FRACTION * R0, then is v_final / n_steps for the nearest
        whole number of steps."""
        R0, dv = self.datum.R0, self.dv
        if dv is None:
            dv = DV_R0_FRACTION * (R0 if R0 > 0 else 1.0)
        n_steps = 0 if self.v_final == 0.0 else max(1, round(self.v_final / dv))
        return n_steps, (self.v_final / n_steps if n_steps else dv)

    @property
    def grid(self) -> ShellGrid:
        """The shell grid out to r_max, or auto_r_max if r_max is None."""
        r_max = (auto_r_max(self.datum, self.v_final, self.margin)
                 if self.r_max is None else self.r_max)
        return ShellGrid(r_max=r_max, n_shells=self.n_shells)

    @property
    def probes(self) -> np.ndarray:
        """The probe radii: default_probe_radii of the datum and grid."""
        return default_probe_radii(self.datum, self.grid)

    def to_dict(self) -> dict:
        return {section: {key: f.metadata["dump"](getattr(self, f.name))
                          for key, f in keys.items()}
                for section, keys in _sections().items()}


def _sections() -> dict:
    """{section: {key: field}} of the configuration file."""
    out = {}
    for f in fields(RunConfig):
        section, key = f.metadata["key"].split(".")
        out.setdefault(section, {})[key] = f
    return out


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be an object")
    sections = _sections()
    unknown = set(doc) - set(sections)
    if unknown:
        raise ConfigError(f"unknown configuration section(s): {sorted(unknown)}")
    kwargs = {}
    for section, keys in sections.items():
        sub = doc.get(section, {})
        if not isinstance(sub, dict):
            raise ConfigError(f"section {section!r} must be an object")
        bad = set(sub) - set(keys)
        if bad:
            raise ConfigError(f"unknown key(s) in section {section!r}: {sorted(bad)}")
        kwargs.update((keys[key].name, value) for key, value in sub.items())
    return RunConfig(**kwargs)


def parse_config(path) -> RunConfig:
    """Load and validate a JSON run configuration; fail-closed."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}")
    return config_from_dict(doc)
