"""Run configuration and its plain-text format.

The config file uses ``[section]`` headers with ``key = value`` lines;
lists are comma separated.  CLI flags override file keys, and the
ELASTOACOUSTIC_OUTDIR environment variable sets the output root.
"""

from __future__ import annotations

import inspect
import os
import typing
from dataclasses import dataclass, replace

from . import meshing
from .assembly import MaterialField, FAMILIES
from .eigensolve import DEFAULT_SEED


class ConfigError(Exception):
    pass


GEOMETRY_KEYS = ("fluid_width", "fluid_height", "wall", "wall_height",
                 "step", "clamp")


@dataclass(frozen=True)
class RunConfig:
    # geometry
    geometry: str = "omega1"
    fluid_width: float = None
    fluid_height: float = None
    wall: float = None
    wall_height: float = None
    step: float = None
    clamp: str = None
    # discretization
    family: str = "taylor-hood"
    levels: tuple[int, ...] = (8, 10, 12, 14)
    # materials
    rho_s: float = 7700.0
    e_modulus: float = 1.44e11
    nu: float = 0.35
    rho_f: float = 1000.0
    c: float = 1430.0
    g: float = 9.8
    nu_list: tuple[float, ...] = ()
    # eigensolver
    n_modes: int = 4
    window: tuple[float, ...] = (400.0, 2800.0)
    seed: int = DEFAULT_SEED
    # adaptivity
    theta: float = 0.5
    max_dofs: int = 100000
    max_iterations: int = 40
    initial_level: int = 2
    mode_index: int = 1
    reference_omega: tuple[float, ...] = ()
    # output
    out_dir: str = "."
    workers: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        if self.geometry not in meshing.PRESETS:
            raise ConfigError(f"unknown geometry preset {self.geometry!r}")
        accepted = inspect.signature(
            meshing.PRESETS[self.geometry]).parameters
        for key in GEOMETRY_KEYS:
            if getattr(self, key) is not None and key not in accepted:
                raise ConfigError(f"geometry preset {self.geometry!r} "
                                  f"takes no {key!r}")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError("theta must lie in (0, 1]")
        for name in ("n_modes", "initial_level", "mode_index", "max_dofs",
                     "max_iterations"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if any(level < 1 for level in self.levels):
            raise ConfigError("levels must be at least 1")
        for name in ("rho_s", "e_modulus", "rho_f", "c", "g"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for nu in (self.nu,) + tuple(self.nu_list):
            if not 0.0 < nu <= 0.5:
                raise ConfigError("nu values must lie in (0, 1/2]")
        if len(self.window) != 2 or \
                not 0.0 < self.window[0] < self.window[1]:
            raise ConfigError("window must be two frequencies "
                              "0 < w_lo < w_hi in rad/s")

    def geometry_spec(self) -> meshing.GeometrySpec:
        kwargs = {key: getattr(self, key) for key in GEOMETRY_KEYS
                  if getattr(self, key) is not None}
        return meshing.PRESETS[self.geometry](**kwargs)

    def materials(self) -> MaterialField:
        return MaterialField(E=self.e_modulus, nu=self.nu,
                             rho_s=self.rho_s, rho_f=self.rho_f,
                             c=self.c, g=self.g)

    def with_overrides(self, **kwargs) -> "RunConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs)

    def resolved_out_dir(self) -> str:
        root = os.environ.get("ELASTOACOUSTIC_OUTDIR")
        if root:
            return os.path.join(root, self.out_dir)
        return self.out_dir


def parse_config(text: str) -> dict:
    """Parse the sectioned key = value format into a flat dict; each
    value takes the type of its ``RunConfig`` field.  An unknown key or
    a value that does not parse as that type raises ConfigError naming
    the line and the key."""
    kinds = typing.get_type_hints(RunConfig)
    values = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got "
                              f"{raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown key {key!r}"
                              + (f" in section [{section}]" if section
                                 else ""))
        kind, val = kinds[key], val.strip()
        try:
            if typing.get_origin(kind) is tuple:
                item = typing.get_args(kind)[0]
                values[key] = tuple(item(v) for v in val.split(",")
                                    if v.strip())
            else:
                values[key] = kind(val)
        except ValueError as err:
            raise ConfigError(f"line {lineno}: bad value {val!r} for key "
                              f"{key!r}: {err}") from None
    return values


def load_config(path) -> RunConfig:
    with open(path) as f:
        return RunConfig(**parse_config(f.read()))
