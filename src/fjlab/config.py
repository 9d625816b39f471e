"""Run configuration: INI files parsed strictly.

The dialect is stdlib configparser syntax (``key = value`` under
``[section]`` headers, ``#`` comments) with no interpolation.  Unknown
sections and unknown keys are rejected, as are unparsable values; every
key therefore has exactly one meaning and a documented default.  Every
section is optional and defaults as in its dataclass: [simulate] is
``scenarios.SimulateConfig``, beside ``draw_pools``, which checks it; [fit]
is ``FitSection`` below, ``estimation.FitConfig`` plus the global switch;
[analyze], [verify] and [compare] are defined below.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .constants import CONSENSUS_THRESHOLD
from .errors import ConfigError
from .estimation import FitConfig
from .model import _check_rows
from .scenarios import SimulateConfig
from .verify import BUDGET_DEFAULTS, DEFAULT_CHECKS

__all__ = [
    "SimulateConfig",
    "FitSection",
    "AnalyzeSection",
    "VerifySection",
    "CompareSection",
    "RunConfig",
    "load_config",
    "eta_vector",
]


def eta_vector(section: str, eta: str, n: int) -> "np.ndarray | None":
    """Readout weights from a section's eta key: None for "uniform", else
    n comma-separated numbers on the simplex; errors name the section."""
    if eta == "uniform":
        return None
    try:
        vec = np.array([float(x) for x in eta.split(",")], dtype=np.float64)
    except ValueError as exc:
        raise ConfigError(f"{section}.eta: {exc}") from exc
    if vec.size != n:
        raise ConfigError(f"{section}.eta has {vec.size} entries for n={n}")
    return _check_rows(vec, f"{section}.eta")


@dataclass(frozen=True)
class FitSection(FitConfig):
    """[fit] section: FitConfig, checked when the config loads, plus the
    global-fit switch."""

    global_fit: bool = False


@dataclass(frozen=True)
class AnalyzeSection:
    """[analyze] section; eta is "uniform" or comma-separated weights."""

    eta: str = "uniform"
    normalization: str = "max"
    consensus_threshold: float = CONSENSUS_THRESHOLD
    fits: str = "fits.json"


@dataclass(frozen=True)
class VerifySection:
    """[verify] section; checks is "all" or a comma-separated subset."""

    checks: str = "all"
    prop_draws: int = BUDGET_DEFAULTS["prop_draws"]
    identity_draws: int = BUDGET_DEFAULTS["identity_draws"]
    scenario_samples: int = BUDGET_DEFAULTS["scenario_samples"]
    consistency_samples: int = BUDGET_DEFAULTS["consistency_samples"]
    seed: int = 0

    def check_names(self) -> tuple[str, ...]:
        if self.checks == "all":
            return DEFAULT_CHECKS
        return tuple(x.strip() for x in self.checks.split(",") if x.strip())


@dataclass(frozen=True)
class CompareSection:
    """[compare] section; samples are grouped by their ``pool`` metadata."""

    eta: str = "uniform"
    fallback_rounds: int = 10000


@dataclass(frozen=True)
class RunConfig:
    simulate: SimulateConfig
    fit: FitSection
    analyze: AnalyzeSection
    verify: VerifySection
    compare: CompareSection

    def with_seed(self, seed: int) -> "RunConfig":
        """Override every section seed (the --seed flag)."""
        return RunConfig(
            simulate=replace(self.simulate, seed=seed),
            fit=replace(self.fit, seed=seed),
            analyze=self.analyze,
            verify=replace(self.verify, seed=seed),
            compare=self.compare,
        )


_SECTIONS = {
    "simulate": SimulateConfig,
    "fit": FitSection,
    "analyze": AnalyzeSection,
    "verify": VerifySection,
    "compare": CompareSection,
}

# the parser's typed getter for each field type, by its annotation's text
_GETTERS = {"int": "getint", "float": "getfloat", "bool": "getboolean", "str": "get"}


def load_config(path: "str | None") -> RunConfig:
    """Parse an INI run config; None yields all defaults."""
    sections = {name: cls() for name, cls in _SECTIONS.items()}
    if path is None:
        return RunConfig(**sections)
    if not os.path.exists(path):
        raise ConfigError(f"config file {path!r} does not exist")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError) as exc:
        raise ConfigError(f"cannot parse {path!r}: {exc}") from exc
    if parser.defaults():
        raise ConfigError(
            f"unknown top-level keys {sorted(parser.defaults())}; "
            f"every key must live in a section"
        )
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"unknown section [{section}]; expected one of {sorted(_SECTIONS)}"
            )
        cls = _SECTIONS[section]
        types = {f.name: f.type for f in fields(cls)}
        # each key is its field's name, but [fit] global sets global_fit: the
        # CLI flag is --global, and the dataclass field cannot use that name
        keys = {("global" if name == "global_fit" else name): name for name in types}
        values = {}
        for key in parser.options(section):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            get = getattr(parser, _GETTERS[types[keys[key]]])
            try:
                values[keys[key]] = get(section, key)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
        sections[section] = cls(**values)
    return RunConfig(**sections)
