"""Run configuration files.

One text format: ``key = value`` pairs under ``[section]`` headers, parsed
with the stdlib parser; ``#`` starts a comment, also after a value.  Each
section maps to one dataclass and its fields: ``[model]`` to
``ModelParams``, ``[controls]`` to ``StepControls``, ``[run]`` to the scalar
fields of ``RunConfig``, ``[scenario]`` to the scenario class named by
``kind`` and, in sweep files, ``[sweep]`` to ``SweepSpec``.  Parsing,
defaults and rendering are all derived from those fields, so every field has
its dataclass default, unknown fields or sections (including fields of
another scenario kind) are rejected by name, and
``load_config(save_config(cfg)) == cfg`` holds exactly.  A sweep's alphas
and ks must each make valid ``ModelParams``, so a bad cell is rejected when
the file loads.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

from dyadicflow import analysis
from dyadicflow.integrate import Scheme, StepControls
from dyadicflow.model import DomainError, DyadicState, ModelParams, Tail
from dyadicflow.scenarios import gen_bump, gen_front, gen_geometric

class ConfigError(ValueError):
    """Config file problem, carrying file/field context in the message."""


@dataclass(frozen=True)
class BumpScenario:
    kind = "bump"


@dataclass(frozen=True)
class FrontScenario:
    kind = "front"
    k0: int = 4
    q: float = 1.2
    r: float = 0.5
    amplitude: float = 1.0


@dataclass(frozen=True)
class GeometricScenario:
    kind = "geometric"
    rate: float = 0.5


@dataclass(frozen=True)
class CustomScenario:
    kind = "custom"
    values: tuple[float, ...] = ()


Scenario = Union[BumpScenario, FrontScenario, GeometricScenario, CustomScenario]


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams = field(default_factory=lambda: ModelParams(alpha=0.25, trunc_k=16))
    controls: StepControls = field(default_factory=StepControls)
    scenario: Scenario = field(default_factory=BumpScenario)
    t_end: float = 1.0
    delta: float = 0.5
    checks: tuple[str, ...] = ("monotone_nonneg", "max_principle")
    output_prefix: str = "out/run"

    def __post_init__(self):
        if not (self.t_end > 0.0):
            raise DomainError("t_end must be positive")
        if not (0.0 < self.delta < 1.0):
            raise DomainError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class SweepSpec:
    alphas: tuple[float, ...]
    ks: tuple[int, ...]
    base: RunConfig

    def __post_init__(self):
        if not self.alphas or not self.ks:
            raise DomainError("sweep lists must be non-empty")
        for alpha in self.alphas:
            for trunc_k in self.ks:
                replace(self.base.params, alpha=alpha, trunc_k=trunc_k)  # ModelParams rules


def build_initial_state(scenario: Scenario, trunc_k: int) -> DyadicState:
    """Materialize the initial data for a scenario at truncation K."""
    if isinstance(scenario, BumpScenario):
        return gen_bump(trunc_k)
    if isinstance(scenario, FrontScenario):
        return gen_front(trunc_k, scenario.k0, scenario.q, scenario.r, scenario.amplitude)
    if isinstance(scenario, GeometricScenario):
        return gen_geometric(trunc_k, scenario.rate)
    if isinstance(scenario, CustomScenario):
        if len(scenario.values) != trunc_k + 1:
            raise ConfigError(
                f"custom scenario has {len(scenario.values)} values, "
                f"trunc_k={trunc_k} needs {trunc_k + 1}"
            )
        return DyadicState(t=0.0, a=list(scenario.values))
    raise ConfigError(f"unknown scenario object {scenario!r}")


_DEFAULT = RunConfig()
_SCENARIOS = {cls.kind: cls for cls in get_args(Scenario)}
_NESTED = ("params", "controls", "scenario")  # RunConfig fields with their own section
_NOUNS = {float: "number", int: "integer"}


def _field_types(cls, skip=()) -> dict:
    """Resolved type of each dataclass field, in declaration order."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.name not in skip}


_FIELDS = {
    "model": _field_types(ModelParams),
    "controls": _field_types(StepControls),
    "run": _field_types(RunConfig, skip=_NESTED),
    "sweep": _field_types(SweepSpec, skip=("base",)),
}
_SCENARIO_FIELDS = {cls: _field_types(cls) for cls in _SCENARIOS.values()}
_RUN_SECTIONS = ("model", "controls", "scenario", "run")


def _choose(where: str, raw: str, table: dict):
    token = raw.strip().lower()
    if token not in table:
        raise ConfigError(f"{where} = {token!r} must be one of {sorted(table)}")
    return table[token]


def _parse_value(where: str, raw: str, tp):
    """Convert one raw value to the field type ``tp``; ``where`` names the field."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:  # Optional[Enum]: ``auto`` means None
        (enum,) = (a for a in args if a is not type(None))
        return _choose(where, raw, {**{m.value: m for m in enum}, "auto": None})
    if origin is None and issubclass(tp, Enum):
        return _choose(where, raw, {m.value: m for m in tp})
    if tp is str:
        return raw
    try:
        if origin is tuple:
            return tuple(args[0](x.strip()) for x in raw.split(",") if x.strip())
        return tp(raw)
    except ValueError:
        noun = f"comma-separated {_NOUNS[args[0]]} list" if origin is tuple else _NOUNS[tp]
        raise ConfigError(f"{where} = {raw!r} is not a valid {noun}") from None


def _parse_section(path, section: str, raw: dict, types: dict) -> dict:
    values = {}
    for key, value in raw.items():
        if key not in types:
            raise ConfigError(f"{path}: unknown field {key!r} in [{section}]")
        values[key] = _parse_value(f"{path}: [{section}] {key}", value, types[key])
    return values


def _read_sections(path, sections) -> dict:
    """Raw ``key: value`` pairs of each section; absent sections are empty."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if parser.defaults():
        raise ConfigError(f"{path}: unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"{path}: unknown section [{section}]")
    return {s: dict(parser[s]) if parser.has_section(s) else {} for s in sections}


def _run_config(path, raw: dict) -> RunConfig:
    model = _parse_section(path, "model", raw["model"], _FIELDS["model"])
    controls = _parse_section(path, "controls", raw["controls"], _FIELDS["controls"])
    scen = dict(raw["scenario"])
    kind = scen.pop("kind", _DEFAULT.scenario.kind)
    scenario_cls = _choose(f"{path}: [scenario] kind", kind, _SCENARIOS)
    scenario = _parse_section(path, "scenario", scen, _SCENARIO_FIELDS[scenario_cls])
    run = _parse_section(path, "run", raw["run"], _FIELDS["run"])
    for name in run.get("checks", ()):
        if name not in analysis.CHECKS:
            raise ConfigError(
                f"{path}: unknown check {name!r}; known: {sorted(analysis.CHECKS)}"
            )
    try:
        return replace(
            _DEFAULT,
            params=replace(_DEFAULT.params, **model),
            controls=replace(_DEFAULT.controls, **controls),
            scenario=scenario_cls(**scenario),
            **run,
        )
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path) -> RunConfig:
    """Parse a run configuration, filling defaults for absent fields."""
    return _run_config(path, _read_sections(path, _RUN_SECTIONS))


def load_sweep(path) -> SweepSpec:
    """Parse a sweep file: a run configuration plus a [sweep] section."""
    raw = _read_sections(path, (*_RUN_SECTIONS, "sweep"))
    base = _run_config(path, raw)
    values = dict(alphas=(base.params.alpha,), ks=(base.params.trunc_k,))
    values.update(_parse_section(path, "sweep", raw["sweep"], _FIELDS["sweep"]))
    try:
        return SweepSpec(base=base, **values)
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _fmt(value) -> str:
    """Render one field value so that parsing it gives the value back."""
    if value is None:
        return "auto"
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return repr(float(value)) if isinstance(value, float) else str(value)


def _section_text(section: str, obj, names, head=()) -> str:
    lines = [f"{name} = {_fmt(getattr(obj, name))}" for name in names]
    return "\n".join([f"[{section}]", *head, *lines])


def config_text(cfg: RunConfig, sweep: Optional[SweepSpec] = None) -> str:
    """Render a configuration (optionally with a sweep section) as file text."""
    scen = cfg.scenario
    blocks = [
        _section_text("model", cfg.params, _FIELDS["model"]),
        _section_text("controls", cfg.controls, _FIELDS["controls"]),
        _section_text("scenario", scen, _SCENARIO_FIELDS[type(scen)], [f"kind = {scen.kind}"]),
        _section_text("run", cfg, _FIELDS["run"]),
    ]
    if sweep is not None:
        blocks.append(_section_text("sweep", sweep, _FIELDS["sweep"]))
    return "\n\n".join(blocks) + "\n"


def save_config(cfg: RunConfig, path, sweep: Optional[SweepSpec] = None) -> None:
    """Write a configuration file that reloads equal to ``cfg``."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(config_text(cfg, sweep))
    os.replace(tmp, path)


def cell_config(base: RunConfig, alpha: float, trunc_k: int) -> RunConfig:
    """Specialize a base configuration to one sweep cell."""
    return replace(base, params=replace(base.params, alpha=alpha, trunc_k=trunc_k))
