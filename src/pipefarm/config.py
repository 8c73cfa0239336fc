"""Scenario configuration: YAML files with shared includes, validated into
domain objects. Defaults reproduce the shipped farm design (49 m2 container,
three 30 m2 tiers, 750 roof pipes, Dubai site) so a scenario file usually
sets little more than the strategy id and the LED efficacy.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional

import yaml

from .climate import CLIMATE_COLUMNS, SiteConfig
from .crop import CropParams
from .declared import FieldError, check_ranges, ranged
from .economics import CostTable
from .lighting import STRATEGIES, Strategy
from .optics import LpGeometry
from .thermal import ChamberGeometry, CopModel, LatentModel, Surface

__all__ = ["ConfigError", "ScenarioConfig", "CompareSet", "PriceGrid",
           "load_scenario_config", "load_set", "resolve_config_dict"]


class ConfigError(ValueError):
    """Configuration file problems, with the offending key in the message."""


@dataclass(frozen=True)
class SurrogateParams:
    """Engine-level crop/latent coupling constants (documented surrogates).

    Intercepted canopy radiation splits three ways: a stored fraction
    (photosynthate and other non-returned energy, the balance's crop sink), a
    latent fraction driving evapotranspiration, and the remainder which
    re-enters the air sensibly and is therefore never subtracted.
    """

    crop_storage_fraction: float = ranged(0.02, ge=0.0, le=1.0)
    crop_latent_fraction: float = ranged(0.23, ge=0.0, le=1.0)
    fm_water_l_per_kg: float = ranged(0.95, ge=0.0)

    def __post_init__(self):
        check_ranges(self)
        if self.crop_storage_fraction + self.crop_latent_fraction > 1.0:
            raise FieldError("crop_latent_fraction", f"must not exceed 1 - crop_storage_fraction "
                             f"({1.0 - self.crop_storage_fraction!r}), "
                             f"not {self.crop_latent_fraction!r}")


@dataclass(frozen=True)
class GlazingParams:
    tau: float = ranged(0.82, gt=0.0, le=1.0)
    u_value: float = ranged(3.75, gt=0.0)
    wall_glazed_m2: float = ranged(18.0, ge=0.0)
    glazing_usd_per_m2: float = ranged(0.0)   # no published figure; PBT optional

    __post_init__ = check_ranges


# the envelope parts a chamber is built from; `effective_chamber` glazes the first two
SURFACE_NAMES = ("roof", "walls", "floor")


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str = ranged("Bench", choices=STRATEGIES)
    ppe: float = ranged(2.5, gt=0.0)
    site: SiteConfig = field(default_factory=lambda: SiteConfig(25.0, 55.0, 4.0))
    climate_path: Optional[Path] = None
    climate_columns: Optional[dict] = None
    chamber: ChamberGeometry = field(default_factory=ChamberGeometry)
    lp_geometry: LpGeometry = field(default_factory=LpGeometry)
    n_pipes: int = ranged(750, ge=0)
    lp_heat_area: str = ranged("aperture", choices=("aperture", "lateral"))   # pipe heat-loss area
    crop: CropParams = field(default_factory=CropParams)
    lue_table_path: Optional[Path] = None
    costs: CostTable = field(default_factory=CostTable)
    cop: CopModel = field(default_factory=CopModel)
    latent: LatentModel = field(default_factory=LatentModel)
    surrogates: SurrogateParams = field(default_factory=SurrogateParams)
    glazing: GlazingParams = field(default_factory=GlazingParams)
    min_dim: float = ranged(0.30, gt=0.0, lt=1.0)   # PWM floor, a fraction of nominal PPFD
    ec_cap_ppfd: float = ranged(400.0, gt=0.0)
    setpoint_t: float = ranged(24.0)
    setpoint_co2: float = ranged(1400.0, gt=0.0)
    setpoint_ppfd: float = ranged(250.0, gt=0.0)
    photoperiod: tuple[float, float] = ranged((4.0, 20.0), ge=0.0, le=24.0)   # lights on, off
    min_threshold_ppfd: float = ranged(100.0, ge=0.0)
    hour_center_offset: float = ranged(0.5, ge=0.0, lt=1.0)
    table_path: Optional[Path] = None         # optical table file, read by piped runs
    timestep_mode: str = ranged("quasi_steady", choices=("quasi_steady", "transient"))
    transient_capacity_w: float = ranged(20000.0, gt=0.0)

    def __post_init__(self):
        p = self.photoperiod
        if len(p) != 2:
            raise FieldError("photoperiod", f"must be two hours, not {p}")
        check_ranges(self)
        if not p[0] < p[1]:         # lights on at 24 leave no hour to switch them off
            raise FieldError("photoperiod[1]" if p[0] < 24.0 else "photoperiod[0]",
                             f"must switch the lights on before off, not {list(p)}")
        if self.crop.tier_area_m2 > self.chamber.floor_area_m2:   # gh_gains: occupancy <= 1
            raise FieldError("crop.tier_area_m2", f"must not exceed the chamber's floor area "
                             f"({self.chamber.floor_area_m2!r}), not {self.crop.tier_area_m2!r}")
        columns = self.climate_columns
        if columns is not None and not isinstance(columns, dict):
            raise FieldError("climate_columns", f"must be a mapping, not {columns!r}")
        for name, header in (columns or {}).items():
            if name not in CLIMATE_COLUMNS:
                raise ConfigError(f"unknown key 'climate_columns.{name}'")
            if not isinstance(header, str) or not header:
                raise FieldError(f"climate_columns.{name}",
                                 f"must be a non-empty string, not {header!r}")

    @property
    def strategy(self) -> Strategy:
        """The scenario's row of the strategy table (never stored, so a
        `replace(scenario=...)` cannot leave a stale one behind)."""
        return STRATEGIES[self.scenario]

    @property
    def uses_light_pipes(self) -> bool:
        return self.strategy.daylight == "pipe"

    @property
    def tier3_nominal_ppfd(self) -> float:
        return self.strategy.nominal(self.setpoint_ppfd)

    def effective_chamber(self) -> ChamberGeometry:
        """Scenario envelope; a glazed strategy swaps glazing into roof and walls."""
        if self.strategy.daylight != "glazing":
            return self.chamber
        surfaces = []
        wall_area = sum(s.area_m2 for s in self.chamber.surfaces if s.name == "walls")
        glazed_wall = min(self.glazing.wall_glazed_m2, wall_area)
        for s in self.chamber.surfaces:
            if s.name == "roof":
                surfaces.append(Surface("roof_glazing", s.area_m2, self.glazing.u_value))
            elif s.name == "walls":
                if glazed_wall > 0.0:
                    surfaces.append(Surface("wall_glazing", glazed_wall, self.glazing.u_value))
                if wall_area - glazed_wall > 0.0:
                    surfaces.append(Surface("walls", wall_area - glazed_wall, s.u_value))
            else:
                surfaces.append(s)
        return replace(self.chamber, surfaces=tuple(surfaces))

    @property
    def tier_occupancy(self) -> float:
        return self.crop.tier_area_m2 / self.chamber.floor_area_m2

    def lp_heat_area_m2(self) -> float:
        g = self.lp_geometry
        return g.aperture_area_m2 if self.lp_heat_area == "aperture" else g.lateral_area_m2

    def content_hash(self) -> str:
        """Hash of the resolved config: every field, overrides and resolved
        paths included."""
        blob = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class PriceGrid:
    """A compare file's price axes: USD per MWh of electricity and per tonne of CO2."""
    electricity_usd_per_mwh: tuple[float, ...] = ranged((100.0, 200.0, 350.0), ge=0.0)
    carbon_usd_per_t: tuple[float, ...] = ranged((0.0, 50.0, 100.0), ge=0.0)

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name):
                raise FieldError(f.name, "must be a non-empty list of prices")
        check_ranges(self)


@dataclass(frozen=True)
class CompareSet:
    """A compare file: the scenario configs tabulated side by side, and the
    price grid and payback target that each non-Bench one is swept over."""
    scenarios: tuple[Path, ...] = ()
    target_pbt_years: float = ranged(10.0, gt=0.0)
    grid: PriceGrid = PriceGrid()               # frozen, so one shared default

    def __post_init__(self):
        if not self.scenarios:
            raise FieldError("scenarios", "must be a non-empty list of config paths")
        for i, p in enumerate(self.scenarios):
            if not isinstance(p, Path):
                raise FieldError(f"scenarios[{i}]", f"must be a config path, not {p!r}")
        check_ranges(self)


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


# libyaml's loader when PyYAML was built with it; both give the same mappings
class _YAML_LOADER(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Refuses a key given twice in one mapping, at any depth, where PyYAML
    would keep the last one silently (YAML requires a mapping's keys to be
    unique). An include may still override what it includes."""

    def construct_mapping(self, node, deep=False):
        lines: dict = {}
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            line = key_node.start_mark.line + 1
            try:
                first = lines.get(key)
            except TypeError:        # unhashable; the base loader refuses it
                continue
            if first is not None:
                raise yaml.constructor.ConstructorError(
                    None, None, f"key {key!r} is given twice in one mapping, "
                                f"on lines {first} and {line}")
            lines[key] = line
        return super().construct_mapping(node, deep=deep)


def _load_yaml_with_includes(path: Path, chain: tuple = ()) -> dict:
    """The mapping of `path` over its includes, merged in order. `chain`
    holds the files that include this one, so a file met twice on one
    chain is circular, while two includes sharing a file are not."""
    rp = path.resolve()
    if rp in chain:
        raise ConfigError(f"circular include at {path}")
    chain += (rp,)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.load(path.read_text(), Loader=_YAML_LOADER) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"top level of {path} must be a mapping")
    for key in _PATHS:                     # relative to this file's own directory
        section, _, name = key.rpartition(".")
        values = data.get(section) if section else data
        value = values.get(name) if isinstance(values, dict) else None
        if isinstance(value, str) and value:
            values[name] = str(path.parent.resolve() / value)
        elif isinstance(value, list):      # a list of paths, entry by entry
            values[name] = [str(path.parent.resolve() / v) if isinstance(v, str) and v else v
                            for v in value]
    includes = data.pop("include", [])
    if isinstance(includes, str):
        includes = [includes]
    if not (isinstance(includes, list) and all(isinstance(i, str) and i for i in includes)):
        raise ConfigError(f"{path}: 'include' must be a file or list of files, not {includes!r}")
    merged: dict = {}
    for inc in includes:
        if not (path.parent / inc).is_file():
            raise ConfigError(f"{path}: include {inc!r} names no config file: {path.parent / inc}")
        merged = _deep_merge(merged, _load_yaml_with_includes(path.parent / inc, chain))
    return _deep_merge(merged, data)


# YAML keys whose ScenarioConfig field has another name
_RENAMED = {
    "climate": "climate_path",
    "lp.count": "n_pipes", "lp.heat_area": "lp_heat_area",
    "crop.lue_table": "lue_table_path",
    "driver.min_dim": "min_dim", "ec.cap_ppfd": "ec_cap_ppfd",
    "setpoints.temperature": "setpoint_t", "setpoints.co2": "setpoint_co2",
    "setpoints.ppfd": "setpoint_ppfd",
    "optics.table": "table_path",
}
# YAML sections that build one object field; their other keys are its fields
_SECTIONS = {"site": "site", "chamber": "chamber", "lp": "lp_geometry", "crop": "crop",
             "costs": "costs", "hvac": "cop", "latent": "latent",
             "surrogates": "surrogates", "gh": "glazing"}
_DEFAULT = ScenarioConfig()     # frozen, so one default that every load replaces into
# top-level keys are the fields neither table targets: `n_pipes` is no key
_TOP_LEVEL = ({f.name for f in fields(ScenarioConfig)}
              - set(_RENAMED.values()) - set(_SECTIONS.values()))
_GROUPS = set(_SECTIONS) | {k.split(".")[0] for k in _RENAMED if "." in k}   # mappings
# the YAML key or section of each ScenarioConfig field those two tables name
_KEYS = {name: key for key, name in (_RENAMED | _SECTIONS).items()}
# path keys, resolved by the loader against the directory of the file that sets them
_PATHS = {"climate", "crop.lue_table", "optics.table", "scenarios"}


def _number(key: str, default, value):
    """`value` as the type of the numeric `default`; a boolean, a string (a
    quoted number too), a non-number or a non-integer for an integer key is
    an error naming it. The field's declared range then refuses NaN and ±inf."""
    try:
        if isinstance(value, (bool, str)) or (
                isinstance(default, int) and not float(value).is_integer()):
            raise ValueError
        return type(default)(value)
    except (TypeError, ValueError):
        kind = "an integer" if isinstance(default, int) else "a number"
        raise ConfigError(f"{key!r} must be {kind}, not {value!r}") from None


def _surface(key: str, entry) -> Surface:
    """One `chamber.surfaces` entry; `key` names it, as 'chamber.surfaces[0]'."""
    if not isinstance(entry, dict) or set(entry) != {"name", "area_m2", "u_value"}:
        raise ConfigError(f"{key!r} must set exactly name, area_m2 and u_value, "
                          f"not {entry!r}")
    # a placeholder whose three fields the entry replaces
    surface = _build(Surface("?", 1.0, 1.0), {k: (f"{key}.{k}", v) for k, v in entry.items()}, key)
    if surface.name not in SURFACE_NAMES:
        raise ConfigError(f"'{key}.name' must be one of {SURFACE_NAMES}, not {surface.name!r}")
    return surface


# list values, built entry by entry into their field's types
_LISTS = {"chamber.surfaces": _surface,
          "scenarios": lambda key, x: Path(x) if isinstance(x, str) and x else x,
          **dict.fromkeys(("photoperiod", "grid.electricity_usd_per_mwh", "grid.carbon_usd_per_t"),
                          lambda key, x: _number(key, 0.0, x))}


def _build(obj, keys: dict, section: Optional[str] = None):
    """`obj` with the given fields replaced, or a new one if `obj` is a
    class; `keys` maps field name to (YAML key, value). Values take the type
    of the field's default; a string or path field takes only a string (or
    null), and a section's mapping builds its object key by key.

    A refused field is named by the YAML key that set it: the `section`'s
    key and the field's name, or at the top level the field's own key."""
    names = {f.name for f in fields(obj)}
    changes = {}
    for name, (key, value) in keys.items():
        if name not in names:
            raise ConfigError(f"unknown key {key!r}")
        default = getattr(obj, name)
        if key in _LISTS:
            if not isinstance(value, list):
                raise ConfigError(f"{key!r} must be a list, not {value!r}")
            value = tuple(_LISTS[key](f"{key}[{i}]", v) for i, v in enumerate(value))
        elif key in _PATHS or isinstance(default, str):
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{key!r} must be a string, not {value!r}")
            if key in _PATHS:
                value = Path(value) if value else None        # "" sets no path
        elif isinstance(default, (float, int)):
            value = _number(key, default, value)
        elif is_dataclass(default):
            if value is not None and not isinstance(value, dict):
                raise ConfigError(f"section {key!r} must be a mapping")
            value = _build(default, {k: (f"{key}.{k}", v) for k, v in (value or {}).items()}, key)
        changes[name] = value
    try:
        return obj(**changes) if isinstance(obj, type) else replace(obj, **changes)
    except FieldError as exc:
        name = exc.field.split(".")[0].split("[")[0]
        key = f"{section}.{name}" if section else _KEYS.get(name, name)
        raise ConfigError(f"{key + exc.field[len(name):]!r} {exc.problem}") from None


def resolve_config_dict(data: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a merged YAML mapping.

    Every default lives on its dataclass field, so a missing key or a
    partial section keeps the shipped design. A key that names no field is
    an error. Paths are taken as given: the loader has resolved each
    relative one against the directory of the file that sets it.
    """
    top: dict = {}
    try:
        for key, value in data.items():
            if key in _RENAMED:
                top[_RENAMED[key]] = (key, value)
            elif key in _TOP_LEVEL:
                top[key] = (key, value)
            elif key not in _GROUPS:
                raise ConfigError(f"unknown key {key!r}")
            elif value is not None:
                if not isinstance(value, dict):
                    raise ConfigError(f"section {key!r} must be a mapping")
                for sub, v in value.items():
                    dotted = f"{key}.{sub}"
                    if dotted in _RENAMED:
                        top[_RENAMED[dotted]] = (dotted, v)
                    elif key in _SECTIONS:
                        top.setdefault(_SECTIONS[key], (key, {}))[1][sub] = v
                    else:
                        raise ConfigError(f"unknown key {dotted!r}")
        return _build(_DEFAULT, top)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from None


def _load(path: str | Path, resolve):
    """`resolve` of the merged mapping at `path`; its errors name the file."""
    path = Path(path)
    data = _load_yaml_with_includes(path)
    try:
        return resolve(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_scenario_config(path: str | Path) -> ScenarioConfig:
    return _load(path, resolve_config_dict)


def load_set(path: str | Path, kind: type):
    """A study file of `kind` (`CompareSet`), by the scenario file's rules."""
    return _load(path, lambda data: _build(kind, {k: (k, v) for k, v in data.items()}))
