"""Scenario configuration: YAML files with shared includes, validated into
domain objects. Defaults reproduce the shipped farm design (49 m2 container,
three 30 m2 tiers, 750 roof pipes, Dubai site) so a scenario file usually
sets little more than the strategy id and the LED efficacy.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Optional

import yaml

from .climate import SiteConfig
from .crop import CropParams
from .economics import CostTable
from .lighting import STRATEGIES, Strategy
from .optics import LpGeometry
from .thermal import ChamberGeometry, CopModel, LatentModel, Surface

__all__ = ["ConfigError", "ScenarioConfig", "load_scenario_config",
           "load_config_mapping", "resolve_config_dict"]


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

    crop_storage_fraction: float = 0.02
    crop_latent_fraction: float = 0.23
    fm_water_l_per_kg: float = 0.95

    def __post_init__(self):
        if not 0.0 <= self.crop_storage_fraction <= 1.0:
            raise ConfigError("crop_storage_fraction must be in [0, 1]")
        if not 0.0 <= self.crop_latent_fraction <= 1.0:
            raise ConfigError("crop_latent_fraction must be in [0, 1]")
        if self.crop_storage_fraction + self.crop_latent_fraction > 1.0:
            raise ConfigError("crop storage + latent fractions exceed 1")
        if self.fm_water_l_per_kg < 0.0:
            raise ConfigError("fm_water_l_per_kg must be non-negative")


@dataclass(frozen=True)
class GlazingParams:
    tau: float = 0.82
    u_value: float = 3.75
    wall_glazed_m2: float = 18.0
    glazing_usd_per_m2: float = 0.0   # no published figure; PBT optional

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError("glazing tau must be in (0, 1]")
        if self.u_value <= 0.0:
            raise ConfigError("glazing U must be positive")
        if self.wall_glazed_m2 < 0.0:
            raise ConfigError("glazed wall area must be non-negative")


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str = "Bench"
    ppe: float = 2.5
    seed: int = 42
    site: SiteConfig = field(default_factory=lambda: SiteConfig(25.0, 55.0, 4.0))
    climate_path: Optional[Path] = None
    climate_columns: Optional[dict] = None
    chamber: ChamberGeometry = field(default_factory=ChamberGeometry)
    lp_geometry: LpGeometry = field(default_factory=LpGeometry)
    n_pipes: int = 750
    lp_heat_area: str = "aperture"            # pipe heat-loss area: aperture | lateral
    crop: CropParams = field(default_factory=CropParams)
    lue_table_path: Optional[Path] = None
    costs: CostTable = field(default_factory=CostTable)
    cop: CopModel = field(default_factory=CopModel)
    latent: LatentModel = field(default_factory=LatentModel)
    surrogates: SurrogateParams = field(default_factory=SurrogateParams)
    glazing: GlazingParams = field(default_factory=GlazingParams)
    min_dim: float = 0.30                     # PWM floor, a fraction of nominal PPFD
    ec_cap_ppfd: float = 400.0
    setpoint_t: float = 24.0
    setpoint_co2: float = 1400.0
    setpoint_ppfd: float = 250.0
    photoperiod: tuple[float, float] = (4.0, 20.0)
    min_threshold_ppfd: float = 100.0
    hour_center_offset: float = 0.5
    rays: int = 100_000
    table_cache_dir: Optional[Path] = None
    table_path: Optional[Path] = None         # imported efficiency table
    timestep_mode: str = "quasi_steady"       # quasi_steady | transient
    transient_capacity_w: float = 20000.0

    def __post_init__(self):
        if self.scenario not in STRATEGIES:
            raise ConfigError(f"unknown scenario {self.scenario!r}; "
                              f"expected one of {tuple(STRATEGIES)}")
        if self.ppe <= 0.0:
            raise ConfigError("ppe must be positive")
        if self.n_pipes < 0:
            raise ConfigError("n_pipes must be non-negative")
        if self.lp_heat_area not in ("aperture", "lateral"):
            raise ConfigError("lp_heat_area must be 'aperture' or 'lateral'")
        if self.timestep_mode not in ("quasi_steady", "transient"):
            raise ConfigError("timestep_mode must be 'quasi_steady' or 'transient'")
        if self.transient_capacity_w <= 0.0:
            raise ConfigError("transient_capacity_w must be positive")
        if not 0.0 < self.min_dim < 1.0:
            raise ConfigError(f"'driver.min_dim' must be in (0, 1), not {self.min_dim!r}")
        if not (math.isfinite(self.ec_cap_ppfd) and self.ec_cap_ppfd > 0.0):
            raise ConfigError(f"'ec.cap_ppfd' must be positive and finite, "
                              f"not {self.ec_cap_ppfd!r}")
        if not 0.0 <= self.hour_center_offset < 1.0:
            raise ConfigError("hour_center_offset must be in [0, 1)")
        p = self.photoperiod
        if len(p) != 2 or not 0 <= p[0] < p[1] <= 24:
            raise ConfigError(f"invalid photoperiod {p}")

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
        blob = json.dumps(_jsonable(self), sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _jsonable(obj: Any) -> Any:
    if is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    return obj


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def _load_yaml_with_includes(path: Path, seen: Optional[set] = None) -> dict:
    seen = seen or set()
    rp = path.resolve()
    if rp in seen:
        raise ConfigError(f"circular include at {path}")
    seen.add(rp)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text()) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"top level of {path} must be a mapping")
    includes = data.pop("include", [])
    if isinstance(includes, str):
        includes = [includes]
    merged: dict = {}
    for inc in includes:
        merged = _deep_merge(merged, _load_yaml_with_includes(path.parent / inc, seen))
    return _deep_merge(merged, data)


def _path_or_none(base: Path, value) -> Optional[Path]:
    if value in (None, "", "traced"):
        return None
    p = Path(value)
    return p if p.is_absolute() else (base / p)


# YAML keys whose ScenarioConfig field has another name
_RENAMED = {
    "climate": "climate_path",
    "lp.count": "n_pipes", "lp.heat_area": "lp_heat_area",
    "crop.lue_table": "lue_table_path",
    "driver.min_dim": "min_dim", "ec.cap_ppfd": "ec_cap_ppfd",
    "setpoints.temperature": "setpoint_t", "setpoints.co2": "setpoint_co2",
    "setpoints.ppfd": "setpoint_ppfd",
    "optics.table": "table_path", "optics.cache_dir": "table_cache_dir",
    "optics.rays": "rays",
}
# YAML sections that build one object field; their other keys are its fields
_SECTIONS = {"site": "site", "chamber": "chamber", "lp": "lp_geometry", "crop": "crop",
             "costs": "costs", "hvac": "cop", "latent": "latent",
             "surrogates": "surrogates", "gh": "glazing"}
# top-level keys are the fields neither table targets: `n_pipes` is no key
_TOP_LEVEL = ({f.name for f in fields(ScenarioConfig)}
              - set(_RENAMED.values()) - set(_SECTIONS.values()))
_GROUPS = set(_SECTIONS) | {k.split(".")[0] for k in _RENAMED if "." in k}   # mappings
# resolved against the config's directory
_PATHS = {"climate", "crop.lue_table", "optics.table", "optics.cache_dir"}


def _number(key: str, default, value):
    """`value` as the type of the numeric `default`; a boolean, a non-number
    or a fractional value for an integer key is an error naming the key."""
    try:
        fractional = isinstance(default, int) and not float(value).is_integer()
        if isinstance(value, bool) or fractional:
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
    return Surface(str(entry["name"]), _number(f"{key}.area_m2", 0.0, entry["area_m2"]),
                   _number(f"{key}.u_value", 0.0, entry["u_value"]))


# list values, built entry by entry into their field's types
_LISTS = {"chamber.surfaces": _surface,
          "photoperiod": lambda key, x: _number(key, 0.0, x)}


def _build(obj, keys: dict, base_dir: Path):
    """`obj` with the given fields replaced; `keys` maps field name to
    (YAML key, value). Values take the type of the field's default."""
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
        elif key in _PATHS:
            value = _path_or_none(base_dir, value)
        elif isinstance(default, str):
            value = str(value)
        elif isinstance(default, (float, int)):
            value = _number(key, default, value)
        changes[name] = value
    return replace(obj, **changes)


def resolve_config_dict(data: dict, base_dir: Path) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a merged YAML mapping.

    Every default lives on its dataclass field, so a missing key or a
    partial section keeps the shipped design. A key that names no field is
    an error, and relative paths resolve against `base_dir`.
    """
    default = ScenarioConfig()
    top: dict = {}
    objects: dict = {}
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
                        objects.setdefault(_SECTIONS[key], {})[sub] = (dotted, v)
                    else:
                        raise ConfigError(f"unknown key {dotted!r}")
        for name, keys in objects.items():
            top[name] = (name, _build(getattr(default, name), keys, base_dir))
        return _build(default, top, base_dir)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from None


def load_config_mapping(path: str | Path) -> dict:
    """Merged YAML mapping for a config file, includes resolved."""
    return _load_yaml_with_includes(Path(path))


def load_scenario_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    data = _load_yaml_with_includes(path)
    try:
        return resolve_config_dict(data, path.parent.resolve())
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
