"""Scenario configuration: YAML files with shared includes, validated into
domain objects. Defaults reproduce the shipped farm design (49 m2 container,
three 30 m2 tiers, 750 roof pipes, Dubai site) so a scenario file usually
sets little more than the strategy id and the LED efficacy.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import yaml

from .climate import SiteConfig
from .crop import CropParams
from .economics import CostTable
from .lighting import STRATEGIES, DriverCurve, EcFilm, Strategy
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
    calibration_path: Optional[Path] = None
    costs: CostTable = field(default_factory=CostTable)
    cop: CopModel = field(default_factory=CopModel)
    latent: LatentModel = field(default_factory=LatentModel)
    surrogates: SurrogateParams = field(default_factory=SurrogateParams)
    glazing: GlazingParams = field(default_factory=GlazingParams)
    driver: DriverCurve = field(default_factory=DriverCurve)
    ec_v_max: float = 100.0
    ec_cap_ppfd: float = 400.0
    setpoint_t: float = 24.0
    setpoint_co2: float = 1400.0
    setpoint_ppfd: float = 250.0
    photoperiod: tuple[float, float] = (4.0, 20.0)
    min_threshold_ppfd: float = 100.0
    hour_center_offset: float = 0.5
    rays: int = 100_000
    altitude_step: float = 5.0
    tilt_step: float = 5.0
    bounce_cap: int = 50
    table_cache_dir: Optional[Path] = None
    table_path: Optional[Path] = None         # imported efficiency table
    timestep_mode: str = "quasi_steady"       # quasi_steady | transient
    transient_substeps: int = 60
    transient_deadband_k: float = 0.5
    transient_capacity_w: float = 20000.0
    raw: dict = field(default_factory=dict, compare=False, repr=False)

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
        if not 0.0 <= self.hour_center_offset < 1.0:
            raise ConfigError("hour_center_offset must be in [0, 1)")

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

    def ec_film(self) -> EcFilm:
        return EcFilm(v_max=self.ec_v_max)

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
        return ChamberGeometry(floor_area_m2=self.chamber.floor_area_m2,
                               height_m=self.chamber.height_m,
                               air_density=self.chamber.air_density,
                               air_cp=self.chamber.air_cp,
                               surfaces=tuple(surfaces))

    @property
    def tier_occupancy(self) -> float:
        return self.crop.tier_area_m2 / self.chamber.floor_area_m2

    def lp_heat_area_m2(self) -> float:
        g = self.lp_geometry
        return g.aperture_area_m2 if self.lp_heat_area == "aperture" else g.lateral_area_m2

    def content_hash(self) -> str:
        blob = json.dumps(_jsonable(self.raw) if self.raw else _jsonable(self),
                          sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _jsonable(obj: Any) -> Any:
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _jsonable(getattr(obj, k)) for k in sorted(obj.__dataclass_fields__)
                if k != "raw"}
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


def resolve_config_dict(data: dict, base_dir: Path) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a merged YAML mapping."""
    def section(name: str) -> dict:
        v = data.get(name, {})
        if v is None:
            return {}
        if not isinstance(v, dict):
            raise ConfigError(f"section {name!r} must be a mapping")
        return v

    try:
        site_d = section("site")
        site = SiteConfig(latitude=float(site_d.get("latitude", 25.0)),
                          longitude=float(site_d.get("longitude", 55.0)),
                          utc_offset=float(site_d.get("utc_offset", 4.0)))

        ch_d = section("chamber")
        surfaces = ch_d.get("surfaces")
        ch_kwargs: dict = {
            "floor_area_m2": float(ch_d.get("floor_area_m2", 49.0)),
            "height_m": float(ch_d.get("height_m", 3.0)),
            "air_density": float(ch_d.get("air_density", 1.204)),
            "air_cp": float(ch_d.get("air_cp", 1006.0)),
        }
        if surfaces:
            ch_kwargs["surfaces"] = tuple(
                Surface(s["name"], float(s["area_m2"]), float(s["u_value"]))
                for s in surfaces)
        chamber = ChamberGeometry(**ch_kwargs)

        lp_d = section("lp")
        geom_keys = {f for f in LpGeometry.__dataclass_fields__}
        geom_kwargs = {k: v for k, v in lp_d.items() if k in geom_keys}
        lp_geom = LpGeometry(**geom_kwargs)

        crop_d = section("crop")
        crop_keys = {f for f in CropParams.__dataclass_fields__}
        crop = CropParams(**{k: v for k, v in crop_d.items() if k in crop_keys})

        cost_d = section("costs")
        costs = CostTable(**{k: v for k, v in cost_d.items()
                             if k in CostTable.__dataclass_fields__})
        cop_d = section("hvac")
        cop = CopModel(**{k: v for k, v in cop_d.items()
                          if k in CopModel.__dataclass_fields__})
        lat_d = section("latent")
        latent = LatentModel(**{k: v for k, v in lat_d.items()
                                if k in LatentModel.__dataclass_fields__})
        sur_d = section("surrogates")
        surrogates = SurrogateParams(**{k: v for k, v in sur_d.items()
                                        if k in SurrogateParams.__dataclass_fields__})
        gh_d = section("gh")
        glazing = GlazingParams(**{k: v for k, v in gh_d.items()
                                   if k in GlazingParams.__dataclass_fields__})

        drv_d = section("driver")
        points = tuple((float(a), float(b)) for a, b in drv_d.get("points", ()))
        driver = DriverCurve(nominal=float(drv_d.get("nominal", 0.95)),
                             min_dim=float(drv_d.get("min_dim", 0.30)),
                             points=points)

        sp_d = section("setpoints")
        opt_d = section("optics")
        photoperiod = tuple(float(x) for x in data.get("photoperiod", (4.0, 20.0)))
        if len(photoperiod) != 2 or not 0 <= photoperiod[0] < photoperiod[1] <= 24:
            raise ConfigError(f"invalid photoperiod {photoperiod}")

        cfg = ScenarioConfig(
            scenario=str(data.get("scenario", "Bench")),
            ppe=float(data.get("ppe", 2.5)),
            seed=int(data.get("seed", 42)),
            site=site,
            climate_path=_path_or_none(base_dir, data.get("climate")),
            climate_columns=data.get("climate_columns"),
            chamber=chamber,
            lp_geometry=lp_geom,
            n_pipes=int(lp_d.get("count", 750)),
            lp_heat_area=str(lp_d.get("heat_area", "aperture")),
            crop=crop,
            lue_table_path=_path_or_none(base_dir, crop_d.get("lue_table")),
            calibration_path=_path_or_none(base_dir, crop_d.get("calibration")),
            costs=costs,
            cop=cop,
            latent=latent,
            surrogates=surrogates,
            glazing=glazing,
            driver=driver,
            ec_v_max=float(section("ec").get("v_max", 100.0)),
            ec_cap_ppfd=float(section("ec").get("cap_ppfd", 400.0)),
            setpoint_t=float(sp_d.get("temperature", 24.0)),
            setpoint_co2=float(sp_d.get("co2", 1400.0)),
            setpoint_ppfd=float(sp_d.get("ppfd", 250.0)),
            photoperiod=photoperiod,
            min_threshold_ppfd=float(data.get("min_threshold_ppfd", 100.0)),
            hour_center_offset=float(data.get("hour_center_offset", 0.5)),
            rays=int(opt_d.get("rays", 100_000)),
            altitude_step=float(opt_d.get("altitude_step", 5.0)),
            tilt_step=float(opt_d.get("tilt_step", 5.0)),
            bounce_cap=int(opt_d.get("bounce_cap", 50)),
            table_cache_dir=_path_or_none(base_dir, opt_d.get("cache_dir")),
            table_path=_path_or_none(base_dir, opt_d.get("table")),
            timestep_mode=str(data.get("timestep_mode", "quasi_steady")),
            transient_substeps=int(data.get("transient_substeps", 60)),
            transient_deadband_k=float(data.get("transient_deadband_k", 0.5)),
            transient_capacity_w=float(data.get("transient_capacity_w", 20000.0)),
            raw=data,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from None
    return cfg


def load_config_mapping(path: str | Path) -> dict:
    """Merged YAML mapping for a config file, includes resolved."""
    return _load_yaml_with_includes(Path(path))


def load_scenario_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    data = _load_yaml_with_includes(path)
    return resolve_config_dict(data, path.parent.resolve())
