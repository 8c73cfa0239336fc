"""Growing-chamber energy balance, the transient air node and HVAC electricity.

Quasi-steady operation: the air node is held at its setpoint and the
balance is solved for the heating/cooling power each hour. Transient
operation (`transient_loads`) sub-steps every hour's air node at once
under a deadband thermostat. Constants no config varies (air properties,
latent heat, the COP floor, the substeps and deadband) sit beside the code
that reads them. Sign convention: every term is a signed flow into the air
node, so cooling demand shows up as a negative closure term.
The convection, balance, COP, HVAC and latent functions take one hour's
scalars or arrays of hours alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "Surface",
    "ChamberGeometry",
    "PowerBreakdown",
    "CopModel",
    "LatentModel",
    "lp_convection",
    "envelope_load",
    "solve_hvac_load",
    "transient_loads",
    "hvac_electricity",
    "latent_balance",
    "LATENT_HEAT_J_PER_KG",
]

LATENT_HEAT_J_PER_KG = 2.45e6  # vaporization, near-ambient water
KELVIN = 273.15
AIR_DENSITY = 1.204            # kg m-3
AIR_CP = 1006.0                # J kg-1 K-1


@dataclass(frozen=True)
class Surface:
    name: str
    area_m2: float
    u_value: float             # W m-2 K-1

    def __post_init__(self):
        if self.area_m2 <= 0.0 or self.u_value <= 0.0:
            raise ValueError(f"surface {self.name}: area and U must be positive")


@dataclass(frozen=True)
class ChamberGeometry:
    floor_area_m2: float = 49.0
    height_m: float = 3.0
    surfaces: tuple[Surface, ...] = (
        Surface("roof", 49.0, 0.175),
        Surface("walls", 84.0, 0.175),
        Surface("floor", 49.0, 0.175),
    )

    def __post_init__(self):
        if self.floor_area_m2 <= 0.0 or self.height_m <= 0.0:
            raise ValueError("chamber dimensions must be positive")

    @property
    def air_volume_m3(self) -> float:
        return self.floor_area_m2 * self.height_m

    @property
    def thermal_capacity_j_per_k(self) -> float:
        return AIR_DENSITY * AIR_CP * self.air_volume_m3


# Film-temperature air properties for the in-pipe buoyancy correlation, fixed
# at 300 K: next to the correlation, their variation over the ambient is noise.
GRAVITY = 9.81                 # m s-2
AIR_BETA = 1.0 / 297.0         # K-1
AIR_KINEMATIC_VISCOSITY = 1.5e-5  # m2 s-1
AIR_PRANDTL = 0.71
AIR_CONDUCTIVITY = 0.026       # W m-1 K-1
RA_VALID_RANGE = (1e7, 1e11)


def lp_convection(t_in: float, t_ext: float, length_m: float, heat_area_m2: float,
                  n_pipes: int = 1) -> tuple[float, float]:
    """Buoyancy-driven heat loss through the open light pipes, in watts.

    Suppressed entirely (+0.0) when the chamber is no warmer than outside.
    Returns (Q, Ra); Ra is 0 on the suppressed branch and lets callers
    flag operation outside the correlation's comfortable range. A float
    difference takes a plain scalar path: the quasi-steady stage calls it
    for each hour the chamber is warmer. Arrays (the transient air node's
    substeps) evaluate the correlation on their warmer entries only.
    """
    dt = t_in - t_ext
    warm = None
    if not isinstance(dt, float):
        dt = np.asarray(dt)
        warm = dt > 0.0
        dt = dt[warm]
    elif dt <= 0.0:
        return 0.0, 0.0
    ra = (GRAVITY * AIR_BETA * dt * length_m ** 3
          / (AIR_KINEMATIC_VISCOSITY ** 2 / AIR_PRANDTL))
    nu = 0.15 * ra ** 0.33
    u_lp = nu * AIR_CONDUCTIVITY / length_m
    q = u_lp * heat_area_m2 * dt * n_pipes
    if warm is None:
        return q, ra
    q_all, ra_all = np.zeros(warm.shape), np.zeros(warm.shape)  # +0.0 where not warmer
    q_all[warm], ra_all[warm] = q, ra
    return q_all, ra_all


def envelope_load(geometry: ChamberGeometry, t_in: float, t_ext: float) -> float:
    """Transmission gain into the chamber, positive when outside is warmer."""
    return sum(s.u_value * s.area_m2 for s in geometry.surfaces) * (t_ext - t_in)


@dataclass(frozen=True)
class PowerBreakdown:
    """Signed air-node balance terms for one hour, all in watts.

    q_hc closes the quasi-steady balance: negative is cooling demand,
    positive heating. q_eva, the evaporative cooling of the air, is also
    the latent load condensed at the cooling coil.
    """

    q_env: float = 0.0
    q_led: float = 0.0
    q_lp_sol: float = 0.0
    q_lp_conv: float = 0.0
    q_plant: float = 0.0
    q_eva: float = 0.0
    q_hc: float = 0.0

    def residual(self) -> float:
        """Signed quasi-steady balance residual (W)."""
        return (self.q_env + self.q_led + self.q_lp_sol - self.q_lp_conv
                - self.q_plant - self.q_eva + self.q_hc)

    def relative_residual(self) -> float:
        terms = (self.q_env, self.q_led, self.q_lp_sol, self.q_lp_conv, self.q_plant,
                 self.q_eva, self.q_hc)
        return abs(self.residual()) / reduce(np.maximum, map(abs, terms), 1.0)


def solve_hvac_load(q_env: float = 0.0, q_led: float = 0.0, q_lp_sol: float = 0.0,
                    q_lp_conv: float = 0.0, q_plant: float = 0.0, q_eva: float = 0.0
                    ) -> PowerBreakdown:
    """Close the air balance for q_hc with the setpoint held (dT/dt = 0)."""
    q_hc = -(q_env + q_led + q_lp_sol) + q_lp_conv + q_plant + q_eva
    return PowerBreakdown(q_env=q_env, q_led=q_led, q_lp_sol=q_lp_sol,
                          q_lp_conv=q_lp_conv, q_plant=q_plant, q_eva=q_eva, q_hc=q_hc)


TRANSIENT_SUBSTEPS = 60
TRANSIENT_DEADBAND_K = 0.5


def transient_loads(bd: PowerBreakdown, t_ext: np.ndarray, chamber: ChamberGeometry,
                    setpoint_c: float, capacity_w: float, pipe: dict | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Mean cooling and heating magnitudes (W) a thermostat delivers each hour.

    Every hour restarts at the setpoint and is integrated over
    `TRANSIENT_SUBSTEPS` explicit steps, all hours at once; the drive acts
    outside the `TRANSIENT_DEADBAND_K` band. The envelope and, with `pipe`
    (`lp_convection`'s length_m, heat_area_m2 and n_pipes), the pipe
    convection follow the drifting air temperature; the other terms of
    `bd` hold their setpoint values.
    """
    cap = chamber.thermal_capacity_j_per_k
    dt = 3600.0 / TRANSIENT_SUBSTEPS
    # proportional drive sized to close the error within one substep; a
    # stiffer gain would hunt around the deadband at this step length
    gain = cap / dt
    gains_fixed = bd.q_led + bd.q_lp_sol - bd.q_plant - bd.q_eva
    t_air = np.full(np.shape(t_ext), float(setpoint_c))
    cool, heat = np.zeros_like(t_air), np.zeros_like(t_air)
    for _ in range(TRANSIENT_SUBSTEPS):
        q_env = envelope_load(chamber, t_air, t_ext)
        q_conv = 0.0 if pipe is None else lp_convection(t_air, t_ext, **pipe)[0]
        err = setpoint_c - t_air
        q_hc = np.where(np.abs(err) > TRANSIENT_DEADBAND_K,
                        np.clip(gain * err, -capacity_w, capacity_w), 0.0)
        cool -= np.minimum(q_hc, 0.0)
        heat += np.maximum(q_hc, 0.0)
        t_air += (gains_fixed + q_env - q_conv + q_hc) * dt / cap
    return cool / TRANSIENT_SUBSTEPS, heat / TRANSIENT_SUBSTEPS


COP_MIN = 1.5


@dataclass(frozen=True)
class CopModel:
    """Second-law-scaled Carnot COP against ambient temperature.

    Cooling: COP = eta * T_evap / (T_cond - T_evap) with the condenser
    tracking ambient plus an approach. Heating mirrors the form with a
    fixed supply temperature and the evaporator tracking ambient.
    """

    eta_second_law: float = 0.45
    t_evap_c: float = 7.0
    approach_k: float = 10.0
    heat_supply_c: float = 45.0
    heat_approach_k: float = 5.0
    cop_max: float = 8.0

    def __post_init__(self):
        if not 0.0 < self.eta_second_law <= 1.0:
            raise ValueError("second-law efficiency must be in (0, 1]")
        if self.cop_max < COP_MIN:
            raise ValueError(f"cop_max is below the COP floor {COP_MIN}")
        # condenser at or below the evaporator is rejected at config time
        if self.approach_k <= 0.0 or self.heat_approach_k < 0.0:
            raise ValueError("approach temperatures must be positive")
        if self.heat_supply_c + KELVIN <= 0.0:
            raise ValueError("heat supply temperature is non-physical")

    def cop_cooling(self, t_ext_c: float) -> float:
        t_evap = self.t_evap_c + KELVIN
        t_cond = t_ext_c + self.approach_k + KELVIN
        return self._clamped(self.eta_second_law * t_evap, t_cond - t_evap)

    def cop_heating(self, t_ext_c: float) -> float:
        t_cond = self.heat_supply_c + KELVIN
        t_evap = t_ext_c - self.heat_approach_k + KELVIN
        return self._clamped(self.eta_second_law * t_cond, t_cond - t_evap)

    def _clamped(self, carnot_numerator: float, lift: float) -> float:
        """numerator / lift clamped to [COP_MIN, cop_max]; cop_max without lift."""
        lift = np.asarray(lift, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            cop = np.where(lift <= 0.0, self.cop_max,
                           np.clip(carnot_numerator / lift, COP_MIN, self.cop_max))
        return cop if cop.ndim else float(cop)


def hvac_electricity(q_cool_w: float, q_heat_w: float, t_ext_c: float,
                     cop: CopModel, q_eva_w: float = 0.0) -> tuple[float, float]:
    """Electrical (cooling, heating) draws; the coil's cooling duty is the
    sensible cooling plus the latent load q_eva condensed on it."""
    if np.any(np.asarray(q_cool_w) < 0.0) or np.any(np.asarray(q_heat_w) < 0.0):
        raise ValueError("loads are magnitudes; pass the cooling demand as positive")
    coil = q_cool_w + q_eva_w
    draws = (np.where(coil > 0.0, coil / cop.cop_cooling(t_ext_c), 0.0),
             np.where(q_heat_w > 0.0, q_heat_w / cop.cop_heating(t_ext_c), 0.0))
    return tuple(p if p.ndim else float(p) for p in draws)


@dataclass(frozen=True)
class LatentModel:
    """Surrogate for the unpublished evapotranspiration submodel.

    Transpired vapour is condensed at the cooling coil whenever lights or
    the chiller run (in this quasi-steady model: always, to hold the RH
    setpoint), and most of the condensate is recovered into the loop. No
    separate AHU or humidifier load is modelled.
    """

    condensate_recovery: float = 0.95

    def __post_init__(self):
        if not 0.0 <= self.condensate_recovery <= 1.0:
            raise ValueError("condensate recovery must be in [0, 1]")


def latent_balance(transpiration_kg_per_s: float, model: LatentModel, dt_s: float = 3600.0
                   ) -> tuple[float, float]:
    """Latent terms for one step.

    Returns (q_eva_w, condensate_recovered_l). q_eva is the evaporative
    cooling of the air; the same latent power reappears at the coil where
    the vapour condenses, and the recovered condensate volume goes back to
    the water ledger.
    """
    if np.any(np.asarray(transpiration_kg_per_s) < 0.0):
        raise ValueError("transpiration rate must be non-negative")
    q_eva = transpiration_kg_per_s * LATENT_HEAT_J_PER_KG
    condensed_kg = transpiration_kg_per_s * dt_s
    recovered_l = condensed_kg * model.condensate_recovery  # 1 kg == 1 L
    return q_eva, recovered_l
