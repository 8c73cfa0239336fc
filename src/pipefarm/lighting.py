"""LED electrical model and the tier-3 supplementation strategies.

`STRATEGIES` is the one place a scenario id gets its meaning: each row
states where tier 3's daylight comes from, what it passes through, how the
tier-3 LEDs respond, and the fixtures' nominal PPFD. Everything else
(optics path, envelope, control, hardware costs) reads the row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "STRATEGIES",
    "Strategy",
    "DriverCurve",
    "LightingCommand",
    "EcFilm",
    "led_electric_power",
    "driver_efficiency",
    "control_tier3",
    "ec_transmittance",
    "ec_control",
]


@dataclass(frozen=True)
class Strategy:
    """One tier-3 strategy.

    daylight: "none", "pipe" (roof light pipes) or "glazing" (glazed roof
    and walls). filter_tau: visible transmittance of a UV-IR filter in
    each pipe, None without one. ec_film: a variable-transmittance film in
    each pipe, capping crop PPFD. led: "fixed" (nominal all photoperiod),
    "off", "on_off" (nominal while daylight is below the threshold) or
    "pwm" (dimmed to make up the setpoint). nominal_ppfd: the tier-3
    fixture rating; None means the PPFD setpoint.
    """

    daylight: str
    led: str
    filter_tau: Optional[float] = None
    ec_film: bool = False
    nominal_ppfd: Optional[float] = None

    def nominal(self, setpoint: float) -> float:
        """Tier-3 fixture PPFD: what the LEDs deliver when fully on."""
        return setpoint if self.nominal_ppfd is None else self.nominal_ppfd


STRATEGIES = {
    "Bench": Strategy(daylight="none", led="fixed"),
    "LP_NL": Strategy(daylight="pipe", led="off", nominal_ppfd=0.0),
    "LP_Min_200": Strategy(daylight="pipe", led="on_off", nominal_ppfd=200.0),
    "LP_Min_250": Strategy(daylight="pipe", led="on_off", nominal_ppfd=250.0),
    "LP_Dim": Strategy(daylight="pipe", led="pwm"),
    "LP_Dim_IR_98": Strategy(daylight="pipe", led="pwm", filter_tau=0.98),
    "LP_Dim_IR_90": Strategy(daylight="pipe", led="pwm", filter_tau=0.90),
    "LP_Dim_EC": Strategy(daylight="pipe", led="pwm", ec_film=True),
    "GH": Strategy(daylight="glazing", led="off", nominal_ppfd=0.0),
}


@dataclass(frozen=True)
class DriverCurve:
    """Part-load efficiency of the PWM driver over dim fraction [min_dim, 1].

    The published curve gives only the nominal 95% point, so the default
    is flat; measured points can be loaded as (dim, efficiency) pairs.
    """

    nominal: float = 0.95
    min_dim: float = 0.30
    points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if not 0.0 < self.nominal <= 1.0:
            raise ValueError("nominal efficiency must be in (0, 1]")
        if not 0.0 < self.min_dim < 1.0:
            raise ValueError("minimum dim fraction must be in (0, 1)")
        if self.points:
            dims = [p[0] for p in self.points]
            if sorted(dims) != dims or len(set(dims)) != len(dims):
                raise ValueError("curve points must have strictly increasing dim")
            if abs(dims[0] - self.min_dim) > 1e-9 or abs(dims[-1] - 1.0) > 1e-9:
                raise ValueError("curve must be defined at min_dim and 1.0")
            for _, eff in self.points:
                if not 0.0 < eff <= 1.0:
                    raise ValueError("efficiencies must be in (0, 1]")

    def efficiency(self, dim: float) -> float:
        if not self.min_dim - 1e-12 <= dim <= 1.0 + 1e-12:
            raise ValueError(f"dim {dim} below the {self.min_dim:.0%} hardware floor")
        if not self.points:
            return self.nominal
        dims = [p[0] for p in self.points]
        effs = [p[1] for p in self.points]
        return float(np.interp(dim, dims, effs))


def driver_efficiency(dim: float, curve: DriverCurve) -> float:
    """Part-load driver efficiency; dim = 0 means no draw at all."""
    if dim == 0.0:
        return 1.0
    return curve.efficiency(dim)


def led_electric_power(ppfd: float, area_m2: float, ppe: float,
                       driver_eff: float = 1.0) -> float:
    """Electrical watts to hold a commanded PPFD over an area.

    Non-PWM scenarios take driver_eff = 1 so nominal powers match the
    fixture ratings; PWM scenarios pay the driver penalty.
    """
    if ppfd < 0.0 or area_m2 <= 0.0 or ppe <= 0.0:
        raise ValueError("PPFD, area and PPE must be non-negative/positive")
    if not 0.0 < driver_eff <= 1.0:
        raise ValueError("driver efficiency must be in (0, 1]")
    return ppfd * area_m2 / ppe / driver_eff


@dataclass(frozen=True)
class LightingCommand:
    led_ppfd: float = 0.0
    dim_fraction: float = 0.0
    driver_eff: float = 1.0
    daylight_ppfd: float = 0.0       # after any film/filter, as delivered
    total_ppfd: float = 0.0


# -- electrochromic (polymer-dispersed liquid crystal) film -------------------

_EC_NUM = (0.1331, -0.5184, 8.4437)
_EC_DEN = (0.1811, -0.8825, 15.5613)


def ec_transmittance(voltage: float) -> float:
    """Film transmittance vs drive voltage (ratio of quadratics, as published)."""
    if voltage < 0.0:
        raise ValueError("voltage must be non-negative")
    num = (_EC_NUM[0] * voltage + _EC_NUM[1]) * voltage + _EC_NUM[2]
    den = (_EC_DEN[0] * voltage + _EC_DEN[1]) * voltage + _EC_DEN[2]
    return num / den


@dataclass(frozen=True)
class EcFilm:
    """Voltage domain and empirically bracketed range of the film curve.

    The published curve is not monotone over all voltages: it rises from
    tau(0) to a shallow maximum and settles toward the large-v asymptote.
    The curve is treated as a black box sampled over the configured
    domain; the passive state is the maximum-transmittance voltage, and
    attenuation setpoints are solved on the rising branch by bisection.
    """

    v_max: float = 100.0
    samples: int = 2001

    def __post_init__(self):
        if self.v_max <= 0.0:
            raise ValueError("voltage domain must be positive")
        grid = np.linspace(0.0, self.v_max, self.samples)
        taus = np.array([ec_transmittance(v) for v in grid])
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_taus", taus)
        peak = int(np.argmax(taus))
        object.__setattr__(self, "v_passive", float(grid[peak]))
        object.__setattr__(self, "tau_max", float(taus[peak]))
        object.__setattr__(self, "tau_min", float(taus.min()))
        rising = np.all(np.diff(taus[: peak + 1]) > -1e-12)
        falling_tail = bool(peak < self.samples - 1)
        object.__setattr__(self, "non_monotone", falling_tail or not rising)

    def voltage_for_tau(self, tau_target: float) -> float:
        """Smallest-attenuation voltage achieving tau on the rising branch."""
        if tau_target >= self.tau_max:
            return self.v_passive
        if tau_target <= ec_transmittance(0.0):
            return 0.0
        lo, hi = 0.0, self.v_passive
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if ec_transmittance(mid) < tau_target:
                lo = mid
            else:
                hi = mid
        return hi


def ec_control(ppfd_raw: float, film: EcFilm, cap: float = 400.0
               ) -> tuple[float, float, float, bool]:
    """Pick the film state limiting crop PPFD to the cap.

    Returns (voltage, tau, ppfd_out, cap_unreachable). With weak daylight
    the film sits at its maximum-transmittance (passive) state; beyond
    that it dims toward tau(0), and if even full attenuation cannot reach
    the cap the flag is raised.
    """
    if ppfd_raw < 0.0:
        raise ValueError("PPFD must be non-negative")
    if cap <= 0.0:
        raise ValueError("cap must be positive")
    if ppfd_raw * film.tau_max <= cap:
        return film.v_passive, film.tau_max, ppfd_raw * film.tau_max, False
    tau_needed = cap / ppfd_raw
    if tau_needed < film.tau_min:
        tau0 = ec_transmittance(0.0)
        return 0.0, tau0, ppfd_raw * tau0, True
    v = film.voltage_for_tau(tau_needed)
    tau = ec_transmittance(v)
    return v, tau, ppfd_raw * tau, False


# -- tier-3 control -------------------------------------------------------------


def control_tier3(strategy: str, daylight_ppfd: float, clock_hour: float,
                  setpoint: float = 250.0, min_threshold: float = 100.0,
                  curve: DriverCurve = DriverCurve(),
                  photoperiod: tuple[float, float] = (4.0, 20.0)) -> LightingCommand:
    """LED command for tier 3 of scenario `strategy` given the delivered
    daylight PPFD.

    daylight_ppfd must already include any filter or film attenuation.
    Daylight keeps entering outside the photoperiod (there is no shutter);
    only the LEDs follow the 16 h window.
    """
    row = STRATEGIES.get(strategy)
    if row is None:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {tuple(STRATEGIES)}")
    if daylight_ppfd < 0.0:
        raise ValueError("daylight PPFD must be non-negative")

    in_photoperiod = photoperiod[0] <= clock_hour < photoperiod[1]
    daylight = 0.0 if row.daylight == "none" else daylight_ppfd
    if in_photoperiod and row.led != "off":
        nominal = row.nominal(setpoint)
        if row.led == "pwm":
            # supplement up to the setpoint, subject to the 30% hardware
            # floor (below it the LEDs switch off entirely)
            required = setpoint - daylight
            if required >= curve.min_dim * nominal:
                led = min(required, nominal)
                dim = led / nominal
                return LightingCommand(led_ppfd=led, dim_fraction=dim,
                                       driver_eff=curve.efficiency(dim),
                                       daylight_ppfd=daylight, total_ppfd=led + daylight)
        elif row.led == "fixed" or daylight < min_threshold:
            return LightingCommand(led_ppfd=nominal, dim_fraction=1.0,
                                   daylight_ppfd=daylight, total_ppfd=nominal + daylight)
    return LightingCommand(daylight_ppfd=daylight, total_ppfd=daylight)
