"""LED electrical model and the tier-3 supplementation strategies.

`STRATEGIES` is the one place a scenario id gets its meaning: each row
states where tier 3's daylight comes from, what it passes through, how the
tier-3 LEDs respond, and the fixtures' nominal PPFD. Everything else
(optics path, envelope, control, hardware costs) reads the row.
"""

from __future__ import annotations

import math
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


def _quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a*v**2 + b*v + c = 0 by the cancellation-free form of the
    quadratic formula; one root when a == 0, none when the discriminant is
    negative."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [c / q] + ([q / a] if a != 0.0 else [])


@dataclass(frozen=True)
class EcFilm:
    """Voltage domain and exact range of the film curve.

    The published curve tau(v) = N(v)/D(v), N = a*v**2 + b*v + c and
    D = d*v**2 + e*v + g, is not monotone: it dips from tau(0) to a minimum
    near 0.57 V, rises to a shallow maximum near 45.4 V and settles toward
    the asymptote a/d. Its stationary points are the roots of the quadratic
    N'D - ND' = (a*e - b*d)*v**2 + 2*(a*g - c*d)*v + (b*g - c*e). Over the
    domain [0, v_max] the extremes lie at those roots or at the ends: the
    passive state is the candidate with the largest tau, `tau_min` the
    smallest tau among them. Attenuation setpoints solve N(v) = tau*D(v) on
    the rising branch below the passive voltage.
    """

    v_max: float = 100.0

    def __post_init__(self):
        if self.v_max <= 0.0:
            raise ValueError("voltage domain must be positive")
        (a, b, c), (d, e, g) = _EC_NUM, _EC_DEN
        stationary = _quadratic_roots(a * e - b * d, 2.0 * (a * g - c * d), b * g - c * e)
        volts = sorted({0.0, self.v_max, *(v for v in stationary if 0.0 <= v <= self.v_max)})
        taus = [ec_transmittance(v) for v in volts]
        peak = taus.index(max(taus))
        object.__setattr__(self, "v_passive", volts[peak])
        object.__setattr__(self, "tau_max", taus[peak])
        object.__setattr__(self, "tau_min", min(taus))

    def voltage_for_tau(self, tau_target: float) -> float:
        """Smallest-attenuation voltage achieving tau on the rising branch.

        Above tau(0) that is the one root of (a - tau*d)*v**2 +
        (b - tau*e)*v + (c - tau*g) = 0 in [0, v_passive]; the other root
        is negative or lies on the falling branch beyond the peak, and at
        the asymptote tau = a/d the equation is linear with that one root.
        A target within rounding of tau_max, where the two roots merge, may
        leave no real root; the peak voltage is then the answer.
        """
        if tau_target >= self.tau_max:
            return self.v_passive
        if tau_target <= ec_transmittance(0.0):
            return 0.0
        (a, b, c), (d, e, g) = _EC_NUM, _EC_DEN
        roots = _quadratic_roots(a - tau_target * d, b - tau_target * e,
                                 c - tau_target * g)
        return min((v for v in roots if v >= 0.0), default=self.v_passive)


def ec_control(ppfd_raw: float, film: EcFilm, cap: float = 400.0
               ) -> tuple[float, float, float, bool]:
    """Pick the film state limiting crop PPFD to the cap.

    Returns (voltage, tau, ppfd_out, cap_unreachable). With weak daylight
    the film sits at its maximum-transmittance (passive) state; beyond
    that the voltage is the exact root `film.voltage_for_tau` gives for
    cap / ppfd_raw, never below tau(0); if even the film's smallest tau
    cannot reach the cap, the film rests at 0 V and the flag is raised.
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
                                       total_ppfd=led + daylight)
        elif row.led == "fixed" or daylight < min_threshold:
            return LightingCommand(led_ppfd=nominal, dim_fraction=1.0,
                                   total_ppfd=nominal + daylight)
    return LightingCommand(total_ppfd=daylight)
