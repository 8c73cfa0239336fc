"""LED electrical model and the tier-3 supplementation strategies.

`STRATEGIES` is the one place a scenario id gets its meaning: each row
states where tier 3's daylight comes from, what it passes through, how the
tier-3 LEDs respond, and the fixtures' nominal PPFD. Everything else
(optics path, envelope, control, hardware costs) reads the row.

Tier-3 control, LED power and the driver curve take arrays of hours (a
scalar broadcasts); `ec_control` sets the film one hour per call, because
the benchmark's traced run counts its unreachable-cap results per call.
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

    def efficiency(self, dim):
        """Driver efficiency at dim fractions (an array or a scalar)."""
        if not np.all((self.min_dim - 1e-12 <= dim) & (dim <= 1.0 + 1e-12)):
            raise ValueError(f"dim {dim} below the {self.min_dim:.0%} hardware floor")
        if not self.points:
            return self.nominal
        dims = [p[0] for p in self.points]
        effs = [p[1] for p in self.points]
        return np.interp(dim, dims, effs)


def led_electric_power(ppfd, area_m2: float, ppe: float, driver_eff=1.0):
    """Electrical watts to hold commanded PPFDs (array or scalar) over an area.

    Non-PWM scenarios take driver_eff = 1 so nominal powers match the
    fixture ratings; PWM scenarios pay the driver penalty.
    """
    if np.any(ppfd < 0.0) or area_m2 <= 0.0 or ppe <= 0.0:
        raise ValueError("PPFD, area and PPE must be non-negative/positive")
    if not np.all((0.0 < driver_eff) & (driver_eff <= 1.0)):
        raise ValueError("driver efficiency must be in (0, 1]")
    return ppfd * area_m2 / ppe / driver_eff


@dataclass(frozen=True)
class LightingCommand:
    """Tier-3 LED commands, one entry per hour (0-d for a scalar call)."""

    led_ppfd: np.ndarray
    dim_fraction: np.ndarray
    driver_eff: np.ndarray
    total_ppfd: np.ndarray


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
    passive state is the candidate with the largest tau, `tau_min` (at
    `v_dip`) the smallest tau among them. Attenuation setpoints solve
    N(v) = tau*D(v) below the passive voltage.
    """

    v_max: float = 100.0

    def __post_init__(self):
        if self.v_max <= 0.0:
            raise ValueError("voltage domain must be positive")
        (a, b, c), (d, e, g) = _EC_NUM, _EC_DEN
        stationary = _quadratic_roots(a * e - b * d, 2.0 * (a * g - c * d), b * g - c * e)
        volts = sorted({0.0, self.v_max, *(v for v in stationary if 0.0 <= v <= self.v_max)})
        taus = [ec_transmittance(v) for v in volts]
        peak, dip = taus.index(max(taus)), taus.index(min(taus))
        object.__setattr__(self, "v_passive", volts[peak])
        object.__setattr__(self, "tau_max", taus[peak])
        object.__setattr__(self, "v_dip", volts[dip])
        object.__setattr__(self, "tau_min", taus[dip])

    def voltage_for_tau(self, tau_target: float) -> float:
        """Smallest voltage achieving tau, the smaller non-negative root of
        (a - tau*d)*v**2 + (b - tau*e)*v + (c - tau*g) = 0.

        Above tau(0) that is the one root in [0, v_passive] on the rising
        branch; the other root is negative or lies on the falling branch
        beyond the peak, and at the asymptote tau = a/d the equation is
        linear with that one root. Between tau_min and tau(0) both roots
        straddle the dip and the smaller one is taken. A target within
        rounding of tau_max or tau_min, where the two roots merge, may leave
        no real root; the peak or dip voltage is then the answer. Targets
        below tau_min, which no voltage reaches, give 0 V.
        """
        if tau_target >= self.tau_max:
            return self.v_passive
        if tau_target < self.tau_min:
            return 0.0
        (a, b, c), (d, e, g) = _EC_NUM, _EC_DEN
        roots = _quadratic_roots(a - tau_target * d, b - tau_target * e,
                                 c - tau_target * g)
        return min((v for v in roots if v >= 0.0), default=self.v_passive
                   if tau_target > ec_transmittance(0.0) else self.v_dip)


def ec_control(ppfd_raw: float, film: EcFilm, cap: float = 400.0
               ) -> tuple[float, float, float, bool]:
    """Pick the film state limiting crop PPFD to the cap.

    Returns (voltage, tau, ppfd_out, cap_unreachable). With weak daylight
    the film sits at its maximum-transmittance (passive) state; beyond
    that the voltage is the exact root `film.voltage_for_tau` gives for
    cap / ppfd_raw, down to the dip's tau_min; if even that cannot reach
    the cap, the film rests at 0 V and the flag is raised.
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


def control_tier3(strategy: str, daylight_ppfd, clock_hour,
                  setpoint: float = 250.0, min_threshold: float = 100.0,
                  curve: DriverCurve = DriverCurve(),
                  photoperiod: tuple[float, float] = (4.0, 20.0)) -> LightingCommand:
    """LED commands for tier 3 of scenario `strategy` given the delivered
    daylight PPFD at each clock hour (arrays or scalars, broadcast together).

    daylight_ppfd must already include any filter or film attenuation.
    Daylight keeps entering outside the photoperiod (there is no shutter);
    only the LEDs follow the 16 h window.
    """
    row = STRATEGIES.get(strategy)
    if row is None:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {tuple(STRATEGIES)}")
    if np.any(daylight_ppfd < 0.0):
        raise ValueError("daylight PPFD must be non-negative")

    daylight = np.where(row.daylight == "none", 0.0, daylight_ppfd)
    on = (photoperiod[0] <= clock_hour) & (clock_hour < photoperiod[1]) & (row.led != "off")
    nominal = row.nominal(setpoint)
    if row.led == "pwm":
        # supplement up to the setpoint, subject to the 30% hardware floor
        # (below it the LEDs switch off entirely)
        required = setpoint - daylight
        on &= required >= curve.min_dim * nominal
        led = np.where(on, np.minimum(required, nominal), 0.0)
        dim = led / nominal
        # the curve sees only lit dims; LEDs that are off draw nothing
        driver_eff = np.where(on, curve.efficiency(np.where(on, dim, 1.0)), 1.0)
    else:
        if row.led == "on_off":
            on &= daylight < min_threshold
        led = np.where(on, nominal, 0.0)
        dim = np.where(on, 1.0, 0.0)
        driver_eff = np.ones_like(dim)
    return LightingCommand(led, dim, driver_eff, np.where(on, led + daylight, daylight))
