"""LED electrical model and the tier-3 supplementation strategies.

`STRATEGIES` is the one place a scenario id gets its meaning: each row
states where tier 3's daylight comes from, what it passes through, how the
tier-3 LEDs respond, and the fixtures' nominal PPFD. Everything else
(optics path, envelope, control, hardware costs) reads the row.

Every LED fixture draws its rating, PPFD x area / PPE, dimmed or not: the
paper gives no part-load driver curve. Tier-3 control and LED power take
arrays of hours (a scalar broadcasts); `ec_control` sets the film one hour
per call, because the benchmark's traced run counts its unreachable-cap
results per call. The film is the one published curve, `EC_FILM`, over
all voltages >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "STRATEGIES",
    "Strategy",
    "LightingCommand",
    "EcFilm",
    "EC_FILM",
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


def led_electric_power(ppfd, area_m2: float, ppe: float):
    """Electrical watts to hold commanded PPFDs (array or scalar) over an
    area: every fixture, dimmed or not, converts at its efficacy `ppe`."""
    if np.any(ppfd < 0.0) or area_m2 <= 0.0 or ppe <= 0.0:
        raise ValueError("PPFD, area and PPE must be non-negative/positive")
    return ppfd * area_m2 / ppe


@dataclass(frozen=True)
class LightingCommand:
    """Tier-3 LED commands, one entry per hour (0-d for a scalar call)."""

    led_ppfd: np.ndarray
    dim_fraction: np.ndarray
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
    """Exact range of the film curve over the voltage domain [0, inf).

    The published curve tau(v) = N(v)/D(v), N = a*v**2 + b*v + c and
    D = d*v**2 + e*v + g, is not monotone: it dips from tau(0) to a minimum
    near 0.57 V, rises to a shallow maximum near 45.4 V and falls back
    toward the asymptote a/d. Its stationary points are the roots of the
    quadratic N'D - ND' = (a*e - b*d)*v**2 + 2*(a*g - c*d)*v + (b*g - c*e),
    so the extremes lie at 0 V or at a non-negative root: the passive state
    is the candidate with the largest tau, `tau_min` (at `v_dip`) the
    smallest tau among them. Attenuation setpoints solve N(v) = tau*D(v)
    below the passive voltage.
    """

    def __post_init__(self):
        (a, b, c), (d, e, g) = _EC_NUM, _EC_DEN
        stationary = _quadratic_roots(a * e - b * d, 2.0 * (a * g - c * d), b * g - c * e)
        volts = sorted({0.0, *(v for v in stationary if v >= 0.0)})
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


EC_FILM = EcFilm()


def ec_control(ppfd_raw: float, cap: float) -> tuple[float, float, float, bool]:
    """Pick the `EC_FILM` state limiting crop PPFD to the cap.

    Returns (voltage, tau, ppfd_out, cap_unreachable). With weak daylight
    the film sits at its maximum-transmittance (passive) state; beyond
    that the voltage is the exact root `EC_FILM.voltage_for_tau` gives for
    cap / ppfd_raw, down to the dip's tau_min; if even that cannot reach
    the cap, the film rests at 0 V and the flag is raised.
    """
    if ppfd_raw < 0.0:
        raise ValueError("PPFD must be non-negative")
    if cap <= 0.0:
        raise ValueError("cap must be positive")
    if ppfd_raw * EC_FILM.tau_max <= cap:
        return EC_FILM.v_passive, EC_FILM.tau_max, ppfd_raw * EC_FILM.tau_max, False
    tau_needed = cap / ppfd_raw
    if tau_needed < EC_FILM.tau_min:
        tau0 = ec_transmittance(0.0)
        return 0.0, tau0, ppfd_raw * tau0, True
    v = EC_FILM.voltage_for_tau(tau_needed)
    tau = ec_transmittance(v)
    return v, tau, ppfd_raw * tau, False


# -- tier-3 control -------------------------------------------------------------


def control_tier3(strategy: str, daylight_ppfd, clock_hour, setpoint: float,
                  min_threshold: float, min_dim: float,
                  photoperiod: tuple[float, float]) -> LightingCommand:
    """LED commands for tier 3 of scenario `strategy` given the delivered
    daylight PPFD at each clock hour (arrays or scalars, broadcast together).

    daylight_ppfd must already include any filter or film attenuation.
    Daylight keeps entering outside the photoperiod (there is no shutter);
    only the LEDs follow `photoperiod`. PWM LEDs that would dim below
    `min_dim` of nominal switch off instead.
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
        # supplement up to the setpoint, subject to the min_dim hardware
        # floor (below it the LEDs switch off entirely)
        required = setpoint - daylight
        on &= required >= min_dim * nominal
        led = np.where(on, np.minimum(required, nominal), 0.0)
        dim = led / nominal
    else:
        if row.led == "on_off":
            on &= daylight < min_threshold
        led = np.where(on, nominal, 0.0)
        dim = np.where(on, 1.0, 0.0)
    return LightingCommand(led, dim, np.where(on, led + daylight, daylight))
