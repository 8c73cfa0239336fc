"""Declared fields: a settable input's valid range, or an annual number's
unit and meaning, as dataclass field metadata, which `asdict` (so every hash
and output) leaves out. A leaf module: it imports nothing from the package.
"""

import math
from dataclasses import MISSING, dataclass, field, fields
from functools import cache


class FieldError(ValueError):
    """A refused value; `field` names where it sits ('ppe', 'photoperiod[0]',
    'crop.tier_area_m2'), so a loader can name the key that set it."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field, self.problem = field, problem


@dataclass(frozen=True)
class Range:
    """Numbers from `low` to `high`, each end open or closed, or else one of
    the `choices`. An unbounded end is open at ±inf, so no range holds NaN
    or an infinity."""
    low: float
    high: float
    low_open: bool
    high_open: bool
    choices: tuple

    def admits(self, v) -> bool:
        if self.choices:
            return v in self.choices
        return ((self.low < v if self.low_open else self.low <= v)
                and (v < self.high if self.high_open else v <= self.high))

    def __str__(self) -> str:
        if self.choices:
            return "{" + ", ".join(map(repr, self.choices)) + "}"
        return (f"{'(' if self.low_open else '['}{self.low:g}, "
                f"{self.high:g}{')' if self.high_open else ']'}")


def ranged(default=MISSING, *, gt=None, ge=None, lt=None, le=None, choices=()):
    """A field with its default and its valid range: above `gt` or from `ge`,
    below `lt` or up to `le` (no bound: any finite number), or one of the
    `choices`. Each entry of a tuple must lie in the range."""
    low, high = (ge if gt is None else gt), (le if lt is None else lt)
    rng = Range(-math.inf if low is None else low, math.inf if high is None else high,
                ge is None, le is None, tuple(choices))
    return field(default=default, metadata={"range": rng})


@cache
def _ranges(cls) -> tuple:
    return tuple((f.name, f.metadata["range"]) for f in fields(cls) if "range" in f.metadata)


def check_ranges(obj) -> None:
    """A settable dataclass's `__post_init__`: FieldError for the first
    ranged field (or tuple entry) outside its range."""
    for name, rng in _ranges(type(obj)):
        value = getattr(obj, name)
        entries = value if isinstance(value, tuple) else (value,)
        for i, v in enumerate(entries):
            if not rng.admits(v):
                raise FieldError(f"{name}[{i}]" if entries is value else name,
                                 f"must be in {rng}, not {v!r}")


def annual(unit: str, meaning: str):
    """A field of the annual record, with its unit and meaning."""
    return field(metadata={"unit": unit, "meaning": meaning})
