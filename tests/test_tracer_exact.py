"""The traced bare duct against its closed form.

A straight specular cylinder of radius R, length L and wall reflectance
rho, lit by a collimated beam that fills its aperture evenly at zenith
angle theta, transmits (Swift & Smith, Solar Energy Materials & Solar
Cells 36, 1995; Zastrow & Wittwer, Proc. SPIE 692, 1986)

    T(theta) = (4 / pi) int_0^1 rho^floor(N) (1 - (N - floor(N)) (1 - rho)) sqrt(1 - x^2) dx,

with x the ray's skew offset over R and N(x) = L tan(theta) / (2 R sqrt(1 - x^2))
its mean wall-hit count. `bare_duct_transmittance` evaluates it as a
midpoint sum, with no Monte Carlo and no code shared with the tracer.

The tracer normalizes a direct call to the beam power through a disc of
the aperture's area across the beam, so with no mirror, no diffuser and
a lossless dome its eta_chamber is sin(altitude) T. Each point must agree
within 4 of the tracer's own standard errors: that pins the stratified
launch as unbiased and its error bar as no tighter than the truth.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from pipefarm.optics import LpGeometry
from pipefarm.tracer import trace_direct

MIDPOINTS = 20_000      # agrees with 2M points to 1e-7, far below the tracer's se
RAYS = 100_000


def bare_duct_transmittance(altitude_deg: float, rho: float, length_m: float,
                            radius_m: float) -> float:
    """T(theta) of a bare specular duct for a beam at `altitude_deg`."""
    x = (np.arange(MIDPOINTS) + 0.5) / MIDPOINTS
    chord = np.sqrt(1.0 - x * x)
    n = length_m * math.tan(math.radians(90.0 - altitude_deg)) / (2.0 * radius_m * chord)
    hits = np.floor(n)
    return 4.0 / math.pi * float(np.mean(rho ** hits * (1.0 - (n - hits) * (1.0 - rho)) * chord))


def test_quadrature_limits():
    # a vertical beam meets no wall; a lossless wall passes every ray
    assert bare_duct_transmittance(90.0, 0.5, 1.0, 0.075) == pytest.approx(1.0, abs=1e-6)
    assert bare_duct_transmittance(20.0, 1.0, 1.0, 0.075) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("rho, altitude, length_mm", [
    (0.90, 20.0, 1000.0),
    (0.90, 45.0, 1000.0),
    (0.98, 30.0, 1000.0),
    (0.98, 70.0, 1000.0),
    (0.90, 30.0, 500.0),
])
def test_direct_beam_matches_bare_duct(rho, altitude, length_mm):
    geom = replace(LpGeometry(), wall_reflectance=rho, length_mm=length_mm,
                   dome_transmittance=1.0, diffuser_throughput=1.0)
    res = trace_direct(geom, altitude, rays=RAYS, seed=1, use_mirror=False,
                       disable_diffuser=True, collect_fluxmap=False)
    sin_alt = math.sin(math.radians(altitude))
    exact = bare_duct_transmittance(altitude, rho, geom.length_m, geom.radius_m)
    assert res.se_chamber > 0.0
    assert abs(res.eta_chamber / sin_alt - exact) <= 4.0 * res.se_chamber / sin_alt
