"""Simplified specular Monte Carlo tracer for the light-pipe chain.

Geometry (metres, z up): the collector aperture is the disc r <= R on the
plane z = 0; the reflective duct spans -L <= z <= 0; the prismatic
diffuser sits at z = -L; the crop plane lies a canopy distance below it.
The tracking mirror is a flat disc of the duct's radius R, hinged about a
horizontal axis through its centre, which sits on the aperture plane at
the origin; its coated side faces the sun (azimuth 0 by dome-rotation
symmetry). The dome itself is reduced to a bulk transmittance applied at
launch. The diffuser is modelled by its facet slope alone: its pyramids
are far smaller than the duct, so the sheet acts as a thin deterministic
deviator.

Rays are launched over a disc of radius R perpendicular to their
direction, above the roof and the mirror. The launch uniforms are
stratified: a direct call jitters two rays into each cell of a grid over
the disc's (r^2, angle), a diffuse call into each cell of one 4-D grid
that adds the sky's sin^2(altitude) and azimuth, and the few rays the grid
leaves over are iid. An efficiency is the plain mean over the rays; its
standard error comes from the paired differences within the cells and the
variance of the iid rest.

Direct-beam efficiencies are normalized to the beam power over the
aperture area (irradiance times A_LP, no incidence cosine); the cosine
enters exactly once, downstream in the gain formula. Under this
convention the mirror picking up rays that never cross the aperture disc
lifts low-sun delivery without breaking the documented 73% ceiling.
Diffuse band efficiencies are instead normalized to the band's power on
the horizontal aperture, because the ten-degree dome weights already
carry the projection; such an entry can pass 1, up to 1 /
`optics.band_mean_sin` of its band.

Below the mirror's lowest reach the duct is a bare specular cylinder, and
a ray crosses it in one closed-form step (the skew-ray treatment of
cylindrical mirror light pipes, Swift & Smith 1995): a wall hit keeps the
ray's axial cosine and its skew distance from the axis and turns its
azimuth by a fixed angle, so the hit count, the exit point and the exit
direction at the next end plane follow without stepping each bounce. The
event loop handles the mirror, the roof, the aperture, the diffuser and
the duct above the mirror's lowest reach; one duct crossing is one event.
Each pass first sends every ray inside the bare duct across it; every
other live ray meets the nearest surface ahead of it, with a tie going to
the wall, then the mirror, the roof and the diffuser, in that order. A ray
with no surface ahead escapes. The loop holds only the live rays, compact
and in ray order, as the columns of one array of contiguous component rows
(position, direction, weight); one compress at the end of each pass drops
the rays that ended in it. Its dot and cross products are written out in
the order einsum and np.cross form them, so no event-loop arithmetic goes
through BLAS, whose kernels may round the same sum differently.

Per-ray bookkeeping is exact: every launched unit of weight ends in
exactly one tally, so delivered + absorbed + escaped = launched to float
rounding and the Monte Carlo error applies only to the estimates, not to
the balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .optics import ALTITUDE_STEP_DEG, DIFFUSE_BANDS, TILT_STEP_DEG, FluxMap, LpGeometry, \
    OpticalEfficiencyTable, band_mean_sin, mirror_tilt

_EPS = 1e-9

__all__ = ["TraceResult", "trace_direct", "trace_diffuse_band",
           "build_efficiency_table", "DEFAULT_RAYS", "DEFAULT_SEED"]

DEFAULT_RAYS = 100_000
DEFAULT_SEED = 42          # trace-optics' seed when it is given none
MIN_RAYS = 10_000
# Tracer model revision, written to each traced table's sidecar: raise it
# whenever a change moves traced values, so no older table is read back.
# Revision 2 crosses the bare duct in closed form; revision 3 stratifies
# the launch uniforms and starts grazing sky rays above the roof.
MODEL_REVISION = 3
FLUXMAP_EXTENT_M = 0.6     # crop-plane flux map: full side length
FLUXMAP_PITCH_M = 0.02     # and cell pitch


@dataclass
class TraceResult:
    """One Monte Carlo run: efficiencies, their standard errors, and tallies."""

    eta_zone: float            # power to the target zone / normalizing incident power
    eta_chamber: float         # power past the diffuser (zone included) / incident
    se_zone: float
    se_chamber: float
    tallies: dict
    rays: int
    fluxmap: Optional[FluxMap] = None

    def conservation_residual(self) -> float:
        """|sum of tallies - launched| / launched; ~1e-12 by construction."""
        total = sum(self.tallies.values())
        return abs(total - self.rays) / self.rays


def _duct_transit(p: np.ndarray, d: np.ndarray, w: np.ndarray, R: float, z_lo: float,
                  z_hi: float, rho: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Carry rays across a bare specular cylinder of radius R and wall
    reflectance rho to the end plane each heads for: z_lo when falling,
    z_hi when rising.

    A wall hit keeps the axial cosine and the skew distance b from the
    axis, and turns the horizontal path about the axis by g = 2 acos(b/R)
    in the sense of the ray's circulation; every chord between hits has the
    same length. So the last of the N hits is the first one turned by
    (N - 1) g, and the exit direction is the entry one turned by N g.
    Positions p and directions d are (3, m), one row per component; rays
    must lie inside the cylinder with z_lo <= z <= z_hi and d_z != 0.
    Returns the hit counts N (as floats), the (3, m) exit points and exit
    directions, and the weights w * rho**N.
    """
    x, y, z = p
    dx, dy, dz = d
    a = dx * dx + dy * dy
    pd = x * dx + y * dy
    cross = x * dy - y * dx
    disc = a * R * R - cross * cross      # = pd^2 - a (x^2 + y^2 - R^2)
    walls = (a > 1e-16) & (disc > 0.0)
    sq = np.sqrt(np.where(walls, disc, 0.0))
    a_safe = np.where(walls, a, 1.0)
    t_first = np.where(walls, (sq - pd) / a_safe, np.inf)
    z_end = np.where(dz < 0.0, z_lo, z_hi)
    t_end = (z_end - z) / dz

    hits = np.zeros(x.size)
    out_p = np.empty((3, x.size))
    out_p[0] = x + t_end * dx
    out_p[1] = y + t_end * dy
    out_p[2] = z_end
    out_d = np.array(d)
    k = (t_end > t_first).nonzero()[0]
    if k.size:
        tf, sqk, dxk, dyk = t_first[k], sq[k], dx[k], dy[k]
        span = t_end[k] - tf
        t_chord = 2.0 * sqk / a[k]
        n = 1.0 + np.floor(span / t_chord)
        n1 = n - 1.0
        turn = 2.0 * np.arctan2(sqk, cross[k])
        hit_turn, out_turn = n1 * turn, n * turn
        c_hit, s_hit = np.cos(hit_turn), np.sin(hit_turn)
        c_out, s_out = np.cos(out_turn), np.sin(out_turn)
        hx, hy = x[k] + tf * dxk, y[k] + tf * dyk
        ex = c_out * dxk - s_out * dyk
        ey = s_out * dxk + c_out * dyk
        rest = span - n1 * t_chord
        out_p[0, k] = c_hit * hx - s_hit * hy + rest * ex
        out_p[1, k] = s_hit * hx + c_hit * hy + rest * ey
        out_d[0, k] = ex
        out_d[1, k] = ey
        hits[k] = n
    return hits, out_p, out_d, w * rho ** hits


@dataclass
class _Scene:
    geom: LpGeometry
    tilt_deg: Optional[float]      # None removes the mirror
    bounce_cap: int
    disable_diffuser: bool
    collect_fluxmap: bool

    def __post_init__(self):
        g = self.geom
        self.R = g.radius_m
        self.L = g.length_m
        self.half_zone = g.target_zone_m / 2.0
        self.z_canopy = -g.length_m - g.canopy_distance_m
        # the bare duct runs from the diffuser up to the mirror's lowest reach
        if self.tilt_deg is not None:
            t = math.radians(self.tilt_deg)
            self.mirror_n = np.array([[math.sin(t)], [0.0], [-math.cos(t)]])
            self.z_bare_top = -self.R * math.sin(t)
        else:
            self.mirror_n = None
            self.z_bare_top = 0.0
        s = math.radians(g.diffuser_facet_slope_deg)
        fs, fc = math.sin(s), math.cos(s)
        # the pyramid facet normals, one column each, facing down: tilted
        # toward +x, -x, +y, -y
        self.facets = np.array([[fs, -fs, 0.0, 0.0], [0.0, 0.0, fs, -fs],
                                [-fc, -fc, -fc, -fc]])
        self.n_index = g.diffuser_refractive_index
        nbin = int(round(FLUXMAP_EXTENT_M / FLUXMAP_PITCH_M))
        self.fluxbins = np.zeros((nbin, nbin)) if self.collect_fluxmap else None


def _trace(scene: _Scene, origins: np.ndarray, dirs: np.ndarray,
           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, dict]:
    """Run the event loop from (3, n) origins and directions; returns
    per-ray zone/chamber weights and tallies.

    `state` holds the live rays as (7, m) columns with their ray ids in
    `ray`; each pass drops the rays that ended in it."""
    g = scene.geom
    n_rays = origins.shape[1]
    state = np.vstack([origins, dirs, np.full((1, n_rays), g.dome_transmittance)])
    ray = np.arange(n_rays)

    zone_w = np.zeros(n_rays)
    chamber_w = np.zeros(n_rays)
    tallies = dict.fromkeys(("delivered_zone", "delivered_chamber", "absorbed_dome",
                             "absorbed_wall", "absorbed_mirror", "absorbed_mirror_back",
                             "absorbed_diffuser", "absorbed_cap", "missed_roof", "escaped"), 0.0)
    tallies["absorbed_dome"] = n_rays * (1.0 - g.dome_transmittance)

    # misses divide by zero or take roots of negatives; those lanes are masked
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(scene.bounce_cap):
            if ray.size == 0:
                break
            keep = _pass(scene, state, ray, zone_w, chamber_w, tallies, rng)
            if not keep.all():
                state = state.compress(keep, axis=1)
                ray = ray[keep]

    if ray.size:
        tallies["absorbed_cap"] += float(state[6].sum())

    tallies["delivered_zone"] = float(zone_w.sum())
    tallies["delivered_chamber"] = float(chamber_w.sum())
    return zone_w, chamber_w, tallies


def _pass(scene: _Scene, state, ray, zone_w, chamber_w, tallies, rng) -> np.ndarray:
    """One event per live ray: write each ray's new state into its column
    of `state` and return `keep`, false for the rays that ended."""
    g = scene.geom
    R, L = scene.R, scene.L
    R2 = R * R
    z_top = scene.z_bare_top
    rho_wall, rho_mirror = g.wall_reflectance, g.mirror_reflectance
    mirror_n = scene.mirror_n      # (3, 1), or None
    keep = np.ones(ray.size, dtype=bool)
    pz, dz = state[2], state[5]
    xy = state[:2] * state[:2]
    r2 = xy[0] + xy[1]

    # bare duct: one closed-form crossing; rising rays carry on from its top, falling
    # ones meet the diffuser, which writes back the ones it reflects; the rest end there
    bare = (pz >= -L) & (pz < z_top) & (np.abs(dz) > 1e-14) & (r2 <= R2)
    k = (~bare).nonzero()[0]
    rest = state
    if k.size < ray.size:
        kb = bare.nonzero()[0]
        sub = state.take(kb, axis=1)
        _, h, nd, wt = _duct_transit(sub[:3], sub[3:6], sub[6], R, -L, z_top, rho_wall)
        tallies["absorbed_wall"] += float((sub[6] - wt).sum())
        state[:3, kb] = h
        state[3:6, kb] = nd
        state[6, kb] = wt
        down = nd[2] < 0.0
        if down.any():
            _diffuser_interaction(scene, state, kb[down], h.compress(down, axis=1),
                                  nd.compress(down, axis=1), wt[down], keep, ray,
                                  zone_w, chamber_w, tallies, rng)
        rest = state.take(k, axis=1)
        r2 = r2[k]

    # each other ray's nearest surface, tried in the order wall, mirror, roof, diffuser;
    # a strict < leaves a tie with the earlier one. Rows of p and d are the components,
    # and a dot product is written out, x + y + z, in the order einsum sums it
    p, d, w = rest[:3], rest[3:6], rest[6]
    pz, dz = p[2], d[2]

    # duct wall: |xy| = R within -L <= z <= 0; t1 <= t2 as a > 0, and only a ray outside
    # the cylinder meets it at t1: inside, disc >= b^2 rounds to sqrt(disc) >= |b|, so t1 <= 0
    xy = d[:2] * d[:2]
    a = xy[0] + xy[1]
    xy = p[:2] * d[:2]
    b = 2.0 * (xy[0] + xy[1])
    disc = b * b - 4.0 * a * (r2 - R2)
    ok = (a > 1e-16) & (disc > 0.0)
    sq = np.sqrt(disc)
    a2 = 2.0 * a
    t2 = (-b + sq) / a2
    z2 = pz + t2 * dz
    wall2 = ok & (t2 > _EPS) & (z2 <= 1e-12) & (z2 >= -L - 1e-12)
    t_hit = np.where(wall2, t2, np.inf)
    outside = r2 > R2
    if outside.any():
        t1 = (-b - sq) / a2
        z1 = pz + t1 * dz
        wall1 = ok & (t1 > _EPS) & (z1 <= 1e-12) & (z1 >= -L - 1e-12)
        t_hit = np.where(wall1, t1, t_hit)
    event = np.zeros(k.size, dtype=np.int8)

    # mirror disc: radius R, centred at the origin
    if mirror_n is not None:
        xyz = d * mirror_n
        denom = xyz[0] + xyz[1] + xyz[2]
        xyz = p * mirror_n
        tm = -(xyz[0] + xyz[1] + xyz[2]) / denom
        xyz = p + tm * d
        xyz *= xyz
        near = ((np.abs(denom) > 1e-14) & (tm > _EPS)
                & (xyz[0] + xyz[1] + xyz[2] <= R2) & (tm < t_hit))
        t_hit = np.where(near, tm, t_hit)
        event[near] = 1

    # roof plane z = 0 outside the aperture, from above only
    falling = dz < -1e-14
    near = falling & (pz > 1e-12)
    if near.any():
        tr = -pz / dz
        xy = p[:2] + tr * d[:2]
        xy *= xy
        near &= (tr > _EPS) & (xy[0] + xy[1] >= R2) & (tr < t_hit)
        t_hit = np.where(near, tr, t_hit)
        event[near] = 2

    # diffuser plane z = -L
    if falling.any():
        td = (-L - pz) / dz
        near = falling & (td > _EPS) & (td < t_hit)
        t_hit = np.where(near, td, t_hit)
        event[near] = 3

    # no surface ahead: the ray leaves through the dome opening
    lost = t_hit == np.inf
    if lost.any():
        tallies["escaped"] += float(w[lost].sum())
        keep[k[lost]] = False
    hit = p + t_hit * d      # lost rays' hit points are never read

    # wall bounce about the inward normal (-x/R, -y/R, 0)
    sel = ((event == 0) & ~lost).nonzero()[0]
    if sel.size:
        ks = k[sel]
        ws = w[sel]
        tallies["absorbed_wall"] += float((ws * (1.0 - rho_wall)).sum())
        state[6, ks] = ws * rho_wall
        hs, ds = hit.take(sel, axis=1), d.take(sel, axis=1)
        u = hs[:2] / -R
        du = ds[:2] * u
        ds[:2] -= 2.0 * (du[0] + du[1] + ds[2] * 0.0) * u
        hs += ds * _EPS
        state[:3, ks] = hs
        state[3:5, ks] = ds[:2]

    # mirror: coated face reflects, rear face absorbs
    sel = (event == 1).nonzero()[0]
    if sel.size:
        coated = denom[sel] < 0.0
        sc, sb = sel[coated], sel[~coated]
        if sc.size:
            kc = k[sc]
            wc = w[sc]
            tallies["absorbed_mirror"] += float((wc * (1.0 - rho_mirror)).sum())
            state[6, kc] = wc * rho_mirror
            ds = d.take(sc, axis=1)
            ds -= 2.0 * denom[sc] * mirror_n
            state[:3, kc] = hit.take(sc, axis=1) + ds * _EPS
            state[3:6, kc] = ds
        if sb.size:
            tallies["absorbed_mirror_back"] += float(w[sb].sum())
            keep[k[sb]] = False

    # roof
    sel = event == 2
    if sel.any():
        tallies["missed_roof"] += float(w[sel].sum())
        keep[k[sel]] = False

    # diffuser
    sel = (event == 3).nonzero()[0]
    if sel.size:
        _diffuser_interaction(scene, state, k[sel], hit.take(sel, axis=1),
                              d.take(sel, axis=1), w[sel], keep, ray,
                              zone_w, chamber_w, tallies, rng)
    return keep


def _diffuser_interaction(scene: _Scene, state, k, h, dj, wj, keep, ray, zone_w, chamber_w,
                          tallies, rng) -> None:
    """Refract the live rays k (columns of `state`, with hit points h and
    directions dj, one row per component, and weights wj) through the flat
    entry face and one pyramid facet, then fly them to the crop plane.
    Total internal reflection at the facet sends the ray back up the duct
    specularly (thin-sheet approximation) from its column; every other ray
    ends here."""
    g = scene.geom
    if scene.disable_diffuser:
        out = dj
        tir = np.zeros(k.size, dtype=bool)
    else:
        # Snell with eta = n_incident / n_transmitted and cos_i = -d.n >= 0:
        # out = eta d + (eta cos_i - cos_t) n, normalized; first the flat
        # face, normal +z, then a facet drawn per ray, its normal turned
        # against the ray (negating the factor negates the normal exactly)
        eta = 1.0 / scene.n_index
        cos_i = -dj[2]
        mid = eta * dj
        mid[2] += eta * cos_i - np.sqrt(np.maximum(1.0 - eta * eta * (1.0 - cos_i * cos_i), 0.0))
        xyz = mid * mid
        mid /= np.sqrt(xyz[0] + xyz[1] + xyz[2])
        facet = scene.facets.take(rng.integers(0, 4, size=k.size), axis=1)
        xyz = mid * facet
        orient = xyz[0] + xyz[1] + xyz[2]
        eta = scene.n_index
        cos_i = np.abs(orient)
        sin2_t = eta * eta * (1.0 - cos_i * cos_i)
        c = eta * cos_i - np.sqrt(np.maximum(1.0 - sin2_t, 0.0))
        np.negative(c, out=c, where=orient > 0.0)
        out = eta * mid + c * facet
        xyz = out * out
        out /= np.sqrt(xyz[0] + xyz[1] + xyz[2])
        tir = sin2_t > 1.0

    if tir.any():
        kt = k[tir]
        back = dj.compress(tir, axis=1)
        np.negative(back[2], out=back[2])
        state[:3, kt] = h.compress(tir, axis=1) + back * _EPS
        state[3:6, kt] = back

    # transmitted rays must head down; numerical stragglers count as absorbed
    passed = ~tir
    go = passed & (out[2] < -1e-12)
    stray = passed ^ go
    if stray.any():
        tallies["absorbed_diffuser"] += float(wj[stray].sum())
        keep[k[stray]] = False
    if not go.any():
        return
    wo = wj[go]
    tallies["absorbed_diffuser"] += float((wo * (1.0 - g.diffuser_throughput)).sum())
    wo = wo * g.diffuser_throughput
    keep[k[go]] = False

    hg, og = h.compress(go, axis=1), out.compress(go, axis=1)
    xc, yc = hg[:2] + (scene.z_canopy - hg[2]) / og[2] * og[:2]
    ax, ay = np.abs(xc), np.abs(yc)
    in_zone = (ax <= scene.half_zone) & (ay <= scene.half_zone)
    # each ray lands once, so its other tally stays at zero
    jo = ray[k[go]]
    zone_w[jo] = np.where(in_zone, wo, 0.0)
    chamber_w[jo] = np.where(in_zone, 0.0, wo)
    if scene.fluxbins is not None:
        half = FLUXMAP_EXTENT_M / 2.0
        nbin = scene.fluxbins.shape[0]
        inside = (ax < half) & (ay < half)
        ix = np.floor((xc[inside] + half) / FLUXMAP_PITCH_M).astype(int)
        iy = np.floor((yc[inside] + half) / FLUXMAP_PITCH_M).astype(int)
        np.clip(ix, 0, nbin - 1, out=ix)
        np.clip(iy, 0, nbin - 1, out=iy)
        np.add.at(scene.fluxbins, (iy, ix), wo[inside])


def _launch(dirs: np.ndarray, u: np.ndarray, launch_radius: float,
            up_beam: float = 3.0) -> np.ndarray:
    """Origins, (3, n), on a disc of `launch_radius` across each ray of the
    (3, n) `dirs`, `up_beam` back along it; the uniforms' first two rows
    place each one at r = R sqrt(u[0]) and angle 2 pi u[1] in the basis
    e1 = dirs x z, normalized (x for a vertical ray), and e2 = dirs x e1,
    whose cross products are written out with the terms np.cross forms.
    An origin that would start below z = R, the mirror's highest reach (a
    grazing sky ray), moves back along its own ray to z = R, so every ray
    starts above the roof and the mirror."""
    dx, dy, dz = dirs
    e1 = np.array([dy - dz * 0.0, dz * 0.0 - dx, dx * 0.0 - dy * 0.0])
    xyz = e1 * e1
    norms = np.sqrt(xyz[0] + xyz[1] + xyz[2])
    degenerate = norms < 1e-12
    e1[:, degenerate] = [[1.0], [0.0], [0.0]]
    norms[degenerate] = 1.0
    e1 /= norms
    e2 = np.array([dy * e1[2] - dz * e1[1], dz * e1[0] - dx * e1[2], dx * e1[1] - dy * e1[0]])
    r = launch_radius * np.sqrt(u[0])
    th = 2.0 * math.pi * u[1]
    origins = -dirs * up_beam + r * np.cos(th) * e1 + r * np.sin(th) * e2
    low = (origins[2] < launch_radius).nonzero()[0]
    if low.size:
        back = (launch_radius - origins[2, low]) / dz[low]   # < 0: every ray falls
        origins[:, low] += back * dirs[:, low]
    return origins


def _strata(n: int, dims: int) -> tuple[int, ...]:
    """Cells per axis of the launch grid: the most cells S = prod(m) with
    S <= n / 2, as even as the axes allow, the earlier axes taking the
    spare cells."""
    half = n // 2
    k = int(round(half ** (1.0 / dims)))
    while k ** dims > half:
        k -= 1
    m = [k] * dims
    for i in range(dims):
        m[i] += 1
        if math.prod(m) > half:
            m[i] -= 1
            break
    return tuple(m)


def _launch_uniforms(rng: np.random.Generator, n: int, dims: int) -> tuple[np.ndarray, int]:
    """(dims, n) launch uniforms on the unit cube and the stratum count S.

    Rows 2h and 2h+1 are two jittered points in cell h of a grid of
    S = prod(m) <= n / 2 equal cells (Cochran, Sampling Techniques, 1977);
    the n - 2S rows after them are iid. Each axis is built in place."""
    m = _strata(n, dims)
    s = math.prod(m)
    u = rng.random((dims, n))
    for row, cells, k in zip(u, np.unravel_index(np.arange(s), m), m):
        pairs = row[:2 * s].reshape(s, 2)
        pairs += cells[:, None]
        pairs /= k
    return u, s


def _mean_se(x: np.ndarray, strata: int) -> tuple[float, float]:
    """Plain mean of the per-ray values `x` and its standard error under the
    launch design of `_launch_uniforms`.

    With f = 2S/n, the variance is f^2 sum_h (x_2h - x_2h+1)^2 / (2S)^2
    for the paired strata plus (1 - f)^2 var(rest) / n_rest for the iid
    rest. A rest of one point folds into the grid's term (f = 1)."""
    n = x.size
    k = 2 * strata
    diff = x[0:k:2] - x[1:k:2]
    rest = x[k:]
    if rest.size > 1:
        var = (float(diff @ diff) + rest.size * float(rest.var(ddof=1))) / (n * n)
    else:
        var = float(diff @ diff) / (k * k)
    return float(x.mean()), math.sqrt(var)


def _validate(rays: int, geometry: LpGeometry) -> None:
    if rays < MIN_RAYS:
        raise ValueError(f"ray count {rays} below minimum {MIN_RAYS}")
    if geometry.target_zone_m / 2.0 < geometry.radius_m:
        raise ValueError("target zone narrower than the duct; flux bookkeeping "
                         "assumes the zone covers the duct footprint")


def _estimate(scene: _Scene, dirs: np.ndarray, u: np.ndarray, strata: int,
              rng: np.random.Generator, mean_sin: float = 1.0) -> TraceResult:
    """Launch the (3, n) `dirs` over a disc of the duct's radius at the first two rows
    of the stratified uniforms `u` (see `_launch_uniforms`), trace them and
    normalize to the aperture power: the beam's irradiance times A_LP,
    times `mean_sin`, the mean projection onto the aperture of a sampled
    sky direction (1 for the direct beam, which carries no cosine)."""
    origins = _launch(dirs, u, scene.R)
    zone_w, chamber_w, tallies = _trace(scene, origins, dirs, rng)

    a_launch = math.pi * scene.R ** 2
    per_ray_aperture = scene.geom.aperture_area_m2 * mean_sin / a_launch
    scale = 1.0 / per_ray_aperture
    eta_zone, se_zone = _mean_se(zone_w * scale, strata)
    eta_ch, se_ch = _mean_se((zone_w + chamber_w) * scale, strata)

    rays = dirs.shape[1]
    fluxmap = None
    if scene.fluxbins is not None:
        norm = rays * per_ray_aperture * FLUXMAP_PITCH_M ** 2
        fluxmap = FluxMap(cells=scene.fluxbins / norm, pitch_m=FLUXMAP_PITCH_M,
                          extent_m=FLUXMAP_EXTENT_M)
    return TraceResult(eta_zone=eta_zone, eta_chamber=eta_ch, se_zone=se_zone,
                       se_chamber=se_ch, tallies=tallies, rays=rays, fluxmap=fluxmap)


def trace_direct(geometry: LpGeometry, altitude: float, rays: int = DEFAULT_RAYS,
                 seed: int = 0, bounce_cap: int = 50, use_mirror: bool = True,
                 disable_diffuser: bool = False, collect_fluxmap: bool = True) -> TraceResult:
    """Parallel beam at the given solar altitude (azimuth 0 by symmetry).

    `bounce_cap` bounds each ray's loop events: a hit on the mirror, the
    roof, the diffuser or the wall above the mirror's lowest reach, or one
    whole crossing of the bare duct below it, however many wall hits that
    takes. Weight still live after that many events is tallied as
    `absorbed_cap`.
    """
    if not 0.0 < altitude <= 90.0:
        raise ValueError(f"altitude must be in (0, 90]: {altitude}")
    _validate(rays, geometry)

    tilt = mirror_tilt(altitude) if use_mirror else None
    scene = _Scene(geom=geometry, tilt_deg=tilt, bounce_cap=bounce_cap,
                   disable_diffuser=disable_diffuser, collect_fluxmap=collect_fluxmap)
    alt_r = math.radians(altitude)
    d = np.array([-math.cos(alt_r), 0.0, -math.sin(alt_r)])
    dirs = np.repeat(d[:, None], rays, axis=1)
    rng = np.random.default_rng([seed, 11, int(round(altitude * 100))])
    u, strata = _launch_uniforms(rng, rays, 2)
    return _estimate(scene, dirs, u, strata, rng)


def trace_diffuse_band(geometry: LpGeometry, tilt_deg: Optional[float],
                       band_upper_deg: float, rays: int = DEFAULT_RAYS,
                       seed: int = 0, bounce_cap: int = 50,
                       disable_diffuser: bool = False) -> TraceResult:
    """Isotropic-sky band over the front half-dome at a fixed mirror tilt.

    Directions are importance-sampled proportionally to their horizontal
    irradiance contribution (sin * cos in altitude), so each ray carries
    equal aperture power and the normalization constant is analytic. The
    rear half-dome never appears here; its occlusion is the downstream
    I_diff/2 factor. `bounce_cap` counts loop events as in `trace_direct`:
    one crossing of the bare duct is one event.
    """
    if band_upper_deg not in DIFFUSE_BANDS:
        raise ValueError(f"band upper edge must be one of {DIFFUSE_BANDS}")
    _validate(rays, geometry)

    scene = _Scene(geom=geometry, tilt_deg=tilt_deg, bounce_cap=bounce_cap,
                   disable_diffuser=disable_diffuser, collect_fluxmap=False)
    lo = math.radians(band_upper_deg - 10.0)
    hi = math.radians(band_upper_deg)
    s2lo, s2hi = math.sin(lo) ** 2, math.sin(hi) ** 2
    tilt_key = int(tilt_deg * 100) if tilt_deg is not None else 99_999
    rng = np.random.default_rng([seed, 23, tilt_key, int(band_upper_deg)])
    # one 4-D grid: the launch disc's r^2 and angle, the sky's sin^2(altitude), its azimuth
    u, strata = _launch_uniforms(rng, rays, 4)
    sin_alt = np.sqrt(s2lo + (s2hi - s2lo) * u[2])
    cos_alt = np.sqrt(1.0 - sin_alt ** 2)
    az = math.pi * (u[3] - 0.5)  # front half-dome
    dirs = np.array([-cos_alt * np.cos(az), -cos_alt * np.sin(az), -sin_alt])
    return _estimate(scene, dirs, u, strata, rng, band_mean_sin(band_upper_deg))


def build_efficiency_table(geometry: LpGeometry, rays: int = DEFAULT_RAYS,
                           seed: int = 0, collect_fluxmaps: bool = False
                           ) -> tuple[OpticalEfficiencyTable, dict]:
    """Altitude sweep for the direct beam plus a tilt x band diffuse grid.

    Returns the table and, optionally, flux maps keyed by altitude.
    """
    alts = np.arange(ALTITUDE_STEP_DEG, 90.0 + 1e-9, ALTITUDE_STEP_DEG)
    eta_dir = np.empty(alts.size)
    se_dir = np.empty(alts.size)
    fluxmaps: dict = {}
    for i, alt in enumerate(alts):
        res = trace_direct(geometry, float(alt), rays=rays, seed=seed,
                           collect_fluxmap=collect_fluxmaps)
        eta_dir[i] = res.eta_zone
        se_dir[i] = res.se_zone
        if res.fluxmap is not None:
            fluxmaps[float(alt)] = res.fluxmap

    tilts = np.arange(45.0, 90.0 + 1e-9, TILT_STEP_DEG)
    nb = len(DIFFUSE_BANDS)
    eta_th = np.empty((tilts.size, nb))
    eta_crop = np.empty((tilts.size, nb))
    se_th = np.empty((tilts.size, nb))
    se_crop = np.empty((tilts.size, nb))
    for i, tilt in enumerate(tilts):
        for j, band in enumerate(DIFFUSE_BANDS):
            res = trace_diffuse_band(geometry, float(tilt), band, rays=rays, seed=seed)
            eta_th[i, j] = res.eta_chamber
            eta_crop[i, j] = res.eta_zone
            se_th[i, j] = res.se_chamber
            se_crop[i, j] = res.se_zone

    table = OpticalEfficiencyTable(
        alt_grid=alts, eta_dir=eta_dir, se_dir=se_dir, tilt_grid=tilts,
        bands=DIFFUSE_BANDS, eta_diff_th=eta_th, eta_diff_crop=eta_crop,
        se_diff_th=se_th, se_diff_crop=se_crop, provenance="traced",
        geometry_hash=geometry.content_hash())
    return table, fluxmaps
