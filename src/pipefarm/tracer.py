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
direction. Direct-beam efficiencies are normalized to the beam power over
the aperture area (irradiance times A_LP, no incidence cosine); the cosine
enters exactly once, downstream in the gain formula. Under this
convention the mirror picking up rays that never cross the aperture disc
lifts low-sun delivery without breaking the documented 73% ceiling.
Diffuse band efficiencies are instead normalized to the band's power on
the horizontal aperture, because the ten-degree dome weights already
carry the projection.

Below the mirror's lowest reach the duct is a bare specular cylinder, and
a ray crosses it in one closed-form step (the skew-ray treatment of
cylindrical mirror light pipes, Swift & Smith 1995): a wall hit keeps the
ray's axial cosine and its skew distance from the axis and turns its
azimuth by a fixed angle, so the hit count, the exit point and the exit
direction at the next end plane follow without stepping each bounce. The
event loop handles the mirror, the roof, the aperture, the diffuser and
the duct above the mirror's lowest reach; one duct crossing is one event.

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
    OpticalEfficiencyTable, mirror_tilt

_EPS = 1e-9

__all__ = ["TraceResult", "trace_direct", "trace_diffuse_band",
           "build_efficiency_table", "DEFAULT_RAYS"]

DEFAULT_RAYS = 100_000
MIN_RAYS = 10_000
# Tracer model revision, part of the optical cache's file name: raise it
# whenever a change moves traced values, so no older table is read back.
# Revision 2 crosses the bare duct in closed form.
MODEL_REVISION = 2
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


def _refract(d: np.ndarray, n: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Snell refraction of unit rays d across normals n (oriented d.n < 0).

    eta is n_incident / n_transmitted. Returns (directions, tir_mask);
    directions are unspecified where TIR occurred.
    """
    cos_i = -np.einsum("ij,ij->i", d, n)
    sin2_t = eta * eta * (1.0 - cos_i * cos_i)
    tir = sin2_t > 1.0
    cos_t = np.sqrt(np.clip(1.0 - sin2_t, 0.0, None))
    out = eta * d + (eta * cos_i - cos_t)[:, None] * n
    norm = np.linalg.norm(out, axis=1)
    norm[norm == 0.0] = 1.0
    return out / norm[:, None], tir


def _reflect(d: np.ndarray, n: np.ndarray) -> np.ndarray:
    return d - 2.0 * np.einsum("ij,ij->i", d, n)[:, None] * n


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
    Rays must lie inside the cylinder with z_lo <= z <= z_hi and d_z != 0.
    Returns the hit counts N (as floats), the exit points, the exit
    directions and the weights w * rho**N.
    """
    x, y = p[:, 0], p[:, 1]
    dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]
    a = dx * dx + dy * dy
    pd = x * dx + y * dy
    cross = x * dy - y * dx
    disc = a * R * R - cross * cross      # = pd^2 - a (x^2 + y^2 - R^2)
    walls = (a > 1e-16) & (disc > 0.0)
    sq = np.sqrt(np.where(walls, disc, 0.0))
    a_safe = np.where(walls, a, 1.0)
    t_first = np.where(walls, (sq - pd) / a_safe, np.inf)
    z_end = np.where(dz < 0.0, z_lo, z_hi)
    t_end = (z_end - p[:, 2]) / dz

    hits = np.zeros(p.shape[0])
    out_p = p + t_end[:, None] * d
    out_d = d.copy()
    k = np.flatnonzero(t_end > t_first)
    if k.size:
        tf = t_first[k]
        t_chord = 2.0 * sq[k] / a[k]
        n = 1.0 + np.floor((t_end[k] - tf) / t_chord)
        turn = 2.0 * np.arctan2(sq[k], cross[k])
        c_hit, s_hit = np.cos((n - 1.0) * turn), np.sin((n - 1.0) * turn)
        c_out, s_out = np.cos(n * turn), np.sin(n * turn)
        hx, hy = x[k] + tf * dx[k], y[k] + tf * dy[k]
        ex = c_out * dx[k] - s_out * dy[k]
        ey = s_out * dx[k] + c_out * dy[k]
        rest = t_end[k] - tf - (n - 1.0) * t_chord
        out_p[k, 0] = c_hit * hx - s_hit * hy + rest * ex
        out_p[k, 1] = s_hit * hx + c_hit * hy + rest * ey
        out_d[k, 0] = ex
        out_d[k, 1] = ey
        hits[k] = n
    out_p[:, 2] = z_end
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
            self.mirror_n = np.array([math.sin(t), 0.0, -math.cos(t)])
            self.z_bare_top = -self.R * math.sin(t)
        else:
            self.mirror_n = None
            self.z_bare_top = 0.0
        s = math.radians(g.diffuser_facet_slope_deg)
        self.facet_sin = math.sin(s)
        self.facet_cos = math.cos(s)
        self.n_index = g.diffuser_refractive_index
        nbin = int(round(FLUXMAP_EXTENT_M / FLUXMAP_PITCH_M))
        self.fluxbins = np.zeros((nbin, nbin)) if self.collect_fluxmap else None


def _trace(scene: _Scene, origins: np.ndarray, dirs: np.ndarray,
           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, dict]:
    """Run the event loop; returns per-ray zone/chamber weights and tallies."""
    g = scene.geom
    n_rays = origins.shape[0]
    pos = origins.copy()
    d = dirs.copy()
    w = np.full(n_rays, g.dome_transmittance)
    alive = np.ones(n_rays, dtype=bool)

    zone_w = np.zeros(n_rays)
    chamber_w = np.zeros(n_rays)
    tallies = {
        "delivered_zone": 0.0,
        "delivered_chamber": 0.0,
        "absorbed_dome": n_rays * (1.0 - g.dome_transmittance),
        "absorbed_wall": 0.0,
        "absorbed_mirror": 0.0,
        "absorbed_mirror_back": 0.0,
        "absorbed_diffuser": 0.0,
        "absorbed_cap": 0.0,
        "missed_roof": 0.0,
        "escaped": 0.0,
    }
    R, L = scene.R, scene.L
    z_top = scene.z_bare_top

    for _ in range(scene.bounce_cap):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break

        # bare duct: one closed-form crossing; falling rays meet the diffuser
        p = pos[idx]
        bare = ((p[:, 2] >= -L) & (p[:, 2] < z_top) & (np.abs(d[idx, 2]) > 1e-14)
                & (p[:, 0] ** 2 + p[:, 1] ** 2 <= R * R))
        if np.any(bare):
            j = idx[bare]
            _, h, nd, wt = _duct_transit(p[bare], d[j], w[j], R, -L, z_top,
                                         g.wall_reflectance)
            tallies["absorbed_wall"] += float((w[j] - wt).sum())
            w[j] = wt
            d[j] = nd
            pos[j] = h
            down = nd[:, 2] < 0.0
            if np.any(down):
                _diffuser_interaction(scene, j[down], h[down], d, pos, w, alive,
                                      zone_w, chamber_w, tallies, rng)
            idx = idx[~bare]
            if idx.size == 0:
                continue
            p = p[~bare]
        dd = d[idx]
        ww = w[idx]
        m = idx.size
        tc = np.full((m, 4), np.inf)  # wall, mirror, roof, diffuser

        # duct wall: |xy| = R within -L <= z <= 0
        a = dd[:, 0] ** 2 + dd[:, 1] ** 2
        b = 2.0 * (p[:, 0] * dd[:, 0] + p[:, 1] * dd[:, 1])
        c = p[:, 0] ** 2 + p[:, 1] ** 2 - R * R
        quad = a > 1e-16
        disc = b * b - 4.0 * a * c
        ok = quad & (disc > 0.0)
        sq = np.sqrt(np.where(ok, disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.where(ok, (-b - sq) / (2.0 * a), np.inf)
            t2 = np.where(ok, (-b + sq) / (2.0 * a), np.inf)
        for troot in (t1, t2):
            z_hit = p[:, 2] + troot * dd[:, 2]
            good = ok & (troot > _EPS) & (z_hit <= 1e-12) & (z_hit >= -L - 1e-12)
            tc[:, 0] = np.where(good & (troot < tc[:, 0]), troot, tc[:, 0])

        # mirror disc: radius R, centred at the origin
        if scene.mirror_n is not None:
            denom = dd @ scene.mirror_n
            with np.errstate(divide="ignore", invalid="ignore"):
                tm = ((-p) @ scene.mirror_n) / denom
            tm = np.where((np.abs(denom) > 1e-14) & (tm > _EPS), tm, np.inf)
            finite = np.isfinite(tm)
            if np.any(finite):
                mhit = p[finite] + tm[finite, None] * dd[finite]
                r2 = np.einsum("ij,ij->i", mhit, mhit)
                keep = np.zeros_like(tm, dtype=bool)
                keep[finite] = r2 <= R * R
                tc[:, 1] = np.where(keep, tm, np.inf)

        # roof plane z = 0 outside the aperture, from above only
        falling = (dd[:, 2] < -1e-14) & (p[:, 2] > 1e-12)
        with np.errstate(divide="ignore", invalid="ignore"):
            tr = np.where(falling, -p[:, 2] / dd[:, 2], np.inf)
        good = falling & (tr > _EPS)
        if np.any(good):
            xr = p[good, 0] + tr[good] * dd[good, 0]
            yr = p[good, 1] + tr[good] * dd[good, 1]
            outside = np.zeros_like(tr, dtype=bool)
            outside[good] = xr * xr + yr * yr >= R * R
            tc[:, 2] = np.where(outside, tr, np.inf)

        # diffuser plane z = -L
        with np.errstate(divide="ignore", invalid="ignore"):
            td = np.where(dd[:, 2] < -1e-14, (-L - p[:, 2]) / dd[:, 2], np.inf)
        good = (td > _EPS) & np.isfinite(td)
        tc[:, 3] = np.where(good, td, np.inf)

        event = np.argmin(tc, axis=1)
        t_hit = tc[np.arange(m), event]
        lost = ~np.isfinite(t_hit)

        # no surface ahead: the ray leaves through the dome opening
        if np.any(lost):
            tallies["escaped"] += float(ww[lost].sum())
            alive[idx[lost]] = False

        live = ~lost
        hit = p + np.where(lost, 0.0, t_hit)[:, None] * dd

        # wall bounce
        sel = live & (event == 0)
        if np.any(sel):
            j = idx[sel]
            h = hit[sel]
            n = np.zeros_like(h)
            n[:, 0] = -h[:, 0] / R
            n[:, 1] = -h[:, 1] / R
            tallies["absorbed_wall"] += float((w[j] * (1.0 - g.wall_reflectance)).sum())
            w[j] *= g.wall_reflectance
            nd = _reflect(d[j], n)
            d[j] = nd
            pos[j] = h + nd * _EPS

        # mirror: coated face reflects, rear face absorbs
        sel = live & (event == 1)
        if np.any(sel):
            j = idx[sel]
            h = hit[sel]
            cosd = d[j] @ scene.mirror_n
            coated = cosd < 0.0
            jc = j[coated]
            if jc.size:
                tallies["absorbed_mirror"] += float((w[jc] * (1.0 - g.mirror_reflectance)).sum())
                w[jc] *= g.mirror_reflectance
                nd = _reflect(d[jc], np.broadcast_to(scene.mirror_n, (jc.size, 3)))
                d[jc] = nd
                pos[jc] = h[coated] + nd * _EPS
            jb = j[~coated]
            if jb.size:
                tallies["absorbed_mirror_back"] += float(w[jb].sum())
                alive[jb] = False

        # roof
        sel = live & (event == 2)
        if np.any(sel):
            j = idx[sel]
            tallies["missed_roof"] += float(w[j].sum())
            alive[j] = False

        # diffuser
        sel = live & (event == 3)
        if np.any(sel):
            j = idx[sel]
            h = hit[sel]
            _diffuser_interaction(scene, j, h, d, pos, w, alive, zone_w, chamber_w,
                                  tallies, rng)

    still = np.flatnonzero(alive)
    if still.size:
        tallies["absorbed_cap"] += float(w[still].sum())
        alive[still] = False

    tallies["delivered_zone"] = float(zone_w.sum())
    tallies["delivered_chamber"] = float(chamber_w.sum())
    return zone_w, chamber_w, tallies


def _diffuser_interaction(scene: _Scene, j, h, d, pos, w, alive, zone_w, chamber_w,
                          tallies, rng) -> None:
    """Refract through the flat entry face and one pyramid facet, then fly
    to the crop plane. Total internal reflection at the facet sends the ray
    back up the duct specularly (thin-sheet approximation)."""
    g = scene.geom
    din = d[j]

    if scene.disable_diffuser:
        out = din.copy()
        tir = np.zeros(j.size, dtype=bool)
    else:
        z_up = np.broadcast_to(np.array([0.0, 0.0, 1.0]), (j.size, 3))
        d1, _ = _refract(din, z_up, 1.0 / scene.n_index)
        quad = rng.integers(0, 4, size=j.size)
        ex = np.where(quad == 0, 1.0, np.where(quad == 1, -1.0, 0.0))
        ey = np.where(quad == 2, 1.0, np.where(quad == 3, -1.0, 0.0))
        nf = np.column_stack([scene.facet_sin * ex, scene.facet_sin * ey,
                              np.full(j.size, -scene.facet_cos)])
        orient = np.einsum("ij,ij->i", d1, nf)
        nf = np.where(orient[:, None] > 0.0, -nf, nf)
        out, tir = _refract(d1, nf, scene.n_index)

    if np.any(tir):
        jt = j[tir]
        back = din[tir].copy()
        back[:, 2] = -back[:, 2]
        d[jt] = back
        pos[jt] = h[tir] + back * _EPS

    ok = ~tir
    if not np.any(ok):
        return
    jo = j[ok]
    dT = out[ok]
    # transmitted rays must head down; numerical stragglers count as absorbed
    down = dT[:, 2] < -1e-12
    if np.any(~down):
        jf = jo[~down]
        tallies["absorbed_diffuser"] += float(w[jf].sum())
        alive[jf] = False
        jo = jo[down]
        dT = dT[down]
        if jo.size == 0:
            return
    loss = 1.0 - g.diffuser_throughput
    tallies["absorbed_diffuser"] += float((w[jo] * loss).sum())
    w[jo] *= g.diffuser_throughput

    hz = h[ok][down] if np.any(~down) else h[ok]
    tof = (scene.z_canopy - hz[:, 2]) / dT[:, 2]
    xc = hz[:, 0] + tof * dT[:, 0]
    yc = hz[:, 1] + tof * dT[:, 1]
    in_zone = (np.abs(xc) <= scene.half_zone) & (np.abs(yc) <= scene.half_zone)
    zone_w[jo[in_zone]] = w[jo[in_zone]]
    chamber_w[jo[~in_zone]] = w[jo[~in_zone]]
    if scene.fluxbins is not None:
        half = FLUXMAP_EXTENT_M / 2.0
        nbin = scene.fluxbins.shape[0]
        inside = (np.abs(xc) < half) & (np.abs(yc) < half)
        ix = np.floor((xc[inside] + half) / FLUXMAP_PITCH_M).astype(int)
        iy = np.floor((yc[inside] + half) / FLUXMAP_PITCH_M).astype(int)
        np.clip(ix, 0, nbin - 1, out=ix)
        np.clip(iy, 0, nbin - 1, out=iy)
        np.add.at(scene.fluxbins, (iy, ix), w[jo[inside]])
    alive[jo] = False


def _perp_basis(dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis perpendicular to each direction."""
    z = np.array([0.0, 0.0, 1.0])
    e1 = np.cross(dirs, z)
    norms = np.linalg.norm(e1, axis=1)
    degenerate = norms < 1e-12
    e1[degenerate] = np.array([1.0, 0.0, 0.0])
    norms[degenerate] = 1.0
    e1 = e1 / norms[:, None]
    e2 = np.cross(dirs, e1)
    return e1, e2


def _launch(dirs: np.ndarray, rng: np.random.Generator, launch_radius: float,
            up_beam: float = 3.0) -> np.ndarray:
    e1, e2 = _perp_basis(dirs)
    n = dirs.shape[0]
    r = launch_radius * np.sqrt(rng.random(n))
    th = 2.0 * math.pi * rng.random(n)
    return (-dirs * up_beam
            + (r * np.cos(th))[:, None] * e1
            + (r * np.sin(th))[:, None] * e2)


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    n = x.size
    mean = float(x.mean())
    var = float(x.var(ddof=1)) if n > 1 else 0.0
    return mean, math.sqrt(var / n)


def _validate(rays: int, geometry: LpGeometry) -> None:
    if rays < MIN_RAYS:
        raise ValueError(f"ray count {rays} below minimum {MIN_RAYS}")
    if geometry.target_zone_m / 2.0 < geometry.radius_m:
        raise ValueError("target zone narrower than the duct; flux bookkeeping "
                         "assumes the zone covers the duct footprint")


def _estimate(scene: _Scene, dirs: np.ndarray, rng: np.random.Generator,
              mean_sin: float = 1.0) -> TraceResult:
    """Launch `dirs` over a disc of the duct's radius, trace them and
    normalize to the aperture power: the beam's irradiance times A_LP,
    times `mean_sin`, the mean projection onto the aperture of a sampled
    sky direction (1 for the direct beam, which carries no cosine)."""
    origins = _launch(dirs, rng, scene.R)
    zone_w, chamber_w, tallies = _trace(scene, origins, dirs, rng)

    a_launch = math.pi * scene.R ** 2
    per_ray_aperture = scene.geom.aperture_area_m2 * mean_sin / a_launch
    scale = 1.0 / per_ray_aperture
    eta_zone, se_zone = _mean_se(zone_w * scale)
    eta_ch, se_ch = _mean_se((zone_w + chamber_w) * scale)

    rays = dirs.shape[0]
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
    dirs = np.broadcast_to(d, (rays, 3)).copy()
    rng = np.random.default_rng([seed, 11, int(round(altitude * 100))])
    return _estimate(scene, dirs, rng)


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
    sin_alt = np.sqrt(s2lo + (s2hi - s2lo) * rng.random(rays))
    cos_alt = np.sqrt(1.0 - sin_alt ** 2)
    az = math.pi * (rng.random(rays) - 0.5)  # front half-dome
    dirs = np.column_stack([-cos_alt * np.cos(az), -cos_alt * np.sin(az), -sin_alt])
    # analytic mean of sin(alt) under the sampling pdf ~ sin*cos
    e_sin = 2.0 * (math.sin(hi) ** 3 - math.sin(lo) ** 3) / (3.0 * (s2hi - s2lo))
    return _estimate(scene, dirs, rng, e_sin)


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
