"""Exact-bits guard for the tracer: a handful of 10k-ray calls must
reproduce the efficiencies, standard errors and tallies frozen in
`tests/data/traced_exact.json` exactly (==), and one direct call its
flux-map cells by sha256.

`test_tracer.py` checks the tracer's physics and its agreement with a
small reference at the Monte Carlo level; this file catches a change
that was meant to keep every traced value and moved one by a bit. A
change that is meant to move traced values re-freezes the file
(`PYTHONPATH=src python tests/test_traced_exact.py`) together with a
`tracer.MODEL_REVISION` bump, and says so in CHANGES.md; the script
prints every entry that moved and rewrites only those.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from pipefarm.optics import LpGeometry
from pipefarm.tracer import trace_diffuse_band, trace_direct

FROZEN_PATH = Path(__file__).resolve().parent / "data" / "traced_exact.json"
GEOM = LpGeometry()
RAYS = 10_000
SEED = 1
# call name -> ((altitude,), kwargs) for a direct call or ((tilt, band), kwargs)
# for a diffuse one; the kwargs reach the branches the defaults leave out
CALLS = {
    "direct@10": ((10.0,), {}),
    "direct@45": ((45.0,), {}),
    "direct@80": ((80.0,), {}),
    "diffuse@50/10": ((50.0, 10), {}),
    "diffuse@70/50": ((70.0, 50), {}),
    "direct@75/no-mirror": ((75.0,), {"use_mirror": False}),
    "diffuse@none/30": ((None, 30), {}),
    "direct@45/no-diffuser": ((45.0,), {"disable_diffuser": True}),
    "diffuse@90/30/cap4": ((90.0, 30), {"bounce_cap": 4}),
}
FLUXMAP_CALL = "direct@45"


def snapshot(name: str) -> dict:
    """Efficiencies, standard errors and tallies of one call; floats keep
    their repr, so the JSON round trip is exact."""
    args, kwargs = CALLS[name]
    if len(args) == 1:
        res = trace_direct(GEOM, *args, rays=RAYS, seed=SEED,
                           collect_fluxmap=name == FLUXMAP_CALL, **kwargs)
    else:
        res = trace_diffuse_band(GEOM, *args, rays=RAYS, seed=SEED, **kwargs)
    out = {k: getattr(res, k) for k in ("eta_zone", "eta_chamber", "se_zone", "se_chamber")}
    out.update({f"tallies.{k}": v for k, v in sorted(res.tallies.items())})
    if res.fluxmap is not None:
        cells = np.ascontiguousarray(res.fluxmap.cells, dtype="<f8")
        out["fluxmap_sha256"] = hashlib.sha256(cells.tobytes()).hexdigest()
    return out


def _mismatches(expected: dict, actual: dict) -> list[str]:
    return [f"{key}: frozen {expected.get(key, '<missing>')!r}, "
            f"now {actual.get(key, '<missing>')!r}"
            for key in sorted(set(expected) | set(actual))
            if expected.get(key, "<missing>") != actual.get(key, "<missing>")]


def test_frozen_file_names_every_call():
    assert sorted(json.loads(FROZEN_PATH.read_text())) == sorted(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_call_reproduces_frozen_bits(name):
    frozen = json.loads(FROZEN_PATH.read_text())[name]
    bad = _mismatches(frozen, snapshot(name))
    assert not bad, "\n".join(bad)


if __name__ == "__main__":
    doc = {name: snapshot(name) for name in CALLS}
    frozen = json.loads(FROZEN_PATH.read_text()) if FROZEN_PATH.exists() else {}
    for name in sorted(set(frozen) | set(doc)):
        for m in _mismatches(frozen.get(name, {}), doc.get(name, {})):
            print(f"moved: {name} {m}")
    FROZEN_PATH.parent.mkdir(exist_ok=True)
    FROZEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FROZEN_PATH}")
