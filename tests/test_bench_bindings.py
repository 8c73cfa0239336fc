"""The benchmark's traced run wraps pipefarm functions by name and reads a
few of their return values; a renamed, removed or reshaped binding turns its
per-layer metrics into nulls. These tests read the binding list from
`perfbench/tracing.py` itself, so they follow it when it changes.
"""

from __future__ import annotations

import importlib.util

import pytest

import pipefarm.engine
import pipefarm.thermal
from pipefarm.lighting import EcFilm


@pytest.fixture(scope="module")
def tracing(repo_paths):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", repo_paths["repo"] / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves(tracing):
    gone = []
    for name, module, path in tracing.SPANS:
        try:
            tracing._resolve(module, path)
        except (ImportError, AttributeError):
            gone.append(f"{name}: {module}.{path}")
    assert not gone, "\n".join(gone)


def test_rayleigh_range_is_published():
    lo, hi = pipefarm.thermal.RA_VALID_RANGE
    assert 0.0 < lo < hi


def test_hooks_read_the_returned_shapes(tracing, scenario_results, tmp_path):
    rec = tracing.SpanRecorder()
    with tracing.installed(rec) as missing:
        assert missing == {}
        pipefarm.engine.ec_control(1e4, EcFilm())       # cap out of the film's reach
        pipefarm.engine.ec_control(100.0, EcFilm())
        written = scenario_results["LP_Dim_EC"].save(tmp_path)
    assert rec.counts[("", "ec_unreachable_hours", "")] == 1
    assert rec.counts[("", "save_bytes", "")] == sum(p.stat().st_size for p in written) > 0
