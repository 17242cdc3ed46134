"""Smoke test of the benchmark harness at tiny sizes (a few seconds).

Runs every workload, timed and traced, on 4 oils x 3 spectra of 256
pixels with one epoch, and checks that each reports exactly the metrics
``BENCHMARK.json`` declares.  It lives outside ``tests/``, so the tier-1
suite does not collect it; run it with

    python3 -m pytest benchmarks/test_smoke.py -q
"""

import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_metrics_match_the_harness():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_workload_at_tiny_scale(name, traced):
    ctx = workloads.Context(ROOT, seed=3, seconds=0.5, scale=workloads.TINY)
    res = workloads.WORKLOADS[name][traced](ctx)
    assert res.attempted >= 1
    assert res.failed == 0
    expected = workloads.PER_LAYER if traced else workloads.END_TO_END
    assert set(res.metrics) == set(expected)
    for metric, m in res.metrics.items():
        assert m["unit"] == expected[metric]
        if not traced:
            assert m["value"] > 0, metric


def test_a_failing_operation_is_counted_not_raised(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(workloads.quality, "classify", broken)
    ctx = workloads.Context(ROOT, seed=3, seconds=0.2, scale=workloads.TINY)
    res = workloads.grade_one(ctx)
    assert res.attempted >= 1
    assert res.failed == res.attempted
