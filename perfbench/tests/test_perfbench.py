"""Tests of the benchmark itself: input generators, tracer coverage, determinism.

    python3 -m pytest perfbench/tests -q

The traced runs here are smoke-sized (small n, few instances) versions of
the three workloads; they exercise the same entry points as the full runs.
"""

from __future__ import annotations

import dataclasses
import filecmp
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, _cli, import_omcp  # noqa: E402

import_omcp(ROOT / "src")

import run  # noqa: E402
import worker  # noqa: E402
from tracing import DETERMINISTIC, LAYERS, PER_LAYER_UNITS, Tracer  # noqa: E402

# workload -> (n, instances) of the smoke-sized traced run
SMOKE = {
    "lcp-reduce-n8": (5, 2),
    "adversary-n6": (4, 2),
    "degenerate-corpus": (4, 30),
}

LCP, ADV, DEG = SMOKE

# Per-layer metric -> workloads on which it must be non-zero.
COVERAGE = {
    "linalg.invert.calls": (LCP, ADV, DEG),
    "linalg.det.calls": (ADV,),
    "linalg.rank.calls": (LCP, ADV, DEG),
    "linalg.self_s": (LCP, ADV),
    "realize.query.calls": (LCP, DEG),
    "realize.cocircuit.calls": (ADV,),
    "realize.is_generic.calls": (ADV,),
    "realize.factorizations_per_query": (LCP, ADV),
    "realize.self_s": (LCP, ADV),
    "extend.query.calls": (ADV,),
    "extend.evaluate.calls": (ADV,),
    "extend.self_s": (ADV,),
    "om.query.calls": (DEG,),
    "om.self_s": (DEG,),
    "reduction.vertices": (LCP, ADV, DEG),
    "reduction.self_s": (LCP, DEG),
    "cube.sw_check.s": (LCP, DEG),
    "cube.partial_sw.s": (DEG,),
    "cube.uso_exhaustive.s": (DEG,),
    "cube.self_s": (LCP, DEG),
    "pmatroid.verify.calls": (DEG,),
    "pmatroid.is_degenerate.s": (ADV,),
    "pmatroid.self_s": (ADV, DEG),
    "adversary.answer.calls": (ADV,),
    "adversary.game_queries": (ADV,),
    "adversary.base.s": (ADV,),
    "adversary.self_s": (ADV,),
    "cli.self_s": (LCP,),
}

# A 3-cube USO on which jump revisits a vertex and falls back to the scan;
# no workload input does (see README), so the counter is tested here.
JUMP_CYCLE = ["-+-", "+++", "+-+", "+--", "++-", "--+", "---", "-++"]

# Layers whose spans appear on one workload only.
EXCLUSIVE = {"extend": ADV, "adversary": ADV, "om": DEG}


def _generate(name: str, seed: int, directory: Path, pool: int | None = None) -> list:
    wl = WORKLOADS[name]
    n, instances = SMOKE[name]
    directory.mkdir(parents=True)
    wl.generate(seed, str(directory), n, pool or instances)
    return wl.load(str(directory))


def _traced(name: str, seed: int, tmp: Path) -> dict:
    wl = dataclasses.replace(WORKLOADS[name], traced=SMOKE[name][1])
    inputs = _generate(name, seed, tmp / "inputs")
    result = worker.traced(wl, inputs, str(tmp / "spans.jsonl"), {"workload": name})
    assert result["correct"], result
    return result["metrics"]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    return {name: _traced(name, 3, tmp_path_factory.mktemp(name)) for name in SMOKE}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    wl = WORKLOADS[name]
    n, instances = SMOKE[name]
    dirs = []
    for label, seed in (("a", 11), ("b", 11), ("c", 12)):
        d = tmp_path / label
        d.mkdir()
        wl.generate(seed, str(d), n, instances)
        dirs.append(d)
    files = sorted(p.name for p in dirs[0].iterdir())
    assert files == sorted(p.name for p in dirs[1].iterdir())
    match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], files, shallow=False)
    assert mismatch == [] and errors == []
    _, changed, _ = filecmp.cmpfiles(dirs[0], dirs[2], files, shallow=False)
    assert changed


@pytest.mark.parametrize("metric", sorted(COVERAGE))
def test_counter_is_nonzero_where_its_layer_works(smoke, metric):
    for name in COVERAGE[metric]:
        assert smoke[name][metric] > 0, (metric, name)


@pytest.mark.parametrize("layer", sorted(EXCLUSIVE))
def test_layer_appears_on_its_workload_only(smoke, layer):
    for name, metrics in smoke.items():
        if name != EXCLUSIVE[layer]:
            assert metrics[f"{layer}.self_s"] == 0, (layer, name)


def test_every_layer_metric_is_reported(smoke):
    traced = set(PER_LAYER_UNITS) - {"import.omcp_s", "import.networkx_s"}
    for metrics in smoke.values():
        assert set(metrics) == traced
    assert {f"{layer}.self_s" for layer in LAYERS} <= traced


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_counts_repeat_for_a_seed(name, smoke, tmp_path):
    again = _traced(name, 3, tmp_path)
    for metric in DETERMINISTIC:
        assert again[metric] == smoke[name][metric], metric


def test_fallback_counter_counts_jump_falling_back(tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"n": 3, "outmaps": JUMP_CYCLE}))
    tracer = Tracer()
    tracer.install()
    try:
        code, out = _cli(["uso", "solve", str(path), "--algo", "jump"])
    finally:
        tracer.uninstall()
    assert code == 0 and json.loads(out)["sink"] == "110"
    metrics = tracer.metrics()
    assert metrics["cube.jump.fallbacks"] == 1


def test_tracer_restores_the_package(tmp_path):
    from omcp import adversary, cube as cube_mod, linalg, reduction

    before = (linalg.invert, reduction.orient_vertex_total, adversary.orient_vertex_total,
              dict(cube_mod.ALGORITHMS), cube_mod.Orientation.__dict__["from_json_dict"])
    _traced(ADV, 5, tmp_path)
    after = (linalg.invert, reduction.orient_vertex_total, adversary.orient_vertex_total,
             dict(cube_mod.ALGORITHMS), cube_mod.Orientation.__dict__["from_json_dict"])
    assert after == before


def test_timed_loop_checks_and_digests(tmp_path):
    wl = dataclasses.replace(WORKLOADS[DEG], traced=5)
    inputs = _generate(DEG, 4, tmp_path / "inputs", pool=10)
    first = worker.timed(wl, inputs, 0.2)
    second = worker.timed(wl, inputs, 0.2)
    assert first["correct"] and first["failed"] == 0
    assert first["info"]["digest"] == second["info"]["digest"]
    assert set(first["metrics"]) | {"setup_s"} == set(run.END_TO_END_UNITS)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
