"""Tests of the benchmark itself: inputs, metric names, tracing neutrality.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import sys
from datetime import timedelta

import pytest

from workloads import (ROOT, START, WINDOW, WORKLOADS, tiled_building_yaml, weather_csv,
                       write_inputs)

sys.path.insert(0, str(ROOT / "src"))

import heatgrid as hg  # noqa: E402
import heatgrid.cli  # noqa: E402
import heatgrid.tensor_solver  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from layers import TARGETS, Tracer, _get, _owner  # noqa: E402


@pytest.mark.parametrize("name", ["tiled_6k", "tiled_1k5_hourly"])
def test_generator_is_deterministic_and_seeded(name):
    w = WORKLOADS[name]
    assert tiled_building_yaml(*w.rooms, w.dt, 7) == tiled_building_yaml(*w.rooms, w.dt, 7)
    assert weather_csv(w.dt, w.steps, 7) == weather_csv(w.dt, w.steps, 7)
    assert tiled_building_yaml(*w.rooms, w.dt, 7) != tiled_building_yaml(*w.rooms, w.dt, 8)
    assert weather_csv(w.dt, w.steps, 7) != weather_csv(w.dt, w.steps, 8)


@pytest.mark.parametrize("name, cvs, zones", [("tiled_6k", 5963, 48),
                                              ("tiled_1k5_hourly", 1530, 12)])
def test_generated_inputs_load_and_cover_the_horizon(tmp_path, name, cvs, zones):
    w = WORKLOADS[name]
    building, weather = write_inputs(w, 3, tmp_path)
    grid, _mats, config = hg.load_building_file(building)
    records = hg.load_weather_file(weather)
    assert (grid.rows * grid.cols, grid.n_zones, config.dt) == (cvs, zones, w.dt)
    assert len(grid.window_zone) == 2 * WINDOW * sum(w.rooms)
    last_step = START + timedelta(seconds=(w.steps - 1) * w.dt)
    hg.record_at(records, last_step)  # raises beyond the weather horizon


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        n: w.why for n, w in WORKLOADS.items()}
    assert run.TRACED_LAYERS == set(run.RUN_LAYERS) | set(run.STEP_LAYERS)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans.extend([("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
                         ("b", 5.0, 6.0, 0)])
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


def target_objects():
    return [_get(_owner(owner), name) for _layer, owner, name in TARGETS]


def test_tracer_restores_wrapped_names(tmp_path):
    before = target_objects()
    with Tracer() as tracer:
        assert all(a is not b for a, b in zip(target_objects(), before))
        status = hg.cli.main(["run", "--steps", "3", "--out", str(tmp_path)])
    assert status == 0
    assert all(a is b for a, b in zip(target_objects(), before))
    assert hg.cli.SOLVERS["tensor"] is hg.tensor_solver.step
    self_times = tracer.self_times()
    assert set(self_times) == run.TRACED_LAYERS - {"import.heatgrid"}
    assert self_times["tensor_solver.self"] > 0.0 and self_times["radiation.interior_lw"] > 0.0


@pytest.mark.parametrize("target", [("gone", "heatgrid.tensor_solver", "no_such_function"),
                                    ("gone", "heatgrid.cli:SOLVERS", "no_such_solver"),
                                    ("gone", "heatgrid.no_such_module", "f")])
def test_missing_target_fails_and_restores(monkeypatch, target):
    before = target_objects()
    monkeypatch.setattr(layers, "TARGETS", TARGETS + (target,))
    with pytest.raises(LookupError, match="cannot trace"):
        with Tracer():
            pass
    assert all(a is b for a, b in zip(target_objects(), before))


def launch(tmp_path, traced: bool, steps: int = 12):
    out = tmp_path / ("traced" if traced else "plain")
    record = tmp_path / (out.name + ".json")
    cmd = [sys.executable, str(run.LAUNCH), str(record), "1" if traced else "0", "--",
           "run", "--steps", str(steps), "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    wall, _start, code = run.spawn(cmd, env, tmp_path / "err.txt", run.clock() + 120)
    assert code == 0, (tmp_path / "err.txt").read_text()
    snapshots = [p.read_bytes() for p in run.snapshot_paths(out, steps)]
    return snapshots, json.loads(record.read_text()), wall


def test_traced_run_leaves_outputs_unchanged(tmp_path):
    plain, plain_record, _ = launch(tmp_path, traced=False)
    traced, record, wall = launch(tmp_path, traced=True)
    assert traced == plain
    assert len(record["step_start"]) == len(plain_record["step_start"]) == 12
    assert set(record["layers"]) == run.TRACED_LAYERS
    assert record["counts"]["radiation.n_surfaces"] == 80.0
    assert 20.0 < plain_record["peak_rss_mb"] < 1000.0
    # Self times plus the "other" remainder add up to the run's wall time.
    other = wall - sum(record["layers"].values())
    assert 0.0 < other < wall
