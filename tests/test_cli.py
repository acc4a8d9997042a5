import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import heatgrid as hg
from heatgrid import cli
from heatgrid.cli import main

from _factories import tiled_building_yaml


def write_conduction_only(tmp_path, canonical_paths, epsilon=1e-9):
    """Canonical plan with every radiative feature off and a tight threshold."""
    doc = yaml.safe_load(canonical_paths[0].read_text())
    doc["simulation"].update(
        enable_interior_lw=False,
        enable_exterior_lw=False,
        enable_solar=False,
        enable_interior_mass=False,
        convergence_epsilon=epsilon,
        max_inner_iterations=20000,
    )
    path = tmp_path / "conduction_only.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


def test_run_writes_snapshots_trace_and_manifest(tmp_path, canonical_paths):
    out = tmp_path / "out"
    code = main([
        "run", "--solver", "tensor", "--steps", "3",
        "--building", str(canonical_paths[0]),
        "--weather", str(canonical_paths[1]),
        "--out", str(out),
    ])
    assert code == 0
    snapshots = sorted(out.glob("snapshot_*.csv"))
    assert [p.name for p in snapshots] == [
        "snapshot_0001.csv", "snapshot_0002.csv", "snapshot_0003.csv"
    ]
    header = snapshots[0].read_text().splitlines()[0]
    assert header == "row,col,cv_type,t,t_mass"
    assert (out / "trace.csv").exists()
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["solver"] == "tensor"
    assert manifest["config"]["dt"] == 300.0


def test_trace_appends_mixed_from_column(tmp_path, canonical_paths):
    out = tmp_path / "out"
    assert main(["run", "--steps", "2", "--building", str(canonical_paths[0]),
                 "--weather", str(canonical_paths[1]), "--out", str(out)]) == 0
    header, *rows = (out / "trace.csv").read_text().splitlines()
    assert header == (
        "step,inner_iterations,max_delta,converged,wall_time,mixed_from,error_estimate"
    )
    assert [row.split(",")[5] for row in rows] == ["0", "0"]
    # the second step starts predicted and returns an extrapolated field
    estimate = float(rows[1].split(",")[6])
    assert 0.0 < estimate < 9.0 * float(rows[1].split(",")[2])


def test_snapshots_byte_identical_across_runs(tmp_path, canonical_paths):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([
            "run", "--steps", "2",
            "--building", str(canonical_paths[0]),
            "--weather", str(canonical_paths[1]),
            "--out", str(out),
        ]) == 0
        outs.append(out)
    for fname in ("snapshot_0001.csv", "snapshot_0002.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_failed_snapshot_reported_and_others_written(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "snapshot_0002.csv").mkdir(parents=True)
    assert main(["run", "--steps", "3", "--out", str(out)]) == 1
    assert "snapshot_0002.csv" in capsys.readouterr().err
    for i in (1, 3):
        assert (out / f"snapshot_{i:04d}.csv").is_file()


def test_one_writer_forks_nothing(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked a snapshot writer")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    assert main(["run", "--steps", "3", "--out", str(tmp_path / "out")]) == 0
    assert len(list((tmp_path / "out").glob("snapshot_*.csv"))) == 3


def repr_snapshot(grid, snap, with_mass):
    """The snapshot text as written with one ``repr`` per value."""
    kinds = grid.cv_type.tolist()
    cells = [f"{r},{c},{kinds[r][c]}" for r in range(grid.rows) for c in range(grid.cols)]
    fields = [snap.t] + ([snap.t_mass] if with_mass else [])
    rows = zip(cells, *(map(repr, f.ravel().tolist()) for f in fields))
    return "row,col,cv_type,t" + (",t_mass" if with_mass else "") + "\n" + "".join(
        ",".join(row) + "\n" for row in rows
    )


@pytest.mark.parametrize("plan", ["bundled", "tiled", "no_mass", "out_of_domain"])
def test_snapshots_match_the_repr_formatter(tmp_path, monkeypatch, canonical_paths, plan):
    building, weather = canonical_paths
    if plan == "tiled":
        building = tmp_path / "tiled.yaml"
        building.write_text(tiled_building_yaml(2, 3, room=4))
    elif plan == "no_mass":
        building = write_conduction_only(tmp_path, canonical_paths, epsilon=1e-3)
    elif plan == "out_of_domain":  # a field the formatter leaves to repr, in the first block
        def odd_episode(*args, **kwargs):
            snapshots, reports = hg.run_episode(*args, **kwargs)
            snapshots[2].t[0, :3] = [99.5, 512.0, 1e300]
            return snapshots, reports

        monkeypatch.setattr(cli, "run_episode", odd_episode)
    out = tmp_path / "out"
    steps = 9  # the bundled plan's snapshots are formatted 7 at a time
    assert main(["run", "--steps", str(steps), "--building", str(building),
                 "--weather", str(weather), "--out", str(out)]) == 0
    grid, mats, config = hg.load_building_file(building)
    snapshots, _ = cli.run_episode(grid, mats, config, hg.load_weather_file(weather), steps)
    for snap in snapshots:
        written = (out / f"snapshot_{snap.step_index:04d}.csv").read_text(encoding="utf-8")
        assert written == repr_snapshot(grid, snap, config.enable_interior_mass)


@pytest.mark.parametrize("steps", ["0", "abc", "1.5"])
def test_zero_steps_is_usage_error(tmp_path, canonical_paths, capsys, steps):
    with pytest.raises(SystemExit) as err:
        main(["run", "--steps", steps, "--out", str(tmp_path / "x")])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert f"--steps: must be an integer >= 1, got '{steps}'" in stderr
    assert "_positive_int" not in stderr and "Traceback" not in stderr


def test_missing_weather_column_reported(tmp_path, canonical_paths, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "timestamp,t_air,t_gnd,ghi,dni,dhi\n-,K,K,W/m2,W/m2,W/m2\n"
        "2021-06-21T00:00:00Z,290,289,0,0,0\n"
    )
    code = main([
        "run", "--building", str(canonical_paths[0]),
        "--weather", str(bad), "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert "t_sky" in capsys.readouterr().err


def test_unreadable_building_reported(tmp_path, canonical_paths, capsys):
    code = main([
        "run", "--building", str(tmp_path / "nope.yaml"),
        "--weather", str(canonical_paths[1]), "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert "nope.yaml" in capsys.readouterr().err


def test_section_that_is_not_a_mapping_reported_without_traceback(tmp_path, canonical_paths):
    doc = yaml.safe_load(canonical_paths[0].read_text())
    doc["site"] = 5
    building = tmp_path / "bad_site.yaml"
    building.write_text(yaml.safe_dump(doc, sort_keys=False))
    env = {**os.environ, "PYTHONPATH": str(Path(hg.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-m", "heatgrid", "run", "--steps", "1",
         "--building", str(building), "--weather", str(canonical_paths[1]),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 1
    assert out.stderr == "error: site section must be a mapping, got 5\n"


def test_module_entry_point_runs(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(hg.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-m", "heatgrid", "run", "--steps", "2", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert len(list((tmp_path / "out").glob("snapshot_*.csv"))) == 2


def test_unconverged_steps_warned_and_exit_1(tmp_path, canonical_paths, capsys):
    doc = yaml.safe_load(canonical_paths[0].read_text())
    doc["simulation"]["max_inner_iterations"] = 1
    building = tmp_path / "one_iteration.yaml"
    building.write_text(yaml.safe_dump(doc, sort_keys=False))
    out = tmp_path / "out"
    code = main(["run", "--steps", "2", "--building", str(building),
                 "--weather", str(canonical_paths[1]), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "warning: 2 step(s) did not converge\n"
    assert len(list(out.glob("snapshot_*.csv"))) == 2
    assert (out / "trace.csv").read_text().count(",False,") == 2


def test_solar_without_site_fails_before_the_plan_is_built(
    tmp_path, canonical_paths, capsys, monkeypatch
):
    doc = yaml.safe_load(canonical_paths[0].read_text())
    del doc["site"]
    assert doc["simulation"]["enable_solar"] is True
    building = tmp_path / "no_site.yaml"
    building.write_text(yaml.safe_dump(doc, sort_keys=False))

    def no_prepare(*args, **kwargs):
        raise AssertionError("plan prepared")

    monkeypatch.setattr(hg.tensor_solver, "prepare", no_prepare)
    code = main(["run", "--building", str(building), "--weather", str(canonical_paths[1]),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: simulation.enable_solar is true but the plan has no site section\n"
    )


def test_compare_conduction_only_passes_tightly(tmp_path, canonical_paths):
    building = write_conduction_only(tmp_path, canonical_paths)
    out = tmp_path / "cmp"
    code = main([
        "compare", "--steps", "3",
        "--building", str(building),
        "--weather", str(canonical_paths[1]),
        "--out", str(out),
    ])
    assert code == 0
    doc = yaml.safe_load((out / "comparison.yaml").read_text())
    assert doc["pass"] is True
    assert doc["unconverged_steps"] == {"iterative": 0, "tensor": 0}
    assert doc["per_cell_max_abs_diff"] < 1e-6
    assert doc["sig_figs_agreement"] >= 5


def test_compare_canonical_plan_passes(tmp_path, canonical_paths):
    out = tmp_path / "cmp_full"
    code = main([
        "compare", "--steps", "10",
        "--building", str(canonical_paths[0]),
        "--weather", str(canonical_paths[1]),
        "--out", str(out),
    ])
    assert code == 0
    doc = yaml.safe_load((out / "comparison.yaml").read_text())
    assert doc["pass"] is True
    assert doc["sig_figs_agreement"] >= 5


def test_compare_reports_unconverged_steps(tmp_path, canonical_paths, capsys):
    # at a one-day step the reference solver spends its whole pass budget;
    # one step keeps that to a single 500-pass step
    doc = yaml.safe_load(canonical_paths[0].read_text())
    doc["simulation"]["dt"] = 86400
    building = tmp_path / "day_step.yaml"
    building.write_text(yaml.safe_dump(doc, sort_keys=False))
    out = tmp_path / "cmp"
    code = main(["compare", "--steps", "1", "--building", str(building),
                 "--weather", str(canonical_paths[1]), "--out", str(out)])
    assert code == 1
    doc = yaml.safe_load((out / "comparison.yaml").read_text())
    assert doc["unconverged_steps"] == {"iterative": 1, "tensor": 0}
    assert doc["pass"] is False
    assert capsys.readouterr().err == (
        "warning: iterative: 1 step(s) did not converge, the first at step 1\n"
    )


def test_compare_detects_perturbed_material(canonical, canonical_weather):
    # sensitivity check: perturb one material value in one solver's input
    grid, mats, config = canonical
    import copy
    tampered = copy.deepcopy(mats)
    air = grid.cv_type == int(hg.CvType.INTERIOR_AIR)
    tampered.density[air] *= 10.0
    snaps_a, _ = hg.run_episode(grid, mats, config, canonical_weather, 5)
    snaps_b, _ = hg.run_episode(
        grid, tampered, config, canonical_weather, 5, stepper=hg.oracle_step
    )
    rel = max(
        float((np.abs(a.t - b.t) / np.abs(b.t)).max())
        for a, b in zip(snaps_a, snaps_b)
    )
    assert rel > 1e-5


def test_bench_writes_artifact(tmp_path, canonical_paths, capsys):
    out = tmp_path / "bench"
    code = main([
        "bench", "--steps", "2", "--repeats", "3",
        "--building", str(canonical_paths[0]),
        "--weather", str(canonical_paths[1]),
        "--out", str(out),
    ])
    assert code == 0
    doc = yaml.safe_load((out / "bench.yaml").read_text())
    assert set(doc["solvers"]) == {"tensor", "iterative"}
    for name in ("tensor", "iterative"):
        entry = doc["solvers"][name]
        assert len(entry["per_step_times"]) == 2
        assert len(entry["repeat_totals"]) == 3
        assert entry["total_time"] == pytest.approx(sum(entry["per_step_times"]), rel=1e-9)
        assert entry["total_time"] == pytest.approx(min(entry["repeat_totals"]), rel=1e-9)
        assert entry["iterations_per_step"] >= 1.0
    assert doc["speedup"] > 0.0
    assert "iterations per step" in capsys.readouterr().out
    assert doc["reference"]["speedup"] == 4.19


def test_bench_single_step_degenerate(tmp_path, canonical_paths):
    out = tmp_path / "bench1"
    assert main([
        "bench", "--steps", "1",
        "--building", str(canonical_paths[0]),
        "--weather", str(canonical_paths[1]),
        "--out", str(out),
    ]) == 0
    doc = yaml.safe_load((out / "bench.yaml").read_text())
    for name in ("tensor", "iterative"):
        entry = doc["solvers"][name]
        assert entry["mean_per_step"] == pytest.approx(entry["total_time"], rel=1e-12)
