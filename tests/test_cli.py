import numpy as np
import pytest
import yaml

import heatgrid as hg
from heatgrid.cli import main


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
    assert header == "step,inner_iterations,max_delta,converged,wall_time,mixed_from"
    assert [row.split(",")[5] for row in rows] == ["0", "0"]


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


def test_zero_steps_is_usage_error(tmp_path, canonical_paths):
    with pytest.raises(SystemExit) as err:
        main(["run", "--steps", "0", "--out", str(tmp_path / "x")])
    assert err.value.code == 2


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


def test_bench_writes_artifact(tmp_path, canonical_paths):
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
    assert doc["speedup"] > 0.0
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
