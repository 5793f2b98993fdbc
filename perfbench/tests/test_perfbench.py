"""Tests of the benchmark itself: span arithmetic, wrapping by name, output
checks, and a tiny-size run of each workload through the real CLI."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _span(id_, parent, start, end, name="x"):
    return {"id": id_, "name": name, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_covered_part_of_children():
    records = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 9.0),
        # overlaps span 3 and runs past the parent's end: only the part of
        # [5, 10] not yet covered counts against span 0
        _span(4, 0, 8.0, 11.0),
    ]
    own = spans.self_times(records)
    assert own == {0: 10.0 - 3.0 - 5.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 3.0}


@pytest.fixture
def fake_package(monkeypatch):
    """A package `fakepkg` with one module whose functions call each other."""
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.layer")

    def inner(x):
        return x + 1

    def outer(config, eta, trial):
        return mod.inner(trial) + mod.inner(trial)

    class Model:
        def to_matrix(self):
            return mod.inner(0)

    mod.inner, mod.outer, mod.Model = inner, outer, Model
    pkg.layer = mod
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.layer", mod)
    return mod


def test_tracer_nests_spans_and_tags_the_design(fake_package, monkeypatch):
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    monkeypatch.setattr(spans, "DESIGN_SPAN", "layer.outer")
    layers = [("layer", "outer"), ("layer", "inner"), ("layer", "Model.to_matrix")]
    assert tracer.install("fakepkg", layers) == []

    assert fake_package.outer(None, 0.5, 7) == 16
    assert fake_package.Model().to_matrix() == 1
    tracer.uninstall()
    assert fake_package.outer.__name__ == "outer"
    assert not hasattr(fake_package.outer, "__wrapped__")

    records = spans.load(tracer.dump())
    names = [s["name"] for s in records]
    assert names == ["layer.outer", "layer.inner", "layer.inner",
                     "layer.Model.to_matrix", "layer.inner"]
    assert [s["parent"] for s in records] == [None, 0, 0, None, 3]
    assert [s["design"] for s in records][:3] == [(7, 0.5)] * 3
    assert records[3]["design"] is None
    # outer runs from tick 0 to 5 and its two children take one tick each
    assert spans.self_times(records)[0] == 5.0 - 2.0


def test_missing_names_are_absent_and_do_not_fail(fake_package):
    tracer = spans.Tracer()
    layers = [("layer", "inner"), ("layer", "gone"), ("layer", "Model.gone"),
              ("layer", "Gone.method"), ("nomodule", "f")]
    absent = tracer.install("fakepkg", layers)
    assert absent == ["layer.gone", "layer.Model.gone", "layer.Gone.method", "nomodule.f"]
    assert fake_package.inner(1) == 2
    tracer.uninstall()
    assert [s["name"] for s in tracer.spans] == ["layer.inner"]


def test_benchmark_json_matches_the_emitted_metrics():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)


def test_checks_reject_bad_output(tmp_path):
    table = tmp_path / "t.csv"
    table.write_text("angle_deg,gain\n0,1\n1,nan\n")
    with pytest.raises(checks.CheckError, match="non-finite"):
        checks.read_table(table, checks.PATTERN_COLUMNS)
    reference = [[0.4, 0.0, 5.0, 1.0, 9.0, 0.6, 41.0]]
    checks.compare_to_reference([[0.4, 0.0, 5.0 * (1 + 1e-12), 1.0, 9.0, 0.6, 41.0]], reference)
    with pytest.raises(checks.CheckError, match="mean_iterations"):
        checks.compare_to_reference([[0.4, 0.0, 5.0, 1.0, 9.0, 0.6, 41.05]], reference)
    angles = [-40.0 + 0.5 * k for k in range(161)]
    peaked = [[a, -min(abs(a - t) for t in (-30.0, 0.0, 30.0))] for a in angles]
    assert checks.check_peaks(peaked, [-30.0, 0.0, 30.0]) == [0.0, 0.0, 0.0]
    with pytest.raises(checks.CheckError, match="beam peak"):
        checks.check_peaks([[a, -abs(a - 5.0)] for a in angles], [-30.0, 0.0, 30.0])


TINY = {
    "sweep_ref": dict(trials=2, counted=2),
    "sweep_workers": dict(trials=2, counted=1),
    "pattern_fine": dict(trials=2, counted=2, grid_deg=(-90.0, 90.0, 0.05)),
}


@pytest.mark.parametrize("name,trace", [
    ("sweep_ref", False), ("sweep_workers", False), ("pattern_fine", False),
    ("sweep_ref", True),
])
def test_tiny_workload_passes_its_output_check(name, trace, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    workload = dataclasses.replace(run.WORKLOADS[name], **TINY[name])
    if workload.command == "rate-sweep":
        reference = run.REFERENCE_DIR / f"rate_sweep_seed{run.REFERENCE_SEED}_trials2.csv"
        assert reference.is_file()
    result, env_block = run.run_workload(workload, run.REFERENCE_SEED, seconds=0.0,
                                         trace=trace, min_reps=1)
    assert env_block["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [metric for metric, _ in wanted]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["cli.design_trial.calls"] == workload.designs
        assert values["altmin.alternating_minimization.calls"] == workload.designs
        assert values["altmin.iterations"] > 0
        assert values["trace.absent"] == len(env_block["trace_absent"])
    else:
        assert values["ok_frac"] == 1.0 and values["iterations_mean"] > 0
        assert values["wall_s"] > 0 and values["setup_s"] > 0


def test_reference_mismatch_fails_the_run(tmp_path, monkeypatch):
    name = f"rate_sweep_seed{run.REFERENCE_SEED}_trials2.csv"
    lines = (run.REFERENCE_DIR / name).read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-6))
    lines[1] = ",".join(cells)
    (tmp_path / name).write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(run, "REFERENCE_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    workload = dataclasses.replace(run.WORKLOADS["sweep_ref"], trials=2, counted=1)
    result, env_block = run.run_workload(workload, run.REFERENCE_SEED, seconds=0.0,
                                         trace=False, min_reps=1)
    assert not result["correct"] and result["failed"] == 1
    assert "mean_rate" in env_block["failures"][0]
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_run_fails_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sweep_ref", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
