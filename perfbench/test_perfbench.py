"""Smoke tests of the benchmark harness, on the reduced inputs of ``--smoke``."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(capsys, workload, trace, seed=1):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--smoke"]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_names_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(capsys, workload, trace):
    line = bench(capsys, workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in line["metrics"].items()}
            == {m["name"]: m["unit"] for m in group})
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_wrong_expected_exit_code_shows_in_fail_share(capsys, monkeypatch):
    workload = run.WORKLOADS["tomo-bootstrap"]
    monkeypatch.setitem(run.WORKLOADS, "tomo-bootstrap",
                        dataclasses.replace(workload, expected_exit=2))
    line = bench(capsys, "tomo-bootstrap", 0)
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] >= 1
    record = json.loads((run.RESULTS / "tomo-bootstrap-smoke-seed1-trace0.json")
                        .read_text(encoding="utf-8"))
    assert record["fail_share"] == 1.0
    assert "exit code 0, expected 2" in record["failures"][0]["problems"]


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    monkeypatch.setattr(spans, "WRAPPED", (("qkdlab.cli.no_such_function", "cli.gone"),
                                           ("qkdlab.no_such_module.f", "gone.f")))
    tracer = spans.Tracer()
    tracer.install()
    summary = tracer.summary()
    assert summary["absent"] == ["cli.gone", "gone.f"]
    assert summary["calls"] == {} and summary["unavailable"] == {}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tomo-bootstrap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
