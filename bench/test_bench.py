"""Smoke test of the benchmark at toy sizes.

Run from the repository root with ``python3 -m pytest bench -q``.  The toy
configs shrink every workload to well under a second per run; where a gate
is statistical at that size its tolerance is opened up, because these tests
check the benchmark's plumbing, not rvlab's limit theorems.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = run  # dataclasses resolve annotations through it
_spec.loader.exec_module(run)

CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TOY = {
    "theta-xi": run.Workload(
        {
            "experiment": "theta-variation", "dimension": 3, "hurst": 0.45,
            "grid_sizes": [256], "replications": 4, "params": {"xi_draws": 200},
            "tolerances": {"rel_err_final": 1.0},
        },
        seed=105,
    ),
    "kernel-check": run.Workload(
        {"experiment": "kernel-check", "hurst": 0.3, "params": {"lattice": 2}}, seed=None
    ),
}


def _invoke(capsys, *args: str) -> tuple[int, list[str]]:
    code = run.main(["--seconds", "0", *args])
    return code, capsys.readouterr().out.splitlines()


def test_contract_names_match_the_benchmark():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == run.PER_LAYER_UNITS
    assert CONTRACT["paths"] == ["bench"]


@pytest.mark.parametrize(
    "workload, trace",
    [("theta-xi", "0"), ("kernel-check", "0"), ("theta-xi", "1"), ("kernel-check", "1")],
)
def test_every_metric_is_emitted_with_its_unit(monkeypatch, capsys, workload, trace):
    monkeypatch.setattr(run, "WORKLOADS", TOY)
    code, lines = _invoke(capsys, "--workload", workload, "--trace", trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    units = run.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    info = json.loads(lines[-2])["provenance"]
    assert info["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert info["fail_ratio"] == 0.0
    assert all(g > 0 for g in info["samples"]["gauge_s"])
    if trace == "1":
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95
    else:
        assert all(result["metrics"][k]["value"] > 0 for k in units)


def test_output_check_trips_on_altered_report():
    result = run.run_child(TOY["kernel-check"].config, 1)
    assert result is not None
    check = run.OutputCheck()
    check(result, "first")
    check(dict(result), "same bytes")
    assert check.failed == 0
    digit = next(c for c in result["report"] if c in "123456789")
    altered = dict(result, report=result["report"].replace(digit, "0", 1))
    check(altered, "altered")
    check(dict(result, flags={"reproduction_ok": False}), "false flag")
    check(None, "raised")
    assert check.attempted == 5 and check.failed == 3
    assert "differ" in check.problems[0]


def test_failed_gate_is_counted(monkeypatch, capsys):
    failing = run.Workload(
        {"experiment": "kernel-check", "hurst": 0.3, "params": {"lattice": 2},
         "tolerances": {"rel_err_max": 1e-300}},
        seed=None,
    )
    monkeypatch.setattr(run, "WORKLOADS", {"kernel-check": failing})
    code, lines = _invoke(capsys, "--workload", "kernel-check")
    result = json.loads(lines[-1])
    assert code == 0 and not result["correct"]
    assert result["failed"] == result["attempted"] >= 4


def test_refuses_without_rvlab_sources(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code, lines = _invoke(capsys, "--workload", "kernel-check")
    assert code != 0 and lines == []
