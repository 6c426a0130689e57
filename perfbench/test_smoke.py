"""Smoke tests for the benchmark itself.

    python -m pytest perfbench -q

A tiny run of each workload must print every named metric with its
unit, the output checks must fail on a wrong expected answer, and the
benchmark must refuse to run outside a vidb checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed, IngestStanding, check_rows  # noqa: E402


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_manifest_matches_the_tables():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == bench.manifest()


def test_every_layer_metric_names_what_it_should_move():
    for name, unit, better, moves in layers.LAYER_METRICS:
        assert moves and better in ("lower", "higher"), name


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = (bench.END_TO_END if trace == "0" else layers.LAYER_METRICS)
    expected = {row[0]: row[1] for row in table}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name


def test_check_rows_rejects_a_wrong_answer():
    check_rows("q", [["e1", "g2"]], [["e1", "g2"]])
    with pytest.raises(CheckFailed):
        check_rows("q", [["e1", "g2"]], [["e1", "g3"]])
    with pytest.raises(CheckFailed):
        check_rows("q", [["e1", "g2"]], [])


def test_push_check_rejects_wrong_rows_and_gaps():
    pushes = [{"seq": 1, "rows": [["o1", "gi1"]]},
              {"seq": 2, "rows": [["o1", "gi4"]]}]
    IngestStanding.check_pushes([["o1", "gi1"], ["o1", "gi4"]], pushes)
    with pytest.raises(CheckFailed):
        IngestStanding.check_pushes([["o1", "gi1"]], pushes)
    with pytest.raises(CheckFailed):
        IngestStanding.check_pushes(
            [["o1", "gi1"], ["o1", "gi4"]],
            [pushes[0], dict(pushes[1], seq=3)])


def test_a_wrong_reference_fails_the_run(monkeypatch):
    real = workloads.answer_rows

    def wrong(answers):
        return real(answers)[1:]

    monkeypatch.setattr(workloads, "answer_rows", wrong)
    with pytest.raises(CheckFailed):
        bench.run("hot_reads", seed=3, seconds=0.2, trace=False)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "hot_reads", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
