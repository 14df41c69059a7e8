"""The benchmark's own test: every workload at smoke size, in seconds.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric(workload, trace):
    done = _bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name
    if trace and workload == "long":  # ``flaky`` fails every third cycle
        assert result["metrics"]["agents.sample_failures"]["value"] > 0
    assert not (ROOT / ".bench_work").exists()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _bench(tmp_path, "wide", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_failed_operation_gives_no_metrics(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    with open(tmp_path / "src" / "driftmark" / "reporting.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef emit(*args, **kwargs):\n    raise RuntimeError('broken emit')\n")
    done = _bench(tmp_path, "wide", 0)
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1 and result["metrics"] == {}
    detail = json.loads(done.stdout.strip().splitlines()[-2])["detail"]
    assert "broken emit" in detail["runs"][0]["failures"][0]


def test_generator_span_covers_iteration_not_consumer():
    tracer = Tracer()

    def produce(n):
        for i in range(n):
            time.sleep(0.02)
            yield i

    items = tracer.wrap_generator("gen", produce)
    with tracer.span("outer"):
        for _ in items(3):
            time.sleep(0.05)
    (gen,) = [row for row in tracer.dump() if row["name"] == "gen"]
    (outer,) = [row for row in tracer.dump() if row["name"] == "outer"]
    assert gen["calls"] == 1 and gen["parent"] == "outer"
    assert 0.06 <= gen["total_s"] < 0.12
    assert outer["total_s"] - outer["self_s"] == pytest.approx(gen["total_s"])
