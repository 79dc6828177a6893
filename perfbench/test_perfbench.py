"""Tests of the benchmark itself: ``python -m pytest perfbench``.

Each workload runs in smoke mode (tiny inputs) in its own process, and the
result line must carry exactly the metrics BENCHMARK.json declares, each
with its declared unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, smoke: bool = True):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "pipeline_n1", 0, smoke=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_times_add_up_to_the_root():
    tr = Tracer(spans=True)
    with tr.span("root") as root:
        with tr.span("a"):
            with tr.span("b"):
                pass
        with tr.span("c"):
            pass
    selft = tr.self_times(root)
    assert set(selft) == {0, 1, 2, 3}
    assert sum(selft.values()) == pytest.approx(tr.ends[0] - tr.starts[0], rel=1e-9)
    assert all(s >= 0.0 for s in selft.values())


def test_wrapper_counts_failures_by_cause_and_restores():
    import types

    class BrokenError(Exception):
        level = 2

    def fails():
        raise BrokenError("no")

    mod = types.SimpleNamespace(fails=fails)
    sys.modules["perfbench_fake_mod"] = mod
    try:
        tr = Tracer(spans=False)
        tr.wrap("perfbench_fake_mod.fails", "fake.fails")
        with pytest.raises(BrokenError):
            mod.fails()
        assert tr.calls["fake.fails"] == 1
        assert tr.failures[("fake.fails", "BrokenError", 2)] == 1
        tr.uninstall()
        assert mod.fails is fails
    finally:
        del sys.modules["perfbench_fake_mod"]
