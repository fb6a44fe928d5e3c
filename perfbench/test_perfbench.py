"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_runs_every_workload_traced_and_untraced():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=HERE.parent, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[-1])["smoke"] is True
    assert sum("correct=True" in line for line in lines) == 8


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in ("run.py", "workloads.py", "tracing.py"):
        (tmp_path / "perfbench" / f).write_text((HERE / f).read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mis-local",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_failed_verification_is_counted_and_the_run_goes_on(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    import dataclasses

    import harness
    import workloads

    wl = dataclasses.replace(workloads.WORKLOADS["mis-local"], instances=2,
                             verify=lambda *args: (None, "rejected"))
    run = harness.Run(wl, seed=1, seconds=0, trace=0, smoke=True)
    run.execute()
    result = run.result(dict.fromkeys(run.end_to_end(), "s"))
    assert result["attempted"] == result["failed"] == 4
    assert result["correct"] is False
    assert run.failures == [f"{kind} solve of instance {i}: rejected"
                            for i in (0, 1) for kind in ("checked", "unchecked")]
