"""Self-test of the end-to-end benchmark at smoke scale (about 30 s)::

    python -m pytest perfbench/test_run_smoke.py -q

Runs every workload untraced and traced for one second each and checks
the report against ``BENCHMARK.json`` and against where each layer's work
should, and should not, appear.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]
WRITERS = {"write_durable", "mixed_replicated"}
MIXED_ONLY = ["sched.admit", "sched.run", "exec.parallel",
              "replication.poll", "replication.serve"]


def bench(run_py: str, name: str, trace: int):
    return subprocess.run(
        [sys.executable, run_py, "--workload", name, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def results():
    out = {}
    for name in NAMES:
        for trace in (0, 1):
            proc = bench(os.path.join(HERE, "run.py"), name, trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            out[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_reported_and_no_errors(results, name, trace):
    r = results[name, trace]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in r["metrics"].items()
    }
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1


@pytest.mark.parametrize("name", NAMES)
def test_layers_run_where_predicted(results, name):
    m = {k: v["value"] for k, v in results[name, 1]["metrics"].items()}
    if name == "read_hot":
        assert m["exec.compile.calls_per_op"] == 0  # plan cache hits only
    if name == "read_adhoc":
        assert m["exec.compile.calls_per_op"] > 0
    assert (m["semantics.machine.calls_per_op"] > 0) == (name in WRITERS)
    for layer in MIXED_ONLY:
        assert (m[f"{layer}.calls_per_op"] > 0) == (name == "mixed_replicated")
    # the self times partition the traced operations' wall time
    assert 95 <= m["trace_coverage_pct"] <= 105


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(str(tmp_path / "perfbench" / "run.py"), NAMES[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
