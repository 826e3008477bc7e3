"""The benchmark's own smoke tests, on tiny inputs pinned in a temporary
digests file:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def run(*args, cwd=None):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd or HERE.parent, capture_output=True,
                          text=True, timeout=600, check=False)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    path = tmp_path_factory.mktemp("pins") / "digests.json"
    for name in NAMES:
        proc = run("--workload", name, "--tiny", "--pin",
                   "--digests", str(path))
        assert proc.returncode == 0, proc.stderr
    return path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_metrics_match_benchmark_json(digests, name, trace):
    out = result(run("--workload", name, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--tiny", "--digests",
                     str(digests)))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) for v in out["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_altered_digest_fails_every_op(digests, name, tmp_path):
    pins = json.loads(digests.read_text())
    key = f"{name}-tiny"
    pins[key] = [("f" if d[0] != "f" else "0") + d[1:] for d in pins[key]]
    altered = tmp_path / "altered.json"
    altered.write_text(json.dumps(pins))
    out = result(run("--workload", name, "--seed", "3", "--seconds", "0.5",
                     "--trace", "0", "--tiny", "--digests", str(altered)))
    assert not out["correct"]
    assert out["failed"] == out["attempted"] >= 1


def test_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", NAMES[0], "--seed", "0", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
