"""Self-test of the benchmark, at reduced input sizes.

    python3 -m pytest perfbench -q

Checks that every workload runs once, timed and traced, with every metric
``BENCHMARK.json`` names emitted under its unit, and that a one-byte flip
in an artifact fails the artifact check and counts toward the failure
ratio.  Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from check import CheckFailed, artifact_paths, check_artifacts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_quick(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_are_the_declared_ones():
    assert [(w.name, w.why) for w in WORKLOADS.values()] == [
        (w["name"], w["why"]) for w in SPEC["workloads"]
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run_quick(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace and workload == "memory_warm":
        assert result["metrics"]["core.cache.hit_ratio"]["value"] == 1.0
    if trace and workload == "reticle_stream":
        assert result["metrics"]["pec.correct_s"]["value"] == 0


def _flip(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("kind", [0, 1], ids=["ebj", "ebp"])
def test_flipped_byte_fails_the_check_and_counts(tmp_path, monkeypatch, kind):
    workload = WORKLOADS["fzp_pec"]
    bench = run.Bench(workload, seed=0, quick=True, work=tmp_path)
    bench.inputs = workload.generate(0, tmp_path, True)
    good = bench.prep(None, keep=True)
    assert good.ok, good.reason

    copy = tmp_path / "copy"
    shutil.copytree(good.out_dir, copy)
    _flip(artifact_paths(copy, workload.machine)[kind])
    with pytest.raises(CheckFailed):
        check_artifacts(workload, bench.inputs, copy, good.stdout,
                        bench.digests, warm=False)

    # The same flip between the CLI's exit and the check, through the
    # runner's own accounting.
    launch = run.launch

    def launch_then_flip(argv, stdout, stderr):
        result = launch(argv, stdout, stderr)
        out_dir = Path(argv[argv.index("--output") + 1]).parent
        _flip(artifact_paths(out_dir, workload.machine)[kind])
        return result

    monkeypatch.setattr(run, "launch", launch_then_flip)
    bad = bench.prep(None)
    assert not bad.ok and "sha256" in bad.reason
    assert run.fail_ratio([good]) == 0.0
    assert run.fail_ratio([good, bad]) == 0.5
    metrics = run.end_to_end_metrics([good, bad], [1.0], 1.0)
    assert metrics["ok_ratio"] == (0.5, "ratio")
