"""Fast self-test of the benchmark on tiny inputs.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result, detail = run.measure(workload, seed=3, seconds=1, trace=trace, size="tiny")
    declared = {m["name"]: m["unit"] for m in run.declared(trace)}
    assert set(result["metrics"]) <= set(declared)  # nothing computed goes unreported
    out = run.render(result, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert {name: m["unit"] for name, m in out["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())
        for r in detail["repetitions"]:  # kernel runs in the worker, beside the work
            assert len(r["kernel_s"]) >= 2
            scale = [calibrate.REF_S / k for k in r["kernel_s"]]
            assert min(scale) * 0.999 < r["ref_wall_s"] / r["wall_s"] < max(scale) * 1.001
            assert r["setup_s"] == pytest.approx(r["raw_setup_s"] * scale[0])
    assert detail["seed"] == 3


def test_reference_seconds_scale_each_part_by_the_kernel_runs_around_it():
    ref = calibrate.REF_S
    got = calibrate.reference_seconds([1.0, 2.0], [ref, ref, 2 * ref])
    assert got == pytest.approx(1.0 + 2.0 / 1.5)


def corrupt(expected, workload):
    want = expected[workload]
    if workload in ("check_ladder", "check_deficient"):
        want["ops"][0]["digest"] = "0" * 16
    elif workload == "survey_symmetric":
        want["digest"] = "0" * 16
    else:
        want["rules"]["symmetric_hs"] += 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_a_corrupted_expectation_counts_as_failed(workload):
    expected = copy.deepcopy(run.load_json(run.HERE, "expected.json")["tiny"])
    corrupt(expected, workload)
    result, _ = run.measure(workload, seed=3, seconds=1, trace=False, size="tiny", expected=expected)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_check_inputs_are_seeded_relabelings():
    first = worker.build_inputs("check_ladder", 7, "full")
    assert first == worker.build_inputs("check_ladder", 7, "full")
    for (a, m), (k, m1) in zip(first, worker.LADDER["full"]):
        assert sorted(zip(a, m)) == sorted(zip((k, k + 1, k + 2, k + 3), (m1, 1, 1, 1)))
    seeds = {json.dumps(worker.build_inputs("check_ladder", s, "full")) for s in range(5)}
    assert len(seeds) > 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check_ladder", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
