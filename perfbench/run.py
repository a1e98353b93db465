"""Benchmark of the lefschetz package: four workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload check_ladder --seed 1 --seconds 33 --trace 0

README.md says why each workload exists and which end-to-end metric each
per-layer metric should move.  Every repetition runs in a fresh interpreter
(worker.py), so all caches start cold as in a real `lefschetz` invocation.
With --trace 0 the run repeats the workload while the next repetition still
fits in --seconds and prints the medians of wall_s, setup_s and
peak_rss_mb; set-up also runs on its own a few times so that its median is
steady.  wall_s and setup_s are in reference seconds (calibrate.py).  A check
workload runs each spec in an interpreter of its own, as one `lefschetz
check` invocation would, round-robin over its specs; its wall_s is the sum
over the specs of each spec's median time.  With --trace 1 it makes one
untraced and one traced repetition and prints the per-layer metrics of
tracing.py.  Every output is checked against expected.json; an operation
(one spec or one survey row) whose check fails counts in `failed`.  The last
line of stdout is the result object; the line before it records the seed
and the raw repetitions.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from calibrate import REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("check_ladder", "check_deficient", "survey_symmetric", "classify_grid")
CHECKS = ("check_ladder", "check_deficient")
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever --seconds says
SETUP_PROBES = 2
SURVEY_JOBS = 2


def load_json(*parts):
    with open(os.path.join(*parts), encoding="utf-8") as fh:
        return json.load(fh)


def config(workload, seed, size, **override):
    """The worker's configuration: untraced, full repetition unless overridden."""
    cfg = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": False,
        "jobs": SURVEY_JOBS,
        "setup_only": False,
        "out_dir": OUT_DIR,
        "ops": None,
    }
    return {**cfg, **override}


def spawn(cfg, deadline):
    """Run one worker; its result, with its set-up time added, or None if it failed.

    setup_s is in reference seconds, scaled by the kernel run that follows
    set-up in the worker; raw_setup_s is in seconds.
    """
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(cfg)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except BaseException as exc:  # timeout or termination: take the worker's pool down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        print(f"worker timed out: {cfg}", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker failed ({proc.returncode}): {err[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["raw_setup_s"] = result["setup_end"] - t_spawn
    result["setup_s"] = result["raw_setup_s"] * REF_S / result["kernel_s"][0]
    return result


def check(workload, summary, expected, ops=None):
    """(attempted, failed) for one repetition; summary is None if it crashed.

    ops lists the specs a check workload's repetition ran (None: all).
    """
    want = expected[workload]
    if workload in CHECKS:
        indices = range(len(want["ops"])) if ops is None else ops
        got_ops = summary["ops"] if summary else []
        failed = 0
        for j, k in enumerate(indices):
            exp = want["ops"][k]
            got = got_ops[j] if j < len(got_ops) else {"rc": None}
            ok = (
                got["rc"] == 0
                and got["digest"] == exp["digest"]
                and got["witnesses"] == exp["witnesses"]
            )
            if workload == "check_ladder":
                # symmetric series, so the paper's theorem demands SLP
                ok = ok and got["wlp"] is True and got["slp"] is True and not got["witnesses"]
            failed += not ok
        return len(indices), failed
    if workload == "survey_symmetric":
        if summary is None:
            return want["rows"], want["rows"]
        attempted = max(want["rows"], summary["rows"])
        if summary["rc"] != 0 or summary["digest"] != want["digest"]:
            return attempted, attempted
        return attempted, summary["disagreeing"] + attempted - summary["rows"]
    # classify_grid: every spec classified with slp true, rule counts exact
    if summary is None:
        total = sum(want["rules"].values())
        return total, total
    got = summary["rules"]
    drift = sum(abs(got.get(r, 0) - want["rules"].get(r, 0)) for r in set(got) | set(want["rules"]))
    # a spec that raised drops out of its rule (drift 1); a misrouted spec moves (drift 2)
    failed = summary["failed"] + max(0, drift - summary["failed"] + 1) // 2
    return summary["specs"], min(summary["specs"], failed)


def survey_metrics(rep):
    summary = rep["summary"]
    return {
        "cli.survey.worker_busy_s": summary["busy_s"],
        "cli.survey.efficiency": summary["busy_s"] / (SURVEY_JOBS * rep["wall_s"]),
        "cli.survey.row_p50_ms": summary["row_p50_ms"],
        "cli.survey.row_p99_ms": summary["row_p99_ms"],
    }


def measure(workload, seed, seconds, trace, size="full", expected=None):
    """One benchmark run; returns (result object, detail object)."""
    if expected is None:
        expected = load_json(HERE, "expected.json")[size]
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    tally = {"attempted": 0, "failed": 0}
    reps = []

    def rep(**override):
        started = time.monotonic()
        res = spawn(config(workload, seed, size, **override), deadline)
        attempted, failed = check(workload, res and res["summary"], expected, override.get("ops"))
        tally["attempted"] += attempted
        tally["failed"] += failed
        if res is None:  # keep the elapsed time so a failed run still reports
            elapsed = time.monotonic() - started
            res = {"wall_s": elapsed, "ref_wall_s": elapsed, "setup_s": 0.0, "raw_setup_s": 0.0}
            res.update(peak_rss_mb=0.0, kernel_s=[])
        keys = ("wall_s", "ref_wall_s", "setup_s", "raw_setup_s", "peak_rss_mb", "kernel_s")
        reps.append({k: res[k] for k in keys})
        if override.get("ops") is not None:
            reps[-1]["ops"] = override["ops"]
        return res

    start = time.monotonic()
    if not trace:
        setups = []
        for _ in range(SETUP_PROBES):
            probe = spawn(config(workload, seed, size, setup_only=True), deadline)
            if probe is not None:
                setups.append(probe["setup_s"])
        # a check workload's repetition is one pass over its specs, one
        # interpreter each; any other workload's is one interpreter
        parts = [[k] for k in range(len(expected[workload]["ops"]))] if workload in CHECKS else [None]
        samples = [[] for _ in parts]
        while True:
            began = time.monotonic()
            for ops, got in zip(parts, samples):
                rep(ops=ops)
                got.append(reps[-1])
            took = time.monotonic() - began
            now = time.monotonic()
            if now - start + took > seconds or now + took > deadline:
                break
        # in reference seconds (calibrate.py): a slow spell of the host slows
        # the kernel runs beside the work as much as the work
        metrics = {
            "wall_s": sum(statistics.median(r["ref_wall_s"] for r in got) for got in samples),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
            "peak_rss_mb": max(statistics.median(r["peak_rss_mb"] for r in got) for got in samples),
        }
    else:
        plain = rep()
        serial = rep(jobs=1) if workload == "survey_symmetric" else plain
        traced = rep(trace=True, jobs=1)
        metrics = {"raw.wall_s": plain["wall_s"]}
        if plain["kernel_s"]:  # empty if the worker failed
            metrics["calib.kernel_s"] = statistics.median(plain["kernel_s"])
        if "spans" in traced:
            sys.path.insert(0, HERE)
            from tracing import summarize

            metrics.update(summarize(traced["spans"]))
            metrics.update(traced["counts"])
            metrics["trace.wall_s"] = traced["wall_s"]
            metrics["trace.overhead_frac"] = traced["wall_s"] / serial["wall_s"] - 1.0
        calls = metrics.get("oracle.matrix_rank.calls", 0)
        if calls:
            metrics["oracle.matrix_rank.full_frac"] = metrics.pop("oracle.matrix_rank.full") / calls
        if workload == "survey_symmetric" and "summary" in plain:
            metrics.update(survey_metrics(plain))
        if workload == "check_ladder" and "summary" in plain:
            for op in plain["summary"]["ops"]:
                metrics[f"check_ladder.socle_{op['socle']}_s"] = op["s"]
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": trace,
        "elapsed_s": time.monotonic() - start,
        "repetitions": reps,
    }
    return result, detail


def declared(trace):
    bench = load_json(ROOT, "BENCHMARK.json")
    return bench["per_layer" if trace else "end_to_end"]


def render(result, trace):
    """The result with exactly the declared metrics, each with its unit.

    Per-layer metrics that a workload never touches (the survey numbers on a
    check workload, say) are reported as 0.
    """
    values = result["metrics"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared(trace)}
    return {**result, "metrics": metrics}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lefschetz", "__init__.py")):
        print(f"no lefschetz sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(render(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
