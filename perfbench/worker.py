"""One repetition of one benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json config>'

The config names the workload, seed, size ("full" or "tiny"), whether to
trace, the survey job count, whether to stop after set-up, the directory
for scratch files and, for a check workload, which of its specs to run
(all of them when "ops" is null).  The worker imports lefschetz from the
checkout's src/, builds the seeded inputs, runs the timed phase through the
public API or the CLI entry point lefschetz.cli.main, and prints one JSON
line: the monotonic time at which set-up ended, the kernel times
(calibrate.py: one right after set-up, one after each part of the timed
phase), the timed-phase wall time in seconds and in reference seconds, the
peak RSS and a per-operation summary that run.py checks against
expected.json.  Cold caches are the point: every lru_cache starts empty, as
in a real `lefschetz` invocation.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (k, m1) rungs of a = (k, k+1, k+2, k+3), m = (m1, 1, 1, 1): symmetric
# series, so every rung has the strong Lefschetz property; socle 3k + 2 + m1.
# The rungs stop at socle 24 so that one repetition takes a few seconds and
# a run's median has several repetitions behind it.
LADDER = {
    "full": [(2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)],
    "tiny": [(2, 1), (3, 1)],
}
# specs without the strong Lefschetz property, so the exact fallback runs
DEFICIENT = {
    "full": [
        ((6, 6, 6, 6), (2, 2, 2, 2)),
        ((7, 7, 7, 7), (2, 2, 2, 2)),
        ((7, 7, 7, 7), (3, 3, 3, 3)),
        ((4, 4, 4, 4, 4), (1, 1, 1, 1, 1)),
        ((7, 7, 7, 7), (1, 1, 1, 1)),
    ],
    "tiny": [((3, 3, 3), (1, 1, 1)), ((3, 3, 3, 3), (1, 1, 1, 1))],
}
SURVEY_GRID = {
    "full": {"family": "symmetric", "n": [2, 4], "max_socle": 8},
    "tiny": {"family": "symmetric", "n": [2, 3], "max_socle": 4},
}
CLASSIFY_GRID = {
    "full": {"family": "symmetric", "n": [2, 4], "max_socle": 13},
    "tiny": {"family": "symmetric", "n": [2, 3], "max_socle": 6},
}
# the classification loop is timed in this many parts, with a kernel run
# between them, so a speed change of the host within one repetition is
# matched against kernel runs close to it
CLASSIFY_SEGMENTS = 8


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def relabel(rng, a, m):
    """Seeded permutation of the variables; every check is invariant under it."""
    perm = list(range(len(a)))
    rng.shuffle(perm)
    return [a[k] for k in perm], [m[k] for k in perm]


def build_inputs(workload, seed, size):
    rng = random.Random(seed)
    if workload == "check_ladder":
        specs = [((k, k + 1, k + 2, k + 3), (m1, 1, 1, 1)) for k, m1 in LADDER[size]]
        return [relabel(rng, a, m) for a, m in specs]
    if workload == "check_deficient":
        return [relabel(rng, a, m) for a, m in DEFICIENT[size]]
    if workload == "survey_symmetric":
        return json.dumps(SURVEY_GRID[size])
    if workload == "classify_grid":
        from lefschetz import classify

        specs = classify.grid_from_json(CLASSIFY_GRID[size])
        rng.shuffle(specs)
        return specs
    raise ValueError(f"unknown workload {workload!r}")


def call_cli(argv):
    """lefschetz.cli.main(argv) with its stdout captured; never raises."""
    from lefschetz import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is one failed operation, not a dead run
        return f"raised {type(exc).__name__}: {exc}", buf.getvalue()
    return rc, buf.getvalue()


def run_check(specs, cfg):
    if cfg.get("ops") is not None:
        specs = [specs[k] for k in cfg["ops"]]
    timed = []
    for a, m in specs:
        start = time.perf_counter()
        rc, out = call_cli(["--json", "check", json.dumps({"a": a, "m": m})])
        timed.append((time.perf_counter() - start, a, m, rc, out))
    return timed


def summarize_check(timed):
    from lefschetz import MaciSpec

    ops = []
    for seconds, a, m, rc, out in timed:
        op = {"s": seconds, "rc": rc, "socle": MaciSpec(a, m).socle_degree()}
        if rc == 0:
            report = json.loads(out)
            records = sorted((r["i"], r["t"], r["rank"]) for r in report["maps"])
            op.update(
                digest=digest(records),
                wlp=report["wlp"],
                slp=report["slp"],
                witnesses=sorted(report["witnesses"]),
            )
        ops.append(op)
    return {"ops": ops}


def run_survey(grid, cfg):
    out = os.path.join(cfg["out_dir"], f"survey-{os.getpid()}.json")
    rc, _ = call_cli(["--jobs", str(cfg["jobs"]), "survey", grid, "--out", out])
    return [(rc, out)]


def summarize_survey(timed):
    ((rc, out),) = timed
    rows = []
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            rows = json.load(fh)
        os.remove(out)
    ms = [row.pop("ms") for row in rows]
    return {
        "rc": rc,
        "rows": len(rows),
        "disagreeing": sum(1 for row in rows if row["agreement"] is not True),
        "digest": digest(rows),
        "busy_s": sum(ms) / 1000.0,
        "row_p50_ms": statistics.median(ms) if ms else 0.0,
        "row_p99_ms": statistics.quantiles(ms, n=100)[98] if len(ms) > 1 else 0.0,
    }


def run_classify(specs, cfg):
    """The rule of each spec's verdict; None where it raised or was not SLP."""
    from lefschetz import classify

    rules = []
    for spec in specs:
        try:
            verdict = classify.classify_maci(spec)
        except Exception:  # HypothesisViolation or worse: one failed spec
            verdict = None
        rules.append(verdict.rule if verdict is not None and verdict.slp is True else None)
    return rules


def summarize_classify(timed):
    rules = {}
    for rule in timed:
        if rule is not None:
            rules[rule] = rules.get(rule, 0) + 1
    return {"specs": len(timed), "failed": timed.count(None), "rules": rules}


RUNNERS = {
    "check_ladder": (run_check, summarize_check),
    "check_deficient": (run_check, summarize_check),
    "survey_symmetric": (run_survey, summarize_survey),
    "classify_grid": (run_classify, summarize_classify),
}


def segments(workload, inputs):
    """The timed phase's inputs, cut into the parts timed one by one."""
    if workload != "classify_grid":
        return [inputs]
    size = -(-len(inputs) // CLASSIFY_SEGMENTS)
    return [inputs[k : k + size] for k in range(0, len(inputs), size)]


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def main(cfg):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from calibrate import kernel_time, reference_seconds
    import lefschetz.cli  # noqa: F401  (set-up includes the package and CLI import)

    tracer = None
    if cfg["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = build_inputs(cfg["workload"], cfg["seed"], cfg["size"])
    # the survey's work runs in a pool of cfg["jobs"] workers
    jobs = cfg["jobs"] if cfg["workload"] == "survey_symmetric" else 1
    result = {"setup_end": time.monotonic(), "kernel_s": [kernel_time(jobs)]}
    if cfg["setup_only"]:
        return result
    run, summarize = RUNNERS[cfg["workload"]]
    timed = []
    segment_s = []
    kernel_s = result["kernel_s"]
    for part in segments(cfg["workload"], inputs):
        start = time.perf_counter()
        timed += run(part, cfg)
        segment_s.append(time.perf_counter() - start)
        kernel_s.append(kernel_time(jobs))
    result["wall_s"] = sum(segment_s)
    result["ref_wall_s"] = reference_seconds(segment_s, kernel_s)
    result["peak_rss_mb"] = peak_rss_mb()
    result["summary"] = summarize(timed)
    if tracer is not None:
        path = os.path.join(cfg["out_dir"], f"spans-{cfg['workload']}.npz")
        tracer.write(path)
        result["spans"] = path
        result["counts"] = tracer.counts()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
