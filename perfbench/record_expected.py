"""Record perfbench/expected.json from the current sources.

Usage: python3 perfbench/record_expected.py

Run once, at the commit that defines the benchmark, and review the diff:
the recorded digests are the reference every later run is checked against,
so re-recording them to make a failing run pass defeats the check.
"""

import json
import os
import time

from run import HERE, OUT_DIR, WORKLOADS, config, spawn


def entry(workload, summary):
    if workload in ("check_ladder", "check_deficient"):
        return {"ops": [{"digest": op["digest"], "witnesses": op["witnesses"]} for op in summary["ops"]]}
    if workload == "survey_symmetric":
        return {"rows": summary["rows"], "digest": summary["digest"]}
    return {"rules": summary["rules"]}


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    expected = {}
    for size in ("full", "tiny"):
        expected[size] = {}
        for workload in WORKLOADS:
            result = spawn(config(workload, 0, size), time.monotonic() + 600)
            expected[size][workload] = entry(workload, result["summary"])
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
