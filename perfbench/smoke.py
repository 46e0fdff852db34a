#!/usr/bin/env python3
"""Seconds-long smoke check of the benchmark, run from the checkout root:

    python3 perfbench/smoke.py

Runs every workload at the small size for one second, untraced and traced,
and asserts that:
  * the result line carries exactly the metrics BENCHMARK.json declares for
    the mode, each with its declared unit, and reports no failed check;
  * the report line carries every end-to-end metric of the workload with
    its unit, and error_rate is 0;
  * the workloads do what they were chosen for: the flow cache serves
    fwd_hot (hit ratio >= 0.9) and not fwd_cold (<= 0.05), the XGW-H burst
    costs more per packet on fwd_cold than on fwd_hot, x86_churn changes
    checked verdicts mid-vector, and region_day drives incremental
    placement.
Exits 0 when every assertion holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# End-to-end metrics each workload must report (report line), by name.
REPORTED = {
    "fwd_cold": ["fwd_mpps", "rx_vec_p50_us", "rx_vec_p99_us"],
    "fwd_hot": ["fwd_mpps", "rx_vec_p50_us", "rx_vec_p99_us"],
    "x86_churn": ["fwd_mpps", "rx_vec_p50_us", "rx_vec_p99_us",
                  "update_ops_per_s", "update_apply_p99_us"],
    "region_day": ["update_ops_per_s", "update_apply_p99_us",
                   "intervals_per_s", "interval_p99_us", "probe_mpps"],
}
COMMON = ["setup_s", "peak_rss_mb", "error_rate", "steps_per_s", "step_p99_us"]


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--size", "small"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {done.returncode}\n"
                 f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    report = json.loads(next(l for l in lines if l.startswith('{"report"')))
    return report["report"], json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)

    per_layer = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            report, result = run(workload, trace)
            tag = f"{workload} trace={trace}"
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], f"{tag}: result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0, f"{tag}: not correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            expect(got == want, f"{tag}: metric set/units differ from "
                                f"BENCHMARK.json: {set(got) ^ set(want)}")
            metrics = report["metrics"]
            for name in REPORTED[workload] + COMMON:
                expect(name in metrics and metrics[name]["unit"]
                       and metrics[name]["value"] is not None,
                       f"{tag}: report lacks {name}")
            expect(metrics["error_rate"]["value"] == 0, f"{tag}: error_rate")
            if trace:
                per_layer[workload] = {k: v["value"]
                                       for k, v in result["metrics"].items()}

    hit = "dataplane.flow_cache.hit_ratio"
    walk = "xgwh.batch.ns_per_pkt"
    expect(per_layer["fwd_hot"][hit] >= 0.9, f"fwd_hot {hit} < 0.9")
    expect(per_layer["fwd_cold"][hit] <= 0.05, f"fwd_cold {hit} > 0.05")
    expect(per_layer["fwd_cold"][walk] > per_layer["fwd_hot"][walk],
           f"{walk} not higher on fwd_cold than on fwd_hot")
    expect(per_layer["x86_churn"]["oracle.midstream_changes"] > 0,
           "x86_churn changed no checked verdict mid-vector")
    expect(per_layer["region_day"]["asic.placement.delta_applies"] > 0,
           "region_day made no incremental placement")
    for problem in problems:
        print(f"FAIL {problem}")
    if problems:
        sys.exit(1)
    print("smoke: all workloads report every metric, error_rate 0, and the "
          "workload predictions hold")


if __name__ == "__main__":
    main()
