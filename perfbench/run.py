#!/usr/bin/env python3
"""The repository benchmark: builds the workload runner from source and
runs one workload, or a report over several runs of every workload.

One run (the interface BENCHMARK.json declares):

    python3 perfbench/run.py --workload fit --seed 1 --seconds 10 --trace 0

prints the workload's readings and, as the last line of stdout, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.

Report (the thirteen headline end-to-end metrics, with unit,
direction, sample count, median and quartiles, plus host metadata;
also written to .bench_build/perfbench_report.json):

    python3 perfbench/run.py --report --runs 5 --seconds 10

Self-tests of the benchmark's own rules:

    python3 perfbench/run.py --selftest

Run from the root of a checkout. Everything the benchmark writes goes
under .bench_build/ there.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
SCRATCH_DIR = os.path.join(BUILD_ROOT, "tmp")
WORKLOADS = ("fit", "stream", "serve_online", "serve_bulk")
# A workload process that runs longer than this is stopped and the run
# fails; the benchmark contract allows 180 s per run.
RUN_TIMEOUT_S = 170
# A traced run of a workload also runs the traced companion workload
# and takes from it the per-layer metrics it does not exercise itself,
# so that the traced runs of BENCHMARK.json's two workloads cover every
# layer: fit gets the streaming layers, serve_online the bulk-scoring
# ones. The companion gets a third of the measured time.
TRACE_COMPANION = {"fit": "stream", "serve_online": "serve_bulk"}

# Report rows: the headline end-to-end metrics, each read from one
# workload's record ("e2e" or "named" group) with its direction.
REPORT_METRICS = [
    ("*", "e2e", "setup_s", "lower"),
    ("*", "e2e", "peak_rss_mb", "lower"),
    ("fit", "named", "fit_vanilla_s", "lower"),
    ("fit", "named", "fit_sbrl_s", "lower"),
    ("fit", "named", "fit_hap_s", "lower"),
    ("fit", "named", "pehe_ood", "lower"),
    ("stream", "named", "stream_rows_per_s", "higher"),
    ("serve_online", "named", "serve_p50_ms", "lower"),
    ("serve_online", "named", "serve_tail_ms", "lower"),
    ("serve_online", "named", "serve_max_rps", "higher"),
    ("serve_bulk", "named", "bulk_f64_rows_per_s", "higher"),
    ("serve_bulk", "named", "bulk_f32_rows_per_s", "higher"),
    ("serve_bulk", "named", "bulk_gated_rows_per_s", "higher"),
]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds `targets`; exits non-zero on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no library sources next to perfbench/ "
            "(run from a full checkout)")
        sys.exit(2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] +
                 list(targets))
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(step))
            sys.exit(3)


def run_workload(workload, seed, seconds, trace, env_extra=None):
    """Runs the C++ workload runner once and returns its JSON record."""
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    env = dict(os.environ)
    env.update(env_extra or {})
    cmd = [os.path.join(BUILD_DIR, "perfbench"), workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace",
           "1" if trace else "0", "--scratch", SCRATCH_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        sys.exit(4)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("perfbench: workload runner exited with %d" % done.returncode)
        sys.exit(5)
    return json.loads(lines[-1])


def add_lane_speedup(record):
    """Traced fit only: refits at the host's lane count in a second
    process and reports, per family, fit wall time at the run's lanes
    (one, see src/main.cc) over fit wall time at nproc lanes. Below 1,
    the parallel path is slower than serial. PEHE must repeat exactly
    across the two lane counts."""
    lanes = str(os.cpu_count() or 1)
    wide = run_workload("fit", record["seed"], 0, False,
                      {"SBRL_NUM_THREADS": lanes})
    record["attempted"] += wide["attempted"] + 1
    record["failed"] += wide["failed"]
    record["failures"] += wide["failures"]
    if wide["named"]["pehe_ood"]["value"] != \
            record["named"]["pehe_ood"]["value"]:
        record["failed"] += 1
        record["failures"].append("pehe_ood differs between %s and %s lanes"
                                  % (record["meta"]["lanes"], lanes))
    for family in ("vanilla", "sbrl", "hap"):
        key = "fit_%s_s" % family
        layer = record["layers"]["common.lane_speedup_" + family]
        layer["value"] = record["named"][key]["value"] / \
            wide["named"][key]["value"]
        layer["samples"] = 1


def add_companion_layers(record, seconds):
    """Fills the layers `record` does not exercise from a traced run of
    its companion workload (TRACE_COMPANION), and counts the
    companion's checks as this run's."""
    companion = run_workload(TRACE_COMPANION[record["workload"]],
                             record["seed"], seconds / 3.0, True)
    record["attempted"] += companion["attempted"]
    record["failed"] += companion["failed"]
    record["failures"] += companion["failures"]
    for name, metric in companion["layers"].items():
        mine = record["layers"][name]
        if mine["samples"] == 0 and not name.startswith("trace."):
            record["layers"][name] = metric
    record["meta"]["trace_companion"] = companion["workload"]


def commit_id():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    return "unknown"


def print_readings(record):
    meta = record["meta"]
    print("workload %s seed %s: nproc %s, lanes %s, isa %s, precision %s, "
          "host steal %s%%"
          % (record["workload"], record["seed"], meta["nproc"],
             meta["lanes"], meta["isa"], meta["precision"],
             meta.get("steal_pct", "?")))
    for group in ("e2e", "named", "layers"):
        for name, m in sorted(record[group].items()):
            if group == "layers" and m["samples"] == 0:
                continue  # a layer this workload does not exercise
            # A non-finite reading arrives as null; result_line fails it.
            value = math.nan if m["value"] is None else m["value"]
            print("  %-6s %-34s %16.6g %-8s n=%d"
                  % (group, name, value, m["unit"], m["samples"]))
    for failure in record["failures"]:
        print("  FAILED: " + failure)


def result_line(record, spec, trace):
    """The contract line: BENCHMARK.json's metrics of the chosen kind."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    group = record["layers"] if trace else record["e2e"]
    correct = record["failed"] == 0
    metrics = {}
    for metric in wanted:
        got = group.get(metric["name"])
        value = None if got is None else got["value"]
        if value is None or not math.isfinite(value) or \
                got["unit"] != metric["unit"]:
            correct = False
            log("perfbench: metric %s missing, non-finite or mis-unit"
                % metric["name"])
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"correct": correct, "attempted": max(1, record["attempted"]),
            "failed": record["failed"], "metrics": metrics}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(args):
    spec = load_spec()
    build(["perfbench"])
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if args.trace and args.workload == "fit":
        add_lane_speedup(record)
    if args.trace and args.workload in TRACE_COMPANION:
        add_companion_layers(record, args.seconds)
    print_readings(record)
    print(json.dumps(result_line(record, spec, args.trace)))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(args):
    build(["perfbench"])
    seeds = list(range(args.seed, args.seed + args.runs))
    records = {w: [] for w in WORKLOADS}
    failed = attempted = 0
    failures = []
    for workload in WORKLOADS:
        for seed in seeds:
            log("perfbench: %s seed %d" % (workload, seed))
            record = run_workload(workload, seed, args.seconds, False)
            records[workload].append(record)
            attempted += record["attempted"]
            failed += record["failed"]
            failures += record["failures"]
    # pehe_ood is a pure function of the seed: a second run of the first
    # seed must repeat it exactly.
    again = run_workload("fit", seeds[0], 0, False)
    attempted += 1
    if again["named"]["pehe_ood"]["value"] != \
            records["fit"][0]["named"]["pehe_ood"]["value"]:
        failed += 1
        failures.append("pehe_ood differs between two runs of one seed")

    rows = []
    for workload_sel, group, name, direction in REPORT_METRICS:
        for workload in (WORKLOADS if workload_sel == "*"
                         else (workload_sel,)):
            readings = [r[group][name] for r in records[workload]
                        if name in r[group]]
            values = [m["value"] for m in readings]
            q1, med, q3 = quartiles(values)
            rows.append({
                "metric": name, "workload": workload,
                "unit": readings[0]["unit"], "better": direction,
                "runs": len(values),
                "samples_per_run": readings[0]["samples"],
                "median": med, "q1": q1, "q3": q3,
                "iqr_share": (q3 - q1) / med if med else 0.0,
            })
    meta = dict(records["fit"][0]["meta"])
    meta.update({"commit": commit_id(), "seeds": seeds,
                 "seconds": args.seconds})
    out = {"meta": meta, "attempted": attempted, "failed": failed,
           "failures": failures, "metrics": rows}
    print("host: nproc %s, lanes %s, isa %s, precision %s, commit %s"
          % (meta["nproc"], meta["lanes"], meta["isa"], meta["precision"],
             meta["commit"]))
    print("build: " + meta["build"])
    print("seeds %s, %s s per measured phase" % (seeds, args.seconds))
    print("%-22s %-13s %-6s %-6s %5s %14s %14s %14s %7s"
          % ("metric", "workload", "unit", "better", "runs", "median", "q1",
             "q3", "iqr/med"))
    for row in rows:
        print("%-22s %-13s %-6s %-6s %5d %14.6g %14.6g %14.6g %6.1f%%"
              % (row["metric"], row["workload"], row["unit"], row["better"],
                 row["runs"], row["median"], row["q1"], row["q3"],
                 100.0 * row["iqr_share"]))
    print("attempted %d, failed %d" % (attempted, failed))
    for failure in failures:
        print("  FAILED: " + failure)
    path = os.path.join(BUILD_ROOT, "perfbench_report.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=2)
    log("perfbench: wrote " + path)
    return 0 if failed == 0 else 1


def selftest():
    build(["perfbench_test"])
    return subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")],
                          timeout=RUN_TIMEOUT_S).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.report:
        return report(args)
    if args.workload is None:
        parser.error("--workload is required")
    one_run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
