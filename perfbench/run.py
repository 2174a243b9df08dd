#!/usr/bin/env python3
"""gpuqos host-time benchmark (see perfbench/README.md).

Builds the simulator from ../src with CMake, runs one workload through the
gpuqos_bench driver for a fixed host-time window, checks the simulated
output of every repetition, and prints the result as the last line of
stdout:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. A full report (metrics with units, run
metadata, output digest, per-slice counts and the benchmark's own spans as
Chrome trace events) is written to .bench_out/.

Usage:
  python3 perfbench/run.py --workload m8_throt [--seed 42] [--seconds 30]
                           [--trace 0|1]
  python3 perfbench/run.py --workload all      # every workload in one process
  python3 perfbench/run.py --self-test         # short budgets, checks itself
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "gpuqos_bench")
WORKLOADS = ["m8_throt", "gpu_alone_hl2", "policy_sweep_m8"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns build seconds."""
    t0 = time.monotonic()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "gpuqos_bench"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the result channel.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return time.monotonic() - t0


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_driver(workload, seed, seconds, trace, quick=False, expect=None):
    """Runs gpuqos_bench; returns (report dicts, other stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    if expect is not None:
        cmd += ["--expect-digest", expect]
    # Host-side knobs (tick threads, pool size, log level) must not leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GPUQOS_")}
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise RuntimeError(f"gpuqos_bench exited {out.returncode}")
    reports, text = [], []
    for line in out.stdout.splitlines():
        (reports if line.startswith("{") else text).append(line)
    return [json.loads(r) for r in reports], text


def reference_digest(workload, seed):
    """(digest, budget_cycles) recorded at the reference seed, else None."""
    ref = load_json(os.path.join(HERE, "reference.json"))
    if seed != ref["seed"]:
        return None
    return ref["digests"][workload], ref["budget_cycles"]


def chrome_trace(spans):
    events = []
    for i, s in enumerate(spans):
        events.append({"name": s["name"], "ph": "X", "pid": 1, "tid": 1,
                       "ts": s["start_s"] * 1e6,
                       "dur": (s["end_s"] - s["start_s"]) * 1e6,
                       "args": {"id": i, "parent": s["parent"],
                                "note": s["note"]}})
    return events


def write_report(rep, metrics, meta):
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{rep['workload']}-seed{rep['seed']}-trace{rep['trace']}.json"
    path = os.path.join(OUT_DIR, name)
    doc = {"workload": rep["workload"], "meta": meta, "digest": rep["digest"],
           "attempted": rep["attempted"], "failed": rep["failed"],
           "errors": rep["errors"], "metrics": metrics,
           "raw_metrics": rep["raw_metrics"],
           "slices": rep["slices"], "traceEvents": chrome_trace(rep["spans"])}
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path


def summarize(rep, catalog, meta):
    """Prints the human report; returns the metric dict for the result."""
    wanted = catalog["per_layer"] if rep["trace"] else catalog["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in rep["metrics"]:
            raise RuntimeError(f"{rep['workload']}: metric {m['name']} missing")
        metrics[m["name"]] = {"value": rep["metrics"][m["name"]],
                              "unit": m["unit"]}
    error_rate = rep["failed"] / rep["attempted"] if rep["attempted"] else 1.0
    print(f"# {rep['workload']} seed={rep['seed']} trace={rep['trace']} "
          f"digest={rep['digest']} attempted={rep['attempted']} "
          f"failed={rep['failed']} error_rate={error_rate:.4g}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for err in rep["errors"]:
        print(f"# error: {err}")
    print(f"# host times at reference speed: scale {meta['host_scale']:.4f} "
          "(calibration kernel reference / measured); raw: " +
          ", ".join(f"{k}={v:.6g}" for k, v in rep["raw_metrics"].items()
                    if k in metrics))
    for name, m in metrics.items():
        print(f"#   {name:32s} {m['value']:>16.6g} {m['unit']}")
    if rep["slices"]:
        cols = ["cycle", "cpu.committed_instrs", "gpu.fragments",
                "llc.accesses", "ring.messages", "dram.reads",
                "qos.atu_token_denials"]
        print("# per-slice counts: " + " ".join(cols))
        for s in rep["slices"]:
            print("#   " + " ".join(f"{s.get(c, 0):.0f}" for c in cols))
    report_metrics = dict(metrics)
    report_metrics["error_rate"] = {"value": error_rate, "unit": "ratio"}
    path = write_report(rep, report_metrics, meta)
    print(f"# report: {os.path.relpath(path, ROOT)}")
    return metrics


def benchmark(args, catalog):
    build_s = build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    ref = reference_digest(names[0], args.seed) if len(names) == 1 else None
    expect = ref[0] if ref else None
    reports, text = run_driver(args.workload, args.seed, args.seconds,
                               args.trace, expect=expect)
    if [r["workload"] for r in reports] != names:
        raise RuntimeError("driver did not report every workload")
    if ref and reports[0]["meta"]["budget_cycles"] != ref[1]:
        raise RuntimeError("reference.json was recorded at another budget")
    for line in text:
        print(line)
    sha = git_sha()
    attempted = failed = 0
    result = {}
    for rep in reports:
        meta = dict(rep["meta"], git_sha=sha, seed=rep["seed"],
                    seconds=args.seconds, build_s=round(build_s, 3),
                    reference_checked=expect is not None)
        metrics = summarize(rep, catalog, meta)
        attempted += rep["attempted"]
        failed += rep["failed"]
        if len(reports) == 1:
            result = metrics
        else:
            result.update({f"{rep['workload']}.{k}": v
                           for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": result}))


def self_test(catalog):
    """Short-budget run of every workload: every named metric is emitted,
    each layer shows up where it applies, and a wrong reference digest
    drives error_rate above 0."""
    build()
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        reports, _ = run_driver("all", 42, 0, trace, quick=True)
        by_name = {r["workload"]: r for r in reports}
        expect(sorted(by_name) == sorted(WORKLOADS),
               f"trace {trace}: workloads")
        for rep in reports:
            w = rep["workload"]
            expect(rep["failed"] == 0, f"{w} trace {trace}: {rep['errors']}")
            for m in catalog[key]:
                expect(m["name"] in rep["metrics"], f"{w}: no {m['name']}")
            if not trace:
                for m in catalog[key]:
                    expect(rep["metrics"].get(m["name"], 0) > 0,
                           f"{w}: {m['name']} is not positive")
            if not trace and w != "policy_sweep_m8":
                m = rep["metrics"]
                kcycles = m.get("sim_kcycles_per_s", 0) * m.get("wall_s", 0)
                budget = rep["meta"]["budget_cycles"] / 1e3
                expect(abs(kcycles - budget) < 1e-6 * budget,
                       f"{w}: sim_kcycles_per_s x wall_s != budget")
        if trace:
            m8 = by_name["m8_throt"]["metrics"]
            gpu = by_name["gpu_alone_hl2"]["metrics"]
            sweep = by_name["policy_sweep_m8"]["metrics"]
            shares = {k: v for k, v in m8.items() if k.endswith(".host_share")}
            expect(max(shares, key=shares.get) == "cpu.host_share",
                   f"m8_throt: cpu.host_share is not the largest: {shares}")
            expect(m8["cpu.entries"] > 0, "m8_throt: cpu.entries is 0")
            expect(gpu["cpu.entries"] == 0, "gpu_alone_hl2: cpu.entries > 0")
            for w, m in (("m8_throt", m8), ("gpu_alone_hl2", gpu)):
                for k in ("gpu_pipeline.entries", "dram.entries",
                          "engine.ticks", "ckpt.snapshot_bytes",
                          "ckpt.load_s", "sim.construct_s"):
                    expect(m[k] > 0, f"{w}: {k} is 0")
            expect(sweep["svc.cold_runs"] == 1, "sweep: svc.cold_runs != 1")
            expect(sweep["svc.warm_forks"] == 7, "sweep: svc.warm_forks != 7")
            expect(sweep["svc.first_result_s"] > 0, "sweep: no first result")
            expect(sweep["sweep.workers"] == 2, "sweep: workers != 2")

    reports, _ = run_driver("m8_throt", 42, 0, 0, quick=True,
                            expect="0123456789abcdef")
    rep = reports[0]
    expect(rep["attempted"] > 0 and rep["failed"] / rep["attempted"] > 0,
           "a wrong reference digest left error_rate at 0")

    for p in problems:
        print(f"self-test: FAIL {p}")
    print("self-test: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    try:
        catalog = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        if args.self_test:
            return self_test(catalog)
        benchmark(args, catalog)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
