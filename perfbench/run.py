#!/usr/bin/env python3
"""Co-simulation benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload mesh_compute --seed 1 --seconds 10 --trace 0

Builds the perfbench harness (and the xtsoc libraries it links) from this
checkout, runs one workload, checks its outputs and prints every metric by
name and unit, then the verdict. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the per-layer split
(spans are written to <build>/perfbench/traces/).

Other modes:
    --selftest-guard        feed the stationarity guard the leaky mesh model
                            (must be rejected) and the steady one (must pass)
    --record-golden SEED..  rewrite perfbench/golden.json for these seeds

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
relative to the checkout root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mesh_compute", "mesh_memory", "packet_bus", "fault_campaign")
RUN_TIMEOUT_S = 170
REFERENCE_GHZ = 3.0  # ClockProbe::kReferenceGhz


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the harness; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            raise SystemExit("perfbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise SystemExit("perfbench: build failed")
    return os.path.join(out, "perfbench")


def run_harness(binary, argv):
    proc = subprocess.run([binary] + argv, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        raise SystemExit("perfbench: harness exited with %d" % proc.returncode)
    return proc.stdout


def load_golden():
    path = os.path.join(HERE, "golden.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def record_golden(binary, seeds):
    golden = {}
    for w in WORKLOADS:
        golden[w] = {}
        for s in seeds:
            doc = json.loads(run_harness(binary, ["--workload", w, "--seed", str(s),
                                                  "--reference-only"]))
            if doc["stationarity_failures"]:
                raise SystemExit("perfbench: %s seed %s not stationary: %s"
                                 % (w, s, doc["stationarity_failures"]))
            golden[w][str(s)] = doc["reference_fingerprint"]
            log("%s seed %s: %s" % (w, s, golden[w][str(s)]))
    with open(os.path.join(HERE, "golden.json"), "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


def report(doc, golden):
    """Print the human-readable result and return the verdict line."""
    w, seed = doc["workload"], doc["seed"]
    host = doc["host"]
    failed = doc["failed"]
    attempted = doc["attempted"]
    problems = list(doc["errors"])

    expect = golden.get(w, {}).get(str(seed))
    if doc["fingerprint"] and doc["fingerprint"] != doc["reference_fingerprint"]:
        problems.append("fingerprint differs from the threads=1 reference")
    if expect is None:
        golden_note = "no golden for seed %s (checked against threads=1 only)" % seed
    elif doc["reference_fingerprint"] == expect:
        golden_note = "matches golden %s" % expect
    else:
        golden_note = "MISMATCH: golden %s, got %s" % (expect, doc["reference_fingerprint"])
        problems.append("fingerprint differs from the committed golden")
        failed = attempted
    steady = ["%s %g -> %g" % (c["what"], c["first"], c["second"])
              for c in doc["stationarity"] if not c["ok"]]
    problems += ["not stationary: " + s for s in steady]

    usable = host["usable_cores_2"]
    flagged = usable < doc["threads"] - 0.25
    print("perfbench %s seed=%s trace=%s samples=%d warmup=%d window=%d cycles"
          % (w, seed, int(doc["trace"]), doc["samples"], doc["warmup_cycles"],
             doc["window_cycles"]))
    print("host: %d hw threads, clock %.2f GHz, usable cores 1/2/4 = %.2f/%.2f/%.2f, "
          "%s, %s%s"
          % (host["hardware_concurrency"], host["clock_ghz"], host["usable_cores_1"],
             usable, host["usable_cores_4"], host["compiler"], host["build_type"],
             "  [FLAGGED: fewer usable cores than the workload's %d threads]"
             % doc["threads"] if flagged else ""))
    print("modelled timing is unvalidated: no hardware reference measurements")
    if "wall_cycles_per_s" in doc:
        print("host times are converted to the %.1f GHz reference clock; at the "
              "measured clock the rate was %.6g cycles/s"
              % (REFERENCE_GHZ, doc["wall_cycles_per_s"]))
    for name, m in doc["metrics"].items():
        print("  %-38s %16.6g %s" % (name, m["value"], m["unit"]))
    print("fingerprint %s (threads=1 reference %s; %s)"
          % (doc["fingerprint"], doc["reference_fingerprint"], golden_note))
    print("stationarity: %s" % ("ok" if not steady else "; ".join(steady)))
    correct = not problems and failed == 0
    print("verdict: %s, %d/%d runs failed%s"
          % ("correct" if correct else "INCORRECT", failed, attempted,
             "" if correct else " -- " + "; ".join(problems)))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": doc["metrics"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest-guard", action="store_true")
    ap.add_argument("--record-golden", type=int, nargs="+", metavar="SEED")
    args = ap.parse_args()

    binary = build()
    if args.selftest_guard:
        proc = subprocess.run([binary, "--selftest-guard"], timeout=RUN_TIMEOUT_S)
        return proc.returncode
    if args.record_golden:
        record_golden(binary, args.record_golden)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        argv += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    doc = json.loads(run_harness(binary, argv).strip().splitlines()[-1])
    verdict = report(doc, load_golden())
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"harness": doc, "verdict": verdict}, f, indent=1)
    print(json.dumps(verdict), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
