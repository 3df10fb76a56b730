#!/usr/bin/env python3
"""hZCCL benchmark: one workload per invocation.

    python3 perfbench/run.py --workload bulk|small|fleet|lossy \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/ (and with it the
library) into .bench_build/ on first use, runs the hzbench program, checks
its outputs and prints a human-readable report followed, as the last line
of standard output, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 (a separate run) the
per-layer ones.  The exit code is 0 only when every op passed its checks and
the deterministic metrics replayed bit-equal (hzbench runs its deterministic
pass twice and replays the first pass over its input pool).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from benchlib import metrics, report  # noqa: E402

WORKLOADS = ("bulk", "small", "fleet", "lossy")
# hzbench's timed loop stops by max(2 S, S + 30) seconds; set-up, the
# deterministic passes and the checks around it take well under this.
SETUP_ALLOWANCE_S = 80


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, ".bench_build")


def build():
    """Configure and build hzbench; returns the binary path."""
    out = os.path.join(build_dir(), "cmake")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(build_dir(), "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", out, "--target", "hzbench", "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (%s)" % " ".join(cmd[:2]))
    return os.path.join(out, "hzbench")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_determinism(binary, args, values):
    """Compare this run's deterministic values with an earlier run of the
    same build and seed; returns a list of differences.  This adds to
    hzbench's own in-run replay checks: it only compares anything when a
    seed is run twice with one build."""
    d = os.path.join(build_dir(), "determinism", file_digest(binary))
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "%s-%d-%d.json" % (args.workload, args.seed, args.trace))
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(values, f, sort_keys=True)
        return []
    with open(path) as f:
        earlier = json.load(f)
    return ["%s: %r then %r" % (k, earlier.get(k), v) for k, v in sorted(values.items())
            if earlier.get(k) != v]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    name = "%s-%d-%d.json" % (args.workload, args.seed, args.trace)
    raw_path = os.path.join(build_dir(), "raw", name)
    os.makedirs(os.path.dirname(raw_path), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", raw_path]
    timeout = max(2 * args.seconds, args.seconds + 30) + SETUP_ALLOWANCE_S
    try:
        proc = subprocess.run(cmd, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("hzbench did not finish within %g s" % timeout)
    if proc.returncode != 0:
        fail("hzbench exited with %d" % proc.returncode)
    with open(raw_path) as f:
        raw = json.load(f)

    failures = list(raw["failures"])
    if raw.get("span_overflow"):
        failures.append("span log overflowed (%d spans lost)" % raw["span_overflow"])
    try:
        if args.trace:
            values, layer_ns = metrics.per_layer(raw)
            catalogue, notes = metrics.PER_LAYER, []
            deterministic = {k: raw["values"][k] for k in raw["deterministic"]}
        else:
            values, notes = metrics.end_to_end(raw)
            catalogue, layer_ns = metrics.END_TO_END, {}
            deterministic = {k: values[k] for k in metrics.DETERMINISTIC_E2E}
            deterministic.update({k: raw["values"][k] for k in raw["deterministic"]})
            if args.workload == "fleet":
                fleet_values, fleet_notes = metrics.fleet(raw)
                notes += fleet_notes
    except metrics.MissingData as e:
        fail(str(e))

    drift = check_determinism(binary, args, deterministic)
    failures += ["not deterministic: " + d for d in drift]
    attempted = max(1, raw["attempted"])
    failed = raw["failed"] + len(drift) + (1 if raw.get("span_overflow") else 0)

    print("workload %s  seed %d  trace %d  (%s)" % (args.workload, args.seed, args.trace,
                                                     "per-layer" if args.trace else "end-to-end"))
    for line in notes:
        print("  " + line)
    for name, (unit, better) in catalogue.items():
        print("  %-32s %16.6g %-6s (%s is better)" % (name, values[name], unit, better))
    if args.workload == "fleet" and not args.trace:
        for name, (unit, better) in metrics.FLEET.items():
            print("  %-32s %16.6g %-6s (%s is better; fleet only, not gated)"
                  % (name, fleet_values[name], unit, better))
    print("  %-32s %16.6g ratio  (%d of %d ops)"
          % ("failed_frac", failed / attempted, failed, attempted))
    degraded = raw["values"].get("degraded_beyond_eb_ops", 0)
    if degraded:
        print("  %d op(s) took a degraded round and needed more than group*eb "
              "(within the library's 3x degraded envelope)" % degraded)
    for layer, ns in sorted(layer_ns.items()):
        print("  self time %-22s %12.3f ms" % (layer, ns * 1e-6))
    for f in failures:
        print("  FAILED: " + f)

    result = report.build(failed == 0, attempted, failed,
                          {name: (values[name], unit) for name, (unit, _) in catalogue.items()})
    print(report.emit(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
