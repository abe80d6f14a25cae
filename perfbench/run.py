#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload suite-pipeline --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when the variable is unset, then runs the
timed executable (--trace 0) or the traced one (--trace 1) from the
root of the checkout. Only the executable the run needs is built, so a
traced build that no longer links fails the traced runs alone. Extra
options (--units, --out) are forwarded.

The executable's standard output is passed through except its last
line, which run.py replaces by the result with exactly the metrics
BENCHMARK.json lists, in its order: the end_to_end ones for --trace 0,
the per_layer ones for --trace 1. A listed metric the run did not
report, or reported with another unit, is an error; the only exception
is a per-layer metric of a layer the workload bypasses (BYPASSED),
which reads 0. Exits non-zero when the build fails, a metric is
missing, or any output is wrong.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Layers a workload never calls: their per-layer metrics read 0 there.
BYPASSED = {
    "suite-pipeline": ("service.", "driver.cache_"),
    "service-edit": ("transform.", "interp."),
    "service-churn": ("transform.", "interp."),
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def sh(cmd, log):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        rc = subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT,
                             cwd=ROOT)
    if rc != 0:
        with open(log) as f:
            tail = f.read()[-4000:]
        fail("command failed: %s\n%s" % (" ".join(cmd), tail))


def build(target):
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", bdir,
            "-DCMAKE_BUILD_TYPE=Release"], log)
    sh(["cmake", "--build", bdir, "-j", jobs, "--target", target], log)
    return os.path.join(bdir, target)


def select_metrics(result, workload, traced):
    """The result's metrics as BENCHMARK.json lists them, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if traced else "end_to_end"]
    got = result["metrics"]
    out = {}
    for m in spec:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                fail("metric %s has unit %s, BENCHMARK.json says %s"
                     % (name, got[name]["unit"], unit))
            out[name] = got[name]
        elif traced and name.startswith(BYPASSED.get(workload, ())):
            out[name] = {"value": 0, "unit": unit}
        else:
            fail("the run reported no metric %s" % name)
    return out


def main(argv):
    args = list(argv)
    opts = {}
    for i in range(0, len(args) - 1, 2):
        opts[args[i]] = args[i + 1]
    if len(args) % 2 or "--workload" not in opts:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1> [--units <n>] [--out <dir>]")
    traced = opts.get("--trace", "0") not in ("0", "")
    exe = build("perfbench_traced" if traced else "perfbench")
    if "--out" not in opts:
        args += ["--out", os.path.join(os.path.dirname(os.path.dirname(exe)),
                                       "perfbench-out")]
    try:
        run = subprocess.run([exe] + args, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        fail("the run printed no result (exit code %d)" % run.returncode)
    result = json.loads(lines[-1])
    result["metrics"] = select_metrics(result, opts["--workload"], traced)
    print(json.dumps(result))
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
