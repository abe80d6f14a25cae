#!/usr/bin/env python3
"""Self-test of the benchmark: seeded determinism and the traced split.

    python3 perfbench/test_determinism.py

For every workload, two fixed-size runs (--units) with the same seed
must print identical `# deterministic` lines: the request stream hash,
the suite order hash, dynamic steps, static IR instructions, and the
per-client cache hits and misses. A different seed must change the
stream, and a seed drawn at random for this run must still pass every
output check. One small traced run per workload must produce a
parseable Chrome trace and the layer split the benchmark is built to
show. Exits non-zero on the first failed check.
"""
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNITS = {"suite-pipeline": "2", "service-edit": "60", "service-churn": "60"}


def run(workload, seed, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "30",
           "--trace", str(trace), "--units", UNITS[workload]]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("FAIL: %s seed %s exited %d\n%s%s" % (
            workload, seed, out.returncode, out.stdout, out.stderr))
    result = json.loads(lines[-1])
    det = next(l for l in lines if l.startswith("# deterministic "))
    traces = [l.split()[2:] for l in lines if l.startswith("# trace ")]
    return result, json.loads(det[len("# deterministic "):]), traces


def check(cond, msg):
    if not cond:
        sys.exit("FAIL: " + msg)
    print("ok   " + msg)


def stream_key(det):
    return {k: v for k, v in det.items() if k.endswith("_hash")}


def main():
    fresh = random.SystemRandom().randrange(1, 2**31)
    for workload in UNITS:
        r1, d1, _ = run(workload, 7)
        r2, d2, _ = run(workload, 7)
        check(r1["correct"] and r2["correct"],
              "%s: outputs correct on seed 7" % workload)
        check(d1 == d2, "%s: seed 7 repeats its deterministic counts" %
              workload)
        _, d3, _ = run(workload, 8)
        check(stream_key(d1) != stream_key(d3),
              "%s: seed 8 generates a different stream" % workload)
        r4, _, _ = run(workload, fresh)
        check(r4["correct"] and r4["failed"] == 0,
              "%s: fresh seed %d passes every check" % (workload, fresh))

        rt, _, traces = run(workload, 7, trace=1)
        chrome, layers = traces[0]
        with open(chrome) as f:
            events = json.load(f)["traceEvents"]
        check(events and all({"name", "ph", "ts", "dur", "tid"} <= set(e)
                             for e in events),
              "%s: Chrome trace parses (%d events)" % (workload, len(events)))
        with open(layers) as f:
            agg = json.load(f)
        self_ms = agg["layer_self_ms"]
        # Layers doing the request's work; the service layer's own self
        # time is transport and run-queue wait, "wait" the session lock.
        work = {k: v for k, v in self_ms.items()
                if k not in ("bench", "wait", "service")}
        m = {k: v["value"] for k, v in rt["metrics"].items()}
        if workload == "suite-pipeline":
            check(max(work, key=work.get) == "solver",
                  "suite-pipeline: solver has the largest self time")
            check(m["transform.committed"] == 58 and m["interp.steps"] > 0,
                  "suite-pipeline: 58 replacements per pass")
        else:
            check(not any(n.startswith(("transform.", "interp."))
                          for n in agg["spans"]),
                  "%s: no transform or interp spans" % workload)
            fe = self_ms.get("frontend", 0) + self_ms.get("ir", 0)
            if workload == "service-edit":
                check(fe >= max(v for k, v in work.items()
                                if k not in ("frontend", "ir")),
                      "service-edit: frontend+ir lead the working layers")
                check(m["driver.cache_hit_ratio"] >= 0.8,
                      "service-edit: cache hit ratio >= 0.8")
            else:
                check(m["driver.cache_hit_ratio"] <= 0.2 and
                      m["driver.cache_evictions"] > 0,
                      "service-churn: hit ratio <= 0.2 with evictions")
        check(m["trace.coverage"] >= 0.95,
              "%s: layer self times cover >= 95%% of latency" % workload)
    print("all checks passed")


if __name__ == "__main__":
    main()
