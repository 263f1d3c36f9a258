#!/usr/bin/env python3
"""Short-mode self-test of the cluster benchmark.

Usage, from the root of a checkout:
    python3 clusterbench/selftest.py

Runs every workload of the driver (transfer, hotspot, blob — hotspot too,
though BENCHMARK.json leaves it out of the measured set) through run.py in
short mode (one small round of a few hundred commits, then with --trace 1
one traced round), once with tracing off and once with it on, and checks:

- the last stdout line is the result object, and every metric BENCHMARK.json
  names for that mode is emitted with its unit;
- the correctness checks pass and no transaction failed;
- no exact-count tripwire fired;
- lock.waits_per_commit > 0 only on hotspot;
- net.fragments_per_commit > 0 only on blob;
- dist.coord_log_records_end is within 1% of the traced run's committed
  transactions (one retained record per classical commit);
- the traced phases add up: dist.unattributed_ms is at most 10% of the traced
  run's median commit latency.

Exits 0 when every check passes, 1 otherwise.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# hotspot is the only workload with lock waits, so it stays in the
# self-test; README.md says why BENCHMARK.json does not measure it.
WORKLOADS = ["transfer", "hotspot", "blob"]


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--short"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, lines, result


def check_run(workload, trace, spec, problems):
    where = "%s --trace %d" % (workload, trace)

    def expect(ok, what):
        if not ok:
            problems.append("%s: %s" % (where, what))
        return ok

    proc, lines, result = run(workload, trace)
    if not expect(result is not None, "exit code %d\n%s%s" % (proc.returncode, proc.stdout[-3000:],
                                                              proc.stderr[-3000:])):
        return
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           "result keys %s" % sorted(result))
    expect(result["correct"] is True, "correctness checks failed")
    expect(result["failed"] == 0, "%d of %d transactions failed" % (result["failed"], result["attempted"]))
    expect(result["attempted"] >= 100, "only %d transactions attempted" % result["attempted"])
    expect(not any("WORKLOAD CHANGED" in line for line in lines), "an exact-count tripwire fired")

    metrics = result["metrics"]
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    expect(sorted(metrics) == sorted(wanted),
           "metrics differ from BENCHMARK.json: missing %s, extra %s"
           % (sorted(set(wanted) - set(metrics)), sorted(set(metrics) - set(wanted))))
    for name, unit in wanted.items():
        if name in metrics:
            expect(metrics[name]["unit"] == unit, "%s has unit %r, not %r" % (name, metrics[name]["unit"], unit))
            expect(isinstance(metrics[name]["value"], (int, float)), "%s is not a number" % name)

    def value(name):
        return metrics.get(name, {}).get("value", 0)

    if not trace:
        for name in wanted:
            expect(value(name) > 0, "%s is not positive" % name)
        return
    expect((value("lock.waits_per_commit") > 0) == (workload == "hotspot"),
           "lock.waits_per_commit = %g" % value("lock.waits_per_commit"))
    expect((value("net.fragments_per_commit") > 0) == (workload == "blob"),
           "net.fragments_per_commit = %g" % value("net.fragments_per_commit"))
    summary = [l for l in lines if l.startswith("traced:")]
    match = re.search(r"(\d+) transactions committed in all", summary[0]) if summary else None
    if expect(match is not None, "no traced summary line"):
        committed = int(match.group(1))
        records = value("dist.coord_log_records_end")
        expect(abs(records - committed) <= 0.01 * committed,
               "dist.coord_log_records_end = %g, traced commits = %d" % (records, committed))
    expect(value("dist.unattributed_ms") <= 0.1 * value("traced.commit_p50_ms"),
           "dist.unattributed_ms = %g of a %g ms commit"
           % (value("dist.unattributed_ms"), value("traced.commit_p50_ms")))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            before = len(problems)
            check_run(workload, trace, spec, problems)
            print("%-9s --trace %d: %s" % (workload, trace, "ok" if len(problems) == before else "FAILED"))
            sys.stdout.flush()
    for p in problems:
        print("  " + p)
    print("selftest: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
