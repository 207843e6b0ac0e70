#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Runs a seconds-long mode (--quick) of every workload in BENCHMARK.json and
of pbft-wal, untraced and traced, and checks that:
  * each run passes its correctness gate and prints every metric that
    BENCHMARK.json names, with its unit, on a `metric` line and in the
    final JSON line, and a traced run also the layer times it prints only;
  * the failover drill of a traced run (cp0-tdh2, pbft-wal) measured an
    outage and a restart that replayed the primary's WAL;
  * the gate trips when one replica's Service silently drops one execution
    (on a PBFT and a CP3 cluster, whose pipelined clients no other test
    drives).
Exits 0 when every check holds.
"""
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

QUICK = ["--seed", "7", "--seconds", "2", "--quick"]

# Times a traced run prints on `metric` lines but leaves out of its result
# line: each reads 0 on a declared workload where its layer is idle (see
# NOTES.md).
PRINTED_ONLY = {
    "outage_ms": "ms", "recovery_s": "s",
    "bft.view_change_ms": "ms", "bft.recover_ms": "ms", "bft.catchup_ms": "ms",
    "threshenc.encrypt_ms": "ms", "threshenc.verify_ct_ms": "ms",
    "threshenc.share_ms": "ms", "threshenc.verify_share_us": "us",
    "threshenc.combine_ms": "ms", "threshenc.ms_per_op": "ms",
    "rt.storage.append_us": "us",
    "rt.storage.sync_p50_us": "us", "rt.storage.sync_p99_us": "us",
    "rt.storage.put_p50_ms": "ms", "rt.storage.put_p99_ms": "ms",
}

# Workloads whose traced run adds the failover drill.
DRILLED = ("cp0-tdh2", "pbft-wal")


def result_of(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def check_metrics(tag, out, res, expected, printed_only, failures):
    got = res["metrics"]
    if set(got) != set(expected):
        failures.append("%s: metrics %s, expected %s" %
                        (tag, sorted(got), sorted(expected)))
    for name, unit in expected.items():
        if name in got and got[name]["unit"] != unit:
            failures.append("%s: %s has unit %s, expected %s" %
                            (tag, name, got[name]["unit"], unit))
    for name, unit in list(expected.items()) + list(printed_only.items()):
        if not re.search(r"^metric %s +\S+ %s$" % (re.escape(name),
                                                   re.escape(unit)),
                         out, re.M):
            failures.append("%s: no 'metric %s ... %s' line" % (tag, name, unit))


def check_drill(tag, out, res, failures):
    m = re.search(r"^failover drill: outage_ms=([\d.]+) .*"
                  r"wal_replayed=(\d+)", out, re.M)
    if not m:
        failures.append("%s: no failover drill line" % tag)
        return
    if float(m.group(1)) <= 0:
        failures.append("%s: no outage measured" % tag)
    replayed = int(m.group(2))
    if replayed == 0:
        failures.append("%s: the restarted primary replayed no WAL" % tag)
    declared = res["metrics"].get("bft.recover_wal_records")
    if declared is not None and declared["value"] != replayed:
        failures.append("%s: bft.recover_wal_records %s, drill line %d" %
                        (tag, declared["value"], replayed))


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    binary = bench.build()
    if binary is None:
        return 2
    failures = []
    # pbft-wal is not declared in BENCHMARK.json (see NOTES.md) but runs
    # under the same command and is checked here like the others.
    declared = [x["name"] for x in spec["workloads"]]
    for w in declared + ["pbft-wal"]:
        for trace in (0, 1):
            tag = "%s trace=%d" % (w, trace)
            code, out = bench.run(binary, ["--workload", w, "--trace",
                                           str(trace)] + QUICK)
            res = result_of(out)
            if code != 0 or res is None or res.get("correct") is not True:
                failures.append("%s: exit %d, result %s" % (tag, code, res))
                continue
            check_metrics(tag, out, res, layers if trace else e2e,
                          PRINTED_ONLY if trace else {}, failures)
            if w in DRILLED and trace == 1:
                check_drill(tag, out, res, failures)
            print("ok %s" % tag, flush=True)
    for w in ("pbft-wal", "cp3-reveal"):
        tag = "%s drop-exec" % w
        code, out = bench.run(binary, ["--workload", w, "--trace", "0",
                                       "--drop-exec", "50"] + QUICK)
        res = result_of(out)
        if code == 0 or res is None or res.get("correct") is not False or \
                "gate: FAIL" not in out:
            failures.append("%s: gate did not trip (exit %d)" % (tag, code))
        else:
            print("ok %s: gate tripped" % tag, flush=True)
    for f in failures:
        print("FAIL %s" % f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
