#!/usr/bin/env python3
"""Validate prosim observability artifacts (stdlib only; CI smoke job).

Checks any subset of the products an observability session writes
(docs/OBSERVABILITY.md):

  * Trace Event documents (trace/trace_event_writer.hpp), one check for
    each view: the warp lanes (--warp-lanes F), the kernel timeline
    (--kernel-timeline F) and prosim-sweep's TB timeline (--tb-timeline F)
  * wait windows     - --windows F and its histogram (.hist before F's
                       extension: waits.csv -> waits.hist.csv)
  * metrics CSV      - long format, well-typed rows, nondecreasing cycles
  * metrics JSON     - prosim-metrics-v1 schema, samples mirror the CSV
  * event journal    - JSONL rows, known kinds, lifecycle invariants

Exits non-zero with a diagnostic on the first violation.
"""

import argparse
import csv
import json
import sys

EVENT_KINDS = {
    "kernel_arrival", "admission_grant", "sm_bind", "tb_launch",
    "tb_resume", "yield_request", "tb_checkpoint", "demotion",
    "kernel_finish", "slo_met", "slo_missed", "sim_end",
}
SCOPES = {"gpu", "sm", "kernel"}


def fail(msg):
    print(f"check_observability: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace_events(path):
    """A Trace Event JSON array: every event has ph and pid, every slice
    has dur > 0 on a named pid, and no two slices overlap on one track."""
    events = json.load(open(path))
    if not isinstance(events, list) or not events:
        fail(f"{path}: not a non-empty Trace Event array")
    named = set()
    tracks = {}
    for e in events:
        if "ph" not in e or "pid" not in e:
            fail(f"{path}: event without ph or pid {e}")
        if e["ph"] == "M" and e["name"] == "process_name":
            named.add(e["pid"])
        elif e["ph"] == "X":
            if e["dur"] <= 0 or e["ts"] < 0:
                fail(f"{path}: degenerate slice {e}")
            tracks.setdefault((e["pid"], e["tid"]), []).append(
                (e["ts"], e["ts"] + e["dur"]))
    if not tracks:
        fail(f"{path}: no slices")
    for (pid, tid), spans in tracks.items():
        if pid not in named:
            fail(f"{path}: slices on unnamed pid {pid}")
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            if start < end:
                fail(f"{path}: overlapping slices on pid {pid} tid {tid}")
    slices = sum(len(spans) for spans in tracks.values())
    print(f"{path}: {len(events)} events, {slices} slices on "
          f"{len(tracks)} tracks ok")


def suffixed_path(path, key):
    """metrics.hpp's suffixed_path: `.key` before the final extension."""
    slash, dot = path.rfind("/"), path.rfind(".")
    if dot < 0 or dot < slash:
        return f"{path}.{key}"
    return f"{path[:dot]}.{key}{path[dot:]}"


def check_windows(path):
    rows = list(csv.reader(open(path, newline="")))
    if rows[0] != ["kind", "sm", "warp", "start", "end", "length"]:
        fail(f"{path}: bad header {rows[0]}")
    for row in rows[1:]:
        if len(row) != 6 or int(row[4]) <= int(row[3]):
            fail(f"{path}: bad window {row}")
    hist_path = suffixed_path(path, "hist")
    hist = list(csv.reader(open(hist_path, newline="")))
    if hist[0] != ["kind", "bin_lo", "bin_hi", "count"]:
        fail(f"{hist_path}: bad header {hist[0]}")
    binned = sum(int(row[3]) for row in hist[1:])
    if binned != len(rows) - 1:
        fail(f"{hist_path}: {binned} binned vs {len(rows) - 1} windows")
    print(f"{path}: {len(rows) - 1} wait windows, histogram counts match")


def check_metrics_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != ["cycle", "scope", "id", "metric", "value"]:
        fail(f"{path}: bad header {rows[:1]}")
    if len(rows) < 2:
        fail(f"{path}: no samples")
    prev = 0
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 5:
            fail(f"{path}:{i}: expected 5 columns, got {row}")
        cycle, scope, ident, metric, value = row
        if int(cycle) < prev:
            fail(f"{path}:{i}: cycles went backwards ({cycle} < {prev})")
        prev = int(cycle)
        if scope not in SCOPES:
            fail(f"{path}:{i}: unknown scope {scope!r}")
        int(ident)
        float(value)
        if not metric:
            fail(f"{path}:{i}: empty metric name")
    print(f"{path}: {len(rows) - 1} samples ok")
    return len(rows) - 1


def check_metrics_json(path, csv_samples=None):
    doc = json.load(open(path))
    if doc.get("schema") != "prosim-metrics-v1":
        fail(f"{path}: schema is {doc.get('schema')!r}")
    if int(doc["interval"]) < 1:
        fail(f"{path}: interval {doc['interval']} < 1")
    samples = doc["samples"]
    if not samples:
        fail(f"{path}: no samples")
    for s in samples:
        if s["scope"] not in SCOPES:
            fail(f"{path}: unknown scope {s['scope']!r} in {s}")
        for key in ("cycle", "id", "metric", "value"):
            if key not in s:
                fail(f"{path}: sample missing {key!r}: {s}")
    if csv_samples is not None and len(samples) != csv_samples:
        fail(f"{path}: {len(samples)} samples but the CSV has "
             f"{csv_samples}")
    print(f"{path}: {len(samples)} samples ok")


def check_events(path):
    counts = {}
    prev = 0
    n = 0
    # Admission lifecycle: kernel -> line of its arrival / admission grant.
    arrived = {}
    granted = {}
    for i, line in enumerate(open(path), start=1):
        e = json.loads(line)
        if e["event"] not in EVENT_KINDS:
            fail(f"{path}:{i}: unknown event kind {e['event']!r}")
        if int(e["cycle"]) < prev:
            fail(f"{path}:{i}: cycles went backwards")
        prev = int(e["cycle"])
        counts[e["event"]] = counts.get(e["event"], 0) + 1
        n += 1
        k = e.get("kernel")
        if e["event"] == "kernel_arrival":
            arrived.setdefault(k, i)
        elif e["event"] == "admission_grant":
            if k in granted:
                fail(f"{path}:{i}: second admission_grant for kernel {k}")
            granted[k] = i
        elif e["event"] in ("tb_launch", "tb_resume"):
            if "sm" not in e:
                fail(f"{path}:{i}: {e['event']} without an sm")
            if k not in arrived or k not in granted:
                fail(f"{path}:{i}: {e['event']} of kernel {k} before its "
                     "kernel_arrival and admission_grant")
    if counts.get("sim_end", 0) != 1:
        fail(f"{path}: expected exactly one sim_end, got {counts}")
    if counts.get("kernel_arrival", 0) < 1:
        fail(f"{path}: no kernel_arrival rows")
    if counts.get("kernel_finish", 0) > counts["kernel_arrival"]:
        fail(f"{path}: more finishes than arrivals ({counts})")
    print(f"{path}: {n} events ok ({counts})")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lanes")
    ap.add_argument("--timeline", help="kernel timeline")
    ap.add_argument("--tb-timeline")
    ap.add_argument("--windows", help="window CSV; its histogram is read too")
    ap.add_argument("--metrics-csv")
    ap.add_argument("--metrics-json")
    ap.add_argument("--events")
    args = ap.parse_args()
    if not any(vars(args).values()):
        fail("nothing to check (pass at least one artifact)")
    for trace in (args.lanes, args.timeline, args.tb_timeline):
        if trace:
            check_trace_events(trace)
    if args.windows:
        check_windows(args.windows)
    csv_samples = None
    if args.metrics_csv:
        csv_samples = check_metrics_csv(args.metrics_csv)
    if args.metrics_json:
        check_metrics_json(args.metrics_json, csv_samples)
    if args.events:
        check_events(args.events)
    print("observability artifacts ok")


if __name__ == "__main__":
    main()
