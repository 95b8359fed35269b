#!/usr/bin/env python3
"""Alternating parent/change pairs of the perfbench benchmark.

    python3 scripts/bench_pairs.py --parent REF --workload fig4_cold --pairs 10
    python3 scripts/bench_pairs.py --parent REF --workload fig4_cold --trace 1 \\
        --pairs 5 --metric sm.host_ns_per_warp_inst --metric gpu.active_step_ns

The change is the current working tree, uncommitted edits included. The
parent is git ref REF, exported with `git archive` into a work directory
(a temporary one unless --work-dir is given; a given one is reused across
invocations, so the two builds are made once). Each side runs its own
perfbench/run.py, so each builds its own sources, with its own
CARGO_TARGET_DIR under the work directory.

Pair i runs both sides once, the parent first in odd pairs (1, 3, ...)
and the change first in even ones. Every run's compared metrics are
printed, then per compared metric every run, the medians, the quartiles,
the change's win count and the median ratio ("better" comes from
BENCHMARK.json), and one line of medians and quartiles for each other
metric the runs report. A pair in which either run reports
`correct: false` or fails to produce a result is dropped whole, so every
statistic is over complete pairs, and the script then exits 1. It also
reports whether each simulated metric was identical in every run of both
sides.

--rows prints, as the last two stdout lines, one BENCH_<workload>.json row
per side (parent, then change): the result line of the run at the lower
median of the first metric, the build stamp, every run's value of each
metric and the first metric's median. Neither perfbench/ nor
BENCHMARK.json is modified.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Deterministic outputs of the simulated model: equal in every run when a
# change only touches host speed.
SIMULATED = ("sim_cycles", "cells_ok_ratio", "pro_speedup_vs_lrr",
             "pro_speedup_vs_gto", "pro_speedup_vs_tl",
             "completion_p99_cycles", "slo_attainment")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def better_table():
    """Metric name -> "higher" or "lower", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in bench[key]}


def host_label():
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} vCPUs"


def export_parent(ref, dest):
    """Writes the tree of `ref` to `dest` once; returns its full hash."""
    commit = git("rev-parse", "--verify", ref + "^{commit}")
    marker = os.path.join(dest, ".bench_pairs_commit")
    if os.path.exists(marker):
        with open(marker) as f:
            if f.read().strip() == commit:
                return commit
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    with open(marker, "w") as f:
        f.write(commit + "\n")
    return commit


def run_side(tree, target_dir, args):
    """One perfbench run of `tree`; returns (result line, stamp) or None."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--trace", str(args.trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    stamp = {}
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench: stamp "):
            stamp = json.loads(line[len("perfbench: stamp "):])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stderr)
        return None
    return json.loads(lines[-1]), stamp


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def describe(values):
    """Median with quartiles in brackets."""
    q1, q3 = quartiles(values)
    return f"{fmt(statistics.median(values))} [{fmt(q1)}, {fmt(q3)}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent")
    parser.add_argument("--workload", default="fig4_cold")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--metric", action="append",
                        help="metric to compare (repeatable; default "
                             "sim_cycles_per_s and wall_s, or with --trace 1 "
                             "gpu.step_ns_per_cycle)")
    parser.add_argument("--work-dir",
                        help="reuse this directory for the export and builds")
    parser.add_argument("--rows", action="store_true",
                        help="print one BENCH_<workload>.json row per side")
    parser.add_argument("--parent-label", help="commit field of the parent row")
    parser.add_argument("--change-label", help="commit field of the change row")
    parser.add_argument("--note-parent", default="")
    parser.add_argument("--note-change", default="")
    args = parser.parse_args()
    metrics = args.metric or (["gpu.step_ns_per_cycle"] if args.trace
                              else ["sim_cycles_per_s", "wall_s"])
    better = better_table()
    for name in metrics:
        if name not in better:
            parser.error(f"{name} is not a metric of BENCHMARK.json")

    work = args.work_dir or tempfile.mkdtemp(prefix="bench_pairs.")
    os.makedirs(work, exist_ok=True)
    try:
        parent_commit = export_parent(args.parent, os.path.join(work, "parent"))
        head = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no") != ""
        sides = {
            "parent": (os.path.join(work, "parent"),
                       os.path.join(work, "target-parent"),
                       args.parent_label or parent_commit[:7]),
            "change": (ROOT, os.path.join(work, "target-change"),
                       args.change_label or head + ("+worktree" if dirty
                                                    else "")),
        }
        # Only complete pairs are kept, so runs[side][k] of both sides come
        # from the same pair k.
        runs = {"parent": [], "change": []}
        ok = True
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            pair = {}
            for side in order:
                tree, target, _ = sides[side]
                got = run_side(tree, target, args)
                if got is None or not got[0]["correct"]:
                    log(f"pair {i} {side}: run failed or not correct")
                    continue
                result, _ = got
                pair[side] = got
                values = " ".join(
                    f"{m}={fmt(result['metrics'][m]['value'])}"
                    for m in metrics)
                log(f"pair {i} {side}: {values} correct={result['correct']} "
                    f"failed={result['failed']}")
            if len(pair) < 2:
                ok = False
                log(f"pair {i} dropped")
                continue
            for side in pair:
                runs[side].append(pair[side])

        def series(side, name):
            return [r["metrics"][name]["value"] for r, _ in runs[side]]

        print(f"workload {args.workload}, trace {args.trace}, "
              f"{len(runs['parent'])} of {args.pairs} pairs complete, "
              f"parent {sides['parent'][2]}, "
              f"change {sides['change'][2]}")
        for name in metrics:
            par, chg = series("parent", name), series("change", name)
            if not par or not chg:
                continue
            higher = better[name] == "higher"
            wins = sum((c > p) if higher else (c < p)
                       for p, c in zip(par, chg))
            pm, cm = statistics.median(par), statistics.median(chg)
            q1, q3 = quartiles(par)
            print(f"{name} ({better[name]} is better)")
            print("  parent runs: " + " ".join(fmt(v) for v in par))
            print("  change runs: " + " ".join(fmt(v) for v in chg))
            print(f"  parent median {describe(par)}, IQR {fmt(q3 - q1)}")
            print(f"  change median {describe(chg)}")
            ratio = cm / pm if pm else float("nan")
            print(f"  change/parent {ratio:.3f}, |gap| {fmt(abs(cm - pm))}, "
                  f"change better in {wins}/{len(par)} pairs")
        others = [name for name in runs["parent"][0][0]["metrics"]
                  if name not in metrics and name not in SIMULATED] \
            if runs["parent"] else []
        for name in others:
            par, chg = series("parent", name), series("change", name)
            if not chg:
                continue
            pm, cm = statistics.median(par), statistics.median(chg)
            ratio = f"{cm / pm:.3f}" if pm else "n/a"
            print(f"{name}: parent median {describe(par)}, change median "
                  f"{describe(chg)}, change/parent {ratio}")
        if args.trace == 0:
            for name in SIMULATED:
                values = {json.dumps(r["metrics"][name]["value"])
                          for side in runs for r, _ in runs[side]
                          if name in r["metrics"]}
                if values:
                    print(f"{name}: " + ("identical in every run" if
                                         len(values) == 1 else
                                         "DIFFERS: " + ", ".join(values)))
        if args.rows:
            notes = {"parent": args.note_parent, "change": args.note_change}
            for side in ("parent", "change"):
                print(json.dumps(bench_row(args, sides[side][2], notes[side],
                                           runs[side], metrics)))
        return 0 if ok else 1
    finally:
        if not args.work_dir:
            shutil.rmtree(work, ignore_errors=True)


def bench_row(args, label, note, side_runs, metrics):
    """The BENCH_<workload>.json row of one side."""
    first = metrics[0]
    ordered = sorted(side_runs, key=lambda rs: rs[0]["metrics"][first]["value"])
    result, stamp = ordered[(len(ordered) - 1) // 2] if ordered else ({}, {})
    command = f"python3 perfbench/run.py --workload {args.workload}"
    if args.trace:
        command += " --trace 1"
    row = {"commit": label, "note": note, "command": command,
           "stamp": dict(stamp, git_hash=label, host=host_label()),
           "result": result}
    for name in metrics:
        row[f"{name}_runs"] = [round(r["metrics"][name]["value"], 4)
                               for r, _ in side_runs]
    values = [r["metrics"][first]["value"] for r, _ in side_runs]
    row[f"{first}_median"] = (round(statistics.median(values), 1)
                              if values else None)
    return row


if __name__ == "__main__":
    sys.exit(main())
