#!/usr/bin/env python3
"""Compares benchmark result sets, and measures their spread.

A result set is a file of JSON lines, one per benchmark run: the
workload, seed, trace flag, the host facts (git rev, nproc, CPU model,
rustc) and the result line the run printed.

  compare.py pairs --parent DIR --change DIR --out DIR
      Runs the benchmark in two checkouts as 10 alternating pairs on
      seeds 1..10 (parent first on odd seeds, change first on even
      ones), every workload for run_seconds, plus one traced run per
      side and workload. Writes DIR/parent.jsonl and DIR/change.jsonl,
      then compares them.

  compare.py compare PARENT.jsonl CHANGE.jsonl
      One row per workload x end-to-end metric: at least 10 pairs; a
      gain needs the change to win 9 of 10 pairs and a median gap wider
      than the parent's interquartile range; a metric whose parent
      spread exceeds its bound is "unresolved" unless every change run
      beats every parent run. Per-layer counts of traced runs are
      compared exactly.

  compare.py spread FILE.jsonl
      Per workload x end-to-end metric: the interquartile range of the
      runs as a share of their median, against the metric's bound.

Workloads, run length, bounds and directions come from BENCHMARK.json
next to this directory; each checkout runs its own command.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec(root=ROOT):
    with open(root / "BENCHMARK.json") as f:
        return json.load(f)


def load_records(path):
    records = []
    with open(path) as f:
        for line in f:
            if line.strip():
                records.append(json.loads(line))
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(records, trace):
    """{workload: {metric: [values in run order]}} for one trace flag."""
    out = {}
    for r in records:
        if r["trace"] != trace:
            continue
        metrics = out.setdefault(r["workload"], {})
        for name, m in r["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def hosts(records):
    return sorted({(r["rev"], r["nproc"], r["cpu"], r["rustc"]) for r in records})


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def judge(parent, change, metric):
    """One comparison row for two lists of paired runs."""
    bound, direction = metric["bound"], metric["better"]
    pairs = min(len(parent), len(change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    spread = (p3 - p1) / pm if pm else float("inf")
    worse_by = (cm - pm) / pm if direction == "lower" else (pm - cm) / pm
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if pairs < MIN_PAIRS:
        verdict = f"too few pairs ({pairs} < {MIN_PAIRS})"
    elif spread > bound and not all_better:
        verdict = f"unresolved (parent spread {spread:.1%} > bound {bound:.0%})"
    elif wins >= WIN_SHARE * pairs and abs(cm - pm) > (p3 - p1) and better(cm, pm, direction):
        verdict = "better"
    elif worse_by > bound:
        verdict = f"worse (by {worse_by:.1%} > bound {bound:.0%})"
    else:
        verdict = "within bound"
    return {
        "parent": (pm, p1, p3),
        "change": (cm, c1, c3),
        "delta": (cm - pm) / pm if pm else 0.0,
        "wins": wins,
        "pairs": pairs,
        "verdict": verdict,
    }


def cmd_compare(args):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    parent, change = load_records(args.parent), load_records(args.change)
    for side, records in (("parent", parent), ("change", change)):
        for rev, nproc, cpu, rustc in hosts(records):
            print(f"# {side}: rev={rev} nproc={nproc} cpu={cpu!r} rustc={rustc!r}")
    if {h[1:] for h in hosts(parent)} != {h[1:] for h in hosts(change)}:
        print("# WARNING: the two sides ran on different hosts or compilers")
    p_runs, c_runs = series(parent, 0), series(change, 0)
    print(
        f"{'workload':<18} {'metric':<14} {'unit':<6} {'parent median [q1, q3]':>36} "
        f"{'change median [q1, q3]':>36} {'delta':>8} {'wins':>7}  verdict"
    )
    workloads = [w["name"] for w in spec["workloads"] if w["name"] in p_runs or w["name"] in c_runs]
    for workload in workloads:
        for name, metric in metrics.items():
            p = p_runs.get(workload, {}).get(name, [])
            c = c_runs.get(workload, {}).get(name, [])
            if not p or not c:
                print(f"{workload:<18} {name:<14} missing runs")
                continue
            row = judge(p, c, metric)
            fmt = lambda t: f"{t[0]:.6g} [{t[1]:.6g}, {t[2]:.6g}]"
            print(
                f"{workload:<18} {name:<14} {metric['unit']:<6} {fmt(row['parent']):>36} "
                f"{fmt(row['change']):>36} {row['delta']:>+8.1%} "
                f"{row['wins']:>3}/{row['pairs']:<3}  {row['verdict']}"
            )
    p_traced, c_traced = series(parent, 1), series(change, 1)
    for workload in sorted(set(p_traced) & set(c_traced)):
        for name, unit in units.items():
            if unit != "count":
                continue
            p = sorted(set(p_traced[workload].get(name, [])))
            c = sorted(set(c_traced[workload].get(name, [])))
            if not any(p + c):
                continue  # the layer does not run on this workload
            if not all(float(v).is_integer() for v in p + c):
                state = "a per-job mean, not compared exactly"
            else:
                state = "equal" if p == c else f"DIFFERS: parent {p} change {c}"
            print(f"# count {workload:<18} {name:<28} {state}")


def cmd_spread(args):
    spec = load_spec()
    records = load_records(args.file)
    for rev, nproc, cpu, rustc in hosts(records):
        print(f"# rev={rev} nproc={nproc} cpu={cpu!r} rustc={rustc!r}")
    runs = series(records, 0)
    worst = 0.0
    print(f"{'workload':<18} {'metric':<14} {'n':>3} {'median':>14} {'spread':>8} {'bound':>6}  status")
    for workload, metrics in runs.items():
        for metric in spec["end_to_end"]:
            values = metrics.get(metric["name"], [])
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = metric["bound"]
            status = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            worst = max(worst, spread / bound)
            print(
                f"{workload:<18} {metric['name']:<14} {len(values):>3} {med:>14.6g} "
                f"{spread:>8.2%} {bound:>6.0%}  {status}"
            )
    print(f"# widest spread as a share of its bound: {worst:.2f}")


def host_facts(checkout):
    """The facts a result must carry to be comparable with another: which
    code, on how many CPUs of which model, built by which compiler."""

    def output(command):
        done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else "unknown"

    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "rev": output(["git", "rev-parse", "HEAD"]),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "rustc": output(["rustc", "--version"]),
    }


def run_once(checkout, host, workload, seed, seconds, trace, record):
    """Runs the benchmark once in `checkout` and appends its result line,
    with the run's settings and host facts, to `record`."""
    command = load_spec(checkout)["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(checkout / ".bench_build"))
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    entry = dict(workload=workload, seed=seed, seconds=seconds, trace=trace, **host, result=result)
    with open(record, "a") as f:
        f.write(json.dumps(entry) + "\n")


def cmd_pairs(args):
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    sides = {
        side: (checkout, host_facts(checkout), out / f"{side}.jsonl")
        for side, checkout in (("parent", parent), ("change", change))
    }
    for _, _, record in sides.values():
        record.write_text("")
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]

    def run(side, workload, seed, trace):
        checkout, host, record = sides[side]
        run_once(checkout, host, workload, seed, spec["run_seconds"], trace, record)

    for i in range(MIN_PAIRS):
        seed = i + 1
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                print(f"pair {seed}/{MIN_PAIRS} {workload} {side}", file=sys.stderr)
                run(side, workload, seed, 0)
    # One traced run per side and workload, for the exact count comparison.
    for workload in workloads:
        for side in ("parent", "change"):
            print(f"traced {workload} {side}", file=sys.stderr)
            run(side, workload, 1, 1)
    cmd_compare(argparse.Namespace(parent=sides["parent"][2], change=sides["change"][2]))


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    p = sub.add_parser("spread")
    p.add_argument("file")
    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--out", required=True)
    args = parser.parse_args()
    {"compare": cmd_compare, "spread": cmd_spread, "pairs": cmd_pairs}[args.cmd](args)


if __name__ == "__main__":
    main()
