#!/usr/bin/env python3
"""CourseRank request-mix benchmark: build, run one workload, check, report.

Run from the repository root:

    python3 sitebench/run.py --workload recommend --seed 42 --seconds 12 --trace 0
    python3 sitebench/run.py --workload all --seed 42     # every gated workload, table
    python3 sitebench/run.py --summary                    # medians of stored runs
    python3 sitebench/run.py --summary old.jsonl new.jsonl   # compare two sets

The first call configures and builds `site_bench` (Release) from ../src into
$CARGO_TARGET_DIR, or `.bench_build` when that is unset. Each run appends its
full report, with a host fingerprint, to `.bench_results/runs.jsonl`; traced
runs also leave `ledger-<workload>-seed<n>.json` and `spans-*.jsonl` there.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Everything else goes to standard error. Exit status is 0 only when the
program was built and run and a result was printed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = Path(".bench_results")
RUN_TIMEOUT_S = 170
# Runnable and reported like the others, but not among BENCHMARK.json's
# workloads: with it, the gated runs would not fit their time budget
# (README.md, "Workloads").
UNGATED_WORKLOADS = ["discover"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(REPO_ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else Path.cwd() / d


def build():
    """Configures and builds site_bench; returns the binary's path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "site_bench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    exe = out / "site_bench"
    if not exe.exists():
        raise RuntimeError(f"{exe} was not built")
    return exe


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(report):
    host = report["host"]
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": host["compiler"],
        "build_type": host["build_type"],
        "pool_workers": host["pool_workers"],
        "seed": report["seed"],
        "probe_ms": host["probe_ms"],
    }


def check_digest(report):
    """Same seed, same responses: across runs, traced or not."""
    path = RESULTS_DIR / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    key = f"{report['workload']}/seed{report['seed']}/first{report['digest_prefix_requests']}"
    seen = store.get(key)
    if seen is None:
        store[key] = report["digest_prefix"]
        path.write_text(json.dumps(store, indent=1, sort_keys=True))
        return True
    return seen == report["digest_prefix"]


def sample_count(name, report):
    """Samples behind one metric, for the human-readable report."""
    lat = report["latency_ms"]
    if name == "setup_s":
        return len(report["setup_s"])
    if name.startswith("read_"):
        return lat["read"]["n"]
    if name == "peak_rss_mb":
        return 1
    return lat["all"]["n"]


def run_once(exe, spec, workload, seed, seconds, trace):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(RESULTS_DIR)]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"site_bench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("site_bench printed no report")
    report = json.loads(lines[-1])
    report["process_s"] = time.monotonic() - start
    report["fingerprint"] = fingerprint(report)
    digest_ok = check_digest(report)
    if not digest_ok:
        report["problems"].append(
            "responses differ from an earlier run with the same seed")
    report["correct"] = bool(report["correct"]) and digest_ok

    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        value = report["metrics"].get(m["name"])
        if value is None:
            raise RuntimeError(f"metric {m['name']} missing from the report")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    with open(RESULTS_DIR / "runs.jsonl", "a") as f:
        f.write(json.dumps(report, sort_keys=True) + "\n")
    if trace:
        ledger = {k: report[k] for k in ("workload", "seed", "fingerprint",
                                         "ledger", "spans", "counter_deltas",
                                         "bases", "metrics")}
        path = RESULTS_DIR / f"ledger-{workload}-seed{seed}.json"
        path.write_text(json.dumps(ledger, indent=1, sort_keys=True))

    log(f"== {workload} seed={seed} trace={trace}: {report['attempted']} requests, "
        f"{report['failed']} failed, correct={report['correct']}, "
        f"{report['process_s']:.1f}s in process")
    for p in report["problems"]:
        log("   PROBLEM: " + p)
    for name, m in metrics.items():
        n = "" if trace else f"  (n={sample_count(name, report)})"
        log(f"   {name:36s} {m['value']:14.6g} {m['unit']}{n}")
    if not trace:
        log("   per request class (not gated; each class exists only on some workloads):")
        for cls, st in report["latency_ms"].items():
            if st["n"]:
                p99 = "" if st["p99"] is None else f" p99={st['p99']:.3f}"
                log(f"     {cls:10s} n={st['n']:6d} p50={st['p50']:.3f} "
                    f"p90={st['p90']:.3f}{p99} ms")
        log(f"     error_ratio = {report['failed']}/{report['attempted']}")
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def load_runs(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def host_key(run):
    fp = run["fingerprint"]
    return (fp["nproc"], fp["cpu_model"], fp["compiler"], fp["build_type"],
            fp["pool_workers"])


def describe(vals):
    """(n, median, q1, q3) as statistics.quantiles gives them."""
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) >= 2 else (vals[0],) * 3
    return len(vals), med, q1, q3


def summary(spec, paths):
    """Sample count, median and quartiles of every metric of stored runs.

    With two or more sets of runs, each later set is compared with the
    first: the ratio of medians per metric, flagged when the sets' host
    probes differ by more than the metric's bound (the host ran at another
    speed, so the timings do not compare) or when the sets come from
    different hosts.
    """
    sets = []
    for path in paths:
        if not Path(path).exists():
            log(f"no stored runs in {path}")
            return 1
        sets.append(load_runs(path))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    base = sets[0]
    for i, runs in enumerate(sets):
        probes = [r["fingerprint"]["probe_ms"] for r in runs]
        n, med, q1, q3 = describe(probes)
        print(f"set {i} ({paths[i]}): {len(runs)} runs, host probe n={n} "
              f"median={med:.2f} q1={q1:.2f} q3={q3:.2f} ms")
    if len({host_key(r) for runs in sets for r in runs}) > 1:
        print("WARNING: runs from different hosts; compare only same-host runs")
    base_probe = statistics.median(r["fingerprint"]["probe_ms"] for r in base)

    for workload, trace in sorted({(r["workload"], r["trace"]) for r in base}):
        section = "per_layer" if trace else "end_to_end"
        group = [[r for r in runs if (r["workload"], r["trace"]) == (workload, trace)]
                 for runs in sets]
        print(f"{workload} trace={trace}: " + ", ".join(
            f"set {i} {len(g)} runs, seeds {sorted({r['seed'] for r in g})}"
            for i, g in enumerate(group) if g))
        for m in spec[section]:
            name = m["name"]
            for i, g in enumerate(group):
                vals = [r["metrics"][name] for r in g if name in r["metrics"]]
                if not vals:
                    continue
                n, med, q1, q3 = describe(vals)
                spread = (q3 - q1) / med if med else float("nan")
                line = (f"  {name if i == 0 else '':36s} set {i} n={n:3d} "
                        f"median={med:12.6g} q1={q1:12.6g} q3={q3:12.6g} "
                        f"iqr/median={spread:7.4f} {m['unit']}")
                base_vals = [r["metrics"][name] for r in group[0] if name in r["metrics"]]
                if i > 0 and base_vals and statistics.median(base_vals):
                    line += f"  ratio={med / statistics.median(base_vals):.4f}"
                    probe = statistics.median(r["fingerprint"]["probe_ms"] for r in g)
                    drift = abs(probe / base_probe - 1)
                    bound = bounds.get(name)
                    if bound is not None and drift > bound:
                        line += f"  HOST PROBE DIFFERS by {drift:.0%}: not comparable"
                print(line)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--summary", nargs="*", metavar="RUNS_JSONL",
                        help="summarize stored runs (default .bench_results/runs.jsonl); "
                             "with two or more files, compare each with the first")
    args = parser.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    RESULTS_DIR.mkdir(exist_ok=True)
    if args.summary is not None:
        return summary(spec, args.summary or [str(RESULTS_DIR / "runs.jsonl")])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + UNGATED_WORKLOADS + ["all"]:
        log(f"--workload must be one of {names + UNGATED_WORKLOADS} or all")
        return 2
    seconds = args.seconds or spec["run_seconds"]
    try:
        exe = build()
        if args.workload == "all":
            ok = True
            for w in names:
                for trace in (0, 1):
                    r = run_once(exe, spec, w, args.seed, seconds, trace)
                    ok = ok and r["correct"] and r["failed"] == 0
            return 0 if ok else 1
        result = run_once(exe, spec, args.workload, args.seed, seconds, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"benchmark failed: {e}")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
