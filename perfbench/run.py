"""Benchmark of the jetexp command line: one workload run, one result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
Workloads (see README.md in this directory for why each exists):

  shipped-cli   every subcommand on the shipped charts, outputs compared
                byte for byte with references
  solve-ladder  correction solve and both augmentation routes on
                generated charts over (n, Q) rungs
  pbw-batch     a few hundred short exponential-map queries, each with a
                cold context

The parent generates the inputs from the seed, times ``SETUP_RUNS``
set-ups in fresh processes, then runs the workload in one more fresh
process (worker.py) and reads its result.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` (commands run),
``failed`` (commands whose output failed the gate) and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  The lines before it spell every metric out with its unit
and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
SETUP_RUNS = 5      # set-up samples per run, the workload's own included
MIN_PASSES = 2      # untraced passes per run, at least
RUN_LIMIT_S = 170   # the whole run, set-ups included

KIND_METRICS = {kind: "cli.%s_s" % kind for kind in workloads.KINDS}


def _fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def _start(plan_path, setup_only, deadline):
    """Start a worker; return (process, reference seconds from start to
    ready, without the worker's own speed probes)."""
    argv = [sys.executable, WORKER, plan_path]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    elapsed = time.perf_counter() - start
    fields = line.split()
    if len(fields) != 3 or fields[0] != "ready":
        proc.kill()
        proc.wait()
        _fail("worker did not get ready (exit code %s)" % proc.returncode)
    probing, probe_s = float(fields[1]), float(fields[2])
    return proc, speed.reference_seconds(elapsed - probing, probe_s)


def _finish(proc, deadline):
    try:
        proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        _fail("worker ran past the run's time limit")
    if proc.returncode != 0:
        _fail("worker failed with exit code %d" % proc.returncode)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(plan, result, setups):
    """The end-to-end metrics of an untraced run, with detail lines."""
    cmds = plan["commands"]
    per_cmd = [statistics.median(s) for s in result["latencies"]]
    kinds = {}
    for cmd, seconds in zip(cmds, per_cmd):
        kinds.setdefault(cmd["kind"], []).append(seconds)
    metrics = {
        "wall_s": _metric(sum(per_cmd), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "query_p50_ms": _metric(1000 * statistics.median(per_cmd), "ms"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }
    samples = {
        "wall_s": "%d commands, each the median of %d passes"
                  % (len(cmds), result["passes"]),
        "setup_s": "median of %d set-ups" % len(setups),
        "query_p50_ms": "%d command latencies" % len(cmds),
        "peak_rss_mb": "1 process",
    }
    detail = ["%-14s %12.6f %-3s (%s)" % (name, m["value"], m["unit"],
                                           samples[name])
              for name, m in metrics.items()]
    p95 = statistics.quantiles(per_cmd, n=100, method="inclusive")[94]
    detail.append("%-14s %12.6f ms  (%d command latencies, %d above it, "
                  "not gated)" % ("query_p95_ms", 1000 * p95, len(cmds),
                                  sum(1 for s in per_cmd if s > p95)))
    for kind in workloads.KINDS:
        if kind in kinds:
            detail.append("%-14s %12.6f s   (%d %s commands, not gated)"
                          % (KIND_METRICS[kind], sum(kinds[kind]),
                             len(kinds[kind]), kind))
    raw = sum(statistics.median(s) for s in result["raw_latencies"])
    detail.append("unscaled wall time %.3f s; speed probe median %.3f ms "
                  "over %d samples (times above are reference seconds, "
                  "see speed.py)" % (raw, 1000 * statistics.median(
                      result["probe_s"]), len(result["probe_s"])))
    return metrics, detail


def per_layer(plan, result):
    """The per-layer metrics of a traced run: the hooks' metrics, the
    untraced pass's timing per command kind, and the tracing overhead."""
    cmds = plan["commands"]
    untraced = [s[0] for s in result["latencies"]]
    traced = [s[1] for s in result["latencies"]]
    metrics = dict(result["layers"])
    for kind, name in KIND_METRICS.items():
        metrics[name] = _metric(sum(s for c, s in zip(cmds, untraced)
                                    if c["kind"] == kind), "s")
    overhead = sum(traced) - sum(untraced)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    metrics["trace.overhead_share"] = _metric(overhead / sum(untraced),
                                              "ratio")
    layers = result["trace"]["layers"]
    detail = ["%-34s %9s %12s %12s" % ("traced name", "calls", "inclusive_s",
                                        "self_s")]
    for name in sorted(layers):
        row = layers[name]
        detail.append("%-34s %9d %12.6f %12.6f" % (
            name, row["calls"], row["inclusive_s"], row["self_s"]))
    detail.append("tracing overhead: %.3f s on %.3f s untraced (%d commands)"
                  % (overhead, sum(untraced), len(cmds)))
    if not result["hooks_restored"]:
        detail.append("ERROR: a traced function was not restored")
    for name, m in metrics.items():
        if m["value"] is None:
            detail.append("%s: null (%s)" % (name, m["reason"]))
    return metrics, detail


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "jetexp", "__init__.py")):
        _fail("no jetexp sources under %s" % os.path.join(ROOT, "src"))
    outdir = os.path.join(OUT_DIR, "%s-%d" % (workload, seed))
    plan = workloads.build_plan(workload, seed, ROOT, outdir)
    plan.update(seconds=seconds, min_passes=MIN_PASSES, trace=bool(trace),
                result=os.path.join(outdir, "result-trace%d.json" % trace))
    plan_path = os.path.join(ROOT, outdir, "plan.json")
    os.makedirs(os.path.dirname(plan_path), exist_ok=True)
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)

    setups = []
    for _ in range(0 if trace else SETUP_RUNS - 1):
        proc, elapsed = _start(plan_path, True, deadline)
        _finish(proc, deadline)
        setups.append(elapsed)
    proc, elapsed = _start(plan_path, False, deadline)
    setups.append(elapsed)
    _finish(proc, deadline)
    with open(os.path.join(ROOT, plan["result"]), encoding="utf-8") as handle:
        result = json.load(handle)

    failed = sum(1 for f in result["failures"] if f is not None)
    attempted = len(plan["commands"])
    if trace:
        metrics, detail = per_layer(plan, result)
    else:
        metrics, detail = end_to_end(plan, result, setups)
    passes = ("1 untraced pass, then 1 traced pass" if trace
              else "%d untraced passes" % result["passes"])
    print("workload %s, seed %d: %s; result file %s"
          % (workload, seed, passes, plan["result"]))
    print("\n".join(detail))
    for cmd, reason in zip(plan["commands"], result["failures"]):
        if reason is not None:
            print("FAILED %s: %s" % (" ".join(cmd["argv"]), reason))
    print("failed_share   %12.6f     (%d of %d commands)"
          % (failed / attempted, failed, attempted))
    correct = failed == 0 and result.get("hooks_restored", True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
