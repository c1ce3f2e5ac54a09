"""One workload run in a fresh process: set up, time the plan's commands,
then check their outputs.

    python3 perfbench/worker.py PLAN.json [--setup-only]

Run from the root of a checkout.  Set-up is ``import jetexp`` plus
loading every chart file of the plan; the worker prints ``ready`` when it
is done, and with ``--setup-only`` exits there (the parent times several
set-ups this way).  Otherwise it runs passes over the plan's commands,
each command one ``jetexp.cli.main`` call, and writes a JSON result to
the plan's ``result`` path:

* untraced: passes until ``seconds`` have gone by, at least
  ``min_passes``; per command the latency of every pass;
* traced: one untraced pass, then one pass with every layer hook
  installed; the per-layer report of the traced pass.

Every pass must print exactly what the first pass printed.  The gate
then checks the first pass's outputs (see gate.py).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time

import speed

COMMAND_TIMEOUT_S = 60
MAX_MEASURE_S = 120


class CommandTimeout(BaseException):
    """Raised by the alarm inside a command that ran too long (a
    BaseException, so that no handler inside the package swallows it)."""


def _alarm(signum, frame):
    raise CommandTimeout()


def _run_command(main, cmd, sampler):
    out, err = io.StringIO(), io.StringIO()
    result = {"rc": None, "stdout": "", "error": None}
    signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
    mark = sampler.mark()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            result["rc"] = main(list(cmd["argv"]), out)
    except CommandTimeout:
        result["error"] = "timed out after %d s" % COMMAND_TIMEOUT_S
    except SystemExit as exc:  # argparse rejects the arguments
        result["rc"] = exc.code
    except Exception as exc:
        result["error"] = "raised %s: %s" % (type(exc).__name__, exc)
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    probing, probe_s = sampler.since(mark)
    result["stdout"] = out.getvalue()
    result["raw_seconds"] = elapsed - probing
    result["seconds"] = speed.reference_seconds(elapsed - probing, probe_s)
    return result


def _pass(main, commands, sampler, tracer=None):
    gc.collect()
    results = []
    for cmd in commands:
        if tracer is None:
            results.append(_run_command(main, cmd, sampler))
        else:
            results.append(tracer.run("cli." + cmd["kind"], True,
                                      _run_command, (main, cmd, sampler),
                                      {}))
    return results


def _same_output(first, later):
    return [a["rc"] == b["rc"] and a["stdout"] == b["stdout"]
            and a["error"] == b["error"] for a, b in zip(first, later)]


def main(argv):
    warm = [speed.probe(), speed.probe()]  # the first runs cold
    plan_path = argv[0]
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import jetexp  # noqa: F401  (set-up includes the package import)
    from jetexp.chartfile import load_chart_file
    from jetexp.cli import main as cli_main
    for path in plan["charts"]:
        load_chart_file(path)
    warm.append(speed.probe())
    # set-up time includes the probes: report what to subtract, and the
    # probe duration to normalize by
    print("ready %r %r" % (sum(warm), (warm[1] + warm[2]) / 2), flush=True)
    if "--setup-only" in argv:
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    commands = plan["commands"]
    sampler = speed.Sampler()
    sampler.start()
    start = time.perf_counter()
    passes = [_pass(cli_main, commands, sampler)]
    if not plan["trace"]:
        while (len(passes) < plan["min_passes"]
               or time.perf_counter() - start < plan["seconds"]) \
                and time.perf_counter() - start < MAX_MEASURE_S:
            passes.append(_pass(cli_main, commands, sampler))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"passes": len(passes), "peak_rss_mb": peak_rss_kb / 1024.0}
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
        try:
            passes.append(_pass(cli_main, commands, sampler, tracer))
        finally:
            installed.uninstall()
        result["hooks_restored"] = installed.restored()
        result["layers"] = tracing.layer_metrics(tracer)
        result["trace"] = tracer.report()
    sampler.stop()
    result["probe_s"] = sampler.samples

    import gate
    failures = gate.check(plan, passes[0])
    for later in passes[1:]:
        for i, same in enumerate(_same_output(passes[0], later)):
            if not same and failures[i] is None:
                failures[i] = "output changed between passes"
    result["failures"] = failures
    result["latencies"] = [[p[i]["seconds"] for p in passes]
                           for i in range(len(commands))]
    result["raw_latencies"] = [[p[i]["raw_seconds"] for p in passes]
                               for i in range(len(commands))]
    with open(plan["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
