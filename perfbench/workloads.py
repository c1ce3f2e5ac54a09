"""The three workloads, as plans: the chart files a run loads and the
commands it times, each with what its output must satisfy.

A plan is plain JSON, written by the parent process and read by the
worker, so the worker's inputs are fixed before any timing starts.

Command kinds (the end-to-end timings are summed per kind):

  fedosov     ``fedosov`` (correction solve + D2_RESIDUAL)
  tau_series  ``tau --route series``
  tau_pbw     ``tau --route pbw``
  pbw_fwd     ``pbw --direction fwd``
  pbw_inv     ``pbw --direction inv``
  verify      ``verify --suite all``
"""

from __future__ import annotations

import json
import os
import random

import gen

WORKLOADS = ("shipped-cli", "solve-ladder", "pbw-batch")
KINDS = ("fedosov", "tau_series", "tau_pbw", "pbw_fwd", "pbw_inv", "verify")

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "shipped-cli.json")

# shipped-cli: a fixed expression list per shipped chart
# (pbw fwd tensors, pbw inv operators, tau base functions)
SHIPPED_EXPRESSIONS = {
    "line_curved": (
        ["s[x]", "s[x]^2", "s[x]^3", "s[x]^4", "s[x]^5", "x*s[x]^2",
         "x^3*s[x]^3", "x^2*s[x]^4 + s[x]", "2*x*s[x]^5 - s[x]^2",
         "1/2*s[x]^4 + x*s[x]"],
        ["d[x]", "d[x]^2", "d[x]^3", "d[x]^4", "d[x]^5", "x*d[x]^3",
         "d[x]*x*d[x]", "x^2*d[x]^2 + d[x]", "d[x]*x^2*d[x]^2"],
        ["x", "x^2", "x^3 + x", "x^4 - 2*x", "x^5", "3*x^2 - x^3"]),
    "line_flat": (
        ["s[x]", "s[x]^2", "s[x]^3", "s[x]^4", "s[x]^5", "x*s[x]^2",
         "x^3*s[x]^3", "x^2*s[x]^4 + s[x]", "2*x*s[x]^5 - s[x]^2",
         "1/2*s[x]^4 + x*s[x]"],
        ["d[x]", "d[x]^2", "d[x]^3", "d[x]^4", "d[x]^5", "x*d[x]^3",
         "d[x]*x*d[x]", "x^2*d[x]^2 + d[x]", "d[x]*x^2*d[x]^2"],
        ["x", "x^2", "x^3 + x", "x^4 - 2*x", "x^5", "3*x^2 - x^3"]),
    "mixed_parity": (
        ["s[x]", "s[t]", "s[x]*s[t]", "s[x]^3", "s[x]^2*s[t]", "s[x]^5",
         "t*s[x]^2*s[t]", "x*t*s[x]^3", "x*s[x]^4*s[t]",
         "t*s[x]^4 + s[t]"],
        ["d[x]", "d[t]", "d[x]*d[t]", "d[t]*d[x]^2", "x*d[x]^3",
         "d[x]^3*d[t]", "x*t*d[x]^2", "d[x]^5", "t*d[x]^4*d[t]"],
        ["x", "t", "x^2", "x*t", "x^3 + t", "x^2*t + x"]),
    "plane_curved": (
        ["s[x2]", "s[x1]^2", "s[x1]*s[x2]^2", "x2*s[x1]^3",
         "s[x2]^4*s[x1]", "x1*x2*s[x2]^2", "s[x2]^2*s[x1]^2",
         "x1*s[x1]^4", "s[x2]^5", "x2^2*s[x2]*s[x1]"],
        ["d[x2]", "d[x1]^2", "d[x1]*d[x2]", "d[x2]^3", "d[x2]^2*d[x1]^2",
         "x1*d[x1]^3", "d[x2]^5", "d[x1]*x2*d[x2]", "x2*d[x1]^4*d[x2]"],
        ["x2", "x1^2", "x1*x2", "x2^3 - x1", "x1^2*x2", "x1^3 - x2^2"]),
    "plane_torsion": (
        ["s[x2]", "s[x1]^2", "s[x1]*s[x2]^2", "x2*s[x1]^3", "s[x2]^4",
         "s[x2]^2*s[x1]^2", "x1*s[x1]^3", "s[x1]^4", "x2^2*s[x2]*s[x1]",
         "x1*x2*s[x2]^2"],
        ["d[x2]", "d[x1]^2", "d[x1]*d[x2]", "d[x2]^3", "x1*d[x1]^4",
         "d[x2]^2*d[x1]^2", "x1*d[x1]^3", "d[x1]^4", "d[x1]*x2*d[x2]"],
        ["x2", "x1^2", "x1*x2", "x2^3 - x1", "x1^2*x2", "x1^3 - x2^2"]),
    "three_degrees": (
        ["s[x]", "s[z]", "s[t]*s[x]", "s[z]*s[x]", "s[t]*s[x]^2",
         "z*s[x]^2", "s[x]^4", "x*s[x]^3", "t*s[t]*s[z]*s[x]",
         "z*s[z]*s[t]*s[x]"],
        ["d[x]", "d[z]", "d[t]*d[x]", "d[z]*d[x]", "d[t]*d[x]^2",
         "x*d[x]^3", "x*d[x]^4", "z*d[t]*d[x]", "t*d[z]*d[x]^2"],
        ["z", "x^2", "x*z", "x*t + z", "x^3*z", "t*z + x^2"]),
    "two_odd": (
        ["s[x]", "s[t1]", "s[t1]*s[t2]", "s[t2]*s[x]", "s[x]^2*s[t1]",
         "x*s[x]^3", "x*s[x]^4", "t2*s[t1]*s[x]^2", "t1*t2*s[x]^2",
         "s[t2]*s[t1]*s[x]^2"],
        ["d[x]", "d[t2]", "d[t1]*d[t2]", "d[t2]*d[x]", "d[x]^2*d[t1]",
         "x*d[x]^3", "x*d[x]^4", "t1*d[t2]*d[x]^2", "t1*t2*d[x]^2"],
        ["t1", "x^2", "x*t2", "t1*t2", "x^3 + x*t1", "x^2*t1*t2"]),
}

# solve-ladder: (n, Q, Christoffel entries per chart, charts per rung).
# Left out until the correction solve gets faster: n=4, Q=5 (0.6-2.5 s
# per sparse chart and solve) and dense tables at any rung.
LADDER = ((2, 5, 3, 4), (2, 7, 3, 4), (3, 4, 4, 4), (3, 6, 4, 4),
          (4, 3, 5, 4), (4, 4, 5, 4), (5, 3, 6, 4))

# pbw-batch: (n, Q, Christoffel entries, charts); each round asks every
# chart two pbw fwd, two pbw inv (words of weight Q - 1 and Q - 2) and
# one tau --route pbw query; 210 queries in all
PBW_CHARTS = ((1, 8, 2, 2), (2, 7, 3, 2), (3, 6, 4, 2))
PBW_ROUND = ("pbw_fwd", "pbw_inv", "pbw_fwd", "pbw_inv", "tau_pbw")
PBW_ROUNDS = 7


def _cmd(kind, chart, *args, **extra):
    argv = {
        "fedosov": ["fedosov", "--chart", chart],
        "tau_series": ["tau", "--chart", chart, "--route", "series"],
        "tau_pbw": ["tau", "--chart", chart, "--route", "pbw"],
        "pbw_fwd": ["pbw", "--chart", chart, "--direction", "fwd"],
        "pbw_inv": ["pbw", "--chart", chart, "--direction", "inv"],
        "verify": ["verify", "--chart", chart, "--suite", "all"],
    }[kind] + list(args)
    out = {"kind": kind, "argv": argv, "chart": chart, "rc": 0}
    out.update(extra)
    return out


def shipped_commands():
    """The shipped-cli command list, with ``{seed}`` standing for the
    verify seed; the reference file stores their outputs."""
    cmds = []
    for name in sorted(SHIPPED_EXPRESSIONS):
        chart = "charts/%s.chart" % name
        fwd, inv, tau = SHIPPED_EXPRESSIONS[name]
        cmds += [_cmd("pbw_fwd", chart, e) for e in fwd]
        cmds += [_cmd("pbw_inv", chart, e) for e in inv]
        for e in tau:
            cmds.append(_cmd("tau_pbw", chart, e))
            cmds.append(_cmd("tau_series", chart, e))
        cmds.append(_cmd("fedosov", chart, "--output", "records"))
        cmds.append(_cmd("fedosov", chart, "--output", "text"))
        cmds.append(_cmd("verify", chart, "--seed", "{seed}"))
    return cmds


def _write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _shipped(seed, root, outdir):
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    cmds = []
    for ref in reference["commands"]:
        argv = [str(seed) if a == "{seed}" else a for a in ref["argv"]]
        cmd = _cmd(ref["kind"], ref["chart"])
        cmd.update(argv=argv, rc=ref["rc"], stdout=ref["stdout"])
        cmds.append(cmd)
    charts = sorted({c["chart"] for c in cmds})
    return charts, cmds


def _ladder(seed, root, outdir):
    rng = random.Random("solve-ladder/%d" % seed)
    charts, cmds = [], []
    for n, q, entries, count in LADDER:
        for c, text in enumerate(gen.chart_set(rng, n, q, entries, count)):
            rel = os.path.join(outdir, "ladder-n%d-q%d-%d.chart" % (n, q, c))
            _write(os.path.join(root, rel), text)
            charts.append(rel)
            expr = gen.base_expr(rng, n)
            pair = len(cmds)
            cmds.append(_cmd("fedosov", rel, check="dual-correction"))
            cmds.append(_cmd("tau_series", rel, expr, pair=pair + 2))
            cmds.append(_cmd("tau_pbw", rel, expr, pair=pair + 1))
    return charts, cmds


def _pbw_batch(seed, root, outdir):
    rng = random.Random("pbw-batch/%d" % seed)
    charts = []
    for n, q, entries, count in PBW_CHARTS:
        for c, text in enumerate(gen.chart_set(rng, n, q, entries, count)):
            rel = os.path.join(outdir, "batch-n%d-q%d-%d.chart" % (n, q, c))
            _write(os.path.join(root, rel), text)
            charts.append((rel, n, q))
    cmds = []
    for _ in range(PBW_ROUNDS):
        for rel, n, q in charts:
            for kind in PBW_ROUND:
                if kind == "tau_pbw":
                    expr = gen.base_expr(rng, n)
                else:
                    expr = gen.indexed_expr(
                        rng, n, q - 1, "s" if kind == "pbw_fwd" else "d")
                cmds.append(_cmd(kind, rel, expr, check="roundtrip"))
    return [c[0] for c in charts], cmds


def build_plan(workload, seed, root, outdir):
    """Generate the workload's inputs for ``seed`` (chart files go under
    ``root/outdir``) and return the plan."""
    build = {"shipped-cli": _shipped, "solve-ladder": _ladder,
             "pbw-batch": _pbw_batch}[workload]
    charts, cmds = build(seed, root, outdir)
    return {"workload": workload, "seed": seed, "charts": charts,
            "commands": cmds}
