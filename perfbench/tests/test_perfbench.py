"""Tests of the benchmark itself (not of the package).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import io
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from jetexp.chartfile import parse_chart_file  # noqa: E402
from jetexp.cli import main  # noqa: E402


def _outputs(cmds):
    outs = []
    for cmd in cmds:
        buf = io.StringIO()
        outs.append({"rc": main(list(cmd["argv"]), buf),
                     "stdout": buf.getvalue(), "error": None})
    return outs


@pytest.fixture(scope="module")
def ladder_plan(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("ladder"))
    return root, workloads.build_plan("solve-ladder", 5, root, "out")


def _first_rung(root, plan):
    """The three commands on the ladder's first (smallest) chart, with
    chart paths made absolute."""
    cmds = [dict(c, argv=[os.path.join(root, a) if a == c["chart"] else a
                          for a in c["argv"]],
                 chart=os.path.join(root, c["chart"]))
            for c in plan["commands"][:3]]
    return {"commands": cmds}


# -- generator ----------------------------------------------------------------

def test_generator_is_deterministic():
    a = gen.chart_set(random.Random(7), 4, 4, 5, 3)
    b = gen.chart_set(random.Random(7), 4, 4, 5, 3)
    c = gen.chart_set(random.Random(8), 4, 4, 5, 3)
    assert a == b
    assert a != c
    r1, r2 = random.Random(3), random.Random(3)
    assert gen.indexed_expr(r1, 3, 6, "s") == gen.indexed_expr(r2, 3, 6, "s")
    assert gen.base_expr(r1, 2) == gen.base_expr(r2, 2)


def test_plans_are_deterministic(tmp_path):
    for workload in ("solve-ladder", "pbw-batch"):
        one = workloads.build_plan(workload, 3, str(tmp_path), "a")
        two = workloads.build_plan(workload, 3, str(tmp_path), "a")
        assert one == two
        for path in one["charts"]:
            with open(os.path.join(tmp_path, path)) as handle:
                assert handle.read()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_generated_charts_load_torsion_free(n):
    for text in gen.chart_set(random.Random(n), n, 4, n + 1, 4):
        chart, conn = parse_chart_file(text)
        assert conn.torsion_free and conn.gamma
        assert [c.degree for c in chart.coords] == list(gen.DEGREES[n])


def test_odd_pairs_are_negated():
    degrees = gen.DEGREES[5]  # two odd coordinates, x3 and x4
    slots = [s for s in gen.christoffel_slots(degrees) if s[:2] == (2, 3)]
    text = gen._chart_from_slots(random.Random(1), degrees,
                                 gen.coord_names(5), slots, 3)
    chart, conn = parse_chart_file(text)
    for (i, j, k), poly in conn.gamma.items():
        assert conn.gamma[(j, i, k)] == -poly
    assert all(i != j for i, j, _ in conn.gamma)


# -- correctness gate and its negative controls -------------------------------

def test_gate_passes_shipped_reference_commands():
    plan = workloads.build_plan("shipped-cli", 1, ROOT, "unused")
    cmds = [c for c in plan["commands"] if c["kind"] != "verify"][:20]
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        outs = _outputs(cmds)
        assert gate.check({"commands": cmds}, outs) == [None] * len(cmds)
        corrupted = [dict(c) for c in cmds]
        corrupted[3]["stdout"] += " "
        failures = gate.check({"commands": corrupted}, outs)
    finally:
        os.chdir(cwd)
    assert failures[3] == "stdout differs from the reference"
    assert sum(f is not None for f in failures) == 1


def test_gate_catches_wrong_route_results(ladder_plan):
    root, plan = ladder_plan
    small = _first_rung(root, plan)
    outs = _outputs(small["commands"])
    assert gate.check(small, outs) == [None, None, None]

    wrong_tau = [dict(o) for o in outs]
    wrong_tau[1]["stdout"] = wrong_tau[1]["stdout"].replace("\n", " + y1\n")
    failures = gate.check(small, wrong_tau)
    assert failures[1] == failures[2] == "tau routes disagree"

    wrong_fedosov = [dict(o) for o in outs]
    lines = wrong_fedosov[0]["stdout"].splitlines()
    assert lines[-1] == "D2_RESIDUAL 0" and len(lines) > 1
    wrong_fedosov[0]["stdout"] = "\n".join(lines[1:]) + "\n"
    assert gate.check(small, wrong_fedosov)[0] == (
        "correction differs from minus the dual correction form")

    bad_residual = [dict(o) for o in outs]
    bad_residual[0]["stdout"] = outs[0]["stdout"].replace(
        "D2_RESIDUAL 0", "D2_RESIDUAL y1")
    assert gate.check(small, bad_residual)[0] == "D2_RESIDUAL is not 0"


def test_gate_catches_broken_roundtrip(tmp_path):
    plan = workloads.build_plan("pbw-batch", 2, str(tmp_path), "out")
    cmds = [dict(c, argv=[os.path.join(tmp_path, a) if a == c["chart"] else a
                          for a in c["argv"]],
                 chart=os.path.join(tmp_path, c["chart"]))
            for c in plan["commands"][:5]]
    outs = _outputs(cmds)
    assert gate.check({"commands": cmds}, outs) == [None] * 5
    for i in range(5):  # drop the first printed term of each output
        broken = [dict(o) for o in outs]
        text = broken[i]["stdout"].strip()
        cut = max(text.find(" + ", 1), text.find(" - ", 1))
        broken[i]["stdout"] = (text[cut + 3:] if cut > 0 else "0") + "\n"
        assert gate.check({"commands": cmds}, broken)[i] is not None


def test_gate_fails_errors_and_exit_codes():
    cmd = workloads._cmd("pbw_fwd", "charts/line_flat.chart", "s[x]")
    ok = {"rc": 0, "stdout": "d[x]\n", "error": None}
    assert gate.check({"commands": [cmd]}, [dict(ok, rc=1)])[0] == (
        "exit code 1, expected 0")
    assert gate.check({"commands": [cmd]},
                      [dict(ok, error="timed out after 60 s")])[0] == (
        "timed out after 60 s")
    verify = dict(workloads._cmd("verify", "c"), stdout="")
    out = {"rc": 0, "stdout": "CHECK x FAIL w\nVERIFY all PASS\n",
           "error": None}
    assert gate.check({"commands": [verify]}, [out])[0].startswith(
        "verify line")


# -- tracing ------------------------------------------------------------------

def _snapshot():
    """Every attribute of every jetexp module and class, by identity."""
    snap = {}
    for name, module in sorted(sys.modules.items()):
        if name == "jetexp" or name.startswith("jetexp."):
            for key, value in vars(module).items():
                snap[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        snap[(name, key, attr)] = member
    return snap


def test_traced_run_restores_every_function(ladder_plan):
    root, plan = ladder_plan
    small = _first_rung(root, plan)
    before = _snapshot()
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    assert _snapshot() != before
    try:
        traced = _outputs(small["commands"])
    finally:
        installed.uninstall()
    assert installed.restored()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.missing == {}
    # tracing never changes what the program prints
    assert traced == _outputs(small["commands"])
    metrics = tracing.layer_metrics(tracer)
    assert metrics["fedosov.solve_s"]["value"] > 0
    assert metrics["fedosov.solve_passes"]["value"] >= 1
    assert metrics["poly.mul_pairs"]["value"] >= \
        metrics["poly.mul_calls"]["value"] > 0
    assert 0 < metrics["fedosov.project_keep_ratio"]["value"] <= 1


def test_missing_hook_reports_null(monkeypatch):
    hooks = tuple(h if h[0] != "poly.partial"
                  else (h[0], "jetexp.poly:GradedPoly.no_such_method", h[2])
                  for h in tracing.HOOKS)
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    tracer = tracing.Tracer()
    tracing.install(tracer).uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["poly.partial_s"]["value"] is None
    assert "no_such_method" in metrics["poly.partial_s"]["reason"]
    assert metrics["poly.mul_s"]["value"] == 0


def test_self_time_excludes_children():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def inner():
        return 1

    def outer():
        return tracer.run("inner", True, inner, (), {})

    tracer.run("outer", True, outer, (), {})
    assert tracer.total["outer"] == 3 and tracer.self_time["outer"] == 2
    assert tracer.total["inner"] == 1
    (inner_span, outer_span) = tracer.spans
    assert (outer_span[0], inner_span[0]) == (1, 2)
    assert inner_span[4] == 1 and outer_span[4] is None


# -- reference seconds --------------------------------------------------------

def test_commands_are_scaled_by_the_probes_around_them():
    sampler = speed.Sampler()
    sampler.samples = [0.002, 0.001, 0.003]
    mark = sampler.mark()
    # no probe ran during the command: the last three set the scale
    assert sampler.since(mark) == (0, 0.002)
    sampler.samples += [0.004, 0.002]
    # probes that interrupted the command are its scale and are
    # subtracted from its time
    assert sampler.since(mark) == (0.006, 0.003)
    assert speed.reference_seconds(3.0, 0.002) == 1.5
    assert 0 < speed.probe() < 1


# -- the metric lists ---------------------------------------------------------

def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    want = {name: unit for name, (unit, _, _) in tracing.METRICS.items()}
    want.update({name: "s" for name in run.KIND_METRICS.values()})
    want.update({"trace.overhead_s": "s", "trace.overhead_share": "ratio"})
    assert per_layer == want
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {"wall_s": "s", "setup_s": "s", "query_p50_ms": "ms",
                   "peak_rss_mb": "MB"}
