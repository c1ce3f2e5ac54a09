"""The correctness gate: untimed checks of every command's output.

A command fails when it raised or timed out, exited with a code other
than the plan's, printed a verify line that is neither PASS nor SKIP,
or broke its workload's check:

  shipped-cli   stdout differs byte for byte from the reference
  solve-ladder  the correction printed by ``fedosov`` is not minus the
                dual correction form (``xi_form``), D2_RESIDUAL is not 0,
                or ``tau`` prints differently by the two routes
  pbw-batch     the printed result does not map back to the input: the
                inverse of a ``pbw fwd`` output, the map of a ``pbw inv``
                output, and the series route for ``tau --route pbw``

The checks use only the package's public functions, and none of them
reuses the code path that produced the output it checks.
"""

from __future__ import annotations

from jetexp.chartfile import load_chart_file
from jetexp.fedosov import FedosovData, vvf_records
from jetexp.grammar import (format_poly, parse_diffop, parse_poly,
                            parse_symtensor)
from jetexp.pbw import PbwContext, xi_form


class _Charts:
    """Loaded charts with a lazily built context and flat structure each,
    shared by the checks of one gate."""

    def __init__(self):
        self._cache = {}

    def get(self, path):
        entry = self._cache.get(path)
        if entry is None:
            chart, conn = load_chart_file(path)
            entry = self._cache[path] = {"chart": chart, "conn": conn}
        return entry

    def context(self, path, extra=0):
        entry = self.get(path)
        key = "ctx%d" % extra
        if key not in entry:
            chart = entry["chart"]
            entry[key] = PbwContext(chart, entry["conn"],
                                    chart.truncation.max_sym_weight + extra)
        return entry[key]

    def flat(self, path):
        entry = self.get(path)
        if "fd" not in entry:
            entry["fd"] = FedosovData(entry["conn"])
        return entry["fd"]


def _dual_correction(charts, path, stdout):
    lines = stdout.splitlines()
    if not lines or lines[-1] != "D2_RESIDUAL 0":
        return "D2_RESIDUAL is not 0"
    chart = charts.get(path)["chart"]
    xi = xi_form(charts.context(path, extra=1),
                 chart.truncation.max_sym_weight)
    minus = tuple(-c for c in xi)
    want = []
    if any(minus):
        want = ["A i=%d J=(%s) k=%d coeff=%s"
                % (i, ",".join(str(e) for e in fiber), k, format_poly(p))
                for i, fiber, k, p in vvf_records(minus)]
    if lines[:-1] != want:
        return "correction differs from minus the dual correction form"
    return None


def _roundtrip(charts, cmd, stdout):
    path = cmd["chart"]
    chart = charts.get(path)["chart"]
    expr = cmd["argv"][-1]
    text = stdout.strip()
    if cmd["kind"] == "pbw_fwd":
        back = charts.context(path).inv(parse_diffop(chart, text))
        ok = back == parse_symtensor(chart, expr)
    elif cmd["kind"] == "pbw_inv":
        back = charts.context(path).map(parse_symtensor(chart, text))
        ok = back == parse_diffop(chart, expr)
    else:
        series = charts.flat(path).tau_series(parse_poly(chart, expr))
        ok = format_poly(series) == text
    return None if ok else "output does not map back to the input"


def _command_failure(charts, cmds, outputs, i):
    cmd, out = cmds[i], outputs[i]
    if out.get("error"):
        return out["error"]
    if out["rc"] != cmd["rc"]:
        return "exit code %s, expected %s" % (out["rc"], cmd["rc"])
    stdout = out["stdout"]
    if cmd["kind"] == "verify":
        for line in stdout.splitlines():
            fields = line.split()
            if fields[0] == "CHECK" and fields[2] not in ("PASS", "SKIP"):
                return "verify line: %s" % line
    if "stdout" in cmd and stdout != cmd["stdout"]:
        return "stdout differs from the reference"
    if cmd.get("check") == "dual-correction":
        return _dual_correction(charts, cmd["chart"], stdout)
    if "pair" in cmd:
        other = outputs[cmd["pair"]]["stdout"]
        if not stdout.strip() or stdout != other:
            return "tau routes disagree"
    if cmd.get("check") == "roundtrip":
        return _roundtrip(charts, cmd, stdout)
    return None


def check(plan, outputs):
    """One failure reason (or None) per command of the plan, given the
    outputs ({"rc", "stdout", "error"}) of one pass over it."""
    charts = _Charts()
    cmds = plan["commands"]
    failures = []
    for i in range(len(cmds)):
        try:
            failures.append(_command_failure(charts, cmds, outputs, i))
        except Exception as exc:  # a check that cannot run fails the command
            failures.append("check raised %s: %s"
                            % (type(exc).__name__, exc))
    return failures
