"""Print SHA-256 digests of what the benchmark's plan commands print.

    python3 tools/plan_digest.py SEED

Builds the three plans of ``perfbench/workloads.py`` (shipped-cli,
solve-ladder, pbw-batch) for SEED, with their generated charts in a
temporary directory, runs each command once through ``jetexp.cli.main``
in this process, and prints one SHA-256 over the argv, exit code, stdout
and stderr of each workload's commands, then one over all of them.  Two
trees that print the same digests at a seed print the same bytes for
every plan command at that seed.  It runs the package under ``src``
next to this file and writes nothing in the checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from jetexp.cli import main as cli_main  # noqa: E402
from workloads import WORKLOADS, build_plan  # noqa: E402


def run(argv):
    """(exit code, stdout, stderr) of one ``jetexp`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv), out)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: plan_digest.py SEED", file=sys.stderr)
        return 2
    seed = int(argv[0])
    total, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        # the plans name the shipped charts as charts/NAME.chart
        os.symlink(os.path.join(ROOT, "charts"), os.path.join(tmp, "charts"))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for workload in WORKLOADS:
                plan = build_plan(workload, seed, tmp, "plans")
                digest = hashlib.sha256()
                for cmd in plan["commands"]:
                    line = json.dumps([cmd["argv"], *run(cmd["argv"])])
                    digest.update(line.encode() + b"\n")
                    total.update(line.encode() + b"\n")
                count += len(plan["commands"])
                print("%-13s %4d %s" % (workload, len(plan["commands"]),
                                        digest.hexdigest()))
        finally:
            os.chdir(cwd)
    print("%-13s %4d %s" % ("total", count, total.hexdigest()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
