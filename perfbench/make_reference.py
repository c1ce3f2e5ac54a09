"""Capture the shipped-cli reference outputs.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs every shipped-cli command (workloads.shipped_commands) through
``jetexp.cli.main`` and writes its exit code and stdout to
reference/shipped-cli.json.  ``verify`` prints no sample data when every
check passes, so its output must not depend on the seed: the commands
run with two seeds, and the script refuses to write a reference when the
outputs differ.  Re-capture only when a change to the program's output
is intended, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import workloads
from jetexp.cli import main


def capture(seed):
    out = []
    for cmd in workloads.shipped_commands():
        argv = [str(seed) if a == "{seed}" else a for a in cmd["argv"]]
        stdout = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv, stdout)
        out.append(dict(cmd, rc=rc, stdout=stdout.getvalue()))
    return out


def run():
    first, second = capture(1), capture(2)
    for a, b in zip(first, second):
        if (a["rc"], a["stdout"]) != (b["rc"], b["stdout"]):
            sys.exit("output of %s depends on the seed" % " ".join(a["argv"]))
    with open(workloads.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"commands": first}, handle, indent=1)
        handle.write("\n")
    print("wrote %d commands to %s" % (len(first), workloads.REFERENCE))


if __name__ == "__main__":
    run()
