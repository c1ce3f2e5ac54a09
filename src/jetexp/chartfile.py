"""Chart files: a line-oriented description of a chart, its truncation,
and a Christoffel table.

Format (``#`` starts a comment, blank lines ignored, ``=`` optional):

    [coordinates]
    x1 0          # name degree
    x2 0

    [truncation]
    Q 5
    P 3
    B 6

    [flags]
    torsion_free true

    [christoffel]
    1 1 2 x2      # i j k polynomial   (1-based indices, chart grammar)

Christoffel degree constraints are validated on load, as is graded
symmetry when the torsion-free flag is set.  Q, P and B are at most
``chart.FIELD_MAX``, the largest exponent a packed monomial holds.
"""

from __future__ import annotations

from typing import Tuple

from .chart import FIELD_MAX, Chart, Truncation
from .geometry import Connection
from .grammar import ExprSyntaxError, parse_poly
from .poly import TruncationOverflowError


class ChartFileError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__("%s (line %d)" % (message, line))
        self.line = line


def parse_chart_file(text: str) -> Tuple[Chart, Connection]:
    coords = []
    trunc = {}
    flags = {"torsion_free": True}
    christoffel = []  # (line_no, i, j, k, poly text)
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("coordinates", "truncation", "flags",
                               "christoffel"):
                raise ChartFileError("unknown section %r" % section, line_no)
            continue
        fields = [f for f in line.replace("=", " ").split() if f]
        if section == "coordinates":
            if len(fields) != 2:
                raise ChartFileError("expected 'name degree'", line_no)
            try:
                coords.append((fields[0], int(fields[1])))
            except ValueError:
                raise ChartFileError("bad degree %r" % fields[1],
                                     line_no) from None
        elif section == "truncation":
            if len(fields) != 2 or fields[0] not in ("Q", "P", "B"):
                raise ChartFileError("expected 'Q|P|B value'", line_no)
            try:
                trunc[fields[0]] = int(fields[1])
            except ValueError:
                raise ChartFileError("bad value %r" % fields[1],
                                     line_no) from None
            if trunc[fields[0]] > FIELD_MAX:
                raise ChartFileError("%s %d exceeds %d" % (
                    fields[0], trunc[fields[0]], FIELD_MAX), line_no)
        elif section == "flags":
            if len(fields) != 2 or fields[0] != "torsion_free":
                raise ChartFileError("expected 'torsion_free true|false'",
                                     line_no)
            flags["torsion_free"] = fields[1].lower() in ("true", "1", "yes")
        elif section == "christoffel":
            if len(fields) < 4:
                raise ChartFileError("expected 'i j k polynomial'", line_no)
            try:
                i, j, k = int(fields[0]), int(fields[1]), int(fields[2])
            except ValueError:
                raise ChartFileError("bad index triple", line_no) from None
            christoffel.append((line_no, i, j, k, " ".join(fields[3:])))
        else:
            raise ChartFileError("content outside any section", line_no)

    if not coords:
        raise ChartFileError("no coordinates declared", 0)
    missing = {"Q", "P", "B"} - set(trunc)
    if missing:
        raise ChartFileError("truncation incomplete, missing %s"
                             % ", ".join(sorted(missing)), 0)
    try:
        chart = Chart(coords, Truncation(trunc["Q"], trunc["P"], trunc["B"]))
    except ValueError as exc:
        raise ChartFileError(str(exc), 0) from None

    gamma = {}
    for line_no, i, j, k, poly_text in christoffel:
        for idx in (i, j, k):
            if not 1 <= idx <= chart.n:
                raise ChartFileError("coordinate index %d out of range" % idx,
                                     line_no)
        try:
            poly = parse_poly(chart, poly_text)
        except (ExprSyntaxError, TruncationOverflowError) as exc:
            raise ChartFileError("bad Christoffel polynomial: %s" % exc,
                                 line_no) from None
        if not poly.is_base_only():
            raise ChartFileError("Christoffel entries must be base "
                                 "functions", line_no)
        key = (i - 1, j - 1, k - 1)
        gamma[key] = gamma.get(key, poly * 0) + poly
    try:
        conn = Connection(chart, gamma, torsion_free=flags["torsion_free"])
    except ValueError as exc:
        raise ChartFileError(str(exc), 0) from None
    return chart, conn


def load_chart_file(path: str) -> Tuple[Chart, Connection]:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ChartFileError("byte 0x%02x is not UTF-8 text" % data[exc.start],
                             data.count(b"\n", 0, exc.start) + 1) from None
    return parse_chart_file(text)

