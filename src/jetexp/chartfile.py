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
symmetry when the torsion-free flag is set; a failure names the line of
the least failing triple's entry.  Q >= 1, P >= 2 and B >= 1 are at
most ``chart.FIELD_MAX``, the largest exponent a packed monomial holds.
A coordinate name must be a ``grammar.NAME``.  A name (a derived fiber
or form name too), a truncation key or the flag given twice is an error
at its second line, and the flag reads only true/false, yes/no or 1/0.
"""

from __future__ import annotations

from typing import Tuple

from .chart import FIELD_MAX, Chart, Truncation, derived_names
from .geometry import ChristoffelError, Connection
from .grammar import NAME, ExprSyntaxError, parse_poly
from .poly import TruncationOverflowError


_TRUNCATION_MIN = {"Q": 1, "P": 2, "B": 1}
_FLAG_VALUES = {"true": True, "yes": True, "1": True,
                "false": False, "no": False, "0": False}


class ChartFileError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__("%s (line %d)" % (message, line))
        self.line = line


def parse_chart_file(text: str) -> Tuple[Chart, Connection]:
    coords = {}  # name -> degree
    names = set()  # the generator names of the coordinates so far
    trunc = {}
    flags = {}
    christoffel = []  # (line_no, i, j, k, poly text)
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
            section = line[1:-1].strip().lower()
            if section not in ("coordinates", "truncation", "flags",
                               "christoffel"):
                raise ChartFileError("unknown section %r" % section, line_no)
            continue
        fields = line.replace("=", " ").split()
        if section == "coordinates":
            if len(fields) != 2:
                raise ChartFileError("expected 'name degree'", line_no)
            if not NAME.fullmatch(fields[0]):  # no expression could name it
                raise ChartFileError("bad coordinate name %r" % fields[0],
                                     line_no)
            new = (fields[0],) + derived_names(fields[0])
            if not names.isdisjoint(new):  # a repeat, or a derived name
                raise ChartFileError("coordinate %r repeats a generator "
                                     "name" % fields[0], line_no)
            names.update(new)
            try:
                coords[fields[0]] = int(fields[1])
            except ValueError:
                raise ChartFileError("bad degree %r" % fields[1],
                                     line_no) from None
        elif section == "truncation":
            if len(fields) != 2 or fields[0] not in _TRUNCATION_MIN:
                raise ChartFileError("expected 'Q|P|B value'", line_no)
            key = fields[0]
            if key in trunc:
                raise ChartFileError("repeated %s" % key, line_no)
            try:
                value = trunc[key] = int(fields[1])
            except ValueError:
                raise ChartFileError("bad value %r" % fields[1],
                                     line_no) from None
            if not _TRUNCATION_MIN[key] <= value <= FIELD_MAX:
                raise ChartFileError("%s %d is outside %d..%d" % (
                    key, value, _TRUNCATION_MIN[key], FIELD_MAX), line_no)
        elif section == "flags":
            if len(fields) != 2 or fields[0] != "torsion_free":
                raise ChartFileError("expected 'torsion_free true|false'",
                                     line_no)
            if fields[0] in flags:
                raise ChartFileError("repeated %s" % fields[0], line_no)
            value = _FLAG_VALUES.get(fields[1].lower())
            if value is None:
                raise ChartFileError("bad flag value %r" % fields[1],
                                     line_no)
            flags[fields[0]] = value
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
    chart = Chart(coords.items(),
                  Truncation(trunc["Q"], trunc["P"], trunc["B"]))

    gamma = {}
    lines = {}  # triple -> the line of its first entry
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
        gamma[key] = gamma[key] + poly if key in gamma else poly
        lines.setdefault(key, line_no)
    try:
        conn = Connection(chart, gamma,
                          torsion_free=flags.get("torsion_free", True))
    except ChristoffelError as exc:
        # a symmetry failure names (i, j, k) with i <= j; the file may
        # give only its mirror (j, i, k)
        i, j, k = exc.triple
        line = lines.get(exc.triple) or lines[j, i, k]
        raise ChartFileError(str(exc), line) from None
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

