import random

import pytest

from jetexp.chart import Chart, Truncation
from jetexp.geometry import Connection
from jetexp.grammar import parse_poly
from jetexp.pbw import PbwContext

CHART_DEFS = {
    # name: (coordinates, truncation, christoffel {ijk: poly text})
    "line_flat": ([("x", 0)], (5, 3, 8), {}),
    "line_curved": ([("x", 0)], (5, 3, 8), {(0, 0, 0): "x"}),
    "plane_curved": ([("x1", 0), ("x2", 0)], (5, 3, 8), {(0, 0, 1): "x2"}),
    "mixed": ([("x", 0), ("t", 1)], (5, 4, 8),
              {(0, 0, 1): "t", (0, 1, 1): "x", (1, 0, 1): "x"}),
    "two_odd": ([("x", 0), ("t1", 1), ("t2", 1)], (4, 4, 6),
                {(0, 1, 1): "x", (1, 0, 1): "x", (0, 0, 1): "t1",
                 (0, 0, 2): "t2"}),
    "deg2": ([("x", 0), ("z", 2)], (4, 3, 6),
             {(0, 0, 1): "z", (0, 1, 1): "x", (1, 0, 1): "x"}),
    "negdeg": ([("x", 0), ("w", -1)], (4, 4, 6),
               {(0, 1, 1): "x", (1, 0, 1): "x", (0, 0, 1): "w"}),
    "three_degrees": ([("x", 0), ("t", 1), ("z", 2)], (4, 4, 6),
                      {(0, 0, 1): "t", (0, 0, 2): "z", (0, 1, 2): "t",
                       (1, 0, 2): "t"}),
    "odd_first": ([("t1", 1), ("t2", 1), ("x", 0)], (4, 4, 6),
                  {(2, 2, 0): "t2"}),
}

VAVIN_CHARTS = ("line_curved", "plane_curved", "mixed", "two_odd", "deg2")
TORSION_FREE_CHARTS = tuple(CHART_DEFS)


def build_chart(name):
    coords, trunc, gamma_txt = CHART_DEFS[name]
    chart = Chart(coords, Truncation(*trunc))
    gamma = {key: parse_poly(chart, text) for key, text in gamma_txt.items()}
    conn = Connection(chart, gamma, torsion_free=True)
    return chart, conn


@pytest.fixture(scope="session")
def charts():
    return {name: build_chart(name) for name in CHART_DEFS}


@pytest.fixture(scope="session")
def contexts(charts):
    # headroom +2 over the chart weight: enough for double transported
    # derivatives on top-weight words
    return {name: PbwContext(chart, conn,
                             max_weight=chart.truncation.max_sym_weight + 2)
            for name, (chart, conn) in charts.items()}


@pytest.fixture
def rng():
    return random.Random(20240811)
