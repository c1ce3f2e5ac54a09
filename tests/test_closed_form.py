"""Closed-form anchors: the chart x1 (degree 0), x2 (degree d) with
Gamma^2_11 = c*x2, whose augmentation and correction are known series at
every weight (``oracles.geodesic_tau``, ``oracles.geodesic_correction``)."""

import io
from fractions import Fraction

import pytest

from jetexp.chart import Chart, Truncation
from jetexp.cli import main
from jetexp.fedosov import FedosovData, tau_pbw
from jetexp.geometry import Connection
from jetexp.pbw import PbwContext, xi_form
from jetexp.poly import GradedPoly

from oracles import (bernoulli_numbers, fraction_mul, geodesic_correction,
                     geodesic_correction_series, geodesic_form,
                     geodesic_spray_tau, geodesic_tau, t_cot_coefficients)


def geodesic_chart(d, c, weight):
    chart = Chart([("x1", 0), ("x2", d)], Truncation(weight, 3, 8))
    gamma = GradedPoly.constant(chart, c) * GradedPoly.generator(chart, 1)
    return chart, Connection(chart, {(0, 0, 1): gamma}, torsion_free=True)


def test_bernoulli_numbers_and_cot_coefficients():
    b = bernoulli_numbers(8)
    assert b == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0,
                 Fraction(1, 42), 0, Fraction(-1, 30)]
    # the fedosov records on plane_curved: 1/3, 1/45, 2/945, ...
    a = t_cot_coefficients(8)
    assert a[:3] == [Fraction(1, 3), Fraction(1, 45), Fraction(2, 945)]
    assert a[7] == Fraction(3617, 162820783125)


@pytest.mark.parametrize("c, weight", [(1, 30), (2, 30), (-1, 30),
                                       (Fraction(1, 3), 30), (1, 40)])
def test_correction_is_the_bernoulli_series(c, weight):
    chart, conn = geodesic_chart(0, c, weight)
    want = geodesic_correction(chart, c, weight)
    assert tuple(FedosovData(conn, weight).correction) == want


@pytest.mark.parametrize("d", [0, 1, 2, -1, 3])
@pytest.mark.parametrize("c", [1, Fraction(-2, 3)])
def test_graded_family_matches_the_closed_form(d, c):
    weight = 12
    chart, conn = geodesic_chart(d, c, weight)
    fd = FedosovData(conn, weight)
    ctx = PbwContext(chart, conn, max_weight=weight + 1)
    want = geodesic_tau(chart, c, weight)
    for slot, tau in enumerate(want):
        x = GradedPoly.generator(chart, slot)
        assert tau_pbw(ctx, x, weight) == tau
        assert fd.tau_series(x) == tau
    correction = geodesic_correction(chart, c, weight)
    assert tuple(fd.correction) == correction
    assert tuple(xi_form(ctx, weight)) == tuple(-p for p in correction)


@pytest.mark.parametrize("c", [2, -1, Fraction(1, 3)])
def test_negative_control_series_with_one_power_of_c_too_few(c):
    weight = 12
    chart, conn = geodesic_chart(0, c, weight)
    wrong = geodesic_correction_series(chart, [
        a * Fraction(c) ** (k - 1)
        for k, a in enumerate(t_cot_coefficients(weight // 2), 1)])
    got = FedosovData(conn, weight).correction[1]
    assert got == geodesic_correction(chart, c, weight)[1]
    assert got != fraction_mul(geodesic_form(chart), wrong)


@pytest.mark.parametrize("d", [0, 1, 2, -1, 3])
def test_negative_control_factor_order_matters_at_odd_degree(d):
    # (y1 dx2 - y2 dx1) in place of (dx2 y1 - dx1 y2): y2 crosses the odd
    # dx1, so only an odd d tells the two orders apart
    weight = 12
    chart, conn = geodesic_chart(d, 1, weight)
    gen = lambda slot: GradedPoly.generator(chart, slot)
    swapped = (fraction_mul(gen(chart.y_slot(0)), gen(chart.dx_slot(1)))
               - fraction_mul(gen(chart.y_slot(1)), gen(chart.dx_slot(0))))
    wrong = fraction_mul(swapped, geodesic_correction_series(
        chart, t_cot_coefficients(weight // 2)))
    got = FedosovData(conn, weight).correction[1]
    assert got == geodesic_correction(chart, 1, weight)[1]
    assert (got == wrong) == (d % 2 == 0)


def test_cli_fedosov_records_are_the_bernoulli_series(tmp_path):
    # the family's chart file at c = 2, d = 0, solved at weight 60
    path = tmp_path / "geodesic.chart"
    path.write_text("[coordinates]\nx1 0\nx2 0\n[truncation]\nQ 5\nP 3\n"
                    "B 8\n[flags]\ntorsion_free true\n[christoffel]\n"
                    "1 1 2 2*x2\n")
    out = io.StringIO()
    assert main(["fedosov", "--chart", str(path), "--max-weight", "60"],
                out=out) == 0
    coeffs = [a * 2 ** k for k, a in enumerate(t_cot_coefficients(30), 1)]
    want = ["A i=1 J=(%d,1) k=2 coeff=%s" % (2 * k - 1, -a)
            for k, a in enumerate(coeffs, 1)]
    want += ["A i=2 J=(%d,0) k=2 coeff=%s" % (2 * k, a)
             for k, a in enumerate(coeffs, 1)]
    assert out.getvalue().splitlines() == want + ["D2_RESIDUAL 0"]


@pytest.mark.parametrize("d", [0, 1, 2, -1])
@pytest.mark.parametrize("c", [1, Fraction(-2, 3)])
def test_geodesic_spray_matches_the_closed_form(d, c):
    weight = 12
    chart, conn = geodesic_chart(d, c, weight)
    for slot, tau in enumerate(geodesic_tau(chart, c, weight)):
        x = GradedPoly.generator(chart, slot)
        assert geodesic_spray_tau(conn, x, weight) == tau
