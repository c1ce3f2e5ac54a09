from fractions import Fraction

import pytest

from jetexp.chart import Chart, Truncation
from jetexp.chartfile import (ChartFileError, format_chart_file,
                              parse_chart_file)
from jetexp.enveloping import DiffOp, SymTensor
from jetexp.grammar import (ExprSyntaxError, format_diffop, format_poly,
                            format_symtensor, parse_diffop, parse_poly,
                            parse_symtensor)
from jetexp.poly import GradedPoly
from jetexp.randomgen import random_base_poly, random_section, random_symtensor

from conftest import build_chart


@pytest.fixture
def mixed():
    return Chart([("x", 0), ("t", 1)], Truncation(4, 4, 6))


def test_poly_parse_basics(mixed):
    x = GradedPoly.generator(mixed, 0)
    t = GradedPoly.generator(mixed, 1)
    assert parse_poly(mixed, "x^2 + 2*x - 1") == x * x + 2 * x - \
        GradedPoly.constant(mixed, 1)
    assert parse_poly(mixed, "3/2 * x * t") == x * t * Fraction(3, 2)
    assert parse_poly(mixed, "t*x") == x * t
    assert parse_poly(mixed, "-x + 1") == -x + GradedPoly.constant(mixed, 1)
    assert parse_poly(mixed, "y_t") == GradedPoly.generator(mixed,
                                                            mixed.y_slot(1))


def test_poly_roundtrip_random(mixed, rng):
    for _ in range(60):
        f = random_section(rng, mixed, 3)
        assert parse_poly(mixed, format_poly(f)) == f
    assert format_poly(GradedPoly.zero(mixed)) == "0"
    assert parse_poly(mixed, "0") == GradedPoly.zero(mixed)


def test_diffop_roundtrip(mixed, rng):
    for _ in range(40):
        terms = {}
        for _ in range(3):
            idx = (rng.randrange(3), rng.randrange(2))
            terms[idx] = random_base_poly(rng, mixed, 2, 2)
        op = DiffOp(mixed, terms)
        assert parse_diffop(mixed, format_diffop(op)) == op


def test_symtensor_roundtrip(mixed, rng):
    for _ in range(40):
        t = random_symtensor(rng, mixed, 3)
        assert parse_symtensor(mixed, format_symtensor(t)) == t


def test_operator_expression_composes_left_to_right(mixed):
    x = GradedPoly.generator(mixed, 0)
    got = parse_diffop(mixed, "d[x]*x")
    assert got == DiffOp(mixed, {(1, 0): x,
                                 (0, 0): GradedPoly.constant(mixed, 1)})
    assert parse_diffop(mixed, "x*d[x]") == DiffOp(mixed, {(1, 0): x})


def test_symmetric_word_reordering(mixed):
    two_odd = Chart([("t1", 1), ("t2", 1)])
    a = parse_symtensor(two_odd, "s[t1]*s[t2]")
    b = parse_symtensor(two_odd, "s[t2]*s[t1]")
    assert a == -b
    assert not parse_symtensor(two_odd, "s[t1]*s[t1]")


def test_parse_errors_carry_positions(mixed):
    with pytest.raises(ExprSyntaxError) as err:
        parse_poly(mixed, "x + @")
    assert err.value.pos == 4
    with pytest.raises(ExprSyntaxError):
        parse_poly(mixed, "x^")
    with pytest.raises(ExprSyntaxError):
        parse_poly(mixed, "nope + 1")
    with pytest.raises(ExprSyntaxError):
        parse_poly(mixed, "d[x]")  # operator token in a function context
    with pytest.raises(ExprSyntaxError):
        parse_diffop(mixed, "s[x]")
    with pytest.raises(ExprSyntaxError):
        parse_poly(mixed, "x x")


def test_base_degree_bound_enforced_on_parse(mixed):
    with pytest.raises(ExprSyntaxError):
        parse_poly(mixed, "x^7")  # chart bound is 6
    # every even generator's exponent is checked against its block's
    # bound (B, Q, P) before any product is formed; odd powers vanish and
    # a bracket power is a single word
    for text, pos in (("x^99999999", 2), ("y^5", 2), ("1 + dt^5", 7)):
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly(mixed, text)
        assert err.value.pos == pos
    y, dt = (GradedPoly.generator(mixed, mixed.slot(n)) for n in ("y", "dt"))
    assert parse_poly(mixed, "y^4*dt^4") == y ** 4 * dt ** 4
    assert not parse_poly(mixed, "t^99999999")
    assert not parse_symtensor(mixed, "s[t]^99999999")
    assert not parse_diffop(mixed, "d[t]^2")
    assert parse_symtensor(mixed, "s[x]^99999999") == \
        SymTensor.from_word(mixed, (99999999, 0))
    assert parse_diffop(mixed, "d[x]^3") == \
        parse_diffop(mixed, "d[x]*d[x]*d[x]")


def test_print_is_deterministic(mixed, rng):
    for _ in range(20):
        f = random_section(rng, mixed, 3)
        assert format_poly(f) == format_poly(parse_poly(mixed,
                                                        format_poly(f)))


def test_frozen_display_conventions():
    chart, conn = build_chart("line_curved")
    x = GradedPoly.generator(chart, 0)
    y = GradedPoly.generator(chart, 1)
    assert format_poly(x * x + 2 * x * y + y * y) == "x^2 + 2*x*y + y^2"
    op = DiffOp(chart, {(2,): GradedPoly.constant(chart, 1), (1,): -x})
    assert format_diffop(op) == "d[x]^2 - x*d[x]"
    tensor = SymTensor(chart, {(2,): GradedPoly.constant(chart, 1), (1,): x})
    assert format_symtensor(tensor) == "s[x]^2 + x*s[x]"


def test_chart_file_roundtrip():
    chart, conn = build_chart("mixed")
    text = format_chart_file(chart, conn)
    chart2, conn2 = parse_chart_file(text)
    assert chart2 == chart
    assert conn2.gamma == conn.gamma
    assert conn2.torsion_free == conn.torsion_free


def test_chart_file_errors():
    with pytest.raises(ChartFileError):
        parse_chart_file("[coordinates]\nx 0\n")  # missing truncation
    with pytest.raises(ChartFileError):
        parse_chart_file("x 0\n")  # content outside any section
    with pytest.raises(ChartFileError):
        parse_chart_file("[coordinates]\nx zero\n")
    base = ("[coordinates]\nx1 0\nx2 0\n\n[truncation]\nQ 3\nP 2\nB 4\n\n"
            "[flags]\ntorsion_free true\n\n[christoffel]\n")
    with pytest.raises(ChartFileError):
        parse_chart_file(base + "1 2 1 1\n")  # breaks graded symmetry
    with pytest.raises(ChartFileError):
        parse_chart_file(base + "9 1 1 x1\n")  # index out of range
    with pytest.raises(ChartFileError):
        parse_chart_file(base + "1 1 1 x1 +\n")  # bad polynomial
    parse_chart_file(base + "1 1 2 x2\n")  # valid curved chart
    # degree-constraint violation caught on load (entry must be degree 0)
    graded = ("[coordinates]\nx 0\nt 1\n\n[truncation]\nQ 3\nP 3\nB 4\n\n"
              "[flags]\ntorsion_free true\n\n[christoffel]\n")
    with pytest.raises(ChartFileError):
        parse_chart_file(graded + "1 1 1 t\n")
    parse_chart_file(graded + "1 1 2 t\n")  # degree-1 slot accepts t
