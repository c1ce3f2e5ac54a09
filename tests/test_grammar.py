import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jetexp.chart import Chart, Truncation
from jetexp.chartfile import (ChartFileError, load_chart_file,
                              parse_chart_file)
from jetexp.enveloping import (DiffOp, SymTensor, TruncationOverflowError,
                               _IndexedSum, symbol_sign, word_key)
from jetexp.grammar import (ExprSyntaxError, format_diffop, format_poly,
                            format_symtensor, parse_diffop, parse_poly,
                            parse_symtensor)
from jetexp.pbw import PbwContext
from jetexp.poly import GradedPoly
from jetexp.randomgen import random_base_poly, random_section, random_symtensor

from conftest import TORSION_FREE_CHARTS, build_chart
from oracles import bubble_koszul_sign, unpacked_format
from test_operator_properties import indexed
from test_poly_properties import PROPERTY, polys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

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


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
def test_poly_roundtrip_random(name, rng):
    chart, _ = build_chart(name)
    for _ in range(60):
        f = random_section(rng, chart, 3)
        assert parse_poly(chart, format_poly(f)) == f
    assert format_poly(GradedPoly.zero(chart)) == "0"
    assert parse_poly(chart, "0") == GradedPoly.zero(chart)


# charts with two odd coordinates have words whose symbol sign is -1
@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
def test_diffop_roundtrip(name, rng):
    chart, _ = build_chart(name)
    for _ in range(40):
        terms = {}
        for _ in range(3):
            idx = tuple(rng.randrange(2 if chart.coordinate_parity(s) else 3)
                        for s in range(chart.n))
            terms[idx] = random_base_poly(rng, chart, 2, 2)
        op = DiffOp(chart, terms)
        assert parse_diffop(chart, format_diffop(op)) == op


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
def test_symtensor_roundtrip(name, rng):
    chart, _ = build_chart(name)
    for _ in range(40):
        t = random_symtensor(rng, chart, 3)
        assert parse_symtensor(chart, format_symtensor(t)) == t


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


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
@PROPERTY
@given(data=st.data())
def test_symmetric_letter_chain_matches_bubble_sort(name, data):
    # s[a]*s[b]*... in any order, repeats included, with at most one base
    # generator g among the letters: +/- g times the descending word, the
    # sign from bubble-sorting g to the front and the letters into
    # descending order (g key 0, letter s key n-s), or 0 when an odd
    # letter repeats
    chart, _ = build_chart(name)
    n = chart.n
    letters = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                 max_size=chart.truncation.max_sym_weight))
    base = data.draw(st.none() | st.integers(0, n - 1))
    factors = ["s[%s]" % chart.coords[s].name for s in letters]
    keys = [n - s for s in letters]
    degrees = [0] + [-chart.coordinate_degree(n - key)
                     for key in range(1, n + 1)]
    coeff = GradedPoly.constant(chart, 1)
    if base is not None:
        at = data.draw(st.integers(0, len(letters)))
        factors.insert(at, chart.coords[base].name)
        keys.insert(at, 0)
        degrees[0] = chart.coordinate_degree(base)
        coeff = GradedPoly.generator(chart, base)
    got = parse_symtensor(chart, "*".join(factors))
    index = tuple(letters.count(s) for s in range(n))
    if any(e > 1 and chart.coordinate_parity(s)
           for s, e in enumerate(index)):
        assert not got
        return
    want = SymTensor.from_word(chart, index, coeff)
    assert got == want.scale(bubble_koszul_sign(keys, degrees))


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
    # so is the base degree of every coefficient product, at the factor
    # that crosses B
    for parse, text, pos in ((parse_poly, "x^4*x^3", 4),
                             (parse_symtensor, "x^4*x^3*s[x]", 4),
                             (parse_symtensor, "s[x]*x^3*x^4", 9),
                             (parse_diffop, "x^4*x^3*d[x]", 4),
                             (parse_diffop, "x^6*d[x]*x", 9)):
        with pytest.raises(ExprSyntaxError) as err:
            parse(mixed, text)
        assert err.value.pos == pos
    assert parse_diffop(mixed, "d[x]*x^6") == parse_diffop(
        mixed, "x^6*d[x] + 6*x^5")
    y, dt = (GradedPoly.generator(mixed, mixed.slot(n)) for n in ("y", "dt"))
    assert parse_poly(mixed, "y^4*dt^4") == y ** 4 * dt ** 4
    assert not parse_poly(mixed, "t^99999999")
    assert not parse_symtensor(mixed, "s[t]^99999999")
    assert not parse_diffop(mixed, "d[t]^2")
    # a word is held in its symbol's packed fields: a bracket power up to
    # FIELD_MAX is one word, past it a truncation overflow
    assert parse_symtensor(mixed, "s[x]^32767") == \
        SymTensor.from_word(mixed, (32767, 0))
    for build in (lambda: parse_symtensor(mixed, "s[x]^99999999"),
                  lambda: SymTensor.from_word(mixed, (99999999, 0))):
        with pytest.raises(TruncationOverflowError):
            build()
    assert parse_diffop(mixed, "d[x]^3") == \
        parse_diffop(mixed, "d[x]*d[x]*d[x]")


def test_operator_order_cap_acts_before_the_product(mixed, monkeypatch):
    # the cap rejects an operand before any operator product is formed
    def forbidden(*args):
        raise AssertionError("DiffOp.compose called")
    monkeypatch.setattr(DiffOp, "compose", forbidden)
    with pytest.raises(TruncationOverflowError):
        parse_diffop(mixed, "d[x]^6*x", max_order=5)


def test_operator_terms_start_at_their_first_factor(mixed, monkeypatch):
    # a term is its first non-scalar factor, composed with each further
    # one, its coefficients folded into its weight: a one-factor operator
    # term makes no operator product, and the order cap still rejects
    # that factor on its own
    calls = []
    real = DiffOp.compose

    def counted(self, other):
        calls.append(other)
        return real(self, other)
    monkeypatch.setattr(DiffOp, "compose", counted)
    for text, products in (("d[x]", 0), ("-d[t] + 2", 0), ("x*d[x]", 1),
                           ("d[x]*x - d[t]*d[x]", 2), ("3*x*d[t]", 1)):
        calls.clear()
        parse_diffop(mixed, text)
        assert len(calls) == products, text
    calls.clear()
    with pytest.raises(TruncationOverflowError,
                       match="operator order 6 exceeds bound 5"):
        parse_diffop(mixed, "d[x]^6", max_order=5)
    assert not calls


# signed terms, each a factor list; D and E stand for an even and an odd
# letter of the algebra (d[x] and d[t], s[x] and s[t], y and y_t)
FOLD_SHAPES = (
    [(1, ["2", "x", "3/4", "D", "1/2"])],
    [(1, ["D", "2", "x"])],
    [(1, ["0", "x"]), (1, ["D"])],
    [(1, ["1/2", "1/3"])],
    [(1, ["x", "0", "D"])],
    [(-1, ["3", "t", "E", "2/5", "x"]), (-1, ["E", "t", "1/2"])],
    [(1, ["t", "1/2", "t"]), (1, ["5/3", "x^2", "D^2", "x"])],
    [(1, ["E", "0", "E"]), (-1, ["7"]), (1, ["x", "E"])],
)
FOLD_ALGEBRAS = {  # name -> (parse, letters D and E, its kind or None)
    "operator": (parse_diffop, ("d[x]", "d[t]"), DiffOp),
    "tensor": (parse_symtensor, ("s[x]", "s[t]"), SymTensor),
    "polynomial": (parse_poly, ("y", "y_t"), None),
}


def _factor_value(chart, kind, factor):
    """One factor of a shape as a value, with no folding: a constant, a
    generator power, or a one-letter word."""
    name, _, exp = factor.partition("^")
    exp = int(exp or 1)
    if "[" in name:
        return kind.from_word(chart, tuple(exp if c.name == name[2:-1]
                                           else 0 for c in chart.coords))
    value = GradedPoly.constant(chart, Fraction(name)) \
        if name[0].isdigit() else \
        GradedPoly.generator(chart, chart.slot(name)) ** exp
    return value if kind is None else kind.function(chart, value)


@pytest.mark.parametrize("algebra", sorted(FOLD_ALGEBRAS))
def test_coefficients_fold_into_the_term_weight(mixed, algebra):
    # coefficients before, between and after the other factors, zero ones
    # too, give the factor-by-factor product built with * (compose for
    # operators), as if each were multiplied in where it stands
    parse, (even, odd), kind = FOLD_ALGEBRAS[algebra]
    for shape in FOLD_SHAPES:
        text = ""
        want = GradedPoly.zero(mixed) if kind is None else kind.zero(mixed)
        for sign, factors in shape:
            factors = [f.replace("D", even).replace("E", odd)
                       for f in factors]
            text += ("-" if sign < 0 else "+" if text else "") + \
                "*".join(factors)
            values = [_factor_value(mixed, kind, f) for f in factors]
            product = values[0]
            for value in values[1:]:
                product = product.compose(value) if kind is DiffOp \
                    else product * value
            want = want + product if sign > 0 else want - product
        assert parse(mixed, text) == want, text


def test_text_layer_reads_no_word_view(monkeypatch):
    # parsing and printing read and write symbols: with the word ->
    # coefficient view unreadable, every pbw expression of the shipped
    # benchmark plan and its map/inv value parse and print as before
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from workloads import SHIPPED_EXPRESSIONS
    finally:
        sys.path.pop(0)
    tensor = (parse_symtensor, format_symtensor)
    operator = (parse_diffop, format_diffop)
    cases = []  # (chart, text, parse, format, value, printed value)
    for name, (fwd, inv, _) in sorted(SHIPPED_EXPRESSIONS.items()):
        chart, conn = load_chart_file(
            os.path.join(ROOT, "charts", name + ".chart"))
        ctx = PbwContext(chart, conn)
        for texts, (parse, fmt), image, (parse_to, fmt_to) in (
                (fwd, tensor, ctx.map, operator),
                (inv, operator, ctx.inv, tensor)):
            for text in texts:
                value = parse(chart, text)
                mapped = image(value)
                cases += [(chart, text, parse, fmt, value, fmt(value)),
                          (chart, fmt_to(mapped), parse_to, fmt_to, mapped,
                           fmt_to(mapped))]

    def forbidden(self):
        raise AssertionError("word view read")
    monkeypatch.setattr(_IndexedSum, "terms", property(forbidden))
    for chart, text, parse, fmt, value, printed in cases:
        assert parse(chart, text) == value
        assert fmt(value) == printed


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
@PROPERTY
@given(data=st.data())
def test_printer_matches_the_per_key_oracle(name, data):
    # the printer reads each distinct base part and fiber part once; the
    # oracle unpacks every key whole
    chart, _ = build_chart(name)
    f = data.draw(polys(chart))
    assert format_poly(f) == unpacked_format(f)
    for cls, fmt, head in ((DiffOp, format_diffop, "d"),
                           (SymTensor, format_symtensor, "s")):
        value = data.draw(indexed(cls, chart))
        assert fmt(value) == unpacked_format(value.symbol(), head)


def test_printer_cases_match_the_per_key_oracle():
    # zero, a denominator above 1, negative coefficients, and a word of
    # two odd letters, whose symbol sign rho(K) is -1
    chart, _ = build_chart("two_odd")
    assert symbol_sign(chart, word_key(chart, (0, 1, 1))) == -1
    for parse, fmt, head, text in (
            (parse_poly, format_poly, None, "0"),
            (parse_diffop, format_diffop, "d", "0"),
            (parse_symtensor, format_symtensor, "s", "0"),
            (parse_poly, format_poly, None,
             "-3/2*x*t1*y_t2*dt1 + 7/6*y^2*dx - 1"),
            (parse_diffop, format_diffop, "d",
             "5/4*d[t2]*d[t1]*d[x]^2 - 3/2*x*d[t2]*d[t1] - x^2*d[x] + 1/3"),
            (parse_symtensor, format_symtensor, "s",
             "5/4*t1*s[t2]*s[t1]*s[x]^2 - 3/2*x*s[t2]*s[t1] - 2/5*s[t1]")):
        value = parse(chart, text)
        assert fmt(value) == text
        sigma = value if head is None else value.symbol()
        assert unpacked_format(sigma, head) == text


def test_normal_ordered_operator_term_makes_no_partial_pass(mixed,
                                                            monkeypatch):
    # each product of the term has a function on the left or a word with
    # constant coefficients on the right: one product of symbols each
    def forbidden(*args):
        raise AssertionError("partial pass")
    monkeypatch.setattr(GradedPoly, "_partial_rows", forbidden)
    x = GradedPoly.generator(mixed, 0)
    assert parse_diffop(mixed, "3*x*d[t]*d[x]^2") == \
        DiffOp(mixed, {(2, 1): 3 * x})


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
    # the shipped file and the conftest definition describe one chart
    chart, conn = build_chart("mixed")
    chart2, conn2 = load_chart_file(os.path.join(
        os.path.dirname(__file__), os.pardir, "charts", "mixed_parity.chart"))
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
