"""Property tests of GradedPoly's stored form: integer numerators over one
reduced denominator.

Examples are drawn by Hypothesis with ``derandomize=True`` and no example
database, so every run checks the same polynomials on every shipped chart.
"""

import os
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from jetexp.chartfile import load_chart_file
from jetexp.fedosov import delta_inv_op, project_weight
from jetexp.grammar import format_poly, parse_poly
from jetexp.poly import GradedPoly

from oracles import filter_terms, parity_parts

CHART_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "charts")
CHARTS = [load_chart_file(os.path.join(CHART_DIR, name))[0]
          for name in sorted(os.listdir(CHART_DIR)) if name.endswith(".chart")]

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=30)


def monomials(chart):
    # exponents up to 2 stay inside every shipped chart's bounds (B >= 6
    # with at most three coordinates, Q >= 4, P >= 3), so parsing the
    # formatted text accepts them
    return st.tuples(*[st.integers(0, 1 if parity else 2)
                       for parity in chart.gen_parities])


def polys(chart, max_terms=4):
    coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    return st.dictionaries(monomials(chart), coefficients,
                           max_size=max_terms).map(
        lambda terms: GradedPoly(chart, terms))


def chart_and(count):
    return st.sampled_from(CHARTS).flatmap(
        lambda chart: st.tuples(st.just(chart),
                                *[polys(chart)] * count))


def assert_canonical(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int and v for v in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1  # so the zero poly has den 1


@PROPERTY
@given(chart_and(3))
def test_ring_laws(args):
    chart, a, b, c = args
    zero = GradedPoly.zero(chart)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a
    assert a - a == zero and a + (-a) == zero
    assert a - b == a + (-b)


@PROPERTY
@given(chart_and(2), st.integers(-4, 4),
       st.fractions(min_value=-3, max_value=3, max_denominator=6))
def test_every_result_is_canonical(args, k, q):
    chart, a, b = args
    nslots = 3 * chart.n
    results = [a, a + b, a - b, -a, a * b, a * k, k * a, a * q,
               GradedPoly.constant(chart, q), delta_inv_op(a),
               a.derive({s: b for s in range(0, nslots, 2)}),
               filter_terms(a, lambda m: sum(m) % 2 == 0)]
    results += [a.partial(s) for s in range(nslots)]
    results += [a.derive({s: b for s in range(0, nslots, 2)}, w)
                for w in range(4)]
    results += list(a.weight_layers().values())
    results += list(a.homogeneous_components().values())
    results += [part for _, part in parity_parts(a)]
    for p in results:
        assert_canonical(p)


@PROPERTY
@given(chart_and(2))
def test_terms_view_round_trip_and_hash(args):
    chart, a, b = args
    assert all(type(c) is Fraction and c for c in a.terms.values())
    again = GradedPoly(chart, a.terms)
    assert again == a and hash(again) == hash(a)
    # the same value reached through other denominators
    for other in ((a + b) - b, (a * 6) * Fraction(1, 6), -(-a)):
        assert other == a and hash(other) == hash(a)
        assert other.terms == a.terms


@PROPERTY
@given(chart_and(2))
def test_capped_product_is_the_projected_product(args):
    chart, a, b = args
    images = {s: b for s in range(0, 3 * chart.n, 2)}
    full = a.derive(images)
    for w in range(9):
        assert a.derive(images, w) == project_weight(full, w)


@PROPERTY
@given(chart_and(1))
def test_format_parse_round_trip(args):
    chart, a = args
    assert parse_poly(chart, format_poly(a)) == a
