"""The packed monomial layout and the ``combine`` entry sum.

Keys are checked against exponent tuples on every conftest chart, at
field values up to the 32767 bound and past it.  ``combine`` is checked
against the term-by-term sum of its entries, each built as its own
polynomial by the Fraction oracles and summed by ``fraction_sum``, with
and without a cap on its products and derivations, on the charts with
odd and negative-degree coordinates.  Examples are drawn by Hypothesis
with ``derandomize=True`` and no example database.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jetexp.chart import FIELD_MAX, Chart, Truncation
from jetexp.enveloping import TruncationOverflowError as ReExported
from jetexp.fedosov import delta_inv_op
from jetexp.poly import (FLIP, GradedPoly, TruncationOverflowError, combine,
                         monomial_pq, pack_monomial,
                         unpack_monomial)

from conftest import CHART_DEFS, build_chart
from oracles import (filter_terms, fraction_derive, fraction_mul,
                     fraction_partial, fraction_sum, monomial_parity)
from test_poly_properties import PROPERTY

CHARTS = {name: build_chart(name)[0] for name in sorted(CHART_DEFS)}
# charts with odd coordinates, a negative degree or both
SIGNED_CHARTS = ("mixed", "two_odd", "negdeg", "three_degrees", "odd_first")


def exponents(chart, top):
    """Exponent tuples with even slots up to ``top``."""
    return st.tuples(*[st.integers(0, 1) if parity else st.integers(0, top)
                       for parity in chart.gen_parities])


@pytest.mark.parametrize("name", sorted(CHART_DEFS))
@PROPERTY
@given(data=st.data())
def test_pack_unpack_round_trip(name, data):
    chart = CHARTS[name]
    m = data.draw(exponents(chart, FIELD_MAX + 2))
    c = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=7)
                  .filter(bool))
    weight = sum(monomial_pq(chart, m))
    if max(m) > FIELD_MAX or weight > FIELD_MAX:
        with pytest.raises(ValueError):
            pack_monomial(chart, m)
        with pytest.raises(ValueError):
            GradedPoly(chart, {m: c})
        return
    key = pack_monomial(chart, m)
    assert unpack_monomial(chart, key) == m
    assert not key & chart.guard
    assert key >> chart.weight_shift == weight
    assert (key & chart.odd_low).bit_count() & 1 == monomial_parity(chart, m)
    assert key == sum(e * u for e, u in zip(m, chart.unit))
    p = GradedPoly(chart, {m: c})
    assert p.terms == {m: c} and p.nums == {key: c.numerator}
    assert p.up_to_weight(weight) == p
    assert not p.up_to_weight(weight - 1)


def test_truncation_bounds_fit_the_field():
    coords = [("x", 0)]
    Chart(coords, Truncation(FIELD_MAX, FIELD_MAX, FIELD_MAX))
    for trunc in ((FIELD_MAX + 1, 3, 6), (5, FIELD_MAX + 1, 6),
                  (5, 3, FIELD_MAX + 1)):
        with pytest.raises(ValueError):
            Chart(coords, Truncation(*trunc))


def test_guard_bit_raises_truncation_overflow():
    assert ReExported is TruncationOverflowError
    chart = Chart([("x1", 0), ("x2", 0)], Truncation(5, 3, 6))
    x1, x2, y1, y2, dx1, dx2 = (GradedPoly.generator(chart, s)
                                for s in range(6))
    big = GradedPoly.generator(chart, 0, 20000)
    top = GradedPoly.generator(chart, 2, FIELD_MAX)
    assert unpack_monomial(chart, next(iter((top * x1).nums))) == \
        (1, 0, FIELD_MAX, 0, 0, 0)
    overflowing = [
        lambda: big * big,                                  # a slot field
        lambda: top * y1,
        lambda: top * GradedPoly.generator(chart, 3, 2),    # p + q
        lambda: combine(chart, [(1, top, y1 * x2)]),
        lambda: combine(chart, [(1, x1, x2), (1, big, big)]),
        lambda: (x1 + big).derive({0: big}),
        lambda: delta_inv_op(top * dx1),                    # an exchange
    ]
    for make in overflowing:
        with pytest.raises(TruncationOverflowError):
            make()
    # capped below the overflowing weight, nothing overflows
    assert not (y2 * y2).derive({3: top}, FIELD_MAX)


def entry_polys(chart):
    """Polynomials over all generators, with exponents up to 2."""
    terms = st.dictionaries(
        exponents(chart, 2),
        st.fractions(min_value=-6, max_value=6, max_denominator=12),
        max_size=4)
    return terms.map(lambda t: GradedPoly(chart, t))


def entries(chart):
    poly = entry_polys(chart)
    weight = st.integers(-4, 4)
    return st.lists(st.one_of(
        st.tuples(weight, poly),
        st.tuples(weight, poly, poly),
        st.tuples(weight, poly, st.integers(0, 3 * chart.n - 1)),
        st.tuples(weight, poly, st.dictionaries(
            st.integers(0, 3 * chart.n - 1), poly, max_size=3)),
        st.tuples(weight, poly, st.just(FLIP))), max_size=6)


def term_by_term(chart, entry, max_weight=None):
    """One entry built as its own polynomial, with no ``combine`` code;
    products and derivations keep the pairs of weight at most
    ``max_weight``."""
    w, p = entry[:2]
    if len(entry) == 2:
        return p * w
    x = entry[2]
    if x is FLIP:
        even = filter_terms(p, lambda m: not monomial_parity(chart, m))
        return fraction_sum(chart, [even * 2, -p]) * w
    if isinstance(x, int):
        return fraction_partial(p, x) * w
    if isinstance(x, dict):
        return fraction_derive(p, x, max_weight) * w
    return fraction_mul(p, x, max_weight) * w


@pytest.mark.parametrize("name", SIGNED_CHARTS)
@PROPERTY
@given(data=st.data())
def test_combine_matches_term_by_term_sum(name, data):
    chart = CHARTS[name]
    table = data.draw(entries(chart))
    div = data.draw(st.integers(1, 6))
    cap = data.draw(st.one_of(st.none(), st.integers(-1, 8)))
    want = fraction_sum(chart, [term_by_term(chart, entry, cap)
                                for entry in table])
    assert combine(chart, table, div, cap) == want * Fraction(1, div)
