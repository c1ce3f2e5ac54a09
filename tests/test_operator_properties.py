"""Property tests of symmetric tensors and operators with non-constant
base coefficients: the exponential map against its inverse on every
conftest chart, and the text grammar's round trip on every shipped chart.

Examples are drawn by Hypothesis with ``derandomize=True`` and no example
database, like ``test_poly_properties.py``, so every run checks the same
values.  Coefficients are drawn over all base generators, odd ones
included, so coefficients of both parities (and mixed ones) occur.
"""

from hypothesis import given, strategies as st

from jetexp.enveloping import DiffOp, SymTensor
from jetexp.grammar import (format_diffop, format_symtensor, parse_diffop,
                            parse_symtensor)
from jetexp.pbw import PbwContext
from jetexp.poly import GradedPoly

from conftest import CHART_DEFS, build_chart
from test_poly_properties import CHARTS, PROPERTY

MAX_WEIGHT = 3  # at most every conftest and shipped chart's weight Q

CONTEXTS = {name: PbwContext(*build_chart(name)) for name in CHART_DEFS}


def base_polys(chart):
    # base exponents up to 2 stay inside every chart's base degree bound
    n = chart.n
    monomial = st.tuples(*[st.integers(0, 1 if chart.gen_parities[s] else 2)
                           for s in range(n)]).map(
        lambda e: e + (0,) * (2 * n))
    coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    return st.dictionaries(monomial, coefficients, min_size=1,
                           max_size=3).map(lambda t: GradedPoly(chart, t))


def words(chart):
    return st.tuples(*[
        st.integers(0, 1 if chart.coordinate_parity(s) else MAX_WEIGHT)
        for s in range(chart.n)]).filter(lambda i: sum(i) <= MAX_WEIGHT)


def indexed(cls, chart):
    return st.dictionaries(words(chart), base_polys(chart), max_size=3).map(
        lambda terms: cls(chart, terms))


def on_charts(charts, cls):
    return st.sampled_from(charts).flatmap(
        lambda chart: st.tuples(st.just(chart), indexed(cls, chart)))


@PROPERTY
@given(st.sampled_from(sorted(CHART_DEFS)).flatmap(
    lambda name: st.tuples(
        st.just(name),
        indexed(SymTensor, CONTEXTS[name].chart),
        indexed(DiffOp, CONTEXTS[name].chart))))
def test_map_and_inverse_are_inverse(args):
    name, tensor, op = args
    ctx = CONTEXTS[name]
    assert ctx.inv(ctx.map(tensor)) == tensor
    assert ctx.map(ctx.inv(op)) == op


@PROPERTY
@given(on_charts(CHARTS, SymTensor))
def test_symtensor_format_parse_round_trip(args):
    chart, tensor = args
    assert parse_symtensor(chart, format_symtensor(tensor)) == tensor


@PROPERTY
@given(on_charts(CHARTS, DiffOp))
def test_diffop_format_parse_round_trip(args):
    chart, op = args
    assert parse_diffop(chart, format_diffop(op)) == op
