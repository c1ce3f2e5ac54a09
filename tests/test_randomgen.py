"""The seeded samples of the verify suites do not depend on how they are
assembled: each generator returns the value of its single-term-sum
oracle and leaves the random state where the oracle leaves it.

A passing ``verify`` prints no sample, so its byte-identical output
cannot show a changed draw; this test can.  Seeds and sizes are drawn by
Hypothesis with ``derandomize=True`` and no example database.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from jetexp.randomgen import random_base_poly, random_section, random_symtensor

from conftest import CHART_DEFS, build_chart
from oracles import (summed_random_base_poly, summed_random_section,
                     summed_random_symtensor)

SAMPLES = settings(derandomize=True, database=None, deadline=None,
                   max_examples=60)

SEEDS = st.integers(0, 2 ** 32 - 1)


def same_draws(new, old, seed, *args):
    a, b = random.Random(seed), random.Random(seed)
    assert new(a, *args) == old(b, *args)
    assert a.getstate() == b.getstate()


@pytest.mark.parametrize("name", sorted(CHART_DEFS))
@SAMPLES
@given(seed=SEEDS, degree=st.integers(0, 4), terms=st.integers(0, 6))
def test_random_base_poly_draws_unchanged(name, seed, degree, terms):
    chart, _ = build_chart(name)
    same_draws(random_base_poly, summed_random_base_poly, seed, chart,
               degree, terms)


@pytest.mark.parametrize("name", sorted(CHART_DEFS))
@SAMPLES
@given(seed=SEEDS, weight=st.integers(0, 5), terms=st.integers(0, 6),
       base=st.integers(0, 3))
def test_random_section_draws_unchanged(name, seed, weight, terms, base):
    chart, _ = build_chart(name)
    same_draws(random_section, summed_random_section, seed, chart, weight,
               terms, base)


@pytest.mark.parametrize("name", sorted(CHART_DEFS))
@SAMPLES
@given(seed=SEEDS, weight=st.integers(0, 5), terms=st.integers(0, 5),
       base=st.integers(0, 3))
def test_random_symtensor_draws_unchanged(name, seed, weight, terms, base):
    chart, _ = build_chart(name)
    same_draws(random_symtensor, summed_random_symtensor, seed, chart,
               weight, terms, base)

