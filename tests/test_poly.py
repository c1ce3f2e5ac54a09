import random
from fractions import Fraction

import pytest

from jetexp.chart import Chart, Truncation
from jetexp.poly import (DegreeUndefinedError, GradedPoly, NotHomogeneousError,
                         monomial_parity, monomial_pq)
from jetexp.randomgen import random_section

from oracles import brute_force_derivative, derivation_apply


@pytest.fixture
def mixed():
    return Chart([("x", 0), ("t1", 1), ("t2", 1)], Truncation(4, 3, 6))


def gens(chart, *names):
    return tuple(GradedPoly.generator(chart, chart.slot(n)) for n in names)


def test_product_examples(mixed):
    x, t1, t2 = gens(mixed, "x", "t1", "t2")
    assert (x + t1) * (x - t1) == x * x
    assert t2 * t1 == -(t1 * t2)
    assert (t1 * t2) * (t1 * t2) == GradedPoly.zero(mixed)


def test_partial_examples(mixed):
    x, t1, t2 = gens(mixed, "x", "t1", "t2")
    assert (x * x).partial(0) == 2 * x
    assert (t1 * t2).partial(mixed.slot("t1")) == t2
    assert (t1 * t2).partial(mixed.slot("t2")) == -t1


def test_degree_examples(mixed):
    x, t1, t2 = gens(mixed, "x", "t1", "t2")
    dx = GradedPoly.generator(mixed, mixed.dx_slot(0))
    y_t1 = GradedPoly.generator(mixed, mixed.y_slot(1))
    assert x.degree() == 0
    assert dx.degree() == 1
    assert (t1 * t2 * y_t1).degree() == 3
    with pytest.raises(DegreeUndefinedError):
        GradedPoly.zero(mixed).degree()
    with pytest.raises(NotHomogeneousError):
        (x + t1).degree()
    comps = (x + t1).homogeneous_components()
    assert set(comps) == {0, 1} and comps[0] == x and comps[1] == t1


def test_graded_commutativity_random(mixed, rng):
    for _ in range(150):
        a = random_section(rng, mixed, 3)
        b = random_section(rng, mixed, 3)
        for da, pa in a.homogeneous_components().items():
            for db, pb in b.homogeneous_components().items():
                sign = -1 if (da & 1) and (db & 1) else 1
                assert pa * pb == (pb * pa) * sign


def test_multiplication_associative(mixed, rng):
    for _ in range(80):
        a = random_section(rng, mixed, 2)
        b = random_section(rng, mixed, 2)
        c = random_section(rng, mixed, 2)
        assert (a * b) * c == a * (b * c)


def test_partial_is_graded_leibniz(mixed, rng):
    for _ in range(100):
        a = random_section(rng, mixed, 3)
        b = random_section(rng, mixed, 3)
        for slot in range(3 * mixed.n):
            par = mixed.gen_parities[slot]
            lhs = (a * b).partial(slot)
            rhs = a.partial(slot) * b
            for da, pa in a.homogeneous_components().items():
                sign = -1 if par and (da & 1) else 1
                rhs = rhs + (pa * b.partial(slot)) * sign
            assert lhs == rhs


def test_mixed_partials_graded_symmetric(mixed, rng):
    for _ in range(60):
        f = random_section(rng, mixed, 3)
        for i in range(3 * mixed.n):
            for j in range(3 * mixed.n):
                sign = -1 if mixed.gen_parities[i] and mixed.gen_parities[j] \
                    else 1
                assert f.partial(i).partial(j) * sign == f.partial(j).partial(i)


def test_partial_matches_word_expansion_oracle(mixed, rng):
    for _ in range(60):
        f = random_section(rng, mixed, 3)
        slot = rng.randrange(3 * mixed.n)
        assert f.partial(slot) == brute_force_derivative(mixed, f, slot)


@pytest.mark.parametrize("name", ["mixed", "two_odd", "negdeg",
                                  "three_degrees"])
def test_derive_matches_positional_leibniz_oracle(charts, rng, name):
    # sum of image . left partial over slots is the derivation with those
    # generator images, for even and odd derivations alike
    chart, _ = charts[name]
    nslots = 3 * chart.n
    for parity in (0, 1):
        for _ in range(10):
            images = [None] * nslots
            for s in rng.sample(range(nslots), rng.randint(1, nslots)):
                want = (parity + chart.gen_parities[s]) & 1
                images[s] = random_section(rng, chart, 2, terms=4) \
                    .filter_terms(lambda m: monomial_parity(chart, m) == want)
            f = random_section(rng, chart, 3)
            table = {s: img for s, img in enumerate(images) if img is not None}
            assert f.derive(table) == derivation_apply(f, images, parity)


def test_canonicalization_idempotent(mixed, rng):
    for _ in range(40):
        f = random_section(rng, mixed, 3)
        again = GradedPoly(mixed, dict(f.terms))
        assert again == f and again.terms == f.terms


def test_odd_power_rejected(mixed):
    t1_slot = mixed.slot("t1")
    mono = tuple(2 if s == t1_slot else 0 for s in range(3 * mixed.n))
    with pytest.raises(ValueError):
        GradedPoly(mixed, {mono: Fraction(1)})


def test_chart_mismatch_rejected(mixed):
    other = Chart([("x", 0)], Truncation(4, 3, 6))
    with pytest.raises(ValueError):
        GradedPoly.generator(mixed, 0) * GradedPoly.generator(other, 0)


def test_bidegree_bookkeeping(mixed):
    x, t1, _ = gens(mixed, "x", "t1", "t2")
    y = GradedPoly.generator(mixed, mixed.y_slot(0))
    dt1 = GradedPoly.generator(mixed, mixed.dx_slot(1))
    section = x * y * y * dt1
    (monomial,) = section.terms
    assert monomial_pq(mixed, monomial) == (1, 2)


def test_scalar_arithmetic(mixed):
    x, _, _ = gens(mixed, "x", "t1", "t2")
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert Fraction(3) * x - x == 2 * x
    assert (x * 0) == GradedPoly.zero(mixed)
    assert x ** 3 == x * x * x
