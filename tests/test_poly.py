import random
from fractions import Fraction

import pytest

from jetexp.chart import Chart, Truncation
from jetexp.poly import (DegreeUndefinedError, GradedPoly, NotHomogeneousError,
                         combine, monomial_pq)
from jetexp.randomgen import random_section

from conftest import CHART_DEFS
from oracles import (brute_force_derivative, derivation_apply, filter_terms,
                     fraction_derive, fraction_mul, fraction_partial,
                     monomial_parity)


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
    for slot in (-1, 3 * mixed.n):  # a slot off the chart is refused
        with pytest.raises(ValueError):
            x.partial(slot)
        with pytest.raises(ValueError):
            x.derive({slot: x})


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
                images[s] = filter_terms(
                    random_section(rng, chart, 2, terms=4),
                    lambda m: monomial_parity(chart, m) == want)
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


@pytest.mark.parametrize("name", ["mixed", "two_odd", "negdeg",
                                  "three_degrees"])
def test_weight_capped_products_match_projection(charts, rng, name):
    # a derivation applied with its products cut off at weight w is the
    # full derivation projected to w, for every w up to Q+1
    from jetexp.fedosov import project_weight
    chart, _ = charts[name]
    nslots = 3 * chart.n
    top = chart.truncation.max_sym_weight + 1
    for parity in (0, 1):
        for _ in range(6):
            a = random_section(rng, chart, top - 1)
            b = random_section(rng, chart, top - 1)
            table = {}
            for s in rng.sample(range(nslots), rng.randint(1, nslots)):
                want = (parity + chart.gen_parities[s]) & 1
                table[s] = filter_terms(
                    random_section(rng, chart, 2, terms=4),
                    lambda m: monomial_parity(chart, m) == want)
            full_derive = a.derive(table)
            for w in range(top + 1):
                assert a.derive(table, max_weight=w) == \
                    project_weight(full_derive, w)


def _random_poly(rng, chart, terms, max_factors):
    # coefficients with denominators 1..7 and both signs; odd slots at
    # most once per monomial
    nslots = 3 * chart.n
    out = {}
    for _ in range(terms):
        m = [0] * nslots
        for s in rng.choices(range(nslots), k=rng.randint(0, max_factors)):
            m[s] = 1 if chart.gen_parities[s] else m[s] + 1
        out[tuple(m)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                 rng.randint(1, 7))
    return GradedPoly(chart, out)


CONSTANTS = (1, -1, Fraction(2, 3), Fraction(-5, 7))


@pytest.mark.parametrize("name", sorted(CHART_DEFS))
def test_integer_kernel_matches_fraction_oracle(charts, rng, name):
    # products, partials and derivations (the capped kernel at every cap)
    # agree with the Fraction pair loop, also on values built from
    # already-used ones; every product also runs with a constant factor on
    # either side (taken as a scalar by ``*``, as an image by ``derive``)
    chart, _ = charts[name]
    nslots = 3 * chart.n
    top = chart.truncation.max_sym_weight + 1
    consts = [GradedPoly.constant(chart, c) for c in CONSTANTS]
    for _ in range(6):
        a = _random_poly(rng, chart, rng.randint(1, 8), 4)
        b = _random_poly(rng, chart, rng.randint(1, 8), 4)
        derived = [a * b, -a, a + b, a * Fraction(-3, 7),
                   filter_terms(a, lambda m: sum(m[chart.n:]) <= 2),
                   filter_terms(b, lambda m: sum(m[chart.n:]) >= 2)]
        checked = {}  # each distinct product once, in order
        for left, right in [(a, b), (b, a), (a, a)] + \
                [(d, b) for d in derived] + [(b, d) for d in derived]:
            for pair in [(left, right)] + [(c, right) for c in consts] + \
                    [(left, c) for c in consts]:
                checked.setdefault(pair)
        for x, y in checked:
            assert x * y == fraction_mul(x, y)
            assert all(type(c) is Fraction for c in (x * y).terms.values())
            # the capped kernel, reached through derive: y times the
            # partial of x by one slot x holds
            held = [s for s in range(nslots) if any(m[s] for m in x.terms)]
            images = {rng.choice(held) if held else 0: y}
            for w in range(-1, top + 1):
                assert x.derive(images, w) == fraction_derive(x, images, w)
        for f in [a, b] + derived:
            for s in range(nslots):
                assert f.partial(s) == fraction_partial(f, s)
        listed = rng.sample(range(nslots), rng.randint(1, nslots))
        table = {s: _random_poly(rng, chart, 3, 2) for s in listed}
        with_consts = {s: rng.choice(consts) if rng.random() < 0.5 else img
                       for s, img in table.items()}
        # operands whose partials vanish on some, or all, listed slots
        missing = rng.sample(listed, rng.randint(1, len(listed)))
        operands = [a, filter_terms(a, lambda m: not any(m[s] for s in
                                                         missing)),
                    filter_terms(a, lambda m: not any(m[s] for s in listed)),
                    consts[2]]
        for f in operands:
            for images in (table, with_consts):
                for w in [None] + list(range(-1, top + 1)):
                    assert f.derive(images, w) == \
                        fraction_derive(f, images, w)


def test_derive_builds_no_partial_polynomial(charts, rng, monkeypatch):
    # derive reads the partials' rows off the operand's own rows; it never
    # builds a partial polynomial
    from jetexp.fedosov import dnabla_images

    def refuse(self, slot):
        raise AssertionError("derive built a partial polynomial")
    monkeypatch.setattr(GradedPoly, "partial", refuse)
    for name in sorted(CHART_DEFS):
        chart, conn = charts[name]
        nslots = 3 * chart.n
        tables = [dnabla_images(conn),
                  {s: _random_poly(rng, chart, 3, 2)
                   for s in rng.sample(range(nslots), rng.randint(1, nslots))}]
        for _ in range(4):
            f = _random_poly(rng, chart, rng.randint(1, 8), 4)
            for table in tables:
                assert f.derive(table) == fraction_derive(f, table)


def test_partial_entries_build_no_rows(charts, rng, monkeypatch):
    # partial and combine's partial entries add their terms straight from
    # the numerators: they lay out no product rows, and agree with the
    # Fraction oracle and with derive on the image 1, which lays the same
    # terms out as rows
    def refuse(self, slot):
        raise AssertionError("a partial entry built product rows")
    for name in sorted(CHART_DEFS):
        chart, _ = charts[name]
        one = GradedPoly.constant(chart, 1)
        fs = [_random_poly(rng, chart, rng.randint(1, 8), 4)
              for _ in range(3)]
        slots = range(3 * chart.n)
        derived = {(i, s): f.derive({s: one})
                   for i, f in enumerate(fs) for s in slots}
        with monkeypatch.context() as patch:
            patch.setattr(GradedPoly, "_partial_rows", refuse)
            for (i, s), want in derived.items():
                f, g = fs[i], fs[i - 1]
                t = rng.choice(slots)
                assert f.partial(s) == want == fraction_partial(f, s)
                got = combine(chart, [(3, f, s), (1, g), (-2, g, t)], 5)
                assert got == (3 * want + g - 2 * fraction_partial(g, t)) \
                    * Fraction(1, 5)


@pytest.mark.parametrize("name", sorted(CHART_DEFS))
def test_kernel_entry_points_refuse_bad_slots(charts, name):
    # a slot off the chart, a base slot in an exchange pair and an image
    # on another chart are refused by every entry point, on a nonzero
    # operand and on zero alike
    chart, _ = charts[name]
    n = chart.n
    other, _ = charts["mixed" if name == "deg2" else "deg2"]
    x, y = GradedPoly.generator(chart, 0), GradedPoly.generator(chart, n)
    foreign = GradedPoly.generator(other, 0)
    for p in (x * y + GradedPoly.constant(chart, 3), GradedPoly.zero(chart)):
        for slot in (3 * n, -1):
            with pytest.raises(ValueError):
                p.partial(slot)
            with pytest.raises(ValueError):
                p.derive({slot: y})
            with pytest.raises(ValueError):
                combine(chart, [(1, p, slot)])
            with pytest.raises(ValueError):
                combine(chart, [(1, p, {slot: y})])
        with pytest.raises(ValueError):
            p.exchange([(0, n)])
        with pytest.raises(ValueError):
            p.derive({0: foreign})
