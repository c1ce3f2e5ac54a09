import random
import time
from fractions import Fraction

import pytest

from jetexp.chart import Chart, Truncation, mi_all_up_to, mi_factorial
from jetexp.enveloping import (DiffOp, SymTensor, comult_env, comult_sym,
                               letter_sign, square_chart, square_words,
                               symbol_sign, to_square, word_key)
from jetexp.poly import GradedPoly
from jetexp.randomgen import random_base_poly, random_symtensor

from hypothesis import given, strategies as st

from conftest import TORSION_FREE_CHARTS, build_chart
from oracles import (VectorField, bubble_koszul_sign,
                     degree_split_mul_letter_left,
                     degree_split_tensor_push_left, from_vector_field,
                     mi_weight, pairing, parity_parts, per_letter_compose,
                     per_split_comult, random_vector_field, shuffle_pairing,
                     square_from_table, square_table, sym_mul_vf, sym_word,
                     sym_word_product, tensor_square_left_mult_vf,
                     word_letters)
from test_operator_properties import base_polys, indexed, words
from test_poly_properties import PROPERTY


@pytest.fixture
def line():
    return Chart([("x", 0)], Truncation(5, 3, 8))


@pytest.fixture
def mixed():
    return Chart([("x", 0), ("t", 1)], Truncation(4, 4, 6))


def x_of(chart, name="x"):
    return GradedPoly.generator(chart, chart.slot(name))


def test_apply_examples(line):
    x = x_of(line)
    assert DiffOp(line, {(1,): x}).apply(x * x) == 2 * x * x
    assert DiffOp.from_word(line, (2,)).apply(x ** 3) == 6 * x
    # mixed second derivative with the left-derivative convention
    mixed = Chart([("x", 0), ("t", 1)])
    xm = x_of(mixed)
    t = x_of(mixed, "t")
    op = DiffOp.from_word(mixed, (1, 1))  # d_t o d_x
    assert op.apply(xm * t) == GradedPoly.constant(mixed, 1)


def test_compose_examples(line, mixed):
    x = x_of(line)
    d = DiffOp.from_word(line, (1,))
    assert d.compose(DiffOp.function(line, x)) == \
        DiffOp(line, {(1,): x, (0,): GradedPoly.constant(line, 1)})
    d2 = DiffOp.from_word(line, (2,))
    assert d2.compose(DiffOp.function(line, x)) == \
        DiffOp(line, {(2,): x, (1,): GradedPoly.constant(line, 2)})
    t = x_of(mixed, "t")
    dt = DiffOp.from_word(mixed, (0, 1))
    got = dt.compose(DiffOp.function(mixed, t))
    assert got == DiffOp(mixed, {(0, 0): GradedPoly.constant(mixed, 1),
                                 (0, 1): -t})


def test_compose_peels_long_blocks_at_once():
    # the star product forms one term per distinct K that both factors
    # survive, so d[x]^1200 o x is two terms, with no recursion
    from jetexp.grammar import parse_diffop
    chart, _ = build_chart("line_curved")
    x = x_of(chart)
    start = time.perf_counter()
    got = parse_diffop(chart, "d[x]^1200*x", max_order=1300)
    assert time.perf_counter() - start < 2
    assert got == DiffOp(chart, {(1200,): x,
                                 (1199,): GradedPoly.constant(chart, 1200)})


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
@PROPERTY
@given(data=st.data())
def test_compose_matches_per_letter_oracle_on_drawn_pairs(name, data):
    # K runs over the letters whose fiber field the left factor holds
    # and whose base field the right one holds: a function on the left
    # or a base-free factor on the right leaves none
    chart, _ = build_chart(name)
    functions = base_polys(chart).map(lambda f: DiffOp.function(chart, f))
    base_free = st.dictionaries(
        words(chart), st.fractions(min_value=-6, max_value=6,
                                   max_denominator=12), max_size=3).map(
        lambda terms: DiffOp(chart, {index: GradedPoly.constant(chart, c)
                                     for index, c in terms.items()}))
    left = data.draw(st.one_of(indexed(DiffOp, chart), functions))
    right = data.draw(st.one_of(indexed(DiffOp, chart), base_free))
    assert left.compose(right) == per_letter_compose(left, right)


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
def test_compose_matches_per_letter_oracle(name, rng):
    chart, _ = build_chart(name)
    for _ in range(8):
        a, b = (DiffOp(chart, random_symtensor(rng, chart, 4, terms=3,
                                               max_base=3).terms)
                for _ in range(2))
        assert a.compose(b) == per_letter_compose(a, b)


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
def test_letter_compose_matches_general_product(name):
    # d_s o W by the star product against the oracle's operator product
    # and against the one-letter Leibniz rule on symbols, on operators
    # whose coefficients are even, odd and mixed
    chart, _ = build_chart(name)
    rng = random.Random(20261018)
    odd = [GradedPoly.generator(chart, s) for s in chart.odd_slots
           if s < chart.n]
    mixed_seen = False
    for _ in range(12):
        terms = {}
        for index in random_symtensor(rng, chart, 3, terms=4).terms:
            coeff = random_base_poly(rng, chart, 2, 3)
            if odd:
                coeff = coeff + rng.choice(odd) * random_base_poly(
                    rng, chart, 1, 2)
                mixed_seen |= len(parity_parts(coeff)) == 2
            terms[index] = coeff
        op = DiffOp(chart, terms)
        sigma = op.symbol()
        for slot in range(chart.n):
            unit = tuple(1 if s == slot else 0 for s in range(chart.n))
            letter = DiffOp.from_word(chart, unit)
            got = letter.compose(op)
            assert got == per_letter_compose(letter, op)
            y = GradedPoly.generator(chart, chart.y_slot(slot))
            assert got.symbol() == sigma.partial(slot) + y * sigma
    assert mixed_seen or not odd


def test_compose_truncation_cap(line):
    # the product is exact past the chart's weight (5 here): an order cap
    # is the caller's, as the grammar's is
    d3 = DiffOp.from_word(line, (3,))
    assert d3.compose(d3).order() == 6


def test_compose_confluence_and_apply(mixed, rng):
    def rand_op():
        terms = {}
        for _ in range(3):
            idx = (rng.randrange(3), rng.randrange(2))
            terms[idx] = random_base_poly(rng, mixed, 2, 2)
        return DiffOp(mixed, terms)

    for _ in range(40):
        a, b, c = rand_op(), rand_op(), rand_op()
        assert a.compose(b).compose(c) == a.compose(b.compose(c))
        f = random_base_poly(rng, mixed, 3, 3)
        assert a.compose(b).apply(f) == a.apply(b.apply(f))


def test_filtration_order_and_symbol(line, mixed):
    x = x_of(line)
    op = DiffOp(line, {(2,): x, (1,): GradedPoly.constant(line, 1)})
    assert op.order() == 2
    assert op.gr_leading() == SymTensor(line, {(2,): x})
    low = DiffOp.function(line, x)
    assert low.order() == 0 and low.gr_leading() == SymTensor.function(line, x)
    assert DiffOp.zero(line).order() is None
    # descending word stores d_t o d_x at (1, 1) verbatim
    op2 = DiffOp.from_word(mixed, (1, 1))
    assert op2.order() == 2
    assert op2.gr_leading() == SymTensor.from_word(mixed, (1, 1))


def test_sym_map_examples(line):
    x = x_of(line)
    d = VectorField.coordinate(line, 0)
    # a stored tensor symmetrizes to the operator with the same terms
    word = SymTensor.from_word(line, (1,))
    assert DiffOp(line, dict(word.terms)) == DiffOp.from_word(line, (1,))
    got = sym_word([d, d.scale(x)])
    want = DiffOp(line, {(2,): x, (1,): GradedPoly.constant(line, Fraction(1, 2))})
    assert got == want


def test_sym_word_of_odd_square_is_zero():
    mixed = Chart([("x", 0), ("t", 1)])
    dt = VectorField.coordinate(mixed, 1)
    assert not sym_word([dt, dt])


def test_symbol_of_sym_map_is_identity(mixed, rng):
    for _ in range(40):
        t = random_symtensor(rng, mixed, 4)
        for w, part in ((w, t.weight_part(w)) for w in range(5)):
            if part:
                assert DiffOp(mixed, dict(part.terms)).gr_leading() == part


def test_comult_sym_examples(line):
    one = SymTensor.function(line, GradedPoly.constant(line, 1))
    d = SymTensor.from_word(line, (1,))
    empty = (0,)
    got = square_table(line, comult_sym(one))
    assert got == {(empty, empty): GradedPoly.constant(line, 1)}
    got = square_table(line, comult_sym(d))
    assert got == {((1,), empty): GradedPoly.constant(line, 1),
                   (empty, (1,)): GradedPoly.constant(line, 1)}
    # weight two: 1 (x) W + W (x) 1 + two cross terms
    got = square_table(line, comult_sym(SymTensor.from_word(line, (2,))))
    assert got[((1,), (1,))] == GradedPoly.constant(line, 2)


def test_comult_sym_odd_cross_sign():
    two_odd = Chart([("t1", 1), ("t2", 1)])
    word = SymTensor.from_word(two_odd, (1, 1))  # descending: t2 then t1
    got = square_table(two_odd, comult_sym(word))
    # splitting off the trailing letter t1 to the left crosses t2
    assert got[((1, 0), (0, 1))] == -GradedPoly.constant(two_odd, 1)
    assert got[((0, 1), (1, 0))] == GradedPoly.constant(two_odd, 1)


def test_comult_env_examples(mixed):
    f = random_base_poly(random.Random(1), mixed, 2, 2)
    op = DiffOp.function(mixed, f)
    got = square_table(mixed, comult_env(op))
    assert got == {((0, 0), (0, 0)): f}
    d = DiffOp.from_word(mixed, (1, 0))
    got = square_table(mixed, comult_env(d))
    assert got == {((1, 0), (0, 0)): GradedPoly.constant(mixed, 1),
                   ((0, 0), (1, 0)): GradedPoly.constant(mixed, 1)}
    # product of two distinct commuting coordinate fields
    plane = Chart([("x1", 0), ("x2", 0)])
    op = DiffOp.from_word(plane, (1, 1))
    got = square_table(plane, comult_env(op))
    one = GradedPoly.constant(plane, 1)
    assert got == {((1, 1), (0, 0)): one, ((0, 0), (1, 1)): one,
                   ((1, 0), (0, 1)): one, ((0, 1), (1, 0)): one}


def test_comult_env_matches_iterated_product_route():
    # independent route: the comultiplication of a word equals the
    # product of the comultiplications of its letters, built by
    # iterated left multiplication starting from 1 (x) 1
    from jetexp.chart import mi_all_up_to
    chart = Chart([("x", 0), ("t1", 1), ("t2", 1)], Truncation(4, 3, 6))
    for index in mi_all_up_to(chart.n, 4):
        if any(e > 1 and chart.coordinate_parity(s)
               for s, e in enumerate(index)):
            continue
        if mi_weight(index) < 2:
            continue
        empty = (0,) * chart.n
        built = square_from_table(
            chart, {(empty, empty): GradedPoly.constant(chart, 1)})
        for slot in reversed(word_letters(index)):
            built = tensor_square_left_mult_vf(
                VectorField.coordinate(chart, slot), built)
        assert built == comult_env(DiffOp.from_word(chart, index))


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
def test_comult_matches_bitmask_split_oracle(name):
    # every admissible word up to weight 6, each with a random base
    # coefficient: one term per distinct split, weighted by binomials and
    # the odd-crossing sign, equals the sum over all 2^k bitmask splits
    chart, _ = build_chart(name)
    rng = random.Random(19)
    for index in mi_all_up_to(chart.n, 6):
        if any(e > 1 and chart.coordinate_parity(s)
               for s, e in enumerate(index)):
            continue
        coeff = random_base_poly(rng, chart, 2, 2)
        tensor = SymTensor(chart, {index: coeff})
        op = DiffOp(chart, {index: coeff})
        assert comult_sym(tensor) == per_split_comult(tensor)
        assert comult_env(op) == per_split_comult(op)


def test_comult_multiplicative_on_vector_fields(mixed, rng):
    for _ in range(25):
        x = random_vector_field(rng, mixed, 2)
        u = DiffOp(mixed, {(rng.randrange(2), rng.randrange(2)):
                           random_base_poly(rng, mixed, 2, 2),
                           (rng.randrange(3), 0):
                           random_base_poly(rng, mixed, 2, 2)})
        lhs = comult_env(from_vector_field(DiffOp, x).compose(u))
        rhs = tensor_square_left_mult_vf(x, comult_env(u))
        assert lhs == rhs


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
@PROPERTY
@given(data=st.data())
def test_comult_sym_is_multiplicative(name, data):
    # the substitution y -> y + y' is an algebra map, and the square
    # product of symbols the product of the tensor-square algebra
    chart, _ = build_chart(name)
    s = data.draw(indexed(SymTensor, chart))
    t = data.draw(indexed(SymTensor, chart))
    assert comult_sym(s * t) == comult_sym(s) * comult_sym(t)


def _triple_split(chart, comult, obj, first_left):
    """Canonical (K, L, M) -> coeff table for (Delta (x) id)Delta or
    (id (x) Delta)Delta, with all coefficients pushed to the far left."""
    out = {}

    def push(key, coeff):
        if not coeff:
            return
        cur = out.get(key)
        val = coeff if cur is None else cur + coeff
        if val:
            out[key] = val
        else:
            del out[key]

    for (a, b), coeff in square_table(chart, comult(obj)).items():
        if first_left:
            inner = comult(type(obj)(obj.chart, {a: coeff}))
            for (k, l), c in square_table(chart, inner).items():
                push((k, l, b), c)
        else:
            inner = comult(type(obj).from_word(obj.chart, b))
            for (l, m), c in square_table(chart, inner).items():
                # move c (pure word split of b: constant) and cross signs:
                # the square product of (a: coeff) (x) (l: c)
                square = (to_square(type(obj)(chart, {a: coeff}).symbol())
                          * to_square(type(obj)(chart, {l: c}).symbol(),
                                      right=True))
                for (k2, l2), c2 in square_table(chart, square).items():
                    push((k2, l2, m), c2)
    return out


@pytest.mark.parametrize("kind", ["sym", "env"])
def test_coassociativity(mixed, rng, kind):
    make = (SymTensor if kind == "sym" else DiffOp)
    com = (comult_sym if kind == "sym" else comult_env)
    for _ in range(20):
        t = random_symtensor(rng, mixed, 4)
        obj = make(mixed, dict(t.terms))
        left = _triple_split(mixed, com, obj, first_left=True)
        right = _triple_split(mixed, com, obj, first_left=False)
        assert left == right


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
def test_square_words_undo_to_square(name):
    # the words read off a square's fiber key y^L y'^R are L and R, also
    # when their weights sum to the field's limit
    chart, _ = build_chart(name)
    words = [index for index in mi_all_up_to(chart.n, 3)
             if not any(e > 1 and chart.coordinate_parity(s)
                        for s, e in enumerate(index))]
    cases = [(chart, left, right) for left in words for right in words]
    line = Chart([("x", 0)], Truncation(5, 3, 6))
    cases.append((line, (20000,), (12767,)))
    for chart, left, right in cases:
        square = (to_square(SymTensor.from_word(chart, left).symbol())
                  * to_square(SymTensor.from_word(chart, right).symbol(),
                              right=True))
        (fiber,) = square.nums
        assert square_words(chart, fiber) == \
            (word_key(chart, left), word_key(chart, right))


@pytest.mark.parametrize("kind", ["sym", "env"])
def test_counit_both_sides(mixed, rng, kind):
    make = (SymTensor if kind == "sym" else DiffOp)
    com = (comult_sym if kind == "sym" else comult_env)
    empty = (0,) * mixed.n
    for _ in range(20):
        t = random_symtensor(rng, mixed, 4)
        obj = make(mixed, dict(t.terms))
        # (counit (x) id) Delta == id: keep terms with empty left word
        left = {}
        right = {}
        for (a, b), coeff in square_table(mixed, com(obj)).items():
            if a == empty:
                # coefficient crosses nothing: it is already far left
                cur = right.get(b)
                right[b] = coeff if cur is None else cur + coeff
            if b == empty:
                cur = left.get(a)
                left[a] = coeff if cur is None else cur + coeff
        assert make(mixed, left) == obj
        assert make(mixed, right) == obj


def test_pairing_examples(line):
    y = GradedPoly.generator(line, line.y_slot(0))
    assert pairing(SymTensor.from_word(line, (2,)), y * y) == \
        GradedPoly.constant(line, 2)
    assert not pairing(SymTensor.from_word(line, (2,)), y)
    mixed = Chart([("x", 0), ("t", 1)])
    y_t = GradedPoly.generator(mixed, mixed.y_slot(1))
    assert pairing(SymTensor.from_word(mixed, (0, 1)), y_t) == \
        GradedPoly.constant(mixed, 1)


def test_pairing_gram_matrix_is_factorial_diagonal():
    chart = Chart([("x", 0), ("t1", 1), ("t2", 1)], Truncation(4, 3, 6))
    n = chart.n
    for q in range(5):
        words = [i for i in mi_all_up_to(n, q) if mi_weight(i) == q
                 and not any(e > 1 and chart.coordinate_parity(s)
                             for s, e in enumerate(i))]
        for wi in words:
            tensor = SymTensor.from_word(chart, wi)
            for wj in words:
                mono = (0,) * n + wj + (0,) * n
                got = pairing(tensor, GradedPoly(chart, {mono: Fraction(1)}))
                if wi == wj:
                    assert got == GradedPoly.constant(chart, mi_factorial(wi))
                else:
                    assert not got


def test_pairing_matches_shuffle_oracle():
    chart = Chart([("x", 0), ("t1", 1), ("t2", 1)], Truncation(4, 3, 6))
    n = chart.n
    for q in range(1, 5):
        words = [i for i in mi_all_up_to(n, q) if mi_weight(i) == q
                 and not any(e > 1 and chart.coordinate_parity(s)
                             for s, e in enumerate(i))]
        for wi in words:
            for wj in words:
                fiber_letters = []
                for s in range(n):
                    fiber_letters.extend([s] * wj[s])
                want = shuffle_pairing(chart, word_letters(wi), fiber_letters)
                mono = (0,) * n + wj + (0,) * n
                got = pairing(SymTensor.from_word(chart, wi),
                              GradedPoly(chart, {mono: Fraction(1)}))
                assert got == GradedPoly.constant(chart, want)


def test_pairing_coefficient_crossing_sign(rng):
    chart = Chart([("x", 0), ("t", 1)], Truncation(4, 3, 6))
    t = GradedPoly.generator(chart, 1)
    y_t = GradedPoly.generator(chart, chart.y_slot(1))
    # <d_t, t.y_t> = (-1)^{|t||y_t|} t <d_t, y_t> = -t
    got = pairing(SymTensor.from_word(chart, (0, 1)), t * y_t)
    assert got == -t


def test_sym_mul_vf_and_word_product(mixed):
    t = x_of(mixed, "t")
    d_x = VectorField.coordinate(mixed, 0)
    d_t = VectorField.coordinate(mixed, 1)
    # even (x) odd factors commute: (t d_x) (.) d_t == t (d_t (.) d_x)
    got = sym_mul_vf(d_x.scale(t), SymTensor.from_word(mixed, (0, 1)))
    assert got == SymTensor(mixed, {(1, 1): t})
    # odd repetition dies
    assert not sym_mul_vf(d_t, SymTensor.from_word(mixed, (0, 1)))
    assert sym_word_product(mixed, [0, 1]) == sym_word_product(mixed, [1, 0])
    # two odd factors anticommute
    two_odd = Chart([("t1", 1), ("t2", 1)])
    assert sym_word_product(two_odd, [0, 1]) == \
        -sym_word_product(two_odd, [1, 0])
    assert not sym_word_product(two_odd, [0, 0])


def test_tensor_square_counit_of_counit(line):
    t = SymTensor.from_word(line, (3,))
    total = GradedPoly.zero(line)
    for (a, b), coeff in square_table(line, comult_sym(t)).items():
        if a == (0,) and b == (3,):
            total = total + coeff
    assert total == GradedPoly.constant(line, 1)
    # the counit is the coefficient of the empty word
    assert (0,) not in t.terms
    assert SymTensor.function(line, x_of(line)).terms[(0,)] == x_of(line)


def odd_parts(obj):
    """``obj`` with each coefficient cut down to its odd part."""
    return type(obj)(obj.chart, {index: part
                                 for index, coeff in obj.terms.items()
                                 for par, part in parity_parts(coeff) if par})


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
@PROPERTY
@given(data=st.data())
def test_tensor_push_left_matches_degree_split_oracle(name, data):
    # pushing each right coefficient into the left slot is the product of
    # square symbols.  The drawn coefficients run over all base
    # generators, so on a chart with odd coordinates they are of mixed
    # parity; their odd parts are pushed too, alone and as a second pair
    # onto the same keys
    chart, _ = build_chart(name)
    left = data.draw(indexed(DiffOp, chart))
    right = data.draw(indexed(DiffOp, chart))
    for pairs in ([(left, right)], [(left, odd_parts(right))],
                  [(left, right), (left, odd_parts(right))]):
        got = GradedPoly.zero(square_chart(chart))
        want = {}
        for lhs, rhs in pairs:
            got = got + to_square(lhs.symbol()) * to_square(rhs.symbol(),
                                                            right=True)
            degree_split_tensor_push_left(want, lhs, rhs)
        assert got == square_from_table(chart, want)


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
@PROPERTY
@given(data=st.data())
def test_mul_letter_left_matches_degree_split_oracle(name, data):
    chart, _ = build_chart(name)
    tensor = data.draw(indexed(SymTensor, chart))
    for slot in range(chart.n):
        for t in (tensor, odd_parts(tensor)):
            # the symmetric product by d_s, twice (an odd square is 0),
            # and by an even d_s^2 in one step
            unit = tuple(int(s == slot) for s in range(chart.n))
            letter = SymTensor.from_word(chart, unit)
            once = degree_split_mul_letter_left(t, slot)
            twice = degree_split_mul_letter_left(once, slot)
            assert letter * t == once and letter * once == twice
            if not chart.coordinate_parity(slot):
                assert SymTensor.from_word(
                    chart, tuple(2 * e for e in unit)) * t == twice


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
def test_letter_sign_matches_bubble_sort(name):
    # d_slot in front of the descending word of I, bubble-sorted into
    # descending order (keys n-1-s sort ascending); 0 exactly when an odd
    # d_slot is already in the word
    chart, _ = build_chart(name)
    n = chart.n
    degrees = [-chart.coordinate_degree(n - 1 - key) for key in range(n)]
    for index in mi_all_up_to(n, chart.truncation.max_sym_weight):
        if any(e > 1 and chart.coordinate_parity(s)
               for s, e in enumerate(index)):
            continue
        for slot in range(n):
            got = letter_sign(chart, slot, word_key(chart, index))
            if chart.coordinate_parity(slot) and index[slot]:
                assert got == 0, (index, slot)
                continue
            keys = [n - 1 - s for s in [slot] + word_letters(index)]
            assert got == bubble_koszul_sign(keys, degrees), (index, slot)


# ---------------------------------------------------------------------------
# symbols: sigma(sum_K c_K d^K) = sum_K rho(K) c_K y^K

def _fiber_monomial(chart, index):
    return GradedPoly(chart, {(0,) * chart.n + tuple(index)
                              + (0,) * chart.n: 1})


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
def test_symbol_roundtrip_on_random_values(name, rng):
    # both kinds of sum to a symbol and back; the symbol against its
    # definition, rho(K) = (-1)^(k(k-1)/2) for k odd letters, built with
    # the product kernel rather than by shifting keys
    chart, _ = build_chart(name)
    n = chart.n
    for _ in range(12):
        tensor = random_symtensor(rng, chart, chart.truncation.max_sym_weight)
        op = DiffOp(chart, dict(tensor.terms))
        want = GradedPoly.zero(chart)
        for index, c in tensor.terms.items():
            k = sum(e for s, e in enumerate(index)
                    if chart.coordinate_parity(s))
            assert symbol_sign(chart, word_key(chart, index)) == \
                (-1) ** (k * (k - 1) // 2)
            want = want + c * _fiber_monomial(chart, index) * \
                (-1) ** (k * (k - 1) // 2)
        for value in (tensor, op):
            sigma = value.symbol()
            assert sigma == want
            assert all(not any(m[2 * n:]) for m in sigma.terms)
            assert type(value).from_symbol(sigma) == value


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
def test_symbol_of_a_letter_composed(name, rng):
    # sigma(d_s o P) = partial_{x_s} sigma(P) + y_s . sigma(P)
    chart, _ = build_chart(name)
    for _ in range(8):
        op = DiffOp(chart, dict(random_symtensor(
            rng, chart, chart.truncation.max_sym_weight - 1).terms))
        sigma = op.symbol()
        for s in range(chart.n):
            letter = DiffOp.from_word(
                chart, tuple(1 if u == s else 0 for u in range(chart.n)))
            y = GradedPoly.generator(chart, chart.y_slot(s))
            assert letter.compose(op).symbol() == sigma.partial(s) + y * sigma
