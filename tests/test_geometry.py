import pytest

from jetexp.chart import Chart, Truncation, mi_all_up_to
from jetexp.chartfile import ChartFileError, parse_chart_file
from jetexp.enveloping import SymTensor, word_key
from jetexp.geometry import (ChristoffelError, Connection,
                             coordinate_replacement, nabla_sym)
from jetexp.poly import GradedPoly
from jetexp.randomgen import random_base_poly, random_symtensor

from conftest import TORSION_FREE_CHARTS
from oracles import (VectorField, cov_deriv, curvature, lie_bracket,
                     per_position_nabla_sym, random_homogeneous_vf,
                     random_torsion_free_connection, random_vector_field,
                     sym_mul_vf, torsion)


@pytest.fixture
def line():
    return Chart([("x", 0)], Truncation(5, 3, 8))


@pytest.fixture
def plane():
    return Chart([("x1", 0), ("x2", 0)], Truncation(5, 3, 8))


@pytest.fixture
def mixed():
    return Chart([("x", 0), ("t", 1)], Truncation(4, 4, 6))


def test_vf_apply_examples(line, mixed):
    x = GradedPoly.generator(line, 0)
    d = VectorField.coordinate(line, 0)
    assert d.scale(x).apply(x * x) == 2 * x * x
    xm = GradedPoly.generator(mixed, 0)
    t = GradedPoly.generator(mixed, 1)
    d_t = VectorField.coordinate(mixed, 1)
    assert d_t.apply(xm * t) == xm
    assert d_t.apply(t * xm) == xm  # same element, canonical form
    two_odd = Chart([("t1", 1), ("t2", 1)])
    t1 = GradedPoly.generator(two_odd, 0)
    t2 = GradedPoly.generator(two_odd, 1)
    assert VectorField.coordinate(two_odd, 0).apply(t1 * t2) == t2


def test_bracket_examples(line):
    x = GradedPoly.generator(line, 0)
    d = VectorField.coordinate(line, 0)
    assert lie_bracket(d, d.scale(x)) == d
    assert lie_bracket(d.scale(x), d.scale(x * x)) == d.scale(x * x)


def test_bracket_of_odd_coordinate_field_vanishes(mixed):
    d_t = VectorField.coordinate(mixed, 1)
    assert not lie_bracket(d_t, d_t)


def test_bracket_is_derivation_commutator(mixed, rng):
    for _ in range(25):
        x = random_vector_field(rng, mixed, 2)
        y = random_vector_field(rng, mixed, 2)
        f = random_base_poly(rng, mixed, 3, 3)
        lhs = lie_bracket(x, y).apply(f)
        rhs = GradedPoly.zero(mixed)
        for dx, xh in x.homogeneous_components().items():
            for dy, yh in y.homogeneous_components().items():
                sign = -1 if (dx & 1) and (dy & 1) else 1
                rhs = rhs + xh.apply(yh.apply(f)) - \
                    (yh.apply(xh.apply(f))) * sign
        assert lhs == rhs


def test_bracket_graded_antisymmetry_and_jacobi(mixed, rng):
    for _ in range(12):
        fields = [random_homogeneous_vf(rng, mixed, rng.randrange(-1, 2))
                  for _ in range(3)]
        x, y, z = fields
        try:
            dx, dy, dz = (f.degree() for f in fields)
        except ValueError:
            continue
        sign = -1 if (dx & 1) and (dy & 1) else 1
        assert lie_bracket(x, y) == lie_bracket(y, x).scale(-sign)
        # graded Jacobi: [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|}[y,[x,z]]
        s2 = -1 if (dx & 1) and (dy & 1) else 1
        lhs = lie_bracket(x, lie_bracket(y, z))
        rhs = lie_bracket(lie_bracket(x, y), z) + \
            lie_bracket(y, lie_bracket(x, z)).scale(s2)
        assert lhs == rhs


def test_cov_deriv_examples(line):
    x = GradedPoly.generator(line, 0)
    d = VectorField.coordinate(line, 0)
    flat = Connection.flat(line)
    g = x * x
    assert cov_deriv(flat, d, d.scale(g)) == d.scale(2 * x)
    conn = Connection(line, {(0, 0, 0): x})
    assert cov_deriv(conn, d, d) == d.scale(x)
    assert cov_deriv(conn, d.scale(x), d) == d.scale(x * x)


def test_connection_degree_validation(plane):
    x2 = GradedPoly.generator(plane, 1)
    Connection(plane, {(0, 0, 1): x2})  # degree 0 entry, fine
    mixed = Chart([("x", 0), ("t", 1)])
    t = GradedPoly.generator(mixed, 1)
    x = GradedPoly.generator(mixed, 0)
    Connection(mixed, {(0, 0, 1): t})  # degree 1 - 0 - 0 matches |t|
    with pytest.raises(ValueError):
        Connection(mixed, {(0, 0, 1): t + x})  # heterogeneous entry
    with pytest.raises(ValueError):
        Connection(mixed, {(0, 0, 0): t})  # wants degree 0, got 1


def test_torsion_examples(plane, mixed):
    one = GradedPoly.constant(plane, 1)
    conn = Connection(plane, {(0, 1, 0): one}, torsion_free=False)
    d1 = VectorField.coordinate(plane, 0)
    d2 = VectorField.coordinate(plane, 1)
    assert torsion(conn, d1, d2) == d1
    # graded-symmetric tables are torsion-free on coordinate fields
    x2 = GradedPoly.generator(plane, 1)
    sym = Connection(plane, {(0, 0, 1): x2})
    assert not torsion(sym, d1, d2)
    d_t = VectorField.coordinate(mixed, 1)
    assert not torsion(Connection.flat(mixed), d_t, d_t)


def test_torsion_free_flag_validated(plane, mixed):
    one = GradedPoly.constant(plane, 1)
    with pytest.raises(ValueError):
        Connection(plane, {(0, 1, 0): one}, torsion_free=True)
    t = GradedPoly.generator(mixed, 1)
    # odd-odd diagonal entries cannot be graded-symmetric unless zero
    with pytest.raises(ValueError):
        Connection(mixed, {(1, 1, 1): GradedPoly.generator(mixed, 0)},
                   torsion_free=True)


def test_symmetry_check_names_the_least_failing_triple():
    # two entries without mirrors, the later key in index order stored
    # first: the message names the least failing triple, (0, 2, 1)
    space = Chart([("x1", 0), ("x2", 0), ("x3", 0)], Truncation(3, 3, 4))
    one = GradedPoly.constant(space, 1)
    with pytest.raises(ValueError,
                       match=r"not graded-symmetric at \(1,3,2\)$"):
        Connection(space, {(1, 2, 0): one, (2, 0, 1): one},
                   torsion_free=True)
    # symmetric pairs pass, and an odd-odd diagonal entry fails by itself
    Connection(space, {(1, 2, 0): one, (2, 1, 0): one}, torsion_free=True)
    graded = Chart([("x", 0), ("t", 1), ("z", 2)], Truncation(3, 3, 4))
    one = GradedPoly.constant(graded, 1)
    with pytest.raises(ValueError,
                       match=r"not graded-symmetric at \(2,2,3\)$"):
        Connection(graded, {(0, 1, 1): one, (1, 0, 1): one, (1, 1, 2): one},
                   torsion_free=True)


def test_christoffel_errors_name_message_triple_and_line():
    # the degree and symmetry checks read packed keys and signed
    # numerators: a wrong-degree entry, a mixed-degree one and a pair
    # whose mirror differs only in sign where it must not (an even pair)
    # or is equal where it must differ in sign (an odd-odd pair) each
    # raise the message and least failing triple of the polynomial
    # comparison, and a chart file names the line of that triple's entry
    # (or of its mirror's, when only the mirror is given)
    chart = Chart([("x", 0), ("t1", 1), ("t2", 1), ("z", 2)],
                  Truncation(3, 3, 4))
    x, t1, t2 = (GradedPoly.generator(chart, s) for s in range(3))
    one = GradedPoly.constant(chart, 1)
    head = ("[coordinates]\nx 0\nt1 1\nt2 1\nz 2\n\n[truncation]\n"
            "Q 3\nP 3\nB 4\n\n[christoffel]\n")  # entries from line 13
    degree = "Christoffel entry (%s) must be homogeneous of degree %d"
    symmetric = ("torsion_free flag set but Christoffel table is not "
                 "graded-symmetric at (%s)")
    for gamma, lines, message, triple, line in (
            ({(0, 0, 0): t1}, ["1 1 1 t1"], degree % ("1,1,1", 0),
             (0, 0, 0), 13),
            ({(0, 0, 1): t1, (0, 0, 2): t2 + x}, ["1 1 2 t1", "1 1 3 t2 + x"],
             degree % ("1,1,3", 1), (0, 0, 2), 14),
            ({(0, 3, 3): x, (3, 0, 3): -x}, ["1 4 4 x", "4 1 4 -x"],
             symmetric % "1,4,4", (0, 3, 3), 13),
            ({(0, 1, 1): x, (1, 0, 1): -x}, ["2 1 2 -x", "1 2 2 x"],
             symmetric % "1,2,2", (0, 1, 1), 14),
            ({(1, 2, 3): one, (2, 1, 3): one}, ["2 3 4 1", "3 2 4 1"],
             symmetric % "2,3,4", (1, 2, 3), 13),
            ({(2, 1, 3): one}, ["3 2 4 1"], symmetric % "2,3,4", (1, 2, 3),
             13),
            ({(1, 1, 3): 2 * one}, ["2 2 4 2"], symmetric % "2,2,4",
             (1, 1, 3), 13)):
        with pytest.raises(ChristoffelError) as err:
            Connection(chart, gamma)
        assert (str(err.value), err.value.triple) == (message, triple)
        with pytest.raises(ChartFileError) as err:
            parse_chart_file(head + "\n".join(lines) + "\n")
        assert str(err.value) == "%s (line %d)" % (message, line)
    # an odd-odd pair is graded-symmetric when its mirror differs in sign
    Connection(chart, {(1, 2, 3): one, (2, 1, 3): -one})
    parse_chart_file(head + "2 3 4 1\n3 2 4 -1\n")


def test_torsion_free_characterization_both_ways(mixed, rng):
    # random graded-symmetric tables have vanishing torsion on random
    # fields, and vanishing torsion forces graded symmetry
    for trial in range(8):
        conn = random_torsion_free_connection(rng, mixed)
        for _ in range(6):
            x = random_vector_field(rng, mixed, 2)
            y = random_vector_field(rng, mixed, 2)
            assert not torsion(conn, x, y)
    one = GradedPoly.constant(mixed, 1)
    skew = Connection(mixed, {(0, 1, 1): one}, torsion_free=False)
    d_x = VectorField.coordinate(mixed, 0)
    d_t = VectorField.coordinate(mixed, 1)
    assert torsion(skew, d_x, d_t)


def test_curvature_examples(line, plane):
    x = GradedPoly.generator(line, 0)
    d = VectorField.coordinate(line, 0)
    conn1 = Connection(line, {(0, 0, 0): x})
    assert not curvature(conn1, d, d, d)
    assert not curvature(Connection.flat(plane),
                         VectorField.coordinate(plane, 0),
                         VectorField.coordinate(plane, 1),
                         VectorField.coordinate(plane, 0))
    x2 = GradedPoly.generator(plane, 1)
    conn = Connection(plane, {(0, 0, 1): x2})
    d1 = VectorField.coordinate(plane, 0)
    d2 = VectorField.coordinate(plane, 1)
    assert curvature(conn, d1, d2, d1) == d2


def test_tensoriality(plane, rng):
    x2 = GradedPoly.generator(plane, 1)
    conn = Connection(plane, {(0, 0, 1): x2})
    for _ in range(15):
        f = random_base_poly(rng, plane, 2, 3)
        x = random_vector_field(rng, plane, 2)
        y = random_vector_field(rng, plane, 2)
        z = random_vector_field(rng, plane, 2)
        assert torsion(conn, x.scale(f), y) == torsion(conn, x, y).scale(f)
        assert curvature(conn, x.scale(f), y, z) == \
            curvature(conn, x, y, z).scale(f)


def test_torsion_graded_antisymmetry(mixed, rng):
    conn = random_torsion_free_connection(rng, mixed)
    skew = Connection(mixed, {(0, 1, 1): GradedPoly.constant(mixed, 1)},
                      torsion_free=False)
    for c in (conn, skew):
        for dx in (0, 1):
            for dy in (0, 1):
                x = random_homogeneous_vf(rng, mixed, dx)
                y = random_homogeneous_vf(rng, mixed, dy)
                if not x or not y:
                    continue
                sign = -1 if (dx & 1) and (dy & 1) else 1
                assert torsion(c, x, y) == torsion(c, y, x).scale(-sign)


def test_cov_deriv_degree(mixed, rng):
    conn = random_torsion_free_connection(rng, mixed)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            x = random_homogeneous_vf(rng, mixed, dx)
            y = random_homogeneous_vf(rng, mixed, dy)
            out = cov_deriv(conn, x, y)
            if out:
                assert out.degree() == dx + dy


def test_nabla_sym_examples(line):
    x = GradedPoly.generator(line, 0)
    d = VectorField.coordinate(line, 0)
    conn = Connection(line, {(0, 0, 0): x})
    f = x * x
    # weight zero: plain derivative
    assert nabla_sym(conn, d, SymTensor.function(line, f)) == \
        SymTensor.function(line, 2 * x)
    # two-factor word picks up one Christoffel insertion per slot
    got = nabla_sym(conn, d, SymTensor.from_word(line, (2,)))
    assert got == SymTensor(line, {(2,): 2 * x})
    flat = Connection.flat(line)
    got = nabla_sym(flat, d, SymTensor(line, {(2,): x}))
    assert got == SymTensor.from_word(line, (2,))


def test_nabla_sym_agrees_with_cov_deriv_on_weight_one(mixed, rng):
    for _ in range(10):
        conn = random_torsion_free_connection(rng, mixed)
        x = random_vector_field(rng, mixed, 2)
        y = random_vector_field(rng, mixed, 2)
        tensor = SymTensor(mixed, {
            tuple(1 if s == k else 0 for s in range(mixed.n)): c
            for k, c in enumerate(y.components) if c})
        got = nabla_sym(conn, x, tensor)
        want_vf = cov_deriv(conn, x, y)
        want = SymTensor(mixed, {
            tuple(1 if s == k else 0 for s in range(mixed.n)): c
            for k, c in enumerate(want_vf.components) if c})
        assert got == want


def test_nabla_sym_is_graded_derivation_of_product(mixed, rng):
    conn = random_torsion_free_connection(rng, mixed)
    for _ in range(15):
        for deg in (0, 1):
            x = random_homogeneous_vf(rng, mixed, deg)
            if not x:
                continue
            y = random_homogeneous_vf(rng, mixed, rng.randrange(-1, 2))
            if not y:
                continue
            tensor = random_symtensor(rng, mixed, 2)
            lhs = nabla_sym(conn, x, sym_mul_vf(y, tensor))
            dy = y.degree()
            sign = -1 if (deg & 1) and (dy & 1) else 1
            rhs = sym_mul_vf(cov_deriv(conn, x, y), tensor) + \
                nabla_sym(conn, x, tensor if sign > 0 else -tensor)
            rhs = sym_mul_vf(cov_deriv(conn, x, y), tensor) + \
                sym_mul_vf(y, nabla_sym(conn, x, tensor)).scale(sign)
            assert lhs == rhs


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
def test_nabla_sym_matches_per_position_oracle(name, charts, rng):
    # one replacement per block of equal letters, times its multiplicity,
    # against one replacement per letter position; the tensors carry
    # coefficients with odd parts wherever the chart has odd coordinates
    chart, conn = charts[name]
    weight = chart.truncation.max_sym_weight
    for _ in range(6):
        tensor = random_symtensor(rng, chart, weight, terms=4)
        for x in (random_vector_field(rng, chart, 2),
                  random_homogeneous_vf(rng, chart, 1),
                  VectorField.coordinate(chart, rng.randrange(chart.n))):
            assert nabla_sym(conn, x, tensor) == \
                per_position_nabla_sym(conn, x, tensor)
    # a coordinate direction on a pure word: the replacement core itself
    for index in mi_all_up_to(chart.n, weight):
        if any(e > 1 and chart.coordinate_parity(s)
               for s, e in enumerate(index)):
            continue
        for s in range(chart.n):
            assert coordinate_replacement(conn, s,
                                          word_key(chart, index)) == \
                per_position_nabla_sym(conn, VectorField.coordinate(chart, s),
                                       SymTensor.from_word(chart, index))
