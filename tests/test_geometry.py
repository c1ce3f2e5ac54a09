import pytest

from jetexp.chart import Chart, Truncation
from jetexp.enveloping import SymTensor
from jetexp.geometry import (Connection, VectorField, cov_deriv, curvature,
                             lie_bracket, nabla_sym, torsion)
from jetexp.poly import GradedPoly
from jetexp.randomgen import (random_base_poly, random_homogeneous_vf,
                              random_symtensor, random_torsion_free_connection,
                              random_vector_field)


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
            from jetexp.enveloping import sym_mul_vf
            lhs = nabla_sym(conn, x, sym_mul_vf(y, tensor))
            dy = y.degree()
            sign = -1 if (deg & 1) and (dy & 1) else 1
            rhs = sym_mul_vf(cov_deriv(conn, x, y), tensor) + \
                nabla_sym(conn, x, tensor if sign > 0 else -tensor)
            rhs = sym_mul_vf(cov_deriv(conn, x, y), tensor) + \
                sym_mul_vf(y, nabla_sym(conn, x, tensor)).scale(sign)
            assert lhs == rhs
