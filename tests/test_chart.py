import random

import pytest

from jetexp.chart import Chart, Truncation, mi_all_up_to, mi_factorial

from oracles import bubble_koszul_sign, mi_weight


def test_koszul_sign_identity():
    assert bubble_koszul_sign([0, 1, 2], [1, 1, 0]) == 1
    assert bubble_koszul_sign([0, 1, 2, 3], [5, -3, 2, 7]) == 1


def test_koszul_sign_odd_swap():
    assert bubble_koszul_sign([1, 0], [1, 1]) == -1
    assert bubble_koszul_sign([1, 0], [1, 0]) == 1


def test_koszul_sign_cyclic_shift():
    # the cycle sending each of three elements one slot to the right:
    # the reordered word is (X3, X1, X2); degrees (1, 1, 0)
    assert bubble_koszul_sign([2, 0, 1], [1, 1, 0]) == 1


def test_koszul_sign_is_multiplicative():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randrange(2, 6)
        degrees = [rng.randrange(0, 3) for _ in range(n)]
        p = list(range(n))
        q = list(range(n))
        rng.shuffle(p)
        rng.shuffle(q)
        # word(p o q) = word obtained by applying q inside p
        composed = [p[q[i]] for i in range(n)]
        degrees_p = [degrees[p[i]] for i in range(n)]
        assert (bubble_koszul_sign(composed, degrees)
                == bubble_koszul_sign(p, degrees)
                * bubble_koszul_sign(q, degrees_p))


def test_multiindex_basics():
    index = (2, 1)
    assert mi_weight(index) == 3
    assert mi_factorial(index) == 2


def test_multiindex_enumeration():
    got = list(mi_all_up_to(2, 2))
    assert set(got) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
    assert len(got) == len(set(got))


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart([("x", 0), ("x", 1)])
    with pytest.raises(ValueError):
        Chart([("x", 0)], Truncation(0, 3, 2))
    with pytest.raises(ValueError):
        Chart([("x", 0)], Truncation(2, 1, 2))
    # derived-name collision: the fiber partner of "x" is "y"
    with pytest.raises(ValueError):
        Chart([("x", 0), ("y", 0)])


def test_chart_generator_layout():
    chart = Chart([("x", 0), ("t", 1)])
    assert chart.gen_names == ("x", "t", "y", "y_t", "dx", "dt")
    assert chart.gen_degrees == (0, 1, 0, 1, 1, 2)
    assert chart.gen_parities == (0, 1, 0, 1, 1, 0)
    assert chart.slot("y_t") == 3
    assert chart.dx_slot(0) == 4


def test_chart_value_equality():
    a = Chart([("x", 0)], Truncation(3, 2, 4))
    b = Chart([("x", 0)], Truncation(3, 2, 4))
    c = Chart([("x", 0)], Truncation(4, 2, 4))
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_negative_degree_coordinates_allowed():
    chart = Chart([("w", -1)])
    assert chart.gen_degrees == (-1, -1, 0)
    assert chart.gen_parities == (1, 1, 0)
