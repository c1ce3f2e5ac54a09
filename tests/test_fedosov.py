import glob
import io
import os
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetexp.chart import Chart, Truncation
from jetexp.chartfile import load_chart_file
from jetexp.enveloping import SymTensor
from jetexp.fedosov import (FedosovData, FlatStructureError, _less_delta,
                            _solve_correction, delta_inv_op, delta_op,
                            dnabla_form, dnabla_images, iota_incl,
                            project_weight, sigma_aug, tau_pbw, vvf_action,
                            vvf_records)
from jetexp.geometry import Connection
from jetexp.pbw import PbwContext
from jetexp.poly import GradedPoly, monomial_pq
from jetexp.randomgen import random_base_poly, random_section

from conftest import TORSION_FREE_CHARTS, build_chart
from oracles import (VectorField, curvature, derivation_apply, dnabla_table,
                     dual_connection_images, dual_curvature_action,
                     filter_terms, fixed_point_correction, geodesic_spray_tau,
                     pairing, random_torsion_free_connection,
                     tau_by_word_images, unpacked_vvf_records)

CHART_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "charts")


def dense_connection(n, weight, seed=11):
    """A random torsion-free connection (each admissible Christoffel slot
    filled with probability 1/2) on n = 3, 4 or 5 coordinates of degrees
    (0, 1, 2), (0, 0, 1, 2) or (0, 0, 1, 1, 2), at symmetric weight
    ``weight``."""
    degrees = {3: (0, 1, 2), 4: (0, 0, 1, 2), 5: (0, 0, 1, 1, 2)}[n]
    chart = Chart([("x%d" % (i + 1), d) for i, d in enumerate(degrees)],
                  Truncation(weight, 3, 6))
    return random_torsion_free_connection(random.Random(seed), chart)


@pytest.fixture(scope="module")
def line():
    return Chart([("x", 0)], Truncation(5, 3, 8))


def g(chart, slot):
    return GradedPoly.generator(chart, slot)


def test_lowering_examples(line):
    x, y, dx = g(line, 0), g(line, 1), g(line, 2)
    assert not delta_op(x * x)
    assert delta_op(y * y) == 2 * y * dx
    assert not delta_op(y * dx)  # dx wedge dx dies
    assert delta_inv_op(y * dx) == y * y * Fraction(1, 2)
    assert not delta_inv_op(x * x)  # zero on the (0, 0) part


def oracle_exchange(w, pairs, by_weight=False):
    """The derivation g_s -> g_t over ``pairs`` by the positional Leibniz
    rule (odd, like both maps), each output monomial divided by its own
    p + q when ``by_weight``."""
    chart = w.chart
    images = [None] * (3 * chart.n)
    for s, t in pairs:
        images[s] = GradedPoly.generator(chart, t)
    out = derivation_apply(w, images, parity=1)
    if not by_weight:
        return out
    n = chart.n
    return GradedPoly(chart, {m: c / sum(m[n:]) for m, c in out.terms.items()})


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_exchange_maps_match_the_positional_leibniz_rule(name, seed):
    # both maps against the derivation applied letter by letter, on
    # sections up to weight Q + 1, with and without the cap Q
    chart, _ = build_chart(name)
    n = chart.n
    q = chart.truncation.max_sym_weight
    w = random_section(random.Random(seed), chart, q + 1)
    down = [(chart.y_slot(i), chart.dx_slot(i)) for i in range(n)]
    up = [(t, s) for s, t in down]
    lowered = oracle_exchange(w, down)
    raised = oracle_exchange(w, up, by_weight=True)
    assert delta_op(w) == lowered
    assert delta_inv_op(w) == raised
    assert delta_op(w, q) == project_weight(lowered, q)
    assert delta_inv_op(w, q) == project_weight(raised, q)


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
def test_exchange_skipping_absent_slots_matches_the_unskipped_form(name):
    # sections that lack some source slots, a base function (no source
    # slot at all) and zero: the skip leaves every result as it was
    chart, _ = build_chart(name)
    n = chart.n
    q = chart.truncation.max_sym_weight
    rng = random.Random(17)
    down = [(chart.y_slot(i), chart.dx_slot(i)) for i in range(n)]
    up = [(t, s) for s, t in down]
    zero = GradedPoly.zero(chart)
    samples = [zero, random_base_poly(rng, chart, 2, 3)]
    for drop in range(n):
        w = random_section(rng, chart, q + 1)
        samples += [filter_terms(w, lambda m: not m[n + drop]),
                    filter_terms(w, lambda m: not m[2 * n + drop]),
                    filter_terms(w, lambda m: not any(m[n:2 * n]))]
    for w in samples:
        for cap in (None, q):
            for pairs, by_weight in ((down, False), (up, True)):
                want = oracle_exchange(w, pairs, by_weight)
                if cap is not None:
                    want = project_weight(want, cap)
                assert w.exchange(pairs, cap, by_weight) == want
    assert zero.exchange(down) is zero


def test_exchange_rejects_base_slots(line):
    y = g(line, 1)
    for pairs in ([(0, 2)], [(1, 0)], [(1, 3)]):
        with pytest.raises(ValueError, match="exchange pairs"):
            y.exchange(pairs)


def test_flat_structure_builds_no_generator_tables(monkeypatch):
    # the lowering pair exchanges slots, and the solve and the flat
    # operator share one dnabla table
    import jetexp.fedosov as fedosov
    chart, conn = build_chart("three_degrees")
    w = random_section(random.Random(5), chart, 4)
    expected = (delta_op(w), delta_inv_op(w))

    def no_generator(*args):
        raise AssertionError("generator table built")
    with monkeypatch.context() as patch:
        patch.setattr(GradedPoly, "generator", staticmethod(no_generator))
        assert (delta_op(w), delta_inv_op(w)) == expected
    tables = []
    real = fedosov.dnabla_images
    monkeypatch.setattr(fedosov, "dnabla_images",
                        lambda c: tables.append(c) or real(c))
    FedosovData(conn, 3)
    assert tables == [conn]


@pytest.mark.parametrize("name", ("two_odd", "odd_first"))
def test_lowering_pair_reads_the_left_derivative_terms(name, monkeypatch):
    # both maps take the terms of partial_s, sign included, from
    # GradedPoly._partial_terms: one call per source slot that some
    # monomial holds, and the values they give unwrapped
    chart, _ = build_chart(name)
    n = chart.n
    # the last fiber slot and the first form slot stay unheld, so each
    # map has a source slot it must skip
    w = filter_terms(random_section(random.Random(23), chart, 4, terms=24),
                     lambda m: not m[2 * n - 1] and not m[2 * n])
    held = [s for s in range(n, 3 * n) if any(m[s] for m in w.terms)]
    expected = (delta_op(w), delta_inv_op(w))
    slots = []
    real = GradedPoly._partial_terms

    def recording(self, slot):
        slots.append(slot)
        return real(self, slot)
    monkeypatch.setattr(GradedPoly, "_partial_terms", recording)
    assert delta_op(w) == expected[0]
    fiber, slots[:] = slots[:], []
    assert delta_inv_op(w) == expected[1]
    assert fiber == [s for s in held if s < 2 * n] != []
    assert slots == [s for s in held if s >= 2 * n] != []


def test_lowering_pair_degrees(line):
    y, dx = g(line, 1), g(line, 2)
    assert delta_op(y * y).degree() == (y * y).degree() + 1
    assert delta_inv_op(y * dx).degree() == (y * dx).degree() - 1


def test_squares_vanish_and_homotopy(charts, rng):
    for name in ("mixed", "two_odd"):
        chart, _ = charts[name]
        for _ in range(30):
            w = random_section(rng, chart, 4)
            assert not delta_op(delta_op(w))
            assert not delta_inv_op(delta_inv_op(w))
            lhs = delta_op(delta_inv_op(w)) + delta_inv_op(delta_op(w))
            assert lhs == w - iota_incl(sigma_aug(w))
            assert not sigma_aug(delta_inv_op(w))


def test_projection_and_inclusion(line):
    x, y, dx = g(line, 0), g(line, 1), g(line, 2)
    assert sigma_aug(x * x) == x * x
    assert not sigma_aug(y * dx)
    assert sigma_aug(iota_incl(x * x + x)) == x * x + x
    with pytest.raises(ValueError):
        iota_incl(y)


def test_dual_connection_examples(line):
    x, y, dx = g(line, 0), g(line, 1), g(line, 2)
    flat = Connection.flat(line)
    assert dnabla_form(flat, x * y) == y * dx
    assert not dnabla_form(flat, y * y)
    conn = Connection(line, {(0, 0, 0): x})
    assert dnabla_form(conn, y) == -(x * y * dx)


def test_dual_connection_pairing_compatibility(charts, rng):
    # d_i<S, sigma> = <cov_i S, sigma> + sign <S, cov_i sigma>
    from oracles import word_degree
    from jetexp.geometry import nabla_sym
    for name in ("plane_curved", "mixed", "deg2"):
        chart, conn = charts[name]
        images = dual_connection_images(conn)
        for _ in range(15):
            sigma = random_section(rng, chart, 3, terms=4)
            sigma = filter_terms(sigma, lambda m: not any(m[2 * chart.n:]))
            for i in range(chart.n):
                for m in range(chart.n):
                    word = tuple(1 if s == m else 0 for s in range(chart.n))
                    tensor = SymTensor.from_word(chart, word)
                    x = VectorField.coordinate(chart, i)
                    lhs = x.apply(pairing(tensor, sigma))
                    cov_s = nabla_sym(conn, x, tensor)
                    cov_sigma = derivation_apply(sigma, images[i],
                                                 chart.coordinate_parity(i))
                    sign = -1 if (chart.coordinate_parity(i)
                                  and (word_degree(chart, word) & 1)) else 1
                    rhs = pairing(cov_s, sigma) + \
                        pairing(tensor, cov_sigma) * sign
                    assert lhs == rhs


def test_dual_differential_is_form_leibniz(charts, rng):
    for name in ("plane_curved", "mixed"):
        chart, conn = charts[name]
        for _ in range(20):
            alpha = filter_terms(  # pure form part
                random_section(rng, chart, 3),
                lambda m: not any(m[chart.n:2 * chart.n]))
            beta = random_section(rng, chart, 3)
            lhs = dnabla_form(conn, alpha * beta)
            rhs = dnabla_form(conn, alpha) * beta
            for da, pa in alpha.homogeneous_components().items():
                sign = -1 if da & 1 else 1
                rhs = rhs + (pa * dnabla_form(conn, beta)) * sign
            assert lhs == rhs


def test_squared_dual_differential_is_curvature_action(charts, rng):
    for name in ("plane_curved", "mixed", "deg2"):
        chart, conn = charts[name]
        for _ in range(10):
            w = random_section(rng, chart, 3)
            assert dnabla_form(conn, dnabla_form(conn, w)) == \
                dual_curvature_action(conn, w)


def test_curvature_transports_through_pairing(charts, rng):
    # the graded commutator of the dual direction derivations pairs to
    # minus the geometry-side curvature, prefactors unwound
    for name in ("plane_curved", "mixed", "two_odd", "deg2"):
        chart, conn = charts[name]
        images = dual_connection_images(conn)
        for j in range(chart.n):
            for i in range(chart.n):
                pi = chart.coordinate_parity(i)
                pj = chart.coordinate_parity(j)
                dj = VectorField.coordinate(chart, j)
                di = VectorField.coordinate(chart, i)
                for m in range(chart.n):
                    z = VectorField.coordinate(chart, m)
                    zt = SymTensor.from_word(
                        chart, tuple(1 if s == m else 0
                                     for s in range(chart.n)))
                    for _ in range(4):
                        sigma = random_section(rng, chart, 3, terms=4)
                        sigma = filter_terms(
                            sigma, lambda mm: not any(mm[2 * chart.n:]))
                        r = curvature(conn, dj, di, z)
                        rt = SymTensor(chart, {
                            tuple(1 if s == k else 0
                                  for s in range(chart.n)): c
                            for k, c in enumerate(r.components) if c})
                        s_r = -1 if (1 + chart.coordinate_degree(i)) & 1 else 1
                        o_ji = derivation_apply(
                            derivation_apply(sigma, images[i], pi),
                            images[j], pj)
                        o_ij = derivation_apply(
                            derivation_apply(sigma, images[j], pj),
                            images[i], pi)
                        comm = o_ji - (o_ij if not (pi and pj) else -o_ij)
                        s_z = -1 if ((pi + pj) & 1) and \
                            (chart.coordinate_degree(m) & 1) else 1
                        assert pairing(rt, sigma) * s_r + \
                            pairing(zt, comm) * s_z == GradedPoly.zero(chart)


def test_vvf_action_examples(line):
    x, y, dx = g(line, 0), g(line, 1), g(line, 2)
    a = (y * y * dx,)  # one-form valued derivation sending y to y^2 dx
    assert vvf_action(a, y) == y * y * dx
    assert not vvf_action(a, x * x)
    assert vvf_action(a, y * y) == 2 * y * y * y * dx


def test_flat_structure_trivial_cases():
    chart, conn = build_chart("line_flat")
    fd = FedosovData(conn, 5)
    assert all(not c for c in fd.correction)
    chart, conn = build_chart("line_curved")
    fd = FedosovData(conn, 5)
    assert all(not c for c in fd.correction)


def test_flat_structure_requires_torsion_free():
    chart = Chart([("x1", 0), ("x2", 0)], Truncation(4, 3, 6))
    conn = Connection(chart, {(0, 1, 0): GradedPoly.constant(chart, 1)},
                      torsion_free=False)
    with pytest.raises(ValueError):
        FedosovData(conn, 4)


def test_flat_structure_refuses_a_negative_weight():
    chart, conn = build_chart("plane_curved")
    with pytest.raises(ValueError, match="at least 0, got -1"):
        FedosovData(conn, -1)
    fd = FedosovData(conn, 0)
    x = GradedPoly.generator(chart, chart.x_slot(0))
    assert fd.tau_series(x) == x
    assert all(not c for c in fd.correction)


def test_correction_hand_computed_weight_two_records():
    # seed of the recursion on the curved plane: the raising map applied
    # to y1 dx1 dx2 gives (y1^2 dx2 - y1 y2 dx1)/3
    chart, conn = build_chart("plane_curved")
    fd = FedosovData(conn, 5)
    records = vvf_records(fd.correction)
    by_key = {(i, j, k): poly for i, j, k, poly in records}
    assert by_key[(1, (1, 1), 2)] == GradedPoly.constant(chart, Fraction(-1, 3))
    assert by_key[(2, (2, 0), 2)] == GradedPoly.constant(chart, Fraction(1, 3))
    # every record lives in fiber weight >= 2 and direction one-forms
    for i, fiber, k, poly in records:
        assert sum(fiber) >= 2
        assert poly.is_base_only()


def test_correction_matches_dual_form_on_charts(charts, contexts):
    from jetexp.pbw import xi_form
    for name in ("plane_curved", "mixed", "two_odd", "deg2", "negdeg",
                 "three_degrees"):
        chart, conn = charts[name]
        weight = chart.truncation.max_sym_weight
        fd = FedosovData(conn, weight)
        xi = xi_form(contexts[name], weight)
        assert all(a == -b for a, b in zip(fd.correction, xi))


def test_layered_solve_matches_fixed_point_oracle():
    # every shipped torsion-free chart at every weight from 0, and two
    # dense random tables: the layered solve is the plain fixed point
    conns = []
    for path in sorted(glob.glob(os.path.join(CHART_DIR, "*.chart"))):
        chart, conn = load_chart_file(path)
        if conn.torsion_free:
            conns += [(conn, w)
                      for w in range(chart.truncation.max_sym_weight + 1)]
    assert len(conns) > 6
    conns += [(dense_connection(3, 4), 4), (dense_connection(4, 3), 3)]
    for conn, weight in conns:
        assert FedosovData(conn, weight).correction == \
            fixed_point_correction(conn, weight)


def test_confirming_pass_rejects_a_bad_layer(monkeypatch):
    # a layer that is not the fixed point fails the confirming pass
    import jetexp.fedosov as fedosov
    chart, conn = build_chart("plane_curved")
    real = fedosov.delta_inv_op
    skewed_once = []

    def skewed(f):
        out = real(f)
        if out and not skewed_once:
            skewed_once.append(out)
            return out * 2
        return out
    monkeypatch.setattr(fedosov, "delta_inv_op", skewed)
    with pytest.raises(FlatStructureError, match="did not stabilize"):
        _solve_correction(conn, 5, dnabla_images(conn))


def test_series_path_raises_nothing_above_the_weight(monkeypatch):
    # D caps its products at w, so neither the solve nor tau_series
    # raises a term of weight w + 1; the first read of correction forms
    # that top layer, and the whole form is the plain fixed point
    import jetexp.fedosov as fedosov
    conn = dense_connection(3, 4)
    chart = conn.chart
    real = fedosov.delta_inv_op
    above = []

    def spy(f, max_weight=None):
        if f.up_to_weight(4) != f:
            above.append(f)
        return real(f, max_weight)
    monkeypatch.setattr(fedosov, "delta_inv_op", spy)
    fd = FedosovData(conn, 4)
    x = [GradedPoly.generator(chart, chart.x_slot(i)) for i in range(3)]
    assert fd.tau_series(x[0] ** 2 * x[2] + x[0]) != x[0] ** 2 * x[2] + x[0]
    assert not above
    correction = fd.correction
    assert above
    assert correction == fixed_point_correction(conn, 4)
    assert fd.correction is correction


@pytest.mark.parametrize("name", ("mixed_parity", "three_degrees",
                                  "two_odd"))
def test_top_layer_guard_rejects_a_doubled_raising_map(monkeypatch, name):
    # the shipped charts whose top layer is nonzero: a raising map that
    # doubles its output on terms of weight w + 1 leaves the solve and
    # its confirming pass alone, and only delta(a) = R on the top layer
    # sees it (delta(R) = 0 still holds)
    import jetexp.fedosov as fedosov
    chart, conn = load_chart_file(os.path.join(CHART_DIR, name + ".chart"))
    weight = chart.truncation.max_sym_weight
    real = fedosov.delta_inv_op
    doubled = []

    def doubling(f, max_weight=None):
        out = real(f, max_weight)
        if out and f.up_to_weight(weight) != f:
            doubled.append(f)
            return out * 2
        return out
    monkeypatch.setattr(fedosov, "delta_inv_op", doubling)
    fd = FedosovData(conn, weight)
    assert not doubled
    with pytest.raises(FlatStructureError, match="top layer"):
        fd.correction
    assert doubled


def shipped_torsion_free():
    """(path, chart, connection) of each shipped torsion-free chart."""
    out = []
    for path in sorted(glob.glob(os.path.join(CHART_DIR, "*.chart"))):
        chart, conn = load_chart_file(path)
        if conn.torsion_free:
            out.append((path, chart, conn))
    return out


def test_fiber_squares_are_the_flat_operator_applied_twice():
    # D^2(y_k) read off the solve's products, P(b_k) - delta(b_k), is
    # d_apply(d_apply(y_k)) on every shipped torsion-free chart at every
    # weight from 0 and on two dense random tables; D^2(x_k) = D(dx_k)
    # is 0 by D's table, so the residual does not probe it
    cases = []
    for path, chart, conn in shipped_torsion_free():
        cases += [(conn, w)
                  for w in range(chart.truncation.max_sym_weight + 1)]
    assert len(cases) > 6
    cases += [(dense_connection(3, 4), 4), (dense_connection(4, 3), 3)]
    lowered = 0  # cases where P(b_k) = delta(b_k) cancels nonzero terms
    for conn, weight in cases:
        chart = conn.chart
        fd = FedosovData(conn, weight)
        ys = [g(chart, chart.y_slot(k)) for k in range(chart.n)]
        squares = fd.fiber_squares()
        assert squares == tuple(fd.d_apply(fd.d_apply(y)) for y in ys)
        assert fd.fiber_squares() is squares
        assert not any(fd.d_apply(fd.d_apply(g(chart, s)))
                       for s in range(chart.n))
        lowered += any(delta_op(fd.perturbation_images[chart.y_slot(k)],
                                weight) for k in range(chart.n))
    assert lowered >= 8


def certified_cases():
    """(connection, weight): every shipped torsion-free chart at every
    weight from 0, and two dense random tables."""
    cases = []
    for path, chart, conn in shipped_torsion_free():
        cases += [(conn, w)
                  for w in range(chart.truncation.max_sym_weight + 1)]
    return cases + [(dense_connection(3, 4), 4), (dense_connection(4, 3), 3)]


def pass_criteria(chart, table, images, top):
    """Both forms of the confirming pass at cap ``top`` for the
    dnabla + action table ``table`` over the dnabla table ``images``, per
    fiber generator: raise(P(b_k)) - a_k, with P(b_k) the b_k = table[y_k]
    derived by ``table`` and a_k = b_k - dnabla y_k, and raise(D^2 y_k)
    over D's table ``_less_delta(table)``."""
    flat = _less_delta(chart, table)
    ys = [chart.y_slot(k) for k in range(chart.n)]
    old = tuple(project_weight(delta_inv_op(table[y].derive(table, top)), top)
                - (table[y] - images[y]) for y in ys)
    new = tuple(delta_inv_op(flat[y].derive(flat, top)) for y in ys)
    return old, new


def test_the_squares_certify_what_the_products_did():
    # raise(P(b_k)) - a_k, the confirming pass's old criterion, is
    # raise(D^2 y_k) of the squares it keeps, on every solve
    cases = certified_cases()
    assert len(cases) > 8
    for conn, weight in cases:
        chart = conn.chart
        fd = FedosovData(conn, weight)
        table = fd.perturbation_images
        lower = [project_weight(c, weight) for c in fd.correction]
        for k, square in enumerate(fd.fiber_squares()):
            b = table[chart.y_slot(k)]
            assert delta_inv_op(square) == \
                delta_inv_op(b.derive(table, weight)) - lower[k]


def solved_components(chart, table, images):
    """The correction components a_k = b_k - dnabla y_k read off the
    dnabla + action table ``table`` over the dnabla table ``images``."""
    return tuple(table[chart.y_slot(k)] - images[chart.y_slot(k)]
                 for k in range(chart.n))


def layer_sum_without(slot_table, at):
    """``fedosov._layer_sum`` with one entry left out of the layer of
    weight ``at``: dnabla b_{w-1} (``slot_table`` 2) or a_3 acting on
    b_{w-2} (``slot_table`` 3): the two layer-sum negative controls."""
    from jetexp.poly import combine

    def layer_sum(chart, b, w, y):
        entries = [(1, b[w - 1][y], b[2])] + [(1, b[w + 1 - u][y], b[u])
                                              for u in range(3, w)]
        if w == at:
            entries = [e for e in entries if e[2] is not b[slot_table]]
        return combine(chart, entries)
    return layer_sum


def test_both_criteria_reject_the_layer_sum_mutants(monkeypatch):
    # a layer without its dnabla b_{w-1} entry or without its a_3 entry:
    # on the tables the solve built, the old criterion raise(P(b_k)) - a_k
    # equals raise(D^2 y_k), and the pass raises exactly where the
    # mutant changed the correction
    import jetexp.fedosov as fedosov
    real_less_delta = fedosov._less_delta
    rejected = {2: 0, 3: 0}
    for conn, weight in certified_cases():
        chart = conn.chart
        images = dnabla_images(conn)
        want = solved_components(chart,
                                 _solve_correction(conn, weight, images)[1],
                                 images)
        for slot_table in (2, 3):
            for at in range(slot_table + 1, weight + 1):
                tables = []

                def capture(chart, table):
                    tables.append(table)
                    return real_less_delta(chart, table)
                with monkeypatch.context() as patch:
                    patch.setattr(fedosov, "_layer_sum",
                                  layer_sum_without(slot_table, at))
                    patch.setattr(fedosov, "_less_delta", capture)
                    try:
                        _solve_correction(conn, weight, images)
                        raised = False
                    except FlatStructureError as exc:
                        assert "did not stabilize" in str(exc)
                        raised = True
                table, = tables
                old, new = pass_criteria(chart, table, images, weight)
                assert old == new
                comps = solved_components(chart, table, images)
                assert raised == any(new) == (comps != want)
                rejected[slot_table] += raised
    assert rejected[2] >= 18 and rejected[3] >= 7, rejected


def test_fedosov_data_keeps_no_products_and_reads_squares_unlowered(
        monkeypatch):
    # the only products the confirming pass forms are D(y_k) derived by
    # D's own table, one per fiber generator, and FedosovData keeps those
    # very values as fiber_squares: no P(b_k) is formed or kept, and
    # reading the squares calls no lowering map
    import jetexp.fedosov as fedosov
    real_derive, real_delta = GradedPoly.derive, fedosov.delta_op
    derived, lowered = [], []

    def spy_derive(self, images, max_weight=None):
        out = real_derive(self, images, max_weight)
        derived.append((images, out))
        return out

    def spy_delta(f, max_weight=None):
        lowered.append(f)
        return real_delta(f, max_weight)
    for conn, weight in certified_cases():
        del derived[:]
        with monkeypatch.context() as patch:
            patch.setattr(GradedPoly, "derive", spy_derive)
            fd = FedosovData(conn, weight)
            patch.setattr(fedosov, "delta_op", spy_delta)
            squares = fd.fiber_squares()
        assert not lowered
        assert len(derived) == len(squares) == conn.chart.n
        for (images, out), square in zip(derived, squares):
            assert images is fd.flat_images
            assert out is square


def test_fedosov_command_forms_nothing_twice(monkeypatch):
    # the printed residual is read off the solve's products (no d_apply),
    # and the correction read takes the solve's layer tables (no
    # weight_layers split) and checks only the new top layer
    import jetexp.fedosov as fedosov
    from jetexp.cli import main
    applied, split, checked = [], [], []
    real_check = fedosov._check_correction

    def spy_check(chart, comps):
        checked.append(comps)
        return real_check(chart, comps)
    conns = []
    for path, chart, conn in shipped_torsion_free():
        del applied[:]
        with monkeypatch.context() as patch:
            patch.setattr(FedosovData, "d_apply",
                          lambda self, f: applied.append(f))
            out = io.StringIO()
            assert main(["fedosov", "--chart", path], out) == 0
        assert out.getvalue().endswith("D2_RESIDUAL 0\n")
        assert not applied, path
        conns.append(conn)
    conns.append(dense_connection(3, 4))
    topped = 0
    for conn in conns:
        chart = conn.chart
        weight = chart.truncation.max_sym_weight
        fd = FedosovData(conn, weight)
        del split[:], checked[:]
        with monkeypatch.context() as patch:
            patch.setattr(GradedPoly, "weight_layers",
                          lambda self: split.append(self))
            patch.setattr(fedosov, "_check_correction", spy_check)
            correction = fd.correction
        assert correction == fixed_point_correction(conn, weight)
        assert not split
        keys = [key for comps in checked for comp in comps
                for key in comp.nums]
        assert all(key >> chart.weight_shift == weight + 1 for key in keys)
        topped += bool(keys)
    assert topped >= 4


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS + ("dense3", "dense4"))
def test_vvf_records_match_the_unpacking_oracle(name):
    if name.startswith("dense"):
        conn = {"dense3": dense_connection(3, 4),
                "dense4": dense_connection(4, 3)}[name]
    else:
        conn = build_chart(name)[1]
    weight = conn.chart.truncation.max_sym_weight
    correction = FedosovData(conn, weight).correction
    if any(correction):
        assert vvf_records(correction) == unpacked_vvf_records(correction)


def test_vvf_records_refuse_a_component_that_is_not_a_one_form():
    # no form generator, two of them, and dt^2 for the odd coordinate t
    # (its form generator is even): the oracle's ValueError each time
    chart, conn = build_chart("mixed")
    x, t, y, y_t, dx, dt = (g(chart, s) for s in range(6))
    assert chart.coordinate_parity(1) and not chart.gen_parities[5]
    for bad in (y * y_t, x * y * y * dx * dt, y * y * dt * dt):
        comps = (y * y * dx, y * y_t * dt + bad)
        for records in (vvf_records, unpacked_vvf_records):
            with pytest.raises(ValueError, match="^vector-valued form "
                               "component is not a one-form$"):
                records(comps)


def test_solve_forms_no_sum_chain_and_no_action_call(monkeypatch):
    # each layer component of b = dnabla y + a is one combine and one
    # raising map: on every shipped torsion-free chart the solve adds
    # with + at most once per fiber generator (each b_k is now one
    # combine over the layers, so it adds none), and never calls
    # vvf_action
    import jetexp.fedosov as fedosov
    plus = []

    def counted(real):
        def op(self, other):
            plus.append(real.__name__)
            return real(self, other)
        return op

    def no_action(*args, **kwargs):
        raise AssertionError("vvf_action called")
    solved = 0
    for path in sorted(glob.glob(os.path.join(CHART_DIR, "*.chart"))):
        chart, conn = load_chart_file(path)
        if not conn.torsion_free:
            continue
        images = dnabla_images(conn)
        want = fixed_point_correction(conn, chart.truncation.max_sym_weight)
        del plus[:]
        with monkeypatch.context() as patch:
            patch.setattr(GradedPoly, "__add__", counted(GradedPoly.__add__))
            patch.setattr(GradedPoly, "__sub__", counted(GradedPoly.__sub__))
            patch.setattr(fedosov, "vvf_action", no_action)
            table = _solve_correction(
                conn, chart.truncation.max_sym_weight + 1, images)[1]
        assert solved_components(chart, table, images) == want
        assert len(plus) <= chart.n, path
        solved += 1
    assert solved >= 6


def test_solve_rejects_a_layer_with_one_product_pair_dropped(monkeypatch):
    # negative control: one derivation entry of one layer loses one
    # image slot, once, so the layer misses those products; the
    # confirming pass must reject it
    import jetexp.fedosov as fedosov
    from jetexp.poly import combine as real
    chart, conn = build_chart("plane_curved")
    dropped = []

    def drop_one(chart, entries, div=1, max_weight=None):
        if not dropped:
            for at, entry in enumerate(entries):
                if len(entry) == 3 and isinstance(entry[2], dict):
                    for slot in entry[2]:
                        table = dict(entry[2])
                        del table[slot]
                        short = entries[:at] + [entry[:2] + (table,)] + \
                            entries[at + 1:]
                        out = real(chart, short, div, max_weight)
                        if out != real(chart, entries, div, max_weight):
                            dropped.append(slot)
                            return out
        return real(chart, entries, div, max_weight)
    monkeypatch.setattr(fedosov, "combine", drop_one)
    with pytest.raises(FlatStructureError, match="did not stabilize"):
        _solve_correction(conn, 5, dnabla_images(conn))
    assert dropped


def test_torsion_free_connections_pass_the_solve_torsion_check():
    # the check the solve makes first, delta(dnabla y_k) = 0 for every k,
    # holds on the nine conftest charts and on seeded random torsion-free
    # connections over coordinate degrees -2..2, n = 1..4
    conns = [build_chart(name)[1] for name in TORSION_FREE_CHARTS]
    assert len(conns) == 9
    rng = random.Random(34)
    for n in range(1, 5):
        for _ in range(12):
            chart = Chart([("x%d" % (i + 1), rng.randint(-2, 2))
                           for i in range(n)], Truncation(3, 3, 6))
            conns.append(random_torsion_free_connection(rng, chart))
    curved = 0
    for conn in conns:
        images = dnabla_images(conn)
        ys = [conn.chart.y_slot(k) for k in range(conn.chart.n)]
        curved += any(images[y] for y in ys)
        assert not any(delta_op(images[y]) for y in ys)
    assert curved >= 30


def test_solve_names_torsion_when_the_check_fails():
    chart, conn = load_chart_file(os.path.join(CHART_DIR,
                                               "plane_torsion.chart"))
    with pytest.raises(FlatStructureError, match="connection has torsion"):
        _solve_correction(conn, chart.truncation.max_sym_weight + 1,
                          dnabla_images(conn))


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS + ("dense3", "dense4",
                                                        "plane_torsion"))
def test_dnabla_images_match_the_rebuilt_oracle_table(name):
    # one combine per fiber generator over the Christoffel rows against
    # dx_i . (the y_k image of direction i), summed with +
    if name == "plane_torsion":
        chart, conn = load_chart_file(os.path.join(CHART_DIR,
                                                   "plane_torsion.chart"))
    elif name.startswith("dense"):
        conn = {"dense3": dense_connection(3, 4),
                "dense4": dense_connection(4, 3)}[name]
    else:
        chart, conn = build_chart(name)
    assert dnabla_images(conn) == dnabla_table(conn)


def test_dense_solve_stays_fast():
    # dense n=4 table at weight 5: about 1 s with weight-capped products
    # and the layered solve, about 27 s with full products and the plain
    # fixed point; the bound is generous so that a machine running at
    # half speed does not trip it
    conn = dense_connection(4, 5)
    start = time.perf_counter()
    fd = FedosovData(conn, 5)
    assert time.perf_counter() - start < 15
    assert any(fd.correction)
    chart = conn.chart
    for slot in range(2 * chart.n):  # D^2 on base and fiber generators
        probe = GradedPoly.generator(chart, slot)
        assert not fd.d_apply(fd.d_apply(probe))


def test_dense_n5_solve_under_gate():
    # dense n=5 table at weight 5: about 19 s with the Fraction pair loop,
    # 3 to 4.5 s with the integer-numerator kernel (wall time, 2-vCPU
    # shared VM); the gate is 10 s
    conn = dense_connection(5, 5)
    start = time.perf_counter()
    fd = FedosovData(conn, 5)
    assert time.perf_counter() - start < 10
    assert any(fd.correction)
    chart = conn.chart
    for slot in range(2 * chart.n):  # D^2 on base and fiber generators
        probe = GradedPoly.generator(chart, slot)
        assert not fd.d_apply(fd.d_apply(probe))


def test_flat_operator_examples():
    chart, conn = build_chart("line_flat")
    fd = FedosovData(conn, 5)
    x, y = g(chart, 0), g(chart, 1)
    assert not fd.d_apply(x + y)  # the flat lift of the coordinate
    f = x * x + 2 * x
    assert not sigma_aug(fd.d_apply(iota_incl(f)))


def test_flat_operator_squares_to_zero(charts, rng):
    for name in ("plane_curved", "mixed", "two_odd"):
        chart, conn = charts[name]
        weight = chart.truncation.max_sym_weight
        fd = FedosovData(conn, weight)
        for _ in range(10):
            w = random_section(rng, chart, weight)
            assert not fd.d_apply(fd.d_apply(w))


def test_flat_image_tables_match_operator_sums(charts, rng):
    # the image tables behind d_apply and perturbation are the operator
    # sums they replace, formed with full products and projected after,
    # so the capped products inside d_apply are checked too
    for name in ("plane_curved", "mixed", "two_odd", "negdeg"):
        chart, conn = charts[name]
        fd = FedosovData(conn, chart.truncation.max_sym_weight)
        for _ in range(8):
            w = random_section(rng, chart, fd.weight)
            raising = dnabla_form(conn, w) + vvf_action(fd.correction, w)
            assert fd.d_apply(w) == project_weight(-delta_op(w) + raising,
                                                   fd.weight)
            assert fd.perturbation(w) == project_weight(raising, fd.weight)


def sections_at_and_above_the_cap(rng, chart, weight):
    """Random sections up to weight + 1, and monomials at the weight and
    one above it."""
    even = next(s for s in map(chart.y_slot, range(chart.n))
                if not chart.gen_parities[s])
    x = GradedPoly.generator(chart, chart.x_slot(0))
    y = GradedPoly.generator(chart, even)
    dx = [GradedPoly.generator(chart, chart.dx_slot(i))
          for i in range(chart.n)]
    top = [y ** weight, x * y ** weight, y ** (weight + 1),
           y ** weight + x * y ** (weight + 1)]
    top += [y ** (weight - 1) * d for d in dx]
    top += [y ** weight * d for d in dx]
    return top + [random_section(rng, chart, weight + 1) for _ in range(8)]


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
def test_flat_operator_table_is_perturbation_less_lowering(name):
    # one derive over D's own table against the weight-raising part less
    # the lowering exchange, at the cap and above it
    chart, conn = build_chart(name)
    fd = FedosovData(conn, chart.truncation.max_sym_weight)
    rng = random.Random(23)
    above = 0
    for w in sections_at_and_above_the_cap(rng, chart, fd.weight):
        above += project_weight(w, fd.weight) != w
        assert fd.d_apply(w) == \
            fd.perturbation(w) - delta_op(w, fd.weight)
    assert above >= 4


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
def test_solve_seed_is_one_derive_over_dnabla_less_lowering(name):
    # the fixed-point map's seed, dnabla(dnabla y_k) - delta(dnabla y_k),
    # as one derive over the table of dnabla - delta; its weight-2 part
    # -delta(dnabla y_k) is the solve's torsion check, zero here, and its
    # weight-3 part dnabla(dnabla y_k) is dnabla b_2, the solve's first
    # layer before the raising map
    chart, conn = build_chart(name)
    images = dnabla_images(conn)
    lowered = _less_delta(chart, images)
    for k in range(chart.n):
        dy = images[chart.y_slot(k)]
        seed = dy.derive(lowered)
        assert seed == dy.derive(images) - delta_op(dy)
        layers = {2: -delta_op(dy), 3: dy.derive(images)}
        assert seed.weight_layers() == {w: p for w, p in layers.items() if p}


def test_augmentation_taylor_specialization(rng):
    chart, conn = build_chart("line_flat")
    ctx = PbwContext(chart, conn, max_weight=6)
    fd = FedosovData(conn, 5)
    x, y = g(chart, 0), g(chart, 1)
    assert tau_pbw(ctx, x * x) == x * x + 2 * x * y + y * y
    assert fd.tau_series(x * x) == x * x + 2 * x * y + y * y
    assert tau_pbw(ctx, GradedPoly.constant(chart, 5)) == \
        GradedPoly.constant(chart, 5)
    # plain Taylor oracle: sum y^k/k! d^k f
    import math
    for _ in range(10):
        f = random_base_poly(rng, chart, 4, 4)
        want = GradedPoly.zero(chart)
        d = f
        for k in range(6):
            want = want + (y ** k) * d * Fraction(1, math.factorial(k))
            d = d.partial(0)
        assert fd.tau_series(f) == want


def test_augmentation_curved_line_frozen():
    chart, conn = build_chart("line_curved")
    ctx = PbwContext(chart, conn, max_weight=6)
    x, y = g(chart, 0), g(chart, 1)
    value = tau_pbw(ctx, x * x)
    parts = {}
    for m, c in value.terms.items():
        parts.setdefault(monomial_pq(chart, m), {})[m] = c
    assert GradedPoly(chart, parts[(0, 0)]) == x * x
    assert GradedPoly(chart, parts[(0, 1)]) == 2 * x * y
    assert GradedPoly(chart, parts[(0, 2)]) == \
        (GradedPoly.constant(chart, 1) - x * x) * y * y
    assert FedosovData(conn, 5).tau_series(x * x) == value


def test_augmentation_properties(charts, contexts, rng):
    for name in ("plane_curved", "mixed", "deg2"):
        chart, conn = charts[name]
        weight = chart.truncation.max_sym_weight
        fd = FedosovData(conn, weight)
        ctx = contexts[name]
        for _ in range(10):
            f = random_base_poly(rng, chart, 2, 3)
            tf = fd.tau_series(f)
            assert tf == tau_pbw(ctx, f, weight)
            assert sigma_aug(tf) == f
            assert not fd.d_apply(tf)
            h = random_base_poly(rng, chart, 2, 3)
            assert project_weight(tf * fd.tau_series(h), weight) == \
                fd.tau_series(f * h)


def _functions_with_odd_parts(rng, chart, count):
    # seeded base functions; on a chart with odd coordinates every odd
    # coordinate also appears as a factor of one of the terms
    odd = [g(chart, s) for s in range(chart.n) if chart.coordinate_parity(s)]
    out = []
    for _ in range(count):
        f = random_base_poly(rng, chart, 3, 4)
        for t in odd:
            f = f + t * random_base_poly(rng, chart, 2, 2)
        out.append(f)
    return out


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS + ("plane_torsion",))
def test_tau_pbw_matches_word_image_oracle(name, charts, rng):
    # the recursion evaluated on values against the operator word images
    # applied to the function, at every weight; plane_torsion is the
    # shipped torsionful chart
    if name == "plane_torsion":
        chart, conn = load_chart_file(os.path.join(CHART_DIR,
                                                   "plane_torsion.chart"))
    else:
        chart, conn = charts[name]
    top = chart.truncation.max_sym_weight
    ctx = PbwContext(chart, conn, max_weight=top)
    for weight in range(1, top + 1):
        for f in _functions_with_odd_parts(rng, chart, 3):
            assert tau_pbw(ctx, f, weight) == \
                tau_by_word_images(ctx, f, weight)


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
def test_tau_is_the_exponential_of_the_geodesic_spray(name, charts, rng):
    # Emmrich-Weinstein: the augmentation is exp(V) for the spray V, on
    # the coordinates and on seeded functions with odd parts, against
    # both routes at the chart's weight
    chart, conn = charts[name]
    weight = chart.truncation.max_sym_weight
    ctx = PbwContext(chart, conn, max_weight=weight)
    fd = FedosovData(conn, weight)
    coordinates = [GradedPoly.generator(chart, s) for s in range(chart.n)]
    for f in coordinates + _functions_with_odd_parts(rng, chart, 2):
        want = geodesic_spray_tau(conn, f, weight)
        assert tau_pbw(ctx, f, weight) == want
        assert fd.tau_series(f) == want


def test_geodesic_spray_negative_controls():
    # Gamma in front of y_i y_j differs where an odd Christoffel entry
    # meets an odd pair of fiber generators, and a spray without its
    # Gamma term is the flat one
    chart, conn = build_chart("three_degrees")
    weight = chart.truncation.max_sym_weight
    ctx = PbwContext(chart, conn, max_weight=weight)
    z = GradedPoly.generator(chart, 2)
    assert geodesic_spray_tau(conn, z, weight) == tau_pbw(ctx, z, weight)
    assert geodesic_spray_tau(conn, z, weight, gamma_first=True) != \
        tau_pbw(ctx, z, weight)
    chart, conn = build_chart("line_curved")
    ctx = PbwContext(chart, conn)
    x = GradedPoly.generator(chart, 0)
    assert geodesic_spray_tau(Connection.flat(chart), x, 5) != \
        tau_pbw(ctx, x, 5)


def test_homotopy_identities(charts, rng):
    for name in ("plane_curved", "mixed"):
        chart, conn = charts[name]
        weight = chart.truncation.max_sym_weight
        fd = FedosovData(conn, weight)
        for _ in range(10):
            f = random_base_poly(rng, chart, 2, 3)
            assert not fd.homotopy_h(iota_incl(f))
            w = random_section(rng, chart, weight)
            lhs = w - fd.tau_series(sigma_aug(w))
            rhs = fd.homotopy_h(fd.d_apply(w)) + fd.d_apply(fd.homotopy_h(w))
            assert lhs == rhs
            assert not fd.homotopy_h(fd.homotopy_h(w))
            assert not sigma_aug(fd.homotopy_h(w))


def test_exactness_via_homotopy(charts, rng):
    for name in ("plane_curved", "mixed"):
        chart, conn = charts[name]
        weight = chart.truncation.max_sym_weight
        fd = FedosovData(conn, weight)
        for p_degree in (0, 1):
            for _ in range(8):
                eta = random_section(rng, chart, weight - 1)
                eta = filter_terms(
                    eta, lambda m: monomial_pq(chart, m)[0] == p_degree)
                w = fd.d_apply(eta)
                assert not sigma_aug(w)
                assert fd.d_apply(fd.homotopy_h(w)) == w


def test_record_serialization_round_shape():
    chart, conn = build_chart("plane_curved")
    fd = FedosovData(conn, 4)
    records = vvf_records(fd.correction)
    assert records == sorted(records, key=lambda r: (r[0], r[1], r[2]))
    for i, fiber, k, poly in records:
        assert 1 <= i <= chart.n and 1 <= k <= chart.n
        assert len(fiber) == chart.n
