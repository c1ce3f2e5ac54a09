from fractions import Fraction

import pytest

from jetexp.chart import Chart, Truncation
from jetexp.enveloping import SymTensor, TruncationOverflowError, pairing
from jetexp.fedosov import (FedosovData, check_section_bounds, delta_inv_op,
                            delta_op, dnabla_form,
                            dual_connection_images, dual_curvature_action,
                            iota_incl, project_weight, sigma_aug, tau_pbw,
                            vvf_action, vvf_records)
from jetexp.geometry import Connection, VectorField, curvature
from jetexp.pbw import PbwContext
from jetexp.poly import GradedPoly, monomial_pq
from jetexp.randomgen import random_base_poly, random_section

from conftest import build_chart
from oracles import derivation_apply


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
    from jetexp.enveloping import word_degree
    from jetexp.geometry import nabla_sym
    for name in ("plane_curved", "mixed", "deg2"):
        chart, conn = charts[name]
        images = dual_connection_images(conn)
        for _ in range(15):
            sigma = random_section(rng, chart, 3, terms=4)
            sigma = sigma.filter_terms(lambda m: not any(m[2 * chart.n:]))
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
            alpha = random_section(rng, chart, 3).filter_terms(
                lambda m: not any(m[chart.n:2 * chart.n]))  # pure form part
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
                        sigma = sigma.filter_terms(
                            lambda mm: not any(mm[2 * chart.n:]))
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
    # sums they replace
    for name in ("plane_curved", "mixed", "two_odd", "negdeg"):
        chart, conn = charts[name]
        fd = FedosovData(conn, chart.truncation.max_sym_weight)
        for _ in range(8):
            w = random_section(rng, chart, fd.weight)
            raising = dnabla_form(conn, w) + vvf_action(fd.correction, w)
            assert fd.d_apply(w) == project_weight(-delta_op(w) + raising,
                                                   fd.weight)
            assert fd.perturbation(w) == project_weight(raising, fd.weight)


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
                eta = eta.filter_terms(
                    lambda m: monomial_pq(chart, m)[0] == p_degree)
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


def test_section_bounds_checker():
    chart = Chart([("x", 0), ("t", 1)], Truncation(2, 2, 2))
    x, t = g(chart, 0), g(chart, 1)
    y = g(chart, chart.y_slot(0))
    dx = g(chart, chart.dx_slot(0))
    dt = g(chart, chart.dx_slot(1))
    check_section_bounds(x * x + y * y)
    with pytest.raises(TruncationOverflowError):
        check_section_bounds(y ** 3)
    with pytest.raises(TruncationOverflowError):
        check_section_bounds(dt * dt * dt)
    with pytest.raises(TruncationOverflowError):
        check_section_bounds(x ** 3)
