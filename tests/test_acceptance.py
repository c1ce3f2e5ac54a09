"""Acceptance suite: one test per exit criterion, every assertion exact
(rational equality, no tolerances anywhere).  Each test prints a PASS
line on success so a verbose run doubles as the acceptance report.
"""

import math
import random
import time
from fractions import Fraction

from jetexp.chart import Chart, Truncation, mi_all_up_to
from jetexp.enveloping import DiffOp, SymTensor
from jetexp.fedosov import (FedosovData, delta_inv_op, delta_op, dnabla_form,
                            project_weight, sigma_aug, tau_pbw)
from jetexp.geometry import Connection
from jetexp.grammar import parse_poly
from jetexp.pbw import PbwContext, xi_form
from jetexp.perturbation import ContractionData, check_contraction, \
    perturb_contraction
from jetexp.poly import GradedPoly, monomial_pq
from jetexp.randomgen import (random_base_poly, random_section,
                              random_symtensor, random_word)
from jetexp.verify import _Session, flat_contraction, morphism_sides

from conftest import CHART_DEFS
from oracles import (VectorField, curvature, derivation_apply,
                     dual_connection_images, dual_curvature_action,
                     filter_terms, lightning_nabla, pairing, sym_mul_vf)

WEIGHT = 5  # the truncation every criterion is pinned at


def acceptance_chart(name, q=WEIGHT):
    coords, (_, p, b), gamma_txt = CHART_DEFS[name]
    chart = Chart(coords, Truncation(q, max(p, 3), b))
    gamma = {key: parse_poly(chart, text) for key, text in gamma_txt.items()}
    return chart, Connection(chart, gamma, torsion_free=True)


def basis_words(chart, max_weight):
    for index in mi_all_up_to(chart.n, max_weight):
        if any(e > 1 and chart.coordinate_parity(s)
               for s, e in enumerate(index)):
            continue
        yield index


def report(n, label):
    print("ACCEPTANCE %d %s: PASS" % (n, label))


def test_criterion_1_coalgebra_morphism_randomized():
    names = ("line_curved", "plane_curved", "mixed", "two_odd", "deg2")
    start = time.time()
    rng = random.Random(101)
    checked = 0
    for name in names:
        chart, conn = acceptance_chart(name)
        session = _Session(chart, conn, 4)  # a context capped at 5
        for _ in range(40):
            tensor = random_symtensor(rng, chart, 4)
            lhs, rhs = morphism_sides(session, tensor)
            assert lhs == rhs
            checked += 1
    elapsed = time.time() - start
    assert checked >= 200
    assert elapsed < 60, "took %.1fs" % elapsed
    report(1, "comultiplication intertwines the map on %d samples over %d "
              "charts (%.1fs)" % (checked, len(names), elapsed))


def test_criterion_2_roundtrip_every_basis_word():
    for name in CHART_DEFS:
        chart, conn = acceptance_chart(name)
        ctx = PbwContext(chart, conn, max_weight=WEIGHT)
        for index in basis_words(chart, WEIGHT):
            word = SymTensor.from_word(chart, index)
            assert ctx.inv(ctx.map(word)) == word
            op = DiffOp.from_word(chart, index)
            assert ctx.map(ctx.inv(op)) == op
    report(2, "map/inverse identities on every basis word to weight %d on "
              "%d charts" % (WEIGHT, len(CHART_DEFS)))


def test_criterion_3_symbols_and_two_term_expansions():
    from jetexp.verify import _leading_two_term

    rng = random.Random(103)
    for name in ("line_curved", "plane_curved", "mixed", "two_odd"):
        chart, conn = acceptance_chart(name)
        session = _Session(chart, conn, WEIGHT)  # context cap WEIGHT + 1
        for _ in range(25):
            tensor = random_symtensor(rng, chart, 4)
            if tensor:
                op = session.ctx.map(tensor)
                assert op.gr_leading() == tensor.weight_part(tensor.weight())
            letters = random_word(rng, chart, rng.randrange(2, 5))
            if letters:
                assert _leading_two_term(session, letters, invert=False)
                assert _leading_two_term(session, letters, invert=True)
    report(3, "symbol identity and both two-term leading expansions on "
              "random coordinate words")


def test_criterion_4_transported_connection_is_flat():
    for name in ("line_curved", "plane_curved", "mixed"):
        chart, conn = acceptance_chart(name)
        ctx = PbwContext(chart, conn, max_weight=WEIGHT + 1)
        for index in basis_words(chart, WEIGHT - 1):
            word = SymTensor.from_word(chart, index)
            for i in range(chart.n):
                for j in range(chart.n):
                    xi = VectorField.coordinate(chart, i)
                    xj = VectorField.coordinate(chart, j)
                    sign = -1 if (chart.coordinate_parity(i)
                                  and chart.coordinate_parity(j)) else 1
                    lhs = lightning_nabla(ctx, xi,
                                          lightning_nabla(ctx, xj, word))
                    rhs = lightning_nabla(ctx, xj,
                                          lightning_nabla(ctx, xi, word))
                    assert lhs == rhs.scale(sign)
    report(4, "transported connection flat on all basis words to weight %d "
              "on 3 charts including the curved plane" % (WEIGHT - 1))


def test_criterion_5_correction_equals_minus_dual_form():
    rng = random.Random(105)
    for name in ("plane_curved", "mixed"):
        chart, conn = acceptance_chart(name)
        fd = FedosovData(conn, WEIGHT)
        ctx = PbwContext(chart, conn, max_weight=WEIGHT + 1)
        xi = xi_form(ctx, WEIGHT)
        assert any(bool(c) for c in fd.correction) or name != "plane_curved"
        assert all(a == -b for a, b in zip(fd.correction, xi))
        for _ in range(10):
            w = random_section(rng, chart, WEIGHT)
            assert not fd.d_apply(fd.d_apply(w))
    report(5, "flat-structure correction equals minus the dual correction "
              "form to fiber weight %d; operator squares to zero" % WEIGHT)


def test_criterion_6_raising_normalizations():
    for name in CHART_DEFS:
        chart, conn = acceptance_chart(name)
        fd = FedosovData(conn, WEIGHT)
        ctx = PbwContext(chart, conn, max_weight=WEIGHT + 1)
        xi = xi_form(ctx, WEIGHT)
        for comp in xi:
            assert not delta_inv_op(comp)
        for comp in fd.correction:
            assert not delta_inv_op(comp)
    report(6, "raising map annihilates both correction forms on all %d "
              "charts" % len(CHART_DEFS))


def test_criterion_7_augmentation_routes_and_algebra_map():
    rng = random.Random(107)
    for name in ("line_curved", "plane_curved", "mixed"):
        chart, conn = acceptance_chart(name)
        fd = FedosovData(conn, WEIGHT)
        ctx = PbwContext(chart, conn, max_weight=WEIGHT)
        pairs = 0
        for _ in range(50):
            f = random_base_poly(rng, chart, 2, 3)
            g = random_base_poly(rng, chart, 2, 3)
            tf = fd.tau_series(f)
            assert tf == tau_pbw(ctx, f, WEIGHT)
            assert sigma_aug(tf) == f
            assert not fd.d_apply(tf)
            assert project_weight(tf * fd.tau_series(g), WEIGHT) == \
                fd.tau_series(f * g)
            pairs += 1
        assert pairs == 50
    # the flat chart reproduces the plain jet expansion
    chart, conn = acceptance_chart("line_flat")
    fd = FedosovData(conn, WEIGHT)
    y = GradedPoly.generator(chart, chart.y_slot(0))
    for _ in range(10):
        f = random_base_poly(rng, chart, 4, 4)
        taylor = GradedPoly.zero(chart)
        d = f
        for k in range(WEIGHT + 1):
            taylor = taylor + (y ** k) * d * Fraction(1, math.factorial(k))
            d = d.partial(0)
        assert fd.tau_series(f) == taylor
    report(7, "both augmentation routes agree, split the projection, are "
              "flat and multiplicative on 50 random pairs per chart; flat "
              "chart gives the plain jet expansion")


def test_criterion_8_resolution_and_contraction():
    rng = random.Random(108)
    for name in ("plane_curved", "mixed"):
        chart, conn = acceptance_chart(name)
        fd = FedosovData(conn, WEIGHT)
        # exactness probes: form degree 0 via injectivity, 1 and 2 via
        # explicit primitives
        for _ in range(10):
            xi0 = random_section(rng, chart, WEIGHT)
            xi0 = filter_terms(
                xi0, lambda m: monomial_pq(chart, m)[0] == 0
                and monomial_pq(chart, m)[1] >= 1)
            assert not sigma_aug(xi0)
            assert xi0 == fd.homotopy_h(fd.d_apply(xi0))
            for p_degree in (0, 1):
                eta = filter_terms(
                    random_section(rng, chart, WEIGHT - 1),
                    lambda m: monomial_pq(chart, m)[0] == p_degree)
                omega = fd.d_apply(eta)
                assert not sigma_aug(omega)
                assert not fd.d_apply(omega)
                assert fd.d_apply(fd.homotopy_h(omega)) == omega
        big = [random_section(rng, chart, WEIGHT) for _ in range(12)]
        small = [random_base_poly(rng, chart, 2, 3) for _ in range(10)]
        assert all(r.status == "PASS" for r in
                   check_contraction(flat_contraction(fd), big, small))
    report(8, "closed annihilated sections are exact in form degrees 0-2 "
              "and the flat contraction passes all identities")


def test_criterion_9_perturbation_on_toy_complex():
    from test_perturbation import (Vec, basis, frac_matrix, from_matrix,
                                   D_BIG, SIGMA, TAU, H, PARTIAL, toy_samples)
    from oracles import mat_add, mat_identity, mat_inv, mat_mul, mat_vec

    toy = ContractionData(
        sigma=from_matrix(frac_matrix(SIGMA)),
        tau=from_matrix(frac_matrix(TAU)),
        h=from_matrix(frac_matrix(H)),
        d_big=from_matrix(frac_matrix(D_BIG)),
        d_small=lambda m: Vec((Fraction(0), Fraction(0))),
    )
    partial = from_matrix(frac_matrix(PARTIAL))
    perturbed, theta = perturb_contraction(toy, partial, 6)
    h, p = frac_matrix(H), frac_matrix(PARTIAL)
    inv_hp = mat_inv(mat_add(mat_identity(4), mat_mul(h, p)))
    tau_direct = mat_mul(inv_hp, frac_matrix(TAU))
    for k in range(2):
        m = basis(2, k)
        assert perturbed.tau(m) == Vec(mat_vec(tau_direct, list(m)))
        assert not theta(m)
    big, small = toy_samples()
    assert all(r.status == "PASS"
               for r in check_contraction(perturbed, big, small))
    # negative control: a corrupted homotopy is detected with a witness
    bad = ContractionData(toy.sigma, toy.tau,
                          from_matrix(frac_matrix(
                              [[0, 0, 0, 0], [0, 0, -1, 0],
                               [0, 0, 0, 0], [0, 0, 0, 0]])),
                          toy.d_big, toy.d_small)
    assert any(r.status == "FAIL" and r.witness
               for r in check_contraction(bad, big, small))
    report(9, "transferred contraction matches the exact matrix-inverse "
              "solution on the four-dimensional complex; corrupted homotopy "
              "detected")


def test_criterion_10_cross_module_consistency():
    rng = random.Random(110)
    # squared dual differential against the geometry-side curvature,
    # transported through the pairing
    for name in ("plane_curved", "mixed", "deg2"):
        chart, conn = acceptance_chart(name)
        images = dual_connection_images(conn)
        for _ in range(6):
            w = random_section(rng, chart, 3)
            assert dnabla_form(conn, dnabla_form(conn, w)) == \
                dual_curvature_action(conn, w)
        for j in range(chart.n):
            for i in range(chart.n):
                pi = chart.coordinate_parity(i)
                pj = chart.coordinate_parity(j)
                for m in range(chart.n):
                    z = VectorField.coordinate(chart, m)
                    zt = SymTensor.from_word(
                        chart, tuple(1 if s == m else 0
                                     for s in range(chart.n)))
                    sigma = random_section(rng, chart, 3, terms=4)
                    sigma = filter_terms(
                        sigma, lambda mm: not any(mm[2 * chart.n:]))
                    r = curvature(conn, VectorField.coordinate(chart, j),
                                  VectorField.coordinate(chart, i), z)
                    rt = SymTensor(chart, {
                        tuple(1 if s == k else 0 for s in range(chart.n)): c
                        for k, c in enumerate(r.components) if c})
                    s_r = -1 if (1 + chart.coordinate_degree(i)) & 1 else 1
                    o_ji = derivation_apply(
                        derivation_apply(sigma, images[i], pi), images[j], pj)
                    o_ij = derivation_apply(
                        derivation_apply(sigma, images[j], pj), images[i], pi)
                    comm = o_ji - (o_ij if not (pi and pj) else -o_ij)
                    s_z = -1 if ((pi + pj) & 1) and \
                        (chart.coordinate_degree(m) & 1) else 1
                    assert pairing(rt, sigma) * s_r + \
                        pairing(zt, comm) * s_z == GradedPoly.zero(chart)
    # pairing transpose of the lowering map on >= 100 random triples
    triples = 0
    for name in ("mixed", "two_odd"):
        chart, conn = acceptance_chart(name)
        while triples < (60 if name == "mixed" else 120):
            tensor = random_symtensor(rng, chart, 3)
            sigma = filter_terms(random_section(rng, chart, 4, terms=4),
                                 lambda m: not any(m[2 * chart.n:]))
            i = rng.randrange(chart.n)
            x = VectorField.coordinate(chart, i)
            lhs = pairing(tensor, delta_op(sigma).partial(chart.dx_slot(i)))
            rhs = GradedPoly.zero(chart)
            for tdeg, tpart in tensor.homogeneous_components().items():
                sign = -1 if (chart.coordinate_parity(i)
                              and (tdeg & 1)) else 1
                rhs = rhs + pairing(sym_mul_vf(x, tpart), sigma) * sign
            assert lhs == rhs
            triples += 1
    assert triples >= 100
    report(10, "squared dual differential matches the curvature action and "
               "the lowering-map pairing transpose holds on %d triples"
               % triples)
