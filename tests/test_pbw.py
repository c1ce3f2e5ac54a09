import random
from fractions import Fraction

import pytest

from jetexp.chart import Chart, Truncation, mi_all_up_to
from jetexp.enveloping import (DiffOp, SymTensor, TruncationOverflowError,
                               comult_sym)
from jetexp.fedosov import delta_op
from jetexp.geometry import Connection, nabla_sym
from jetexp.pbw import PbwContext, xi_form
from jetexp.poly import GradedPoly
from jetexp.randomgen import (random_base_poly, random_section,
                              random_symtensor, random_word)

from conftest import TORSION_FREE_CHARTS, build_chart
from oracles import (VectorField, bubble_koszul_sign, compose_word_image,
                     cov_deriv, filter_terms, from_vector_field,
                     lightning_nabla, mi_weight, pairing, per_letter_compose,
                     per_letter_word_image, random_torsion_free_connection,
                     square_table, sym_mul_vf, theta_form, xi_form_by_theta)


def europe_recursion(ctx, fields):
    """The averaged recursion unrolled on an explicit list of homogeneous
    vector fields; an independent oracle for the word images."""
    chart = ctx.chart
    m = len(fields)
    if m == 0:
        return DiffOp.identity(chart)
    if m == 1:
        return from_vector_field(DiffOp, fields[0])
    degrees = [f.degree() for f in fields]
    acc = DiffOp.zero(chart)
    for k in range(m):
        eps = -1 if (degrees[k] & 1) and \
            (sum(d & 1 for d in degrees[:k]) & 1) else 1
        rest = fields[:k] + fields[k + 1:]
        left = per_letter_compose(from_vector_field(DiffOp, fields[k]),
                                  europe_recursion(ctx, rest))
        word = SymTensor.function(chart, GradedPoly.constant(chart, 1))
        for f in reversed(rest):
            word = sym_mul_vf(f, word)
        inner = nabla_sym(ctx.conn, fields[k], word)
        right = ctx.map(inner)
        term = left - right
        acc = acc + term.scale(eps)
    return acc.scale(Fraction(1, m))


@pytest.fixture(scope="module")
def e1():
    chart, conn = build_chart("line_curved")
    return chart, conn, PbwContext(chart, conn, max_weight=7)


def test_order_zero_and_one_rules(e1):
    chart, conn, ctx = e1
    x = GradedPoly.generator(chart, 0)
    assert ctx.map(SymTensor.function(chart, x * x)) == \
        DiffOp.function(chart, x * x)
    assert ctx.map(SymTensor.from_word(chart, (1,))) == \
        DiffOp.from_word(chart, (1,))


def test_line_chart_frozen_values(e1):
    # hand-unrolled on the one-coordinate chart with the linear entry:
    # weight 2 and 3 images and their inverses
    chart, conn, ctx = e1
    x = GradedPoly.generator(chart, 0)
    one = GradedPoly.constant(chart, 1)
    assert ctx.map(SymTensor.from_word(chart, (2,))) == \
        DiffOp(chart, {(2,): one, (1,): -x})
    assert ctx.map(SymTensor.from_word(chart, (3,))) == \
        DiffOp(chart, {(3,): one, (2,): -3 * x, (1,): 2 * x * x - one})
    assert ctx.inv(DiffOp.from_word(chart, (2,))) == \
        SymTensor(chart, {(2,): one, (1,): x})
    assert ctx.inv(DiffOp.from_word(chart, (3,))) == \
        SymTensor(chart, {(3,): one, (2,): 3 * x, (1,): x * x + one})


def test_weight_cap_errors(e1):
    # one cap: map and inv both refuse anything above max_weight
    chart, conn, _ = e1
    small = PbwContext(chart, conn, max_weight=2)
    with pytest.raises(TruncationOverflowError):
        small.map(SymTensor.from_word(chart, (3,)))
    with pytest.raises(TruncationOverflowError):
        small.inv(DiffOp.from_word(chart, (3,)))
    with pytest.raises(TruncationOverflowError):
        lightning_nabla(small, VectorField.coordinate(chart, 0),
                        SymTensor.from_word(chart, (2,)))
    with pytest.raises(TruncationOverflowError):
        xi_form(small, 2)


@pytest.mark.parametrize("name", ["line_curved", "plane_curved", "mixed",
                                  "two_odd", "deg2", "negdeg",
                                  "three_degrees"])
def test_roundtrip_on_all_basis_words(name, charts, contexts):
    chart, conn = charts[name]
    ctx = contexts[name]
    cap = chart.truncation.max_sym_weight
    for index in mi_all_up_to(chart.n, cap):
        if any(e > 1 and chart.coordinate_parity(s)
               for s, e in enumerate(index)):
            continue
        word = SymTensor.from_word(chart, index)
        assert ctx.inv(ctx.map(word)) == word
        op = DiffOp.from_word(chart, index)
        assert ctx.map(ctx.inv(op)) == op


def test_inverse_reads_each_top_layer_off_the_keys(charts, contexts, rng,
                                                  monkeypatch):
    # inv peels the top weight layer of the remainder by its keys; it
    # splits no polynomial into weight layers
    pairs = []
    for name in TORSION_FREE_CHARTS:
        chart, _ = charts[name]
        for _ in range(4):
            t = random_symtensor(rng, chart, chart.truncation.max_sym_weight)
            pairs.append((contexts[name], t, contexts[name].map(t)))

    def refuse(self):
        raise AssertionError("weight_layers called")
    monkeypatch.setattr(GradedPoly, "weight_layers", refuse)
    for ctx, tensor, op in pairs:
        assert ctx.inv(op) == tensor


def test_left_linearity_over_base_functions(charts, contexts, rng):
    for name in ("mixed", "two_odd"):
        chart, conn = charts[name]
        ctx = contexts[name]
        for _ in range(20):
            tensor = random_symtensor(rng, chart, 3)
            f = random_base_poly(rng, chart, 2, 3)
            assert ctx.map(tensor.scale(f)) == ctx.map(tensor).scale(f)


def admissible_words(chart, max_weight):
    """Basis words of weight 1 ... max_weight (odd letters at most once)."""
    for index in mi_all_up_to(chart.n, max_weight):
        if mi_weight(index) and not any(
                e > 1 and chart.coordinate_parity(s)
                for s, e in enumerate(index)):
            yield index


def test_word_images_match_europe_oracle(charts, contexts):
    for name in TORSION_FREE_CHARTS:
        chart, conn = charts[name]
        ctx = contexts[name]
        for index in admissible_words(chart, 4):
            if mi_weight(index) < 2:
                continue
            letters = []
            for s in range(chart.n - 1, -1, -1):
                letters.extend([s] * index[s])
            fields = [VectorField.coordinate(chart, s) for s in letters]
            assert ctx.word_image(index) == europe_recursion(ctx, fields)


def test_word_image_refuses_a_repeated_odd_letter():
    # as DiffOp.from_word does, and before the word reaches the memo
    chart, conn = build_chart("mixed")
    ctx = PbwContext(chart, conn, max_weight=4)
    ctx.word_image((1, 1))
    before = set(ctx._symbols)
    with pytest.raises(ValueError, match="odd coordinate derivation"):
        DiffOp.from_word(chart, (0, 2))
    with pytest.raises(ValueError, match="odd coordinate derivation"):
        ctx.word_image((0, 2))
    assert set(ctx._symbols) == before


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
def test_word_images_match_per_letter_oracle(name, charts, contexts):
    # one recursion term per letter against the library's one term per
    # distinct letter times its multiplicity; on two_odd the sign of a
    # word with both odd letters tells "odd letters before the slot" from
    # "after" it
    chart, conn = charts[name]
    ctx = contexts[name]
    for index in admissible_words(chart, chart.truncation.max_sym_weight):
        assert ctx.word_image(index) == per_letter_word_image(ctx, index)


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
def test_word_images_match_general_product_oracle(name, charts, contexts):
    # each d_s o W by the oracle's operator product and summed as
    # operators against the library's one-letter rule on symbols
    chart, conn = charts[name]
    ctx = contexts[name]
    for index in admissible_words(chart, chart.truncation.max_sym_weight):
        assert ctx.word_image(index) == compose_word_image(ctx, index)


def test_oracle_multilinearity_over_base_functions(charts, contexts, rng):
    # the recursion applied to coefficient-bearing fields equals the
    # coefficient times the basis-word value, with the Koszul crossing sign
    chart, conn = build_chart("mixed")
    ctx = PbwContext(chart, conn, max_weight=6)
    d_x = VectorField.coordinate(chart, 0)
    d_t = VectorField.coordinate(chart, 1)
    x = GradedPoly.generator(chart, 0)
    t = GradedPoly.generator(chart, 1)
    for fields, f, slot in [([d_x, d_x, d_t], t, 0), ([d_x, d_x, d_t], x, 0),
                            ([d_x, d_t], t, 1), ([d_t, d_x], t, 0),
                            ([d_t, d_x, d_x], x * t, 1)]:
        base = europe_recursion(ctx, fields)
        mod = list(fields)
        mod[slot] = mod[slot].scale(f)
        cross = sum(fields[j].degree() & 1 for j in range(slot)) * \
            (f.degree() & 1)
        want = base.scale(f).scale(-1 if cross & 1 else 1)
        assert europe_recursion(ctx, mod) == want


def test_filtration_and_symbol(charts, contexts, rng):
    for name in ("plane_curved", "mixed"):
        chart, conn = charts[name]
        ctx = contexts[name]
        for _ in range(25):
            tensor = random_symtensor(rng, chart, 4)
            if not tensor:
                continue
            op = ctx.map(tensor)
            top = tensor.weight()
            assert (op.order() or 0) <= top
            assert op.gr_leading() == tensor.weight_part(top)


def test_lightning_examples():
    chart, conn = build_chart("line_curved")
    ctx = PbwContext(chart, conn, max_weight=6)
    d = VectorField.coordinate(chart, 0)
    x = GradedPoly.generator(chart, 0)
    one = GradedPoly.constant(chart, 1)
    got = lightning_nabla(ctx, d, SymTensor.from_word(chart, (1,)))
    assert got == SymTensor(chart, {(2,): one, (1,): x})
    got = lightning_nabla(ctx, d, SymTensor.from_word(chart, (2,)))
    assert got == SymTensor(chart, {(3,): one, (2,): 2 * x})
    flat_chart, flat_conn = build_chart("line_flat")
    flat_ctx = PbwContext(flat_chart, flat_conn, max_weight=6)
    got = lightning_nabla(flat_ctx, VectorField.coordinate(flat_chart, 0),
                          SymTensor.from_word(flat_chart, (1,)))
    assert got == SymTensor.from_word(flat_chart, (2,))


def test_lightning_weight_one_matches_product_plus_connection(charts,
                                                              contexts, rng):
    # on single coordinate derivations the transported derivative is the
    # symmetric product plus the plain covariant derivative (torsion-free)
    for name in ("plane_curved", "mixed", "deg2"):
        chart, conn = charts[name]
        ctx = contexts[name]
        for i in range(chart.n):
            for j in range(chart.n):
                x = VectorField.coordinate(chart, i)
                y = VectorField.coordinate(chart, j)
                word_j = tuple(1 if s == j else 0 for s in range(chart.n))
                got = lightning_nabla(ctx, x, SymTensor.from_word(chart, word_j))
                want = sym_mul_vf(x, SymTensor.from_word(chart, word_j))
                cv = cov_deriv(conn, x, y)
                want = want + SymTensor(chart, {
                    tuple(1 if s == k else 0 for s in range(chart.n)): c
                    for k, c in enumerate(cv.components) if c})
                assert got == want


def test_lightning_flatness(charts, contexts):
    # double transported derivatives commute on all basis words below the
    # weight bound, coordinate directions have vanishing brackets
    for name in ("line_curved", "plane_curved", "mixed"):
        chart, conn = charts[name]
        ctx = contexts[name]
        cap = chart.truncation.max_sym_weight
        for index in mi_all_up_to(chart.n, cap - 1):
            if any(e > 1 and chart.coordinate_parity(s)
                   for s, e in enumerate(index)):
                continue
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


def test_theta_gated_on_torsion():
    from jetexp.chart import Chart, Truncation as Tr
    chart = Chart([("x1", 0), ("x2", 0)], Tr(4, 3, 6))
    conn = Connection(chart, {(0, 1, 0): GradedPoly.constant(chart, 1)},
                      torsion_free=False)
    ctx = PbwContext(chart, conn, max_weight=5)
    with pytest.raises(ValueError):
        theta_form(ctx, VectorField.coordinate(chart, 0),
                   SymTensor.from_word(chart, (1, 0)))


def test_theta_examples():
    chart, conn = build_chart("line_curved")
    ctx = PbwContext(chart, conn, max_weight=6)
    d = VectorField.coordinate(chart, 0)
    one_tensor = SymTensor.function(chart, GradedPoly.constant(chart, 1))
    assert not theta_form(ctx, d, one_tensor)
    assert not theta_form(ctx, d, SymTensor.from_word(chart, (1,)))
    assert not theta_form(ctx, d, SymTensor.from_word(chart, (2,)))


def test_theta_vanishes_on_low_weight_torsion_free(charts, contexts):
    for name in ("plane_curved", "mixed", "two_odd"):
        chart, conn = charts[name]
        ctx = contexts[name]
        for i in range(chart.n):
            x = VectorField.coordinate(chart, i)
            assert not theta_form(
                ctx, x, SymTensor.function(chart,
                                           GradedPoly.constant(chart, 1)))
            for j in range(chart.n):
                word = tuple(1 if s == j else 0 for s in range(chart.n))
                assert not theta_form(ctx, x,
                                      SymTensor.from_word(chart, word))


def test_theta_lowers_weight(charts, contexts, rng):
    for name in ("plane_curved", "mixed"):
        chart, conn = charts[name]
        ctx = contexts[name]
        for _ in range(10):
            tensor = random_symtensor(rng, chart, 4)
            if not tensor:
                continue
            for i in range(chart.n):
                x = VectorField.coordinate(chart, i)
                got = theta_form(ctx, x, tensor)
                assert got.weight_le(max(tensor.weight() - 1, 0)) == got


def test_theta_is_coderivation(charts, contexts, rng):
    from jetexp.enveloping import to_square

    def square(u, v):  # u (x) v: a right coefficient crosses u leftwards
        return to_square(u.symbol()) * to_square(v.symbol(), right=True)

    for name in ("plane_curved", "mixed"):
        chart, conn = charts[name]
        ctx = contexts[name]
        for _ in range(8):
            tensor = random_symtensor(rng, chart, 4)
            for i in range(chart.n):
                x = VectorField.coordinate(chart, i)
                xdeg = -chart.coordinate_degree(i)
                lhs = comult_sym(theta_form(ctx, x, tensor))
                rhs = GradedPoly.zero(lhs.chart)
                for (a, b), coeff in square_table(
                        chart, comult_sym(tensor)).items():
                    # theta acting on the left slot
                    part = theta_form(ctx, x, SymTensor(chart, {a: coeff}))
                    rhs = rhs + square(part, SymTensor.from_word(chart, b))
                    # theta acting on the right slot, crossing the left
                    left = SymTensor(chart, {a: coeff})
                    right = theta_form(ctx, x, SymTensor.from_word(chart, b))
                    for adeg, apart in left.homogeneous_components().items():
                        flip = (adeg & 1) and (xdeg & 1)
                        rhs = rhs + square(-apart if flip else apart, right)
                assert lhs == rhs


def test_theta_cyclic_sum_vanishes(charts, contexts, rng):
    # summing the contraction of each word letter against the rest, with
    # the sign of pulling that letter to the front, gives zero
    for name in ("plane_curved", "mixed", "two_odd"):
        chart, conn = charts[name]
        ctx = contexts[name]
        for _ in range(12):
            letters = random_word(rng, chart, rng.randrange(2, 5))
            if not letters:
                continue
            degrees = [-chart.coordinate_degree(s) for s in letters]
            total = SymTensor.zero(chart)
            for k, slot in enumerate(letters):
                perm = [k] + [p for p in range(len(letters)) if p != k]
                eps = bubble_koszul_sign(perm, degrees)
                rest = letters[:k] + letters[k + 1:]
                index = [0] * chart.n
                for s in rest:
                    index[s] += 1
                part = theta_form(ctx, VectorField.coordinate(chart, slot),
                                  SymTensor.from_word(chart, tuple(index)))
                total = total + part.scale(eps)
            assert not total


def test_context_memo_is_shareable_across_threads():
    # both memo tables (word symbols and the operators built from them)
    # under several threads on one context, with tau_pbw interleaved
    import sys
    import threading

    from jetexp.fedosov import tau_pbw

    chart, conn = build_chart("plane_curved")
    words = list(mi_all_up_to(chart.n, 5))
    x1, x2 = (GradedPoly.generator(chart, s) for s in range(2))
    funcs = [x1 * x1 * x1, x1 * x2 * x2]
    reference = {i: PbwContext(chart, conn, max_weight=6).word_image(i)
                 for i in words}
    ref_tau = [tau_pbw(PbwContext(chart, conn, max_weight=6), f, 5)
               for f in funcs]
    shared = PbwContext(chart, conn, max_weight=6)
    failures = []

    def worker(k):
        for j, f in enumerate(funcs):
            if k % 2 and tau_pbw(shared, f, 5) != ref_tau[j]:
                failures.append(f)
        for i in words:
            if shared.word_image(i) != reference[i]:
                failures.append(i)
        for j, f in enumerate(funcs):
            if tau_pbw(shared, f, 5) != ref_tau[j]:
                failures.append(f)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures


@pytest.mark.parametrize("name", ["mixed", "three_degrees"])
def test_cold_fill_reads_each_step_once(monkeypatch, name):
    # a missing word's steps and their replacement terms are read once,
    # also when the word waits on the stack for the words they read
    import jetexp.pbw
    from jetexp.pbw import recursion_steps

    calls = []
    real = jetexp.pbw.replacement_terms

    def counted(conn, slot, rest):
        calls.append((slot, rest))
        return real(conn, slot, rest)
    monkeypatch.setattr(jetexp.pbw, "replacement_terms", counted)
    chart, conn = build_chart(name)
    ctx = PbwContext(chart, conn)
    weight = chart.truncation.max_sym_weight
    for index in admissible_words(chart, weight):
        if mi_weight(index) == weight:
            ctx.word_image(index)
    steps = [(slot, rest) for word in ctx._symbols
             for slot, rest, _ in recursion_steps(chart, word)]
    assert calls and sorted(calls) == sorted(steps)
    assert len(set(calls)) == len(calls)


def test_xi_form_vanishes_without_curvature():
    chart, conn = build_chart("line_flat")
    ctx = PbwContext(chart, conn, max_weight=6)
    assert all(not c for c in xi_form(ctx, 5))
    chart, conn = build_chart("line_curved")
    ctx = PbwContext(chart, conn, max_weight=6)
    assert all(not c for c in xi_form(ctx, 5))


def test_xi_form_requires_torsion_free():
    chart = Chart([("x1", 0), ("x2", 0)], Truncation(4, 3, 6))
    conn = Connection(chart, {(0, 1, 0): GradedPoly.constant(chart, 1)},
                      torsion_free=False)
    ctx = PbwContext(chart, conn, max_weight=6)
    with pytest.raises(ValueError):
        xi_form(ctx, 4)


@pytest.mark.parametrize("name", TORSION_FREE_CHARTS)
def test_xi_form_matches_transported_connection_route(name, charts):
    chart, conn = charts[name]
    weight = chart.truncation.max_sym_weight
    assert xi_form(PbwContext(chart, conn, max_weight=weight + 1)) == \
        xi_form_by_theta(PbwContext(chart, conn, max_weight=weight + 1))


def test_xi_form_matches_transported_connection_route_dense():
    # a dense random torsion-free table (seed 11) at weight 4
    chart = Chart([("x1", 0), ("x2", 0), ("x3", 1), ("x4", 2)],
                  Truncation(4, 3, 6))
    conn = random_torsion_free_connection(random.Random(11), chart)
    got = xi_form(PbwContext(chart, conn, max_weight=5))
    assert any(got)
    assert got == xi_form_by_theta(PbwContext(chart, conn, max_weight=5))


def test_xi_form_fiber_weight_at_least_two_and_raising_normalized(charts,
                                                                  contexts):
    from jetexp.fedosov import delta_inv_op
    from jetexp.poly import monomial_pq
    for name in ("plane_curved", "mixed"):
        chart, conn = charts[name]
        ctx = contexts[name]
        xi = xi_form(ctx, chart.truncation.max_sym_weight)
        assert any(bool(c) for c in xi)
        for comp in xi:
            assert not delta_inv_op(comp)
            for m in comp.terms:
                assert monomial_pq(chart, m)[1] >= 2


def test_transpose_relation_between_theta_and_xi(charts, contexts, rng):
    # <S, contraction of the dual form applied to sigma> equals the
    # signed pairing of theta(S) against sigma, on fiber polynomials
    from oracles import word_degree
    for name in ("plane_curved", "mixed"):
        chart, conn = charts[name]
        ctx = contexts[name]
        weight = chart.truncation.max_sym_weight
        xi = xi_form(ctx, weight)
        for _ in range(12):
            letters = random_word(rng, chart, rng.randrange(2, weight))
            index = [0] * chart.n
            for s in letters:
                index[s] += 1
            index = tuple(index)
            tensor = SymTensor.from_word(chart, index)
            sigma = random_section(rng, chart, weight, terms=3)
            sigma = filter_terms(sigma, lambda m: not any(m[2 * chart.n:]))
            for i in range(chart.n):
                x = VectorField.coordinate(chart, i)
                # contract the one-form against direction i
                applied = GradedPoly.zero(chart)
                for k, comp in enumerate(xi):
                    coeff = comp.partial(chart.dx_slot(i))
                    applied = applied + coeff * sigma.partial(chart.y_slot(k))
                lhs = pairing(tensor, applied)
                sign = -1 if (word_degree(chart, index) & 1) and \
                    (chart.coordinate_parity(i)) else 1
                rhs = pairing(theta_form(ctx, x, tensor), sigma) * sign
                assert lhs == rhs


def test_pairing_against_lowering_transpose(charts, rng):
    # <S, i_X delta(sigma)> == +/- <X (.) S, sigma> for coordinate and
    # coefficient-bearing directions
    from oracles import word_degree
    for name in ("mixed", "two_odd"):
        chart, conn = charts[name]
        for _ in range(40):
            tensor = random_symtensor(rng, chart, 3)
            sigma = random_section(rng, chart, 4, terms=4)
            sigma = filter_terms(sigma, lambda m: not any(m[2 * chart.n:]))
            i = rng.randrange(chart.n)
            coeff = random_base_poly(rng, chart, 1, 2)
            x = VectorField.coordinate(chart, i).scale(coeff)
            ds = delta_op(sigma)
            contracted = GradedPoly.zero(chart)
            for cdeg, cpart in coeff.homogeneous_components().items():
                contracted = contracted + cpart * ds.partial(chart.dx_slot(i))
            lhs = pairing(tensor, contracted)
            rhs = GradedPoly.zero(chart)
            for ddeg, dx_part in _vf_degree_parts(x):
                for tensor_deg, tpart in tensor.homogeneous_components().items():
                    sign = -1 if (ddeg & 1) and (tensor_deg & 1) else 1
                    rhs = rhs + pairing(sym_mul_vf(dx_part, tpart),
                                        sigma) * sign
            assert lhs == rhs


def _vf_degree_parts(field):
    return list(field.homogeneous_components().items())
