from fractions import Fraction

import pytest

from jetexp.fedosov import (FedosovData, base_contraction, project_weight,
                            sigma_aug, tau_pbw)
from jetexp.pbw import PbwContext
from jetexp.perturbation import (ContractionData, SeriesDivergenceError,
                                 check_contraction, perturb_contraction,
                                 run_check)
from jetexp.poly import GradedPoly, TruncationOverflowError
from jetexp.randomgen import random_base_poly, random_section
from jetexp.verify import flat_contraction

from conftest import build_chart
from oracles import mat_add, mat_identity, mat_inv, mat_mul, mat_vec


class Vec(tuple):
    """Tiny exact vector carrier for hand-built complexes."""

    def __add__(self, other):
        return Vec(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        return Vec(a - b for a, b in zip(self, other))

    def __neg__(self):
        return Vec(-a for a in self)

    def __bool__(self):
        return any(self)


def basis(n, k):
    return Vec(Fraction(1) if i == k else Fraction(0) for i in range(n))


def from_matrix(mat):
    return lambda v: Vec(mat_vec(mat, list(v)))


def matrix_of(fn, dim_in, dim_out):
    cols = [list(fn(basis(dim_in, k))) for k in range(dim_in)]
    return [[cols[c][r] for c in range(dim_in)] for r in range(dim_out)]


# -- the hand-built four-dimensional complex --------------------------------
#
# big side: e0, e1, e2, e3 with differential e1 -> e2; small side: m0, m1
# identified with e0 and e3; homotopy sends e2 back to e1; filtration
# weights (0, 1, 1, 0); the perturbation sends e0 -> e2 and raises weight.

D_BIG = [[0, 0, 0, 0],
         [0, 0, 0, 0],
         [0, 1, 0, 0],
         [0, 0, 0, 0]]
SIGMA = [[1, 0, 0, 0],
         [0, 0, 0, 1]]
TAU = [[1, 0],
       [0, 0],
       [0, 0],
       [0, 1]]
H = [[0, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 0, 0, 0],
     [0, 0, 0, 0]]
PARTIAL = [[0, 0, 0, 0],
           [0, 0, 0, 0],
           [1, 0, 0, 0],
           [0, 0, 0, 0]]


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


@pytest.fixture
def toy():
    zero_small = lambda m: Vec((Fraction(0), Fraction(0)))
    return ContractionData(
        sigma=from_matrix(frac_matrix(SIGMA)),
        tau=from_matrix(frac_matrix(TAU)),
        h=from_matrix(frac_matrix(H)),
        d_big=from_matrix(frac_matrix(D_BIG)),
        d_small=zero_small,
    )


def toy_samples():
    import itertools
    vals = (Fraction(0), Fraction(1), Fraction(-2))
    big = [Vec(v) for v in itertools.product(vals, repeat=4)]
    small = [Vec(v) for v in itertools.product(vals, repeat=2)]
    return big, small


def test_toy_contraction_passes(toy):
    big, small = toy_samples()
    results = check_contraction(toy, big, small)
    assert all(r.status == "PASS" for r in results), results


def counting(test):
    seen = []

    def run(sample):
        seen.append(sample)
        return test(sample)
    return run, seen


def test_run_check_tests_each_distinct_sample_once():
    # words arrive as lists and are keyed by their tuple
    samples = [[2, 1], Vec((1, 2)), [2, 1], Vec((1, 2)), [0], [2, 1]]
    test, seen = counting(lambda s: True)
    assert run_check("n", samples, test).status == "PASS"
    assert seen == [[2, 1], Vec((1, 2)), [0]]
    # a generator of samples is read once, in order
    test, seen = counting(lambda s: True)
    assert run_check("n", (k % 3 for k in range(10)), test).status == "PASS"
    assert seen == [0, 1, 2]


def test_run_check_witness_is_the_first_failing_sample():
    # duplicates of passing samples before, and of the failing one and
    # others after: the witness is still the first failing sample
    bad = [1, 0]
    samples = [[2], [2], [3], [2], bad, [3], list(bad), [4], [1, 1]]
    test, seen = counting(lambda s: sum(s) != 1)
    assert run_check("n", samples, test) == ("n", "FAIL", repr(bad))
    assert seen == [[2], [3], bad]


def test_run_check_runs_unhashable_samples_every_time():
    samples = [{"a": 1}, {"a": 1}, {"a": 2}]
    test, seen = counting(lambda s: True)
    assert run_check("n", samples, test).status == "PASS"
    assert seen == samples


def test_run_check_reports_a_raising_test_as_fail():
    # an exception inside the test is the check's FAIL, witnessed by the
    # sample and the exception type; later samples do not run
    def test(s):
        if s == 2:
            raise ZeroDivisionError("boom")
        return True
    counted, seen = counting(test)
    result = run_check("n", [1, 2, 3], counted)
    assert result == ("n", "FAIL", "2 raised ZeroDivisionError: boom")
    assert seen == [1, 2]


def test_run_check_lets_overflow_and_base_exceptions_through():
    for exc in (TruncationOverflowError("past the bound"),
                KeyboardInterrupt()):
        def test(s, exc=exc):
            raise exc
        with pytest.raises(type(exc)):
            run_check("n", [1], test)


def test_zero_complex_passes_vacuously():
    zero = Vec((Fraction(0),))
    c = ContractionData(lambda x: zero, lambda m: zero, lambda x: zero,
                        lambda x: zero, lambda m: zero)
    assert all(r.status == "PASS"
               for r in check_contraction(c, [zero], [zero]))


def test_corrupted_homotopy_detected(toy):
    # wrong sign on the homotopy: the homotopy identity must fail with a
    # witness on its CHECK line
    bad = ContractionData(toy.sigma, toy.tau,
                          from_matrix(frac_matrix(
                              [[0, 0, 0, 0], [0, 0, -1, 0],
                               [0, 0, 0, 0], [0, 0, 0, 0]])),
                          toy.d_big, toy.d_small)
    big, small = toy_samples()
    results = check_contraction(bad, big, small)
    assert any(r.line().startswith("CHECK tau-sigma-homotopic-to-identity "
                                   "FAIL ") for r in results)


def test_broken_side_condition_detected(toy):
    # homotopy leaking into the small image breaks side conditions
    leak = [[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 1, 0, 0]]
    bad = ContractionData(toy.sigma, toy.tau, from_matrix(frac_matrix(leak)),
                          toy.d_big, toy.d_small)
    big, small = toy_samples()
    failed = {r.name for r in check_contraction(bad, big, small)
              if r.status == "FAIL"}
    assert "side-sigma-h" in failed or "side-h-h" in failed


def test_perturb_by_zero_is_identity(toy):
    big, small = toy_samples()
    perturbed, theta = perturb_contraction(toy, lambda x: -x + x, 4)
    for m in small:
        assert perturbed.tau(m) == toy.tau(m)
        assert not theta(m)
    for x in big:
        assert perturbed.sigma(x) == toy.sigma(x)
        assert perturbed.h(x) == toy.h(x)


def test_toy_perturbation_matches_matrix_inverse(toy):
    # independent route: the geometric series sum to exact inverses,
    # tau' = (I + h.partial)^-1 tau, sigma' = sigma (I + partial.h)^-1,
    # h' = (I + h.partial)^-1 h, theta = sigma partial (I+h.partial)^-1 tau
    big, small = toy_samples()
    partial = from_matrix(frac_matrix(PARTIAL))
    perturbed, theta = perturb_contraction(toy, partial, 6)

    h, p = frac_matrix(H), frac_matrix(PARTIAL)
    inv_hp = mat_inv(mat_add(mat_identity(4), mat_mul(h, p)))
    inv_ph = mat_inv(mat_add(mat_identity(4), mat_mul(p, h)))
    tau_direct = mat_mul(inv_hp, frac_matrix(TAU))
    h_direct = mat_mul(inv_hp, h)
    sigma_direct = mat_mul(frac_matrix(SIGMA), inv_ph)
    theta_direct = mat_mul(frac_matrix(SIGMA),
                           mat_mul(p, mat_mul(inv_hp, frac_matrix(TAU))))

    for k in range(2):
        m = basis(2, k)
        assert perturbed.tau(m) == Vec(mat_vec(tau_direct, list(m)))
        assert theta(m) == Vec(mat_vec(theta_direct, list(m)))
    for k in range(4):
        x = basis(4, k)
        assert perturbed.h(x) == Vec(mat_vec(h_direct, list(x)))
        assert perturbed.sigma(x) == Vec(mat_vec(sigma_direct, list(x)))

    results = check_contraction(perturbed, big, small)
    assert all(r.status == "PASS" for r in results), results
    # explicit values from the geometric series by hand
    assert perturbed.tau(basis(2, 0)) == \
        Vec((Fraction(1), Fraction(-1), Fraction(0), Fraction(0)))
    assert not theta(basis(2, 0)) and not theta(basis(2, 1))


def test_series_divergence_detected(toy):
    # a perturbation along the differential (e1 -> e2) keeps (h.partial)
    # from nilpotenting, e1 -> -e1 -> e1 ...; adding e0 -> e2 feeds the
    # inclusion into that cycle too, so every transferred map must trip
    # the series guard rather than loop forever
    partial = from_matrix(frac_matrix([[0, 0, 0, 0],
                                       [0, 0, 0, 0],
                                       [1, 1, 0, 0],
                                       [0, 0, 0, 0]]))
    perturbed, theta = perturb_contraction(toy, partial, 5)
    for transferred, arg in ((perturbed.sigma, basis(4, 2)),
                             (perturbed.tau, basis(2, 0)),
                             (perturbed.h, basis(4, 2)),
                             (theta, basis(2, 0))):
        with pytest.raises(SeriesDivergenceError):
            transferred(arg)


# -- the lowering-map contraction of the section complex --------------------

def test_section_complex_contraction_and_negative_control(rng):
    chart, conn = build_chart("mixed")
    weight = 4
    c = base_contraction(chart, weight)
    big = [random_section(rng, chart, weight) for _ in range(15)]
    small = [random_base_poly(rng, chart, 2, 3) for _ in range(10)]
    results = check_contraction(c, big, small)
    assert all(r.status == "PASS" for r in results), results

    # drop the 1/(p+q) prefactor of the raising map: the homotopy
    # identity fails and its result carries a witness
    def bad_raise(w):
        out = GradedPoly.zero(chart)
        for i in range(chart.n):
            d = w.partial(chart.dx_slot(i))
            if d:
                out = out + GradedPoly.generator(chart, chart.y_slot(i)) * d
        return -project_weight(out, weight)

    bad = ContractionData(c.sigma, c.tau, bad_raise, c.d_big, c.d_small)
    failed = [r for r in check_contraction(bad, big, small)
              if r.status == "FAIL"]
    assert any(r.name == "tau-sigma-homotopic-to-identity" and r.witness
               for r in failed)


def test_fedosov_perturbation_transfer(rng):
    chart, conn = build_chart("plane_curved")
    weight = chart.truncation.max_sym_weight
    fd = FedosovData(conn, weight)
    c = base_contraction(chart, weight)
    perturbed, theta = perturb_contraction(c, fd.perturbation,
                                           max_terms=weight + 2)
    # references outside the series engine: the exponential-map route for
    # the augmentation, the perturbation-lemma fixed point
    # h' = h - h.partial.h' for the homotopy
    ctx = PbwContext(chart, conn, max_weight=weight)
    for _ in range(10):
        f = random_base_poly(rng, chart, 2, 3)
        assert perturbed.tau(f) == tau_pbw(ctx, f, weight)
        assert not theta(f)
        w = random_section(rng, chart, weight)
        assert perturbed.sigma(w) == sigma_aug(w)
        h_w = perturbed.h(w)
        assert h_w == c.h(w) - c.h(fd.perturbation(h_w))
        assert perturbed.d_big(w) == fd.d_apply(w)
    big = [random_section(rng, chart, weight) for _ in range(10)]
    small = [random_base_poly(rng, chart, 2, 3) for _ in range(8)]
    assert all(r.status == "PASS"
               for r in check_contraction(flat_contraction(fd), big, small))
