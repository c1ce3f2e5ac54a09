import pytest

import jetexp.fedosov
import jetexp.pbw
import jetexp.verify
from jetexp.chart import Chart, Truncation
from jetexp.geometry import Connection
from jetexp.perturbation import ContractionData, PerturbedContraction
from jetexp.poly import GradedPoly
from jetexp.verify import SUITE_NAMES, run_suite

from conftest import build_chart


def torsionful():
    chart = Chart([("x1", 0), ("x2", 0)], Truncation(3, 3, 6))
    conn = Connection(chart, {(0, 1, 0): GradedPoly.constant(chart, 1)},
                      torsion_free=False)
    return chart, conn


def test_all_runs_every_suite():
    chart, conn = build_chart("line_curved")
    results = run_suite("all", chart, conn, seed=0, weight=3)
    names = [r.name for r in results]
    assert "comultiplication-intertwines-map" in names
    assert "correction-equals-minus-dual-form" in names
    assert "augmentation-routes-agree" in names
    assert "transferred-augmentation-matches" in names
    assert all(r.status == "PASS" for r in results)


def test_unknown_suite_rejected():
    chart, conn = build_chart("line_flat")
    with pytest.raises(ValueError):
        run_suite("nonsense", chart, conn)


def test_torsionful_chart_skips_gated_suites():
    chart, conn = torsionful()
    for suite in ("symbols", "flat-connection", "resolution", "perturbation"):
        results = run_suite(suite, chart, conn, seed=0, weight=3)
        assert all(r.status == "SKIP" for r in results)
        assert all(r.witness for r in results)
    # the coalgebra identity holds for arbitrary connections
    results = run_suite("coalgebra", chart, conn, seed=0)
    assert all(r.status == "PASS" for r in results)


def test_check_line_format():
    chart, conn = build_chart("line_flat")
    (result,) = run_suite("coalgebra", chart, conn, seed=0)
    assert result.line() == "CHECK comultiplication-intertwines-map PASS"
    chart, conn = torsionful()
    (result,) = run_suite("symbols", chart, conn, seed=0)
    assert result.line().startswith("CHECK leading-terms SKIP")


def test_suite_names_are_stable():
    assert SUITE_NAMES == ("coalgebra", "symbols", "flat-connection",
                           "resolution", "perturbation")


def test_every_shipped_chart_loads_and_passes_a_suite():
    import os
    from jetexp.chartfile import load_chart_file
    chart_dir = os.path.join(os.path.dirname(__file__), os.pardir, "charts")
    seen = 0
    for name in sorted(os.listdir(chart_dir)):
        if not name.endswith(".chart"):
            continue
        chart, conn = load_chart_file(os.path.join(chart_dir, name))
        results = run_suite("coalgebra", chart, conn, seed=0)
        assert all(r.status == "PASS" for r in results), name
        seen += 1
    assert seen >= 6


def perturbation_statuses():
    chart, conn = build_chart("plane_curved")
    return {r.name: r.status
            for r in run_suite("perturbation", chart, conn, seed=0, weight=3)}


def test_augmentation_check_fails_against_truncated_pbw_route(monkeypatch):
    # negative control: a tau_pbw that drops its top-weight words must
    # make the transferred augmentation disagree
    real = jetexp.verify.tau_pbw
    monkeypatch.setattr(jetexp.verify, "tau_pbw",
                        lambda ctx, f, weight: real(ctx, f, weight - 1))
    statuses = perturbation_statuses()
    assert statuses["transferred-augmentation-matches"] == "FAIL"
    assert statuses["transferred-homotopy-matches"] == "PASS"


def test_homotopy_check_fails_when_last_series_term_dropped(monkeypatch):
    # negative control: a transferred homotopy that drops the last nonzero
    # term of its series must miss the perturbation-lemma fixed point
    real = jetexp.fedosov.perturb_contraction

    def short_series(c, partial, max_terms):
        out = real(c, partial, max_terms)

        def h(w):
            terms = [c.h(w)]
            while terms[-1]:
                terms.append(-c.h(partial(terms[-1])))
            return sum(terms[:-2], GradedPoly.zero(w.chart))

        t = out.contraction
        return PerturbedContraction(
            ContractionData(t.sigma, t.tau, h, t.d_big, t.d_small), out.theta)

    monkeypatch.setattr(jetexp.fedosov, "perturb_contraction", short_series)
    statuses = perturbation_statuses()
    assert statuses["transferred-homotopy-matches"] == "FAIL"
    assert statuses["transferred-augmentation-matches"] == "PASS"


def test_resolution_computes_each_augmentation_once(monkeypatch):
    # the suite asks for the series augmentation of the same inputs in
    # several checks; each distinct input is summed once, and the routes
    # still agree
    seen = []
    real = jetexp.fedosov.FedosovData.tau_series

    def counted(fd, f):
        seen.append(f)
        return real(fd, f)
    monkeypatch.setattr(jetexp.fedosov.FedosovData, "tau_series", counted)
    chart, conn = build_chart("plane_curved")
    results = run_suite("resolution", chart, conn, seed=0, weight=3)
    assert all(r.status == "PASS" for r in results)
    assert seen and len(seen) == len(set(seen))


def test_resolution_forms_each_replacement_once(monkeypatch):
    # the suite calls tau_pbw on one context for every input; the
    # replacement cov(d_s, word) of each (slot, word) is formed once and
    # shared through the context's memo
    seen = []
    real = jetexp.pbw.coordinate_replacement

    def counted(conn, direction, index):
        seen.append((direction, tuple(index)))
        return real(conn, direction, index)
    monkeypatch.setattr(jetexp.pbw, "coordinate_replacement", counted)
    chart, conn = build_chart("mixed")
    results = run_suite("resolution", chart, conn, seed=0, weight=3)
    assert all(r.status == "PASS" for r in results)
    assert seen and len(seen) == len(set(seen))
