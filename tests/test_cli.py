import io
import os
import time

from jetexp.cli import main

CHART_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "charts")


def chart(name):
    return os.path.join(CHART_DIR, name)


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_pbw_forward_golden():
    code, text = run("pbw", "--chart", chart("line_curved.chart"),
                     "s[x]^2", "--direction", "fwd")
    assert code == 0
    assert text == "d[x]^2 - x*d[x]\n"


def test_pbw_inverse_golden():
    code, text = run("pbw", "--chart", chart("line_curved.chart"),
                     "d[x]^2", "--direction", "inv")
    assert code == 0
    assert text == "s[x]^2 + x*s[x]\n"


def test_pbw_identity_on_constants():
    code, text = run("pbw", "--chart", chart("line_curved.chart"), "1")
    assert code == 0 and text == "1\n"


def test_pbw_output_reparses_to_equal_value():
    from jetexp.chartfile import load_chart_file
    from jetexp.grammar import parse_diffop
    from jetexp.pbw import PbwContext
    code, text = run("pbw", "--chart", chart("mixed_parity.chart"),
                     "s[x]^2*s[t]", "--direction", "fwd")
    assert code == 0
    ch, conn = load_chart_file(chart("mixed_parity.chart"))
    ctx = PbwContext(ch, conn)
    want = ctx.map(__import__("jetexp.grammar", fromlist=["parse_symtensor"])
                   .parse_symtensor(ch, "s[x]^2*s[t]"))
    assert parse_diffop(ch, text.strip()) == want


def test_tau_taylor_golden():
    code, text = run("tau", "--chart", chart("line_flat.chart"), "x^2")
    assert code == 0
    assert text == "x^2 + 2*x*y + y^2\n"
    code, text = run("tau", "--chart", chart("line_flat.chart"), "5")
    assert code == 0 and text == "5\n"


def test_tau_routes_print_identically():
    for f in ("x^2", "x^3 - 2*x"):
        code1, text1 = run("tau", "--chart", chart("line_curved.chart"), f,
                           "--route", "pbw")
        code2, text2 = run("tau", "--chart", chart("line_curved.chart"), f,
                           "--route", "series")
        assert code1 == code2 == 0
        assert text1 == text2


def test_tau_curved_line_has_expected_weight_two_terms():
    code, text = run("tau", "--chart", chart("line_curved.chart"), "x^2")
    assert code == 0
    body = text.strip()
    assert "x^2" in body and "2*x*y" in body
    assert "- x^2*y^2" in body and "+ y^2" in body


def test_fedosov_flat_and_curved():
    code, text = run("fedosov", "--chart", chart("line_flat.chart"))
    assert code == 0
    assert text == "D2_RESIDUAL 0\n"
    code, text = run("fedosov", "--chart", chart("line_curved.chart"))
    assert code == 0
    assert text == "D2_RESIDUAL 0\n"


def test_fedosov_curved_plane_records_golden():
    code, text = run("fedosov", "--chart", chart("plane_curved.chart"))
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[-1] == "D2_RESIDUAL 0"
    records = lines[:-1]
    assert records == [
        "A i=1 J=(1,1) k=2 coeff=-1/3",
        "A i=1 J=(3,1) k=2 coeff=-1/45",
        "A i=2 J=(2,0) k=2 coeff=1/3",
        "A i=2 J=(4,0) k=2 coeff=1/45",
    ]


def test_fedosov_records_match_minus_dual_form_route():
    # dual-route golden: regenerate the records from the transpose form
    from jetexp.chartfile import load_chart_file
    from jetexp.fedosov import vvf_records
    from jetexp.pbw import PbwContext, xi_form
    from jetexp.grammar import format_poly
    ch, conn = load_chart_file(chart("plane_curved.chart"))
    ctx = PbwContext(ch, conn, max_weight=ch.truncation.max_sym_weight + 1)
    xi = xi_form(ctx)
    want = ["A i=%d J=(%s) k=%d coeff=%s"
            % (i, ",".join(str(e) for e in fiber), k, format_poly(-poly))
            for i, fiber, k, poly in vvf_records(xi)]
    code, text = run("fedosov", "--chart", chart("plane_curved.chart"))
    assert text.strip().splitlines()[:-1] == want


def test_fedosov_text_output_mode():
    code, text = run("fedosov", "--chart", chart("plane_curved.chart"),
                     "--output", "text")
    assert code == 0
    assert "d/dy2" in text and "D2_RESIDUAL 0" in text


def test_parse_error_reports_position(capsys):
    code, _ = run("pbw", "--chart", chart("line_flat.chart"), "s[x]^^")
    assert code == 2
    err = capsys.readouterr().err
    assert "position" in err


def test_exit_codes(tmp_path, capsys):
    code, _ = run("pbw", "--chart", chart("line_flat.chart"), "s[x]^^")
    assert code == 2
    code, _ = run("pbw", "--chart", chart("line_flat.chart"), "s[x]^9")
    assert code == 3
    code, _ = run("fedosov", "--chart", chart("plane_torsion.chart"))
    assert code == 4
    code, _ = run("tau", "--chart", chart("line_flat.chart"), "y")
    assert code == 2
    bad = tmp_path / "broken.chart"
    bad.write_text("[coordinates]\nx zero\n")
    code, _ = run("pbw", "--chart", str(bad), "1")
    assert code == 2
    code, _ = run("pbw", "--chart", str(tmp_path / "missing.chart"), "1")
    assert code == 2
    # weight bounds below 1: a usage error, not a wrong answer or a crash
    curved = chart("line_curved.chart")
    for argv in (("tau", "--route", "series", "--max-weight", "-1", "x^2"),
                 ("tau", "--route", "series", "--max-weight", "-5", "x^2"),
                 ("verify", "--max-weight", "0")):
        capsys.readouterr()
        code, text = run(argv[0], "--chart", curved, *argv[1:])
        assert code == 2 and text == ""
        assert "--max-weight" in capsys.readouterr().err
    # a zero denominator and a non-base coefficient are parse errors at a
    # position, not exit 1 (reserved for a failed identity)
    for expr in ("1/0", "s[x]^2*dx"):
        capsys.readouterr()
        code, _ = run("pbw", "--chart", curved, expr)
        assert code == 2
        assert "position" in capsys.readouterr().err
    # huge exponents are checked before any product is formed: an even
    # generator past its chart bound is a parse error, a bracket power
    # past the weight a truncation overflow, an odd square zero
    mixed = chart("mixed_parity.chart")
    for argv, want_code, want_text in (
            (("pbw", "--chart", curved, "x^99999999"), 2, ""),
            (("pbw", "--chart", curved, "s[x]^99999999"), 3, ""),
            (("pbw", "--chart", curved, "--direction", "inv",
              "d[x]^99999999"), 3, ""),
            (("pbw", "--chart", mixed, "t^99999999"), 0, "0\n"),
            (("tau", "--chart", curved, "x^99999999"), 2, "")):
        start = time.perf_counter()
        assert run(*argv) == (want_code, want_text)
        assert time.perf_counter() - start < 2
    # the smallest accepted weight runs every suite; checks that need
    # two-letter words report SKIP
    code, text = run("verify", "--chart", curved, "--max-weight", "1")
    assert code == 0
    assert text.splitlines()[-1] == "VERIFY all PASS"
    assert "CHECK map-inverse-roundtrip SKIP" in text


def test_verify_suites_pass_on_shipped_charts():
    for name in ("line_curved.chart", "plane_curved.chart"):
        code, text = run("verify", "--chart", chart(name), "--suite", "all",
                         "--max-weight", "3")
        assert code == 0, text
        assert "FAIL" not in text
        assert text.strip().splitlines()[-1] == "VERIFY all PASS"


def test_verify_three_degree_chart_coalgebra():
    code, text = run("verify", "--chart", chart("three_degrees.chart"),
                     "--suite", "coalgebra")
    assert code == 0
    assert text == ("CHECK comultiplication-intertwines-map PASS\n"
                    "VERIFY coalgebra PASS\n")


def test_verify_single_suite_line_format():
    code, text = run("verify", "--chart", chart("line_curved.chart"),
                     "--suite", "coalgebra")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("CHECK comultiplication-intertwines-map PASS")
    assert lines[-1] == "VERIFY coalgebra PASS"


def test_verify_skips_on_torsionful_chart():
    code, text = run("verify", "--chart", chart("plane_torsion.chart"),
                     "--suite", "symbols")
    assert code == 0
    assert "SKIP" in text and "FAIL" not in text


def test_output_determinism():
    first = run("fedosov", "--chart", chart("plane_curved.chart"))
    second = run("fedosov", "--chart", chart("plane_curved.chart"))
    assert first == second
    first = run("verify", "--chart", chart("line_curved.chart"),
                "--suite", "resolution", "--max-weight", "3")
    second = run("verify", "--chart", chart("line_curved.chart"),
                 "--suite", "resolution", "--max-weight", "3")
    assert first == second
