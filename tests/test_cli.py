import io
import json
import os
import subprocess
import sys
import time

import pytest

import jetexp
from jetexp.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CHART_DIR = os.path.join(ROOT, "charts")


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
    # a chart file that is not UTF-8 text: the line of the bad byte
    undecodable = tmp_path / "undecodable.chart"
    undecodable.write_bytes(b"\xff\xfe")
    capsys.readouterr()
    assert run("tau", "--chart", str(undecodable), "x") == (2, "")
    assert "(line 1)" in capsys.readouterr().err
    undecodable.write_bytes(b"[coordinates]\nx 0\n# caf\xe9\n")
    assert run("tau", "--chart", str(undecodable), "x") == (2, "")
    assert "byte 0xe9 is not UTF-8 text (line 3)" in capsys.readouterr().err
    # a misspelt flag, a repeated key or name, and a Christoffel table
    # that breaks a rule: each names its line (the second one of a
    # repeat, the least failing triple's entry of a table)
    coords = "[coordinates]\nx1 0\nx2 0\n"
    trunc = "[truncation]\nQ 3\nP 3\nB 6\n"
    for text, line in (
            (coords + trunc + "[flags]\ntorsion_free ture\n", 9),
            (coords + trunc + "[flags]\ntorsion_free no\ntorsion_free 1\n",
             10),
            (coords + trunc + "Q 4\n", 8),
            (coords + trunc + "P 3\n", 8),
            (coords + "[truncation]\nB 6\nQ 3\nP 3\nB 6\n", 8),
            ("[coordinates]\nx 0\nt 1\nx 2\n" + trunc, 4),
            # a name taken by a derived form name, a bound below its least
            ("[coordinates]\nx 0\ndx 0\n" + trunc, 3),
            (coords + "[truncation]\nQ 0\nP 3\nB 6\n", 5),
            ("[coordinates]\nx 0\nt 1\n" + trunc
             + "[christoffel]\n1 1 1 x\n2 2 2 x\n1 1 2 x\n", 11),
            (coords + trunc + "[christoffel]\n2 1 1 x2\n1 1 1 1\n", 9),
            # a mixed-degree entry
            ("[coordinates]\nx 0\nt 1\n" + trunc
             + "[christoffel]\n1 1 1 x + t\n", 9),
            (coords + trunc + "[christoffel]\n1 1 1 1\n2 1 2 x1\n"
             "1 2 1 x2\n1 2 1 -x2\n", 10),
            # a coordinate name that no expression can name
            ("[coordinates]\nx 0\nx^2 0\n" + trunc
             + "[christoffel]\n1 1 2 x^2\n", 3),
            ("[coordinates]\na-b 0\n" + trunc, 2),
            ("[coordinates]\nx 0\n1x 0\n" + trunc, 3)):
        bad.write_text(text)
        capsys.readouterr()
        assert run("fedosov", "--chart", str(bad)) == (2, "")
        assert "(line %d)" % line in capsys.readouterr().err
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
            (("pbw", "--chart", curved, "s[x]^99999999*x"), 3, ""),
            (("pbw", "--chart", curved, "s[x]^99999999*s[x]"), 3, ""),
            (("pbw", "--chart", curved, "--direction", "inv",
              "d[x]^99999999"), 3, ""),
            (("pbw", "--chart", mixed, "t^99999999"), 0, "0\n"),
            (("tau", "--chart", curved, "x^99999999"), 2, ""),
            # an operand's order is checked against the weight before the
            # product peels its word letter by letter
            (("pbw", "--chart", curved, "--direction", "inv",
              "d[x]^1500*x"), 3, ""),
            # a coefficient product past B, like a single power past it
            (("pbw", "--chart", curved, "x^4*x^5*s[x]"), 2, "")):
        start = time.perf_counter()
        assert run(*argv) == (want_code, want_text)
        assert time.perf_counter() - start < 2
    # a packed exponent field holds at most 32767: larger bounds are load
    # or usage errors at a position, and a product or a slot exchange
    # past the field is a truncation overflow in every subcommand
    head = "[coordinates]\nx 0\n[truncation]\nQ 2\nP 3\n"
    wide = tmp_path / "wide.chart"
    wide.write_text(head + "B 32767\n")
    wide_curved = tmp_path / "wide_curved.chart"
    wide_curved.write_text(head + "B 32767\n[christoffel]\n1 1 1 x^32767\n")
    for text, line in ((head + "B 32768\n", 6),
                       ("[coordinates]\nx 0\n[truncation]\nQ 99999\n", 4),
                       (head + "B 32767\n[christoffel]\n1 1 1 x^20000*x^20000\n",
                        8)):
        bad.write_text(text)
        for argv in (("fedosov",), ("tau", "x")):
            capsys.readouterr()
            start = time.perf_counter()
            assert run(argv[0], "--chart", str(bad), *argv[1:]) == (2, "")
            assert time.perf_counter() - start < 2
            assert "(line %d)" % line in capsys.readouterr().err
    for argv, want_code in (
            (("tau", "--chart", curved, "--max-weight", "32768", "x"), 2),
            (("verify", "--chart", curved, "--max-weight", "99999"), 2),
            (("tau", "--chart", str(wide), "x^20000*x^20000"), 3),
            (("tau", "--chart", str(wide), "--route", "series",
              "x^32767*x"), 3),
            (("pbw", "--chart", str(wide), "x^20000*x^20000*s[x]"), 3),
            (("verify", "--chart", str(wide_curved)), 3)):
        capsys.readouterr()
        start = time.perf_counter()
        assert run(*argv) == (want_code, "")
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert ("truncation overflow" if want_code == 3
                else "--max-weight") in err
    # the smallest accepted weight runs every suite; checks that need
    # two-letter words report SKIP
    code, text = run("verify", "--chart", curved, "--max-weight", "1")
    assert code == 0
    assert text.splitlines()[-1] == "VERIFY all PASS"
    assert "CHECK map-inverse-roundtrip SKIP" in text


def test_rejected_argv_leaves_the_parser_unchanged(capsys):
    # the parser is built once per process: a usage error must not leak
    # into the next command
    argv = ("tau", "--chart", chart("line_curved.chart"), "--route",
            "series", "x^2")
    alone = run(*argv), capsys.readouterr()
    for bad in (["tau", "--route", "nowhere", "x"], ["--chart"], []):
        with pytest.raises(SystemExit) as exc:
            main(bad, out=io.StringIO())
        assert exc.value.code == 2
        capsys.readouterr()
        assert (run(*argv), capsys.readouterr()) == alone


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


def test_verify_coalgebra_on_primed_coordinate_names(tmp_path):
    # the tensor-square chart adds a primed copy of each coordinate; a
    # chart that already names x' makes the copies take more primes
    primed = tmp_path / "primed.chart"
    primed.write_text("[coordinates]\nx 0\nx' 0\n"
                      "[truncation]\nQ 4\nP 3\nB 6\n"
                      "[christoffel]\n1 1 2 x\n2 2 1 x\n")
    code, text = run("verify", "--chart", str(primed), "--suite", "coalgebra")
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


def test_verify_matches_shipped_reference():
    # every command of the shipped-cli reference on every shipped chart,
    # exit code and stdout byte for byte: pbw, tau and fedosov outputs,
    # and every verify suite's check names, their order and the SKIP
    # lines of the torsionful chart
    path = os.path.join(ROOT, "perfbench", "reference", "shipped-cli.json")
    with open(path, encoding="utf-8") as handle:
        commands = json.load(handle)["commands"]
    assert len(commands) == 238
    for cmd in commands:
        argv = [os.path.join(ROOT, a) if a.endswith(".chart")
                else "1" if a == "{seed}" else a for a in cmd["argv"]]
        assert run(*argv) == (cmd["rc"], cmd["stdout"]), cmd["argv"]


def test_fedosov_and_series_tau_report_a_failed_solve(monkeypatch, capsys):
    # negative controls, as for verify: D's table with +dx_k in every y_k
    # image fails the solve's confirming pass, and a raising map doubled
    # on terms above the weight fails only the top-layer guard of the
    # correction read; either failure is one error line and exit 1, with
    # nothing on stdout and no traceback
    import jetexp.fedosov as fedosov
    from jetexp.chartfile import load_chart_file
    real_raise = fedosov.delta_inv_op

    def flipped(chart, images):
        out = dict(images)
        for k in range(chart.n):
            out[chart.y_slot(k)] = images[chart.y_slot(k)] + \
                jetexp.GradedPoly.generator(chart, chart.dx_slot(k))
        return out

    def doubled_above(weight):
        def doubling(f, max_weight=None):
            out = real_raise(f, max_weight)
            return out * 2 if f.up_to_weight(weight) != f else out
        return doubling
    curved, mixed = chart("plane_curved.chart"), chart("mixed_parity.chart")
    weight = load_chart_file(mixed)[0].truncation.max_sym_weight
    cases = [("_less_delta", flipped, ("fedosov", "--chart", curved),
              "correction recursion did not stabilize"),
             ("_less_delta", flipped,
              ("tau", "--chart", curved, "--route", "series", "x1"),
              "correction recursion did not stabilize"),
             ("delta_inv_op", doubled_above(weight),
              ("fedosov", "--chart", mixed), "top layer does not solve")]
    for name, patched, argv, message in cases:
        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(fedosov, name, patched)
            assert run(*argv) == (1, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("error: flat structure not built: " + message)
        assert err.count("\n") == 1 and err.endswith("\n"), err
    # the top layer is not read on the series route
    with monkeypatch.context() as patch:
        patch.setattr(fedosov, "delta_inv_op", doubled_above(weight))
        code, text = run("tau", "--chart", mixed, "--route", "series", "x")
    assert code == 0 and text


def test_verify_reports_a_broken_solve_as_fail(monkeypatch, capsys):
    # one layer of the correction solve skewed, as in
    # test_confirming_pass_rejects_a_bad_layer: the flat structure fails
    # to build inside a suite, outside any check, and verify prints that
    # suite's FAIL line and exits 1 with no traceback
    import jetexp.fedosov as fedosov
    real = fedosov.delta_inv_op
    skewed_once = []

    def skewed(f, max_weight=None):
        out = real(f, max_weight)
        if out and not skewed_once:
            skewed_once.append(out)
            return out * 2
        return out
    monkeypatch.setattr(fedosov, "delta_inv_op", skewed)
    code, text = run("verify", "--chart", chart("plane_curved.chart"),
                     "--suite", "all")
    assert code == 1
    assert ("CHECK flat-connection FAIL raised FlatStructureError: "
            "correction recursion did not stabilize\n") in text
    assert text.endswith("VERIFY all FAIL\n")
    assert "Traceback" not in capsys.readouterr().err


def test_verify_reports_a_raising_check_as_fail(monkeypatch, capsys):
    # a letter_sign that ignores the crossed odd letters: on two_odd
    # peeling a symbol raises inside a check, which is that check's FAIL
    import jetexp.geometry as geometry
    import jetexp.pbw as pbw
    real = pbw.letter_sign

    def mutant(chart, slot, word):
        return real(chart, slot, word) and 1
    monkeypatch.setattr(pbw, "letter_sign", mutant)
    monkeypatch.setattr(geometry, "letter_sign", mutant)
    code, text = run("verify", "--chart", chart("two_odd.chart"),
                     "--suite", "all")
    assert code == 1
    assert " raised AssertionError: " in text
    assert text.endswith("VERIFY all FAIL\n")
    assert "Traceback" not in capsys.readouterr().err


def test_shipped_reference_reads_no_word_view(monkeypatch):
    # inside the package a word is its packed fiber key: with the
    # multi-index -> coefficient view unreadable, every command of the
    # shipped-cli reference prints the same bytes
    from jetexp.enveloping import _IndexedSum

    def forbidden(self):
        raise AssertionError("word view read")
    monkeypatch.setattr(_IndexedSum, "terms", property(forbidden))
    test_verify_matches_shipped_reference()


def test_output_determinism():
    first = run("fedosov", "--chart", chart("plane_curved.chart"))
    second = run("fedosov", "--chart", chart("plane_curved.chart"))
    assert first == second
    first = run("verify", "--chart", chart("line_curved.chart"),
                "--suite", "resolution", "--max-weight", "3")
    second = run("verify", "--chart", chart("line_curved.chart"),
                 "--suite", "resolution", "--max-weight", "3")
    assert first == second


def test_long_word_image_stays_fast():
    # one recursion term per distinct letter: each word s[x]^k on the way is
    # one term, not k equal ones
    start = time.perf_counter()
    code, text = run("pbw", "--max-weight", "40", "--chart",
                     chart("line_curved.chart"), "s[x]^32")
    assert time.perf_counter() - start < 3
    assert code == 0
    assert text.startswith("d[x]^32 - 496*x*d[x]^31")


def test_long_word_image_needs_no_deep_recursion():
    # the word symbols are filled from a work stack, not by recursion, so
    # a word of weight 150 maps under a recursion limit of 200
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys; sys.setrecursionlimit(200); "
            "from jetexp.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "pbw", "--max-weight", "155", "--chart",
         chart("line_curved.chart"), "s[x]^150"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout.startswith("d[x]^150 - 11175*x*d[x]^149")


def test_each_command_imports_only_the_modules_it_runs():
    # every call is a fresh process, so a module a command never reaches
    # must not be imported (and, without cached bytecode, compiled) by it
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = """if True:
        import io, json, sys
        import jetexp, jetexp.chartfile, jetexp.cli

        def loaded():
            return sorted(m for m in sys.modules if m.startswith("jetexp."))

        steps = [loaded()]
        for argv in (["pbw", "--chart", sys.argv[1], "s[x]^2"],
                     ["tau", "--route", "pbw", "--chart", sys.argv[1], "x"]):
            assert jetexp.cli.main(argv, io.StringIO()) == 0
            steps.append(loaded())
        names = {}
        exec("from jetexp import *", names)
        print(json.dumps({
            "steps": steps,
            "star": sorted(n for n in jetexp.__all__ if n in names),
            "same": [jetexp.PbwContext is jetexp.pbw.PbwContext,
                     jetexp.FedosovData is jetexp.fedosov.FedosovData]}))
    """
    proc = subprocess.run(
        [sys.executable, "-c", code, chart("line_curved.chart")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr[-500:]
    seen = json.loads(proc.stdout)
    imported, after_pbw, after_tau = (set(s) for s in seen["steps"])
    lazy = {"jetexp." + m for m in ("pbw", "fedosov", "perturbation",
                                    "verify", "randomgen")}
    assert imported & lazy == set()
    assert after_pbw - imported == {"jetexp.pbw"}
    assert after_tau & {"jetexp.verify", "jetexp.randomgen"} == set()
    assert seen["star"] == sorted(jetexp.__all__)
    assert seen["same"] == [True, True]
