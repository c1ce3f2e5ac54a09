"""Named verification suites over a chart + connection.

Each suite runs a family of exact identities on seeded random data and
returns a list of check results (``perturbation.CheckResult``, each
built by ``perturbation.run_check``, the runner the contraction checks
use too); a FAIL carries a printable witness.  Every suite takes (a
session, seed), and ``run_suite`` looks them up in one table: it
resolves a missing weight to the chart's Q, and on a torsionful
connection it returns a single SKIP entry for each suite whose
statements need a torsion-free one instead of running it.  A broken
program reports FAIL, not a traceback: an exception inside a check is
that check's FAIL (``run_check``), and one raised by a suite outside
its checks is one FAIL line named after the suite.

Suites:

  coalgebra        comultiplication intertwines the exponential map
  symbols          filtration, symbol map, and the two-term leading
                   expansions of the map and its inverse
  flat-connection  the correction form equals minus the dual correction
                   form, normalizations, and flatness of the structure
                   operator
  resolution       both augmentation routes agree and the contraction
                   identities of the flat complex hold
  perturbation     the lowering-map contraction holds, and the flat
                   structure's transfer through it (the series behind
                   FedosovData.tau_series and homotopy_h) is checked
                   against references outside the series engine: the
                   augmentation against the exponential-map route
                   tau_pbw, the projection against sigma_aug, and the
                   homotopy against the perturbation-lemma fixed point
                   h' = h - h.partial.h' in the unperturbed maps

One ``run_suite`` call builds one session (``_Session``) and passes it
to every suite it runs, so the five suites of ``all`` share its flat
structure, its context and its memos: they draw overlapping samples from
the same seed, and a value one suite computed is read by the next.  The
session is dropped when the call returns; nothing outlives it.
``perturbation.run_check`` runs each distinct sample once (the drawn
words repeat).  Both augmentation routes are linear over constants, so
each is evaluated once per distinct base monomial and a function's
augmentation is one ``combine`` of those columns (``_columns``): the
series augmentation and tau_pbw, each in a table of its own.  The flat
operator D is applied once per distinct argument: the flat
contraction's differential is a memo of ``FedosovData.d_apply``, which
holds D's own values only, and every suite reads it.  The
flat-connection suite builds its own dnabla table and projects full
products afterwards.  No route reads another's table, so the
independent routes (tau_pbw against the series, the projected full
products against D) stay independent.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Callable, List

from .chart import FIELD_MASK, Chart
from .enveloping import (DiffOp, SymTensor, comult_env, comult_sym,
                         fiber_parts, fiber_sum_powers, square_words,
                         symbol_sign, to_square, word_symbol)
from .fedosov import (FedosovData, base_contraction, delta_inv_op, delta_op,
                      dnabla_images, project_weight, sigma_aug, tau_pbw,
                      vvf_action)
from .geometry import Connection
from .pbw import PbwContext, xi_form
from .perturbation import (CheckResult, ContractionData, check_contraction,
                           run_check)
from .poly import (GradedPoly, TruncationOverflowError, combine,
                   unpack_monomial)
from .randomgen import (random_base_poly, random_section, random_symtensor,
                        random_word)


def _memo(fn: Callable) -> Callable:
    """``fn`` computed once per distinct argument, for as long as the
    memo lives."""
    values = {}

    def call(x):
        # one hash per call; the memoized values are never None
        value = values.get(x)
        if value is None:
            value = values[x] = fn(x)
        return value
    return call


def _columns(chart: Chart, fn: Callable) -> Callable:
    """A linear map ``fn`` on polynomials over ``chart``, computed once
    per distinct monomial for as long as the map lives: f = sum_k
    (nums_k / den) m_k maps to sum_k (nums_k / den) fn(m_k), one
    ``combine``."""
    column = _memo(lambda key: fn(GradedPoly._of(chart, {key: 1})))
    return lambda f: combine(
        chart, [(num, column(key)) for key, num in f.nums.items()], f.den)


class _Session:
    """What the suites of one ``run_suite`` call share, each part built
    on first use: the flat structure ``fd`` (so a torsionful chart,
    where only the coalgebra suite runs, never solves it, and a solve
    that raised is not run again), one context capped at weight + 1
    (the cap only bounds arguments, and every suite's inputs fit under
    it), memos of its ``map`` and ``inv`` and of the coalgebra check's
    word images and their squares, the flat contraction (whose
    differential is a memo of D and whose series augmentation is the
    transfer's) and the tau_pbw columns.  Each route keeps a table of
    its own, and the session is dropped when the call returns."""

    def __init__(self, chart: Chart, conn: Connection, weight: int):
        self.chart = chart
        self.conn = conn
        self.weight = weight
        self._fd = None  # the flat structure, or what its build raised

    @cached_property
    def ctx(self) -> PbwContext:
        return PbwContext(self.chart, self.conn, max_weight=self.weight + 1)

    @cached_property
    def map(self) -> Callable:
        return _memo(self.ctx.map)

    @cached_property
    def inv(self) -> Callable:
        return _memo(self.ctx.inv)

    @cached_property
    def powers(self) -> Callable:
        return fiber_sum_powers(self.chart)

    @cached_property
    def images(self) -> Callable:
        """Word K -> sigma(exp y^K), y^K being rho(K) d^K, and its
        right-slot move, through ``ctx.word_image`` (by multi-index)."""
        def images(word):
            n = self.chart.n
            index = unpack_monomial(self.chart, word)[n:2 * n]
            sigma = self.ctx.word_image(index).symbol()
            sigma = sigma if symbol_sign(self.chart, word) > 0 else -sigma
            return sigma, to_square(sigma, right=True)
        return _memo(images)

    @property
    def fd(self) -> FedosovData:
        """The flat structure, built on first use.  A build that raised
        raises the same exception on every later use, with no second
        solve, so each suite that needs it still ends in its own FAIL
        line."""
        fd = self._fd
        if fd is None:
            try:
                fd = self._fd = FedosovData(self.conn, self.weight)
            except Exception as exc:
                self._fd = exc
                raise
        if isinstance(fd, Exception):
            raise fd
        return fd

    @cached_property
    def flat(self) -> ContractionData:
        return flat_contraction(self.fd)

    @cached_property
    def tau_pbw_columns(self) -> Callable:
        return _columns(self.chart,
                        lambda f: tau_pbw(self.ctx, f, self.weight))


# ---------------------------------------------------------------------------

def morphism_sides(session: _Session, tensor: SymTensor):
    """Both sides of the comultiplication identity for the map as square
    symbols (``enveloping`` module docstring), Delta exp(t) and
    (exp (x) exp) Delta(t); the latter maps each y^L y'^R of Delta(t) to
    exp(y^L) (x) exp(y^R).  The map is left-linear and the tensor
    product additive in each slot, so the left factors of each R are
    summed first, and the right side is one ``combine`` of each sum
    times the moved exp(y^R)."""
    chart = session.chart
    delta = comult_sym(tensor, session.powers)
    lefts = {}  # R -> entries of its summed left factor
    for fiber, nums in fiber_parts(delta).items():
        left, right = square_words(chart, fiber)
        lefts.setdefault(right, []).append(
            (1, GradedPoly._of(chart, nums), session.images(left)[0]))
    rhs = combine(delta.chart, [
        (1, to_square(combine(chart, entries)), session.images(right)[1])
        for right, entries in lefts.items()], delta.den)
    return comult_env(session.map(tensor), session.powers), rhs


def suite_coalgebra(session: _Session, seed: int) -> List[CheckResult]:
    rng = random.Random(seed)
    weight = min(session.weight, 5)
    tensors = [random_symtensor(rng, session.chart, weight)
               for _ in range(40)]

    def test(t):
        lhs, rhs = morphism_sides(session, t)
        return lhs == rhs

    return [run_check("comultiplication-intertwines-map", tensors, test)]


# ---------------------------------------------------------------------------

def _word(chart: Chart, letters) -> GradedPoly:
    """Symbol of the word of a letter list, by the checked constructor
    ``DiffOp.from_word``.  The suites draw descending letters with no
    odd letter repeated, as ``random_word`` does, so the product
    d_{l_1} o d_{l_2} o ... of constant coordinate derivations is this
    word, with no sign."""
    index = [letters.count(s) for s in range(chart.n)]
    return DiffOp.from_word(chart, index).symbol()


def _pair_counts(chart: Chart, word: int) -> dict:
    """Letter pair (a, b), a >= b, of the descending ``word`` -> the
    signed number of its position pairs: m_a m_b, or m_a (m_a - 1)/2
    when a = b, each moved to the end of the word with the Koszul sign
    (-1)^(p_a (o_a - p_b) + p_b o_b), p_s the parity of d_s and o_s the
    number of odd letters below slot s, counted off the key's
    ``odd_low`` bits.  The rule is the check's own, not ``letter_sign``,
    so that the check stays independent of the map."""
    n, odd = chart.n, word & chart.odd_low
    letters = []  # (slot, multiplicity, parity, odd letters below)
    for s in range(n):
        shift = chart.shifts[n + s]
        mult = word >> shift & FIELD_MASK
        if mult:
            letters.append((s, mult, odd >> shift & 1,
                            (odd & (1 << shift) - 1).bit_count()))
    counts = {}
    for i, (a, m_a, p_a, o_a) in enumerate(letters):
        for b, m_b, p_b, o_b in letters[:i + 1]:
            pairs = m_a * (m_a - 1) // 2 if a == b else m_a * m_b
            if pairs:
                crossings = p_a * (o_a - p_b) + p_b * o_b
                counts[a, b] = -pairs if crossings & 1 else pairs
    return counts


def _leading_two_term(session: _Session, letters, invert: bool):
    """The two-term expansion residual of the map (or its inverse) on a
    coordinate word of L factors: the word's product corrected by the
    signed sum of covariant-derivative contractions must agree with the
    map through the top *two* filtration layers (residual order at most
    L - 2).  The correction is formed on the side the direction checks:
    as symmetric tensors for the inverse, as operators for the map.

    The contraction of positions j < k depends on the positions only
    through its Koszul sign (moving letters j and k to the end): the
    field, the rest word and the term are those of the letter pair
    (a, b).  So each distinct pair's term is built once and scaled by
    its signed count (``_pair_counts``).  The field is the pair's
    Christoffel row, with symbol sum_k Gamma^k_ab y_k, one ``combine``,
    appended as the last factor.  The map and its inverse are the
    session's memos."""
    chart, rows = session.chart, session.conn.rows
    fiber = chart.unit[chart.n:2 * chart.n]
    length = len(letters)
    product = DiffOp.from_symbol(_word(chart, letters))
    word = SymTensor.from_symbol(product.symbol())
    key = sum([fiber[s] for s in letters])
    kind = SymTensor if invert else DiffOp
    correction = kind.zero(chart)
    for (a, b), count in _pair_counts(chart, key).items():
        if (a, b) not in rows:
            continue
        head = kind.from_symbol(word_symbol(chart, key - fiber[a] - fiber[b]))
        tail = kind.from_symbol(combine(chart, [
            (1, word_symbol(chart, fiber[k], gam)) for k, gam in rows[a, b]]))
        term = head * tail if invert else head.compose(tail)
        correction = correction + term.scale(count)
    if invert:
        residual = session.inv(product) - word - correction
        return residual.weight_le(length - 2) == residual
    residual = session.map(word) - product + correction
    if not residual:
        return True
    return residual.order() <= length - 2


def suite_symbols(session: _Session, seed: int) -> List[CheckResult]:
    rng = random.Random(seed)
    chart = session.chart
    weight = min(session.weight, 5)
    # the checks map and invert the same words again and again
    map_, inv = session.map, session.inv

    tensors = [t for t in (random_symtensor(rng, chart, weight)
                           for _ in range(30)) if t]
    res = [run_check("symbol-of-map-is-identity", tensors,
                     lambda t: _symbol_check(map_, t))]

    if weight < 2:
        return res + [CheckResult(name, "SKIP", "needs words of two letters; "
                                  "weight bound is %d" % weight)
                      for name in ("two-term-leading-expansion",
                                   "two-term-leading-expansion-inverse",
                                   "map-inverse-roundtrip")]
    words = [random_word(rng, chart, rng.randrange(2, weight + 1))
             for _ in range(30)]
    words = [w for w in words if w]
    res.append(run_check("two-term-leading-expansion", words,
                         lambda w: _leading_two_term(session, w, False)))
    res.append(run_check("two-term-leading-expansion-inverse", words,
                         lambda w: _leading_two_term(session, w, True)))
    res.append(run_check("map-inverse-roundtrip", words,
                         lambda w: _roundtrip(chart, map_, inv, w)))
    return res


def _symbol_check(map_: Callable, tensor: SymTensor) -> bool:
    top = tensor.weight()
    op = map_(tensor)
    return op.gr_leading() == tensor.weight_part(top) and \
        (op.order() or 0) <= top


def _roundtrip(chart: Chart, map_: Callable, inv: Callable,
               letters) -> bool:
    op = DiffOp.from_symbol(_word(chart, letters))
    word = SymTensor.from_symbol(op.symbol())
    return inv(map_(word)) == word and map_(inv(op)) == op


# ---------------------------------------------------------------------------

def suite_flat_connection(session: _Session, seed: int) -> List[CheckResult]:
    rng = random.Random(seed)
    chart, weight, fd = session.chart, session.weight, session.fd
    d = session.flat.d_big
    xi = xi_form(session.ctx, weight)

    res = [CheckResult("correction-equals-minus-dual-form",
                       "PASS" if all(a == -b for a, b in
                                     zip(fd.correction, xi)) else "FAIL",
                       None)]
    res.append(CheckResult(
        "raising-normalization",
        "PASS" if all(not delta_inv_op(c) for c in fd.correction)
        and all(not delta_inv_op(c) for c in xi) else "FAIL", None))

    # the 3n generators first: both checks compare derivations, so on
    # the generators they are complete in the jet quotient, and they
    # cover every image of D's table (the fedosov command's residual
    # reads the solve's products, not that table)
    sections = [GradedPoly.generator(chart, s) for s in range(3 * chart.n)]
    sections += [random_section(rng, chart, weight) for _ in range(15)]
    res.append(run_check("flat-operator-squares-to-zero", sections,
                         lambda w: not d(d(w))))
    # full products projected afterwards, with the suite's own dnabla
    # table: independent of the capped products inside d_apply
    dnabla = dnabla_images(session.conn)
    res.append(run_check(
        "flat-operator-is-lower-plus-dual-correction", sections,
        lambda w: d(w) == project_weight(
            -delta_op(w) + w.derive(dnabla) - vvf_action(xi, w), weight)))
    return res


# ---------------------------------------------------------------------------

def suite_resolution(session: _Session, seed: int) -> List[CheckResult]:
    rng = random.Random(seed)
    chart, weight = session.chart, session.weight

    # the contraction's series augmentation, homotopy and differential are
    # memos, so each monomial (each section) is summed or applied once per
    # session; tau_pbw keeps its own columns and never reads the series ones
    contraction = session.flat
    tau, h, d = contraction.tau, contraction.h, contraction.d_big
    pbw = session.tau_pbw_columns

    funcs = [random_base_poly(rng, chart, 2, 3) for _ in range(20)]
    res = [run_check("augmentation-routes-agree", funcs,
                     lambda f: tau(f) == pbw(f))]
    res.append(run_check("augmentation-splits-projection", funcs,
                         lambda f: sigma_aug(tau(f)) == f))
    res.append(run_check("augmentation-is-flat", funcs,
                         lambda f: not d(tau(f))))
    pairs = list(zip(funcs[::2], funcs[1::2]))
    res.append(run_check(
        "augmentation-is-multiplicative", pairs,
        lambda fg: project_weight(tau(fg[0]) * tau(fg[1]), weight)
        == tau(fg[0] * fg[1])))

    sections = [random_section(rng, chart, weight) for _ in range(20)]
    res += [r._replace(name="flat-" + r.name)
            for r in check_contraction(contraction, sections, funcs)]

    closed = [d(random_section(rng, chart, weight - 1)) for _ in range(20)]
    res.append(run_check("closed-sections-are-exact", closed,
                         lambda w: d(h(w)) == w))
    return res


def flat_contraction(fd: FedosovData) -> ContractionData:
    """The contraction of the flat complex onto base functions, with the
    series ``fd.tau_series`` summed once per distinct monomial and
    ``fd.homotopy_h`` and the flat operator ``fd.d_apply`` once per
    distinct section, for as long as the contraction lives."""
    return ContractionData(
        sigma=sigma_aug,
        tau=_columns(fd.chart, fd.tau_series),
        h=_memo(fd.homotopy_h),
        d_big=_memo(fd.d_apply),
        d_small=lambda f: GradedPoly.zero(fd.chart),
    )


def suite_perturbation(session: _Session, seed: int) -> List[CheckResult]:
    rng = random.Random(seed)
    chart, weight, fd = session.chart, session.weight, session.fd
    base = base_contraction(chart, weight)

    sections = [random_section(rng, chart, weight) for _ in range(12)]
    funcs = [random_base_poly(rng, chart, 2, 3) for _ in range(12)]
    res = [r._replace(name="lowering-" + r.name)
           for r in check_contraction(base, sections, funcs)]

    perturbed, theta = fd.transfer
    # each route in the session's columns of its own: the flat
    # contraction's series augmentation is the transfer's
    tau, pbw = session.flat.tau, session.tau_pbw_columns

    def homotopy_fixed_point(w):
        # h'(w) = h(w) - h(partial(h'(w))), in the unperturbed maps only
        h_w = perturbed.h(w)
        return h_w == base.h(w) - base.h(fd.perturbation(h_w))

    res.append(run_check(
        "transferred-augmentation-matches", funcs,
        lambda f: tau(f) == pbw(f)))
    res.append(run_check("transferred-projection-is-projection", sections,
                         lambda w: perturbed.sigma(w) == sigma_aug(w)))
    res.append(run_check("transferred-homotopy-matches", sections,
                         homotopy_fixed_point))
    res.append(run_check("transferred-small-perturbation-vanishes", funcs,
                         lambda f: not theta(f)))
    return res


# ---------------------------------------------------------------------------

def _suites() -> dict:
    """Suite name -> (suite, the name of its SKIP entry on a torsionful
    connection, or None when it runs on any connection).  Built on each
    call, so that a suite replaced in this module (by a tracer, say) is
    the one that runs."""
    return {
        "coalgebra": (suite_coalgebra, None),
        "symbols": (suite_symbols, "leading-terms"),
        "flat-connection": (suite_flat_connection, "flat-connection"),
        "resolution": (suite_resolution, "resolution"),
        "perturbation": (suite_perturbation, "perturbation"),
    }


SUITE_NAMES = tuple(_suites())


def run_suite(name: str, chart: Chart, conn: Connection, seed: int = 0,
              weight: int = None) -> List[CheckResult]:
    """The named suite, or ``all`` of them in order, at ``weight`` (by
    default the chart's Q), sharing one session.  An exception that a
    suite raises outside any check (a flat structure that fails to
    build, say) ends that suite in one FAIL line named after it; a
    truncation overflow propagates."""
    if name != "all" and name not in SUITE_NAMES:
        raise ValueError("unknown suite %r" % name)
    if weight is None:
        weight = chart.truncation.max_sym_weight
    session = _Session(chart, conn, weight)
    suites = _suites()
    results = []
    for suite_name in SUITE_NAMES if name == "all" else (name,):
        suite, gated = suites[suite_name]
        if gated and not conn.torsion_free:
            results.append(CheckResult(gated, "SKIP",
                                       "requires a torsion-free connection"))
            continue
        try:
            results += suite(session, seed)
        except TruncationOverflowError:
            raise
        except Exception as exc:  # outside any check: one FAIL line
            results.append(CheckResult(suite_name, "FAIL", "raised %s: %s"
                                       % (type(exc).__name__, exc)))
    return results
