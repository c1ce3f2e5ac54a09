"""Named verification suites over a chart + connection.

Each suite runs a family of exact identities on seeded random data and
returns a list of check results; a FAIL carries a printable witness.
Suites whose statements require a torsion-free connection return a
single SKIP entry on torsionful input instead of failing.

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

Work shared between the checks of a suite is memoized inside one suite
call and dropped when it returns: the resolution suite sums the series
augmentation and the homotopy of each input once, and the flat-connection
suite builds its dnabla table once.  Nothing is cached across calls, and
the memos hold series values only, so the independent routes (tau_pbw,
the projected full products) are never read from them.
"""

from __future__ import annotations

import random
from typing import Callable, List, NamedTuple, Optional

from .chart import Chart, koszul_sign
from .enveloping import (DiffOp, SymTensor, TensorSquare, comult_env,
                         comult_sym, sym_mul_vf, tensor_push_left)
from .fedosov import (FedosovData, base_contraction, delta_inv_op, delta_op,
                      dnabla_images, project_weight, sigma_aug, tau_pbw,
                      vvf_action)
from .geometry import Connection, VectorField
from .pbw import PbwContext, xi_form
from .perturbation import ContractionData, check_contraction
from .poly import GradedPoly
from .randomgen import (random_base_poly, random_section, random_symtensor,
                        random_word)

SUITE_NAMES = ("coalgebra", "symbols", "flat-connection", "resolution",
               "perturbation")


class CheckResult(NamedTuple):
    name: str
    status: str  # PASS | FAIL | SKIP
    witness: Optional[str]

    def line(self) -> str:
        if self.witness:
            return "CHECK %s %s %s" % (self.name, self.status, self.witness)
        return "CHECK %s %s" % (self.name, self.status)


def _run(name: str, samples, test: Callable) -> CheckResult:
    for sample in samples:
        if not test(sample):
            return CheckResult(name, "FAIL", repr(sample))
    return CheckResult(name, "PASS", None)


def _skip(name: str, reason: str) -> CheckResult:
    return CheckResult(name, "SKIP", reason)


def _memo(fn: Callable) -> Callable:
    """``fn`` computed once per distinct argument, for one suite call."""
    values = {}

    def call(x):
        # one hash per call; the memoized values are never None
        value = values.get(x)
        if value is None:
            value = values[x] = fn(x)
        return value
    return call


# ---------------------------------------------------------------------------

def morphism_sides(ctx: PbwContext, tensor: SymTensor):
    """Both sides of the comultiplication identity for the map."""
    lhs = comult_env(ctx.map(tensor, _internal=True))
    rhs = TensorSquare(ctx.chart, "env")
    for (left, right), coeff in comult_sym(tensor).terms.items():
        tensor_push_left(rhs, ctx.word_image(left).scale(coeff),
                         ctx.word_image(right))
    return lhs, rhs


def suite_coalgebra(chart: Chart, conn: Connection, seed: int = 0,
                    samples: int = 40,
                    max_weight: int = None) -> List[CheckResult]:
    rng = random.Random(seed)
    max_weight = 4 if max_weight is None else min(max_weight, 5)
    ctx = PbwContext(chart, conn, max_weight=max_weight + 1)
    tensors = [random_symtensor(rng, chart, max_weight)
               for _ in range(samples)]

    def test(t):
        lhs, rhs = morphism_sides(ctx, t)
        return lhs == rhs

    return [_run("comultiplication-intertwines-map", tensors, test)]


# ---------------------------------------------------------------------------

def _word_index(chart: Chart, letters) -> tuple:
    index = [0] * chart.n
    for s in letters:
        index[s] += 1
    return tuple(index)


def _word_tensor(chart: Chart, letters) -> SymTensor:
    return SymTensor.from_word(chart, _word_index(chart, letters))


def _compose_letters(chart: Chart, letters) -> DiffOp:
    """The product d_{l_1} o d_{l_2} o ... of constant coordinate
    derivations: the descending word times the Koszul sign of sorting
    the letters into it, and 0 when an odd letter repeats."""
    index = _word_index(chart, letters)
    if any(k > 1 and chart.coordinate_parity(s)
           for s, k in enumerate(index)):
        return DiffOp.zero(chart)
    order = sorted(range(len(letters)), key=lambda p: -letters[p])
    sign = koszul_sign(order, [chart.coordinate_degree(s) for s in letters])
    return DiffOp.from_word(chart, index, sign)


def _leading_two_term(ctx: PbwContext, letters, invert: bool):
    """The two-term expansion residual of the map (or its inverse) on a
    coordinate word of L factors: the word's product corrected by the
    signed sum of covariant-derivative contractions must agree with the
    map through the top *two* filtration layers (residual order at most
    L - 2).  The correction is formed on the side the direction checks:
    as symmetric tensors for the inverse, as operators for the map."""
    chart = ctx.chart
    conn = ctx.conn
    length = len(letters)
    degrees = [-chart.coordinate_degree(s) for s in letters]
    product = _compose_letters(chart, letters)
    word = _word_tensor(chart, letters)
    correction = SymTensor.zero(chart) if invert else DiffOp.zero(chart)
    for j in range(length):
        for k in range(j + 1, length):
            rest = [letters[p] for p in range(length) if p not in (j, k)]
            perm = [p for p in range(length) if p not in (j, k)] + [j, k]
            eps = koszul_sign(perm, degrees)
            nabla = conn.christoffel_field(letters[j], letters[k])
            if not nabla:
                continue
            if invert:
                term = _append_word(chart, rest, nabla)
            else:
                term = _compose_letters(chart, rest).compose(
                    DiffOp.from_vector_field(nabla))
            correction = correction + term.scale(eps)
    if invert:
        residual = ctx.inv(product) - word - correction
        return residual.weight_le(length - 2) == residual
    residual = ctx.map(word, _internal=True) - product + correction
    if not residual:
        return True
    return residual.order() <= length - 2


def _append_word(chart: Chart, letters, field: VectorField) -> SymTensor:
    """Symmetric word of ``letters`` with the field appended as the last
    factor (field's coefficients cross the whole word)."""
    tail = sym_mul_vf(field, SymTensor.from_word(chart, (0,) * chart.n))
    out = tail
    for s in reversed(letters):
        out = out.mul_letter_left(s)
    return out


def suite_symbols(chart: Chart, conn: Connection, seed: int = 0,
                  samples: int = 30,
                  max_weight: int = None) -> List[CheckResult]:
    if not conn.torsion_free:
        return [_skip("leading-terms", "requires a torsion-free connection")]
    rng = random.Random(seed)
    max_weight = 4 if max_weight is None else min(max_weight, 5)
    ctx = PbwContext(chart, conn, max_weight=max_weight + 1)

    tensors = [t for t in (random_symtensor(rng, chart, max_weight)
                           for _ in range(samples)) if t]
    res = [_run("symbol-of-map-is-identity", tensors,
                lambda t: _symbol_check(ctx, t))]

    if max_weight < 2:
        return res + [_skip(name, "needs words of two letters; weight bound "
                            "is %d" % max_weight)
                      for name in ("two-term-leading-expansion",
                                   "two-term-leading-expansion-inverse",
                                   "map-inverse-roundtrip")]
    words = [random_word(rng, chart, rng.randrange(2, max_weight + 1))
             for _ in range(samples)]
    words = [w for w in words if w]
    res.append(_run("two-term-leading-expansion", words,
                    lambda w: _leading_two_term(ctx, w, invert=False)))
    res.append(_run("two-term-leading-expansion-inverse", words,
                    lambda w: _leading_two_term(ctx, w, invert=True)))
    res.append(_run("map-inverse-roundtrip", words, lambda w: _roundtrip(ctx, w)))
    return res


def _symbol_check(ctx: PbwContext, tensor: SymTensor) -> bool:
    top = tensor.weight()
    op = ctx.map(tensor, _internal=True)
    return op.gr_leading() == tensor.weight_part(top) and \
        (op.order() or 0) <= top


def _roundtrip(ctx: PbwContext, letters) -> bool:
    word = _word_tensor(ctx.chart, letters)
    op = _compose_letters(ctx.chart, letters)
    return (ctx.inv(ctx.map(word, _internal=True)) == word
            and ctx.map(ctx.inv(op), _internal=True) == op)


# ---------------------------------------------------------------------------

def suite_flat_connection(chart: Chart, conn: Connection, seed: int = 0,
                          samples: int = 15,
                          weight: int = None) -> List[CheckResult]:
    if not conn.torsion_free:
        return [_skip("flat-connection", "requires a torsion-free "
                      "connection")]
    rng = random.Random(seed)
    weight = chart.truncation.max_sym_weight if weight is None else weight
    fd = FedosovData(conn, weight)
    ctx = PbwContext(chart, conn, max_weight=weight + 1)
    xi = xi_form(ctx, weight)

    res = [CheckResult("correction-equals-minus-dual-form",
                       "PASS" if all(a == -b for a, b in
                                     zip(fd.correction, xi)) else "FAIL",
                       None)]
    res.append(CheckResult(
        "raising-normalization",
        "PASS" if all(not delta_inv_op(c) for c in fd.correction)
        and all(not delta_inv_op(c) for c in xi) else "FAIL", None))

    sections = [random_section(rng, chart, weight) for _ in range(samples)]
    res.append(_run("flat-operator-squares-to-zero", sections,
                    lambda w: not fd.d_apply(fd.d_apply(w))))
    # full products projected afterwards, with the suite's own dnabla
    # table: independent of the capped products inside d_apply
    dnabla = dnabla_images(conn)
    res.append(_run("flat-operator-is-lower-plus-dual-correction", sections,
                    lambda w: fd.d_apply(w) == project_weight(
                        -delta_op(w) + w.derive(dnabla)
                        - vvf_action(xi, w), weight)))
    return res


# ---------------------------------------------------------------------------

def suite_resolution(chart: Chart, conn: Connection, seed: int = 0,
                     samples: int = 20,
                     weight: int = None) -> List[CheckResult]:
    if not conn.torsion_free:
        return [_skip("resolution", "requires a torsion-free connection")]
    rng = random.Random(seed)
    weight = chart.truncation.max_sym_weight if weight is None else weight
    fd = FedosovData(conn, weight)
    ctx = PbwContext(chart, conn, max_weight=weight + 1)

    # the contraction's series augmentation and homotopy are memos, so each
    # input is summed once per suite; tau_pbw is never taken from them
    contraction = flat_contraction(fd)
    tau, h = contraction.tau, contraction.h

    funcs = [random_base_poly(rng, chart, 2, 3) for _ in range(samples)]
    res = [_run("augmentation-routes-agree", funcs,
                lambda f: tau(f) == tau_pbw(ctx, f, weight))]
    res.append(_run("augmentation-splits-projection", funcs,
                    lambda f: sigma_aug(tau(f)) == f))
    res.append(_run("augmentation-is-flat", funcs,
                    lambda f: not fd.d_apply(tau(f))))
    pairs = list(zip(funcs[::2], funcs[1::2]))
    res.append(_run("augmentation-is-multiplicative", pairs,
                    lambda fg: project_weight(tau(fg[0]) * tau(fg[1]), weight)
                    == tau(fg[0] * fg[1])))

    sections = [random_section(rng, chart, weight) for _ in range(samples)]
    report = check_contraction(contraction, sections, funcs)
    for r in report.results:
        res.append(CheckResult("flat-" + r.name,
                               "PASS" if r.passed else "FAIL", r.witness))

    closed = [fd.d_apply(random_section(rng, chart, weight - 1))
              for _ in range(samples)]
    res.append(_run("closed-sections-are-exact", closed,
                    lambda w: fd.d_apply(h(w)) == w))
    return res


def flat_contraction(fd: FedosovData) -> ContractionData:
    """The contraction of the flat complex onto base functions, with the
    series ``fd.tau_series`` and ``fd.homotopy_h`` memoized for as long as
    the contraction lives."""
    return ContractionData(
        sigma=sigma_aug,
        tau=_memo(fd.tau_series),
        h=_memo(fd.homotopy_h),
        d_big=fd.d_apply,
        d_small=lambda f: GradedPoly.zero(fd.chart),
    )


def suite_perturbation(chart: Chart, conn: Connection, seed: int = 0,
                       samples: int = 12,
                       weight: int = None) -> List[CheckResult]:
    if not conn.torsion_free:
        return [_skip("perturbation", "requires a torsion-free connection")]
    rng = random.Random(seed)
    weight = chart.truncation.max_sym_weight if weight is None else weight
    fd = FedosovData(conn, weight)
    base = base_contraction(chart, weight)

    sections = [random_section(rng, chart, weight) for _ in range(samples)]
    funcs = [random_base_poly(rng, chart, 2, 3) for _ in range(samples)]
    res = []
    report = check_contraction(base, sections, funcs)
    for r in report.results:
        res.append(CheckResult("lowering-" + r.name,
                               "PASS" if r.passed else "FAIL", r.witness))

    ctx = PbwContext(chart, conn, max_weight=weight)
    perturbed, theta = fd.transfer

    def homotopy_fixed_point(w):
        # h'(w) = h(w) - h(partial(h'(w))), in the unperturbed maps only
        h_w = perturbed.h(w)
        return h_w == base.h(w) - base.h(fd.perturbation(h_w))

    res.append(_run("transferred-augmentation-matches", funcs,
                    lambda f: perturbed.tau(f) == tau_pbw(ctx, f, weight)))
    res.append(_run("transferred-projection-is-projection", sections,
                    lambda w: perturbed.sigma(w) == sigma_aug(w)))
    res.append(_run("transferred-homotopy-matches", sections,
                    homotopy_fixed_point))
    res.append(_run("transferred-small-perturbation-vanishes", funcs,
                    lambda f: not theta(f)))
    return res


# ---------------------------------------------------------------------------

def run_suite(name: str, chart: Chart, conn: Connection, seed: int = 0,
              weight: int = None) -> List[CheckResult]:
    if name == "all":
        out = []
        for suite in SUITE_NAMES:
            out.extend(run_suite(suite, chart, conn, seed, weight))
        return out
    if name == "coalgebra":
        return suite_coalgebra(chart, conn, seed, max_weight=weight)
    if name == "symbols":
        return suite_symbols(chart, conn, seed, max_weight=weight)
    if name == "flat-connection":
        return suite_flat_connection(chart, conn, seed, weight=weight)
    if name == "resolution":
        return suite_resolution(chart, conn, seed, weight=weight)
    if name == "perturbation":
        return suite_perturbation(chart, conn, seed, weight=weight)
    raise ValueError("unknown suite %r" % name)
