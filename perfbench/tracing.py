"""Per-layer tracing from outside the package.

``install`` replaces the public functions and methods of each layer with
wrappers that time every call and count the work it did; ``uninstall``
puts every original object back.  Nothing in the package changes: a
module-level function is replaced in every ``jetexp`` module that holds
it (``from .x import f`` copies the reference), a method on its class.

The tracer keeps a stack of active calls.  Each call's duration is
charged to its parent as child time, so every name gets a self time
(duration minus the time covered by traced calls inside it) as well as
an inclusive time; a name that recurses into itself counts its inclusive
time at the outermost call only.  Calls of layer boundaries are kept as
spans (id, name, start, end, parent id); the hot leaves (polynomial
products and derivatives, operator products) only add to their totals,
so that memory stays bounded.

A hook whose target is missing is skipped, and every metric that needs
it reads ``None`` with the reason.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (traced name, "module:attribute path", keep spans)
HOOKS = (
    ("poly.mul", "jetexp.poly:GradedPoly.__mul__", False),
    ("poly.partial", "jetexp.poly:GradedPoly.partial", False),
    ("fedosov.solve", "jetexp.fedosov:FedosovData.__init__", True),
    ("fedosov.project", "jetexp.fedosov:project_weight", False),
    ("fedosov.delta_inv", "jetexp.fedosov:delta_inv_op", False),
    ("fedosov.vvf_action", "jetexp.fedosov:vvf_action", False),
    ("fedosov.dnabla", "jetexp.fedosov:dnabla_form", False),
    ("fedosov.tau_series", "jetexp.fedosov:FedosovData.tau_series", True),
    ("fedosov.homotopy_h", "jetexp.fedosov:FedosovData.homotopy_h", True),
    ("fedosov.tau_pbw", "jetexp.fedosov:tau_pbw", True),
    ("pbw.word_image", "jetexp.pbw:PbwContext.word_image", False),
    ("pbw.compute_word", "jetexp.pbw:PbwContext._compute_word", False),
    ("pbw.map", "jetexp.pbw:PbwContext.map", False),
    ("pbw.inv", "jetexp.pbw:PbwContext.inv", True),
    ("pbw.xi_form", "jetexp.pbw:xi_form", True),
    ("enveloping.compose", "jetexp.enveloping:DiffOp.compose", False),
    ("enveloping.apply", "jetexp.enveloping:DiffOp.apply", False),
    ("enveloping.comult", "jetexp.enveloping:comult_env", True),
    ("enveloping.comult", "jetexp.enveloping:comult_sym", True),
    ("geometry.nabla_sym", "jetexp.geometry:nabla_sym", False),
    ("perturbation.perturb", "jetexp.perturbation:perturb_contraction",
     True),
    ("perturbation.check_contraction",
     "jetexp.perturbation:check_contraction", True),
    ("verify.coalgebra", "jetexp.verify:suite_coalgebra", True),
    ("verify.symbols", "jetexp.verify:suite_symbols", True),
    ("verify.flat-connection", "jetexp.verify:suite_flat_connection", True),
    ("verify.resolution", "jetexp.verify:suite_resolution", True),
    ("verify.perturbation", "jetexp.verify:suite_perturbation", True),
    ("grammar.parse", "jetexp.grammar:parse_poly", True),
    ("grammar.parse", "jetexp.grammar:parse_diffop", True),
    ("grammar.parse", "jetexp.grammar:parse_symtensor", True),
    ("grammar.format", "jetexp.grammar:format_poly", True),
    ("grammar.format", "jetexp.grammar:format_diffop", True),
    ("grammar.format", "jetexp.grammar:format_symtensor", True),
    ("chartfile.load", "jetexp.chartfile:load_chart_file", True),
)

MAX_SPANS = 200_000


class Tracer:
    """Call stack, per-name totals, counters and spans of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # frames: [name, child seconds, span id]
        self.active = Counter()
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.spans = []
        self.span_ids = 0
        self.dropped_spans = 0
        self.missing = {}  # traced name -> reason its hook is absent

    def parent_name(self):
        """Name of the innermost active call (the caller of the current
        hook's target while its ``after`` callback runs)."""
        return self.stack[-1][0] if self.stack else None

    def run(self, name, span, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        span_id = parent[2] if parent else None
        parent_span = span_id
        if span:
            self.span_ids += 1
            span_id = self.span_ids
        frame = [name, 0.0, span_id]
        self.stack.append(frame)
        self.active[name] += 1
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self.stack.pop()
            self.active[name] -= 1
            duration = end - start
            self.calls[name] += 1
            self.self_time[name] += duration - frame[1]
            if not self.active[name]:
                self.total[name] += duration
            if parent is not None:
                parent[1] += duration
            if span:
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, name, start, end,
                                       parent_span))
                else:
                    self.dropped_spans += 1

    def report(self):
        """Per-name calls, inclusive and self seconds, the counters and
        the spans, as JSON-ready data."""
        names = sorted(self.calls)
        return {
            "layers": {n: {"calls": self.calls[n],
                           "inclusive_s": self.total[n],
                           "self_s": self.self_time[n]} for n in names},
            "counts": dict(self.counts),
            "missing": dict(self.missing),
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
        }


# -- per-hook work counters ---------------------------------------------------
# each runs after the traced call returns: (tracer, args, result)

def _after_mul(tracer, args, result):
    a, b = args
    tracer.counts["poly.mul_pairs"] += len(a.terms) * len(b.terms)
    tracer.counts["poly.mul_terms_out"] += len(result.terms)


def _after_project(tracer, args, result):
    tracer.counts["fedosov.project_terms_in"] += len(args[0].terms)
    tracer.counts["fedosov.project_terms_kept"] += len(result.terms)
    if tracer.parent_name() == "fedosov.solve":
        # the solve projects each of its n components once per pass
        tracer.counts["fedosov.solve_passes"] += 1 / args[0].chart.n


def _after_solve(tracer, args, result):
    fd = args[0]
    tracer.counts["fedosov.correction_terms"] += sum(
        len(c.terms) for c in fd.correction)


def _after_map(tracer, args, result):
    if tracer.parent_name() == "pbw.inv":
        tracer.counts["pbw.inv_peel_steps"] += 1


def _after_compose(tracer, args, result):
    tracer.counts["enveloping.compose_terms_out"] += len(result.terms)


AFTER = {
    "poly.mul": _after_mul,
    "fedosov.project": _after_project,
    "fedosov.solve": _after_solve,
    "pbw.map": _after_map,
    "enveloping.compose": _after_compose,
}


def _wrap(tracer, name, fn, span):
    after = AFTER.get(name)

    if name == "poly.mul":
        poly_type = sys.modules["jetexp.poly"].GradedPoly

        @functools.wraps(fn)
        def mul(self, other):
            if not isinstance(other, poly_type):  # scalar products: untraced
                return fn(self, other)
            result = tracer.run(name, False, fn, (self, other), {})
            after(tracer, (self, other), result)
            return result
        return mul

    if name == "perturbation.perturb":
        return _wrap_perturb(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.run(name, span, fn, args, kwargs)
        if after is not None:
            after(tracer, args, result)
        return result
    return wrapper


def _wrap_perturb(tracer, name, fn):
    """The transferred maps are closures called long after
    ``perturb_contraction`` returns; wrap each one so its calls are
    charged to the perturbation layer too."""
    module = sys.modules["jetexp.perturbation"]

    def traced(inner):
        @functools.wraps(inner)
        def call(*args):
            return tracer.run(name, True, inner, args, {})
        return call

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = tracer.run(name, True, fn, args, kwargs)
        c = out.contraction
        wrapped = module.ContractionData(
            traced(c.sigma), traced(c.tau), traced(c.h), traced(c.d_big),
            traced(c.d_small))
        return module.PerturbedContraction(wrapped, traced(out.theta))
    return wrapper


def _resolve(target):
    """(owner, attribute, original) of a hook target; raises LookupError
    when the module or attribute is gone."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError("module %s not importable: %s"
                          % (module_name, exc)) from None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError("%s has no %s" % (module_name, part))
    if parts[-1] not in vars(owner):
        raise LookupError("%s has no attribute %s" % (target, parts[-1]))
    return owner, parts[-1], vars(owner)[parts[-1]]


class Installed:
    """The replacements made by ``install``; ``uninstall`` reverts them."""

    def __init__(self):
        self.replaced = []  # (owner, attribute, original)

    def uninstall(self):
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)

    def restored(self):
        """True when every replaced attribute holds its original again."""
        return all(vars(owner)[attr] is original
                   for owner, attr, original in self.replaced)


def install(tracer):
    """Wrap every hook target; returns the record ``uninstall`` needs."""
    installed = Installed()
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "jetexp" or n.startswith("jetexp.")]
    for name, target, span in HOOKS:
        try:
            owner, attr, original = _resolve(target)
        except LookupError as exc:
            tracer.missing[name] = str(exc)
            continue
        wrapper = _wrap(tracer, name, original, span)
        if isinstance(owner, type):
            installed.replaced.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for module in modules:  # every module holding the function
            for key, value in list(vars(module).items()):
                if value is original:
                    installed.replaced.append((module, key, original))
                    setattr(module, key, wrapper)
    return installed


# -- per-layer metrics --------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, traced names it needs, value from a tracer)
METRICS = {
    "poly.mul_calls": ("count", ["poly.mul"], lambda t: t.calls["poly.mul"]),
    "poly.mul_pairs": ("count", ["poly.mul"],
                       lambda t: t.counts["poly.mul_pairs"]),
    "poly.mul_terms_out": ("count", ["poly.mul"],
                           lambda t: t.counts["poly.mul_terms_out"]),
    "poly.mul_s": ("s", ["poly.mul"], lambda t: t.total["poly.mul"]),
    "poly.partial_calls": ("count", ["poly.partial"],
                           lambda t: t.calls["poly.partial"]),
    "poly.partial_s": ("s", ["poly.partial"],
                       lambda t: t.total["poly.partial"]),
    "fedosov.solve_s": ("s", ["fedosov.solve"],
                        lambda t: t.total["fedosov.solve"]),
    "fedosov.solve_passes": (
        "count", ["fedosov.solve", "fedosov.project"],
        lambda t: round(t.counts["fedosov.solve_passes"], 6)),
    "fedosov.project_terms_in": (
        "count", ["fedosov.project"],
        lambda t: t.counts["fedosov.project_terms_in"]),
    "fedosov.project_terms_kept": (
        "count", ["fedosov.project"],
        lambda t: t.counts["fedosov.project_terms_kept"]),
    "fedosov.project_keep_ratio": (
        "ratio", ["fedosov.project"],
        lambda t: _ratio(t.counts["fedosov.project_terms_kept"],
                         t.counts["fedosov.project_terms_in"])),
    "fedosov.delta_inv_s": ("s", ["fedosov.delta_inv"],
                            lambda t: t.total["fedosov.delta_inv"]),
    "fedosov.vvf_action_s": ("s", ["fedosov.vvf_action"],
                             lambda t: t.total["fedosov.vvf_action"]),
    "fedosov.dnabla_s": ("s", ["fedosov.dnabla"],
                         lambda t: t.total["fedosov.dnabla"]),
    "fedosov.tau_series_s": ("s", ["fedosov.tau_series"],
                             lambda t: t.total["fedosov.tau_series"]),
    "fedosov.homotopy_h_s": ("s", ["fedosov.homotopy_h"],
                             lambda t: t.total["fedosov.homotopy_h"]),
    "fedosov.tau_pbw_s": ("s", ["fedosov.tau_pbw"],
                          lambda t: t.total["fedosov.tau_pbw"]),
    "fedosov.correction_terms": (
        "count", ["fedosov.solve"],
        lambda t: t.counts["fedosov.correction_terms"]),
    "pbw.word_image_calls": ("count", ["pbw.word_image"],
                             lambda t: t.calls["pbw.word_image"]),
    "pbw.word_misses": ("count", ["pbw.compute_word"],
                        lambda t: t.calls["pbw.compute_word"]),
    "pbw.memo_hit_ratio": (
        "ratio", ["pbw.word_image", "pbw.compute_word"],
        lambda t: 1.0 - _ratio(t.calls["pbw.compute_word"],
                               t.calls["pbw.word_image"])
        if t.calls["pbw.word_image"] else 0.0),
    "pbw.map_s": ("s", ["pbw.map"], lambda t: t.total["pbw.map"]),
    "pbw.inv_s": ("s", ["pbw.inv"], lambda t: t.total["pbw.inv"]),
    "pbw.inv_peel_steps": ("count", ["pbw.inv", "pbw.map"],
                           lambda t: t.counts["pbw.inv_peel_steps"]),
    "pbw.xi_form_s": ("s", ["pbw.xi_form"], lambda t: t.total["pbw.xi_form"]),
    "enveloping.compose_calls": ("count", ["enveloping.compose"],
                                 lambda t: t.calls["enveloping.compose"]),
    "enveloping.compose_terms_out": (
        "count", ["enveloping.compose"],
        lambda t: t.counts["enveloping.compose_terms_out"]),
    "enveloping.compose_s": ("s", ["enveloping.compose"],
                             lambda t: t.total["enveloping.compose"]),
    "enveloping.apply_s": ("s", ["enveloping.apply"],
                           lambda t: t.total["enveloping.apply"]),
    "enveloping.comult_s": ("s", ["enveloping.comult"],
                            lambda t: t.total["enveloping.comult"]),
    "geometry.nabla_sym_calls": ("count", ["geometry.nabla_sym"],
                                 lambda t: t.calls["geometry.nabla_sym"]),
    "geometry.nabla_sym_s": ("s", ["geometry.nabla_sym"],
                             lambda t: t.total["geometry.nabla_sym"]),
    "perturbation.perturb_s": ("s", ["perturbation.perturb"],
                               lambda t: t.total["perturbation.perturb"]),
    "perturbation.check_contraction_s": (
        "s", ["perturbation.check_contraction"],
        lambda t: t.total["perturbation.check_contraction"]),
    "grammar.parse_s": ("s", ["grammar.parse"],
                        lambda t: t.total["grammar.parse"]),
    "grammar.format_s": ("s", ["grammar.format"],
                         lambda t: t.total["grammar.format"]),
    "chartfile.load_s": ("s", ["chartfile.load"],
                         lambda t: t.total["chartfile.load"]),
}
for _suite in ("coalgebra", "symbols", "flat-connection", "resolution",
               "perturbation"):
    METRICS["verify.%s_s" % _suite] = (
        "s", ["verify." + _suite],
        lambda t, _n="verify." + _suite: t.total[_n])


def layer_metrics(tracer):
    """Every per-layer metric as {"value", "unit"}; a metric whose hook
    is missing has value None and the reason."""
    out = {}
    for name, (unit, needs, value) in METRICS.items():
        missing = [tracer.missing[n] for n in needs if n in tracer.missing]
        if missing:
            out[name] = {"value": None, "unit": unit,
                         "reason": "; ".join(missing)}
        else:
            out[name] = {"value": value(tracer), "unit": unit}
    return out
