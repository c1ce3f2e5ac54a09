"""Homological perturbation over filtered cochain complexes.

The carrier is abstract: elements need ``+``, ``-`` (binary), unary
negation, and falsiness exactly on zero; maps are plain callables.  A
contraction packages projection sigma, inclusion tau, homotopy h and the
two differentials, subject to

    sigma(tau(m)) = m
    x - tau(sigma(x)) = h(d(x)) + d(h(x))
    sigma o h = 0,   h o tau = 0,   h o h = 0.

(The opposite homotopy normalization, tau.sigma - id on the right,
differs by h -> -h; this one is used consistently package-wide so that
d-closed sigma-annihilated elements satisfy x = d(h(x)) on the nose.)

Perturbing the big differential by a filtration-raising operator yields
a new contraction whose maps are geometric series in (-h o partial):

    tau'   = sum (-h.partial)^k tau
    sigma' = sum sigma (-partial.h)^k
    h'     = sum (-h.partial)^k h
    theta  = sum sigma partial (-h.partial)^k tau

with theta the induced perturbation of the small differential.  Series
are summed until they hit zero, with an iteration cap that turns
non-termination into an explicit error instead of a wrong answer.

Filtration orientation: weights ascend here and perturbations raise
them.  A presentation with descending filtrations and lowering
perturbations maps onto this one by negating weights.

Checks report as ``CheckResult`` entries built by ``run_check``; the
verify suites use the same pair.  A check whose test raises reports
FAIL, with the exception in its witness, rather than a traceback.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, NamedTuple, Optional

from .poly import TruncationOverflowError


class CheckResult(NamedTuple):
    """One named identity check: PASS, FAIL with the first witnessing
    sample (by repr), or SKIP with the reason."""
    name: str
    status: str  # PASS | FAIL | SKIP
    witness: Optional[str]

    def line(self) -> str:
        if self.witness:
            return "CHECK %s %s %s" % (self.name, self.status, self.witness)
        return "CHECK %s %s" % (self.name, self.status)


def run_check(name: str, samples: Iterable, test: Callable) -> CheckResult:
    """``test`` on each distinct sample in turn, in the order given; FAIL
    at the first that fails, with its repr as the witness.  A sample on
    which ``test`` raises an ``Exception`` fails the check too, and the
    witness names the exception after the sample; a truncation overflow
    (an input past a declared bound, not a broken identity) and any
    ``BaseException`` propagate.

    ``test`` must be a pure function of its sample, so a sample equal to
    one already passed is skipped: the witness is the same as if every
    sample ran.  A list sample (a word) is keyed by its tuple; a sample
    that cannot be hashed always runs."""
    passed = set()
    for sample in samples:
        key = tuple(sample) if type(sample) is list else sample
        try:
            if key in passed:
                continue
        except TypeError:  # unhashable: no key to skip it by
            key = None
        try:
            ok = test(sample)
        except TruncationOverflowError:
            raise
        except Exception as exc:
            return CheckResult(name, "FAIL", "%r raised %s: %s"
                               % (sample, type(exc).__name__, exc))
        if not ok:
            return CheckResult(name, "FAIL", repr(sample))
        if key is not None:
            passed.add(key)
    return CheckResult(name, "PASS", None)


class ContractionData(NamedTuple):
    """Maps of a contraction of (N, d_big) onto (M, d_small)."""
    sigma: Callable
    tau: Callable
    h: Callable
    d_big: Callable
    d_small: Callable


def check_contraction(c: ContractionData, big_samples: Iterable,
                      small_samples: Iterable) -> List[CheckResult]:
    """The contraction identities on the given samples, one result per
    identity; a failing result records its first witness rather than
    raising."""
    big = list(big_samples)
    small = list(small_samples)
    return [
        run_check("sigma-tau-is-identity", small,
                  lambda m: not (c.sigma(c.tau(m)) - m)),
        run_check("tau-sigma-homotopic-to-identity", big,
                  lambda x: not ((x - c.tau(c.sigma(x)))
                                 - c.h(c.d_big(x)) - c.d_big(c.h(x)))),
        run_check("chain-map-sigma", big,
                  lambda x: not (c.sigma(c.d_big(x))
                                 - c.d_small(c.sigma(x)))),
        run_check("chain-map-tau", small,
                  lambda m: not (c.d_big(c.tau(m)) - c.tau(c.d_small(m)))),
        run_check("side-sigma-h", big, lambda x: not c.sigma(c.h(x))),
        run_check("side-h-tau", small, lambda m: not c.h(c.tau(m))),
        run_check("side-h-h", big, lambda x: not c.h(c.h(x))),
    ]


class SeriesDivergenceError(RuntimeError):
    """A perturbation series failed to stabilize within the term cap."""


class PerturbedContraction(NamedTuple):
    contraction: ContractionData
    theta: Callable  # the induced perturbation of the small differential


def perturb_contraction(c: ContractionData, partial: Callable,
                        max_terms: int) -> PerturbedContraction:
    """Transfer a filtration-raising perturbation through a contraction.

    ``partial`` perturbs the big differential (their sum must square to
    zero, and it must raise the filtration weight; both are the caller's
    obligations, checked indirectly by check_contraction on the output).
    Series are cut off after ``max_terms`` summands; reaching the cap
    with a nonzero term raises SeriesDivergenceError.
    """
    def series(what, seed, advance, collect):
        # sum collect(advance^k(seed)) over k until the term vanishes
        term = seed
        total = collect(term)
        for _ in range(max_terms):
            if not term:
                return total
            term = advance(term)
            add = collect(term)
            if add:
                total = total + add
        if term:
            raise SeriesDivergenceError(
                "%s series did not stabilize in %d terms" % (what, max_terms))
        return total

    def step(t):
        return -c.h(partial(t))

    def identity(t):
        return t

    def new_tau(m):
        # sum (-h partial)^k tau
        return series("inclusion", c.tau(m), step, identity)

    def new_sigma(x):
        # sum sigma (-partial h)^k
        return series("projection", x, lambda t: -partial(c.h(t)), c.sigma)

    def new_h(x):
        # sum (-h partial)^k h
        return series("homotopy", c.h(x), step, identity)

    def theta(m):
        # sum sigma partial (-h partial)^k tau = sum sigma p_k over
        # p_k = partial t_k, p_{k+1} = -partial h p_k: one partial a term
        return series("transferred-perturbation", partial(c.tau(m)),
                      lambda p: -partial(c.h(p)), c.sigma)

    def new_d_big(x):
        return c.d_big(x) + partial(x)

    def new_d_small(m):
        return c.d_small(m) + theta(m)

    new = ContractionData(new_sigma, new_tau, new_h, new_d_big, new_d_small)
    return PerturbedContraction(new, theta)
