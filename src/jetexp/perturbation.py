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
"""

from __future__ import annotations

from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence


class IdentityResult(NamedTuple):
    name: str
    passed: bool
    witness: Optional[str]

    def line(self) -> str:
        if self.passed:
            return "IDENTITY %s PASS" % self.name
        return "IDENTITY %s FAIL %s" % (self.name, self.witness or "")


class ContractionReport:
    def __init__(self, results: List[IdentityResult]):
        self.results = results

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> List[str]:
        return [r.line() for r in self.results]

    def __repr__(self):
        return "\n".join(self.lines())


class ContractionData:
    """Maps of a contraction of (N, d_big) onto (M, d_small)."""

    __slots__ = ("sigma", "tau", "h", "d_big", "d_small")

    def __init__(self, sigma: Callable, tau: Callable, h: Callable,
                 d_big: Callable, d_small: Callable):
        self.sigma = sigma
        self.tau = tau
        self.h = h
        self.d_big = d_big
        self.d_small = d_small


def check_contraction(c: ContractionData, big_samples: Iterable,
                      small_samples: Iterable) -> ContractionReport:
    """Verify the five contraction identities on the given samples.

    The report carries one entry per identity; a failing entry records
    the first witnessing sample (by repr) rather than raising.
    """
    big = list(big_samples)
    small = list(small_samples)
    results: List[IdentityResult] = []

    def run(name, samples, test):
        witness = None
        for s in samples:
            if not test(s):
                witness = repr(s)
                break
        results.append(IdentityResult(name, witness is None, witness))

    run("sigma-tau-is-identity", small,
        lambda m: not (c.sigma(c.tau(m)) - m))
    run("tau-sigma-homotopic-to-identity", big,
        lambda x: not ((x - c.tau(c.sigma(x)))
                       - c.h(c.d_big(x)) - c.d_big(c.h(x))))
    run("chain-map-sigma", big,
        lambda x: not (c.sigma(c.d_big(x)) - c.d_small(c.sigma(x))))
    run("chain-map-tau", small,
        lambda m: not (c.d_big(c.tau(m)) - c.tau(c.d_small(m))))
    run("side-sigma-h", big, lambda x: not c.sigma(c.h(x)))
    run("side-h-tau", small, lambda m: not c.h(c.tau(m)))
    run("side-h-h", big, lambda x: not c.h(c.h(x)))
    return ContractionReport(results)


class SeriesDivergenceError(RuntimeError):
    """A perturbation series failed to stabilize within the term cap."""


class PerturbedContraction(NamedTuple):
    contraction: ContractionData
    theta: Callable  # the induced perturbation of the small differential


def perturb_contraction(c: ContractionData, partial: Callable,
                        max_terms: int,
                        weight: Callable = None,
                        probes: Sequence = ()) -> PerturbedContraction:
    """Transfer a filtration-raising perturbation through a contraction.

    ``partial`` perturbs the big differential (their sum must square to
    zero; that is the caller's obligation and is checked indirectly by
    check_contraction on the output).  When a ``weight`` function is
    supplied, the raising property is validated on the probe elements:
    each nonzero image must have strictly larger weight.  Series are cut
    off after ``max_terms`` summands; reaching the cap with a nonzero
    term raises SeriesDivergenceError.
    """
    if weight is not None:
        for p in probes:
            image = partial(p)
            if image and not weight(image) > weight(p):
                raise ValueError(
                    "perturbation does not raise the filtration weight "
                    "on probe %r" % (p,))

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
        # sum sigma partial (-h partial)^k tau
        return series("transferred-perturbation", c.tau(m), step,
                      lambda t: c.sigma(partial(t)))

    def new_d_big(x):
        return c.d_big(x) + partial(x)

    def new_d_small(m):
        return c.d_small(m) + theta(m)

    new = ContractionData(new_sigma, new_tau, new_h, new_d_big, new_d_small)
    return PerturbedContraction(new, theta)
