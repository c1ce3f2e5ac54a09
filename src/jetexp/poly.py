"""Exact graded-commutative polynomials over a chart's generators.

A monomial is an exponent tuple over the chart's 3n generator slots in
canonical order; a polynomial is a finite map monomial -> nonzero
Fraction.  Products reorder via Koszul transpositions: swapping two odd
generators costs a sign, a repeated odd generator kills the term.

The partial derivative here is the *left* derivative: the generator is
pulled out of the front of the monomial, so

    partial(f*g) = partial(f)*g + (-1)^(|partial||f|) f*partial(g)

with |partial_i| = -(degree of generator i) (parity matters only).
Every sign-bearing formula elsewhere in the package references this one
convention.

``GradedPoly.derive`` is the one derivation rule: a derivation of either
parity is the table of its generator images, applied as
sum_s image_s . partial_s (each image of parity |derivation| + |slot|).

Values are immutable after construction and all operations are pure, so
sharing across threads needs no synchronization.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Mapping, Tuple

from .chart import Chart, same_chart

Monomial = Tuple[int, ...]


class NotHomogeneousError(ValueError):
    """Raised when a degree is requested of a mixed-degree polynomial."""

    def __init__(self, degrees):
        super().__init__("polynomial is not homogeneous; component degrees %s"
                         % (sorted(degrees),))
        self.degrees = frozenset(degrees)


class DegreeUndefinedError(ValueError):
    """Raised when a degree is requested of the zero polynomial."""


def monomial_degree(chart: Chart, m: Monomial) -> int:
    return sum(e * d for e, d in zip(m, chart.gen_degrees))


def monomial_parity(chart: Chart, m: Monomial) -> int:
    return sum(e * p for e, p in zip(m, chart.gen_parities)) & 1


def monomial_pq(chart: Chart, m: Monomial) -> Tuple[int, int]:
    """(form degree p, fiber weight q) of a monomial."""
    n = chart.n
    return sum(m[2 * n:]), sum(m[n:2 * n])


def monomial_base_degree(chart: Chart, m: Monomial) -> int:
    return sum(m[:chart.n])


def mul_monomials(chart: Chart, a: Monomial, b: Monomial):
    """Return (sign, product monomial); sign 0 when an odd slot repeats."""
    par = chart.gen_parities
    inv = 0
    for v, bv in enumerate(b):
        if not bv or not par[v]:
            continue
        if a[v]:
            return 0, None
        inv += sum(a[u] for u in range(v + 1, len(a)) if par[u])
    return (-1 if inv & 1 else 1), tuple(x + y for x, y in zip(a, b))


class GradedPoly:
    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: Dict[Monomial, Fraction] = None):
        self.chart = chart
        clean: Dict[Monomial, Fraction] = {}
        if terms:
            nslots = 3 * chart.n
            for m, c in terms.items():
                c = Fraction(c)
                if not c:
                    continue
                if len(m) != nslots:
                    raise ValueError("monomial has %d slots, chart has %d"
                                     % (len(m), nslots))
                if any(e < 0 for e in m):
                    raise ValueError("negative exponent in monomial")
                if any(e > 1 and chart.gen_parities[s]
                       for s, e in enumerate(m)):
                    raise ValueError("odd generator raised to a power > 1")
                clean[m] = clean.get(m, Fraction(0)) + c
                if not clean[m]:
                    del clean[m]
        self.terms = clean

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, chart: Chart) -> "GradedPoly":
        return cls(chart)

    @classmethod
    def constant(cls, chart: Chart, c) -> "GradedPoly":
        return cls(chart, {(0,) * (3 * chart.n): Fraction(c)})

    @classmethod
    def generator(cls, chart: Chart, slot: int, exp: int = 1) -> "GradedPoly":
        m = tuple(exp if s == slot else 0 for s in range(3 * chart.n))
        return cls(chart, {m: Fraction(1)})

    # -- ring structure ----------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        same_chart(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return self._wrap(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._wrap({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, GradedPoly):
            same_chart(self, other)
            out: Dict[Monomial, Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    sign, m = mul_monomials(self.chart, m1, m2)
                    if not sign:
                        continue
                    s = out.get(m, Fraction(0)) + sign * c1 * c2
                    if s:
                        out[m] = s
                    else:
                        del out[m]
            return self._wrap(out)
        c = Fraction(other)
        if not c:
            return GradedPoly.zero(self.chart)
        return self._wrap({m: c * v for m, v in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)  # scalars commute with everything

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = GradedPoly.constant(self.chart, 1)
        for _ in range(k):
            out = out * self
        return out

    def _wrap(self, terms: Dict[Monomial, Fraction]) -> "GradedPoly":
        p = GradedPoly.__new__(GradedPoly)
        p.chart = self.chart
        p.terms = terms
        return p

    # -- graded structure ---------------------------------------------------
    def partial(self, slot: int) -> "GradedPoly":
        """Left derivative by the generator in ``slot``."""
        if not 0 <= slot < 3 * self.chart.n:
            raise ValueError("generator slot out of range")
        par = self.chart.gen_parities
        out: Dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m[slot]
            if not e:
                continue
            crossings = par[slot] * sum(m[j] * par[j] for j in range(slot))
            sign = -1 if crossings & 1 else 1
            m2 = m[:slot] + (e - 1,) + m[slot + 1:]
            s = out.get(m2, Fraction(0)) + sign * e * c
            if s:
                out[m2] = s
            else:
                del out[m2]
        return self._wrap(out)

    def derive(self, images: Mapping[int, "GradedPoly"]) -> "GradedPoly":
        """The derivation with generator images ``images`` (slot -> poly;
        unlisted slots and None map to 0): sum_s images[s] . partial_s."""
        out = GradedPoly.zero(self.chart)
        for slot, img in images.items():
            if img:
                d = self.partial(slot)
                if d:
                    out = out + img * d
        return out

    def homogeneous_components(self) -> Dict[int, "GradedPoly"]:
        buckets: Dict[int, Dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            buckets.setdefault(monomial_degree(self.chart, m), {})[m] = c
        return {d: self._wrap(t) for d, t in sorted(buckets.items())}

    def is_homogeneous(self) -> bool:
        return len({monomial_degree(self.chart, m) for m in self.terms}) <= 1

    def degree(self) -> int:
        degs = {monomial_degree(self.chart, m) for m in self.terms}
        if not degs:
            raise DegreeUndefinedError("zero polynomial has no degree")
        if len(degs) > 1:
            raise NotHomogeneousError(degs)
        return degs.pop()

    def parity(self) -> int:
        pars = {monomial_parity(self.chart, m) for m in self.terms}
        if len(pars) != 1:
            raise NotHomogeneousError(pars)
        return pars.pop()

    # -- views ---------------------------------------------------------------
    def filter_terms(self, keep: Callable[[Monomial], bool]) -> "GradedPoly":
        return self._wrap({m: c for m, c in self.terms.items() if keep(m)})

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * (3 * self.chart.n), Fraction(0))

    def max_base_degree(self) -> int:
        return max((monomial_base_degree(self.chart, m) for m in self.terms),
                   default=0)

    def uses_only(self, slots) -> bool:
        allowed = set(slots)
        return all(all(e == 0 or s in allowed for s, e in enumerate(m))
                   for m in self.terms)

    def is_base_only(self) -> bool:
        return self.uses_only(range(self.chart.n))

    def __repr__(self):
        from .grammar import format_poly
        return "GradedPoly(%s)" % format_poly(self)
