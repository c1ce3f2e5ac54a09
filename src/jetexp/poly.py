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

Arithmetic kernel.  ``terms`` holds ``Fraction`` values, but products
and derivations run on Python integers.  Each polynomial lazily builds,
at most once, an integer form: the lcm D of its coefficient
denominators and, per weight p + q, rows of (monomial, odd-slot bitmask,
parity mask of the odd slots above each slot, integer numerator c*D).
A product multiplies numerators over Da*Db (a sum of products over the
lcm of those), accumulates plain ints per output monomial and builds one
``Fraction`` per nonzero output term.  Intersecting odd masks kill a
pair; otherwise its Koszul sign is the parity of the odd slots of the
left monomial above the odd slots of the right one.

Values are immutable after construction and all operations are pure, so
the cached integer form never goes stale and sharing across threads
needs no synchronization (two threads may both build the same form).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
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


def monomial_weight(chart: Chart, m: Monomial) -> int:
    """Jet filtration weight p + q of a monomial."""
    return sum(m[chart.n:])


def monomial_base_degree(chart: Chart, m: Monomial) -> int:
    return sum(m[:chart.n])


class GradedPoly:
    __slots__ = ("chart", "terms", "_ints")

    def __init__(self, chart: Chart, terms: Dict[Monomial, Fraction] = None):
        self.chart = chart
        self._ints = None
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
                if m in clean:
                    c += clean[m]
                    if not c:
                        del clean[m]
                        continue
                clean[m] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, chart: Chart) -> "GradedPoly":
        return cls(chart)

    @classmethod
    def constant(cls, chart: Chart, c) -> "GradedPoly":
        c = Fraction(c)
        return cls(chart)._wrap({(0,) * (3 * chart.n): c} if c else {})

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
            if m in out:
                c += out[m]
                if not c:
                    del out[m]
                    continue
            out[m] = c
        return self._wrap(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._wrap({m: -c for m, c in self.terms.items()})

    def __mul__(self, other, max_weight: int = None):
        """Product with a scalar or a polynomial.  With ``max_weight``
        (called as ``times``), only monomial pairs whose weights p + q
        sum to at most ``max_weight`` are formed: the result is the full
        product projected to that weight."""
        if not isinstance(other, GradedPoly):
            c = Fraction(other)
            if not c:
                return GradedPoly.zero(self.chart)
            return self._wrap({m: c * v for m, v in self.terms.items()})
        same_chart(self, other)
        return self._wrap(_sum_of_products(((self, other),), max_weight))

    times = __mul__  # a.times(b, max_weight): the weight-capped product

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
        p._ints = None
        return p

    def _integer_form(self):
        """(D, layers), built once: D is the lcm of the coefficient
        denominators; ``layers`` maps each weight p + q, ascending, to
        rows (monomial, odd mask, above mask, numerator c*D), where bit s
        of the above mask is the parity of the odd slots of the monomial
        above slot s."""
        form = self._ints
        if form is None:
            n = self.chart.n
            odd = self.chart.odd_slots
            den = lcm(*[c.denominator for c in self.terms.values()])
            layers: Dict[int, list] = {}
            for m, c in self.terms.items():
                mask = above = 0
                for s in odd:
                    if m[s]:
                        mask |= 1 << s
                        above ^= (1 << s) - 1
                layers.setdefault(sum(m[n:]), []).append(
                    (m, mask, above, c.numerator * (den // c.denominator)))
            form = self._ints = (den, dict(sorted(layers.items())))
        return form

    # -- graded structure ---------------------------------------------------
    def partial(self, slot: int) -> "GradedPoly":
        """Left derivative by the generator in ``slot``."""
        if not 0 <= slot < 3 * self.chart.n:
            raise ValueError("generator slot out of range")
        odd_below = [j for j in self.chart.odd_slots if j < slot] \
            if self.chart.gen_parities[slot] else ()
        out: Dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m[slot]
            if not e:
                continue
            if odd_below and sum([m[j] for j in odd_below]) & 1:
                c = -c
            # distinct monomials have distinct derivatives: no accumulation
            out[m[:slot] + (e - 1,) + m[slot + 1:]] = c if e == 1 else c * e
        return self._wrap(out)

    def derive(self, images: Mapping[int, "GradedPoly"],
               max_weight: int = None) -> "GradedPoly":
        """The derivation with generator images ``images`` (slot -> poly;
        unlisted slots and None map to 0): sum_s images[s] . partial_s,
        each product formed only up to weight ``max_weight`` (see
        ``times``)."""
        pairs = []
        for slot, img in images.items():
            if img:
                same_chart(self, img)
                d = self.partial(slot)
                if d:
                    pairs.append((img, d))
        return self._wrap(_sum_of_products(pairs, max_weight))

    def homogeneous_components(self) -> Dict[int, "GradedPoly"]:
        buckets: Dict[int, Dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            buckets.setdefault(monomial_degree(self.chart, m), {})[m] = c
        return {d: self._wrap(t) for d, t in sorted(buckets.items())}

    def weight_layers(self) -> Dict[int, "GradedPoly"]:
        """The parts of fixed weight p + q, keyed by weight."""
        buckets: Dict[int, Dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            buckets.setdefault(monomial_weight(self.chart, m), {})[m] = c
        return {w: self._wrap(t) for w, t in sorted(buckets.items())}

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

    def max_base_degree(self) -> int:
        return max((monomial_base_degree(self.chart, m) for m in self.terms),
                   default=0)

    def is_base_only(self) -> bool:
        n = self.chart.n
        return not any(any(m[n:]) for m in self.terms)

    def __repr__(self):
        from .grammar import format_poly
        return "GradedPoly(%s)" % format_poly(self)


def _sum_of_products(pairs, max_weight: int = None) -> Dict[Monomial, Fraction]:
    """The terms of sum_k a_k * b_k over ``pairs`` of same-chart
    polynomials, forming only monomial pairs of total weight at most
    ``max_weight`` when given.  Integer numerators over the lcm of the
    pairs' Da*Db; one Fraction per nonzero output term."""
    forms = [(a._integer_form(), b._integer_form()) for a, b in pairs]
    den = lcm(*[da * db for (da, _), (db, _) in forms])
    out: Dict[Monomial, int] = {}
    get = out.get
    for (da, left), (db, right) in forms:
        scale = den // (da * db)
        for wa, rows_a in left.items():
            for wb, rows_b in right.items():
                if max_weight is not None and wa + wb > max_weight:
                    break  # weights ascend
                for ma, mask_a, above_a, na in rows_a:
                    na *= scale
                    if not mask_a:  # an even monomial: no sign, no kill
                        for mb, _, _, nb in rows_b:
                            m = tuple(map(add, ma, mb))
                            out[m] = get(m, 0) + na * nb
                        continue
                    for mb, mask_b, _, nb in rows_b:
                        if mask_b:
                            if mask_a & mask_b:  # a repeated odd slot
                                continue
                            if (above_a & mask_b).bit_count() & 1:
                                nb = -nb
                        m = tuple(map(add, ma, mb))
                        out[m] = get(m, 0) + na * nb
    return {m: Fraction(v, den) for m, v in out.items() if v}
