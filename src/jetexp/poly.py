"""Exact graded-commutative polynomials over a chart's generators.

A monomial is an exponent tuple over the chart's 3n generator slots in
canonical order.  Products reorder via Koszul transpositions: swapping
two odd generators costs a sign, a repeated odd generator kills the
term.

The partial derivative here is the *left* derivative: the generator is
pulled out of the front of the monomial, so

    partial(f*g) = partial(f)*g + (-1)^(|partial||f|) f*partial(g)

with |partial_i| = -(degree of generator i) (parity matters only).
Every sign-bearing formula elsewhere in the package references this one
convention.

``GradedPoly.derive`` is the one derivation rule: a derivation of either
parity is the table of its generator images, applied as
sum_s image_s . partial_s (each image of parity |derivation| + |slot|).
One per-row rule forms partial_s from the operand's product rows; it
feeds ``derive``'s products directly and builds ``partial``'s result.
A derivation whose images are single generators of fiber or form slots,
g_s -> g_t, is ``GradedPoly.exchange``: the same sign rule, read off one
odd-slot bitmask per monomial, in one pass with no product rows.  Such a
map keeps p + q, so it takes an exact weight cap on its input and can
divide each term by its own p + q in the same pass.

Stored form.  A polynomial stores integers: a positive ``den`` and a
dict ``nums`` from monomial to nonzero numerator, the coefficient of m
being nums[m] / den.  The form is canonical, gcd(den, every numerator)
= 1 (the zero polynomial has den 1), so equality and hashing compare
(den, nums) directly.  Every operation computes numerators over one
denominator and ends in the one internal constructor ``_of``, which
reduces them with a single gcd: sums over the lcm of the denominators,
scalars by scaling (an int leaves the denominator alone), partials over
the operand's own denominator.  ``terms``, monomial -> ``Fraction``, is
a view for readers outside the arithmetic, built on first read and
cached.

Product kernel.  Each polynomial lazily builds, at most once, its rows:
per weight p + q, ascending, (monomial, odd-slot bitmask, parity mask of
the odd slots above each slot, numerator).  A product multiplies
numerators over Da*Db (a sum of products over the lcm of those) and
accumulates plain ints per output monomial.  Intersecting odd masks kill
a pair; otherwise its Koszul sign is the parity of the odd slots of the
left monomial above the odd slots of the right one.  A constant factor
is taken as a scalar, capped like the product, and builds no rows.

Values are immutable after construction and all operations are pure, so
the cached view and rows never go stale and sharing across threads
needs no synchronization (two threads may both build the same cache).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Callable, Dict, Mapping, Sequence, Tuple

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
    __slots__ = ("chart", "den", "nums", "_terms", "_rows")

    def __init__(self, chart: Chart, terms: Dict[Monomial, Fraction] = None):
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
        # reduced Fractions over the lcm of their denominators: gcd 1
        den = lcm(*[c.denominator for c in clean.values()])
        self.chart = chart
        self.den = den
        self.nums = {m: c.numerator * (den // c.denominator)
                     for m, c in clean.items()}
        self._terms = self._rows = None

    @staticmethod
    def _of(chart: Chart, nums: Dict[Monomial, int],
            den: int = 1) -> "GradedPoly":
        """The trusted constructor: sum_m nums[m]/den * m from nonzero
        int numerators over a positive int ``den``, reduced by one gcd."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {m: v // g for m, v in nums.items()}
        p = GradedPoly.__new__(GradedPoly)
        p.chart = chart
        p.den = den
        p.nums = nums
        p._terms = p._rows = None
        return p

    @property
    def terms(self) -> Dict[Monomial, Fraction]:
        """monomial -> Fraction coefficient, built on first read."""
        terms = self._terms
        if terms is None:
            den = self.den
            terms = self._terms = {m: Fraction(v, den)
                                   for m, v in self.nums.items()}
        return terms

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, chart: Chart) -> "GradedPoly":
        return cls._of(chart, {})

    @classmethod
    def constant(cls, chart: Chart, c) -> "GradedPoly":
        c = Fraction(c)
        return cls._of(chart, {(0,) * (3 * chart.n): c.numerator} if c else {},
                       c.denominator)

    @classmethod
    def generator(cls, chart: Chart, slot: int, exp: int = 1) -> "GradedPoly":
        m = tuple(exp if s == slot else 0 for s in range(3 * chart.n))
        # a first power needs none of the checks of the public constructor
        return cls._of(chart, {m: 1}) if exp == 1 else cls(chart, {m: 1})

    # -- ring structure ----------------------------------------------------
    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return (self.chart == other.chart and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.chart, self.den, frozenset(self.nums.items())))

    def __add__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self._plus(other, -1)

    def _plus(self, other: "GradedPoly", sign: int) -> "GradedPoly":
        """self + sign * other, over the lcm of the two denominators."""
        same_chart(self, other)
        if not other.nums:  # values are immutable: share the operand
            return self
        if not self.nums:
            return other if sign == 1 else -other
        da, db = self.den, other.den
        den = lcm(da, db)
        scale_a, scale_b = den // da, sign * (den // db)
        out = dict(self.nums) if scale_a == 1 else \
            {m: v * scale_a for m, v in self.nums.items()}
        get = out.get
        for m, v in other.nums.items():
            v = get(m, 0) + v * scale_b
            if v:
                out[m] = v
            else:
                del out[m]
        return GradedPoly._of(self.chart, out, den)

    def __neg__(self):
        return GradedPoly._of(self.chart,
                              {m: -v for m, v in self.nums.items()}, self.den)

    def __mul__(self, other, max_weight: int = None):
        """Product with a scalar or a polynomial.  With ``max_weight``
        (called as ``times``), only monomial pairs whose weights p + q
        sum to at most ``max_weight`` are formed: the result is the full
        product projected to that weight.  A constant factor is taken as
        a scalar: no product rows are built."""
        if isinstance(other, GradedPoly):
            same_chart(self, other)
            for c, f in ((other, self), (self, other)):
                if len(c.nums) == 1 and not any(next(iter(c.nums))):
                    return f._scaled(next(iter(c.nums.values())), c.den,
                                     max_weight)
            return _sum_of_products(self.chart, (
                (self.den * other.den, self._layout(), other._layout()),),
                max_weight)
        c = other if type(other) is int else Fraction(other)
        return self._scaled(c.numerator, c.denominator)

    times = __mul__  # a.times(b, max_weight): the weight-capped product

    def __rmul__(self, other):
        return self.__mul__(other)  # scalars commute with everything

    def _scaled(self, num: int, den: int,
                max_weight: int = None) -> "GradedPoly":
        """num/den * self, projected to weight ``max_weight`` when given
        (the operand itself when that changes nothing)."""
        nums = self.nums
        if max_weight is not None:
            n = self.chart.n
            nums = {m: v for m, v in nums.items() if sum(m[n:]) <= max_weight}
            if len(nums) == len(self.nums):
                nums = self.nums
        if not num:
            return GradedPoly.zero(self.chart)
        if num == den:  # times 1
            return self if nums is self.nums else \
                GradedPoly._of(self.chart, nums, self.den)
        return GradedPoly._of(self.chart, {m: v * num for m, v in nums.items()},
                              self.den * den)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = GradedPoly.constant(self.chart, 1)
        for _ in range(k):
            out = out * self
        return out

    def _layout(self) -> list:
        """The rows of the product kernel, built once: (weight p + q,
        rows (monomial, odd mask, above mask, numerator)) ascending,
        where bit s of the above mask is the parity of the odd slots of
        the monomial above slot s."""
        rows = self._rows
        if rows is None:
            n = self.chart.n
            odd = self.chart.odd_slots
            layers: Dict[int, list] = {}
            for m, v in self.nums.items():
                mask = above = 0
                for s in odd:
                    if m[s]:
                        mask |= 1 << s
                        above ^= (1 << s) - 1
                layers.setdefault(sum(m[n:]), []).append((m, mask, above, v))
            rows = self._rows = sorted(layers.items())
        return rows

    # -- graded structure ---------------------------------------------------
    def _partial_rows(self, slot: int) -> list:
        """The product rows of partial_slot(self) over ``self.den``, read
        off the operand's own rows: the odd bit of the slot cleared and
        the above masks below it flipped, the sign of the odd slots below
        it, the weight lowered by one for a fiber or form slot, and the
        numerator times the exponent.  Distinct monomials have distinct
        derivatives, so nothing accumulates."""
        if not 0 <= slot < 3 * self.chart.n:
            raise ValueError("generator slot out of range")
        shift = slot >= self.chart.n
        bit = 1 << slot if self.chart.gen_parities[slot] else 0
        below = bit - 1 if bit else 0
        out = []
        for w, rows in self._layout():
            drows = []
            for m, mask, above, v in rows:
                e = m[slot]
                if not e:
                    continue
                if bit:  # an odd slot: e == 1
                    if (mask & below).bit_count() & 1:
                        v = -v
                    mask ^= bit
                    above ^= below
                elif e > 1:
                    v *= e
                drows.append((m[:slot] + (e - 1,) + m[slot + 1:],
                              mask, above, v))
            if drows:
                out.append((w - shift, drows))
        return out

    def partial(self, slot: int) -> "GradedPoly":
        """Left derivative by the generator in ``slot``."""
        return GradedPoly._of(self.chart, {
            m: v for _, rows in self._partial_rows(slot)
            for m, _, _, v in rows}, self.den)

    def derive(self, images: Mapping[int, "GradedPoly"],
               max_weight: int = None) -> "GradedPoly":
        """The derivation with generator images ``images`` (slot -> poly;
        unlisted slots and None map to 0): sum_s images[s] . partial_s,
        each product formed only up to weight ``max_weight`` (see
        ``times``).  The partials enter the product kernel as rows read
        off this polynomial's own; none is built as a polynomial."""
        pairs = []
        for slot, img in images.items():
            if img:
                same_chart(self, img)
                rows = self._partial_rows(slot)
                if rows:
                    pairs.append((img.den * self.den, img._layout(), rows))
        return _sum_of_products(self.chart, pairs, max_weight)

    def exchange(self, pairs: Sequence[Tuple[int, int]],
                 max_weight: int = None,
                 by_weight: bool = False) -> "GradedPoly":
        """The derivation sending the generator in slot s to the one in
        slot t for each pair (s, t) of fiber or form slots, and every
        other generator to 0: sum_(s,t) g_t . partial_s(self), with
        ``derive``'s sign rule, in one pass over the monomials and with
        no product rows.  Such a map keeps p + q, so ``max_weight``
        drops the input monomials above it (the same as dropping the
        output's), and ``by_weight`` divides each term by its own p + q.

        Signs come from the odd-slot bitmask of the monomial m: pulling
        an odd g_s out of the front costs the parity of the odd slots of
        m below s, and putting an odd g_t in front of m - e_s costs the
        parity of its odd slots below t, or kills the term when it
        already holds g_t."""
        chart = self.chart
        n = chart.n
        par = chart.gen_parities
        table = []  # (slot s, odd bit of s, slot t, odd bit of t)
        for s, t in pairs:
            if not (n <= s < 3 * n and n <= t < 3 * n):
                raise ValueError("exchange pairs must be fiber or form slots")
            table.append((s, par[s] << s, t, par[t] << t))
        odd = chart.odd_slots
        layers: Dict[int, list] = {}  # weight p + q -> [(monomial, num)]
        for m, v in self.nums.items():
            w = sum(m[n:])
            if w and (max_weight is None or w <= max_weight):
                layers.setdefault(w, []).append((m, v))
        top = lcm(*layers) if by_weight else 1
        out: Dict[Monomial, int] = {}
        get = out.get
        for w, rows in layers.items():
            scale = top // w if by_weight else 1
            for m, v in rows:
                mask = 0
                for s in odd:
                    if m[s]:
                        mask |= 1 << s
                v *= scale
                for s, sbit, t, tbit in table:
                    e = m[s]
                    if not e:
                        continue
                    c = v * e  # an odd slot has e == 1
                    rest = mask
                    if sbit:
                        if (mask & (sbit - 1)).bit_count() & 1:
                            c = -c
                        rest ^= sbit
                    if tbit:
                        if rest & tbit:  # g_t is odd and already in m
                            continue
                        if (rest & (tbit - 1)).bit_count() & 1:
                            c = -c
                    key = list(m)
                    key[s] = e - 1
                    key[t] += 1
                    key = tuple(key)
                    out[key] = get(key, 0) + c
        return GradedPoly._of(chart, {m: v for m, v in out.items() if v},
                              self.den * top)

    def _split(self, key: Callable[[Monomial], int]) -> Dict[int, "GradedPoly"]:
        """The nonzero parts of fixed ``key(monomial)``, keyed ascending."""
        buckets: Dict[int, Dict[Monomial, int]] = {}
        for m, v in self.nums.items():
            buckets.setdefault(key(m), {})[m] = v
        if len(buckets) == 1:
            return {k: self for k in buckets}
        return {k: GradedPoly._of(self.chart, b, self.den)
                for k, b in sorted(buckets.items())}

    def homogeneous_components(self) -> Dict[int, "GradedPoly"]:
        chart = self.chart
        return self._split(lambda m: monomial_degree(chart, m))

    def weight_layers(self) -> Dict[int, "GradedPoly"]:
        """The parts of fixed weight p + q, keyed by weight."""
        n = self.chart.n
        return self._split(lambda m: sum(m[n:]))

    def degree(self) -> int:
        degs = {monomial_degree(self.chart, m) for m in self.nums}
        if not degs:
            raise DegreeUndefinedError("zero polynomial has no degree")
        if len(degs) > 1:
            raise NotHomogeneousError(degs)
        return degs.pop()

    def parity(self) -> int:
        pars = {monomial_parity(self.chart, m) for m in self.nums}
        if len(pars) != 1:
            raise NotHomogeneousError(pars)
        return pars.pop()

    # -- views ---------------------------------------------------------------
    def filter_terms(self, keep: Callable[[Monomial], bool]) -> "GradedPoly":
        return GradedPoly._of(self.chart, {m: v for m, v in self.nums.items()
                                           if keep(m)}, self.den)

    def max_base_degree(self) -> int:
        return max((monomial_base_degree(self.chart, m) for m in self.nums),
                   default=0)

    def is_base_only(self) -> bool:
        n = self.chart.n
        return not any(any(m[n:]) for m in self.nums)

    def __repr__(self):
        from .grammar import format_poly
        return "GradedPoly(%s)" % format_poly(self)


def linear_combination(chart: Chart, pairs, div: int = 1) -> GradedPoly:
    """sum_k w_k * p_k / div over ``pairs`` (int w_k, polynomial p_k):
    integer numerators over the lcm of the denominators, reduced once."""
    if len(pairs) == 1 and div == 1 and pairs[0][0] == 1:
        return pairs[0][1]
    den = lcm(*[p.den for _, p in pairs])
    out: Dict[Monomial, int] = {}
    get = out.get
    for w, p in pairs:
        scale = w * (den // p.den)
        for m, v in p.nums.items():
            out[m] = get(m, 0) + v * scale
    return GradedPoly._of(chart, {m: v for m, v in out.items() if v},
                          den * div)


def _sum_of_products(chart: Chart, pairs,
                     max_weight: int = None) -> GradedPoly:
    """sum_k a_k * b_k over ``pairs`` (Da*Db, rows of a, rows of b) on
    ``chart``, forming only monomial pairs of total weight at most
    ``max_weight`` when given: integer numerators over the lcm of the
    pairs' Da*Db."""
    den = lcm(*[d for d, _, _ in pairs])
    out: Dict[Monomial, int] = {}
    get = out.get
    for d, left, right in pairs:
        scale = den // d
        for wa, rows_a in left:
            for wb, rows_b in right:
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
    return GradedPoly._of(chart, {m: v for m, v in out.items() if v}, den)
