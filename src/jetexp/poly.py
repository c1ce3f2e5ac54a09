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
One rule, ``_partial_terms``, forms the terms of partial_s from the
operand's numerators and states the sign once: ``combine`` adds them
straight into the sum for a partial entry (``partial`` is one), and lays
them out as the right-hand rows of the products of a derivation entry
(``derive`` is one).
A derivation whose images are single generators of fiber or form slots,
g_s -> g_t, is ``GradedPoly.exchange``: it reads the same terms of
partial_s and puts g_t in front of each at the product kernel's sign for
a left factor of one generator, with no product rows.  Such a map keeps
p + q, so it takes an exact weight cap on its input and can divide each
term by its own p + q.

Stored form.  A polynomial stores integers: a positive ``den`` and a
dict ``nums`` from packed monomial key to nonzero numerator, the
coefficient of m being nums[key(m)] / den.  A key is one int laid out
by the chart (``chart`` module docstring): a fixed field per slot and a
top field holding p + q, each with a guard bit.  So a weight cap is one
comparison of keys, the odd slots of a monomial are ``key &
chart.odd_low``, and a partial subtracts ``chart.unit[s]``.  The form is
canonical, gcd(den, every numerator) = 1 (the zero polynomial has den
1), so equality and hashing compare (den, nums) directly; the hash is
computed once.  Every operation computes numerators over one
denominator and ends in the one internal constructor ``_of``, which
reduces them with a single gcd; ``+``, ``-`` and ``partial`` are
``combine`` entries, so they share its sum.  ``terms``, exponent tuple ->
``Fraction``, is a view for readers outside the arithmetic, built on
each read; the public constructor takes the same tuples.

Product kernel.  Each polynomial lazily builds, at most once, its rows:
per weight p + q, ascending, (key, odd bits, parity bits of the odd
slots above each slot, numerator).  A pair of rows multiplies to the
key sum, with the product of numerators.  Intersecting odd bits kill a
pair; otherwise its Koszul sign is the parity of the odd slots of the
left monomial above the odd slots of the right one; a weight cap skips
the pairs above it.  The loop, ``_products_into``, has one caller,
``combine``.  A guard bit set in any key a product or an exchange forms
raises ``TruncationOverflowError``.

One polynomial per word.  ``combine`` sums a list of entries, each an
int weight times a polynomial, a product of two, a derivation (a table
of generator images, as ``derive`` takes), a one-slot partial or a
parity flip, in one pass as integer numerators over a running common
denominator, reduced once: a caller that sums many such terms builds no
polynomial for any of them.  An entry whose denominator does not divide
the running one rescales the numerators summed so far to their lcm, by
a factor of at least 2, so a call rescales at most log2(final
denominator) times.  Its products and derivations run the product loop,
with an optional weight cap, and a constant factor is taken as a scalar
and builds no rows.  A weighted, partial or flip entry into the empty
sum seeds it with one dict build, and only a sum in which terms met is
swept for zero numerators.  ``*`` of two polynomials is one product
entry, ``derive`` one derivation entry, ``partial`` one partial entry
and ``+`` and ``-`` two weighted entries, so each of them enters here.

Values are immutable after construction and all operations are pure, so
the rows and the hash, the only caches, never go stale and sharing
across threads needs no synchronization (two threads may both build
the same cache).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Callable, Dict, Mapping, Sequence, Tuple

from .chart import FIELD_MASK, FIELD_MAX, Chart, same_chart

Monomial = Tuple[int, ...]

FLIP = "flip"  # the third item of a ``combine`` entry for a parity flip


class TruncationOverflowError(ValueError):
    """A result left the allowed range: an operator order or a weight
    past its cap, or an exponent or a weight p + q past ``FIELD_MAX``."""


class NotHomogeneousError(ValueError):
    """Raised when a degree is requested of a mixed-degree polynomial."""

    def __init__(self, degrees):
        super().__init__("polynomial is not homogeneous; component degrees %s"
                         % (sorted(degrees),))
        self.degrees = frozenset(degrees)


class DegreeUndefinedError(ValueError):
    """Raised when a degree is requested of the zero polynomial."""


def monomial_pq(chart: Chart, m: Monomial) -> Tuple[int, int]:
    """(form degree p, fiber weight q) of a monomial."""
    n = chart.n
    return sum(m[2 * n:]), sum(m[n:2 * n])


def pack_monomial(chart: Chart, m: Monomial) -> int:
    """The packed key of an exponent tuple; ValueError when an exponent
    or the weight p + q exceeds ``FIELD_MAX``."""
    if max(m) > FIELD_MAX:
        raise ValueError("exponent %d exceeds %d" % (max(m), FIELD_MAX))
    key = sum([e * u for e, u in zip(m, chart.unit)])
    if key & chart.guard:
        raise ValueError("weight p + q exceeds %d" % FIELD_MAX)
    return key


def unpack_monomial(chart: Chart, key: int) -> Monomial:
    """The exponent tuple of a packed key."""
    return tuple([key >> sh & FIELD_MASK for sh in chart.shifts])


def _key_degree(chart: Chart, key: int) -> int:
    return sum([(key >> sh & FIELD_MASK) * d
                for sh, d in chart.graded_fields])


def _check_guard(chart: Chart, keys) -> None:
    """Raise TruncationOverflowError when a key has a guard bit set."""
    if reduce(or_, keys, 0) & chart.guard:
        raise TruncationOverflowError(
            "an exponent or the weight p + q exceeds %d" % FIELD_MAX)


class GradedPoly:
    __slots__ = ("chart", "den", "nums", "_rows", "_hash")

    def __init__(self, chart: Chart, terms: Dict[Monomial, Fraction] = None):
        clean: Dict[int, Fraction] = {}
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
                key = pack_monomial(chart, m)
                if key in clean:
                    c += clean[key]
                    if not c:
                        del clean[key]
                        continue
                clean[key] = c
        # reduced Fractions over the lcm of their denominators: gcd 1
        den = lcm(*[c.denominator for c in clean.values()])
        self.chart = chart
        self.den = den
        self.nums = {k: c.numerator * (den // c.denominator)
                     for k, c in clean.items()}
        self._rows = self._hash = None

    @staticmethod
    def _of(chart: Chart, nums: Dict[int, int],
            den: int = 1) -> "GradedPoly":
        """The trusted constructor: sum_k nums[k]/den * monomial(k) from
        nonzero int numerators over a positive int ``den``, reduced by
        one gcd."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {k: v // g for k, v in nums.items()}
        p = GradedPoly.__new__(GradedPoly)
        p.chart = chart
        p.den = den
        p.nums = nums
        p._rows = p._hash = None
        return p

    @property
    def terms(self) -> Dict[Monomial, Fraction]:
        """exponent tuple -> Fraction coefficient, built on each read."""
        den = self.den
        shifts = self.chart.shifts
        return {tuple([k >> sh & FIELD_MASK for sh in shifts]):
                Fraction(v, den) for k, v in self.nums.items()}

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, chart: Chart) -> "GradedPoly":
        return cls._of(chart, {})

    @classmethod
    def constant(cls, chart: Chart, c) -> "GradedPoly":
        c = Fraction(c)
        return cls._of(chart, {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def generator(cls, chart: Chart, slot: int, exp: int = 1) -> "GradedPoly":
        if not 0 <= slot < 3 * chart.n:
            raise ValueError("generator slot out of range")
        if exp == 1:  # needs none of the checks of the public constructor
            return cls._of(chart, {chart.unit[slot]: 1})
        return cls(chart, {tuple(exp if s == slot else 0
                                 for s in range(3 * chart.n)): 1})

    # -- ring structure ----------------------------------------------------
    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return (self.chart == other.chart and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.chart, self.den,
                                   frozenset(self.nums.items())))
        return h

    def __add__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return combine(same_chart(self, other), [(1, self), (1, other)])

    def __sub__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return combine(same_chart(self, other), [(1, self), (-1, other)])

    def __neg__(self):
        return self._scaled(-1, 1)

    def __mul__(self, other):
        """Product with a scalar or a polynomial, the latter a product
        entry of ``combine``."""
        if isinstance(other, GradedPoly):
            return combine(same_chart(self, other), [(1, self, other)])
        c = other if type(other) is int else Fraction(other)
        return self._scaled(c.numerator, c.denominator)

    def __rmul__(self, other):
        return self.__mul__(other)  # scalars commute with everything

    def _scaled(self, num: int, den: int) -> "GradedPoly":
        """num/den * self (the operand itself for 1)."""
        if not num:
            return GradedPoly.zero(self.chart)
        if num == den:  # times 1
            return self
        return GradedPoly._of(self.chart, {k: v * num
                                           for k, v in self.nums.items()},
                              self.den * den)

    def up_to_weight(self, max_weight: int) -> "GradedPoly":
        """The jet-quotient projection: the monomials of weight p + q at
        most ``max_weight`` (the operand itself when it drops none)."""
        limit = max_weight + 1 << self.chart.weight_shift
        if not self.nums or max(self.nums) < limit:  # weight is the top field
            return self
        nums = {k: v for k, v in self.nums.items() if k < limit}
        return GradedPoly._of(self.chart, nums, self.den)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = GradedPoly.constant(self.chart, 1)
        for _ in range(k):
            out = out * self
        return out

    def _layout(self) -> list:
        """The rows of the product kernel, built once: (weight p + q,
        rows (key, odd bits, above bits, numerator)) ascending, where
        the odd bits are ``key & chart.odd_low`` and the above bit of an
        odd slot s is the parity of the odd slots of the monomial above
        s."""
        rows = self._rows
        if rows is None:
            chart = self.chart
            odd_low = chart.odd_low
            shift = chart.weight_shift
            layers: Dict[int, list] = {}
            for k, v in self.nums.items():
                mask = k & odd_low
                above = 0
                rest = mask
                while rest:  # each odd slot flips the odd slots below it
                    low = rest & -rest
                    above ^= odd_low & (low - 1)
                    rest ^= low
                layers.setdefault(k >> shift, []).append((k, mask, above, v))
            rows = self._rows = sorted(layers.items())
        return rows

    # -- graded structure ---------------------------------------------------
    def _partial_terms(self, slot: int) -> list:
        """The terms (key, numerator over ``self.den``) of
        partial_slot(self), and the one statement of the left
        derivative's sign rule: a monomial holding the generator to the
        power e > 0 loses one factor of it, its key lowered by the slot's
        unit (the weight field with it, for a fiber or form slot), and
        its numerator is multiplied by e.  An odd generator (e == 1) is
        pulled out to the front past the odd generators before it, the
        odd slots below it, at the sign of their parity.  Distinct
        monomials have distinct derivatives, so nothing accumulates."""
        chart = self.chart
        if not 0 <= slot < 3 * chart.n:
            raise ValueError("generator slot out of range")
        sh = chart.shifts[slot]
        unit = chart.unit[slot]
        odd = chart.odd_low >> sh & 1
        below = chart.odd_low & (1 << sh) - 1
        out = []
        for k, v in self.nums.items():
            e = k >> sh & FIELD_MASK
            if not e:
                continue
            if odd:
                if (k & below).bit_count() & 1:
                    v = -v
            elif e > 1:
                v *= e
            out.append((k - unit, v))
        return out

    def _partial_rows(self, slot: int) -> list:
        """The product rows of partial_slot(self) over ``self.den``: the
        terms of ``_partial_terms`` laid out per weight, ascending.  They
        stand only on the right of a product, which reads no above bits,
        so they carry 0 there."""
        chart = self.chart
        odd_low, shift = chart.odd_low, chart.weight_shift
        layers: Dict[int, list] = {}
        for k, v in self._partial_terms(slot):
            layers.setdefault(k >> shift, []).append((k, k & odd_low, 0, v))
        return sorted(layers.items())

    def partial(self, slot: int) -> "GradedPoly":
        """Left derivative by the generator in ``slot``, the partial
        entry of ``combine``."""
        return combine(self.chart, [(1, self, slot)])

    def derive(self, images: Mapping[int, "GradedPoly"],
               max_weight: int = None) -> "GradedPoly":
        """The derivation with generator images ``images`` (slot -> poly;
        unlisted slots and None map to 0): sum_s images[s] . partial_s,
        with ``max_weight`` forming only the monomial pairs whose weights
        p + q sum to at most it, which is the result projected to that
        weight.  It is the derivation entry of ``combine``: the partials
        enter the product kernel as rows laid out from
        ``_partial_terms``; none is built as a polynomial, and a slot
        that no monomial holds (a zero field in the OR of the keys) is
        skipped without a pass over the numerators (``_meeting``)."""
        return combine(self.chart, [(1, self, images)], max_weight=max_weight)

    def exchange(self, pairs: Sequence[Tuple[int, int]],
                 max_weight: int = None,
                 by_weight: bool = False) -> "GradedPoly":
        """sum_(s,t) g_t . partial_s(self) over pairs (s, t) of fiber or
        form slots: the derivation g_s -> g_t, every other generator to
        0, with no product rows.  The terms of partial_s, sign included,
        come from ``_partial_terms`` for each slot s that some monomial
        holds; g_t is placed in front at the product kernel's sign for a
        left factor of one generator (an odd g_t kills a term that holds
        it and otherwise costs the parity of its odd slots below t).
        The map keeps p + q, so ``max_weight`` caps the input, and
        ``by_weight`` divides each term by its own p + q.  A zero
        operand is returned as it is."""
        chart = self.chart
        n = chart.n
        for s, t in pairs:
            if not (n <= s < 3 * n and n <= t < 3 * n):
                raise ValueError("exchange pairs must be fiber or form slots")
        if not self.nums:
            return self
        f = self if max_weight is None else self.up_to_weight(max_weight)
        held = reduce(or_, f.nums, 0)
        odd_low, shifts, unit = chart.odd_low, chart.shifts, chart.unit
        out: Dict[int, int] = {}
        get = out.get
        for s, t in pairs:
            if not held >> shifts[s] & FIELD_MASK:
                continue
            tbit = odd_low & 1 << shifts[t]
            below = tbit and odd_low & tbit - 1  # 0 for an even g_t
            for k, v in f._partial_terms(s):
                if k & tbit:  # an odd g_t already in the term
                    continue
                if (k & below).bit_count() & 1:
                    v = -v
                k += unit[t]
                out[k] = get(k, 0) + v
        _check_guard(chart, out)
        if not by_weight:
            return GradedPoly._of(chart, {k: v for k, v in out.items() if v},
                                  f.den)
        shift = chart.weight_shift
        top = lcm(*{k >> shift for k in out})  # 1 when no term is left
        return GradedPoly._of(chart, {k: v * (top // (k >> shift))
                                      for k, v in out.items() if v},
                              f.den * top)

    def _split(self, key: Callable[[int], int]) -> Dict[int, "GradedPoly"]:
        """The nonzero parts of fixed ``key(packed key)``, keyed
        ascending."""
        buckets: Dict[int, Dict[int, int]] = {}
        for k, v in self.nums.items():
            buckets.setdefault(key(k), {})[k] = v
        if len(buckets) == 1:
            return {k: self for k in buckets}
        return {k: GradedPoly._of(self.chart, b, self.den)
                for k, b in sorted(buckets.items())}

    def homogeneous_components(self) -> Dict[int, "GradedPoly"]:
        chart = self.chart
        return self._split(lambda k: _key_degree(chart, k))

    def weight_layers(self) -> Dict[int, "GradedPoly"]:
        """The parts of fixed weight p + q, keyed by weight."""
        shift = self.chart.weight_shift
        return self._split(lambda k: k >> shift)

    def degree(self) -> int:
        degs = {_key_degree(self.chart, k) for k in self.nums}
        if not degs:
            raise DegreeUndefinedError("zero polynomial has no degree")
        if len(degs) > 1:
            raise NotHomogeneousError(degs)
        return degs.pop()

    # -- views ---------------------------------------------------------------
    def is_base_only(self) -> bool:
        return max(self.nums, default=0) >> self.chart.weight_shift == 0

    def __repr__(self):
        from .grammar import format_poly
        return "GradedPoly(%s)" % format_poly(self)


def _products_into(out: Dict[int, int], scale: int, left, right,
                   max_weight: int = None) -> None:
    """The product loop: add scale * a * b to ``out`` (key -> numerator)
    from the rows of a and of b, forming only pairs of total weight at
    most ``max_weight`` when given."""
    get = out.get
    for wa, rows_a in left:
        for wb, rows_b in right:
            if max_weight is not None and wa + wb > max_weight:
                break  # weights ascend
            for ka, mask_a, above_a, na in rows_a:
                na *= scale
                if not mask_a:  # an even monomial: no sign, no kill
                    for kb, _, _, nb in rows_b:
                        k = ka + kb
                        out[k] = get(k, 0) + na * nb
                    continue
                for kb, mask_b, _, nb in rows_b:
                    if mask_b:
                        if mask_a & mask_b:  # a repeated odd slot
                            continue
                        if (above_a & mask_b).bit_count() & 1:
                            nb = -nb
                    k = ka + kb
                    out[k] = get(k, 0) + na * nb


def _meeting(p: GradedPoly, images: Mapping[int, GradedPoly]) -> list:
    """The (slot, image) pairs of a derivation table that can act on
    ``p``: a nonzero image (on p's chart) at a slot that some monomial
    of p holds, read off a nonzero field in the OR of p's keys.  A slot
    off the chart is kept, for ``_partial_terms`` to refuse."""
    chart = p.chart
    held = reduce(or_, p.nums, 0)
    nslots, shifts = 3 * chart.n, chart.shifts
    out = []
    for slot, img in images.items():
        if img is not None and img.nums:
            same_chart(p, img)
            if not 0 <= slot < nslots or held >> shifts[slot] & FIELD_MASK:
                out.append((slot, img))
    return out


def combine(chart: Chart, entries, div: int = 1,
            max_weight: int = None) -> GradedPoly:
    """sum_k entry_k / div over ``entries``, each a tuple

        (w, p)          w * p
        (w, p, q)       w * p * q            (q a GradedPoly)
        (w, p, images)  w * sum_s images[s] . partial_s(p)
                                             (images a mapping slot ->
                                             poly, as in ``derive``)
        (w, p, s)       w * partial_s(p)     (s an int slot)
        (w, p, FLIP)    w * (p with its odd part negated)

    with int weights w, in one pass: the numerators are summed over a
    running common denominator, and an entry whose denominator does not
    divide it multiplies the numerators summed so far by the factor that
    makes it their lcm.  That factor is at least 2, so a call rescales at
    most log2(final denominator) times.  The first weighted, partial or
    flip entry into an empty sum seeds it with one dict build, and zero
    numerators are dropped only when a term met another.  The sum is
    reduced once.  A lone (w, p) is p scaled.  Products and derivation
    entries run the one product loop; with ``max_weight`` they form only
    the monomial pairs of total weight p + q at most it, so their terms
    above it are never formed, while the other entries are summed
    whole."""
    if len(entries) == 1 and len(entries[0]) == 2:
        w, p = entries[0]
        return p._scaled(w, div)
    den = 1
    out: Dict[int, int] = {}
    met = products = False  # a term met another; a product was formed
    for entry in entries:
        if len(entry) == 2:
            w, p = entry
            x = None
            d = p.den
        else:
            w, p, x = entry
            d = p.den
            if type(x) is GradedPoly:
                d *= x.den
            elif x is not FLIP and type(x) is not int:
                x = _meeting(p, x)  # a derivation: its (slot, image) pairs
                scale = lcm(*[img.den for _, img in x])
                d *= scale
        if den % d:
            r = d // gcd(den, d)
            den *= r
            if out:
                out = {k: v * r for k, v in out.items()}
        if den != d:
            w *= den // d
        if x is None:
            terms = p.nums.items()
        elif type(x) is int:
            terms = p._partial_terms(x)
        elif x is FLIP:
            odd_low = chart.odd_low
            terms = [(k, -v if (k & odd_low).bit_count() & 1 else v)
                     for k, v in p.nums.items()]
        elif type(x) is GradedPoly:
            if len(x.nums) == 1 and 0 in x.nums:  # a constant factor
                w *= x.nums[0]
            elif len(p.nums) == 1 and 0 in p.nums:
                w *= p.nums[0]
                p = x
            else:
                _products_into(out, w, p._layout(), x._layout(), max_weight)
                met = products = True
                continue
            if max_weight is not None:
                p = p.up_to_weight(max_weight)
            terms = p.nums.items()
        else:  # the pairs of a derivation
            for slot, img in x:
                _products_into(out, w * (scale // img.den),
                               img._layout(), p._partial_rows(slot),
                               max_weight)
            met = products = True
            continue
        if out or not w:
            met = True
            get = out.get
            for k, v in terms:
                out[k] = get(k, 0) + v * w
        else:
            out = dict(terms) if w == 1 else {k: v * w for k, v in terms}
    if products:
        _check_guard(chart, out)
    if met and 0 in out.values():
        out = {k: v for k, v in out.items() if v}
    return GradedPoly._of(chart, out, den * div)
