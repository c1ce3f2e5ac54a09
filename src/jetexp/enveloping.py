"""Symmetric tensors, normal-ordered differential operators, and the
coalgebra structure shared by both.

Word convention.  A multi-index I over the chart's coordinates denotes
the *descending* word: the derivation of the last coordinate comes
first, that of the first coordinate last (so it acts first on a function).
A term c d^I of a tensor is the descending symmetric word, of an
operator the descending composition, with all coefficient functions
left of all derivations.  The two conventions match, so the top-order
part of an operator reread as a tensor is its leading symbol, and the
duality pairing with fiber monomials is I! on the diagonal with no stray
signs, odd sectors included.  Inside the package a word is the packed
key of y^I, its weight field included (``word_key``, the one conversion
from a multi-index): I_s is the field of fiber slot s, |I| the weight
field, and the odd letters the key's ``odd_low`` bits.

Every Koszul sign for moving one coordinate derivation within a
descending word comes from one rule, ``letter_sign``: d_s entering at
the front of the word of K moves right past the letters with a larger
coordinate index, a sign for each odd one when d_s is odd, and an odd
d_s already in K gives 0 (coordinate derivations commute exactly, so
this is lossless).

Symbols.  A tensor or an operator holds one value, its symbol

    sigma(sum_K c_K d^K)  =  sum_K rho(K) c_K y^K,

one polynomial in base and fiber generators; rho(K) = ``symbol_sign``
reorders the descending word into the canonical monomial y^K
(``word_symbol`` is sigma(d^K)).  Sums, scaling, equality and the
weight filtration are those of the polynomial, the weight of a key being
the word order.  Constant-coefficient derivations supercommute exactly
as the fiber generators do, so the symmetric product is the product of
symbols, and the operator product is the normal-ordered star product

    sigma(P o Q)  =  sum_K 1/K! (sigma(P) <-d_y^K) (d_x^K sigma(Q)),

right derivatives in the fiber generators on the left factor and left
ones in the base generators on the right factor; for one letter it is
the graded Leibniz rule sigma(d_s o P) = partial_{x_s} sigma(P) + y_s .
sigma(P).  A symbol's monomials grouped by word are its ``fiber_parts``;
``terms``, multi-index -> coefficient, is a view of them for readers
outside the package, built on each read.

Tensor squares over base functions are symbols on ``square_chart``,
which adds a primed copy x' of each coordinate: u (x) v is
sigma(u) . sigma(v)', the right factor's fiber generators moved to the
copy's y' (``to_square``).  So c d^L (x) d^R is rho(L) rho(R) c y^L y'^R,
the balancing u (x) f.v = (-1)^(|f||u|) (f.u) (x) v is graded
commutativity (balancing by right composition would break the
coalgebra-morphism identity), and the shuffle comultiplication is the
substitution y -> y + y' (``comult_sym``, ``comult_env``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm
from operator import or_
from typing import Callable, Dict, Tuple

from .chart import FIELD_BITS, FIELD_MASK, FIELD_MAX, Chart, same_chart
from .poly import (FLIP, GradedPoly, TruncationOverflowError, _key_degree,
                   combine)

MultiIndex = Tuple[int, ...]


def _check_index(chart: Chart, index: MultiIndex):
    if len(index) != chart.n:
        raise ValueError("multi-index length != number of coordinates")
    if any(e < 0 for e in index):
        raise ValueError("negative entry in multi-index")
    for i, e in enumerate(index):
        if e > 1 and chart.coordinate_parity(i):
            raise ValueError("odd coordinate derivation repeated in a word")


def word_key(chart: Chart, index: MultiIndex) -> int:
    """The word of ``index``: the packed key of y^index.
    TruncationOverflowError when an exponent or the word's weight
    exceeds ``FIELD_MAX``."""
    if max(index) > FIELD_MAX or sum(index) > FIELD_MAX:
        raise TruncationOverflowError("word weight %d exceeds %d"
                                      % (sum(index), FIELD_MAX))
    return sum([e * u for e, u in zip(index, chart.unit[chart.n:2 * chart.n])])


def letter_sign(chart: Chart, slot: int, word: int) -> int:
    """Sign for moving d_slot from the front of the descending ``word``
    to its place, past every letter with a larger coordinate index; 0
    when d_slot is odd and already in the word."""
    shift = chart.shifts[chart.n + slot]
    if not chart.odd_low >> shift & 1:
        return 1
    odd = (word & chart.odd_low) >> shift
    if odd & 1:
        return 0
    return -1 if odd.bit_count() & 1 else 1


def symbol_sign(chart: Chart, word: int) -> int:
    """rho(K), the sign reordering the descending ``word`` K into the
    fiber monomial y^K: even letters commute with everything, and the k
    odd letters are reversed, so (-1)^(k(k-1)/2), -1 exactly when k mod
    4 is 2 or 3."""
    return -1 if (word & chart.odd_low).bit_count() & 2 else 1


def word_symbol(chart: Chart, word: int,
                coeff: GradedPoly = None) -> GradedPoly:
    """sigma(c d^K) = rho(K) c y^K for a base function c (default 1):
    each key of c moved by the ``word`` K, as base generators come
    first."""
    sign = symbol_sign(chart, word)
    if coeff is None:
        return GradedPoly._of(chart, {word: sign})
    if not word:
        return coeff
    return GradedPoly._of(chart, {k + word: v * sign
                                  for k, v in coeff.nums.items()}, coeff.den)


def fiber_parts(sigma: GradedPoly) -> Dict[int, Dict[int, int]]:
    """The monomials of ``sigma`` by fiber part: packed fiber part (its
    weight field included) -> {packed base part: numerator / sigma.den}."""
    base = sigma.chart.base_mask
    groups: Dict[int, Dict[int, int]] = {}
    for k, v in sigma.nums.items():
        groups.setdefault(k & ~base, {})[k & base] = v
    return groups


class _IndexedSum:
    """A finite sum of words with base-function coefficients, held as its
    symbol (module docstring)."""

    __slots__ = ("chart", "_sigma")

    def __init__(self, chart: Chart,
                 terms: Dict[MultiIndex, GradedPoly] = None):
        entries = []
        for index, coeff in (terms or {}).items():
            if not coeff:
                continue
            _check_index(chart, index)
            if coeff.chart != chart:
                raise ValueError("chart mismatch in coefficient")
            if not coeff.is_base_only():
                raise ValueError("coefficients must be base functions")
            entries.append((1, word_symbol(chart, word_key(chart, index),
                                           coeff)))
        self.chart = chart
        self._sigma = combine(chart, entries)

    @classmethod
    def from_symbol(cls, sigma: GradedPoly):
        """The sum whose symbol is ``sigma`` (trusted: base and fiber
        generators only)."""
        out = cls.__new__(cls)
        out.chart = sigma.chart
        out._sigma = sigma
        return out

    @classmethod
    def zero(cls, chart: Chart):
        return cls.from_symbol(GradedPoly.zero(chart))

    @classmethod
    def from_word(cls, chart: Chart, index: MultiIndex, coeff=None):
        if coeff is None:
            coeff = GradedPoly.constant(chart, 1)
        elif not isinstance(coeff, GradedPoly):
            coeff = GradedPoly.constant(chart, coeff)
        return cls(chart, {tuple(index): coeff})

    @classmethod
    def function(cls, chart: Chart, f: GradedPoly):
        return cls(chart, {(0,) * chart.n: f})

    def symbol(self) -> GradedPoly:
        return self._sigma

    @property
    def terms(self) -> Dict[MultiIndex, GradedPoly]:
        """multi-index -> coefficient, read off the symbol on each read:
        rho(K) times the base part of each fiber part K."""
        chart = self.chart
        den = self._sigma.den
        shifts = chart.shifts[chart.n:2 * chart.n]
        return {tuple([word >> sh & FIELD_MASK for sh in shifts]):
                GradedPoly._of(chart, nums, den) * symbol_sign(chart, word)
                for word, nums in fiber_parts(self._sigma).items()}

    def __bool__(self):
        return bool(self._sigma)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._sigma == other._sigma

    def __hash__(self):
        return hash((type(self).__name__, self._sigma))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.from_symbol(self._sigma + other._sigma)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.from_symbol(self._sigma - other._sigma)

    def __neg__(self):
        return self.from_symbol(-self._sigma)

    def scale(self, factor):
        """Left multiplication by a base function or scalar."""
        if isinstance(factor, GradedPoly):
            if not factor.is_base_only():
                raise ValueError("left factor must be a base function")
            return self.from_symbol(factor * self._sigma)
        return self.from_symbol(self._sigma * Fraction(factor))

    def weight_part(self, w: int):
        return self.from_symbol(self._sigma.weight_layers().get(
            w, GradedPoly.zero(self.chart)))

    def weight_le(self, w: int):
        return self.from_symbol(self._sigma.up_to_weight(w))

    def homogeneous_components(self):
        """Split by total degree (coefficient degree plus word degree; a
        fiber generator counts minus its degree)."""
        chart = self.chart
        base = chart.base_mask
        return {d: self.from_symbol(part) for d, part in self._sigma._split(
            lambda k: _key_degree(chart, k & base)
            - _key_degree(chart, k & ~base)).items()}

    def __repr__(self):
        from .grammar import format_diffop, format_symtensor
        fmt = format_diffop if isinstance(self, DiffOp) else format_symtensor
        return "%s(%s)" % (type(self).__name__, fmt(self))


class SymTensor(_IndexedSum):
    """Polynomial-coefficient combination of graded-symmetric words in the
    coordinate derivations."""

    def weight(self) -> int:
        return max(self._sigma.nums, default=0) >> self.chart.weight_shift

    def __mul__(self, other):
        """Symmetric product: the product of symbols."""
        if type(other) is not SymTensor:
            return NotImplemented
        return SymTensor.from_symbol(self._sigma * other._sigma)


class DiffOp(_IndexedSum):
    """Normal-ordered differential operator."""

    @classmethod
    def identity(cls, chart: Chart) -> "DiffOp":
        return cls.function(chart, GradedPoly.constant(chart, 1))

    def order(self):
        """Filtration order (a key's weight); None for the zero operator."""
        if self._sigma:
            return max(self._sigma.nums) >> self.chart.weight_shift

    def gr_leading(self) -> SymTensor:
        """Symbol: the top-order part reread as a symmetric tensor."""
        top = self.order()
        if top is None:
            return SymTensor.zero(self.chart)
        return SymTensor.from_symbol(self._sigma.weight_layers()[top])

    def apply(self, f: GradedPoly) -> GradedPoly:
        if f.chart != self.chart:
            raise ValueError("chart mismatch between operator and argument")
        chart = self.chart
        entries = []
        for word, nums in fiber_parts(self._sigma).items():
            g = f
            for slot in range(chart.n):
                for _ in range(word >> chart.shifts[chart.n + slot]
                               & FIELD_MASK):
                    g = g.partial(slot)
                if not g:
                    break
            if g:
                entries.append((symbol_sign(chart, word),
                                GradedPoly._of(chart, nums), g))
        return combine(chart, entries, self._sigma.den)

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Operator product self o other, the star product of symbols
        (module docstring), with one term per distinct K, its letters
        taken in ascending slot order on both factors.  A right
        derivative by y_s is the left one followed by a parity flip for
        an odd x_s; a K whose either factor vanishes is not extended.
        K takes only the letters s whose fiber field s some key of self
        holds and whose base field s some key of other holds (nonzero
        fields in the OR of each factor's keys, as ``poly._meeting``
        reads them; a derivative holds no field its factor does not), so
        a product already in normal order, a function on the left or a
        constant-coefficient word on the right, is one product of
        symbols with no partial pass."""
        chart = same_chart(self, other)
        n = chart.n
        shifts = chart.shifts
        held_left = reduce(or_, self._sigma.nums, 0)
        held_right = reduce(or_, other._sigma.nums, 0)
        letters = [s for s in range(n)
                   if held_left >> shifts[n + s] & FIELD_MASK
                   and held_right >> shifts[s] & FIELD_MASK]
        terms = []  # (K!, sigma(self) <-d_y^K, d_x^K sigma(other))
        # (K!, the two factors, last letter of K, its multiplicity)
        stack = [(1, self._sigma, other._sigma, 0, 0)]
        while stack:
            fact, left, right, last, mult = stack.pop()
            terms.append((fact, left, right))
            for s in letters:
                if s < last:
                    continue
                odd = chart.coordinate_parity(s)
                if s == last and odd and mult:
                    continue
                b = right.partial(s)
                a = left.partial(n + s) if b else None
                if a and odd:
                    a = combine(chart, [(1, a, FLIP)])
                if a:
                    m = mult + 1 if s == last else 1
                    stack.append((fact * m, a, b, s, m))
        div = lcm(*[fact for fact, _, _ in terms])
        return self.from_symbol(combine(chart, [
            (div // fact, a, b) for fact, a, b in terms], div))


# ---------------------------------------------------------------------------
# Tensor squares and the comultiplication

@lru_cache(maxsize=None)
def square_chart(chart: Chart) -> Chart:
    """The coordinates of ``chart`` and a primed copy of each, of the same
    degree, whose fiber generators y' hold a square's right slot.  A
    copy's generator names are the chart's with the primes appended, and
    it takes as many primes as keep them free (x' may be taken)."""
    primes = "'"
    while not set(chart.gen_names).isdisjoint(
            [name + primes for name in chart.gen_names]):
        primes += "'"
    return Chart(chart.coords + tuple((name + primes, degree)
                                      for name, degree in chart.coords),
                 chart.truncation)


def to_square(sigma: GradedPoly, right: bool = False) -> GradedPoly:
    """A symbol (base and fiber generators) on ``square_chart``, in the
    left slot (y) or the ``right`` one (y').  Only the packed keys move:
    the base fields stay, and the fiber and weight fields shift."""
    chart = sigma.chart
    width, base = FIELD_BITS * chart.n, chart.base_mask
    step = 2 * width if right else width
    return GradedPoly._of(square_chart(chart), {
        k & base | (k & base << width) << step | k >> 3 * width << 6 * width: v
        for k, v in sigma.nums.items()}, sigma.den)


def square_words(chart: Chart, fiber: int) -> Tuple[int, int]:
    """The words L and R of ``chart`` of a fiber key y^L y'^R of
    ``square_chart(chart)``.  A word's weight, its fields' sum, is their
    value mod ``FIELD_MASK``: 2^FIELD_BITS is 1 mod it, and it exceeds
    every weight."""
    width, fields = FIELD_BITS * chart.n, chart.base_mask
    left, right = fiber >> 2 * width & fields, fiber >> 3 * width & fields
    return (left << width | left % FIELD_MASK << chart.weight_shift,
            right << width | right % FIELD_MASK << chart.weight_shift)


def fiber_sum_powers(chart: Chart) -> Callable[[int], GradedPoly]:
    """K -> (y + y')^K on ``square_chart(chart)``, for K the packed fiber
    part of a key of ``chart``, each formed once while the map lives:
    (y + y')^K = (y_s + y'_s) . (y + y')^(K - e_s) for the lowest slot s
    of K, followed down to a formed power and multiplied back up."""
    square = square_chart(chart)
    n = chart.n
    powers = {0: GradedPoly.constant(square, 1)}

    def power(fiber: int) -> GradedPoly:
        chain, key = [], fiber
        while key not in powers:
            s = ((key & -key).bit_length() - 1) // FIELD_BITS  # y_s's slot
            chain.append((key, s))
            key -= chart.unit[s]
        for key, s in reversed(chain):
            powers[key] = GradedPoly._of(square, {
                square.unit[n + s]: 1, square.unit[2 * n + s]: 1}) \
                * powers[key - chart.unit[s]]
        return powers[fiber]
    return power


def _comult(element: _IndexedSum, powers=None) -> GradedPoly:
    """Shuffle comultiplication, left-linear over base functions: one
    ``combine`` of c_K . (y + y')^K over the fiber parts K of the symbol,
    the powers from ``powers`` or a ``fiber_sum_powers`` of this call."""
    sigma = element.symbol()
    square = square_chart(sigma.chart)
    power = powers or fiber_sum_powers(sigma.chart)
    return combine(square, [(1, GradedPoly._of(square, nums), power(fiber))
                            for fiber, nums in fiber_parts(sigma).items()],
                   sigma.den)


def comult_sym(tensor: SymTensor, powers=None) -> GradedPoly:
    """Comultiplication of a symmetric tensor (``_comult``)."""
    return _comult(tensor, powers)


def comult_env(op: DiffOp, powers=None) -> GradedPoly:
    """Comultiplication of a normal-ordered operator (``_comult``)."""
    return _comult(op, powers)
