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
signs, odd sectors included.

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
sigma(P).  ``terms``, word -> coefficient, is a view for the printer,
the comultiplications and the pairing, built on first read.

Tensor squares over base functions are normalized with all coefficients
pushed into the left factor via the bimodule relation
u.f (x) v == u (x) f.v; the right slot is always a pure word.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, lcm
from typing import Dict, List, Tuple

from .chart import FIELD_MASK, FIELD_MAX, Chart, mi_factorial, same_chart
from .poly import (FLIP, GradedPoly, TruncationOverflowError, _key_degree,
                   combine, unpack_monomial)

MultiIndex = Tuple[int, ...]


def word_letters(index: MultiIndex) -> List[int]:
    """Coordinate slots of the descending word, highest index first."""
    out: List[int] = []
    for slot in range(len(index) - 1, -1, -1):
        out.extend([slot] * index[slot])
    return out


def word_degree(chart: Chart, index: MultiIndex) -> int:
    """Degree of the basis word (a coordinate derivation has degree -|x_i|)."""
    return -sum(e * chart.coordinate_degree(i) for i, e in enumerate(index))


def _check_index(chart: Chart, index: MultiIndex):
    if len(index) != chart.n:
        raise ValueError("multi-index length != number of coordinates")
    if any(e < 0 for e in index):
        raise ValueError("negative entry in multi-index")
    for i, e in enumerate(index):
        if e > 1 and chart.coordinate_parity(i):
            raise ValueError("odd coordinate derivation repeated in a word")


def letter_sign(chart: Chart, slot: int, index: MultiIndex) -> int:
    """Sign for moving d_slot from the front of the descending word of
    ``index`` to its place, past every letter with a larger coordinate
    index; 0 when d_slot is odd and already in the word."""
    odd = chart.gen_parities  # a base slot's parity is its coordinate's
    if not odd[slot]:
        return 1
    if index[slot]:
        return 0
    crossings = sum([index[u] for u in range(slot + 1, chart.n) if odd[u]])
    return -1 if crossings & 1 else 1


def symbol_sign(chart: Chart, index: MultiIndex) -> int:
    """rho(K), the sign reordering the descending word of ``index`` into
    the fiber monomial y^K: even letters commute with everything, and
    the k odd letters are reversed, so (-1)^(k(k-1)/2), -1 exactly when
    k mod 4 is 2 or 3."""
    odd = sum([e for e, p in zip(index, chart.gen_parities) if p])
    return -1 if odd & 2 else 1


def word_symbol(chart: Chart, index: MultiIndex,
                coeff: GradedPoly = None) -> GradedPoly:
    """sigma(c d^K) = rho(K) c y^K for a base function c (default 1):
    each key of c moved by y^K's, as base generators come first.
    TruncationOverflowError when an exponent or the word's weight
    exceeds ``FIELD_MAX``."""
    if max(index) > FIELD_MAX or sum(index) > FIELD_MAX:
        raise TruncationOverflowError("word weight %d exceeds %d"
                                      % (sum(index), FIELD_MAX))
    key = sum([e * u for e, u in zip(index, chart.unit[chart.n:2 * chart.n])])
    sign = symbol_sign(chart, index)
    if coeff is None:
        return GradedPoly._of(chart, {key: sign})
    if not key:
        return coeff
    return GradedPoly._of(chart, {k + key: v * sign
                                  for k, v in coeff.nums.items()}, coeff.den)


def parity_parts(f: GradedPoly):
    """(parity, part) for the nonzero even and odd parts of ``f``."""
    odd_low = f.chart.odd_low
    return list(f._split(lambda k: (k & odd_low).bit_count() & 1).items())


class _IndexedSum:
    """A finite sum of words with base-function coefficients, held as its
    symbol (module docstring)."""

    __slots__ = ("chart", "_sigma", "_terms")

    def __init__(self, chart: Chart, terms: Dict[MultiIndex, GradedPoly] = None):
        entries = []
        for index, coeff in (terms or {}).items():
            if not coeff:
                continue
            index = tuple(index)
            _check_index(chart, index)
            if coeff.chart != chart:
                raise ValueError("chart mismatch in coefficient")
            if not coeff.is_base_only():
                raise ValueError("coefficients must be base functions")
            entries.append((1, word_symbol(chart, index, coeff)))
        self.chart = chart
        self._sigma = combine(chart, entries)
        self._terms = None

    @classmethod
    def from_symbol(cls, sigma: GradedPoly):
        """The sum whose symbol is ``sigma`` (trusted: base and fiber
        generators only)."""
        out = cls.__new__(cls)
        out.chart = sigma.chart
        out._sigma = sigma
        out._terms = None
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

    @classmethod
    def from_vector_field(cls, field):
        """Weight-one sum of anything with ``chart`` and a per-coordinate
        ``components`` tuple of base functions."""
        chart = field.chart
        return cls(chart, {tuple(int(s == i) for s in range(chart.n)): comp
                           for i, comp in enumerate(field.components)})

    def symbol(self) -> GradedPoly:
        return self._sigma

    @property
    def terms(self) -> Dict[MultiIndex, GradedPoly]:
        """word -> coefficient, read off the symbol on first read (do not
        mutate): its monomials grouped by their fiber part y^K, rho(K)
        times each group's base part the coefficient of K."""
        terms = self._terms
        if terms is None:
            chart = self.chart
            sigma = self._sigma
            base = chart.base_mask
            groups: Dict[int, Dict[int, int]] = {}
            for k, v in sigma.nums.items():
                groups.setdefault(k & ~base, {})[k & base] = v
            shifts = chart.shifts[chart.n:2 * chart.n]
            terms = self._terms = {}
            for fiber, nums in groups.items():
                # rho(K) = -1 for 2 or 3 odd letters mod 4 (``symbol_sign``)
                if (fiber & chart.odd_low).bit_count() & 2:
                    nums = {k: -v for k, v in nums.items()}
                terms[tuple([fiber >> sh & FIELD_MASK for sh in shifts])] = \
                    GradedPoly._of(chart, nums, sigma.den)
        return terms

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
        return self + (-other)

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
        from .grammar import format_indexed
        return "%s(%s)" % (type(self).__name__, format_indexed(self))


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
        entries = []
        for index, coeff in self.terms.items():
            g = f
            for slot in range(self.chart.n):
                for _ in range(index[slot]):
                    g = g.partial(slot)
                if not g:
                    break
            if g:
                entries.append((1, coeff, g))
        return combine(self.chart, entries)

    def compose(self, other: "DiffOp", max_order=None) -> "DiffOp":
        """Operator product self o other, the star product of symbols
        (module docstring), with one term per distinct K, its letters
        taken in ascending slot order on both factors.  A right
        derivative by y_s is the left one followed by a parity flip for
        an odd x_s; a K whose either factor vanishes is not extended.

        ``max_order`` None computes exactly; otherwise a product whose
        order exceeds ``max_order`` raises TruncationOverflowError (its
        top words are never dropped silently).
        """
        chart = same_chart(self, other)
        n = chart.n
        terms = []  # (K!, sigma(self) <-d_y^K, d_x^K sigma(other))
        # (K!, the two factors, last letter of K, its multiplicity)
        stack = [(1, self._sigma, other._sigma, 0, 0)]
        while stack:
            fact, left, right, last, mult = stack.pop()
            terms.append((fact, left, right))
            for s in range(last, n):
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
        product = self.from_symbol(combine(chart, [
            (div // fact, a, b) for fact, a, b in terms], div))
        order = product.order()
        if max_order is not None and order is not None and order > max_order:
            raise TruncationOverflowError(
                "operator order %d exceeds cap %d" % (order, max_order))
        return product


def sym_mul_vf(field, tensor: SymTensor) -> SymTensor:
    """Symmetric product (vector field) (.) tensor, field on the left."""
    return SymTensor.from_vector_field(field) * tensor


# ---------------------------------------------------------------------------
# Comultiplication and tensor squares

class TensorSquare:
    """Two-slot tensor over base functions: map (left word, right word)
    -> coefficient, all coefficients normalized into the left slot.

    The balancing over the (graded-commutative) ring of base functions
    moves a coefficient between slots with the Koszul sign of crossing
    the left slot and *left*-multiplies it there:

        u (x) f.v  ==  (-1)^(|f||u|) (f.u) (x) v .

    This is the balancing that makes the exponential map's slot-wise
    application well defined; balancing by right composition instead
    would break the coalgebra-morphism identity (one extra Leibniz term
    per crossing, checked by hand on a two-coordinate mixed chart).
    """

    __slots__ = ("chart", "kind", "terms")

    def __init__(self, chart: Chart, kind: str,
                 terms: Dict[Tuple[MultiIndex, MultiIndex], GradedPoly] = None):
        if kind not in ("sym", "env"):
            raise ValueError("kind must be 'sym' or 'env'")
        self.chart = chart
        self.kind = kind
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    def add_table(self, table):
        """Add a (left, right) -> list of ``combine`` entries table, each
        key summed with its stored coefficient by one ``combine``."""
        for key, entries in table.items():
            cur = self.terms.pop(key, None)
            if cur is not None:
                entries.append((1, cur))
            val = combine(self.chart, entries)
            if val:
                self.terms[key] = val

    def __eq__(self, other):
        return (isinstance(other, TensorSquare)
                and self.chart == other.chart and self.kind == other.kind
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return "TensorSquare(%s, %d terms)" % (self.kind, len(self.terms))


def _shuffle_splits(chart: Chart, index: MultiIndex):
    """Yield (weight, left index, right index) once per distinct split
    of the descending word into two order-preserving blocks: the left
    block takes L_s <= I_s letters d_s, the right the rest.  The
    comb(I_s, L_s) interleavings of each even letter give equal terms,
    so the weight is their product times the Koszul sign: each odd
    letter sent left crosses the odd letters sent right before it in the
    descending word (those of larger coordinate index)."""
    parities = [chart.coordinate_parity(s) for s in range(chart.n)]
    for left in product(*[range(e + 1) for e in index]):
        weight = 1
        crossings = odd_right = 0
        for s in range(chart.n - 1, -1, -1):
            if not parities[s]:
                weight *= comb(index[s], left[s])
            elif left[s]:
                crossings += odd_right
            else:
                odd_right += index[s]
        right = tuple([i - j for i, j in zip(index, left)])
        yield (-weight if crossings & 1 else weight), left, right


def _comult(element: _IndexedSum, kind: str) -> TensorSquare:
    """Shuffle comultiplication of the words of ``element``, extended
    left-linearly over their coefficients, as a square of ``kind``."""
    chart = element.chart
    terms = {}
    for index, coeff in element.terms.items():
        # left + right = index, so no two terms share a key
        for weight, left, right in _shuffle_splits(chart, index):
            terms[left, right] = (coeff if weight == 1 else
                                  combine(chart, [(weight, coeff)]))
    return TensorSquare(chart, kind, terms)


def comult_sym(tensor: SymTensor) -> TensorSquare:
    """Shuffle comultiplication of a symmetric tensor, left-linear over
    base functions."""
    return _comult(tensor, "sym")


def comult_env(op: DiffOp) -> TensorSquare:
    """Shuffle comultiplication of a normal-ordered operator, computed on
    its derivation words and extended left-linearly over coefficients."""
    return _comult(op, "env")


def tensor_push_left(out: TensorSquare, pairs):
    """Accumulate the sum of left_op (x) right_op over ``pairs`` into
    ``out`` in normal form: each right-slot coefficient f crosses the
    left slot u with a Koszul sign and left-multiplies it.  Symbols are
    graded-commutative and a term has its symbol's parity, so that is
    sigma(u) . f:

        sigma((-1)^(|f||u|) f.u)  =  (-1)^(|f||u|) f . sigma(u)
                                  =  sigma(u) . f.

    The products paired with each right word are summed by one
    ``combine`` and read back by left word; every key is then summed
    once, with its stored coefficient."""
    gathered: Dict[MultiIndex, list] = {}  # right word -> left entries
    for left_op, right_op in pairs:
        for right_index, f in right_op.terms.items():
            gathered.setdefault(right_index, []).append(
                (1, left_op.symbol(), f))
    out.add_table({
        (left_index, right_index): [(1, c)]
        for right_index, entries in gathered.items()
        for left_index, c in DiffOp.from_symbol(
            combine(out.chart, entries)).terms.items()})


# ---------------------------------------------------------------------------
# Duality pairing with fiber polynomials

def pairing(tensor: SymTensor, sigma: GradedPoly) -> GradedPoly:
    """Pair a symmetric tensor against a polynomial in base and fiber
    generators.

    On basis data <word_I, y^J> = I!.delta_{I,J}; the descending-word
    convention absorbs all odd-sector signs.  A base coefficient sitting
    left of the fiber monomial crosses the word with a Koszul sign:
    <W, g.y^J> = (-1)^(|g||y^J|) g.<W, y^J>, which is exactly the rule
    the monomial form g.y^J requires for dual-basis expansions.
    """
    chart = same_chart(tensor, sigma)
    n = chart.n
    base = chart.base_mask
    odd_base = chart.odd_low & base
    entries = []
    for k, v in sigma.nums.items():
        m = unpack_monomial(chart, k)
        if any(m[2 * n:]):
            raise ValueError("pairing argument must be free of form "
                             "generators")
        fiber = m[n:2 * n]
        coeff = tensor.terms.get(fiber)
        if coeff is None:
            continue
        base_parity = (k & odd_base).bit_count() & 1
        word_parity = word_degree(chart, fiber) & 1
        sign = -1 if base_parity and word_parity else 1
        entries.append((1, coeff, GradedPoly._of(
            chart, {k & base: v * mi_factorial(fiber) * sign}, sigma.den)))
    return combine(chart, entries)
