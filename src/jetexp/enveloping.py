"""Symmetric tensors, normal-ordered differential operators, and the
coalgebra structure shared by both.

Word convention.  A multi-index I over the chart's coordinates denotes
the *descending* word: the derivation of the last coordinate comes
first, that of the first coordinate last (so it acts first on a function).
SymTensor stores the coefficient of the descending symmetric word and
DiffOp that of the descending composition, with all coefficient
functions left of all derivations.  The two conventions match, so the
top-order part of an operator reread as a tensor is its leading symbol,
and the duality pairing with fiber monomials is I! on the diagonal with
no stray signs, odd sectors included.

Every Koszul sign for moving one coordinate derivation within a
descending word comes from one rule, ``letter_sign``: d_s entering at
the front of the word of K moves right past the letters with a larger
coordinate index, a sign for each odd one when d_s is odd, and an odd
d_s already in K gives 0 (coordinate derivations commute exactly, so
this is lossless).  ``letter_compose`` brings a single derivation past a
normal-ordered term by the graded Leibniz rule

    d_s o (c d^K)  =  (d_s c) d^K + (-1)^(|x_s||c|) c (d_s d^K),

the symmetric product ``SymTensor.mul_letter_left`` is its last term
alone, and ``add_letter`` gathers ``letter_compose`` over a table (word
-> list of ``poly.combine`` entries, each list summed into one
polynomial by ``from_table``).  ``DiffOp.compose`` applies the letters
of each left word this way, innermost first.

Symbols.  ``symbol`` writes either kind of sum as one polynomial in base
and fiber generators, sigma(sum_K c_K d^K) = sum_K rho(K) c_K y^K, and
``from_symbol`` reads it back.  rho(K) = ``symbol_sign`` reorders the
descending word into the canonical monomial y^K; it is built from
``letter_sign``.  The word images of ``pbw`` are held as symbols.

Tensor squares over base functions are normalized with all coefficients
pushed into the left factor via the bimodule relation
u.f (x) v == u (x) f.v; the right slot is always a pure word.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb
from operator import or_
from typing import Dict, List, Tuple

from .chart import FIELD_MASK, Chart, mi_factorial, mi_weight, same_chart
from .poly import (FLIP, GradedPoly, TruncationOverflowError, combine,
                   unpack_monomial)

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
    if not chart.coordinate_parity(slot):
        return 1
    if index[slot]:
        return 0
    crossings = sum(index[u] for u in range(slot + 1, chart.n)
                    if chart.coordinate_parity(u))
    return -1 if crossings & 1 else 1


def symbol_sign(chart: Chart, index: MultiIndex) -> int:
    """rho(K), the sign reordering the descending word of ``index`` into
    the fiber monomial y^K: the product over its odd letters d_s of
    ``letter_sign`` of d_s on K - e_s, so (-1)^(k(k-1)/2) for k odd
    letters."""
    sign = 1
    for s, e in enumerate(index):
        if e and chart.coordinate_parity(s):
            sign *= letter_sign(chart, s, index[:s] + (0,) + index[s + 1:])
    return sign


def parity_parts(f: GradedPoly):
    """(parity, part) for the nonzero even and odd parts of ``f``."""
    odd_low = f.chart.odd_low
    return list(f._split(lambda k: (k & odd_low).bit_count() & 1).items())


def _prepend(chart: Chart, slot: int, index: MultiIndex,
             coeff: GradedPoly, times: int = 1, weight: int = 1):
    """weight * d_slot^times (coeff d^index) with the letters moved past
    the coefficient and into the word, as (word, ``combine`` entry)
    pairs: for an odd slot c crosses as a parity flip, and an odd square
    is 0; a block of an even letter moves in one step, with no sign."""
    odd = chart.coordinate_parity(slot)
    sign = 0 if odd and times > 1 else letter_sign(chart, slot, index)
    if not sign:
        return []
    word = index[:slot] + (index[slot] + times,) + index[slot + 1:]
    if odd:
        return [(word, (sign * weight, coeff, FLIP))]
    return [(word, (sign * weight, coeff))]


def letter_compose(chart: Chart, slot: int, index: MultiIndex,
                   coeff: GradedPoly, weight: int = 1):
    """weight * d_slot o (coeff d^index) in normal form, as (word,
    ``combine`` entry) pairs, by the graded Leibniz rule

        d_s o (c d^K)  =  (d_s c) d^K + (-1)^(|x_s||c|) c (d_s d^K),

    the first term a partial entry (none when no monomial of c holds
    x_s), the last by ``_prepend``."""
    tail = _prepend(chart, slot, index, coeff, 1, weight)
    if reduce(or_, coeff.nums, 0) >> chart.shifts[slot] & FIELD_MASK:
        return [(index, (weight, coeff, slot))] + tail
    return tail


def add_letter(chart: Chart, table, slot: int, terms, weight: int = 1):
    """Add weight * d_slot o (sum of c d^K over ``terms``, word -> c) to
    ``table`` (word -> list of ``combine`` entries), each term brought
    to normal form by ``letter_compose``."""
    for index, coeff in terms.items():
        for word, entry in letter_compose(chart, slot, index, coeff, weight):
            table.setdefault(word, []).append(entry)


class _IndexedSum:
    """Finite map multi-index -> base-function coefficient."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: Dict[MultiIndex, GradedPoly] = None):
        self.chart = chart
        clean: Dict[MultiIndex, GradedPoly] = {}
        if terms:
            for index, coeff in terms.items():
                if not coeff:
                    continue
                index = tuple(index)
                _check_index(chart, index)
                if coeff.chart != chart:
                    raise ValueError("chart mismatch in coefficient")
                if not coeff.is_base_only():
                    raise ValueError("coefficients must be base functions")
                clean[index] = coeff
        self.terms = clean

    def _wrap(self, terms):
        out = type(self).__new__(type(self))
        out.chart = self.chart
        out.terms = {i: c for i, c in terms.items() if c}
        return out

    @classmethod
    def zero(cls, chart: Chart):
        return cls(chart)

    @classmethod
    def from_word(cls, chart: Chart, index: MultiIndex, coeff=None):
        if coeff is None:
            coeff = GradedPoly.constant(chart, 1)
        elif not isinstance(coeff, GradedPoly):
            coeff = GradedPoly.constant(chart, coeff)
        return cls(chart, {tuple(index): coeff})

    @classmethod
    def from_table(cls, chart: Chart, table, div: int = 1) -> "_IndexedSum":
        """The sum with coefficient combine(entries) / div at each word
        of ``table`` (word -> list of ``combine`` entries)."""
        return cls.zero(chart)._wrap({
            word: combine(chart, entries, div)
            for word, entries in table.items()})

    @classmethod
    def function(cls, chart: Chart, f: GradedPoly):
        return cls(chart, {(0,) * chart.n: f})

    def symbol(self) -> GradedPoly:
        """sigma = sum_K rho(K) c_K y^K, in base and fiber generators."""
        chart = self.chart
        units = chart.unit[chart.n:2 * chart.n]
        return combine(chart, [(symbol_sign(chart, index), c, GradedPoly._of(
            chart, {sum([e * u for e, u in zip(index, units)]): 1}))
            for index, c in self.terms.items()])

    @classmethod
    def from_symbol(cls, sigma: GradedPoly):
        """The sum whose ``symbol`` is ``sigma`` (no form generators): its
        monomials grouped by their fiber part y^K, rho(K) times each
        group's base part the coefficient of K."""
        chart = sigma.chart
        base = chart.base_mask
        groups: Dict[int, Dict[int, int]] = {}
        for k, v in sigma.nums.items():
            groups.setdefault(k & ~base, {})[k & base] = v
        terms = {}
        for fiber, nums in groups.items():
            index = tuple([fiber >> sh & FIELD_MASK
                           for sh in chart.shifts[chart.n:2 * chart.n]])
            if symbol_sign(chart, index) < 0:
                nums = {k: -v for k, v in nums.items()}
            terms[index] = GradedPoly._of(chart, nums, sigma.den)
        return cls.zero(chart)._wrap(terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        return hash((type(self).__name__, self.chart,
                     frozenset((i, hash(c)) for i, c in self.terms.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        same_chart(self, other)
        out = dict(self.terms)
        for i, c in other.terms.items():
            cur = out.get(i)
            out[i] = c if cur is None else cur + c
        return self._wrap(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._wrap({i: -c for i, c in self.terms.items()})

    def scale(self, factor):
        """Left multiplication by a base function or scalar."""
        if isinstance(factor, GradedPoly):
            if not factor.is_base_only():
                raise ValueError("left factor must be a base function")
            return self._wrap({i: factor * c for i, c in self.terms.items()})
        factor = Fraction(factor)
        return self._wrap({i: c * factor for i, c in self.terms.items()})

    def weight_part(self, w: int):
        return self._wrap({i: c for i, c in self.terms.items()
                           if mi_weight(i) == w})

    def weight_le(self, w: int):
        return self._wrap({i: c for i, c in self.terms.items()
                           if mi_weight(i) <= w})

    def homogeneous_components(self):
        """Split by total degree (coefficient degree plus word degree)."""
        buckets: Dict[int, Dict[MultiIndex, GradedPoly]] = {}
        for index, coeff in self.terms.items():
            wd = word_degree(self.chart, index)
            for d, part in coeff.homogeneous_components().items():
                dst = buckets.setdefault(d + wd, {})
                cur = dst.get(index)
                dst[index] = part if cur is None else cur + part
        return {d: self._wrap(t) for d, t in sorted(buckets.items())}

    def degree(self) -> int:
        comps = self.homogeneous_components()
        if not comps:
            from .poly import DegreeUndefinedError
            raise DegreeUndefinedError("zero element has no degree")
        if len(comps) > 1:
            from .poly import NotHomogeneousError
            raise NotHomogeneousError(set(comps))
        return next(iter(comps))

    def __repr__(self):
        from .grammar import format_indexed
        return "%s(%s)" % (type(self).__name__, format_indexed(self))


class SymTensor(_IndexedSum):
    """Polynomial-coefficient combination of graded-symmetric words in the
    coordinate derivations."""

    def weight(self) -> int:
        return max((mi_weight(i) for i in self.terms), default=0)

    def mul_letter_left(self, slot: int, times: int = 1) -> "SymTensor":
        """Symmetric product by d_slot^times from the left (the letters
        still cross each term's coefficient; an even block is one step)."""
        table: Dict[MultiIndex, list] = {}
        for index, coeff in self.terms.items():
            for word, entry in _prepend(self.chart, slot, index, coeff,
                                        times):
                table.setdefault(word, []).append(entry)
        return self.from_table(self.chart, table)


class DiffOp(_IndexedSum):
    """Normal-ordered differential operator."""

    @classmethod
    def identity(cls, chart: Chart) -> "DiffOp":
        return cls.function(chart, GradedPoly.constant(chart, 1))

    @classmethod
    def from_vector_field(cls, field) -> "DiffOp":
        """Order-one operator of anything with ``chart`` and a
        per-coordinate ``components`` tuple of base functions."""
        chart = field.chart
        terms: Dict[MultiIndex, GradedPoly] = {}
        for i, comp in enumerate(field.components):
            if comp:
                terms[tuple(1 if s == i else 0 for s in range(chart.n))] = comp
        return cls(chart, terms)

    def order(self):
        """Filtration order; None for the zero operator."""
        return max((mi_weight(i) for i in self.terms), default=None)

    def gr_leading(self) -> SymTensor:
        """Symbol: the top-order part reread as a symmetric tensor."""
        top = self.order()
        if top is None:
            return SymTensor.zero(self.chart)
        return SymTensor(self.chart, {i: c for i, c in self.terms.items()
                                      if mi_weight(i) == top})

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
        """Operator product self o other in normal form, letter by letter:
        for each term c d^I of self, the letters of I act on other's
        table by ``letter_compose``, innermost (lowest slot) first, and c
        multiplies the result on the left.

        ``max_order`` None computes exactly; otherwise a product whose
        order exceeds ``max_order`` raises TruncationOverflowError (its
        top words are never dropped silently).
        """
        chart = same_chart(self, other)
        out: Dict[MultiIndex, list] = {}
        for index, c in self.terms.items():
            table = other.terms
            for slot in reversed(word_letters(index)):
                step: Dict[MultiIndex, list] = {}
                add_letter(chart, step, slot, table)
                table = self.from_table(chart, step).terms
            for word, coeff in table.items():
                out.setdefault(word, []).append((1, c, coeff))
        product = self.from_table(chart, out)
        order = product.order()
        if max_order is not None and order is not None and order > max_order:
            raise TruncationOverflowError(
                "operator order %d exceeds cap %d" % (order, max_order))
        return product


def sym_mul_vf(field, tensor: SymTensor) -> SymTensor:
    """Symmetric product (vector field) (.) tensor, field on the left."""
    chart = same_chart(field, tensor)
    out = SymTensor.zero(chart)
    for i, comp in enumerate(field.components):
        if comp:
            out = out + tensor.mul_letter_left(i).scale(comp)
    return out


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
    ``out`` in normal form: each right-slot coefficient crosses the left
    slot with a Koszul sign and left-multiplies it.  Every key is summed
    once, with its stored coefficient, by one ``combine``.

    The sign (-1)^(|f||u|) depends on parities only.  Each right
    coefficient enters by its parity parts: an even part multiplies the
    left coefficients as they are, an odd one the left table with its
    odd parts negated (a term's parity is its coefficient's plus its
    word's), built at most once per pair."""
    gathered: Dict[Tuple[MultiIndex, MultiIndex], list] = {}
    for left_op, right_op in pairs:
        chart = left_op.chart
        flipped = None
        for right_index, rcoeff in right_op.terms.items():
            for par, g in parity_parts(rcoeff):
                table = left_op.terms
                if par:
                    if flipped is None:
                        flipped = {i: combine(chart, [
                            (-1 if word_degree(chart, i) & 1 else 1, c,
                             FLIP)]) for i, c in table.items()}
                    table = flipped
                for left_index, lcoeff in table.items():
                    gathered.setdefault((left_index, right_index),
                                        []).append((1, g, lcoeff))
    out.add_table(gathered)


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
