"""Graded affine connections, and a connection extended to symmetric
tensors.

A connection is specified by its Christoffel table on the chart: the
covariant derivative of the j-th coordinate derivation along the i-th is
sum_k Gamma[i, j, k] d_k, the row ``rows[i, j]`` of nonzero (k, Gamma)
that every route reads.  A connection has operator degree 0, which
forces each nonzero Gamma^k_{ij} to be homogeneous of degree
|x_k| - |x_i| - |x_j|; that constraint is checked at construction, as is
graded symmetry when the torsion-free flag is set (silent violations
would poison everything built downstream).

On interior products: pairing the i-th coordinate derivation with its
own degree-(1+|x_i|) form generator is degree -(1+|x_i|), so the
interior product by a coordinate derivation is implemented throughout as
the left derivative by the form generator (a derived convention; the
coordinate formulas for the fiberwise homotopy operators are normative).
"""

from __future__ import annotations

from typing import Dict, Tuple

from .chart import FIELD_MASK, Chart, same_chart
from .enveloping import (SymTensor, fiber_parts, letter_sign, symbol_sign,
                         word_symbol)
from .poly import FLIP, GradedPoly, _key_degree, combine


class ChristoffelError(ValueError):
    """A Christoffel table that breaks the degree or symmetry rule;
    ``triple`` is the least failing (i, j, k), 0-based."""

    def __init__(self, message: str, triple: Tuple[int, int, int]):
        super().__init__(message)
        self.triple = triple


class Connection:
    """Christoffel table on the chart.

    ``gamma`` maps (i, j, k) (0-based) to the coefficient polynomial of
    the k-th coordinate derivation in the covariant derivative of the
    j-th along the i-th; missing entries are zero.  Construction reads
    the stored form of each entry: its degree off each packed key
    (``poly._key_degree``) and, with ``torsion_free``, its graded
    symmetry against its mirror by denominator and signed numerators,
    building no polynomial for either check.  A failure raises
    ``ChristoffelError`` naming the least failing triple.
    """

    __slots__ = ("chart", "gamma", "torsion_free", "rows")

    def __init__(self, chart: Chart,
                 gamma: Dict[Tuple[int, int, int], GradedPoly] = None,
                 torsion_free: bool = True):
        self.chart = chart
        table: Dict[Tuple[int, int, int], GradedPoly] = {}
        # (i, j) -> the nonzero (k, Gamma^k_ij), k ascending
        self.rows: Dict[Tuple[int, int], list] = {}
        degree = [c.degree for c in chart.coords]
        for triple, poly in sorted((gamma or {}).items()):
            if not poly:
                continue
            if poly.chart is not chart and poly.chart != chart:
                raise ValueError("chart mismatch in Christoffel entry")
            if not poly.is_base_only():
                raise ValueError("Christoffel entries are base functions")
            i, j, k = triple
            want = degree[k] - degree[i] - degree[j]
            for key in poly.nums:
                if _key_degree(chart, key) != want:
                    raise ChristoffelError(
                        "Christoffel entry (%d,%d,%d) must be homogeneous "
                        "of degree %d" % (i + 1, j + 1, k + 1, want), triple)
            table[triple] = poly
            self.rows.setdefault((i, j), []).append((k, poly))
        self.gamma = table
        self.torsion_free = bool(torsion_free)
        if self.torsion_free:
            self._check_symmetric()

    @classmethod
    def flat(cls, chart: Chart) -> "Connection":
        return cls(chart, {})

    def _check_symmetric(self):
        """Gamma^k_ij = (-1)^(|x_i||x_j|) Gamma^k_ji for all i, j, k.  A
        triple fails together with its mirror (j, i, k), and one whose
        entry and mirror are both missing cannot fail, so only the
        stored keys are visited, as (min(i, j), max(i, j), k) in
        ascending order: the first failure named is the least failing
        triple.  Stored entries are nonzero, so a triple whose entry or
        mirror is missing fails, and otherwise the two are compared by
        denominator and signed numerators."""
        odd = [c.degree & 1 for c in self.chart.coords]
        gamma = self.gamma
        for i, j, k in sorted({(min(i, j), max(i, j), k)
                               for i, j, k in gamma}):
            a = gamma.get((i, j, k))
            b = gamma.get((j, i, k))
            if (a is None or b is None or a.den != b.den
                    or a.nums != (b.nums if not odd[i] & odd[j] else
                                  {key: -v for key, v in b.nums.items()})):
                raise ChristoffelError(
                    "torsion_free flag set but Christoffel table is "
                    "not graded-symmetric at (%d,%d,%d)"
                    % (i + 1, j + 1, k + 1), (i, j, k))

    def __eq__(self, other):
        if not isinstance(other, Connection):
            return NotImplemented
        return (self.chart == other.chart and self.gamma == other.gamma
                and self.torsion_free == other.torsion_free)

    def __repr__(self):
        return "Connection(%d entries, torsion_free=%s)" % (
            len(self.gamma), self.torsion_free)


def replacement_terms(conn: Connection, direction: int, word: int):
    """cov(d_direction, ``word``) read off the Christoffel table, as
    terms (signed multiplicity, Gamma, word J).

    Each block of equal letters d_slot (only even letters repeat) is
    replaced once by Gamma(direction, slot, k) d_k and scaled by its
    multiplicity: d_slot is pulled out to the front of the word (the
    sign ``letter_sign`` of d_slot on I - e_slot), and d_k is put in at
    its place (``letter_sign`` of d_k on I - e_slot, which is 0 for an
    odd d_k already in the word).  Each entry is homogeneous of parity
    |d_k| + |d_direction| + |d_slot|, so moving it out past the letters
    before the block undoes the direction's crossing of them.
    """
    chart = conn.chart
    rows = conn.rows
    fiber = chart.unit[chart.n:2 * chart.n]
    for slot in range(chart.n - 1, -1, -1):
        mult = word >> chart.shifts[chart.n + slot] & FIELD_MASK
        if not mult or (direction, slot) not in rows:
            continue
        rest = word - fiber[slot]
        pulled = mult * letter_sign(chart, slot, rest)
        for k, gam in rows[direction, slot]:
            sign = letter_sign(chart, k, rest)
            if sign:  # else an odd letter repeated
                yield pulled * sign, gam, rest + fiber[k]


def coordinate_replacement(conn: Connection, direction: int,
                           word: int) -> SymTensor:
    """cov(d_direction, ``word``) as a tensor: one ``combine`` of the
    symbols of the terms of ``replacement_terms``."""
    chart = conn.chart
    return SymTensor.from_symbol(combine(chart, [
        (mult, word_symbol(chart, j, gam))
        for mult, gam, j in replacement_terms(conn, direction, word)]))


def nabla_sym(conn: Connection, x, tensor: SymTensor) -> SymTensor:
    """The connection extended as a derivation of the symmetric product,
    along a vector field ``x`` given by its base-function ``components``.

    By the Leibniz rule over ``coordinate_replacement``: with X = sum_i
    X_i d_i,

        cov(X, c w) = X(c) w + sum_i (-1)^(|X_i d_i| |c|) c X_i cov(d_i, w).

    Base functions commute gradedly, so the signed c X_i is X_i times c
    under a parity flip when x_i is odd; X(c) w has symbol X(c) sigma(w),
    so the first terms are X applied to the whole symbol (a ``derive``).
    The words w and their coefficients c are the fiber parts of the
    symbol, and all terms are one ``combine``.
    """
    chart = same_chart(conn, x, tensor)
    sigma = tensor.symbol()
    entries = [(sigma.den, sigma.derive(dict(enumerate(x.components))))]
    for word, nums in fiber_parts(sigma).items():
        coeff = GradedPoly._of(chart, nums)
        flipped = combine(chart, [(1, coeff, FLIP)])
        for i, comp in enumerate(x.components):
            cov = coordinate_replacement(conn, i, word).symbol()
            if comp and cov:
                entries.append((symbol_sign(chart, word), comp * (
                    flipped if chart.coordinate_parity(i) else coeff), cov))
    return SymTensor.from_symbol(combine(chart, entries, sigma.den))
