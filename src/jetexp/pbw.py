"""The formal exponential map between symmetric tensors and differential
operators, its inverse, and the dual correction form of the flat
connection it transports (its difference from the naive product).

The map is defined on basis words of coordinate derivations by the
averaged recursion

    exp(X_0 (.) ... (.) X_n) = 1/(n+1) * sum_k eps_k *
        ( X_k o exp(word minus X_k) - exp(cov(X_k, word minus X_k)) )

with eps_k the Koszul sign of pulling X_k to the front, and is extended
to arbitrary tensors by left linearity over base functions (its own
well-definedness).  On the descending word of a multi-index I equal
letters give equal terms (only even letters repeat, so their sign is
+1), and the sum is formed once per distinct letter:

    exp(I) = 1/|I| * sum_{s : I_s > 0} eps_s * I_s *
        ( d_s o exp(I - e_s) - exp(cov(d_s, word of I - e_s)) )

with eps_s = ``enveloping.letter_sign`` of d_s on I - e_s (pulling d_s
to the front is the inverse of moving it back to its place).
``recursion_steps`` yields the triples (s, I - e_s, eps_s * I_s) that
drive both the word images here and the values of ``fedosov.tau_pbw``.
No general operator product is formed: d_s o exp(I - e_s) is taken one
coefficient at a time by the one-letter Leibniz rule
(``enveloping.add_letter`` over ``letter_compose``)

    d_s o (c d^K)  =  (d_s c) d^K + (-1)^(|x_s||c|) c (d_s d^K),

and all its terms and the replacement terms c_J exp(J) go into one
word -> coefficient table of ``poly.combine`` entries with integer
weights eps_s * I_s: a partial of a coefficient, a coefficient under a
parity flip, or a product c_J * (coefficient of exp(J)).  Each word's
entries are summed into one polynomial and divided by |I| once.
``map`` gathers c_J exp(J) into one table the same way.  The inverse
peels symbols: the top-order part of an operator is reinterpreted as a
word, its image subtracted, and the remainder (one order lower, because
symbols match exactly) recursed on.

A context carries two memo tables, the only mutable state: basis word
to operator, and (slot s, word of J) to the replacement tensor
cov(d_s, word of J) that the recursion subtracts for the word J + e_s,
read off the Christoffel table by ``geometry.coordinate_replacement``.
The replacements are shared by the word images and by the augmentation
route ``fedosov.tau_pbw``, which runs the same recursion on values.  A
missing entry of either table is computed and then stored by one
``dict.setdefault``, which is atomic, and the first value stored wins,
so contexts can be shared across worker threads (two threads may
compute the same entry, but both get the same stored value).

Weight bookkeeping: a context created with the chart's default cap can
serve the map and its inverse up to weight Q.  The dual correction form
``xi_form`` reads the inverse of one extra composition with a vector
field, so it requires ``max_weight`` headroom of one above the fiber
weight it is probed at; the constructor argument makes that explicit
rather than silently truncating.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .chart import (Chart, mi_all_up_to, mi_factorial, mi_weight,
                    same_chart)
from .enveloping import (DiffOp, SymTensor, TruncationOverflowError,
                         add_letter, letter_sign, word_degree)
from .geometry import Connection, coordinate_replacement
from .poly import GradedPoly, combine, pack_monomial


def recursion_steps(chart: Chart, index):
    """(s, I - e_s, eps_s * I_s) for every letter d_s of the word of I,
    highest slot first: the steps of the averaged recursion."""
    for slot in range(chart.n - 1, -1, -1):
        mult = index[slot]
        if mult:
            rest = index[:slot] + (mult - 1,) + index[slot + 1:]
            yield slot, rest, letter_sign(chart, slot, rest) * mult


class PbwContext:
    """Chart + connection + memoized basis-word images and replacement
    tensors (first value stored wins; see the module docstring)."""

    def __init__(self, chart: Chart, conn: Connection, max_weight: int = None):
        if conn.chart != chart:
            raise ValueError("chart mismatch between chart and connection")
        self.chart = chart
        self.conn = conn
        self.max_weight = (chart.truncation.max_sym_weight
                           if max_weight is None else int(max_weight))
        self._memo: Dict[Tuple[int, ...], DiffOp] = {}
        self._replacements: Dict[Tuple[int, Tuple[int, ...]], SymTensor] = {}

    # -- basis words ---------------------------------------------------------
    def word_image(self, index) -> DiffOp:
        """Image of the descending basis word of ``index`` (memoized)."""
        index = tuple(index)
        hit = self._memo.get(index)
        if hit is not None:
            return hit
        return self._memo.setdefault(index, self._compute_word(index))

    def replacement(self, slot: int, index) -> SymTensor:
        """cov(d_slot, word of ``index``), the tensor the recursion
        subtracts for the word index + e_slot (memoized like the word
        images)."""
        key = (slot, tuple(index))
        hit = self._replacements.get(key)
        if hit is not None:
            return hit
        return self._replacements.setdefault(
            key, coordinate_replacement(self.conn, slot, key[1]))

    def _compute_word(self, index) -> DiffOp:
        """One step of the recursion: every slot's terms d_s o W_{I-e_s}
        (by ``add_letter``, one coefficient at a time) and every
        replacement term c_J W_J are gathered in one word -> entries
        table with integer weights eps_s * I_s, divided by |I| once."""
        chart = self.chart
        m = mi_weight(index)
        if m == 0:
            return DiffOp.identity(chart)
        if m == 1:
            return DiffOp.from_word(chart, index)
        table: Dict[Tuple[int, ...], list] = {}
        for slot, rest, weight in recursion_steps(chart, index):
            add_letter(chart, table, slot, self.word_image(rest).terms, weight)
            self._gather(table, self.replacement(slot, rest), -weight)
        return DiffOp.from_table(chart, table, m)

    def _gather(self, table, tensor: SymTensor, weight: int):
        """Add weight * sum_J c_J W_J to ``table`` (word -> list of
        ``combine`` entries), one product entry per term."""
        for index, c in tensor.terms.items():
            for word, coeff in self.word_image(index).terms.items():
                table.setdefault(word, []).append((weight, c, coeff))

    # -- the map and its inverse ----------------------------------------------
    def map(self, tensor: SymTensor) -> DiffOp:
        """Left-linear extension of the basis-word images."""
        same_chart(self, tensor)
        if tensor.weight() > self.max_weight:
            raise TruncationOverflowError(
                "tensor weight %d exceeds context cap %d"
                % (tensor.weight(), self.max_weight))
        table: Dict[Tuple[int, ...], list] = {}
        self._gather(table, tensor, 1)
        return DiffOp.from_table(self.chart, table)

    def inv(self, op: DiffOp) -> SymTensor:
        """Inverse by symbol peeling (top order down)."""
        same_chart(self, op)
        order = op.order()
        if order is not None and order > self.max_weight:
            raise TruncationOverflowError(
                "operator order %d exceeds context cap %d"
                % (order, self.max_weight))
        out = SymTensor.zero(self.chart)
        rem = op
        while rem:
            k = rem.order()
            top = rem.gr_leading()
            out = out + top
            rem = rem - self.map(top)
            new_order = rem.order()
            if new_order is not None and new_order >= k:
                raise AssertionError("symbol peeling failed to lower order")
        return out


def xi_form(ctx: PbwContext, max_fiber_weight: int = None):
    """Dual correction form as a one-form valued in fiberwise vector
    fields: component k is the polynomial (in base, fiber and form
    generators) acting as coefficient of d/dy_k.

    Built from the transpose relation through the duality pairing,
    expanded in the dual bases: for each direction i and word index I,

        contribution_k  +=  sign/I! * y^I * <theta(d_i, word_I), y_k>

    with sign = (-1)^(|word_I||d_i|), then multiplied by the direction's
    form generator on the left.  theta(d_i, word_I) is the transported
    connection inv(d_i o exp(I)) less the naive symmetric product and
    the input connection; for |I| >= 2 only the first has weight one,
    and ``inv`` is left linear over base functions, so

        <theta(d_i, word_I), y_k>  =  sum_J c_J * lambda_k(J)

    over the terms c_J d^J of d_i o exp(I) (one ``add_letter`` table),
    where lambda_k(J) is the coefficient at e_k of inv(d^J).  lambda is
    filled bottom-up over the words of weight at most one above the
    fiber weight: lambda(0) = 0, lambda_k(e_j) = delta_jk and, since
    exp(J) is d^J plus lower terms c_K d^K,

        lambda_k(J)  =  -sum_{K != J} c_K * lambda_k(K).

    Requires a torsion-free connection (the fiber weight would otherwise
    start at one, not two).
    """
    if not ctx.conn.torsion_free:
        raise ValueError("dual correction form requires a torsion-free "
                         "connection")
    chart = ctx.chart
    n = chart.n
    weight = (chart.truncation.max_sym_weight if max_fiber_weight is None
              else int(max_fiber_weight))
    if weight + 1 > ctx.max_weight:
        raise TruncationOverflowError(
            "fiber weight %d needs context cap at least %d"
            % (weight, weight + 1))
    words = [index for index in mi_all_up_to(n, weight + 1)
             if not any(e > 1 and chart.coordinate_parity(s)
                        for s, e in enumerate(index))]
    lam = {}  # word J -> {e_k: lambda_k(J)}, the weight-1 part of inv(d^J)

    def inv_weight_one(terms, scale, skip=None):
        """{e_k: sum of scale * c_J * lambda_k(J)} over ``terms`` (word
        J -> c_J) but the word ``skip``."""
        table: Dict[Tuple[int, ...], list] = {}
        for word, c in terms.items():
            if word != skip:
                for e, v in lam[word].items():
                    table.setdefault(e, []).append((scale, c, v))
        return SymTensor.from_table(chart, table).terms

    for index in words:
        if mi_weight(index) < 2:
            lam[index] = {index: GradedPoly.constant(chart, 1)} \
                if any(index) else {}
        else:
            lam[index] = inv_weight_one(ctx.word_image(index).terms, -1,
                                        index)
    components = [[] for _ in range(n)]
    for index in words:
        if not 2 <= mi_weight(index) <= weight:
            continue
        y_mono = GradedPoly._of(chart, {pack_monomial(
            chart, (0,) * n + index + (0,) * n): 1}, mi_factorial(index))
        odd_word = word_degree(chart, index) & 1
        image = ctx.word_image(index).terms
        for i in range(n):
            step: Dict[Tuple[int, ...], list] = {}
            add_letter(chart, step, i, image)
            sign = -1 if odd_word and chart.coordinate_parity(i) else 1
            dxi = GradedPoly.generator(chart, chart.dx_slot(i))
            for e, coeff in inv_weight_one(
                    DiffOp.from_table(chart, step).terms, 1).items():
                components[e.index(1)].append((sign, dxi, y_mono * coeff))
    return tuple(combine(chart, entries) for entries in components)
