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

with eps_s = ``enveloping.letter_sign`` of d_s on I - e_s.  A word is
its fiber key (``enveloping.word_key``): I - e_s is the key less the
unit of y_s, and |I| its weight field.  ``recursion_steps`` yields the
triples (s, I - e_s, eps_s * I_s) that drive both the word images here
and the values of ``fedosov.tau_pbw``.

The recursion runs on symbols sigma(sum_K c_K d^K) = sum_K rho(K) c_K
y^K (``enveloping`` module docstring), where the Leibniz rule reads

    sigma(d_s o P)  =  partial_{x_s} sigma(P) + y_s . sigma(P),

and a replacement term c_J exp(J) has symbol c_J . sigma(J): each word
is one ``poly.combine`` of partial and product entries, divided by |I|
once.  ``map`` is one ``combine`` of t_J . sigma(J) over the fiber parts
J of the tensor's symbol.  The inverse peels symbols: the top weight
layer of the remainder's symbol (a key's weight is the word order) is
the next part of the tensor, and one ``combine`` subtracts its image,
which lowers the order because symbols match exactly.

A context carries one memo table, word -> symbol, the only mutable
state; ``word_image`` wraps the symbol of a multi-index's word as an
operator.  A missing word is filled from an explicit work stack,
shorter words first, so the word length is not bounded by the
interpreter's recursion limit; its steps and their replacement terms
are read once, and the word waits on the stack with them while the
words they read are filled.  Each word is stored by one
``dict.setdefault``, which is atomic, and the first value stored wins,
so contexts can be shared across worker threads.

A context created with the chart's default cap serves the map and its
inverse up to weight Q; ``xi_form`` reads words one weight above the
fiber weight it is probed at, so it requires that headroom explicitly.
"""

from __future__ import annotations

from typing import Dict

from .chart import FIELD_MASK, Chart, mi_all_up_to, mi_factorial, same_chart
from .enveloping import (DiffOp, SymTensor, TruncationOverflowError,
                         _check_index, fiber_parts, letter_sign, symbol_sign,
                         word_key)
from .geometry import Connection, replacement_terms
from .poly import GradedPoly, combine


def recursion_steps(chart: Chart, word: int):
    """(s, I - e_s, eps_s * I_s) for every letter d_s of the ``word`` I,
    highest slot first: the steps of the averaged recursion."""
    for slot in range(chart.n - 1, -1, -1):
        mult = word >> chart.shifts[chart.n + slot] & FIELD_MASK
        if mult:
            rest = word - chart.unit[chart.n + slot]
            yield slot, rest, letter_sign(chart, slot, rest) * mult


class PbwContext:
    """Chart + connection + memoized basis-word symbols (first value
    stored wins; see the module docstring)."""

    def __init__(self, chart: Chart, conn: Connection, max_weight: int = None):
        if conn.chart != chart:
            raise ValueError("chart mismatch between chart and connection")
        self.chart = chart
        self.conn = conn
        self.max_weight = (chart.truncation.max_sym_weight
                           if max_weight is None else int(max_weight))
        self._fiber = tuple(GradedPoly.generator(chart, chart.y_slot(s))
                            for s in range(chart.n))
        self._symbols: Dict[int, GradedPoly] = {}

    # -- basis words ---------------------------------------------------------
    def word_image(self, index) -> DiffOp:
        """Image of the descending basis word of ``index``; ValueError,
        as in ``DiffOp.from_word``, when ``index`` names no basis word."""
        _check_index(self.chart, index)
        return DiffOp.from_symbol(self._symbol(word_key(self.chart, index)))

    def _symbol(self, word: int) -> GradedPoly:
        """Symbol of the image of ``word`` (memoized).  A missing word
        goes on a work stack, with its steps, below the missing words
        they read, and is computed from those steps when it is back on
        top."""
        symbols = self._symbols
        hit = symbols.get(word)
        if hit is not None:
            return hit
        stack = [(word, None)]
        while stack:
            top, steps = stack.pop()
            if top in symbols:
                continue
            if steps is None:
                steps = [(slot, rest, weight,
                          tuple(replacement_terms(self.conn, slot, rest)))
                         for slot, rest, weight
                         in recursion_steps(self.chart, top)]
                missing = [dep for _, rest, _, terms in steps
                           for dep in [rest] + [j for _, _, j in terms]
                           if dep not in symbols]
                if missing:
                    stack.append((top, steps))
                    stack.extend((dep, None) for dep in missing)
                    continue
            symbols.setdefault(top, self._compute_word(top, steps))
        return symbols[word]

    def _compute_word(self, word, steps) -> GradedPoly:
        """One step of the recursion on symbols: for every step (s,
        I - e_s, w, replacement terms) the partial by x_s and the product
        by y_s of sigma(I - e_s) and, per replacement term (c, Gamma, J),
        the product -w * c * Gamma * sigma(J), all in one ``combine``
        divided by |I|; every word the steps read is memoized."""
        chart = self.chart
        if not steps:
            return GradedPoly.constant(chart, 1)
        symbols = self._symbols
        entries = []
        for slot, rest, weight, terms in steps:
            prev = symbols[rest]
            entries.append((weight, prev, slot))
            entries.append((weight, self._fiber[slot], prev))
            for mult, gam, j in terms:
                entries.append((-weight * mult, gam, symbols[j]))
        return combine(chart, entries, word >> chart.weight_shift)

    # -- the map and its inverse ----------------------------------------------
    def map(self, tensor: SymTensor) -> DiffOp:
        """Left-linear extension of the basis-word images."""
        same_chart(self, tensor)
        if tensor.weight() > self.max_weight:
            raise TruncationOverflowError(
                "tensor weight %d exceeds context cap %d"
                % (tensor.weight(), self.max_weight))
        sigma = tensor.symbol()
        return DiffOp.from_symbol(combine(self.chart, [
            (symbol_sign(self.chart, word), GradedPoly._of(self.chart, nums),
             self._symbol(word))
            for word, nums in fiber_parts(sigma).items()], sigma.den))

    def inv(self, op: DiffOp) -> SymTensor:
        """Inverse by symbol peeling (top order down): the top weight
        layer of the remainder's symbol is the next part of the tensor,
        and its image is subtracted from the remainder."""
        same_chart(self, op)
        order = op.order()
        if order is not None and order > self.max_weight:
            raise TruncationOverflowError(
                "operator order %d exceeds context cap %d"
                % (order, self.max_weight))
        chart = self.chart
        shift = chart.weight_shift
        layers = []
        rem = op.symbol()
        while rem:
            limit = max(rem.nums) >> shift << shift  # the top layer's keys
            layer = GradedPoly._of(chart, {k: v for k, v in rem.nums.items()
                                           if k >= limit}, rem.den)
            layers.append((1, layer))
            rem = combine(chart, [(layer.den, rem)] + [
                (-symbol_sign(chart, word), GradedPoly._of(chart, nums),
                 self._symbol(word))
                for word, nums in fiber_parts(layer).items()], layer.den)
            if rem and max(rem.nums) >= limit:
                raise AssertionError("symbol peeling failed to lower order")
        return SymTensor.from_symbol(combine(chart, layers))


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

    over the terms c_J d^J of d_i o exp(I), the fiber parts of its symbol
    partial_{x_i} sigma + y_i . sigma for sigma the symbol of exp(I),
    where lambda_k(J) is the coefficient at e_k of inv(d^J).  lambda is
    filled bottom-up over the words of weight at most one above the
    fiber weight, from the memoized symbols: lambda(0) = 0,
    lambda_k(e_j) = delta_jk and, since exp(J) is d^J plus lower terms
    c_K d^K,

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
    words = [(index, word_key(chart, index))
             for index in mi_all_up_to(n, weight + 1)
             if not any(e > 1 and chart.coordinate_parity(s)
                        for s, e in enumerate(index))]
    lam = {}  # word J -> {k: lambda_k(J)}, the weight-1 part of inv(d^J)

    def inv_weight_one(sigma, scale, skip=None):
        """{k: sum of scale * c_J * lambda_k(J)} over the words J of the
        symbol ``sigma`` but the word ``skip``."""
        table: Dict[int, list] = {}
        for word, nums in fiber_parts(sigma).items():
            if word != skip:
                c = GradedPoly._of(chart, nums)
                for k, v in lam[word].items():
                    table.setdefault(k, []).append(
                        (scale * symbol_sign(chart, word), c, v))
        return {k: combine(chart, entries, sigma.den)
                for k, entries in table.items()}

    for index, word in words:  # the empty word has no lower terms
        lam[word] = {index.index(1): GradedPoly.constant(chart, 1)} \
            if sum(index) == 1 else inv_weight_one(ctx._symbol(word), -1, word)
    components = [[] for _ in range(n)]
    for index, word in words:
        if not 2 <= sum(index) <= weight:
            continue
        y_mono = GradedPoly._of(chart, {word: 1}, mi_factorial(index))
        odd_word = (word & chart.odd_low).bit_count() & 1
        sigma = ctx._symbol(word)
        for i in range(n):
            step = combine(chart, [(1, sigma, i), (1, ctx._fiber[i], sigma)])
            sign = -1 if odd_word and chart.coordinate_parity(i) else 1
            dxi = GradedPoly.generator(chart, chart.dx_slot(i))
            for k, coeff in inv_weight_one(step, 1).items():
                components[k].append((sign, dxi, y_mono * coeff))
    return tuple(combine(chart, entries) for entries in components)
