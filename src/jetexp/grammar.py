"""Canonical text form for polynomials, operators and tensors.

Grammar (whitespace insignificant):

    expr     :=  ['+'|'-'] term (('+'|'-') term)*
    term     :=  factor ('*' factor)*
    factor   :=  coeff | gen ['^' exponent]
    coeff    :=  integer | integer '/' integer
    gen      :=  NAME | 'd[' NAME ']' | 's[' NAME ']'

NAME is a chart generator (coordinate, fiber or form name), letters,
digits and underscores not led by a digit, then any primes; ``d[c]`` is
the derivation of coordinate c (operator factor), ``s[c]`` its symmetric
counterpart.  Constants are central in all three algebras, so the
coefficients of a term, wherever they stand, fold into one fraction:
its weight in the one ``poly.combine`` that sums the signed terms of
an expression.  Every other factor is built as a symbol (``enveloping``
module docstring), a generator or the symbol of a bracket word, and
these multiply left to right in the relevant algebra, the product of
symbols for polynomials and tensors and ``DiffOp.compose`` for
operators, so ``d[x]*x`` parses to x*d[x] + 1; a product already in
normal order (a function times an operator, an operator times a
constant-coefficient word) is one product of symbols.  A zero
coefficient makes its term 0, and the later factors of that term are
checked but not multiplied.  One pattern splits the text into tokens,
a token's kind the alternative that matched it (an operator's kind its
own character), and the parser looks ahead by index.  Printing splits each
packed key of the symbol into its base part and the rest (the fiber
part K of a word, or a polynomial's fiber and form monomial) and reads
each distinct part's fields, factor text and rho(K) once per call.  It
is canonical and deterministic (terms sorted by descending word, then
descending monomial exponents); every printed expression re-parses to
an equal value: parse(print(f)) == f, bit-exact.
"""

from __future__ import annotations

import re
from math import gcd, lcm
from typing import List, Tuple

from .chart import FIELD_MASK, Chart
from .poly import GradedPoly, combine
from .enveloping import (DiffOp, SymTensor, TruncationOverflowError,
                         symbol_sign, word_key, word_symbol)


class ExprSyntaxError(ValueError):
    """Parse failure; carries the character position."""

    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*'*")  # primes as square_chart's

_TOKEN = re.compile(r"""\s*(?:
    (?P<int>\d+)
  | (?P<word>{0}\[{0}\])
  | (?P<name>{0})
  | (?P<op>[-+*/^])
  | (?P<bad>\S)
)""".format(NAME.pattern), re.VERBOSE)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    """(kind, text, position) of each token, where an operator's kind is
    its own character, closed by ("end", "", len(text))."""
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup  # the one alternative that matched
        tok = m.group(kind)
        pos = m.start(kind)
        if kind == "bad":
            raise ExprSyntaxError("unexpected character %r" % tok, pos)
        out.append((tok if kind == "op" else kind, tok, pos))
    out.append(("end", "", len(text)))
    return out


# bracket head -> (the expression kind it belongs to, that kind in errors)
_HEADS = {"d": (DiffOp, "operator"), "s": (SymTensor, "symmetric tensor")}


class _Parser:
    def __init__(self, chart: Chart, text: str, kind=None,
                 max_order: int = None):
        self.chart = chart
        self.kind = kind  # None (a polynomial), DiffOp or SymTensor
        self.max_order = max_order  # operator order cap of a product
        self.tokens = _tokenize(text)
        self.i = 0

    def take(self):
        tok = self.tokens[self.i]
        if tok[0] == "end":
            raise ExprSyntaxError("unexpected end of input", tok[2])
        self.i += 1
        return tok

    # -- factor values: symbols ----------------------------------------------
    def _check_order(self, *operands):
        """The operator order cap, checked on the operands of a product
        before it is formed (None for a scalar, of order 0)."""
        if self.max_order is None:
            return
        order = max([max(f.nums, default=0) for f in operands
                     if f is not None], default=0) >> self.chart.weight_shift
        if order > self.max_order:
            raise TruncationOverflowError(
                "operator order %d exceeds bound %d" % (order, self.max_order))

    def _generator(self, kind: str, name: str, pos: int, exp: int,
                   epos: int) -> GradedPoly:
        """The symbol of ``name`` raised to ``exp``, built directly (an
        odd generator squares to 0; an even one is capped by its block's
        B, Q or P; a bracket power is one word, ``word_key`` raising
        TruncationOverflowError past ``FIELD_MAX``)."""
        chart = self.chart
        if kind == "word":
            head, coord = name[:-1].split("[")
            try:
                idx = chart.slot(coord)
            except KeyError:
                idx = chart.n
            if idx >= chart.n:
                raise ExprSyntaxError("unknown coordinate %r" % coord, pos)
            if head not in _HEADS:
                raise ExprSyntaxError("unknown bracket generator %r" % head,
                                      pos)
            if self.kind is not _HEADS[head][0]:
                raise ExprSyntaxError("%s[..] only valid in %s expressions"
                                      % (head, _HEADS[head][1]), pos)
            if exp > 1 and chart.coordinate_parity(idx):
                return GradedPoly.zero(chart)
            return word_symbol(chart, word_key(
                chart, [exp if s == idx else 0 for s in range(chart.n)]))
        try:
            slot = chart.slot(name)
        except KeyError:
            raise ExprSyntaxError("unknown generator %r" % name, pos) from None
        if self.kind and slot >= chart.n:
            raise ExprSyntaxError("%r is not a coordinate; coefficients must "
                                  "be base functions" % name, pos)
        if chart.gen_parities[slot]:
            if exp > 1:
                return GradedPoly.zero(chart)
        else:
            q_cap, p_cap, b_cap = chart.truncation
            bound = (b_cap, q_cap, p_cap)[slot // chart.n]
            if exp > bound:
                raise ExprSyntaxError("exponent %d of %r exceeds the chart "
                                      "bound %d" % (exp, name, bound), epos)
        return GradedPoly.generator(chart, slot, exp)

    # -- grammar ------------------------------------------------------------
    def parse(self):
        tokens = self.tokens
        terms = []  # (signed scalar numerator, its denominator, value)
        sign = 1
        if tokens[0][0] in ("+", "-"):
            sign = -1 if tokens[0][0] == "-" else 1
            self.i = 1
        while True:
            num, den, value = self._term()
            terms.append((sign * num, den, value))
            kind, text, pos = tokens[self.i]
            if kind == "end":
                break
            if kind not in ("+", "-"):
                raise ExprSyntaxError("expected '+' or '-', got %r" % text,
                                      pos)
            sign = -1 if kind == "-" else 1
            self.i += 1
        chart = self.chart
        div = lcm(*[den for _, den, _ in terms])
        total = combine(chart, [
            (num * (div // den),
             GradedPoly._of(chart, {0: 1}) if value is None else value)
            for num, den, value in terms], div)
        return self.kind.from_symbol(total) if self.kind else total

    def _term(self):
        """(numerator, denominator, value) of the next term: its scalar
        factors folded into one fraction, and the product of its other
        factors, left to right, or None when it has none.  A zero scalar
        makes the term 0, and later factors are only checked."""
        tokens = self.tokens
        num = den = 1
        value = None
        while True:
            kind, text, pos = self.take()
            if kind == "int":
                over = 1
                if tokens[self.i][0] == "/":
                    self.i += 1
                    dkind, dtext, dpos = self.take()
                    if dkind != "int":
                        raise ExprSyntaxError("expected denominator", dpos)
                    over = int(dtext)
                    if not over:
                        raise ExprSyntaxError("zero denominator", dpos)
                self._check_order(value if num else None)
                num *= int(text)
                den *= over
            elif kind in ("name", "word"):
                exp, epos = 1, pos
                if tokens[self.i][0] == "^":
                    self.i += 1
                    ekind, etext, epos = self.take()
                    if ekind != "int":
                        raise ExprSyntaxError("expected integer exponent",
                                              epos)
                    exp = int(etext)
                factor = self._generator(kind, text, pos, exp, epos)
                if num:
                    self._check_order(value, factor)
                    if value is not None:
                        factor = self._mul(value, factor)
                        self._check_base_degree(factor, pos)
                    value = factor
                else:
                    self._check_order(factor)
            else:
                raise ExprSyntaxError("unexpected token %r" % text, pos)
            if tokens[self.i][0] != "*":
                return num, den, value
            self.i += 1

    def _mul(self, left: GradedPoly, right: GradedPoly) -> GradedPoly:
        """The product of two factor values in the expression's algebra:
        of symbols, or ``DiffOp.compose`` for operators."""
        if self.kind is not DiffOp:
            return left * right
        return DiffOp.from_symbol(left).compose(
            DiffOp.from_symbol(right)).symbol()

    def _check_base_degree(self, value: GradedPoly, pos: int):
        """A coefficient product past the chart's base-degree bound B is
        an error at the factor that crossed it; a lone factor is within
        B already (``_generator`` caps a base exponent by B, and a word
        has base degree 0).  Each operand of the product was within
        B <= ``FIELD_MAX``, so a key's base degree, the sum of its base
        fields, is below ``FIELD_MASK`` and is the value of those fields
        mod ``FIELD_MASK`` (2^FIELD_BITS is 1 mod it), read off each key
        directly."""
        base = self.chart.base_mask
        degree = max([(key & base) % FIELD_MASK for key in value.nums],
                     default=0)
        limit = self.chart.truncation.max_base_degree
        if degree > limit:
            raise ExprSyntaxError("base degree %d exceeds chart bound %d"
                                  % (degree, limit), pos)


def parse_poly(chart: Chart, text: str) -> GradedPoly:
    return _Parser(chart, text).parse()


def parse_diffop(chart: Chart, text: str, max_order: int = None) -> DiffOp:
    """Parse an operator expression; with ``max_order``, an operand of a
    product whose order exceeds it raises TruncationOverflowError before
    the product is formed."""
    return _Parser(chart, text, DiffOp, max_order).parse()


def parse_symtensor(chart: Chart, text: str) -> SymTensor:
    return _Parser(chart, text, SymTensor).parse()


# ---------------------------------------------------------------------------
# Printing

def _part(chart: Chart, key: int, slots, names) -> Tuple[tuple, list]:
    """The fields of ``key`` at ``slots``, in that order, and the factor
    text of each nonzero one, ``names`` naming the slots."""
    shifts = chart.shifts
    fields = tuple([key >> shifts[s] & FIELD_MASK for s in slots])
    return fields, [name if e == 1 else "%s^%d" % (name, e)
                    for name, e in zip(names, fields) if e]


def _format(sigma: GradedPoly, head: str = None) -> str:
    """Canonical text of a polynomial, or with ``head`` ('d' or 's') of
    the sum whose symbol is ``sigma``: each key's base monomial followed
    by the descending word of its fiber part K, the coefficient times
    rho(K).  Terms descend by (word weight, word, monomial).  Each key is
    split into its base part and the rest (its fiber part K, or the fiber
    and form monomial without a head), and each distinct part's fields,
    factor text and, for a K, rho(K) are read once per call."""
    chart, den = sigma.chart, sigma.den
    n, mask = chart.n, chart.base_mask
    base_slots, base_names = range(n), chart.gen_names[:n]
    if head:  # a word descends: the last coordinate's letter first
        rest_slots = range(2 * n - 1, n - 1, -1)
        rest_names = ["%s[%s]" % (head, c.name)
                      for c in reversed(chart.coords)]
    else:
        rest_slots, rest_names = range(n, 3 * n), chart.gen_names[n:]
    bases = {}  # base part -> (its fields, its factors)
    rests = {}  # rest -> (its sort order, its factors, rho(K) or 1)
    pieces = []
    for key, num in sigma.nums.items():
        b = key & mask
        base = bases.get(b)
        if base is None:
            base = bases[b] = _part(chart, b, base_slots, base_names)
        r = key ^ b
        rest = rests.get(r)
        if rest is None:
            fields, factors = _part(chart, r, rest_slots, rest_names)
            rest = rests[r] = (
                (sum(fields), fields[::-1]), factors, symbol_sign(chart, r)
            ) if head else (fields, factors, 1)
        base_fields, base_factors = base
        order, rest_factors, sign = rest
        num *= sign
        g = gcd(num, den)
        digits = str(abs(num) // g) if g == den else \
            "%d/%d" % (abs(num) // g, den // g)
        factors = base_factors + rest_factors
        body = "*".join(factors if digits == "1" and factors
                        else [digits] + factors)
        pieces.append((order + (base_fields,) if head
                       else (base_fields, order), num < 0, body))
    text = "".join((" - " if neg else " + ") + body
                   for _, neg, body in sorted(pieces, reverse=True))
    return ("-" if text.startswith(" -") else "") + text[3:] or "0"


def format_poly(f: GradedPoly) -> str:
    return _format(f)


def format_diffop(op: DiffOp) -> str:
    return _format(op.symbol(), "d")


def format_symtensor(t: SymTensor) -> str:
    return _format(t.symbol(), "s")
