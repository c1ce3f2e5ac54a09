"""Canonical text form for polynomials, operators and tensors.

Grammar (whitespace insignificant):

    expr     :=  ['+'|'-'] term (('+'|'-') term)*
    term     :=  factor ('*' factor)*
    factor   :=  coeff | gen ['^' exponent]
    coeff    :=  integer | integer '/' integer
    gen      :=  NAME | 'd[' NAME ']' | 's[' NAME ']'

NAME is a chart generator (coordinate, fiber or form name); ``d[c]`` is
the derivation of coordinate c (operator factor), ``s[c]`` its symmetric
counterpart.  Factors of a term multiply left to right in the relevant
algebra, so ``d[x]*x`` parses to x*d[x] + 1.  Printing is canonical and
deterministic (terms sorted by descending word, then descending monomial
exponents) and every printed expression re-parses to an equal value:
parse(print(f)) == f, bit-exact.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Tuple

from .chart import Chart
from .poly import GradedPoly
from .enveloping import (DiffOp, SymTensor, TruncationOverflowError,
                         word_symbol)


class ExprSyntaxError(ValueError):
    """Parse failure; carries the character position."""

    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


_TOKEN = re.compile(r"""\s*(?:
    (?P<int>\d+)
  | (?P<word>[A-Za-z_][A-Za-z_0-9]*\[[A-Za-z_][A-Za-z_0-9]*\])
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^])
)""", re.VERBOSE)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ExprSyntaxError("unexpected character %r" % text[bad], bad)
        for kind in ("int", "word", "name", "op"):
            if m.group(kind) is not None:
                out.append((kind, m.group(kind), m.start(kind)))
                break
        pos = m.end()
    return out


class _Parser:
    def __init__(self, chart: Chart, text: str, mode: str,
                 max_order: int = None):
        self.chart = chart
        self.text = text
        self.mode = mode  # 'poly' | 'diffop' | 'sym'
        self.kind = {"diffop": DiffOp, "sym": SymTensor}.get(mode)
        self.max_order = max_order  # operator order cap of a product
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    # -- factor values in the target algebra -------------------------------
    def _mul(self, acc, factor):
        if self.kind and isinstance(factor, GradedPoly):
            factor = self.kind.from_symbol(factor)  # a base function
        if self.mode != "diffop":
            return acc * factor  # a symmetric product is one of symbols
        # bound the operands before the product is formed
        orders = (acc.order() or 0, factor.order() or 0)
        if self.max_order is not None and max(orders) > self.max_order:
            raise TruncationOverflowError(
                "operator order %d exceeds bound %d"
                % (max(orders), self.max_order))
        return acc.compose(factor)

    def _scalar(self, c: Fraction):
        value = GradedPoly.constant(self.chart, c)
        return self.kind.from_symbol(value) if self.kind else value

    def _generator(self, name: str, pos: int, exp: int, epos: int):
        """``name`` raised to ``exp``, built directly (an odd generator
        squares to 0; an even one is capped by its block's B, Q or P; a
        bracket power is one word, its weight checked by the caller)."""
        chart = self.chart
        bracket = re.match(r"([A-Za-z_][A-Za-z_0-9]*)\[([A-Za-z_0-9]+)\]$",
                           name)
        if bracket:
            head, coord = bracket.group(1), bracket.group(2)
            names = [c.name for c in chart.coords]
            if coord not in names:
                raise ExprSyntaxError("unknown coordinate %r" % coord, pos)
            idx = names.index(coord)
            if head == "d":
                if self.mode != "diffop":
                    raise ExprSyntaxError("d[..] only valid in operator "
                                          "expressions", pos)
            elif head == "s":
                if self.mode != "sym":
                    raise ExprSyntaxError("s[..] only valid in symmetric "
                                          "tensor expressions", pos)
            else:
                raise ExprSyntaxError("unknown bracket generator %r" % head,
                                      pos)
            if exp > 1 and chart.coordinate_parity(idx):
                return self._scalar(0)
            return self.kind.from_symbol(word_symbol(
                chart, tuple(exp if s == idx else 0 for s in range(chart.n))))
        try:
            slot = chart.slot(name)
        except KeyError:
            raise ExprSyntaxError("unknown generator %r" % name, pos) from None
        if self.mode != "poly" and slot >= chart.n:
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
        total = None
        sign = 1
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.take()
            sign = -1 if tok[1] == "-" else 1
        while True:
            term = self._term()
            if sign < 0:
                term = _negate(term)
            total = term if total is None else total + term
            tok = self.peek()
            if tok is None:
                break
            if tok[0] == "op" and tok[1] in "+-":
                self.take()
                sign = -1 if tok[1] == "-" else 1
                continue
            raise ExprSyntaxError("expected '+' or '-', got %r" % tok[1],
                                  tok[2])
        return total

    def _term(self):
        acc = self._scalar(1)
        while True:
            pos = self.peek()[2] if self.peek() else len(self.text)
            acc = self._mul(acc, self._factor())
            self._check_base_degree(acc, pos)
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.take()
                continue
            return acc

    def _check_base_degree(self, value, pos: int):
        """A coefficient product past the chart's base-degree bound B is
        an error at the factor that crossed it."""
        degree = (value if isinstance(value, GradedPoly)
                  else value.symbol()).max_base_degree()
        limit = self.chart.truncation.max_base_degree
        if degree > limit:
            raise ExprSyntaxError("base degree %d exceeds chart bound %d"
                                  % (degree, limit), pos)

    def _factor(self):
        tok = self.take()
        kind, text, pos = tok
        if kind == "int":
            num = int(text)
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                self.take()
                dkind, dtext, dpos = self.take()
                if dkind != "int":
                    raise ExprSyntaxError("expected denominator", dpos)
                if not int(dtext):
                    raise ExprSyntaxError("zero denominator", dpos)
                return self._scalar(Fraction(num, int(dtext)))
            return self._scalar(Fraction(num))
        if kind in ("name", "word"):
            exp, epos = 1, pos
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "^":
                self.take()
                ekind, etext, epos = self.take()
                if ekind != "int":
                    raise ExprSyntaxError("expected integer exponent", epos)
                exp = int(etext)
            return self._generator(text, pos, exp, epos)
        raise ExprSyntaxError("unexpected token %r" % text, pos)


def _negate(x):
    return -x


def parse_poly(chart: Chart, text: str) -> GradedPoly:
    return _Parser(chart, text, "poly").parse()


def parse_diffop(chart: Chart, text: str, max_order: int = None) -> DiffOp:
    """Parse an operator expression; with ``max_order``, an operand of a
    product whose order exceeds it raises TruncationOverflowError before
    the product is formed."""
    return _Parser(chart, text, "diffop", max_order).parse()


def parse_symtensor(chart: Chart, text: str) -> SymTensor:
    return _Parser(chart, text, "sym").parse()


# ---------------------------------------------------------------------------
# Printing

def _format_coeff(c: Fraction, lead_monomial: bool):
    """(sign string contribution handled by caller) -> text or None when
    the coefficient is +/-1 in front of a nonempty monomial."""
    if c.denominator == 1:
        if abs(c.numerator) == 1 and not lead_monomial:
            return None
        return str(abs(c.numerator))
    return "%d/%d" % (abs(c.numerator), c.denominator)


def _format_terms(pieces):
    """pieces: list of (sort key, coeff, monomial text or '')."""
    if not pieces:
        return "0"
    pieces = sorted(pieces, key=lambda p: p[0], reverse=True)
    out = []
    for _, coeff, mono in pieces:
        coeff_txt = _format_coeff(coeff, lead_monomial=not mono)
        body = "*".join(x for x in (coeff_txt, mono) if x) or coeff_txt
        if not out:
            out.append(body if coeff >= 0 else "-" + body)
        else:
            out.append(("+ " if coeff >= 0 else "- ") + body)
    return " ".join(out)


def _monomial_text(chart: Chart, m) -> str:
    parts = []
    for slot, e in enumerate(m):
        if not e:
            continue
        name = chart.gen_names[slot]
        parts.append(name if e == 1 else "%s^%d" % (name, e))
    return "*".join(parts)


def format_poly(f: GradedPoly) -> str:
    pieces = [(m, c, _monomial_text(f.chart, m)) for m, c in f.terms.items()]
    return _format_terms(pieces)


def _word_text(chart: Chart, index, head: str) -> str:
    parts = []
    for slot in range(chart.n - 1, -1, -1):
        e = index[slot]
        if not e:
            continue
        name = chart.coords[slot].name
        token = "%s[%s]" % (head, name)
        parts.append(token if e == 1 else "%s^%d" % (token, e))
    return "*".join(parts)


def format_indexed(obj, head=None) -> str:
    """Canonical text of a DiffOp (head 'd') or SymTensor (head 's')."""
    if head is None:
        head = "d" if isinstance(obj, DiffOp) else "s"
    chart = obj.chart
    pieces = []
    for index, coeff in obj.terms.items():
        word = _word_text(chart, index, head)
        for m, c in coeff.terms.items():
            mono = _monomial_text(chart, m)
            body = "*".join(x for x in (mono, word) if x)
            key = (sum(index), index, m)
            pieces.append((key, c, body))
    return _format_terms(pieces)


def format_diffop(op: DiffOp) -> str:
    return format_indexed(op, "d")


def format_symtensor(t: SymTensor) -> str:
    return format_indexed(t, "s")
