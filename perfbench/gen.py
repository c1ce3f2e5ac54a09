"""Seeded inputs for the benchmark: chart-file text and expressions.

Everything here is plain text built from a ``random.Random``; nothing is
imported from the package under test, so the program sees only the
chart files and expression strings a user would type.

Charts are torsion-free and sparse: each nonzero Christoffel entry is a
constant or a single coordinate (a "linear" entry) of exactly the degree
the entry must have, |x_k| - |x_i| - |x_j|.  Graded symmetry is written
out explicitly: the (j, i, k) line repeats the (i, j, k) entry, negated
when both x_i and x_j are odd, and an odd coordinate has no diagonal
(i, i, k) entry.
"""

from __future__ import annotations

import random
from fractions import Fraction

# coordinate degrees per chart size: every chart mixes even and odd
# coordinates, and from n = 3 on it has a degree-2 coordinate
DEGREES = {
    1: (0,),
    2: (0, 1),
    3: (0, 1, 2),
    4: (0, 0, 1, 2),
    5: (0, 0, 1, 1, 2),
}

# form-degree and base-degree bounds of every generated chart
P_MAX, B_MAX = 3, 8

COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
          Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-1, 3))


def coord_names(n):
    return ["x%d" % (i + 1) for i in range(n)]


def _term_text(coeff, monomial):
    """``coeff*monomial`` in the chart grammar; monomial may be ''."""
    if not monomial:
        return str(coeff)
    if coeff == 1:
        return monomial
    if coeff == -1:
        return "-" + monomial
    return "%s*%s" % (coeff, monomial)


def christoffel_slots(degrees):
    """Every place a constant or linear entry of the right degree can go:
    (i, j, k, monomial) with i <= j, the odd diagonal left out."""
    n = len(degrees)
    names = coord_names(n)
    slots = []
    for i in range(n):
        for j in range(i, n):
            if i == j and degrees[i] & 1:
                continue
            for k in range(n):
                want = degrees[k] - degrees[i] - degrees[j]
                if want == 0:
                    slots.append((i, j, k, ""))
                for l in range(n):
                    if degrees[l] == want:
                        slots.append((i, j, k, names[l]))
    return slots


def _chart_from_slots(rng, degrees, names, chosen, q):
    table = {}
    for i, j, k, mono in chosen:
        table.setdefault((i, j, k), []).append((rng.choice(COEFFS), mono))
    lines = ["# generated: n=%d Q=%d entries=%d" % (len(degrees), q,
                                                    len(chosen)),
             "[coordinates]"]
    lines += ["%s %d" % (names[i], d) for i, d in enumerate(degrees)]
    lines += ["", "[truncation]", "Q %d" % q, "P %d" % P_MAX, "B %d" % B_MAX,
              "", "[flags]", "torsion_free true", "", "[christoffel]"]
    for (i, j, k), terms in sorted(table.items()):
        lines.append("%d %d %d %s" % (i + 1, j + 1, k + 1, _poly_text(terms)))
        if i != j:
            sign = -1 if degrees[i] & 1 and degrees[j] & 1 else 1
            lines.append("%d %d %d %s" % (
                j + 1, i + 1, k + 1,
                _poly_text([(sign * c, m) for c, m in terms])))
    return "\n".join(lines) + "\n"


def _poly_text(terms):
    text = " + ".join(_term_text(c, m) for c, m in terms)
    return text.replace("+ -", "- ")


def chart_set(rng, n, q, entries, count):
    """``count`` chart texts for one (n, Q) rung.

    Which slots hold an entry is fixed per rung (drawn from a seed that
    depends only on n, Q and the chart's position); ``rng`` draws the
    coefficients.  The work a chart costs depends mostly on where its
    entries sit, and independent draws of that shape differ in cost
    several-fold, so a fresh seed keeps the rung's work comparable while
    still changing every input value.
    """
    degrees = DEGREES[n]
    names = coord_names(n)
    texts = []
    for c in range(count):
        shape = random.Random("%d/%d/%d/%d" % (n, q, entries, c))
        chosen = shape.sample(christoffel_slots(degrees), entries)
        texts.append(_chart_from_slots(rng, degrees, names, chosen, q))
    return texts


def _exponents(rng, degrees, count):
    """Exponents of ``count`` random coordinate factors, an odd coordinate
    at most once (x1 is even, so there is always a choice)."""
    exps = [0] * len(degrees)
    for _ in range(count):
        i = rng.choice([i for i, d in enumerate(degrees)
                        if not (d & 1 and exps[i])])
        exps[i] += 1
    return exps


def _monomial(rng, degrees, count):
    """Random base monomial of ``count`` factors, as text."""
    names = coord_names(len(degrees))
    return "*".join(n if e == 1 else "%s^%d" % (n, e)
                    for n, e in zip(names, _exponents(rng, degrees, count))
                    if e)


def _word(rng, degrees, weight, head):
    """Random descending word of ``weight`` coordinate derivations, as
    ``head[x]^e`` factors."""
    names = coord_names(len(degrees))
    exps = _exponents(rng, degrees, weight)
    return "*".join("%s[%s]" % (head, names[i]) if exps[i] == 1
                    else "%s[%s]^%d" % (head, names[i], exps[i])
                    for i in range(len(degrees) - 1, -1, -1) if exps[i])


def indexed_expr(rng, n, weight, head):
    """Random symmetric tensor (``head='s'``) or differential operator
    (``head='d'``): c1*x*word + c2*x'*word' with words of ``weight`` and
    ``weight - 1`` letters and one-factor coefficients.  The shape is
    fixed so that the work a query costs depends little on the seed."""
    degrees = DEGREES[n]
    pieces = ["%s*%s" % (_monomial(rng, degrees, 1),
                         _word(rng, degrees, w, head))
              for w in (weight, weight - 1)]
    return " + ".join(_term_text(rng.choice(COEFFS), p) for p in pieces) \
        .replace("+ -", "- ")


def base_expr(rng, n, factors=(3, 1)):
    """Random base function: one monomial per entry of ``factors``, with
    that many coordinate factors."""
    degrees = DEGREES[n]
    return " + ".join(_term_text(rng.choice(COEFFS),
                                 _monomial(rng, degrees, f))
                      for f in factors).replace("+ -", "- ")
