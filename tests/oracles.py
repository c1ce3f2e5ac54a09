"""Independent oracles for the test suite.

Each function recomputes a quantity by a deliberately different route
than the library (bubble sort instead of counting odd letters off
packed bits, explicit
shuffle interleave instead of the factorial diagonal rule, exact matrix
inversion instead of series summation, a plain fixed-point iteration of
full products instead of the weight-layered correction solve, the
lowering and raising maps as generator tables applied by ``derive``
instead of one-pass slot exchanges, one
recursion term or replacement per letter of a word instead of one per
block of equal letters, a ``Fraction`` pair loop with per-pair inversion
counting instead of the integer-numerator bitmask kernel, operator word
images applied to a function instead of the recursion evaluated on
values, a symmetric word built letter by letter instead of by index
arithmetic, operator products by peeling letters through each
coefficient and merging words by ``merge_words`` instead of the star
product of symbols, the operator products d_s o W of a word image
summed as operators instead of as one symbol, the symmetrization of a word of vector fields as the average
over all orderings, the comultiplication built by left multiplications
of tensor squares or summed over all 2^k bitmask splits of a word
instead of the substitution y -> y + y' in its symbol, tensor squares
as (left word, right word) tables placed on the square chart key by key
with the signs rho(L) rho(R) instead of as products of moved symbols,
the dual connection as per-direction tables of its generator images
built entry by entry with chains of ``+`` instead of one ``combine``
per fiber generator over the rows of the Christoffel table, the square
of the dual covariant
differential as graded commutators of its direction derivations, the
Koszul sign of a tensor push read off each degree-homogeneous pair of
parts instead of off parities, random samples summed one public
single-term polynomial at a time instead of as numerators over 6 on
packed keys, the dual correction form
through the whole transported connection inv(d_i o exp(I)) and the
pairing instead of a table of the weight-one parts of inv(d^J), parity
and filtering read off exponent tuples instead of packed keys, the
augmentation and the correction of a chart with solvable geodesics as
closed-form series in Bernoulli and factorial coefficients instead of
any recursion, series or solve, the augmentation as the exponential of
the geodesic spray applied by the positional Leibniz rule instead of
the word-image recursion or the perturbation series, the printed text
read off each key's unpacked exponent tuple instead of off its base
and fiber parts, each distinct part read once per call, the records of
a vector-valued form read off unpacked exponent tuples instead of off
the packed form and fiber fields) so frozen
expectations in the tests do not share code with the implementation
they check.

It also holds the references the package computes without: the
component-wise calculus of vector fields (``VectorField``, a
connection's entries and Christoffel fields, the weight-one tensor or
operator of a field, graded bracket, covariant derivative, torsion,
curvature), the duality pairing of tensors with
fiber polynomials, the symmetric product of a vector field and a
tensor, and seeded vector fields and torsion-free connections.  The
bracket is the graded commutator of derivations, the torsion is

    T(X, Y) = cov(X, Y) - (-1)^(|X||Y|) cov(Y, X) - [X, Y]

and the curvature carries the prefactor (-1)^(|Y| - 1) in front of the
covariant-derivative commutator, so that the square of the covariant
differential is the wedge action of the curvature two-form.
"""

import itertools
import math
import random
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Dict, List

from jetexp.chart import (FIELD_BITS, FIELD_MASK, Chart, mi_factorial,
                          same_chart)
from jetexp.enveloping import SymTensor, fiber_parts, symbol_sign
from jetexp.geometry import Connection
from jetexp.poly import GradedPoly, combine, pack_monomial, unpack_monomial
from jetexp.randomgen import _in_sixths, _sixths, random_base_poly


class VectorField:
    """Derivation sum(components[i] * d/dx_i) with base-function
    coefficients on the left."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components):
        components = tuple(components)
        if len(components) != chart.n:
            raise ValueError("need one component per coordinate")
        for c in components:
            if c.chart != chart:
                raise ValueError("chart mismatch in component")
            if not c.is_base_only():
                raise ValueError("vector field components must be base "
                                 "functions")
        self.chart = chart
        self.components = components

    @classmethod
    def coordinate(cls, chart: Chart, i: int) -> "VectorField":
        one = GradedPoly.constant(chart, 1)
        zero = GradedPoly.zero(chart)
        return cls(chart, [one if s == i else zero for s in range(chart.n)])

    @classmethod
    def zero(cls, chart: Chart) -> "VectorField":
        z = GradedPoly.zero(chart)
        return cls(chart, [z] * chart.n)

    def __bool__(self):
        return any(self.components)

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return (self.chart == other.chart
                and self.components == other.components)

    def __add__(self, other):
        same_chart(self, other)
        return VectorField(self.chart, [
            a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return VectorField(self.chart, [-c for c in self.components])

    def scale(self, factor) -> "VectorField":
        if isinstance(factor, GradedPoly):
            return VectorField(self.chart,
                               [factor * c for c in self.components])
        return VectorField(self.chart,
                           [c * factor for c in self.components])

    def apply(self, f: GradedPoly) -> GradedPoly:
        """The derivation applied to a polynomial."""
        if f.chart != self.chart:
            raise ValueError("chart mismatch")
        return f.derive(dict(enumerate(self.components)))

    def homogeneous_components(self) -> Dict[int, "VectorField"]:
        chart = self.chart
        buckets: Dict[int, list] = {}
        for i, comp in enumerate(self.components):
            for d, part in comp.homogeneous_components().items():
                deg = d - chart.coordinate_degree(i)
                bucket = buckets.setdefault(
                    deg, [GradedPoly.zero(chart)] * chart.n)
                bucket[i] = bucket[i] + part
        return {d: VectorField(chart, comps)
                for d, comps in sorted(buckets.items())}

    def degree(self) -> int:
        comps = self.homogeneous_components()
        if not comps:
            from jetexp.poly import DegreeUndefinedError
            raise DegreeUndefinedError("zero vector field has no degree")
        if len(comps) > 1:
            from jetexp.poly import NotHomogeneousError
            raise NotHomogeneousError(set(comps))
        return next(iter(comps))

    def __repr__(self):
        from jetexp.grammar import format_poly
        parts = ["(%s)*d_%s" % (format_poly(c), self.chart.coords[i].name)
                 for i, c in enumerate(self.components) if c]
        return "VectorField(%s)" % (" + ".join(parts) or "0")


def entry(conn: Connection, i: int, j: int, k: int) -> GradedPoly:
    return conn.gamma.get((i, j, k), GradedPoly.zero(conn.chart))


def christoffel_field(conn: Connection, i: int, j: int) -> VectorField:
    """Covariant derivative of the j-th coordinate derivation along
    the i-th."""
    chart = conn.chart
    return VectorField(chart, [entry(conn, i, j, k)
                               for k in range(chart.n)])


def from_vector_field(cls, field):
    """Weight-one sum of anything with ``chart`` and a per-coordinate
    ``components`` tuple of base functions."""
    chart = field.chart
    return cls(chart, {tuple(int(s == i) for s in range(chart.n)): comp
                       for i, comp in enumerate(field.components)})


def word_letters(index):
    """Coordinate slots of the descending word of a multi-index, highest
    index first."""
    out = []
    for slot in range(len(index) - 1, -1, -1):
        out.extend([slot] * index[slot])
    return out


def word_degree(chart, index):
    """Degree of the basis word of a multi-index (a coordinate derivation
    has degree -|x_i|)."""
    return -sum(e * chart.coordinate_degree(i) for i, e in enumerate(index))


def bubble_koszul_sign(permutation, degrees):
    """Koszul sign by literally bubble-sorting the word and charging -1
    per adjacent swap of two odd elements."""
    word = list(permutation)
    par = [d & 1 for d in degrees]
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                if par[word[i]] and par[word[i + 1]]:
                    sign = -sign
                word[i], word[i + 1] = word[i + 1], word[i]
                changed = True
    return sign


def merge_words(chart, a, b):
    """Koszul sign and multi-index for concatenating descending words a, b.

    Returns (0, None) when an odd derivation would repeat.  In a
    descending word the right block's letters cross exactly the left
    block's letters with *smaller* coordinate index on their way to
    canonical position.  (The library multiplies the words' symbols.)
    """
    inv = 0
    for v, bv in enumerate(b):
        if not bv or not chart.coordinate_parity(v):
            continue
        if a[v]:
            return 0, None
        inv += sum(a[u] for u in range(v)
                   if chart.coordinate_parity(u))
    return (-1 if inv & 1 else 1), tuple(x + y for x, y in zip(a, b))


def shuffle_pairing(chart, word_slots, fiber_monomial_slots):
    """Duality pairing of a descending derivation word against a product
    of fiber generators, by the interleaving-permutation formula:
    sum over bijections of the Koszul sign of the interleave times the
    product of Kronecker pairings."""
    import itertools

    p = len(word_slots)
    if p != len(fiber_monomial_slots):
        return Fraction(0)
    degrees = ([-chart.coordinate_degree(s) for s in word_slots]
               + [chart.coordinate_degree(s) for s in fiber_monomial_slots])
    total = Fraction(0)
    for perm in itertools.permutations(range(p)):
        if any(word_slots[i] != fiber_monomial_slots[perm[i]]
               for i in range(p)):
            continue
        # interleave (X_1, a_{perm(1)}, X_2, a_{perm(2)}, ...)
        order = []
        for i in range(p):
            order.append(i)
            order.append(p + perm[i])
        total += bubble_koszul_sign(order, degrees)
    return total


def _power(name: str, e: int) -> str:
    return name if e == 1 else "%s^%d" % (name, e)


def unpacked_format(sigma: GradedPoly, head: str = None) -> str:
    """Canonical text of a polynomial, or with ``head`` ('d' or 's') of
    the sum whose symbol is ``sigma``: each key's base monomial followed
    by the descending word of its fiber part K, the coefficient times
    rho(K).  Terms descend by (word weight, word, monomial)."""
    chart, den = sigma.chart, sigma.den
    n = chart.n if head else 3 * chart.n
    pieces = []
    for key, num in sigma.nums.items():
        m = unpack_monomial(chart, key)
        mono, word = m[:n], m[n:2 * n]  # the word is () without a head
        if head:
            num *= symbol_sign(chart, key & ~chart.base_mask)
        g = gcd(num, den)
        digits = str(abs(num) // g) if g == den else \
            "%d/%d" % (abs(num) // g, den // g)
        factors = [_power(x, e) for x, e in zip(chart.gen_names, mono) if e]
        factors += [_power("%s[%s]" % (head, coord.name), e) for coord, e
                    in reversed(list(zip(chart.coords, word))) if e]
        body = "*".join(factors if digits == "1" and factors
                        else [digits] + factors)
        pieces.append(((sum(word), word, mono), num < 0, body))
    text = "".join((" - " if neg else " + ") + body
                   for _, neg, body in sorted(pieces, reverse=True))
    return ("-" if text.startswith(" -") else "") + text[3:] or "0"


def mat_mul(a, b):
    rows, mid, cols = len(a), len(b), len(b[0])
    return [[sum(a[r][m] * b[m][c] for m in range(mid)) for c in range(cols)]
            for r in range(rows)]


def mat_vec(a, v):
    return [sum(a[r][c] * v[c] for c in range(len(v))) for r in range(len(a))]


def mat_identity(n):
    return [[Fraction(1) if r == c else Fraction(0) for c in range(n)]
            for r in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_inv(a):
    """Gaussian elimination over Fractions."""
    n = len(a)
    work = [list(row) + list(ident_row)
            for row, ident_row in zip(a, mat_identity(n))]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        scale = work[col][col]
        work[col] = [x / scale for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y
                           for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def _mul_monomials(chart, a, b):
    """(sign, product monomial); sign 0 when an odd slot repeats.  The
    sign counts, for each odd slot of b, the odd slots of a above it."""
    par = chart.gen_parities
    inv = 0
    for v, bv in enumerate(b):
        if not bv or not par[v]:
            continue
        if a[v]:
            return 0, None
        inv += sum(a[u] for u in range(v + 1, len(a)) if par[u])
    return (-1 if inv & 1 else 1), tuple(x + y for x, y in zip(a, b))


def fraction_mul(a, b, max_weight=None):
    """a * b by one Fraction accumulation per monomial pair, keeping only
    pairs whose weights p + q sum to at most ``max_weight`` when given."""
    chart = a.chart
    n = chart.n
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            if max_weight is not None and sum(m1[n:]) + sum(m2[n:]) > \
                    max_weight:
                continue
            sign, m = _mul_monomials(chart, m1, m2)
            if sign:
                out[m] = out.get(m, Fraction(0)) + sign * c1 * c2
    return GradedPoly(chart, out)


def fraction_partial(f, slot):
    """Left derivative by the generator in ``slot``, one Fraction
    accumulation per monomial."""
    par = f.chart.gen_parities
    out = {}
    for m, c in f.terms.items():
        e = m[slot]
        if not e:
            continue
        crossings = par[slot] * sum(m[j] * par[j] for j in range(slot))
        sign = -1 if crossings & 1 else 1
        m2 = m[:slot] + (e - 1,) + m[slot + 1:]
        out[m2] = out.get(m2, Fraction(0)) + sign * e * c
    return GradedPoly(f.chart, out)


def fraction_sum(chart, polys):
    """The sum of ``polys`` by one Fraction accumulation per monomial of
    their ``terms`` views, with no ``GradedPoly`` arithmetic (whose
    ``+`` is a ``combine`` call)."""
    out = {}
    for p in polys:
        for m, c in p.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
    return GradedPoly(chart, out)


def fraction_derive(f, images, max_weight=None):
    """sum_s images[s] . partial_s(f) from the two oracles above, summed
    by ``fraction_sum``."""
    return fraction_sum(f.chart, [
        fraction_mul(img, fraction_partial(f, slot), max_weight)
        for slot, img in images.items()])


def brute_force_derivative(chart, f, slot, direction="left"):
    """Left derivative recomputed by expanding every monomial into an
    explicit generator word and cancelling against the leading letter."""
    out = []
    for m, c in f.terms.items():
        word = []
        for s, e in enumerate(m):
            word.extend([s] * e)
        for pos, s in enumerate(word):
            if s != slot:
                continue
            # move letter `pos` to the front
            sign = 1
            for earlier in word[:pos]:
                if chart.gen_parities[earlier] and chart.gen_parities[s]:
                    sign = -sign
            rest = word[:pos] + word[pos + 1:]
            mono = [0] * (3 * chart.n)
            for r in rest:
                mono[r] += 1
            out.append(GradedPoly(chart, {tuple(mono): c * sign}))
    return fraction_sum(chart, out)


def derivation_apply(f, images, parity):
    """Apply the parity-``parity`` derivation with the given generator
    images (one per slot, None meaning zero) to f, by the positional
    Leibniz rule: each occurrence of a generator is replaced in place by
    its image, with the sign of carrying the derivation past the
    monomial prefix to its left.  (The library instead sums
    image . left-partial over slots, in ``GradedPoly.derive``.)"""
    chart = f.chart
    nslots = 3 * chart.n
    out = GradedPoly.zero(chart)
    for m, c in f.terms.items():
        prefix_par = 0
        for slot, e in enumerate(m):
            if e:
                img = images[slot]
                if img is not None and img:
                    sign = -1 if (parity & 1) and (prefix_par & 1) else 1
                    prefix = m[:slot] + (0,) * (nslots - slot)
                    rest = (0,) * slot + (e - 1,) + m[slot + 1:]
                    term = (GradedPoly(chart, {prefix: c * e * sign})
                            * img * GradedPoly(chart, {rest: Fraction(1)}))
                    out = out + term
                prefix_par ^= (e * chart.gen_parities[slot]) & 1
    return out


def geodesic_spray_tau(conn, f, weight, gamma_first=False):
    """The augmentation as the exponential of the geodesic spray:
    tau(f) = sum_{m <= weight} V^m(f) / m!, with V the even derivation
    x_i -> y_i, y_k -> -sum_{i,j} y_i y_j Gamma^k_ij (in this order of
    factors; ``gamma_first`` puts Gamma in front, a negative control)
    and form generators -> 0, applied by ``derivation_apply``.  V raises
    the fiber weight by one, so V^m(f) of a base function has weight m.
    (The library runs the word-image recursion on values, or the
    perturbation series.)"""
    chart = conn.chart
    n = chart.n
    y = [GradedPoly.generator(chart, chart.y_slot(i)) for i in range(n)]
    images = y + [GradedPoly.zero(chart)] * n + [None] * n
    for (i, j, k), gam in conn.gamma.items():
        pair = fraction_mul(y[i], y[j])
        images[n + k] = images[n + k] - (
            fraction_mul(gam, pair) if gamma_first else fraction_mul(pair, gam))
    out = term = f
    for m in range(1, weight + 1):
        term = derivation_apply(term, images, 0) * Fraction(1, m)
        out = out + term
    return out


def derive_delta(f):
    """The lowering map as the generator table y_i -> dx_i applied by
    ``GradedPoly.derive``.  (The library exchanges slots in one pass,
    in ``GradedPoly.exchange``.)"""
    chart = f.chart
    return f.derive({chart.y_slot(i): GradedPoly.generator(chart,
                                                           chart.dx_slot(i))
                     for i in range(chart.n)})


def derive_delta_inv(f):
    """The raising map as the generator table dx_i -> y_i applied by
    ``GradedPoly.derive``, then each output monomial divided by its own
    p + q in a second pass."""
    chart = f.chart
    n = chart.n
    raised = f.derive({chart.dx_slot(i): GradedPoly.generator(chart,
                                                              chart.y_slot(i))
                       for i in range(n)})
    return GradedPoly(chart, {m: c / sum(m[n:])
                              for m, c in raised.terms.items()})


def fixed_point_correction(conn, weight):
    """The flat-structure correction by iterating the whole fixed-point
    map from zero until it repeats, forming every product in full, with
    the lowering and raising maps from ``derive_delta`` and
    ``derive_delta_inv``, and projecting to weight + 1 afterwards.  (The
    library instead solves one weight layer at a time with products cut
    off at the cap, and exchanges slots for the two maps; its dnabla
    table here is ``dnabla_table``.)"""
    from jetexp.fedosov import project_weight, vvf_action
    chart = conn.chart
    images = dnabla_table(conn)
    d_y = [images[chart.y_slot(k)] for k in range(chart.n)]
    seed = [dy.derive(images) - derive_delta(dy) for dy in d_y]
    comps = tuple(GradedPoly.zero(chart) for _ in range(chart.n))
    for _ in range(weight + 2):
        new = tuple(
            project_weight(derive_delta_inv(
                seed[k] + vvf_action(comps, d_y[k] + comps[k])
                + comps[k].derive(images)), weight + 1)
            for k in range(chart.n))
        if new == comps:
            return comps
        comps = new
    raise AssertionError("fixed-point iteration did not stabilize")


def unpacked_vvf_records(components):
    """Flatten a vector-valued form into records
    (direction i, fiber multi-index J, component k, base coefficient),
    sorted by (i, J, k); all indices 1-based in the output.  Within a
    record the base monomials are distinct, so its numerators are read
    off the component over the component's denominator.  (Each key is
    unpacked to its exponent tuple; the library reads the direction, J
    and the base part off the packed fields.)"""
    chart = components[0].chart
    n = chart.n
    records = {}
    for k, comp in enumerate(components):
        for key, v in comp.nums.items():
            m = unpack_monomial(chart, key)
            form = m[2 * n:]
            if sum(form) != 1:
                raise ValueError("vector-valued form component is not a "
                                 "one-form")
            record = (form.index(1) + 1, m[n:2 * n], k + 1)
            records.setdefault(record, {})[key & chart.base_mask] = v
    return [(i, j, k, GradedPoly._of(chart, nums, components[k - 1].den))
            for (i, j, k), nums in sorted(records.items())]


def per_position_nabla_sym(conn, x, tensor):
    """The connection extended to symmetric tensors, replacing each letter
    position of each word on its own, with the Christoffel field rebuilt
    per position.  (The library replaces each block of equal letters once
    and scales by its multiplicity.)"""
    chart = conn.chart
    out = SymTensor.zero(chart)
    for dx, xh in x.homogeneous_components().items():
        xpar = dx & 1
        for index, coeff in tensor.terms.items():
            dcoeff = xh.apply(coeff)
            if dcoeff:
                out = out + SymTensor(chart, {index: dcoeff})
            letters = word_letters(index)
            pars = [chart.coordinate_parity(s) for s in letters]
            for cdeg, cpart in coeff.homogeneous_components().items():
                leibniz = bool(xpar and (cdeg & 1))
                for pos, slot in enumerate(letters):
                    pre_par = sum(pars[:pos]) & 1
                    lead_flip = leibniz ^ bool(xpar and pre_par)
                    repl = VectorField.zero(chart)
                    for i in range(chart.n):
                        xi = xh.components[i]
                        if xi:
                            repl = repl + christoffel_field(
                                conn, i, slot).scale(xi)
                    rest = list(letters)
                    del rest[pos]
                    for k in range(chart.n):
                        rk = repl.components[k]
                        if not rk:
                            continue
                        word = rest[:pos] + [k] + rest[pos:]
                        for rdeg, rpart in rk.homogeneous_components().items():
                            flip = lead_flip ^ bool((rdeg & 1) and pre_par)
                            base = sym_word_product(chart, word).scale(
                                cpart * rpart)
                            out = out + (-base if flip else base)
    return out


def sym_word_product(chart, slots):
    """Canonical form of a symmetric word of coordinate derivations given
    in left-to-right order, one letter at a time from the right."""
    out = SymTensor.from_word(chart, (0,) * chart.n)
    for slot in reversed(list(slots)):
        out = degree_split_mul_letter_left(out, slot)
    return out


def tau_by_word_images(ctx, f, weight):
    """The augmentation as sum_I y^I / I! times the operator
    ``ctx.word_image(I)`` applied to ``f``.  (The library evaluates the
    recursion on values and builds no operator.)"""
    from jetexp.chart import mi_all_up_to

    chart = ctx.chart
    out = GradedPoly.zero(chart)
    for index in mi_all_up_to(chart.n, weight):
        if any(e > 1 and chart.coordinate_parity(s)
               for s, e in enumerate(index)):
            continue
        val = ctx.word_image(index).apply(f)
        if not val:
            continue
        y_mono = GradedPoly(chart,
                            {(0,) * chart.n + index + (0,) * chart.n:
                             Fraction(1, mi_factorial(index))})
        out = out + y_mono * val
    return out


def per_letter_word_image(ctx, index):
    """One step of the averaged recursion for the basis word of ``index``,
    with one term per letter (eps_k the sign of pulling the k-th letter
    to the front) and ``per_position_nabla_sym``; shorter words come from
    the context.  Needs a nonempty word.  (The library forms one term
    per distinct letter, times its multiplicity.)"""
    from jetexp.enveloping import DiffOp

    chart = ctx.chart
    letters = word_letters(index)
    m = len(letters)
    pars = [chart.coordinate_parity(s) for s in letters]
    acc = DiffOp.zero(chart)
    for k, slot in enumerate(letters):
        eps = -1 if (pars[k] and (sum(pars[:k]) & 1)) else 1
        rest_index = [0] * chart.n
        for s in letters[:k] + letters[k + 1:]:
            rest_index[s] += 1
        rest_index = tuple(rest_index)
        unit = tuple(1 if s == slot else 0 for s in range(chart.n))
        left = per_letter_compose(DiffOp.from_word(chart, unit),
                                  ctx.word_image(rest_index))
        inner = per_position_nabla_sym(
            ctx.conn, VectorField.coordinate(chart, slot),
            SymTensor.from_word(chart, rest_index))
        term = left - ctx.map(inner)
        acc = acc + term.scale(eps)
    return acc.scale(Fraction(1, m))


def per_letter_word_times_function(chart, index, g):
    """Normal form of (descending word of ``index``) o m_g as a dict
    word -> coefficient, peeling one derivation at a time by the graded
    Leibniz rule d_i o m_f = m_{d_i f} + (-1)^(|x_i||f|) m_f o d_i, the
    word merged by ``merge_words``.  (The library's ``DiffOp.compose``
    is the star product of symbols.)"""
    out = {}
    if not g:
        return out
    if not any(index):
        return {index: g}
    slot = min(s for s, e in enumerate(index) if e)
    rest = tuple(e - (1 if s == slot else 0) for s, e in enumerate(index))
    unit = tuple(1 if s == slot else 0 for s in range(chart.n))
    par = chart.coordinate_parity(slot)

    def accumulate(word, coeff):
        if coeff:
            cur = out.get(word)
            out[word] = coeff if cur is None else cur + coeff

    for part in g.homogeneous_components().values():
        for word, coeff in per_letter_word_times_function(
                chart, rest, part.partial(slot)).items():
            accumulate(word, coeff)
        passed = -part if par and parity(part) else part
        for word, coeff in per_letter_word_times_function(
                chart, rest, passed).items():
            sign, merged = merge_words(chart, word, unit)
            if sign:
                accumulate(merged, coeff if sign > 0 else -coeff)
    return out


def per_letter_compose(a, b):
    """Operator product a o b in normal form through
    ``per_letter_word_times_function``."""
    from jetexp.enveloping import DiffOp

    chart = a.chart
    out = DiffOp.zero(chart)
    for right_index, g in b.terms.items():
        for left_index, coeff in a.terms.items():
            words = per_letter_word_times_function(chart, left_index, g)
            for word, h in words.items():
                sign, merged = merge_words(chart, word, right_index)
                if sign:
                    out = out + DiffOp(chart, {merged: coeff * h * sign})
    return out


def compose_word_image(ctx, index):
    """One step of the averaged recursion for the basis word of ``index``
    with one term per distinct letter (like the library), each d_s o W
    formed by ``per_letter_compose`` and each term summed and scaled as
    an operator; shorter words come from the context.  (The library
    sums every term of the step as one symbol.)"""
    from jetexp.enveloping import DiffOp, word_key
    from jetexp.geometry import coordinate_replacement

    chart = ctx.chart
    m = mi_weight(index)
    if m == 0:
        return DiffOp.identity(chart)
    if m == 1:
        return DiffOp.from_word(chart, index)
    acc = DiffOp.zero(chart)
    odd_before = 0
    for slot in range(chart.n - 1, -1, -1):
        mult = index[slot]
        if not mult:
            continue
        unit = tuple(1 if s == slot else 0 for s in range(chart.n))
        rest_index = tuple(e - u for e, u in zip(index, unit))
        left = per_letter_compose(DiffOp.from_word(chart, unit),
                                  ctx.word_image(rest_index))
        term = left - ctx.map(coordinate_replacement(
            ctx.conn, slot, word_key(chart, rest_index)))
        par = chart.coordinate_parity(slot)
        sign = -1 if par and odd_before & 1 else 1
        odd_before += par
        acc = acc + term.scale(Fraction(sign * mult, m))
    return acc


def sym_word(fields):
    """Symmetrization of a word of homogeneous vector fields: the average
    of all Koszul-signed orderings composed in the operator algebra."""
    from jetexp.enveloping import DiffOp

    if not fields:
        raise ValueError("empty word")
    chart = same_chart(*fields)
    degrees = [f.degree() for f in fields]
    ops = [from_vector_field(DiffOp, f) for f in fields]
    out = DiffOp.zero(chart)
    for perm in itertools.permutations(range(len(fields))):
        sign = bubble_koszul_sign(list(perm), degrees)
        term = DiffOp.identity(chart)
        for pos in perm:
            term = term.compose(ops[pos])
        out = out + term.scale(sign)
    return out.scale(Fraction(1, math.factorial(len(fields))))


def vf_homogeneous_ops(field):
    """Homogeneous pieces of a vector field as (degree, DiffOp) pairs."""
    from jetexp.enveloping import DiffOp

    chart = field.chart
    buckets = {}
    for i, comp in enumerate(field.components):
        for d, part in comp.homogeneous_components().items():
            deg = d - chart.coordinate_degree(i)
            idx = tuple(1 if s == i else 0 for s in range(chart.n))
            dst = buckets.setdefault(deg, {})
            cur = dst.get(idx)
            dst[idx] = part if cur is None else cur + part
    return [(d, DiffOp(chart, t)) for d, t in sorted(buckets.items())]


def _odd_letter_sign(chart, index):
    """rho(K) = (-1)^(k(k-1)/2) for the k odd letters of ``index``: the
    sign reversing the odd letters of the descending word."""
    k = sum(e for s, e in enumerate(index) if chart.coordinate_parity(s))
    return -1 if k * (k - 1) // 2 % 2 else 1


def square_from_table(chart, table):
    """The square symbol of sum c_{L,R} d^L (x) d^R from a (L, R) ->
    coefficient table: each monomial of c_{L,R} placed with y^L y'^R
    and the sign rho(L) rho(R), by exponent tuples, with no product."""
    from jetexp.enveloping import square_chart

    n = chart.n
    out = {}
    for (left, right), coeff in table.items():
        sign = _odd_letter_sign(chart, left) * _odd_letter_sign(chart, right)
        for m, c in coeff.terms.items():
            assert not any(m[n:]), "coefficients must be base functions"
            key = m[:n] + (0,) * n + tuple(left) + tuple(right) + (0,) * 2 * n
            out[key] = out.get(key, 0) + sign * c
    return GradedPoly(square_chart(chart), out)


def square_table(chart, square):
    """The (L, R) -> coefficient table of a square symbol over ``chart``,
    read back key by key (the inverse of ``square_from_table``)."""
    n = chart.n
    out = {}
    for m, c in square.terms.items():
        assert not any(m[n:2 * n]) and not any(m[4 * n:])
        left, right = m[2 * n:3 * n], m[3 * n:4 * n]
        sign = _odd_letter_sign(chart, left) * _odd_letter_sign(chart, right)
        base = m[:n] + (0,) * 2 * n
        out.setdefault((left, right), {})[base] = sign * c
    return {key: GradedPoly(chart, terms) for key, terms in out.items()}


def _add_to_table(table, key, coeff):
    cur = table.get(key)
    table[key] = coeff if cur is None else cur + coeff


def tensor_square_left_mult_vf(field, square):
    """Multiply a square symbol from the left by (X (x) 1 + 1 (x) X).

    The X (x) 1 term composes into the left slot; the 1 (x) X term
    crosses the left slot with a Koszul sign, composes into the right
    slot, and the coefficients this produces on the right are pushed
    back into the left slot through the balancing twist
    (``degree_split_tensor_push_left``).
    """
    from jetexp.enveloping import DiffOp

    chart = field.chart
    xop = from_vector_field(DiffOp, field)
    out = {}
    for (left_index, right_index), coeff in square_table(chart,
                                                         square).items():
        left_op = DiffOp(chart, {left_index: coeff})
        for idx, c in xop.compose(left_op).terms.items():
            _add_to_table(out, (idx, right_index), c)
        right_word = DiffOp.from_word(chart, right_index)
        for xdeg, xpart in vf_homogeneous_ops(field):
            xr = xpart.compose(right_word)
            for udeg, upart in left_op.homogeneous_components().items():
                crossed = upart.scale(-1) if (xdeg & 1) and (udeg & 1) \
                    else upart
                degree_split_tensor_push_left(out, crossed, xr)
    return square_from_table(chart, out)


def dual_connection_images(conn: Connection) -> List[List[GradedPoly]]:
    """Per direction i, the generator images of the induced derivation on
    sections: base generators map to Kronecker deltas, fiber generators
    to the dual Christoffel contraction, form generators to zero."""
    chart = conn.chart
    all_images: List[List[GradedPoly]] = []
    for i in range(chart.n):
        images: List[GradedPoly] = [None] * (3 * chart.n)
        images[chart.x_slot(i)] = GradedPoly.constant(chart, 1)
        for k in range(chart.n):
            acc = GradedPoly.zero(chart)
            for l in range(chart.n):
                gam = entry(conn, i, l, k)
                if not gam:
                    continue
                exp = chart.coordinate_parity(l) * \
                    (1 + chart.coordinate_degree(k))
                sign = -1 if exp & 1 else 1
                acc = acc + gam * GradedPoly.generator(chart, chart.y_slot(l)) \
                    * (-sign)
            images[chart.y_slot(k)] = acc
        all_images.append(images)
    return all_images


def dnabla_table(conn):
    """The generator table of the dual covariant differential rebuilt
    from ``dual_connection_images``: x_i -> dx_i and y_k -> sum_i dx_i .
    (the y_k image of direction i), summed with ``+``.  (The library
    forms each y_k image as one ``combine`` over the Christoffel rows.)"""
    chart = conn.chart
    rows = dual_connection_images(conn)
    dx = [GradedPoly.generator(chart, chart.dx_slot(i))
          for i in range(chart.n)]
    images = {chart.x_slot(i): dx[i] for i in range(chart.n)}
    for y in map(chart.y_slot, range(chart.n)):
        images[y] = sum((dx[i] * row[y] for i, row in enumerate(rows)
                         if row[y]), GradedPoly.zero(chart))
    return images


def dual_curvature_action(conn, f):
    """The square of the dual covariant differential reassembled from
    graded commutators of the direction derivations; equals
    dnabla_form(dnabla_form(.)) identically and ties to the curvature of
    the input connection through the pairing (tested, not assumed)."""
    chart = f.chart
    images = [dict(enumerate(row)) for row in dual_connection_images(conn)]
    out = GradedPoly.zero(chart)
    for j in range(chart.n):
        pj = chart.coordinate_parity(j)
        dxj = GradedPoly.generator(chart, chart.dx_slot(j))
        for i in range(chart.n):
            pi = chart.coordinate_parity(i)
            dxi = GradedPoly.generator(chart, chart.dx_slot(i))
            sign = -1 if (pj * (1 + pi)) & 1 else 1
            inner = f.derive(images[i]).derive(images[j])
            flip = f.derive(images[j]).derive(images[i])
            comm = inner - (flip if not (pi and pj) else -flip)
            out = out + dxj * dxi * comm * Fraction(sign, 2)
    return out


def degree_split_tensor_push_left(table, left_op, right_op):
    """Add left_op (x) right_op to a (L, R) -> coefficient ``table``, each
    right coefficient pushed into the left slot over degree-homogeneous
    parts: the whole left operator and each right coefficient split by
    total degree, each pair of parts multiplied and negated when both
    degrees are odd."""
    for right_index, rcoeff in right_op.terms.items():
        for udeg, upart in left_op.homogeneous_components().items():
            for gdeg, gpart in rcoeff.homogeneous_components().items():
                flip = (gdeg & 1) and (udeg & 1)
                moved = upart.scale(gpart)
                for left_index, lcoeff in moved.terms.items():
                    _add_to_table(table, (left_index, right_index),
                                  -lcoeff if flip else lcoeff)


def degree_split_mul_letter_left(tensor, slot):
    """The symmetric product d_slot (.) tensor over the degree-homogeneous
    parts of each coefficient, the parity read off each part, and the
    word merged by ``merge_words``.  (The library multiplies symbols.)"""
    chart = tensor.chart
    par = chart.coordinate_parity(slot)
    unit = tuple(int(s == slot) for s in range(chart.n))
    out = {}
    for index, coeff in tensor.terms.items():
        sign, idx = merge_words(chart, unit, index)
        if not sign:
            continue
        for part in coeff.homogeneous_components().values():
            val = part if sign > 0 else -part
            if par and parity(part):
                val = -val
            cur = out.get(idx)
            out[idx] = val if cur is None else cur + val
    return type(tensor)(chart, out)


def bitmask_shuffle_splits(chart, index):
    """Yield (Koszul sign, left index, right index) over all 2^k
    order-preserving two-block splits of the descending word of k
    letters, one per bitmask, equal splits repeated."""

    letters = word_letters(index)
    pars = [chart.coordinate_parity(s) for s in letters]
    k = len(letters)
    n = chart.n
    for mask in range(1 << k):
        left = [0] * n
        right = [0] * n
        inv = 0
        odd_sent_right = 0
        for pos in range(k):
            if mask >> pos & 1:
                left[letters[pos]] += 1
                if pars[pos]:
                    inv += odd_sent_right
            else:
                right[letters[pos]] += 1
                if pars[pos]:
                    odd_sent_right += 1
        yield (-1 if inv & 1 else 1), tuple(left), tuple(right)


def per_split_comult(element):
    """The square symbol of the shuffle comultiplication of ``element``
    summed one public polynomial per bitmask split."""
    out = {}
    for index, coeff in element.terms.items():
        for sign, left, right in bitmask_shuffle_splits(element.chart,
                                                        index):
            _add_to_table(out, (left, right), coeff if sign > 0 else -coeff)
    return square_from_table(element.chart, out)


def summed_random_base_poly(rng, chart, max_degree=2, terms=3):
    """``randomgen.random_base_poly`` as a sum of single-term
    polynomials, with the same draws in the same order."""
    from jetexp.randomgen import random_monomial

    out = GradedPoly.zero(chart)
    for _ in range(terms):
        m = random_monomial(rng, chart, max_degree, 0, 0)
        out = out + GradedPoly(chart, {m: random_coefficient(rng)})
    return out


def summed_random_section(rng, chart, max_weight, terms=5, max_base=2):
    """``randomgen.random_section`` as a sum of single-term polynomials,
    with the same draws in the same order."""
    from jetexp.poly import monomial_pq
    from jetexp.randomgen import random_monomial

    out = GradedPoly.zero(chart)
    for _ in range(terms):
        m = random_monomial(rng, chart, max_base, max_weight, max_weight)
        while sum(monomial_pq(chart, m)) > max_weight:
            hot = [s for s in range(chart.n, 3 * chart.n) if m[s]]
            s = rng.choice(hot)
            m = m[:s] + (m[s] - 1,) + m[s + 1:]
        out = out + GradedPoly(chart, {m: random_coefficient(rng)})
    return out


def summed_random_symtensor(rng, chart, max_weight, terms=3, max_base=2):
    """``randomgen.random_symtensor`` as a sum of single-term tensors,
    with the same draws in the same order."""
    from jetexp.randomgen import random_word

    out = SymTensor.zero(chart)
    for _ in range(terms):
        w = rng.randrange(max_weight + 1)
        letters = random_word(rng, chart, w)
        index = [0] * chart.n
        for s in letters:
            index[s] += 1
        out = out + SymTensor(chart, {tuple(index): summed_random_base_poly(
            rng, chart, max_base, 2)})
    return out


def random_coefficient(rng: random.Random) -> Fraction:
    return Fraction(_sixths(rng), 6)


def random_homogeneous_base(rng: random.Random, chart: Chart, degree: int,
                            max_exp: int = 2) -> GradedPoly:
    """Random homogeneous base polynomial of exact degree (zero when no
    monomial of that degree exists within the exponent cap): each
    candidate monomial, in lexicographic order of its exponents, is kept
    with probability 0.6, and when none is, one is chosen with
    coefficient 1."""
    n = chart.n
    caps = [1 if chart.coordinate_parity(s) else max_exp for s in range(n)]
    degrees = [chart.coordinate_degree(s) for s in range(n)]
    candidates = [pack_monomial(chart, m + (0,) * (2 * n))
                  for m in product(*[range(cap + 1) for cap in caps])
                  if sum([e * d for e, d in zip(m, degrees)]) == degree]
    nums: Dict[int, int] = {}
    for key in candidates:
        if rng.random() < 0.6:
            nums[key] = _sixths(rng)
    if candidates and not nums:
        nums[rng.choice(candidates)] = 6
    return _in_sixths(chart, nums)


def random_vector_field(rng: random.Random, chart: Chart,
                        max_degree: int = 2) -> VectorField:
    return VectorField(chart, [random_base_poly(rng, chart, max_degree, 2)
                               for _ in range(chart.n)])


def random_homogeneous_vf(rng: random.Random, chart: Chart,
                          degree: int) -> VectorField:
    comps = []
    for i in range(chart.n):
        want = degree + chart.coordinate_degree(i)
        comps.append(random_homogeneous_base(rng, chart, want))
    return VectorField(chart, comps)


def random_torsion_free_connection(rng: random.Random,
                                   chart: Chart) -> Connection:
    gamma = {}
    n = chart.n
    for i in range(n):
        for j in range(i, n):
            pi = chart.coordinate_parity(i)
            pj = chart.coordinate_parity(j)
            if i == j and pi:
                continue  # graded symmetry forces the odd diagonal to zero
            for k in range(n):
                want = (chart.coordinate_degree(k) - chart.coordinate_degree(i)
                        - chart.coordinate_degree(j))
                entry = random_homogeneous_base(rng, chart, want, max_exp=1)
                if not entry:
                    continue
                if rng.random() < 0.5:
                    continue
                gamma[(i, j, k)] = entry
                if i != j:
                    sign = -1 if pi and pj else 1
                    gamma[(j, i, k)] = entry * sign
    return Connection(chart, gamma, torsion_free=True)


def mi_weight(index):
    """Total weight of a multi-index."""
    return sum(index)


def monomial_parity(chart, m):
    """Parity of an exponent tuple."""
    return sum(e * p for e, p in zip(m, chart.gen_parities)) & 1


def parity_parts(f):
    """(parity, part) for the nonzero even and odd parts of ``f``."""
    odd_low = f.chart.odd_low
    return list(f._split(lambda k: (k & odd_low).bit_count() & 1).items())


def parity(f):
    """Parity of a homogeneous polynomial, summed over the exponent
    tuples of ``terms``; NotHomogeneousError on mixed parity.  (The
    library reads odd slots off the packed keys.)"""
    from jetexp.poly import NotHomogeneousError

    odd = f.chart.gen_parities
    pars = {sum(e for e, p in zip(m, odd) if p) & 1 for m in f.terms}
    if len(pars) != 1:
        raise NotHomogeneousError(pars)
    return pars.pop()


def filter_terms(f, keep):
    """The monomials of ``f`` whose exponent tuple satisfies ``keep``,
    rebuilt through the public constructor."""
    return GradedPoly(f.chart, {m: c for m, c in f.terms.items() if keep(m)})


def lightning_nabla(ctx, field, tensor):
    """The flat connection transported from left operator composition:
    cov(X, S) = inv(X o map(S)).  Raises the weight by one, so the
    context needs headroom above the tensor's weight."""
    from jetexp.enveloping import DiffOp, TruncationOverflowError

    same_chart(ctx, field, tensor)
    if tensor.weight() + 1 > ctx.max_weight:
        raise TruncationOverflowError(
            "transported derivative of weight-%d tensor exceeds context "
            "cap %d" % (tensor.weight(), ctx.max_weight))
    xop = from_vector_field(DiffOp, field)
    return ctx.inv(xop.compose(ctx.map(tensor)))


def theta_form(ctx, field, tensor):
    """Correction of the transported connection against the naive
    symmetric product plus the input connection (contracted with the
    given field).

    Gated on torsion-freeness: with torsion the weight-one value would
    be half the torsion tensor rather than zero, and none of the
    downstream weight bookkeeping applies.  Lowers weight by at least
    one on torsion-free input.
    """
    from jetexp.geometry import nabla_sym

    if not ctx.conn.torsion_free:
        raise ValueError("correction form requires a torsion-free "
                         "connection")
    lowered = lightning_nabla(ctx, field, tensor)
    return (lowered - sym_mul_vf(field, tensor)
            - nabla_sym(ctx.conn, field, tensor))


def xi_form_by_theta(ctx, max_fiber_weight=None):
    """Dual correction form through the whole transported connection:
    for each direction i and word index I,

        contribution_k  +=  sign/I! * y^I * <theta(d_i, word_I), y_k>

    with sign = (-1)^(|word_I||d_i|), then multiplied by the direction's
    form generator on the left.  (The library reads the pairing off a
    table of the weight-one parts of inv(d^J) and forms no inverse,
    operator product or covariant derivative.)
    """
    from jetexp.chart import mi_all_up_to
    from jetexp.enveloping import TruncationOverflowError

    if not ctx.conn.torsion_free:
        raise ValueError("dual correction form requires a torsion-free "
                         "connection")
    chart = ctx.chart
    weight = (chart.truncation.max_sym_weight if max_fiber_weight is None
              else int(max_fiber_weight))
    if weight + 1 > ctx.max_weight:
        raise TruncationOverflowError(
            "fiber weight %d needs context cap at least %d"
            % (weight, weight + 1))
    components = [GradedPoly.zero(chart) for _ in range(chart.n)]
    for i in range(chart.n):
        xi_i = VectorField.coordinate(chart, i)
        dxi = GradedPoly.generator(chart, chart.dx_slot(i))
        for index in mi_all_up_to(chart.n, weight):
            if mi_weight(index) < 2:
                continue
            if any(e > 1 and chart.coordinate_parity(s)
                   for s, e in enumerate(index)):
                continue
            theta = theta_form(ctx, xi_i, SymTensor.from_word(chart, index))
            if not theta:
                continue
            sign = -1 if ((word_degree(chart, index) & 1)
                          and chart.coordinate_parity(i)) else 1
            y_mono = GradedPoly._of(chart, {pack_monomial(
                chart, (0,) * chart.n + index + (0,) * chart.n): sign},
                mi_factorial(index))
            for k in range(chart.n):
                yk = GradedPoly.generator(chart, chart.y_slot(k))
                coeff = pairing(theta, yk)
                if coeff:
                    components[k] = components[k] + dxi * (y_mono * coeff)
    return tuple(components)


# -- the reference calculus on vector fields, and the duality pairing -------


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """Graded commutator of derivations."""
    chart = same_chart(x, y)
    out = VectorField.zero(chart)
    for dx, xh in x.homogeneous_components().items():
        for dy, yh in y.homogeneous_components().items():
            sign = -1 if (dx & 1) and (dy & 1) else 1
            comps = []
            for k in range(chart.n):
                first = xh.apply(yh.components[k])
                second = yh.apply(xh.components[k])
                comps.append(first - second * sign)
            out = out + VectorField(chart, comps)
    return out


def cov_deriv(conn: Connection, x: VectorField, y: VectorField) -> VectorField:
    """Covariant derivative: base-linear in the direction, graded Leibniz
    in the argument."""
    chart = same_chart(conn, x, y)
    out = VectorField.zero(chart)
    for dx, xh in x.homogeneous_components().items():
        # derivative of the coefficients
        comps = [xh.apply(c) for c in y.components]
        out = out + VectorField(chart, comps)
        # Christoffel part: X(g_j . d_j) picks (-1)^(|X||g_j|) g_j cov(X, d_j)
        for j in range(chart.n):
            for gdeg, gpart in y.components[j].homogeneous_components().items():
                flip = (dx & 1) and (gdeg & 1)
                for i in range(chart.n):
                    xi = xh.components[i]
                    if not xi:
                        continue
                    for k in range(chart.n):
                        gam = entry(conn, i, j, k)
                        if not gam:
                            continue
                        val = gpart * xi * gam
                        if flip:
                            val = -val
                        add = [GradedPoly.zero(chart)] * chart.n
                        add[k] = val
                        out = out + VectorField(chart, add)
    return out


def torsion(conn: Connection, x: VectorField, y: VectorField) -> VectorField:
    chart = same_chart(conn, x, y)
    out = VectorField.zero(chart)
    for dx, xh in x.homogeneous_components().items():
        for dy, yh in y.homogeneous_components().items():
            sign = -1 if (dx & 1) and (dy & 1) else 1
            term = cov_deriv(conn, xh, yh) - cov_deriv(conn, yh, xh).scale(sign)
            out = out + term - lie_bracket(xh, yh)
    return out


def curvature(conn: Connection, x: VectorField, y: VectorField,
              z: VectorField) -> VectorField:
    """Curvature two-form evaluated on (x, y) and applied to z."""
    chart = same_chart(conn, x, y, z)
    out = VectorField.zero(chart)
    for dx, xh in x.homogeneous_components().items():
        for dy, yh in y.homogeneous_components().items():
            sign = -1 if (dx & 1) and (dy & 1) else 1
            pref = -1 if (dy - 1) & 1 else 1
            term = (cov_deriv(conn, xh, cov_deriv(conn, yh, z))
                    - cov_deriv(conn, yh, cov_deriv(conn, xh, z)).scale(sign)
                    - cov_deriv(conn, lie_bracket(xh, yh), z))
            out = out + term.scale(pref)
    return out


def sym_mul_vf(field, tensor: SymTensor) -> SymTensor:
    """Symmetric product (vector field) (.) tensor, field on the left."""
    return from_vector_field(SymTensor, field) * tensor


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
    n, base, odd_low = chart.n, chart.base_mask, chart.odd_low
    tau = tensor.symbol()
    parts = fiber_parts(tau)
    entries = []
    for k, v in sigma.nums.items():
        if k >> 2 * FIELD_BITS * n & base:
            raise ValueError("pairing argument must be free of form "
                             "generators")
        word = k & ~base
        if word in parts:
            sign = symbol_sign(chart, word)
            odd = k & odd_low
            if (odd & base).bit_count() & (odd & ~base).bit_count() & 1:
                sign = -sign
            fact = mi_factorial([word >> sh & FIELD_MASK
                                 for sh in chart.shifts[n:2 * n]])
            entries.append((sign * v * fact, GradedPoly._of(
                chart, parts[word], tau.den), GradedPoly._of(
                chart, {k & base: 1}, sigma.den)))
    return combine(chart, entries)


# -- closed forms on a chart with solvable geodesics --------------------------
#
# The chart: x1 of degree 0 and x2 of any degree d, with one Christoffel
# entry Gamma^2_11 = c*x2.  Its geodesics are x1(t) = x1 + t*y1 and
# x2'' = -c*y1^2*x2, so tau(f) = f(exp_x(y)) (Emmrich-Weinstein) and the
# correction are known at every fiber weight.


def bernoulli_numbers(m):
    """B_0 .. B_m (B_1 = -1/2) by the recurrence
    sum_{j <= k} comb(k + 1, j) B_j = 0 for k >= 1."""
    b = [Fraction(1)]
    for k in range(1, m + 1):
        b.append(-sum(math.comb(k + 1, j) * b[j] for j in range(k))
                 / (k + 1))
    return b


def t_cot_coefficients(kmax):
    """a_1 .. a_kmax with sum_k a_k t^(2k) = 1 - t cot t, that is
    a_k = 2^(2k) |B_(2k)| / (2k)!."""
    b = bernoulli_numbers(2 * kmax)
    return [Fraction(4 ** k) * abs(b[2 * k]) / math.factorial(2 * k)
            for k in range(1, kmax + 1)]


def _fiber_monomial(chart, e1, e2):
    # y1^e1 * y2^e2 as an exponent tuple over the 3n slots
    m = [0] * 3 * chart.n
    m[chart.y_slot(0)], m[chart.y_slot(1)] = e1, e2
    return m


def geodesic_tau(chart, c, weight):
    """(tau(x1), tau(x2)) cut at fiber weight ``weight``:

        tau(x1) = x1 + y1
        tau(x2) = x2 cos(sqrt(c) y1) + y2 sin(sqrt(c) y1) / (sqrt(c) y1)

    as series in c y1^2."""
    c = Fraction(c)
    x1 = _fiber_monomial(chart, 0, 0)
    x1[chart.x_slot(0)] = 1
    tau_x1 = {tuple(x1): 1, tuple(_fiber_monomial(chart, 1, 0)): 1}
    tau_x2 = {}
    for k in range(weight // 2 + 1):
        m = _fiber_monomial(chart, 2 * k, 0)
        m[chart.x_slot(1)] = 1
        tau_x2[tuple(m)] = (-c) ** k / math.factorial(2 * k)
        if 2 * k + 1 <= weight:
            tau_x2[tuple(_fiber_monomial(chart, 2 * k, 1))] = \
                (-c) ** k / math.factorial(2 * k + 1)
    return GradedPoly(chart, tau_x1), GradedPoly(chart, tau_x2)


def geodesic_correction_series(chart, coefficients):
    """sum_k coefficients[k - 1] * y1^(2k - 1)."""
    return GradedPoly(chart, {
        tuple(_fiber_monomial(chart, 2 * k - 1, 0)): a
        for k, a in enumerate(coefficients, 1)})


def geodesic_form(chart):
    """dx2 y1 - dx1 y2, in this order of factors (it matters for odd d)."""
    gen = lambda slot: GradedPoly.generator(chart, slot)
    return (fraction_mul(gen(chart.dx_slot(1)), gen(chart.y_slot(0)))
            - fraction_mul(gen(chart.dx_slot(0)), gen(chart.y_slot(1))))


def geodesic_correction(chart, c, weight):
    """The correction form (0, (dx2 y1 - dx1 y2) sum_k a_k c^k y1^(2k-1))
    cut at fiber weight ``weight`` (terms of fiber weight 2k), with the
    a_k of ``t_cot_coefficients``."""
    c = Fraction(c)
    series = geodesic_correction_series(chart, [
        a * c ** k for k, a in enumerate(t_cot_coefficients(weight // 2), 1)])
    return GradedPoly.zero(chart), fraction_mul(geodesic_form(chart), series)
