"""Independent oracles for the test suite.

Each function recomputes a quantity by a deliberately different route
than the library (bubble sort instead of inversion counting, explicit
shuffle interleave instead of the factorial diagonal rule, exact matrix
inversion instead of series summation) so frozen expectations in the
tests do not share code with the implementation they check.
"""

from fractions import Fraction

from jetexp.chart import koszul_sign  # noqa: F401  (re-export for tests)
from jetexp.poly import GradedPoly


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


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


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


def brute_force_derivative(chart, f, slot, direction="left"):
    """Left derivative recomputed by expanding every monomial into an
    explicit generator word and cancelling against the leading letter."""
    out = GradedPoly.zero(chart)
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
            out = out + GradedPoly(chart, {tuple(mono): c * sign})
    return out


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
