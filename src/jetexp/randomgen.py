"""Seeded random data for property suites: polynomials, sections,
tensors, words, and torsion-free connections on a chart.

Everything takes an explicit random.Random so runs are reproducible;
base degrees stay inside the chart's declared bound so generated inputs
are always valid chart-file material.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List

from .chart import Chart
from .enveloping import SymTensor
from .geometry import Connection, VectorField
from .poly import GradedPoly, monomial_pq


def random_coefficient(rng: random.Random) -> Fraction:
    num = rng.randrange(-6, 7) or 1
    den = rng.choice((1, 1, 2, 3))
    return Fraction(num, den)


def random_monomial(rng: random.Random, chart: Chart, max_base: int,
                    max_fiber: int, max_form: int):
    n = chart.n
    exps = []
    budgets = [max_base] * n + [max_fiber] * n + [max_form] * n
    for slot in range(3 * n):
        cap = 1 if chart.gen_parities[slot] else budgets[slot]
        exps.append(rng.randrange(cap + 1) if cap > 0 else 0)
    # respect block budgets for even generators too
    while sum(exps[:n]) > max_base:
        hot = [s for s in range(n) if exps[s]]
        exps[rng.choice(hot)] -= 1
    while sum(exps[n:2 * n]) > max_fiber:
        hot = [s for s in range(n, 2 * n) if exps[s]]
        exps[rng.choice(hot)] -= 1
    while sum(exps[2 * n:]) > max_form:
        hot = [s for s in range(2 * n, 3 * n) if exps[s]]
        exps[rng.choice(hot)] -= 1
    return tuple(exps)


def random_base_poly(rng: random.Random, chart: Chart, max_degree: int = 2,
                     terms: int = 3) -> GradedPoly:
    out = {}
    for _ in range(terms):
        m = random_monomial(rng, chart, max_degree, 0, 0)
        out[m] = out.get(m, 0) + random_coefficient(rng)
    return GradedPoly(chart, out)


def random_section(rng: random.Random, chart: Chart, max_weight: int,
                   terms: int = 5, max_base: int = 2) -> GradedPoly:
    """Random polynomial section with every monomial's p + q within the
    weight bound."""
    out = {}
    for _ in range(terms):
        m = random_monomial(rng, chart, max_base, max_weight, max_weight)
        while sum(monomial_pq(chart, m)) > max_weight:
            hot = [s for s in range(chart.n, 3 * chart.n) if m[s]]
            s = rng.choice(hot)
            m = m[:s] + (m[s] - 1,) + m[s + 1:]
        out[m] = out.get(m, 0) + random_coefficient(rng)
    return GradedPoly(chart, out)


def random_homogeneous_base(rng: random.Random, chart: Chart, degree: int,
                            max_exp: int = 2) -> GradedPoly:
    """Random homogeneous base polynomial of exact degree (zero when no
    monomial of that degree exists within the exponent cap)."""
    n = chart.n
    candidates = []

    def walk(slot, acc, deg_left_vec):
        if slot == n:
            if sum(e * chart.coordinate_degree(s)
                   for s, e in enumerate(acc)) == degree:
                candidates.append(tuple(acc) + (0,) * (2 * n))
            return
        cap = 1 if chart.coordinate_parity(slot) else max_exp
        for e in range(cap + 1):
            walk(slot + 1, acc + [e], deg_left_vec)

    walk(0, [], None)
    out = GradedPoly.zero(chart)
    if not candidates:
        return out
    for m in candidates:
        if rng.random() < 0.6:
            out = out + GradedPoly(chart, {m: random_coefficient(rng)})
    if not out:
        out = GradedPoly(chart, {rng.choice(candidates): Fraction(1)})
    return out


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


def random_word(rng: random.Random, chart: Chart, length: int) -> List[int]:
    """Random multiset of coordinate slots usable as a symmetric word
    (odd slots at most once); returned in descending order."""
    counts = [0] * chart.n
    tries = 0
    while sum(counts) < length and tries < 50 * length:
        tries += 1
        s = rng.randrange(chart.n)
        if chart.coordinate_parity(s) and counts[s]:
            continue
        counts[s] += 1
    letters = []
    for s in range(chart.n - 1, -1, -1):
        letters.extend([s] * counts[s])
    return letters


def random_symtensor(rng: random.Random, chart: Chart, max_weight: int,
                     terms: int = 3, max_base: int = 2) -> SymTensor:
    out = {}
    for _ in range(terms):
        w = rng.randrange(max_weight + 1)
        letters = random_word(rng, chart, w)
        index = [0] * chart.n
        for s in letters:
            index[s] += 1
        index = tuple(index)
        coeff = random_base_poly(rng, chart, max_base, 2)
        out[index] = out[index] + coeff if index in out else coeff
    return SymTensor(chart, out)


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
