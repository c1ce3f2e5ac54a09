"""Seeded random data for the verify suites and property tests:
polynomials, sections, tensors and words on a chart.

Everything takes an explicit random.Random so runs are reproducible;
base degrees stay inside the chart's declared bound so generated inputs
are always valid chart-file material.

Samples are built on packed keys: each coefficient n/d (n a nonzero
integer in [-6, 6], d in {1, 2, 3}) is drawn by two RNG calls as the
integer numerator n * 6/d over 6 (``_sixths``), summed per key, and
each polynomial ends in one ``GradedPoly._of``.  So the draws, and the
values, are those of summing one single-term polynomial at a time.
"""

from __future__ import annotations

import random
from typing import Dict, List

from .chart import Chart
from .enveloping import SymTensor, word_symbol
from .poly import GradedPoly, combine, monomial_pq, pack_monomial


def _sixths(rng: random.Random) -> int:
    """The numerator over 6 of one random coefficient n/d."""
    num = rng.randrange(-6, 7) or 1
    return num * (6 // rng.choice((1, 1, 2, 3)))


def _in_sixths(chart: Chart, nums: Dict[int, int]) -> GradedPoly:
    """The polynomial sum_k nums[k]/6 * monomial(k)."""
    return GradedPoly._of(chart, {k: v for k, v in nums.items() if v}, 6)


def random_monomial(rng: random.Random, chart: Chart, max_base: int,
                    max_fiber: int, max_form: int):
    n = chart.n
    exps = []
    budgets = [max_base] * n + [max_fiber] * n + [max_form] * n
    for slot in range(3 * n):
        cap = 1 if chart.gen_parities[slot] else budgets[slot]
        exps.append(rng.randrange(cap + 1) if cap > 0 else 0)
    # respect block budgets for even generators too
    for start, budget in ((0, max_base), (n, max_fiber), (2 * n, max_form)):
        while sum(exps[start:start + n]) > budget:
            hot = [s for s in range(start, start + n) if exps[s]]
            exps[rng.choice(hot)] -= 1
    return tuple(exps)


def _draw_base_terms(rng: random.Random, chart: Chart, nums: Dict[int, int],
                     max_degree: int, terms: int) -> None:
    """Add the draws of ``random_base_poly`` to ``nums`` (key -> sixths)."""
    for _ in range(terms):
        key = pack_monomial(chart, random_monomial(rng, chart, max_degree,
                                                   0, 0))
        nums[key] = nums.get(key, 0) + _sixths(rng)


def random_base_poly(rng: random.Random, chart: Chart, max_degree: int = 2,
                     terms: int = 3) -> GradedPoly:
    nums: Dict[int, int] = {}
    _draw_base_terms(rng, chart, nums, max_degree, terms)
    return _in_sixths(chart, nums)


def random_section(rng: random.Random, chart: Chart, max_weight: int,
                   terms: int = 5, max_base: int = 2) -> GradedPoly:
    """Random polynomial section with every monomial's p + q within the
    weight bound."""
    nums: Dict[int, int] = {}
    for _ in range(terms):
        m = random_monomial(rng, chart, max_base, max_weight, max_weight)
        while sum(monomial_pq(chart, m)) > max_weight:
            hot = [s for s in range(chart.n, 3 * chart.n) if m[s]]
            s = rng.choice(hot)
            m = m[:s] + (m[s] - 1,) + m[s + 1:]
        key = pack_monomial(chart, m)
        nums[key] = nums.get(key, 0) + _sixths(rng)
    return _in_sixths(chart, nums)


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
    table: Dict[int, Dict[int, int]] = {}  # word -> base numerators
    for _ in range(terms):
        w = rng.randrange(max_weight + 1)
        word = sum([chart.unit[chart.n + s]
                    for s in random_word(rng, chart, w)])
        _draw_base_terms(rng, chart, table.setdefault(word, {}), max_base, 2)
    # random_word keeps odd letters single, so no word needs checking
    return SymTensor.from_symbol(combine(chart, [
        (1, word_symbol(chart, word, _in_sixths(chart, nums)))
        for word, nums in table.items()]))
