"""Chart descriptions for graded polynomial models.

A chart fixes an ordered list of graded coordinates x_1..x_n.  Each
coordinate of degree d induces a fiber generator (the corresponding
linear coordinate on the tangent fiber, same degree d) and a form
generator (degree 1 + d).  Everything else in this package lives in the
free graded-commutative algebra on these 3n generators over exact
rationals: parity = degree mod 2 drives every sign, and odd generators
square to zero.

Generator slots are laid out base block, then fiber block, then form
block; that fixed order is the canonical monomial order used by all
normal forms.  The coordinate list order is frozen for the chart's
lifetime.

Packed layout.  A monomial is stored as one int: each slot s holds its
exponent in a fixed field of ``FIELD_BITS`` bits starting at bit
``FIELD_BITS * s``, and one more field above the 3n slots holds the
weight p + q.  The top bit of every field is a guard, clear in every
valid key, so an exponent or a weight is at most ``FIELD_MAX`` and the
sum of two valid keys never carries from one field into the next: a
product of monomials is one int addition, and a guard bit set in the
sum is an overflow.  ``unit[s]`` is the key of the generator in slot s
(its field's low bit, plus the weight field's for a fiber or form
slot), ``odd_low`` the low bits of the odd slots' fields (an odd
exponent is 0 or 1), ``guard`` the guard bits of all fields, and
``graded_fields`` the (shift, degree) of each slot of nonzero degree,
the only fields a monomial's degree reads.

Naming: a coordinate named ``x2`` gets fiber generator ``y2`` and form
generator ``dx2`` (leading ``x`` swapped for ``y``); any other name
``t`` gets ``y_t`` and ``dt``.  Collisions are rejected at construction.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence, Tuple


FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1
FIELD_MAX = (1 << FIELD_BITS - 1) - 1  # 32767: the guard bit stays clear


class Truncation(NamedTuple):
    """Model truncation: symmetric weight Q, form degree P, base degree B."""

    max_sym_weight: int
    max_form_degree: int
    max_base_degree: int


class Coordinate(NamedTuple):
    name: str
    degree: int


def derived_names(name: str) -> Tuple[str, str]:
    """The fiber and form generator names of a coordinate ``name``."""
    fiber = "y" + name[1:] if name.startswith("x") else "y_" + name
    return fiber, "d" + name


class Chart:
    """An ordered graded coordinate system plus its truncation data.

    Immutable; equality and hashing are by value so that "same chart"
    checks in the algebra layers are structural.
    """

    __slots__ = (
        "coords", "truncation", "n", "gen_names", "gen_degrees",
        "gen_parities", "odd_slots", "_slot_of",
        "shifts", "weight_shift", "unit", "odd_low", "guard", "base_mask",
        "graded_fields",
    )

    def __init__(self, coordinates: Iterable[Tuple[str, int]],
                 truncation: Truncation = Truncation(5, 3, 6)):
        coords = tuple([Coordinate(str(n), int(d)) for n, d in coordinates])
        if not coords:
            raise ValueError("chart needs at least one coordinate")
        truncation = Truncation(*map(int, truncation))
        q, p, b = truncation
        if q < 1 or p < 2 or b < 1:
            raise ValueError("truncation must satisfy Q >= 1, P >= 2, B >= 1")
        if max(truncation) > FIELD_MAX:
            raise ValueError("truncation bounds must be at most %d"
                             % FIELD_MAX)
        names = [c.name for c in coords]
        derived = [derived_names(n) for n in names]
        all_names = names + [f for f, _ in derived] + [d for _, d in derived]
        self._slot_of = {name: i for i, name in enumerate(all_names)}
        if len(self._slot_of) != len(all_names):
            raise ValueError("coordinate names collide (directly or through "
                             "derived fiber/form generator names)")
        n = len(coords)
        self.coords = coords
        self.truncation = truncation
        self.n = n
        self.gen_names = tuple(all_names)
        degrees = [c.degree for c in coords]
        self.gen_degrees = gen_degrees = tuple(
            degrees + degrees + [d + 1 for d in degrees])
        self.gen_parities = tuple([d & 1 for d in gen_degrees])
        self.odd_slots = tuple([s for s, d in enumerate(gen_degrees) if d & 1])
        # the packed monomial layout (see the module docstring)
        self.weight_shift = FIELD_BITS * 3 * n
        self.shifts = shifts = tuple(range(0, self.weight_shift, FIELD_BITS))
        weight_unit = 1 << self.weight_shift
        self.unit = tuple([1 << sh for sh in shifts[:n]]
                          + [1 << sh | weight_unit for sh in shifts[n:]])
        self.odd_low = sum([1 << shifts[s] for s in self.odd_slots])
        self.guard = sum([1 << sh + FIELD_BITS - 1
                          for sh in shifts + (self.weight_shift,)])
        self.base_mask = (1 << FIELD_BITS * n) - 1
        self.graded_fields = tuple([(sh, d) for sh, d in
                                    zip(shifts, gen_degrees) if d])

    # slot layout: [0, n) base, [n, 2n) fiber, [2n, 3n) form
    def x_slot(self, i: int) -> int:
        return i

    def y_slot(self, i: int) -> int:
        return self.n + i

    def dx_slot(self, i: int) -> int:
        return 2 * self.n + i

    def slot(self, name: str) -> int:
        try:
            return self._slot_of[name]
        except KeyError:
            raise KeyError("unknown generator %r" % (name,)) from None

    def coordinate_degree(self, i: int) -> int:
        return self.coords[i].degree

    def coordinate_parity(self, i: int) -> int:
        return self.coords[i].degree & 1

    def __eq__(self, other):
        return (isinstance(other, Chart)
                and self.coords == other.coords
                and self.truncation == other.truncation)

    def __hash__(self):
        return hash((self.coords, self.truncation))

    def __repr__(self):
        cs = ", ".join("%s:%d" % (c.name, c.degree) for c in self.coords)
        return "Chart(%s; Q=%d, P=%d, B=%d)" % ((cs,) + tuple(self.truncation))


def same_chart(*objs) -> Chart:
    """Return the shared chart of the arguments, or raise on mismatch."""
    chart = objs[0].chart
    for o in objs[1:]:
        if o.chart is not chart and o.chart != chart:
            raise ValueError("chart mismatch between operands")
    return chart


# ---------------------------------------------------------------------------
# Multi-index utilities (tuples over N_0^n)

def mi_factorial(index: Sequence[int]) -> int:
    out = 1
    for e in index:
        out *= math.factorial(e)
    return out


def mi_all(n: int, weight: int):
    """Yield all multi-indices in N_0^n of exact total weight."""
    if n == 1:
        yield (weight,)
        return
    for head in range(weight + 1):
        for rest in mi_all(n - 1, weight - head):
            yield (head,) + rest


def mi_all_up_to(n: int, max_weight: int):
    for w in range(max_weight + 1):
        yield from mi_all(n, w)
