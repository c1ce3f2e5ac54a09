"""Vector fields, graded affine connections, torsion and curvature.

A connection is specified by its Christoffel table on the chart: the
covariant derivative of the j-th coordinate derivation along the i-th is
the vector field with components Gamma[i, j, k].  A connection has
operator degree 0, which forces each nonzero Gamma^k_{ij} to be
homogeneous of degree |x_k| - |x_i| - |x_j|; that constraint is checked
at construction, as is graded symmetry when the torsion-free flag is
set (silent violations would poison everything built downstream).

Sign conventions: the bracket is the graded commutator of derivations,
the torsion is

    T(X, Y) = cov(X, Y) - (-1)^(|X||Y|) cov(Y, X) - [X, Y]

and the curvature carries the prefactor (-1)^(|Y| - 1) in front of the
covariant-derivative commutator, so that the square of the covariant
differential is the wedge action of the curvature two-form.

On interior products: pairing the i-th coordinate derivation with its
own degree-(1+|x_i|) form generator is degree -(1+|x_i|), so the
interior product by a coordinate derivation is implemented throughout as
the left derivative by the form generator (a derived convention; the
coordinate formulas for the fiberwise homotopy operators are normative).
"""

from __future__ import annotations

from typing import Dict, Tuple

from .chart import Chart, same_chart
from .enveloping import SymTensor
from .poly import GradedPoly


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
        return VectorField(self.chart, [a + b for a, b in
                                        zip(self.components, other.components)])

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
            from .poly import DegreeUndefinedError
            raise DegreeUndefinedError("zero vector field has no degree")
        if len(comps) > 1:
            from .poly import NotHomogeneousError
            raise NotHomogeneousError(set(comps))
        return next(iter(comps))

    def __repr__(self):
        from .grammar import format_poly
        parts = ["(%s)*d_%s" % (format_poly(c), self.chart.coords[i].name)
                 for i, c in enumerate(self.components) if c]
        return "VectorField(%s)" % (" + ".join(parts) or "0")


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


class Connection:
    """Christoffel table on the chart.

    ``gamma`` maps (i, j, k) (0-based) to the coefficient polynomial of
    the k-th coordinate derivation in the covariant derivative of the
    j-th along the i-th; missing entries are zero.
    """

    __slots__ = ("chart", "gamma", "torsion_free")

    def __init__(self, chart: Chart,
                 gamma: Dict[Tuple[int, int, int], GradedPoly] = None,
                 torsion_free: bool = True):
        self.chart = chart
        table: Dict[Tuple[int, int, int], GradedPoly] = {}
        for (i, j, k), poly in (gamma or {}).items():
            if not poly:
                continue
            if poly.chart != chart:
                raise ValueError("chart mismatch in Christoffel entry")
            if not poly.is_base_only():
                raise ValueError("Christoffel entries are base functions")
            want = (chart.coordinate_degree(k) - chart.coordinate_degree(i)
                    - chart.coordinate_degree(j))
            if poly.degree() != want:
                raise ValueError(
                    "Christoffel entry (%d,%d,%d) must be homogeneous of "
                    "degree %d" % (i + 1, j + 1, k + 1, want))
            table[(i, j, k)] = poly
        self.gamma = table
        self.torsion_free = bool(torsion_free)
        if self.torsion_free:
            self._check_symmetric()

    @classmethod
    def flat(cls, chart: Chart) -> "Connection":
        return cls(chart, {})

    def _check_symmetric(self):
        chart = self.chart
        zero = GradedPoly.zero(chart)
        for i in range(chart.n):
            for j in range(chart.n):
                sign = -1 if (chart.coordinate_parity(i)
                              and chart.coordinate_parity(j)) else 1
                for k in range(chart.n):
                    a = self.gamma.get((i, j, k), zero)
                    b = self.gamma.get((j, i, k), zero)
                    if a != b * sign:
                        raise ValueError(
                            "torsion_free flag set but Christoffel table is "
                            "not graded-symmetric at (%d,%d,%d)"
                            % (i + 1, j + 1, k + 1))

    def entry(self, i: int, j: int, k: int) -> GradedPoly:
        return self.gamma.get((i, j, k), GradedPoly.zero(self.chart))

    def christoffel_field(self, i: int, j: int) -> VectorField:
        """Covariant derivative of the j-th coordinate derivation along
        the i-th."""
        chart = self.chart
        return VectorField(chart, [self.entry(i, j, k)
                                   for k in range(chart.n)])

    def __eq__(self, other):
        if not isinstance(other, Connection):
            return NotImplemented
        return (self.chart == other.chart and self.gamma == other.gamma
                and self.torsion_free == other.torsion_free)

    def __repr__(self):
        return "Connection(%d entries, torsion_free=%s)" % (
            len(self.gamma), self.torsion_free)


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
                        gam = conn.entry(i, j, k)
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


def nabla_sym(conn: Connection, x: VectorField, tensor: SymTensor) -> SymTensor:
    """The connection extended as a derivation of the symmetric product.

    Replaces one factor at a time by its covariant derivative, with the
    Koszul sign of moving the direction past the earlier factors; on
    coefficients it acts as the plain derivation with the matching
    Leibniz sign.  Three signs are tracked per replacement: the Leibniz
    crossing over the coefficient, the direction crossing the leading
    letters, and the replacement field's own coefficient moving back out
    to the far left.
    """
    from .enveloping import sym_word_product, word_letters

    chart = same_chart(conn, x, tensor)
    out = SymTensor.zero(chart)
    for dx, xh in x.homogeneous_components().items():
        xpar = dx & 1
        for index, coeff in tensor.terms.items():
            dcoeff = xh.apply(coeff)
            if dcoeff:
                out = out + SymTensor(chart, {index: dcoeff})
            if not any(index):
                continue
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
                            repl = repl + conn.christoffel_field(i, slot).scale(xi)
                    if not repl:
                        continue
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
