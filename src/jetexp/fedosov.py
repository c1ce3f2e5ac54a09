"""The fiberwise homotopy operators, the induced dual connection, the
flat-structure recursion, and the two routes to the jet augmentation.

Sections here are plain GradedPoly values over the full generator set
(base, fiber, form); the (p, q) bidegree of a monomial is its form count
and fiber weight.  One-form-valued fiberwise vector fields ("vector
valued forms") are tuples of such polynomials, component k acting as the
coefficient of the fiberwise derivation by the k-th fiber generator.

Truncation semantics: all flat-structure identities are asserted in the
jet quotient by total filtration weight p + q.  Every operator used
(the lowering/raising pair, the projection/inclusion pair, the dual
covariant differential, and vector-valued-form actions) preserves that
filtration, so projecting after each step computes exactly in the
quotient; "exact up to truncation" means exact there.

Every such operator that is a derivation is a table of generator images
applied by GradedPoly.derive, so all of them share its left-derivative
sign rule:

  * lowering map:  y_i -> dx_i, i.e. delta(u) = sum_i dx_i . (d u / d y_i)
  * raising map:   dx_i -> y_i, then each output monomial divided by its
                   own p + q (the map keeps p + q), 0 on (0, 0)
  * dual covariant differential: x_i -> dx_i,
                   y_k -> sum_i dx_i . cov_i(y_k)
  * correction action: y_k -> k-th component
  * dual connection on fiber generators, fixed by the requirement that
    covariant differentiation commute with the duality pairing:
        cov_i(y_k) = - sum_l (-1)^(|x_l|(1+|x_k|)) Gamma^k_{il} . y_l
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .chart import Chart, mi_all_up_to, mi_factorial
from .enveloping import TruncationOverflowError
from .geometry import Connection
from .pbw import PbwContext
from .perturbation import ContractionData, perturb_contraction
from .poly import GradedPoly, monomial_pq


# ---------------------------------------------------------------------------
# jet-quotient helpers

def project_weight(f: GradedPoly, max_weight: int) -> GradedPoly:
    """Jet-quotient projection: drop monomials with p + q > max_weight."""
    chart = f.chart
    return f.filter_terms(lambda m: sum(monomial_pq(chart, m)) <= max_weight)


def check_section_bounds(f: GradedPoly):
    """Validate a parsed section against the chart truncation box."""
    chart = f.chart
    q_cap, p_cap, b_cap = chart.truncation
    for m in f.terms:
        p, q = monomial_pq(chart, m)
        if p > p_cap:
            raise TruncationOverflowError("form degree %d exceeds P=%d"
                                          % (p, p_cap))
        if q > q_cap:
            raise TruncationOverflowError("fiber weight %d exceeds Q=%d"
                                          % (q, q_cap))
    if f.max_base_degree() > b_cap:
        raise TruncationOverflowError("base degree %d exceeds B=%d"
                                      % (f.max_base_degree(), b_cap))


# ---------------------------------------------------------------------------
# the lowering/raising pair and the augmentation

def delta_op(f: GradedPoly) -> GradedPoly:
    """Degree +1 map (p, q) -> (p+1, q-1); squares to zero."""
    chart = f.chart
    return f.derive({chart.y_slot(i): GradedPoly.generator(chart,
                                                           chart.dx_slot(i))
                     for i in range(chart.n)})


def delta_inv_op(f: GradedPoly) -> GradedPoly:
    """Degree -1 map (p, q) -> (p-1, q+1); zero on the (0, 0) part.

    The derivation dx_i -> y_i keeps p + q, so each output monomial is
    divided by its own p + q (never 0: every output term holds a y)."""
    chart = f.chart
    raised = f.derive({chart.dx_slot(i): GradedPoly.generator(chart,
                                                              chart.y_slot(i))
                       for i in range(chart.n)})
    return GradedPoly(chart, {m: c / sum(monomial_pq(chart, m))
                              for m, c in raised.terms.items()})


def sigma_aug(f: GradedPoly) -> GradedPoly:
    """Projection onto the (0, 0) part (a base function)."""
    chart = f.chart
    return f.filter_terms(lambda m: monomial_pq(chart, m) == (0, 0))


def iota_incl(f: GradedPoly) -> GradedPoly:
    """Inclusion of base functions as (0, 0) sections."""
    if not f.is_base_only():
        raise ValueError("inclusion argument must be a base function")
    return f


def base_contraction(chart: Chart, weight: int) -> ContractionData:
    """The lowering-map contraction of the section complex onto base
    functions, computed in the jet quotient.  The homotopy is minus the
    raising map, matching the package-wide id - tau.sigma normalization
    against the differential -delta."""
    def d_big(w):
        return project_weight(-delta_op(w), weight)

    return ContractionData(
        sigma=sigma_aug,
        tau=lambda f: project_weight(iota_incl(f), weight),
        h=lambda w: -project_weight(delta_inv_op(w), weight),
        d_big=d_big,
        d_small=lambda f: GradedPoly.zero(chart),
    )


# ---------------------------------------------------------------------------
# derivations of the section algebra

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
                gam = conn.entry(i, l, k)
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


def dnabla_images(conn: Connection) -> Dict[int, GradedPoly]:
    """Generator images of the dual covariant differential
    sum_i dx_i . cov_i: x_i -> dx_i, y_k -> sum_i dx_i . cov_i(y_k),
    form generators -> 0."""
    chart = conn.chart
    rows = dual_connection_images(conn)
    dx = [GradedPoly.generator(chart, chart.dx_slot(i))
          for i in range(chart.n)]
    images = {chart.x_slot(i): dx[i] for i in range(chart.n)}
    for y in map(chart.y_slot, range(chart.n)):
        images[y] = sum((dx[i] * row[y] for i, row in enumerate(rows)
                         if row[y]), GradedPoly.zero(chart))
    return images


def dnabla_form(conn: Connection, f: GradedPoly) -> GradedPoly:
    """Covariant differential of the induced dual connection:
    sum_i dx_i . cov_i(f), a degree +1 derivation over forms."""
    return f.derive(dnabla_images(conn))


def vvf_action(components: Sequence[GradedPoly], f: GradedPoly) -> GradedPoly:
    """Action of a vector-valued form (tuple of coefficient polynomials,
    one per fiber generator) as the derivation sum_k comp_k . d/dy_k."""
    if not components:
        raise ValueError("empty component tuple")
    chart = components[0].chart
    return f.derive({chart.y_slot(k): comp
                     for k, comp in enumerate(components)})


def vvf_records(components: Sequence[GradedPoly]):
    """Flatten a vector-valued form into records
    (direction i, fiber multi-index J, component k, base coefficient),
    sorted by (i, J, k); all indices 1-based in the output."""
    chart = components[0].chart
    n = chart.n
    records = {}
    for k, comp in enumerate(components):
        for m, c in comp.terms.items():
            form = m[2 * n:]
            if sum(form) != 1:
                raise ValueError("vector-valued form component is not a "
                                 "one-form")
            i = form.index(1)
            key = (i + 1, m[n:2 * n], k + 1)
            base_mono = m[:n] + (0,) * (2 * n)
            cur = records.get(key, GradedPoly.zero(chart))
            records[key] = cur + GradedPoly(chart, {base_mono: c})
    return [(i, j, k, poly) for (i, j, k), poly in sorted(records.items())]


# ---------------------------------------------------------------------------
# curvature action cross-check helpers

def dual_curvature_action(conn: Connection, f: GradedPoly) -> GradedPoly:
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


# ---------------------------------------------------------------------------
# the flat structure

class FlatStructureError(RuntimeError):
    """The weight recursion failed to stabilize (should never happen for a
    valid torsion-free connection)."""


class FedosovData:
    """Chart + connection + solved correction form + quotient weight.

    ``correction`` is the vector-valued one-form with fiber weight >= 2
    normalized to vanish under the raising map, making

        D = -delta + dnabla + correction-action

    square to zero in the jet quotient at ``weight``.  D and its
    weight-raising part D + delta are derivations, kept as the generator
    image tables ``flat_images`` and ``perturbation_images``.
    ``transfer`` is the perturbation of the lowering-map contraction by
    D + delta; its series give the augmentation and the homotopy, and
    raise SeriesDivergenceError if they fail to terminate.
    """

    def __init__(self, conn: Connection, weight: int = None):
        chart = conn.chart
        if not conn.torsion_free:
            raise ValueError("flat structure requires a torsion-free "
                             "connection")
        self.chart = chart
        self.conn = conn
        self.weight = (chart.truncation.max_sym_weight if weight is None
                       else int(weight))
        self.correction = _solve_correction(conn, self.weight)
        self.perturbation_images = dnabla_images(conn)
        self.flat_images = dict(self.perturbation_images)
        for k, comp in enumerate(self.correction):
            y = chart.y_slot(k)
            self.perturbation_images[y] += comp
            self.flat_images[y] = (self.perturbation_images[y]
                                   - GradedPoly.generator(chart,
                                                          chart.dx_slot(k)))
        self.transfer = perturb_contraction(
            base_contraction(chart, self.weight), self.perturbation,
            max_terms=self.weight + 2)

    # -- the flat operator and its homotopy data ---------------------------
    def d_apply(self, f: GradedPoly) -> GradedPoly:
        return project_weight(f.derive(self.flat_images), self.weight)

    def perturbation(self, f: GradedPoly) -> GradedPoly:
        """The weight-raising part: D + delta."""
        return project_weight(f.derive(self.perturbation_images),
                              self.weight)

    def tau_series(self, f: GradedPoly) -> GradedPoly:
        """Augmentation by the homotopy series: sum of
        (raise o perturbation)^n applied to the included function."""
        return self.transfer.contraction.tau(f)

    def homotopy_h(self, f: GradedPoly) -> GradedPoly:
        """Contraction homotopy against the flat operator, normalized so
        that id - tau.sigma = h.D + D.h; this is *minus* the geometric
        series of (raise o perturbation) ending in the raising map."""
        return self.transfer.contraction.h(f)


def _solve_correction(conn: Connection, weight: int) -> Tuple[GradedPoly, ...]:
    """Weight recursion for the unique raising-normalized correction.

    The square of the candidate flat operator is a fiberwise derivation
    vanishing on base and form generators, so flatness reduces to its
    vanishing on fiber generators; peeling the lowering map off that
    equation with the homotopy identity gives the fixed-point form

        a_k = raise( (dnabla)^2 y_k - delta(dnabla y_k)
                     + action(a, dnabla y_k) + dnabla a_k + action(a, a_k) )

    which gains at least one fiber weight per pass.
    """
    chart = conn.chart
    images = dnabla_images(conn)
    d_y = [images[chart.y_slot(k)] for k in range(chart.n)]
    seed = [dy.derive(images) - delta_op(dy) for dy in d_y]
    comps = tuple(GradedPoly.zero(chart) for _ in range(chart.n))
    for _ in range(weight + 2):
        new = []
        for k in range(chart.n):
            rhs = (seed[k]
                   + vvf_action(comps, d_y[k] + comps[k])
                   + comps[k].derive(images))
            new.append(project_weight(delta_inv_op(rhs), weight + 1))
        new = tuple(new)
        if new == comps:
            break
        comps = new
    else:
        raise FlatStructureError("correction recursion did not stabilize")
    for k, comp in enumerate(comps):
        if delta_inv_op(comp):
            raise FlatStructureError("correction is not raising-normalized")
        for m in comp.terms:
            if monomial_pq(chart, m)[1] < 2:
                raise FlatStructureError("correction has fiber weight < 2")
        if comp and comp.degree() != 1 + chart.coordinate_degree(k):
            raise FlatStructureError("correction component degree is off")
    return comps


# ---------------------------------------------------------------------------
# the augmentation through the exponential map

def tau_pbw(ctx: PbwContext, f: GradedPoly, weight: int = None) -> GradedPoly:
    """Augmentation as the exponential-twisted jet: sum over words I of
    y^I / I! times the word image applied to the function."""
    chart = ctx.chart
    if not f.is_base_only():
        raise ValueError("augmentation argument must be a base function")
    weight = chart.truncation.max_sym_weight if weight is None else int(weight)
    if weight > ctx.max_weight:
        raise TruncationOverflowError(
            "weight %d exceeds context cap %d" % (weight, ctx.max_weight))
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
