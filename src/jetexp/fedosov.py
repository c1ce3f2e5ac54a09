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
filtration, and weights add under products, so cutting each product off
at the quotient weight (GradedPoly.derive with ``max_weight``) computes
exactly in the quotient without forming the terms it drops; "exact up to
truncation" means exact there.  So the flat operator at weight w never
reads the correction's layer of weight w + 1: ``FedosovData`` solves the
layers of weight <= w, and forms that printed top layer a only when
``correction`` is read, from the solve's own layer tables, guarded by
delta(a) = R for its right-hand side R.  The solve returns what it
formed, and ``FedosovData`` keeps it as the one record of the solve:
its layer tables, the table of dnabla + correction action (each y_k
image one sum over the layers), D's own table, and its confirming pass,
which is D applied twice to each fiber generator by that table
(``FedosovData.fiber_squares``, printed as D2_RESIDUAL).

Every such operator that is a derivation takes its left derivatives,
sign included, from the one rule GradedPoly._partial_terms.  The
lowering and raising maps send generators to generators and keep p + q,
so each is one slot exchange (GradedPoly.exchange) with an optional
weight cap; the others are
tables of generator images applied by GradedPoly.derive, or summed as
derivation entries of ``poly.combine`` where several meet in one sum
(each component of each layer of the correction solve is one such sum):

  * lowering map:  y_i -> dx_i, i.e. delta(u) = sum_i dx_i . (d u / d y_i)
  * raising map:   dx_i -> y_i, each output monomial divided by its own
                   p + q in the same pass, 0 on (0, 0)
  * dual covariant differential: x_i -> dx_i,
                   y_k -> sum_i dx_i . cov_i(y_k)
  * correction action: y_k -> k-th component
  * dual connection on fiber generators, fixed by the requirement that
    covariant differentiation commute with the duality pairing:
        cov_i(y_k) = - sum_l (-1)^(|x_l|(1+|x_k|)) Gamma^k_{il} . y_l
    (built into the dnabla table directly, one ``combine`` per fiber
    generator over the nonzero Christoffel rows)
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .chart import FIELD_MASK, Chart, mi_all_up_to, mi_factorial
from .enveloping import TruncationOverflowError, word_key
from .geometry import Connection, replacement_terms
from .pbw import PbwContext, recursion_steps
from .perturbation import ContractionData, perturb_contraction
from .poly import GradedPoly, combine


# ---------------------------------------------------------------------------
# jet-quotient helpers

def project_weight(f: GradedPoly, max_weight: int) -> GradedPoly:
    """Jet-quotient projection: drop monomials with p + q > max_weight."""
    return f.up_to_weight(max_weight)


# ---------------------------------------------------------------------------
# the lowering/raising pair and the augmentation

def delta_op(f: GradedPoly, max_weight: int = None) -> GradedPoly:
    """Degree +1 map (p, q) -> (p+1, q-1); squares to zero.  It keeps
    p + q, so ``max_weight`` projects input and output alike."""
    chart = f.chart
    return f.exchange([(chart.y_slot(i), chart.dx_slot(i))
                       for i in range(chart.n)], max_weight)


def delta_inv_op(f: GradedPoly, max_weight: int = None) -> GradedPoly:
    """Degree -1 map (p, q) -> (p-1, q+1); zero on the (0, 0) part.

    The derivation dx_i -> y_i keeps p + q, so each output monomial is
    divided by its own p + q (never 0: every output term holds a y),
    and with ``max_weight`` the result is its projection to that
    weight."""
    chart = f.chart
    return f.exchange([(chart.dx_slot(i), chart.y_slot(i))
                       for i in range(chart.n)], max_weight, by_weight=True)


def sigma_aug(f: GradedPoly) -> GradedPoly:
    """Projection onto the (0, 0) part (a base function): the weight-0
    part."""
    return f.up_to_weight(0)


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
    return ContractionData(
        sigma=sigma_aug,
        tau=lambda f: project_weight(iota_incl(f), weight),
        h=lambda w: -delta_inv_op(w, weight),
        d_big=lambda w: -delta_op(w, weight),
        d_small=lambda f: GradedPoly.zero(chart),
    )


# ---------------------------------------------------------------------------
# derivations of the section algebra

def dnabla_images(conn: Connection) -> Dict[int, GradedPoly]:
    """Generator images of the dual covariant differential
    sum_i dx_i . cov_i: x_i -> dx_i, y_k -> sum_i dx_i . cov_i(y_k),
    form generators -> 0, with the dual connection on fiber generators

        cov_i(y_k) = - sum_l (-1)^(|x_l|(1+|x_k|)) Gamma^k_{il} . y_l.

    Each y_k image is one ``combine`` over the nonzero rows (i, l) of
    ``conn.rows``: the term dx_i Gamma^k_{il} y_l is Gamma^k_{il} times
    the monomial y_l dx_i, moving dx_i past Gamma y_l at the sign
    (-1)^(|x_k|(1+|x_i|))."""
    chart = conn.chart
    n = chart.n
    par = [chart.coordinate_parity(s) for s in range(n)]
    entries: List[list] = [[] for _ in range(n)]
    for (i, l), row in conn.rows.items():
        y_dx = GradedPoly._of(chart, {chart.unit[chart.y_slot(l)]
                                      + chart.unit[chart.dx_slot(i)]: 1})
        for k, gam in row:
            odd = (par[l] * (1 + par[k]) + par[k] * (1 + par[i])) & 1
            entries[k].append((1 if odd else -1, gam, y_dx))
    images = {chart.x_slot(i): GradedPoly.generator(chart, chart.dx_slot(i))
              for i in range(n)}
    for k in range(n):
        images[chart.y_slot(k)] = combine(chart, entries[k])
    return images


def dnabla_form(conn: Connection, f: GradedPoly) -> GradedPoly:
    """Covariant differential of the induced dual connection:
    sum_i dx_i . cov_i(f), a degree +1 derivation over forms."""
    return f.derive(dnabla_images(conn))


def vvf_action(components: Sequence[GradedPoly], f: GradedPoly
               ) -> GradedPoly:
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
    sorted by (i, J, k); all indices 1-based in the output.  Each is read
    off the packed key's fields without unpacking it: the direction is
    one lookup of the form field (a key whose form field is not a single
    dx_i raises ValueError), J is built once per distinct fiber field,
    and the base part is the key's base fields.  Within a record the
    base monomials are distinct, so its numerators are read off the
    component over the component's denominator."""
    chart = components[0].chart
    n = chart.n
    mask, shifts = chart.base_mask, chart.shifts
    fiber_shift, form_shift = shifts[n], shifts[2 * n]
    directions = {chart.unit[i]: i + 1 for i in range(n)}  # dx_i -> i
    fibers: Dict[int, Tuple[int, ...]] = {}  # fiber field -> J
    records = {}
    for k, comp in enumerate(components, 1):
        for key, v in comp.nums.items():
            i = directions.get(key >> form_shift & mask)
            if i is None:
                raise ValueError("vector-valued form component is not a "
                                 "one-form")
            part = key >> fiber_shift & mask
            fiber = fibers.get(part)
            if fiber is None:
                fiber = fibers[part] = tuple([part >> sh & FIELD_MASK
                                              for sh in shifts[:n]])
            records.setdefault((i, fiber, k), {})[key & mask] = v
    return [(i, j, k, GradedPoly._of(chart, nums, components[k - 1].den))
            for (i, j, k), nums in sorted(records.items())]


# ---------------------------------------------------------------------------
# the flat structure

class FlatStructureError(RuntimeError):
    """The correction solve failed: the connection has torsion
    (delta(dnabla y_k) != 0, checked before any layer), the confirming
    pass found raise(D^2 y_k) != 0 up to the quotient weight, the
    printed top layer a of weight + 1 does not solve delta(a) = R for its
    right-hand side R, or the result is not raising-normalized, of fiber
    weight >= 2 and of the right degree.  For a torsion-free connection
    only a fault of the solve raises it."""


class FedosovData:
    """Chart + connection + solved correction form + quotient weight.

    ``correction`` is the vector-valued one-form with fiber weight >= 2
    normalized to vanish under the raising map, making

        D = -delta + dnabla + correction-action

    square to zero in the jet quotient at ``weight``.  D caps every
    product at ``weight``, and a layer of weight + 1 times anything lies
    above it, so D never reads the correction's top layer: the
    constructor solves the layers of weight <= ``weight`` and their
    confirming pass at that cap (``_solve_correction`` at ``weight``),
    and ``correction``, the form through the printed top layer
    weight + 1, is formed on its first read from the solve's own layer
    tables, the one record of the solve: the top layer is added to
    them, and each component is one ``combine`` over the layers.  Each
    derivation involved is a generator image table: the dnabla table
    (``dnabla_images``) and the correction's layers, as action tables,
    enter the correction solve as derivation entries of ``combine``;
    the weight-raising part D + delta
    (``perturbation_images``: dnabla plus the correction action) drives
    the series, and D itself (``flat_images``) is that table with dx_k
    subtracted from the image of each y_k, each applied by one
    ``GradedPoly.derive``.  The solve builds both tables, and its
    confirming pass derives by D's: ``fiber_squares`` is that pass,
    D^2 on the fiber generators, kept as the solve returned it.  The
    layer tables are kept only until the top layer is formed.
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
        if self.weight < 0:
            raise ValueError("flat structure weight must be at least 0, "
                             "got %d" % self.weight)
        (self._layers, self.perturbation_images, self.flat_images,
         self._squares) = _solve_correction(conn, self.weight,
                                            dnabla_images(conn))
        self._correction = None
        self.transfer = perturb_contraction(
            base_contraction(chart, self.weight), self.perturbation,
            max_terms=self.weight + 2)

    @property
    def correction(self) -> Tuple[GradedPoly, ...]:
        """The correction through its top layer, weight + 1: the solved
        layers plus one more turn of the layer rule, formed on the first
        read and kept."""
        if self._correction is None:
            self._correction = _with_top_layer(self.chart, self.weight,
                                               self._layers)
            self._layers = None
        return self._correction

    def fiber_squares(self) -> Tuple[GradedPoly, ...]:
        """D^2(y_k) for each fiber generator, in the jet quotient at the
        weight: the solve's confirming pass, D(y_k) = b_k - dx_k derived
        by D's own table ``flat_images`` with products cut off at the
        weight, which is ``d_apply(d_apply(y_k))``.  On the base
        generators D^2(x_k) = D(dx_k) = 0, since no form slot has an
        image."""
        return self._squares

    # -- the flat operator and its homotopy data ---------------------------
    def d_apply(self, f: GradedPoly) -> GradedPoly:
        """The flat operator D, with products cut off at the weight."""
        return f.derive(self.flat_images, self.weight)

    def perturbation(self, f: GradedPoly) -> GradedPoly:
        """The weight-raising part: D + delta."""
        return f.derive(self.perturbation_images, self.weight)

    def tau_series(self, f: GradedPoly) -> GradedPoly:
        """Augmentation by the homotopy series: sum of
        (raise o perturbation)^n applied to the included function."""
        return self.transfer.contraction.tau(f)

    def homotopy_h(self, f: GradedPoly) -> GradedPoly:
        """Contraction homotopy against the flat operator, normalized so
        that id - tau.sigma = h.D + D.h; this is *minus* the geometric
        series of (raise o perturbation) ending in the raising map."""
        return self.transfer.contraction.h(f)


def _less_delta(chart: Chart, images: Dict[int, GradedPoly]
                ) -> Dict[int, GradedPoly]:
    """The table of a derivation less delta: dx_k subtracted from the
    image of each y_k, one ``combine`` each."""
    out = dict(images)
    for k in range(chart.n):
        y = chart.y_slot(k)
        dx = GradedPoly.generator(chart, chart.dx_slot(k))
        out[y] = combine(chart, [(1, images[y]), (-1, dx)])
    return out


def _solve_correction(conn: Connection, top: int,
                      images: Dict[int, GradedPoly]):
    """Weight recursion for the unique raising-normalized correction.

    The square of the candidate flat operator is a fiberwise derivation
    vanishing on base and form generators, so flatness reduces to its
    vanishing on fiber generators; peeling the lowering map off that
    equation with the homotopy identity gives, with b_k = dnabla y_k + a_k,
    the fixed-point form

        a_k = raise( -delta(dnabla y_k) + (dnabla + action(a)) b_k )

    in the quotient at ``top``, the layers 3 ... top of a.
    (``FedosovData`` calls it at its own weight, the layers its flat
    operator reads, and adds the layer above with ``_with_top_layer``.)
    A connection is torsion-free exactly
    when delta(dnabla y_k) = 0 for every k; that is checked once, first,
    and the term is dropped.  The dual differential raises p + q by one,
    the action of a weight-u layer on a weight-v one has weight
    u + v - 1, and the raising map keeps p + q.  So with the layers
    b_2 = dnabla y (the table ``images`` of dnabla, ``dnabla_images(conn)``,
    itself) and b_w = a_w for w >= 3, the layer of a at weight w >= 3 is
    the raising map of the right-hand side ``_layer_sum``,

        R_w[k] = dnabla b_{w-1}[k] + sum_{u+v=w+1, u>=3} action(a_u)(b_v[k]),

    whose products involve only layers below w.  A layer is kept as its
    action table {y_k: k-th component}, and the checks of
    ``_check_correction`` run on it as it is raised.

    One confirming pass then certifies the result.  dnabla + action(a)
    is the table of dnabla with each y_k sent to b_k, one ``combine``
    over the layer tables 2 ... top, and D's table (``_less_delta`` of
    it) sends y_k to b_k - dx_k.  D has no image on
    form slots, so D^2(y_k) = D(b_k) = P(b_k) - delta(b_k), with P the
    derivation dnabla + action(a); each is one ``derive`` of D(y_k) by
    D's table with products cut off at ``top``.  The pass requires
    raise(D^2 y_k), projected at ``top``, to vanish.  That is the
    fixed-point check raise(P(b_k)) = a_k: delta(dnabla y_k) = 0
    (checked first) and raise(a_k) = 0 (a_k is the raising map's output,
    and ``_check_correction`` checks it) give raise(delta(b_k)) = a_k by
    the homotopy identity, so raise(P(b_k)) - a_k = raise(D^2 y_k).
    It returns (the layer tables by weight, the table of dnabla +
    action(a), D's table, D^2 on the fiber generators): the one record
    of the solve that ``FedosovData`` keeps.
    """
    chart = conn.chart
    ys = [chart.y_slot(k) for k in range(chart.n)]
    if any(delta_op(images[y]) for y in ys):
        raise FlatStructureError("connection has torsion: "
                                 "delta(dnabla y_k) != 0")
    b: Dict[int, Dict[int, GradedPoly]] = {2: images}  # w -> action table
    for w in range(3, top + 1):
        b[w] = {y: delta_inv_op(_layer_sum(chart, b, w, y)) for y in ys}
        _check_correction(chart, b[w].values())
    table = dict(images)  # dnabla + action(a): y_k -> b_k
    for y in ys:
        table[y] = combine(chart, [(1, layer[y]) for layer in b.values()])
    flat = _less_delta(chart, table)  # D: y_k -> b_k - dx_k
    squares = tuple(flat[y].derive(flat, top) for y in ys)
    if any(project_weight(delta_inv_op(q), top) for q in squares):
        raise FlatStructureError("correction recursion did not stabilize")
    return b, table, flat, squares


def _layer_sum(chart: Chart, b: Dict[int, Dict[int, GradedPoly]], w: int,
               y: int) -> GradedPoly:
    """The right-hand side R_w at the fiber slot ``y`` of the layer of
    weight w >= 3, from the action tables ``b`` of the layers below w
    (b[2] the dnabla table): one ``combine`` of the derivation entries
    dnabla b_{w-1}[y] and action(a_u)(b_v[y]), u + v = w + 1, u >= 3."""
    return combine(chart, [(1, b[w - 1][y], b[2])]
                   + [(1, b[w + 1 - u][y], b[u]) for u in range(3, w)])


def _with_top_layer(chart: Chart, weight: int,
                    layers: Dict[int, Dict[int, GradedPoly]]
                    ) -> Tuple[GradedPoly, ...]:
    """The correction through weight + 1 from the solve's layer tables
    ``layers``, 2 ... weight: its layer of weight + 1 is one more turn
    of the layer rule, a = raise(R) with R = ``_layer_sum`` over those
    tables, added to them, and each component is one ``combine`` over
    the layers 3 ... weight + 1.  No product the
    flat operator forms reads this layer, so no confirming pass covers
    it; it must solve delta(a) = R instead.  By the homotopy identity
    that holds exactly when delta(R) = 0 and the raising map is right,
    so it also rejects a wrong raising map.  The checks of
    ``_check_correction`` then run on the new layer, as the solve ran
    them on each of its own."""
    top = weight + 1
    ys = [chart.y_slot(k) for k in range(chart.n)]
    if top >= 3:  # the first layer has weight 3
        layer = layers[top] = {}
        for y in ys:
            r = _layer_sum(chart, layers, top, y)
            a = layer[y] = delta_inv_op(r)
            if delta_op(a) != r:
                raise FlatStructureError("top layer does not solve "
                                         "delta(a) = R")
        _check_correction(chart, layer.values())
    return tuple(combine(chart, [(1, layers[w][y])
                                 for w in range(3, top + 1)]) for y in ys)


def _check_correction(chart: Chart, comps: Iterable[GradedPoly]) -> None:
    """The correction components ``comps``, in fiber order (a whole form
    or one layer of it), are raising-normalized, of fiber weight >= 2
    and of degree 1 + |x_k| in component k; fiber weight is read off the
    fiber fields of the packed keys."""
    # fiber weight < 2: the fiber fields hold nothing or one unit
    fibers = chart.base_mask << chart.shifts[chart.n]
    light = {0} | {1 << chart.shifts[chart.y_slot(k)]
                   for k in range(chart.n)}
    for k, comp in enumerate(comps):
        if delta_inv_op(comp):
            raise FlatStructureError("correction is not raising-normalized")
        if any(key & fibers in light for key in comp.nums):
            raise FlatStructureError("correction has fiber weight < 2")
        if comp and comp.degree() != 1 + chart.coordinate_degree(k):
            raise FlatStructureError("correction component degree is off")


# ---------------------------------------------------------------------------
# the augmentation through the exponential map

def tau_pbw(ctx: PbwContext, f: GradedPoly, weight: int = None) -> GradedPoly:
    """Augmentation as the exponential-twisted jet: the sum over words I
    of y^I / I! times v_I, the word image exp(d^I) applied to ``f``.

    The v_I come from the averaged recursion of the exponential map
    evaluated on values instead of operators: v_0 = f and

        v_I = 1/|I| * sum_{s : I_s > 0} eps_s * I_s *
              ( d_s v_{I - e_s} - sum_J c_J v_J ),

    with the steps (s, I - e_s, eps_s * I_s) of the word recursion
    (``pbw.recursion_steps``) and sum_J c_J d^J = cov(d_s, word of
    I - e_s), whose words have weight |I| - 1.  The map is left linear
    over base functions, so exp(c_J d^J)(f) = c_J v_J.  The v_I are
    filled iteratively in ascending weight, so every v_J is known when
    it is needed: no operator and no word table is built, and the depth
    of the computation does not grow with the weight.  Each v_I is one
    ``poly.combine`` of its partial entries and, per term (c, Gamma, J)
    of ``geometry.replacement_terms``, the product c * Gamma * v_J; the
    result is one ``combine`` of the products y^I / I! * v_I.
    """
    chart = ctx.chart
    if not f.is_base_only():
        raise ValueError("augmentation argument must be a base function")
    weight = chart.truncation.max_sym_weight if weight is None else int(weight)
    if weight > ctx.max_weight:
        raise TruncationOverflowError(
            "weight %d exceeds context cap %d" % (weight, ctx.max_weight))
    pars = [chart.coordinate_parity(s) for s in range(chart.n)]
    values: Dict[int, GradedPoly] = {}  # word key -> v_I
    out = []
    for index in mi_all_up_to(chart.n, weight):
        if any(e > 1 and pars[s] for s, e in enumerate(index)):
            continue
        word = word_key(chart, index)
        if not word:
            val = f
        else:
            entries = []
            for slot, rest, signed in recursion_steps(chart, word):
                entries.append((signed, values[rest], slot))
                for mult, gam, j in replacement_terms(ctx.conn, slot, rest):
                    entries.append((-signed * mult, gam, values[j]))
            val = combine(chart, entries, sum(index))
        values[word] = val
        if val:
            out.append((1, GradedPoly._of(chart, {word: 1},
                                          mi_factorial(index)), val))
    return combine(chart, out)
