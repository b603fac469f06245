"""Slow reference completion: the test oracle for ``scattering.complete``.

The order-by-order algorithm, written without the production shortcuts: the
path-ordered product is accumulated left to right at full truncation order,
``(theta_1 o theta_2) o theta_3 ...``, and every round takes the full
logarithm of it (:func:`reference_log`), splits its lowest-degree part by
direction and cancels it with corrections on rays.  ``scattering`` instead
factors the lines' product over the sector ray by ray, so the two are
different algorithms that must give the same walls, in the same order, and
the same errors.  The oracle orders the wall logs itself and exponentiates
copies of them, so it never reads an automorphism the engine memoized, and
it merges a correction into an existing ray as the full logarithm of the
composed product (:func:`reference_merge`), never through the engine's
``merge_wall``.  A correction on the direction of an initial line or of an
initial ray is an error at its degree (a completion changes no initial
wall); corrections merge only into the rays the oracle itself produced.
"""

from fractions import Fraction

from wallcross.exceptions import ConventionError, SchemaError
from wallcross.lattice import WallKind, angular_sort, primitive_decompose, primitive_part
from wallcross.scattering import Diagram, Wall
from wallcross.series import SeriesElem
from wallcross.vertexlie import AutPair, LieElem, compose, exp

_ZERO = Fraction(0)


def reference_log(g: AutPair) -> LieElem:
    """log(g) from the unbounded Mercator series: up to N terms of g - 1.

    The series starts from g(z^e) - z^e and from g applied to the constant
    sections, and stops only when a term is zero or after N terms, where
    ``vertexlie.log`` stops after N // s terms for g - 1 of t-order s.
    """
    ctx = g.ctx
    N, r = ctx.order, ctx.rank
    terms: dict = {}  # (m, j) -> (matrix part, derivation vector), as lists

    def entry(key):
        return terms.setdefault(key, ([[_ZERO] * r for _ in range(r)], [_ZERO, _ZERO]))

    for axis, e in enumerate(((1, 0), (0, 1))):
        f = SeriesElem.monomial(ctx, e)
        acc, v, k = SeriesElem.zero(ctx), g.apply_ring(f) - f, 1
        while not v.is_zero() and k <= N:
            acc = acc + v.scale(Fraction((-1) ** (k + 1), k))
            v, k = g.apply_ring(v) - v, k + 1
        for (m1, m2, j), c in acc.fractions().items():
            entry(((m1 - e[0], m2 - e[1]), j))[1][axis] = c

    zero = SeriesElem.zero(ctx)
    for i in range(r):
        s0 = tuple(SeriesElem.one(ctx) if row == i else zero for row in range(r))
        acc, k = tuple(zero for _ in range(r)), 1
        v = tuple(a - b for a, b in zip(g.apply_section(s0), s0))
        while any(not f.is_zero() for f in v) and k <= N:
            acc = tuple(a + b.scale(Fraction((-1) ** (k + 1), k)) for a, b in zip(acc, v))
            v, k = tuple(a - b for a, b in zip(g.apply_section(v), v)), k + 1
        for row, f in enumerate(acc):
            for (m1, m2, j), c in f.fractions().items():
                entry(((m1, m2), j))[0][row][i] = c

    for (m, _j), (_a, d) in terms.items():
        if m[0] * d[0] + m[1] * d[1] != 0:
            raise ConventionError("recovered derivation not orthogonal to its frequency")
    return LieElem.from_terms(ctx, terms)


def crossing_logs(d: Diagram) -> list[LieElem]:
    """The ray logs counterclockwise from the positive x-axis; a line's -m ray carries -log."""
    rays = {w.direction: w.logf for w in d.walls}
    for w in d.walls:
        if w.kind is WallKind.LINE:
            rays[(-w.direction[0], -w.direction[1])] = -w.logf
    return [rays[p] for p in angular_sort(list(rays))]


def fresh_exp(x: LieElem) -> AutPair:
    """exp(x) computed anew: a copy of ``x`` carries no memoized automorphism."""
    return exp(LieElem(x.ctx, x.d1, x.d2, x.a))


def reference_merge(d: Diagram, w: Wall) -> Diagram:
    """Insert ``w``, merging it into a same-direction wall as log(exp(x) o exp(y)).

    Existing log first; a geometry conflict raises and a wall whose merged
    log vanishes is dropped, as in ``scattering.merge_wall``.
    """
    existing = d.wall_in_direction(w.direction)
    if existing is None:
        return d if w.logf.is_zero() else Diagram(d.ctx, d.walls + (w,))
    if existing.kind is not w.kind:
        raise ValueError(f"geometry conflict in direction {w.direction}")
    merged = reference_log(compose(fresh_exp(existing.logf), fresh_exp(w.logf)))
    walls = tuple(x for x in d.walls if x.direction != w.direction)
    if not merged.is_zero():
        walls = walls + (Wall(w.direction, w.kind, merged),)
    return Diagram(d.ctx, walls)


def reference_path_ordered_product(d: Diagram) -> AutPair:
    """theta_1 o ... o theta_s, composed left to right at full order."""
    total = AutPair.identity(d.ctx)
    for logf in crossing_logs(d):
        total = compose(total, fresh_exp(logf))
    return total


def loop_products(d: Diagram) -> list[AutPair]:
    """The path-ordered product for every loop start, composed left to right.

    Entry i starts the loop just before the i-th ray of :func:`crossing_logs`,
    so it is the product over that order rotated by i; entry 0 starts at the
    positive x-axis, like :func:`reference_path_ordered_product`.
    """
    autos = [fresh_exp(logf) for logf in crossing_logs(d)]
    products = []
    for i in range(max(1, len(autos))):
        total = AutPair.identity(d.ctx)
        for g in autos[i:] + autos[:i]:
            total = compose(total, g)
        products.append(total)
    return products


def reference_complete(d: Diagram) -> Diagram:
    """Order-by-order completion from the full log of the full-order product."""
    current = Diagram(d.ctx, tuple(w for w in d.walls if not w.logf.is_zero()))
    for wa in current.walls:
        for wb in current.walls:
            if wa is not wb and primitive_part(wa.direction) == tuple(
                -c for c in wb.direction
            ):
                raise SchemaError("parallel initial walls: merge or reorient them first")

    initial_rays = {w.direction for w in current.walls if w.kind is WallKind.RAY}
    for _round in range(d.ctx.order + 1):
        defect_log = reference_log(reference_path_ordered_product(current))
        if defect_log.is_zero():
            return current
        k0 = defect_log.t_order()
        defect = defect_log.degree_part(k0)
        by_direction: dict = {}
        for (m, j), (a, dv) in sorted(defect.terms.items()):
            _l, p = primitive_decompose(m)
            piece = LieElem.from_terms(current.ctx, {(m, j): (a, dv)})
            by_direction[p] = by_direction.get(p, LieElem.from_terms(current.ctx, {})) + piece
        for p in sorted(by_direction):
            existing = current.wall_in_direction(p)
            if existing is not None and existing.kind is WallKind.LINE:
                raise ConventionError(
                    f"defect at degree {k0} lies on the line direction {p}; "
                    "single-vertex completion supports corrections on rays only"
                )
            if p in initial_rays:
                raise ConventionError(
                    f"the correction at degree {k0} changes the initial ray {p}; "
                    "completion does not change initial walls"
                )
            current = reference_merge(current, Wall(p, WallKind.RAY, -by_direction[p]))
    raise ConventionError("completion did not converge within the truncation order")
