"""Slow reference completion: the test oracle for ``scattering.complete``.

The generic algorithm, written without the production shortcuts: the
path-ordered product is accumulated left to right at full truncation order,
``(theta_1 o theta_2) o theta_3 ...``, and every round takes the full
``log`` of it and corrects its lowest-degree part.  ``scattering`` instead
accumulates right to left, truncates round k to t^(k+1) and reads the
defect linearly; both must give the same walls.
"""

from wallcross.exceptions import ConventionError, SchemaError
from wallcross.lattice import WallKind, primitive_decompose, primitive_part
from wallcross.scattering import Diagram, Wall, _crossing_order, merge_wall
from wallcross.vertexlie import AutPair, LieElem, compose, exp, log


def reference_path_ordered_product(d: Diagram) -> AutPair:
    """theta_1 o ... o theta_s, composed left to right at full order."""
    total = AutPair.identity(d.ctx)
    for _p, logf in _crossing_order(d):
        total = compose(total, exp(logf))
    return total


def reference_complete(d: Diagram) -> Diagram:
    """Order-by-order completion from the full log of the full-order product."""
    for wa in d.walls:
        for wb in d.walls:
            if wa is not wb and primitive_part(wa.direction) == tuple(
                -c for c in wb.direction
            ):
                raise SchemaError("parallel initial walls: merge or reorient them first")

    current = Diagram(d.ctx, tuple(w for w in d.walls if not w.logf.is_zero()), d.base_direction)
    for _round in range(d.ctx.order + 1):
        defect_log = log(reference_path_ordered_product(current))
        if defect_log.is_zero():
            return current
        k0 = defect_log.t_order()
        defect = defect_log.degree_part(k0)
        by_direction: dict = {}
        for (m, j), (a, dv) in sorted(defect.terms.items()):
            _l, p = primitive_decompose(m)
            piece = LieElem(current.ctx, {(m, j): (a, dv)})
            by_direction[p] = by_direction.get(p, LieElem.zero(current.ctx)) + piece
        for p in sorted(by_direction):
            existing = current.wall_in_direction(p)
            if existing is not None and existing.kind is WallKind.LINE:
                raise ConventionError(
                    f"defect at degree {k0} lies on the line direction {p}; "
                    "single-vertex completion supports corrections on rays only"
                )
            current = merge_wall(current, Wall(p, WallKind.RAY, -by_direction[p]))
    raise ConventionError("completion did not converge within the truncation order")
