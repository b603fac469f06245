"""Scattering diagrams: walls, path-ordered products, consistency, completion.

A diagram is a finite set of walls through the origin, each a line or a ray
with a primitive direction ``m`` and a log in the extended vertex Lie
algebra supported on frequencies ``k * m`` (k >= 1).  A closed loop around
the origin crosses the walls in angular order; the path-ordered product
composes the wall automorphisms in crossing order, the first wall crossed
acting last:

    Theta = theta_1 o theta_2 o ... o theta_s     (theta_1 crossed first)

with loops oriented counterclockwise from the positive x-axis.  A line
contributes its automorphism on the ray in direction ``+m`` and the inverse
automorphism on ``-m``; no two walls may cover the same ray.  The diagram is
consistent when Theta is the identity modulo t^(N+1).  Where the loop starts
does not matter for that: moving the start conjugates Theta by a factor that
is the identity modulo t, which leaves the lowest-degree part of Theta - Id
unchanged, and that part is all that completion and consistency read.  The
product is accumulated right to left,
``theta_i o (theta_(i+1) o ... o theta_s)``, so each sparse wall
automorphism acts on the dense partial product.

Each wall computes its automorphism once, at the diagram's full order, and
keeps it (:attr:`Wall.automorphisms`); a wall merged through
:func:`~wallcross.vertexlie.bch` takes the product that ``bch`` already
composed, and one merged by addition exponentiates its sum when first
used.  ``complete`` performs
the order-by-order insertion of correction rays in truncated rounds
k = 1..N.  Before round k the product is the identity modulo t^k; round k
computes it modulo t^(k+1) only, from the walls' automorphisms truncated
there, and takes its ``log``.  Truncation is a ring homomorphism that
commutes with the action, so this is exactly the product of the wall logs
truncated there.  With Theta - Id of t-order k at truncation k, the bounded
Mercator series of :func:`~wallcross.vertexlie.log` is one term, the
degree-k part of Theta - Id.  The defect is split by
primitive direction and cancelled by new rays, or merged into existing
rays (:func:`merge_wall`: by addition when the two logs commute, through
BCH otherwise).  Corrections at one degree commute modulo the next, so the
insertion order within a degree is immaterial and the completion is the
unique minimal consistent enlargement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .exceptions import ConventionError, SchemaError
from .lattice import (
    Vec,
    WallKind,
    angular_sort,
    in_open_half_plane,
    is_primitive,
    primitive_part,
)
from .series import TruncationContext
from .vertexlie import AutPair, LieElem, bch, compose, exp, log

# The single global orientation choice, fixed at build time and validated by
# the two-line worked examples: loops run counterclockwise from the positive
# x-axis and the first wall crossed is the outermost (last-acting) factor
# of the path-ordered product.  A line carries its automorphism on the +m ray
# and the inverse automorphism on -m; produced walls are rays in direction +a.
LOOP_ORIENTATION = "counterclockwise"
FIRST_CROSSED = "acts last"
LINE_EXPANSION = "+m ray carries theta, -m ray carries theta inverse"
PRODUCED_WALLS = "rays in direction +a"


@dataclass(frozen=True)
class Wall:
    """A wall: primitive direction, line/ray geometry, and its log."""

    direction: Vec
    kind: WallKind
    logf: LieElem

    def __post_init__(self):
        if not is_primitive(self.direction):
            raise ValueError(f"wall direction {self.direction} must be primitive")
        for m in self.logf.frequencies():
            if primitive_part(m) != self.direction:
                raise ValueError(
                    f"wall log frequency {m} is not a positive multiple of {self.direction}"
                )
        bad = self.logf.non_orthogonal()
        if bad:
            raise ValueError(
                f"wall derivation at {bad[0]} is not a multiple of the primitive normal"
            )

    @cached_property
    def automorphisms(self) -> tuple[tuple[Vec, AutPair], ...]:
        """The rays the wall covers, each with the automorphism it carries.

        The ``+m`` ray carries ``exp(logf)``; a line's ``-m`` ray carries the
        inverse ``exp(-logf)``.  Computed once per wall, at full order.
        """
        theta = ((self.direction, exp(self.logf)),)
        if self.kind is WallKind.RAY:
            return theta
        return theta + (((-self.direction[0], -self.direction[1]), exp(-self.logf)),)


@dataclass(frozen=True)
class Diagram:
    """A scattering diagram: walls through the origin, at one truncation."""

    ctx: TruncationContext
    walls: tuple[Wall, ...]

    def __post_init__(self):
        for w in self.walls:
            if w.logf.ctx != self.ctx:
                raise ValueError("wall log context does not match diagram context")
        rays = [w.direction for w in self.walls] + [
            (-w.direction[0], -w.direction[1]) for w in self.walls if w.kind is WallKind.LINE
        ]
        if len(set(rays)) != len(rays):
            raise ValueError("two walls cover the same ray (a line covers both of its rays)")

    def wall_in_direction(self, p: Vec) -> Wall | None:
        for w in self.walls:
            if w.direction == p:
                return w
        return None


def _crossing_order(d: Diagram) -> list[AutPair]:
    """The rays' automorphisms, sorted counterclockwise from the positive x-axis."""
    rays = dict(ray for w in d.walls for ray in w.automorphisms)
    return [rays[p] for p in angular_sort(list(rays))]


def path_ordered_product(d: Diagram, order: int | None = None) -> AutPair:
    """Compose the wall automorphisms around a counterclockwise loop.

    The first wall crossed is the outermost factor (it acts last); this is
    the orientation under which the two-line examples reproduce their known
    completions.  The walls are composed from the last crossed back to the
    first, each acting on the product of the ones after it.  The product is
    taken modulo t^(order + 1) (default: the diagram's truncation), from
    each wall's automorphism truncated there.
    """
    ctx = d.ctx if order in (None, d.ctx.order) else TruncationContext(order, d.ctx.rank)
    total = AutPair.identity(ctx)
    for theta in reversed(_crossing_order(d)):
        total = compose(theta.truncate(ctx), total)
    return total


def is_consistent(d: Diagram) -> bool:
    return path_ordered_product(d).is_identity()


def merge_wall(d: Diagram, w: Wall) -> Diagram:
    """Insert a wall, merging it into an existing same-direction wall.

    Merge order is existing first: the merged log is
    ``bch(existing.logf, w.logf)``.  Both logs live on one ray ``p``, so
    their derivations are multiples of the normal of ``p`` and kill every
    function of ``z^p``: their bracket is the commutator of the matrix
    parts alone.  When those commute in the truncated ring the BCH product
    is the sum, and the merged wall exponentiates it when first used;
    otherwise :func:`~wallcross.vertexlie.bch` composes the product.  A
    wall whose merged log vanishes is dropped (minimality).
    """
    existing = d.wall_in_direction(w.direction)
    if existing is None:
        if w.logf.is_zero():
            return d
        return replace(d, walls=d.walls + (w,))
    if existing.kind is not w.kind:
        raise ValueError(
            f"geometry conflict in direction {w.direction}: {existing.kind.value} vs {w.kind.value}"
        )
    x, y = existing.logf, w.logf
    merged = x + y if x.a * y.a == y.a * x.a else bch(x, y)
    walls = tuple(v for v in d.walls if v.direction != w.direction)
    if not merged.is_zero():
        walls = walls + (Wall(w.direction, w.kind, merged),)
    return replace(d, walls=walls)


def require_half_plane(d: Diagram) -> None:
    """Raise :class:`SchemaError` unless the wall directions lie in an open half-plane.

    Every frequency of the defect is then a positive combination of wall
    directions inside that half-plane, so none is zero.  Otherwise the
    defect can have a term at frequency zero, outside the Lie algebra, and
    neither completion nor the defect report applies.
    """
    if not in_open_half_plane([w.direction for w in d.walls]):
        raise SchemaError(
            "parallel initial walls, or walls on every side of the origin: wall "
            "directions must lie in one open half-plane; merge or reorient them first"
        )


def complete(d: Diagram) -> Diagram:
    """The minimal consistent completion (order-by-order ray insertion).

    Round k (k = 1..N) takes the path-ordered product modulo t^(k+1), from
    the walls' full-order automorphisms truncated there (each wall
    exponentiates its log once), and reads its degree-k defect as its
    ``log``.  The previous rounds made Theta the identity modulo t^k, so
    that ``log`` sums one Mercator term, the degree-k part of Theta - Id; a
    term of the defect below degree k raises :class:`ConventionError`.
    New walls are rays in
    direction ``+a`` for each primitive ``a`` carrying part of the defect.
    The wall directions lie in an open half-plane, so no defect reaches the
    ``-m`` ray of a line ``m``.  Initial lines are never corrected: a defect
    on a line's direction would need a one-sided factor and raises instead
    (this cannot happen for two non-parallel initial lines).  Initial rays
    may be corrected but never removed: a correction that cancels one
    raises too.
    """
    require_half_plane(d)
    current = replace(d, walls=tuple(w for w in d.walls if not w.logf.is_zero()))
    initial = {w.direction: w.kind for w in current.walls}
    for k in range(1, d.ctx.order + 1):
        defect = log(path_ordered_product(current, k))
        low = defect.t_order()
        if low is not None and low < k:
            raise ConventionError(
                f"not the identity modulo t^{k}: a term of degree {low} remains"
            )
        direction = {m: primitive_part(m) for m in defect.frequencies()}
        for p in sorted(set(direction.values())):
            if initial.get(p) is WallKind.LINE:
                raise ConventionError(
                    f"defect at degree {k} lies on the line direction {p}; "
                    "single-vertex completion supports corrections on rays only"
                )
            piece = defect.restrict(lambda key: direction[key[:2]] == p, current.ctx)
            current = merge_wall(current, Wall(p, WallKind.RAY, -piece))
            if p in initial and current.wall_in_direction(p) is None:
                raise ConventionError(
                    f"the correction at degree {k} cancels the initial ray {p}; "
                    "completion does not remove initial walls"
                )
    return current


def new_rays(initial: Diagram, completed: Diagram) -> list[Wall]:
    """Walls of ``completed`` that are not walls of the initial diagram."""
    seen = {w.direction for w in initial.walls}
    return [w for w in completed.walls if w.direction not in seen]
