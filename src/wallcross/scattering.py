"""Scattering diagrams: walls, path-ordered products, consistency, completion.

A diagram is a finite set of walls through the origin, each a line or a ray
with a primitive direction ``m`` and a log in the extended vertex Lie
algebra supported on frequencies ``k * m`` (k >= 1).  A closed loop around
the origin crosses the walls in angular order; the path-ordered product
composes the wall automorphisms in crossing order, the first wall crossed
acting last:

    Theta = theta_1 o theta_2 o ... o theta_s     (theta_1 crossed first)

with loops oriented counterclockwise from ``base_direction``.  A line
contributes its automorphism on the ray in direction ``+m`` and the inverse
automorphism on ``-m``.  The diagram is consistent when Theta is the
identity modulo t^(N+1).  The product is accumulated right to left,
``theta_i o (theta_(i+1) o ... o theta_s)``, so each sparse wall
automorphism acts on the dense partial product.

``complete`` performs the order-by-order insertion of correction rays in
truncated rounds k = 1..N.  Before round k the product is the identity
modulo t^k; round k computes it modulo t^(k+1) only, from the wall logs
truncated there, and reads the degree-k defect linearly off Theta - Id
(:func:`~wallcross.vertexlie.leading_log`).  The defect is split by
primitive direction and cancelled by new rays (or merged into existing rays
via BCH).  Corrections at one degree commute modulo the next, so the
insertion order within a degree is immaterial and the completion is the
unique minimal consistent enlargement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .exceptions import ConventionError, SchemaError
from .lattice import (
    Vec,
    WallKind,
    angular_sort,
    is_primitive,
    primitive_decompose,
    primitive_part,
)
from .series import TruncationContext
from .vertexlie import AutPair, LieElem, bch, compose, exp, leading_log

# Not called here any more; kept as a module attribute because the
# benchmark's layer trace (perfbench/layertrace.py) wraps ``scattering.log``.
from .vertexlie import log  # noqa: F401

# The single global orientation choice, fixed at build time and validated by
# the two-line worked examples: loops run counterclockwise from the base
# direction and the first wall crossed is the outermost (last-acting) factor
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
        for (m, _j), (_a, d) in self.logf.terms.items():
            l, p = primitive_decompose(m)
            if p != self.direction:
                raise ValueError(
                    f"wall log frequency {m} is not a positive multiple of {self.direction}"
                )
            if m[0] * d[0] + m[1] * d[1] != 0:
                raise ValueError(
                    f"wall derivation at {m} is not a multiple of the primitive normal"
                )


@dataclass(frozen=True)
class Diagram:
    """A scattering diagram with a distinguished loop start direction."""

    ctx: TruncationContext
    walls: tuple[Wall, ...]
    base_direction: Vec | None = None

    def __post_init__(self):
        dirs = [w.direction for w in self.walls]
        if len(set(dirs)) != len(dirs):
            raise ValueError("walls must have pairwise distinct directions")
        for w in self.walls:
            if w.logf.ctx != self.ctx:
                raise ValueError("wall log context does not match diagram context")
        if self.base_direction is not None and not is_primitive(self.base_direction):
            raise ValueError("base direction must be primitive")

    def wall_in_direction(self, p: Vec) -> Wall | None:
        for w in self.walls:
            if w.direction == p:
                return w
        return None

    def occupied_ray_directions(self) -> list[Vec]:
        out = []
        for w in self.walls:
            out.append(w.direction)
            if w.kind is WallKind.LINE:
                out.append((-w.direction[0], -w.direction[1]))
        return out

    def resolved_base(self) -> Vec:
        """The loop start: the stated base, or a deterministic default.

        Default: the primitive direction of minus the sum of wall directions
        when that avoids every occupied ray; otherwise the first small
        primitive direction that does.
        """
        occupied = set(self.occupied_ray_directions())
        if self.base_direction is not None:
            if self.base_direction in occupied:
                raise ValueError("base direction lies on a wall")
            return self.base_direction
        s = (-sum(w.direction[0] for w in self.walls), -sum(w.direction[1] for w in self.walls))
        candidates = []
        if s != (0, 0):
            candidates.append(primitive_part(s))
        bound = 1
        while len(candidates) < 64:
            for a in range(-bound, bound + 1):
                for b in range(-bound, bound + 1):
                    if (a, b) != (0, 0) and is_primitive((a, b)):
                        candidates.append((a, b))
            bound += 1
        for c in candidates:
            if c not in occupied:
                return c
        raise AssertionError("unreachable: no valid base direction found")


def _crossing_order(d: Diagram) -> list[tuple[Vec, LieElem]]:
    """Expand lines into opposite rays and sort by crossing order (CCW)."""
    rays: dict[Vec, LieElem] = {}
    for w in d.walls:
        if w.direction in rays:
            raise ValueError("merge walls first: coincident ray directions")
        rays[w.direction] = w.logf
        if w.kind is WallKind.LINE:
            neg = (-w.direction[0], -w.direction[1])
            if neg in rays:
                raise ValueError("merge walls first: coincident ray directions")
            rays[neg] = -w.logf
    base = d.resolved_base()
    order = angular_sort(list(rays), base)
    return [(p, rays[p]) for p in order]


def path_ordered_product(d: Diagram) -> AutPair:
    """Compose the wall automorphisms around a counterclockwise loop.

    The first wall crossed is the outermost factor (it acts last); this is
    the orientation under which the two-line examples reproduce their known
    completions.  The walls are composed from the last crossed back to the
    first, each acting on the product of the ones after it.
    """
    total = AutPair.identity(d.ctx)
    for _p, logf in reversed(_crossing_order(d)):
        total = compose(exp(logf), total)
    return total


def is_consistent(d: Diagram) -> bool:
    return path_ordered_product(d).is_identity()


def merge_wall(d: Diagram, w: Wall) -> Diagram:
    """Insert a wall, BCH-merging into an existing same-direction wall.

    Merge order is existing first: the merged log is
    ``bch(existing.logf, w.logf)``.  A wall whose merged log vanishes is
    dropped (minimality).
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
    merged = bch(existing.logf, w.logf)
    walls = tuple(x for x in d.walls if x.direction != w.direction)
    if not merged.is_zero():
        walls = walls + (Wall(w.direction, w.kind, merged),)
    return replace(d, walls=walls)


def complete(d: Diagram) -> Diagram:
    """The minimal consistent completion (order-by-order ray insertion).

    Round k (k = 1..N) truncates every wall log to order k, takes the
    path-ordered product modulo t^(k+1), and reads its degree-k defect as
    the degree-k part of Theta - Id; the previous rounds made Theta the
    identity modulo t^k, which the read-off checks.  New walls are rays in
    direction ``+a`` for each primitive ``a`` carrying part of the defect.
    Initial lines are never corrected: a defect landing on a ray of a line
    would need a one-sided factor and raises instead (this cannot happen
    for two non-parallel initial lines).
    """
    for wa in d.walls:
        for wb in d.walls:
            if wa is not wb and primitive_part(wa.direction) == tuple(
                -c for c in wb.direction
            ):
                raise SchemaError("parallel initial walls: merge or reorient them first")

    current = replace(d, walls=tuple(w for w in d.walls if not w.logf.is_zero()))
    line_rays = {
        p for w in current.walls if w.kind is WallKind.LINE
        for p in (w.direction, (-w.direction[0], -w.direction[1]))
    }
    for k in range(1, d.ctx.order + 1):
        truncated = Diagram(
            TruncationContext(k, d.ctx.rank),
            tuple(Wall(w.direction, w.kind, w.logf.truncate(k)) for w in current.walls),
            current.base_direction,
        )
        defect = leading_log(path_ordered_product(truncated), k)
        by_direction: dict[Vec, LieElem] = {}
        for key, value in sorted(defect.terms.items()):
            _l, p = primitive_decompose(key[0])
            piece = LieElem(current.ctx, {key: value})
            by_direction[p] = by_direction.get(p, LieElem.zero(current.ctx)) + piece
        for p in sorted(by_direction):
            if p in line_rays:
                raise ConventionError(
                    f"defect at degree {k} lies on the line direction {p}; "
                    "single-vertex completion supports corrections on rays only"
                )
            current = merge_wall(current, Wall(p, WallKind.RAY, -by_direction[p]))
    return current


def new_rays(initial: Diagram, completed: Diagram) -> list[Wall]:
    """Walls of ``completed`` that are not walls of the initial diagram."""
    seen = {w.direction for w in initial.walls}
    return [w for w in completed.walls if w.direction not in seen]
