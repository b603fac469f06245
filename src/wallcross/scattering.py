"""Scattering diagrams: walls, path-ordered products, consistency, completion.

A diagram is a finite set of walls through the origin, each a line or a ray
with a primitive direction ``m`` and a log in the extended vertex Lie
algebra supported on frequencies ``k * m`` (k >= 1).  A loop around the
origin, counterclockwise from the positive x-axis, crosses the walls in
angular order; the path-ordered product composes their automorphisms in
crossing order, Theta = theta_1 o ... o theta_s with theta_1 crossed first
and acting last.  A line carries its automorphism on the ray ``+m`` and the
inverse on ``-m``; no two walls may cover the same ray.  The diagram is
consistent when Theta is the identity modulo t^(N+1); moving the loop's
start conjugates Theta, which changes neither that nor the lowest-degree
part of Theta - Id that the defect report reads.  Each wall computes its
automorphisms once, at full order (:attr:`Wall.automorphisms`).

When the wall directions lie in one open half-plane, the *sector order*
runs counterclockwise across it (:func:`~wallcross.lattice.half_plane_order`).
A loop started at the half-plane's edge crosses its walls in sector order
and then the lines' ``-m`` rays, so it composes H o G^-1, with H the
product of every wall's own automorphism in sector order and
G = theta_(a_n) o ... o theta_(a_1) the lines in reverse sector order.
The diagram is consistent exactly when H == G, and :func:`defect` tests
that, with no inverse, and reads the defect off H - G; a diagram with no
such half-plane takes the whole loop.

Completion is a factorization.  The wall directions lie in one open
half-plane, and G factors uniquely as an ordered product
exp(x_p1) o exp(x_p2) o ... over rays p1, p2, ... in sector order
(Kontsevich-Soibelman, arXiv:0811.2435, section 2.1; Gross-Pandharipande-
Siebert, arXiv:0902.0779, Theorem 1.4).  The factors are the completed
walls, so their H is G.  Initial rays never enter G; a completion changes
no initial wall.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .exceptions import ConventionError, SchemaError
from .lattice import (
    Vec,
    WallKind,
    angular_sort,
    det2,
    half_plane_order,
    in_open_half_plane,
    is_primitive,
    primitive_part,
)
from .series import TruncationContext
from .vertexlie import AutPair, LieElem, bch, compose, exp, exp_pair, log

# The single global orientation choice, validated by the two-line worked
# examples and printed by ``wallcross --convention-audit``.
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

    @property
    def rays(self) -> tuple[Vec, ...]:
        """The rays the wall covers: ``(m,)`` for a ray, ``(m, -m)`` for a line."""
        m = self.direction
        return (m,) if self.kind is WallKind.RAY else (m, (-m[0], -m[1]))

    @cached_property
    def automorphisms(self) -> tuple[tuple[Vec, AutPair], ...]:
        """Each of :attr:`rays` with the automorphism it carries.

        The ``+m`` ray carries ``exp(logf)``; a line's ``-m`` ray carries the
        inverse ``exp(-logf)``, and :func:`~wallcross.vertexlie.exp_pair` gets
        both from one series.  Computed once per wall, at full order.
        """
        if self.kind is WallKind.RAY:
            return ((self.direction, exp(self.logf)),)
        return tuple(zip(self.rays, exp_pair(self.logf)))


@dataclass(frozen=True)
class Diagram:
    """A scattering diagram: walls through the origin, at one truncation.

    No two walls as given may cover the same ray.  A wall whose log is zero
    carries the identity, which changes no product and no completion, so the
    diagram then drops it: :attr:`walls` holds only nonzero walls, in the
    order given.
    """

    ctx: TruncationContext
    walls: tuple[Wall, ...]

    def __post_init__(self):
        for w in self.walls:
            if w.logf.ctx != self.ctx:
                raise ValueError("wall log context does not match diagram context")
        rays = [p for w in self.walls for p in w.rays]
        if len(set(rays)) != len(rays):
            raise ValueError("two walls cover the same ray (a line covers both of its rays)")
        object.__setattr__(self, "walls", tuple(w for w in self.walls if not w.logf.is_zero()))

    def wall_in_direction(self, p: Vec) -> Wall | None:
        for w in self.walls:
            if w.direction == p:
                return w
        return None


def _product(ctx: TruncationContext, factors: list[AutPair]) -> AutPair:
    """g_1 o g_2 o ... o g_k, the identity for no factors.

    Composed from the last factor, which acts first, back to the first, so
    each sparse factor acts on the dense product of the ones after it.
    """
    if not factors:
        return AutPair.identity(ctx)
    total = factors[-1]
    for g in reversed(factors[:-1]):
        total = compose(g, total)
    return total


def path_ordered_product(d: Diagram) -> AutPair:
    """Compose the wall automorphisms around a counterclockwise loop; the first crossed acts last."""
    rays = dict(ray for w in d.walls for ray in w.automorphisms)
    return _product(d.ctx, [rays[p] for p in angular_sort(list(rays))])


def is_consistent(d: Diagram) -> bool:
    """Whether the path-ordered product is the identity: :func:`defect` finds none."""
    return defect(d) is None


def defect(d: Diagram) -> LieElem | None:
    """None for a consistent diagram, else the lowest-degree part of its defect.

    With the wall directions in one open half-plane, this builds H and G
    once (see the module docstring): the walls' own automorphisms in sector
    order against the lines in reverse sector order, each ``exp(w.logf)``,
    so no line's inverse is computed.  With no such half-plane, H is the
    whole loop and G the identity.  The diagram is consistent when H == G.
    Else H - G first differs from zero at some t-order k0, and there it is
    the degree-k0 part of H o G^-1 - Id, hence of the log of the loop from
    any start: the images' differences, shifted by -e_i, give the
    derivation and the gauges' difference the matrix part
    (:meth:`~wallcross.vertexlie.LieElem.from_operator`).  So the defect
    costs no log and no inverse, and a consistent diagram no subtraction.
    """
    order = half_plane_order([w.direction for w in d.walls])
    if order is None:
        h = path_ordered_product(d)
        if h.is_identity():
            return None
        g = AutPair.identity(d.ctx)
    else:
        walls = {w.direction: w for w in d.walls}
        h = _product(d.ctx, [exp(walls[p].logf) for p in order])
        g = _product(d.ctx, [exp(walls[p].logf) for p in reversed(order)
                             if walls[p].kind is WallKind.LINE])
        if h == g:
            return None
    x = LieElem.from_operator(
        d.ctx, tuple(a - b for a, b in zip(h.tails, g.tails)), h.nil + -g.nil)
    return x.degree_part(x.t_order())


def merge_wall(d: Diagram, w: Wall) -> Diagram:
    """Insert a wall, merging it into an existing same-direction wall.

    :func:`~wallcross.groupoid.build_initial_diagram` puts the factors on
    one line together this way.  Logs on one ray commute exactly when their
    matrix parts do (the derivations kill every function of z^p): then the
    merged log is their sum, else ``bch(existing.logf, w.logf)``.  The
    inserted or merged wall goes last; the diagram drops it if its log is zero.
    """
    existing = d.wall_in_direction(w.direction)
    if existing is not None:
        if existing.kind is not w.kind:
            raise ValueError(f"geometry conflict in direction {w.direction}: "
                             f"{existing.kind.value} vs {w.kind.value}")
        x, y = existing.logf, w.logf
        w = Wall(w.direction, w.kind, x + y if x.a * y.a == y.a * x.a else bch(x, y))
    return replace(d, walls=tuple(v for v in d.walls if v.direction != w.direction) + (w,))


def require_half_plane(d: Diagram) -> None:
    """Raise :class:`SchemaError` unless the walls' directions lie in an open half-plane.

    Otherwise a defect term can sit at frequency zero, outside the Lie
    algebra.
    """
    if not in_open_half_plane([w.direction for w in d.walls]):
        raise SchemaError(
            "parallel initial walls, or walls on every side of the origin: wall "
            "directions must lie in one open half-plane; merge or reorient them first"
        )


def _first_direction(g: AutPair) -> Vec | None:
    """The first ray of ``g``: the most clockwise direction of its nonzero relative frequencies.

    Every one lies in the cone of the lines, an open half-plane, where
    ``det2(m, p) > 0`` says that ``m`` comes before ``p``.  None when ``g``
    has no nonzero relative frequency, as for the identity.
    """
    p = None
    for m in g.relative_frequencies():
        if m != (0, 0) and (p is None or det2(m, p) > 0):
            p = m
    return None if p is None else primitive_part(p)


def complete(d: Diagram) -> Diagram:
    """The minimal consistent completion: the factors of G (see the module docstring).

    They are peeled from the sector's first edge, one step per ray.  The
    elements supported strictly after the first ray p of G form a normal
    subgroup, so G reduced to the ray through p
    (:meth:`~wallcross.vertexlie.AutPair.on_ray`) is exp(x_p).  x_p is the
    log of the line on p when that element is the line's automorphism, else
    its ``log``.  The peel stops when G lies on the one ray p, which is then the last line's;
    else G becomes exp(-x_p) o G, with the inverse that ``log`` or the line
    keeps, so no exponential is computed.

    Exit 3 (:class:`ConventionError`) when a step does not advance: G has
    no ray, or its first ray is not strictly counterclockwise of the last
    step's (the factor peeled there was wrong).  The rays of G lie in
    finitely many directions of the lines' cone, so the peel ends either
    way.  Exit 3 also, lowest (k, p) first, as a completion
    changes no initial wall: an initial wall on direction p whose
    factor differs from its log at t-order k (a direction the peel never
    reaches has the identity as its factor).  Output: the initial
    walls in input order, then the rest by (log's t-degree, direction).
    """
    require_half_plane(d)
    lines = {w.direction: w for w in d.walls if w.kind is WallKind.LINE}
    factors: dict[Vec, LieElem] = {}
    order = half_plane_order(list(lines))
    g = _product(d.ctx, [lines[p].automorphisms[0][1] for p in reversed(order)])
    last = None
    while lines:
        p = _first_direction(g)
        if p is None or last is not None and det2(last, p) <= 0:
            raise ConventionError(f"the peel does not advance past the ray {last}: "
                                  "the factor peeled there does not cancel G on it")
        on_p, line = g.on_ray(p), lines.get(p)
        on_line = line is not None and on_p == line.automorphisms[0][1]
        factors[p] = x = line.logf if on_line else log(on_p)
        if on_p == g:
            break
        g, last = compose(exp(-x), g), p
    errors = []
    for w in d.walls:
        p, x, y = w.direction, w.logf, factors.get(w.direction)
        if y is x or (k := (x if y is None else y - x).t_order()) is None:
            continue
        if w.kind is WallKind.LINE:
            errors.append((k, p, f"defect at degree {k} lies on the line direction {p}; "
                           "single-vertex completion supports corrections on rays only"))
        else:
            errors.append((k, p, f"the correction at degree {k} changes the initial ray {p}; "
                           "completion does not change initial walls"))
    if errors:
        raise ConventionError(min(errors)[2])
    done = {w.direction for w in d.walls}
    produced = sorted((Wall(p, WallKind.RAY, x) for p, x in factors.items() if p not in done),
                      key=lambda w: (w.logf.t_degree(), w.direction))
    return replace(d, walls=d.walls + tuple(produced))


def new_rays(initial: Diagram, completed: Diagram) -> list[Wall]:
    """Walls of ``completed`` on no direction of an initial wall."""
    seen = {w.direction for w in initial.walls}
    return [w for w in completed.walls if w.direction not in seen]
