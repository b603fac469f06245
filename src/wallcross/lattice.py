"""Rank-2 lattice geometry: primitive normals and exact angular order.

Lattice vectors and dual vectors are plain integer pairs ``(a, b)``.  The
module fixes the two orientation conventions everything downstream depends on:

* ``primitive_normal(m)`` is the 90-degree *counterclockwise* rotation of
  ``m``, reduced to a primitive vector.
* the Dirac pairing of two charges is the determinant ``det2(g, g2)``, which
  for primitive ``g`` equals ``<g2, primitive_normal(g)>``.

All angular comparisons are exact (integer cross/dot products); no floating
point enters any decision.
"""

from __future__ import annotations

import functools
from enum import Enum
from math import gcd

Vec = tuple[int, int]


class WallKind(str, Enum):
    LINE = "line"
    RAY = "ray"


def det2(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def content(m: Vec) -> int:
    return gcd(abs(m[0]), abs(m[1]))


def is_primitive(m: Vec) -> bool:
    return content(m) == 1


def primitive_decompose(m: Vec) -> tuple[int, Vec]:
    """Write ``m = l * p`` with ``l > 0`` and ``p`` primitive.

    The sign stays on the primitive part: ``(-3, 0) -> (3, (-1, 0))``.
    """
    if m == (0, 0):
        raise ValueError("zero vector has no primitive decomposition")
    l = content(m)
    return l, (m[0] // l, m[1] // l)


def primitive_part(m: Vec) -> Vec:
    return primitive_decompose(m)[1]


def primitive_normal(m: Vec) -> Vec:
    """The primitive dual vector orthogonal to ``m``, positively oriented.

    Convention: rotate ``m`` counterclockwise by 90 degrees and reduce, so
    ``primitive_normal((1, 0)) == (0, 1)``.  Consequently, for primitive
    ``m`` and any ``m2``: ``<m2, primitive_normal(m)> == det2(m, m2)``.
    """
    if m == (0, 0):
        raise ValueError("zero vector has no normal")
    return primitive_part((-m[1], m[0]))


def normal_coefficient(m: Vec, d) -> tuple[int, int]:
    """The pair ``(p, q)``, q > 0, with ``d == (p/q) * primitive_normal(m)``.

    ``d`` is a dual vector orthogonal to ``m`` whose coordinates are integer
    pairs ``(p, q)``, q > 0, for p/q; the coefficient is read at a nonzero
    component of the normal and divided by it.
    """
    n = primitive_normal(m)
    axis = 0 if n[0] else 1
    (p, q), c = d[axis], n[axis]
    return (p, q * c) if c > 0 else (-p, -q * c)


def _angle_class(v: Vec) -> int:
    """0 for directions at angles in [0, pi) from the positive x-axis, 1 for [pi, 2 pi)."""
    return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1


def angular_sort(directions: list[Vec]) -> list[Vec]:
    """Sort directions counterclockwise from the positive x-axis, ``(1, 0)`` first.

    Exact comparison via cross products.  Two coincident directions are an
    error: same-direction walls must be merged before ordering.
    """

    def cmp(u: Vec, v: Vec) -> int:
        cu, cv = _angle_class(u), _angle_class(v)
        if cu != cv:
            return cu - cv
        c = det2(u, v)
        if c == 0:
            # within one half-plane, parallel directions coincide
            raise ValueError(f"coincident rays must be merged: {u}, {v}")
        return -1 if c > 0 else 1

    return sorted(directions, key=functools.cmp_to_key(cmp))


def half_plane_order(vectors: list[Vec]) -> list[Vec] | None:
    """The primitive directions of ``vectors`` counterclockwise across their open half-plane.

    In counterclockwise order the directions leave such a half-plane free
    exactly when some cyclic gap between neighbours exceeds pi, which is
    ``det2(u, v) < 0`` for the neighbours ``u, v``; the order starts after
    that gap.  Anti-parallel vectors, or three spanning the plane, leave no
    gap that wide, and the result is None.
    """
    order = angular_sort(list({primitive_part(v) for v in vectors}))
    for i in range(len(order)):
        if det2(order[i - 1], order[i]) < 0:
            return order[i:] + order[:i]
    return order if len(order) < 2 else None


def in_open_half_plane(vectors: list[Vec]) -> bool:
    """Whether the nonzero vectors all lie strictly on one side of a line through 0."""
    return half_plane_order(vectors) is not None
