"""Ribbon-tree combinatorics as an independent oracle for the completion.

The correction term of the two-wall deformation problem expands over rooted
trivalent trees whose leaves are fed the initial wall data and whose internal
vertices apply the leading-order (hbar-free) part of the bracket.  Evaluated
purely algebraically, that expansion predicts which directions can carry
produced rays and, at order 2, the exact inserted coefficient.

Two bookkeeping points fix the normalisation:

* a *ribbon* tree distinguishes the two children of each vertex and carries
  its inputs in planar order, so trees with k labeled leaves number
  ``k! * catalan(k-1)`` (the two 2-trees with swapped inputs are distinct);
* with every leaf fed the same combined input, each planar shape is
  evaluated once and the mirror pair of child orders at a vertex is absorbed
  by the *oriented* vertex bracket below, which is symmetric in its
  arguments.  Together with the per-vertex 1/2 this reproduces the
  fixed-point iteration coefficients of the correction term exactly.

The oriented vertex bracket of two graded pieces u, v supported on
non-parallel directions d_u, d_v is

    vertex(u, v) = sign(det(d_v, d_u)) * [u, v]

(zero on parallel pieces, where the analytic pairing vanishes).  At order 2
this makes the tree sum equal the completion's inserted log, bracket of the
upper wall with the lower wall.

Beyond order 2 the analytic smoothing factors are not modeled; the oracle's
contract is direction support plus the order-2 coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from reference_bracket import bracket
from wallcross.lattice import Vec, primitive_part
from wallcross.vertexlie import LieElem

MAX_TREE_INPUTS = 7

# A ribbon tree over leaf labels: either an int (leaf) or a pair of subtrees.
Tree = object


def ribbon_tree_count(k: int) -> int:
    """Independent count oracle: binary splits of k labeled inputs.

    T(1) = 1 and T(k) = sum_i C(k, i) T(i) T(k - i), which closes to
    k! * catalan(k - 1).
    """
    if k < 1:
        raise ValueError("trees need at least one input")
    table = {1: 1}
    for n in range(2, k + 1):
        table[n] = sum(comb(n, i) * table[i] * table[n - i] for i in range(1, n))
    return table[k]


def enumerate_ribbon_trees(k: int, bound: int = MAX_TREE_INPUTS) -> list[Tree]:
    """All ribbon k-trees: binary trees with leaves labeled 1..k, children ordered.

    Deterministic order; ``k = 2`` gives the two trees distinguishing input
    order.
    """
    if k < 1:
        raise ValueError("trees need at least one input")
    if k > bound:
        raise ValueError(f"tree enumeration bound exceeded: {k} > {bound}")

    def build(labels: tuple[int, ...]) -> list[Tree]:
        if len(labels) == 1:
            return [labels[0]]
        out: list[Tree] = []
        rest = labels[1:]
        # First label stays in the left subtree to avoid double counting
        # unordered splits; both child orders are then emitted explicitly.
        for mask in range(1 << len(rest)):
            left = (labels[0],) + tuple(r for b, r in enumerate(rest) if mask >> b & 1)
            right = tuple(r for b, r in enumerate(rest) if not mask >> b & 1)
            if not right:
                continue
            for lt in build(left):
                for rt in build(right):
                    out.append((lt, rt))
                    out.append((rt, lt))
        return out

    return sorted(build(tuple(range(1, k + 1))), key=repr)


def tree_shapes(k: int) -> list[Tree]:
    """Planar shapes with ordered children and unlabeled leaves (catalan many)."""

    def build(n: int) -> list[Tree]:
        if n == 1:
            return [0]
        out = []
        for i in range(1, n):
            for lt in build(i):
                for rt in build(n - i):
                    out.append((lt, rt))
        return out

    return build(k)


def restrict_direction(x: LieElem, a: Vec) -> LieElem:
    """The terms of ``x`` whose frequency is a positive multiple of the primitive ``a``."""
    out = {}
    for (m, j), v in x.terms.items():
        cross = m[0] * a[1] - m[1] * a[0]
        if cross == 0 and (m[0] * a[0] + m[1] * a[1]) > 0:
            out[(m, j)] = v
    return LieElem.from_terms(x.ctx, out)


def oriented_vertex(u: LieElem, v: LieElem) -> LieElem:
    """The symmetric oriented bracket, termwise over graded pieces.

    Pieces on parallel directions pair to zero; otherwise the bracket is
    taken with the upper direction first, independent of argument order.
    """
    ctx = u.ctx
    acc = LieElem.from_terms(ctx, {})
    for (mu, ju), (au, du) in u.terms.items():
        pu = LieElem.from_terms(ctx, {((mu, ju)): (au, du)})
        for (mv, jv), (av, dv) in v.terms.items():
            if ju + jv > ctx.order:
                continue
            cross = mv[0] * mu[1] - mv[1] * mu[0]  # det(d_v, d_u) up to positives
            if cross == 0:
                continue
            pv = LieElem.from_terms(ctx, {((mv, jv)): (av, dv)})
            piece = bracket(pu, pv)
            acc = acc + (piece if cross > 0 else -piece)
    return acc


def _combined_input(inputs: list[LieElem]) -> LieElem:
    if not inputs:
        raise ValueError("need at least one input log")
    ctx = inputs[0].ctx
    acc = LieElem.from_terms(ctx, {})
    for x in inputs:
        acc = acc + x
    return acc


def _input_directions(inputs: list[LieElem]) -> set[Vec]:
    dirs = set()
    for x in inputs:
        for (m, _j) in x.terms:
            dirs.add(primitive_part(m))
    return dirs


def natural_tree_sum(inputs: list[LieElem], k_max: int, direction: Vec) -> LieElem:
    """Tree expansion restricted to frequencies along one primitive direction.

    Sums ``(1/2^(k-1)) * eval(shape)`` over planar shapes with up to k_max
    leaves, every leaf fed the combined input and every vertex the oriented
    bracket.  Exact at order 2; support-faithful beyond.
    """
    dirs = _input_directions(inputs)
    for a in dirs:
        for b in dirs:
            if a != b and a == (-b[0], -b[1]):
                raise ValueError("inputs supported on anti-parallel directions")
    combined = _combined_input(inputs)
    ctx = combined.ctx
    total = LieElem.from_terms(ctx, {})

    def eval_shape(shape) -> LieElem:
        if shape == 0:
            return combined
        left, right = shape
        lv = eval_shape(left)
        if lv.is_zero():
            return lv
        rv = eval_shape(right)
        if rv.is_zero():
            return rv
        return oriented_vertex(lv, rv)

    for k in range(1, k_max + 1):
        weight = Fraction(1, 2 ** (k - 1))
        for shape in tree_shapes(k):
            total = total + eval_shape(shape).scale(weight)
    return restrict_direction(total, direction)


def ray_support_oracle(inputs: list[LieElem], order: int) -> set[Vec]:
    """Primitive directions reachable by some nonzero nested oriented bracket.

    Closure over graded pieces up to the t-truncation; a superset of the
    directions the completion can populate (per-tree values are collected
    without cross-tree cancellation).
    """
    if not inputs:
        return set()
    ctx = inputs[0].ctx

    def pieces(x: LieElem):
        return [LieElem.from_terms(ctx, {(m, j): v}) for (m, j), v in x.terms.items() if j <= order]

    pool: list[LieElem] = []
    seen: set = set()
    for x in inputs:
        for p in pieces(x):
            key = _piece_key(p)
            if key not in seen:
                seen.add(key)
                pool.append(p)
    frontier = list(pool)
    while frontier:
        new_frontier = []
        for p in frontier:
            for q in pool:
                for candidate in (oriented_vertex(p, q),):
                    for piece in pieces(candidate):
                        key = _piece_key(piece)
                        if key not in seen:
                            seen.add(key)
                            new_frontier.append(piece)
        pool.extend(new_frontier)
        frontier = new_frontier
    return {primitive_part(m) for p in pool for (m, _j) in p.terms}


def _piece_key(p: LieElem):
    ((m, j), (a, d)) = next(iter(p.terms.items()))
    return (m, j, a, d)
