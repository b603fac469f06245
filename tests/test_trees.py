import random

import pytest

from conftest import rand_wall_log
from reference_bracket import bracket
from reference_trees import (
    enumerate_ribbon_trees,
    natural_tree_sum,
    oriented_vertex,
    ray_support_oracle,
    ribbon_tree_count,
    tree_shapes,
)
from wallcross.groupoid import KFactor, k_wall_log
from wallcross.lattice import WallKind
from wallcross.scattering import Diagram, Wall, complete, new_rays
from wallcross.series import TruncationContext
from wallcross.vertexlie import LieElem, elementary


def s_log(ctx, m, i, j, mu=1):
    return LieElem.single(ctx, m, 1, matrix=elementary(ctx.rank, i, j, -mu))


# -- enumeration --------------------------------------------------------------------


def test_single_input_tree():
    assert enumerate_ribbon_trees(1) == [1]
    assert ribbon_tree_count(1) == 1


def test_two_trees_distinguish_input_order():
    trees = enumerate_ribbon_trees(2)
    assert len(trees) == 2
    assert set(trees) == {(1, 2), (2, 1)}


def test_counts_match_independent_recursion():
    for k in range(1, 7):
        assert len(enumerate_ribbon_trees(k)) == ribbon_tree_count(k)


def test_count_closed_form():
    from math import comb, factorial

    def catalan(n):
        return comb(2 * n, n) // (n + 1)

    for k in range(1, 8):
        assert ribbon_tree_count(k) == factorial(k) * catalan(k - 1)


def test_enumeration_bound():
    with pytest.raises(ValueError, match="bound"):
        enumerate_ribbon_trees(8)


def test_shapes_are_catalan():
    from math import comb

    for k in range(1, 8):
        assert len(tree_shapes(k)) == comb(2 * (k - 1), k - 1) // k


# -- the oriented vertex -------------------------------------------------------------


def test_oriented_vertex_symmetric_and_mirror_combining():
    ctx = TruncationContext(4, 3)
    rng = random.Random(0)
    for _ in range(10):
        u = rand_wall_log(ctx, rng, (1, 0))
        v = rand_wall_log(ctx, rng, (0, 1))
        assert oriented_vertex(u, v) == oriented_vertex(v, u)
        # upper direction enters the bracket first
        assert oriented_vertex(u, v) == bracket(v, u)


def test_oriented_vertex_kills_parallel():
    ctx = TruncationContext(4, 2)
    rng = random.Random(1)
    u = rand_wall_log(ctx, rng, (1, 0))
    v = rand_wall_log(ctx, rng, (1, 0))
    assert oriented_vertex(u, v).is_zero()


def test_mirror_pairs_combine_at_k3():
    # the two child orders of every vertex contribute equally
    ctx = TruncationContext(4, 3)
    rng = random.Random(2)
    u = rand_wall_log(ctx, rng, (1, 0)) + rand_wall_log(ctx, rng, (0, 1))
    left_comb = oriented_vertex(oriented_vertex(u, u), u)
    right_comb = oriented_vertex(u, oriented_vertex(u, u))
    assert left_comb == right_comb


# -- the tree sum ---------------------------------------------------------------------


def test_tree_sum_k1_returns_inputs():
    ctx = TruncationContext(4, 3)
    x = s_log(ctx, (1, 0), 0, 1)
    y = k_wall_log(ctx, KFactor((0, 1), 1))
    assert natural_tree_sum([x, y], 1, (1, 0)) == x
    assert natural_tree_sum([x, y], 1, (0, 1)) == y


def test_tree_sum_rejects_antiparallel():
    ctx = TruncationContext(4, 2)
    x = s_log(ctx, (1, 0), 0, 1)
    y = s_log(ctx, (-1, 0), 1, 0)
    with pytest.raises(ValueError, match="anti-parallel"):
        natural_tree_sum([x, y], 2, (1, 1))


def test_order2_term_matches_example1_insertion():
    ctx = TruncationContext(8, 3)
    x = s_log(ctx, (1, 0), 0, 1)
    y = k_wall_log(ctx, KFactor((0, 1), 1))
    out = natural_tree_sum([x, y], 2, (1, 1))
    expected = LieElem.single(ctx, (1, 1), 2, matrix=elementary(3, 0, 1, 1))
    assert out.degree_part(2) == expected


def test_order2_equals_completion_insertion_random():
    rng = random.Random(3)
    for _ in range(8):
        ctx = TruncationContext(4, 2)
        la = rand_wall_log(ctx, rng, (1, 0), terms=1)
        lb = rand_wall_log(ctx, rng, (0, 1), terms=1)
        if la.is_zero() or lb.is_zero():
            continue
        d = Diagram(ctx, (Wall((1, 0), WallKind.LINE, la), Wall((0, 1), WallKind.LINE, lb)))
        completed = complete(d)
        tree2 = natural_tree_sum([la, lb], 2, (1, 1))
        for w in new_rays(d, completed):
            if w.direction != (1, 1):
                continue
            k0 = w.logf.t_order()
            assert tree2.degree_part(k0) == w.logf.degree_part(k0)


# -- support oracle -------------------------------------------------------------------


def test_support_oracle_trivial_cases():
    ctx = TruncationContext(4, 2)
    x = s_log(ctx, (1, 0), 0, 1)
    assert ray_support_oracle([x], 4) == {(1, 0)}
    assert ray_support_oracle([], 4) == set()
    assert ray_support_oracle([LieElem.from_terms(ctx, {})], 4) == set()


def test_support_oracle_example1_order2():
    # at the order-2 level the oracle support is exactly the completed set
    ctx = TruncationContext(2, 3)
    x = s_log(ctx, (1, 0), 0, 1)
    y = k_wall_log(ctx, KFactor((0, 1), 1))
    assert ray_support_oracle([x, y], 2) == {(1, 0), (0, 1), (1, 1)}


def test_support_oracle_example1_overcovers_beyond_order2():
    # beyond order 2 the purely algebraic expansion keeps directions the
    # analytic smoothing factors would cancel; it stays a superset
    ctx = TruncationContext(4, 3)
    x = s_log(ctx, (1, 0), 0, 1)
    y = k_wall_log(ctx, KFactor((0, 1), 1))
    support = ray_support_oracle([x, y], 4)
    assert {(1, 0), (0, 1), (1, 1)} <= support
    assert (1, 2) in support


def test_support_oracle_example2_exact_all_orders():
    # matrix-only walls: the bracket closure terminates and the support is
    # exactly the completed diagram's directions at every order
    for order in (2, 3, 4, 5):
        ctx = TruncationContext(order, 3)
        s1 = s_log(ctx, (0, 1), 0, 1)
        s2 = s_log(ctx, (1, 0), 1, 2)
        assert ray_support_oracle([s1, s2], order) == {(1, 0), (0, 1), (1, 1)}


def test_support_oracle_covers_completion():
    rng = random.Random(4)
    for _ in range(6):
        ctx = TruncationContext(4, 2)
        la = rand_wall_log(ctx, rng, (1, 0), terms=2)
        lb = rand_wall_log(ctx, rng, (0, 1), terms=2)
        if la.is_zero() or lb.is_zero():
            continue
        d = Diagram(ctx, (Wall((1, 0), WallKind.LINE, la), Wall((0, 1), WallKind.LINE, lb)))
        completed = complete(d)
        support = ray_support_oracle([la, lb], ctx.order)
        engine_dirs = {w.direction for w in new_rays(d, completed)}
        assert engine_dirs <= support
