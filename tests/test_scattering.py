import random
from fractions import Fraction

import pytest

from conftest import rand_wall_log
from wallcross.exceptions import ConventionError
from wallcross.groupoid import KFactor, k_wall_log
from wallcross.lattice import WallKind
from wallcross.scattering import (
    Diagram,
    Wall,
    complete,
    is_consistent,
    merge_wall,
    new_rays,
    path_ordered_product,
)
from wallcross.series import TruncationContext
from wallcross.vertexlie import AutPair, LieElem, bracket, elementary, exp, log, mat_zero


def k_wall(ctx, gamma, kind=WallKind.LINE, scale=1, degree=1):
    return Wall(gamma, kind, k_wall_log(ctx, KFactor(gamma, scale, degree)))


def s_wall(ctx, m, i, j, mu=1, kind=WallKind.LINE):
    return Wall(m, kind, LieElem.single(ctx, m, 1, matrix=elementary(ctx.rank, i, j, -mu)))


def example1_diagram(order=8):
    ctx = TruncationContext(order, 3)
    return Diagram(ctx, (s_wall(ctx, (1, 0), 0, 1), k_wall(ctx, (0, 1))))


def test_wall_validation():
    ctx = TruncationContext(4, 2)
    with pytest.raises(ValueError, match="primitive"):
        Wall((2, 0), WallKind.LINE, LieElem.zero(ctx))
    with pytest.raises(ValueError, match="multiple"):
        Wall((1, 0), WallKind.LINE, LieElem.single(ctx, (0, 1), 1, dvec=(-1, 0)))
    with pytest.raises(ValueError, match="normal"):
        Wall((1, 0), WallKind.LINE, LieElem.single(ctx, (1, 0), 1, dvec=(1, 0)))


def test_empty_diagram_is_consistent():
    ctx = TruncationContext(4, 2)
    d = Diagram(ctx, ())
    assert path_ordered_product(d) == AutPair.identity(ctx)
    assert is_consistent(d)


def test_single_line_is_consistent():
    ctx = TruncationContext(5, 2)
    d = Diagram(ctx, (s_wall(ctx, (1, 0), 0, 1),))
    assert is_consistent(d)
    rng = random.Random(0)
    d2 = Diagram(ctx, (Wall((1, 1), WallKind.LINE, rand_wall_log(ctx, rng, (1, 1))),))
    assert is_consistent(d2)


def test_initial_example1_defect():
    # lowest term of the initial-loop log is minus the order-2 insertion
    d = example1_diagram()
    x = log(path_ordered_product(d))
    assert x.t_order() == 2
    assert x.degree_part(2) == LieElem.single(
        d.ctx, (1, 1), 2, matrix=elementary(3, 0, 1, -1)
    )
    assert not is_consistent(d)


def test_complete_example1():
    d = example1_diagram()
    completed = complete(d)
    rays = new_rays(d, completed)
    assert len(rays) == 1
    (w,) = rays
    assert w.direction == (1, 1)
    assert w.kind is WallKind.RAY
    assert w.logf == LieElem.single(d.ctx, (1, 1), 2, matrix=elementary(3, 0, 1, 1))
    assert is_consistent(completed)


def test_complete_example2_s_walls():
    # phase-ordered realization: the (j,l) soliton sits on the first-crossed wall
    ctx = TruncationContext(6, 3)
    mu1, mu2 = 1, 1
    d = Diagram(ctx, (s_wall(ctx, (1, 0), 1, 2, mu2), s_wall(ctx, (0, 1), 0, 1, mu1)))
    completed = complete(d)
    rays = new_rays(d, completed)
    assert len(rays) == 1
    (w,) = rays
    assert w.direction == (1, 1)
    assert w.logf == LieElem.single(
        ctx, (1, 1), 2, matrix=elementary(3, 0, 2, mu1 * mu2)
    )
    assert is_consistent(completed)


def test_example2_autpair_identity():
    # S1 S2 = S2 S3' S1 with log(theta_3') = (mu1 mu2 t^2 E_il z^(1,1), 0)
    from wallcross.vertexlie import compose

    ctx = TruncationContext(6, 3)
    mu1, mu2 = 2, 3
    s1 = LieElem.single(ctx, (0, 1), 1, matrix=elementary(3, 0, 1, -mu1))
    s2 = LieElem.single(ctx, (1, 0), 1, matrix=elementary(3, 1, 2, -mu2))
    s3 = LieElem.single(ctx, (1, 1), 2, matrix=elementary(3, 0, 2, mu1 * mu2))
    lhs = compose(exp(s1), exp(s2))
    rhs = compose(compose(exp(s2), exp(s3)), exp(s1))
    assert lhs == rhs


def test_complete_pentagon():
    ctx = TruncationContext(10, 1)
    d = Diagram(ctx, (k_wall(ctx, (1, 0)), k_wall(ctx, (0, 1))))
    completed = complete(d)
    rays = new_rays(d, completed)
    assert len(rays) == 1
    (w,) = rays
    assert w.direction == (1, 1)
    # 4d-type output: zero matrix parts, frequencies l(1,1) at degree 2l
    for (m, j), (a, dv) in w.logf.terms.items():
        assert a == mat_zero(1)
        l = m[0]
        assert m == (l, l) and j == 2 * l
    assert is_consistent(completed)


def test_complete_is_idempotent():
    d = example1_diagram(order=6)
    c1 = complete(d)
    assert complete(c1) == c1


def test_complete_rejects_parallel_lines():
    ctx = TruncationContext(4, 2)
    d = Diagram(
        ctx,
        (s_wall(ctx, (1, 0), 0, 1), s_wall(ctx, (-1, 0), 1, 0)),
    )
    with pytest.raises(ValueError, match="parallel"):
        complete(d)


def test_merge_wall_cases():
    ctx = TruncationContext(5, 4)
    d = Diagram(ctx, ())
    w = s_wall(ctx, (1, 0), 0, 1)
    d1 = merge_wall(d, w)
    assert d1.walls == (w,)
    # zero-log merge leaves the diagram unchanged
    assert merge_wall(d1, Wall((0, 1), WallKind.RAY, LieElem.zero(ctx))) == d1
    # same-direction merge with commuting matrix parts adds the logs
    w2 = s_wall(ctx, (1, 0), 2, 3)
    d2 = merge_wall(d1, w2)
    assert len(d2.walls) == 1
    assert d2.walls[0].logf == w.logf + w2.logf
    # geometry conflicts are refused
    with pytest.raises(ValueError, match="geometry conflict"):
        merge_wall(d2, Wall((1, 0), WallKind.RAY, w.logf))
    # merging the BCH inverse removes the wall entirely
    assert merge_wall(d2, Wall((1, 0), WallKind.LINE, -(w.logf + w2.logf))).walls == ()


def test_random_two_line_completions():
    rng = random.Random(20250809)
    cases = 0
    while cases < 12:
        order = rng.randint(3, 6)
        rank = rng.randint(1, 3)
        ctx = TruncationContext(order, rank)
        wa = Wall((1, 0), WallKind.LINE, rand_wall_log(ctx, rng, (1, 0)))
        wb = Wall((0, 1), WallKind.LINE, rand_wall_log(ctx, rng, (0, 1)))
        if wa.logf.is_zero() or wb.logf.is_zero():
            continue
        cases += 1
        d = Diagram(ctx, (wa, wb))
        completed = complete(d)
        assert is_consistent(completed)
        assert complete(completed) == completed
        for w in new_rays(d, completed):
            assert not w.logf.is_zero()
            assert w.kind is WallKind.RAY
            a, b = w.direction
            assert a >= 1 and b >= 1  # strictly inside the positive cone


def test_loop_base_independence():
    d = example1_diagram(order=5)
    completed = complete(d)
    for base in [(-1, -1), (-1, 2), (-3, -1), (-2, 1), (1, -2), (3, 1)]:
        moved = Diagram(d.ctx, completed.walls, base)
        assert is_consistent(moved)
        initial_moved = Diagram(d.ctx, d.walls, base)
        assert not is_consistent(initial_moved)


def test_base_on_wall_rejected():
    d = example1_diagram(order=3)
    bad = Diagram(d.ctx, d.walls, (1, 0))
    with pytest.raises(ValueError, match="lies on a wall"):
        path_ordered_product(bad)


def test_order2_insertion_is_upper_bracket_lower():
    # for walls A (lower) and B (upper), the first correction is [log B, log A]
    rng = random.Random(33)
    for da, db in [((1, 0), (0, 1)), ((1, -1), (0, 1)), ((2, 1), (-1, 2))]:
        ctx = TruncationContext(4, 2)
        la = rand_wall_log(ctx, rng, da, terms=1)
        lb = rand_wall_log(ctx, rng, db, terms=1)
        if la.is_zero() or lb.is_zero():
            continue
        d = Diagram(ctx, (Wall(da, WallKind.LINE, la), Wall(db, WallKind.LINE, lb)))
        completed = complete(d)
        expected = bracket(lb, la)
        for w in new_rays(d, completed):
            k0 = w.logf.t_order()
            assert w.logf.degree_part(k0) == expected.restrict_direction(
                w.direction
            ).degree_part(k0)


def test_completion_truncation_consistency():
    # completing at high order then reducing equals completing at low order
    c8 = complete(example1_diagram(order=8))
    c4 = complete(example1_diagram(order=4))
    ctx4 = c4.ctx
    reduced = {}
    for w in c8.walls:
        terms = {k: v for k, v in w.logf.terms.items() if k[1] <= 4}
        reduced[w.direction] = (w.kind, LieElem(ctx4, terms))
    assert reduced == {w.direction: (w.kind, w.logf) for w in c4.walls}


def test_three_line_diagram_completes():
    # single-vertex input with three lines; the two non-adjacent walls carry
    # commuting matrix parts so no defect lands on the middle line
    ctx = TruncationContext(5, 3)
    walls = (
        s_wall(ctx, (1, 0), 0, 1),
        k_wall(ctx, (0, 1)),
        s_wall(ctx, (-1, 1), 0, 1),
    )
    d = Diagram(ctx, walls)
    completed = complete(d)
    assert is_consistent(completed)
    for w in new_rays(d, completed):
        assert w.kind is WallKind.RAY
        assert not w.logf.is_zero()


def test_defect_on_initial_line_is_flagged():
    # lines at (1,0), (0,1), (1,1) with non-commuting matrix parts: the
    # (1,0)x(0,1) defect lands on the (1,1) line and must raise
    ctx = TruncationContext(4, 3)
    walls = (
        s_wall(ctx, (1, 0), 0, 1),
        s_wall(ctx, (0, 1), 1, 2),
        s_wall(ctx, (1, 1), 0, 1),
    )
    with pytest.raises(ConventionError, match="line direction"):
        complete(Diagram(ctx, walls))


def test_dense_two_wall_fan():
    # both 4d walls with index 2: the completion grows the classic fan of
    # rays marching toward the diagonal, consistent at every order
    ctx = TruncationContext(6, 1)
    d = Diagram(ctx, (k_wall(ctx, (1, 0), scale=2), k_wall(ctx, (0, 1), scale=2)))
    completed = complete(d)
    assert is_consistent(completed)
    dirs = sorted(w.direction for w in new_rays(d, completed))
    assert dirs == [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2)]


def test_recompletion_fixes_partial_ray():
    # a diagram seeded with half of the correct correction: completion
    # merges the missing half into the existing ray (uniqueness)
    d = example1_diagram(order=6)
    half = Wall(
        (1, 1),
        WallKind.RAY,
        LieElem.single(d.ctx, (1, 1), 2, matrix=elementary(3, 0, 1, Fraction(1, 2))),
    )
    seeded = Diagram(d.ctx, d.walls + (half,))
    completed = complete(seeded)
    assert is_consistent(completed)
    w = completed.wall_in_direction((1, 1))
    assert w.logf == LieElem.single(d.ctx, (1, 1), 2, matrix=elementary(3, 0, 1, 1))


def test_random_completions_rotated_cone():
    # two-line data outside the positive quadrant: produced rays stay in the
    # open cone spanned by the initial directions
    from wallcross.lattice import det2

    rng = random.Random(99)
    for da, db in [((1, -1), (1, 1)), ((0, -1), (1, 0)), ((-1, -2), (1, -1))]:
        assert det2(da, db) > 0
        cases = 0
        while cases < 3:
            ctx = TruncationContext(4, 2)
            la = rand_wall_log(ctx, rng, da)
            lb = rand_wall_log(ctx, rng, db)
            if la.is_zero() or lb.is_zero():
                continue
            cases += 1
            d = Diagram(ctx, (Wall(da, WallKind.LINE, la), Wall(db, WallKind.LINE, lb)))
            completed = complete(d)
            assert is_consistent(completed)
            for w in new_rays(d, completed):
                assert det2(da, w.direction) > 0 and det2(w.direction, db) > 0
