import json
import random
import signal
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, fixture_diagram, kronecker_doc, rand_wall_log
from reference_bracket import bracket, mat_mul
from reference_completion import fresh_exp, loop_products, reference_log
from reference_quiver import central_ray_normal_coefficients, kronecker_euler_characteristic
from reference_trees import restrict_direction
from wallcross import cli, report, scattering, serialize, vertexlie
from wallcross.exceptions import ConventionError, SchemaError
from wallcross.groupoid import (
    BpsContext,
    BpsProblem,
    KFactor,
    SFactor,
    build_initial_diagram,
    factor_log,
    k_wall_log,
)
from wallcross.lattice import WallKind, half_plane_order, primitive_normal, primitive_part
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
from wallcross.vertexlie import (
    AutPair,
    LieElem,
    bch,
    compose,
    elementary,
    exp,
    log,
    mat_zero,
)


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
        Wall((2, 0), WallKind.LINE, LieElem.from_terms(ctx, {}))
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
    # two opposite lines cover the same two rays: no diagram holds them
    with pytest.raises(ValueError, match="same ray"):
        Diagram(ctx, (s_wall(ctx, (1, 0), 0, 1), s_wall(ctx, (-1, 0), 1, 0)))
    d = Diagram(
        ctx,
        (
            s_wall(ctx, (1, 0), 0, 1, kind=WallKind.RAY),
            s_wall(ctx, (-1, 0), 1, 0, kind=WallKind.RAY),
        ),
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
    assert merge_wall(d1, Wall((0, 1), WallKind.RAY, LieElem.from_terms(ctx, {}))) == d1
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


_RAY_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (-1, 1), (2, 1), (1, -2))
_RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _same_ray_logs(draw):
    """Two logs on one ray, rank 2-3, with derivations along the ray's normal.

    ``shape`` says how the matrix parts are drawn: ``diagonal`` and
    ``multiple`` (scalar series times one fixed matrix) commute by
    construction; ``free`` entries may or may not commute.
    """
    rank, order = draw(st.integers(2, 3)), draw(st.integers(1, 5))
    ctx = TruncationContext(order, rank)
    p = draw(st.sampled_from(_RAY_DIRECTIONS))
    n = primitive_normal(p)
    shape = draw(st.sampled_from(["diagonal", "multiple", "free"]))
    cells = st.lists(_RATIONAL, min_size=rank * rank, max_size=rank * rank)
    fixed = draw(cells)

    def matrix():
        if shape == "diagonal":
            diag = draw(st.lists(_RATIONAL, min_size=rank, max_size=rank))
            return tuple(tuple(diag[i] if i == k else 0 for k in range(rank)) for i in range(rank))
        entries = fixed if shape == "multiple" else draw(cells)
        c = draw(_RATIONAL) if shape == "multiple" else 1
        return tuple(tuple(c * entries[i * rank + k] for k in range(rank)) for i in range(rank))

    def element():
        terms = {}
        keys = st.tuples(st.integers(1, 3), st.integers(1, order))
        for k, j in draw(st.lists(keys, min_size=1, max_size=3, unique=True)):
            c = draw(_RATIONAL)
            terms[((k * p[0], k * p[1]), j)] = (matrix(), (c * n[0], c * n[1]))
        return LieElem.from_terms(ctx, terms)

    return p, shape, element(), element()


def _merged_with_bch_calls(d, w):
    """``merge_wall(d, w)`` and the number of ``bch`` calls it made."""
    with mock.patch.object(scattering, "bch", wraps=scattering.bch) as spy:
        merged = merge_wall(d, w)
    return merged, spy.call_count


@given(_same_ray_logs())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_merge_wall_adds_commuting_logs_without_bch(case):
    # both derivations are multiples of the normal of p, so the bracket is
    # the matrix commutator alone; when it vanishes bch(x, y) = x + y
    p, shape, x, y = case
    d = Diagram(x.ctx, (Wall(p, WallKind.RAY, x),))
    merged, calls = _merged_with_bch_calls(d, Wall(p, WallKind.RAY, y))
    expected = bch(x, y)
    commuting = x.a * y.a == y.a * x.a
    assert commuting or shape == "free"
    assert calls == (0 if commuting else 1)
    if commuting:
        assert expected == x + y
    assert merged.walls == (() if expected.is_zero() else (Wall(p, WallKind.RAY, expected),))
    if merged.walls:
        # the merged wall's automorphism is the product, however it was merged
        assert exp(merged.walls[0].logf) == compose(fresh_exp(x), fresh_exp(y))


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("p", _RAY_DIRECTIONS)
def test_merge_wall_sends_non_commuting_logs_through_bch(p, rank):
    # [E_12 t z^p, E_21 t z^p] = (E_11 - E_22) t^2 z^(2p) is not zero at N >= 2
    ctx = TruncationContext(3, rank)
    n = primitive_normal(p)
    x = LieElem.single(ctx, p, 1, matrix=elementary(rank, 0, 1), dvec=n)
    y = LieElem.single(ctx, p, 1, matrix=elementary(rank, 1, 0, 2))
    d = Diagram(ctx, (Wall(p, WallKind.RAY, x),))
    merged, calls = _merged_with_bch_calls(d, Wall(p, WallKind.RAY, y))
    assert calls == 1
    assert merged.walls == (Wall(p, WallKind.RAY, bch(x, y)),)
    assert merged.walls[0].logf != x + y
    assert merged.walls[0].logf == reference_log(compose(fresh_exp(x), fresh_exp(y)))


def test_initial_diagram_merges_factors_on_one_line_by_addition_or_bch():
    # K and S factors on one line commute (the K log has no matrix part), as
    # do two K factors; S factors on the pairs (a, b) and (b, a) do not
    ctx = BpsContext(("a", "b", "c"), 4)
    lie_ctx = TruncationContext(4, 3)
    cases = [
        ((SFactor(("a", "b"), (1, 0), 1), KFactor((1, 0), 2)), 0),
        ((KFactor((1, 1), 1), SFactor(("b", "c"), (1, 1), -1), KFactor((2, 2), 1)), 0),
        ((SFactor(("a", "b"), (1, 0), 1), SFactor(("b", "a"), (1, 0), 2)), 1),
    ]
    for factors, bch_calls in cases:
        logs = [factor_log(ctx, lie_ctx, f) for f in factors]
        with mock.patch.object(scattering, "bch", wraps=scattering.bch) as spy:
            d = build_initial_diagram(BpsProblem(ctx, factors), lie_ctx)
        assert spy.call_count == bch_calls
        expected = logs[0]
        for y in logs[1:]:
            expected = bch(expected, y)
        p = primitive_part(factors[0].gamma)
        assert d.walls == (Wall(p, WallKind.LINE, expected),)


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


def _random_walls(rng, count):
    """``count`` random (direction, kind) pairs, no two on one line through the origin."""
    directions = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (2, 1), (1, -2), (-3, -1)]
    walls, covered = [], set()
    while len(walls) < count:
        p = rng.choice(directions)
        if p in covered:
            continue
        covered |= {p, (-p[0], -p[1])}
        walls.append((p, rng.choice([WallKind.LINE, WallKind.RAY])))
    return walls


def test_loop_start_independence():
    # Moving the loop start conjugates Theta by a factor that is the identity
    # modulo t: a consistent diagram stays consistent from every start, and
    # the lowest-degree part of log Theta, all that completion and the
    # defect report read, is the same from every start.
    rng = random.Random(5150)
    consistent, inconsistent = [], []
    for name in sorted(cli.FIXTURES):
        d = fixture_diagram(name, 3)
        inconsistent.append(d)
        consistent.append(complete(d))
    while len(inconsistent) < 20:
        ctx = TruncationContext(rng.randint(2, 4), rng.randint(1, 2))
        walls = tuple(
            Wall(p, kind, rand_wall_log(ctx, rng, p))
            for p, kind in _random_walls(rng, rng.randint(2, 4))
        )
        if any(w.logf.is_zero() for w in walls):
            continue
        inconsistent.append(Diagram(ctx, walls))
    for da, db in [((1, 0), (0, 1)), ((1, -1), (1, 1)), ((2, 1), (-1, 2)), ((-1, -2), (1, -1))]:
        ctx = TruncationContext(4, 2)
        la, lb = rand_wall_log(ctx, rng, da), rand_wall_log(ctx, rng, db)
        consistent.append(complete(Diagram(ctx, (Wall(da, WallKind.LINE, la),
                                                 Wall(db, WallKind.LINE, lb)))))

    for d in consistent:
        assert all(g.is_identity() for g in loop_products(d))
    moved = 0
    for d in inconsistent:
        products = loop_products(d)
        assert products[0] == path_ordered_product(d)
        logs = [log(g) for g in products]
        k = logs[0].t_order()
        assert all(x.t_order() == k for x in logs)
        if k is None:
            continue
        assert all(x.degree_part(k) == logs[0].degree_part(k) for x in logs)
        moved += any(x != logs[0] for x in logs)
    # the starts are really different loops: beyond the lowest degree the
    # logs of most inconsistent diagrams depend on where the loop starts
    assert moved >= len(inconsistent) // 2


def _random_sl2(rng):
    """A random g in SL2(Z) with every entry nonzero and at most 3 in size."""
    while True:
        a, b, c = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3))
        if (1 + b * c) % a == 0 and (1 + b * c) // a != 0 and abs((1 + b * c) // a) <= 3:
            return ((a, b), (c, (1 + b * c) // a))


def _act(g, d):
    """g on a diagram: directions and frequencies by g, derivation vectors by g^(-T).

    The pairing <m, d> is invariant and g^(-T) carries the primitive normal of
    m to that of g m, so derivation coefficients and matrix parts are unchanged.
    """
    (a, b), (c, e) = g

    def vec(m):
        return (a * m[0] + b * m[1], c * m[0] + e * m[1])

    def dual(n):
        return (e * n[0] - c * n[1], -b * n[0] + a * n[1])

    return Diagram(d.ctx, tuple(
        Wall(vec(w.direction), w.kind, LieElem.from_terms(d.ctx, {
            (vec(m), j): (mat, dual(dv)) for (m, j), (mat, dv) in w.logf.terms.items()
        }))
        for w in d.walls
    ))


def test_complete_is_sl2z_covariant():
    # an engine-independent oracle: complete(g . D) == g . complete(D); it is
    # the only test that moves every wall off the axes the loop starts from
    rng = random.Random(1729)
    cases = [fixture_diagram(name, 3) for name in sorted(cli.FIXTURES)]
    while len(cases) < 12:
        ctx = TruncationContext(rng.randint(3, 5), rng.randint(1, 2))
        da, db = rng.choice([((1, 0), (0, 1)), ((1, -1), (1, 1)), ((2, 1), (-1, 2))])
        la, lb = rand_wall_log(ctx, rng, da), rand_wall_log(ctx, rng, db)
        if not la.is_zero() and not lb.is_zero():
            cases.append(Diagram(ctx, (Wall(da, WallKind.LINE, la), Wall(db, WallKind.LINE, lb))))
    for d in cases:
        g = _random_sl2(rng)
        mapped = complete(_act(g, d))
        expected = _act(g, complete(d))
        assert {w.direction: w for w in mapped.walls} == {w.direction: w for w in expected.walls}
        assert len(new_rays(d, expected)) >= 1


def _inverse(p):
    """The inverse of an invertible rational matrix, by Gauss-Jordan elimination."""
    r = len(p)
    rows = [list(row) + [Fraction(int(i == k)) for k in range(r)] for i, row in enumerate(p)]
    for col in range(r):
        pivot = next(i for i in range(col, r) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(r):
            if i != col and rows[i][col]:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[col])]
    return tuple(tuple(row[r:]) for row in rows)


def _random_invertible(r, rng):
    """A dense invertible P whose entries and inverse have non-unit denominators."""
    while True:
        p = tuple(
            tuple(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([2, 3, 5]))
                  for _ in range(r))
            for _ in range(r)
        )
        try:
            return p, _inverse(p)
        except StopIteration:  # singular
            continue


def _conjugate(p, p_inv, d):
    """Every matrix part A of the diagram replaced by P A P^(-1); derivations unchanged."""
    return Diagram(d.ctx, tuple(
        Wall(w.direction, w.kind, LieElem.from_terms(d.ctx, {
            key: (mat_mul(mat_mul(p, a), p_inv), dv) for key, (a, dv) in w.logf.terms.items()
        }))
        for w in d.walls
    ))


def test_complete_commutes_with_constant_conjugation():
    # an engine-independent oracle: A -> P A P^(-1) on every matrix part is an
    # automorphism of the vertex algebra (the bracket only multiplies matrix
    # parts by each other and by scalars), so complete(P.D) == P.complete(D);
    # the denominators of P and P^(-1) put every product through the lcm
    # rescale and the gcd reduction of the series coefficients
    rng = random.Random(2718)
    cases = [fixture_diagram(name, 3) for name in sorted(cli.FIXTURES)]
    while len(cases) < 14:
        ctx = TruncationContext(rng.randint(3, 5), rng.randint(2, 3))
        da, db = rng.choice([((1, 0), (0, 1)), ((1, -1), (1, 1)), ((2, 1), (-1, 2))])
        la, lb = rand_wall_log(ctx, rng, da), rand_wall_log(ctx, rng, db)
        if not la.is_zero() and not lb.is_zero():
            cases.append(Diagram(ctx, (Wall(da, WallKind.LINE, la), Wall(db, WallKind.LINE, lb))))
    produced = 0
    for d in cases:
        p, p_inv = _random_invertible(d.ctx.rank, rng)
        conjugated = complete(_conjugate(p, p_inv, d))
        expected = _conjugate(p, p_inv, complete(d))
        assert {w.direction: w for w in conjugated.walls} == {
            w.direction: w for w in expected.walls
        }
        assert is_consistent(conjugated)
        produced += bool(new_rays(d, expected))
    assert produced >= 12


def _regrade(d):
    """The diagram with t replaced by t^2: every degree j becomes 2j, N becomes 2N."""
    ctx = TruncationContext(2 * d.ctx.order, d.ctx.rank)
    return Diagram(ctx, tuple(
        Wall(w.direction, w.kind, LieElem.from_terms(ctx, {
            (m, 2 * j): value for (m, j), value in w.logf.terms.items()
        }))
        for w in d.walls
    ))


def test_complete_commutes_with_regrading():
    # an engine-independent oracle: t -> t^2 doubles every degree, and the
    # bracket adds degrees, so it is an automorphism of the graded algebra
    # onto its even part; truncating at N before and at 2N after agree, so
    # complete(regrade(D)) == regrade(complete(D))
    rng = random.Random(1414)
    cases = [fixture_diagram(name, 3) for name in sorted(cli.FIXTURES)]
    while len(cases) < 14:
        ctx = TruncationContext(rng.randint(2, 4), rng.randint(1, 3))
        da, db = rng.choice([((1, 0), (0, 1)), ((1, -1), (1, 1)), ((2, 1), (-1, 2))])
        la, lb = rand_wall_log(ctx, rng, da), rand_wall_log(ctx, rng, db)
        if not la.is_zero() and not lb.is_zero():
            cases.append(Diagram(ctx, (Wall(da, WallKind.LINE, la), Wall(db, WallKind.LINE, lb))))
    produced = 0
    for d in cases:
        regraded = complete(_regrade(d))
        expected = _regrade(complete(d))
        assert {w.direction: w for w in regraded.walls} == {
            w.direction: w for w in expected.walls
        }
        produced += bool(new_rays(d, expected))
    assert produced >= 10


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
            assert w.logf.degree_part(k0) == restrict_direction(
                expected, w.direction
            ).degree_part(k0)


def test_completion_truncation_consistency():
    # completing at high order then reducing equals completing at low order
    c8 = complete(example1_diagram(order=8))
    c4 = complete(example1_diagram(order=4))
    ctx4 = c4.ctx
    reduced = {}
    for w in c8.walls:
        terms = {k: v for k, v in w.logf.terms.items() if k[1] <= 4}
        reduced[w.direction] = (w.kind, LieElem.from_terms(ctx4, terms))
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


def test_defect_on_the_opposite_ray_of_a_line_is_flagged():
    # the (0,1) and (-1,-1) lines have non-commuting matrix parts; their
    # defect at frequency (0,1) + (-1,-1) would land on the -(1,0) ray of a
    # line.  The three directions span the plane, so the input is rejected
    # before any round (exit 2 from the CLI)
    ctx = TruncationContext(2, 3)
    walls = (
        s_wall(ctx, (1, 0), 0, 1),
        s_wall(ctx, (0, 1), 1, 2),
        s_wall(ctx, (-1, -1), 0, 1),
    )
    with pytest.raises(SchemaError, match="parallel initial walls"):
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


def test_recompletion_rejects_partial_ray():
    # a diagram seeded with half of the correct correction: the completion's
    # factor on (1,1) differs from the initial ray at degree 2, and a
    # completion changes no initial wall; the full correction is accepted
    d = example1_diagram(order=6)
    half = Wall(
        (1, 1),
        WallKind.RAY,
        LieElem.single(d.ctx, (1, 1), 2, matrix=elementary(3, 0, 1, Fraction(1, 2))),
    )
    with pytest.raises(ConventionError, match=r"^the correction at degree 2 changes the "
                       r"initial ray \(1, 1\); completion does not change initial walls$"):
        complete(Diagram(d.ctx, d.walls + (half,)))
    full = complete(d).wall_in_direction((1, 1))
    assert full.logf == LieElem.single(d.ctx, (1, 1), 2, matrix=elementary(3, 0, 1, 1))
    recompleted = complete(Diagram(d.ctx, d.walls + (full,)))
    assert recompleted.walls[2] is full
    assert ({w.direction: (w.kind, w.logf) for w in recompleted.walls}
            == {w.direction: (w.kind, w.logf) for w in complete(d).walls})


@contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time have passed."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# a wrong peel: exp(x) where exp(-x) is asked for, or twice the factor
_WRONG_PEELS = {
    "inverse": ("exp", lambda x: vertexlie.exp(-x)),
    "factor": ("log", lambda g: vertexlie.log(g).scale(2)),
}


@pytest.mark.parametrize("wrong", sorted(_WRONG_PEELS))
def test_a_wrong_peel_fails_at_once(wrong, monkeypatch, capsys):
    # a factor that does not cancel G on its ray leaves the next step on the
    # same ray: the peel must not advance, so it raises instead of looping
    name, patched = _WRONG_PEELS[wrong]
    ctx = TruncationContext(6, 1)
    diagrams = [fixture_diagram(f) for f in sorted(cli.FIXTURES)]
    diagrams.append(Diagram(ctx, (k_wall(ctx, (1, 0), scale=2), k_wall(ctx, (0, 1), scale=2))))
    monkeypatch.setattr(scattering, name, patched)
    for d in diagrams:
        with _time_limit(1), pytest.raises(ConventionError, match="^the peel does not advance"):
            complete(d)
    with _time_limit(1):
        code = cli.main(["complete", str(FIXTURES / "pentagon.json")])
    out = capsys.readouterr()
    assert (code, out.out) == (3, "")
    assert out.err.startswith("convention violation: the peel does not advance past the ray ")


@pytest.mark.parametrize("c", [400, 999, 1000])
def test_a_long_direction_completes_and_checks(c, tmp_path, capsys):
    # lines (1,0) and (1,c) with t d_n each: a generator power of order c
    # is built along the binary digits of c, in a loop; the one new ray
    # carries t^2 d(c^2, -2c) z^(2,c)
    p, out = tmp_path / "long.json", tmp_path / "long.completed.json"
    p.write_text(json.dumps({"rank": 1, "truncation": 2, "walls": [
        {"direction": d, "geometry": "line", "terms": [{"t": 1, "k": 1, "derivation": "1"}]}
        for d in ([1, 0], [1, c])]}))
    with _time_limit(10):
        code = cli.main(["complete", str(p), "--output", str(out)])
        completion = capsys.readouterr().out
        assert (code, cli.main(["check", str(out)])) == (0, 0)
    assert capsys.readouterr().out == "consistent\n"
    a, b = primitive_part((2, c))
    assert completion.endswith(f"  new rays: 1\n    direction ({a},{b}) [ray]\n"
                           f"      t^2 * d({c * c},{-2 * c}) * z^(2,{c})\n")


def _two_line_completion(tmp_path, direction, k):
    """Lines (1,0) and ``direction`` (its one term at ``k``), t d_n each, completed at N = 2.

    The CLI completes the file and checks the result.  Returns both exit
    codes, the seconds they took, the new ray's log and the bracket
    [log (1,0), log ``direction``] of the reference oracle.
    """
    doc = {"rank": 1, "truncation": 2, "walls": [
        {"direction": list(d), "terms": [{"t": 1, "k": kk, "derivation": "1"}]}
        for d, kk in (((1, 0), 1), (direction, k))]}
    p, out = tmp_path / "lines.json", tmp_path / "lines.completed.json"
    p.write_text(json.dumps(doc))
    start = time.perf_counter()
    codes = (cli.main(["complete", str(p), "--output", str(out)]), cli.main(["check", str(out)]))
    seconds = time.perf_counter() - start
    initial = serialize.diagram_from_json(doc)
    (ray,) = new_rays(initial, serialize.diagram_from_json(json.loads(out.read_text())))
    logs = {w.direction: w.logf for w in initial.walls}
    return codes, seconds, ray.logf, bracket(logs[(1, 0)], logs[direction])


@pytest.mark.parametrize("huge, small", [
    pytest.param(((0, 1), 10**8), ((0, 1), 2), id="k=10^8"),
    pytest.param(((1, 10**18), 1), ((1, 2), 1), id="direction=(1,10^18)"),
])
def test_a_huge_frequency_completes_and_checks_at_once(huge, small, tmp_path, capsys):
    # a generator power z^(e e_i) costs O(log |e|) products, so a frequency
    # of 10^8 or 10^18 completes in milliseconds; the new ray is the bracket
    # of the two line logs, with the sign the same lines give at a small
    # frequency
    codes, _, got, expected = _two_line_completion(tmp_path, *small)
    assert codes == (0, 0)
    sign = 1 if got == expected else -1
    assert got == expected.scale(sign)
    codes, seconds, got, expected = _two_line_completion(tmp_path, *huge)
    capsys.readouterr()
    assert codes == (0, 0)
    assert seconds < 1
    assert got == expected.scale(sign)


def test_readme_library_example():
    # the README's Python block runs, and its comment is what it computes
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(block, names)
    initial = Diagram(names["ctx"], (names["s_wall"], names["k_wall"]))
    (ray,) = new_rays(initial, names["d"])
    assert (ray.direction, ray.kind) == ((1, 1), WallKind.RAY)
    assert report.format_term_lines(ray.logf) == ["t^2 * E[1,2] * z^(1,1)"]


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


def _log_series(coeffs, n):
    """Coefficients 1..n of log(1 + sum_k coeffs[k] u^k), by L' S = S'."""
    s = [Fraction(1)] + [Fraction(coeffs.get(k, 0)) for k in range(1, n + 1)]
    out = [Fraction(0)] * (n + 1)
    for j in range(1, n + 1):
        out[j] = j * s[j] - sum(k * out[k] * s[j - k] for k in range(1, j))
        out[j] /= j
    return out


def _central_ray(omega, order):
    ctx = TruncationContext(order, 1)
    d = Diagram(ctx, (k_wall(ctx, (1, 0), scale=omega), k_wall(ctx, (0, 1), scale=omega)))
    completed = complete(d)
    return d, completed, completed.wall_in_direction((1, 1))


def _assert_central_ray(w, expected, order):
    # the engine's (1,1) ray carries log f_(1,1) times d(1,-1), the vector
    # the pentagon golden report prints for log(1 + t^2 z^(1,1))
    assert set(w.logf.terms) == {((l, l), 2 * l) for l in range(1, order // 2 + 1)}
    for ((l, _), _j), (a, dv) in w.logf.terms.items():
        assert a == mat_zero(1)
        assert dv == (expected[l], -expected[l])


def test_kronecker_three_central_ray_closed_form():
    # Reineke / GPS: for l1 = l2 = 3 the central ray is
    # f = (sum_k C(4k,k)/(3k+1) (t^2 z^(1,1))^k)^9
    from math import comb

    order = 12
    _d, completed, w = _central_ray(3, order)
    expected = _log_series(
        {k: Fraction(comb(4 * k, k), 3 * k + 1) for k in range(1, order // 2 + 1)}, order // 2
    )
    _assert_central_ray(w, [9 * c for c in expected], order)
    assert is_consistent(completed)


def test_pentagon_keeps_one_ray_at_order_16():
    order = 16
    d, completed, w = _central_ray(1, order)
    assert len(completed.walls) == 3
    assert [r.direction for r in new_rays(d, completed)] == [(1, 1)]
    _assert_central_ray(w, _log_series({1: 1}, order // 2), order)
    assert is_consistent(completed)


def _binomial(e, s, n):
    """Coefficients 1..n of (1 + s u)^e, for any integer e."""
    coeffs, c = {}, Fraction(1)
    for k in range(1, n + 1):
        c = c * (e - k + 1) / k
        coeffs[k] = c * s**k
    return coeffs


def _mirrored(rays):
    return {(b, a): f for (a, b), f in rays.items()}


# Gross-Pandharipande-Siebert, arXiv:0902.0779, Example 1.6: the completion
# of the lines (1 + tx)^l1 and (1 + ty)^l2 for the finite types.  Each ray
# (a, b) carries (1 + s t^(a+b) x^a y^b)^e, listed as {(a, b): (s, e)}, the
# two lines included.  For (2, 2) the rays are (n+1, n) and (n, n+1) with
# exponent 2, and (1 - t^2 xy)^-4 on (1, 1); those up to t^24 are listed.
_B2 = {(1, 0): (1, 1), (0, 1): (1, 2), (1, 1): (1, 2), (1, 2): (1, 1)}
_G2 = {(1, 0): (1, 1), (0, 1): (1, 3), (1, 1): (1, 3), (1, 2): (1, 3), (1, 3): (1, 1),
       (2, 3): (1, 1)}
_FINITE_TYPES = {
    (1, 1): {(1, 0): (1, 1), (0, 1): (1, 1), (1, 1): (1, 1)},
    (1, 2): _B2,
    (2, 1): _mirrored(_B2),
    (1, 3): _G2,
    (3, 1): _mirrored(_G2),
    (2, 2): {(1, 1): (-1, -4), **{r: (1, 2) for n in range(12) for r in ((n + 1, n), (n, n + 1))}},
}


@pytest.mark.parametrize("l1, l2", sorted(_FINITE_TYPES))
def test_finite_type_rays_match_their_closed_forms(l1, l2):
    # the engine's wall for f on the ray (a, b) carries c_l (b, -a) at
    # frequency l (a, b) and t-degree l (a + b), where sum_l c_l u^l is
    # log f under (x, y) -> (-x, -y), that is u -> (-1)^(a+b) u
    order = 24
    ctx = TruncationContext(order, 1)
    d = Diagram(ctx, (k_wall(ctx, (1, 0), scale=l1), k_wall(ctx, (0, 1), scale=l2)))
    completed = complete(d)
    rays = _FINITE_TYPES[l1, l2]
    assert sorted(w.direction for w in completed.walls) == sorted(rays)
    for w in completed.walls:
        (a, b), (s, e) = w.direction, rays[w.direction]
        n = order // (a + b)
        c = _log_series(_binomial(e, s * (-1) ** (a + b), n), n)
        assert dict(w.logf.terms) == {
            ((l * a, l * b), l * (a + b)): (mat_zero(1), (c[l] * b, -c[l] * a))
            for l in range(1, n + 1)
        }


# -- each wall's automorphism is computed once ------------------------------------


_COUNTED_RUNS = {
    "complete-kronecker-3-5": ("complete", kronecker_doc(3, 5, 7)),
    "wcf-example1": ("wcf", json.loads((FIXTURES / "example1.json").read_text())),
}


def _run_counted(monkeypatch, capsys, tmp_path, run):
    """Run one of ``_COUNTED_RUNS``, counting exponential series and merges into a wall.

    One exponential series gives one element, or a line's two.

    Returns the two counts and the diagrams ``complete`` returned.
    """
    command, doc = _COUNTED_RUNS[run]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    counts = {"exp": 0, "merges": 0}
    completed = []
    computed, merge, completion = (
        vertexlie._exponential_series, scattering.merge_wall, scattering.complete)

    def counted_exp(*args):
        counts["exp"] += 1
        return computed(*args)

    def counted_merge(d, w):
        counts["merges"] += d.wall_in_direction(w.direction) is not None
        return merge(d, w)

    def recorded_complete(d):
        completed.append(completion(d))
        return completed[-1]

    monkeypatch.setattr(vertexlie, "_exponential_series", counted_exp)
    monkeypatch.setattr(scattering, "merge_wall", counted_merge)
    monkeypatch.setattr(scattering, "complete", recorded_complete)
    assert cli.main([command, str(path)]) == 0
    capsys.readouterr()
    return counts["exp"], counts["merges"], completed


@pytest.mark.parametrize("run", sorted(_COUNTED_RUNS))
def test_completion_exponentiates_each_wall_once(tmp_path, monkeypatch, capsys, run):
    # one exponential series per line, for both of its rays, and one per
    # merge (the correction's, when bch composes and keeps the merged
    # product; the sum's, when commuting logs merge by addition); none per
    # produced ray, whose log keeps the peeled element and its inverse, and
    # none again in the consistency check
    computed, merges, (completed,) = _run_counted(monkeypatch, capsys, tmp_path, run)
    lines = sum(w.kind is WallKind.LINE for w in completed.walls)
    assert computed <= lines + merges


@pytest.mark.parametrize("run", sorted(_COUNTED_RUNS))
def test_cached_automorphisms_hold_no_power_table(tmp_path, monkeypatch, capsys, run):
    # a log keeps its exponential for as long as it lives, and a line's
    # negated log the inverse, so the powers their action needs must not
    # stay behind on them
    _computed, _merges, (completed,) = _run_counted(monkeypatch, capsys, tmp_path, run)
    for w in completed.walls:
        logs = (w.logf, -w.logf) if w.kind is WallKind.LINE else (w.logf,)
        for x in logs:
            g = vars(x)["_exp"]
            assert g is exp(x)
            assert not getattr(g, "_pow_cache", None)


@pytest.mark.parametrize("run", sorted(_COUNTED_RUNS))
def test_check_of_a_completion_computes_no_inverse_exponential(tmp_path, monkeypatch, capsys, run):
    # check tests H == G on the completed diagram: every exponential series
    # it computes sums one coefficient function, exp(x), never exp(-x)
    command, doc = _COUNTED_RUNS[run]
    src, out = tmp_path / "input.json", tmp_path / "completed.json"
    src.write_text(json.dumps(doc))
    assert cli.main([command, str(src), "--output", str(out)]) == 0
    computed = vertexlie._exponential_series
    coeffs = []

    def recorded(x, fns):
        coeffs.append(len(fns))
        return computed(x, fns)

    monkeypatch.setattr(vertexlie, "_exponential_series", recorded)
    assert cli.main(["check", str(out)]) == 0
    assert capsys.readouterr().out.endswith("consistent\n")
    assert coeffs and coeffs == [1] * len(coeffs)


def _assert_central_ray_matches_its_closed_form(m, N):
    # every term of the (1,1) ray of the m-Kronecker diagram up to t^N,
    # against a closed form computed with no engine code (reference_quiver):
    # an order the benchmark's workloads (N <= 7) never reach
    completed = complete(serialize.diagram_from_json(kronecker_doc(m, m, N)))
    n = primitive_normal((1, 1))
    expected = {((k, k), 2 * k): (mat_zero(1), (c * n[0], c * n[1]))
                for k, c in central_ray_normal_coefficients(m, N // 2).items()}
    assert dict(completed.wall_in_direction((1, 1)).logf.terms) == expected


@pytest.mark.parametrize("m", range(2, 7))
def test_kronecker_central_ray_matches_its_closed_form_at_order_32(m):
    _assert_central_ray_matches_its_closed_form(m, 32)


@pytest.mark.parametrize("m", [2, 3])
def test_kronecker_central_ray_matches_its_closed_form_at_order_64(m):
    # only m = 2 and 3, which complete in about a second or less at N = 64
    _assert_central_ray_matches_its_closed_form(m, 64)


def test_the_kronecker_oracle_reads_the_known_euler_characteristics():
    # chi of M^st_(a,b)(K_3) at (2,3) ... (5,6); P^(m-1) at (1,1), a point
    # at (1,0), and no stable representation of K_2 at (1,3)
    chi = kronecker_euler_characteristic
    assert [chi(3, a, a + 1) for a in range(2, 6)] == [13, 68, 399, 2530]
    assert [chi(m, 1, 1) for m in (2, 3, 4, 5)] == [2, 3, 4, 5]
    assert chi(4, 1, 0) == chi(4, 0, 1) == 1
    assert chi(2, 1, 3) == 0


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_every_coprime_kronecker_ray_matches_its_euler_characteristic(m):
    # the normal coefficient at every coprime (a, b) with a + b <= 11, at
    # t-degree a + b, is (-1)^(a+b+1) m chi(M^st_(a,b)(K_m)), computed with
    # no engine code (reference_quiver); a missing ray reads 0
    N = 11
    completed = complete(serialize.diagram_from_json(kronecker_doc(m, m, N)))
    terms = {w.direction: w.logf.terms for w in completed.walls}
    found, expected = {}, {}
    for s in range(1, N + 1):
        for a in range(s + 1):
            if gcd(a, s - a) != 1:
                continue
            p = (a, s - a)
            _a, d = terms.get(p, {}).get((p, s), (None, (0, 0)))
            n = primitive_normal(p)
            found[p] = d[0] / n[0] if n[0] else d[1] / n[1]
            expected[p] = (-1) ** (s + 1) * m * kronecker_euler_characteristic(m, *p)
    assert found == expected


# -- the lines' product G is built once per diagram -----------------------------------


def _random_r3_doc(seed):
    """Two rank-3 lines at N = 4, matrix and derivation parts at (t, k) = (1, 1) and (2, 1)."""
    rng = random.Random(seed)

    def entry(nonzero=False):
        while True:
            c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            if c or not nonzero:
                return str(c)

    walls = [{"direction": list(d), "geometry": "line", "terms": [
        {"t": t, "k": 1, "matrix": [[entry() for _ in range(3)] for _ in range(3)],
         "derivation": entry(nonzero=True)} for t in (1, 2)]} for d in ((1, 0), (0, 1))]
    return {"rank": 3, "truncation": 4, "walls": walls}


@pytest.mark.parametrize("doc", [kronecker_doc(2, 3, 7), _random_r3_doc(3901)],
                         ids=["kronecker-2-3", "random-r3"])
def test_a_completion_composes_the_lines_product_once(doc, tmp_path, monkeypatch, capsys):
    # with W walls out, complete composes G of the two lines once, peels W - 1
    # rays off it and checks H == G by the W - 1 composes of H alone, as the
    # completion carries its G; check of the written file builds G again
    src, out = tmp_path / "input.json", tmp_path / "completed.json"
    src.write_text(json.dumps(doc))
    calls, composed = [], scattering.compose

    def counted(g1, g2):
        calls.append(None)
        return composed(g1, g2)

    monkeypatch.setattr(scattering, "compose", counted)
    assert cli.main(["complete", str(src), "--output", str(out)]) == 0
    walls, completing = len(json.loads(out.read_text())["walls"]), len(calls)
    calls.clear()
    assert cli.main(["check", str(out)]) == 0
    assert capsys.readouterr().out.endswith("consistent\n")
    assert walls > 2
    assert (completing, len(calls)) == (2 * walls - 1, walls)


def _sector_line_product(d):
    """G as the lines filtered out of the sector order of all walls, in reverse, composed."""
    order = half_plane_order([w.direction for w in d.walls])
    walls = {w.direction: w for w in d.walls}
    g = AutPair.identity(d.ctx)
    for p in order:
        if walls[p].kind is WallKind.LINE:
            g = compose(exp(walls[p].logf), g)
    return g


def _two_line_diagrams():
    """The six fixtures, then eight random two-line diagrams (ranks 1-3, N 3-5)."""
    for name in sorted(cli.FIXTURES):
        yield fixture_diagram(name)
    rng = random.Random(20261021)
    cases = 0
    while cases < 8:
        ctx = TruncationContext(rng.randint(3, 5), rng.randint(1, 3))
        walls = tuple(Wall(p, WallKind.LINE, rand_wall_log(ctx, rng, p)) for p in ((1, -1), (1, 1)))
        if all(not w.logf.is_zero() for w in walls):
            cases += 1
            yield Diagram(ctx, walls)


def test_a_completion_carries_the_line_product_it_factored():
    for d in _two_line_diagrams():
        for _ in range(2):  # the diagram, then its completion
            completed = complete(d)
            assert completed.line_product is d.line_product
            fresh = Diagram(completed.ctx, completed.walls)
            assert fresh._line_product is None
            assert fresh.line_product == completed.line_product == _sector_line_product(completed)
            d = completed


def test_the_line_product_skips_rays_before_between_and_after_the_lines():
    rng = random.Random(20261022)
    rays = ((2, -1), (1, 1), (-1, 2))
    for lines in (((1, 0), (0, 1)), ((1, 0), (1, 2), (0, 1))):
        order = half_plane_order(list(rays + lines))
        assert (order[0], order[-1]) == ((2, -1), (-1, 2))  # a ray before the lines, one after
        assert order.index(lines[0]) < order.index((1, 1)) < order.index(lines[-1])
        for _ in range(4):
            ctx = TruncationContext(rng.randint(2, 4), rng.randint(1, 3))
            walls = [Wall(p, WallKind.LINE, rand_wall_log(ctx, rng, p, terms=3)) for p in lines]
            walls += [Wall(p, WallKind.RAY, rand_wall_log(ctx, rng, p)) for p in rays]
            rng.shuffle(walls)
            d = Diagram(ctx, tuple(walls))
            only_lines = Diagram(ctx, tuple(w for w in d.walls if w.kind is WallKind.LINE))
            assert d.line_product == _sector_line_product(d) == only_lines.line_product


def test_a_changed_completion_rebuilds_the_line_product():
    rng = random.Random(20261023)
    completed = complete(fixture_diagram("example2"))
    g = completed.line_product
    line = completed.wall_in_direction((0, 1))
    extra = Wall(line.direction, WallKind.LINE, rand_wall_log(completed.ctx, rng, line.direction))
    doubled = Wall(line.direction, WallKind.LINE, line.logf.scale(2))
    for changed in (merge_wall(completed, extra),
                    replace(completed, walls=tuple(doubled if w is line else w
                                                   for w in completed.walls))):
        assert changed._line_product is None
        assert changed.line_product == _sector_line_product(changed)
        assert changed.line_product != g
    assert completed.line_product is g
