"""``complete`` and ``path_ordered_product`` against the slow reference.

The reference (``reference_completion.py``) completes order by order: it
composes left to right at full order and takes its unbounded
``reference_log`` every round.  The engine composes right to left and
factors the lines' product over the sector, ray by ray, with a ``log`` of
one ray at a time.  Their serialized results, wall order included, and
their errors must agree, and the two logarithms must agree on any product.
The product modulo t^(k+1) must equal the product of the diagram whose wall
logs were truncated there first.

``reference_action.py`` acts the loop out wall by wall in closed form, as
z^m exp(h_m) on the ring and exp(A) on the sections, on Fraction dicts.  It
calls none of ``exp``, ``exp_pair``, ``compose``, ``log`` or the actions of
an ``AutPair``, so a fault in the group law cannot hide in both sides.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    fixture_diagram, images_of, kronecker_doc, rand_lie, rand_wall_log, truncated, truncated_aut,
)
from reference_action import reference_images, reference_product
from reference_bracket import bracket
from reference_completion import (
    fresh_exp,
    reference_complete,
    reference_log,
    reference_path_ordered_product,
)
from wallcross import cli, report, scattering, serialize, series, vertexlie
from wallcross.exceptions import ConventionError
from wallcross.groupoid import KFactor, k_wall_log
from wallcross.lattice import WallKind, half_plane_order, primitive_normal, primitive_part
from wallcross.scattering import Diagram, Wall, complete, is_consistent, path_ordered_product
from wallcross.series import TruncationContext
from wallcross.vertexlie import AutPair, LieElem, compose, elementary, exp, log, mat_zero


def _dump(d: Diagram) -> str:
    return serialize.dumps(serialize.diagram_to_json(d))


@pytest.mark.parametrize("name", sorted(cli.FIXTURES))
def test_complete_matches_reference_on_fixtures(name):
    d = fixture_diagram(name)
    assert path_ordered_product(d) == reference_path_ordered_product(d)
    assert _dump(complete(d)) == _dump(reference_complete(d))


def _random_two_line_diagrams(seed, count=40):
    """``count`` diagrams of two lines with random nonzero logs, rank 1-3, N 2-6."""
    rng = random.Random(seed)
    pairs = [((1, 0), (0, 1)), ((1, -1), (1, 1)), ((2, 1), (-1, 2)), ((0, -1), (1, 0))]
    cases = 0
    while cases < count:
        ctx = TruncationContext(rng.randint(2, 6), rng.randint(1, 3))
        da, db = rng.choice(pairs)
        la = rand_wall_log(ctx, rng, da)
        lb = rand_wall_log(ctx, rng, db)
        if la.is_zero() or lb.is_zero():
            continue
        cases += 1
        yield Diagram(ctx, (Wall(da, WallKind.LINE, la), Wall(db, WallKind.LINE, lb)))


def test_complete_matches_reference_on_random_two_line_diagrams():
    inconsistent = 0
    for d in _random_two_line_diagrams(20261018):
        product = path_ordered_product(d)
        assert product == reference_path_ordered_product(d)
        inconsistent += not product.is_identity()
        assert _dump(complete(d)) == _dump(reference_complete(d))
    assert inconsistent >= 30


def _assert_loop_matches_the_action_oracle(d):
    images, gauge = images_of(path_ordered_product(d))
    expected_images, expected_gauge = reference_images(d)
    assert [f.fractions() for f in images] == expected_images
    assert [[f.fractions() for f in row] for row in gauge.rows] == expected_gauge


@pytest.mark.parametrize("name", sorted(cli.FIXTURES))
def test_the_loop_matches_the_action_oracle_on_fixtures_and_completions(name):
    top = 5 if cli.FIXTURES[name][0] == "bps" else 4
    for order in range(2, top + 1):
        d = fixture_diagram(name, order)
        _assert_loop_matches_the_action_oracle(d)
        _assert_loop_matches_the_action_oracle(complete(d))


def test_the_loop_matches_the_action_oracle_on_random_two_line_diagrams():
    for d in _random_two_line_diagrams(20261021):
        _assert_loop_matches_the_action_oracle(d)


@pytest.mark.parametrize("omegas", [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)])
def test_the_loop_matches_the_action_oracle_on_kronecker_lines(omegas):
    for order in (3, 8):
        _assert_loop_matches_the_action_oracle(
            serialize.diagram_from_json(kronecker_doc(*omegas, order)))


def _assert_defect_products_match_the_action_oracle(d):
    # defect tests H == G: H the walls' own exponentials in sector order, G
    # the lines' in reverse sector order, carried by a completion and built
    # once by any other diagram
    built = []

    def recording(ctx, factors):
        built.append(product(ctx, factors))
        return built[-1]

    product, carried = scattering._product, d._line_product
    with mock.patch.object(scattering, "_product", recording):
        consistent = scattering.defect(d) is None
    h = built[0]
    assert len(built) == 1 + (carried is None)
    walls = {w.direction: w for w in d.walls}
    order = half_plane_order(list(walls))
    expected_h = reference_product(d.ctx, [(walls[p].logf, 1) for p in order])
    expected_g = reference_product(d.ctx, [(walls[p].logf, 1) for p in reversed(order)
                                           if walls[p].kind is WallKind.LINE])
    for g, expected in ((h, expected_h), (d.line_product, expected_g)):
        images, gauge = images_of(g)
        assert ([f.fractions() for f in images],
                [[f.fractions() for f in row] for row in gauge.rows]) == expected
    assert consistent is (expected_h == expected_g)


@pytest.mark.parametrize("name", sorted(cli.FIXTURES))
def test_defect_products_match_the_action_oracle_on_fixtures_and_completions(name):
    top = 5 if cli.FIXTURES[name][0] == "bps" else 4
    for order in range(2, top + 1):
        d = fixture_diagram(name, order)
        completed = complete(d)
        assert completed.line_product is d.line_product
        _assert_defect_products_match_the_action_oracle(completed)
        _assert_defect_products_match_the_action_oracle(fixture_diagram(name, order))


def test_defect_products_match_the_action_oracle_on_random_two_line_diagrams():
    for d in _random_two_line_diagrams(20261021):
        _assert_defect_products_match_the_action_oracle(d)


def test_defect_products_match_the_action_oracle_on_kronecker_lines():
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            _assert_defect_products_match_the_action_oracle(
                serialize.diagram_from_json(kronecker_doc(a, b, 10)))


def _assert_rounds_match_truncated_diagrams(d):
    # for every k, the product modulo t^(k+1) is the product of the wall
    # logs truncated there: truncation commutes with exp and compose
    product = path_ordered_product(d)
    for k in range(1, d.ctx.order + 1):
        ctx = TruncationContext(k, d.ctx.rank)
        cut = Diagram(ctx, tuple(Wall(w.direction, w.kind, truncated(w.logf, ctx)) for w in d.walls))
        assert truncated_aut(product, ctx) == path_ordered_product(cut)


@pytest.mark.parametrize("name", sorted(cli.FIXTURES))
def test_round_products_match_the_truncated_diagrams_on_fixtures(name):
    # the completed diagram's rays carry the automorphisms that the peel
    # reduced from the lines' product, or that bch composed for the lines
    d = fixture_diagram(name)
    _assert_rounds_match_truncated_diagrams(d)
    _assert_rounds_match_truncated_diagrams(complete(d))


def test_round_products_match_the_truncated_diagrams_on_random_two_line_diagrams():
    for d in _random_two_line_diagrams(20261019):
        _assert_rounds_match_truncated_diagrams(d)
        _assert_rounds_match_truncated_diagrams(complete(d))


def _assert_inverses_are_exact(d):
    # each wall of the completion carries exactly the fresh exponentials:
    # a produced ray the element log peeled, with the inverse log summed
    # alongside it; a line both of its automorphisms, from one series
    for w in complete(d).walls:
        x = w.logf
        if w.kind is WallKind.LINE:
            # complete ran exp_pair on each line before it read G, which kept both on the log
            assert "_exp" in vars(x) and "_exp" in vars(-x)
        g = exp(x)
        assert g == fresh_exp(x)
        inverse = exp(-x)
        assert inverse == fresh_exp(-x)
        assert compose(inverse, g).is_identity()


@pytest.mark.parametrize("name", sorted(cli.FIXTURES))
def test_kept_inverses_are_exact_on_fixtures(name):
    _assert_inverses_are_exact(fixture_diagram(name))


@pytest.mark.parametrize("order", [4, 7, 10])
@pytest.mark.parametrize("omegas", [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)])
def test_kept_inverses_are_exact_on_kronecker_lines(omegas, order):
    _assert_inverses_are_exact(serialize.diagram_from_json(kronecker_doc(*omegas, order)))


def test_log_keeps_the_exact_inverse_of_a_path_ordered_product():
    # the product of two rays (every frequency in one open half-plane, so
    # it has a log) is no ray's element
    for d in _random_two_line_diagrams(20261022, count=20):
        rays = Diagram(d.ctx, tuple(Wall(w.direction, WallKind.RAY, w.logf) for w in d.walls))
        g = path_ordered_product(rays)
        x = log(g)
        assert len({primitive_part(m) for m in x.frequencies()}) > 1
        inverse = exp(-x)
        assert inverse == fresh_exp(-x)
        assert compose(inverse, g).is_identity()
        assert compose(g, inverse).is_identity()


def _raise_order(x: LieElem, k: int) -> LieElem:
    """Keep the terms of t-degree >= k."""
    return LieElem.from_terms(x.ctx, {key: v for key, v in x.terms.items() if key[1] >= k})


def test_log_matches_the_unbounded_reference_log():
    rng = random.Random(7)
    directions = ((1, 0), (0, 1), (1, 1), (2, 1))
    nonzero = 0
    for _ in range(36):
        s = rng.choice((1, 2, 3))
        ctx = TruncationContext(rng.randint(s, 6), rng.randint(1, 3))
        x = _raise_order(rand_lie(ctx, rng, directions, terms=4), s)
        y = _raise_order(rand_lie(ctx, rng, directions, terms=4), s)
        g = compose(exp(x), exp(y))
        expected = reference_log(g)
        assert log(g) == expected
        nonzero += not expected.is_zero()
    assert nonzero >= 24


def _s_only(ctx, rng, directions, s):
    """A matrix-only element with strictly upper triangular parts of t-order >= s."""
    r = ctx.rank
    terms = {}
    for _ in range(3):
        d = rng.choice(directions)
        i = rng.randrange(r - 1)
        a = elementary(r, i, rng.randrange(i + 1, r), rng.choice((-2, -1, 1, 3)))
        terms[(d, rng.randint(s, ctx.order))] = (a, (0, 0))
    return LieElem.from_terms(ctx, terms)


def _count_calls(monkeypatch, *names):
    """Record each call of the named AutPair methods, in one list."""
    calls = []
    for name in names:
        def counted(self, *args, _name=name, _method=getattr(AutPair, name)):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(AutPair, name, counted)
    return calls


def test_log_of_a_round_product_is_its_linear_part(monkeypatch):
    # g - 1 of t-order s = N: the series stops after N // s = 1 term, which
    # is read off the generator images and the gauge without applying g
    ctx = TruncationContext(3, 2)
    x = LieElem.single(ctx, (1, 0), 3, matrix=elementary(2, 0, 1, 1), dvec=(0, 2))
    y = LieElem.single(ctx, (1, 2), 3, matrix=elementary(2, 1, 0, -1))
    g = compose(exp(x), exp(y))
    calls = _count_calls(monkeypatch, "apply_ring", "apply_section")
    assert log(g) == x + y
    assert calls == []


def test_log_of_nilpotent_s_products_stops_on_a_zero_term(monkeypatch):
    # sigma is the identity and the gauge is I + (strictly upper triangular),
    # so (g - 1)^r = 0 and the series ends before its N // s bound
    rng = random.Random(11)
    directions = ((1, 0), (0, 1), (1, 1))
    for _ in range(12):
        s = rng.choice((1, 2))
        ctx = TruncationContext(8, 3)
        g = compose(exp(_s_only(ctx, rng, directions, s)), exp(_s_only(ctx, rng, directions, s)))
        expected = reference_log(g)
        with monkeypatch.context() as patch:
            calls = _count_calls(patch, "apply_section")
            assert log(g) == expected
        # at most r - 1 further powers per column, against N // s - 1 without the exit
        assert len(calls) <= ctx.rank * (ctx.rank - 1) < ctx.rank * (ctx.order // s - 1)

    ctx = TruncationContext(6, 3)
    x = LieElem.single(ctx, (1, 0), 1, matrix=elementary(3, 0, 1, 1))
    y = LieElem.single(ctx, (0, 1), 1, matrix=elementary(3, 1, 2, -2))
    # [x, [x, y]] = [y, [x, y]] = 0: the BCH series ends at the first bracket
    assert log(compose(exp(x), exp(y))) == x + y + bracket(x, y).scale(Fraction(1, 2))


# -- the peel against the order-by-order reference, wall order and errors included --


def _outcome(complete_fn, d):
    """The walls' directions in output order and the serialized diagram, or the error."""
    try:
        c = complete_fn(d)
    except ConventionError as e:
        return type(e), str(e)
    return [w.direction for w in c.walls], _dump(c)


def _assert_matches_reference(d):
    expected = _outcome(reference_complete, d)
    assert _outcome(complete, d) == expected
    return expected


_CONES = (((1, 0), (0, 1)), ((1, -1), (1, 1)), ((2, 1), (-1, 2)), ((0, -1), (1, 0)),
          ((-1, -2), (1, -1)))


@st.composite
def _two_lines(draw, max_order):
    """Two lines on a cone pair, det(a, b) > 0, random nonzero logs at rank 1-3."""
    ctx = TruncationContext(draw(st.integers(2, max_order)), draw(st.integers(1, 3)))
    a, b = draw(st.sampled_from(_CONES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    la, lb = rand_wall_log(ctx, rng, a), rand_wall_log(ctx, rng, b)
    assume(not la.is_zero() and not lb.is_zero())
    if draw(st.booleans()):  # the lines in the other input order
        return Diagram(ctx, (Wall(b, WallKind.LINE, lb), Wall(a, WallKind.LINE, la)))
    return Diagram(ctx, (Wall(a, WallKind.LINE, la), Wall(b, WallKind.LINE, lb)))


@given(_two_lines(max_order=6))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_peel_matches_the_reference_on_two_lines(d):
    walls, _text = _assert_matches_reference(d)
    # the lines keep their input order ahead of the produced rays
    assert walls[:2] == [w.direction for w in d.walls]


def _s_log(ctx, m, i, j, c, degree):
    return LieElem.single(ctx, m, degree, matrix=elementary(ctx.rank, i, j, c))


# (a, middle, b) with a + b on the middle line
_THREE_LINES = (((1, 0), (1, 1), (0, 1)), ((1, -1), (1, 0), (1, 1)), ((2, 1), (1, 3), (-1, 2)),
                ((0, -1), (1, -1), (1, 0)))
_COEFF = st.sampled_from((-2, -1, Fraction(1, 2), 1, 3))


@given(st.sampled_from(_THREE_LINES), _COEFF, _COEFF, _COEFF, st.integers(1, 2), st.integers(3, 5))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_peel_keeps_a_middle_line_that_matches_its_factor(lines, ca, cm, cb, degree, order):
    # E_12 parts commute, and a K-type middle line moves them only off its
    # own ray, so its factor is its log; new rays appear between the lines
    a, mid, b = lines
    ctx = TruncationContext(order, 3)
    d = Diagram(ctx, (
        Wall(a, WallKind.LINE, _s_log(ctx, a, 0, 1, ca, degree)),
        Wall(mid, WallKind.LINE, k_wall_log(ctx, KFactor(mid, cm))),
        Wall(b, WallKind.LINE, _s_log(ctx, b, 0, 1, cb, 1)),
    ))
    walls, _text = _assert_matches_reference(d)
    assert walls[:3] == [a, mid, b] and len(walls) > 3


@given(st.sampled_from(_THREE_LINES), _COEFF, _COEFF, _COEFF, st.integers(1, 2), st.integers(1, 2))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_peel_flags_a_middle_line_whose_factor_differs(lines, ca, cm, cb, ja, jb):
    # [E_23 z^b, E_12 z^a] = -E_13 z^(a+b) lands on the middle line at
    # degree ja + jb, where its K-type log has no matrix part
    a, mid, b = lines
    ctx = TruncationContext(ja + jb + 1, 3)
    d = Diagram(ctx, (
        Wall(mid, WallKind.LINE, k_wall_log(ctx, KFactor(mid, cm))),
        Wall(a, WallKind.LINE, _s_log(ctx, a, 0, 1, ca, ja)),
        Wall(b, WallKind.LINE, _s_log(ctx, b, 1, 2, cb, jb)),
    ))
    assert _assert_matches_reference(d) == (ConventionError, (
        f"defect at degree {ja + jb} lies on the line direction {mid}; "
        "single-vertex completion supports corrections on rays only"))


@pytest.mark.parametrize("order, middle", [
    (3, {1: 1}),
    (8, {1: 1, 2: Fraction(-9, 2), 3: Fraction(136, 3), 4: Fraction(-2953, 4)}),
])
def test_peel_flags_a_middle_line_whose_factor_is_the_identity(monkeypatch, order, middle):
    # lines (1,0) and (0,1) with log sum_l (1/l) t^l z^(l gamma) d_n and a
    # middle line c_k t^(2k) z^(k,k) d_n, with c_k chosen so that the lines'
    # product has no factor on (1,1): the peel never reaches the middle line,
    # whose factor, the identity, differs from its log at t-order 2
    ctx = TruncationContext(order, 1)
    n = primitive_normal((1, 1))
    mid = LieElem.from_terms(ctx, {((k, k), 2 * k): (mat_zero(1), (c * n[0], c * n[1]))
                                   for k, c in middle.items()})
    d = Diagram(ctx, (
        Wall((1, 0), WallKind.LINE, k_wall_log(ctx, KFactor((1, 0), 1))),
        Wall((1, 1), WallKind.LINE, mid),
        Wall((0, 1), WallKind.LINE, k_wall_log(ctx, KFactor((0, 1), 1))),
    ))
    logged = []

    def recording_log(g):
        logged.extend(primitive_part(m) for m in g.relative_frequencies() if m != (0, 0))
        return log(g)

    monkeypatch.setattr(scattering, "log", recording_log)
    assert _assert_matches_reference(d) == (ConventionError, (
        "defect at degree 2 lies on the line direction (1, 1); "
        "single-vertex completion supports corrections on rays only"))
    assert logged and (1, 1) not in logged


@pytest.mark.parametrize("ray_degree, expected", [
    (1, "the correction at degree 1 changes the initial ray (1, -1)"),
    (3, "defect at degree 2 lies on the line direction (1, 1)"),
])
def test_peel_raises_the_lowest_degree_error_first(ray_degree, expected):
    # the middle line's defect appears at degree 2, and the ray outside the
    # cone, whose factor is the identity, differs from it at its own degree:
    # the lower degree is reported, as the order-by-order reference meets it
    # first
    ctx = TruncationContext(4, 3)
    d = Diagram(ctx, (
        Wall((1, 0), WallKind.LINE, _s_log(ctx, (1, 0), 0, 1, 1, 1)),
        Wall((1, 1), WallKind.LINE, k_wall_log(ctx, KFactor((1, 1), 1))),
        Wall((0, 1), WallKind.LINE, _s_log(ctx, (0, 1), 1, 2, 1, 1)),
        Wall((1, -1), WallKind.RAY, _s_log(ctx, (1, -1), 0, 2, 1, ray_degree)),
    ))
    error, message = _assert_matches_reference(d)
    assert error is ConventionError and message.startswith(expected)


def _without_ray_directions(d, completed):
    """Primitive directions inside and outside the lines' cone that carry no wall."""
    a, b = (w.direction for w in d.walls)
    taken = {w.direction for w in completed.walls}
    inside = [primitive_part((i * a[0] + j * b[0], i * a[1] + j * b[1]))
              for i, j in ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3))]
    outside = [primitive_part((a[0] - b[0], a[1] - b[1])), primitive_part((b[0] - a[0], b[1] - a[1]))]
    return [p for p in inside if p not in taken], outside


@given(
    _two_lines(max_order=4),
    st.lists(st.sampled_from(["equal", "partial", "inside", "outside"]), min_size=1, max_size=2),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_peel_matches_the_reference_with_initial_rays(d, kinds, seed):
    # a ray equal to its factor is kept in place; a completion changes no
    # initial wall, so a partial one (the shape of
    # test_recompletion_rejects_partial_ray: part of the factor's lowest
    # degree) and a ray on a direction with no factor, inside or outside
    # the cone, are errors (exit 3)
    rng = random.Random(seed)
    completed = complete(d)
    produced = completed.walls[2:]
    inside, outside = _without_ray_directions(d, completed)
    rays = {}
    for kind in kinds:
        if kind in ("equal", "partial") and produced:
            w = rng.choice(produced)
            x = w.logf
            if kind == "partial":
                x = x.degree_part(x.t_order()).scale(rng.choice((Fraction(1, 2), -1, 2)))
            rays[w.direction] = kind, x
        elif kind in ("inside", "outside"):
            choices = inside if kind == "inside" else outside
            if choices:
                p = rng.choice(choices)
                rays[p] = kind, rand_wall_log(d.ctx, rng, p)
                if kind == "outside":
                    outside = []  # a - b and b - a together span no half-plane
    rays = {p: (kind, x) for p, (kind, x) in rays.items() if not x.is_zero()}
    seeded = Diagram(d.ctx, d.walls + tuple(Wall(p, WallKind.RAY, x)
                                            for p, (_kind, x) in rays.items()))
    expected = _assert_matches_reference(seeded)
    if any(kind != "equal" for kind, _x in rays.values()):
        assert expected[0] is ConventionError
        assert "changes the initial ray" in expected[1]
    else:
        # the initial walls first, in input order, then the other produced rays
        walls = [w.direction for w in seeded.walls]
        assert expected[0] == walls + [w.direction for w in produced if w.direction not in rays]
        assert expected[1] == _dump(completed)


# -- is_consistent, H == G over the half-plane, against the whole loop --


def _consistent_both_ways(d):
    """``is_consistent(d)``, asserted equal to the whole loop's verdict.

    ``defect(d)`` is asserted to agree: None exactly for a consistent
    diagram, and with a half-plane the lowest-degree part of the loop's
    log, so ``check``'s report reads the same from either.
    """
    consistent = is_consistent(d)
    loop = path_ordered_product(d)
    found = scattering.defect(d)
    assert consistent == loop.is_identity() == (found is None)
    if found is not None and half_plane_order([w.direction for w in d.walls]) is not None:
        x = log(loop)
        lowest = x.degree_part(x.t_order())
        assert found == lowest
        assert report.defect_report(found) == report.defect_report(lowest)
    return consistent


def _with_top_term_changed(completed, p):
    """``completed`` with the top-degree term of the ray on ``p`` doubled."""
    walls = []
    for w in completed.walls:
        if w.direction == p:
            x = w.logf
            w = Wall(p, w.kind, x + x.degree_part(x.t_degree()))
        walls.append(w)
    return Diagram(completed.ctx, tuple(walls))


@pytest.mark.parametrize("name", sorted(cli.FIXTURES))
def test_consistency_matches_the_loop_on_fixtures(name):
    d = fixture_diagram(name)
    completed = complete(d)
    assert _consistent_both_ways(completed)
    assert not _consistent_both_ways(d)
    for w in completed.walls[len(d.walls):]:
        assert not _consistent_both_ways(_with_top_term_changed(completed, w.direction))


@given(_two_lines(max_order=6))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_consistency_matches_the_loop_on_two_lines(d):
    # the cones include (1,-1)/(1,1), which holds the +x axis: the sector
    # order then starts elsewhere than the loop
    _consistent_both_ways(d)
    completed = complete(d)
    assert _consistent_both_ways(completed)
    produced = completed.walls[2:]
    if produced:
        changed = _with_top_term_changed(completed, produced[-1].direction)
        assert not _consistent_both_ways(changed)
        assert not _consistent_both_ways(Diagram(d.ctx, completed.walls[:-1]))


@given(_two_lines(max_order=4), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_consistency_matches_the_loop_with_initial_rays(d, seed):
    # a produced ray alone beside the lines, and a ray off the lines' cone
    # (a - b, still in one half-plane with them) beside the completion
    rng = random.Random(seed)
    completed = complete(d)
    for w in completed.walls[2:]:
        _consistent_both_ways(Diagram(d.ctx, d.walls + (w,)))
    a, b = (w.direction for w in d.walls)
    p = primitive_part((a[0] - b[0], a[1] - b[1]))
    x = rand_wall_log(d.ctx, rng, p)
    assume(not x.is_zero())
    seeded = Diagram(d.ctx, completed.walls + (Wall(p, WallKind.RAY, x),))
    assert half_plane_order([w.direction for w in seeded.walls]) is not None
    assert not _consistent_both_ways(seeded)


@pytest.mark.parametrize("rank", [1, 2])
def test_consistency_matches_the_loop_with_no_half_plane(rank):
    # three lines around the origin span no half-plane, so is_consistent
    # takes the whole loop: diagonal matrix parts with no derivation commute,
    # and the loop crosses each line's theta and its inverse
    ctx = TruncationContext(4, rank)
    directions = ((1, 0), (0, 1), (-1, -1))
    diagonal = tuple(tuple(Fraction(i + 1) if i == j else 0 for j in range(rank))
                     for i in range(rank))
    commuting = Diagram(ctx, tuple(
        Wall(m, WallKind.LINE, LieElem.single(ctx, m, j, matrix=diagonal))
        for j, m in enumerate(directions, 1)))
    assert half_plane_order(list(directions)) is None
    assert _consistent_both_ways(commuting)
    k_lines = Diagram(ctx, tuple(Wall(m, WallKind.LINE, k_wall_log(ctx, KFactor(m, 1)))
                                 for m in directions))
    assert not _consistent_both_ways(k_lines)
    assert _consistent_both_ways(Diagram(ctx, ()))


def _inconsistent_inputs():
    for name in ("pentagon", "rand1", "rand2", "rand3"):
        yield name, fixture_diagram(name)
    for i, d in enumerate(_random_two_line_diagrams(20261025, count=12)):
        yield f"two-lines-{i}", d


def _quick_inconsistent_inputs():
    """Small diagrams whose ``check`` exits 1: a lone ray, two lines, two gauge lines."""
    ctx = TruncationContext(4, 1)
    yield "lone-ray", Diagram(ctx, (Wall((1, 0), WallKind.RAY, k_wall_log(ctx, KFactor((1, 0), 1))),))
    yield "opposite-quadrant-lines", Diagram(ctx, tuple(
        Wall(m, WallKind.LINE, k_wall_log(ctx, KFactor(m, 1))) for m in ((-1, 0), (0, -1))))
    ctx = TruncationContext(3, 2)
    yield "rank-2-gauge-lines", Diagram(ctx, (
        Wall((1, 0), WallKind.LINE, LieElem.single(ctx, (1, 0), 1, matrix=elementary(2, 0, 1))),
        Wall((0, 1), WallKind.LINE, LieElem.single(ctx, (0, 1), 1, matrix=elementary(2, 1, 0))),
    ))


def test_check_reports_the_defect_of_the_whole_loop(tmp_path, capsys, monkeypatch):
    # check decides by H == G and reads its defect report off H - G: the
    # reference loop's log gives the same text.  It computes no loop, no
    # log and no exp(-x): every exponential series has one coefficient.
    widths = []
    routine = series._operator_series

    def recorded(step, v, coeffs, steps):
        widths.append(len(coeffs))
        return routine(step, v, coeffs, steps)

    def forbidden(*_args):
        raise AssertionError("an inconsistent check composed the whole loop or took a log")

    monkeypatch.setattr(series, "_operator_series", recorded)
    monkeypatch.setattr(vertexlie, "_operator_series", recorded)
    monkeypatch.setattr(scattering, "path_ordered_product", forbidden)
    monkeypatch.setattr(vertexlie, "log", forbidden)
    seen = 0
    for name, d in [*_quick_inconsistent_inputs(), *_inconsistent_inputs()]:
        reference = reference_path_ordered_product(d)
        if reference.is_identity():
            continue
        x = log(reference)
        expected = report.defect_report(x.degree_part(x.t_order()))
        path = tmp_path / f"{name}.json"
        path.write_text(_dump(d))
        widths.clear()
        code = cli.main(["check", str(path)])
        out = capsys.readouterr().out
        assert (code, out) == (cli.EXIT_INCONSISTENT, expected), name
        assert widths and set(widths) == {1}, name
        seen += 1
    assert seen >= 17
