"""``complete`` and ``path_ordered_product`` against the slow reference.

The reference (``reference_completion.py``) composes left to right at full
order and takes its unbounded ``reference_log`` every round; the engine
composes right to left, truncates round k to t^(k+1) and takes a ``log``
that stops after N // s terms.  Their serialized results must agree byte
for byte, and the two logarithms must agree on any product.  A round's
product, taken from the walls' full-order automorphisms truncated to
t^(k+1), must equal the product of the diagram whose wall logs were
truncated there first.
"""

import random
from fractions import Fraction

import pytest

from conftest import fixture_diagram, rand_lie, rand_wall_log, truncated
from reference_bracket import bracket
from reference_completion import (
    reference_complete,
    reference_log,
    reference_path_ordered_product,
)
from wallcross import cli, scattering, serialize
from wallcross.exceptions import ConventionError
from wallcross.lattice import WallKind
from wallcross.scattering import Diagram, Wall, complete, path_ordered_product
from wallcross.series import TruncationContext
from wallcross.vertexlie import AutPair, LieElem, compose, elementary, exp, log


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


def _assert_rounds_match_truncated_diagrams(d):
    for k in range(1, d.ctx.order + 1):
        ctx = TruncationContext(k, d.ctx.rank)
        cut = Diagram(ctx, tuple(Wall(w.direction, w.kind, truncated(w.logf, ctx)) for w in d.walls))
        assert path_ordered_product(d, k) == path_ordered_product(cut)


@pytest.mark.parametrize("name", sorted(cli.FIXTURES))
def test_round_products_match_the_truncated_diagrams_on_fixtures(name):
    # the completed diagram's rays carry automorphisms that bch composed or
    # that were exponentiated from a sum of commuting logs
    d = fixture_diagram(name)
    _assert_rounds_match_truncated_diagrams(d)
    _assert_rounds_match_truncated_diagrams(complete(d))


def test_round_products_match_the_truncated_diagrams_on_random_two_line_diagrams():
    for d in _random_two_line_diagrams(20261019):
        _assert_rounds_match_truncated_diagrams(d)
        _assert_rounds_match_truncated_diagrams(complete(d))


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
    # g - 1 of t-order N: the series stops after its first term, which is
    # read off the generator images and the gauge without applying g
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


def test_complete_rejects_a_round_that_is_not_the_identity_below_its_degree(monkeypatch):
    # with every correction dropped, the degree-2 defect of round 2 is still
    # there in round 3, whose product must be the identity modulo t^3
    d = fixture_diagram("example1")
    monkeypatch.setattr(scattering, "merge_wall", lambda d, w: d)
    with pytest.raises(ConventionError, match=r"modulo t\^3: a term of degree 2"):
        complete(d)
