"""``complete`` and ``path_ordered_product`` against the slow reference.

The reference (``reference_completion.py``) composes left to right at full
order and takes a full ``log`` every round; the engine composes right to
left, truncates round k to t^(k+1) and reads the defect linearly.  Their
serialized results must agree byte for byte.
"""

import json
import random
from pathlib import Path

import pytest

from conftest import rand_lie, rand_wall_log
from reference_completion import reference_complete, reference_path_ordered_product
from wallcross import cli, groupoid, serialize
from wallcross.exceptions import ConventionError
from wallcross.lattice import WallKind
from wallcross.scattering import Diagram, Wall, complete, path_ordered_product
from wallcross.series import TruncationContext
from wallcross.vertexlie import LieElem, compose, exp, leading_log, log

FIXTURES = Path(cli.__file__).parent / "fixtures"


def _dump(d: Diagram) -> str:
    return serialize.dumps(serialize.diagram_to_json(d))


def _fixture_diagram(kind, fname) -> Diagram:
    data = json.loads((FIXTURES / fname).read_text())
    if kind == "diagram":
        return serialize.diagram_from_json(data, None)
    problem, n = serialize.bps_from_json(data, None)
    return groupoid.build_initial_diagram(
        problem, TruncationContext(n, len(problem.context.vacua))
    )


@pytest.mark.parametrize("name", sorted(cli.FIXTURES))
def test_complete_matches_reference_on_fixtures(name):
    d = _fixture_diagram(*cli.FIXTURES[name])
    assert path_ordered_product(d) == reference_path_ordered_product(d)
    assert _dump(complete(d)) == _dump(reference_complete(d))


def test_complete_matches_reference_on_random_two_line_diagrams():
    rng = random.Random(20261018)
    pairs = [((1, 0), (0, 1)), ((1, -1), (1, 1)), ((2, 1), (-1, 2)), ((0, -1), (1, 0))]
    cases = inconsistent = 0
    while cases < 40:
        ctx = TruncationContext(rng.randint(2, 6), rng.randint(1, 3))
        da, db = rng.choice(pairs)
        la = rand_wall_log(ctx, rng, da)
        lb = rand_wall_log(ctx, rng, db)
        if la.is_zero() or lb.is_zero():
            continue
        cases += 1
        d = Diagram(ctx, (Wall(da, WallKind.LINE, la), Wall(db, WallKind.LINE, lb)))
        product = path_ordered_product(d)
        assert product == reference_path_ordered_product(d)
        inconsistent += not product.is_identity()
        assert _dump(complete(d)) == _dump(reference_complete(d))
    assert inconsistent >= 30


def _raise_order(x: LieElem, k: int) -> LieElem:
    """Keep the terms of t-degree >= k."""
    return LieElem(x.ctx, {key: v for key, v in x.terms.items() if key[1] >= k})


def test_leading_log_is_the_degree_part_of_log():
    rng = random.Random(7)
    directions = ((1, 0), (0, 1), (1, 1), (2, 1))
    nonzero = 0
    for _ in range(30):
        ctx = TruncationContext(rng.randint(2, 6), rng.randint(1, 3))
        k = rng.randint(1, ctx.order)
        x = _raise_order(rand_lie(ctx, rng, directions, terms=4), k)
        y = _raise_order(rand_lie(ctx, rng, directions, terms=4), k)
        g = compose(exp(x), exp(y))
        expected = log(g).degree_part(k)
        assert leading_log(g, k) == expected
        nonzero += not expected.is_zero()
    assert nonzero >= 15


def test_leading_log_rejects_a_term_below_the_degree():
    ctx = TruncationContext(4, 2)
    g = exp(LieElem.single(ctx, (1, 0), 2, dvec=(0, 1)))
    assert leading_log(g, 2) == LieElem.single(ctx, (1, 0), 2, dvec=(0, 1))
    with pytest.raises(ConventionError, match="degree 2"):
        leading_log(g, 3)
