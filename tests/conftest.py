import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

# set before the package is first imported, here and in the interpreters the
# tests start: a bytecode cache left in src/ would skew the import time that
# the benchmark measures in this checkout
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from wallcross import cli, groupoid, serialize  # noqa: E402
from wallcross.lattice import primitive_normal  # noqa: E402
from wallcross.series import SeriesElem, SeriesMatrix  # noqa: E402
from wallcross.vertexlie import AutPair, LieElem, mat_zero  # noqa: E402

FIXTURES = Path(cli.__file__).parent / "fixtures"


def fixture_diagram(name, order=None):
    """The initial diagram of a bundled fixture, optionally at a lower order.

    BPS fixtures give the diagram the solver builds from their factors.
    """
    kind, fname = cli.FIXTURES[name]
    data = json.loads((FIXTURES / fname).read_text())
    if kind == "diagram":
        return serialize.diagram_from_json(data, order)
    problem, _ = serialize.bps_from_json(data, order)
    return groupoid.build_initial_diagram(problem, problem.context.series)


def kronecker_doc(omega1, omega2, order):
    """K-type lines on (1,0) and (0,1) with log Omega * sum_l (1/l) t^l z^(l gamma)."""
    walls = [
        {
            "direction": list(gamma),
            "geometry": "line",
            "terms": [{"t": l, "k": l, "derivation": str(Fraction(omega, l))}
                      for l in range(1, order + 1)],
        }
        for gamma, omega in (((1, 0), omega1), ((0, 1), omega2))
    ]
    return {"rank": 1, "truncation": order, "walls": walls}


def rand_matrix(r, rng, span=2):
    return tuple(
        tuple(Fraction(rng.randint(-span, span), rng.randint(1, 2)) for _ in range(r))
        for _ in range(r)
    )


def rand_lie(ctx, rng, directions=((1, 0), (0, 1)), terms=3, max_mult=2):
    """A random element of the vertex algebra supported on the given directions.

    Every derivation part is a rational multiple of the primitive normal of
    its frequency, so the element lies in the orthogonal cut.
    """
    acc = {}
    for _ in range(terms):
        d = rng.choice(directions)
        k = rng.randint(1, max_mult)
        m = (k * d[0], k * d[1])
        j = rng.randint(1, ctx.order)
        n = primitive_normal(m)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        a = rand_matrix(ctx.rank, rng) if rng.random() < 0.7 else mat_zero(ctx.rank)
        key = (m, j)
        if key in acc:
            continue
        acc[key] = (a, (c * n[0], c * n[1]))
    return LieElem.from_terms(ctx, acc)


def rand_wall_log(ctx, rng, direction, terms=2, stype=None):
    """A random single-direction wall log (S-ish matrix parts, K-ish derivations)."""
    acc = {}
    n = primitive_normal(direction)
    for _ in range(terms):
        k = rng.randint(1, 2)
        m = (k * direction[0], k * direction[1])
        j = rng.randint(1, max(1, ctx.order - 1))
        use_matrix = stype if stype is not None else rng.random() < 0.5
        if use_matrix:
            a = rand_matrix(ctx.rank, rng)
            dvec = (Fraction(0), Fraction(0))
        else:
            a = mat_zero(ctx.rank)
            c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            dvec = (c * n[0], c * n[1])
        key = (m, j)
        if key in acc:
            continue
        acc[key] = (a, dvec)
    return LieElem.from_terms(ctx, acc)


def truncated(x, ctx):
    """The Lie element ``x`` reduced to the lower truncation order of ``ctx``."""
    return LieElem.from_terms(ctx, x.terms)  # from_terms drops the terms above N


def truncated_aut(g, ctx):
    """The group element ``g`` modulo t^(ctx.order + 1), in ``ctx`` (same rank)."""

    def cut(f):
        return SeriesElem(ctx, f.fractions())  # the constructor drops terms above N

    # the identity has t-degree 0, so truncating commutes with removing it
    rows = tuple(tuple(cut(f) for f in row) for row in g.nil.rows)
    return AutPair(ctx, (cut(g.tails[0]), cut(g.tails[1])), SeriesMatrix(ctx, rows))


# -- group elements by their images -------------------------------------------------
#
# The engine stores an AutPair by its unipotent parts, sigma(z^(e_i)) - z^(e_i)
# and gauge - I.  Tests state elements as the paper does, by the generator
# images sigma(z^(e_i)) and the gauge matrix, and convert here.


def aut_from_images(ctx, images, gauge):
    """The AutPair with generator images ``images`` and gauge ``gauge`` (a SeriesMatrix)."""
    one = SeriesElem.one(ctx)
    nil = tuple(tuple(f - one if i == k else f for k, f in enumerate(row))
                for i, row in enumerate(gauge.rows))
    tails = tuple(f - e for f, e in zip(images, ctx.generators))
    return AutPair(ctx, tails, SeriesMatrix(ctx, nil))


def images_of(g):
    """``(images, gauge)`` of the AutPair ``g``: the inverse of :func:`aut_from_images`."""
    one = SeriesElem.one(g.ctx)
    rows = tuple(tuple(f + one if i == k else f for k, f in enumerate(row))
                 for i, row in enumerate(g.nil.rows))
    images = tuple(t + e for t, e in zip(g.tails, g.ctx.generators))
    return images, SeriesMatrix(g.ctx, rows)
