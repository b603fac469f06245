"""The fused product kernel against products over ``Fraction`` dicts.

``SeriesMatrix.__mul__``, ``SeriesMatrix.matvec`` and ``AutPair.apply_ring``
each add all their products into one integer dict and normalize the sum
once.  Here every result is rebuilt from ``reference_series`` (``mul``,
``add`` and ``invert_unit`` on plain ``Fraction`` dicts), without going
through ``compose`` or ``apply_ring``, and must equal the engine's value in
its normal form.  Exponents run negative, like the (-1, 1) direction that
only the 2d-4d workloads reach, and denominators are mixed, so the lcm
rescale and the final gcd both matter.
"""

import random
from fractions import Fraction

import pytest

import reference_series as ref
from wallcross.series import SeriesElem, SeriesMatrix, TruncationContext
from wallcross.vertexlie import AutPair


def _coeffs(rng, order, min_order=0):
    """Up to four terms: exponents in [-2, 2]^2, t-degree in [min_order, order], c in [-5, 5]/[1, 6]."""
    keys = [(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(min_order, order))
            for _ in range(rng.randint(0, 4))]
    return ref.truncate({k: Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for k in keys}, order)


def _sum(terms, order):
    out = {}
    for t in terms:
        out = ref.add(out, t, order)
    return out


def _matrix(ctx, entries):
    return SeriesMatrix(ctx, tuple(tuple(SeriesElem(ctx, e) for e in row) for row in entries))


def _assert_equal(got, expected):
    ref.assert_normal(got)
    assert got.fractions() == expected


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_matrix_products_match_the_fraction_model(rank):
    rng = random.Random(1100 + rank)
    r = rank
    for _ in range(30):
        N = rng.randint(1, 6)
        ctx = TruncationContext(N, r)
        a, b = ([[_coeffs(rng, N) for _ in range(r)] for _ in range(r)] for _ in range(2))
        v = [_coeffs(rng, N) for _ in range(r)]
        product = _matrix(ctx, a) * _matrix(ctx, b)
        for i in range(r):
            for j in range(r):
                expected = _sum((ref.mul(a[i][k], b[k][j], N) for k in range(r)), N)
                _assert_equal(product.rows[i][j], expected)
        image = _matrix(ctx, a).matvec(tuple(SeriesElem(ctx, f) for f in v))
        for i in range(r):
            _assert_equal(image[i], _sum((ref.mul(a[i][k], v[k], N) for k in range(r)), N))


def _power(f, e, order):
    """``f ** e`` over ``Fraction`` dicts; a negative power inverts the unit ``f``."""
    base = f if e >= 0 else ref.invert_unit(f, order)
    out = ref._one()
    for _ in range(abs(e)):
        out = ref.mul(out, base, order)
    return out


def _apply(images, f, order):
    """sigma(f) for the generator images ``images``: c z^m t^j goes to c t^j P1^m1 P2^m2."""
    terms = []
    for (m1, m2, j), c in f.items():
        img = ref.mul(_power(images[0], m1, order), _power(images[1], m2, order), order)
        terms.append({(k1, k2, jj + j): c * v for (k1, k2, jj), v in img.items()})
    return _sum(terms, order)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_ring_action_matches_the_fraction_model(rank):
    rng = random.Random(1200 + rank)
    r = rank
    for _ in range(20):
        N = rng.randint(1, 5)
        ctx = TruncationContext(N, r)
        # generator images z^(e_i) (1 + n_i), n_i of positive t-order
        images = []
        for e in ((1, 0), (0, 1)):
            unit = ref.add(ref._one(), _coeffs(rng, N, min_order=1), N)
            images.append({(m1 + e[0], m2 + e[1], j): c for (m1, m2, j), c in unit.items()})
        gauge = [[ref.add(ref._one() if i == k else {}, _coeffs(rng, N, min_order=1), N)
                  for k in range(r)] for i in range(r)]
        series = [_coeffs(rng, N) for _ in range(r)]
        # the (-1, 1) monomial needs the inverse of the first image
        series[0] = ref.add(series[0], {(-1, 1, 0): Fraction(rng.randint(1, 5), rng.randint(1, 6))}, N)

        g = AutPair(ctx, (SeriesElem(ctx, images[0]), SeriesElem(ctx, images[1])), _matrix(ctx, gauge))
        expected = [_apply(images, f, N) for f in series]
        elems = [SeriesElem(ctx, f) for f in series]
        for f, want in zip(elems, expected):
            _assert_equal(g.apply_ring(f), want)
        section = g.apply_section(tuple(elems))
        for i in range(r):
            _assert_equal(section[i], _sum((ref.mul(gauge[i][k], expected[k], N) for k in range(r)), N))

        # one table shared by every action of g gives what fresh tables give,
        # and it holds generator powers only
        powers: dict = {}
        for f in elems:
            assert g.apply_ring(f, powers) == g.apply_ring(f)
        mat = SeriesMatrix(ctx, tuple(tuple(elems[(i + k) % r] for k in range(r)) for i in range(r)))
        assert g.apply_matrix(mat, powers) == g.apply_matrix(mat)
        for key, p in powers.items():
            axis, e = key
            _assert_equal(p, _power(images[axis], e, N))
