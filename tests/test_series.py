import random
from fractions import Fraction

import pytest

from wallcross.series import SeriesElem, TruncationContext, _operator_series


def rand_series(ctx, rng, min_order=0, terms=4, span=2):
    coeffs = {}
    for _ in range(terms):
        j = rng.randint(min_order, ctx.order)
        m = (rng.randint(-span, span), rng.randint(-span, span))
        coeffs[(m[0], m[1], j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return SeriesElem(ctx, coeffs)


def test_monomial_product_adds_exponents():
    ctx = TruncationContext(3)
    x = SeriesElem.monomial(ctx, (1, 0))
    y = SeriesElem.monomial(ctx, (0, 1))
    assert x * y == SeriesElem.monomial(ctx, (1, 1))


def test_addition_cancels():
    ctx = TruncationContext(3)
    one = SeriesElem.one(ctx)
    tm = SeriesElem.monomial(ctx, (1, 1), 1)
    assert (one + tm) + (-tm) == one


def test_truncation_kills_overflow():
    ctx = TruncationContext(4)
    a = SeriesElem.monomial(ctx, (1, 0), 1)
    b = SeriesElem.monomial(ctx, (0, 1), ctx.order)
    assert (a * b).is_zero()


def test_ring_axioms_random():
    rng = random.Random(5)
    ctx = TruncationContext(5, 1)
    for _ in range(25):
        a, b, c = (rand_series(ctx, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_invert_unit_geometric():
    ctx = TruncationContext(4)
    g = SeriesElem.monomial(ctx, (0, 0), 0, 1) - SeriesElem.monomial(ctx, (1, 1), 1)
    inv = g.invert_unit()
    expected = SeriesElem(
        ctx, {(l, l, l): Fraction(1) for l in range(0, ctx.order + 1)}
    )
    assert inv == expected
    assert g * inv == SeriesElem.one(ctx)


def test_invert_unit_monomial():
    ctx = TruncationContext(3)
    g = SeriesElem.monomial(ctx, (1, 0), 0, 2)
    assert g.invert_unit() == SeriesElem.monomial(ctx, (-1, 0), 0, Fraction(1, 2))


def test_invert_unit_random_roundtrip():
    rng = random.Random(6)
    ctx = TruncationContext(5)
    for _ in range(20):
        u = SeriesElem.one(ctx) + rand_series(ctx, rng, min_order=1)
        assert u * u.invert_unit() == SeriesElem.one(ctx)


def test_invert_non_unit_raises():
    ctx = TruncationContext(3)
    x = SeriesElem.monomial(ctx, (1, 0)) + SeriesElem.one(ctx)
    with pytest.raises(ValueError, match="not a unit"):
        x.invert_unit()


def test_order_reduction_consistency():
    rng = random.Random(8)
    big = TruncationContext(6)
    for _ in range(10):
        a = rand_series(big, rng)
        b = rand_series(big, rng)
        small = TruncationContext(3)
        # the constructor drops the terms above the smaller order
        prod_then_cut = SeriesElem(small, (a * b).fractions())
        cut_then_prod = SeriesElem(small, a.fractions()) * SeriesElem(small, b.fractions())
        assert prod_then_cut == cut_then_prod


# -- property tests -----------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

_coeff = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
).filter(lambda c: c != 0)


def _series():
    ctx = TruncationContext(4)

    def build(entries):
        return SeriesElem(
            ctx, {(m1, m2, j): c for ((m1, m2, j), c) in entries}
        )

    key = st.tuples(
        st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 4)
    )
    return st.lists(st.tuples(key, _coeff), max_size=4).map(build)


@given(_series(), _series(), _series())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_ring_axioms_property(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


# -- differential tests against the Fraction-dict ring ----------------------------------

import reference_series as ref  # noqa: E402

# denominators up to 6, so that sums and products need the lcm rescale and the
# gcd reduction
_rational = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def _coeff_dicts(draw, order, min_order=0):
    key = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(min_order, order))
    return draw(st.dictionaries(key, _rational, max_size=5))


@st.composite
def _operands(draw):
    order = draw(st.integers(1, 6))
    ctx = TruncationContext(order)
    a, b = draw(_coeff_dicts(order)), draw(_coeff_dicts(order))
    n = draw(_coeff_dicts(order, min_order=1))
    c = draw(_rational.filter(lambda x: x != 0))
    m0 = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    low = draw(st.integers(1, order))
    return ctx, a, b, n, c, m0, draw(_rational), low


@given(_operands())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_ring_operations_match_the_fraction_model(operands):
    ctx, a, b, n, c, m0, s, low = operands
    N = ctx.order
    x, y = SeriesElem(ctx, a), SeriesElem(ctx, b)
    a, b, n = ref.truncate(a, N), ref.truncate(b, N), ref.truncate(n, N)
    unit = {k: c * v for k, v in ref.add(ref._one(), n, N).items()}
    unit = {(k[0] + m0[0], k[1] + m0[1], k[2]): v for k, v in unit.items()}
    cases = [
        (x, a),
        (x + y, ref.add(a, b, N)),
        (-x, ref.neg(a)),
        (x - y, ref.sub(a, b, N)),
        (x * y, ref.mul(a, b, N)),
        (x.scale(s), ref.scale(a, s, N)),
        (SeriesElem(TruncationContext(low), a), ref.truncate(a, low)),
        (SeriesElem(ctx, unit).invert_unit(), ref.invert_unit(unit, N)),
    ]
    for got, expected in cases:
        ref.assert_normal(got)
        assert got.fractions() == expected
        # the normal form is unique: equal values are equal elements
        assert got == SeriesElem(got.ctx, expected)


# coefficient functions with coeff(1) = 1, -1 and 2
_COEFFS = (lambda k: Fraction(1, k), lambda k: (-1) ** k, lambda k: k + 1)


@st.composite
def _series_operands(draw):
    order = draw(st.integers(1, 6))
    vs = draw(st.lists(_coeff_dicts(order), min_size=1, max_size=2))
    return TruncationContext(order), vs, draw(_coeff_dicts(order, min_order=1)), draw(
        st.integers(1, order + 1))


@given(_series_operands())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_operator_series_sums_every_coefficient(operands):
    # the sum of coeff(k) * n^(k-1) * v over k = 1..steps, its first term
    # scaled by coeff(1) too; several coefficient functions in one call give
    # exactly what separate calls give
    ctx, vs, n, steps = operands
    N = ctx.order
    v, factor = tuple(SeriesElem(ctx, f) for f in vs), SeriesElem(ctx, n)

    def step(u):
        return tuple(f * factor for f in u)

    joint = _operator_series(step, v, _COEFFS, steps)
    assert joint == tuple(_operator_series(step, v, (coeff,), steps)[0] for coeff in _COEFFS)
    for coeff, sums in zip(_COEFFS, joint):
        for got, f in zip(sums, vs):
            expected, term = {}, ref.truncate(f, N)
            for k in range(1, steps + 1):
                expected = ref.add(expected, ref.scale(term, coeff(k), N), N)
                term = ref.mul(term, ref.truncate(n, N), N)
            ref.assert_normal(got)
            assert got.fractions() == expected


def test_operator_series_keeps_zero_entries_shared_and_one_term_sums_scaled_once():
    # each entry of a sum is one integer accumulator normalized once: an
    # entry whose powers are all zero is the one shared zero, and an entry
    # with a single nonzero term is that term scaled by its coefficient
    ctx = TruncationContext(4)
    zero = SeriesElem.zero(ctx)
    lone = SeriesElem(ctx, {(1, 0, 1): Fraction(3, 2), (0, 1, 2): -2})
    dense = SeriesElem(ctx, {(1, 1, 1): Fraction(1, 3), (2, 0, 1): 5})
    nilpotent = SeriesElem.monomial(ctx, (0, 1), 1, Fraction(2, 5))
    v = (zero, lone, dense, zero)

    def step(u):
        # kills the second entry: its only nonzero power is the first
        return (u[0] * nilpotent, zero, u[2] * nilpotent, u[3] * nilpotent)

    coeffs = (lambda k: 1, lambda k: (-1) ** k, lambda k: Fraction(2, k), lambda k: Fraction(0))
    sums = _operator_series(step, v, coeffs, 4)
    for coeff, (z0, one, many, z3) in zip(coeffs, sums):
        assert z0 is z3 and z0.is_zero()
        c = coeff(1)
        assert one.fractions() == ref.scale(lone.fractions(), c, ctx.order)
        expected, term = {}, dense.fractions()
        for k in range(1, 5):
            expected = ref.add(expected, ref.scale(term, coeff(k), ctx.order), ctx.order)
            term = ref.mul(term, nilpotent.fractions(), ctx.order)
        assert many.fractions() == expected
        for f in (z0, one, many):
            ref.assert_normal(f)
    # a coefficient of 1 on a one-term sum returns the term itself
    assert sums[0][1] is lone
    # a zero v costs no step
    calls = []
    assert _operator_series(lambda u: calls.append(u) or u, (zero, zero), coeffs, 4) == (
        (zero, zero),) * len(coeffs)
    assert calls == []
