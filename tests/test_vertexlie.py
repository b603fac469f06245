import random
from fractions import Fraction

import pytest

from conftest import aut_from_images, images_of, rand_lie, truncated, truncated_aut
from reference_bracket import bch_reference, bracket
from reference_completion import fresh_exp
from wallcross.exceptions import ConventionError
from wallcross.groupoid import KFactor, k_wall_log
from wallcross.series import SeriesElem, SeriesMatrix, TruncationContext
from wallcross.vertexlie import (
    AutPair,
    LieElem,
    bch,
    compose,
    elementary,
    exp,
    exp_pair,
    log,
)


def s_log(ctx, m, i, j, mu=1, degree=1):
    return LieElem.single(ctx, m, degree, matrix=elementary(ctx.rank, i, j, -mu))


# -- bracket -----------------------------------------------------------------------


def test_bracket_mixed_term():
    # derivation against matrix: the order-2 term of the first worked example
    ctx = TruncationContext(4, 3)
    x = LieElem.single(ctx, (0, 1), 1, dvec=(-1, 0))
    y = LieElem.single(ctx, (1, 0), 1, matrix=elementary(3, 0, 1, -1))
    out = bracket(x, y)
    assert out == LieElem.single(ctx, (1, 1), 2, matrix=elementary(3, 0, 1, 1))


def test_bracket_antisymmetry_with_self():
    ctx = TruncationContext(4, 2)
    rng = random.Random(3)
    for _ in range(20):
        x = rand_lie(ctx, rng)
        assert bracket(x, x).is_zero()


def test_bracket_antisymmetry_and_jacobi_random():
    ctx = TruncationContext(4, 3)
    rng = random.Random(4)
    for _ in range(60):
        x, y, z = (rand_lie(ctx, rng, terms=2) for _ in range(3))
        assert bracket(x, y) == -bracket(y, x)
        jac = (
            bracket(bracket(x, y), z)
            + bracket(bracket(y, z), x)
            + bracket(bracket(z, x), y)
        )
        assert jac.is_zero()


def test_bracket_orthogonality_closure():
    ctx = TruncationContext(4, 2)
    rng = random.Random(5)
    for _ in range(40):
        x = rand_lie(ctx, rng)
        y = rand_lie(ctx, rng)
        for (m, _j), (_a, d) in bracket(x, y).terms.items():
            assert m[0] * d[0] + m[1] * d[1] == 0


def test_bracket_zero_frequency_guard():
    ctx = TruncationContext(4, 2)
    x = LieElem.single(ctx, (1, 0), 1, dvec=(0, 1))
    y = LieElem.single(ctx, (-1, 0), 1, dvec=(0, 2))
    # anti-parallel orthogonal derivations: the frequency-zero term vanishes
    assert bracket(x, y).is_zero()
    # anti-parallel matrix parts with a nonzero commutator leave the algebra
    a = LieElem.single(ctx, (1, 0), 1, matrix=elementary(2, 0, 1))
    b = LieElem.single(ctx, (-1, 0), 1, matrix=elementary(2, 1, 0))
    with pytest.raises(ConventionError, match="frequency zero"):
        bracket(a, b)


# -- the operator representation ---------------------------------------------------


def test_operator_on_ring_and_sections():
    ctx = TruncationContext(4, 2)
    x = LieElem.single(ctx, (1, 1), 1, dvec=(1, -1))
    f = SeriesElem.monomial(ctx, (1, 0))
    assert x.apply_derivation(f) == SeriesElem.monomial(ctx, (2, 1), 1, 1)

    a = LieElem.single(ctx, (1, 0), 1, matrix=((0, 1), (0, 0)))
    e2 = (SeriesElem.zero(ctx), SeriesElem.one(ctx))
    out = a.apply_section(e2)
    assert out[0] == SeriesElem.monomial(ctx, (1, 0), 1)
    assert out[1].is_zero()


def test_operator_leibniz_rule():
    ctx = TruncationContext(4, 2)
    rng = random.Random(6)
    for _ in range(20):
        x = rand_lie(ctx, rng)
        f = SeriesElem.monomial(ctx, (rng.randint(-1, 2), rng.randint(-1, 2)), rng.randint(0, 2))
        s = tuple(
            SeriesElem.monomial(ctx, (rng.randint(-1, 1), rng.randint(0, 1)), 0)
            for _ in range(2)
        )
        fs = tuple(f * si for si in s)
        lhs = x.apply_section(fs)
        df = x.apply_derivation(f)
        rhs = tuple(df * si + f * ri for si, ri in zip(s, x.apply_section(s)))
        assert lhs == rhs


def test_representation_is_faithful_bracket_match():
    # operator commutator on generators/sections equals the algebra bracket
    ctx = TruncationContext(4, 2)
    rng = random.Random(7)
    gens = [SeriesElem.monomial(ctx, (1, 0)), SeriesElem.monomial(ctx, (0, 1))]
    z = SeriesElem.zero(ctx)
    sections = [(SeriesElem.one(ctx), z), (z, SeriesElem.one(ctx))]
    for _ in range(25):
        x = rand_lie(ctx, rng, terms=2)
        y = rand_lie(ctx, rng, terms=2)
        b = bracket(x, y)
        for f in gens:
            comm = x.apply_derivation(y.apply_derivation(f)) - y.apply_derivation(
                x.apply_derivation(f)
            )
            assert comm == b.apply_derivation(f)
        for s in sections:
            comm = tuple(
                a - c
                for a, c in zip(
                    x.apply_section(y.apply_section(s)), y.apply_section(x.apply_section(s))
                )
            )
            assert comm == b.apply_section(s)


# -- exp / log / compose ------------------------------------------------------------


def test_exp_zero_is_identity():
    ctx = TruncationContext(3, 2)
    assert exp(LieElem.from_terms(ctx, {})) == AutPair.identity(ctx)
    assert log(AutPair.identity(ctx)).is_zero()


def test_exp_k_type_closed_form():
    # exp of the 4d log acts on generators by unit powers and leaves gauge I
    ctx = TruncationContext(5, 2)
    gamma = (0, 1)
    g = exp(k_wall_log(ctx, KFactor(gamma, 1)))
    one = SeriesElem.one(ctx)
    u = one - SeriesElem.monomial(ctx, gamma, 1)
    # images are z^(e_i) (1 - t z^gamma)^(-<e_i, n>) with n = (-1, 0)
    images, gauge = images_of(g)
    assert images[0] == SeriesElem.monomial(ctx, (1, 0)) * u
    assert images[1] == SeriesElem.monomial(ctx, (0, 1))
    assert gauge == images_of(AutPair.identity(ctx))[1]


def test_exp_s_type_nilpotent():
    ctx = TruncationContext(5, 3)
    x = s_log(ctx, (1, 0), 0, 1)
    g = exp(x)
    images, gauge = images_of(g)
    assert images[0] == SeriesElem.monomial(ctx, (1, 0))
    assert images[1] == SeriesElem.monomial(ctx, (0, 1))
    expected = images_of(AutPair.identity(ctx))[1] + x.a
    assert gauge == expected


def test_exp_log_roundtrip_random():
    ctx = TruncationContext(5, 2)
    rng = random.Random(8)
    for _ in range(25):
        x = rand_lie(ctx, rng)
        assert log(exp(x)) == x


def test_log_exp_roundtrip_group_side():
    ctx = TruncationContext(4, 2)
    rng = random.Random(9)
    for _ in range(10):
        g = exp(rand_lie(ctx, rng))
        x = log(g)
        assert exp(x) is g  # log keeps its argument as the exponential
        assert fresh_exp(x) == g


def test_compose_identity_and_inverse():
    ctx = TruncationContext(5, 2)
    rng = random.Random(10)
    for _ in range(10):
        x = rand_lie(ctx, rng)
        g = exp(x)
        assert compose(g, AutPair.identity(ctx)) == g
        assert compose(AutPair.identity(ctx), g) == g
        assert compose(g, exp(-x)) == AutPair.identity(ctx)


def test_compose_associative():
    ctx = TruncationContext(4, 2)
    rng = random.Random(11)
    for _ in range(8):
        g1, g2, g3 = (exp(rand_lie(ctx, rng, terms=2)) for _ in range(3))
        assert compose(compose(g1, g2), g3) == compose(g1, compose(g2, g3))


def test_module_action_twists_by_sigma():
    # g(f s) = sigma(f) g(s): the automorphism law on the free module
    ctx = TruncationContext(4, 2)
    rng = random.Random(12)
    for _ in range(12):
        g = exp(rand_lie(ctx, rng, terms=2))
        f = SeriesElem.monomial(ctx, (rng.randint(-1, 1), rng.randint(-1, 1)), rng.randint(0, 1))
        s = tuple(SeriesElem.monomial(ctx, (rng.randint(0, 1), 0), 0) for _ in range(2))
        lhs = g.apply_section(tuple(f * si for si in s))
        sf = g.apply_ring(f)
        rhs = tuple(sf * r for r in g.apply_section(s))
        assert lhs == rhs


def test_log_rejects_non_pro_unipotent():
    ctx = TruncationContext(3, 1)
    bad = aut_from_images(
        ctx,
        (SeriesElem.monomial(ctx, (0, 1)), SeriesElem.monomial(ctx, (1, 0))),
        images_of(AutPair.identity(ctx))[1],
    )
    with pytest.raises(ValueError, match="pro-unipotent"):
        log(bad)


@pytest.mark.parametrize("rank", [1, 3])
def test_the_pro_unipotent_guards_read_the_constant_terms_of_the_parts(rank):
    # a t^0 term in a tail (sigma(z^(e_i)) = c z^(e_i) + ..., c != 1) or in
    # the gauge part (a constant gauge other than I) is outside the
    # pro-unipotent group: log raises these exact messages.  sigma - id has
    # t-order 0 for the first and N + 1 (sigma is the identity) for the second
    ctx = TruncationContext(3, rank)
    zero, nil = SeriesElem.zero(ctx), AutPair.identity(ctx).nil
    assert AutPair.identity(ctx)._fixed_order == ctx.order + 1
    for axis in (0, 1):
        tail = SeriesElem(ctx, {(axis, 1 - axis, 0): Fraction(1, 2), (1, 1, 2): 3})
        bad = AutPair(ctx, (tail, zero) if axis == 0 else (zero, tail), nil)
        assert bad._fixed_order == 0
        with pytest.raises(ValueError) as err:
            log(bad)
        assert str(err.value) == "not pro-unipotent: generator image is not z^e*(1 + O(t))"
    i, k = rank - 1, 0
    rows = [list(row) for row in nil.rows]
    rows[i][k] = SeriesElem(ctx, {(0, 0, 0): -1, (1, 0, 1): 2})
    bad = AutPair(ctx, (zero, zero), SeriesMatrix(ctx, tuple(map(tuple, rows))))
    assert bad._fixed_order == ctx.order + 1
    with pytest.raises(ValueError) as err:
        log(bad)
    assert str(err.value) == "not pro-unipotent: gauge constant term is not the identity"


def test_log_flags_non_orthogonal_derivation():
    # exp of an element outside the orthogonal cut is a fine automorphism,
    # but reading it back as a wall log must fail loudly.
    ctx = TruncationContext(3, 1)
    x = LieElem.single(ctx, (1, 0), 1, dvec=(1, 0))  # <m, d> = 1 != 0
    with pytest.raises(ConventionError, match="not orthogonal"):
        log(exp(x))


# -- BCH ---------------------------------------------------------------------------


def test_bch_with_zero():
    ctx = TruncationContext(4, 2)
    rng = random.Random(13)
    x = rand_lie(ctx, rng)
    assert bch(x, LieElem.from_terms(ctx, {})) == x
    assert bch(LieElem.from_terms(ctx, {}), x) == x


def test_bch_commuting_case():
    ctx = TruncationContext(6, 2)
    x = LieElem.single(ctx, (1, 0), 1, matrix=((0, 1), (0, 0)))
    y = LieElem.single(ctx, (2, 0), 2, matrix=((0, 2), (0, 0)))
    assert bracket(x, y).is_zero()
    assert bch(x, y) == x + y


def test_bch_s_walls_terminating():
    # two 2d factors: x + y + (1/2) mu1 mu2 t^2 E_il z^(m1+m2), series ends
    ctx = TruncationContext(6, 3)
    mu1, mu2 = 2, 3
    x = s_log(ctx, (1, 0), 0, 1, mu1)
    y = s_log(ctx, (0, 1), 1, 2, mu2)
    extra = LieElem.single(
        ctx, (1, 1), 2, matrix=elementary(3, 0, 2, Fraction(mu1 * mu2, 2))
    )
    assert bch(x, y) == x + y + extra


def test_bch_matches_dynkin_reference():
    ctx = TruncationContext(4, 2)
    rng = random.Random(14)
    for _ in range(15):
        x = rand_lie(ctx, rng, terms=2)
        y = rand_lie(ctx, rng, terms=2)
        assert bch(x, y) == bch_reference(x, y)


# -- the worked two-wall identity ---------------------------------------------------


def test_example1_group_identity_and_commutator_log():
    ctx = TruncationContext(8, 3)
    s = s_log(ctx, (1, 0), 0, 1)
    k = k_wall_log(ctx, KFactor((0, 1), 1))
    t_s, t_k = exp(s), exp(k)
    sk = LieElem.single(ctx, (1, 1), 2, matrix=elementary(3, 0, 1, 1))
    lhs = compose(compose(t_k, t_s), exp(-k))
    rhs = compose(t_s, exp(sk))
    assert lhs == rhs
    commutator = compose(compose(compose(exp(-s), t_k), t_s), exp(-k))
    assert log(commutator) == sk


def test_exp_log_roundtrip_mixed_quadrants():
    # frequencies outside the positive quadrant force negative generator
    # powers (unit inversion) inside the automorphism application
    ctx = TruncationContext(4, 2)
    rng = random.Random(15)
    for _ in range(15):
        x = rand_lie(ctx, rng, directions=((-1, 2), (2, -1), (1, 1), (-1, -1)), terms=2)
        assert log(exp(x)) == x


def test_bch_associative():
    ctx = TruncationContext(4, 2)
    rng = random.Random(16)
    for _ in range(10):
        x, y, z = (rand_lie(ctx, rng, terms=2) for _ in range(3))
        assert bch(bch(x, y), z) == bch(x, bch(y, z))


# -- differential tests against the Fraction-dict algebra -----------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import reference_lie as model  # noqa: E402
import reference_series as ref  # noqa: E402

# denominators up to 6, so that sums, scalings and the derivation kernel need
# the lcm rescale and the gcd reduction; zero entries keep the parts sparse
_rational = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def _terms(draw, rank, order):
    """Sparse rational terms; derivations need not be orthogonal to their frequencies."""
    m = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda m: m != (0, 0))
    out = {}
    for key in draw(st.lists(st.tuples(m, st.integers(1, order)), max_size=4, unique=True)):
        entries = draw(st.dictionaries(
            st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1)), _rational, max_size=3
        ))
        mat = tuple(tuple(entries.get((i, k), 0) for k in range(rank)) for i in range(rank))
        d = draw(st.sampled_from([(0, 1), (1, 0), (1, 1)]))
        out[key] = (mat, tuple(draw(_rational) if on else 0 for on in d))
    return out


@st.composite
def _lie_operands(draw):
    rank, order = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    ctx = TruncationContext(order, rank)
    key = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, order))
    series = st.dictionaries(key, _rational, max_size=4)
    return (
        ctx,
        draw(_terms(rank, order)),
        draw(_terms(rank, order)),
        draw(_rational),
        draw(st.integers(1, order)),
        [draw(series) for _ in range(rank)],
    )


def _assert_parts_normal(x):
    for f in (x.d1, x.d2, *(e for row in x.a.rows for e in row)):
        ref.assert_normal(f)
        assert f.ctx == x.ctx


@given(_lie_operands())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_lie_operations_match_the_fraction_model(operands):
    ctx, a, b, c, low, vec = operands
    N = ctx.order
    x, y = LieElem.from_terms(ctx, a), LieElem.from_terms(ctx, b)
    a, b = model.clean(a, N), model.clean(b, N)
    cases = [
        (x, a),
        (x + y, model.add(a, b, N)),
        (-x, model.scale(a, -1, N)),
        (x - y, model.add(a, model.scale(b, -1, N), N)),
        (x.scale(c), model.scale(a, c, N)),
        (x.degree_part(low), model.degree_part(a, low)),
    ]
    for got, expected in cases:
        _assert_parts_normal(got)
        assert dict(got.terms) == expected
        # the view lists terms by t-degree, then frequency
        assert list(got.terms) == sorted(expected, key=lambda key: (key[1], key[0]))
        assert got.t_order() == model.t_order(expected)
        assert got.is_zero() == (not expected)
        assert got.frequencies() == {m for m, _j in expected}
        assert sorted(got.non_orthogonal()) == sorted(
            m for (m, _j), (_a, d) in expected.items() if m[0] * d[0] + m[1] * d[1]
        )
        # the rational boundary round-trips
        assert LieElem.from_terms(got.ctx, got.terms) == got
    sections = [SeriesElem(ctx, f) for f in vec]
    vec = [ref.truncate(f, N) for f in vec]
    derived = x.apply_derivation(sections[0])
    ref.assert_normal(derived)
    assert derived.fractions() == model.apply_derivation(a, vec[0], N)
    section = x.apply_section(tuple(sections))
    for got, expected in zip(section, model.apply_section(a, vec, N)):
        ref.assert_normal(got)
        assert got.fractions() == expected


def test_ratios_invert_from_ratios():
    # the integer view reads back as the element, zero parts and all: every
    # entry a pair (p, q) with q > 0, terms by t-degree, then frequency
    rng = random.Random(28)
    directions = ((1, 0), (0, 1), (1, 1), (-1, 2), (3, -2))
    for _ in range(60):
        ctx = TruncationContext(rng.randint(1, 5), rng.randint(1, 3))
        x = rand_lie(ctx, rng, directions, terms=rng.randint(0, 4))
        if rng.random() < 0.3:
            x = x.restrict(lambda k: k[2] % 2)  # often no matrix or no derivation part
        ratios = x.ratios()
        assert LieElem.from_ratios(ctx, ratios) == x
        assert list(ratios) == sorted(ratios, key=lambda key: (key[1], key[0]))
        for (a, d) in ratios.values():
            entries = [*d, *(c for row in a for c in row)]
            assert all(q > 0 for _p, q in entries) and any(p for p, _q in entries)
        assert dict(x.terms) == {
            key: (tuple(tuple(Fraction(*c) for c in row) for row in a),
                  tuple(Fraction(*c) for c in d))
            for key, (a, d) in ratios.items()
        }
    assert LieElem.from_ratios(ctx, {}).ratios() == {}


@st.composite
def _algebra_operands(draw):
    """Two elements of the orthogonal cut with frequencies in one open half-plane."""
    rank, order = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    ctx = TruncationContext(order, rank)
    m = st.tuples(st.integers(0, 2), st.integers(-2, 2)).filter(lambda m: m[0] > 0 or m[1] > 0)
    cells = st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1))

    def element():
        terms = {}
        for key in draw(st.lists(st.tuples(m, st.integers(1, order)), max_size=3, unique=True)):
            entries = draw(st.dictionaries(cells, _rational, max_size=2))
            mat = tuple(tuple(entries.get((i, k), 0) for k in range(rank)) for i in range(rank))
            c, (m1, m2) = draw(_rational), key[0]
            terms[key] = (mat, (-c * m2, c * m1))
        return LieElem.from_terms(ctx, terms)

    return ctx, element(), element(), draw(st.integers(1, order))


@given(_algebra_operands())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_exp_commutes_with_truncation_and_inverts_log(operands):
    # the identities the memoized automorphisms rest on: log keeps its
    # argument as the exponential of its result, which bch and the
    # completion's factors read back
    ctx, x, y, low = operands
    small = TruncationContext(low, ctx.rank)
    g = exp(x)
    assert truncated_aut(g, small) == exp(truncated(x, small))
    # the memo belongs to x alone: an equal copy computes the same value,
    # and -x computes the inverse
    assert exp(LieElem(ctx, x.d1, x.d2, x.a)) == g
    assert compose(g, exp(-x)).is_identity()
    product = compose(g, exp(y))
    z = log(product)
    assert exp(z) is product
    assert fresh_exp(z) == product
    assert exp(bch(x, y)) == product


@given(_algebra_operands())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_log_and_exp_pair_keep_exact_inverses(operands):
    # log sums g^-1 alongside log g and keeps it as exp(-log g); exp_pair
    # gets exp(x) and exp(-x) from one series: each equals the fresh
    # exponential, on single elements and on bch's products alike
    ctx, x, y, _low = operands
    assert exp_pair(x) == (fresh_exp(x), fresh_exp(-x))
    for g in (fresh_exp(y), compose(fresh_exp(x), fresh_exp(y))):
        z = log(g)
        inverse = exp(-z)
        assert "_neg" not in vars(-z)  # one way: -z does not point back to z
        assert inverse == fresh_exp(-z)
        assert compose(inverse, g).is_identity()
        assert compose(g, inverse).is_identity()


def test_apply_section_adds_derivation_and_matrix_parts_like_the_model():
    # each entry D(v_i) + (A v)_i is one accumulator: elements on several
    # rays whose derivations are not orthogonal to their frequencies, so
    # D(v_i) != 0, with zero entries in v and a zero row in A
    rng = random.Random(2606)
    seen = {"derived": 0, "zero row": 0, "zero entry": 0}
    for rank in (1, 2, 3):
        ctx = TruncationContext(5, rank)
        N = ctx.order
        for _trial in range(8):
            zero_row = rng.randrange(rank) if rank > 1 or rng.random() < 0.5 else None
            terms = {}
            for m in rng.sample([(1, 0), (0, 1), (1, 1), (2, -1), (-1, 2)], 3):
                mat = tuple(
                    tuple(0 if i == zero_row or rng.random() < 0.3
                          else Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _k in range(rank))
                    for i in range(rank))
                d = (Fraction(rng.randint(1, 3), rng.randint(1, 2)), Fraction(rng.randint(-2, 2), 3))
                terms[(m, rng.randint(1, 3))] = (mat, d)
            x = LieElem.from_terms(ctx, terms)
            assert x.non_orthogonal()
            vec = [{} if rng.random() < 0.25 else {
                (rng.randint(-1, 2), rng.randint(-1, 2), rng.randint(0, 3)):
                    Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)) for _ in range(3)}
                for _ in range(rank)]
            a = model.clean(terms, N)
            got = x.apply_section(tuple(SeriesElem(ctx, f) for f in vec))
            for f, g, e in zip(vec, got, model.apply_section(a, vec, N)):
                ref.assert_normal(g)
                assert g.fractions() == e
                seen["derived"] += bool(model.apply_derivation(a, f, N))
                seen["zero entry"] += not f
            seen["zero row"] += zero_row is not None
    assert all(seen.values()), seen


@pytest.mark.parametrize("order, s", [(6, 1), (6, 2), (6, 3), (6, 4), (5, 3), (7, 7)])
def test_an_exponential_of_t_order_s_makes_n_over_s_terms(monkeypatch, order, s):
    # the k-th term of exp's series, D^k z^(e_i) / k! for the images and
    # L^(k-1)(A e_i) / k! for the gauge columns, has t-order at least k s,
    # so each series stops at N // s terms and calls its step N // s - 1
    # times: none when 2s > N.  This element's powers stay nonzero up to
    # t^N, so no series ends early.
    ctx = TruncationContext(order, 2)
    swap = ((0, 1), (1, 0))
    x = LieElem.single(ctx, (1, 0), s, matrix=swap, dvec=(0, 1))
    calls = {"apply_derivation": 0, "apply_section": 0}
    for name in calls:
        method = getattr(LieElem, name)

        def counted(self, arg, method=method, name=name):
            calls[name] += 1
            return method(self, arg)

        monkeypatch.setattr(LieElem, name, counted)
    g = exp(x)
    steps = order // s - 1
    # the first image terms D(z^(e_i)) take one call each, every step two
    assert calls == {"apply_derivation": 2 + 2 * steps, "apply_section": ctx.rank * steps}
    monkeypatch.undo()
    # the value is the exponential at a higher order, truncated
    big = TruncationContext(3 * order, 2)
    assert truncated_aut(exp(LieElem.single(big, (1, 0), s, matrix=swap, dvec=(0, 1))),
                         ctx) == g
