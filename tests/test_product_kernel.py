"""The fused product kernel against products over ``Fraction`` dicts.

``SeriesMatrix.__mul__``, ``SeriesMatrix.matvec`` and ``AutPair.apply_ring``
each add all their products into one integer dict and normalize the sum
once.  Here every result is rebuilt from ``reference_series`` (``mul``,
``add`` and ``invert_unit`` on plain ``Fraction`` dicts), without going
through ``compose`` or ``apply_ring``, and must equal the engine's value in
its normal form.  Exponents run negative, like the (-1, 1) direction that
only the 2d-4d workloads reach, and denominators are mixed, so the lcm
rescale and the final gcd both matter.

The sparse operands are the ones the kernel skips work on: identity-plus-E_ij
gauges, zero rows, columns and vectors, entries with one nonzero pair, and
the terms the ring action fixes (constants, and every term above t-degree
N - d when sigma - id has t-order d), which it copies.  Separate tests pin
that the skipping is real (kernel calls, the powers table) and that a zero
operand still has its context checked.  The exponential, which starts its
gauge columns at the matrix part, is compared with sum_k L^k / k! of the
``reference_lie`` operator.
"""

import random
import sys
from fractions import Fraction

import pytest

import reference_lie as lie
import reference_series as ref
from conftest import aut_from_images, images_of, rand_lie
from wallcross.groupoid import KFactor, k_wall_log
from wallcross.series import SeriesElem, SeriesMatrix, TruncationContext, _mul_add
from wallcross.vertexlie import LieElem, compose, elementary, exp, mat_zero


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


def _assert_products(ctx, a, b, v):
    """``A * B`` and ``A v`` against the ``Fraction`` model, entry by entry."""
    r, N = ctx.rank, ctx.order
    product = _matrix(ctx, a) * _matrix(ctx, b)
    for i in range(r):
        for j in range(r):
            expected = _sum((ref.mul(a[i][k], b[k][j], N) for k in range(r)), N)
            _assert_equal(product.rows[i][j], expected)
    image = _matrix(ctx, a).matvec(tuple(SeriesElem(ctx, f) for f in v))
    for i in range(r):
        _assert_equal(image[i], _sum((ref.mul(a[i][k], v[k], N) for k in range(r)), N))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_matrix_products_match_the_fraction_model(rank):
    rng = random.Random(1100 + rank)
    r = rank
    for _ in range(30):
        N = rng.randint(1, 6)
        ctx = TruncationContext(N, r)
        a, b = ([[_coeffs(rng, N) for _ in range(r)] for _ in range(r)] for _ in range(2))
        _assert_products(ctx, a, b, [_coeffs(rng, N) for _ in range(r)])


# -- sparse operands: the gauges of the 2d-4d workloads ----------------------------


def _monomial(rng, order):
    """One term c z^m t^d with c != 0 and 1 <= d <= order."""
    key = (rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(1, order))
    return {key: Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 3))}


def _identity(r):
    return [[ref._one() if i == k else {} for k in range(r)] for i in range(r)]


def _gauge(rng, r, order):
    """I + sum c z^m t^d E_ij over one to three off-diagonal (i, j).

    An S factor  -mu t^d E_ij z^gamma  exponentiates to I + mu t^d E_ij z^gamma
    (E_ij squares to 0), so every gauge of a 2d-4d problem has this shape.
    """
    g = _identity(r)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(r), 2)
        g[i][j] = ref.add(g[i][j], _monomial(rng, order), order)
    return g


def _sparse_cases(rng, r, order):
    """Operand triples ``(A, B, v)`` of the sparse shapes the kernel skips over."""
    g, h = _gauge(rng, r, order), _gauge(rng, r, order)
    v = [_coeffs(rng, order) if rng.random() < 0.5 else {} for _ in range(r)]
    yield g, h, v
    # entries that cancel to zero: (I + c E_ij)(I - c E_ij) = I
    one, inverse = _identity(r), _identity(r)
    i, j = rng.sample(range(r), 2)
    one[i][j] = _monomial(rng, order)
    inverse[i][j] = ref.neg(one[i][j])
    yield one, inverse, [{} for _ in range(r)]
    # an all-zero row of A, an all-zero column of B, an all-zero vector
    a = [[_coeffs(rng, order) for _ in range(r)] for _ in range(r)]
    b = [[_coeffs(rng, order) for _ in range(r)] for _ in range(r)]
    a[rng.randrange(r)] = [{} for _ in range(r)]
    col = rng.randrange(r)
    for row in b:
        row[col] = {}
    yield a, b, [{} for _ in range(r)]
    # exactly one nonzero pair per entry: permutations scaled by nonzero series
    for _ in range(2):
        p, q = rng.sample(range(r), r), rng.sample(range(r), r)
        a = [[_monomial(rng, order) if k == p[i] else {} for k in range(r)] for i in range(r)]
        b = [[_monomial(rng, order) if k == q[i] else {} for k in range(r)] for i in range(r)]
        yield a, b, [_monomial(rng, order) for _ in range(r)]


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_sparse_matrix_products_match_the_fraction_model(rank):
    rng = random.Random(1300 + rank)
    for _ in range(25):
        N = rng.randint(1, 6)
        ctx = TruncationContext(N, rank)
        for a, b, v in _sparse_cases(rng, rank, N):
            _assert_products(ctx, a, b, v)


def test_a_gauge_product_runs_the_kernel_once_per_nonzero_pair(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        _mul_add(*args)

    monkeypatch.setattr("wallcross.series._mul_add", counted)
    ctx = TruncationContext(6, 4)
    a, b = _identity(4), _identity(4)
    a[0][1] = {(1, 0, 1): Fraction(-1)}
    b[1][2] = {(0, 1, 2): Fraction(2)}
    b[3][0] = {(-1, 1, 1): Fraction(1, 2)}
    pairs = sum(1 for i in range(4) for k in range(4) for j in range(4) if a[i][k] and b[k][j])
    assert pairs == 8  # of the 64 entry pairs of a dense 4 x 4 product
    _matrix(ctx, a) * _matrix(ctx, b)
    assert len(calls) == pairs


def test_compose_runs_the_gauge_kernel_once_per_nonzero_pair_of_the_gauge_parts(monkeypatch):
    # an element stores gauge - I, so compose's gauge part N1 + M + N1 M
    # (M = sigma1(N2)) has no identity operand: a zero gauge part (a K wall,
    # at rank 1 or 4) runs no matrix kernel, and nonzero parts run one per
    # nonzero entry pair of N1 M.  Only the kernel calls made by the matrix
    # routine count; the ring action's powers run the kernel elsewhere.
    calls = []

    def counted(*args):
        if sys._getframe(1).f_code.co_name == "_row_sums":
            calls.append(args)
        _mul_add(*args)

    monkeypatch.setattr("wallcross.series._mul_add", counted)
    for rank in (1, 4):
        ctx = TruncationContext(6, rank)
        g1, g2 = (exp(k_wall_log(ctx, KFactor(gamma, 2))) for gamma in ((1, 0), (1, 1)))
        assert g1.nil.is_zero() and g2.nil.is_zero()
        compose(g1, g2)
        compose(g2, g1)
        assert calls == []

    def s_wall(ctx, m, i, j, degree):
        return exp(LieElem.single(ctx, m, degree, matrix=elementary(ctx.rank, i, j, -2)))

    rng = random.Random(1650)
    ctx = TruncationContext(6, 4)
    cases = [(s_wall(ctx, (1, 0), 0, 1, 1), s_wall(ctx, (0, 1), 1, 2, 2)),
             (compose(s_wall(ctx, (1, 0), 0, 1, 1), s_wall(ctx, (1, 1), 2, 0, 1)),
              compose(s_wall(ctx, (0, 1), 1, 3, 1), s_wall(ctx, (1, 0), 3, 2, 2))),
             (s_wall(ctx, (1, 0), 0, 1, 1), s_wall(ctx, (0, 1), 2, 3, 1))]
    small = TruncationContext(3, 3)
    cases += [(exp(rand_lie(small, rng)), exp(rand_lie(small, rng))) for _ in range(4)]
    for g1, g2 in cases:
        r = g1.ctx.rank
        n, m = g1.nil.rows, g1.apply_matrix(g2.nil).rows
        pairs = sum(1 for i in range(r) for k in range(r) for j in range(r)
                    if n[i][k].coeffs and m[k][j].coeffs)
        calls.clear()
        compose(g1, g2)
        assert len(calls) == pairs
    assert calls  # the random cases multiply nonzero parts


def test_a_sum_with_zero_still_checks_the_context():
    zero, x = SeriesElem.zero(TruncationContext(3, 2)), SeriesElem.one(TruncationContext(4, 2))
    with pytest.raises(ValueError, match="context mismatch"):
        zero + x
    with pytest.raises(ValueError, match="context mismatch"):
        x + zero
    ctx = TruncationContext(3, 2)
    y = SeriesElem.monomial(ctx, (1, 0), 1, Fraction(1, 2))
    assert y + SeriesElem.zero(ctx) is y and SeriesElem.zero(ctx) + y is y


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


def _aut(rng, ctx):
    """A random AutPair with its generator images and gauge as ``Fraction`` dicts."""
    r, N = ctx.rank, ctx.order
    # generator images z^(e_i) (1 + n_i), n_i of positive t-order
    images = []
    for e in ((1, 0), (0, 1)):
        unit = ref.add(ref._one(), _coeffs(rng, N, min_order=1), N)
        images.append({(m1 + e[0], m2 + e[1], j): c for (m1, m2, j), c in unit.items()})
    gauge = [[ref.add(ref._one() if i == k else {}, _coeffs(rng, N, min_order=1), N)
              for k in range(r)] for i in range(r)]
    g = aut_from_images(ctx, (SeriesElem(ctx, images[0]), SeriesElem(ctx, images[1])),
                        _matrix(ctx, gauge))
    return g, images, gauge


def _assert_actions(g, images, gauge, fs, powers=None):
    """``apply_ring``, ``apply_matrix`` and ``apply_section`` on the series ``fs``.

    Each is compared with the ``Fraction`` model; returns ``fs`` as ``SeriesElem``s.
    """
    ctx = g.ctx
    r, N = ctx.rank, ctx.order
    expected = [_apply(images, f, N) for f in fs]
    elems = [SeriesElem(ctx, f) for f in fs]
    for f, want in zip(elems, expected):
        _assert_equal(g.apply_ring(f, powers), want)
    rows = tuple(tuple(elems[(i + k) % r] for k in range(r)) for i in range(r))
    mat = g.apply_matrix(SeriesMatrix(ctx, rows), powers)
    for i in range(r):
        for k in range(r):
            _assert_equal(mat.rows[i][k], expected[(i + k) % r])
    section = g.apply_section(tuple(elems), powers)
    for i in range(r):
        _assert_equal(section[i], _sum((ref.mul(gauge[i][k], expected[k], N) for k in range(r)), N))
    return elems


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_ring_action_matches_the_fraction_model(rank):
    rng = random.Random(1200 + rank)
    r = rank
    for _ in range(20):
        N = rng.randint(1, 5)
        ctx = TruncationContext(N, r)
        g, images, gauge = _aut(rng, ctx)
        series = [_coeffs(rng, N) for _ in range(r)]
        # the (-1, 1) monomial needs the inverse of the first image
        series[0] = ref.add(series[0], {(-1, 1, 0): Fraction(rng.randint(1, 5), rng.randint(1, 6))}, N)
        elems = _assert_actions(g, images, gauge, series)

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


def _fixed_order(images, order):
    """The lowest t-degree of sigma(z^(e_i)) - z^(e_i) in the model; N + 1 for the identity."""
    moved = [ref.sub(f, {(e[0], e[1], 0): Fraction(1)}, order)
             for f, e in zip(images, ((1, 0), (0, 1)))]
    return min((j for f in moved for (_m1, _m2, j) in f), default=order + 1)


@pytest.mark.parametrize("rank", [1, 4])
def test_constants_are_fixed_and_build_no_power(rank):
    # sigma builds a power for a term exactly when it can move it: a
    # non-constant term at t-degree j <= N - d, with d the t-order of
    # sigma - id on the generators; every other series comes back as it is
    rng = random.Random(1400 + rank)
    seen = set()
    for _ in range(20):
        N = rng.randint(1, 5)
        ctx = TruncationContext(N, rank)
        g, images, gauge = _aut(rng, ctx)
        top = N - _fixed_order(images, N)
        constants = [
            ref.truncate({(0, 0, j): Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                          for j in range(rng.randint(0, N + 1))}, N)
            for _ in range(rank)
        ]
        powers: dict = {}
        for f in _assert_actions(g, images, gauge, constants, powers):
            assert g.apply_ring(f, powers) is f
        assert powers == {}
        # a term z^(0, +-1) is not constant: sigma moves it unless it lies above N - d
        degrees = [rng.randint(0, N) for _ in constants]
        mixed = [ref.add(f, {(0, rng.choice([-1, 1]), j): Fraction(1)}, N)
                 for f, j in zip(constants, degrees)]
        elems = _assert_actions(g, images, gauge, mixed, powers)
        assert bool(powers) == any(j <= top for j in degrees)
        for f, j in zip(elems, degrees):
            own: dict = {}
            image = g.apply_ring(f, own)
            assert bool(own) == (j <= top)
            assert (image is f) == (j > top)
            seen.add(j <= top)
    assert seen == {True, False}


def _aut_of_order(rng, ctx, d):
    """A random AutPair whose sigma - id has t-order exactly ``d`` on the generators.

    ``d = 0`` scales one generator image by a constant other than 1, and
    ``d = N + 1`` is the identity sigma; the gauge is random either way.
    """
    r, N = ctx.rank, ctx.order
    lowest = rng.randrange(2)
    images = []
    for axis, e in enumerate(((1, 0), (0, 1))):
        n = {k: c for k, c in _coeffs(rng, N, min_order=1).items() if k[2] > d}
        if axis == lowest and 1 <= d <= N:
            n[(rng.randint(-1, 1), rng.randint(-1, 1), d)] = Fraction(rng.choice([-2, -1, 1, 3]),
                                                                      rng.randint(1, 3))
        unit = ref.add(ref._one(), n, N)
        if d == 0 and axis == lowest:
            unit = ref.scale(unit, rng.choice([-1, 2, Fraction(1, 2), Fraction(-3, 2)]), N)
        images.append({(m1 + e[0], m2 + e[1], j): c for (m1, m2, j), c in unit.items()})
    gauge = [[ref.add(ref._one() if i == k else {}, _coeffs(rng, N, min_order=1), N)
              for k in range(r)] for i in range(r)]
    g = aut_from_images(ctx, (SeriesElem(ctx, images[0]), SeriesElem(ctx, images[1])),
                        _matrix(ctx, gauge))
    assert _fixed_order(images, N) == d
    return g, images, gauge


def _series_across(rng, order, top):
    """A series with terms at t-degrees on both sides of ``top``, constants and z^(-1, 1) included."""
    f = _coeffs(rng, order)
    for j in {rng.randint(0, order), max(min(top, order), 0), min(max(top + 1, 0), order)}:
        m = rng.choice([(0, 0), (1, 0), (0, -1), (-1, 1), (2, -1)])
        f = ref.add(f, {(m[0], m[1], j): Fraction(rng.randint(1, 5), rng.randint(1, 4))}, order)
    return f


@pytest.mark.parametrize("rank", [1, 3])
def test_the_action_builds_powers_only_for_the_terms_sigma_moves(rank):
    # for every t-order d of sigma - id from 0 to N + 1: a term c z^m t^j is
    # fixed when m = 0 or j > N - d, and the action builds a power exactly
    # when some other term is present, else it returns its argument
    rng = random.Random(1500 + rank)
    for N in range(1, 6):
        ctx = TruncationContext(N, rank)
        for d in range(N + 2):
            for _ in range(3):
                g, images, gauge = _aut_of_order(rng, ctx, d)
                assert g._fixed_order == d
                top = N - d
                fs = [_series_across(rng, N, top) for _ in range(rank)]
                powers: dict = {}
                elems = _assert_actions(g, images, gauge, fs, powers)
                for f in elems:
                    moves = any((m1 or m2) and j <= top for m1, m2, j in f.coeffs)
                    own: dict = {}
                    image = g.apply_ring(f, own)
                    assert bool(own) == moves
                    assert (image is f) == (not moves)
                for (axis, e), p in powers.items():
                    _assert_equal(p, _power(images[axis], e, N))


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("case", ["zero-matrix", "nilpotent-matrix", "both-parts",
                                  "non-orthogonal-derivation"])
def test_the_exponential_is_the_series_of_its_operator(monkeypatch, rank, case):
    # exp(x) against sum_k L^k / k! of the first-order operator L of
    # reference_lie: the gauge's columns on the constant sections e_i and the
    # generator images on z^(e_i); a zero matrix part runs no section action
    rng = random.Random(f"exp-{rank}-{case}")
    calls = []
    apply_section = LieElem.apply_section

    def counted(self, vec):
        calls.append(vec)
        return apply_section(self, vec)

    monkeypatch.setattr(LieElem, "apply_section", counted)
    for _ in range(6):
        N = rng.randint(1, 5)
        ctx = TruncationContext(N, rank)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            m = rng.choice([(m1, m2) for m1 in range(-2, 3) for m2 in range(-2, 3) if m1 or m2])
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            a = tuple(tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(rank))
                      for _ in range(rank))
            dv = (-c * m[1], c * m[0])
            if case == "zero-matrix":
                a = mat_zero(rank)
            elif case == "nilpotent-matrix":
                a = tuple(tuple(v if k > i else Fraction(0) for k, v in enumerate(row))
                          for i, row in enumerate(a))
                dv = (0, 0)
            elif case == "non-orthogonal-derivation":
                dv = (dv[0] + m[0], dv[1] + m[1])
            terms[(m, rng.randint(1, N))] = (a, dv)
        model = lie.clean(terms, N)
        x = LieElem.from_terms(ctx, model)
        assert bool(x.non_orthogonal()) == (case == "non-orthogonal-derivation")
        calls.clear()
        g = exp(x)
        if case == "zero-matrix":
            assert calls == []
        images, gauge = images_of(g)
        for i in range(rank):
            term = [ref._one() if k == i else {} for k in range(rank)]
            col = term
            for k in range(1, N + 1):
                term = [ref.scale(f, Fraction(1, k), N) for f in lie.apply_section(model, term, N)]
                col = [ref.add(a, b, N) for a, b in zip(col, term)]
            for row in range(rank):
                _assert_equal(gauge.rows[row][i], col[row])
        for axis, e in enumerate(((1, 0), (0, 1))):
            term = image = {(e[0], e[1], 0): Fraction(1)}
            for k in range(1, N + 1):
                term = ref.scale(lie.apply_derivation(model, term, N), Fraction(1, k), N)
                image = ref.add(image, term, N)
            _assert_equal(images[axis], image)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_compose_on_ray_and_fixed_order_match_the_fraction_model(rank):
    # the unipotent parts against the images and gauges of the model: the
    # product's images sigma1(sigma2(z^(e_i))) and gauge G1 sigma1(G2), the
    # terms on one ray (a relative frequency parallel to p), and the t-order
    # of sigma - id
    rng = random.Random(1700 + rank)
    r = rank
    for _ in range(15):
        N = rng.randint(1, 5)
        ctx = TruncationContext(N, r)
        (g1, images1, gauge1), (g2, images2, gauge2) = _aut(rng, ctx), _aut(rng, ctx)
        for g, images in ((g1, images1), (g2, images2)):
            assert g._fixed_order == _fixed_order(images, N)
        moved = [[_apply(images1, f, N) for f in row] for row in gauge2]
        got_images, got_gauge = images_of(compose(g1, g2))
        for got, f in zip(got_images, images2):
            _assert_equal(got, _apply(images1, f, N))
        for i in range(r):
            for j in range(r):
                want = _sum((ref.mul(gauge1[i][k], moved[k][j], N) for k in range(r)), N)
                _assert_equal(got_gauge.rows[i][j], want)
        p = rng.choice([(1, 0), (0, 1), (1, 1), (-1, 1), (1, -1), (2, 1)])

        def on_ray(f, e=(0, 0)):
            return {k: c for k, c in f.items() if (k[0] - e[0]) * p[1] == (k[1] - e[1]) * p[0]}

        ray_images, ray_gauge = images_of(g1.on_ray(p))
        for got, f, e in zip(ray_images, images1, ((1, 0), (0, 1))):
            _assert_equal(got, on_ray(f, e))
        for got_row, row in zip(ray_gauge.rows, gauge1):
            for got, f in zip(got_row, row):
                _assert_equal(got, on_ray(f))
