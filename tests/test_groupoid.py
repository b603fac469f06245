import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_bracket import bracket as lie_bracket
from reference_groupoid_ring import (
    GroupoidContext,
    GroupoidElem,
    KAuto,
    LGammaElem,
    SAuto,
    d_gen,
    dirac_twist,
    exp_k,
    exp_s,
    k_gen,
    lgamma_bracket,
    resolve_twist,
    s_gen,
    trivial_twist,
    upsilon,
    validate_twisting,
)
from wallcross.exceptions import ConventionError
from wallcross.exceptions import SchemaError
from wallcross.groupoid import (
    BpsContext,
    BpsProblem,
    KFactor,
    ProducedFactor,
    SFactor,
    factor_log,
    ray_factors,
    solve_wcf,
)
from wallcross.lattice import WallKind, primitive_normal
from wallcross.report import wcf_report
from wallcross.scattering import Wall, is_consistent, new_rays
from wallcross.series import TruncationContext
from wallcross.vertexlie import LieElem, elementary

CHARGES = [(1, 0), (0, 1), (1, 1), (-1, 2), (2, -1), (0, -1), (2, 1)]


def make_ctx(order=5, twisting="trivial", vacua=("i", "j", "k")):
    omega = tuple((g, v) for g, v in [((0, 1), 1), ((1, 0), 1), ((1, 1), 2), ((-1, 2), 1), ((2, 1), -1), ((0, -1), 1), ((1, -1), 2)])
    return GroupoidContext(vacua=vacua, order=order, omega=omega, twisting=twisting)


# -- twisting ----------------------------------------------------------------------


def test_dirac_twisting_satisfies_all_conditions():
    assert validate_twisting(dirac_twist, CHARGES) == []


def test_trivial_twisting_cocycle_and_symmetry_only():
    problems = validate_twisting(trivial_twist, CHARGES)
    assert all("Dirac" in p for p in problems)
    assert any(problems)  # some pairings are odd, so condition (iii) fails


def test_gamma_product_sign():
    ctx = make_ctx(twisting="dirac")
    x = GroupoidElem.gamma_elem(ctx, (1, 0))
    y = GroupoidElem.gamma_elem(ctx, (0, 1))
    assert x * y == GroupoidElem.gamma_elem(ctx, (1, 1), c=-1)
    assert y * x == GroupoidElem.gamma_elem(ctx, (1, 1), c=-1)


def test_noncomposable_is_zero():
    ctx = make_ctx()
    x = GroupoidElem.morphism(ctx, "i", "j", (1, 0))
    assert (x * x).is_zero()


def test_associativity_random():
    rng = random.Random(0)
    for twisting in ("trivial", "dirac"):
        ctx = make_ctx(order=3, twisting=twisting)
        objs = ctx.objects
        for _ in range(40):
            def rand_elem():
                coeffs = {}
                for _ in range(3):
                    i, j = rng.choice(objs), rng.choice(objs)
                    g = (rng.randint(-2, 2), rng.randint(-2, 2))
                    coeffs[(i, j, g[0], g[1], rng.randint(0, 2))] = rng.randint(1, 3)
                return GroupoidElem(ctx, coeffs)

            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert (a * b) * c == a * (b * c)


def test_central_gamma_elements():
    rng = random.Random(1)
    ctx = make_ctx(twisting="dirac")
    g = GroupoidElem.gamma_elem(ctx, (1, 1))
    for _ in range(20):
        i, j = rng.choice(ctx.objects), rng.choice(ctx.objects)
        x = GroupoidElem.morphism(ctx, i, j, (rng.randint(-2, 2), rng.randint(-2, 2)))
        assert g * x == x * g


# -- the S/K action table ----------------------------------------------------------


def test_s_fixes_diagonal_and_other_vacua():
    ctx = make_ctx()
    s = SAuto(ctx, ("i", "j"), (1, 0), mu=1)
    diag = GroupoidElem.gamma_elem(ctx, (0, 1))
    assert s.apply(diag) == diag
    xk = GroupoidElem.morphism(ctx, "k", "o", (1, 1))
    assert s.apply(xk) == xk


def test_s_moves_target_vacuum_line():
    # X_(j,o) -> X_(j,o) - mu t X_(i,j) X_(j,o)
    ctx = make_ctx()
    mu = 2
    s = SAuto(ctx, ("i", "j"), (1, 0), mu=mu)
    xj = GroupoidElem.morphism(ctx, "j", "o", (0, 1))
    x_ij = GroupoidElem.morphism(ctx, "i", "j", (1, 0), t=1)
    assert s.apply(xj) == xj - (x_ij * xj).scale(mu)


def test_k_action_unit_powers():
    ctx = make_ctx()
    gamma = (0, 1)
    k = KAuto(ctx, gamma, 1)
    # omega(gamma, a) = <m(a), n_gamma>; for m(a) = (1, 1): -1
    xa = GroupoidElem.morphism(ctx, "i", "o", (1, 1))
    n = primitive_normal(gamma)
    w = 1 * (1 * n[0] + 1 * n[1])
    assert w == -1
    expected = GroupoidElem.zero(ctx)
    # (1 - t X_gamma)^(+1) X_a
    expected = xa - GroupoidElem.gamma_elem(ctx, gamma, 1) * xa
    assert k.apply(xa) == expected


def test_automorphism_property_random():
    rng = random.Random(2)
    for twisting in ("trivial", "dirac"):
        ctx = make_ctx(order=4, twisting=twisting)
        s = SAuto(ctx, ("i", "j"), (1, 0), mu=rng.randint(-2, 2))
        k = KAuto(ctx, (0, 1), 1)
        objs = ctx.objects
        for _ in range(25):
            i = rng.choice(objs)
            jn = rng.choice(objs)
            ln = rng.choice(objs)
            x = GroupoidElem.morphism(ctx, i, jn, (rng.randint(-1, 1), rng.randint(-1, 1)))
            y = GroupoidElem.morphism(ctx, jn, ln, (rng.randint(-1, 1), rng.randint(-1, 1)))
            for phi in (s.apply, k.apply):
                assert phi(x * y) == phi(x) * phi(y)


def test_exp_generators_equal_automorphisms():
    # the acceptance-critical identity on every basis morphism with small charge
    rng = random.Random(3)
    for twisting in ("trivial", "dirac"):
        ctx = make_ctx(order=5, twisting=twisting)
        for trial in range(3):
            mu = rng.randint(-2, 2)
            pair = rng.sample(list(ctx.vacua), 2)
            g = (rng.randint(-1, 1), rng.randint(-1, 1))
            if g == (0, 0):
                g = (1, 0)
            gamma = rng.choice([(0, 1), (1, 0), (1, 1)])
            s, se = SAuto(ctx, tuple(pair), g, mu), exp_s(ctx, tuple(pair), g, mu)
            k, ke = KAuto(ctx, gamma, ctx.omega_value(gamma)), exp_k(ctx, gamma)
            for i in ctx.objects:
                for j in ctx.objects:
                    for g1 in range(-2, 3):
                        for g2 in range(-2, 3):
                            e = GroupoidElem.morphism(ctx, i, j, (g1, g2))
                            assert s.apply(e) == se(e)
                            assert k.apply(e) == ke(e)


def test_exp_s_mu_zero_is_identity():
    ctx = make_ctx()
    se = exp_s(ctx, ("i", "j"), (1, 0), 0)
    x = GroupoidElem.morphism(ctx, "j", "o", (1, 1))
    assert se(x) == x


# -- the generator Lie ring ---------------------------------------------------------


def probe_elements(ctx):
    out = []
    for i in ctx.objects:
        for j in ctx.objects:
            for g in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]:
                out.append(GroupoidElem.morphism(ctx, i, j, g))
    return out


def assert_bracket_matches_action(ctx, x, y):
    b = lgamma_bracket(x, y)
    for e in probe_elements(ctx):
        assert b.act(e) == x.act(y.act(e)) - y.act(x.act(e))


def test_bracket_with_self_vanishes():
    ctx = make_ctx()
    y = k_gen(ctx, (0, 1))
    assert lgamma_bracket(y, y).is_zero()


def test_paper_identity_2_instance():
    # [d_(gamma_ij), d_gamma] = -omega(gamma, gamma_ij) X_gamma d_(gamma_ij)
    # with m(gamma_ij) = (1, 0), gamma = (0, 1), Omega = 1: +X_gamma d_(gamma_ij)
    ctx = make_ctx()
    dij = d_gen(ctx, ("s", "i", "j", (1, 0)))
    dg = d_gen(ctx, ("k", (0, 1)))
    out = lgamma_bracket(dij, dg)
    assert out == LGammaElem(ctx, {(("s", "i", "j", (1, 0)), (0, 1), 0): Fraction(1)})
    assert_bracket_matches_action(ctx, dij, dg)


def test_bracket_identities_against_action():
    rng = random.Random(4)
    for twisting in ("trivial", "dirac"):
        ctx = make_ctx(order=4, twisting=twisting)
        pool = [
            s_gen(ctx, ("i", "j"), (1, 0), 1),
            s_gen(ctx, ("j", "k"), (0, 1), 2),
            s_gen(ctx, ("i", "k"), (1, 1), -1),
            k_gen(ctx, (0, 1)),
            k_gen(ctx, (1, 0)),
            k_gen(ctx, (1, 1)),
            k_gen(ctx, (-1, 2)),
        ]
        for _ in range(30):
            x, y = rng.choice(pool), rng.choice(pool)
            assert_bracket_matches_action(ctx, x, y)
            assert lgamma_bracket(x, y) == -lgamma_bracket(y, x)


def test_bracket_jacobi():
    rng = random.Random(5)
    ctx = make_ctx(order=4)
    pool = [
        s_gen(ctx, ("i", "j"), (1, 0), 1),
        s_gen(ctx, ("j", "k"), (0, 1), 2),
        k_gen(ctx, (0, 1)),
        k_gen(ctx, (1, 1)),
    ]
    for _ in range(20):
        x, y, z = (rng.choice(pool) for _ in range(3))
        jac = (
            lgamma_bracket(lgamma_bracket(x, y), z)
            + lgamma_bracket(lgamma_bracket(y, z), x)
            + lgamma_bracket(lgamma_bracket(z, x), y)
        )
        assert jac.is_zero()


def test_reverse_soliton_pair_is_closure_violation():
    ctx = make_ctx()
    x = s_gen(ctx, ("i", "j"), (1, 0), 1)
    y = s_gen(ctx, ("j", "i"), (0, 1), 1)
    with pytest.raises(ConventionError, match="closure violation"):
        lgamma_bracket(x, y)


def test_k_gen_requires_primitive():
    ctx = make_ctx()
    with pytest.raises(ValueError, match="primitive"):
        k_gen(ctx, (0, 2))
    with pytest.raises(ValueError, match="primitive"):
        d_gen(ctx, ("k", (2, 2)))


# -- upsilon ------------------------------------------------------------------------


def test_upsilon_on_generators():
    ctx = make_ctx(order=6)
    lctx = TruncationContext(6, 3)
    mu = 2
    s = s_gen(ctx, ("i", "j"), (1, 0), mu)
    assert upsilon(s, lctx) == LieElem.single(
        lctx, (1, 0), 1, matrix=elementary(3, 0, 1, -mu)
    )
    k = k_gen(ctx, (0, 1))
    n = primitive_normal((0, 1))
    expected = {}
    for l in range(1, 7):
        c = Fraction(1, l)
        expected[((0, l), l)] = (
            tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3)),
            (c * n[0], c * n[1]),
        )
    assert upsilon(k, lctx) == LieElem.from_terms(lctx, expected)


def test_upsilon_rejects_degree_zero():
    ctx = make_ctx()
    lctx = TruncationContext(5, 3)
    with pytest.raises(ValueError, match="maximal ideal"):
        upsilon(d_gen(ctx, ("k", (0, 1))), lctx)


def test_upsilon_group_ring_linear():
    ctx = make_ctx()
    lctx = TruncationContext(5, 3)
    x = s_gen(ctx, ("i", "j"), (1, 0), 1)
    shifted = LGammaElem(
        ctx,
        {(tag, (d[0] + 1, d[1] + 2), j + 1): c for (tag, d, j), c in x.terms.items()},
    )
    img = upsilon(shifted, lctx)
    base = upsilon(x, lctx)
    expected = {
        ((m[0] + 1, m[1] + 2), j + 1): v for (m, j), v in base.terms.items()
    }
    assert img.terms == expected


def test_upsilon_homomorphism_trivial_twisting():
    rng = random.Random(6)
    ctx = make_ctx(order=5, twisting="trivial")
    lctx = TruncationContext(5, 3)
    pool = [
        s_gen(ctx, ("i", "j"), (1, 0), 1),
        s_gen(ctx, ("j", "k"), (0, 1), 2),
        s_gen(ctx, ("i", "k"), (1, 1), -1),
        k_gen(ctx, (0, 1)),
        k_gen(ctx, (1, 0)),
        k_gen(ctx, (1, 1)),
    ]
    for _ in range(40):
        x, y = rng.choice(pool), rng.choice(pool)
        lhs = upsilon(lgamma_bracket(x, y), lctx)
        rhs = lie_bracket(upsilon(x, lctx), upsilon(y, lctx))
        assert lhs == rhs


def test_upsilon_obstruction_under_dirac_twisting():
    # Documented: with the dirac twisting, composable 2d charges of odd
    # pairing acquire a sign the bridge does not see, so the bracket is not
    # preserved.  This is why the wall-crossing pipeline runs untwisted.
    ctx = make_ctx(order=5, twisting="dirac")
    lctx = TruncationContext(5, 3)
    x = s_gen(ctx, ("i", "j"), (1, 0), 1)
    y = s_gen(ctx, ("j", "k"), (0, 1), 1)
    lhs = upsilon(lgamma_bracket(x, y), lctx)
    rhs = lie_bracket(upsilon(x, lctx), upsilon(y, lctx))
    assert lhs == -rhs and not lhs.is_zero()


# -- the end-to-end solver ----------------------------------------------------------


def example1_problem(order=8):
    ctx = BpsContext(vacua=("i", "j", "k"), order=order)
    return BpsProblem(ctx, (SFactor(("i", "j"), (1, 0), 1), KFactor((0, 1), 1)))


def test_solve_wcf_example1():
    sol = solve_wcf(example1_problem())
    assert sol.consistent
    assert len(sol.produced) == 1
    p = sol.produced[0]
    assert (p.kind, p.pair, p.charge, p.degree) == ("S", ("i", "j"), (1, 1), 2)
    assert p.strength == -1
    # omega' = omega: no 4d corrections anywhere
    assert all(q.kind == "S" for q in sol.produced)


def test_solve_wcf_example2():
    ctx = BpsContext(vacua=("i", "j", "l"), order=6)
    prob = BpsProblem(
        ctx,
        (SFactor(("j", "l"), (1, 0), 1), SFactor(("i", "j"), (0, 1), 1)),
    )
    sol = solve_wcf(prob)
    assert sol.consistent
    assert len(sol.produced) == 1
    p = sol.produced[0]
    assert (p.kind, p.pair, p.charge) == ("S", ("i", "l"), (1, 1))
    assert p.strength == -1  # mu'(gamma_il) = -mu(gamma_ij) mu(gamma_jl)
    (w,) = new_rays(sol.initial, sol.completed)
    assert w.logf == LieElem.single(sol.completed.ctx, (1, 1), 2, matrix=elementary(3, 0, 2, 1))


def test_solve_wcf_zero_strength_is_empty():
    ctx = BpsContext(vacua=("i", "j"), order=4)
    prob = BpsProblem(ctx, (SFactor(("i", "j"), (1, 0), 0), KFactor((0, 1), 0)))
    sol = solve_wcf(prob)
    assert sol.consistent
    assert sol.produced == ()
    assert sol.completed.walls == ()


@pytest.mark.parametrize("order", [0, -1])
def test_a_bps_context_checks_its_order(order):
    with pytest.raises(ValueError, match="truncation order must be >= 1"):
        BpsContext(("i",), order)


def test_solve_wcf_completes_in_the_problem_s_own_series_context():
    # the context is built once, with one matrix row per vacuum, and is no
    # part of the problem's equality or repr
    problem = example1_problem(order=5)
    series = problem.context.series
    assert series == TruncationContext(5, 3)
    sol = solve_wcf(problem)
    assert sol.initial.ctx is series and sol.completed.ctx is series
    assert BpsContext(("i",), 2).series == TruncationContext(2, 1)
    assert problem.context == BpsContext(("i", "j", "k"), 5)
    assert repr(problem.context) == "BpsContext(vacua=('i', 'j', 'k'), order=5)"


def test_solve_wcf_rechecks_consistency():
    sol = solve_wcf(example1_problem(order=5))
    assert is_consistent(sol.completed)


def _kronecker(omega, order):
    ctx = BpsContext(vacua=("i",), order=order)
    return solve_wcf(BpsProblem(ctx, (KFactor((1, 0), omega), KFactor((0, 1), omega))))


def test_solve_wcf_reads_a_standard_k_series():
    # Kronecker Omega = 2: the (1,1) ray's log is -4 sum_l (1/l) t^(2l) w^(l,l) d_n
    sol = _kronecker(2, 6)
    assert sol.consistent
    (central,) = [p for p in sol.produced if p.charge == (1, 1)]
    assert (central.kind, central.degree, central.strength) == ("K", 2, -4)
    assert central.dilog_pattern is True
    assert "[nonstandard series]" not in wcf_report(sol)


def test_solve_wcf_flags_a_nonstandard_k_series():
    # Kronecker Omega = 3: the (1,1) ray's log is 9 log sum_k C(4k,k)/(3k+1) u^k
    # (up to the normal's sign), whose u^2 coefficient 63/2 is not 9/2
    sol = _kronecker(3, 4)
    assert sol.consistent
    (central,) = [p for p in sol.produced if p.charge == (1, 1)]
    assert (central.kind, central.degree, central.strength) == ("K", 2, -9)
    assert central.dilog_pattern is False
    assert all(p.dilog_pattern for p in sol.produced if p.charge != (1, 1))
    assert "K' charge=(1,1) Omega'=-9 (t^2) [nonstandard series]" in wcf_report(sol)


def test_factor_logs_match_bridge_route():
    # wall logs equal the bridge image of the corresponding generators
    ctx = make_ctx(order=6)
    lctx = TruncationContext(6, 3)
    s = SFactor(("i", "j"), (2, 1), 3)
    assert factor_log(ctx, lctx, s) == upsilon(
        s_gen(ctx, s.pair, s.gamma, s.mu, s.degree), lctx
    )
    k = KFactor((0, 1), 1)
    assert factor_log(ctx, lctx, k) == upsilon(k_gen(ctx, k.gamma, k.degree), lctx)


def test_k_factor_with_multiple_charge():
    from wallcross.vertexlie import mat_zero

    ctx = BpsContext(vacua=("i",), order=6)
    lctx = TruncationContext(6, 1)
    k = KFactor((0, 2), 1)
    x = factor_log(ctx, lctx, k)
    n = primitive_normal((0, 1))
    assert x == LieElem.from_terms(
        lctx,
        {
            ((0, 2 * l), l): (mat_zero(1), (Fraction(1, l) * n[0], Fraction(1, l) * n[1]))
            for l in range(1, 7)
        },
    )


@st.composite
def _factors_on_one_ray(draw):
    """A context, a ray p, distinct S factors and at most one K factor on p."""
    vacua = tuple(draw(st.permutations("ijkl"))[: draw(st.integers(1, 4))])
    order = draw(st.integers(2, 8))
    p = draw(st.sampled_from(((1, 0), (0, 1), (1, 1), (-1, 2), (2, -1), (-1, -1))))
    charge = st.integers(1, 3).map(lambda k: (k * p[0], k * p[1]))
    degree = st.integers(1, order)
    strength = st.integers(-3, 3).filter(bool)
    pair = st.permutations(vacua).map(lambda v: tuple(v[:2]))
    keys = st.lists(st.tuples(pair, charge, degree), max_size=4 if len(vacua) > 1 else 0,
                    unique=True)
    factors = [SFactor(v, g, draw(strength), d) for v, g, d in draw(keys)]
    if not factors or draw(st.booleans()):
        factors.append(KFactor(draw(charge), draw(strength), draw(degree)))
    return BpsContext(vacua, order), p, factors


@given(_factors_on_one_ray())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_ray_factors_inverts_factor_log(case):
    # a ray carrying the sum of the factors' wall logs reads back as exactly
    # those factors: S by (row, column, charge, degree), then K with the
    # standard series
    ctx, p, factors = case
    lie_ctx = TruncationContext(ctx.order, len(ctx.vacua))
    logf = sum((factor_log(ctx, lie_ctx, f) for f in factors), LieElem.from_terms(lie_ctx, {}))
    row = ctx.vacua.index
    s_factors = sorted((f for f in factors if isinstance(f, SFactor)),
                       key=lambda f: (row(f.pair[0]), row(f.pair[1]), f.gamma, f.degree))
    expected = [ProducedFactor("S", p, f.degree, f.pair, f.gamma, f.mu) for f in s_factors]
    expected += [ProducedFactor("K", p, f.degree, None, f.gamma, f.omega, True)
                 for f in factors if isinstance(f, KFactor)]
    assert ray_factors(ctx, Wall(p, WallKind.RAY, logf)) == expected


def test_custom_twisting_table():
    table = {((1, 0), (0, 1)): -1, ((0, 1), (1, 0)): -1}
    twist = resolve_twist(table)
    assert twist((1, 0), (0, 1)) == -1
    with pytest.raises(SchemaError, match="no entry"):
        twist((2, 0), (0, 1))


def test_context_lookup_accessors():
    ctx = GroupoidContext(
        vacua=("i", "j"),
        order=3,
        basepoints=(("i", (1, 0)),),
        omega=(((0, 1), 2),),
        mu=(("i", "j", (1, 0), 3),),
    )
    assert ctx.basepoint("i") == (1, 0)
    assert ctx.basepoint("j") == (0, 0)
    assert ctx.basepoint("o") == (0, 0)
    assert ctx.omega_value((0, 1)) == 2
    assert ctx.mu_value("i", "j", (1, 0)) == 3
    with pytest.raises(KeyError):
        ctx.omega_value((5, 5))
    with pytest.raises(KeyError):
        ctx.mu_value("j", "i", (1, 0))
