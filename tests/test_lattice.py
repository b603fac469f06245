from fractions import Fraction

import pytest

from wallcross.lattice import (
    angular_sort,
    det2,
    in_open_half_plane,
    normal_coefficient,
    primitive_decompose,
    primitive_normal,
)


def pairing(m, n):
    """The natural pairing of a lattice vector with a dual vector."""
    return m[0] * n[0] + m[1] * n[1]


def test_primitive_normal_convention():
    assert primitive_normal((0, 1)) == (-1, 0)
    assert primitive_normal((1, 0)) == (0, 1)
    assert primitive_normal((2, 4)) == (-2, 1)
    with pytest.raises(ValueError):
        primitive_normal((0, 0))


@pytest.mark.parametrize("m, c", [((1, 2), (3, 5)), ((3, -2), (-7, 4)), ((0, 1), (5, 1)),
                                  ((-2, 0), (-1, 3)), ((2, 4), (0, 1))])
def test_normal_coefficient_reads_pairs(m, c):
    # normals (-2,1), (2,3), (-1,0), (0,-1), (-2,1): negative and non-unit components
    n = primitive_normal(m)
    p, q = c
    for scale in (1, 6):  # the pairs of d need not be in lowest terms
        d = ((p * n[0] * scale, q * scale), (p * n[1] * scale, q * scale))
        got = normal_coefficient(m, d)
        assert got[1] > 0
        assert Fraction(*got) == Fraction(p, q)


def test_primitive_normal_orthogonal_and_primitive_exhaustive():
    from math import gcd

    for a in range(-20, 21):
        for b in range(-20, 21):
            if (a, b) == (0, 0):
                continue
            n = primitive_normal((a, b))
            assert pairing((a, b), n) == 0
            assert gcd(abs(n[0]), abs(n[1])) == 1


def test_dirac_pairing_values():
    # the Dirac pairing is the determinant det2
    assert det2((1, 0), (0, 1)) == 1
    assert det2((0, 1), (1, 0)) == -1
    # the Example-1 normalisation: <m(gamma_ij), n_gamma> = -1
    assert pairing((1, 0), primitive_normal((0, 1))) == -1


def test_dirac_pairing_matches_normal_for_primitive():
    import random

    rng = random.Random(0)
    from math import gcd

    for _ in range(200):
        g = (rng.randint(-6, 6), rng.randint(-6, 6))
        if g == (0, 0) or gcd(abs(g[0]), abs(g[1])) != 1:
            continue
        g2 = (rng.randint(-6, 6), rng.randint(-6, 6))
        assert det2(g, g2) == pairing(g2, primitive_normal(g))


def test_dirac_bilinear_antisymmetric():
    import random

    rng = random.Random(1)
    for _ in range(100):
        a = (rng.randint(-5, 5), rng.randint(-5, 5))
        b = (rng.randint(-5, 5), rng.randint(-5, 5))
        c = (rng.randint(-5, 5), rng.randint(-5, 5))
        assert det2(a, b) == -det2(b, a)
        ab = (a[0] + b[0], a[1] + b[1])
        assert det2(ab, c) == det2(a, c) + det2(b, c)


def test_primitive_decompose():
    assert primitive_decompose((2, 4)) == (2, (1, 2))
    assert primitive_decompose((1, 1)) == (1, (1, 1))
    assert primitive_decompose((-3, 0)) == (3, (-1, 0))
    with pytest.raises(ValueError):
        primitive_decompose((0, 0))


def test_angular_sort_examples():
    assert angular_sort([(0, 1), (1, 1), (1, 0)]) == [(1, 0), (1, 1), (0, 1)]
    assert angular_sort([(2, 1)]) == [(2, 1)]
    assert angular_sort([(-1, 0), (1, 0)]) == [(1, 0), (-1, 0)]
    # the positive x-axis opens the order and the ray just below it closes it
    assert angular_sort([(5, -1), (0, -1), (1, 0), (-1, 0)]) == [(1, 0), (-1, 0), (0, -1), (5, -1)]


def test_angular_sort_full_circle_and_permutation():
    dirs = [(1, 0), (2, 1), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    for shift in range(len(dirs)):
        shuffled = dirs[shift:] + dirs[:shift]
        assert angular_sort(list(reversed(shuffled))) == dirs
        assert angular_sort(shuffled) == dirs


def test_angular_sort_rejects_coincident():
    with pytest.raises(ValueError, match="coincident"):
        angular_sort([(1, 1), (1, 1)])
    with pytest.raises(ValueError, match="coincident"):
        angular_sort([(1, 0), (0, -1), (1, 0)])


def test_in_open_half_plane_examples():
    assert in_open_half_plane([])
    assert in_open_half_plane([(1, 0), (2, 0)])
    assert in_open_half_plane([(1, 0), (0, 1), (-1, 2), (1, -1)])
    assert not in_open_half_plane([(1, 0), (-2, 0)])
    # no two anti-parallel, but together they span the plane
    assert not in_open_half_plane([(1, 0), (-1, 1), (0, -1)])
    # a closed half-plane is not open
    assert not in_open_half_plane([(1, 0), (0, 1), (-1, 0)])


def test_in_open_half_plane_matches_a_separating_normal():
    # the vectors lie in an open half-plane exactly when some dual vector
    # pairs positively with all of them; for coordinates up to 3 the sum of
    # two primitive normals of extreme vectors is one, so |n_i| <= 6 suffices
    import random

    rng = random.Random(2)
    normals = [(a, b) for a in range(-6, 7) for b in range(-6, 7)]
    for _ in range(300):
        vectors = [
            v for v in ((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 4)))
            if v != (0, 0)
        ]
        separated = any(all(pairing(v, n) > 0 for v in vectors) for n in normals)
        assert in_open_half_plane(vectors) == separated, vectors
